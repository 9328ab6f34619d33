//! A minimal arbitrary-precision unsigned integer.
//!
//! Used in two places:
//!
//! * deriving the SHA-2 round constants from the fractional parts of the
//!   square/cube roots of the first primes (see [`crate::sha2`]), which needs
//!   exact integer n-th roots of numbers around 2²⁰⁰; and
//! * the Diffie–Hellman key agreement in [`crate::dh`], which needs modular
//!   exponentiation with a 255-bit prime modulus.
//!
//! Limbs are `u64`, stored little-endian (least-significant limb first), with
//! the invariant that the most significant limb is non-zero (the value zero
//! is represented by an empty limb vector).

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// # Example
///
/// ```
/// use sevf_crypto::BigUint;
///
/// let a = BigUint::from_u64(1u64 << 63);
/// let b = a.mul(&a);
/// assert_eq!(b.bit_len(), 127);
/// ```
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x")?;
        if self.limbs.is_empty() {
            write!(f, "0")?;
        } else {
            for (i, limb) in self.limbs.iter().rev().enumerate() {
                if i == 0 {
                    write!(f, "{limb:x}")?;
                } else {
                    write!(f, "{limb:016x}")?;
                }
            }
        }
        write!(f, ")")
    }
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Creates a big integer from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Creates a big integer from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut acc: u64 = 0;
        let mut nbits = 0;
        for &b in bytes.iter().rev() {
            acc |= (b as u64) << nbits;
            nbits += 8;
            if nbits == 64 {
                limbs.push(acc);
                acc = 0;
                nbits = 0;
            }
        }
        if nbits > 0 {
            limbs.push(acc);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Serializes to big-endian bytes, left-padded with zeros to `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub(crate) fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Serializes to minimal big-endian bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        while out.first() == Some(&0) {
            out.remove(0);
        }
        out
    }

    /// Returns true if the value is zero.
    fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to one, growing the representation as needed.
    fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << (i % 64);
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let mut out = Vec::with_capacity(self.limbs.len().max(other.limbs.len()) + 1);
        let mut carry = 0u64;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            let a = self.limbs.get(i).copied().unwrap_or(0);
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Returns `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint::sub would underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Returns `self * other` (schoolbook multiplication).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u128 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Returns `self << bits`.
    pub(crate) fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Returns `(self / divisor, self % divisor)` via binary long division.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        // Shift and subtract in place over two buffers of the dividend's
        // width: the remainder, and the divisor aligned under the quotient
        // bit being decided.
        let shift = self.bit_len() - divisor.bit_len();
        let mut remainder = self.limbs.clone();
        let mut shifted = divisor.shl(shift).limbs;
        shifted.resize(remainder.len(), 0);
        let mut quotient = vec![0u64; shift / 64 + 1];
        for i in (0..=shift).rev() {
            if remainder.iter().rev().ge(shifted.iter().rev()) {
                sub_in_place(&mut remainder, &shifted);
                quotient[i / 64] |= 1 << (i % 64);
            }
            shr1_in_place(&mut shifted);
        }
        let mut quotient = BigUint { limbs: quotient };
        let mut remainder = BigUint { limbs: remainder };
        quotient.normalize();
        remainder.normalize();
        (quotient, remainder)
    }

    /// Returns `self % modulus`.
    pub(crate) fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// Returns `(self * other) % modulus`.
    fn mulmod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// Returns `self^exponent % modulus` (left-to-right square and multiply).
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub(crate) fn modpow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus == &BigUint::one() {
            return BigUint::zero();
        }
        let base = self.rem(modulus);
        let mut acc = BigUint::one();
        for i in (0..exponent.bit_len()).rev() {
            acc = acc.mulmod(&acc, modulus);
            if exponent.bit(i) {
                acc = acc.mulmod(&base, modulus);
            }
        }
        acc
    }

    /// Returns `self^n` for a small exponent.
    pub fn pow_small(&self, n: u32) -> BigUint {
        let mut acc = BigUint::one();
        for _ in 0..n {
            acc = acc.mul(self);
        }
        acc
    }

    /// Returns `floor(self^(1/n))` via bitwise binary search.
    ///
    /// Used to extract the fractional bits of prime roots when deriving the
    /// SHA-2 constants: `floor(p^(1/n) * 2^k) = floor((p << n*k)^(1/n))`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn nth_root(&self, n: u32) -> BigUint {
        assert!(n > 0, "0th root is undefined");
        if self.is_zero() {
            return BigUint::zero();
        }
        let max_bits = self.bit_len() / n as usize + 1;
        let mut root = BigUint::zero();
        for i in (0..=max_bits).rev() {
            let mut candidate = root.clone();
            candidate.set_bit(i);
            if candidate.pow_small(n) <= *self {
                root = candidate;
            }
        }
        root
    }

    /// Returns the low 64 bits of the value.
    pub(crate) fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }
}

/// `a -= b` over limb buffers of equal width, where `a >= b`.
fn sub_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
        *x = d2;
        borrow = b1 || b2;
    }
    debug_assert!(!borrow, "sub_in_place would underflow");
}

/// `a >>= 1` over a limb buffer.
fn shr1_in_place(a: &mut [u64]) {
    let mut carry = 0u64;
    for limb in a.iter_mut().rev() {
        let low = *limb << 63;
        *limb = (*limb >> 1) | carry;
        carry = low;
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_empty_and_displays() {
        let z = BigUint::zero();
        assert!(z.is_zero());
        assert_eq!(z.bit_len(), 0);
        assert_eq!(format!("{z:?}"), "BigUint(0x0)");
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::from_u64(1);
        let c = a.add(&b);
        assert_eq!(c.bit_len(), 65);
        assert_eq!(c.sub(&b), a);
        assert_eq!(c.sub(&a), b);
    }

    #[test]
    fn mul_matches_u128() {
        let a = 0xdead_beef_cafe_babeu64;
        let b = 0x1234_5678_9abc_def0u64;
        let expect = (a as u128) * (b as u128);
        let got = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
        let bytes = got.to_bytes_be_padded(16);
        let mut arr = [0u8; 16];
        arr.copy_from_slice(&bytes);
        assert_eq!(u128::from_be_bytes(arr), expect);
    }

    #[test]
    fn div_rem_small() {
        let a = BigUint::from_u64(1000);
        let b = BigUint::from_u64(7);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.low_u64(), 142);
        assert_eq!(r.low_u64(), 6);
    }

    #[test]
    fn div_rem_reconstructs() {
        let a = BigUint::from_bytes_be(&[0xff; 24]);
        let b = BigUint::from_bytes_be(&[0x3b; 9]);
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn div_rem_exact_and_same_width() {
        let b = BigUint::from_bytes_be(&[0x9d; 20]);
        let q = BigUint::from_bytes_be(&[0x51; 11]);
        assert_eq!(q.mul(&b).div_rem(&b), (q, BigUint::zero()));
        // Dividend and divisor of one bit length: a single quotient bit.
        let a = b.add(&BigUint::from_u64(5));
        assert_eq!(a.div_rem(&b), (BigUint::one(), BigUint::from_u64(5)));
        assert_eq!(b.div_rem(&b), (BigUint::one(), BigUint::zero()));
    }

    #[test]
    fn modpow_small_cases() {
        let p = BigUint::from_u64(97);
        let g = BigUint::from_u64(5);
        // 5^96 mod 97 == 1 by Fermat's little theorem.
        assert_eq!(g.modpow(&BigUint::from_u64(96), &p), BigUint::one());
        assert_eq!(g.modpow(&BigUint::zero(), &p), BigUint::one());
        assert_eq!(g.modpow(&BigUint::one(), &p), g);
    }

    #[test]
    fn nth_root_exact_and_floor() {
        let x = BigUint::from_u64(144);
        assert_eq!(x.nth_root(2).low_u64(), 12);
        let y = BigUint::from_u64(145);
        assert_eq!(y.nth_root(2).low_u64(), 12);
        let z = BigUint::from_u64(27);
        assert_eq!(z.nth_root(3).low_u64(), 3);
        let w = BigUint::from_u64(26);
        assert_eq!(w.nth_root(3).low_u64(), 2);
    }

    #[test]
    fn nth_root_large() {
        // floor(sqrt(2 << 128)) should square to <= 2<<128 and (r+1)^2 > it.
        let x = BigUint::from_u64(2).shl(128);
        let r = x.nth_root(2);
        assert!(r.pow_small(2) <= x);
        let r1 = r.add(&BigUint::one());
        assert!(r1.pow_small(2) > x);
    }

    #[test]
    fn bytes_roundtrip() {
        let bytes = [0x01u8, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09];
        let v = BigUint::from_bytes_be(&bytes);
        assert_eq!(v.to_bytes_be(), bytes.to_vec());
        assert_eq!(v.to_bytes_be_padded(12)[..3], [0, 0, 0]);
    }

    #[test]
    fn ordering_ignores_leading_zero_limbs() {
        let a = BigUint::from_bytes_be(&[0, 0, 0, 1]);
        let b = BigUint::from_u64(1);
        assert_eq!(a, b);
        assert!(BigUint::from_u64(2) > b);
    }
}
