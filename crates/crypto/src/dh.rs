//! Diffie–Hellman key agreement over GF(2²⁵⁵ − 19).
//!
//! After remote attestation, the guest and the guest owner need a shared
//! session key for secret provisioning (§2.4 step 8 of the paper). The
//! artifact uses scripts from AMD's `sev-guest` repository; we implement a
//! classic Diffie–Hellman exchange over the prime field GF(p) with
//! p = 2²⁵⁵ − 19 (the curve25519 prime, used here as a *field* DH modulus,
//! not as an elliptic curve — documented substitution in DESIGN.md).
//!
//! Public keys are generated inside encrypted guest memory at attestation
//! time, so they never appear in the plain-text initrd (§2.6,
//! "Secret-free Construction").

use std::fmt;
use std::sync::OnceLock;

use crate::bigint::BigUint;
use crate::sha2::sha256;

/// p = 2²⁵⁵ − 19.
fn modulus() -> &'static BigUint {
    static P: OnceLock<BigUint> = OnceLock::new();
    P.get_or_init(|| BigUint::one().shl(255).sub(&BigUint::from_u64(19)))
}

/// Generator g = 2.
fn generator() -> &'static BigUint {
    static G: OnceLock<BigUint> = OnceLock::new();
    G.get_or_init(|| BigUint::from_u64(2))
}

/// A Diffie–Hellman public key (32 bytes, big-endian field element).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DhPublicKey(pub [u8; 32]);

impl fmt::Debug for DhPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DhPublicKey({}…)", crate::hex::to_hex(&self.0[..4]))
    }
}

/// A derived 32-byte shared secret: SHA-256 of the raw DH output.
#[derive(Clone, PartialEq, Eq)]
pub struct DhSharedSecret(pub [u8; 32]);

impl fmt::Debug for DhSharedSecret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print secret material.
        write!(f, "DhSharedSecret(<32 bytes>)")
    }
}

impl DhSharedSecret {
    /// Splits the shared secret into an AES key and a MAC key
    /// (encrypt-then-MAC key separation via domain-tagged SHA-256).
    pub fn derive_keys(&self) -> ([u8; 16], [u8; 32]) {
        let mut enc_input = b"sevf-enc".to_vec();
        enc_input.extend_from_slice(&self.0);
        let enc = sha256(&enc_input);
        let mut mac_input = b"sevf-mac".to_vec();
        mac_input.extend_from_slice(&self.0);
        let mac = sha256(&mac_input);
        let mut enc_key = [0u8; 16];
        enc_key.copy_from_slice(&enc[..16]);
        (enc_key, mac)
    }
}

/// A Diffie–Hellman key pair.
///
/// # Example
///
/// ```
/// use sevf_crypto::DhKeyPair;
///
/// let guest = DhKeyPair::from_seed(b"guest entropy");
/// let owner = DhKeyPair::from_seed(b"owner entropy");
/// let a = guest.shared_secret(&owner.public_key());
/// let b = owner.shared_secret(&guest.public_key());
/// assert_eq!(a, b);
/// ```
#[derive(Clone)]
pub struct DhKeyPair {
    private: BigUint,
    public: DhPublicKey,
}

impl fmt::Debug for DhKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DhKeyPair(public: {:?})", self.public)
    }
}

impl DhKeyPair {
    /// Derives a key pair deterministically from seed entropy.
    ///
    /// The private scalar is SHA-256 of the seed (domain-tagged), clamped to
    /// 254 bits so it is nonzero and less than the modulus.
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut input = b"sevf-dh-priv".to_vec();
        input.extend_from_slice(seed);
        let mut scalar_bytes = sha256(&input);
        scalar_bytes[0] &= 0x3f; // < 2^254 < p
        scalar_bytes[31] |= 0x01; // nonzero
        let private = BigUint::from_bytes_be(&scalar_bytes);
        let public_value = generator().modpow(&private, modulus());
        let public = DhPublicKey(
            public_value
                .to_bytes_be_padded(32)
                .try_into()
                .expect("field element fits in 32 bytes"),
        );
        DhKeyPair { private, public }
    }

    /// Returns the public key.
    pub fn public_key(&self) -> DhPublicKey {
        self.public.clone()
    }

    /// Computes the shared secret with a peer's public key.
    pub fn shared_secret(&self, peer: &DhPublicKey) -> DhSharedSecret {
        let peer_value = BigUint::from_bytes_be(&peer.0);
        let raw = peer_value.modpow(&self.private, modulus());
        let mut input = b"sevf-dh-shared".to_vec();
        input.extend_from_slice(&raw.to_bytes_be_padded(32));
        DhSharedSecret(sha256(&input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulus_is_2_255_minus_19() {
        let p = modulus();
        assert_eq!(p.bit_len(), 255);
        assert_eq!(p.add(&BigUint::from_u64(19)), BigUint::one().shl(255));
    }

    #[test]
    fn key_agreement_commutes() {
        let a = DhKeyPair::from_seed(b"alpha");
        let b = DhKeyPair::from_seed(b"bravo");
        assert_eq!(
            a.shared_secret(&b.public_key()),
            b.shared_secret(&a.public_key())
        );
    }

    #[test]
    fn key_agreement_is_pinned() {
        // Captured before `BigUint::div_rem` became in-place: the field
        // arithmetic is exact, so every value stays bit-for-bit the same.
        let a = DhKeyPair::from_seed(b"alpha");
        let b = DhKeyPair::from_seed(b"bravo");
        assert_eq!(
            crate::hex::to_hex(&a.public_key().0),
            "1d210ee280c6e92d0ab522168083bd99cc59e9deca30b0f29dbb061e113e531a"
        );
        assert_eq!(
            crate::hex::to_hex(&a.shared_secret(&b.public_key()).0),
            "96dd99e2bb405f594b527c3ebf0918846b55f4e5c69a72090f83f3507774e7d3"
        );
    }

    #[test]
    fn different_peers_different_secrets() {
        let a = DhKeyPair::from_seed(b"alpha");
        let b = DhKeyPair::from_seed(b"bravo");
        let c = DhKeyPair::from_seed(b"charlie");
        assert_ne!(
            a.shared_secret(&b.public_key()),
            a.shared_secret(&c.public_key())
        );
    }

    #[test]
    fn deterministic_from_seed() {
        let a1 = DhKeyPair::from_seed(b"same");
        let a2 = DhKeyPair::from_seed(b"same");
        assert_eq!(a1.public_key(), a2.public_key());
    }

    #[test]
    fn derive_keys_are_independent() {
        let a = DhKeyPair::from_seed(b"alpha");
        let b = DhKeyPair::from_seed(b"bravo");
        let s = a.shared_secret(&b.public_key());
        let (enc, mac) = s.derive_keys();
        assert_ne!(&enc[..], &mac[..16]);
    }

    #[test]
    fn debug_impls_hide_secrets() {
        let a = DhKeyPair::from_seed(b"alpha");
        let s = a.shared_secret(&a.public_key());
        assert_eq!(format!("{s:?}"), "DhSharedSecret(<32 bytes>)");
        assert!(!format!("{a:?}").contains("private"));
    }
}
