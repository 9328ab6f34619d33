//! Tiny hexadecimal helpers used by tests, tooling, and report displays.

/// Encodes bytes as lowercase hex.
///
/// # Example
///
/// ```
/// assert_eq!(sevf_crypto::hex::to_hex(&[0xde, 0xad]), "dead");
/// ```
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decodes a lowercase/uppercase hex string into bytes.
///
/// # Errors
///
/// Returns `None` if the string has odd length or contains a non-hex digit.
#[cfg(test)]
pub(crate) fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data = [0x00u8, 0x01, 0x7f, 0x80, 0xff];
        assert_eq!(from_hex(&to_hex(&data)).unwrap(), data.to_vec());
    }

    #[test]
    fn rejects_odd_length_and_bad_digits() {
        assert_eq!(from_hex("abc"), None);
        assert_eq!(from_hex("zz"), None);
        assert_eq!(from_hex(""), Some(vec![]));
    }

    #[test]
    fn accepts_uppercase() {
        assert_eq!(from_hex("DEAD"), Some(vec![0xde, 0xad]));
    }
}
