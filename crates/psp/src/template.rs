//! Content-addressed keys for shared-key template launches (§6.2).
//!
//! A template launch reuses the memory key and launch measurement of a
//! previously finalized guest: any launch request whose *expected
//! measurement* matches a finalized template can skip per-VM PSP
//! measurement entirely. The measurement therefore doubles as a
//! content-address — two VM configurations share a template exactly when
//! their launch digests agree — and [`TemplateKey`] is that address as a
//! first-class type, used by the fleet control plane's launch cache.

use std::fmt;

/// A content-addressed template identity: the 48-byte SHA-384 launch
/// measurement of the finalized template guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemplateKey([u8; 48]);

impl TemplateKey {
    /// Wraps a launch measurement as a cache key.
    pub fn from_measurement(measurement: [u8; 48]) -> Self {
        TemplateKey(measurement)
    }

    /// The underlying measurement bytes.
    pub fn as_bytes(&self) -> &[u8; 48] {
        &self.0
    }

    /// Abbreviated hex form (first 8 bytes) for reports and logs.
    fn short_hex(&self) -> String {
        self.0[..8].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl From<[u8; 48]> for TemplateKey {
    fn from(measurement: [u8; 48]) -> Self {
        TemplateKey::from_measurement(measurement)
    }
}

impl fmt::Display for TemplateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "template:{}", self.short_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_content_addressed() {
        let a = TemplateKey::from_measurement([7u8; 48]);
        let b = TemplateKey::from_measurement([7u8; 48]);
        let c = TemplateKey::from_measurement([8u8; 48]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.short_hex(), "0707070707070707");
        assert_eq!(format!("{a}"), "template:0707070707070707");
    }
}
