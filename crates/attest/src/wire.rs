//! Wire formats for the attestation channel.

use sevf_crypto::hmac::verify_tag;
use sevf_crypto::{hmac_sha256, AesCtr, DhPublicKey, DhSharedSecret};

/// A secret wrapped for the guest: AES-CTR ciphertext authenticated with
/// HMAC-SHA-256 (encrypt-then-MAC), plus the owner's DH public key so the
/// guest can derive the same session keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrappedSecret {
    /// The guest owner's ephemeral DH public key.
    pub owner_public: DhPublicKey,
    /// CTR nonce.
    pub nonce: [u8; 12],
    /// Encrypted secret.
    pub ciphertext: Vec<u8>,
    /// HMAC over nonce ‖ ciphertext under the MAC half of the session key.
    pub tag: [u8; 32],
}

impl WrappedSecret {
    /// Wraps `secret` under the session derived from `shared`.
    pub(crate) fn seal(
        shared: &DhSharedSecret,
        owner_public: DhPublicKey,
        nonce: [u8; 12],
        secret: &[u8],
    ) -> Self {
        let (enc_key, mac_key) = shared.derive_keys();
        let ciphertext = AesCtr::new(&enc_key, &nonce).apply(secret);
        let mut mac_input = nonce.to_vec();
        mac_input.extend_from_slice(&ciphertext);
        let tag = hmac_sha256(&mac_key, &mac_input);
        WrappedSecret {
            owner_public,
            nonce,
            ciphertext,
            tag,
        }
    }

    /// Verifies the tag and unwraps the secret. Returns `None` if the tag
    /// does not authenticate (tampered channel).
    pub fn open(&self, shared: &DhSharedSecret) -> Option<Vec<u8>> {
        let (enc_key, mac_key) = shared.derive_keys();
        let mut mac_input = self.nonce.to_vec();
        mac_input.extend_from_slice(&self.ciphertext);
        let expected = hmac_sha256(&mac_key, &mac_input);
        if !verify_tag(&expected, &self.tag) {
            return None;
        }
        Some(AesCtr::new(&enc_key, &self.nonce).apply(&self.ciphertext))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevf_crypto::DhKeyPair;

    fn session() -> (DhSharedSecret, DhPublicKey) {
        let owner = DhKeyPair::from_seed(b"owner");
        let guest = DhKeyPair::from_seed(b"guest");
        (owner.shared_secret(&guest.public_key()), owner.public_key())
    }

    #[test]
    fn seal_open_roundtrip() {
        let (shared, owner_pub) = session();
        let wrapped = WrappedSecret::seal(&shared, owner_pub, [1u8; 12], b"disk key");
        assert_eq!(wrapped.open(&shared).unwrap(), b"disk key");
    }

    #[test]
    fn ciphertext_hides_secret() {
        let (shared, owner_pub) = session();
        let wrapped = WrappedSecret::seal(&shared, owner_pub, [1u8; 12], b"disk key");
        assert_ne!(wrapped.ciphertext, b"disk key");
    }

    #[test]
    fn tamper_detected() {
        let (shared, owner_pub) = session();
        let mut wrapped = WrappedSecret::seal(&shared, owner_pub, [1u8; 12], b"disk key");
        wrapped.ciphertext[0] ^= 1;
        assert_eq!(wrapped.open(&shared), None);
    }

    #[test]
    fn wrong_session_fails() {
        let (shared, owner_pub) = session();
        let wrapped = WrappedSecret::seal(&shared, owner_pub, [1u8; 12], b"disk key");
        let other =
            DhKeyPair::from_seed(b"eve").shared_secret(&DhKeyPair::from_seed(b"x").public_key());
        assert_eq!(wrapped.open(&other), None);
    }
}
