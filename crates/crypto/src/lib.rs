//! From-scratch cryptographic primitives for the SEVeriFast reproduction.
//!
//! The SEVeriFast boot path leans on a small set of primitives:
//!
//! * **SHA-256** — the boot verifier hashes the kernel/initrd during measured
//!   direct boot (the paper uses the `sha2` crate with x86 SHA extensions).
//! * **SHA-384** — the PSP chains `LAUNCH_UPDATE_DATA` pages into the SEV-SNP
//!   launch digest and signs attestation reports over it.
//! * **AES-128 (XEX mode)** — stands in for the memory-controller encryption
//!   engine: equal plaintexts at different guest-physical addresses yield
//!   different ciphertexts (the property the paper cites in §6.2 when
//!   explaining why KVM pins guest pages).
//! * **AES-128 (CTR mode) + HMAC** — encrypt-then-MAC secret wrapping on the
//!   attestation channel.
//! * **Diffie–Hellman over GF(2²⁵⁵ − 19)** — session-key agreement between
//!   the guest and the guest owner after attestation.
//!
//! Everything here is implemented from first principles: the SHA-2 round
//! constants are derived from the fractional parts of prime roots and the AES
//! S-box from GF(2⁸) inversion, then validated against the published FIPS and
//! NIST test vectors in this crate's test suite.
//!
//! # Example
//!
//! ```
//! use sevf_crypto::sha256;
//!
//! let digest = sha256(b"severifast");
//! assert_eq!(digest.len(), 32);
//! ```
//!
//! This code is a simulation substrate for systems research; it is **not**
//! hardened against side channels and must not be used to protect real data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod bigint;
pub mod ctr;
pub mod dh;
pub mod hex;
pub mod hmac;
pub mod sha2;
pub mod xex;

pub use aes::Aes128;
pub use bigint::BigUint;
pub use ctr::AesCtr;
pub use dh::{DhKeyPair, DhPublicKey, DhSharedSecret};
pub use hmac::{hmac_sha256, hmac_sha384};
pub use sha2::{sha256, sha384, sha384_batch, sha384_x4, Sha256, Sha384};
pub use xex::XexCipher;

/// A 256-bit digest produced by [`Sha256`].
pub type Digest256 = [u8; 32];
