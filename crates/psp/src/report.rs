//! Attestation reports and the chip/root key model.
//!
//! On hardware, each PSP holds a chip-unique ECDSA-P384 key (VCEK) whose
//! public half is certified by AMD's root. We model the same trust
//! relationships with a chip-unique *MAC* key known only to the PSP and to
//! the [`AmdRootRegistry`] (standing in for AMD's key-distribution service):
//! the host can neither forge nor tamper with a report, and any guest owner
//! can verify one through the registry. The substitution is documented in
//! DESIGN.md.

use std::collections::{HashMap, HashSet};
use std::fmt;

use sevf_crypto::hex::to_hex;
use sevf_crypto::{hmac_sha384, sha256, sha384};
use sevf_sim::cost::SevGeneration;

/// The guest policy bound into the launch context and every report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GuestPolicy {
    /// Which SEV generation the guest runs under.
    pub generation: SevGeneration,
    /// Whether the host may attach a debugger (always false here, as in the
    /// paper's threat model).
    pub debug_allowed: bool,
}

impl GuestPolicy {
    /// The policy used throughout the paper: SNP, no debug.
    pub fn snp() -> Self {
        GuestPolicy {
            generation: SevGeneration::SevSnp,
            debug_allowed: false,
        }
    }

    /// Policy for an arbitrary generation, no debug.
    pub(crate) fn for_generation(generation: SevGeneration) -> Self {
        GuestPolicy {
            generation,
            debug_allowed: false,
        }
    }

    fn encode(&self) -> [u8; 2] {
        let gen_tag = match self.generation {
            SevGeneration::None => 0u8,
            SevGeneration::Sev => 1,
            SevGeneration::SevEs => 2,
            SevGeneration::SevSnp => 3,
        };
        [gen_tag, self.debug_allowed as u8]
    }
}

/// A chip-unique identity: ID plus signing key (held by the PSP).
#[derive(Clone)]
pub struct ChipIdentity {
    /// Public chip identifier (hash of the signing key).
    pub chip_id: [u8; 32],
    signing_key: [u8; 48],
}

impl fmt::Debug for ChipIdentity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChipIdentity({}…)", to_hex(&self.chip_id[..4]))
    }
}

impl ChipIdentity {
    /// Derives a chip identity from seed entropy (manufacturing fuse model).
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut input = b"sevf-chip-key".to_vec();
        input.extend_from_slice(seed);
        let signing_key = sha384(&input);
        let chip_id = sha256(&signing_key);
        ChipIdentity {
            chip_id,
            signing_key,
        }
    }

    /// Signs a report body.
    pub(crate) fn sign(&self, body: &[u8]) -> [u8; 48] {
        hmac_sha384(&self.signing_key, body)
    }
}

/// A signed SEV-SNP attestation report (§2.4 steps 5–8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationReport {
    /// Report format version.
    pub version: u32,
    /// Guest policy at launch.
    pub policy: GuestPolicy,
    /// The launch measurement chained by the PSP.
    pub measurement: [u8; 48],
    /// 64 bytes supplied by the guest — here, the guest's ephemeral DH
    /// public key plus a nonce, so secrets can be wrapped to the guest.
    pub report_data: [u8; 64],
    /// Which chip signed the report.
    pub chip_id: [u8; 32],
    /// Signature over everything above.
    pub signature: [u8; 48],
}

impl AttestationReport {
    /// Serializes the signed portion of the report.
    pub(crate) fn body_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 2 + 48 + 64 + 32);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.policy.encode());
        out.extend_from_slice(&self.measurement);
        out.extend_from_slice(&self.report_data);
        out.extend_from_slice(&self.chip_id);
        out
    }

    /// Full wire encoding (body || signature), as placed into encrypted
    /// guest memory by the PSP.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.body_bytes();
        out.extend_from_slice(&self.signature);
        out
    }

    /// Parses a wire encoding produced by [`AttestationReport::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`ReportError::WrongLength`] unless the input is exactly one report
    /// long, then [`ReportError::UnknownGeneration`] for a generation byte
    /// that names no SEV generation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ReportError> {
        if bytes.len() != 4 + 2 + 48 + 64 + 32 + 48 {
            return Err(ReportError::WrongLength { len: bytes.len() });
        }
        let generation = match bytes[4] {
            0 => SevGeneration::None,
            1 => SevGeneration::Sev,
            2 => SevGeneration::SevEs,
            3 => SevGeneration::SevSnp,
            other => return Err(ReportError::UnknownGeneration(other)),
        };
        let policy = GuestPolicy {
            generation,
            debug_allowed: bytes[5] != 0,
        };
        // The length is checked above, so every field is in range.
        let field = |at: usize| move |i: usize| bytes[at + i];
        Ok(AttestationReport {
            version: u32::from_le_bytes(std::array::from_fn(field(0))),
            policy,
            measurement: std::array::from_fn(field(6)),
            report_data: std::array::from_fn(field(54)),
            chip_id: std::array::from_fn(field(118)),
            signature: std::array::from_fn(field(150)),
        })
    }
}

/// Why [`AttestationReport::from_bytes`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportError {
    /// The input is not one report long.
    WrongLength {
        /// Its length in bytes.
        len: usize,
    },
    /// The generation byte names no SEV generation.
    UnknownGeneration(u8),
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::WrongLength { len } => {
                write!(f, "attestation report of {len} bytes, expected 198")
            }
            ReportError::UnknownGeneration(byte) => {
                write!(f, "attestation report names unknown SEV generation {byte}")
            }
        }
    }
}

impl std::error::Error for ReportError {}

/// The guest owner's view of AMD's root of trust: can check that a report
/// was signed by a genuine chip, and tracks chips whose keys have been
/// distrusted (the KDS revocation-list model).
#[derive(Debug, Default, Clone)]
pub struct AmdRootRegistry {
    chips: HashMap<[u8; 32], ChipIdentity>,
    revoked: HashSet<[u8; 32]>,
}

impl AmdRootRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a chip (models AMD's manufacturing-time key escrow).
    pub fn register(&mut self, chip: ChipIdentity) {
        self.chips.insert(chip.chip_id, chip);
    }

    /// Distrusts a chip key. Every report that chip ever signed — past or
    /// future — fails verification from this point on; §6.2's templates
    /// derived under that key must die with it.
    pub fn revoke(&mut self, chip_id: &[u8; 32]) {
        self.revoked.insert(*chip_id);
    }

    /// Whether a chip's key has been revoked.
    pub fn is_revoked(&self, chip_id: &[u8; 32]) -> bool {
        self.revoked.contains(chip_id)
    }

    /// Verifies a report's signature against the chip that claims to have
    /// produced it. Returns `false` for unknown chips, revoked chips, or
    /// bad signatures.
    pub fn verify(&self, report: &AttestationReport) -> bool {
        if self.is_revoked(&report.chip_id) {
            return false;
        }
        let Some(chip) = self.chips.get(&report.chip_id) else {
            return false;
        };
        let expected = chip.sign(&report.body_bytes());
        sevf_crypto::hmac::verify_tag(&expected, &report.signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(chip: &ChipIdentity) -> AttestationReport {
        let mut report = AttestationReport {
            version: 2,
            policy: GuestPolicy::snp(),
            measurement: [0xabu8; 48],
            report_data: [0x11u8; 64],
            chip_id: chip.chip_id,
            signature: [0u8; 48],
        };
        report.signature = chip.sign(&report.body_bytes());
        report
    }

    #[test]
    fn roundtrip_wire_encoding() {
        let chip = ChipIdentity::from_seed(b"machine-0");
        let report = sample_report(&chip);
        let parsed = AttestationReport::from_bytes(&report.to_bytes()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn registry_accepts_genuine_reports() {
        let chip = ChipIdentity::from_seed(b"machine-0");
        let mut registry = AmdRootRegistry::new();
        registry.register(chip.clone());
        assert!(registry.verify(&sample_report(&chip)));
    }

    #[test]
    fn registry_rejects_tampered_measurement() {
        let chip = ChipIdentity::from_seed(b"machine-0");
        let mut registry = AmdRootRegistry::new();
        registry.register(chip.clone());
        let mut report = sample_report(&chip);
        report.measurement[0] ^= 1;
        assert!(!registry.verify(&report));
    }

    #[test]
    fn registry_rejects_unknown_chip() {
        let chip = ChipIdentity::from_seed(b"machine-0");
        let registry = AmdRootRegistry::new();
        assert!(!registry.verify(&sample_report(&chip)));
    }

    #[test]
    fn registry_rejects_cross_chip_forgery() {
        // A report signed by chip A but claiming chip B's identity.
        let a = ChipIdentity::from_seed(b"A");
        let b = ChipIdentity::from_seed(b"B");
        let mut registry = AmdRootRegistry::new();
        registry.register(a.clone());
        registry.register(b.clone());
        let mut report = sample_report(&a);
        report.chip_id = b.chip_id;
        report.signature = a.sign(&report.body_bytes());
        assert!(!registry.verify(&report));
    }

    #[test]
    fn revocation_defeats_previously_valid_reports() {
        let chip = ChipIdentity::from_seed(b"machine-0");
        let mut registry = AmdRootRegistry::new();
        registry.register(chip.clone());
        let report = sample_report(&chip);
        assert!(registry.verify(&report));
        registry.revoke(&chip.chip_id);
        assert!(registry.is_revoked(&chip.chip_id));
        assert!(!registry.verify(&report));
        // Other chips are unaffected.
        let other = ChipIdentity::from_seed(b"machine-1");
        registry.register(other.clone());
        assert!(registry.verify(&sample_report(&other)));
    }

    #[test]
    fn malformed_bytes_rejected() {
        assert_eq!(
            AttestationReport::from_bytes(&[0u8; 10]),
            Err(ReportError::WrongLength { len: 10 })
        );
        let chip = ChipIdentity::from_seed(b"m");
        let mut bytes = sample_report(&chip).to_bytes();
        bytes[4] = 9; // invalid generation tag
        assert_eq!(
            AttestationReport::from_bytes(&bytes),
            Err(ReportError::UnknownGeneration(9))
        );
    }

    #[test]
    fn debug_never_prints_signing_key() {
        let chip = ChipIdentity::from_seed(b"m");
        let repr = format!("{chip:?}");
        assert!(repr.starts_with("ChipIdentity("));
        assert!(repr.len() < 40);
    }
}
