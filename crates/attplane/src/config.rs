//! Verifier-service configuration: mode and cost model.

use sevf_sim::Nanos;

use crate::AttPlaneError;

/// How the verifier service treats each launch's attestation evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// Every launch pays the full pipeline: KDS cert-chain fetch,
    /// signature-context setup, signature check. No state is reused.
    Naive,
    /// The VCEK cert chain and verified-report state are cached per
    /// *(chip id, TCB version)*; a hit skips the KDS fetch.
    Cached,
    /// Cached, plus reports arriving within one batch window share a
    /// single signature-context setup (the first member pays it).
    CachedBatched,
}

impl VerifyMode {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            VerifyMode::Naive => "naive",
            VerifyMode::Cached => "cached",
            VerifyMode::CachedBatched => "cached+batched",
        }
    }
}

/// What the plane does when the remote verifier is unreachable.
///
/// Fail-closed is the conservative posture: no fresh verdicts means no
/// launches. Fail-open trades a bounded amount of staleness for
/// availability: launches whose cert chain was verified recently enough
/// (within TTL + budget) are served from [`crate::CertCache`] and queued
/// for re-verification once the verifier heals. Revocation always wins
/// over staleness in either mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailMode {
    /// Refuse every launch while the verifier is unreachable.
    Closed,
    /// Serve from cache within `ttl + staleness_budget`, re-verify on heal.
    Open {
        /// Extra age past the TTL a cached verdict may be trusted for.
        staleness_budget: Nanos,
    },
}

/// Policy for the attestation plane; its cost model is the constants.
///
/// All durations are virtual time. The constants model a remote verifier:
/// a ~10 ms KDS round trip for the cert chain, ~2 ms of ECDSA-P384
/// chain-walk/context setup per verification batch, and ~0.5 ms per
/// report signature check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttPlaneConfig {
    /// Verification mode (the sweep's three arms).
    pub mode: VerifyMode,
    /// Degradation policy while the verifier is unreachable.
    pub degrade: FailMode,
}

impl AttPlaneConfig {
    /// Seed for deriving per-host chip identities.
    pub const SEED: u64 = 0x00A7_7E57;
    /// Cost of fetching + validating a VCEK cert chain from the KDS.
    pub const CERT_FETCH: Nanos = Nanos::from_millis(10);
    /// Per-batch signature-context setup (paid per report when unbatched).
    pub const BATCH_SETUP: Nanos = Nanos::from_millis(2);
    /// Per-report signature check.
    pub const SIG_CHECK: Nanos = Nanos::from_micros(500);
    /// Batch window length; reports whose service starts in the same
    /// window share one setup ([`VerifyMode::CachedBatched`] only).
    pub const BATCH_WINDOW: Nanos = Nanos::from_millis(10);
    /// TTL for cached cert-chain/report entries, in virtual time.
    pub const CACHE_TTL: Nanos = Nanos::from_secs(60);

    /// The calibrated verifier model in the given mode.
    pub const fn verifier(mode: VerifyMode) -> Self {
        AttPlaneConfig {
            mode,
            degrade: FailMode::Closed,
        }
    }

    /// Naive per-launch verification (the baseline arm).
    pub fn naive() -> Self {
        Self::verifier(VerifyMode::Naive)
    }

    /// Cached verification (the middle arm).
    pub fn cached() -> Self {
        Self::verifier(VerifyMode::Cached)
    }

    /// Cached + batched verification (the full control plane).
    pub const fn cached_batched() -> Self {
        Self::verifier(VerifyMode::CachedBatched)
    }

    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), AttPlaneError> {
        if let FailMode::Open { staleness_budget } = self.degrade {
            if staleness_budget == Nanos::ZERO {
                return Err(AttPlaneError::Config(
                    "fail-open staleness budget must be positive",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            AttPlaneConfig::naive(),
            AttPlaneConfig::cached(),
            AttPlaneConfig::cached_batched(),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn zero_fail_open_budget_rejected() {
        // Fail-open with no budget would be fail-open forever; rejected.
        let mut cfg = AttPlaneConfig::cached();
        cfg.degrade = FailMode::Open {
            staleness_budget: Nanos::ZERO,
        };
        assert!(cfg.validate().is_err());
        cfg.degrade = FailMode::Open {
            staleness_budget: Nanos::from_secs(30),
        };
        cfg.validate().unwrap();
    }
}
