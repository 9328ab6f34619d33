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

/// Cost model and policy for the attestation plane.
///
/// All durations are virtual time. The defaults model a remote verifier:
/// a ~10 ms KDS round trip for the cert chain, ~2 ms of ECDSA-P384
/// chain-walk/context setup per verification batch, and ~0.5 ms per
/// report signature check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttPlaneConfig {
    /// Verification mode (the sweep's three arms).
    pub mode: VerifyMode,
    /// Seed for deriving per-host chip identities.
    pub seed: u64,
    /// Cost of fetching + validating a VCEK cert chain from the KDS.
    pub cert_fetch: Nanos,
    /// Per-batch signature-context setup (paid per report when unbatched).
    pub batch_setup: Nanos,
    /// Per-report signature check.
    pub sig_check: Nanos,
    /// Batch window length; reports whose service starts in the same
    /// window share one setup ([`VerifyMode::CachedBatched`] only).
    pub batch_window: Nanos,
    /// TTL for cached cert-chain/report entries, in virtual time.
    pub cache_ttl: Nanos,
    /// Degradation policy while the verifier is unreachable.
    pub degrade: FailMode,
}

impl AttPlaneConfig {
    /// The calibrated verifier model in the given mode.
    pub const fn verifier(mode: VerifyMode) -> Self {
        AttPlaneConfig {
            mode,
            seed: 0x00A7_7E57,
            cert_fetch: Nanos::from_millis(10),
            batch_setup: Nanos::from_millis(2),
            sig_check: Nanos::from_micros(500),
            batch_window: Nanos::from_millis(10),
            cache_ttl: Nanos::from_secs(60),
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
        if self.sig_check == Nanos::ZERO {
            return Err(AttPlaneError::Config("sig_check must be positive"));
        }
        if self.mode != VerifyMode::Naive && self.cache_ttl == Nanos::ZERO {
            return Err(AttPlaneError::Config(
                "cache_ttl must be positive in cached modes",
            ));
        }
        if self.mode == VerifyMode::CachedBatched && self.batch_window == Nanos::ZERO {
            return Err(AttPlaneError::Config(
                "batch_window must be positive in batched mode",
            ));
        }
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
    fn bad_configs_rejected() {
        let mut cfg = AttPlaneConfig::cached();
        cfg.cache_ttl = Nanos::ZERO;
        assert!(cfg.validate().is_err());
        let mut cfg = AttPlaneConfig::cached_batched();
        cfg.batch_window = Nanos::ZERO;
        assert!(cfg.validate().is_err());
        let mut cfg = AttPlaneConfig::naive();
        cfg.sig_check = Nanos::ZERO;
        assert!(cfg.validate().is_err());
        // Naive mode never consults the cache, so a zero TTL is fine there.
        let mut cfg = AttPlaneConfig::naive();
        cfg.cache_ttl = Nanos::ZERO;
        cfg.validate().unwrap();
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
