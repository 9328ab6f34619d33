//! Seeded link model: per-message latency, jitter, loss, and scheduled
//! partitions for the control-plane links.
//!
//! A [`LinkPlan`] follows the [`sevf_sim::fault::FaultPlan`] idiom: it is
//! a pure function of `(seed, config)` and every per-message draw is a
//! *stateless* splitmix64-style hash of `(seed, link, token)`. Asking
//! whether message 42 on one link is lost never perturbs the delay drawn
//! for message 7 on another, so probing the plan in any order replays
//! identically. Partitions are scheduled `[start, end)` windows on the
//! virtual clock, scoped to one router↔host pair or to the router↔verifier
//! link; a message sent into a partition is lost (forward direction) or
//! buffered until the heal (host→router completions and refusals, which
//! model reliable-transport retransmission).

use sevf_sim::fault::unit_draw;
use sevf_sim::Nanos;

use crate::detector::DetectorConfig;
use crate::lease::LeaseConfig;
use crate::NetError;

// Domain separators for the stateless per-message draws. Arbitrary odd
// constants; all that matters is that they differ.
const DOM_DELAY: u64 = 0x7E57_0E70_0001;
const DOM_LOSS: u64 = 0x7E57_0E70_0003;

/// One directed control-plane link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkId {
    /// Router → host `i`: dispatches and lease grants.
    RouterToHost(usize),
    /// Host `i` → router: completions, refusals, heartbeats.
    HostToRouter(usize),
    /// Router → remote verifier: attestation traffic.
    RouterToVerifier,
}

impl LinkId {
    /// Stable per-link separator mixed into every draw's domain.
    fn domain(self, base: u64) -> u64 {
        let tag = match self {
            LinkId::RouterToHost(h) => 2 * h as u64 + 2,
            LinkId::HostToRouter(h) => 2 * h as u64 + 3,
            LinkId::RouterToVerifier => 1,
        };
        base ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Latency model shared by every link of the plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Base one-way latency of every message.
    pub latency: Nanos,
    /// Uniform jitter added on top: each message draws `[0, jitter)`.
    pub jitter: Nanos,
    /// Per-message loss probability in `[0, 1]` (partitions lose
    /// messages deterministically on top of this).
    pub loss: f64,
}

impl LinkSpec {
    /// A link that delivers instantly and never loses anything.
    fn ideal() -> Self {
        LinkSpec {
            latency: Nanos::ZERO,
            jitter: Nanos::ZERO,
            loss: 0.0,
        }
    }

    /// A calibrated datacenter link: 200 µs base, 100 µs jitter, and a
    /// small residual loss rate.
    pub const fn datacenter() -> Self {
        LinkSpec {
            latency: Nanos::from_micros(200),
            jitter: Nanos::from_micros(100),
            loss: 0.002,
        }
    }
}

/// What a scheduled partition cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScope {
    /// Both directions of the router↔host pair for one host.
    Host(usize),
    /// The router↔verifier link (attestation blackout).
    Verifier,
}

/// One scheduled partition: the scoped link drops every message sent in
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Which link pair the partition cuts.
    pub scope: PartitionScope,
    /// Instant the partition opens.
    pub start: Nanos,
    /// Instant the partition heals.
    pub end: Nanos,
}

impl Partition {
    /// True if `at` falls inside the partition.
    pub fn contains(&self, at: Nanos) -> bool {
        self.start <= at && at < self.end
    }
}

/// Knobs of the network layer for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Latency/jitter/loss model shared by every link.
    pub link: LinkSpec,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
    /// Horizon the heartbeat and lease-renewal schedules cover; must
    /// outlive the run whenever the detector or leases are on.
    pub horizon: Nanos,
    /// How long the router waits for a dispatch to land before treating
    /// it as lost and retrying through the recovery path.
    pub dispatch_timeout: Nanos,
    /// Gap between consecutive heartbeats from each host.
    pub heartbeat_every: Nanos,
    /// Failure detector fed by the heartbeats; `None` = the router never
    /// suspects anyone (the naive arm).
    pub detector: Option<DetectorConfig>,
    /// Lease-based dispatch ownership; `None` = hosts serve forever (the
    /// naive arm).
    pub lease: Option<LeaseConfig>,
}

impl NetConfig {
    /// A network that changes nothing: ideal links, no partitions, no
    /// detector, no leases. Callers bypass the message layer entirely for
    /// such a config, so a run replays pre-net output byte for byte.
    pub fn none() -> Self {
        NetConfig {
            link: LinkSpec::ideal(),
            partitions: Vec::new(),
            horizon: Nanos::ZERO,
            dispatch_timeout: Nanos::from_millis(50),
            heartbeat_every: Nanos::from_millis(50),
            detector: None,
            lease: None,
        }
    }

    /// True if the network can never delay, lose, or fence anything —
    /// the condition under which callers skip message indirection.
    pub fn is_none(&self) -> bool {
        self.link.latency == Nanos::ZERO
            && self.link.jitter == Nanos::ZERO
            && self.link.loss == 0.0
            && self.partitions.is_empty()
            && self.detector.is_none()
            && self.lease.is_none()
    }

    /// Checks every knob.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint, chaining lease validation
    /// errors as [`NetError`] sources.
    pub fn validate(&self, hosts: usize) -> Result<(), NetError> {
        if !self.link.loss.is_finite() || !(0.0..=1.0).contains(&self.link.loss) {
            return Err(NetError::Config("link loss outside [0, 1]"));
        }
        if self.dispatch_timeout == Nanos::ZERO {
            return Err(NetError::Config("dispatch_timeout must be positive"));
        }
        for p in &self.partitions {
            if p.start >= p.end {
                return Err(NetError::Config("partition must end after it starts"));
            }
            if let PartitionScope::Host(h) = p.scope {
                if h >= hosts {
                    return Err(NetError::Config("partition names an unknown host"));
                }
            }
        }
        if self.detector.is_some() || self.lease.is_some() {
            if self.heartbeat_every == Nanos::ZERO {
                return Err(NetError::Config(
                    "heartbeat_every must be positive with a detector or leases",
                ));
            }
            if self.horizon == Nanos::ZERO {
                return Err(NetError::Config(
                    "net horizon must be positive with a detector or leases",
                ));
            }
        }
        if let Some(lease) = &self.lease {
            lease.validate()?;
        }
        Ok(())
    }
}

/// A validated, seed-deterministic link schedule.
///
/// # Example
///
/// ```
/// use sevf_net::{LinkId, LinkPlan, LinkSpec, NetConfig};
///
/// let mut config = NetConfig::none();
/// config.link = LinkSpec::datacenter();
/// let plan = LinkPlan::generate(7, config.clone(), 4).unwrap();
/// let again = LinkPlan::generate(7, config, 4).unwrap();
/// let link = LinkId::RouterToHost(2);
/// assert_eq!(plan.delay(link, 42), again.delay(link, 42));
/// assert_eq!(plan.lost(link, 42), again.lost(link, 42));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPlan {
    seed: u64,
    config: NetConfig,
}

impl LinkPlan {
    /// Builds the plan after validating the config against `hosts`.
    ///
    /// # Errors
    ///
    /// Returns the [`NetConfig::validate`] error for an invalid config.
    pub fn generate(seed: u64, config: NetConfig, hosts: usize) -> Result<Self, NetError> {
        config.validate(hosts)?;
        Ok(LinkPlan { seed, config })
    }

    /// The seed the plan draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The config the plan was generated from.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// One-way delay of message `token` on `link`: base latency plus a
    /// stateless uniform jitter draw. Independent of every other token.
    pub fn delay(&self, link: LinkId, token: u64) -> Nanos {
        if self.config.link.jitter == Nanos::ZERO {
            return self.config.link.latency;
        }
        let u = unit_draw(self.seed, link.domain(DOM_DELAY), token);
        self.config.link.latency + self.config.link.jitter.scale_f64(u)
    }

    /// Stateless Bernoulli draw: is message `token` on `link` lost to
    /// residual (non-partition) loss?
    pub fn lost(&self, link: LinkId, token: u64) -> bool {
        self.config.link.loss > 0.0
            && unit_draw(self.seed, link.domain(DOM_LOSS), token) < self.config.link.loss
    }

    /// If the router↔host pair for `host` is partitioned at `at`, the
    /// latest instant a covering partition heals.
    pub fn host_cut(&self, host: usize, at: Nanos) -> Option<Nanos> {
        self.config
            .partitions
            .iter()
            .filter(|p| p.scope == PartitionScope::Host(host) && p.contains(at))
            .map(|p| p.end)
            .max()
    }

    /// The scheduled verifier blackout windows, in config order.
    pub fn verifier_windows(&self) -> Vec<Partition> {
        self.config
            .partitions
            .iter()
            .filter(|p| p.scope == PartitionScope::Verifier)
            .copied()
            .collect()
    }

    /// An upper bound on any single message delay (latency + jitter).
    pub fn max_delay(&self) -> Nanos {
        self.config.link.latency + self.config.link.jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulty_config() -> NetConfig {
        let mut cfg = NetConfig::none();
        cfg.link = LinkSpec::datacenter();
        cfg.partitions = vec![
            Partition {
                scope: PartitionScope::Host(1),
                start: Nanos::from_millis(100),
                end: Nanos::from_millis(300),
            },
            Partition {
                scope: PartitionScope::Verifier,
                start: Nanos::from_millis(200),
                end: Nanos::from_millis(400),
            },
        ];
        cfg
    }

    #[test]
    fn none_config_is_none_and_faulty_is_not() {
        assert!(NetConfig::none().is_none());
        assert!(!faulty_config().is_none());
        let mut latency_only = NetConfig::none();
        latency_only.link.latency = Nanos::from_micros(1);
        assert!(!latency_only.is_none());
    }

    #[test]
    fn draws_are_stateless_and_per_link() {
        let plan = LinkPlan::generate(7, faulty_config(), 4).unwrap();
        let a = LinkId::RouterToHost(0);
        let b = LinkId::HostToRouter(0);
        let first = plan.delay(a, 100);
        // Probing other links and tokens must not change token 100's draw.
        for t in 0..50 {
            let _ = plan.delay(b, t);
            let _ = plan.lost(a, t);
        }
        assert_eq!(plan.delay(a, 100), first);
        assert_ne!(
            plan.delay(a, 100),
            plan.delay(b, 100),
            "directions draw from distinct streams"
        );
        assert!(first >= plan.config().link.latency);
        assert!(first <= plan.max_delay());
    }

    #[test]
    fn loss_rate_is_respected() {
        let mut cfg = NetConfig::none();
        cfg.link.loss = 0.25;
        let plan = LinkPlan::generate(3, cfg, 2).unwrap();
        let hits = (0..4000u64)
            .filter(|&t| plan.lost(LinkId::RouterToHost(0), t))
            .count();
        let rate = hits as f64 / 4000.0;
        assert!((0.2..0.3).contains(&rate), "rate {rate}");
    }

    #[test]
    fn partitions_cut_the_scoped_link_only() {
        let plan = LinkPlan::generate(7, faulty_config(), 4).unwrap();
        let inside = Nanos::from_millis(150);
        assert_eq!(plan.host_cut(1, inside), Some(Nanos::from_millis(300)));
        assert_eq!(plan.host_cut(0, inside), None);
        // The verifier blackout cuts no router↔host pair.
        assert_eq!(plan.host_cut(0, Nanos::from_millis(250)), None);
        assert_eq!(plan.host_cut(1, Nanos::from_millis(300)), None);
        assert_eq!(plan.verifier_windows().len(), 1);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = NetConfig::none();
        cfg.link.loss = 1.5;
        assert!(cfg.validate(1).is_err());

        let mut cfg = faulty_config();
        cfg.partitions[0].scope = PartitionScope::Host(9);
        assert!(cfg.validate(4).is_err());

        let mut cfg = faulty_config();
        cfg.partitions[0].end = cfg.partitions[0].start;
        assert!(cfg.validate(4).is_err());

        let mut cfg = NetConfig::none();
        cfg.detector = Some(DetectorConfig);
        assert!(cfg.validate(1).is_err(), "detector needs a horizon");
        cfg.horizon = Nanos::from_secs(10);
        assert!(cfg.validate(1).is_ok());

        assert!(NetConfig::none().validate(1).is_ok());
        assert!(faulty_config().validate(4).is_ok());
    }
}
