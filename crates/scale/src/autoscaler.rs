//! The autoscaler: reactive and predictive scaling decisions from load.
//!
//! The scaler owns no cluster state — it is a pure decision engine. Each
//! control tick the host layer hands it an [`Observation`] (live hosts,
//! arrivals since the last tick, committed PSP backlog, queued requests)
//! and gets back a [`Decision`]: hold, scale out by `n`, or scale in by
//! `n`, optionally with a per-host warm-pool prescription to apply first.
//!
//! Two policies:
//!
//! * **Reactive** scales out when per-host PSP backlog crosses
//!   `BACKLOG_OUT` (the queue is already hurting) and scales in when it
//!   drops under `BACKLOG_IN` *and* fewer hosts would still carry the
//!   observed rate. Classic threshold control with cooldown hysteresis.
//! * **Predictive** keeps a sliding window of observed rates, extrapolates
//!   the ramp `lead` ahead, and provisions for the forecast — pre-warming
//!   pools on the hosts it is about to need, because a warm boot is ~free
//!   while a cold SEV launch is pinned at the measured per-host ceiling.
//!
//! Decisions are deterministic (no RNG anywhere in this module) and every
//! emitted non-hold decision increments exactly one counter, so obs marker
//! counts can be checked against the counters exactly.

use sevf_sim::Nanos;

use crate::ScaleError;

/// Which control law drives the scaler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalePolicy {
    /// Threshold control on observed PSP backlog with cooldown hysteresis.
    Reactive,
    /// Windowed rate forecast; pre-provisions hosts and pre-warms pools
    /// `lead` ahead of the ramp.
    Predictive {
        /// Sliding-window length, in ticks, of the rate history.
        window: usize,
        /// How far ahead of "now" to provision for.
        lead: Nanos,
    },
}

impl ScalePolicy {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            ScalePolicy::Reactive => "reactive",
            ScalePolicy::Predictive { .. } => "predictive",
        }
    }
}

/// Per-host committed PSP backlog (queued launch work) above which the
/// reactive law scales out.
const BACKLOG_OUT: f64 = 3.0;

/// Per-host backlog below which the reactive law considers scale-in.
const BACKLOG_IN: f64 = 0.5;

/// Autoscaler knobs. Build with [`AutoscalerConfig::reactive`] or
/// [`AutoscalerConfig::predictive`]; the reactive thresholds are the
/// constants `BACKLOG_OUT` and `BACKLOG_IN`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Floor on live hosts; scale-in never drains below this.
    pub min_hosts: usize,
    /// Ceiling on live hosts; scale-out never exceeds this.
    pub max_hosts: usize,
    /// The control law.
    pub policy: ScalePolicy,
    /// Control-loop period: one [`Observation`] per tick.
    pub tick: Nanos,
    /// Minimum spacing between consecutive non-hold decisions.
    pub cooldown: Nanos,
    /// Sustainable serving rate of one host (req/s) — the paper's cold
    /// SEV ceiling (~34 req/s/host) unless pools keep boots warm.
    pub host_rps: f64,
    /// Total warm-slot budget the scaler spreads across live hosts via
    /// pre-warm prescriptions.
    pub warm_budget: usize,
}

impl AutoscalerConfig {
    /// A reactive scaler over `[min_hosts, max_hosts]`.
    pub fn reactive(min_hosts: usize, max_hosts: usize) -> Self {
        AutoscalerConfig {
            min_hosts,
            max_hosts,
            policy: ScalePolicy::Reactive,
            tick: Nanos::from_millis(200),
            cooldown: Nanos::from_millis(400),
            host_rps: 34.0,
            warm_budget: 8 * max_hosts,
        }
    }

    /// A predictive scaler over `[min_hosts, max_hosts]`.
    pub fn predictive(min_hosts: usize, max_hosts: usize) -> Self {
        AutoscalerConfig {
            policy: ScalePolicy::Predictive {
                window: 5,
                lead: Nanos::from_millis(600),
            },
            ..AutoscalerConfig::reactive(min_hosts, max_hosts)
        }
    }

    /// Checks the knobs.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ScaleError::Config`].
    pub fn validate(&self) -> Result<(), ScaleError> {
        if self.min_hosts == 0 {
            return Err(ScaleError::Config("min_hosts must be at least 1"));
        }
        if self.max_hosts < self.min_hosts {
            return Err(ScaleError::Config("max_hosts must be >= min_hosts"));
        }
        if self.tick == Nanos::ZERO {
            return Err(ScaleError::Config("tick must be positive"));
        }
        if !(self.host_rps.is_finite() && self.host_rps > 0.0) {
            return Err(ScaleError::Config("host_rps must be positive"));
        }
        if let ScalePolicy::Predictive { window, lead } = self.policy {
            if window == 0 {
                return Err(ScaleError::Config("forecast window must be at least 1"));
            }
            if lead == Nanos::ZERO {
                return Err(ScaleError::Config("forecast lead must be positive"));
            }
        }
        Ok(())
    }
}

/// One control-tick snapshot of cluster load, fed to [`Autoscaler::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// Virtual time of the tick.
    pub now: Nanos,
    /// Hosts currently serving (available, not draining).
    pub live_hosts: usize,
    /// Requests that arrived since the previous tick.
    pub arrivals: usize,
    /// Total committed PSP launch work queued across live hosts.
    pub backlog: usize,
    /// Requests sitting in host dispatch queues.
    pub queued: usize,
}

/// The membership component of a [`Decision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// No membership change this tick.
    Hold,
    /// Join `add` spare hosts via the graceful-join path.
    ScaleOut {
        /// How many hosts to add.
        add: usize,
    },
    /// Drain `remove` hosts via the graceful-leave path.
    ScaleIn {
        /// How many hosts to drain.
        remove: usize,
    },
}

/// What the scaler wants done this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Membership change, if any.
    pub action: ScaleAction,
    /// New per-host warm-pool target to apply to live hosts before the
    /// membership change, when the prescription moved.
    pub prewarm: Option<usize>,
}

/// Monotone counters of emitted decisions; obs markers must match these
/// exactly (checked by `tests/observability.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScaleCounters {
    /// Control ticks processed.
    pub ticks: u64,
    /// Scale-out decisions emitted.
    pub scale_outs: u64,
    /// Scale-in decisions emitted.
    pub scale_ins: u64,
    /// Pre-warm prescriptions emitted.
    pub prewarms: u64,
}

/// The decision engine. Deterministic, RNG-free; all cluster state arrives
/// through [`Observation`]s.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscalerConfig,
    /// Observed rate per tick, most recent last, bounded by the forecast
    /// window (reactive keeps one entry for the scale-in sufficiency check).
    rates: Vec<f64>,
    /// Time of the last non-hold decision; cooldown gates against it.
    last_change: Option<Nanos>,
    /// Last per-host warm prescription emitted, to avoid re-prescribing.
    last_prewarm: Option<usize>,
    counters: ScaleCounters,
}

impl Autoscaler {
    /// Builds the engine after validating `config`.
    ///
    /// # Errors
    ///
    /// Propagates [`AutoscalerConfig::validate`].
    pub fn new(config: AutoscalerConfig) -> Result<Self, ScaleError> {
        config.validate()?;
        Ok(Autoscaler {
            config,
            rates: Vec::new(),
            last_change: None,
            last_prewarm: None,
            counters: ScaleCounters::default(),
        })
    }

    /// The validated knobs.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.config
    }

    /// Decision counters so far.
    pub fn counters(&self) -> ScaleCounters {
        self.counters
    }

    /// Observed rate in req/s over the window (reactive: the last tick).
    fn observed_rate(&self) -> f64 {
        if self.rates.is_empty() {
            return 0.0;
        }
        self.rates.iter().sum::<f64>() / self.rates.len() as f64
    }

    /// Linear-trend forecast `lead` ahead of now, floored at the current
    /// windowed rate so a falling edge never under-provisions mid-ramp.
    fn forecast(&self, lead: Nanos) -> f64 {
        let mean = self.observed_rate();
        if self.rates.len() < 2 {
            return mean;
        }
        let n = self.rates.len() as f64;
        // Least-squares slope over tick indices 0..n.
        let mean_x = (n - 1.0) / 2.0;
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, r) in self.rates.iter().enumerate() {
            let dx = i as f64 - mean_x;
            num += dx * (r - mean);
            den += dx * dx;
        }
        let slope_per_tick = if den > 0.0 { num / den } else { 0.0 };
        let lead_ticks = lead.as_secs_f64() / self.config.tick.as_secs_f64();
        (mean + slope_per_tick * ((n - 1.0) / 2.0 + lead_ticks)).max(mean)
    }

    /// Hosts needed to carry `rate` at the configured per-host ceiling,
    /// clamped to `[min_hosts, max_hosts]`.
    fn hosts_for(&self, rate: f64) -> usize {
        let need = (rate / self.config.host_rps).ceil() as usize;
        need.clamp(self.config.min_hosts, self.config.max_hosts)
    }

    /// Processes one control tick. Exactly one counter increments per
    /// emitted non-hold action and per emitted prescription.
    pub fn tick(&mut self, obs: &Observation) -> Decision {
        self.counters.ticks += 1;
        let tick_secs = self.config.tick.as_secs_f64();
        let rate = obs.arrivals as f64 / tick_secs;
        let window = match self.config.policy {
            ScalePolicy::Predictive { window, .. } => window,
            ScalePolicy::Reactive => 1,
        };
        self.rates.push(rate);
        if self.rates.len() > window {
            self.rates.remove(0);
        }

        let live = obs.live_hosts.max(1);
        let desired = match self.config.policy {
            ScalePolicy::Reactive => {
                let per_host_backlog = (obs.backlog + obs.queued) as f64 / live as f64;
                if per_host_backlog > BACKLOG_OUT {
                    // The queue is already hurting: provision for the
                    // observed rate, but always at least one host more.
                    self.hosts_for(self.observed_rate()).max(obs.live_hosts + 1)
                } else if per_host_backlog < BACKLOG_IN
                    && self.hosts_for(self.observed_rate()) < obs.live_hosts
                {
                    obs.live_hosts - 1
                } else {
                    obs.live_hosts
                }
            }
            ScalePolicy::Predictive { lead, .. } => self.hosts_for(self.forecast(lead)),
        };
        let desired = desired.clamp(self.config.min_hosts, self.config.max_hosts);

        let mut action = if desired > obs.live_hosts {
            ScaleAction::ScaleOut {
                add: desired - obs.live_hosts,
            }
        } else if desired < obs.live_hosts {
            ScaleAction::ScaleIn {
                remove: obs.live_hosts - desired,
            }
        } else {
            ScaleAction::Hold
        };

        // Cooldown hysteresis: demote to Hold when the last membership
        // change is too recent. Pre-warm is exempt — warming slots ahead
        // of the ramp is exactly what the predictive law is for.
        if action != ScaleAction::Hold {
            if let Some(last) = self.last_change {
                if obs.now.saturating_sub(last) < self.config.cooldown {
                    action = ScaleAction::Hold;
                }
            }
        }

        let prewarm = {
            // Prescribe warm slots for the host count this tick will leave
            // behind, spreading the fixed budget evenly.
            let target_hosts = match action {
                ScaleAction::ScaleOut { add } => obs.live_hosts + add,
                ScaleAction::ScaleIn { remove } => obs.live_hosts - remove,
                ScaleAction::Hold => obs.live_hosts,
            }
            .max(1);
            let per_host = self.config.warm_budget.div_ceil(target_hosts);
            if self.last_prewarm != Some(per_host) {
                self.last_prewarm = Some(per_host);
                Some(per_host)
            } else {
                None
            }
        };

        match action {
            ScaleAction::ScaleOut { .. } => {
                self.counters.scale_outs += 1;
                self.last_change = Some(obs.now);
            }
            ScaleAction::ScaleIn { .. } => {
                self.counters.scale_ins += 1;
                self.last_change = Some(obs.now);
            }
            ScaleAction::Hold => {}
        }
        if prewarm.is_some() {
            self.counters.prewarms += 1;
        }

        Decision { action, prewarm }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(now_ms: u64, live: usize, arrivals: usize, backlog: usize) -> Observation {
        Observation {
            now: Nanos::from_millis(now_ms),
            live_hosts: live,
            arrivals,
            backlog,
            queued: 0,
        }
    }

    #[test]
    fn reactive_scales_out_on_backlog_and_in_when_quiet() {
        let mut auto = Autoscaler::new(AutoscalerConfig::reactive(2, 8)).unwrap();
        // Heavy backlog: 10 launches queued across 2 hosts > backlog_out 3.
        let d = auto.tick(&obs(0, 2, 40, 10));
        assert!(matches!(d.action, ScaleAction::ScaleOut { add } if add >= 1));
        // Cooldown: an immediate follow-up is demoted to Hold.
        let d = auto.tick(&obs(200, 3, 40, 10));
        assert_eq!(d.action, ScaleAction::Hold);
        // After cooldown with an empty backlog and a trickle rate, one
        // host drains at a time, never below min_hosts.
        let d = auto.tick(&obs(1000, 6, 1, 0));
        assert_eq!(d.action, ScaleAction::ScaleIn { remove: 1 });
        let mut live = 5;
        let mut at = 2000;
        while live > 2 {
            let d = auto.tick(&obs(at, live, 1, 0));
            if let ScaleAction::ScaleIn { remove } = d.action {
                live -= remove;
            }
            at += 500;
        }
        let d = auto.tick(&obs(at, 2, 1, 0));
        assert_eq!(d.action, ScaleAction::Hold, "never drains below min_hosts");
    }

    #[test]
    fn predictive_provisions_ahead_of_a_ramp() {
        let mut auto = Autoscaler::new(AutoscalerConfig::predictive(2, 10)).unwrap();
        // Rate doubling every tick (200 ms): 8, 16, 32, 64 arrivals.
        let mut live = 2;
        let mut outs = 0;
        for (i, arrivals) in [8usize, 16, 32, 64].iter().enumerate() {
            let d = auto.tick(&obs(i as u64 * 200 + 1000, live, *arrivals, 0));
            if let ScaleAction::ScaleOut { add } = d.action {
                live += add;
                outs += 1;
            }
        }
        assert!(outs >= 1, "a doubling ramp must trigger scale-out");
        // The forecast provisions beyond the currently observed need.
        let observed_need = (64.0 / 0.2 / 34.0_f64).ceil() as usize;
        assert!(
            live >= observed_need.min(10),
            "live {live} must cover the extrapolated rate"
        );
    }

    #[test]
    fn counters_match_emitted_decisions_exactly() {
        let mut auto = Autoscaler::new(AutoscalerConfig::reactive(1, 6)).unwrap();
        let mut outs = 0u64;
        let mut ins = 0u64;
        let mut warms = 0u64;
        let mut live = 2;
        for i in 0..40u64 {
            let arrivals = if i < 20 { 60 } else { 1 };
            let backlog = if i < 20 { 12 } else { 0 };
            let d = auto.tick(&obs(i * 500, live, arrivals, backlog));
            match d.action {
                ScaleAction::ScaleOut { add } => {
                    outs += 1;
                    live = (live + add).min(6);
                }
                ScaleAction::ScaleIn { remove } => {
                    ins += 1;
                    live -= remove;
                }
                ScaleAction::Hold => {}
            }
            if d.prewarm.is_some() {
                warms += 1;
            }
        }
        let c = auto.counters();
        assert_eq!(c.ticks, 40);
        assert_eq!(c.scale_outs, outs);
        assert_eq!(c.scale_ins, ins);
        assert_eq!(c.prewarms, warms);
        assert!(outs > 0 && ins > 0 && warms > 0);
    }

    #[test]
    fn cooldown_spacing_is_respected() {
        let cfg = AutoscalerConfig {
            cooldown: Nanos::from_millis(900),
            ..AutoscalerConfig::reactive(1, 8)
        };
        let mut auto = Autoscaler::new(cfg).unwrap();
        let mut changes = Vec::new();
        let mut live = 1;
        for i in 0..30u64 {
            let now = i * 200;
            let d = auto.tick(&obs(now, live, 30, 8));
            match d.action {
                ScaleAction::ScaleOut { add } => {
                    changes.push(now);
                    live = (live + add).min(8);
                }
                ScaleAction::ScaleIn { remove } => {
                    changes.push(now);
                    live -= remove;
                }
                ScaleAction::Hold => {}
            }
        }
        for pair in changes.windows(2) {
            assert!(
                pair[1] - pair[0] >= 900,
                "changes at {} and {} violate the 900 ms cooldown",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn validation_rejects_each_bad_knob() {
        let ok = AutoscalerConfig::reactive(2, 8);
        assert!(ok.validate().is_ok());
        let cases = [
            AutoscalerConfig { min_hosts: 0, ..ok },
            AutoscalerConfig { max_hosts: 1, ..ok },
            AutoscalerConfig {
                tick: Nanos::ZERO,
                ..ok
            },
            AutoscalerConfig {
                host_rps: 0.0,
                ..ok
            },
            AutoscalerConfig {
                policy: ScalePolicy::Predictive {
                    window: 0,
                    lead: Nanos::from_millis(100),
                },
                ..ok
            },
            AutoscalerConfig {
                policy: ScalePolicy::Predictive {
                    window: 4,
                    lead: Nanos::ZERO,
                },
                ..ok
            },
        ];
        for bad in cases {
            assert!(bad.validate().is_err(), "{bad:?} should fail validation");
        }
    }
}
