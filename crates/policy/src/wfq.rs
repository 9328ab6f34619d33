//! Deterministic weighted-fair queueing over per-tenant backlogs.
//!
//! The one queue in front of each PSP. Each tenant owns a FIFO *lane*; an
//! item enqueued on lane `i` with service cost `c` (its expected PSP nanos)
//! is stamped with a virtual finish time
//!
//! ```text
//! finish = max(V, lane.last_finish) + c·S / weight_i
//! ```
//!
//! where `V` is the queue's virtual clock (advanced to the finish of each
//! popped item) and `S` a fixed-point scale. [`WfqQueue::pop`] always
//! returns the globally smallest `(finish, arrival_seq)` — heavier lanes
//! advance their finish more slowly per unit of work, so a premium
//! tenant's trickle overtakes a batch tenant's flood without ever starving
//! it.
//!
//! Two deliberate deviations from textbook WFQ:
//!
//! * **FIFO collapse.** When *every* lane has the same weight the stamp is
//!   simply the arrival sequence number, so the pop order is arrival order.
//!   Fairness adds nothing at equal weights. The one-lane case *is* the
//!   policy-off path: a host whose run does not schedule by WFQ queues on a
//!   single lane, which behaves as a bounded FIFO — a full queue refuses the
//!   newcomer (its only lane is never strictly more sheddable than itself)
//!   and draws no randomness, and bound 0 refuses everything. Both are
//!   property-tested below against a plain bounded `VecDeque`.
//! * **Policy-aware shed.** On overflow the queue does not blindly refuse
//!   the newcomer: it ranks lanes by shed priority — batch before
//!   latency-sensitive, quota-violators first within a class, largest
//!   backlog first, seeded tie-break — and displaces the newest item of
//!   the most sheddable lane if that lane is strictly more sheddable than
//!   the newcomer's.
//!
//! Everything is a pure function of (lane specs, seed, operation
//! sequence); the only randomness is the seeded tie-break between equally
//! sheddable victim lanes.

use std::cmp::Reverse;
use std::collections::VecDeque;

use crate::PolicyError;
use sevf_sim::rng::XorShift64;
use sevf_sim::Nanos;

/// Fixed-point scale for virtual finish times (`cost·S / weight`).
const SCALE: u128 = 1 << 16;

/// Static per-lane (per-tenant) scheduling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSpec {
    /// Fair-share weight; must be > 0.
    pub weight: u64,
    /// Latency-sensitive lanes shed *after* batch lanes.
    pub latency_sensitive: bool,
}

/// Outcome of [`WfqQueue::offer`].
#[derive(Debug, PartialEq, Eq)]
pub enum Offer<T> {
    /// The item was enqueued.
    Queued,
    /// The queue was full and a more-sheddable queued item was displaced
    /// to make room; the caller must count the victim as shed.
    Displaced {
        /// Lane the victim belonged to.
        tenant: usize,
        /// The displaced item.
        item: T,
    },
    /// The queue was full and no queued lane was more sheddable than the
    /// newcomer; the item is handed back to be shed.
    Refused(T),
}

#[derive(Debug)]
struct Entry<T> {
    item: T,
    finish: u128,
    seq: u64,
}

#[derive(Debug)]
struct Lane<T> {
    weight: u64,
    latency_sensitive: bool,
    over_quota: bool,
    last_finish: u128,
    items: VecDeque<Entry<T>>,
}

impl<T> Lane<T> {
    /// Shed rank: lower sheds first. Batch+over-quota (0), batch (1),
    /// latency-sensitive+over-quota (2), latency-sensitive (3).
    fn shed_rank(&self) -> u8 {
        (self.latency_sensitive as u8) * 2 + (!self.over_quota as u8)
    }
}

/// A bounded weighted-fair queue over per-tenant lanes.
#[derive(Debug)]
pub struct WfqQueue<T> {
    bound: usize,
    uniform: bool,
    virt: u128,
    seq: u64,
    len: usize,
    rng: XorShift64,
    lanes: Vec<Lane<T>>,
}

impl<T> WfqQueue<T> {
    /// A queue with the given capacity, lane specs, and tie-break seed.
    /// Bound 0 is dispatch-or-shed: every offer is refused.
    pub fn new(bound: usize, specs: &[LaneSpec], seed: u64) -> Result<Self, PolicyError> {
        if specs.is_empty() {
            return Err(PolicyError::Config("wfq needs at least one lane"));
        }
        if specs.iter().any(|s| s.weight == 0) {
            return Err(PolicyError::Config("wfq lane weight must be > 0"));
        }
        let uniform = specs.iter().all(|s| s.weight == specs[0].weight);
        Ok(WfqQueue {
            bound,
            uniform,
            virt: 0,
            seq: 0,
            len: 0,
            rng: XorShift64::new(seed ^ 0x5EF0_u64.rotate_left(32)),
            lanes: specs
                .iter()
                .map(|s| Lane {
                    weight: s.weight,
                    latency_sensitive: s.latency_sensitive,
                    over_quota: false,
                    last_finish: 0,
                    items: VecDeque::new(),
                })
                .collect(),
        })
    }

    /// Mark a lane as currently over (or back within) its quota; over-quota
    /// lanes shed first within their SLO class.
    pub fn set_over_quota(&mut self, tenant: usize, over: bool) {
        self.lanes[tenant].over_quota = over;
    }

    /// Total queued items across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn stamp(&mut self, tenant: usize, cost: Nanos) -> u128 {
        if self.uniform {
            // Equal weights: collapse to FIFO (arrival order).
            self.seq as u128
        } else {
            let lane = &self.lanes[tenant];
            let start = self.virt.max(lane.last_finish);
            let c = (cost.as_nanos().max(1) as u128) * SCALE;
            start + c / lane.weight as u128
        }
    }

    /// Enqueue `item` on `tenant`'s lane with expected service cost
    /// `cost`. On overflow, policy-aware shed picks the victim (see module
    /// docs); the caller is responsible for terminal accounting of any
    /// [`Offer::Displaced`] / [`Offer::Refused`] item.
    pub fn offer(&mut self, tenant: usize, item: T, cost: Nanos) -> Offer<T> {
        let incoming_rank = self.lanes[tenant].shed_rank();
        let displaced = if self.len >= self.bound {
            match self.pick_victim(incoming_rank) {
                Some(victim) => {
                    let lane = &mut self.lanes[victim];
                    let entry = lane.items.pop_back().expect("victim lane non-empty");
                    lane.last_finish = lane.items.back().map(|e| e.finish).unwrap_or(0);
                    self.len -= 1;
                    Some((victim, entry.item))
                }
                None => return Offer::Refused(item),
            }
        } else {
            None
        };

        let finish = self.stamp(tenant, cost);
        let seq = self.seq;
        self.seq += 1;
        let lane = &mut self.lanes[tenant];
        lane.items.push_back(Entry { item, finish, seq });
        lane.last_finish = finish;
        self.len += 1;
        match displaced {
            Some((tenant, item)) => Offer::Displaced { tenant, item },
            None => Offer::Queued,
        }
    }

    /// The most sheddable non-empty lane strictly more sheddable than
    /// `incoming_rank`: lowest shed rank, then largest backlog, seeded
    /// tie-break. Two passes over the lanes: the best key and how many
    /// lanes share it, then the drawn one of those.
    fn pick_victim(&mut self, incoming_rank: u8) -> Option<usize> {
        let key = |lane: &Lane<T>| (lane.shed_rank(), Reverse(lane.items.len()));
        let queued = self.lanes.iter().enumerate();
        let queued = queued.filter(|(_, lane)| !lane.items.is_empty());
        let mut best = None;
        let mut tied = 0;
        for (_, lane) in queued.clone() {
            let k = key(lane);
            match best {
                Some(b) if k > b => {}
                Some(b) if k == b => tied += 1,
                _ => (best, tied) = (Some(k), 1),
            }
        }
        let best = best?;
        if best.0 >= incoming_rank {
            return None;
        }
        let nth = if tied == 1 {
            0
        } else {
            self.rng.next_below(tied) as usize
        };
        queued
            .filter(|(_, lane)| key(lane) == best)
            .nth(nth)
            .map(|(i, _)| i)
    }

    /// Remove and return the item with the globally smallest
    /// `(finish, arrival seq)`, advancing the virtual clock to its finish.
    pub fn pop(&mut self) -> Option<(usize, T)> {
        let mut best: Option<(u128, u64, usize)> = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(head) = lane.items.front() {
                let key = (head.finish, head.seq, i);
                if best.map(|b| key < b).unwrap_or(true) {
                    best = Some(key);
                }
            }
        }
        let (finish, _, tenant) = best?;
        let entry = self.lanes[tenant].items.pop_front().expect("head exists");
        if self.lanes[tenant].items.is_empty() {
            self.lanes[tenant].last_finish = 0;
        }
        self.len -= 1;
        self.virt = self.virt.max(finish);
        Some((tenant, entry.item))
    }

    /// Pop everything, in pop order. Used when a host dies or a lease
    /// expires and every queued request must fail over.
    pub fn drain(&mut self) -> Vec<(usize, T)> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(e) = self.pop() {
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(weights: &[u64]) -> Vec<LaneSpec> {
        weights
            .iter()
            .map(|&w| LaneSpec {
                weight: w,
                latency_sensitive: false,
            })
            .collect()
    }

    fn ns(v: u64) -> Nanos {
        Nanos::from_nanos(v)
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        assert!(WfqQueue::<u32>::new(4, &[], 1).is_err());
        assert!(WfqQueue::<u32>::new(4, &lanes(&[1, 0]), 1).is_err());
    }

    #[test]
    fn bound_zero_refuses_everything() {
        let mut q = WfqQueue::new(0, &lanes(&[1]), 1).unwrap();
        assert_eq!(q.offer(0, 7u32, ns(10)), Offer::Refused(7));
        assert_eq!(q.offer(0, 8u32, ns(10)), Offer::Refused(8));
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    /// The policy-off path: a one-lane queue is a bounded FIFO. Drives the
    /// queue and a plain `VecDeque`-with-a-bound through the same seeded
    /// operations — same accept/refuse per offer, same pop order, as many
    /// `Refused` + `Displaced` offers as the model sheds, and never a
    /// displacement (a lane cannot out-shed itself).
    #[test]
    fn one_lane_is_a_bounded_fifo() {
        for bound in [0usize, 1, 8] {
            let mut q = WfqQueue::new(bound, &lanes(&[1]), 0xB0D + bound as u64).unwrap();
            let mut model: VecDeque<u64> = VecDeque::new();
            let (mut shed, mut offers_shed) = (0u64, 0u64);
            let mut rng = XorShift64::new(0x1A9E ^ bound as u64);
            for item in 0..2000u64 {
                if rng.next_below(3) != 0 {
                    let offer = q.offer(0, item, ns(1 + rng.next_below(1_000_000)));
                    if matches!(offer, Offer::Refused(_) | Offer::Displaced { .. }) {
                        offers_shed += 1;
                    }
                    if model.len() < bound {
                        model.push_back(item);
                        assert_eq!(offer, Offer::Queued, "bound {bound} item {item}");
                    } else {
                        shed += 1;
                        assert_eq!(offer, Offer::Refused(item), "bound {bound}");
                    }
                } else {
                    assert_eq!(q.pop().map(|(_, got)| got), model.pop_front());
                }
                assert_eq!((q.len(), offers_shed), (model.len(), shed));
            }
            let rest: Vec<u64> = q.drain().into_iter().map(|(_, got)| got).collect();
            assert_eq!(rest, Vec::from(model));
        }
    }

    /// Satellite: byte-identical pop order to FIFO when all weights are
    /// equal, under a seeded bursty arrival pattern.
    #[test]
    fn equal_weights_collapse_to_fifo() {
        let mut q = WfqQueue::new(1024, &lanes(&[5, 5, 5]), 9).unwrap();
        let mut rng = XorShift64::new(0xF1F0);
        let mut fifo: VecDeque<u64> = VecDeque::new();
        let mut item = 0u64;
        for _ in 0..2000 {
            if rng.next_below(3) != 0 {
                let t = rng.next_below(3) as usize;
                let cost = ns(1 + rng.next_below(1_000_000));
                assert!(matches!(q.offer(t, item, cost), Offer::Queued));
                fifo.push_back(item);
                item += 1;
            } else if let Some((_, got)) = q.pop() {
                assert_eq!(Some(got), fifo.pop_front());
            }
        }
        while let Some((_, got)) = q.pop() {
            assert_eq!(Some(got), fifo.pop_front());
        }
        assert!(fifo.is_empty());
    }

    /// Satellite: work-conserving — pop never comes back empty while a
    /// backlog exists, across a seeded push/pop storm.
    #[test]
    fn work_conserving_under_seeded_storm() {
        let mut q = WfqQueue::new(64, &lanes(&[1, 3, 7]), 11).unwrap();
        let mut rng = XorShift64::new(0xBEEF);
        let mut expect = 0usize;
        for i in 0..5000u64 {
            if rng.next_below(2) == 0 {
                match q.offer(
                    rng.next_below(3) as usize,
                    i,
                    ns(1 + rng.next_below(500_000)),
                ) {
                    Offer::Queued => expect += 1,
                    // Displacement swaps one item for another.
                    Offer::Displaced { .. } => {}
                    Offer::Refused(_) => {}
                }
            } else {
                let popped = q.pop();
                assert_eq!(popped.is_some(), expect > 0, "idle with backlog");
                if popped.is_some() {
                    expect -= 1;
                }
            }
            assert_eq!(q.len(), expect);
        }
    }

    /// Satellite: proportional share — with continuous backlog and equal
    /// costs, pops split by weight within one quantum over a long run.
    #[test]
    fn proportional_share_within_one_quantum() {
        // Weights 3:1 (non-uniform so the WFQ path is exercised).
        let mut q = WfqQueue::new(100_000, &lanes(&[3, 1]), 5).unwrap();
        for i in 0..40_000u64 {
            assert!(matches!(
                q.offer((i % 2) as usize, i, ns(1_000_000)),
                Offer::Queued
            ));
        }
        let (mut a, mut b) = (0i64, 0i64);
        for step in 1..=20_000i64 {
            match q.pop().unwrap() {
                (0, _) => a += 1,
                (_, _) => b += 1,
            }
            // Running share must track 3:1 to within one quantum (4 pops).
            let ideal_a = step * 3 / 4;
            assert!((a - ideal_a).abs() <= 4, "step {step}: a={a} b={b}");
        }
        assert!(a > 0 && b > 0);
    }

    /// Satellite: starvation-freedom — a weight-1 lane facing a weight-64
    /// flood still gets served at its fair share, never starved.
    #[test]
    fn no_starvation_for_positive_weights() {
        let mut q = WfqQueue::new(100_000, &lanes(&[64, 1]), 3).unwrap();
        for i in 0..13_000u64 {
            let lane = if i % 65 == 0 { 1 } else { 0 };
            assert!(matches!(q.offer(lane, i, ns(1_000_000)), Offer::Queued));
        }
        let mut since_minnow = 0usize;
        let mut minnow_pops = 0usize;
        for _ in 0..13_000 {
            match q.pop().unwrap() {
                (1, _) => {
                    minnow_pops += 1;
                    since_minnow = 0;
                }
                _ => {
                    since_minnow += 1;
                    // Fair share is 1 in 65; allow slack but bound the gap.
                    assert!(since_minnow <= 130, "weight-1 lane starved");
                }
            }
        }
        assert_eq!(minnow_pops, 200);
    }

    /// Satellite: deterministic replay — the same seed and operation
    /// sequence reproduce the same pop/shed trace.
    #[test]
    fn deterministic_replay_from_seed() {
        let run = |seed: u64| {
            let mut q = WfqQueue::new(8, &lanes(&[2, 5, 1]), seed).unwrap();
            let mut rng = XorShift64::new(seed ^ 0xABCD);
            let mut trace = Vec::new();
            for i in 0..2000u64 {
                if rng.next_below(3) > 0 {
                    let t = rng.next_below(3) as usize;
                    match q.offer(t, i, ns(1 + rng.next_below(250_000))) {
                        Offer::Queued => trace.push((0u8, t as u64, 0)),
                        Offer::Displaced { tenant, item } => trace.push((1, tenant as u64, item)),
                        Offer::Refused(item) => trace.push((2, 0, item)),
                    }
                } else if let Some((t, item)) = q.pop() {
                    trace.push((3, t as u64, item));
                }
            }
            trace
        };
        assert_eq!(run(77), run(77));
        assert_eq!(run(1), run(1));
    }

    /// Policy-aware shed: batch lanes displace before latency-sensitive
    /// ones, and a batch newcomer cannot displace latency-sensitive work.
    #[test]
    fn shed_prefers_batch_then_quota_violators() {
        let specs = [
            LaneSpec {
                weight: 1,
                latency_sensitive: true,
            },
            LaneSpec {
                weight: 1,
                latency_sensitive: false,
            },
            LaneSpec {
                weight: 1,
                latency_sensitive: false,
            },
        ];
        let mut q = WfqQueue::new(4, &specs, 2).unwrap();
        assert!(matches!(q.offer(0, 100, ns(10)), Offer::Queued));
        assert!(matches!(q.offer(1, 200, ns(10)), Offer::Queued));
        assert!(matches!(q.offer(1, 201, ns(10)), Offer::Queued));
        assert!(matches!(q.offer(2, 300, ns(10)), Offer::Queued));
        // Full. Latency-sensitive newcomer displaces from the batch lane
        // with the largest backlog (lane 1), newest item first.
        match q.offer(0, 101, ns(10)) {
            Offer::Displaced { tenant, item } => {
                assert_eq!(tenant, 1);
                assert_eq!(item, 201);
            }
            other => panic!("expected displacement, got {other:?}"),
        }
        // A quota-violating batch lane sheds before a compliant one.
        q.set_over_quota(2, true);
        match q.offer(0, 102, ns(10)) {
            Offer::Displaced { tenant, item } => {
                assert_eq!(tenant, 2);
                assert_eq!(item, 300);
            }
            other => panic!("expected displacement, got {other:?}"),
        }
        // A batch newcomer cannot displace latency-sensitive work once
        // only LS items remain... fill with LS first.
        let mut q = WfqQueue::new(2, &specs, 2).unwrap();
        assert!(matches!(q.offer(0, 1, ns(10)), Offer::Queued));
        assert!(matches!(q.offer(0, 2, ns(10)), Offer::Queued));
        match q.offer(1, 3, ns(10)) {
            Offer::Refused(item) => assert_eq!(item, 3),
            other => panic!("expected refusal, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
    }

    /// The victim sequence of three equally sheddable batch lanes under a
    /// latency-sensitive newcomer: ties of one, two and three lanes, with
    /// and without a quota violator. Captured once and hard-coded, so a
    /// rewrite of the victim choice must pick the same lanes and draw the
    /// tie-break exactly when the original did.
    #[test]
    fn victim_sequence_is_pinned() {
        let batch = LaneSpec {
            weight: 1,
            latency_sensitive: false,
        };
        let premium = LaneSpec {
            weight: 1,
            latency_sensitive: true,
        };
        let mut q = WfqQueue::new(0, &[batch, batch, batch, premium], 0x71C7).unwrap();
        let mut shape = XorShift64::new(0x5A3E);
        let mut victims = String::new();
        for round in 0..300u64 {
            let counts: Vec<u64> = (0..3).map(|_| 1 + shape.next_below(2)).collect();
            q.bound = counts.iter().sum::<u64>() as usize;
            let quota_lane = shape.next_below(6) as usize;
            for (lane, &count) in counts.iter().enumerate() {
                q.set_over_quota(lane, lane == quota_lane);
                for _ in 0..count {
                    assert!(matches!(q.offer(lane, round, ns(10)), Offer::Queued));
                }
            }
            match q.offer(3, round, ns(10)) {
                Offer::Displaced { tenant, .. } => victims.push_str(&tenant.to_string()),
                other => panic!("round {round}: expected displacement, got {other:?}"),
            }
            q.drain();
        }
        let pinned = concat!(
            "202001222122122122220210210212102000201200111120111211012221",
            "012001220200000100211202201112122222211021202121211202000122",
            "211002200211000010101021111110000111002100212202102000010021",
            "200010112201022002120011200002011202201220010020222200022222",
            "000020102002111101120002110110222212121110010112222011112010",
        );
        assert_eq!(victims, pinned);
    }

    /// A premium trickle overtakes a batch flood that arrived first.
    #[test]
    fn heavy_lane_overtakes_flood() {
        let specs = [
            LaneSpec {
                weight: 8,
                latency_sensitive: true,
            },
            LaneSpec {
                weight: 1,
                latency_sensitive: false,
            },
        ];
        let mut q = WfqQueue::new(1024, &specs, 4).unwrap();
        // Flood 50 batch items, then one premium arrival.
        for i in 0..50u64 {
            assert!(matches!(q.offer(1, i, ns(1_000_000)), Offer::Queued));
        }
        assert!(matches!(q.offer(0, 999, ns(1_000_000)), Offer::Queued));
        // Premium pops within its weight window, not behind the flood.
        let mut position = 0;
        loop {
            position += 1;
            let (tenant, item) = q.pop().unwrap();
            if tenant == 0 {
                assert_eq!(item, 999);
                break;
            }
        }
        assert!(position <= 9, "premium served at position {position}");
    }

    #[test]
    fn drain_empties_in_pop_order() {
        let mut q = WfqQueue::new(16, &lanes(&[2, 1]), 6).unwrap();
        for i in 0..10u64 {
            q.offer((i % 2) as usize, i, ns(500_000));
        }
        let drained = q.drain();
        assert_eq!(drained.len(), 10);
        assert!(q.is_empty());
        // Drain order equals repeated pop order on an identical twin.
        let mut twin = WfqQueue::new(16, &lanes(&[2, 1]), 6).unwrap();
        for i in 0..10u64 {
            twin.offer((i % 2) as usize, i, ns(500_000));
        }
        let mut popped = Vec::new();
        while let Some(e) = twin.pop() {
            popped.push(e);
        }
        assert_eq!(drained, popped);
    }
}
