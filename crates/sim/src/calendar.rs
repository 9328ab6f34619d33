//! An indexed calendar (bucket) queue for discrete-event scheduling.
//!
//! The DES engine pops events in `(time, seq)` order, where `seq` is a
//! monotone push counter — a total order, since `seq` is unique. A binary
//! heap gives that in O(log n) per operation with a comparison-heavy inner
//! loop; at "millions of users" scale the pending-event set holds every
//! future arrival of the run, and the heap becomes the simulator's single
//! hottest data structure.
//!
//! This queue exploits what a heap cannot: event times are *nanoseconds on
//! a forward-moving clock*. Events land in fixed-width time buckets
//! (`2^20` ns ≈ 1.05 ms wide); a push into the active window is one `Vec`
//! push, O(1). Only the bucket currently being drained is kept sorted —
//! sorted descending once when the cursor reaches it and drained from the
//! tail, so same-bucket pushes (which fire at or just after the drain
//! point) binary-insert near the tail with a short memmove. Events beyond
//! the window
//! (far-future arrivals) overflow into a small binary heap and migrate
//! into the calendar in bulk whenever the window empties and re-bases, so
//! each event pays heap costs at most once, and most pay none.
//!
//! Determinism is load-bearing: pop order is *exactly* the `(time, seq)`
//! order the heap-based reference engine produces, which is what lets the
//! byte-diff replay gates in ci.sh hold across the engine swap (see
//! `tests/engine_equivalence.rs` for the property test).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// log2 of the bucket width in nanoseconds (2^20 ns ≈ 1.05 ms).
const BUCKET_SHIFT: u32 = 20;
/// Buckets per window (2^13 buckets ≈ 8.6 s of virtual time).
const WINDOW: usize = 1 << 13;

/// One scheduled event. `seq` is unique, so `(time, seq)` totally orders
/// events; `payload` is opaque to the queue (the engine packs job + kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CalEvent {
    /// Virtual instant the event fires.
    pub time: Nanos,
    /// Monotone push sequence number (tie-break; unique).
    pub seq: u64,
    /// Caller payload (job index, event kind, ...).
    pub payload: u64,
}

impl CalEvent {
    #[inline]
    fn key(&self) -> (Nanos, u64) {
        (self.time, self.seq)
    }
}

impl PartialOrd for CalEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CalEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The calendar queue. See the module docs for the design.
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    /// The active window: `buckets[i]` holds events in bucket `base + i`.
    buckets: Vec<Vec<CalEvent>>,
    /// Absolute bucket index of `buckets[0]`.
    base: u64,
    /// First possibly non-empty bucket offset within the window.
    cursor: usize,
    /// Whether `buckets[cursor]` is sorted descending by `(time, seq)`.
    front_prepared: bool,
    /// Events in the calendar window.
    in_window: usize,
    /// Events past the window, ordered by `(time, seq)`.
    overflow: BinaryHeap<Reverse<CalEvent>>,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// Creates an empty queue with the window based at time zero.
    pub(crate) fn new() -> Self {
        CalendarQueue {
            buckets: vec![Vec::new(); WINDOW],
            base: 0,
            cursor: 0,
            front_prepared: false,
            in_window: 0,
            overflow: BinaryHeap::new(),
        }
    }

    #[inline]
    fn bucket_of(time: Nanos) -> u64 {
        time.as_nanos() >> BUCKET_SHIFT
    }

    /// Schedules an event. Events must not be scheduled before the last
    /// popped event's time (the clock only moves forward); pushing earlier
    /// within the *current* bucket is fine and keeps exact order.
    pub(crate) fn push(&mut self, ev: CalEvent) {
        let bucket = Self::bucket_of(ev.time);
        // Behind the window base can only happen before the first pop of a
        // fresh window (base starts at 0 / rebases onto the earliest event);
        // clamp into the front bucket, where exact (time, seq) order is
        // restored by the sort/insert path.
        let rel = bucket.saturating_sub(self.base) as usize;
        if rel >= WINDOW {
            self.overflow.push(Reverse(ev));
            return;
        }
        let rel = rel.max(self.cursor);
        if rel == self.cursor && self.front_prepared {
            // The front bucket is mid-drain and sorted descending: insert at
            // the exact position so pop order stays (time, seq). Mid-drain
            // pushes fire at or just after the drain point — segment
            // durations are usually far shorter than a bucket — so the
            // position sits near the tail and the memmove stays short.
            let slot = &mut self.buckets[rel];
            let pos = slot.partition_point(|e| e.key() > ev.key());
            slot.insert(pos, ev);
        } else {
            self.buckets[rel].push(ev);
        }
        self.in_window += 1;
    }

    /// Pops the earliest event by `(time, seq)`.
    pub(crate) fn pop(&mut self) -> Option<CalEvent> {
        if self.in_window == 0 && !self.rebase() {
            return None;
        }
        loop {
            let slot = &mut self.buckets[self.cursor];
            if slot.is_empty() {
                self.cursor += 1;
                self.front_prepared = false;
                if self.cursor == WINDOW {
                    // Window fully drained; pull the overflow in.
                    if !self.rebase() {
                        return None;
                    }
                }
                continue;
            }
            if !self.front_prepared {
                // First touch of this bucket: sort descending once, then
                // drain from the tail in O(1) per pop.
                slot.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                self.front_prepared = true;
            }
            let ev = slot.pop().expect("non-empty front bucket");
            self.in_window -= 1;
            return Some(ev);
        }
    }

    /// Re-bases the (empty) window onto the earliest overflow event and
    /// migrates every overflow event that now fits. Returns false when the
    /// queue is exhausted.
    fn rebase(&mut self) -> bool {
        debug_assert_eq!(self.in_window, 0);
        let Some(Reverse(first)) = self.overflow.peek().copied() else {
            return false;
        };
        self.base = Self::bucket_of(first.time);
        self.cursor = 0;
        self.front_prepared = false;
        while let Some(Reverse(ev)) = self.overflow.peek().copied() {
            let rel = Self::bucket_of(ev.time) - self.base;
            if rel as usize >= WINDOW {
                break;
            }
            self.overflow.pop();
            self.buckets[rel as usize].push(ev);
            self.in_window += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(us: u64, seq: u64) -> CalEvent {
        CalEvent {
            time: Nanos::from_micros(us),
            seq,
            payload: seq,
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(ev(500, 0));
        q.push(ev(100, 1));
        q.push(ev(100, 2));
        q.push(ev(300, 3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn same_bucket_push_mid_drain_keeps_order() {
        let mut q = CalendarQueue::new();
        // All in one 1.05 ms bucket.
        q.push(ev(10, 0));
        q.push(ev(30, 1));
        assert_eq!(q.pop().unwrap().seq, 0);
        // Push between the drained head and the pending tail.
        q.push(ev(20, 2));
        assert_eq!(q.pop().unwrap().seq, 2);
        assert_eq!(q.pop().unwrap().seq, 1);
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = CalendarQueue::new();
        // ~86 s apart: crosses many windows.
        for i in 0..50u64 {
            q.push(CalEvent {
                time: Nanos::from_secs(i * 86),
                seq: i,
                payload: i,
            });
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        use std::collections::BinaryHeap;
        let mut q = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<CalEvent>> = BinaryHeap::new();
        let mut rng = crate::rng::XorShift64::new(7);
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..5_000 {
            // Push 0-3 events at now + random offset (up to ~100 s).
            for _ in 0..rng.next_below(4) {
                let t = now + rng.next_below(100_000_000_000);
                let e = CalEvent {
                    time: Nanos::from_nanos(t),
                    seq,
                    payload: seq,
                };
                seq += 1;
                q.push(e);
                heap.push(Reverse(e));
            }
            if rng.next_below(2) == 0 {
                let a = q.pop();
                let b = heap.pop().map(|Reverse(e)| e);
                assert_eq!(a, b);
                if let Some(e) = a {
                    now = e.time.as_nanos();
                }
            }
        }
        loop {
            let a = q.pop();
            let b = heap.pop().map(|Reverse(e)| e);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pops_from_both_window_and_overflow() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.pop(), None);
        let far = CalEvent {
            time: Nanos::from_secs(1000),
            seq: 1,
            payload: 1,
        };
        q.push(ev(1, 0));
        q.push(far);
        assert_eq!(q.pop(), Some(ev(1, 0)));
        assert_eq!(q.pop(), Some(far));
        assert_eq!(q.pop(), None);
    }
}
