//! The unified metrics layer: exactly-mergeable fixed-bucket histograms, a
//! string-keyed registry (counters / gauges / histograms), and the shared
//! accumulator helpers the fleet and cluster metric types delegate to.
//!
//! Merging two [`Histogram`]s of the same bucket width is element-wise
//! integer addition — associative, commutative, and lossless — so per-host
//! (or per-shard) histograms roll up into exactly the histogram a single
//! global observer would have recorded. Percentiles are estimated from
//! bucket midpoints with the same interpolation rule as
//! [`sevf_sim::stats::percentile`], which bounds the estimate within one
//! bucket width of the exact value.

use std::collections::BTreeMap;

/// A fixed-bucket-width latency histogram.
///
/// Bucket `i` counts samples in `[i·width, (i+1)·width)`. Buckets grow on
/// demand; negative samples clamp to bucket 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    width: f64,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// An empty histogram with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive and finite.
    pub fn new(width: f64) -> Self {
        assert!(
            width > 0.0 && width.is_finite(),
            "bucket width must be positive and finite"
        );
        Histogram {
            width,
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
        }
    }

    /// The bucket width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample; 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Per-bucket counts, from bucket 0 through the highest touched bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite sample.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "histogram samples must be finite");
        let clamped = value.max(0.0);
        let idx = (clamped / self.width).floor() as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += clamped;
    }

    /// The exact (lossless) merge of `self` and `other`: element-wise
    /// bucket addition. Associative and commutative.
    ///
    /// # Panics
    ///
    /// Panics if the bucket widths differ — merging histograms with
    /// different bucket geometry cannot be exact.
    pub fn merged(&self, other: &Histogram) -> Histogram {
        assert!(
            self.width == other.width,
            "cannot exactly merge histograms with widths {} and {}",
            self.width,
            other.width
        );
        let len = self.counts.len().max(other.counts.len());
        let mut counts = vec![0u64; len];
        for (i, slot) in counts.iter_mut().enumerate() {
            *slot = self.counts.get(i).copied().unwrap_or(0)
                + other.counts.get(i).copied().unwrap_or(0);
        }
        Histogram {
            width: self.width,
            counts,
            count: self.count + other.count,
            sum: self.sum + other.sum,
        }
    }

    /// The midpoint of the bucket holding the `index`-th sample (0-based,
    /// in sorted order). `index` must be `< count`.
    fn value_at(&self, index: u64) -> f64 {
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > index {
                return (i as f64 + 0.5) * self.width;
            }
        }
        (self.counts.len().saturating_sub(1) as f64 + 0.5) * self.width
    }

    /// Percentile estimate (0–100) using the same linear interpolation rule
    /// as [`sevf_sim::stats::percentile`], over bucket midpoints. The
    /// estimate is within one bucket width of the exact sample percentile;
    /// 0 with no samples.
    pub fn percentile(&self, pct: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.count == 1 {
            return self.value_at(0);
        }
        let rank = pct.clamp(0.0, 100.0) / 100.0 * (self.count - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        let frac = rank - lo as f64;
        let vl = self.value_at(lo);
        let vh = self.value_at(hi);
        vl + (vh - vl) * frac
    }
}

/// A string-keyed metrics registry: monotone counters, point-in-time
/// gauges, and fixed-bucket histograms. `BTreeMap`-backed, so iteration
/// (and every exporter built on it) is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (creating it at 0).
    pub fn inc(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets gauge `name`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records `value` into histogram `name`, creating it with bucket
    /// `width` on first touch.
    ///
    /// # Panics
    ///
    /// Panics if the histogram exists with a different bucket width.
    pub fn observe(&mut self, name: &str, width: f64, value: f64) {
        let hist = self
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(width));
        assert!(
            hist.width() == width,
            "histogram {name} already registered with width {}",
            hist.width()
        );
        hist.record(value);
    }

    /// Counter value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds `other` in: counters add, gauges take `other`'s value, and
    /// histograms merge exactly.
    ///
    /// # Panics
    ///
    /// Panics if a shared histogram name has mismatched bucket widths.
    pub fn absorb(&mut self, other: &Registry) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(name.clone(), *value);
        }
        for (name, hist) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => *mine = mine.merged(hist),
                None => {
                    self.histograms.insert(name.clone(), hist.clone());
                }
            }
        }
    }
}

/// Percentile (0–100) of an unsorted sample set, 0 when empty — the
/// empty-guarded wrapper every serving-layer percentile goes through
/// (there is exactly one underlying implementation:
/// [`sevf_sim::stats::percentile`]).
pub fn percentile_or_zero(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        sevf_sim::stats::percentile(values, pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevf_sim::rng::XorShift64;
    use sevf_sim::stats::percentile;

    #[test]
    fn histogram_records_and_buckets() {
        let mut h = Histogram::new(10.0);
        for v in [1.0, 9.0, 11.0, 35.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.counts(), &[2, 1, 0, 1]);
        assert!((h.mean() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_sample_edges() {
        let h = Histogram::new(5.0);
        assert_eq!(h.percentile(50.0), 0.0);
        assert!(h.counts().is_empty());
        let mut one = Histogram::new(5.0);
        one.record(12.0);
        // Single sample: every percentile is its bucket midpoint.
        assert_eq!(one.percentile(0.0), 12.5);
        assert_eq!(one.percentile(99.0), 12.5);
    }

    #[test]
    fn merge_is_exact_assoc_and_comm() {
        let mut rng = XorShift64::new(0xB00B5);
        let mut parts = Vec::new();
        for _ in 0..3 {
            let mut h = Histogram::new(2.0);
            for _ in 0..50 {
                h.record(rng.next_f64() * 100.0);
            }
            parts.push(h);
        }
        let ab_c = parts[0].merged(&parts[1]).merged(&parts[2]);
        let a_bc = parts[0].merged(&parts[1].merged(&parts[2]));
        let cba = parts[2].merged(&parts[1]).merged(&parts[0]);
        // Bucket counts (what percentiles read) merge exactly in any
        // order; only the float running sum is subject to rounding.
        for other in [&a_bc, &cba] {
            assert_eq!(ab_c.counts(), other.counts());
            assert_eq!(ab_c.count(), other.count());
            assert!((ab_c.sum() - other.sum()).abs() < 1e-9 * ab_c.sum().abs());
        }
        assert_eq!(ab_c.count(), 150);
    }

    #[test]
    #[should_panic(expected = "cannot exactly merge")]
    fn merge_rejects_mismatched_widths() {
        let _ = Histogram::new(1.0).merged(&Histogram::new(2.0));
    }

    #[test]
    fn bucket_counts_are_monotone_under_insertion() {
        let mut rng = XorShift64::new(42);
        let mut h = Histogram::new(3.0);
        let mut prev: Vec<u64> = Vec::new();
        for _ in 0..200 {
            h.record(rng.next_f64() * 60.0);
            let now = h.counts().to_vec();
            for (i, &p) in prev.iter().enumerate() {
                assert!(now.get(i).copied().unwrap_or(0) >= p, "bucket {i} shrank");
            }
            prev = now;
        }
    }

    #[test]
    fn histogram_percentiles_track_exact_within_one_bucket() {
        for seed in [1u64, 7, 0x5EF0, 99] {
            let mut rng = XorShift64::new(seed);
            let width = 2.5;
            let mut h = Histogram::new(width);
            let mut samples = Vec::new();
            for _ in 0..500 {
                let v = rng.next_f64() * 300.0;
                h.record(v);
                samples.push(v);
            }
            for pct in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
                let exact = percentile(&samples, pct);
                let est = h.percentile(pct);
                assert!(
                    (est - exact).abs() <= width,
                    "seed {seed} p{pct}: est {est} exact {exact}"
                );
            }
        }
    }

    #[test]
    fn registry_round_trips_and_absorbs() {
        let mut a = Registry::new();
        a.inc("requests", 3);
        a.set_gauge("util", 0.5);
        a.observe("lat", 10.0, 25.0);
        let mut b = Registry::new();
        b.inc("requests", 2);
        b.set_gauge("util", 0.75);
        b.observe("lat", 10.0, 5.0);
        a.absorb(&b);
        assert_eq!(a.counter("requests"), 5);
        assert_eq!(a.gauge("util"), Some(0.75));
        assert_eq!(a.histogram("lat").unwrap().count(), 2);
        assert_eq!(a.counter("absent"), 0);
        assert_eq!(a.gauge("absent"), None);
    }

    #[test]
    fn percentile_or_zero_edge_cases() {
        assert_eq!(percentile_or_zero(&[], 50.0), 0.0);
        assert_eq!(percentile_or_zero(&[7.0], 99.0), 7.0);
        let flat = [4.0, 4.0, 4.0, 4.0];
        assert_eq!(percentile_or_zero(&flat, 50.0), 4.0);
        assert_eq!(percentile_or_zero(&flat, 99.0), 4.0);
    }
}
