//! Order statistics, the tail-percentile rule and the FNV checksum.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what compares two result sets.

/// Median and quartiles of a sample set, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample set");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles of `values` by the exclusive method: quartile `k` sits at
/// position `k (n + 1) / 4` (1-based) with linear interpolation. The index,
/// not the value, is clamped, so very small sets extrapolate exactly as the
/// reference does. A single sample is its own quartiles.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample set");
    let v = sorted(values);
    let n = v.len();
    let at = |k: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        // 0-based position of quartile k, split into index and fraction
        // with integer arithmetic as the reference implementation does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles {
        q1: at(1),
        median: median(values),
        q3: at(3),
        n,
    }
}

/// Nearest-rank percentile (`pct` in 0–100) of `values`: the smallest
/// sample with at least `pct` percent of the set at or below it.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample set");
    let v = sorted(values);
    v[rank(pct, v.len()).clamp(1, v.len()) - 1]
}

/// 1-based nearest rank of percentile `pct` in a set of `n`. The small
/// slack keeps `99.9 % of 10 000` at 9 990 although the product is not
/// exact in binary.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// The percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it in a set of `n`; `None` when even the median has not
/// (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|pct| n.saturating_sub(rank(*pct, n)) >= 10)
}

/// FNV-1a over a stream of 64-bit words: the `sim_checksum` of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a float in by its bit pattern.
    pub fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    /// The checksum so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
        let q = quartiles(&[64.0, 1.0, 16.0, 2.0, 8.0, 4.0, 32.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 8.0, 32.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: two
        // samples extrapolate past the extremes, as the reference does.
        let q = quartiles(&[10.0, 20.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles([3.0, 3.5, 9.0], n=4) == [3.0, 3.5, 9.0]
        let q = quartiles(&[9.0, 3.0, 3.5]);
        assert_eq!((q.q1, q.median, q.q3), (3.0, 3.5, 9.0));
        let q = quartiles(&[5.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (5.0, 5.0, 5.0, 1));
    }

    #[test]
    fn nearest_rank_percentile() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 9.0], 99.0), 9.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(8), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200_000), Some(99.99));
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        let mut a = Fnv::default();
        a.word(1);
        a.word(2);
        let mut b = Fnv::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::default();
        c.word(1);
        c.word(2);
        assert_eq!(a.finish(), c.finish());
        assert_ne!(Fnv::default().finish(), a.finish());
    }
}
