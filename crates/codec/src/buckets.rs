//! Value bucketization for match lengths and distances.
//!
//! DEFLATE encodes match lengths and distances as a small symbol (the
//! bucket) plus a handful of raw extra bits. Rather than transcribing
//! DEFLATE's tables, this module *generates* an equivalent bucket layout:
//! a run of unary buckets (one value each, zero extra bits), followed by
//! tiers of buckets that double in width, each tier adding one extra bit.

use crate::bitio::{BitReader, BitWriter};
use crate::CodecError;

/// A generated bucket table mapping values to (symbol, extra bits).
#[derive(Debug, Clone)]
pub(crate) struct BucketTable {
    /// (base_value, extra_bits) per bucket symbol.
    buckets: Vec<(u32, u8)>,
    min_value: u32,
    max_value: u32,
}

impl BucketTable {
    /// Builds a table covering `min_value..=max_value`.
    ///
    /// The first `unary` buckets hold one value each; afterwards, tiers of
    /// `per_tier` buckets are emitted with 1, 2, 3… extra bits until
    /// `max_value` is covered.
    ///
    /// # Panics
    ///
    /// Panics if `max_value < min_value` or `per_tier == 0`.
    pub(crate) fn new(min_value: u32, max_value: u32, unary: u32, per_tier: u32) -> Self {
        assert!(max_value >= min_value);
        assert!(per_tier > 0);
        let mut buckets = Vec::new();
        let mut base = min_value;
        for _ in 0..unary {
            if base > max_value {
                break;
            }
            buckets.push((base, 0u8));
            base += 1;
        }
        let mut extra: u8 = 1;
        while base <= max_value {
            for _ in 0..per_tier {
                if base > max_value {
                    break;
                }
                buckets.push((base, extra));
                base += 1u32 << extra;
            }
            extra += 1;
        }
        BucketTable {
            buckets,
            min_value,
            max_value,
        }
    }

    /// Number of bucket symbols.
    pub(crate) fn symbol_count(&self) -> usize {
        self.buckets.len()
    }

    /// Maps a value to its bucket symbol.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside `min_value..=max_value`.
    pub(crate) fn symbol_for(&self, value: u32) -> usize {
        assert!(
            value >= self.min_value && value <= self.max_value,
            "value {value} out of range {}..={}",
            self.min_value,
            self.max_value
        );
        // Binary search for the last bucket whose base <= value.
        match self.buckets.binary_search_by_key(&value, |&(b, _)| b) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// Writes the extra bits for `value` (after its symbol has been coded).
    pub(crate) fn write_extra(&self, writer: &mut BitWriter, value: u32) {
        let sym = self.symbol_for(value);
        let (base, extra) = self.buckets[sym];
        if extra > 0 {
            writer.write_bits(value - base, extra);
        }
    }

    /// Reconstructs a value from its symbol by reading the extra bits.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::CorruptStream`] for an unknown symbol, or
    /// [`CodecError::Truncated`] if the stream ends inside the extra bits.
    pub(crate) fn read_value(
        &self,
        reader: &mut BitReader<'_>,
        symbol: usize,
    ) -> Result<u32, CodecError> {
        let &(base, extra) = self
            .buckets
            .get(symbol)
            .ok_or(CodecError::CorruptStream("bucket symbol out of range"))?;
        let offset = if extra > 0 {
            reader.read_bits(extra)?
        } else {
            0
        };
        let value = base + offset;
        if value > self.max_value {
            return Err(CodecError::CorruptStream("bucketed value exceeds maximum"));
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_whole_range_contiguously() {
        let t = BucketTable::new(3, 258, 8, 4);
        let mut prev_sym = 0;
        for v in 3..=258u32 {
            let s = t.symbol_for(v);
            assert!(s >= prev_sym, "symbols must be monotone");
            prev_sym = s;
        }
        assert_eq!(t.symbol_for(3), 0);
    }

    #[test]
    fn roundtrip_every_value() {
        let t = BucketTable::new(1, 1 << 20, 4, 2);
        let probe: Vec<u32> = (0..21)
            .map(|i| 1u32 << i)
            .chain([3, 5, 1000, 65_535, (1 << 20)])
            .collect();
        for v in probe {
            let v = v.min(t.max_value).max(t.min_value);
            let sym = t.symbol_for(v);
            let mut w = BitWriter::new();
            t.write_extra(&mut w, v);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(t.read_value(&mut r, sym).unwrap(), v);
        }
    }

    #[test]
    fn unary_buckets_have_no_extra_bits() {
        let t = BucketTable::new(3, 100, 8, 4);
        for v in 3..11u32 {
            let mut w = BitWriter::new();
            t.write_extra(&mut w, v);
            assert!(w.finish().is_empty(), "value {v}");
        }
    }

    #[test]
    fn symbol_count_is_logarithmic() {
        let t = BucketTable::new(1, 1 << 20, 4, 2);
        assert!(t.symbol_count() < 50, "got {}", t.symbol_count());
    }

    #[test]
    fn bad_symbol_rejected() {
        let t = BucketTable::new(1, 10, 2, 2);
        let mut r = BitReader::new(&[0xff]);
        assert!(t.read_value(&mut r, 999).is_err());
    }
}
