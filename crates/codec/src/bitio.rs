//! LSB-first bit-level I/O used by the Huffman coder.

use crate::CodecError;

/// Writes bits least-significant-bit first into a byte vector.
#[derive(Debug, Default, Clone)]
pub(crate) struct BitWriter {
    bytes: Vec<u8>,
    current: u8,
    used: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends the low `count` bits of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub(crate) fn write_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        for i in 0..count {
            let bit = (value >> i) & 1;
            self.current |= (bit as u8) << self.used;
            self.used += 1;
            if self.used == 8 {
                self.bytes.push(self.current);
                self.current = 0;
                self.used = 0;
            }
        }
    }

    /// Flushes the final partial byte (zero-padded) and returns the bytes.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        if self.used > 0 {
            self.bytes.push(self.current);
        }
        self.bytes
    }
}

/// Reads bits least-significant-bit first from a byte slice.
#[derive(Debug, Clone)]
pub(crate) struct BitReader<'a> {
    bytes: &'a [u8],
    bit_pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, bit_pos: 0 }
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] past the end of input.
    pub(crate) fn read_bit(&mut self) -> Result<u32, CodecError> {
        let byte = self.bit_pos / 8;
        if byte >= self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let bit = (self.bytes[byte] >> (self.bit_pos % 8)) & 1;
        self.bit_pos += 1;
        Ok(bit as u32)
    }

    /// Reads `count` bits, LSB first.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] past the end of input.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub(crate) fn read_bits(&mut self, count: u8) -> Result<u32, CodecError> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        let mut out = 0u32;
        for i in 0..count {
            out |= self.read_bit()? << i;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        let values = [
            (0x1u32, 1u8),
            (0x3, 2),
            (0x1f, 5),
            (0xabcd, 16),
            (0, 3),
            (0x7fffffff, 31),
        ];
        for (v, n) in values {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (v, n) in values {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }

    #[test]
    fn truncated_read_errors() {
        let mut r = BitReader::new(&[0xff]);
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bit(), Err(CodecError::Truncated));
    }

    #[test]
    fn zero_count_reads_zero() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn finish_flushes_the_partial_byte() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.write_bits(0xff, 8);
        assert_eq!(w.finish(), vec![0xff, 0b11]);
    }
}
