//! LSB-first bit packing with random-access reads.
//!
//! Pages store fixed-stride tuples, so readers seek straight to
//! `row * stride + field_offset` and pull an arbitrary-width field without
//! touching neighbouring bits. Both sides move a 64-bit word at a time:
//! the writer fills an accumulator and spills it whole, the reader loads
//! the (unaligned) word a field starts in.

/// Append-only bit writer.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits not yet spilled to `buf`, LSB first; fewer than 64.
    acc: u64,
    acc_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bits.div_ceil(8) + 8),
            ..Self::default()
        }
    }

    /// Appends the low `n` bits of `v` (LSB first). `n` may be 0..=64.
    #[inline]
    pub fn write_bits(&mut self, v: u64, n: usize) {
        debug_assert!(n <= 64);
        debug_assert!(n == 64 || v < (1u64 << n).max(1), "value wider than field");
        if n == 0 {
            return;
        }
        self.acc |= v << self.acc_bits;
        let total = self.acc_bits + n as u32;
        if total < 64 {
            self.acc_bits = total;
            return;
        }
        self.buf.extend_from_slice(&self.acc.to_le_bytes());
        // The high bits of `v` that did not fit the spilled word.
        self.acc = if self.acc_bits == 0 {
            0
        } else {
            v >> (64 - self.acc_bits)
        };
        self.acc_bits = total - 64;
    }

    /// Total bits written.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.acc_bits as usize
    }

    /// Finishes and returns the byte buffer (final partial byte zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        let tail = (self.acc_bits as usize).div_ceil(8);
        self.buf.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.buf
    }
}

/// Random-access bit reader over a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct BitReader<'a> {
    data: &'a [u8],
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data }
    }

    /// The little-endian word at byte `at`, zero past the end.
    #[inline]
    fn word(&self, at: usize) -> u64 {
        match self.data.get(at..at.saturating_add(8)) {
            Some(w) => u64::from_le_bytes(w.try_into().expect("8 bytes")),
            None => {
                let mut w = [0u8; 8];
                let tail = self.data.get(at..).unwrap_or(&[]);
                w[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(w)
            }
        }
    }

    /// Reads `n` bits starting at absolute bit offset `at` (LSB first).
    /// Bits beyond the end of the slice read as zero.
    #[inline]
    pub fn read_bits(&self, at: usize, n: usize) -> u64 {
        debug_assert!(n <= 64);
        if n == 0 {
            return 0;
        }
        let (byte, shift) = (at / 8, (at % 8) as u32);
        let mut v = self.word(byte) >> shift;
        if shift as usize + n > 64 {
            // A field of up to 64 bits can straddle nine bytes.
            let next = self.data.get(byte + 8).copied().unwrap_or(0);
            v |= u64::from(next) << (64 - shift);
        }
        if n == 64 {
            v
        } else {
            v & ((1u64 << n) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn single_field_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        let bytes = w.into_bytes();
        assert_eq!(BitReader::new(&bytes).read_bits(0, 4), 0b1011);
    }

    #[test]
    fn fields_pack_back_to_back() {
        let mut w = BitWriter::new();
        w.write_bits(5, 3); // bits 0..3
        w.write_bits(0, 0); // nothing
        w.write_bits(0x1ff, 9); // bits 3..12
        w.write_bits(1, 1); // bit 12
        assert_eq!(w.bit_len(), 13);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2);
        let r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0, 3), 5);
        assert_eq!(r.read_bits(3, 9), 0x1ff);
        assert_eq!(r.read_bits(12, 1), 1);
    }

    #[test]
    fn sixty_four_bit_fields_work() {
        let mut w = BitWriter::new();
        w.write_bits(3, 2);
        w.write_bits(u64::MAX, 64);
        w.write_bits(1, 1);
        w.write_bits(u64::MAX - 1, 64);
        let bytes = w.into_bytes();
        let r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2, 64), u64::MAX);
        assert_eq!(r.read_bits(66, 1), 1);
        assert_eq!(r.read_bits(67, 64), u64::MAX - 1);
    }

    #[test]
    fn reads_past_end_are_zero() {
        let r = BitReader::new(&[0xff]);
        assert_eq!(r.read_bits(0, 16), 0xff);
        assert_eq!(r.read_bits(100, 8), 0);
        assert_eq!(r.read_bits(4, 64), 0xf);
    }

    #[test]
    fn randomized_pack_unpack() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let fields: Vec<(u64, usize)> = (0..rng.gen_range(1..50))
                .map(|_| {
                    let n = rng.gen_range(0..=64usize);
                    let v = if n == 0 {
                        0
                    } else if n == 64 {
                        rng.gen()
                    } else {
                        rng.gen::<u64>() & ((1u64 << n) - 1)
                    };
                    (v, n)
                })
                .collect();
            let mut w = BitWriter::new();
            for &(v, n) in &fields {
                w.write_bits(v, n);
            }
            let total: usize = fields.iter().map(|&(_, n)| n).sum();
            assert_eq!(w.bit_len(), total);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), total.div_ceil(8));
            let r = BitReader::new(&bytes);
            let mut at = 0;
            for &(v, n) in &fields {
                assert_eq!(r.read_bits(at, n), v, "field at bit {}", at);
                at += n;
            }
        }
    }
}
