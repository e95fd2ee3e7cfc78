//! Inline block compression for Purity (§3.1, §4.6).
//!
//! Purity compresses every cblock on the write path; because the layout
//! is log-structured, compressed blocks pack tightly with no alignment
//! padding, "leading to simpler, more efficient compression techniques"
//! (§3.1). The compressor here is a from-scratch LZ77 variant with LZ4-
//! style token framing: greedy matching against a 4-byte-prefix hash
//! table, minimum match length 4, 16-bit match offsets, and an
//! incompressible-input bailout that stores the block raw so the worst
//! case costs two bytes of header.
//!
//! * [`compress`] / [`decompress`] — the block codec.
//! * [`varint`] — LEB128 variable-length integers, shared with the
//!   storage formats in `purity-core`.

pub mod varint;

/// Minimum match length worth encoding.
const MIN_MATCH: usize = 4;
/// Match offsets are 16-bit, so the effective window is 64 KiB — matched
/// to Purity's 32 KiB maximum cblock size with room to spare.
const MAX_OFFSET: usize = 65_535;
/// The largest block [`compress`] LZ-encodes (a larger one is stored
/// raw), and so the largest LZ length [`decompress`] accepts: twice
/// Purity's 32 KiB maximum cblock.
const MAX_BLOCK: usize = 64 * 1024;

const FORMAT_RAW: u8 = 0;
const FORMAT_LZ: u8 = 1;

/// Decompression errors (corrupt or truncated input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressError {
    /// Input ended mid-structure.
    Truncated,
    /// Unknown format byte.
    BadFormat,
    /// A match referenced data before the start of the output.
    BadMatchOffset,
    /// Declared size does not match decoded size, or is larger than any
    /// block [`compress`] LZ-encodes.
    LengthMismatch,
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CompressError::Truncated => "truncated compressed block",
            CompressError::BadFormat => "unknown compression format byte",
            CompressError::BadMatchOffset => "match offset out of range",
            CompressError::LengthMismatch => "decoded length mismatch",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CompressError {}

#[inline]
fn read_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().unwrap())
}

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> 18) as usize & (HASH_SIZE - 1)
}

const HASH_SIZE: usize = 1 << 14;

/// After `1 << SKIP_TRIGGER` consecutive missed probes the literal scan
/// starts striding (LZ4-style acceleration): incompressible regions are
/// skipped over instead of probed byte-by-byte, which is where most of
/// the compressor's time goes on low-redundancy blocks.
const SKIP_TRIGGER: u32 = 6;

/// Per-thread match table, generation-stamped so reuse costs nothing:
/// an entry is live only when its stamp equals the current call's
/// generation, which replaces a 128 KiB zeroing memset per [`compress`]
/// call with a single counter bump. Stamp and position share one word
/// (stamp in the high half) so a probe touches a single cache line, and
/// the fixed-size boxed array lets slot indexing skip bounds checks.
struct MatchTable {
    slots: Box<[u64; HASH_SIZE]>,
    gen: u32,
}

impl MatchTable {
    fn new() -> Self {
        Self {
            slots: vec![0u64; HASH_SIZE].into_boxed_slice().try_into().unwrap(),
            gen: 0,
        }
    }

    #[inline]
    fn next_gen(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Wrapped: stale stamps could alias generation 0.
            self.slots.iter_mut().for_each(|s| *s = u64::MAX << 32);
            self.gen = 1;
        }
    }

    /// Returns the previous position stored in slot `h` (if current) and
    /// stores `pos` there.
    #[inline]
    fn swap(&mut self, h: usize, pos: usize) -> Option<usize> {
        let slot = self.slots[h & (HASH_SIZE - 1)];
        let prev = ((slot >> 32) as u32 == self.gen).then_some(slot as u32 as usize);
        self.slots[h & (HASH_SIZE - 1)] = ((self.gen as u64) << 32) | pos as u64;
        prev
    }

    #[inline]
    fn put(&mut self, h: usize, pos: usize) {
        self.slots[h & (HASH_SIZE - 1)] = ((self.gen as u64) << 32) | pos as u64;
    }
}

std::thread_local! {
    static TABLE: std::cell::RefCell<MatchTable> = std::cell::RefCell::new(MatchTable::new());
}

/// Length of the common prefix of `a[a_at..]` and `a[b_at..]` (b_at >
/// a_at), compared a word at a time.
#[inline]
fn common_prefix(data: &[u8], a_at: usize, b_at: usize) -> usize {
    let max = data.len() - b_at;
    let mut len = 0;
    while len + 8 <= max {
        let x = u64::from_le_bytes(data[a_at + len..a_at + len + 8].try_into().unwrap());
        let y = u64::from_le_bytes(data[b_at + len..b_at + len + 8].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max && data[a_at + len] == data[b_at + len] {
        len += 1;
    }
    len
}

/// Compresses a block. Output always begins with a format byte and the
/// varint original length; incompressible input is stored raw.
pub fn compress(input: &[u8]) -> Vec<u8> {
    if input.len() > MAX_BLOCK {
        return store_raw(input);
    }
    TABLE.with(|t| compress_with(&mut t.borrow_mut(), input))
}

fn compress_with(table: &mut MatchTable, input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.push(FORMAT_LZ);
    varint::encode(input.len() as u64, &mut out);
    let body_start = out.len();

    table.next_gen();
    let mut pos = 0;
    let mut literal_start = 0;
    let mut search = 1u32 << SKIP_TRIGGER;

    while pos + MIN_MATCH <= input.len() {
        let cur = read_u32(input, pos);
        let candidate = table.swap(hash4(cur), pos);

        let found = match candidate {
            Some(candidate)
                if pos - candidate <= MAX_OFFSET && read_u32(input, candidate) == cur =>
            {
                // Extend the match greedily (word-at-a-time).
                let len = MIN_MATCH + common_prefix(input, candidate + MIN_MATCH, pos + MIN_MATCH);
                Some((pos - candidate, len))
            }
            _ => None,
        };

        match found {
            Some((offset, len)) => {
                emit_token(&mut out, &input[literal_start..pos], Some((offset, len)));
                // Seed the table at the match tail only (LZ4-style): the
                // next occurrence of a repeated region matches against
                // its end just as well as its middle, and skipping the
                // interior probes is most of the match-path cost.
                let end = pos + len;
                if end >= 2 && end - 2 + MIN_MATCH <= input.len() {
                    let p = end - 2;
                    table.put(hash4(read_u32(input, p)), p);
                }
                pos = end;
                literal_start = pos;
                search = 1 << SKIP_TRIGGER;
            }
            None => {
                pos += (search >> SKIP_TRIGGER) as usize;
                search += 1;
            }
        }
    }
    // Trailing literals.
    emit_token(&mut out, &input[literal_start..], None);

    if out.len() - body_start >= input.len() {
        // Bail out: store raw.
        out.clear();
        out.push(FORMAT_RAW);
        varint::encode(input.len() as u64, &mut out);
        out.extend_from_slice(input);
    }
    out
}

/// Emits one token: `[lit_len:4 | match_len:4]` with 15 meaning "varint
/// extension follows", then the literals, then (for matches) a 2-byte LE
/// offset. A token with match nibble 0 carries literals only.
fn emit_token(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_len = literals.len();
    let (offset, match_len) = m.unwrap_or((0, 0));
    debug_assert!(m.is_none() || match_len >= MIN_MATCH);
    // Bias match length so nibble 1 = MIN_MATCH (0 = no match).
    let match_code = if match_len == 0 {
        0
    } else {
        match_len - MIN_MATCH + 1
    };

    let lit_nibble = lit_len.min(15) as u8;
    let match_nibble = match_code.min(15) as u8;
    out.push((lit_nibble << 4) | match_nibble);
    if lit_nibble == 15 {
        varint::encode((lit_len - 15) as u64, out);
    }
    if match_nibble == 15 {
        varint::encode((match_code - 15) as u64, out);
    }
    out.extend_from_slice(literals);
    if match_len > 0 {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
    }
}

/// A length nibble of 15 continues in the varint at `cursor`: `base` plus
/// that varint. No run is longer than a block, which keeps every length
/// sum in range.
fn extended(base: usize, input: &[u8], cursor: &mut usize) -> Result<usize, CompressError> {
    let (ext, n) = varint::decode(&input[*cursor..]).ok_or(CompressError::Truncated)?;
    *cursor += n;
    match usize::try_from(ext) {
        Ok(ext) if ext <= MAX_BLOCK => Ok(base + ext),
        _ => Err(CompressError::LengthMismatch),
    }
}

/// Decompresses a block produced by [`compress`]. Total on any input: a
/// corrupt block is an error, never a panic, and never sizes more output
/// than the largest block [`compress`] LZ-encodes.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut cursor = 0;
    let format = *input.first().ok_or(CompressError::Truncated)?;
    cursor += 1;
    let (orig_len, n) = varint::decode(&input[cursor..]).ok_or(CompressError::Truncated)?;
    cursor += n;
    let orig_len = orig_len as usize;

    match format {
        FORMAT_RAW => {
            let body = input.get(cursor..).ok_or(CompressError::Truncated)?;
            if body.len() != orig_len {
                return Err(CompressError::LengthMismatch);
            }
            Ok(body.to_vec())
        }
        FORMAT_LZ => {
            if orig_len > MAX_BLOCK {
                return Err(CompressError::LengthMismatch);
            }
            let mut out = Vec::with_capacity(orig_len);
            while out.len() < orig_len {
                let token = *input.get(cursor).ok_or(CompressError::Truncated)?;
                cursor += 1;
                let mut lit_len = (token >> 4) as usize;
                let mut match_code = (token & 0xf) as usize;
                if lit_len == 15 {
                    lit_len = extended(lit_len, input, &mut cursor)?;
                }
                if match_code == 15 {
                    match_code = extended(match_code, input, &mut cursor)?;
                }
                // Neither the literals nor the match may run past the
                // declared length.
                if lit_len > orig_len - out.len() {
                    return Err(CompressError::LengthMismatch);
                }
                let lits = input
                    .get(cursor..cursor + lit_len)
                    .ok_or(CompressError::Truncated)?;
                out.extend_from_slice(lits);
                cursor += lit_len;
                if match_code > 0 {
                    let off_bytes = input
                        .get(cursor..cursor + 2)
                        .ok_or(CompressError::Truncated)?;
                    cursor += 2;
                    let offset = u16::from_le_bytes([off_bytes[0], off_bytes[1]]) as usize;
                    let match_len = match_code - 1 + MIN_MATCH;
                    if match_len > orig_len - out.len() {
                        return Err(CompressError::LengthMismatch);
                    }
                    if offset == 0 || offset > out.len() {
                        return Err(CompressError::BadMatchOffset);
                    }
                    let start = out.len() - offset;
                    if offset >= match_len {
                        // Non-overlapping: one memcpy.
                        out.extend_from_within(start..start + match_len);
                    } else if offset == 1 {
                        // Run-length: repeat the last byte.
                        let b = out[start];
                        out.resize(out.len() + match_len, b);
                    } else {
                        // Overlapping: copy in offset-sized strides (each
                        // stride's source is fully materialized).
                        let mut remaining = match_len;
                        while remaining > 0 {
                            let n = remaining.min(out.len() - start);
                            out.extend_from_within(start..start + n);
                            remaining -= n;
                        }
                    }
                }
            }
            if out.len() != orig_len {
                return Err(CompressError::LengthMismatch);
            }
            Ok(out)
        }
        _ => Err(CompressError::BadFormat),
    }
}

/// Stores a block uncompressed in the container format (used when
/// compression is administratively disabled); [`decompress`] reads it.
pub fn store_raw(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() + 4);
    out.push(FORMAT_RAW);
    varint::encode(input.len() as u64, &mut out);
    out.extend_from_slice(input);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn round_trip(data: &[u8]) -> usize {
        let c = compress(data);
        assert_eq!(decompress(&c).expect("round trip"), data);
        c.len()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn highly_redundant_input_compresses_hard() {
        let data = vec![0u8; 32 * 1024];
        let clen = round_trip(&data);
        assert!(
            clen < data.len() / 50,
            "zeros should compress >50x, got {}",
            clen
        );
    }

    #[test]
    fn repeated_pattern_compresses() {
        let pattern = b"SELECT * FROM accounts WHERE id = ?;";
        let mut data = Vec::new();
        while data.len() < 16 * 1024 {
            data.extend_from_slice(pattern);
        }
        let clen = round_trip(&data);
        assert!(
            clen < data.len() / 8,
            "pattern should compress >8x, got {}",
            clen
        );
    }

    #[test]
    fn random_input_bails_to_raw_with_tiny_overhead() {
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<u8> = (0..8192).map(|_| rng.gen()).collect();
        let clen = round_trip(&data);
        assert!(
            clen <= data.len() + 4,
            "raw fallback overhead too big: {}",
            clen
        );
    }

    #[test]
    fn text_like_input_compresses_moderately() {
        // Synthetic "database page": structured rows with shared prefixes.
        let mut data = Vec::new();
        for row in 0..400u32 {
            data.extend_from_slice(b"row:");
            data.extend_from_slice(&row.to_be_bytes());
            data.extend_from_slice(b"|name:customer_");
            data.extend_from_slice(format!("{:06}", row % 100).as_bytes());
            data.extend_from_slice(b"|status:active|balance:000123.45|");
        }
        let clen = round_trip(&data);
        assert!(
            clen < data.len() / 2,
            "structured rows should halve: {}",
            clen
        );
    }

    #[test]
    fn overlapping_matches_decode_correctly() {
        // 'aaaaa...' forces offset-1 overlapping copies.
        let data = vec![b'a'; 1000];
        round_trip(&data);
        // RLE-ish two-byte period.
        let data: Vec<u8> = (0..1000)
            .map(|i| if i % 2 == 0 { b'x' } else { b'y' })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn long_literal_runs_use_extension() {
        let mut rng = StdRng::seed_from_u64(2);
        // 100 random bytes (literals) then a repeat (match).
        let mut data: Vec<u8> = (0..100).map(|_| rng.gen()).collect();
        let repeat = data[..64].to_vec();
        data.extend_from_slice(&repeat);
        round_trip(&data);
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        let good = compress(b"hello world hello world hello world");
        // Truncations.
        for cut in 0..good.len() {
            let _ = decompress(&good[..cut]);
        }
        // Bad format byte.
        let mut bad = good.clone();
        bad[0] = 9;
        assert_eq!(decompress(&bad).unwrap_err(), CompressError::BadFormat);
    }

    #[test]
    fn an_lz_block_declaring_u64_max_bytes_is_an_error() {
        let mut block = vec![FORMAT_LZ];
        varint::encode(u64::MAX, &mut block);
        assert_eq!(decompress(&block), Err(CompressError::LengthMismatch));
    }

    #[test]
    fn a_literal_run_of_u64_max_bytes_is_an_error() {
        let mut block = vec![FORMAT_LZ];
        varint::encode(100, &mut block);
        block.push(0xF0);
        varint::encode(u64::MAX, &mut block);
        assert_eq!(decompress(&block), Err(CompressError::LengthMismatch));
    }

    #[test]
    fn a_match_of_u64_max_bytes_is_an_error() {
        let mut block = vec![FORMAT_LZ];
        varint::encode(100, &mut block);
        // One literal, then a match whose length continues in a varint.
        block.push(0x1F);
        varint::encode(u64::MAX, &mut block);
        block.extend_from_slice(&[b'a', 1, 0]);
        assert_eq!(decompress(&block), Err(CompressError::LengthMismatch));
    }

    #[test]
    fn blocks_past_the_lz_bound_are_stored_raw() {
        let data = vec![7u8; MAX_BLOCK + 1];
        let packed = compress(&data);
        assert_eq!(packed[0], FORMAT_RAW);
        assert_eq!(decompress(&packed).unwrap(), data);
        assert!(round_trip(&data[..MAX_BLOCK]) < 1024);
    }

    #[test]
    fn mixed_compressibility_blocks() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let len = rng.gen_range(0..20_000);
            let mode = rng.gen_range(0..3);
            let data: Vec<u8> = match mode {
                0 => (0..len).map(|_| rng.gen()).collect(),
                1 => (0..len).map(|i| (i % 7) as u8).collect(),
                _ => (0..len).map(|_| rng.gen_range(b'a'..=b'e')).collect(),
            };
            round_trip(&data);
        }
    }
}
