//! Dictionary-compressed tuple pages (§4.9).
//!
//! Encoding per column: a dictionary of bases `b0..b_{B-1}` and an offset
//! width `W`; value `v = b_x + o` is stored as `(x, o)` in
//! `ceil(lg B) + W` bits. The encoder chooses `W` per column by costing
//! the candidate widths and minimizing total bits (a
//! run-length-like scheme: clustered values share a base; a constant
//! column costs zero bits). All tuples in a page have identical bit
//! length, enabling fixed-stride random access and compressed-domain
//! equality scans.
//!
//! A page serializes ([`Page::write_to`] / [`Page::read_from`]) as
//!
//! ```text
//! varint n_rows, varint n_cols,
//! per column: u8 width, varint B, varint b0, varint (b_i - b_{i-1}) for i ≥ 1,
//! payload: n_rows rows of row_bits bits, LSB first, zero-padded to a byte
//! ```
//!
//! and [`Page::encoded_bytes`] is that length.

use crate::bitstream::{BitReader, BitWriter};

/// Page decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageError {
    /// Header truncated or malformed.
    BadHeader,
    /// Row index out of range.
    RowOutOfRange,
    /// Column index out of range.
    ColOutOfRange,
    /// The page's tuples do not have the arity asked for.
    WrongArity,
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PageError::BadHeader => "malformed page header",
            PageError::RowOutOfRange => "row out of range",
            PageError::ColOutOfRange => "column out of range",
            PageError::WrongArity => "tuple arity mismatch",
        };
        f.write_str(s)
    }
}

impl std::error::Error for PageError {}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ColumnDict {
    /// Sorted, distinct.
    bases: Vec<u64>,
    /// Offset width in bits.
    width: usize,
    /// Base-selector width in bits: ceil(lg B).
    sel_bits: usize,
}

impl ColumnDict {
    fn new(bases: Vec<u64>, width: usize) -> Self {
        let sel_bits = ceil_log2(bases.len());
        Self {
            bases,
            width,
            sel_bits,
        }
    }

    fn bits_per_value(&self) -> usize {
        self.sel_bits + self.width
    }

    /// The value a stored (selector, offset) pair stands for. A page read
    /// from bytes has every selector checked; the offset add wraps so a
    /// corrupt offset decodes to a wrong value, never a panic.
    #[inline]
    fn decode(&self, sel: u64, offset: u64) -> u64 {
        self.bases[sel as usize].wrapping_add(offset)
    }

    /// The selector of the base that encodes `v`: the last base <= `v`.
    fn select(&self, v: u64) -> Option<usize> {
        self.bases.partition_point(|&b| b <= v).checked_sub(1)
    }

    /// Whether `v` is representable, and with which (sel, offset).
    fn try_encode(&self, v: u64) -> Option<(u64, u64)> {
        let idx = self.select(v)?;
        let o = v - self.bases[idx];
        let fits = self.width >= 64 || o < (1u64 << self.width);
        fits.then_some((idx as u64, o))
    }
}

/// Header bits charged per base when costing a width (a varint's worst
/// case), so a wider offset wins once it saves more payload than the
/// bases it drops cost.
const BASE_COST_BITS: usize = 72;

/// The span one base covers at offset width `w`.
fn span(w: usize) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        1u64 << w
    }
}

/// Greedy base cover of `sorted` distinct values at base span `span`: a
/// new base starts at the first value >= base + span. Calls `on_base`
/// for each base, in order; gallops over the values a base covers, so a
/// wide span costs a step per base, not per value.
fn cover(sorted: &[u64], span: u64, mut on_base: impl FnMut(u64)) {
    let mut i = 0;
    while i < sorted.len() {
        let b = sorted[i];
        on_base(b);
        let (mut covered, mut step) = (i, 1);
        while i + step < sorted.len() && sorted[i + step] - b < span {
            covered = i + step;
            step *= 2;
        }
        let end = (i + step).min(sorted.len());
        i = covered + 1 + sorted[covered + 1..end].partition_point(|&v| v - b < span);
    }
}

fn ceil_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// What one pass over a column learns of it.
#[derive(Debug, Clone, Copy)]
struct ColumnStats {
    lo: u64,
    hi: u64,
    /// Non-decreasing from the first row to the last.
    sorted: bool,
    /// The bits in which some value differs from the first.
    differ: u64,
}

/// Every column's [`ColumnStats`]: a tight pass per column, which beats
/// one pass over the rows updating every column's stats at once.
fn column_stats<R: AsRef<[u64]>>(rows: &[R]) -> Vec<ColumnStats> {
    let Some(first) = rows.first() else {
        return Vec::new();
    };
    (first.as_ref().iter().enumerate())
        .map(|(c, &f)| {
            let (mut lo, mut hi, mut prev, mut sorted, mut differ) = (f, f, f, true, 0);
            for v in rows.iter().map(|r| r.as_ref()[c]) {
                lo = lo.min(v);
                hi = hi.max(v);
                sorted &= prev <= v;
                prev = v;
                differ |= v ^ f;
            }
            ColumnStats {
                lo,
                hi,
                sorted,
                differ,
            }
        })
        .collect()
}

/// The sorted distinct values of column `c`: read off in order if the
/// column is already sorted, through a bitmap if its range — in steps of
/// the low bits every value shares — needs no more bitmap words than
/// there are rows, radix-sorted a byte a pass otherwise.
fn distinct<R: AsRef<[u64]>>(rows: &[R], c: usize, s: &ColumnStats) -> Vec<u64> {
    let values = rows.iter().map(|r| r.as_ref()[c]);
    let mut out = Vec::with_capacity(rows.len());
    let tz = s.differ.trailing_zeros();
    let steps = (s.hi - s.lo) >> tz;
    if s.sorted {
        for v in values {
            if out.last() != Some(&v) {
                out.push(v);
            }
        }
    } else if steps < (64 * rows.len() as u64).max(4096) {
        let mut bitmap = vec![0u64; (steps / 64 + 1) as usize];
        for v in values {
            let i = (v - s.lo) >> tz;
            bitmap[(i / 64) as usize] |= 1 << (i % 64);
        }
        for (wi, mut word) in bitmap.into_iter().enumerate() {
            while word != 0 {
                let i = wi as u64 * 64 + u64::from(word.trailing_zeros());
                out.push(s.lo + (i << tz));
                word &= word - 1;
            }
        }
    } else {
        let mut keys: Vec<u64> = values.map(|v| (v - s.lo) >> tz).collect();
        let mut spare = vec![0u64; keys.len()];
        for shift in (0..64 - steps.leading_zeros()).step_by(8) {
            let mut at = [0usize; 257];
            for &k in &keys {
                at[((k >> shift) & 0xff) as usize + 1] += 1;
            }
            for i in 1..at.len() {
                at[i] += at[i - 1];
            }
            for &k in &keys {
                let digit = ((k >> shift) & 0xff) as usize;
                spare[at[digit]] = k;
                at[digit] += 1;
            }
            std::mem::swap(&mut keys, &mut spare);
        }
        keys.dedup();
        out.extend(keys.into_iter().map(|k| s.lo + (k << tz)));
    }
    out
}

/// Picks the (bases, width) minimizing encoded size for column `c`:
/// every width from 0 up to the column's range is a candidate, costed as
/// `n_rows * (ceil(lg B) + W) + B * 72`, and the narrowest of the
/// cheapest wins. Widths are tried widest first, and a width is only
/// covered if a lower bound on its `B` could still win. Two bounds: a
/// base spans at most two aligned blocks of `2^W`, so `B` is at least
/// half the blocks the values fall in (counted for every width from one
/// pass over adjacent values); and a base covers at most
/// `(2^W - 1) / g + 1` values when no two are closer than `g`. Dense,
/// clustered and scattered columns all cover a few widths, not all.
fn choose_dict<R: AsRef<[u64]>>(rows: &[R], c: usize, s: &ColumnStats) -> ColumnDict {
    if s.lo == s.hi {
        return ColumnDict::new(vec![s.lo], 0);
    }
    let values = distinct(rows, c, s);
    // Adjacent values in different blocks of 2^W, by the highest bit
    // they differ in: those with it at W or above.
    let mut splits = [0usize; 64];
    let mut min_gap = u64::MAX;
    for p in values.windows(2) {
        splits[63 - (p[0] ^ p[1]).leading_zeros() as usize] += 1;
        min_gap = min_gap.min(p[1] - p[0]);
    }
    let n_rows = rows.len();
    let cost =
        |w: usize, n_bases: usize| n_rows * (ceil_log2(n_bases) + w) + n_bases * BASE_COST_BITS;
    let max_w = 64 - (s.hi - s.lo).leading_zeros() as usize;
    let mut blocks = 1 + splits[max_w..].iter().sum::<usize>();
    let mut best: Option<(usize, usize)> = None;
    for w in (0..=max_w).rev() {
        if w < max_w {
            blocks += splits[w];
        }
        let per_base = usize::try_from((span(w) - 1) / min_gap + 1).unwrap_or(usize::MAX);
        let fewest = blocks.div_ceil(2).max(values.len().div_ceil(per_base));
        if best.is_some_and(|(c, _)| cost(w, fewest) > c) {
            continue;
        }
        let mut n_bases = 0;
        cover(&values, span(w), |_| n_bases += 1);
        if best.is_none_or(|(c, _)| cost(w, n_bases) <= c) {
            best = Some((cost(w, n_bases), w));
        }
    }
    let (_, w) = best.expect("at least one width candidate");
    let mut bases = Vec::new();
    cover(&values, span(w), |b| bases.push(b));
    ColumnDict::new(bases, w)
}

/// One column's share of every encoded row, for the encode loop.
struct Field<'a> {
    col: usize,
    dict: &'a ColumnDict,
    /// Selector plus offset bits.
    bits: usize,
    /// The selector this column used last: sorted and clustered columns
    /// reuse it, so most values skip the binary search.
    last: usize,
}

impl Field<'_> {
    #[inline]
    fn put(&mut self, v: u64, w: &mut BitWriter) {
        let (bases, sel_bits) = (&self.dict.bases, self.dict.sel_bits);
        if sel_bits > 0 {
            let l = self.last;
            if !(bases[l] <= v && bases.get(l + 1).is_none_or(|&b| v < b)) {
                self.last = self.dict.select(v).expect("a base covers every value");
            }
        }
        let (sel, off) = (self.last as u64, v - bases[self.last]);
        if self.bits <= 64 {
            w.write_bits(sel | off << sel_bits, self.bits);
        } else {
            w.write_bits(sel, sel_bits);
            w.write_bits(off, self.dict.width);
        }
    }
}

/// An immutable, dictionary-compressed tuple page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    n_rows: usize,
    n_cols: usize,
    dicts: Vec<ColumnDict>,
    /// Bit offset of each column within a row.
    col_offsets: Vec<usize>,
    row_bits: usize,
    payload: Vec<u8>,
}

impl Page {
    /// Encodes rows (each of identical arity) into a page.
    pub fn encode<R: AsRef<[u64]>>(rows: &[R]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.as_ref().len());
        assert!(
            rows.iter().all(|r| r.as_ref().len() == n_cols),
            "ragged rows"
        );
        let stats = column_stats(rows);
        let dicts = (stats.iter().enumerate())
            .map(|(c, s)| choose_dict(rows, c, s))
            .collect();
        let mut page = Self::with_dicts(n_rows, dicts);
        let mut w = BitWriter::with_capacity(n_rows * page.row_bits);
        // Constant columns take no bits: the loop never visits them.
        let mut fields: Vec<Field> = (page.dicts.iter().enumerate())
            .filter(|(_, d)| d.bits_per_value() > 0)
            .map(|(col, dict)| Field {
                col,
                dict,
                bits: dict.bits_per_value(),
                last: 0,
            })
            .collect();
        for row in rows {
            let row = row.as_ref();
            for f in &mut fields {
                f.put(row[f.col], &mut w);
            }
        }
        page.payload = w.into_bytes();
        page
    }

    /// A page with no payload yet over `dicts`.
    fn with_dicts(n_rows: usize, dicts: Vec<ColumnDict>) -> Self {
        let mut col_offsets = Vec::with_capacity(dicts.len());
        let mut row_bits = 0;
        for d in &dicts {
            col_offsets.push(row_bits);
            row_bits += d.bits_per_value();
        }
        Self {
            n_rows,
            n_cols: dicts.len(),
            dicts,
            col_offsets,
            row_bits,
            payload: Vec::new(),
        }
    }

    /// Number of tuples.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Tuple arity.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Serialized size in bytes, header and payload: what
    /// [`Page::write_to`] appends.
    pub fn encoded_bytes(&self) -> usize {
        let mut header = Vec::new();
        self.write_header(&mut header);
        header.len() + self.payload.len()
    }

    /// Appends the page's serialized form to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        self.write_header(out);
        out.extend_from_slice(&self.payload);
    }

    fn write_header(&self, out: &mut Vec<u8>) {
        put_varint(self.n_rows as u64, out);
        put_varint(self.n_cols as u64, out);
        for d in &self.dicts {
            out.push(d.width as u8);
            put_varint(d.bases.len() as u64, out);
            let mut prev = 0;
            for &b in &d.bases {
                put_varint(b - prev, out);
                prev = b;
            }
        }
    }

    /// Parses a page from the front of `input`; returns it and the bytes
    /// it took. Checks everything decoding relies on — widths, sorted
    /// bases, a payload as long as the header says, and every selector
    /// naming a base — so a page that parses decodes without panicking.
    /// The work is bounded by `input`'s length whatever the header claims.
    pub fn read_from(input: &[u8]) -> Result<(Self, usize), PageError> {
        let bad = PageError::BadHeader;
        let mut at = 0;
        let n_rows = usize::try_from(get_varint(input, &mut at)?).map_err(|_| bad)?;
        let n_cols = get_varint(input, &mut at)?;
        // A column header takes at least three bytes.
        if n_cols > (input.len() - at) as u64 / 3 {
            return Err(bad);
        }
        let mut dicts = Vec::with_capacity(n_cols as usize);
        for _ in 0..n_cols {
            let width = usize::from(*input.get(at).ok_or(bad)?);
            at += 1;
            let n_bases = get_varint(input, &mut at)?;
            if width > 64 || n_bases == 0 || n_bases > (input.len() - at) as u64 {
                return Err(bad);
            }
            let mut bases = Vec::with_capacity(n_bases as usize);
            let mut prev = get_varint(input, &mut at)?;
            bases.push(prev);
            for _ in 1..n_bases {
                let delta = get_varint(input, &mut at)?;
                prev = prev.checked_add(delta).filter(|_| delta > 0).ok_or(bad)?;
                bases.push(prev);
            }
            dicts.push(ColumnDict::new(bases, width));
        }
        let mut page = Self::with_dicts(n_rows, dicts);
        let payload_len = n_rows.checked_mul(page.row_bits).ok_or(bad)?.div_ceil(8);
        let end = at.checked_add(payload_len).ok_or(bad)?;
        page.payload = input.get(at..end).ok_or(bad)?.to_vec();
        let r = BitReader::new(&page.payload);
        for (d, &col_at) in page.dicts.iter().zip(&page.col_offsets) {
            if d.bases.len() == 1 << d.sel_bits {
                continue; // every selector names a base
            }
            let n_bases = d.bases.len() as u64;
            let mut at = col_at;
            for _ in 0..n_rows {
                if r.read_bits(at, d.sel_bits) >= n_bases {
                    return Err(bad);
                }
                at += page.row_bits;
            }
        }
        Ok((page, end))
    }

    /// Bits per tuple after compression.
    pub fn row_bits(&self) -> usize {
        self.row_bits
    }

    /// Decodes one field.
    pub fn get(&self, row: usize, col: usize) -> Result<u64, PageError> {
        if row >= self.n_rows {
            return Err(PageError::RowOutOfRange);
        }
        if col >= self.n_cols {
            return Err(PageError::ColOutOfRange);
        }
        let d = &self.dicts[col];
        let at = row * self.row_bits + self.col_offsets[col];
        let r = BitReader::new(&self.payload);
        let sel = r.read_bits(at, d.sel_bits);
        let off = r.read_bits(at + d.sel_bits, d.width);
        Ok(d.decode(sel, off))
    }

    /// Decodes one full tuple.
    pub fn get_row(&self, row: usize) -> Result<Vec<u64>, PageError> {
        (0..self.n_cols).map(|c| self.get(row, c)).collect()
    }

    /// Decodes every tuple.
    pub fn decode_all(&self) -> Vec<Vec<u64>> {
        (0..self.n_rows)
            .map(|r| self.get_row(r).expect("in range"))
            .collect()
    }

    /// Decodes every tuple in order as a fixed-arity array — the bulk
    /// reader, with no allocation per row. Fails if the page's arity is
    /// not `N` (an empty page, whose arity no row fixed, has none to
    /// mismatch).
    pub fn rows<const N: usize>(&self) -> Result<Rows<'_, N>, PageError> {
        if self.n_cols != N && self.n_rows > 0 {
            return Err(PageError::WrongArity);
        }
        Ok(Rows {
            page: self,
            reader: BitReader::new(&self.payload),
            row: 0,
            at: 0,
        })
    }

    /// Compressed-domain equality scan (§4.9): finds rows whose `col`
    /// equals `v` by comparing the *encoded* bit pattern at a fixed
    /// stride, without decompressing tuples. Returns matching row indices.
    pub fn scan_col_eq(&self, col: usize, v: u64) -> Result<Vec<usize>, PageError> {
        if col >= self.n_cols {
            return Err(PageError::ColOutOfRange);
        }
        let d = &self.dicts[col];
        // The value has exactly one encoding (bases are sorted, offsets
        // within span); if it has none, no row can match.
        let Some((sel, off)) = d.try_encode(v) else {
            return Ok(Vec::new());
        };
        let r = BitReader::new(&self.payload);
        let field_bits = d.bits_per_value();
        let matches = |at: usize| {
            if field_bits <= 64 {
                r.read_bits(at, field_bits) == sel | off << d.sel_bits
            } else {
                // A 64-bit offset and its selector: wider than one read.
                r.read_bits(at, d.sel_bits) == sel && r.read_bits(at + d.sel_bits, d.width) == off
            }
        };
        let mut hits = Vec::new();
        let mut at = self.col_offsets[col];
        for row in 0..self.n_rows {
            if matches(at) {
                hits.push(row);
            }
            at += self.row_bits;
        }
        Ok(hits)
    }
}

/// Sequential fixed-arity decoder over a page; see [`Page::rows`].
#[derive(Debug, Clone)]
pub struct Rows<'a, const N: usize> {
    page: &'a Page,
    reader: BitReader<'a>,
    row: usize,
    /// Bit offset of the next row.
    at: usize,
}

impl<const N: usize> Iterator for Rows<'_, N> {
    type Item = [u64; N];

    #[inline]
    fn next(&mut self) -> Option<[u64; N]> {
        if self.row == self.page.n_rows {
            return None;
        }
        let mut out = [0u64; N];
        for (slot, d) in out.iter_mut().zip(&self.page.dicts) {
            let sel = self.reader.read_bits(self.at, d.sel_bits);
            let off = self.reader.read_bits(self.at + d.sel_bits, d.width);
            self.at += d.sel_bits + d.width;
            *slot = d.decode(sel, off);
        }
        self.row += 1;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.page.n_rows - self.row;
        (left, Some(left))
    }
}

/// Appends `v` as LEB128 (7 bits a byte, high bit = more).
fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 value at `*at`, advancing it; rejects truncated and
/// overlong encodings.
fn get_varint(input: &[u8], at: &mut usize) -> Result<u64, PageError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *input.get(*at).ok_or(PageError::BadHeader)?;
        *at += 1;
        let bits = u64::from(byte & 0x7f);
        if shift == 63 && bits > 1 {
            return Err(PageError::BadHeader);
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(PageError::BadHeader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The dictionary choice as first written: sort, then cover the
    /// values afresh at every width. The fast encoder must pick the same.
    fn reference_dict(values: &[u64]) -> ColumnDict {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let max_w = if sorted.len() <= 1 {
            0
        } else {
            64 - (sorted[sorted.len() - 1] - sorted[0]).leading_zeros() as usize
        };
        let mut best: Option<(usize, ColumnDict)> = None;
        for w in 0..=max_w {
            let mut bases = Vec::new();
            for &v in &sorted {
                if bases.last().is_none_or(|&b: &u64| v - b >= span(w)) {
                    bases.push(v);
                }
            }
            if bases.is_empty() {
                bases.push(0);
            }
            let dict = ColumnDict::new(bases, w);
            let cost = values.len() * dict.bits_per_value() + dict.bases.len() * BASE_COST_BITS;
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, dict));
            }
        }
        best.unwrap().1
    }

    fn serialized(page: &Page) -> Vec<u8> {
        let mut out = Vec::new();
        page.write_to(&mut out);
        out
    }

    #[test]
    fn round_trips_simple_rows() {
        let rows = vec![
            vec![1u64, 100, 7],
            vec![2, 105, 7],
            vec![3, 200, 7],
            vec![4, 201, 7],
        ];
        let page = Page::encode(&rows);
        assert_eq!(page.decode_all(), rows);
    }

    #[test]
    fn constant_column_costs_zero_bits() {
        // §4.9: "as long as their value is the same for every tuple, the
        // extra fields take up no space."
        let rows: Vec<Vec<u64>> = (0..100).map(|i| vec![i, 0xdead_beef]).collect();
        let page = Page::encode(&rows);
        let d = &page.dicts[1];
        assert_eq!(
            d.bits_per_value(),
            0,
            "constant column must cost 0 bits/row"
        );
        assert_eq!(page.get(50, 1).unwrap(), 0xdead_beef);
    }

    #[test]
    fn sequential_column_is_cheap() {
        // Dense sequence numbers: one base + small offsets.
        let rows: Vec<Vec<u64>> = (0..1000u64).map(|i| vec![1_000_000 + i]).collect();
        let page = Page::encode(&rows);
        assert!(
            page.row_bits() <= 10,
            "sequential ids should pack to ~10 bits, got {}",
            page.row_bits()
        );
        assert_eq!(page.decode_all(), rows);
    }

    #[test]
    fn clustered_values_share_bases() {
        // Two clusters far apart: 2 bases + narrow offsets beats 64-bit raw.
        let mut rows = Vec::new();
        for i in 0..500u64 {
            rows.push(vec![10_000 + i]);
            rows.push(vec![u64::MAX - 1000 + i % 500]);
        }
        let page = Page::encode(&rows);
        assert!(
            page.row_bits() < 16,
            "clustered page used {} bits/row",
            page.row_bits()
        );
        assert_eq!(page.decode_all(), rows);
    }

    #[test]
    fn empty_page() {
        let page = Page::encode::<Vec<u64>>(&[]);
        assert_eq!(page.n_rows(), 0);
        assert!(page.decode_all().is_empty());
        let bytes = serialized(&page);
        assert_eq!(bytes.len(), page.encoded_bytes());
        assert_eq!(Page::read_from(&bytes).unwrap(), (page, bytes.len()));
    }

    #[test]
    fn out_of_range_access_errors() {
        let page = Page::encode(&[vec![1, 2]]);
        assert_eq!(page.get(1, 0).unwrap_err(), PageError::RowOutOfRange);
        assert_eq!(page.get(0, 2).unwrap_err(), PageError::ColOutOfRange);
        assert_eq!(
            page.scan_col_eq(5, 0).unwrap_err(),
            PageError::ColOutOfRange
        );
        assert_eq!(page.rows::<3>().unwrap_err(), PageError::WrongArity);
    }

    #[test]
    fn scan_finds_exactly_matching_rows() {
        let rows = vec![
            vec![5u64, 1],
            vec![9, 2],
            vec![5, 3],
            vec![7, 4],
            vec![5, 5],
        ];
        let page = Page::encode(&rows);
        assert_eq!(page.scan_col_eq(0, 5).unwrap(), vec![0, 2, 4]);
        assert_eq!(page.scan_col_eq(0, 9).unwrap(), vec![1]);
        assert_eq!(page.scan_col_eq(0, 6).unwrap(), Vec::<usize>::new());
        // Value outside every base span.
        assert_eq!(page.scan_col_eq(0, u64::MAX).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn scan_matches_decode_based_scan_on_random_pages() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let n_rows = rng.gen_range(1..200);
            let n_cols = rng.gen_range(1..5);
            let rows: Vec<Vec<u64>> = (0..n_rows)
                .map(|_| {
                    (0..n_cols)
                        .map(|c| match c % 3 {
                            0 => rng.gen_range(0..50),
                            1 => 1_000_000 + rng.gen_range(0..10u64) * 4096,
                            _ => rng.gen(),
                        })
                        .collect()
                })
                .collect();
            let page = Page::encode(&rows);
            assert_eq!(page.decode_all(), rows);
            for col in 0..n_cols {
                let probe = rows[rng.gen_range(0usize..n_rows)][col];
                let expect: Vec<usize> = rows
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r[col] == probe)
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(page.scan_col_eq(col, probe).unwrap(), expect);
            }
        }
    }

    #[test]
    fn wide_random_values_still_round_trip() {
        let mut rng = StdRng::seed_from_u64(12);
        let rows: Vec<Vec<u64>> = (0..64).map(|_| vec![rng.gen(), rng.gen()]).collect();
        let page = Page::encode(&rows);
        assert_eq!(page.decode_all(), rows);
    }

    #[test]
    fn fast_dictionary_choice_matches_the_reference() {
        let mut rng = StdRng::seed_from_u64(13);
        for round in 0..700 {
            let n = rng.gen_range(1..600);
            let shape = round % 7;
            let col: Vec<u64> = (0..n as u64)
                .map(|i| match shape {
                    0 => 1_000_000 + i,                                              // sorted
                    1 => rng.gen_range(0..64),                                       // bitmap
                    2 => (i % 97) * 16_384,                                          // strided
                    3 => rng.gen(),                                                  // sort
                    4 => [0, u64::MAX][rng.gen_range(0..2usize)],                    // extremes
                    5 => (rng.gen_range(0..4u64) << 40) + rng.gen_range(0..1000u64), // clusters
                    _ => rng.gen_range(0..8u64) << rng.gen_range(0..60),             // scattered
                })
                .collect();
            let rows: Vec<[u64; 1]> = col.iter().map(|&v| [v]).collect();
            let stats = column_stats(&rows);
            assert_eq!(
                choose_dict(&rows, 0, &stats[0]),
                reference_dict(&col),
                "shape {shape}"
            );
        }
    }

    #[test]
    fn serialization_round_trips_and_reports_its_length() {
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..50 {
            let rows: Vec<[u64; 4]> = (0..rng.gen_range(0..300u64))
                .map(|i| [7, 50_000 + i, rng.gen_range(0..20u64) * 4096, rng.gen()])
                .collect();
            let page = Page::encode(&rows);
            let mut bytes = serialized(&page);
            assert_eq!(bytes.len(), page.encoded_bytes());
            let len = bytes.len();
            bytes.extend_from_slice(&[0xee; 9]);
            let (back, used) = Page::read_from(&bytes).unwrap();
            assert_eq!(used, len);
            assert_eq!(back.rows::<4>().unwrap().collect::<Vec<_>>(), rows);
            assert_eq!(back, page);
        }
    }

    #[test]
    fn read_from_rejects_what_decoding_cannot_survive() {
        let reject = |bytes: &[u8]| assert_eq!(Page::read_from(bytes), Err(PageError::BadHeader));
        // One column, three bases (selectors 0..=3 fit 2 bits), width 0,
        // one row whose selector is 3: past the last base.
        reject(&[1, 1, 0, 3, 1, 1, 1, 0b11]);
        assert!(Page::read_from(&[1, 1, 0, 3, 1, 1, 1, 0b10]).is_ok());
        // Width 65.
        reject(&[1, 1, 65, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        // n_rows * row_bits overflows.
        let mut huge = Vec::new();
        put_varint(u64::MAX / 2, &mut huge);
        huge.extend_from_slice(&[1, 64, 1, 0]);
        reject(&huge);
        // A huge row count whose payload is not there.
        let mut long = Vec::new();
        put_varint(1 << 40, &mut long);
        long.extend_from_slice(&[1, 8, 1, 0, 0xff]);
        reject(&long);
        // Bases not increasing, a base past u64::MAX, an overlong varint.
        reject(&[1, 1, 0, 2, 5, 0, 0]);
        let mut wrap = vec![1, 1, 0, 2];
        put_varint(u64::MAX, &mut wrap);
        wrap.extend_from_slice(&[1, 0]);
        reject(&wrap);
        reject(&[
            0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
        ]);
        // Every truncation of a real page.
        let page = Page::encode(&[[1u64, 2, u64::MAX], [9, 2, 0], [4, 2, 77]]);
        let bytes = serialized(&page);
        for keep in 0..bytes.len() {
            reject(&bytes[..keep]);
        }
    }

    #[test]
    fn a_full_width_offset_behind_a_selector_decodes() {
        // The encoder never picks it (width 63 and a selector costs the
        // same bits), but a page may say it: 65-bit fields, which no
        // single 64-bit read or pattern holds.
        let dict = ColumnDict::new(vec![0, 5], 64);
        let mut page = Page::with_dicts(3, vec![dict.clone(), ColumnDict::new(vec![9], 0)]);
        let mut w = BitWriter::new();
        for (sel, off) in [(1, u64::MAX - 5), (0, u64::MAX), (1, 7)] {
            w.write_bits(sel, 1);
            w.write_bits(off, 64);
        }
        page.payload = w.into_bytes();
        let bytes = serialized(&page);
        let (back, _) = Page::read_from(&bytes).unwrap();
        let rows: Vec<[u64; 2]> = back.rows::<2>().unwrap().collect();
        assert_eq!(rows, [[u64::MAX, 9], [u64::MAX, 9], [12, 9]]);
        assert_eq!(back.scan_col_eq(0, 12).unwrap(), vec![2]);
        // u64::MAX encodes as (1, MAX - 5), the last base at or below it.
        assert_eq!(back.scan_col_eq(0, u64::MAX).unwrap(), vec![0]);
    }

    #[test]
    fn random_bytes_never_panic_the_reader() {
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..20_000 {
            let bytes: Vec<u8> = (0..rng.gen_range(0..40)).map(|_| rng.gen()).collect();
            if let Ok((page, used)) = Page::read_from(&bytes) {
                assert!(used <= bytes.len());
                // A page that parsed decodes; bound the rows walked.
                for r in 0..page.n_rows().min(64) {
                    page.get_row(r).unwrap();
                }
            }
        }
    }
}
