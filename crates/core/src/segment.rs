//! Segments, segios and the segment writer (§4.2, Figure 3).
//!
//! A segment is one AU from each of `stripe_width` drives. Within it,
//! each drive is written in 1 MB-class *write units*; a horizontal stripe
//! of write units (k data + m parity) is a *segio*. User data accumulates
//! from the front of the segment, log records (serialized pyramid
//! patches) from the back; the segment seals when the two meet. Every
//! flushed stripe carries Reed-Solomon parity, so both data and log
//! records survive two drive failures.
//!
//! Data placement is addressed by a *data-space offset*: a linear byte
//! offset over the data columns of the data stripes. cblocks pack tightly
//! across write-unit and stripe boundaries (§3.1 — no alignment padding).

use crate::config::ArrayConfig;
use crate::error::{PurityError, Result};
use crate::records::{RecordReader, RecordWriter};
use crate::shelf::{Cause, ColumnWrite, Shelf};
use crate::types::{AuId, DriveId, Pba, SegmentId};
use purity_ecc::ReedSolomon;
use purity_lsm::Seq;
use purity_sim::Nanos;

/// Magic prefix of a flushed log stripe.
pub const LOG_STRIPE_MAGIC: u64 = 0x4C4F_4753_5452_4950; // "LOGSTRIP"

/// Magic prefix of an AU header page.
pub const AU_HEADER_MAGIC: u64 = 0x5345_4748_4452_0001; // "SEGHDR"

/// The payload length a log stripe's 16-byte frame counts, or `None` if
/// `frame` is not a log stripe's frame.
pub fn log_frame_len(frame: &[u8]) -> Option<usize> {
    let len = u64::from_le_bytes(frame.get(8..16)?.try_into().ok()?);
    if frame[..8] != LOG_STRIPE_MAGIC.to_le_bytes() {
        return None;
    }
    usize::try_from(len).ok()
}

/// The device classes, as indexes of the controller's per-class writers
/// and allocators. A segment's class is where its columns sit
/// ([`SegmentInfo::class`]).
pub const HOT: usize = 0;
/// The cold class: segments on the cold pool.
pub const COLD: usize = 1;

/// Pure layout math shared by the writer, the read path, recovery and GC.
#[derive(Debug, Clone, Copy)]
pub struct SegmentLayout {
    /// Data shards per stripe.
    pub k: usize,
    /// Parity shards per stripe.
    pub m: usize,
    /// Write unit bytes.
    pub wu: usize,
    /// Stripes per segment.
    pub n_stripes: usize,
    /// AU size in bytes.
    pub au_bytes: usize,
    /// Header page bytes at the front of each AU.
    pub au_header: usize,
    /// Boot-region bytes at the front of each drive.
    pub boot_region: usize,
    /// Flash page bytes of the class's drives: a log stripe's unit of
    /// interleave over its columns.
    pub page: usize,
}

/// One physical extent of a data- or log-space range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Stripe column (0..k — extents always land on data columns).
    pub column: usize,
    /// Physical stripe index within the segment.
    pub stripe: usize,
    /// Byte offset within the write unit.
    pub within: usize,
    /// Extent length.
    pub len: usize,
}

/// One column's share of a log-payload range within one log stripe: the
/// pages a range puts in one column lie contiguous in its unit, so each
/// run is one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRun {
    /// The run's bytes on flash.
    pub ext: Extent,
    /// Where its first byte goes in the range; each later flash page of
    /// the run goes `k` pages on from the one before.
    pub at: usize,
}

impl SegmentLayout {
    /// Derives the layout from a config.
    pub fn from_config(cfg: &ArrayConfig) -> Self {
        Self {
            k: cfg.rs_data,
            m: cfg.rs_parity,
            wu: cfg.write_unit_bytes,
            n_stripes: cfg.stripes_per_segment(),
            au_bytes: cfg.au_bytes,
            au_header: cfg.au_header_bytes(),
            boot_region: cfg.boot_region_bytes(),
            page: cfg.ssd_geometry.page_size,
        }
    }

    /// The cold class's layout: the same AU and write unit, every cold
    /// drive a column and one of them parity — on two drives, a mirror
    /// (an unused one when there is no cold pool). Cold drives carry no
    /// boot region.
    pub fn cold(cfg: &ArrayConfig) -> Self {
        let au_header = cfg.cold_geometry.page_size;
        Self {
            k: cfg.cold_drives.max(2) - 1,
            m: 1,
            n_stripes: (cfg.au_bytes - au_header) / cfg.write_unit_bytes,
            au_header,
            boot_region: 0,
            page: cfg.cold_geometry.page_size,
            ..Self::from_config(cfg)
        }
    }

    /// Bytes of data space per stripe.
    pub fn stripe_data_bytes(&self) -> usize {
        self.k * self.wu
    }

    /// Byte offset of an AU on its drive.
    pub fn au_byte_offset(&self, au_index: u32) -> usize {
        self.boot_region + au_index as usize * self.au_bytes
    }

    /// Drive byte offset of (stripe, within-wu) in a given AU.
    pub fn wu_byte_offset(&self, au_index: u32, stripe: usize, within: usize) -> usize {
        self.au_byte_offset(au_index) + self.au_header + stripe * self.wu + within
    }

    /// Decomposes a data-space range into physical extents.
    /// `stripe_of(i)` maps a *data stripe index* to a physical stripe
    /// (identity for data; callers pass a different mapping for log
    /// space, which grows from the back).
    fn extents_inner(
        &self,
        offset: u64,
        len: usize,
        stripe_of: impl Fn(usize) -> usize,
    ) -> Vec<Extent> {
        let mut out = Vec::new();
        let mut remaining = len;
        let mut at = offset as usize;
        while remaining > 0 {
            let logical_stripe = at / self.stripe_data_bytes();
            let r = at % self.stripe_data_bytes();
            let column = r / self.wu;
            let within = r % self.wu;
            let take = remaining.min(self.wu - within);
            out.push(Extent {
                column,
                stripe: stripe_of(logical_stripe),
                within,
                len: take,
            });
            at += take;
            remaining -= take;
        }
        out
    }

    /// Extents of a data-space range (data stripes grow from the front).
    pub fn data_extents(&self, offset: u64, len: usize) -> Vec<Extent> {
        self.extents_inner(offset, len, |s| s)
    }

    /// Payload bytes a log stripe can carry (the stripe minus its
    /// 16-byte magic+length frame).
    pub fn log_stripe_payload(&self) -> usize {
        self.stripe_data_bytes() - 16
    }

    /// The bytes of each column a log stripe programs when its frame
    /// counts `payload` bytes: the page rows (`k` pages each) that the
    /// 16-byte frame and the payload fill.
    pub fn log_unit(&self, payload: usize) -> usize {
        ((16 + payload).div_ceil(self.k * self.page) * self.page).min(self.wu)
    }

    /// The bytes of column `column`'s unit a data stripe programs when a
    /// pad completed it with `filled` bytes of data: on a data column the
    /// pages of its share of `[0, filled)`, on a parity column the page
    /// rows some data column fills (column 0's, the most).
    pub fn data_unit(&self, filled: usize, column: usize) -> usize {
        let first = if column < self.k { column * self.wu } else { 0 };
        (filled.saturating_sub(first).min(self.wu)).next_multiple_of(self.page)
    }

    /// Where byte `b` of a log stripe (its frame included) lives: flash
    /// pages are dealt round-robin over the data columns, so a record of
    /// `p` pages reads from `min(p, k)` drives at once. The frame stays
    /// at column 0, within 0. Returns (column, byte within the unit).
    pub fn log_byte(&self, b: usize) -> (usize, usize) {
        let (page, at) = (b / self.page, b % self.page);
        (page % self.k, page / self.k * self.page + at)
    }

    /// Runs of a log-*payload*-space range, one per log stripe and
    /// column it touches, in the order their first bytes come in the
    /// range. Log stripes grow from the back (log stripe 0 is the last
    /// physical stripe); each carries a 16-byte frame that payload
    /// addressing skips, and lays its bytes out by
    /// [`SegmentLayout::log_byte`].
    pub fn log_extents(&self, offset: u64, len: usize) -> Vec<LogRun> {
        let sp = self.log_stripe_payload();
        let mut out: Vec<LogRun> = Vec::new();
        // `out[first..]` are the runs of the log stripe being walked.
        let (mut first, mut done) = (0, 0);
        while done < len {
            let at = offset as usize + done;
            let b = 16 + at % sp;
            let (column, within) = self.log_byte(b);
            let stripe = self.n_stripes - 1 - at / sp;
            // A stripe's data bytes are whole pages, so a page never
            // crosses into the next stripe.
            let take = (len - done).min(self.page - b % self.page);
            if out.get(first).is_some_and(|r| r.ext.stripe != stripe) {
                first = out.len();
            }
            match out[first..].iter_mut().find(|r| r.ext.column == column) {
                Some(run) => run.ext.len = within + take - run.ext.within,
                None => out.push(LogRun {
                    ext: Extent {
                        column,
                        stripe,
                        within,
                        len: take,
                    },
                    at: done,
                }),
            }
            done += take;
        }
        out
    }

    /// Copies `bytes`, read from `run`'s extent, to their places in
    /// `range`, the buffer of the range `run` came from.
    pub fn deal_log_run(&self, run: &LogRun, bytes: &[u8], range: &mut [u8]) {
        // Only the range's first page can start mid-page.
        let (mut at, mut piece, mut rest) = (run.at, self.page - run.ext.within % self.page, bytes);
        while !rest.is_empty() {
            let n = piece.min(rest.len());
            range[at..at + n].copy_from_slice(&rest[..n]);
            (at, piece, rest) = (at + n + (self.k - 1) * self.page, self.page, &rest[n..]);
        }
    }
}

/// Segment lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentState {
    /// Accepting appends.
    Open,
    /// Fully written; immutable until GC frees it.
    Sealed,
    /// Freed by GC; its AUs are reusable.
    Free,
}

impl SegmentState {
    fn to_u64(self) -> u64 {
        match self {
            SegmentState::Open => 0,
            SegmentState::Sealed => 1,
            SegmentState::Free => 2,
        }
    }

    fn from_u64(v: u64) -> Self {
        match v {
            0 => SegmentState::Open,
            1 => SegmentState::Sealed,
            _ => SegmentState::Free,
        }
    }
}

/// The value of a column slot a narrower segment leaves empty: a cold
/// segment has one column per cold drive, fewer than a hot stripe.
const NO_COLUMN: u64 = u64::MAX;

/// A data stripe a pad completed, as a map record carries it: stripe
/// `stripe` of `segment` holds `bytes` bytes of data from its start, and
/// only their pages and parity rows are on flash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fill {
    /// The padded stripe's segment.
    pub segment: SegmentId,
    /// The stripe's physical index.
    pub stripe: u64,
    /// Data bytes from the stripe's start.
    pub bytes: u64,
}

/// In-memory descriptor of a segment (the segment table's value type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment id.
    pub id: SegmentId,
    /// Column AUs: index c < k holds data column c; k..k+m hold parity.
    pub columns: Vec<AuId>,
    /// Lifecycle state.
    pub state: SegmentState,
    /// Data bytes appended (= high-water data-space offset).
    pub data_bytes: u64,
    /// Data stripes flushed.
    pub data_stripes: u64,
    /// Log stripes flushed.
    pub log_stripes: u64,
    /// Log bytes appended.
    pub log_bytes: u64,
    /// Sequence number of the latest fact about this segment.
    pub seq: Seq,
    /// The stripes written short, by ascending stripe: `(stripe, bytes)`.
    /// A data stripe a pad completed holds `bytes` bytes of data; a log
    /// stripe's frame counts `bytes` payload bytes. A stripe not listed
    /// is whole. See [`SegmentInfo::on_flash`].
    pub fills: Vec<(u64, u64)>,
}

impl SegmentInfo {
    /// Fields of a checkpoint row ahead of its column AUs; the last
    /// counts the fills that follow them.
    pub(crate) const ROW_FIELDS: usize = 8;

    /// A segment opened on `columns`, holding nothing yet.
    pub fn open(id: SegmentId, columns: Vec<AuId>, seq_lo: Seq) -> Self {
        Self {
            id,
            columns,
            state: SegmentState::Open,
            data_bytes: 0,
            data_stripes: 0,
            log_stripes: 0,
            log_bytes: 0,
            seq: seq_lo,
            fills: Vec::new(),
        }
    }

    /// The recorded fill of stripe `stripe`, if it was written short.
    pub fn fill(&self, stripe: usize) -> Option<usize> {
        let i = self.fills.binary_search_by_key(&(stripe as u64), |f| f.0);
        i.ok().map(|i| self.fills[i].1 as usize)
    }

    /// Records that stripe `stripe` was written short (see
    /// [`SegmentInfo::fills`]).
    pub fn set_fill(&mut self, stripe: usize, bytes: usize) {
        let fill = (stripe as u64, bytes as u64);
        match self.fills.binary_search_by_key(&fill.0, |f| f.0) {
            Ok(i) => self.fills[i] = fill,
            Err(i) => self.fills.insert(i, fill),
        }
    }

    /// How many bytes of column `column`'s unit of physical stripe
    /// `stripe` are on flash, from the unit's start: the one answer the
    /// writer, the read path, scrub and rebuild share. A stripe with no
    /// recorded fill is whole. A padded data stripe is what
    /// [`SegmentLayout::data_unit`] programs, a short log stripe the rows
    /// of [`SegmentLayout::log_unit`] on every column. The rest of the
    /// unit was never programmed and reads as zeros.
    pub fn on_flash(&self, layout: &SegmentLayout, stripe: usize, column: usize) -> usize {
        let Some(filled) = self.fill(stripe) else {
            return layout.wu;
        };
        if stripe + self.log_stripes as usize >= layout.n_stripes {
            layout.log_unit(filled)
        } else {
            layout.data_unit(filled, column)
        }
    }

    /// The segment's device class: the shelf numbers its cold drives
    /// after its `n_hot` hot ones.
    pub fn class(&self, n_hot: DriveId) -> usize {
        usize::from(self.columns[0].drive >= n_hot)
    }

    /// The segment's checkpoint row: [`Self::ROW_FIELDS`] fields, then
    /// one packed AU per column, padded to `stripe_width` columns, then
    /// each fill's stripe and bytes.
    pub(crate) fn to_row(&self, stripe_width: usize) -> Vec<u64> {
        let mut row = vec![
            self.id.0,
            self.state.to_u64(),
            self.data_bytes,
            self.seq,
            self.data_stripes,
            self.log_stripes,
            self.log_bytes,
            self.fills.len() as u64,
        ];
        row.extend(self.columns.iter().map(AuId::pack));
        row.resize(Self::ROW_FIELDS + stripe_width, NO_COLUMN);
        row.extend(
            self.fills
                .iter()
                .flat_map(|&(stripe, bytes)| [stripe, bytes]),
        );
        row
    }

    /// Reads a checkpoint row [`Self::to_row`] wrote.
    pub(crate) fn from_row(r: &[u64]) -> Self {
        let (head, fills) = r.split_at(r.len().saturating_sub((r[7] as usize).saturating_mul(2)));
        Self {
            id: SegmentId(r[0]),
            state: SegmentState::from_u64(r[1]),
            data_bytes: r[2],
            seq: r[3],
            data_stripes: r[4],
            log_stripes: r[5],
            log_bytes: r[6],
            columns: (head[Self::ROW_FIELDS..].iter())
                .filter(|&&c| c != NO_COLUMN)
                .map(|&c| AuId::unpack(c))
                .collect(),
            fills: fills.chunks_exact(2).map(|f| (f[0], f[1])).collect(),
        }
    }
}

/// The AU header page (§4.3: segments are self-describing). It carries
/// no checksum: recovery trusts a header only for a segment opened after
/// the checkpoint (its `seq_lo` staleness guard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuHeader {
    /// Owning segment.
    pub segment: SegmentId,
    /// This AU's column index.
    pub column: usize,
    /// All column AUs of the segment.
    pub columns: Vec<AuId>,
    /// Lowest sequence number the segment may hold facts for.
    pub seq_lo: Seq,
}

impl AuHeader {
    /// Serializes the header into a page-sized buffer.
    pub fn encode(&self, page_size: usize) -> Vec<u8> {
        let mut w = RecordWriter::magic(Vec::with_capacity(page_size), AU_HEADER_MAGIC);
        w.uint(self.segment.0)
            .uint(self.column as u64)
            .list(&self.columns, |w, au| {
                w.uint(au.pack());
            })
            .uint(self.seq_lo);
        let mut out = w.into_bytes();
        assert!(out.len() <= page_size, "AU header exceeds a page");
        out.resize(page_size, 0);
        out
    }

    /// Parses a header page; `None` if the page is not a header.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = RecordReader::magic(bytes, AU_HEADER_MAGIC)?;
        Some(Self {
            segment: SegmentId(r.uint()?),
            column: usize::try_from(r.uint()?).ok()?,
            columns: r.list(1, |r| Some(AuId::unpack(r.uint()?)))?,
            seq_lo: r.uint()?,
        })
    }
}

/// The open segment being filled by the writer.
#[derive(Debug)]
pub struct OpenSegment {
    /// Descriptor (state = Open).
    pub info: SegmentInfo,
    /// Appended-but-unflushed tail of the data space.
    data_pending: Vec<u8>,
    /// Appended-but-unflushed tail of the log space.
    log_pending: Vec<u8>,
}

/// Outcome of an append attempt.
#[derive(Debug)]
pub enum Append {
    /// Placed at this address.
    Placed(Pba),
    /// The segment is full; seal it and open another.
    Full,
}

/// The segment writer: owns the open segment, performs striped flushes.
pub struct SegmentWriter {
    layout: SegmentLayout,
    rs: ReedSolomon,
    page_size: usize,
    open: Option<OpenSegment>,
    /// Total stripes flushed (for stats).
    pub stripes_flushed: u64,
}

impl SegmentWriter {
    /// Creates a writer.
    pub fn new(layout: SegmentLayout, page_size: usize) -> Self {
        Self {
            rs: ReedSolomon::new(layout.k, layout.m),
            layout,
            page_size,
            open: None,
            stripes_flushed: 0,
        }
    }

    /// Layout accessor.
    pub fn layout(&self) -> &SegmentLayout {
        &self.layout
    }

    /// The stripes' Reed-Solomon code.
    pub fn rs(&self) -> &ReedSolomon {
        &self.rs
    }

    /// The class's flash page size: the unit its drives read.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The open segment, if any.
    pub fn open_segment(&self) -> Option<&SegmentInfo> {
        self.open.as_ref().map(|o| &o.info)
    }

    /// Opens `info` (a fresh [`SegmentInfo::open`]), writing its AU
    /// headers. Returns the header-write completion time.
    pub fn open_segment_on(
        &mut self,
        shelf: &mut Shelf,
        info: SegmentInfo,
        now: Nanos,
    ) -> Result<Nanos> {
        assert!(self.open.is_none(), "seal the previous segment first");
        assert_eq!(info.columns.len(), self.layout.k + self.layout.m);
        // Header pages go out on the pacer like any other column write; a
        // failed drive in the stripe is tolerable (parity covers it).
        let headers: Vec<Vec<u8>> = (0..info.columns.len())
            .map(|column| {
                AuHeader {
                    segment: info.id,
                    column,
                    columns: info.columns.clone(),
                    seq_lo: info.seq,
                }
                .encode(self.page_size)
            })
            .collect();
        let batch: Vec<ColumnWrite<'_>> = info
            .columns
            .iter()
            .zip(&headers)
            .map(|(au, h)| (au.drive, self.layout.au_byte_offset(au.index), h.as_slice()))
            .collect();
        let done = shelf.write_paced(Cause::AuHeader, &batch, now).done;
        self.open = Some(OpenSegment {
            info,
            data_pending: Vec::new(),
            log_pending: Vec::new(),
        });
        Ok(done)
    }

    /// Stripes the segment needs once its data space holds `data_bytes`
    /// and `log_pending` more log bytes are flushed.
    fn stripes_in_use(
        info: &SegmentInfo,
        data_bytes: u64,
        log_pending: usize,
        layout: &SegmentLayout,
    ) -> usize {
        let sd = layout.stripe_data_bytes();
        let data = (data_bytes as usize).div_ceil(sd);
        let log = info.log_stripes as usize + log_pending.div_ceil(layout.log_stripe_payload());
        data.max(info.data_stripes as usize) + log
    }

    /// Appends a cblock to the data space. Flushes full stripes as they
    /// complete. Returns `Append::Full` if the segment cannot take it.
    pub fn append_data(
        &mut self,
        shelf: &mut Shelf,
        bytes: &[u8],
        now: Nanos,
    ) -> Result<(Append, Nanos)> {
        let layout = self.layout;
        let Some(open) = self.open.as_mut() else {
            return Ok((Append::Full, now));
        };
        // Capacity check: all stripes (incl. the partially-filled tail
        // and pending log) must fit.
        let after = Self::stripes_in_use(
            &open.info,
            open.info.data_bytes + bytes.len() as u64,
            open.log_pending.len(),
            &layout,
        );
        if after > layout.n_stripes {
            return Ok((Append::Full, now));
        }
        let (segment, offset) = (open.info.id, open.info.data_bytes);
        open.data_pending.extend_from_slice(bytes);
        open.info.data_bytes += bytes.len() as u64;
        let done = self.flush_full_data_stripes(shelf, now)?;
        Ok((
            Append::Placed(Pba {
                segment,
                offset,
                stored_len: bytes.len() as u32,
            }),
            done,
        ))
    }

    /// Appends a log record to the log space (framed with magic+length at
    /// stripe granularity on flush). Returns its log-space offset and the
    /// segment that holds it.
    pub fn append_log(
        &mut self,
        _shelf: &mut Shelf,
        record: &[u8],
        _now: Nanos,
    ) -> Result<(Option<(u64, SegmentId)>, bool)> {
        let layout = self.layout;
        let Some(open) = self.open.as_mut() else {
            return Ok((None, true));
        };
        let framed_len = record.len();
        let after = Self::stripes_in_use(
            &open.info,
            open.info.data_bytes,
            open.log_pending.len() + framed_len,
            &layout,
        );
        if after > layout.n_stripes {
            return Ok((None, true));
        }
        let offset = open.info.log_bytes + open.log_pending.len() as u64;
        open.log_pending.extend_from_slice(record);
        Ok((Some((offset, open.info.id)), false))
    }

    /// Flushes any complete data stripes from the pending buffer. A
    /// stripe a pad completed programs only what its fill puts on flash
    /// ([`SegmentWriter::write_stripe`]).
    fn flush_full_data_stripes(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<Nanos> {
        let sd = self.layout.stripe_data_bytes();
        let mut done = now;
        #[allow(clippy::while_let_loop)] // the binding is re-checked per iteration
        loop {
            let Some(open) = self.open.as_mut() else {
                break;
            };
            if open.data_pending.len() < sd {
                break;
            }
            let stripe_bytes: Vec<u8> = open.data_pending.drain(..sd).collect();
            let stripe_idx = open.info.data_stripes as usize;
            open.info.data_stripes += 1;
            let t = self.write_stripe(shelf, Cause::DataStripe, stripe_idx, &stripe_bytes, now)?;
            done = done.max(t);
        }
        Ok(done)
    }

    /// RS-encodes and writes one physical stripe of the open segment:
    /// `bytes` holds the `k` data columns' shares back to back, at least
    /// as long as the parity columns' share. Each column programs the
    /// bytes [`SegmentInfo::on_flash`] gives it — whole units for a whole
    /// stripe; for a padded data stripe the pages holding data and their
    /// parity rows; for a log stripe the page rows it fills — and a column
    /// given none programs nothing. Parity is bytewise, so each row's
    /// parity depends only on that row.
    fn write_stripe(
        &mut self,
        shelf: &mut Shelf,
        cause: Cause,
        stripe: usize,
        bytes: &[u8],
        now: Nanos,
    ) -> Result<Nanos> {
        let open = (self.open.as_ref())
            .ok_or_else(|| PurityError::Internal("stripe flush with no open segment".into()))?;
        let (layout, info) = (&self.layout, &open.info);
        let unit = info.on_flash(layout, stripe, layout.k);
        let shards: Vec<&[u8]> = (bytes.chunks(bytes.len() / layout.k))
            .map(|share| &share[..unit])
            .collect();
        let parity = self
            .rs
            .encode(&shards)
            .map_err(|e| PurityError::Internal(format!("rs encode: {}", e)))?;
        // Degraded write: the shelf skips failed drives; parity columns
        // on surviving drives keep the stripe recoverable. A column with
        // nothing on flash keeps its place in the pacer's slots.
        let batch: Vec<ColumnWrite<'_>> = (info.columns.iter().enumerate())
            .map(|(c, au)| {
                let payload: &[u8] = if c < layout.k {
                    shards[c]
                } else {
                    &parity[c - layout.k]
                };
                let len = info.on_flash(layout, stripe, c);
                let off = layout.wu_byte_offset(au.index, stripe, 0);
                (au.drive, off, &payload[..len])
            })
            .collect();
        let done = shelf.write_paced(cause, &batch, now).done;
        self.stripes_flushed += 1;
        Ok(done)
    }

    /// Flushes pending log bytes as one or more log stripes. Each
    /// programs only the page rows its frame and payload fill, on every
    /// data and parity column, and a short one records its fill; the rest
    /// of the stripe is never programmed. A short final stripe still
    /// consumes a full stripe of payload space, keeping payload offsets
    /// linear.
    pub fn flush_log(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<Nanos> {
        let (sp, page) = (self.layout.log_stripe_payload(), self.layout.page);
        let mut done = now;
        #[allow(clippy::while_let_loop)] // the binding is re-checked per iteration
        loop {
            let Some(open) = self.open.as_mut() else {
                break;
            };
            if open.log_pending.is_empty() {
                break;
            }
            // Frame: magic + length + payload, dealt a page at a time
            // over the data columns and padded to the end of its row.
            let take = open.log_pending.len().min(sp);
            let mut framed = Vec::with_capacity(16 + take);
            framed.extend_from_slice(&LOG_STRIPE_MAGIC.to_le_bytes());
            framed.extend_from_slice(&(take as u64).to_le_bytes());
            framed.extend(open.log_pending.drain(..take));
            let unit = self.layout.log_unit(take);
            let mut stripe_bytes = vec![0; self.layout.k * unit];
            for (i, chunk) in framed.chunks(page).enumerate() {
                let (column, within) = self.layout.log_byte(i * page);
                let at = column * unit + within;
                stripe_bytes[at..at + chunk.len()].copy_from_slice(chunk);
            }
            let log_idx = open.info.log_stripes as usize;
            open.info.log_stripes += 1;
            open.info.log_bytes += sp as u64;
            let stripe = self.layout.n_stripes - 1 - log_idx;
            if unit < self.layout.wu {
                open.info.set_fill(stripe, take);
            }
            let t = self.write_stripe(shelf, Cause::LogStripe, stripe, &stripe_bytes, now)?;
            done = done.max(t);
        }
        Ok(done)
    }

    /// Pads the open segment's partial data tail with zeros to the end
    /// of its stripe and records the stripe's fill. Returns the fill and
    /// the pad's length; `None` if the tail is empty or ends a stripe.
    fn pad_tail(&mut self) -> Option<(Fill, usize)> {
        let sd = self.layout.stripe_data_bytes();
        let open = self.open.as_mut()?;
        let (pending, stripes) = (open.data_pending.len(), open.info.data_stripes as usize);
        let rem = pending % sd;
        if rem == 0 {
            return None;
        }
        let stripe = stripes + pending / sd;
        open.data_pending.resize(pending + sd - rem, 0);
        open.info.set_fill(stripe, rem);
        let fill = Fill {
            segment: open.info.id,
            stripe: stripe as u64,
            bytes: rem as u64,
        };
        Some((fill, sd - rem))
    }

    /// Forces all pending data onto flash by padding the partial tail
    /// stripe with zeros. The padded bytes consume data space (offsets
    /// stay linear) but are never programmed: the stripe programs only
    /// the pages its data fills and their parity rows. Called before
    /// persisting a map patch so no durable fact ever references
    /// DRAM-only data. Returns the padded stripe's fill, which the
    /// records written until the next checkpoint carry.
    pub fn pad_flush_data(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<Option<Fill>> {
        let padded = self.pad_tail();
        if let (Some((_, pad)), Some(open)) = (padded, self.open.as_mut()) {
            open.info.data_bytes += pad as u64;
        }
        self.flush_full_data_stripes(shelf, now)?;
        Ok(padded.map(|(fill, _)| fill))
    }

    /// Seals the segment: pads and flushes the data tail and log, and
    /// returns the final descriptor (state = Sealed) with the padded
    /// stripe's fill, if the tail was padded.
    pub fn seal(
        &mut self,
        shelf: &mut Shelf,
        seq: Seq,
        now: Nanos,
    ) -> Result<Option<(SegmentInfo, Option<Fill>)>> {
        let fill = self.pad_tail().map(|(fill, _)| fill);
        self.flush_full_data_stripes(shelf, now)?;
        self.flush_log(shelf, now)?;
        let Some(mut open) = self.open.take() else {
            return Ok(None);
        };
        open.info.state = SegmentState::Sealed;
        open.info.seq = seq;
        Ok(Some((open.info, fill)))
    }

    /// The open segment's flushed-data boundary: data-space offsets below
    /// this are on flash; at or above live in the pending DRAM buffer.
    /// `None` if `segment` is not the open segment.
    pub fn flushed_boundary(&self, segment: SegmentId) -> Option<u64> {
        let open = self.open.as_ref()?;
        (open.info.id == segment)
            .then(|| open.info.data_stripes * self.layout.stripe_data_bytes() as u64)
    }

    /// Serves reads of not-yet-flushed data (the open segment's pending
    /// tail lives in controller DRAM until its stripe flushes). The range
    /// must lie entirely at or beyond the flushed boundary; callers split
    /// straddling ranges via [`SegmentWriter::flushed_boundary`].
    pub fn read_pending(&self, segment: SegmentId, offset: u64, len: usize) -> Option<Vec<u8>> {
        let open = self.open.as_ref()?;
        if open.info.id != segment {
            return None;
        }
        let flushed = open.info.data_stripes * self.layout.stripe_data_bytes() as u64;
        if offset < flushed {
            return None; // on flash already (callers split straddles)
        }
        let start = (offset - flushed) as usize;
        let end = start + len;
        (end <= open.data_pending.len()).then(|| open.data_pending[start..end].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use purity_sim::Clock;
    use std::collections::BTreeSet;

    fn layout() -> SegmentLayout {
        SegmentLayout::from_config(&ArrayConfig::test_small())
    }

    #[test]
    fn data_extents_cross_columns_and_stripes() {
        let l = layout();
        let wu = l.wu;
        // Range spanning the last bytes of column 0 into column 1.
        let ext = l.data_extents((wu - 100) as u64, 200);
        assert_eq!(ext.len(), 2);
        assert_eq!(
            ext[0],
            Extent {
                column: 0,
                stripe: 0,
                within: wu - 100,
                len: 100
            }
        );
        assert_eq!(
            ext[1],
            Extent {
                column: 1,
                stripe: 0,
                within: 0,
                len: 100
            }
        );
        // Range crossing a stripe boundary.
        let stripe_bytes = l.stripe_data_bytes();
        let ext = l.data_extents((stripe_bytes - 50) as u64, 100);
        assert_eq!(ext[0].stripe, 0);
        assert_eq!(ext[0].column, l.k - 1);
        assert_eq!(
            ext[1],
            Extent {
                column: 0,
                stripe: 1,
                within: 0,
                len: 50
            }
        );
    }

    #[test]
    fn log_extents_grow_from_the_back() {
        let l = layout();
        let runs = l.log_extents(0, 100);
        assert_eq!(runs[0].ext.stripe, l.n_stripes - 1);
        let runs = l.log_extents(l.stripe_data_bytes() as u64, 10);
        assert_eq!(runs[0].ext.stripe, l.n_stripes - 2);
    }

    #[test]
    fn au_header_round_trips() {
        let h = AuHeader {
            segment: SegmentId(42),
            column: 3,
            columns: (0..9)
                .map(|i| AuId {
                    drive: i,
                    index: i as u32 * 2,
                })
                .collect(),
            seq_lo: 777,
        };
        let page = h.encode(4096);
        assert_eq!(page.len(), 4096);
        assert_eq!(AuHeader::decode(&page), Some(h));
        assert_eq!(AuHeader::decode(&[0u8; 4096]), None);
    }

    /// `ScanMode::FullScan` decodes the first page of every AU, whatever
    /// it holds: a column count no page could back is refused before it
    /// sizes the column list.
    #[test]
    fn an_au_header_counting_u64_max_columns_decodes_to_none() {
        let mut page = AU_HEADER_MAGIC.to_le_bytes().to_vec();
        // Segment 1, column 0, then a count of u64::MAX as a varint.
        page.extend_from_slice(&[1, 0]);
        page.extend_from_slice(&[0xff; 9]);
        page.push(0x01);
        page.resize(4096, 0);
        assert_eq!(AuHeader::decode(&page), None);
    }

    #[test]
    fn segment_row_round_trips() {
        let columns: Vec<AuId> = (0..9)
            .map(|drive| AuId {
                drive,
                index: drive as u32 * 1000,
            })
            .collect();
        let info = SegmentInfo {
            state: SegmentState::Sealed,
            data_bytes: 1 << 20,
            data_stripes: 6,
            log_stripes: 1,
            log_bytes: 4096,
            ..SegmentInfo::open(SegmentId(3), columns, 88)
        };
        let row = info.to_row(9);
        assert_eq!(row.len(), SegmentInfo::ROW_FIELDS + 9);
        assert_eq!(SegmentInfo::from_row(&row), info);
        // Fills follow the columns, a stripe and its bytes each.
        let mut info = info;
        info.set_fill(6, 4096);
        info.set_fill(2, 70_001);
        assert_eq!(info.fills, [(2, 70_001), (6, 4096)]);
        let row = info.to_row(9);
        assert_eq!(row.len(), SegmentInfo::ROW_FIELDS + 9 + 4);
        assert_eq!(SegmentInfo::from_row(&row), info);
        // A narrower (cold) segment pads to the checkpoint's arity; its
        // fills follow the padding.
        let cold = SegmentInfo {
            columns: vec![AuId::unpack(11 << 32), AuId::unpack(12 << 32)],
            ..info
        };
        let row = cold.to_row(9);
        assert_eq!(row.len(), SegmentInfo::ROW_FIELDS + 9 + 4);
        assert_eq!(SegmentInfo::from_row(&row), cold);
    }

    fn mk_writer_and_shelf() -> (SegmentWriter, Shelf, ArrayConfig) {
        let cfg = ArrayConfig::test_small();
        let shelf = Shelf::new(&cfg, Clock::new());
        let writer =
            SegmentWriter::new(SegmentLayout::from_config(&cfg), cfg.ssd_geometry.page_size);
        (writer, shelf, cfg)
    }

    fn open_info(cfg: &ArrayConfig) -> SegmentInfo {
        let columns = (0..cfg.stripe_width())
            .map(|drive| AuId { drive, index: 0 })
            .collect();
        SegmentInfo::open(SegmentId(1), columns, 1)
    }

    #[test]
    fn append_flush_read_back_via_extents() {
        let (mut w, mut shelf, cfg) = mk_writer_and_shelf();
        w.open_segment_on(&mut shelf, open_info(&cfg), 0).unwrap();
        // Fill more than one full stripe so data hits the drives.
        let blob: Vec<u8> = (0..w.layout().stripe_data_bytes() + 5000)
            .map(|i| (i % 251) as u8)
            .collect();
        let (placed, _) = w.append_data(&mut shelf, &blob, 0).unwrap();
        let Append::Placed(pba) = placed else {
            panic!("should fit")
        };
        assert_eq!(pba.offset, 0);

        // Read the flushed stripe back through extent math.
        let l = *w.layout();
        let info = w.open_segment().unwrap().clone();
        for ext in l.data_extents(0, l.stripe_data_bytes()) {
            let au = info.columns[ext.column];
            let off = l.wu_byte_offset(au.index, ext.stripe, ext.within);
            let bytes = shelf.read_drive(au.drive, off, ext.len, 1).unwrap().data;
            let logical_start = ext.stripe * l.stripe_data_bytes() + ext.column * l.wu + ext.within;
            assert_eq!(bytes, blob[logical_start..logical_start + ext.len]);
        }
        // The unflushed tail is served from pending.
        let tail_off = l.stripe_data_bytes() as u64;
        let got = w.read_pending(SegmentId(1), tail_off, 5000).unwrap();
        assert_eq!(got, blob[l.stripe_data_bytes()..]);
    }

    #[test]
    fn parity_columns_reconstruct_lost_write_units() {
        let (mut w, mut shelf, cfg) = mk_writer_and_shelf();
        w.open_segment_on(&mut shelf, open_info(&cfg), 0).unwrap();
        let l = *w.layout();
        let blob: Vec<u8> = (0..l.stripe_data_bytes()).map(|i| (i / 7) as u8).collect();
        w.append_data(&mut shelf, &blob, 0).unwrap();
        let info = w.open_segment().unwrap().clone();

        // Read all columns of stripe 0, drop column 2, reconstruct.
        let rs = ReedSolomon::new(l.k, l.m);
        let mut available = Vec::new();
        for (c, au) in info.columns.iter().enumerate() {
            if c == 2 {
                continue;
            }
            let off = l.wu_byte_offset(au.index, 0, 0);
            let bytes = shelf.read_drive(au.drive, off, l.wu, 1).unwrap().data;
            available.push((c, bytes));
        }
        let refs: Vec<(usize, &[u8])> = available.iter().map(|(c, b)| (*c, b.as_slice())).collect();
        let rebuilt = rs.reconstruct_one(2, &refs).unwrap();
        assert_eq!(rebuilt, blob[2 * l.wu..3 * l.wu]);
    }

    #[test]
    fn segment_fills_and_reports_full() {
        let (mut w, mut shelf, cfg) = mk_writer_and_shelf();
        w.open_segment_on(&mut shelf, open_info(&cfg), 0).unwrap();
        let capacity = w.layout().n_stripes * w.layout().stripe_data_bytes();
        let chunk = vec![7u8; 16 * 1024];
        let mut placed_bytes = 0;
        loop {
            let (a, _) = w.append_data(&mut shelf, &chunk, 0).unwrap();
            match a {
                Append::Placed(_) => placed_bytes += chunk.len(),
                Append::Full => break,
            }
        }
        assert!(placed_bytes <= capacity);
        assert!(placed_bytes >= capacity - 2 * chunk.len());
        let (info, _) = w.seal(&mut shelf, 99, 0).unwrap().unwrap();
        assert_eq!(info.state, SegmentState::Sealed);
        assert!(w.open_segment().is_none());
    }

    /// Reads a log-payload range back through its runs, each dealt into
    /// place.
    fn read_log_range(
        shelf: &mut Shelf,
        info: &SegmentInfo,
        l: &SegmentLayout,
        offset: u64,
        len: usize,
    ) -> Vec<u8> {
        let mut buf = vec![0; len];
        for run in l.log_extents(offset, len) {
            let (e, au) = (run.ext, info.columns[run.ext.column]);
            let off = l.wu_byte_offset(au.index, e.stripe, e.within);
            let bytes = shelf.read_drive(au.drive, off, e.len, 1).unwrap().data;
            l.deal_log_run(&run, &bytes, &mut buf);
        }
        buf
    }

    #[test]
    fn log_records_round_trip_through_log_stripes() {
        let (mut w, mut shelf, cfg) = mk_writer_and_shelf();
        w.open_segment_on(&mut shelf, open_info(&cfg), 0).unwrap();
        let rec1 = b"patch-one".to_vec();
        let rec2 = vec![0xCD; 3000];
        let (r1, _) = w.append_log(&mut shelf, &rec1, 0).unwrap();
        let (r2, _) = w.append_log(&mut shelf, &rec2, 0).unwrap();
        let (off1, _) = r1.unwrap();
        let (off2, _) = r2.unwrap();
        assert_eq!(off1, 0);
        assert_eq!(off2, rec1.len() as u64);
        w.flush_log(&mut shelf, 0).unwrap();
        let info = w.open_segment().unwrap().clone();
        assert_eq!(info.log_stripes, 1);

        // Read the payload back through log-space runs.
        let l = *w.layout();
        let buf = read_log_range(&mut shelf, &info, &l, 0, rec1.len() + rec2.len());
        assert_eq!(&buf[..rec1.len()], rec1.as_slice());
        assert_eq!(&buf[rec1.len()..], rec2.as_slice());

        // The raw stripe carries the magic + payload-length frame.
        let au = info.columns[0];
        let off = l.wu_byte_offset(au.index, l.n_stripes - 1, 0);
        let frame = shelf.read_drive(au.drive, off, 16, 1).unwrap().data;
        assert_eq!(frame[..8], LOG_STRIPE_MAGIC.to_le_bytes());
        let len = u64::from_le_bytes(frame[8..16].try_into().unwrap()) as usize;
        assert_eq!(len, rec1.len() + rec2.len());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Any record `flush_log` writes, at any offset and length, reads
        /// back byte for byte through `log_extents`; and a record over
        /// `p <= k` flash pages of the log stripes reads from `p` columns.
        #[test]
        fn log_records_read_back_through_interleaved_extents(
            records in proptest::collection::vec((1usize..40_000, proptest::prelude::any::<bool>()), 1..12),
        ) {
            let (mut w, mut shelf, cfg) = mk_writer_and_shelf();
            w.open_segment_on(&mut shelf, open_info(&cfg), 0).unwrap();
            let mut placed = Vec::new();
            for (i, &(len, flush)) in records.iter().enumerate() {
                let bytes: Vec<u8> = (0..len).map(|j| ((i * 131 + j * 7) % 251) as u8).collect();
                let Some((offset, _)) = w.append_log(&mut shelf, &bytes, 0).unwrap().0 else {
                    break;
                };
                placed.push((offset as usize, bytes));
                if flush {
                    w.flush_log(&mut shelf, 0).unwrap();
                }
            }
            w.flush_log(&mut shelf, 0).unwrap();
            let (l, info) = (*w.layout(), w.open_segment().unwrap().clone());
            let (sp, stripe_pages) = (l.log_stripe_payload(), l.stripe_data_bytes() / l.page);
            for (offset, bytes) in &placed {
                let back = read_log_range(&mut shelf, &info, &l, *offset as u64, bytes.len());
                proptest::prop_assert!(&back == bytes, "record at {offset}");
                // Flash pages the record covers, counted in payload space:
                // each log stripe's 16-byte frame comes first.
                let page_of = |at: usize| (at / sp) * stripe_pages + (16 + at % sp) / l.page;
                let pages = page_of(offset + bytes.len() - 1) - page_of(*offset) + 1;
                let runs = l.log_extents(*offset as u64, bytes.len());
                let columns: BTreeSet<usize> = runs.iter().map(|r| r.ext.column).collect();
                proptest::prop_assert_eq!(columns.len(), pages.min(l.k), "record at {}", offset);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A flush of `n` payload bytes programs the page rows its frame
        /// and payload fill, `(k + m) * ceil((16 + n) / (k * page))`
        /// pages a stripe, and nothing else; the records read back whole
        /// through `log_extents` with any one column, and any two, out.
        #[test]
        fn a_log_flush_programs_only_the_rows_it_fills(
            n in 1usize..60_000,
            more in 1usize..260_000,
            second in proptest::prelude::any::<bool>(),
            one in 0usize..9,
            apart in 1usize..9,
        ) {
            use proptest::prelude::*;
            // A second record of `more` bytes, if any, and the second of
            // the two failed columns.
            let (more, two) = (second.then_some(more), (one, (one + apart) % 9));
            let (mut w, mut shelf, cfg) = mk_writer_and_shelf();
            w.open_segment_on(&mut shelf, open_info(&cfg), 0).unwrap();
            let l = *w.layout();
            let programs = |shelf: &Shelf| -> u64 {
                (0..cfg.n_drives).map(|d| shelf.drive(d).flash_counters().programs).sum()
            };
            let before = programs(&shelf);
            let records: Vec<Vec<u8>> = std::iter::once(n)
                .chain(more)
                .enumerate()
                .map(|(i, len)| (0..len).map(|j| ((i * 97 + j * 13) % 251) as u8).collect())
                .collect();
            let mut placed = Vec::new();
            for bytes in &records {
                let (at, _) = w.append_log(&mut shelf, bytes, 0).unwrap().0.unwrap();
                placed.push(at);
            }
            w.flush_log(&mut shelf, 0).unwrap();
            let (sp, row) = (l.log_stripe_payload(), l.k * l.page);
            let total: usize = records.iter().map(Vec::len).sum();
            let rows: usize = (0..total.div_ceil(sp))
                .map(|s| (16 + (total - s * sp).min(sp)).div_ceil(row))
                .sum();
            prop_assert_eq!(programs(&shelf) - before, ((l.k + l.m) * rows) as u64);

            let info = w.open_segment().unwrap().clone();
            let rs = ReedSolomon::new(l.k, l.m);
            for out in [vec![one], vec![two.0, two.1]] {
                for &c in &out {
                    shelf.drive_mut(info.columns[c].drive).fail();
                }
                for (bytes, &at) in records.iter().zip(&placed) {
                    let mut back = vec![0; bytes.len()];
                    for run in l.log_extents(at, bytes.len()) {
                        let mut stats = crate::stats::ArrayStats::default();
                        let (got, _) = crate::read::read_extent(
                            &mut shelf, &info, &l, &rs, false, &mut stats, &run.ext, 0, None,
                        )
                        .unwrap();
                        l.deal_log_run(&run, &got, &mut back);
                    }
                    prop_assert!(&back == bytes, "record at {} with {:?} out", at, out);
                }
                for &c in &out {
                    shelf.drive_mut(info.columns[c].drive).revive();
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// A pad that completes a data stripe holding `n` bytes, in either
        /// class, programs on data column `c` the pages of its share of
        /// `[0, n)` and on each parity column the page rows column 0
        /// fills, and nothing else. The tail reads back byte for byte
        /// directly, and rebuilt with one column out and (hot, `m = 2`)
        /// with two; a rebuild reads no padding, and counts as extra only
        /// the device reads it made.
        #[test]
        fn a_data_pad_programs_only_the_pages_it_fills(
            n in 1usize..1 << 30,
            cold in proptest::prelude::any::<bool>(),
            whole in proptest::prelude::any::<bool>(),
            seal in proptest::prelude::any::<bool>(),
            one in 0usize..9,
            apart in 1usize..9,
        ) {
            use proptest::prelude::*;
            use crate::read::read_extent;
            let cfg = ArrayConfig::tiered();
            let mut shelf = Shelf::new(&cfg, Clock::new());
            let (l, page, drives) = if cold {
                let drives: Vec<DriveId> = (cfg.n_drives..cfg.n_drives + 2).collect();
                (SegmentLayout::cold(&cfg), cfg.cold_geometry.page_size, drives)
            } else {
                let drives = (0..cfg.stripe_width()).collect();
                (SegmentLayout::from_config(&cfg), cfg.ssd_geometry.page_size, drives)
            };
            let (k, width, sd) = (l.k, l.k + l.m, l.stripe_data_bytes());
            let n = 1 + n % (sd - 1);
            let mut w = SegmentWriter::new(l, page);
            let columns = drives.iter().map(|&drive| AuId { drive, index: 0 }).collect();
            w.open_segment_on(&mut shelf, SegmentInfo::open(SegmentId(1), columns, 1), 0).unwrap();
            let programs = |shelf: &Shelf| -> u64 {
                drives.iter().map(|&d| shelf.drive(d).flash_counters().programs).sum()
            };
            let pages = |bytes: usize| bytes.div_ceil(page) as u64;
            // A whole stripe first, maybe: the pad's stripe is then 1.
            let start = if whole { sd } else { 0 };
            let blob: Vec<u8> = (0..start + n).map(|i| (i * 7 % 251) as u8 | 1).collect();
            w.append_data(&mut shelf, &blob, 0).unwrap();
            let before = programs(&shelf);
            let (fill, info) = if seal {
                let (info, fill) = w.seal(&mut shelf, 9, 0).unwrap().unwrap();
                (fill, info)
            } else {
                let fill = w.pad_flush_data(&mut shelf, 0).unwrap();
                (fill, w.open_segment().unwrap().clone())
            };
            let stripe = usize::from(whole);
            prop_assert_eq!(fill, Some(Fill { segment: SegmentId(1), stripe: stripe as u64, bytes: n as u64 }));
            let data_pages: u64 = (0..k).map(|c| pages(n.saturating_sub(c * l.wu).min(l.wu))).sum();
            let parity_pages = l.m as u64 * pages(n.min(l.wu));
            prop_assert_eq!(programs(&shelf) - before, data_pages + parity_pages);
            for c in 0..width {
                let share = if c < k { n.saturating_sub(c * l.wu).min(l.wu) } else { n.min(l.wu) };
                prop_assert_eq!(info.on_flash(&l, stripe, c) as u64, pages(share) * page as u64);
            }

            let rs = ReedSolomon::new(k, l.m);
            let two = (one % width, (one + apart) % width);
            let outs = if l.m == 2 { vec![vec![], vec![two.0], vec![two.0, two.1]] } else { vec![vec![], vec![two.0]] };
            for out in outs {
                for &c in &out {
                    shelf.drive_mut(info.columns[c].drive).fail();
                }
                for ext in l.data_extents(start as u64, n) {
                    let mut stats = crate::stats::ArrayStats::default();
                    let (got, _) = read_extent(
                        &mut shelf, &info, &l, &rs, false, &mut stats, &ext, 0, None,
                    )
                    .unwrap();
                    let at = start + ext.column * l.wu + ext.within;
                    prop_assert!(got == blob[at..at + ext.len], "{:?} with {:?} out", ext, out);
                    if out.contains(&ext.column) {
                        // The columns past the data hold none of the range:
                        // the rebuild takes them as zeros, soonest.
                        let on_flash = |c: usize| pages(n.saturating_sub(c * l.wu).min(l.wu)) as usize * page;
                        let padding = (0..k)
                            .filter(|&c| c != ext.column && on_flash(c) <= ext.within)
                            .count() as u64;
                        prop_assert_eq!(stats.reconstructed_reads, 1);
                        prop_assert_eq!(stats.reconstruction_extra_reads, k as u64 - padding - 1);
                    }
                }
                for &c in &out {
                    shelf.drive_mut(info.columns[c].drive).revive();
                }
            }
        }
    }

    #[test]
    fn writes_mark_drives_busy_for_the_scheduler() {
        let (mut w, mut shelf, cfg) = mk_writer_and_shelf();
        w.open_segment_on(&mut shelf, open_info(&cfg), 0).unwrap();
        let blob = vec![1u8; w.layout().stripe_data_bytes()];
        let (_, done) = w.append_data(&mut shelf, &blob, 0).unwrap();
        assert!(done > 0);
        // Every data+parity column drive has a writing window somewhere in
        // [0, done) — staggered in pairs, not all at once.
        for d in 0..cfg.stripe_width() {
            let busy_sometime = (0..done).step_by(100_000).any(|t| shelf.is_writing(d, t));
            assert!(busy_sometime, "drive {} should have a writing window", d);
        }
        // Pacing: at any instant at most 2 drives are writing.
        for t in (0..done).step_by(50_000) {
            let busy = (0..cfg.n_drives)
                .filter(|&d| shelf.is_writing(d, t))
                .count();
            assert!(busy <= 2, "{} drives writing at {}", busy, t);
        }
    }

    /// One stripe flushed on an otherwise idle shelf, and the columns of
    /// its segment as the read planner sees them.
    fn one_flushed_stripe() -> (Shelf, SegmentInfo, SegmentLayout, ArrayConfig, Nanos, Nanos) {
        let (mut w, mut shelf, cfg) = mk_writer_and_shelf();
        let headers_done = w.open_segment_on(&mut shelf, open_info(&cfg), 0).unwrap();
        let blob: Vec<u8> = (0..w.layout().stripe_data_bytes())
            .map(|i| (i % 253) as u8)
            .collect();
        let (_, done) = w.append_data(&mut shelf, &blob, 0).unwrap();
        let info = w.open_segment().unwrap().clone();
        (shelf, info, *w.layout(), cfg, headers_done, done)
    }

    /// The issue-instant sweep. A read planned at one instant used to
    /// queue a whole 5.2 ms window when it was issued less than one read
    /// before a pair opened. Plan (booking nothing, so one shelf serves
    /// every instant) a one-page read of every column every 10 us, from
    /// 1 ms before the stripe's first pair to the end of its last: no
    /// read waits longer than one read service time — the hand-off,
    /// where waiting out the window that is ending is the cheapest plan.
    #[test]
    fn no_issue_instant_makes_a_read_wait_out_a_window() {
        use crate::read::{plan_rebuild, ReadPlan};
        let (shelf, info, l, cfg, first_pair, done) = one_flushed_stripe();
        let page = cfg.ssd_geometry.page_size;
        let service = crate::shelf::SSD_LATENCY.page_read(page);
        let (mut rebuilt, mut handed_off) = (0, 0);
        for now in (first_pair - 1_000_000..done).step_by(10_000) {
            for column in 0..info.columns.len() {
                let ext = Extent {
                    column,
                    stripe: 0,
                    within: 0,
                    len: page,
                };
                let au = info.columns[column];
                let completes = match plan_rebuild(&shelf, &info, &l, true, &ext, now) {
                    ReadPlan::Rebuild(sources) => {
                        rebuilt += 1;
                        sources[l.k - 1].0
                    }
                    ReadPlan::Direct(c) => {
                        assert_eq!(c, column, "a 7+2 stripe has no copy to choose");
                        let off = l.wu_byte_offset(au.index, 0, 0);
                        shelf.read_eta(au.drive, off, page, now).unwrap().end
                    }
                };
                let waited = completes - now - service;
                handed_off += usize::from(waited > 0);
                assert!(
                    waited <= service,
                    "column {column} issued at {now} waits {waited} ns"
                );
            }
        }
        assert!(rebuilt > 0 && handed_off > 0, "the sweep met no window");
    }

    /// The same sweep's two hand-off plans, executed: what the planner
    /// promised is what the read gets, and a rebuild that waits charges
    /// the wait to the program it waited for, not to `reconstruct`.
    #[test]
    fn a_hand_off_read_gets_what_the_planner_promised() {
        use crate::read::{plan_rebuild, read_extent, ReadPlan};
        let (_, _, _, _, first_pair, _) = one_flushed_stripe();
        // 50 us before the second pair opens: column 0 (its window is
        // ending) reads direct; column 2 (its window is opening) rebuilds
        // and one of its sources waits out the end of column 0's window.
        for (column, want_rebuild) in [(0, false), (2, true)] {
            let (mut shelf, info, l, cfg, first_again, _) = one_flushed_stripe();
            assert_eq!(first_again, first_pair);
            let page = cfg.ssd_geometry.page_size;
            let service = crate::shelf::SSD_LATENCY.page_read(page);
            let hand_off = (first_pair..)
                .step_by(10_000)
                .find(|&t| !shelf.is_writing(0, t))
                .unwrap();
            let now = hand_off - 50_000;
            let ext = Extent {
                column,
                stripe: 0,
                within: 0,
                len: page,
            };
            let plan = plan_rebuild(&shelf, &info, &l, true, &ext, now);
            let rebuilds = matches!(plan, ReadPlan::Rebuild(_));
            assert_eq!(rebuilds, want_rebuild, "column {column}");
            let rs = ReedSolomon::new(l.k, l.m);
            let mut stats = crate::stats::ArrayStats::default();
            let mut trace = purity_obs::OpTrace::new("read", now);
            let (bytes, done) = read_extent(
                &mut shelf,
                &info,
                &l,
                &rs,
                true,
                &mut stats,
                &ext,
                now,
                Some(&mut trace),
            )
            .unwrap();
            let want: Vec<u8> = (column * l.wu..column * l.wu + page)
                .map(|i| (i % 253) as u8)
                .collect();
            assert_eq!(bytes, want);
            assert!(done - now <= 2 * service, "took {}", done - now);
            if let ReadPlan::Rebuild(sources) = plan {
                assert_eq!(done, sources[l.k - 1].0, "the estimate was the booking");
            }
            let stages = trace.stages();
            let stall: Nanos = stages
                .iter()
                .filter(|s| s.stage == "die_stall_program")
                .map(|s| s.duration())
                .sum();
            assert!(
                stall > 0 && stall <= 50_000 + 10_000,
                "program wait {stall}"
            );
            let last = if want_rebuild {
                "reconstruct"
            } else {
                "drive_read"
            };
            assert_eq!(stages.last().unwrap().stage, last);
            assert_eq!(stages.last().unwrap().duration(), service);
            assert_eq!(stats.reconstructed_reads, u64::from(want_rebuild));
        }
    }

    /// Queues `queued` one-page reads on the die under `ext`, all issued
    /// at `now`, ahead of the read the planner is then asked about.
    fn queue_reads(
        shelf: &mut Shelf,
        info: &SegmentInfo,
        l: &SegmentLayout,
        ext: &Extent,
        queued: usize,
        now: Nanos,
    ) {
        let au = info.columns[ext.column];
        let off = l.wu_byte_offset(au.index, ext.stripe, ext.within);
        for _ in 0..queued {
            shelf.read_drive(au.drive, off, ext.len, now).unwrap();
        }
    }

    /// The read-queue price, executed on a 7+2 stripe whose windows have
    /// all closed. Each source takes one read, so a rebuild is done one
    /// read after `now`, and must be done `k - 1` reads before the direct
    /// read ends: `k - 1` reads queued ahead of it buy the rebuild, one
    /// fewer does not. A rebuild gets what the planner promised, and its
    /// span says which queue it read around.
    #[test]
    fn a_read_deep_enough_in_its_die_queue_is_rebuilt() {
        use crate::read::{plan_rebuild, read_extent, ReadPlan};
        let k = layout().k;
        for (queued, want_rebuild) in [(k - 1, true), (k - 2, false)] {
            let (mut shelf, info, l, cfg, _, done) = one_flushed_stripe();
            let page = cfg.ssd_geometry.page_size;
            let service = crate::shelf::SSD_LATENCY.page_read(page);
            let now = done + purity_sim::MS;
            let column = 3;
            let ext = Extent {
                column,
                stripe: 0,
                within: 0,
                len: page,
            };
            let drive = info.columns[column].drive;
            queue_reads(&mut shelf, &info, &l, &ext, queued, now);
            assert!(!shelf.writes_overlap(drive, now, Nanos::MAX));
            let plan = plan_rebuild(&shelf, &info, &l, true, &ext, now);
            assert_eq!(
                matches!(plan, ReadPlan::Rebuild(_)),
                want_rebuild,
                "{queued} queued"
            );
            let rs = ReedSolomon::new(l.k, l.m);
            let mut stats = crate::stats::ArrayStats::default();
            let mut trace = purity_obs::OpTrace::new("read", now);
            let (bytes, got) = read_extent(
                &mut shelf,
                &info,
                &l,
                &rs,
                true,
                &mut stats,
                &ext,
                now,
                Some(&mut trace),
            )
            .unwrap();
            let want: Vec<u8> = (column * l.wu..column * l.wu + page)
                .map(|i| (i % 253) as u8)
                .collect();
            assert_eq!(bytes, want);
            let last = trace.stages().last().unwrap().clone();
            match plan {
                ReadPlan::Rebuild(sources) => {
                    assert_eq!(got, sources[l.k - 1].0, "the estimate was the booking");
                    assert_eq!(got, now + service);
                    assert_eq!(last.stage, "reconstruct");
                    let note = last.note.unwrap();
                    assert!(
                        note.starts_with(&format!(
                            "read-around: drive {drive} queued {} behind reads",
                            purity_sim::units::format_nanos(queued as Nanos * service)
                        )),
                        "{note}"
                    );
                }
                ReadPlan::Direct(c) => {
                    assert_eq!(c, column);
                    assert_eq!(got, now + (queued as Nanos + 1) * service);
                    assert_eq!(last.stage, "drive_read");
                }
            }
            assert_eq!(stats.reconstructed_reads, u64::from(want_rebuild));
        }
    }

    /// A mirror (`k == 1`) rebuilds nothing, however deep the queue: it
    /// reads whichever copy is done first, and a tie keeps the data column.
    #[test]
    fn a_mirror_reads_the_sooner_copy_behind_a_read_queue() {
        use crate::read::{plan_rebuild, ReadPlan};
        let cfg = ArrayConfig::tiered();
        let l = SegmentLayout::cold(&cfg);
        assert_eq!((l.k, l.m), (1, 1));
        let page = cfg.cold_geometry.page_size;
        let data = Extent {
            column: 0,
            stripe: 0,
            within: 0,
            len: page,
        };
        let copy = Extent { column: 1, ..data };
        for (queued_data, queued_copy, want) in [(0, 0, 0), (8, 0, 1), (8, 8, 0)] {
            let mut shelf = Shelf::new(&cfg, Clock::new());
            let mut w = SegmentWriter::new(l, page);
            let columns = (cfg.n_drives..cfg.n_drives + 2)
                .map(|drive| AuId { drive, index: 0 })
                .collect();
            w.open_segment_on(&mut shelf, SegmentInfo::open(SegmentId(1), columns, 1), 0)
                .unwrap();
            let (_, done) = w
                .append_data(&mut shelf, &vec![7u8; l.stripe_data_bytes()], 0)
                .unwrap();
            let info = w.open_segment().unwrap().clone();
            let now = done + purity_sim::MS;
            queue_reads(&mut shelf, &info, &l, &data, queued_data, now);
            queue_reads(&mut shelf, &info, &l, &copy, queued_copy, now);
            let plan = plan_rebuild(&shelf, &info, &l, true, &data, now);
            assert_eq!(
                plan,
                ReadPlan::Direct(want),
                "{queued_data} and {queued_copy} queued"
            );
        }
    }

    #[test]
    fn degraded_append_skips_failed_drives() {
        let (mut w, mut shelf, cfg) = mk_writer_and_shelf();
        shelf.drive_mut(2).fail();
        w.open_segment_on(&mut shelf, open_info(&cfg), 0).unwrap();
        let blob: Vec<u8> = (0..w.layout().stripe_data_bytes())
            .map(|i| i as u8)
            .collect();
        w.append_data(&mut shelf, &blob, 0).unwrap();
        // Column 2's write unit is reconstructable from the others.
        let l = *w.layout();
        let info = w.open_segment().unwrap().clone();
        let rs = ReedSolomon::new(l.k, l.m);
        let mut available = Vec::new();
        for (c, au) in info.columns.iter().enumerate() {
            if c == 2 {
                continue;
            }
            let off = l.wu_byte_offset(au.index, 0, 0);
            let bytes = shelf.read_drive(au.drive, off, l.wu, 1).unwrap().data;
            available.push((c, bytes));
        }
        let refs: Vec<(usize, &[u8])> = available.iter().map(|(c, b)| (*c, b.as_slice())).collect();
        assert_eq!(
            rs.reconstruct_one(2, &refs).unwrap(),
            blob[2 * l.wu..3 * l.wu]
        );
    }
}
