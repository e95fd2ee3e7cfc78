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
use crate::records::{SegmentFact, SegmentState};
use crate::shelf::{ColumnWrite, Shelf};
use crate::types::{AuId, DriveId, Pba, SegmentId};
use purity_compress::varint;
use purity_ecc::ReedSolomon;
use purity_lsm::Seq;
use purity_sim::Nanos;

/// Magic prefix of a flushed log stripe.
pub const LOG_STRIPE_MAGIC: u64 = 0x4C4F_4753_5452_4950; // "LOGSTRIP"

/// Magic prefix of an AU header page.
pub const AU_HEADER_MAGIC: u64 = 0x5345_4748_4452_0001; // "SEGHDR"

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

    /// Extents of a log-*payload*-space range. Log stripes grow from the
    /// back (log stripe 0 is the last physical stripe); each carries a
    /// 16-byte frame that payload addressing skips.
    pub fn log_extents(&self, offset: u64, len: usize) -> Vec<Extent> {
        let sp = self.log_stripe_payload();
        let mut out = Vec::new();
        let mut at = offset as usize;
        let mut remaining = len;
        while remaining > 0 {
            let log_stripe = at / sp;
            let in_stripe = 16 + at % sp;
            let column = in_stripe / self.wu;
            let within = in_stripe % self.wu;
            let take = remaining.min(sp - at % sp).min(self.wu - within);
            out.push(Extent {
                column,
                stripe: self.n_stripes - 1 - log_stripe,
                within,
                len: take,
            });
            at += take;
            remaining -= take;
        }
        out
    }
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
}

impl SegmentInfo {
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
        }
    }

    /// The segment's device class: the shelf numbers its cold drives
    /// after its `n_hot` hot ones.
    pub fn class(&self, n_hot: DriveId) -> usize {
        usize::from(self.columns[0].drive >= n_hot)
    }

    /// Converts to the persisted fact form.
    pub fn to_fact(&self) -> SegmentFact {
        SegmentFact {
            segment: self.id,
            state: self.state,
            columns: self.columns.iter().map(|a| a.pack()).collect(),
            data_bytes: self.data_bytes,
            data_stripes: self.data_stripes,
            log_stripes: self.log_stripes,
            log_bytes: self.log_bytes,
            seq: self.seq,
        }
    }

    /// Converts from the persisted fact form.
    pub fn from_fact(f: &SegmentFact) -> Self {
        Self {
            id: f.segment,
            columns: f.columns.iter().map(|&v| AuId::unpack(v)).collect(),
            state: f.state,
            data_bytes: f.data_bytes,
            data_stripes: f.data_stripes,
            log_stripes: f.log_stripes,
            log_bytes: f.log_bytes,
            seq: f.seq,
        }
    }
}

/// The AU header page (§4.3: segments are self-describing).
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
        let mut out = Vec::with_capacity(page_size);
        out.extend_from_slice(&AU_HEADER_MAGIC.to_le_bytes());
        varint::encode(self.segment.0, &mut out);
        varint::encode(self.column as u64, &mut out);
        varint::encode(self.columns.len() as u64, &mut out);
        for au in &self.columns {
            varint::encode(au.pack(), &mut out);
        }
        varint::encode(self.seq_lo, &mut out);
        assert!(out.len() <= page_size, "AU header exceeds a page");
        out.resize(page_size, 0);
        out
    }

    /// Parses a header page; `None` if the page is not a header.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 || bytes[..8] != AU_HEADER_MAGIC.to_le_bytes() {
            return None;
        }
        let mut at = 8;
        let next = |at: &mut usize| -> Option<u64> {
            let (v, n) = varint::decode(&bytes[*at..])?;
            *at += n;
            Some(v)
        };
        let segment = SegmentId(next(&mut at)?);
        let column = next(&mut at)? as usize;
        let n = next(&mut at)?;
        let mut columns = Vec::with_capacity(n as usize);
        for _ in 0..n {
            columns.push(AuId::unpack(next(&mut at)?));
        }
        let seq_lo = next(&mut at)?;
        Some(Self {
            segment,
            column,
            columns,
            seq_lo,
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
        let done = shelf.write_paced(&batch, now).done;
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
        let offset = open.info.data_bytes;
        open.data_pending.extend_from_slice(bytes);
        open.info.data_bytes += bytes.len() as u64;
        let done = self.flush_full_data_stripes(shelf, now)?;
        Ok((
            Append::Placed(Pba {
                segment: self.open.as_ref().unwrap().info.id,
                offset,
                stored_len: bytes.len() as u32,
            }),
            done,
        ))
    }

    /// Appends a log record to the log space (framed with magic+length at
    /// stripe granularity on flush). Returns its log-space offset.
    pub fn append_log(
        &mut self,
        _shelf: &mut Shelf,
        record: &[u8],
        now: Nanos,
    ) -> Result<(Option<(u64, Nanos)>, bool)> {
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
        Ok((Some((offset, now)), false))
    }

    /// Flushes any complete data stripes from the pending buffer.
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
            done = done.max(self.write_stripe(shelf, stripe_idx, &stripe_bytes, now)?);
        }
        Ok(done)
    }

    /// RS-encodes and writes one physical stripe.
    fn write_stripe(
        &mut self,
        shelf: &mut Shelf,
        stripe: usize,
        bytes: &[u8],
        now: Nanos,
    ) -> Result<Nanos> {
        let open = self.open.as_ref().expect("open segment");
        let wu = self.layout.wu;
        debug_assert_eq!(bytes.len(), self.layout.stripe_data_bytes());
        let shards: Vec<&[u8]> = bytes.chunks(wu).collect();
        let parity = self
            .rs
            .encode(&shards)
            .map_err(|e| PurityError::Internal(format!("rs encode: {}", e)))?;
        // Degraded write: the shelf skips failed drives; parity columns
        // on surviving drives keep the stripe recoverable.
        let batch: Vec<ColumnWrite<'_>> = open
            .info
            .columns
            .iter()
            .enumerate()
            .map(|(c, au)| {
                let payload: &[u8] = if c < self.layout.k {
                    shards[c]
                } else {
                    &parity[c - self.layout.k]
                };
                let off = self.layout.wu_byte_offset(au.index, stripe, 0);
                (au.drive, off, payload)
            })
            .collect();
        let done = shelf.write_paced(&batch, now).done;
        self.stripes_flushed += 1;
        Ok(done)
    }

    /// Flushes pending log bytes as one or more log stripes. A padded
    /// (short) final stripe still consumes a full stripe of payload
    /// space, keeping payload offsets linear.
    pub fn flush_log(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<Nanos> {
        let sd = self.layout.stripe_data_bytes();
        let sp = self.layout.log_stripe_payload();
        let mut done = now;
        #[allow(clippy::while_let_loop)] // the binding is re-checked per iteration
        loop {
            let Some(open) = self.open.as_mut() else {
                break;
            };
            if open.log_pending.is_empty() {
                break;
            }
            // Frame: magic + length + payload, padded to the stripe.
            let take = open.log_pending.len().min(sp);
            let payload: Vec<u8> = open.log_pending.drain(..take).collect();
            let mut stripe_bytes = Vec::with_capacity(sd);
            stripe_bytes.extend_from_slice(&LOG_STRIPE_MAGIC.to_le_bytes());
            stripe_bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            stripe_bytes.extend_from_slice(&payload);
            stripe_bytes.resize(sd, 0);
            let log_idx = open.info.log_stripes as usize;
            open.info.log_stripes += 1;
            open.info.log_bytes += sp as u64;
            let stripe = self.layout.n_stripes - 1 - log_idx;
            done = done.max(self.write_stripe(shelf, stripe, &stripe_bytes, now)?);
        }
        Ok(done)
    }

    /// Forces all pending data onto flash by padding the partial tail
    /// stripe with zeros. The padded bytes consume data space (offsets
    /// stay linear); called before persisting a map patch so no durable
    /// fact ever references DRAM-only data.
    pub fn pad_flush_data(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<Nanos> {
        let sd = self.layout.stripe_data_bytes();
        {
            let Some(open) = self.open.as_mut() else {
                return Ok(now);
            };
            if open.data_pending.is_empty() {
                return Ok(now);
            }
            let rem = open.data_pending.len() % sd;
            if rem != 0 {
                let pad = sd - rem;
                open.data_pending.resize(open.data_pending.len() + pad, 0);
                open.info.data_bytes += pad as u64;
            }
        }
        self.flush_full_data_stripes(shelf, now)
    }

    /// Seals the segment: pads and flushes the data tail and log, and
    /// returns the final descriptor (state = Sealed).
    pub fn seal(
        &mut self,
        shelf: &mut Shelf,
        seq: Seq,
        now: Nanos,
    ) -> Result<Option<(SegmentInfo, Nanos)>> {
        let sd = self.layout.stripe_data_bytes();
        let mut done = now;
        {
            let Some(open) = self.open.as_mut() else {
                return Ok(None);
            };
            if !open.data_pending.is_empty() {
                let pad = sd - open.data_pending.len() % sd;
                if pad != sd {
                    open.data_pending.resize(open.data_pending.len() + pad, 0);
                }
            }
        }
        done = done.max(self.flush_full_data_stripes(shelf, now)?);
        done = done.max(self.flush_log(shelf, now)?);
        let mut open = self.open.take().expect("checked above");
        open.info.state = SegmentState::Sealed;
        open.info.seq = seq;
        Ok(Some((open.info, done)))
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
        let ext = l.log_extents(0, 100);
        assert_eq!(ext[0].stripe, l.n_stripes - 1);
        let ext = l.log_extents(l.stripe_data_bytes() as u64, 10);
        assert_eq!(ext[0].stripe, l.n_stripes - 2);
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

        // Read the payload back through log-space extents.
        let l = *w.layout();
        let ext = l.log_extents(0, rec1.len() + rec2.len());
        let mut buf = Vec::new();
        for e in ext {
            let au = info.columns[e.column];
            let off = l.wu_byte_offset(au.index, e.stripe, e.within);
            let bytes = shelf.read_drive(au.drive, off, e.len, 1).unwrap().data;
            buf.extend_from_slice(&bytes);
        }
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
        let service = cfg.ssd_latency.page_read(page);
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
            let service = cfg.ssd_latency.page_read(page);
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
