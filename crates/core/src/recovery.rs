//! Construction, recovery and failover (§4.3, Figure 5).
//!
//! A formatted array and a recovered one are built the same way: a
//! controller over a checkpoint's tables ([`Controller::from_checkpoint`]).
//! Formatting starts from the empty checkpoint and writes it out; recovery
//! reads the newest one back and brings it forward.
//!
//! A controller is rebuilt from three durable sources, in order:
//!
//! 1. **The boot region** — the newest checkpoint: small tables whole
//!    (segments, mediums, volumes, elide sets), allocator frontier, and
//!    the locations of the map records that still held some key's
//!    newest fact when it was written.
//! 2. **Segment log records** — the records the checkpoint names, then
//!    map records flushed after it. Without a frontier set the latter
//!    can hide in *any* segment, forcing a scan of every AU header; the
//!    frontier set restricts the scan to the AUs the allocator was
//!    allowed to use — the paper's 12 s → 0.1 s startup-scan win,
//!    reproduced by [`ScanMode`]. Cold segments are never scanned: each
//!    is in the checkpoint before its first write. The newest fact of
//!    each key goes to the map as one patch, tagged with the record it
//!    came from — recovery writes nothing back — and the recovered
//!    controller names only the records those tags name, so the next
//!    checkpoint drops the rest. A log stripe a power loss tore between its columns ends its
//!    segment's log, as a torn NVRAM tail ends the NVRAM log.
//! 3. **NVRAM** — meta intents newer than the checkpoint, and write
//!    intents newer than the newest fact of the records it names,
//!    replayed through the normal code paths. Facts are immutable, so
//!    replaying something already durable is harmless (§4.3: "inserting
//!    stale or duplicate records is harmless"): a write a record flushed
//!    after the checkpoint holds is applied again, since a crash can
//!    land some of one flush's records and not others.

use crate::bootregion::{BootRegion, Checkpoint, PatchLoc};
use crate::config::ArrayConfig;
use crate::controller::{new_map, Controller, MapKey, RecordId, Snapshot, Stored, Volume};
use crate::error::{PurityError, Result};
use crate::frontier::AuAllocator;
use crate::map_records::MapRecords;
use crate::medium::MediumTable;
use crate::read::read_extent;
use crate::records::{
    decode_log_record, decode_nvram_entry, MapFact, MapLogRecord, MediumFact, NvramEntry,
};
use crate::segment::{
    log_frame_len, AuHeader, Extent, Fill, SegmentInfo, SegmentLayout, SegmentState, SegmentWriter,
    COLD, HOT,
};
use crate::shelf::Shelf;
use crate::stats::ArrayStats;
use crate::tier::TierState;
use crate::types::{AuId, MediumId, SegmentId, SnapshotId, VolumeId};
use parking_lot::RwLock;
use purity_dedup::engine::DedupEngine;
use purity_dedup::index::DedupIndex;
use purity_format::RangeTable;
use purity_lsm::{Seq, SeqAllocator};
use purity_obs::Obs;
use purity_sim::Nanos;
use purity_tier::RamCache;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Dedup hot-cache capacity (entries).
const DEDUP_HOT_CACHE: usize = 1024;

/// How the log-record scan chooses candidate AUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Scan only AUs in the persisted frontier set (production behaviour).
    Frontier,
    /// Scan every AU header in the array (the pre-frontier-set baseline
    /// the paper timed at 12 s; kept for experiment E3).
    FullScan,
}

/// Knobs for [`Controller::recover`]. The defaults are production
/// behaviour; the extra flags exist for the torture harness.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryOptions {
    /// How the log-record scan chooses candidate AUs.
    pub mode: ScanMode,
    /// Test-only sabotage: skip step 3 (NVRAM intent replay) entirely.
    /// Exists so the torture oracle can prove it *catches* a recovery
    /// that forgets acked-but-unflushed writes. Never set in production.
    pub skip_nvram_replay: bool,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        Self {
            mode: ScanMode::Frontier,
            skip_nvram_replay: false,
        }
    }
}

/// What recovery did and how long the virtual clock says it took.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Total virtual recovery duration: the latest of the stage ends.
    pub total_time: Nanos,
    /// When each of [`RecoveryReport::STAGES`] ended, from the cold
    /// start's instant: where a cold start's time goes.
    pub stage_ends: [Nanos; 5],
    /// AU headers examined.
    pub aus_scanned: usize,
    /// Segments the scan discovered (opened after the checkpoint), in
    /// id order.
    pub discovered: Vec<SegmentId>,
    /// Map patches loaded (checkpoint-listed + scanned).
    pub patches_loaded: usize,
    /// Map facts inserted from patches.
    pub facts_loaded: usize,
    /// Write intents replayed from NVRAM.
    pub write_intents_replayed: usize,
    /// Meta intents replayed from NVRAM.
    pub meta_intents_replayed: usize,
    /// Torn final NVRAM records tolerated (a power loss mid-append
    /// leaves an undecodable tail; the write was never acknowledged, so
    /// dropping it is correct — anywhere *else* in the log it is data
    /// loss).
    pub torn_tail_records: usize,
}

impl RecoveryReport {
    /// A cold start's stages, in [`RecoveryReport::stage_ends`] order.
    /// The reads start together at the cold start's instant; the seal,
    /// if the NVRAM log ends in a torn tail, is programmed when the
    /// NVRAM scan ends, and otherwise ends with it.
    pub const STAGES: [&'static str; 5] = [
        "boot record",
        "map records",
        "AU scan + log reads",
        "NVRAM scan",
        "seal",
    ];

    /// Virtual time of the AU header scan and the log reads of the
    /// segments it discovered (the third stage's end).
    pub fn scan_time(&self) -> Nanos {
        self.stage_ends[2]
    }
}

impl Controller {
    /// Builds a fresh controller over an empty shelf and lays down the
    /// first checkpoint.
    pub fn format(cfg: ArrayConfig, shelf: &mut Shelf, now: Nanos) -> Result<Self> {
        cfg.validate().map_err(PurityError::BadConfig)?;
        let empty = Checkpoint {
            next_segment: 1,
            next_medium: 1,
            next_volume: 1,
            next_snapshot: 1,
            ..Checkpoint::default()
        };
        let mut ctrl = Self::from_checkpoint(cfg, &empty, now);
        ctrl.write_checkpoint(shelf, now)?;
        Ok(ctrl)
    }

    /// The one constructor, for a formatted array and a recovered one
    /// alike: the tables `cp` holds, with an empty map and fresh volatile
    /// state — no open segments, cold caches, no heat, zeroed telemetry.
    pub(crate) fn from_checkpoint(cfg: ArrayConfig, cp: &Checkpoint, now: Nanos) -> Self {
        let layouts = [SegmentLayout::from_config(&cfg), SegmentLayout::cold(&cfg)];
        let segments: BTreeMap<u64, SegmentInfo> = (cp.segment_rows.iter())
            .map(|row| {
                let mut info = SegmentInfo::from_row(row);
                // A segment the checkpoint saw open has no writer here,
                // and its flushed stripes may reach past what the
                // checkpoint recorded: sealed, and full.
                if info.state == SegmentState::Open {
                    let l = layouts[info.class(cfg.n_drives)];
                    info.state = SegmentState::Sealed;
                    info.data_bytes = (l.n_stripes * l.stripe_data_bytes()) as u64;
                }
                (info.id.0, info)
            })
            .collect();
        let page = cfg.ssd_geometry.page_size;
        let elided = RangeTable::from_pairs(&cp.elided_mediums);
        let medium_facts: Vec<MediumFact> = cp
            .medium_rows
            .iter()
            .map(|r| MediumFact::from_row(r))
            .collect();
        let in_use: Vec<AuId> = segments.values().flat_map(|s| s.columns.clone()).collect();
        let (n, cold_aus) = (cfg.n_drives, cfg.cold_aus_per_drive());
        let elided_mediums = Arc::new(RwLock::new(elided.clone()));
        Self {
            seq: SeqAllocator::resume_after(cp.high_seq),
            map: new_map(&elided_mediums),
            next_segment: cp
                .next_segment
                .max(segments.keys().last().map_or(0, |id| id + 1)),
            segments,
            mediums: MediumTable::from_facts(&medium_facts, elided),
            volumes: (cp.volumes.iter())
                .map(|v| {
                    let (id, anchor) = (VolumeId(v.id), MediumId(v.anchor_medium));
                    (
                        v.id,
                        Volume::new(id, v.name.clone(), v.size_sectors, anchor),
                    )
                })
                .collect(),
            snapshots: (cp.snapshots.iter())
                .map(|s| {
                    let snapshot = Snapshot {
                        id: SnapshotId(s.id),
                        volume: VolumeId(s.volume),
                        medium: MediumId(s.medium),
                        name: s.name.clone(),
                    };
                    (s.id, snapshot)
                })
                .collect(),
            allocators: [
                AuAllocator::restore(
                    0..n,
                    cfg.aus_per_drive(),
                    cfg.frontier_aus_per_drive,
                    &cp.frontier,
                    &in_use,
                ),
                // The cold pool persists no frontier: its whole free set
                // is allocatable.
                AuAllocator::restore(n..n + cfg.cold_drives, cold_aus, cold_aus, &[], &in_use),
            ],
            boot: BootRegion::new(cfg.boot_region_bytes(), page, cfg.stripe_width()),
            writers: [
                SegmentWriter::new(layouts[HOT], page),
                SegmentWriter::new(layouts[COLD], cfg.cold_geometry.page_size),
            ],
            dedup: DedupEngine::new(DedupIndex::new(cfg.dedup_recent_window, DEDUP_HOT_CACHE)),
            cache: RamCache::new(cfg.cache_bytes),
            elided_mediums,
            next_medium: cp.next_medium,
            next_volume: cp.next_volume,
            next_snapshot: cp.next_snapshot,
            checkpoint_version: cp.version,
            map_records: MapRecords::default(),
            unsaved_fills: Vec::new(),
            last_nvram_index: None,
            intent_sizes: Vec::new(),
            tier: TierState::default(),
            stats: ArrayStats::default(),
            obs: Obs::with_config(cfg.obs, now),
            cfg,
        }
    }

    /// Frees what only this controller's DRAM held and a successor
    /// rebuilds from the shelf: the map, the records it names, the dedup
    /// index and the read cache. A dead controller's state is no longer
    /// read by anyone; its tables, tier state, stats and obs stay for
    /// the handover.
    pub(crate) fn release_dram(&mut self) {
        self.map = new_map(&self.elided_mediums);
        self.map_records = MapRecords::default();
        self.dedup = DedupEngine::new(DedupIndex::new(0, 0));
        self.cache = RamCache::new(0);
    }

    /// Rebuilds a controller from the shelf's durable state.
    pub fn recover(
        cfg: ArrayConfig,
        shelf: &mut Shelf,
        opts: RecoveryOptions,
        now: Nanos,
    ) -> Result<(Self, RecoveryReport)> {
        cfg.validate().map_err(PurityError::BadConfig)?;
        let mut report = RecoveryReport::default();
        let boot = BootRegion::new(
            cfg.boot_region_bytes(),
            cfg.ssd_geometry.page_size,
            cfg.stripe_width(),
        );
        let (cp, boot_done) = boot.read(shelf, now)?;

        // --- 1. The controller over the checkpoint's tables. ---------
        let mut ctrl = Controller::from_checkpoint(cfg, &cp, now);
        let layout = *ctrl.writers[HOT].layout();

        // --- 2a. Scan AU headers for post-checkpoint segments. --------
        // Booked before the map-record reads: the probes are a serial
        // chain per drive, and would otherwise queue behind one-shot
        // reads on the dies they share.
        let scan = scan_headers(&ctrl.cfg, &cp, &ctrl.segments, opts.mode, shelf, now);
        report.aus_scanned = scan.aus_scanned;
        let mut scan_done = scan.done;
        for header in scan.headers {
            report.discovered.push(header.segment);
            // Frontier AUs the segment consumed stay consumed.
            for au in &header.columns {
                ctrl.allocators[HOT].claim(*au);
            }
            // Conservative descriptor: reads only follow map facts, which
            // reference flushed data; GC rescans liveness anyway.
            ctrl.segments.insert(
                header.segment.0,
                SegmentInfo {
                    data_bytes: (layout.n_stripes * layout.stripe_data_bytes()) as u64,
                    data_stripes: layout.n_stripes as u64,
                    state: SegmentState::Sealed,
                    ..SegmentInfo::open(header.segment, header.columns, header.seq_lo)
                },
            );
        }
        report.discovered.sort();
        // Post-checkpoint segment ids must not be re-issued.
        if let Some(last) = report.discovered.last() {
            ctrl.next_segment = ctrl.next_segment.max(last.0 + 1);
        }

        // --- 2b. Load checkpoint-listed map records. ------------------
        // What the log holds stays in the log: the newest fact of each key
        // goes to the map as one patch, at the end, each fact tagged with
        // its record, and nothing is written back.
        let mut fold = Fold::default();
        let mut records_done = now;
        for loc in &cp.map_patches {
            let (record, t) = ctrl.read_map_record(shelf, loc, now)?;
            records_done = records_done.max(t);
            fold.load(record, *loc, &mut report)?;
        }
        // A write no newer than the newest fact these records hold has
        // its fact, or a newer one of its key, in them. Records flushed
        // after the checkpoint give no such bound: a GC pass compacts the
        // memtable into several records, each holding new facts, and a
        // power loss can land some of them and not the rest.
        let durable_seq = fold.facts.values().map(|f| f.0).max().unwrap_or(0);

        // --- 2c. Read the discovered segments' log stripes for newer
        // map records; each record found joins the fold after the
        // checkpoint's.
        for segment in report.discovered.clone() {
            let t = ctrl.scan_log(shelf, segment, now, &mut fold, &mut report)?;
            scan_done = scan_done.max(t);
        }
        // The controller is fresh, so the records' ids are their places in
        // reading order, which the facts carry. Named from here on: each
        // record some key's newest fact came from.
        let Fold {
            facts,
            records,
            fills,
        } = fold;
        // The fills the records carry that the checkpoint's rows lack:
        // stripes padded after it, which the facts may point into. The
        // records this controller writes carry them on until its next
        // checkpoint, as the records it loaded them from did.
        for fill in fills {
            let Some(info) = ctrl.segments.get_mut(&fill.segment.0) else {
                continue;
            };
            if info.fill(fill.stripe as usize).is_none() {
                info.set_fill(fill.stripe as usize, fill.bytes as usize);
                ctrl.unsaved_fills.push(fill);
            }
        }
        ctrl.map_records.reserve(records.len());
        ctrl.map.load(
            facts
                .into_iter()
                .map(|(key, (seq, val))| (key, seq, val))
                .collect(),
        );
        ctrl.map_records.name((0..).zip(records), &ctrl.map);
        ctrl.seq = SeqAllocator::resume_after(cp.high_seq.max(ctrl.map.max_seq()));

        // --- 3. Replay NVRAM. ----------------------------------------
        purity_obs::profile_scope!(purity_obs::Plane::NvramReplay);
        // The records stay in the device: each is decoded where it lies,
        // by its position, and replay writes nothing to NVRAM.
        let nvram_done = shelf.nvram().scan(now)?;
        let mut max_seq_seen = ctrl.seq.high_water();
        let records = shelf.nvram().records();
        let n_records = records.len();
        let torn_tail = records
            .last()
            .is_some_and(|r| decode_nvram_entry(&r.payload).is_none());
        // A recovery seal later in the log means a previous cold start
        // already replayed (and tolerated a torn tail in) everything
        // before it; undecodable records in that prefix are not data
        // loss. Records past the last seal get no such amnesty.
        let last_seal_pos = records
            .iter()
            .rposition(|r| matches!(decode_nvram_entry(&r.payload), Some(NvramEntry::Seal(_))));
        for pos in 0..n_records {
            let rec = &shelf.nvram().records()[pos];
            let index = rec.index;
            ctrl.last_nvram_index = Some(index);
            if opts.skip_nvram_replay {
                // Sabotage mode: pretend the log was read (indexes still
                // advance so trims behave) but apply nothing.
                continue;
            }
            match decode_nvram_entry(&rec.payload) {
                Some(NvramEntry::Meta(mi)) => {
                    if mi.seq > cp.watermark {
                        max_seq_seen = max_seq_seen.max(mi.seq);
                        ctrl.apply_meta(&mi);
                        report.meta_intents_replayed += 1;
                    }
                }
                Some(NvramEntry::Write(wi)) => {
                    if wi.seq > durable_seq {
                        max_seq_seen = max_seq_seen.max(wi.seq);
                        ctrl.apply_write(shelf, wi.medium, wi.start_sector, &wi.data, wi.seq, now)?;
                        report.write_intents_replayed += 1;
                    }
                }
                Some(NvramEntry::Seal(_)) => {
                    // An earlier recovery's marker; nothing to apply.
                }
                None if pos == n_records - 1 || last_seal_pos.is_some_and(|s| pos < s) => {
                    // A torn tail: power died mid-append, so the commit
                    // never completed and the client was never acked —
                    // either at the end of the log right now, or before
                    // a seal (an earlier cold start already vetted it).
                    // Dropping it is the *required* behaviour.
                    report.torn_tail_records += 1;
                }
                None => {
                    return Err(PurityError::DataLoss(format!(
                        "undecodable NVRAM record {index}"
                    )))
                }
            }
        }
        // Seal a log that ends in a torn tail, so the *next* cold start
        // can tell the tail this run tolerated apart from real mid-log
        // corruption once later records follow it. A log whose every
        // record decodes needs no seal: the next cold start vets it
        // whole. Its content, the last index, is known when the scan
        // ends, so it is programmed then, beside the reads still
        // running; it is appended only once every stage has succeeded.
        let mut seal_done = nvram_done;
        if torn_tail {
            let seal = crate::records::encode_recovery_seal(ctrl.last_nvram_index.unwrap_or(0));
            let (seal_idx, done) = shelf.nvram_append(seal, nvram_done)?;
            ctrl.last_nvram_index = Some(seal_idx);
            seal_done = done;
        }
        ctrl.seq = SeqAllocator::resume_after(max_seq_seen.max(ctrl.map.max_seq()));
        let ends = [boot_done, records_done, scan_done, nvram_done, seal_done];
        report.stage_ends = ends.map(|t| t - now);
        report.total_time = report.stage_ends.into_iter().max().unwrap_or(0);
        Ok((ctrl, report))
    }

    /// Reads the map log record at `loc`; returns it and when the read
    /// completed. A record that does not decode is data loss.
    pub fn read_map_record(
        &mut self,
        shelf: &mut Shelf,
        loc: &PatchLoc,
        now: Nanos,
    ) -> Result<(MapLogRecord, Nanos)> {
        let (bytes, t) =
            self.read_log(shelf, loc.segment, loc.log_offset, loc.len as usize, now)?;
        let record = decode_log_record(&bytes).ok_or_else(|| undecodable(loc.segment))?;
        Ok((record.0, t))
    }

    /// Reads extent `ext` of a hot segment (log space, for recovery).
    fn read_hot(
        &mut self,
        shelf: &mut Shelf,
        segment: u64,
        ext: &Extent,
        now: Nanos,
    ) -> Result<(Vec<u8>, Nanos)> {
        let info = self.segments.get(&segment).ok_or_else(|| {
            PurityError::Internal(format!("log record in unknown segment {segment}"))
        })?;
        let (layout, rs) = (self.writers[HOT].layout(), self.writers[HOT].rs());
        let stats = &mut self.stats;
        read_extent(shelf, info, layout, rs, false, stats, ext, now, None)
    }

    /// Reads `len` bytes at `offset` of a hot segment's log payload: each
    /// column of each log stripe once, whatever number of pages it
    /// holds, its bytes dealt into place.
    fn read_log(
        &mut self,
        shelf: &mut Shelf,
        segment: u64,
        offset: u64,
        len: usize,
        now: Nanos,
    ) -> Result<(Vec<u8>, Nanos)> {
        let layout = *self.writers[HOT].layout();
        let (mut buf, mut done) = (vec![0; len], now);
        for run in layout.log_extents(offset, len) {
            let (bytes, t) = self.read_hot(shelf, segment, &run.ext, now)?;
            layout.deal_log_run(&run, &bytes, &mut buf);
            done = done.max(t);
        }
        Ok((buf, done))
    }

    /// Reads the 16-byte frame at the head of log stripe `log_idx` of a
    /// hot segment: the magic and the payload length, if one was flushed.
    fn log_frame(
        &mut self,
        shelf: &mut Shelf,
        segment: u64,
        log_idx: usize,
        now: Nanos,
    ) -> Result<(Vec<u8>, Nanos)> {
        let stripe = self.writers[HOT].layout().n_stripes - 1 - log_idx;
        let ext = Extent {
            column: 0,
            stripe,
            within: 0,
            len: 16,
        };
        self.read_hot(shelf, segment, &ext, now)
    }

    /// Reads a segment discovered by the scan for the log records it
    /// holds and loads them. Returns when the reads completed.
    fn scan_log(
        &mut self,
        shelf: &mut Shelf,
        segment: SegmentId,
        now: Nanos,
        fold: &mut Fold,
        report: &mut RecoveryReport,
    ) -> Result<Nanos> {
        let layout = *self.writers[HOT].layout();
        let sp = layout.log_stripe_payload();
        let mut done = now;
        // Undrained log payload, and its offset in the log space.
        let (mut buffer, mut at) = (Vec::new(), 0);
        let mut log_stripes = 0u64;
        // The short stripes' fills, set with the log's length at the end:
        // until then the descriptor counts no log stripe.
        let mut fills = Vec::new();
        for log_idx in 0..layout.n_stripes {
            let Ok((frame, t)) = self.log_frame(shelf, segment.0, log_idx, now) else {
                break;
            };
            done = done.max(t);
            let Some(payload_len) = log_frame_len(&frame) else {
                break;
            };
            let offset = (log_idx * sp) as u64;
            let read = self.read_log(shelf, segment.0, offset, payload_len.min(sp), now);
            let (payload, t) = match read {
                Ok(read) => read,
                // A flush power tore between its columns ends the log
                // when nothing was flushed after it, as a torn NVRAM tail
                // does: no checkpoint named its records, and NVRAM replay
                // reapplies their facts. Anywhere else it is data loss.
                Err(e) => {
                    let later = log_idx + 1 < layout.n_stripes
                        && (self.log_frame(shelf, segment.0, log_idx + 1, now))
                            .is_ok_and(|(next, _)| log_frame_len(&next).is_some());
                    if later {
                        return Err(e);
                    }
                    break;
                }
            };
            log_stripes += 1;
            done = done.max(t);
            if layout.log_unit(payload_len) < layout.wu {
                fills.push((layout.n_stripes - 1 - log_idx, payload_len));
            }
            if buffer.is_empty() {
                at = offset;
            }
            buffer.extend_from_slice(&payload);
            // A short (padded) stripe terminates a record batch.
            if payload.len() < sp {
                drain_log_records(&buffer, segment.0, at, fold, report)?;
                buffer.clear();
            }
        }
        if !buffer.is_empty() {
            drain_log_records(&buffer, segment.0, at, fold, report)?;
        }
        if let Some(s) = self.segments.get_mut(&segment.0) {
            s.log_stripes = log_stripes;
            for (stripe, payload) in fills {
                s.set_fill(stripe, payload);
            }
        }
        Ok(done)
    }
}

/// What the AU-header scan found: one header of each segment opened
/// after the checkpoint, in discovery order, the AUs probed, and when
/// the last probe ended.
struct HeaderScan {
    headers: Vec<AuHeader>,
    aus_scanned: usize,
    done: Nanos,
}

/// Step 2a of a cold start: probes AU headers for segments opened after
/// `cp`, whose tables are `known`.
///
/// `FullScan` probes every AU of every hot drive. `Frontier` probes the
/// checkpoint's persisted set, each drive's AUs in its list's order, and
/// stops a drive at the first AU no post-checkpoint segment opened: one
/// unwritten, failed or unreadable, not a header, stale (`seq_lo` at or
/// below the watermark) or naming a segment `known` holds. The allocator
/// hands AUs out in that order and a segment writes its headers when it
/// opens (a failed open puts its AUs back at the front), so the AUs
/// opened since the checkpoint are a prefix of each drive's list.
fn scan_headers(
    cfg: &ArrayConfig,
    cp: &Checkpoint,
    known: &BTreeMap<u64, SegmentInfo>,
    mode: ScanMode,
    shelf: &mut Shelf,
    now: Nanos,
) -> HeaderScan {
    let layout = SegmentLayout::from_config(cfg);
    let candidates: Vec<AuId> = match mode {
        ScanMode::Frontier => cp.frontier.iter().map(|&p| AuId::unpack(p)).collect(),
        ScanMode::FullScan => {
            let aus = cfg.aus_per_drive();
            (0..cfg.n_drives)
                .flat_map(|d| (0..aus as u32).map(move |i| AuId { drive: d, index: i }))
                .collect()
        }
    };
    // Per-drive probe serialization: every candidate AU costs at least
    // a command round trip even when its header page was never written
    // (the device still parses and answers the read).
    const PROBE_NS: Nanos = 20_000;
    let mut drive_busy: Vec<Nanos> = vec![now; cfg.n_drives];
    let mut stopped = vec![false; cfg.n_drives];
    let mut scan = HeaderScan {
        headers: Vec::new(),
        aus_scanned: 0,
        done: now,
    };
    for au in &candidates {
        if stopped[au.drive] {
            continue;
        }
        scan.aus_scanned += 1;
        // Whether this AU was opened after the checkpoint; `Frontier`
        // stops its drive at the first that was not.
        let opened = 'probe: {
            if shelf.drive(au.drive).is_failed() {
                break 'probe false;
            }
            let off = layout.au_byte_offset(au.index);
            let probe_at = drive_busy[au.drive];
            let Ok(read) = shelf.read_drive(au.drive, off, cfg.au_header_bytes(), probe_at) else {
                drive_busy[au.drive] = probe_at + PROBE_NS;
                scan.done = scan.done.max(drive_busy[au.drive]);
                break 'probe false; // never written
            };
            drive_busy[au.drive] = read.done.max(probe_at + PROBE_NS);
            scan.done = scan.done.max(read.done);
            let Some(header) = AuHeader::decode(&read.data) else {
                break 'probe false;
            };
            // Staleness guard: an AU freed by GC may still carry the
            // header of its *previous* owner (trims can fail on pulled
            // drives, and frontier AUs keep old headers until reused).
            // Only segments opened after the checkpoint are real
            // discoveries; a resurrection here would double-own AUs that
            // live segments have since reused.
            if header.seq_lo <= cp.watermark || known.contains_key(&header.segment.0) {
                break 'probe false;
            }
            if !scan.headers.iter().any(|h| h.segment == header.segment) {
                scan.headers.push(header);
            }
            true
        };
        if !opened && mode == ScanMode::Frontier {
            stopped[au.drive] = true;
        }
    }
    scan
}

/// Loads every whole record at the front of `buffer` (log-space offset
/// `at` of `segment`).
fn drain_log_records(
    buffer: &[u8],
    segment: u64,
    at: u64,
    fold: &mut Fold,
    report: &mut RecoveryReport,
) -> Result<()> {
    let mut pos = 0;
    while let Some((record, used)) = decode_log_record(&buffer[pos..]) {
        let loc = PatchLoc {
            segment,
            log_offset: at + pos as u64,
            len: used as u64,
        };
        fold.load(record, loc, report)?;
        pos += used;
    }
    Ok(())
}

/// The map records a recovery read, in reading order, and the newest
/// fact of each key among them, tagged with its record's place in that
/// order — older versions can never win a read, so they are not held —
/// and the fills the records carry.
#[derive(Default)]
struct Fold {
    facts: BTreeMap<MapKey, (Seq, Stored)>,
    records: Vec<PatchLoc>,
    fills: Vec<Fill>,
}

impl Fold {
    /// Folds the facts of the record at `loc` in. A fact replaces its
    /// key's only when its seq is higher, so on a tie the record read
    /// first keeps the key, and the map loads that copy.
    fn load(
        &mut self,
        log_record: MapLogRecord,
        loc: PatchLoc,
        report: &mut RecoveryReport,
    ) -> Result<()> {
        let MapLogRecord { page, fills } = log_record;
        self.fills.extend(fills);
        let record = self.records.len() as RecordId;
        let rows = page.rows::<{ MapFact::COLS }>();
        for f in (rows.map_err(|_| undecodable(loc.segment))?).map(|row| MapFact::from_row(&row)) {
            let val = Stored {
                loc: f.loc,
                deduped: f.deduped,
                record,
            };
            let newest = (self.facts.entry((f.medium.0, f.sector))).or_insert((f.seq, val));
            if newest.0 < f.seq {
                *newest = (f.seq, val);
            }
        }
        self.records.push(loc);
        report.facts_loaded += page.n_rows();
        report.patches_loaded += 1;
        Ok(())
    }
}

/// The error for a map record in `segment` that does not decode.
fn undecodable(segment: u64) -> PurityError {
    PurityError::DataLoss(format!("undecodable map patch in segment {segment}"))
}

#[cfg(test)]
mod tests {
    use super::{RecoveryOptions, ScanMode};
    use crate::array::{FlashArray, PowerLossSpec};
    use crate::config::ArrayConfig;
    use crate::error::PurityError;
    use crate::segment::HOT;
    use crate::types::{DriveId, SegmentId};
    use purity_sim::units::MS;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// The NVRAM log's records, as a cold start would scan them.
    fn nvram_records(a: &mut FlashArray) -> usize {
        let (_, shelf) = a.controller_and_shelf();
        shelf.nvram().records().len()
    }

    /// A `gc_churn`-shaped array: `writes` random 64 KiB writes to
    /// distinct places of a volume twice their size, checkpointed, then
    /// idle for 100 ms.
    fn churned(writes: u64) -> (FlashArray, crate::types::VolumeId, Vec<u8>) {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let slots = 2 * writes;
        let vol = a.create_volume("v", slots << 16).unwrap();
        let (mut rng, mut chunk) = (StdRng::seed_from_u64(40), vec![0u8; 64 * 1024]);
        for i in 0..writes {
            rng.fill(&mut chunk[..]);
            a.write(vol, (i * 3 % slots) * chunk.len() as u64, &chunk)
                .unwrap();
        }
        a.checkpoint().unwrap();
        a.advance(100 * MS);
        (a, vol, chunk)
    }

    /// A cold start over a torn NVRAM tail seals it: the seal is
    /// programmed when the NVRAM scan ends, beside the map-record reads
    /// still running, so the slowest read stage sets the time. The next
    /// cold start finds the tail vetted and appends nothing. A recovery
    /// that fails after the scan appends no seal.
    #[test]
    fn a_cold_start_seals_when_its_nvram_scan_ends() {
        // Four map records: reading them outlasts the seal.
        let (mut a, vol, chunk) = churned(256);
        let now = a.now();
        let (_, shelf) = a.controller_and_shelf();
        shelf.nvram_append(vec![0xEE; 32], now).unwrap();
        let torn = nvram_records(&mut a);
        let r = a.fail_primary().unwrap().recovery;
        let [boot, records, scan, nvram, seal] = r.stage_ends;
        let slowest_read = boot.max(records).max(scan).max(nvram);
        assert!(nvram < seal && seal < slowest_read, "{:?}", r.stage_ends);
        assert_eq!(r.total_time, slowest_read);
        assert_eq!((r.torn_tail_records, nvram_records(&mut a)), (1, torn + 1));

        a.advance(100 * MS);
        let r = a.fail_primary().unwrap().recovery;
        assert_eq!(r.stage_ends[4], r.stage_ends[3]);
        assert_eq!((r.torn_tail_records, nvram_records(&mut a)), (1, torn + 1));

        // An undecodable record before a valid one, after the last seal,
        // is data loss: replay refuses it, and nothing is appended.
        let now = a.now();
        let (_, shelf) = a.controller_and_shelf();
        shelf.nvram_append(vec![0xEE; 32], now).unwrap();
        a.write(vol, 0, &chunk).unwrap();
        let before = nvram_records(&mut a);
        assert!(matches!(a.fail_primary(), Err(PurityError::DataLoss(_))));
        assert_eq!(nvram_records(&mut a), before);

        // The failed takeover left no controller: the dead primary's DRAM
        // is released, and every op is refused rather than served from it.
        let dead = a.controller();
        assert_eq!((dead.map.total_facts(), dead.cache.len()), (0, 0));
        let refused = [
            a.write(vol, 0, &chunk).map(drop),
            a.read(vol, 0, 4096).map(drop),
            a.create_volume("w", 1 << 20).map(drop),
            a.snapshot(vol, "s").map(drop),
            a.run_gc().map(drop),
            a.checkpoint(),
        ];
        for r in refused {
            assert!(matches!(r, Err(PurityError::Unavailable(_))), "{r:?}");
        }
        assert!(a.volume(vol).is_none());
        assert_eq!(a.verify_integrity().len(), 1);
    }

    /// A failover releases the dead primary's map, dedup index and cache
    /// before the standby reads the shelf, and hands over the rest of
    /// its volatile state: each volume's heat, the stats and the obs hub.
    #[test]
    fn a_failover_hands_over_heat_stats_and_obs() {
        let (mut a, vol, chunk) = churned(64);
        a.read(vol, 0, 4096).unwrap();
        let c = a.controller();
        let (reads, heat) = (c.tier.volume_reads(vol.0), c.volume_heat(vol.0, a.now()));
        let (written, obs) = (a.stats().logical_bytes_written, Arc::clone(a.obs()));
        let folded = obs.tracer.folded_count();
        assert_eq!((reads, heat), (1, purity_tier::Heat::Hot));
        a.fail_primary().unwrap();
        let c = a.controller();
        assert_eq!(c.tier.volume_reads(vol.0), reads);
        assert_eq!(c.volume_heat(vol.0, a.now()), heat);
        assert_eq!(a.stats().logical_bytes_written, written);
        assert!(Arc::ptr_eq(a.obs(), &obs));
        assert_eq!(obs.tracer.folded_count(), folded);
        assert_eq!(a.read(vol, 0, chunk.len()).unwrap().0.len(), chunk.len());
        assert!(a.verify_integrity().is_empty());
    }

    /// A segment open that fails puts the AUs it took back at the front
    /// of their drives' persisted lists, so the next open takes the same
    /// AUs and the AUs opened since the checkpoint stay a prefix of each
    /// list. Here the first open after a checkpoint fails with three
    /// drives pulled; the next one, with one of them back, succeeds, and
    /// that drive is pulled again before the power loss. The frontier
    /// scan must still discover what a scan of every AU header does.
    #[test]
    fn a_failed_open_keeps_the_opened_aus_a_prefix() {
        let cold_start = |mode| -> (Vec<SegmentId>, SegmentId) {
            let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
            let vol = a.create_volume("v", 16 << 20).unwrap();
            let (mut rng, mut chunk) = (StdRng::seed_from_u64(44), vec![0u8; 64 * 1024]);
            let mut at = 0;
            let mut write = |a: &mut FlashArray| {
                rng.fill(&mut chunk[..]);
                let r = a.write(vol, at, &chunk);
                at += chunk.len() as u64;
                r
            };
            write(&mut a).unwrap();
            a.checkpoint().unwrap();
            let ctrl = a.controller();
            let columns: Vec<DriveId> = (ctrl.writers[HOT].open_segment().unwrap().columns)
                .iter()
                .map(|au| au.drive)
                .collect();
            let spares: Vec<DriveId> = (0..ctrl.cfg.n_drives)
                .filter(|d| !columns.contains(d))
                .collect();
            // Eight drives left for a nine-wide segment: the open after
            // this one fills fails.
            for &d in spares.iter().chain(&columns[..1]) {
                a.fail_drive(d);
            }
            while write(&mut a).is_ok() {}
            assert!(a.controller().writers[HOT].open_segment().is_none());
            a.revive_drive(columns[0]);
            write(&mut a).unwrap();
            let opened = a.controller().writers[HOT].open_segment().unwrap().id;
            for &d in &spares {
                a.revive_drive(d);
            }
            a.fail_drive(columns[0]);
            a.advance(10 * MS);
            let recovery = RecoveryOptions {
                mode,
                ..RecoveryOptions::default()
            };
            let r = a.power_loss(PowerLossSpec { recovery }).unwrap().recovery;
            (r.discovered, opened)
        };
        let (full, opened) = cold_start(ScanMode::FullScan);
        assert_eq!(full, [opened]);
        assert_eq!(cold_start(ScanMode::Frontier).0, full);
    }

    /// A cold start over an NVRAM log whose every record decodes appends
    /// no seal: its stage ends with the scan, and the replayed writes
    /// read back.
    #[test]
    fn a_cold_start_over_a_whole_log_appends_no_seal() {
        let (mut a, vol, chunk) = churned(64);
        a.write(vol, 0, &chunk).unwrap();
        a.advance(100 * MS);
        let before = nvram_records(&mut a);
        assert!(before > 0);
        let r = a.fail_primary().unwrap().recovery;
        assert_eq!(r.stage_ends[4], r.stage_ends[3], "{:?}", r.stage_ends);
        assert_eq!(r.total_time, r.stage_ends.into_iter().max().unwrap());
        assert!(r.write_intents_replayed > 0);
        assert_eq!(nvram_records(&mut a), before);
        assert_eq!(a.read(vol, 0, chunk.len()).unwrap().0, chunk);
    }
}
