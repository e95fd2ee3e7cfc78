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
//!    each key goes to the map as one patch — recovery writes nothing
//!    back — and the recovered controller names only the records some
//!    key took its newest fact from, so the next checkpoint drops the
//!    rest.
//! 3. **NVRAM** — write/meta intents newer than what 1+2 made durable,
//!    replayed through the normal code paths. Facts are immutable, so
//!    replaying something already durable would be harmless; the seq
//!    watermarks just avoid the wasted work (§4.3: "inserting stale or
//!    duplicate records is harmless").

use crate::bootregion::{BootRegion, Checkpoint, PatchLoc};
use crate::config::ArrayConfig;
use crate::controller::{new_map, Controller, MapKey, MapVal, Snapshot, Volume};
use crate::error::{PurityError, Result};
use crate::frontier::AuAllocator;
use crate::map_records::MapRecords;
use crate::medium::MediumTable;
use crate::read::read_extent;
use crate::records::{decode_log_record, decode_nvram_entry, MapFact, MediumFact, NvramEntry};
use crate::segment::{
    AuHeader, Extent, SegmentInfo, SegmentLayout, SegmentState, SegmentWriter, COLD, HOT,
    LOG_STRIPE_MAGIC,
};
use crate::shelf::Shelf;
use crate::stats::ArrayStats;
use crate::tier::TierState;
use crate::types::{AuId, MediumId, SegmentId, SnapshotId, VolumeId};
use parking_lot::RwLock;
use purity_dedup::engine::DedupEngine;
use purity_dedup::index::DedupIndex;
use purity_format::Page;
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
    /// Total virtual recovery duration.
    pub total_time: Nanos,
    /// Virtual time of the AU header scan alone.
    pub scan_time: Nanos,
    /// AU headers examined.
    pub aus_scanned: usize,
    /// Segments discovered by the scan (written after the checkpoint).
    pub segments_discovered: usize,
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
            last_nvram_index: None,
            intent_sizes: Vec::new(),
            tier: TierState::default(),
            stats: ArrayStats::default(),
            obs: Obs::with_config(cfg.obs, now),
            cfg,
        }
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
        let (cp, mut done) = boot.read(shelf, now)?;

        // --- 1. The controller over the checkpoint's tables. ---------
        let mut ctrl = Controller::from_checkpoint(cfg, &cp, now);
        let layout = *ctrl.writers[HOT].layout();

        // --- 2a. Load checkpoint-listed map records. ------------------
        // What the log holds stays in the log: the newest fact of each key
        // goes to the map as one patch, at the end, and nothing is
        // written back.
        let mut fold = Fold::default();
        for loc in &cp.map_patches {
            let (page, t) = ctrl.read_map_record(shelf, loc, now)?;
            done = done.max(t);
            fold.load(page, *loc, &mut report)?;
        }

        // --- 2b. Scan AU headers for post-checkpoint segments. --------
        let scan_started = now;
        let candidates: Vec<AuId> = match opts.mode {
            ScanMode::Frontier => cp.frontier.iter().map(|&p| AuId::unpack(p)).collect(),
            ScanMode::FullScan => {
                let aus = ctrl.cfg.aus_per_drive();
                (0..ctrl.cfg.n_drives)
                    .flat_map(|d| (0..aus as u32).map(move |i| AuId { drive: d, index: i }))
                    .collect()
            }
        };
        let mut scan_done = now;
        // Per-drive probe serialization: every candidate AU costs at
        // least a command round trip even when its header page was never
        // written (the device still parses and answers the read).
        const PROBE_NS: Nanos = 20_000;
        let mut drive_busy: Vec<Nanos> = vec![now; ctrl.cfg.n_drives];
        let header_bytes = ctrl.cfg.au_header_bytes();
        let mut discovered: Vec<SegmentId> = Vec::new();
        for au in &candidates {
            report.aus_scanned += 1;
            if shelf.drive(au.drive).is_failed() {
                continue;
            }
            let off = layout.au_byte_offset(au.index);
            let probe_at = drive_busy[au.drive];
            let Ok(read) = shelf.read_drive(au.drive, off, header_bytes, probe_at) else {
                drive_busy[au.drive] = probe_at + PROBE_NS;
                scan_done = scan_done.max(drive_busy[au.drive]);
                continue; // never written
            };
            drive_busy[au.drive] = read.done.max(probe_at + PROBE_NS);
            scan_done = scan_done.max(read.done);
            let Some(header) = AuHeader::decode(&read.data) else {
                continue;
            };
            if ctrl.segments.contains_key(&header.segment.0) {
                continue;
            }
            // Staleness guard: an AU freed by GC may still carry the
            // header of its *previous* owner (trims can fail on pulled
            // drives, and frontier AUs keep old headers until reused).
            // Only segments opened after the checkpoint are real
            // discoveries; a resurrection here would double-own AUs that
            // live segments have since reused.
            if header.seq_lo <= cp.watermark {
                continue;
            }
            discovered.push(header.segment);
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
        report.segments_discovered = discovered.len();
        // Post-checkpoint segment ids must not be re-issued.
        for id in discovered.iter() {
            ctrl.next_segment = ctrl.next_segment.max(id.0 + 1);
        }

        // Read the discovered segments' log stripes for newer map
        // records; each record found joins the fold.
        discovered.sort();
        for segment in discovered {
            let t = ctrl.scan_log(shelf, segment, now, &mut fold, &mut report)?;
            scan_done = scan_done.max(t);
        }
        report.scan_time = scan_done.saturating_sub(scan_started);
        done = done.max(scan_done);
        // Named from here on: each record some key's newest fact came from.
        let Fold { facts, records } = fold;
        let newest = facts.iter().map(|(&key, &(seq, _, at))| (key, seq, at));
        ctrl.map_records = MapRecords::new(&records, newest);
        ctrl.map.load(
            facts
                .into_iter()
                .map(|(key, (seq, val, _))| (key, seq, val))
                .collect(),
        );
        ctrl.seq = SeqAllocator::resume_after(cp.high_seq.max(ctrl.map.max_seq()));

        // --- 3. Replay NVRAM. ----------------------------------------
        purity_obs::profile_scope!(purity_obs::Plane::NvramReplay);
        let durable_map_seq = ctrl.map.max_seq();
        let (records, t) = shelf.nvram().scan(now)?;
        done = done.max(t);
        let mut max_seq_seen = ctrl.seq.high_water();
        let n_records = records.len();
        // A recovery seal later in the log means a previous cold start
        // already replayed (and tolerated a torn tail in) everything
        // before it; undecodable records in that prefix are not data
        // loss. Records past the last seal get no such amnesty.
        let last_seal_pos = records
            .iter()
            .enumerate()
            .rev()
            .find(|(_, r)| matches!(decode_nvram_entry(&r.payload), Some(NvramEntry::Seal(_))))
            .map(|(pos, _)| pos);
        for (pos, rec) in records.into_iter().enumerate() {
            ctrl.last_nvram_index = Some(rec.index);
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
                    if wi.seq > durable_map_seq {
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
                        "undecodable NVRAM record {}",
                        rec.index
                    )))
                }
            }
        }
        // Seal the replayed log so the *next* cold start can tell this
        // run's tolerated torn tail apart from real mid-log corruption.
        let (seal_idx, t) = shelf.nvram_append(
            crate::records::encode_recovery_seal(ctrl.last_nvram_index.unwrap_or(0)),
            done.max(now),
        )?;
        ctrl.last_nvram_index = Some(seal_idx);
        done = done.max(t);
        ctrl.seq = SeqAllocator::resume_after(max_seq_seen.max(ctrl.map.max_seq()));
        report.total_time = done.max(now).saturating_sub(now);
        Ok((ctrl, report))
    }

    /// Reads the map log record at `loc`; returns its page and when the
    /// read completed. A record that does not decode is data loss.
    pub fn read_map_record(
        &mut self,
        shelf: &mut Shelf,
        loc: &PatchLoc,
        now: Nanos,
    ) -> Result<(Page, Nanos)> {
        let layout = self.writers[HOT].layout();
        let extents = layout.log_extents(loc.log_offset, loc.len as usize);
        let (bytes, t) = self.read_hot(shelf, loc.segment, extents, now)?;
        let page = decode_log_record(&bytes).ok_or_else(|| undecodable(loc.segment))?;
        Ok((page.0, t))
    }

    /// Reads `extents` of a hot segment (log space, for recovery), one
    /// after the other into one buffer.
    fn read_hot(
        &mut self,
        shelf: &mut Shelf,
        segment: u64,
        extents: impl IntoIterator<Item = Extent>,
        now: Nanos,
    ) -> Result<(Vec<u8>, Nanos)> {
        let info = self.segments.get(&segment).ok_or_else(|| {
            PurityError::Internal(format!("log record in unknown segment {segment}"))
        })?;
        let (layout, rs) = (self.writers[HOT].layout(), self.writers[HOT].rs());
        let (mut buf, mut done) = (Vec::new(), now);
        for ext in extents {
            let stats = &mut self.stats;
            let (bytes, t) = read_extent(shelf, info, layout, rs, false, stats, &ext, now, None)?;
            done = done.max(t);
            buf.extend_from_slice(&bytes);
        }
        Ok((buf, done))
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
        for log_idx in 0..layout.n_stripes {
            // Frame probe: 16 bytes at the head of the stripe row.
            let frame_ext = Extent {
                column: 0,
                stripe: layout.n_stripes - 1 - log_idx,
                within: 0,
                len: 16,
            };
            let Ok((frame, t)) = self.read_hot(shelf, segment.0, [frame_ext], now) else {
                break;
            };
            done = done.max(t);
            if frame[..8] != LOG_STRIPE_MAGIC.to_le_bytes() {
                break;
            }
            log_stripes += 1;
            let payload_len =
                u64::from_le_bytes(frame[8..16].try_into().expect("16-byte frame")) as usize;
            let offset = (log_idx * sp) as u64;
            let extents = layout.log_extents(offset, payload_len.min(sp));
            let (payload, t) = self.read_hot(shelf, segment.0, extents, now)?;
            done = done.max(t);
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
        }
        Ok(done)
    }
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
    while let Some((page, used)) = decode_log_record(&buffer[pos..]) {
        let loc = PatchLoc {
            segment,
            log_offset: at + pos as u64,
            len: used as u64,
        };
        fold.load(page, loc, report)?;
        pos += used;
    }
    Ok(())
}

/// The map records a recovery read, in reading order, and the newest
/// fact of each key among them with the index of the record it came
/// from — older versions can never win a read, so they are not held.
#[derive(Default)]
struct Fold {
    facts: BTreeMap<MapKey, (Seq, MapVal, usize)>,
    records: Vec<PatchLoc>,
}

impl Fold {
    /// Folds the facts of the record at `loc` in. A fact replaces its
    /// key's only when its seq is higher, so on a tie the record read
    /// first keeps the key, as [`MapRecords::name`] does.
    fn load(&mut self, page: Page, loc: PatchLoc, report: &mut RecoveryReport) -> Result<()> {
        let at = self.records.len();
        let rows = page.rows::<{ MapFact::COLS }>();
        for f in (rows.map_err(|_| undecodable(loc.segment))?).map(|row| MapFact::from_row(&row)) {
            let val = MapVal {
                loc: f.loc,
                deduped: f.deduped,
            };
            let newest = (self.facts.entry((f.medium.0, f.sector))).or_insert((f.seq, val, at));
            if newest.0 < f.seq {
                *newest = (f.seq, val, at);
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
