//! Recovery and failover (§4.3, Figure 5).
//!
//! A controller is rebuilt from three durable sources, in order:
//!
//! 1. **The boot region** — the newest checkpoint: small tables whole
//!    (segments, mediums, volumes, elide sets), allocator frontier, and
//!    the locations of persisted map patches.
//! 2. **Segment log records** — map patches flushed after the
//!    checkpoint. Without a frontier set these can hide in *any*
//!    segment, forcing a scan of every AU header; the frontier set
//!    restricts the scan to the AUs the allocator was allowed to use —
//!    the paper's 12 s → 0.1 s startup-scan win, reproduced by
//!    [`ScanMode`].
//! 3. **NVRAM** — write/meta intents newer than what 1+2 made durable,
//!    replayed through the normal code paths. Facts are immutable, so
//!    replaying something already durable would be harmless; the seq
//!    watermarks just avoid the wasted work (§4.3: "inserting stale or
//!    duplicate records is harmless").

use crate::bootregion::BootRegion;
use crate::config::ArrayConfig;
use crate::controller::{new_map, Controller, MapKey, MapVal};
use crate::error::{PurityError, Result};
use crate::frontier::AuAllocator;
use crate::medium::MediumTable;
use crate::records::{
    decode_log_record, decode_nvram_entry, MapFact, MediumFact, NvramEntry, SegmentFact,
    SegmentState, TableId,
};
use crate::segment::{
    AuHeader, Extent, SegmentInfo, SegmentLayout, SegmentWriter, LOG_STRIPE_MAGIC,
};
use crate::shelf::Shelf;
use crate::stats::ArrayStats;
use crate::types::{AuId, SegmentId};
use parking_lot::RwLock;
use purity_dedup::engine::DedupEngine;
use purity_dedup::index::DedupIndex;
use purity_ecc::ReedSolomon;
use purity_format::RangeTable;
use purity_lsm::{Pyramid, Seq, SeqAllocator};
use purity_sim::Nanos;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How the log-record scan chooses candidate AUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Scan only AUs in the persisted frontier set (production behaviour).
    Frontier,
    /// Scan every AU header in the array (the pre-frontier-set baseline
    /// the paper timed at 12 s; kept for experiment E3).
    FullScan,
}

/// Knobs for [`Controller::recover_with`]. The defaults are production
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
    /// Rebuilds a controller from the shelf's durable state.
    pub fn recover(
        cfg: ArrayConfig,
        shelf: &mut Shelf,
        mode: ScanMode,
        now: Nanos,
    ) -> Result<(Self, RecoveryReport)> {
        Self::recover_with(
            cfg,
            shelf,
            RecoveryOptions {
                mode,
                ..RecoveryOptions::default()
            },
            now,
        )
    }

    /// [`Controller::recover`] with explicit [`RecoveryOptions`].
    pub fn recover_with(
        cfg: ArrayConfig,
        shelf: &mut Shelf,
        opts: RecoveryOptions,
        now: Nanos,
    ) -> Result<(Self, RecoveryReport)> {
        let mode = opts.mode;
        cfg.validate().map_err(PurityError::BadConfig)?;
        let mut report = RecoveryReport::default();
        let layout = SegmentLayout::from_config(&cfg);
        let rs = ReedSolomon::new(cfg.rs_data, cfg.rs_parity);
        let boot = BootRegion::new(
            cfg.boot_region_bytes(),
            cfg.ssd_geometry.page_size,
            cfg.stripe_width(),
        );
        let (cp, mut done) = boot.read(shelf, now)?;

        // --- 1. Rebuild small tables from the checkpoint. -------------
        let mut segments: BTreeMap<u64, SegmentInfo> = BTreeMap::new();
        for row in &cp.segment_rows {
            let mut info = SegmentInfo::from_fact(&SegmentFact::from_row(row));
            // The open segment's DRAM tail died with the old controller;
            // what its flushed stripes hold is intact. Treat it as sealed.
            if info.state == SegmentState::Open {
                info.state = SegmentState::Sealed;
            }
            segments.insert(info.id.0, info);
        }
        let elided = RangeTable::from_pairs(&cp.elided_mediums);
        let medium_facts: Vec<MediumFact> = cp
            .medium_rows
            .iter()
            .map(|r| MediumFact::from_row(r))
            .collect();
        let mediums = MediumTable::from_facts(&medium_facts, elided.clone());
        let elided_arc = Arc::new(RwLock::new(elided));
        let mut map = new_map(&elided_arc);

        let mut stats = ArrayStats::default();
        let mut durable_map_seq: Seq = 0;

        // --- 2a. Load checkpoint-listed map patches. ------------------
        for loc in &cp.map_patches {
            let info = segments.get(&loc.segment).ok_or_else(|| {
                PurityError::Internal(format!("patch references unknown segment {}", loc.segment))
            })?;
            let mut buf = Vec::with_capacity(loc.len as usize);
            for ext in layout.log_extents(loc.log_offset, loc.len as usize) {
                let (bytes, t) = crate::controller::read_extent(
                    shelf, info, &layout, &rs, false, &mut stats, &ext, now, None,
                )?;
                done = done.max(t);
                buf.extend_from_slice(&bytes);
            }
            let (record, _) = decode_log_record(&buf).ok_or_else(|| {
                PurityError::DataLoss(format!("undecodable map patch in segment {}", loc.segment))
            })?;
            if record.table == TableId::Map {
                for row in &record.rows {
                    let f = MapFact::from_row(row);
                    durable_map_seq = durable_map_seq.max(f.seq);
                    map.insert(
                        (f.medium.0, f.sector),
                        MapVal {
                            loc: f.loc,
                            deduped: f.deduped,
                        },
                        f.seq,
                    );
                    report.facts_loaded += 1;
                }
            }
            report.patches_loaded += 1;
        }

        // --- 2b. Scan AU headers for post-checkpoint segments. --------
        let scan_started = now;
        let candidates: Vec<AuId> = match mode {
            ScanMode::Frontier => cp.frontier.iter().map(|&p| AuId::unpack(p)).collect(),
            ScanMode::FullScan => {
                let aus = cfg.aus_per_drive();
                (0..cfg.n_drives)
                    .flat_map(|d| (0..aus as u32).map(move |i| AuId { drive: d, index: i }))
                    .collect()
            }
        };
        let mut scan_done = now;
        // Per-drive probe serialization: every candidate AU costs at
        // least a command round trip even when its header page was never
        // written (the device still parses and answers the read).
        const PROBE_NS: Nanos = 20_000;
        let mut drive_busy: Vec<Nanos> = vec![now; cfg.n_drives];
        let mut discovered: Vec<SegmentId> = Vec::new();
        for au in &candidates {
            report.aus_scanned += 1;
            if shelf.drive(au.drive).is_failed() {
                continue;
            }
            let off = layout.au_byte_offset(au.index);
            let probe_at = drive_busy[au.drive];
            let Ok((page, t)) = shelf.read_drive(au.drive, off, cfg.au_header_bytes(), probe_at)
            else {
                drive_busy[au.drive] = probe_at + PROBE_NS;
                scan_done = scan_done.max(drive_busy[au.drive]);
                continue; // never written
            };
            drive_busy[au.drive] = t.max(probe_at + PROBE_NS);
            scan_done = scan_done.max(t);
            let Some(header) = AuHeader::decode(&page) else {
                continue;
            };
            if segments.contains_key(&header.segment.0) || discovered.contains(&header.segment) {
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
            // Conservative descriptor: reads only follow map facts, which
            // reference flushed data; GC rescans liveness anyway.
            segments.insert(
                header.segment.0,
                SegmentInfo {
                    id: header.segment,
                    columns: header.columns.clone(),
                    state: SegmentState::Sealed,
                    data_bytes: (layout.n_stripes * layout.stripe_data_bytes()) as u64,
                    data_stripes: layout.n_stripes as u64,
                    log_stripes: 0,
                    log_bytes: 0,
                    seq: header.seq_lo,
                },
            );
        }
        report.segments_discovered = discovered.len();

        // Read the discovered segments' log stripes for newer map patches.
        for seg_id in &discovered {
            let info = segments.get(&seg_id.0).expect("just inserted").clone();
            let sp = layout.log_stripe_payload();
            let mut buffer: Vec<u8> = Vec::new();
            let mut log_stripes = 0u64;
            for log_idx in 0..layout.n_stripes {
                // Frame probe: 16 bytes at the head of the stripe row.
                let frame_ext = Extent {
                    column: 0,
                    stripe: layout.n_stripes - 1 - log_idx,
                    within: 0,
                    len: 16,
                };
                let Ok((frame, t)) = crate::controller::read_extent(
                    shelf, &info, &layout, &rs, false, &mut stats, &frame_ext, now, None,
                ) else {
                    break;
                };
                scan_done = scan_done.max(t);
                if frame[..8] != LOG_STRIPE_MAGIC.to_le_bytes() {
                    break;
                }
                log_stripes += 1;
                let payload_len =
                    u64::from_le_bytes(frame[8..16].try_into().expect("16-byte frame")) as usize;
                let payload_len = payload_len.min(sp);
                let mut stripe_payload = Vec::with_capacity(payload_len);
                for ext in layout.log_extents((log_idx * sp) as u64, payload_len) {
                    let (bytes, t) = crate::controller::read_extent(
                        shelf, &info, &layout, &rs, false, &mut stats, &ext, now, None,
                    )?;
                    scan_done = scan_done.max(t);
                    stripe_payload.extend_from_slice(&bytes);
                }
                buffer.extend_from_slice(&stripe_payload);
                // A short (padded) stripe terminates a record batch.
                if payload_len < sp {
                    Self::drain_log_records(&buffer, &mut map, &mut durable_map_seq, &mut report);
                    buffer.clear();
                }
            }
            if !buffer.is_empty() {
                Self::drain_log_records(&buffer, &mut map, &mut durable_map_seq, &mut report);
            }
            if let Some(s) = segments.get_mut(&seg_id.0) {
                s.log_stripes = log_stripes;
            }
        }
        report.scan_time = scan_done.saturating_sub(scan_started);
        done = done.max(scan_done);

        // --- 3. Allocator restore (after discovery so consumed frontier
        //        AUs are excluded). -----------------------------------
        let in_use: Vec<AuId> = segments
            .values()
            .flat_map(|s| s.columns.iter().copied())
            .collect();
        let allocator = AuAllocator::restore(
            cfg.n_drives,
            cfg.aus_per_drive(),
            cfg.frontier_aus_per_drive,
            &cp.frontier,
            &in_use,
        );

        // --- Assemble the controller, then replay NVRAM. --------------
        let mut ctrl = Controller {
            rs,
            layout,
            seq: SeqAllocator::resume_after(cp.high_seq.max(durable_map_seq)),
            map,
            segments,
            mediums,
            volumes: BTreeMap::new(),
            snapshots: BTreeMap::new(),
            allocator,
            boot,
            writer: SegmentWriter::new(layout, cfg.ssd_geometry.page_size),
            dedup: DedupEngine::new(DedupIndex::new(
                cfg.dedup_recent_window,
                cfg.dedup_hot_cache,
            )),
            cache: purity_tier::RamCache::lru(cfg.cache_bytes),
            elided_mediums: elided_arc,
            next_segment: cp.next_segment,
            next_medium: cp.next_medium,
            next_volume: cp.next_volume,
            next_snapshot: cp.next_snapshot,
            checkpoint_version: cp.version,
            map_patches: cp.map_patches.clone(),
            last_nvram_index: None,
            tier: crate::tier::TierState::new(&cfg),
            stats,
            obs: purity_obs::Obs::with_config(cfg.obs_config(), now),
            cfg,
        };
        for v in &cp.volumes {
            ctrl.volumes.insert(
                v.id,
                crate::controller::Volume::new(
                    crate::types::VolumeId(v.id),
                    v.name.clone(),
                    v.size_sectors,
                    crate::types::MediumId(v.anchor_medium),
                ),
            );
        }
        for s in &cp.snapshots {
            ctrl.snapshots.insert(
                s.id,
                crate::controller::Snapshot {
                    id: crate::types::SnapshotId(s.id),
                    volume: crate::types::VolumeId(s.volume),
                    medium: crate::types::MediumId(s.medium),
                    name: s.name.clone(),
                },
            );
        }
        // Post-checkpoint segment ids must not be re-issued.
        for id in ctrl.segments.keys() {
            ctrl.next_segment = ctrl.next_segment.max(id + 1);
        }

        purity_obs::profile_scope!(purity_obs::Plane::NvramReplay);
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
            if opts.skip_nvram_replay {
                // Sabotage mode: pretend the log was read (indexes still
                // advance so trims behave) but apply nothing.
                ctrl.last_nvram_index = Some(rec.index);
                continue;
            }
            ctrl.last_nvram_index = Some(rec.index);
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
            &crate::records::encode_recovery_seal(ctrl.last_nvram_index.unwrap_or(0)),
            done.max(now),
        )?;
        ctrl.last_nvram_index = Some(seal_idx);
        done = done.max(t);
        ctrl.seq = SeqAllocator::resume_after(max_seq_seen.max(ctrl.map.max_seq()));
        // Cold-tier allocator: the map is final, so every slot a live
        // fact references is used; slots orphaned by a crash mid-demotion
        // fall back into the free set.
        ctrl.rebuild_cold_state();
        report.total_time = done.max(now).saturating_sub(now);
        Ok((ctrl, report))
    }

    fn drain_log_records(
        buffer: &[u8],
        map: &mut Pyramid<MapKey, MapVal>,
        durable_map_seq: &mut Seq,
        report: &mut RecoveryReport,
    ) {
        let mut at = 0;
        while at < buffer.len() {
            let Some((record, used)) = decode_log_record(&buffer[at..]) else {
                break; // padding / end of stream
            };
            at += used;
            if record.table == TableId::Map {
                for row in &record.rows {
                    let f = MapFact::from_row(row);
                    *durable_map_seq = (*durable_map_seq).max(f.seq);
                    map.insert(
                        (f.medium.0, f.sector),
                        MapVal {
                            loc: f.loc,
                            deduped: f.deduped,
                        },
                        f.seq,
                    );
                    report.facts_loaded += 1;
                }
                report.patches_loaded += 1;
            }
        }
    }
}
