//! The controller: Purity's brain.
//!
//! Owns every table and policy — the global VBA map pyramid, the segment
//! and medium tables, the allocator, the dedup engine, the DRAM cache,
//! the segment writer — and implements the write path (§4.6–4.8), read
//! path with read-around-writes scheduling (§4.4), patch persistence and
//! checkpointing (§4.3). Controllers are deliberately stateless with
//! respect to the shelf (§4.1): everything here is reconstructable from
//! the boot region, segment log records and NVRAM, which is exactly what
//! [`crate::controller::Controller::recover`] does on the standby.

use crate::bootregion::{BootRegion, Checkpoint, PatchLoc, SnapMeta, VolumeMeta};
use crate::config::ArrayConfig;
use crate::error::{PurityError, Result};
use crate::frontier::AuAllocator;
use crate::medium::MediumTable;
use crate::records::{
    encode_intent_parts, encode_meta, map_patch_records, MapFact, MediumFact, MetaIntent, MetaOp,
    PATCH_CHUNK_FACTS,
};
use crate::segment::{Append, Extent, SegmentInfo, SegmentLayout, SegmentWriter};
use crate::shelf::Shelf;
use crate::stats::ArrayStats;
use crate::tier::TierState;
use crate::types::{BlockLoc, DriveId, MediumId, Pba, SegmentId, SnapshotId, VolumeId, SECTOR};
use parking_lot::RwLock;
use purity_dedup::engine::{BlockFetcher, DedupEngine, Outcome};
use purity_dedup::hash::block_hash;
use purity_dedup::index::DedupIndex;
use purity_ecc::ReedSolomon;
use purity_format::RangeTable;
use purity_lsm::{ElideFilter, Pyramid, RangeElision, Seq, SeqAllocator};
use purity_obs::{Frame, Obs, OpTrace};
use purity_sim::units::format_nanos;
use purity_sim::Nanos;
use purity_tier::RamCache;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// Fixed controller CPU overhead charged per request (event-handler
/// bound, §4.4).
pub const CPU_OVERHEAD_NS: Nanos = 12_000;

/// Map pyramid key: (medium id, sector).
pub type MapKey = (u64, u64);

/// Map pyramid value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapVal {
    /// Where the sector's bytes live.
    pub loc: BlockLoc,
    /// Created by dedup (shares its cblock with other keys).
    pub deduped: bool,
}

/// The map pyramid's deletion predicate (§4.10): a fact is gone once its
/// medium is in the elide table.
struct ElidedMediums(Arc<RwLock<RangeTable>>);

impl ElideFilter<MapKey> for ElidedMediums {
    fn is_elided(&self, key: &MapKey, _seq: Seq) -> bool {
        self.0.read().contains(key.0)
    }

    /// The answer depends on the medium alone, so bounds that name one
    /// medium — every chain-level read and GC scan — have one answer.
    fn elides_range(&self, lo: Bound<&MapKey>, hi: Bound<&MapKey>) -> RangeElision {
        match (lo, hi) {
            (
                Bound::Included(lo) | Bound::Excluded(lo),
                Bound::Included(hi) | Bound::Excluded(hi),
            ) if lo.0 == hi.0 => {
                if self.0.read().contains(lo.0) {
                    RangeElision::All
                } else {
                    RangeElision::Nothing
                }
            }
            _ => RangeElision::PerKey,
        }
    }
}

/// Builds the (empty) map pyramid, for a fresh array and for recovery
/// alike. Its memtable never flushes itself: a flushed patch has to
/// reach a log record, after the data its facts point at is durable, so
/// [`Controller::flush_map_patch`] owns flushing.
pub(crate) fn new_map(elided: &Arc<RwLock<RangeTable>>) -> Pyramid<MapKey, MapVal> {
    let mut map = Pyramid::with_thresholds(usize::MAX, 8);
    map.set_elide_filter(Arc::new(ElidedMediums(elided.clone())));
    map
}

/// A user volume.
#[derive(Debug, Clone)]
pub struct Volume {
    /// Id.
    pub id: VolumeId,
    /// Name.
    pub name: String,
    /// Provisioned size in sectors.
    pub size_sectors: u64,
    /// The writable anchor medium.
    pub anchor: MediumId,
    /// Observed write-size histogram, bucketed by power-of-two KiB
    /// (§4.6: "Purity infers optimal transfer sizes by observing I/O
    /// requests" — no tuning knobs).
    pub write_size_buckets: [u64; 8],
}

impl Volume {
    pub(crate) fn new(id: VolumeId, name: String, size_sectors: u64, anchor: MediumId) -> Self {
        Self {
            id,
            name,
            size_sectors,
            anchor,
            write_size_buckets: [0; 8],
        }
    }

    fn bucket_of(bytes: usize) -> usize {
        // Buckets: <=4K, 8K, 16K, 32K, 64K, 128K, 256K, larger.
        let kib = (bytes / 1024).max(1);
        (kib.next_power_of_two().trailing_zeros() as usize)
            .saturating_sub(2)
            .min(7)
    }

    /// Records one observed write.
    pub fn observe_write(&mut self, bytes: usize) {
        self.write_size_buckets[Self::bucket_of(bytes)] += 1;
    }

    /// The cblock granularity inferred from observed writes: the modal
    /// write size, clamped to [4 KiB, max]. Small writes thus produce
    /// small cblocks (reads retrieve exactly one), and large writes get
    /// the compression benefit of bigger cblocks.
    pub fn inferred_cblock_bytes(&self, max: usize) -> usize {
        let total: u64 = self.write_size_buckets.iter().sum();
        if total < 16 {
            return max; // not enough signal yet
        }
        let modal = self
            .write_size_buckets
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(7);
        (4096usize << modal).clamp(4096, max)
    }
}

/// A snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Id.
    pub id: SnapshotId,
    /// Volume it captures.
    pub volume: VolumeId,
    /// The frozen medium.
    pub medium: MediumId,
    /// Name.
    pub name: String,
}

/// The controller state.
pub struct Controller {
    /// Configuration (immutable).
    pub cfg: ArrayConfig,
    pub(crate) layout: SegmentLayout,
    pub(crate) rs: ReedSolomon,
    pub(crate) seq: SeqAllocator,
    /// The global VBA map (§4.5: "a single mapping structure for all
    /// user data, regardless of the volume").
    pub(crate) map: Pyramid<MapKey, MapVal>,
    pub(crate) segments: BTreeMap<u64, SegmentInfo>,
    pub(crate) mediums: MediumTable,
    pub(crate) volumes: BTreeMap<u64, Volume>,
    pub(crate) snapshots: BTreeMap<u64, Snapshot>,
    pub(crate) allocator: AuAllocator,
    pub(crate) boot: BootRegion,
    pub(crate) writer: SegmentWriter,
    pub(crate) dedup: DedupEngine<BlockLoc>,
    /// The DRAM read cache: decoded cblock payloads by location, LRU.
    /// Every site that frees a location a later write can reuse must
    /// `invalidate` it here first.
    pub(crate) cache: RamCache<Pba>,
    /// Shared elide set backing the map pyramid's filter.
    pub(crate) elided_mediums: Arc<RwLock<RangeTable>>,
    pub(crate) next_segment: u64,
    pub(crate) next_medium: u64,
    pub(crate) next_volume: u64,
    pub(crate) next_snapshot: u64,
    pub(crate) checkpoint_version: u64,
    /// Persisted map patches (checkpoint payload).
    pub(crate) map_patches: Vec<PatchLoc>,
    /// Index of the last NVRAM record appended (for trims).
    pub(crate) last_nvram_index: Option<u64>,
    /// Tiering engine state: heat watcher, cold-slot allocator.
    /// Volatile — rebuilt from the map on every cold start.
    pub(crate) tier: TierState,
    /// Telemetry.
    pub stats: ArrayStats,
    /// Observability: metrics registry + slow-op tracer. Shared with the
    /// array facade (and across failovers — telemetry outlives any one
    /// controller, like [`ArrayStats`]).
    pub obs: Arc<Obs>,
}

/// Acknowledgement of a completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Request latency in virtual nanoseconds.
    pub latency: Nanos,
}

/// The stored form of a cblock payload. A pure function of its input —
/// relocation rests on that: re-encoding what a stored cblock decodes to
/// gives back the stored bytes, so an unchanged cblock moves as a copy.
pub fn encode_cblock(payload: &[u8], compression: bool) -> Vec<u8> {
    if compression {
        purity_compress::compress(payload)
    } else {
        purity_compress::store_raw(payload)
    }
}

impl Controller {
    /// Builds a fresh controller over an empty shelf and lays down the
    /// first checkpoint.
    pub fn format(cfg: ArrayConfig, shelf: &mut Shelf, now: Nanos) -> Result<Self> {
        cfg.validate().map_err(PurityError::BadConfig)?;
        let layout = SegmentLayout::from_config(&cfg);
        let elided = Arc::new(RwLock::new(RangeTable::new()));
        let mut ctrl = Self {
            rs: ReedSolomon::new(cfg.rs_data, cfg.rs_parity),
            layout,
            seq: SeqAllocator::new(),
            map: new_map(&elided),
            segments: BTreeMap::new(),
            mediums: MediumTable::new(),
            volumes: BTreeMap::new(),
            snapshots: BTreeMap::new(),
            allocator: AuAllocator::new(
                cfg.n_drives,
                cfg.aus_per_drive(),
                cfg.frontier_aus_per_drive,
            ),
            boot: BootRegion::new(
                cfg.boot_region_bytes(),
                cfg.ssd_geometry.page_size,
                cfg.stripe_width(),
            ),
            writer: SegmentWriter::new(layout, cfg.ssd_geometry.page_size),
            dedup: DedupEngine::new(DedupIndex::new(
                cfg.dedup_recent_window,
                cfg.dedup_hot_cache,
            )),
            cache: RamCache::lru(cfg.cache_bytes),
            elided_mediums: elided,
            next_segment: 1,
            next_medium: 1,
            next_volume: 1,
            next_snapshot: 1,
            checkpoint_version: 0,
            map_patches: Vec::new(),
            last_nvram_index: None,
            tier: TierState::new(&cfg),
            stats: ArrayStats::default(),
            obs: Obs::with_config(cfg.obs_config(), now),
            cfg,
        };
        ctrl.write_checkpoint(shelf, now)?;
        Ok(ctrl)
    }

    // ------------------------------------------------------------------
    // Volume lifecycle (metadata operations commit through NVRAM).
    // ------------------------------------------------------------------

    fn commit_meta(&mut self, shelf: &mut Shelf, op: MetaOp, now: Nanos) -> Result<(Seq, Nanos)> {
        let seq = self.seq.next();
        let bytes = encode_meta(&MetaIntent { seq, op });
        let (idx, t) = self.nvram_append(shelf, &bytes, now)?;
        self.last_nvram_index = Some(idx);
        Ok((seq, t))
    }

    fn nvram_append(
        &mut self,
        shelf: &mut Shelf,
        bytes: &[u8],
        now: Nanos,
    ) -> Result<(u64, Nanos)> {
        match shelf.nvram_append(bytes, now) {
            Ok(ok) => Ok(ok),
            Err(PurityError::OutOfSpace) => {
                // Trim by checkpointing, then retry once.
                self.write_checkpoint(shelf, now)?;
                shelf.nvram_append(bytes, now)
            }
            Err(e) => Err(e),
        }
    }

    /// Creates a volume of `size_bytes` (thin-provisioned).
    pub fn create_volume(
        &mut self,
        shelf: &mut Shelf,
        name: &str,
        size_bytes: u64,
        now: Nanos,
    ) -> Result<VolumeId> {
        if size_bytes == 0 || !size_bytes.is_multiple_of(SECTOR as u64) {
            return Err(PurityError::BadRequest(
                "volume size must be sector aligned".into(),
            ));
        }
        let volume = self.next_volume;
        let medium = self.next_medium;
        self.next_volume += 1;
        self.next_medium += 1;
        let op = MetaOp::CreateVolume {
            volume,
            medium,
            size_sectors: size_bytes / SECTOR as u64,
            name: name.to_owned(),
        };
        let (seq, _) = self.commit_meta(shelf, op.clone(), now)?;
        self.apply_meta(&MetaIntent { seq, op });
        Ok(VolumeId(volume))
    }

    /// Takes a snapshot of a volume (O(1): freeze + stack, §4.5).
    pub fn snapshot(
        &mut self,
        shelf: &mut Shelf,
        volume: VolumeId,
        name: &str,
        now: Nanos,
    ) -> Result<SnapshotId> {
        let vol = self
            .volumes
            .get(&volume.0)
            .ok_or(PurityError::NoSuchVolume)?
            .clone();
        let snapshot = self.next_snapshot;
        let new_anchor = self.next_medium;
        self.next_snapshot += 1;
        self.next_medium += 1;
        let op = MetaOp::SnapshotVolume {
            snapshot,
            volume: volume.0,
            frozen_medium: vol.anchor.0,
            new_anchor,
            name: name.to_owned(),
        };
        let (seq, _) = self.commit_meta(shelf, op.clone(), now)?;
        self.apply_meta(&MetaIntent { seq, op });
        Ok(SnapshotId(snapshot))
    }

    /// Clones a snapshot into a new volume (O(1), §4.5).
    pub fn clone_snapshot(
        &mut self,
        shelf: &mut Shelf,
        snapshot: SnapshotId,
        name: &str,
        now: Nanos,
    ) -> Result<VolumeId> {
        let snap = self
            .snapshots
            .get(&snapshot.0)
            .ok_or(PurityError::NoSuchSnapshot)?
            .clone();
        let size = self
            .volumes
            .get(&snap.volume.0)
            .map(|v| v.size_sectors)
            .unwrap_or(0);
        let volume = self.next_volume;
        let new_anchor = self.next_medium;
        self.next_volume += 1;
        self.next_medium += 1;
        let op = MetaOp::CloneToVolume {
            volume,
            source_medium: snap.medium.0,
            new_anchor,
            size_sectors: size,
            name: name.to_owned(),
        };
        let (seq, _) = self.commit_meta(shelf, op.clone(), now)?;
        self.apply_meta(&MetaIntent { seq, op });
        Ok(VolumeId(volume))
    }

    /// Destroys a volume: a single elide-table insert retires all its
    /// data (§4.10).
    pub fn destroy_volume(
        &mut self,
        shelf: &mut Shelf,
        volume: VolumeId,
        now: Nanos,
    ) -> Result<()> {
        let vol = self
            .volumes
            .get(&volume.0)
            .ok_or(PurityError::NoSuchVolume)?
            .clone();
        let op = MetaOp::DestroyVolume {
            volume: volume.0,
            medium: vol.anchor.0,
        };
        let (seq, _) = self.commit_meta(shelf, op.clone(), now)?;
        self.apply_meta(&MetaIntent { seq, op });
        Ok(())
    }

    /// Destroys a snapshot.
    pub fn destroy_snapshot(
        &mut self,
        shelf: &mut Shelf,
        snapshot: SnapshotId,
        now: Nanos,
    ) -> Result<()> {
        let snap = self
            .snapshots
            .get(&snapshot.0)
            .ok_or(PurityError::NoSuchSnapshot)?
            .clone();
        let op = MetaOp::DestroySnapshot {
            snapshot: snapshot.0,
            medium: snap.medium.0,
        };
        let (seq, _) = self.commit_meta(shelf, op.clone(), now)?;
        self.apply_meta(&MetaIntent { seq, op });
        Ok(())
    }

    /// Applies a metadata op to in-memory tables. Used by the foreground
    /// path and by recovery replay; idempotent.
    pub(crate) fn apply_meta(&mut self, intent: &MetaIntent) {
        let seq = intent.seq;
        match &intent.op {
            MetaOp::CreateVolume {
                volume,
                medium,
                size_sectors,
                name,
            } => {
                self.mediums
                    .create_root(MediumId(*medium), *size_sectors, seq);
                self.volumes.insert(
                    *volume,
                    Volume::new(
                        VolumeId(*volume),
                        name.clone(),
                        *size_sectors,
                        MediumId(*medium),
                    ),
                );
                self.next_volume = self.next_volume.max(volume + 1);
                self.next_medium = self.next_medium.max(medium + 1);
            }
            MetaOp::SnapshotVolume {
                snapshot,
                volume,
                frozen_medium,
                new_anchor,
                name,
            } => {
                let size = self
                    .volumes
                    .get(volume)
                    .map(|v| v.size_sectors)
                    .unwrap_or(0);
                self.mediums.freeze(MediumId(*frozen_medium), seq);
                self.mediums.create_child(
                    MediumId(*new_anchor),
                    MediumId(*frozen_medium),
                    size,
                    seq,
                );
                if let Some(v) = self.volumes.get_mut(volume) {
                    v.anchor = MediumId(*new_anchor);
                }
                self.snapshots.insert(
                    *snapshot,
                    Snapshot {
                        id: SnapshotId(*snapshot),
                        volume: VolumeId(*volume),
                        medium: MediumId(*frozen_medium),
                        name: name.clone(),
                    },
                );
                self.next_snapshot = self.next_snapshot.max(snapshot + 1);
                self.next_medium = self.next_medium.max(new_anchor + 1);
            }
            MetaOp::CloneToVolume {
                volume,
                source_medium,
                new_anchor,
                size_sectors,
                name,
            } => {
                self.mediums.create_child(
                    MediumId(*new_anchor),
                    MediumId(*source_medium),
                    *size_sectors,
                    seq,
                );
                self.volumes.insert(
                    *volume,
                    Volume::new(
                        VolumeId(*volume),
                        name.clone(),
                        *size_sectors,
                        MediumId(*new_anchor),
                    ),
                );
                self.next_volume = self.next_volume.max(volume + 1);
                self.next_medium = self.next_medium.max(new_anchor + 1);
            }
            MetaOp::DestroyVolume { volume, medium } => {
                self.volumes.remove(volume);
                self.elide_medium(MediumId(*medium));
            }
            MetaOp::DestroySnapshot { snapshot, medium } => {
                self.snapshots.remove(snapshot);
                // Only elide if no clone still layers on it: a medium
                // referenced by live rows must survive.
                let still_referenced = self
                    .mediums
                    .to_facts()
                    .iter()
                    .any(|f| f.target == Some(MediumId(*medium)));
                if !still_referenced {
                    self.elide_medium(MediumId(*medium));
                }
            }
        }
    }

    pub(crate) fn elide_medium(&mut self, medium: MediumId) {
        self.mediums.elide(medium);
        self.elided_mediums.write().insert(medium.0);
    }

    /// Volume accessor.
    pub fn volume(&self, id: VolumeId) -> Option<&Volume> {
        self.volumes.get(&id.0)
    }

    /// Snapshot accessor.
    pub fn snapshot_info(&self, id: SnapshotId) -> Option<&Snapshot> {
        self.snapshots.get(&id.0)
    }

    /// All volumes.
    pub fn volumes(&self) -> impl Iterator<Item = &Volume> {
        self.volumes.values()
    }

    // ------------------------------------------------------------------
    // Write path (§4.6–4.8).
    // ------------------------------------------------------------------

    /// Writes `data` at `offset` of `volume`. Acknowledged at NVRAM
    /// persistence (Figure 4); segment flushes happen in the background
    /// of virtual time.
    pub fn write(
        &mut self,
        shelf: &mut Shelf,
        volume: VolumeId,
        offset: u64,
        data: &[u8],
        now: Nanos,
    ) -> Result<Ack> {
        self.write_ext(shelf, volume, offset, data, now, None)
    }

    /// [`Controller::write`] with an optional upstream trace context.
    /// When `ext` is given, the array-plane spans are absorbed into it
    /// and the op is *not* finished here — the initiator (host engine /
    /// cluster) owns the end-to-end trace and finishes it at ack
    /// delivery.
    pub fn write_ext(
        &mut self,
        shelf: &mut Shelf,
        volume: VolumeId,
        offset: u64,
        data: &[u8],
        now: Nanos,
        ext: Option<&mut OpTrace>,
    ) -> Result<Ack> {
        purity_obs::profile_scope!(purity_obs::Plane::ArrayWrite);
        let vol = self
            .volumes
            .get(&volume.0)
            .ok_or(PurityError::NoSuchVolume)?;
        if !offset.is_multiple_of(SECTOR as u64)
            || !data.len().is_multiple_of(SECTOR)
            || data.is_empty()
        {
            return Err(PurityError::BadRequest(
                "writes must be whole sectors".into(),
            ));
        }
        if offset + data.len() as u64 > vol.size_sectors * SECTOR as u64 {
            return Err(PurityError::BadRequest("write beyond end of volume".into()));
        }
        let medium = vol.anchor;
        // §4.6: size cblocks to match this volume's observed writes.
        let cblock_bytes = vol.inferred_cblock_bytes(self.cfg.max_cblock_bytes);
        if let Some(v) = self.volumes.get_mut(&volume.0) {
            v.observe_write(data.len());
        }
        let mut trace = OpTrace::new("write", now);
        let dedup_before = self.stats.dedup_bytes_saved;
        let compress_before = self.stats.compress_bytes_saved;
        let stored_before = self.stats.physical_bytes_stored;
        let mut start_sector = offset / SECTOR as u64;
        let mut ack_at = now;
        for chunk in data.chunks(cblock_bytes) {
            let seq = self.seq.next();
            let (idx, t) = self.nvram_append(
                shelf,
                &encode_intent_parts(seq, medium, start_sector, chunk),
                now,
            )?;
            self.last_nvram_index = Some(idx);
            ack_at = ack_at.max(t);
            self.apply_write(shelf, medium, start_sector, chunk, seq, now)?;
            start_sector += (chunk.len() / SECTOR) as u64;
        }
        self.stats.logical_bytes_written += data.len() as u64;
        let latency = ack_at.saturating_sub(now) + CPU_OVERHEAD_NS;
        self.stats.write_latency.record(latency);
        // Span breakdown: the ack is bound by NVRAM persistence; the
        // reduction pipeline runs in zero virtual time (CPU stages), and
        // segment flushes happen behind the ack. Zero-duration spans
        // carry the pipeline's attribution for slow-op captures.
        trace.stage("nvram_commit", now, ack_at);
        trace.stage_note(
            "dedup",
            ack_at,
            ack_at,
            format!("saved {} B", self.stats.dedup_bytes_saved - dedup_before),
        );
        trace.stage_note(
            "compress",
            ack_at,
            ack_at,
            format!(
                "saved {} B",
                self.stats.compress_bytes_saved - compress_before
            ),
        );
        trace.stage_note(
            "segment_fill",
            ack_at,
            ack_at,
            format!(
                "placed {} B",
                self.stats.physical_bytes_stored - stored_before
            ),
        );
        trace.stage("cpu", ack_at, ack_at + CPU_OVERHEAD_NS);
        match ext {
            Some(t) => t.absorb(trace),
            None => {
                self.obs.tracer.finish(trace, now + latency);
            }
        }
        self.maybe_background(shelf, now)?;
        Ok(Ack { latency })
    }

    /// The internal write pipeline: dedup → pack → compress → place →
    /// map facts. Shared by the foreground path and recovery replay
    /// (which is what makes replay idempotent at the fact level).
    pub(crate) fn apply_write(
        &mut self,
        shelf: &mut Shelf,
        medium: MediumId,
        start_sector: u64,
        chunk: &[u8],
        seq: Seq,
        now: Nanos,
    ) -> Result<()> {
        let n = chunk.len() / SECTOR;
        let outcomes = if self.cfg.dedup_enabled {
            let (dedup, mut fetcher) = self.fetcher(shelf, now);
            dedup.process(chunk, &mut fetcher)
        } else {
            vec![Outcome::Unique; n]
        };

        // Pack unique sectors into the cblock payload.
        let mut payload = Vec::with_capacity(chunk.len());
        let mut packed_index = vec![u16::MAX; n];
        for (i, o) in outcomes.iter().enumerate() {
            if matches!(o, Outcome::Unique) {
                packed_index[i] = (payload.len() / SECTOR) as u16;
                payload.extend_from_slice(&chunk[i * SECTOR..(i + 1) * SECTOR]);
            }
        }
        let dup_sectors = n - payload.len() / SECTOR;
        self.stats.dedup_bytes_saved += (dup_sectors * SECTOR) as u64;

        let pba = if payload.is_empty() {
            None
        } else {
            let encoded = encode_cblock(&payload, self.cfg.compression_enabled);
            if encoded.len() < payload.len() {
                self.stats.compress_bytes_saved += (payload.len() - encoded.len()) as u64;
            }
            self.stats.physical_bytes_stored += encoded.len() as u64;

            Some(self.place_cblock(shelf, &encoded, now)?)
        };

        // Map facts + dedup index records, batched into one LSM pass.
        let index = self.dedup.index_mut();
        let facts = outcomes.iter().enumerate().map(|(i, o)| {
            let sector = start_sector + i as u64;
            let (loc, deduped) = match o {
                Outcome::Unique => {
                    let pba = pba.expect("unique sectors imply a cblock");
                    let loc = BlockLoc {
                        pba,
                        sector: packed_index[i],
                    };
                    let h = block_hash(&chunk[i * SECTOR..(i + 1) * SECTOR]);
                    index.record_write(h, loc);
                    (loc, false)
                }
                Outcome::Dup { loc, .. } => (*loc, true),
            };
            ((medium.0, sector), MapVal { loc, deduped }, seq)
        });
        self.map.insert_many(facts);
        Ok(())
    }

    /// Appends an encoded cblock into the open segment, handling
    /// seal-and-reopen and frontier persistence. `use_reserve` lets
    /// GC/metadata dig into the reserved AU headroom that user writes
    /// may not touch — §4.10's guard against "running out of space
    /// inside the garbage collector".
    pub(crate) fn place_cblock_with(
        &mut self,
        shelf: &mut Shelf,
        encoded: &[u8],
        use_reserve: bool,
        now: Nanos,
    ) -> Result<Pba> {
        for _ in 0..4 {
            if self.writer.open_segment().is_none() {
                self.open_new_segment(shelf, use_reserve, now)?;
            }
            let (result, _t) = self.writer.append_data(shelf, encoded, now)?;
            self.sync_open_segment();
            match result {
                Append::Placed(pba) => return Ok(pba),
                Append::Full => self.seal_open_segment(shelf, now)?,
            }
        }
        Err(PurityError::Internal(
            "could not place cblock after reopening".into(),
        ))
    }

    /// User-write placement: respects the reserved-AU headroom.
    pub(crate) fn place_cblock(
        &mut self,
        shelf: &mut Shelf,
        encoded: &[u8],
        now: Nanos,
    ) -> Result<Pba> {
        self.place_cblock_with(shelf, encoded, false, now)
    }

    /// Keeps the in-memory segment table in sync with the writer: copies
    /// the open segment's fill counters into the entry made when it
    /// opened (nothing else about it changes until it seals).
    fn sync_open_segment(&mut self) {
        let Some(open) = self.writer.open_segment() else {
            return;
        };
        let entry = self
            .segments
            .get_mut(&open.id.0)
            .expect("open_new_segment entered the open segment in the table");
        entry.data_bytes = open.data_bytes;
        entry.data_stripes = open.data_stripes;
        entry.log_stripes = open.log_stripes;
        entry.log_bytes = open.log_bytes;
    }

    pub(crate) fn seal_open_segment(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<()> {
        let seq = self.seq.next();
        if let Some((info, _t)) = self.writer.seal(shelf, seq, now)? {
            self.segments.insert(info.id.0, info);
        }
        Ok(())
    }

    /// AUs per drive held back for GC and metadata so a full array can
    /// always delete and collect its way out (§4.10).
    pub(crate) const RESERVE_AUS: usize = 3;

    /// Opens a new segment: picks stripe-width drives (rotating across
    /// the write group, skipping failed drives), allocating one AU each.
    /// Without `use_reserve`, drives whose available AUs are at or below
    /// the reserve are not eligible.
    pub(crate) fn open_new_segment(
        &mut self,
        shelf: &mut Shelf,
        use_reserve: bool,
        now: Nanos,
    ) -> Result<()> {
        let width = self.cfg.stripe_width();
        // Frontier discipline: persist a fresh frontier (boot-region
        // write) if any drive's persisted set ran dry (§4.3). This never
        // trims NVRAM — a map patch may be mid-persist right now.
        if self.allocator.any_needs_persist() {
            self.persist_frontier(shelf, now)?;
        }
        let start = (self.next_segment as usize) % self.cfg.n_drives;
        let mut columns = Vec::with_capacity(width);
        for i in 0..self.cfg.n_drives {
            let d: DriveId = (start + i) % self.cfg.n_drives;
            if shelf.drive(d).is_failed() {
                continue;
            }
            if !use_reserve && self.allocator.available(d) <= Self::RESERVE_AUS {
                continue; // leave headroom for GC/metadata
            }
            if let Some(au) = self.allocator.allocate(d) {
                columns.push(au);
                if columns.len() == width {
                    break;
                }
            }
        }
        if columns.len() < width {
            // Return whatever we took.
            for au in columns {
                self.allocator.release(au);
            }
            return Err(PurityError::OutOfSpace);
        }
        let id = SegmentId(self.next_segment);
        self.next_segment += 1;
        let seq_lo = self.seq.high_water() + 1;
        self.writer
            .open_segment_on(shelf, id, columns, seq_lo, now)?;
        let info = self.writer.open_segment().expect("just opened").clone();
        self.segments.insert(id.0, info);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Read path (§4.4, §4.5).
    // ------------------------------------------------------------------

    /// Reads `len` bytes at `offset` of `volume`.
    pub fn read(
        &mut self,
        shelf: &mut Shelf,
        volume: VolumeId,
        offset: u64,
        len: usize,
        now: Nanos,
    ) -> Result<(Vec<u8>, Ack)> {
        self.read_ext(shelf, volume, offset, len, now, None)
    }

    /// [`Controller::read`] with an optional upstream trace context (see
    /// [`Controller::write_ext`]).
    pub fn read_ext(
        &mut self,
        shelf: &mut Shelf,
        volume: VolumeId,
        offset: u64,
        len: usize,
        now: Nanos,
        ext: Option<&mut OpTrace>,
    ) -> Result<(Vec<u8>, Ack)> {
        purity_obs::profile_scope!(purity_obs::Plane::ArrayRead);
        let vol = self
            .volumes
            .get(&volume.0)
            .ok_or(PurityError::NoSuchVolume)?;
        if !offset.is_multiple_of(SECTOR as u64) || !len.is_multiple_of(SECTOR) || len == 0 {
            return Err(PurityError::BadRequest(
                "reads must be whole sectors".into(),
            ));
        }
        if offset + len as u64 > vol.size_sectors * SECTOR as u64 {
            return Err(PurityError::BadRequest("read beyond end of volume".into()));
        }
        let medium = vol.anchor;
        let mut trace = OpTrace::new("read", now);
        let (out, done) = self.read_medium_traced(
            shelf,
            medium,
            offset / SECTOR as u64,
            len / SECTOR,
            now,
            Some(&mut trace),
        )?;
        self.stats.logical_bytes_read += len as u64;
        // Heat evidence: the recorder samples this per-volume counter
        // each interval; the watcher folds the series into temperature.
        *self.tier.vol_reads.entry(volume.0).or_insert(0) += 1;
        let latency = done.saturating_sub(now) + CPU_OVERHEAD_NS;
        self.stats.read_latency.record(latency);
        trace.stage("cpu", done, done + CPU_OVERHEAD_NS);
        match ext {
            Some(t) => t.absorb(trace),
            None => {
                self.obs.tracer.finish(trace, now + latency);
            }
        }
        Ok((out, Ack { latency }))
    }

    /// Reads `n_sectors` from a medium chain (also used to read
    /// snapshots and by replication).
    pub(crate) fn read_medium(
        &mut self,
        shelf: &mut Shelf,
        medium: MediumId,
        start_sector: u64,
        n_sectors: usize,
        now: Nanos,
    ) -> Result<(Vec<u8>, Nanos)> {
        self.read_medium_traced(shelf, medium, start_sector, n_sectors, now, None)
    }

    /// [`Controller::read_medium`] with an optional trace context to
    /// stamp per-stage spans into.
    pub(crate) fn read_medium_traced(
        &mut self,
        shelf: &mut Shelf,
        medium: MediumId,
        start_sector: u64,
        n_sectors: usize,
        now: Nanos,
        mut trace: Option<&mut OpTrace>,
    ) -> Result<(Vec<u8>, Nanos)> {
        let mut out = vec![0u8; n_sectors * SECTOR];
        // Group sector fetches by cblock. Ordered map: fetch order decides
        // die-timeline reservation order, so it must be deterministic.
        let mut plan: BTreeMap<Pba, Vec<(usize, u16)>> = BTreeMap::new();
        let mut zero_sectors = 0u64;
        for (i, entry) in self
            .resolve_range_entries(medium, start_sector, n_sectors)
            .into_iter()
            .enumerate()
        {
            match entry {
                Some((_key, val)) => plan
                    .entry(val.loc.pba)
                    .or_default()
                    .push((i, val.loc.sector)),
                None => {
                    self.stats.zero_reads += 1;
                    zero_sectors += 1;
                }
            }
        }
        if zero_sectors > 0 {
            if let Some(tr) = trace.as_deref_mut() {
                tr.stage_note(
                    "zero_fill",
                    now,
                    now,
                    format!("{zero_sectors} unwritten sectors"),
                );
            }
        }
        let mut done = now;
        for (pba, uses) in plan {
            let fetched = self.fetch_cblock(shelf, &pba, now, trace.as_deref_mut())?;
            done = done.max(fetched.done);
            let payload = fetched.payload;
            for (i, cs) in uses {
                let src = cs as usize * SECTOR;
                if src + SECTOR > payload.len() {
                    return Err(PurityError::DataLoss(format!(
                        "cblock at {:?} shorter than mapped sector {}",
                        pba, cs
                    )));
                }
                out[i * SECTOR..(i + 1) * SECTOR].copy_from_slice(&payload[src..src + SECTOR]);
            }
        }
        Ok((out, done))
    }

    /// Resolves one sector through the medium chain and the map.
    pub(crate) fn resolve_sector(&self, medium: MediumId, sector: u64) -> Option<MapVal> {
        self.resolve_sector_entry(medium, sector).map(|(_, v)| v)
    }

    /// Enumerates the sector runs whose content differs between two
    /// medium chains, as half-open `(start, end)` ranges in ascending
    /// order. With `base = None` it enumerates every mapped run (the
    /// full-seed case: unmapped sectors read as zeros on both sides and
    /// never need shipping). The diff compares *resolved locations*:
    /// facts are immutable, so identical locations mean identical
    /// content, and a rewrite always makes a new fact. This is the
    /// medium-diff API replication delta shipping is built on.
    pub fn medium_diff(
        &self,
        base: Option<MediumId>,
        newer: MediumId,
        size_sectors: u64,
    ) -> Vec<(u64, u64)> {
        let mut runs = Vec::new();
        let mut run_start: Option<u64> = None;
        for sector in 0..size_sectors {
            let new_loc = self.resolve_sector(newer, sector).map(|v| v.loc);
            let changed = match base {
                Some(b) => self.resolve_sector(b, sector).map(|v| v.loc) != new_loc,
                None => new_loc.is_some(),
            };
            match (changed, run_start) {
                (true, None) => run_start = Some(sector),
                (false, Some(s)) => {
                    runs.push((s, sector));
                    run_start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = run_start {
            runs.push((s, size_sectors));
        }
        runs
    }

    /// Like [`Controller::resolve_sector`] but also returns the winning
    /// map key — the chain step whose fact satisfied the lookup (GC's
    /// reachability scan needs it).
    pub(crate) fn resolve_sector_entry(
        &self,
        medium: MediumId,
        sector: u64,
    ) -> Option<(MapKey, MapVal)> {
        for step in self.mediums.resolve(medium, sector) {
            let key = (step.medium.0, step.sector);
            if let Some((val, _seq)) = self.map.get(&key) {
                return Some((key, val));
            }
        }
        None
    }

    /// Resolves a contiguous sector range in one pass: equivalent to
    /// calling [`Controller::resolve_sector_entry`] per sector, but one
    /// pyramid *range* query per chain level instead of one point `get`
    /// (memtable probe + per-patch binary search) per sector. The read
    /// path and GC's reachability scan are both built on this — at 64
    /// sectors per cblock the point-get version was the single largest
    /// read-path cost.
    ///
    /// Slot `i` of the result covers `start_sector + i`; `None` means
    /// unwritten (reads as zeros).
    pub(crate) fn resolve_range_entries(
        &self,
        medium: MediumId,
        start_sector: u64,
        n_sectors: usize,
    ) -> Vec<Option<(MapKey, MapVal)>> {
        let mut out = vec![None; n_sectors];
        self.resolve_range_rec(
            medium,
            start_sector,
            start_sector + n_sectors as u64,
            0,
            &mut out,
            0,
        );
        // The batched resolver replaces one map probe per sector; keep
        // the per-sector event count so the perf trajectory stays
        // comparable with the point-lookup read path it superseded.
        purity_obs::profiler::add_events(purity_obs::Plane::Lsm, n_sectors as u64);
        out
    }

    /// Fills still-`None` slots of `out[out_off..]` from `medium`'s own
    /// facts over `[lo, hi)`, then recurses into chain targets. Top-down
    /// fill order reproduces chain seniority: a higher medium's fact
    /// always lands before a lower one is consulted. Only sectors
    /// covered by a medium row participate — exactly the
    /// `row_covering`-then-break walk of the per-sector resolver.
    fn resolve_range_rec(
        &self,
        medium: MediumId,
        lo: u64,
        hi: u64,
        out_off: usize,
        out: &mut [Option<(MapKey, MapVal)>],
        depth: usize,
    ) {
        if depth > 64 || lo >= hi {
            return;
        }
        for (start, row) in self.mediums.rows_of(medium) {
            let ilo = lo.max(start);
            let ihi = hi.min(row.end);
            if ilo >= ihi {
                continue;
            }
            let base = out_off + (ilo - lo) as usize;
            self.map.range_for_each(
                Bound::Included(&(medium.0, ilo)),
                Bound::Excluded(&(medium.0, ihi)),
                |key, val, _seq| {
                    let slot = base + (key.1 - ilo) as usize;
                    if out[slot].is_none() {
                        out[slot] = Some((*key, *val));
                    }
                },
            );
            if let Some(target) = row.target {
                let t_lo = row.target_offset + (ilo - start);
                let t_hi = row.target_offset + (ihi - start);
                self.resolve_range_rec(target, t_lo, t_hi, base, out, depth + 1);
            }
        }
    }

    /// Fetches and decodes a cblock (cache → pending → flash), stamping
    /// `trace` if given. The stored bytes the fetch read come back
    /// beside the payload: relocation places them verbatim.
    pub(crate) fn fetch_cblock(
        &mut self,
        shelf: &mut Shelf,
        pba: &Pba,
        now: Nanos,
        trace: Option<&mut OpTrace>,
    ) -> Result<Fetched> {
        self.fetcher(shelf, now).1.fetch_cblock(pba, trace)
    }

    /// Splits the controller into the dedup engine and the fetch path
    /// the engine verifies its candidates through.
    pub(crate) fn fetcher<'a>(
        &'a mut self,
        shelf: &'a mut Shelf,
        now: Nanos,
    ) -> (&'a mut DedupEngine<BlockLoc>, CtrlFetcher<'a>) {
        let fetcher = CtrlFetcher {
            shelf,
            cache: &mut self.cache,
            segments: &self.segments,
            writer: &self.writer,
            layout: &self.layout,
            rs: &self.rs,
            read_around: self.cfg.read_around_writes,
            stats: &mut self.stats,
            now,
        };
        (&mut self.dedup, fetcher)
    }

    // ------------------------------------------------------------------
    // Persistence: patch flush + checkpoint (§4.3, Figure 4).
    // ------------------------------------------------------------------

    /// Flushes the map memtable into a patch and persists it as a log
    /// record in the open segment.
    pub fn flush_map_patch(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<()> {
        if self.map.memtable_facts() == 0 {
            return Ok(());
        }
        // Data referenced by these facts must be durable first.
        self.writer.pad_flush_data(shelf, now)?;
        self.sync_open_segment();
        let patch = self.map.flush().expect("memtable non-empty");
        let rows: Vec<[u64; MapFact::COLS]> = patch
            .iter()
            .map(|((medium, sector), seq, val)| {
                MapFact {
                    medium: MediumId(*medium),
                    sector: *sector,
                    loc: val.loc,
                    deduped: val.deduped,
                    seq: *seq,
                }
                .to_row_fixed()
            })
            .collect();
        // One record — unless it would outgrow a whole segment's log
        // space, as the memtable a recovery refilled with every on-disk
        // fact can; then the patch splits the way GC's rewrite does.
        let mut records: Vec<Vec<u8>> = map_patch_records(&rows, rows.len()).collect();
        if records[0].len() > self.layout.n_stripes * self.layout.log_stripe_payload() {
            records = map_patch_records(&rows, PATCH_CHUNK_FACTS).collect();
        }
        for bytes in records {
            let loc = self.append_log_record(shelf, &bytes, now)?;
            self.map_patches.push(loc);
        }
        Ok(())
    }

    /// Appends a log record, sealing/reopening segments as needed.
    pub(crate) fn append_log_record(
        &mut self,
        shelf: &mut Shelf,
        bytes: &[u8],
        now: Nanos,
    ) -> Result<PatchLoc> {
        for _ in 0..4 {
            if self.writer.open_segment().is_none() {
                // Metadata may dig into the reserve.
                self.open_new_segment(shelf, true, now)?;
            }
            let (placed, full) = self.writer.append_log(shelf, bytes, now)?;
            if let Some((offset, _t)) = placed {
                self.writer.flush_log(shelf, now)?;
                self.sync_open_segment();
                let segment = self.writer.open_segment().expect("open").id.0;
                return Ok(PatchLoc {
                    segment,
                    log_offset: offset,
                    len: bytes.len() as u64,
                });
            }
            if full {
                self.seal_open_segment(shelf, now)?;
            }
        }
        Err(PurityError::Internal("could not append log record".into()))
    }

    /// Writes a frontier-refresh checkpoint *without* trimming NVRAM.
    /// Used mid-operation (e.g. while a map patch is in flight inside a
    /// segment open) where trimming would orphan un-persisted facts.
    pub(crate) fn persist_frontier(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<Nanos> {
        self.checkpoint_version += 1;
        let frontier = self.allocator.build_persist_set();
        let cp = self.build_checkpoint(frontier);
        self.boot.write(shelf, &cp, now)
    }

    /// Builds and writes a full checkpoint; trims NVRAM (Figure 4's join
    /// of the commit stream with durable indexes). Safe because the map
    /// memtable is flushed to a persisted patch first and metadata state
    /// is serialized into the checkpoint itself.
    pub fn write_checkpoint(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<Nanos> {
        // Capture the trim point before flushing: nothing newer than this
        // is covered by the flush below.
        let trim_to = self.last_nvram_index;
        self.flush_map_patch(shelf, now)?;
        self.checkpoint_version += 1;
        let frontier = if self.allocator.any_needs_persist() {
            self.allocator.build_persist_set()
        } else {
            self.allocator.snapshot_persisted()
        };
        let cp = self.build_checkpoint(frontier);
        let t = self.boot.write(shelf, &cp, now)?;
        if let Some(idx) = trim_to {
            shelf.nvram_trim(idx)?;
        }
        // The boot record is durable: cold slots whose last reference was
        // superseded by now-durable facts may re-enter the allocator.
        self.release_pending_cold(shelf);
        self.stats.checkpoints += 1;
        Ok(t)
    }

    fn build_checkpoint(&self, frontier: Vec<u64>) -> Checkpoint {
        Checkpoint {
            version: self.checkpoint_version,
            watermark: self.seq.high_water(),
            high_seq: self.seq.high_water(),
            next_segment: self.next_segment,
            next_medium: self.next_medium,
            next_volume: self.next_volume,
            next_snapshot: self.next_snapshot,
            frontier,
            segment_rows: self
                .segments
                .values()
                .map(|s| s.to_fact().to_row())
                .collect(),
            medium_rows: self
                .mediums
                .to_facts()
                .iter()
                .map(MediumFact::to_row)
                .collect(),
            volumes: self
                .volumes
                .values()
                .map(|v| VolumeMeta {
                    id: v.id.0,
                    anchor_medium: v.anchor.0,
                    size_sectors: v.size_sectors,
                    name: v.name.clone(),
                })
                .collect(),
            snapshots: self
                .snapshots
                .values()
                .map(|s| SnapMeta {
                    id: s.id.0,
                    volume: s.volume.0,
                    medium: s.medium.0,
                    name: s.name.clone(),
                })
                .collect(),
            elided_mediums: self.mediums.elided_set().to_pairs(),
            map_patches: self.map_patches.clone(),
        }
    }

    /// Background maintenance triggers, run after writes.
    fn maybe_background(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<()> {
        let nv = shelf.nvram();
        if nv.used_bytes() * 10 > nv.capacity_bytes() * 6 {
            self.write_checkpoint(shelf, now)?;
        }
        if self.map.memtable_facts() > 50_000 {
            self.flush_map_patch(shelf, now)?;
        }
        Ok(())
    }

    /// Seq high-water accessor (tests, experiments).
    pub fn high_seq(&self) -> Seq {
        self.seq.high_water()
    }

    /// Writes every controller-owned series — data path, tiering
    /// engine, map pyramid — into `out`.
    pub(crate) fn collect<'a>(&'a self, out: &mut Frame<'a>) {
        self.stats.collect(out);
        let (hits, misses, evictions) = self.cache.stats();
        out.counter("cache_ram_hits", &[], hits);
        out.counter("cache_ram_misses", &[], misses);
        out.counter("cache_ram_evictions", &[], evictions);
        out.gauge("cache_ram_used_bytes", &[], self.cache.used_bytes() as i64);
        out.gauge(
            "cache_ram_capacity_bytes",
            &[],
            self.cache.capacity_bytes() as i64,
        );
        self.tier.collect(self.volumes.keys(), out);
        self.map.stats().collect("map", out);
    }

    /// Live segment count.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The medium table (read-only view).
    pub fn mediums(&self) -> &MediumTable {
        &self.mediums
    }
}

/// The blame stage a drive read's queueing belongs to when it queued
/// behind a program or an erase; `None` when it did not queue, or queued
/// behind other reads only (that time stays in the read's own span).
fn stall_stage(dr: &purity_ssd::DeviceRead) -> Option<&'static str> {
    use purity_ssd::StallCause;
    match (dr.stall, dr.stall_gc) {
        (Some(StallCause::Erase), _) => Some("die_stall_erase"),
        (Some(StallCause::Program), true) => Some("gc_interference"),
        (Some(StallCause::Program), false) => Some("die_stall_program"),
        _ => None,
    }
}

/// Stamps the span(s) for one completed direct drive read. Die-stall
/// queueing becomes its own blame span — `die_stall_program`,
/// `die_stall_erase`, or `gc_interference` — ahead of the `drive_read`
/// service span, so the critical-path folder attributes tail time to
/// its cause rather than to generic drive queueing.
fn stamp_drive_read(
    tr: &mut OpTrace,
    dr: &purity_ssd::DeviceRead,
    drive: DriveId,
    now: Nanos,
    fallback: bool,
) {
    let prefix = if fallback {
        "fallback (too few columns to rebuild): "
    } else {
        ""
    };
    match stall_stage(dr) {
        Some(stage) => {
            // The critical-path page's completion is exactly
            // now + queued + service, so the stall span and the service
            // span partition [now, done].
            let split = now + dr.queued;
            tr.stage_note(
                stage,
                now,
                split,
                format!(
                    "{prefix}queued {} behind {} on die {} of drive {}",
                    format_nanos(dr.queued),
                    dr.stall.map(|c| c.as_str()).unwrap_or("?"),
                    dr.die,
                    drive
                ),
            );
            tr.stage("drive_read", split, dr.done);
        }
        None => {
            let note = match dr.stall {
                Some(cause) => format!(
                    "{prefix}queued {} behind {} on die {} of drive {}",
                    format_nanos(dr.queued),
                    cause.as_str(),
                    dr.die,
                    drive
                ),
                None => format!("{prefix}direct from drive {}", drive),
            };
            tr.stage_note("drive_read", now, dr.done, note);
        }
    }
}

/// Stamps the span(s) for one completed rebuild, the way
/// [`stamp_drive_read`] does for a direct read: the time the critical
/// source column (`crit`, the last to arrive) spent queued behind a
/// program or an erase is charged to that cause, and only the rest of
/// `[now, done)` to `reconstruct`.
fn stamp_reconstruct(
    tr: &mut OpTrace,
    crit: &purity_ssd::DeviceRead,
    crit_drive: DriveId,
    now: Nanos,
    note: String,
) {
    let mut from = now;
    if let Some(stage) = stall_stage(crit) {
        from = now + crit.queued;
        tr.stage_note(
            stage,
            now,
            from,
            format!(
                "rebuild source queued {} behind {} on die {} of drive {}",
                format_nanos(crit.queued),
                crit.stall.map(|c| c.as_str()).unwrap_or("?"),
                crit.die,
                crit_drive
            ),
        );
    }
    tr.stage_note("reconstruct", from, crit.done, note);
}

/// The other columns of `ext`'s stripe a rebuild could read, soonest
/// first: `(estimated completion, column)`, from the non-booking
/// [`Shelf::read_eta`] at `now`. Columns whose drive would refuse the
/// read are left out.
fn rebuild_sources(
    shelf: &Shelf,
    info: &SegmentInfo,
    layout: &SegmentLayout,
    ext: &Extent,
    now: Nanos,
) -> Vec<(Nanos, usize)> {
    let mut sources: Vec<(Nanos, usize)> = (0..info.columns.len())
        .filter(|&c| c != ext.column)
        .filter_map(|c| {
            let au = info.columns[c];
            let off = layout.wu_byte_offset(au.index, ext.stripe, ext.within);
            Some((shelf.read_eta(au.drive, off, ext.len, now)?.end, c))
        })
        .collect();
    sources.sort_unstable();
    sources
}

/// The §4.4 scheduling decision for one extent, taken from the schedule
/// the array itself made and booking nothing: `Some(sources)` to rebuild
/// it from the other columns (see [`rebuild_sources`]), `None` to read
/// it from its own drive.
///
/// A failed drive's data is always rebuilt. With read-around enabled, so
/// is the data of a drive the array writes to at any point of the span
/// the direct read would occupy it — but only when the `k` soonest
/// other columns would all have delivered before the drive so much as
/// starts on the direct read. A rebuild that merely shaves part of one
/// page read off the wait costs `k` page reads to do it: it moves the
/// wait onto whoever reads those dies next.
pub(crate) fn plan_rebuild(
    shelf: &Shelf,
    info: &SegmentInfo,
    layout: &SegmentLayout,
    read_around: bool,
    ext: &Extent,
    now: Nanos,
) -> Option<Vec<(Nanos, usize)>> {
    let au = info.columns[ext.column];
    if shelf.drive(au.drive).is_failed() {
        return Some(rebuild_sources(shelf, info, layout, ext, now));
    }
    // Most reads meet a drive with no write scheduled at all, and need
    // no estimate to know it.
    if !read_around || !shelf.writes_overlap(au.drive, now, Nanos::MAX) {
        return None;
    }
    // An extent the drive would refuse has no estimate: go direct and let
    // the media error choose the rebuild.
    let off = layout.wu_byte_offset(au.index, ext.stripe, ext.within);
    let direct = shelf.read_eta(au.drive, off, ext.len, now)?;
    if !shelf.writes_overlap(au.drive, now, direct.end) {
        return None;
    }
    // At a pair hand-off four drives are within one read of a program and
    // fewer than k columns are clear: waiting out the window that is
    // ending is then the cheapest plan.
    let sources = rebuild_sources(shelf, info, layout, ext, now);
    (sources.len() >= layout.k && sources[layout.k - 1].0 < direct.start).then_some(sources)
}

/// Reads one extent of a segment as [`plan_rebuild`] decides: from its
/// own drive, or rebuilt from `k` other columns via Reed-Solomon. A
/// direct read that meets a media error falls through to the rebuild; a
/// rebuild that finds too few readable columns falls back to waiting on
/// the busy drive.
#[allow(clippy::too_many_arguments)]
pub(crate) fn read_extent(
    shelf: &mut Shelf,
    info: &SegmentInfo,
    layout: &SegmentLayout,
    rs: &ReedSolomon,
    read_around: bool,
    stats: &mut ArrayStats,
    ext: &Extent,
    now: Nanos,
    mut trace: Option<&mut OpTrace>,
) -> Result<(Vec<u8>, Nanos)> {
    let au = info.columns[ext.column];
    let k = layout.k;
    let off = layout.wu_byte_offset(au.index, ext.stripe, ext.within);
    let failed = shelf.drive(au.drive).is_failed();
    let plan = plan_rebuild(shelf, info, layout, read_around, ext, now);
    let mut media_error = false;
    if plan.is_none() {
        match shelf.read_drive_traced(au.drive, off, ext.len, now) {
            Ok(dr) => {
                stats.direct_reads += 1;
                stats.read_queueing.record(dr.queued);
                stats.read_service.record(dr.service);
                stats
                    .direct_read_latency
                    .record(dr.done.saturating_sub(now));
                if let Some(tr) = trace.as_deref_mut() {
                    stamp_drive_read(tr, &dr, au.drive, now, false);
                }
                return Ok((dr.data, dr.done));
            }
            Err(_) => media_error = true, // corrupt page: rebuild below
        }
    }

    // Reconstruct from the k other columns that deliver soonest.
    let sources = plan.unwrap_or_else(|| rebuild_sources(shelf, info, layout, ext, now));
    let mut available: Vec<(usize, Vec<u8>)> = Vec::with_capacity(k);
    // The source read that arrives last, and its drive.
    let mut crit: Option<(purity_ssd::DeviceRead, DriveId)> = None;
    for (_, c) in sources {
        if available.len() == k {
            break;
        }
        let cau = info.columns[c];
        let coff = layout.wu_byte_offset(cau.index, ext.stripe, ext.within);
        let Ok(mut dr) = shelf.read_drive_traced(cau.drive, coff, ext.len, now) else {
            continue;
        };
        available.push((c, std::mem::take(&mut dr.data)));
        if crit.as_ref().is_none_or(|(worst, _)| dr.done > worst.done) {
            crit = Some((dr, cau.drive));
        }
    }
    if available.len() >= k {
        let (crit, crit_drive) = crit.expect("k >= 1 source columns were read");
        let done = crit.done;
        let refs: Vec<(usize, &[u8])> = available.iter().map(|(c, b)| (*c, b.as_slice())).collect();
        let rebuilt = rs
            .reconstruct_one(ext.column, &refs)
            .map_err(|e| PurityError::DataLoss(format!("reconstruction failed: {}", e)))?;
        stats.reconstructed_reads += 1;
        stats.reconstruction_extra_reads += (k - 1) as u64;
        stats
            .reconstructed_read_latency
            .record(done.saturating_sub(now));
        if let Some(tr) = trace.as_deref_mut() {
            let why = if failed {
                format!("drive {} failed", au.drive)
            } else if media_error {
                format!("media error on drive {}", au.drive)
            } else {
                format!("read-around: drive {} busy writing", au.drive)
            };
            let note = format!("{why}; rebuilt column {} from {k} columns", ext.column);
            stamp_reconstruct(tr, &crit, crit_drive, now, note);
        }
        return Ok((rebuilt, done));
    }

    // Not enough healthy columns to rebuild. If we only came here to
    // dodge a *busy* drive, fall back to queueing behind it — slower, but
    // available (the scheduler is an optimization, not a requirement).
    let mut fallback_err = String::new();
    if !failed && !media_error {
        match shelf.read_drive_traced(au.drive, off, ext.len, now) {
            Ok(dr) => {
                stats.direct_reads += 1;
                stats.read_queueing.record(dr.queued);
                stats.read_service.record(dr.service);
                stats
                    .direct_read_latency
                    .record(dr.done.saturating_sub(now));
                if let Some(tr) = trace {
                    stamp_drive_read(tr, &dr, au.drive, now, true);
                }
                return Ok((dr.data, dr.done));
            }
            Err(e) => fallback_err = format!("; fallback: {}", e),
        }
    }
    Err(PurityError::Unavailable(format!(
        "only {} of {} columns readable for segment {:?} (target column {}, drive {}{}{})",
        available.len(),
        k,
        info.id,
        ext.column,
        au.drive,
        if failed {
            ", failed"
        } else if media_error {
            ", media error"
        } else {
            ", busy"
        },
        fallback_err
    )))
}

/// A fetched cblock.
pub(crate) struct Fetched {
    /// The decoded payload.
    pub payload: Arc<Vec<u8>>,
    /// The stored (encoded) bytes `payload` was decoded from. `None` on
    /// a cache hit, which reads no device.
    pub stored: Option<Vec<u8>>,
    /// Completion time.
    pub done: Nanos,
}

/// The fetch path's borrow of the controller — everything a cblock
/// fetch touches. It is also the dedup engine's view of stored blocks,
/// which is why the engine is not part of it.
pub(crate) struct CtrlFetcher<'a> {
    shelf: &'a mut Shelf,
    cache: &'a mut RamCache<Pba>,
    segments: &'a BTreeMap<u64, SegmentInfo>,
    writer: &'a SegmentWriter,
    layout: &'a SegmentLayout,
    rs: &'a ReedSolomon,
    read_around: bool,
    stats: &'a mut ArrayStats,
    now: Nanos,
}

impl CtrlFetcher<'_> {
    /// Cache → open-segment pending buffer → flash, then decode.
    fn fetch_cblock(&mut self, pba: &Pba, mut trace: Option<&mut OpTrace>) -> Result<Fetched> {
        let now = self.now;
        if let Some(payload) = self.cache.get(pba) {
            self.stats.cache_reads += 1;
            if let Some(tr) = trace.as_deref_mut() {
                tr.stage("cache_hit", now, now);
            }
            return Ok(Fetched {
                payload,
                stored: None,
                done: now,
            });
        }
        let (raw, done) = if crate::tier::cold_drive_of(pba).is_some() {
            // Cold-resident cblock: one contiguous slot read off the QLC
            // pool, no striping, no parity — the read pays the full
            // device penalty.
            let (raw, t) = Controller::read_cold_cblock(self.shelf, pba, now)?;
            self.stats.cold_reads += 1;
            if let Some(tr) = trace.as_deref_mut() {
                tr.stage("cold_read", now, t);
            }
            (raw, t)
        } else {
            self.read_stored(pba, trace)?
        };
        let payload =
            Arc::new(purity_compress::decompress(&raw).map_err(|e| {
                PurityError::DataLoss(format!("cblock decode at {:?}: {}", pba, e))
            })?);
        self.cache.put(*pba, payload.clone());
        Ok(Fetched {
            payload,
            stored: Some(raw),
            done,
        })
    }

    /// Reads a flash-resident cblock's stored bytes. A cblock in the open
    /// segment may straddle the flush boundary: head bytes already on
    /// flash, tail still in the pending DRAM buffer.
    fn read_stored(
        &mut self,
        pba: &Pba,
        mut trace: Option<&mut OpTrace>,
    ) -> Result<(Vec<u8>, Nanos)> {
        let now = self.now;
        let len = pba.stored_len as usize;
        let flash_len = match self.writer.flushed_boundary(pba.segment) {
            Some(boundary) => (boundary.saturating_sub(pba.offset) as usize).min(len),
            None => len,
        };
        if flash_len == 0 {
            let bytes = self
                .writer
                .read_pending(pba.segment, pba.offset, len)
                .ok_or_else(|| PurityError::Internal(format!("pending read miss at {:?}", pba)))?;
            if let Some(tr) = trace.as_deref_mut() {
                tr.stage("pending_buffer", now, now);
            }
            return Ok((bytes, now));
        }
        let info = self
            .segments
            .get(&pba.segment.0)
            .ok_or_else(|| PurityError::Internal(format!("unknown segment {:?}", pba.segment)))?;
        // Reading around a write buys latency for the op that waits on
        // the read. A fetch that carries no op's trace — GC or tier
        // relocation, dedup verification — has nobody waiting: a rebuild
        // would spend k reads to save time no one is counting.
        let read_around = self.read_around && trace.is_some();
        // The first extent's bytes become the buffer: most cblocks are
        // one extent, and need no second copy.
        let mut buf = Vec::new();
        let mut done = now;
        for ext in self.layout.data_extents(pba.offset, flash_len) {
            let (bytes, t) = read_extent(
                self.shelf,
                info,
                self.layout,
                self.rs,
                read_around,
                self.stats,
                &ext,
                now,
                trace.as_deref_mut(),
            )?;
            done = done.max(t);
            if buf.is_empty() {
                buf = bytes;
            } else {
                buf.extend_from_slice(&bytes);
            }
        }
        if flash_len < len {
            let tail = self
                .writer
                .read_pending(pba.segment, pba.offset + flash_len as u64, len - flash_len)
                .ok_or_else(|| PurityError::Internal(format!("pending tail miss at {:?}", pba)))?;
            buf.extend_from_slice(&tail);
        }
        Ok((buf, done))
    }

    fn payload(&mut self, pba: &Pba) -> Option<Arc<Vec<u8>>> {
        self.fetch_cblock(pba, None).ok().map(|f| f.payload)
    }
}

impl BlockFetcher<BlockLoc> for CtrlFetcher<'_> {
    fn fetch(&mut self, loc: &BlockLoc, delta: i64) -> Option<Vec<u8>> {
        let sector = (loc.sector as i64).checked_add(delta)?;
        if sector < 0 {
            return None;
        }
        let payload = self.payload(&loc.pba)?;
        let start = sector as usize * SECTOR;
        (start + SECTOR <= payload.len()).then(|| payload[start..start + SECTOR].to_vec())
    }

    fn displace(&self, loc: &BlockLoc, delta: i64) -> Option<BlockLoc> {
        let sector = (loc.sector as i64).checked_add(delta)?;
        // Bounded by the cblock's payload; fetch() enforces the upper
        // bound against actual payload length.
        (0..=u16::MAX as i64).contains(&sector).then_some(BlockLoc {
            pba: loc.pba,
            sector: sector as u16,
        })
    }

    fn matches(&mut self, loc: &BlockLoc, delta: i64, expect: &[u8]) -> Option<bool> {
        let sector = (loc.sector as i64).checked_add(delta)?;
        if sector < 0 {
            return None;
        }
        let payload = self.payload(&loc.pba)?;
        let start = sector as usize * SECTOR;
        (start + SECTOR <= payload.len()).then(|| &payload[start..start + SECTOR] == expect)
    }
}
