//! The controller: Purity's brain.
//!
//! Owns every table and policy — the global VBA map pyramid, the segment
//! and medium tables, the allocator, the dedup engine, the DRAM cache,
//! the segment writer. This file holds that state, the volume and
//! snapshot lifecycle (committed through NVRAM), and patch persistence
//! and checkpointing (§4.3). The paths live beside it: the write path
//! (§4.6–4.8) in [`crate::write`], the read path with read-around-writes
//! scheduling (§4.4) in [`crate::read`], relocation in [`crate::gc`], and
//! construction and recovery in [`crate::recovery`]. Controllers are
//! deliberately stateless with respect to the shelf (§4.1): everything
//! here is reconstructable from the boot region, segment log records and
//! NVRAM, which is exactly what [`Controller::recover`] does on the
//! standby.

use crate::bootregion::{BootRegion, Checkpoint, PatchLoc, SnapMeta, VolumeMeta};
use crate::config::ArrayConfig;
use crate::error::{PurityError, Result};
use crate::frontier::AuAllocator;
use crate::medium::MediumTable;
use crate::records::{encode_meta, map_patch_records, MediumFact, MetaIntent, MetaOp};
use crate::segment::{SegmentInfo, SegmentWriter, COLD, HOT};
use crate::shelf::Shelf;
use crate::stats::ArrayStats;
use crate::tier::TierState;
use crate::types::{BlockLoc, MediumId, Pba, SnapshotId, VolumeId, SECTOR};
use parking_lot::RwLock;
use purity_dedup::engine::DedupEngine;
use purity_format::RangeTable;
use purity_lsm::{ElideFilter, Pyramid, RangeElision, Seq, SeqAllocator};
use purity_obs::{Frame, Obs};
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
/// [`Controller::flush_map_patch`] owns flushing (and a GC pass, which
/// compacts the memtable into the map it rewrites).
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
    pub(crate) seq: SeqAllocator,
    /// The global VBA map (§4.5: "a single mapping structure for all
    /// user data, regardless of the volume").
    pub(crate) map: Pyramid<MapKey, MapVal>,
    pub(crate) segments: BTreeMap<u64, SegmentInfo>,
    pub(crate) mediums: MediumTable,
    pub(crate) volumes: BTreeMap<u64, Volume>,
    pub(crate) snapshots: BTreeMap<u64, Snapshot>,
    /// Per device class ([`HOT`], [`COLD`]): its AU allocator.
    pub(crate) allocators: [AuAllocator; 2],
    pub(crate) boot: BootRegion,
    /// Per device class: its segment writer — open segment, layout and
    /// Reed-Solomon code.
    pub(crate) writers: [SegmentWriter; 2],
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
    /// The intent sizes of the write in progress, its NVRAM commit
    /// group; kept so each write reuses one buffer.
    pub(crate) intent_sizes: Vec<usize>,
    /// Tiering engine state: each volume's reads and the tick clock.
    /// Volatile — a failover hands it over, a cold start re-learns it.
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

impl Controller {
    // ------------------------------------------------------------------
    // Volume lifecycle (metadata operations commit through NVRAM).
    // ------------------------------------------------------------------

    fn commit_meta(&mut self, shelf: &mut Shelf, op: MetaOp, now: Nanos) -> Result<(Seq, Nanos)> {
        let seq = self.seq.next();
        let bytes = encode_meta(&MetaIntent { seq, op });
        let len = bytes.len();
        self.nvram_log(shelf, bytes, now)?;
        Ok((seq, shelf.nvram_program(&[len], now)))
    }

    /// Logs one NVRAM record, checkpointing first (which trims the log)
    /// if it would not fit. The caller books its commit group.
    pub(crate) fn nvram_log(
        &mut self,
        shelf: &mut Shelf,
        bytes: Vec<u8>,
        now: Nanos,
    ) -> Result<()> {
        if !shelf.nvram().fits(bytes.len()) {
            self.write_checkpoint(shelf, now)?;
        }
        self.last_nvram_index = Some(shelf.nvram_log(bytes)?);
        Ok(())
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
    // Persistence: patch flush + checkpoint (§4.3, Figure 4).
    // ------------------------------------------------------------------

    /// Flushes the map memtable into a patch and persists it as one log
    /// record in the open segment.
    pub fn flush_map_patch(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<()> {
        if self.map.memtable_facts() == 0 {
            return Ok(());
        }
        self.persist_memtable_data(shelf, now)?;
        let patch = self.map.flush().expect("memtable non-empty");
        let facts = patch.range_slice(Bound::Unbounded, Bound::Unbounded);
        for bytes in map_patch_records(facts, facts.len()) {
            let loc = self.append_log_record(shelf, &bytes, now)?;
            self.map_patches.push(loc);
        }
        Ok(())
    }

    /// Pads both classes' pending data to the drives: the data the
    /// memtable's facts point at must be durable before they are.
    pub(crate) fn persist_memtable_data(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<()> {
        for class in [HOT, COLD] {
            self.writers[class].pad_flush_data(shelf, now)?;
            self.sync_open_segment(class);
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
            if self.writers[HOT].open_segment().is_none() {
                // Metadata may dig into the reserve.
                self.open_new_segment(shelf, HOT, true, now)?;
            }
            let (placed, full) = self.writers[HOT].append_log(shelf, bytes, now)?;
            if let Some((offset, _t)) = placed {
                self.writers[HOT].flush_log(shelf, now)?;
                self.sync_open_segment(HOT);
                let segment = self.writers[HOT].open_segment().expect("open").id.0;
                return Ok(PatchLoc {
                    segment,
                    log_offset: offset,
                    len: bytes.len() as u64,
                });
            }
            if full {
                self.seal_open_segment(shelf, HOT, now)?;
            }
        }
        Err(PurityError::Internal("could not append log record".into()))
    }

    /// Writes a boot record *without* trimming NVRAM, so it is safe
    /// mid-operation (a map patch may be in flight): the frontier refresh
    /// when the hot allocator ran dry, and what makes a new cold segment
    /// durable before its first write.
    pub(crate) fn persist_frontier(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<Nanos> {
        self.checkpoint_version += 1;
        let cp = self.build_checkpoint();
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
        let t = self.persist_frontier(shelf, now)?;
        if let Some(idx) = trim_to {
            shelf.nvram_trim(idx)?;
        }
        self.stats.checkpoints += 1;
        Ok(t)
    }

    /// The checkpoint of the current tables, topping the hot frontier up
    /// first if any drive's persisted set ran dry.
    fn build_checkpoint(&mut self) -> Checkpoint {
        let hot = &mut self.allocators[HOT];
        let frontier = if hot.any_needs_persist() {
            hot.build_persist_set()
        } else {
            hot.snapshot_persisted()
        };
        let width = self.cfg.stripe_width();
        Checkpoint {
            version: self.checkpoint_version,
            watermark: self.seq.high_water(),
            high_seq: self.seq.high_water(),
            next_segment: self.next_segment,
            next_medium: self.next_medium,
            next_volume: self.next_volume,
            next_snapshot: self.next_snapshot,
            frontier,
            segment_rows: (self.segments.values()).map(|s| s.to_row(width)).collect(),
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
    pub(crate) fn maybe_background(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<()> {
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

    /// Writes every controller-owned series — data path, per-volume
    /// reads, map pyramid — into `out`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FlashArray;
    use purity_sim::SEC;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::ops::Range;

    const BLOCK: usize = 4096;

    impl Controller {
        /// Resolves one sector through the medium chain and the map.
        pub(crate) fn resolve_sector(&self, medium: MediumId, sector: u64) -> Option<MapVal> {
            let entry = self.resolve_range_entries(medium, sector, 1).pop()?;
            entry.map(|(_, v)| v)
        }
    }

    /// `n` 4 KiB writes in volume order, each sector half random and half
    /// constant, so each block is one cblock stored at about half its
    /// size: two to a page, packed back to back. The first stripe is on
    /// flash, the rest still in the open segment's pending buffer, and no
    /// write is in flight.
    fn packed(n: u64) -> (FlashArray, VolumeId, Vec<u8>) {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let vol = a.create_volume("packed", n * BLOCK as u64).unwrap();
        let mut rng = StdRng::seed_from_u64(n);
        let mut image = vec![0x5a; n as usize * BLOCK];
        for (i, block) in image.chunks_mut(BLOCK).enumerate() {
            for sector in block.chunks_mut(SECTOR) {
                rng.fill(&mut sector[..SECTOR / 2]);
            }
            a.write(vol, (i * BLOCK) as u64, block).unwrap();
        }
        a.advance(SEC);
        (a, vol, image)
    }

    /// The cblocks behind `blocks` of `vol`, one per block.
    fn pbas(a: &FlashArray, vol: VolumeId, blocks: Range<u64>) -> Vec<Pba> {
        let c = a.controller();
        let per_block = (BLOCK / SECTOR) as u64;
        let n_sectors = (blocks.end - blocks.start) * per_block;
        let anchor = c.volume(vol).unwrap().anchor;
        let mut pbas: Vec<Pba> =
            (c.resolve_range_entries(anchor, blocks.start * per_block, n_sectors as usize))
                .into_iter()
                .map(|entry| entry.unwrap().1.loc.pba)
                .collect();
        pbas.dedup();
        assert_eq!(pbas.len() as u64, blocks.end - blocks.start);
        pbas
    }

    fn end(pba: &Pba) -> u64 {
        pba.offset + u64::from(pba.stored_len)
    }

    fn read_blocks(a: &mut FlashArray, vol: VolumeId, blocks: &Range<u64>) -> Vec<u8> {
        let len = (blocks.end - blocks.start) as usize * BLOCK;
        a.read(vol, blocks.start * BLOCK as u64, len).unwrap().0
    }

    fn uncache(a: &mut FlashArray) {
        a.controller_and_shelf().0.cache.invalidate(|_| true);
    }

    /// Page reads booked on the hot drives so far.
    fn flash_reads(a: &mut FlashArray) -> u64 {
        let (_, shelf) = a.controller_and_shelf();
        (0..shelf.n_drives())
            .map(|d| shelf.drive(d).flash_counters().reads)
            .sum()
    }

    /// A read of the cblocks packed into one write unit books each page
    /// they cover once. Fetched one by one, they booked every page once
    /// per cblock on it, in series on its die.
    #[test]
    fn a_run_books_each_page_once() {
        let (mut a, vol, image) = packed(160);
        let page = a.config().ssd_geometry.page_size as u64;
        let wu = a.config().write_unit_bytes as u64;
        let all = pbas(&a, vol, 0..160);
        let n = all.iter().take_while(|p| end(p) <= wu).count();
        let run = &all[..n];
        assert!(n >= 8 && run.iter().all(|p| p.segment == run[0].segment));
        let pages = |lo: u64, hi: u64| (hi - 1) / page - lo / page + 1;
        let distinct = pages(run[0].offset, end(&run[n - 1]));
        let per_cblock: u64 = run.iter().map(|p| pages(p.offset, end(p))).sum();
        assert!(per_cblock > distinct, "setup: no page is shared");

        let (before, rebuilt) = (flash_reads(&mut a), a.stats().reconstructed_reads);
        let blocks = 0..n as u64;
        assert_eq!(read_blocks(&mut a, vol, &blocks), image[..n * BLOCK]);
        assert_eq!(
            flash_reads(&mut a) - before,
            distinct,
            "{n} cblocks on {distinct} pages ({per_cblock} cblock-pages)"
        );
        assert_eq!(a.stats().reconstructed_reads, rebuilt);
    }

    /// Runs read back what was written wherever they lie: across the open
    /// segment's flush boundary, on either side of a cache hit that
    /// splits them, and over a corrupt page, whose extent is rebuilt from
    /// parity while every cblock in the run still decodes.
    #[test]
    fn runs_read_back_what_was_written() {
        const N: u64 = 160;
        let (mut a, vol, image) = packed(N);
        let want =
            |r: &Range<u64>| image[r.start as usize * BLOCK..r.end as usize * BLOCK].to_vec();
        let all = pbas(&a, vol, 0..N);
        let segment = all[0].segment;
        assert!(all.iter().all(|p| p.segment == segment));

        // Across the flush boundary: head on flash, tail in DRAM.
        let boundary = a.controller().writers[HOT]
            .flushed_boundary(segment)
            .unwrap();
        let b = all.iter().position(|p| end(p) > boundary).unwrap() as u64;
        let across = b - 4..b + 4;
        assert!(
            all[across.start as usize].offset < boundary && end(&all[b as usize + 3]) > boundary
        );
        uncache(&mut a);
        assert_eq!(read_blocks(&mut a, vol, &across), want(&across));

        // Around a cache hit: two runs.
        uncache(&mut a);
        let hit = b - 20;
        read_blocks(&mut a, vol, &(hit..hit + 1));
        let hits = a.stats().cache_reads;
        let around = hit - 4..hit + 4;
        assert_eq!(read_blocks(&mut a, vol, &around), want(&around));
        assert_eq!(a.stats().cache_reads, hits + 1);

        // Over a corrupt page in the middle of a run.
        let victim = all[16];
        let layout = *a.controller().writers[HOT].layout();
        let ext = layout.data_extents(victim.offset, 1)[0];
        let au = a.controller().segments[&segment.0].columns[ext.column];
        let at = layout.wu_byte_offset(au.index, ext.stripe, ext.within);
        assert!(a.corrupt_drive_at(au.drive, at));
        uncache(&mut a);
        let rebuilt = a.stats().reconstructed_reads;
        let over = 8..24;
        assert_eq!(read_blocks(&mut a, vol, &over), want(&over));
        assert!(
            a.stats().reconstructed_reads > rebuilt,
            "the corrupt extent was not rebuilt"
        );
    }
}
