//! Tiering executor: the crash-safe half of the five-minute-rule engine.
//!
//! `purity-tier` decides *what* should move (heat watcher, reconciler);
//! this module decides *how*, against the array's real durability
//! machinery:
//!
//! * **Cold addressing** — demoted cblocks live on the QLC-like cold
//!   drive pool in fixed-size slots. A cold location is an ordinary
//!   [`Pba`] whose segment id sits in a reserved pseudo-segment
//!   namespace ([`COLD_SEG_BASE`] + drive index), so map facts, patches
//!   and checkpoints carry cold locations with zero format changes.
//!   Cold pseudo-segments are *never* entered into the controller's
//!   segment table: GC cannot pick them as victims and recovery's
//!   segment bookkeeping never sees them.
//! * **Demotion** is copy-then-switch through GC's relocation primitive
//!   (`Controller::relocate`): fetch and decode the live cblock, write
//!   its stored bytes to the cold slot, then rewrite the referencing
//!   map keys with fresh-seq facts. Until those facts reach
//!   a patch + checkpoint, recovery replays the *old* facts — which
//!   still point at the flash copy GC has not freed (GC frees victims
//!   only after its own checkpoint, which flushes these facts first).
//!   Power loss mid-demotion therefore never loses an acked write and
//!   never serves stale data: the move simply un-happens.
//! * **Slot reclamation** — a slot whose last referencing fact was
//!   superseded (overwrite, promotion) is swept into `pending_free` and
//!   returned to the allocator only inside [`Controller::write_checkpoint`],
//!   *after* the boot record that makes the superseding facts durable.
//!   Reusing it earlier could let a crash resurrect old facts pointing
//!   at a rewritten slot — the stale-read hazard the checkpoint barrier
//!   exists to prevent.
//! * **Recovery** rebuilds the cold allocator by scanning the recovered
//!   map for live cold references; slots a crash orphaned mid-demotion
//!   simply show up unreferenced and return to the free set.

use crate::config::ArrayConfig;
use crate::controller::{Controller, MapKey, MapVal};
use crate::error::{PurityError, Result};
use crate::shelf::Shelf;
use crate::types::{Pba, SegmentId};
use purity_obs::{Frame, OpTrace};
use purity_sim::Nanos;
use purity_tier::plan::VolumePlacement;
use purity_tier::{HeatPolicy, HeatWatcher, MigrationPlan, Move, Reconciler};
use std::collections::{BTreeMap, BTreeSet};

/// First segment id of the cold pseudo-segment namespace. Real segment
/// ids are sequential from 1; 2^62 leaves the namespaces disjoint for
/// any conceivable array lifetime.
pub(crate) const COLD_SEG_BASE: u64 = 1 << 62;

/// The cold drive index a pseudo-segment id addresses, if it is one.
pub(crate) fn cold_drive_of(pba: &Pba) -> Option<usize> {
    (pba.segment.0 >= COLD_SEG_BASE).then(|| (pba.segment.0 - COLD_SEG_BASE) as usize)
}

/// A volume's live map entries — map key `(medium, sector)` plus its
/// current value — ordered by backing pba, so each cblock's references
/// are one run (in key order) and cblocks come in pba order.
type VolumeRefs = Vec<(MapKey, MapVal)>;

/// The per-cblock runs of a volume's refs.
fn cblocks(refs: &VolumeRefs) -> impl Iterator<Item = &[(MapKey, MapVal)]> {
    refs.chunk_by(|a, b| a.1.loc.pba == b.1.loc.pba)
}

/// How many of a volume's live cblocks sit on flash vs cold.
fn placement(refs: &VolumeRefs) -> VolumePlacement {
    let mut placement = VolumePlacement::default();
    for cblock in cblocks(refs) {
        if cold_drive_of(&cblock[0].1.loc.pba).is_some() {
            placement.cold_cblocks += 1;
        } else {
            placement.flash_cblocks += 1;
        }
    }
    placement
}

/// One volume-level migration executed this tick (reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutedMove {
    /// Volume the move concerned.
    pub volume: u64,
    /// True = demotion to cold, false = promotion to flash.
    pub demote: bool,
    /// cblocks actually copied.
    pub cblocks: usize,
}

/// Report of one migrator tick (tests, exhibits).
#[derive(Debug, Clone, Default)]
pub struct TierTickReport {
    /// Moves executed, in plan order.
    pub moves: Vec<ExecutedMove>,
    /// Cold slots swept into `pending_free` by the liveness sweep.
    pub slots_swept: usize,
}

/// Volatile tiering state owned by the controller. Everything here is
/// reconstructible: heat re-learns, and the cold allocator is rebuilt
/// from the recovered map on every cold start.
#[derive(Debug)]
pub struct TierState {
    /// Per-volume heat from the flight recorder's read time-series.
    pub watcher: HeatWatcher,
    /// Free cold slots, ascending `(drive, slot)` — allocation takes the
    /// lowest, so placement is deterministic.
    free_slots: BTreeSet<(usize, u64)>,
    /// Slots referenced (or possibly referenced) by map facts.
    used_slots: BTreeSet<(usize, u64)>,
    /// Dead slots awaiting the checkpoint durability barrier.
    pending_free: Vec<(usize, u64)>,
    /// Virtual time of the last migrator tick.
    last_tick_at: Nanos,
    /// Recorder intervals already folded into the watcher.
    heat_intervals_seen: u64,
    /// Cumulative reads per volume (published as `volume_reads`).
    pub(crate) vol_reads: BTreeMap<u64, u64>,
}

impl TierState {
    /// Fresh state for a formatted or recovered controller: every slot
    /// free, no heat history.
    pub(crate) fn new(cfg: &ArrayConfig) -> Self {
        let mut free_slots = BTreeSet::new();
        for d in 0..cfg.cold_drives {
            for s in 0..cfg.cold_slots_per_drive() as u64 {
                free_slots.insert((d, s));
            }
        }
        Self {
            watcher: HeatWatcher::new(),
            free_slots,
            used_slots: BTreeSet::new(),
            pending_free: Vec::new(),
            last_tick_at: 0,
            heat_intervals_seen: 0,
            vol_reads: BTreeMap::new(),
        }
    }

    /// Writes the tiering engine's series into `out`: cold-pool
    /// occupancy and the per-volume read counts of `volumes` (the live
    /// ones) that feed the heat watcher.
    pub(crate) fn collect<'v>(&self, volumes: impl Iterator<Item = &'v u64>, out: &mut Frame<'_>) {
        out.gauge("tier_cold_slots_free", &[], self.free_slots.len() as i64);
        out.gauge("tier_cold_slots_used", &[], self.used_slots.len() as i64);
        out.gauge(
            "tier_cold_slots_pending_free",
            &[],
            self.pending_free.len() as i64,
        );
        for vol in volumes {
            out.counter(
                "volume_reads",
                &[("volume", &vol.to_string())],
                self.volume_reads(*vol),
            );
        }
    }

    /// Cumulative reads of one volume since this controller booted.
    pub(crate) fn volume_reads(&self, volume: u64) -> u64 {
        self.vol_reads.get(&volume).copied().unwrap_or(0)
    }

    /// Whether a slot is currently marked used (integrity checks).
    pub(crate) fn slot_used(&self, drive: usize, slot: u64) -> bool {
        self.used_slots.contains(&(drive, slot))
    }

    /// Whether a slot still holds its last occupant's bytes: used, or
    /// dead but not yet released for reuse (integrity checks).
    pub(crate) fn slot_held(&self, drive: usize, slot: u64) -> bool {
        self.slot_used(drive, slot) || self.pending_free.contains(&(drive, slot))
    }
}

impl Controller {
    /// Runs the watcher → reconciler → migrator loop if a tick is due.
    /// Called from [`crate::FlashArray::advance`]; a no-op unless the
    /// config enables the cold tier and the tick interval elapsed.
    pub fn tier_maintenance(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<TierTickReport> {
        let mut report = TierTickReport::default();
        if !self.cfg.tiering_enabled() || self.cfg.tier_interval_ns == 0 {
            return Ok(report);
        }
        if now.saturating_sub(self.tier.last_tick_at) < self.cfg.tier_interval_ns {
            return Ok(report);
        }
        self.tier.last_tick_at = now;
        self.feed_heat_from_recorder();

        // Desired vs actual placement, volume by volume (BTreeMap order).
        // Each volume is resolved once; its refs serve the placement
        // count and, if the plan moves it, the move.
        let policy = HeatPolicy::with_demote_after(self.cfg.tier_demote_after_ns);
        let mut refs: BTreeMap<u64, VolumeRefs> = (self.volumes.keys())
            .map(|&id| (id, self.volume_refs(id)))
            .collect();
        let placements = refs.iter().map(|(&id, r)| (id, placement(r))).collect();
        let plan: MigrationPlan =
            Reconciler::plan(&placements, &self.tier.watcher, now, &policy, 8);

        let mut budget = self.cfg.tier_migration_budget.max(1);
        let mut trace = (!plan.is_empty()).then(|| OpTrace::new("tier_migrate", now));
        let mut done = now;
        // A move repoints map keys, and a clone shares keys with its
        // parent: what was resolved before the first move is stale
        // after it.
        let mut repointed = false;
        for mv in &plan.moves {
            if budget == 0 {
                break;
            }
            let volume = mv.volume();
            let refs = match refs.remove(&volume) {
                Some(refs) if !repointed => refs,
                _ => self.volume_refs(volume),
            };
            let (moved, t) = match *mv {
                Move::Promote { .. } => {
                    self.promote_volume(shelf, refs, budget, now, trace.as_mut())?
                }
                Move::Demote { .. } => {
                    self.demote_volume(shelf, volume, refs, budget, now, trace.as_mut())?
                }
            };
            budget = budget.saturating_sub(moved);
            done = done.max(t);
            if moved > 0 {
                repointed = true;
                report.moves.push(ExecutedMove {
                    volume,
                    demote: matches!(mv, Move::Demote { .. }),
                    cblocks: moved,
                });
            }
        }
        if let Some(tr) = trace {
            self.obs.tracer.finish(tr, done);
        }
        report.slots_swept = self.sweep_cold_liveness();
        Ok(report)
    }

    /// Folds recorder intervals the watcher has not yet seen into the
    /// per-volume heat state.
    fn feed_heat_from_recorder(&mut self) {
        let rec = &self.obs.recorder;
        let total_closed = rec.dropped_intervals() + rec.intervals() as u64;
        let new = total_closed.saturating_sub(self.tier.heat_intervals_seen);
        if new == 0 {
            return;
        }
        let first_start = rec.first_interval_start();
        let interval = rec.interval_ns();
        let vols: Vec<u64> = self.volumes.keys().copied().collect();
        for vol in vols {
            let label = vol.to_string();
            let series = rec.counter_series("volume_reads", &[("volume", &label)]);
            let take = (new as usize).min(series.len());
            let skip = series.len() - take;
            for (j, &reads) in series.iter().enumerate().skip(skip) {
                let end = first_start + (j as u64 + 1) * interval;
                self.tier.watcher.observe(vol, reads, end);
            }
        }
        self.tier.heat_intervals_seen = total_closed;
    }

    /// The live refs of one volume: every map key its reads resolve
    /// through, with its current value.
    fn volume_refs(&self, volume: u64) -> VolumeRefs {
        let Some(v) = self.volumes.get(&volume) else {
            return Vec::new();
        };
        let entries = self.resolve_range_entries(v.anchor, 0, v.size_sectors as usize);
        // Neighbouring sectors mostly share a cblock, so order the runs
        // of one location, not the entries. Stable: a cblock's runs,
        // and so its refs, stay in key order.
        let pba_of = |e: &Option<(MapKey, MapVal)>| e.map(|(_, val)| val.loc.pba);
        let mut runs: Vec<_> = entries
            .chunk_by(|a, b| pba_of(a) == pba_of(b))
            .filter(|run| run[0].is_some())
            .collect();
        runs.sort_by_key(|run| pba_of(&run[0]));
        runs.into_iter().flatten().flatten().copied().collect()
    }

    /// Demotes up to `budget` of a volume's flash-resident cblocks (its
    /// current `refs`) to the cold pool: copy-then-switch, one fixed-size
    /// slot per cblock.
    fn demote_volume(
        &mut self,
        shelf: &mut Shelf,
        volume: u64,
        refs: VolumeRefs,
        budget: usize,
        now: Nanos,
        mut trace: Option<&mut OpTrace>,
    ) -> Result<(usize, Nanos)> {
        let slot_bytes = self.cfg.cold_slot_bytes();
        let mut moved = 0usize;
        let mut done = now;
        for refs in cblocks(&refs) {
            if moved >= budget {
                break;
            }
            if cold_drive_of(&refs[0].1.loc.pba).is_some() {
                continue;
            }
            let Some(&(d, slot)) = self.tier.free_slots.iter().next() else {
                break; // cold pool full
            };
            let page = self.cfg.cold_geometry.page_size;
            let mut t1 = now;
            let copy = self.relocate(shelf, refs, None, now, None, |ctrl, shelf, encoded| {
                if encoded.len() > slot_bytes {
                    return Err(PurityError::Internal(format!(
                        "encoded cblock ({} B) exceeds cold slot ({} B)",
                        encoded.len(),
                        slot_bytes
                    )));
                }
                let mut padded = encoded.to_vec();
                padded.resize(padded.len().div_ceil(page) * page, 0);
                let off = slot * slot_bytes as u64;
                t1 = shelf.write_cold(d, off as usize, &padded, now)?;
                ctrl.tier.free_slots.remove(&(d, slot));
                ctrl.tier.used_slots.insert((d, slot));
                Ok(Pba {
                    segment: SegmentId(COLD_SEG_BASE + d as u64),
                    offset: off,
                    stored_len: encoded.len() as u32,
                })
            })?;
            done = done.max(copy.fetched_at).max(t1);
            self.stats.tier_demotions += 1;
            self.stats.tier_bytes_demoted += copy.placed_bytes;
            if let Some(tr) = trace.as_deref_mut() {
                tr.stage_note(
                    "tier_demote",
                    now,
                    t1,
                    format!("vol {volume} cblock -> cold {d}:{slot}"),
                );
            }
            moved += 1;
        }
        Ok((moved, done))
    }

    /// Promotes up to `budget` of a volume's cold-resident cblocks (its
    /// current `refs`) back into the flash log. The vacated slots are
    /// reclaimed later by the liveness sweep + checkpoint barrier, never
    /// inline.
    fn promote_volume(
        &mut self,
        shelf: &mut Shelf,
        refs: VolumeRefs,
        budget: usize,
        now: Nanos,
        mut trace: Option<&mut OpTrace>,
    ) -> Result<(usize, Nanos)> {
        let mut moved = 0usize;
        let mut done = now;
        for refs in cblocks(&refs) {
            if moved >= budget {
                break;
            }
            if cold_drive_of(&refs[0].1.loc.pba).is_none() {
                continue;
            }
            let copy = match self.relocate(
                shelf,
                refs,
                None,
                now,
                trace.as_deref_mut(),
                |ctrl, shelf, encoded| ctrl.place_cblock_with(shelf, encoded, false, now),
            ) {
                Ok(copy) => copy,
                // Promotion is optional work: never eat the reserve, just
                // stop for this tick if flash is tight.
                Err(PurityError::OutOfSpace) => break,
                Err(e) => return Err(e),
            };
            done = done.max(copy.fetched_at);
            self.stats.tier_promotions += 1;
            self.stats.tier_bytes_promoted += copy.placed_bytes;
            moved += 1;
        }
        Ok((moved, done))
    }

    /// Sweeps cold slots no live fact references into `pending_free`.
    /// Dead slots arise from overwrites and promotions; they stay out of
    /// the allocator until [`Controller::write_checkpoint`] makes the
    /// superseding facts durable.
    pub(crate) fn sweep_cold_liveness(&mut self) -> usize {
        // No slot in use, none can be dead: skip the walk.
        if self.tier.used_slots.is_empty() {
            return 0;
        }
        let live = self.live_cold_slots();
        let dead: Vec<(usize, u64)> = self
            .tier
            .used_slots
            .iter()
            .filter(|s| !live.contains(s))
            .copied()
            .collect();
        for s in &dead {
            self.tier.used_slots.remove(s);
            self.tier.pending_free.push(*s);
        }
        dead.len()
    }

    /// The cold slots some live fact references.
    fn live_cold_slots(&self) -> BTreeSet<(usize, u64)> {
        let slot_bytes = self.cfg.cold_slot_bytes() as u64;
        let mut slots: Vec<(usize, u64)> = self
            .reachable_live()
            .iter()
            .filter_map(|(_key, val)| {
                cold_drive_of(&val.loc.pba).map(|d| (d, val.loc.pba.offset / slot_bytes))
            })
            .collect();
        // A cblock's sectors are neighbours: one entry per run.
        slots.dedup();
        slots.into_iter().collect()
    }

    /// Checkpoint hook: the boot record is durable, so slots freed by
    /// now-durable facts may re-enter the allocator. TRIM is advisory.
    pub(crate) fn release_pending_cold(&mut self, shelf: &mut Shelf) {
        if self.tier.pending_free.is_empty() {
            return;
        }
        let slot_bytes = self.cfg.cold_slot_bytes();
        let released = std::mem::take(&mut self.tier.pending_free);
        // The next occupant gets the same `Pba` whenever its encoded
        // length matches, so the old payload must leave the cache now.
        self.cache.invalidate(|p| {
            cold_drive_of(p).is_some_and(|d| released.contains(&(d, p.offset / slot_bytes as u64)))
        });
        for (d, slot) in released {
            let _ = shelf.trim_cold(d, (slot * slot_bytes as u64) as usize, slot_bytes);
            self.tier.free_slots.insert((d, slot));
        }
    }

    /// Recovery hook: rebuilds the cold allocator from the recovered
    /// map. Every slot a live fact references is used; everything else —
    /// including slots a crash orphaned mid-demotion — is free.
    pub(crate) fn rebuild_cold_state(&mut self) {
        if !self.cfg.tiering_enabled() {
            return;
        }
        self.tier = TierState::new(&self.cfg);
        for s in self.live_cold_slots() {
            self.tier.free_slots.remove(&s);
            self.tier.used_slots.insert(s);
        }
    }

    /// Reads one cold-resident cblock (raw encoded bytes) for the fetch
    /// path. Kept here so the pseudo-segment decoding lives in one file.
    pub(crate) fn read_cold_cblock(
        shelf: &mut Shelf,
        pba: &Pba,
        now: Nanos,
    ) -> Result<(Vec<u8>, Nanos)> {
        let d = cold_drive_of(pba)
            .ok_or_else(|| PurityError::Internal(format!("not a cold pba: {:?}", pba)))?;
        if d >= shelf.n_cold_drives() {
            return Err(PurityError::Internal(format!(
                "cold pba {:?} addresses missing drive {d}",
                pba
            )));
        }
        shelf.read_cold(d, pba.offset as usize, pba.stored_len as usize, now)
    }

    /// Per-volume heat classification right now (exhibits).
    pub fn volume_heat(&self, volume: u64, now: Nanos) -> purity_tier::Heat {
        let policy = HeatPolicy::with_demote_after(self.cfg.tier_demote_after_ns.max(1));
        self.tier.watcher.classify(volume, now, &policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FlashArray;
    use crate::config::ArrayConfig;

    const MS: Nanos = 1_000_000;

    fn tiered_array() -> FlashArray {
        FlashArray::new(ArrayConfig::tiered()).unwrap()
    }

    #[test]
    fn cold_namespace_never_collides_with_real_segments() {
        let pba = Pba {
            segment: SegmentId(COLD_SEG_BASE + 1),
            offset: 0,
            stored_len: 4096,
        };
        assert_eq!(cold_drive_of(&pba), Some(1));
        let real = Pba {
            segment: SegmentId(123),
            offset: 0,
            stored_len: 4096,
        };
        assert_eq!(cold_drive_of(&real), None);
    }

    #[test]
    fn idle_volume_demotes_and_reads_survive_with_cold_blame() {
        let mut a = tiered_array();
        let vol = a.create_volume("idle", 1 << 20).unwrap();
        let data: Vec<u8> = (0..(256 * 1024)).map(|i| (i % 251) as u8).collect();
        a.write(vol, 0, &data).unwrap();
        // Touch it once so the watcher has evidence, then go quiet long
        // past the demote threshold while ticks fire.
        a.read(vol, 0, 4096).unwrap();
        let mut demoted = false;
        for _ in 0..20 {
            a.advance(100 * MS);
            if a.stats().tier_demotions > 0 {
                demoted = true;
                break;
            }
        }
        assert!(demoted, "idle volume never demoted");
        let used = a.controller().tier.used_slots.len();
        assert!(used > 0, "demotion consumed no cold slots");
        // Reads still return the exact bytes, now paying the cold path.
        let (back, _) = a.read(vol, 0, data.len()).unwrap();
        assert_eq!(back, data, "cold-resident data corrupted");
        assert!(a.stats().cold_reads > 0, "read did not touch the cold pool");
        assert!(a.verify_integrity().is_empty());
    }

    #[test]
    fn reheated_volume_promotes_back_to_flash() {
        let mut a = tiered_array();
        let vol = a.create_volume("swing", 1 << 20).unwrap();
        let data: Vec<u8> = (0..(128 * 1024)).map(|i| (i % 241) as u8).collect();
        a.write(vol, 0, &data).unwrap();
        a.read(vol, 0, 4096).unwrap();
        for _ in 0..12 {
            a.advance(100 * MS);
        }
        assert!(a.stats().tier_demotions > 0, "setup: volume never demoted");
        // Morning: the volume gets busy again; the migrator chases it.
        for _ in 0..30 {
            a.read(vol, 0, 8192).unwrap();
            a.advance(20 * MS);
            if a.stats().tier_promotions > 0 {
                break;
            }
        }
        assert!(a.stats().tier_promotions > 0, "hot volume never promoted");
        let (back, _) = a.read(vol, 0, data.len()).unwrap();
        assert_eq!(back, data);
        assert!(a.verify_integrity().is_empty());
    }

    #[test]
    fn cache_hits_short_circuit_and_count() {
        let mut a = tiered_array();
        let vol = a.create_volume("hot", 1 << 20).unwrap();
        let data = vec![7u8; 64 * 1024];
        a.write(vol, 0, &data).unwrap();
        for _ in 0..5 {
            a.read(vol, 0, 64 * 1024).unwrap();
        }
        assert!(
            a.stats().cache_reads > 0,
            "repeated reads never hit the cache"
        );
    }

    /// 256 KiB the compressor cannot shrink, so every encoded cblock of
    /// every volume has the same `stored_len` and cold `Pba`s collide.
    fn noise(seed: u64) -> Vec<u8> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut data = vec![0u8; 256 * 1024];
        StdRng::seed_from_u64(seed).fill(&mut data[..]);
        data
    }

    /// Ticks, reading `busy` so only the other volumes go idle, until
    /// `done` holds.
    fn run(a: &mut FlashArray, busy: &[crate::VolumeId], done: &dyn Fn(&Controller) -> bool) {
        for _ in 0..80 {
            if done(a.controller()) {
                return;
            }
            for v in busy {
                a.read(*v, 0, 8192).unwrap();
            }
            a.advance(50 * MS);
        }
        panic!("setup: the migrator never got there");
    }

    fn on_flash(c: &Controller, v: crate::VolumeId) -> u64 {
        placement(&c.volume_refs(v.0)).flash_cblocks
    }

    fn on_cold(c: &Controller, v: crate::VolumeId) -> u64 {
        placement(&c.volume_refs(v.0)).cold_cblocks
    }

    #[test]
    fn reused_cold_slot_never_serves_the_previous_occupant() {
        for failover in [false, true] {
            let mut a = tiered_array();
            let one = a.create_volume("one", 1 << 20).unwrap();
            let two = a.create_volume("two", 1 << 20).unwrap();
            let (d1, d2) = (noise(1), noise(2));
            a.write(one, 0, &d1).unwrap();
            a.write(two, 0, &d2).unwrap();
            // One touch gives the heat watcher evidence of `one`.
            a.read(one, 0, 4096).unwrap();
            run(&mut a, &[two], &|c| on_flash(c, one) == 0);
            let first_slots = a.controller().tier.used_slots.clone();
            // `one` fills the cache under its cold keys; enough writes
            // follow for a warming pass to copy them to the standby.
            assert_eq!(a.read(one, 0, d1.len()).unwrap().0, d1);
            for _ in 0..128 {
                a.write(one, 512 * 1024, &d1[..512]).unwrap();
            }
            // `one` re-heats: promoted, its slots swept, then released.
            run(&mut a, &[one, two], &|c| {
                on_cold(c, one) == 0 && c.tier.used_slots.is_empty()
            });
            a.checkpoint().unwrap();
            assert!(a.controller().tier.pending_free.is_empty());
            assert_eq!(a.verify_integrity(), Vec::<String>::new());
            // `two` idles into the very slots `one` vacated.
            run(&mut a, &[one], &|c| on_flash(c, two) == 0);
            assert!(first_slots.is_subset(&a.controller().tier.used_slots));
            if failover {
                // Made durable first, or the takeover un-happens the move.
                a.checkpoint().unwrap();
                a.fail_primary().unwrap();
                assert_eq!(on_flash(a.controller(), two), 0);
            }
            let (back, _) = a.read(two, 0, d2.len()).unwrap();
            assert!(
                back == d2,
                "failover={failover}: a reused slot served stale bytes (`one`'s: {})",
                back == d1
            );
            assert_eq!(a.read(one, 0, d1.len()).unwrap().0, d1);
            assert!(a.verify_integrity().is_empty());
        }
    }

    /// Demotion and promotion move stored bytes, so a cblock comes back
    /// to the cold pool exactly as it left it — whether the second trip
    /// copied what it read or re-encoded a cached payload.
    #[test]
    fn demote_promote_demote_stores_identical_bytes() {
        let mut a = tiered_array();
        let vol = a.create_volume("swing", 1 << 20).unwrap();
        // Half compressible, half not: both encodings make the trip.
        let mut data: Vec<u8> = (0..128 * 1024).map(|i| (i / 5 % 241) as u8).collect();
        data.extend_from_slice(&noise(3)[..128 * 1024]);
        a.write(vol, 0, &data).unwrap();
        a.read(vol, 0, 4096).unwrap();
        // The stored bytes of every cold cblock, by first volume sector.
        let cold_image = |a: &mut FlashArray| -> BTreeMap<u64, Vec<u8>> {
            let now = a.now();
            let (ctrl, shelf) = a.controller_and_shelf();
            cblocks(&ctrl.volume_refs(vol.0))
                .map(|refs| {
                    let pba = &refs[0].1.loc.pba;
                    let (stored, _) = Controller::read_cold_cblock(shelf, pba, now).unwrap();
                    (refs[0].0 .1, stored)
                })
                .collect()
        };

        run(&mut a, &[], &|c| on_flash(c, vol) == 0);
        let first = cold_image(&mut a);
        assert!(first.len() >= 8, "setup: {} cold cblocks", first.len());
        for round in 0..2 {
            run(&mut a, &[vol], &|c| on_cold(c, vol) == 0);
            run(&mut a, &[], &|c| on_flash(c, vol) == 0);
            assert!(
                cold_image(&mut a) == first,
                "round {round}: the cold pool holds different bytes"
            );
        }
        assert_eq!(a.read(vol, 0, data.len()).unwrap().0, data);
        assert!(a.verify_integrity().is_empty());
    }

    /// Nothing here runs GC, so nothing flattens: the fold at flush alone
    /// keeps the map's history — patches a read fans out over, versions
    /// a scan steps over — bounded while a volume is overwritten.
    #[test]
    fn overwrites_without_gc_keep_the_map_shallow() {
        const BLOCK: usize = 4096;
        let mut a = tiered_array();
        let vol = a.create_volume("churn", 1 << 20).unwrap();
        let mut image: Vec<u8> = (0..4).flat_map(noise).collect();
        a.write(vol, 0, &image).unwrap();
        a.checkpoint().unwrap();
        let live = a.controller().reachable_live().len();
        assert_eq!(live, image.len() / crate::types::SECTOR);
        // Each round overwrites a quarter of the volume, spread evenly,
        // and ends in a memtable flush.
        for round in 0..8 {
            let fresh = noise(100 + round as u64);
            for block in (round % 4..image.len() / BLOCK).step_by(4) {
                let at = block * BLOCK;
                let data = &fresh[at % fresh.len()..][..BLOCK];
                a.write(vol, at as u64, data).unwrap();
                image[at..at + BLOCK].copy_from_slice(data);
            }
            let flushes = a.controller().map.stats().flushes;
            a.checkpoint().unwrap();
            let map = &a.controller().map;
            assert_eq!(map.stats().flushes, flushes + 1);
            let in_patches = map.total_facts() - map.memtable_facts();
            assert!(
                in_patches <= 2 * live && map.patch_count() <= 4,
                "round {round}: {} patches hold {in_patches} facts for {live} live sectors",
                map.patch_count()
            );
        }
        assert_eq!(a.stats().gc_passes, 0);
        assert!(a.read(vol, 0, image.len()).unwrap().0 == image);
        assert!(a.verify_integrity().is_empty());
    }

    #[test]
    fn power_loss_mid_demotion_loses_nothing() {
        let mut a = tiered_array();
        let vol = a.create_volume("victim", 1 << 20).unwrap();
        let data: Vec<u8> = (0..(256 * 1024)).map(|i| (i % 239) as u8).collect();
        a.write(vol, 0, &data).unwrap();
        a.read(vol, 0, 4096).unwrap();
        // Tear the very first cold write mid-slot.
        a.arm_power_loss(crate::shelf::CrashTarget::ColdWrite, 0, 512);
        for _ in 0..20 {
            a.advance(100 * MS);
            if !a.powered() {
                break;
            }
        }
        assert!(!a.powered(), "cold-write trigger never fired");
        let report = a
            .power_loss(crate::array::PowerLossSpec::default())
            .unwrap();
        assert!(
            report.torn.unwrap().contains("cold"),
            "tear was not a cold write"
        );
        let (back, _) = a.read(vol, 0, data.len()).unwrap();
        assert_eq!(back, data, "acked write lost across mid-demotion crash");
        assert!(a.verify_integrity().is_empty());
    }

    #[test]
    fn recovery_rebuilds_cold_allocator_from_the_map() {
        let mut a = tiered_array();
        let vol = a.create_volume("survivor", 1 << 20).unwrap();
        let data: Vec<u8> = (0..(256 * 1024)).map(|i| (i % 233) as u8).collect();
        a.write(vol, 0, &data).unwrap();
        a.read(vol, 0, 4096).unwrap();
        for _ in 0..12 {
            a.advance(100 * MS);
        }
        assert!(a.stats().tier_demotions > 0);
        a.checkpoint().unwrap();
        let used_before = a.controller().tier.used_slots.len();
        assert!(used_before > 0);
        a.power_loss(crate::array::PowerLossSpec::default())
            .unwrap();
        let used_after = a.controller().tier.used_slots.len();
        assert_eq!(
            used_before, used_after,
            "recovered cold allocator disagrees with pre-crash state"
        );
        let (back, _) = a.read(vol, 0, data.len()).unwrap();
        assert_eq!(back, data);
        assert!(a.verify_integrity().is_empty());
    }
}
