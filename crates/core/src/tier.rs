//! Tiering executor: the five-minute rule run by the controller.
//!
//! Heat is the time since a volume's last read — the re-access interval
//! the rule is a break-even on — stamped by [`Controller::read`] itself.
//! Each tick classifies every volume and moves whole volumes between
//! classes, and a move is done "as GC does": cold data lives in ordinary
//! segments of the cold class — the same writer, allocator and
//! Reed-Solomon stripes over the cold pool, one column of parity — and a
//! move is `Controller::relocate` into the other class's open segment.
//!
//! * **Demotion** is copy-then-switch: fetch and decode the live cblock,
//!   place its stored bytes in the cold open segment, then rewrite the
//!   referencing map keys with fresh-seq facts. Until those facts reach
//!   a patch + checkpoint, recovery replays the *old* facts — which
//!   still point at the flash copy GC has not freed (GC frees victims
//!   only after its own checkpoint, which flushes these facts first, and
//!   a map patch flush first flushes the cold stripes they point into).
//!   Power loss mid-demotion is a power loss mid-relocation: the move
//!   simply un-happens.
//! * **Promotion** is the same move back into the hot open segment.
//! * **Reclamation** is GC's: cold segments are collected into cold
//!   segments and freed after GC's checkpoint, like any other.
//! * **Recovery** finds every cold segment in the checkpoint: one is
//!   entered in the durable segment table before its first write.

use crate::controller::{Controller, MapKey, MapVal};
use crate::error::{PurityError, Result};
use crate::segment::{COLD, HOT};
use crate::shelf::Shelf;
use crate::types::Pba;
use purity_obs::{Frame, OpTrace};
use purity_sim::Nanos;
use purity_tier::Heat;
use std::collections::BTreeMap;

/// Migrator tick cadence in virtual ns: heat is classified and volumes
/// moved at most this often from the background path.
pub const TIER_INTERVAL_NS: Nanos = 50_000_000;

/// A volume unread for this long (virtual ns) is cold and eligible for
/// demotion; one read within a quarter of it is hot.
pub const TIER_DEMOTE_AFTER_NS: Nanos = 400_000_000;

/// Cap on extents migrated per migrator tick (bounds the per-tick
/// foreground interference).
pub const TIER_MIGRATION_BUDGET: usize = 16;

/// A volume's live map entries — map key `(medium, sector)` plus its
/// current value — ordered by backing pba, so each cblock's references
/// are one run (in key order) and cblocks come in pba order.
type VolumeRefs = Vec<(MapKey, MapVal)>;

/// The per-cblock runs of a volume's refs.
fn cblocks(refs: &VolumeRefs) -> impl Iterator<Item = &[(MapKey, MapVal)]> {
    refs.chunk_by(|a, b| a.1.loc.pba == b.1.loc.pba)
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

/// The reads one volume has served on this array.
#[derive(Debug)]
struct VolumeReads {
    /// How many (published as `volume_reads`).
    count: u64,
    /// Virtual time of the last one: the volume's heat.
    last_at: Nanos,
}

/// Volatile tiering state owned by the controller. A failover hands it
/// to the standby, as it does the cache; a cold start begins from none.
#[derive(Debug, Default)]
pub struct TierState {
    /// Virtual time of the last migrator tick.
    last_tick_at: Nanos,
    /// Per live volume, its reads.
    reads: BTreeMap<u64, VolumeReads>,
}

impl TierState {
    /// Counts one read of `volume` at `now` (the array's clock, which
    /// never runs back).
    pub(crate) fn record_read(&mut self, volume: u64, now: Nanos) {
        let r = self.reads.entry(volume).or_insert(VolumeReads {
            count: 0,
            last_at: now,
        });
        r.count += 1;
        r.last_at = now;
    }

    /// Classifies a volume as of `now` by the time since its last read.
    /// A never-read volume is warm: there is no evidence either way, and
    /// moving data on no evidence is how migrators thrash.
    fn heat(&self, volume: u64, now: Nanos) -> Heat {
        let Some(r) = self.reads.get(&volume) else {
            return Heat::Warm;
        };
        let idle = now.saturating_sub(r.last_at);
        if idle >= TIER_DEMOTE_AFTER_NS {
            Heat::Cold
        } else if idle < TIER_DEMOTE_AFTER_NS / 4 {
            Heat::Hot
        } else {
            Heat::Warm
        }
    }

    /// Writes the per-volume read counts of `volumes` (the live ones)
    /// into `out`.
    pub(crate) fn collect<'v>(&self, volumes: impl Iterator<Item = &'v u64>, out: &mut Frame<'_>) {
        for vol in volumes {
            out.counter(
                "volume_reads",
                &[("volume", &vol.to_string())],
                self.volume_reads(*vol),
            );
        }
    }

    /// Cumulative reads of one volume.
    pub(crate) fn volume_reads(&self, volume: u64) -> u64 {
        self.reads.get(&volume).map_or(0, |r| r.count)
    }

    /// Drops a destroyed volume's entry, returning its read count.
    pub(crate) fn forget(&mut self, volume: u64) -> u64 {
        self.reads.remove(&volume).map_or(0, |r| r.count)
    }
}

impl Controller {
    /// Runs the migrator if a tick is due, returning the moves it made.
    /// Called from [`crate::FlashArray::advance`]; a no-op unless the
    /// config enables the cold tier and the tick interval elapsed.
    pub fn tier_maintenance(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<Vec<ExecutedMove>> {
        let mut executed = Vec::new();
        if !self.cfg.tiering_enabled() {
            return Ok(executed);
        }
        if now.saturating_sub(self.tier.last_tick_at) < TIER_INTERVAL_NS {
            return Ok(executed);
        }
        self.tier.last_tick_at = now;

        // Each volume is resolved once, in id order; its refs count
        // where its cblocks live and, if it moves, serve the move. Hot
        // volumes with cold data are promoted first — their reads pay
        // the cold path right now — then cold volumes with flash data
        // demoted; at most 8 volumes a tick. Warm volumes stay put.
        let mut refs: BTreeMap<u64, VolumeRefs> = (self.volumes.keys())
            .map(|&id| (id, self.volume_refs(id)))
            .collect();
        let (mut moves, mut demotes) = (Vec::new(), Vec::new());
        for (&volume, r) in &refs {
            let (flash, cold) = self.placement(r);
            match self.tier.heat(volume, now) {
                Heat::Hot if cold > 0 => moves.push((volume, false)),
                Heat::Cold if flash > 0 => demotes.push((volume, true)),
                _ => {}
            }
        }
        moves.extend(demotes);
        moves.truncate(8);

        let mut budget = TIER_MIGRATION_BUDGET;
        let mut trace = (!moves.is_empty()).then(|| OpTrace::new("tier_migrate", now));
        let mut done = now;
        // A move repoints map keys, and a clone shares keys with its
        // parent: what was resolved before the first move is stale
        // after it.
        let mut repointed = false;
        for (volume, demote) in moves {
            if budget == 0 {
                break;
            }
            let refs = match refs.remove(&volume) {
                Some(refs) if !repointed => refs,
                _ => self.volume_refs(volume),
            };
            let (moved, t) =
                self.move_volume(shelf, volume, refs, demote, budget, now, trace.as_mut())?;
            budget = budget.saturating_sub(moved);
            done = done.max(t);
            if moved > 0 {
                repointed = true;
                executed.push(ExecutedMove {
                    volume,
                    demote,
                    cblocks: moved,
                });
            }
        }
        if let Some(tr) = trace {
            self.obs.tracer.finish(tr, done);
        }
        Ok(executed)
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

    /// The device class of the segment holding `pba` (hot for a segment
    /// the table lacks: a fetch from it reports that).
    pub(crate) fn class_of(&self, pba: &Pba) -> usize {
        let segment = self.segments.get(&pba.segment.0);
        segment.map_or(HOT, |s| s.class(self.cfg.n_drives))
    }

    /// How many of a volume's live cblocks sit on flash and on cold.
    fn placement(&self, refs: &VolumeRefs) -> (u64, u64) {
        let flash = cblocks(refs)
            .filter(|cblock| self.class_of(&cblock[0].1.loc.pba) == HOT)
            .count() as u64;
        (flash, cblocks(refs).count() as u64 - flash)
    }

    /// Moves up to `budget` of a volume's cblocks (its current `refs`)
    /// out of their class: demotes hot ones into the cold open segment,
    /// or promotes cold ones into the hot one. A move is optional work:
    /// it never eats the reserve, and stops for this tick when the target
    /// class is out of space. Returns the cblocks moved and when the last
    /// finished.
    #[allow(clippy::too_many_arguments)]
    fn move_volume(
        &mut self,
        shelf: &mut Shelf,
        volume: u64,
        refs: VolumeRefs,
        demote: bool,
        budget: usize,
        now: Nanos,
        mut trace: Option<&mut OpTrace>,
    ) -> Result<(usize, Nanos)> {
        let (from, to) = if demote { (HOT, COLD) } else { (COLD, HOT) };
        let mut moved = 0usize;
        let mut done = now;
        for refs in cblocks(&refs) {
            if moved >= budget {
                break;
            }
            if self.class_of(&refs[0].1.loc.pba) != from {
                continue;
            }
            // A demotion's fetch is nobody's read; a promotion's is
            // charged to the move.
            let fetch_trace = if demote { None } else { trace.as_deref_mut() };
            let mut placed = None;
            let place = |ctrl: &mut Self, shelf: &mut Shelf, encoded: &[u8]| {
                let (pba, at) = ctrl.place_cblock(shelf, to, encoded, false, now)?;
                placed = Some((pba, at));
                Ok(pba)
            };
            let copy = match self.relocate(shelf, refs, None, now, fetch_trace, place) {
                Ok(copy) => copy,
                Err(PurityError::OutOfSpace) => break,
                Err(e) => return Err(e),
            };
            done = done.max(copy.fetched_at);
            if demote {
                self.stats.tier_demotions += 1;
                self.stats.tier_bytes_demoted += copy.placed_bytes;
                if let Some((pba, at)) = placed {
                    done = done.max(at);
                    if let Some(tr) = trace.as_deref_mut() {
                        let note = format!("vol {volume} cblock -> cold segment {}", pba.segment.0);
                        tr.stage_note("tier_demote", now, at, note);
                    }
                }
            } else {
                self.stats.tier_promotions += 1;
                self.stats.tier_bytes_promoted += copy.placed_bytes;
            }
            moved += 1;
        }
        Ok((moved, done))
    }

    /// Per-volume heat classification right now (exhibits).
    pub fn volume_heat(&self, volume: u64, now: Nanos) -> Heat {
        self.tier.heat(volume, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FlashArray;
    use crate::config::ArrayConfig;
    use crate::segment::SegmentInfo;
    use crate::types::AuId;
    use std::collections::BTreeSet;

    const MS: Nanos = 1_000_000;

    fn tiered_array() -> FlashArray {
        FlashArray::new(ArrayConfig::tiered()).unwrap()
    }

    fn is_cold(c: &Controller, s: &SegmentInfo) -> bool {
        s.class(c.cfg.n_drives) == COLD
    }

    /// The AUs the cold segments in the table hold.
    fn cold_aus(c: &Controller) -> BTreeSet<AuId> {
        (c.segments.values())
            .filter(|s| is_cold(c, s))
            .flat_map(|s| s.columns.clone())
            .collect()
    }

    /// Cold data is no namespace of its own: a demoted cblock's segment
    /// is in the one segment table, with its columns on the cold drives
    /// at the pool's (k, m) = (1, 1) — a mirror.
    #[test]
    fn cold_namespace_never_collides_with_real_segments() {
        let mut a = tiered_array();
        let vol = a.create_volume("idle", 1 << 20).unwrap();
        a.write(vol, 0, &noise(7)).unwrap();
        a.read(vol, 0, 4096).unwrap();
        run(&mut a, &[], &|c| on_flash(c, vol) == 0);
        let c = a.controller();
        let cold = c.writers[COLD].layout();
        assert_eq!((cold.k, cold.m), (1, 1));
        let cold_drives = c.cfg.n_drives..c.cfg.n_drives + c.cfg.cold_drives;
        for refs in cblocks(&c.volume_refs(vol.0)) {
            let seg = &c.segments[&refs[0].1.loc.pba.segment.0];
            assert!(is_cold(c, seg));
            assert_eq!(seg.columns.len(), 2);
            assert!(seg.columns.iter().all(|au| cold_drives.contains(&au.drive)));
        }
        assert!(a.verify_integrity().is_empty());
    }

    #[test]
    fn idle_volume_demotes_and_reads_survive_with_cold_blame() {
        let mut a = tiered_array();
        let vol = a.create_volume("idle", 1 << 20).unwrap();
        let data: Vec<u8> = (0..(256 * 1024)).map(|i| (i % 251) as u8).collect();
        a.write(vol, 0, &data).unwrap();
        // Touch it once so it has heat, then go quiet long past the
        // demote threshold while ticks fire.
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
        let c = a.controller();
        assert!(!cold_aus(c).is_empty(), "demotion opened no cold segment");
        // The cblocks compress to less than a stripe: a checkpoint pads
        // the stripe out onto the cold drives.
        a.checkpoint().unwrap();
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

    fn heat(a: &FlashArray, v: crate::VolumeId) -> Heat {
        a.controller().volume_heat(v.0, a.now())
    }

    /// Heat is the time since the last read: idle past the demotion
    /// threshold is cold, and one read makes the volume hot again.
    #[test]
    fn idle_volume_goes_cold_and_one_read_makes_it_hot() {
        let mut a = tiered_array();
        let vol = a.create_volume("idle", 1 << 20).unwrap();
        a.write(vol, 0, &noise(1)).unwrap();
        a.read(vol, 0, 4096).unwrap();
        a.advance(10 * MS);
        assert_eq!(heat(&a, vol), Heat::Hot);
        for _ in 0..8 {
            a.advance(50 * MS);
        }
        assert_eq!(heat(&a, vol), Heat::Cold);
        a.read(vol, 0, 4096).unwrap();
        assert_eq!(heat(&a, vol), Heat::Hot);
    }

    /// Between a quarter of the demotion threshold and the threshold a
    /// volume is warm, at both edges.
    #[test]
    fn hysteresis_band_is_warm() {
        let mut a = tiered_array();
        let vol = a.create_volume("band", 1 << 20).unwrap();
        a.read(vol, 0, 4096).unwrap();
        a.advance(TIER_DEMOTE_AFTER_NS / 4 - 1);
        assert_eq!(heat(&a, vol), Heat::Hot);
        a.advance(1);
        assert_eq!(heat(&a, vol), Heat::Warm);
        a.advance(TIER_DEMOTE_AFTER_NS * 3 / 4 - 1);
        assert_eq!(heat(&a, vol), Heat::Warm);
        a.advance(1);
        assert_eq!(heat(&a, vol), Heat::Cold);
    }

    /// Writes are no evidence of heat: a volume nobody reads is warm
    /// however long it idles. So is a volume the array does not know.
    #[test]
    fn never_read_volumes_are_warm() {
        let mut a = tiered_array();
        let vol = a.create_volume("unread", 1 << 20).unwrap();
        a.write(vol, 0, &noise(2)).unwrap();
        for _ in 0..40 {
            a.advance(50 * MS);
        }
        assert_eq!(heat(&a, vol), Heat::Warm);
        assert_eq!(heat(&a, crate::VolumeId(99)), Heat::Warm);
    }

    /// With no read there is nothing to chase: ticks over an array whose
    /// volumes were only written, or that has no volume, move nothing.
    #[test]
    fn ticks_over_unread_volumes_move_nothing() {
        let mut a = tiered_array();
        for _ in 0..10 {
            a.advance(50 * MS);
        }
        let vol = a.create_volume("unread", 1 << 20).unwrap();
        a.write(vol, 0, &noise(2)).unwrap();
        for _ in 0..40 {
            a.advance(50 * MS);
        }
        let s = a.stats();
        assert_eq!((s.tier_demotions, s.tier_promotions), (0, 0));
        assert!(on_flash(a.controller(), vol) > 0);
        assert_eq!(on_cold(a.controller(), vol), 0);
    }

    /// One tick promotes before it demotes, and its cblock budget bounds
    /// it: a hot volume with more cold cblocks than the budget takes the
    /// whole of it, and the cold volume waits. A volume in the band
    /// stays where it is, split between the classes.
    #[test]
    fn promotes_lead_demotes_and_warm_stays_put() {
        let mut a = tiered_array();
        let busy = a.create_volume("busy", 1 << 20).unwrap();
        let warm = a.create_volume("warm", 1 << 20).unwrap();
        let idle = a.create_volume("idle", 1 << 20).unwrap();
        a.write(busy, 0, &(0..3).flat_map(noise).collect::<Vec<u8>>())
            .unwrap();
        a.write(warm, 0, &noise(4)).unwrap();
        a.read(busy, 0, 4096).unwrap();
        a.read(warm, 0, 4096).unwrap();
        run(&mut a, &[], &|c| on_flash(c, busy) + on_flash(c, warm) == 0);
        assert!(on_cold(a.controller(), busy) > TIER_MIGRATION_BUDGET as u64);
        a.write(idle, 0, &noise(5)).unwrap();
        let moves = |a: &FlashArray| (a.stats().tier_promotions, a.stats().tier_demotions);

        // One step to each edge, so no tick falls inside a hot window.
        a.read(idle, 0, 4096).unwrap();
        a.advance(200 * MS);
        a.write(warm, 0, &noise(6)[..64 * 1024]).unwrap();
        a.read(warm, 0, 4096).unwrap();
        let split = (
            on_flash(a.controller(), warm),
            on_cold(a.controller(), warm),
        );
        assert!(split.0 > 0 && split.1 > 0, "setup: {split:?}");
        let before = moves(&a);
        a.advance(190 * MS);
        assert_eq!(moves(&a), before, "setup: nothing is hot or cold yet");
        a.advance(10 * MS);
        a.read(busy, 0, 4096).unwrap();
        a.advance(40 * MS);
        assert_eq!(
            [heat(&a, busy), heat(&a, warm), heat(&a, idle)],
            [Heat::Hot, Heat::Warm, Heat::Cold]
        );
        let (promoted, demoted) = moves(&a);
        assert_eq!(
            (promoted - before.0, demoted - before.1),
            (TIER_MIGRATION_BUDGET as u64, 0)
        );
        a.advance(50 * MS);
        assert_eq!(on_cold(a.controller(), busy), 0);
        assert!(moves(&a).1 > demoted, "the cold volume never demoted");
        let c = a.controller();
        assert_eq!((on_flash(c, warm), on_cold(c, warm)), split);
        assert!(a.verify_integrity().is_empty());
    }

    /// A tick moves at most 8 volumes, lowest ids first, and passes over
    /// volumes already in their class.
    #[test]
    fn a_tick_is_bounded_and_placed_volumes_are_skipped() {
        let mut a = tiered_array();
        let vols: Vec<_> = (0..10u64)
            .map(|i| {
                let vol = a.create_volume(&format!("v{i}"), 1 << 20).unwrap();
                a.write(vol, 0, &noise(20 + i)[..32 * 1024]).unwrap();
                a.read(vol, 0, 4096).unwrap();
                vol
            })
            .collect();
        a.advance(TIER_DEMOTE_AFTER_NS);
        let c = a.controller();
        let placed: Vec<u64> = vols.iter().map(|&v| on_cold(c, v)).collect();
        assert_eq!(placed, [1, 1, 1, 1, 1, 1, 1, 1, 0, 0]);
        a.advance(50 * MS);
        assert_eq!(a.stats().tier_demotions, 10);
        a.advance(50 * MS);
        assert_eq!(a.stats().tier_demotions, 10);
        assert!(vols.iter().all(|&v| heat(&a, v) == Heat::Cold));
    }

    /// Heat is the controller's own read clock: the recorder's cadence
    /// moves no data. A volume busy for 1 s, idle for 2 s and busy for
    /// 1 s — one 8 KiB read and one 50 ms step at a time — sees the same
    /// moves at every step whatever the recorder interval.
    #[test]
    fn the_recorder_cadence_moves_no_data() {
        let moves = |interval: Nanos| -> Vec<(u64, u64)> {
            let mut cfg = ArrayConfig::tiered();
            cfg.obs.recorder.interval_ns = interval;
            let mut a = FlashArray::new(cfg).unwrap();
            let vol = a.create_volume("swing", 1 << 20).unwrap();
            a.write(vol, 0, &noise(9)).unwrap();
            (0..80)
                .map(|step| {
                    if !(20..60).contains(&step) {
                        a.read(vol, 0, 8192).unwrap();
                    }
                    a.advance(50 * MS);
                    (a.stats().tier_demotions, a.stats().tier_promotions)
                })
                .collect()
        };
        let want = moves(50 * MS);
        assert!(want[79].0 > 0 && want[79].1 > 0, "setup: {:?}", want[79]);
        for interval in [100, 250, 1000] {
            assert_eq!(
                moves(interval * MS),
                want,
                "recorder interval {interval} ms"
            );
        }
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

    /// 256 KiB the compressor cannot shrink, so every cblock fills a
    /// cold stripe.
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
        c.placement(&c.volume_refs(v.0)).0
    }

    fn on_cold(c: &Controller, v: crate::VolumeId) -> u64 {
        c.placement(&c.volume_refs(v.0)).1
    }

    /// A cold AU GC freed is reused by a later demotion, and nothing —
    /// this controller's cache, or the standby's warm one after a
    /// failover — serves its previous occupant: locations are segment
    /// ids, and those are never reused. The pool is shrunk to 16 AUs a
    /// drive so reuse comes after one volume's round trip.
    #[test]
    fn reused_cold_aus_never_serve_the_previous_occupant() {
        for failover in [false, true] {
            let mut cfg = ArrayConfig::tiered();
            cfg.cold_geometry.blocks_per_die = 8;
            let mut a = FlashArray::new(cfg).unwrap();
            assert_eq!(a.config().cold_aus_per_drive(), 16);
            let one = a.create_volume("one", 2 << 20).unwrap();
            let two = a.create_volume("two", 2 << 20).unwrap();
            let d1: Vec<u8> = (10..18).flat_map(noise).collect();
            let d2: Vec<u8> = (20..28).flat_map(noise).collect();
            a.write(one, 0, &d1).unwrap();
            a.write(two, 0, &d2).unwrap();
            // One touch gives `one` heat.
            a.read(one, 0, 4096).unwrap();
            run(&mut a, &[two], &|c| on_flash(c, one) == 0);
            let first_aus = cold_aus(a.controller());
            // `one` fills the cache under its cold keys; enough writes
            // follow for a warming pass to copy them to the standby.
            assert_eq!(a.read(one, 0, d1.len()).unwrap().0, d1);
            for _ in 0..128 {
                a.write(one, 1 << 20, &d1[..512]).unwrap();
            }
            // `one` re-heats and is promoted; GC frees its cold segments.
            run(&mut a, &[one, two], &|c| on_cold(c, one) == 0);
            let report = a.run_gc().unwrap();
            assert!(report.segments_freed > 0);
            assert_eq!(a.verify_integrity(), Vec::<String>::new());
            // `two` idles into AUs `one` vacated.
            run(&mut a, &[one], &|c| on_flash(c, two) == 0);
            let reused = first_aus.intersection(&cold_aus(a.controller())).count();
            assert!(reused > 0, "setup: no cold AU was reused");
            if failover {
                // Made durable first, or the takeover un-happens the move.
                a.checkpoint().unwrap();
                a.fail_primary().unwrap();
                assert_eq!(on_flash(a.controller(), two), 0);
            }
            let (back, _) = a.read(two, 0, d2.len()).unwrap();
            assert!(
                back == d2,
                "failover={failover}: a reused AU served stale bytes (`one`'s: {})",
                back[..d1.len() / 2] == d1[..d1.len() / 2]
            );
            assert_eq!(a.read(one, 0, 1 << 20).unwrap().0, d1[..1 << 20]);
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
        // The stored bytes of every cold cblock, by first volume sector,
        // read past the cache.
        let cold_image = |a: &mut FlashArray| -> BTreeMap<u64, Vec<u8>> {
            let now = a.now();
            let (ctrl, shelf) = a.controller_and_shelf();
            ctrl.cache.invalidate(|_| true);
            let refs = ctrl.volume_refs(vol.0);
            cblocks(&refs)
                .map(|refs| {
                    let pba = refs[0].1.loc.pba;
                    let fetched = ctrl.fetch_for_move(shelf, &pba, now, None).unwrap();
                    (refs[0].0 .1, fetched.stored.unwrap())
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

    /// A demotion admits nothing to the read cache: with the cache full
    /// of a busy volume's cblocks, demoting more bytes than the cache
    /// holds evicts none of them.
    #[test]
    fn a_demotion_leaves_the_host_hot_set_in_the_cache() {
        const CBLOCK: usize = 32 * 1024;
        let cfg = ArrayConfig {
            cache_bytes: 8 * CBLOCK,
            ..ArrayConfig::tiered()
        };
        let mut a = FlashArray::new(cfg).unwrap();
        let busy = a.create_volume("busy", 1 << 20).unwrap();
        let idle = a.create_volume("idle", 1 << 20).unwrap();
        a.write(busy, 0, &[noise(5), noise(6)].concat()).unwrap();
        a.write(idle, 0, &[noise(7), noise(8)].concat()).unwrap();
        a.read(idle, 0, 4096).unwrap();
        // The tick's read of `busy` is last, so it stays a hit.
        a.read(busy, 0, 16 * CBLOCK).unwrap();
        a.read(busy, 0, 8192).unwrap();

        let cache = &a.controller().cache;
        assert!(cache.used_bytes() + CBLOCK > cache.capacity_bytes());
        let resident: Vec<Pba> = cache.keys().copied().collect();
        let evictions = cache.stats().2;
        run(&mut a, &[busy], &|c| on_flash(c, idle) == 0);
        let ctrl = a.controller();
        assert!(ctrl.stats.tier_bytes_demoted > ctrl.cache.capacity_bytes() as u64);
        assert_eq!(ctrl.cache.stats().2, evictions, "the demotion evicted");
        for pba in &resident {
            assert!(ctrl.cache.contains(pba), "{pba:?} left the cache");
        }
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
        // Tear the very first cold write mid-page.
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

    /// Recovery learns the cold pool from the checkpoint alone: it reads
    /// no cold drive, even with a cold segment open, and no cold AU is in
    /// the persisted frontier it scans.
    #[test]
    fn recovery_restores_the_cold_pool_without_reading_it() {
        let mut a = tiered_array();
        let vol = a.create_volume("survivor", 1 << 20).unwrap();
        let data: Vec<u8> = (0..(256 * 1024)).map(|i| (i % 233) as u8).collect();
        a.write(vol, 0, &data).unwrap();
        a.read(vol, 0, 4096).unwrap();
        run(&mut a, &[], &|c| on_flash(c, vol) == 0);
        a.checkpoint().unwrap();
        let c = a.controller();
        assert!(c.writers[COLD].open_segment().is_some(), "setup: none open");
        let frontier = c.allocators[HOT].snapshot_persisted();
        assert!(frontier
            .iter()
            .all(|&au| AuId::unpack(au).drive < c.cfg.n_drives));
        let before = cold_aus(c);
        let cold_reads = |a: &mut FlashArray| -> u64 {
            let (_, shelf) = a.controller_and_shelf();
            (0..shelf.n_cold_drives())
                .map(|d| shelf.cold_drive(d).flash_counters().reads)
                .sum()
        };
        let reads = cold_reads(&mut a);
        a.power_loss(crate::array::PowerLossSpec::default())
            .unwrap();
        assert_eq!(cold_reads(&mut a), reads, "recovery read a cold drive");
        assert_eq!(cold_aus(a.controller()), before);
        let (back, _) = a.read(vol, 0, data.len()).unwrap();
        assert_eq!(back, data);
        assert!(a.stats().cold_reads > 0);
        assert!(a.verify_integrity().is_empty());
    }

    /// A cold drive fails with data on it: every byte reads back through
    /// the mirror, and reinserting the drive rebuilds what it missed.
    #[test]
    fn a_failed_cold_drive_is_read_around_and_rebuilt() {
        let mut a = tiered_array();
        let vol = a.create_volume("mirrored", 1 << 20).unwrap();
        let data: Vec<u8> = (0..3).flat_map(noise).collect();
        a.write(vol, 0, &data).unwrap();
        a.read(vol, 0, 4096).unwrap();
        run(&mut a, &[], &|c| c.stats.tier_demotions > 0);
        let cold0 = a.config().n_drives;
        a.fail_drive(cold0);
        // Demotion goes on into the open segment, its stripes degraded,
        // until that fills: a new one needs both drives. The checkpoint
        // pads its last stripe out.
        for _ in 0..8 {
            a.advance(50 * MS);
        }
        a.checkpoint().unwrap();
        assert!(on_cold(a.controller(), vol) > 0);
        let rebuilt = a.stats().reconstructed_reads;
        a.controller_and_shelf().0.cache.invalidate(|_| true);
        assert_eq!(a.read(vol, 0, data.len()).unwrap().0, data);
        assert!(
            a.stats().reconstructed_reads > rebuilt,
            "no read went around"
        );
        let report = a.revive_drive(cold0);
        assert!(
            report.units_rebuilt > 0 && report.unrecoverable == 0,
            "{report:?}"
        );
        // The rebuilt drive alone now serves every byte.
        a.fail_drive(cold0 + 1);
        a.controller_and_shelf().0.cache.invalidate(|_| true);
        assert_eq!(a.read(vol, 0, data.len()).unwrap().0, data);
        assert!(a.verify_integrity().is_empty());
    }

    /// A mirror reads whichever copy is done first, with or without a
    /// write in the way: a long read of one cold segment, with no cold
    /// write scheduled, spreads its pages over both drives instead of
    /// queueing them all on the drive holding the data column.
    #[test]
    fn a_long_cold_read_takes_both_mirror_copies() {
        const CBLOCK: usize = 32 * 1024;
        let mut a = tiered_array();
        let vol = a.create_volume("mirrored", 1 << 20).unwrap();
        let data: Vec<u8> = (0..3).flat_map(noise).collect();
        a.write(vol, 0, &data).unwrap();
        a.read(vol, 0, 4096).unwrap();
        run(&mut a, &[], &|c| on_flash(c, vol) == 0);
        a.checkpoint().unwrap();
        a.advance(1_000 * MS);
        // The longest stretch of the volume in one cold segment: each
        // segment's data column sits on one drive or the other.
        let c = a.controller();
        let anchor = c.volume(vol).unwrap().anchor;
        let segment_of = |i: usize| {
            let sector = (i * CBLOCK / crate::types::SECTOR) as u64;
            c.resolve_sector(anchor, sector).unwrap().loc.pba.segment
        };
        let (n, mut start, mut stretch) = (data.len() / CBLOCK, 0, 0..0);
        for i in 1..=n {
            if i == n || segment_of(i) != segment_of(start) {
                if i - start > stretch.len() {
                    stretch = start..i;
                }
                start = i;
            }
        }
        assert!(stretch.len() >= 4, "setup: {stretch:?}");
        let (offset, len) = (stretch.start * CBLOCK, stretch.len() * CBLOCK);
        let now = a.now();
        let cold0 = a.config().n_drives;
        let (ctrl, shelf) = a.controller_and_shelf();
        assert!(!(0..2).any(|d| shelf.writes_overlap(cold0 + d, now, Nanos::MAX)));
        ctrl.cache.invalidate(|_| true);
        let reads = |a: &mut FlashArray| -> Vec<u64> {
            let (_, shelf) = a.controller_and_shelf();
            (0..2)
                .map(|d| shelf.cold_drive(d).flash_counters().reads)
                .collect()
        };
        let before = reads(&mut a);
        let back = a.read(vol, offset as u64, len).unwrap().0;
        assert!(back == data[offset..offset + len]);
        let after = reads(&mut a);
        for d in 0..2 {
            assert!(
                after[d] > before[d],
                "cold drive {d} served none of the read: {before:?} -> {after:?}"
            );
        }
        assert!(a.verify_integrity().is_empty());
    }

    /// GC is what frees cold space: a demoted volume with every other
    /// cblock overwritten leaves its cold segments half dead, and one
    /// pass collects their live cblocks into the cold class and hands
    /// the AUs back. (No dedup: GC's pass would repoint some cold refs at
    /// their stale hot copies, still in the open segment.)
    #[test]
    fn gc_reclaims_cold_segments() {
        const CBLOCK: usize = 32 * 1024;
        let mut cfg = ArrayConfig::tiered();
        cfg.dedup_enabled = false;
        let mut a = FlashArray::new(cfg).unwrap();
        let vol = a.create_volume("cooling", 1 << 20).unwrap();
        let mut data: Vec<u8> = (0..4).flat_map(noise).collect();
        a.write(vol, 0, &data).unwrap();
        a.read(vol, 0, 4096).unwrap();
        run(&mut a, &[], &|c| on_flash(c, vol) == 0);
        let fresh = noise(8);
        for (i, at) in (0..data.len()).step_by(2 * CBLOCK).enumerate() {
            let bytes = &fresh[i * 4096..][..CBLOCK / 4];
            let bytes: Vec<u8> = bytes.iter().cycle().take(CBLOCK).copied().collect();
            a.write(vol, at as u64, &bytes).unwrap();
            data[at..at + CBLOCK].copy_from_slice(&bytes);
        }
        let cold_segments = |c: &Controller| c.segments.values().filter(|s| is_cold(c, s)).count();
        let c = a.controller();
        let cold_drive = c.cfg.n_drives;
        let (segments, available) = (cold_segments(c), c.allocators[COLD].available(cold_drive));
        let cold_cblocks = on_cold(c, vol);
        let report = a.run_gc().unwrap();
        let c = a.controller();
        assert!(
            cold_segments(c) < segments,
            "no cold segment freed: {report:?}"
        );
        assert!(c.allocators[COLD].available(cold_drive) > available);
        assert!(report.bytes_relocated > 0, "{report:?}");
        assert_eq!(
            on_cold(c, vol),
            cold_cblocks,
            "GC moved cold data out of its class"
        );
        assert_eq!(a.read(vol, 0, data.len()).unwrap().0, data);
        assert!(a.verify_integrity().is_empty());
    }
}
