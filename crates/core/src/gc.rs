//! Garbage collection (§4.5, §4.7, §4.10).
//!
//! Purity's data region is unordered, so GC is cheap: pick low-occupancy
//! sealed segments, relocate their live cblocks into the open segment,
//! and free the AUs. Along the way GC does the jobs the paper assigns it:
//!
//! * consults elide tables — facts for deleted mediums are dropped at
//!   merge rather than relocated, which is the fast space reclamation of
//!   elision (§4.10);
//! * runs the "more expensive deduplication pass" over relocated data
//!   (§4.7), catching duplicates inline dedup missed — and keeps only
//!   the sectors some key still reads, moving a cblock that stays whole
//!   as a copy of its stored bytes (`Controller::relocate`, shared with
//!   the tiering migrator);
//! * **segregates its output** (§4.7 segregates deduplicated blocks,
//!   "less likely to become completely unreferenced") — GC seals the
//!   open segment before and after relocating, so what it moves lands in
//!   segments of its own, apart from host writes;
//! * flattens the map pyramid and rewrites it as a compact patch set,
//!   bounding recovery work;
//! * shortcuts medium chains so reads touch ≤ 3 cblocks (§4.6).
//!
//! GC runs over both device classes: a cold segment's live cblocks are
//! relocated into the cold open segment, and its AUs go back to the
//! cold allocator — the only way cold space is ever freed.

use crate::controller::{Controller, MapKey, MapVal};
use crate::error::Result;
use crate::records::{map_patch_records, MapFact, SegmentState, PATCH_CHUNK_FACTS};
use crate::segment::{SegmentInfo, HOT};
use crate::shelf::Shelf;
use crate::types::{BlockLoc, MediumId, Pba, SECTOR};
use crate::write::encode_cblock;
use purity_dedup::engine::Outcome;
use purity_lsm::Seq;
use purity_obs::OpTrace;
use purity_sim::Nanos;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::ops::Bound;

/// All live references to one cblock: (map key, value) pairs.
type CblockRefs = [(MapKey, MapVal)];

/// What one [`Controller::relocate`] call moved.
pub(crate) struct Relocated {
    /// Decoded payload bytes of the cblock.
    pub payload_bytes: u64,
    /// Encoded bytes placed (0 when every sector deduplicated away).
    pub placed_bytes: u64,
    /// When the fetch completed.
    pub fetched_at: Nanos,
    /// References repointed at a duplicate the dedup pass found.
    pub dedup_sectors: u64,
    /// Sectors no key reads, left behind.
    pub sectors_dropped: u64,
    /// The stored bytes were placed verbatim: no pack, no compress.
    pub copied: bool,
}

/// What one GC pass accomplished.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// Segments reclaimed.
    pub segments_freed: usize,
    /// Live bytes relocated.
    pub bytes_relocated: u64,
    /// Physical bytes freed (victim capacity).
    pub bytes_freed: u64,
    /// Sectors newly deduplicated by the GC dedup pass.
    pub gc_dedup_sectors: u64,
    /// cblocks relocated by placing their stored bytes verbatim.
    pub cblocks_copied: u64,
    /// cblocks relocated by re-packing and re-encoding the payload (a
    /// sector was dead or the pass found a new duplicate for it, or the
    /// fetch was a cache hit).
    pub cblocks_repacked: u64,
    /// Sectors of relocated cblocks that no key reads, not carried over.
    pub sectors_dropped: u64,
    /// Medium-table rows shortcut.
    pub medium_shortcuts: usize,
    /// Map facts dropped by the flatten (superseded + elided).
    pub map_facts_dropped: u64,
    /// Root mediums whose chains were rewritten in flattened form
    /// (facts materialized at the root; rows terminated).
    pub mediums_flattened: usize,
    /// Unreachable mediums elided after flattening.
    pub mediums_orphaned: usize,
}

impl Controller {
    /// Runs one full garbage-collection pass.
    pub fn run_gc(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<GcReport> {
        purity_obs::profile_scope!(purity_obs::Plane::Gc);
        // Every drive program this pass issues (relocation, map patch
        // rewrites, checkpoints) is GC traffic for stall attribution.
        shelf.set_gc_mode(true);
        let r = self.run_gc_inner(shelf, now);
        shelf.set_gc_mode(false);
        r
    }

    fn run_gc_inner(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<GcReport> {
        let mut report = GcReport::default();

        // ---- Liveness scan: *reachability*, not mere fact-existence.
        // A fact is live only if some user-visible root (volume anchor or
        // snapshot medium) resolves to it. Facts shadowed by newer writes
        // higher in a medium chain — e.g. a destroyed snapshot's data the
        // volume has fully overwritten — are unreachable and reclaimable
        // even when their medium survives as a chain target.
        let live = self.reachable_live();
        // Grouped by cblock. `live` is in key order and a cblock's
        // references are mostly consecutive keys, so sort the *runs* of
        // one location, not the entries: stable, so a cblock's runs stay
        // in key order, and the cblocks come out in (segment, offset)
        // order, which is also the relocation order.
        let pba_of = |run: &&CblockRefs| run[0].1.loc.pba;
        let mut runs: Vec<&CblockRefs> = live.chunk_by(|a, b| a.1.loc.pba == b.1.loc.pba).collect();
        runs.sort_by_key(pba_of);
        let by_cblock = || runs.chunk_by(|a, b| pba_of(a) == pba_of(b));
        let mut seg_live_bytes: BTreeMap<u64, u64> = BTreeMap::new();
        for cblock in by_cblock() {
            let pba = pba_of(&cblock[0]);
            *seg_live_bytes.entry(pba.segment.0).or_default() += pba.stored_len as u64;
        }

        // ---- Victim selection, in both classes. -----------------------
        let open: Vec<u64> = (self.writers.iter())
            .filter_map(|w| w.open_segment().map(|s| s.id.0))
            .collect();
        let protected: HashSet<u64> = self.map_patches.iter().map(|p| p.segment).collect();
        // Ascending (segment-table order): membership is a binary search.
        let victims: Vec<u64> = self
            .segments
            .values()
            .filter(|s| {
                s.state == SegmentState::Sealed
                    && !open.contains(&s.id.0)
                    && !protected.contains(&s.id.0)
            })
            .filter(|s| {
                let live = seg_live_bytes.get(&s.id.0).copied().unwrap_or(0);
                (live as f64) < self.capacity(s) as f64 * self.cfg.gc_occupancy_threshold
            })
            .map(|s| s.id.0)
            .collect();

        // ---- Relocation, into hot segments host writes never share. ----
        let mut moving = by_cblock()
            .filter(|cblock| victims.binary_search(&pba_of(&cblock[0]).segment.0).is_ok())
            .peekable();
        if moving.peek().is_some() {
            self.seal_open_segment(shelf, HOT, now)?;
            for cblock in moving {
                let refs = match cblock {
                    [run] => Cow::Borrowed(*run),
                    runs => Cow::Owned(runs.concat()),
                };
                self.relocate_cblock(shelf, &refs, &victims, &mut report, now)?;
            }
            self.seal_open_segment(shelf, HOT, now)?;
        }

        // ---- Map maintenance: flush, flatten, compact patch set. -----
        let before_facts = self.map.total_facts() as u64;
        self.flush_map_patch(shelf, now)?;
        self.map.flatten();
        report.map_facts_dropped = before_facts.saturating_sub(self.map.total_facts() as u64);
        self.rewrite_map_patches(shelf, now)?;

        // ---- Medium chain shortcuts + tree flattening. ----------------
        let seq = self.seq.next();
        report.medium_shortcuts = self.shortcut_mediums(seq);
        report.mediums_flattened = self.flatten_deep_chains(shelf, 3)?;
        report.mediums_orphaned = self.elide_unreachable_mediums();

        // ---- Durability point, then free victims. --------------------
        self.write_checkpoint(shelf, now)?;
        for victim in &victims {
            let info = match self.segments.remove(victim) {
                Some(i) => i,
                None => continue,
            };
            self.cache.invalidate(|p| p.segment == info.id);
            let class = info.class(self.cfg.n_drives);
            let layout = *self.writers[class].layout();
            for au in &info.columns {
                let off = layout.au_byte_offset(au.index);
                // Trim is advisory; a failed drive's AU is released anyway.
                let _ = shelf.trim_drive(au.drive, off, layout.au_bytes);
                self.allocators[class].release(*au);
            }
            report.segments_freed += 1;
            report.bytes_freed += self.capacity(&info);
        }
        self.stats.gc_passes += 1;
        self.stats.gc_segments_freed += report.segments_freed as u64;
        self.stats.gc_bytes_relocated += report.bytes_relocated;
        Ok(report)
    }

    /// Data bytes a segment of `info`'s class holds when full.
    pub(crate) fn capacity(&self, info: &SegmentInfo) -> u64 {
        let layout = self.writers[info.class(self.cfg.n_drives)].layout();
        (layout.n_stripes * layout.stripe_data_bytes()) as u64
    }

    /// Computes the reachable-live fact set: for every user-visible root
    /// (volume anchor, snapshot medium), the facts its reads resolve to.
    pub(crate) fn reachable_live(&self) -> Vec<((u64, u64), MapVal)> {
        let mut roots: Vec<(MediumId, u64)> = Vec::new();
        for v in self.volumes.values() {
            roots.push((v.anchor, v.size_sectors));
        }
        for s in self.snapshots.values() {
            let size = self
                .volumes
                .get(&s.volume.0)
                .map(|v| v.size_sectors)
                .unwrap_or(u64::MAX / 4);
            roots.push((s.medium, size));
        }
        let mut out: Vec<((u64, u64), MapVal)> = Vec::new();
        let mut claimed: HashSet<u64> = HashSet::new(); // roots already walked
        for (root, size) in roots {
            if !claimed.insert(root.0) {
                continue;
            }
            self.for_each_reachable(root, size, |_x, key, val| out.push((key, val)));
        }
        // The same winning key may be reached from several roots; dedup.
        out.sort_by_key(|(k, _)| *k);
        out.dedup_by_key(|(k, _)| *k);
        out
    }

    /// Calls `f(root_sector, winning key, value)` for every sector of
    /// `root` that reads as data, in ascending sector order. The
    /// candidates — sectors some medium of the chain has a fact for —
    /// are grouped into maximal contiguous runs, each resolved by one
    /// batched [`Controller::resolve_range_entries`]: GC candidate sets
    /// are dense, so this turns a per-sector chain walk plus pyramid
    /// point-get into a handful of range queries.
    fn for_each_reachable(
        &self,
        root: MediumId,
        size: u64,
        mut f: impl FnMut(u64, MapKey, MapVal),
    ) {
        // Each medium's range scan arrives in order, so the sort mostly
        // confirms runs that are already sorted.
        let mut candidates = Vec::new();
        self.collect_candidates(root, 0, size, 0, 0, &mut candidates);
        candidates.sort_unstable();
        candidates.dedup();
        let mut i = 0;
        while i < candidates.len() {
            let start = candidates[i];
            let mut j = i + 1;
            while j < candidates.len() && candidates[j] == candidates[j - 1] + 1 {
                j += 1;
            }
            let n = (candidates[j - 1] - start + 1) as usize;
            for (k, entry) in self
                .resolve_range_entries(root, start, n)
                .into_iter()
                .enumerate()
            {
                if let Some((key, val)) = entry {
                    f(start + k as u64, key, val);
                }
            }
            i = j;
        }
    }

    /// Recursively gathers root-coordinate sectors that may have data:
    /// every fact in every medium of `medium`'s chain, mapped back into
    /// root coordinates. `delta` is the root-sector displacement of this
    /// medium's coordinates (root_x = medium_sector + delta, as i128).
    fn collect_candidates(
        &self,
        medium: MediumId,
        lo: u64,
        hi: u64,
        delta: i128,
        depth: usize,
        out: &mut Vec<u64>,
    ) {
        if depth > 64 || lo >= hi {
            return;
        }
        self.map.range_for_each(
            Bound::Included(&(medium.0, lo)),
            Bound::Excluded(&(medium.0, hi)),
            |key, _val, _seq| {
                let root_x = key.1 as i128 + delta;
                if root_x >= 0 {
                    out.push(root_x as u64);
                }
            },
        );
        for (start, row) in self.mediums.rows_of(medium) {
            let Some(target) = row.target else { continue };
            let ilo = lo.max(start);
            let ihi = hi.min(row.end);
            if ilo >= ihi {
                continue;
            }
            // Medium sector m maps to target sector m - start + offset;
            // so target sector t has root_x = t + (start - offset) + delta.
            let t_lo = row.target_offset + (ilo - start);
            let t_hi = row.target_offset + (ihi - start);
            let t_delta = delta + start as i128 - row.target_offset as i128;
            self.collect_candidates(target, t_lo, t_hi, t_delta, depth + 1, out);
        }
    }

    /// Relocates one live cblock of a GC victim into the open segment of
    /// the victim's class, re-running dedup over its payload (§4.7).
    fn relocate_cblock(
        &mut self,
        shelf: &mut Shelf,
        refs: &CblockRefs,
        victims: &[u64],
        report: &mut GcReport,
        now: Nanos,
    ) -> Result<()> {
        let class = self.class_of(&refs[0].1.loc.pba);
        let moved = self.relocate(
            shelf,
            refs,
            Some(victims),
            now,
            None,
            // GC may dig into the reserved AU headroom.
            |ctrl, shelf, encoded| Ok(ctrl.place_cblock(shelf, class, encoded, true, now)?.0),
        )?;
        report.bytes_relocated += moved.payload_bytes;
        report.gc_dedup_sectors += moved.dedup_sectors;
        report.sectors_dropped += moved.sectors_dropped;
        if moved.copied {
            report.cblocks_copied += 1;
        } else {
            report.cblocks_repacked += 1;
        }
        Ok(())
    }

    /// The one relocation primitive — GC, demotion and promotion all
    /// move a cblock through here: fetch it, decide the bytes to place,
    /// hand them to `place` (which picks the class), and repoint every
    /// referencing key at the new location with one fresh-seq batch.
    ///
    /// A sector survives when some ref reads it and the dedup pass found
    /// no duplicate for it. The fetch always decodes (that is the move's
    /// integrity check and the dedup pass's input), and when every
    /// sector survives the stored bytes it read *are*
    /// `encode_cblock(payload)`, so they are placed verbatim. Otherwise
    /// the survivors are re-packed and re-encoded, as is a cblock whose
    /// payload came from the cache with no stored bytes in hand.
    ///
    /// `refs` is every live reference to the cblock (at least one).
    /// `dedup_victims` asks for the "more expensive" dedup pass (§4.7)
    /// and names the segments a match must not point into (ascending).
    pub(crate) fn relocate(
        &mut self,
        shelf: &mut Shelf,
        refs: &CblockRefs,
        dedup_victims: Option<&[u64]>,
        now: Nanos,
        trace: Option<&mut OpTrace>,
        place: impl FnOnce(&mut Self, &mut Shelf, &[u8]) -> Result<Pba>,
    ) -> Result<Relocated> {
        let pba = refs[0].1.loc.pba;
        let fetched = self.fetch_cblock(shelf, &pba, now, trace)?;
        let payload = fetched.payload;

        // The dedup pass, when asked for; no outcomes = no duplicates.
        let mut outcomes: Vec<Outcome<BlockLoc>> = Vec::new();
        if let Some(victims) = dedup_victims.filter(|_| self.cfg.dedup_enabled) {
            let (dedup, mut fetcher) = self.fetcher(shelf, now);
            outcomes = dedup.process(&payload, &mut fetcher);
            for o in &mut outcomes {
                // Never dedup into a segment being collected (or this
                // cblock itself).
                if matches!(o, Outcome::Dup { loc, .. }
                    if victims.binary_search(&loc.pba.segment.0).is_ok() || loc.pba == pba)
                {
                    *o = Outcome::Unique;
                }
            }
        }

        let mut survives = vec![false; payload.len() / SECTOR];
        refs.iter()
            .for_each(|(_, val)| survives[val.loc.sector as usize] = true);
        let sectors_dropped = survives.iter().filter(|&&s| !s).count() as u64;
        for (s, o) in survives.iter_mut().zip(&outcomes) {
            *s &= matches!(o, Outcome::Unique);
        }

        // Bytes to place, and where each surviving sector lands in them
        // (`packed_index` stays empty when every sector keeps its index).
        let compression = self.cfg.compression_enabled;
        let mut packed_index: Vec<u16> = Vec::new();
        let mut copied = false;
        let encoded = if survives.iter().all(|&s| s) {
            Some(match fetched.stored {
                Some(stored) => {
                    debug_assert_eq!(stored, encode_cblock(&payload, compression));
                    copied = true;
                    stored
                }
                None => encode_cblock(&payload, compression),
            })
        } else {
            let mut packed = Vec::with_capacity(payload.len());
            packed_index = vec![u16::MAX; survives.len()];
            for (i, sector) in payload.chunks_exact(SECTOR).enumerate() {
                if survives[i] {
                    packed_index[i] = (packed.len() / SECTOR) as u16;
                    packed.extend_from_slice(sector);
                }
            }
            (!packed.is_empty()).then(|| encode_cblock(&packed, compression))
        };
        let new_pba = encoded
            .as_deref()
            .map(|bytes| place(self, shelf, bytes))
            .transpose()?;

        // Repoint every referencing key with a fresh fact. A surviving
        // sector's index addresses the placed payload.
        let seq: Seq = self.seq.next();
        let mut dedup_sectors = 0;
        self.map.insert_many(refs.iter().map(|(key, val)| {
            let old_sector = val.loc.sector as usize;
            let (loc, deduped) = match outcomes.get(old_sector) {
                Some(Outcome::Dup { loc, .. }) => {
                    dedup_sectors += 1;
                    (*loc, true)
                }
                _ => (
                    BlockLoc {
                        pba: new_pba.expect("surviving sectors imply a placed cblock"),
                        sector: packed_index
                            .get(old_sector)
                            .copied()
                            .unwrap_or(val.loc.sector),
                    },
                    val.deduped,
                ),
            };
            (*key, MapVal { loc, deduped }, seq)
        }));
        Ok(Relocated {
            payload_bytes: payload.len() as u64,
            placed_bytes: encoded.map_or(0, |e| e.len() as u64),
            fetched_at: fetched.done,
            dedup_sectors,
            sectors_dropped,
            copied,
        })
    }

    /// Rewrites the flattened map as a compact set of patch records in
    /// the current segment and swaps the checkpoint patch list to them.
    fn rewrite_map_patches(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<()> {
        let mut facts: Vec<[u64; MapFact::COLS]> = Vec::with_capacity(self.map.total_facts());
        self.map
            .range_for_each(Bound::Unbounded, Bound::Unbounded, |key, val, seq| {
                facts.push(
                    MapFact {
                        medium: MediumId(key.0),
                        sector: key.1,
                        loc: val.loc,
                        deduped: val.deduped,
                        seq,
                    }
                    .to_row_fixed(),
                );
            });
        let mut new_patches = Vec::new();
        for bytes in map_patch_records(&facts, PATCH_CHUNK_FACTS) {
            new_patches.push(self.append_log_record(shelf, &bytes, now)?);
        }
        self.map_patches = new_patches;
        Ok(())
    }

    /// §4.6: "Purity's garbage collector rewrites trees of mediums in a
    /// flattened form so that application reads never have to access more
    /// than three cblocks." For every user-visible root whose chain runs
    /// deeper than `max_depth`, resolve every reachable sector and
    /// materialize the winning fact directly on the root, then terminate
    /// the root's rows — reads become single-lookup, and the chain below
    /// falls out of reach.
    fn flatten_deep_chains(&mut self, shelf: &mut Shelf, max_depth: usize) -> Result<usize> {
        let now = shelf.clock.now();
        let roots: Vec<(MediumId, u64)> = self
            .volumes
            .values()
            .map(|v| (v.anchor, v.size_sectors))
            .chain(self.snapshots.values().map(|s| {
                let size = self
                    .volumes
                    .get(&s.volume.0)
                    .map(|v| v.size_sectors)
                    .unwrap_or(u64::MAX / 4);
                (s.medium, size)
            }))
            .collect();
        let mut flattened = 0;
        for (root, size) in roots {
            if self.root_chain_depth(root, size) <= max_depth {
                continue;
            }
            let mut to_materialize: Vec<(u64, MapVal)> = Vec::new();
            self.for_each_reachable(root, size, |x, key, val| {
                if key.0 != root.0 {
                    to_materialize.push((x, val));
                }
            });
            let seq = self.seq.next();
            self.map.insert_many(
                to_materialize
                    .into_iter()
                    .map(|(x, val)| ((root.0, x), val, seq)),
            );
            // Terminate the root's rows: everything it can see is now a
            // direct fact; unwritten sectors read zero without a walk.
            let writable = self.mediums.is_writable(root, 0);
            self.mediums.replace_rows(
                root,
                0,
                crate::medium::MediumRow {
                    end: size,
                    target: None,
                    target_offset: 0,
                    writable,
                    seq,
                },
            );
            flattened += 1;
        }
        if flattened > 0 {
            // Durability for the materialized facts before anything
            // downstream relies on the rewritten rows.
            self.flush_map_patch(shelf, now)?;
        }
        Ok(flattened)
    }

    /// Maximum row-walk depth from a root over sampled sectors.
    pub fn root_chain_depth(&self, root: MediumId, size: u64) -> usize {
        let step = (size / 16).max(1);
        (0..size)
            .step_by(step as usize)
            .map(|x| self.mediums.resolve(root, x).len())
            .max()
            .unwrap_or(0)
    }

    /// Depth of the deepest user-visible chain (volumes and snapshots).
    pub fn max_root_chain_depth(&self) -> usize {
        let mut max = 0;
        for v in self.volumes.values() {
            max = max.max(self.root_chain_depth(v.anchor, v.size_sectors));
        }
        for s in self.snapshots.values() {
            let size = self
                .volumes
                .get(&s.volume.0)
                .map(|v| v.size_sectors)
                .unwrap_or(1);
            max = max.max(self.root_chain_depth(s.medium, size));
        }
        max
    }

    /// Elides mediums no user-visible root can reach through the medium
    /// table (flattening orphans entire sub-chains).
    fn elide_unreachable_mediums(&mut self) -> usize {
        let mut reachable: HashSet<u64> = HashSet::new();
        let mut stack: Vec<MediumId> = self
            .volumes
            .values()
            .map(|v| v.anchor)
            .chain(self.snapshots.values().map(|s| s.medium))
            .collect();
        while let Some(m) = stack.pop() {
            if !reachable.insert(m.0) {
                continue;
            }
            for (_, row) in self.mediums.rows_of(m) {
                if let Some(t) = row.target {
                    stack.push(t);
                }
            }
        }
        let all = self.mediums.live_mediums();
        let mut orphaned = 0;
        for m in all {
            if !reachable.contains(&m.0) {
                self.elide_medium(m);
                orphaned += 1;
            }
        }
        orphaned
    }

    /// Runs medium shortcut passes to a fixpoint; returns rewrites.
    fn shortcut_mediums(&mut self, seq: Seq) -> usize {
        let mut total = 0;
        for _ in 0..8 {
            let Self { map, mediums, .. } = self;
            let n = mediums.shortcut_pass(
                |m: MediumId, start: u64, end: u64| {
                    map.range_any(Bound::Included(&(m.0, start)), Bound::Excluded(&(m.0, end)))
                },
                seq,
            );
            total += n;
            if n == 0 {
                break;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use crate::controller::MapVal;
    use crate::fault::{FaultEvent, FaultOutcome};
    use crate::types::{BlockLoc, Pba};
    use crate::{ArrayConfig, FlashArray};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A corrupt flash page under a live cblock of a GC victim: the
    /// relocation reads around it, and what it places is what it decoded
    /// — never the bytes the page holds now.
    #[test]
    fn relocation_reads_around_a_corrupt_page_of_a_victim() {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let keep = a.create_volume("keep", 2 << 20).unwrap();
        let kill = a.create_volume("kill", 16 << 20).unwrap();
        let keep_data: Vec<u8> = (0..256 * 1024).map(|i| (i / 7 % 251) as u8).collect();
        a.write(keep, 0, &keep_data).unwrap();
        // Enough doomed, incompressible data to seal the segment `keep`
        // shares with it.
        let mut rng = StdRng::seed_from_u64(17);
        let mut chunk = vec![0u8; 256 * 1024];
        for i in 0..24u64 {
            rng.fill(&mut chunk[..]);
            a.write(kill, i * 256 * 1024, &chunk).unwrap();
        }
        a.destroy_volume(kill).unwrap();

        // The page under the first byte of `keep`'s first cblock.
        let ctrl = a.controller();
        let anchor = ctrl.volumes[&keep.0].anchor;
        let pba = ctrl.resolve_sector(anchor, 0).unwrap().loc.pba;
        let layout = ctrl.writers[crate::segment::HOT].layout();
        let ext = layout.data_extents(pba.offset, 1)[0];
        let au = ctrl.segments[&pba.segment.0].columns[ext.column];
        let offset = layout.wu_byte_offset(au.index, ext.stripe, ext.within);
        let outcome = a.apply_fault(&FaultEvent::CorruptAt {
            drive: au.drive,
            offset,
        });
        assert!(matches!(outcome, Ok(FaultOutcome::Corrupted(true))));

        let rebuilt_before = a.stats().reconstructed_reads;
        let report = a.run_gc().unwrap();
        assert!(report.segments_freed > 0, "{report:?}");
        assert!(report.cblocks_copied > 0, "{report:?}");
        assert!(
            a.stats().reconstructed_reads > rebuilt_before,
            "the relocation never met the corrupt page"
        );
        let moved = a.controller().resolve_sector(anchor, 0).unwrap().loc.pba;
        assert_ne!(moved.segment, pba.segment, "the victim was not collected");
        let (back, _) = a.read(keep, 0, keep_data.len()).unwrap();
        assert!(back == keep_data, "relocated data differs");
        assert!(a.verify_integrity().is_empty());
    }

    /// A cblock half overwritten moves with only its live half: the
    /// relocated cblock decodes to exactly the sectors a key still reads.
    #[test]
    fn relocation_drops_the_sectors_no_key_reads() {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let keep = a.create_volume("keep", 2 << 20).unwrap();
        let kill = a.create_volume("kill", 16 << 20).unwrap();
        let mut rng = StdRng::seed_from_u64(19);
        // One 64-sector cblock, then new data over its first 32 sectors.
        let mut data = vec![0u8; 32 * 1024];
        rng.fill(&mut data[..]);
        a.write(keep, 0, &data).unwrap();
        let mut head = vec![0u8; 16 * 1024];
        rng.fill(&mut head[..]);
        a.write(keep, 0, &head).unwrap();
        data[..head.len()].copy_from_slice(&head);
        let mut chunk = vec![0u8; 256 * 1024];
        for i in 0..24u64 {
            rng.fill(&mut chunk[..]);
            a.write(kill, i * 256 * 1024, &chunk).unwrap();
        }
        a.destroy_volume(kill).unwrap();

        let anchor = a.controller().volumes[&keep.0].anchor;
        let tail_loc = |a: &FlashArray| a.controller().resolve_sector(anchor, 32).unwrap().loc;
        let before = tail_loc(&a);
        assert_eq!(before.sector, 32);
        let report = a.run_gc().unwrap();
        let after = tail_loc(&a);
        assert_ne!(
            after.pba.segment, before.pba.segment,
            "the victim was not collected"
        );
        assert_eq!(report.sectors_dropped, 32, "{report:?}");
        assert_eq!(after.sector, 0, "the live half is packed to the front");

        let (ctrl, shelf) = a.controller_and_shelf();
        let now = shelf.clock.now();
        let moved = ctrl.fetch_cblock(shelf, &after.pba, now, None).unwrap();
        assert!(
            moved.payload[..] == data[16 * 1024..],
            "the relocated cblock holds dead sectors"
        );
        let (back, _) = a.read(keep, 0, data.len()).unwrap();
        assert!(back == data, "relocated data differs");
        assert!(a.verify_integrity().is_empty());
    }

    /// A live map fact into a segment GC has freed is a violation: the
    /// one rule over every reachable reference, hot or cold, catches it.
    #[test]
    fn a_fact_into_a_freed_segment_is_a_violation() {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let keep = a.create_volume("keep", 2 << 20).unwrap();
        let kill = a.create_volume("kill", 16 << 20).unwrap();
        a.write(keep, 0, &[7u8; 64 * 1024]).unwrap();
        let mut rng = StdRng::seed_from_u64(18);
        let mut chunk = vec![0u8; 256 * 1024];
        for i in 0..24u64 {
            rng.fill(&mut chunk[..]);
            a.write(kill, i * 256 * 1024, &chunk).unwrap();
        }
        a.destroy_volume(kill).unwrap();
        let before: Vec<u64> = a.controller().segments.keys().copied().collect();
        a.run_gc().unwrap();
        assert!(a.verify_integrity().is_empty());
        let (ctrl, _) = a.controller_and_shelf();
        let freed = *before
            .iter()
            .find(|id| !ctrl.segments.contains_key(id))
            .expect("GC freed a segment");
        let pba = Pba {
            segment: crate::types::SegmentId(freed),
            offset: 0,
            stored_len: 4096,
        };
        let anchor = ctrl.volumes[&keep.0].anchor;
        let val = MapVal {
            loc: BlockLoc { pba, sector: 0 },
            deduped: false,
        };
        let seq = ctrl.seq.next();
        ctrl.map.insert((anchor.0, 0), val, seq);
        let violations = a.verify_integrity();
        assert!(
            violations.iter().any(|v| v.contains("not in the table")),
            "{violations:?}"
        );
    }
}
