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
//!   (§4.7), catching duplicates inline dedup deferred;
//! * **segregates deduplicated blocks into their own segments** (§4.7) —
//!   multiply-referenced cblocks are relocated into a separate fresh
//!   segment, "since blocks with multiple references are less likely to
//!   become completely unreferenced";
//! * flattens the map pyramid and rewrites it as a compact patch set,
//!   bounding recovery work;
//! * shortcuts medium chains so reads touch ≤ 3 cblocks (§4.6).

use crate::controller::{Controller, CtrlFetcher, MapVal};
use crate::error::Result;
use crate::records::{map_patch_records, MapFact, SegmentState, PATCH_CHUNK_FACTS};
use crate::shelf::Shelf;
use crate::types::{BlockLoc, MediumId, Pba, SECTOR};
use purity_dedup::engine::Outcome;
use purity_lsm::Seq;
use purity_sim::Nanos;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;

/// All live references to one cblock: (map key, value) pairs.
type CblockRefs = Vec<((u64, u64), MapVal)>;

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
        let mut pba_refs: HashMap<Pba, CblockRefs> = HashMap::new();
        for (key, val) in &live {
            pba_refs.entry(val.loc.pba).or_default().push((*key, *val));
        }
        let mut seg_live_bytes: BTreeMap<u64, u64> = BTreeMap::new();
        for pba in pba_refs.keys() {
            *seg_live_bytes.entry(pba.segment.0).or_default() += pba.stored_len as u64;
        }

        // ---- Victim selection. ---------------------------------------
        let open_id = self.writer.open_segment().map(|s| s.id.0);
        let protected: HashSet<u64> = self.map_patches.iter().map(|p| p.segment).collect();
        let capacity = (self.layout.n_stripes * self.layout.stripe_data_bytes()) as u64;
        let victims: Vec<u64> = self
            .segments
            .values()
            .filter(|s| {
                s.state == SegmentState::Sealed
                    && Some(s.id.0) != open_id
                    && !protected.contains(&s.id.0)
            })
            .filter(|s| {
                let live = seg_live_bytes.get(&s.id.0).copied().unwrap_or(0);
                (live as f64) < capacity as f64 * self.cfg.gc_occupancy_threshold
            })
            .map(|s| s.id.0)
            .collect();
        let victim_set: HashSet<u64> = victims.iter().copied().collect();

        // ---- Relocation. ---------------------------------------------
        // Split each victim's live cblocks into singly- and multiply-
        // referenced groups; the latter get their own segments (§4.7).
        let mut normal: Vec<(Pba, CblockRefs)> = Vec::new();
        let mut shared: Vec<(Pba, CblockRefs)> = Vec::new();
        for (pba, refs) in pba_refs {
            if !victim_set.contains(&pba.segment.0) {
                continue;
            }
            if refs.len() > 1 || refs.iter().any(|(_, v)| v.deduped) {
                shared.push((pba, refs));
            } else {
                normal.push((pba, refs));
            }
        }
        // Deterministic order: by (segment, offset).
        let by_addr = |a: &(Pba, CblockRefs), b: &(Pba, CblockRefs)| {
            (a.0.segment.0, a.0.offset).cmp(&(b.0.segment.0, b.0.offset))
        };
        normal.sort_by(by_addr);
        shared.sort_by(by_addr);

        for (pba, refs) in &normal {
            report.bytes_relocated +=
                self.relocate_cblock(shelf, pba, refs, &victim_set, &mut report, now)?;
        }
        if !shared.is_empty() {
            // Segregation boundary: dedup-heavy data goes to fresh
            // segments of its own.
            self.seal_open_segment(shelf, now)?;
            for (pba, refs) in &shared {
                report.bytes_relocated +=
                    self.relocate_cblock(shelf, pba, refs, &victim_set, &mut report, now)?;
            }
            self.seal_open_segment(shelf, now)?;
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
        if std::env::var("PURITY_TRACE").is_ok() {
            eprintln!("GC victims: {:?}", victims);
        }
        for victim in &victims {
            let info = match self.segments.remove(victim) {
                Some(i) => i,
                None => continue,
            };
            self.cache.invalidate(|p| p.segment == info.id);
            for au in &info.columns {
                let off = self.layout.au_byte_offset(au.index);
                // Trim is advisory; a failed drive's AU is released anyway.
                let _ = shelf.trim_drive(au.drive, off, self.layout.au_bytes);
                self.allocator.release(*au);
            }
            report.segments_freed += 1;
            report.bytes_freed += capacity;
        }
        self.stats.gc_passes += 1;
        self.stats.gc_segments_freed += report.segments_freed as u64;
        self.stats.gc_bytes_relocated += report.bytes_relocated;
        Ok(report)
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
        let mut claimed: HashSet<(u64, u64, u64)> = HashSet::new(); // (root, root-sector) seen
        for (root, size) in roots {
            let mut candidates: HashSet<u64> = HashSet::new();
            self.collect_candidates(root, 0, size, 0, 0, &mut candidates);
            // Sorted iteration: HashSet order varies per process run and
            // would break byte-identical seed replay.
            let mut candidates: Vec<u64> = candidates.into_iter().collect();
            candidates.sort_unstable();
            candidates.retain(|&x| claimed.insert((root.0, x, 0)));
            for (_x, key, val) in self.resolve_sorted_candidates(root, &candidates) {
                out.push((key, val));
            }
        }
        // The same winning key may be reached from several roots; dedup.
        out.sort_by_key(|(k, _)| *k);
        out.dedup_by_key(|(k, _)| *k);
        out
    }

    /// Resolves a sorted, deduplicated candidate-sector list through the
    /// chain by grouping it into maximal contiguous runs and issuing one
    /// batched [`Controller::resolve_range_entries`] per run — GC
    /// candidate sets are dense, so this turns a per-sector chain walk
    /// plus pyramid point-get into a handful of range queries. Returns
    /// `(root_sector, winning key, value)` in ascending sector order.
    fn resolve_sorted_candidates(
        &self,
        root: MediumId,
        candidates: &[u64],
    ) -> Vec<(u64, (u64, u64), MapVal)> {
        let mut out = Vec::with_capacity(candidates.len());
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
                    out.push((start + k as u64, key, val));
                }
            }
            i = j;
        }
        out
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
        out: &mut HashSet<u64>,
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
                    out.insert(root_x as u64);
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

    /// Relocates one live cblock, re-running dedup over its payload
    /// (rejecting matches that point into segments being collected).
    fn relocate_cblock(
        &mut self,
        shelf: &mut Shelf,
        pba: &Pba,
        refs: &[((u64, u64), MapVal)],
        victim_set: &HashSet<u64>,
        report: &mut GcReport,
        now: Nanos,
    ) -> Result<u64> {
        let (payload, _t) = self.fetch_cblock(shelf, pba, now)?;

        // GC dedup pass (§4.7): the expensive one inline dedup skipped.
        let outcomes: Vec<Outcome<BlockLoc>> = if self.cfg.dedup_enabled {
            let Self {
                dedup,
                cache,
                segments,
                writer,
                layout,
                rs,
                cfg,
                stats,
                ..
            } = self;
            let mut fetcher = CtrlFetcher {
                shelf,
                cache,
                segments,
                writer,
                layout,
                rs,
                read_around: cfg.read_around_writes,
                stats,
                now,
            };
            dedup
                .process(&payload, &mut fetcher)
                .into_iter()
                .map(|o| match o {
                    // Never dedup into a segment being collected (or this
                    // cblock itself).
                    Outcome::Dup { loc, .. }
                        if victim_set.contains(&loc.pba.segment.0) || loc.pba == *pba =>
                    {
                        Outcome::Unique
                    }
                    other => other,
                })
                .collect()
        } else {
            vec![Outcome::Unique; payload.len() / SECTOR]
        };

        // Pack surviving sectors.
        let mut packed = Vec::with_capacity(payload.len());
        let mut packed_index = vec![u16::MAX; outcomes.len()];
        for (i, o) in outcomes.iter().enumerate() {
            if matches!(o, Outcome::Unique) {
                packed_index[i] = (packed.len() / SECTOR) as u16;
                packed.extend_from_slice(&payload[i * SECTOR..(i + 1) * SECTOR]);
            }
        }

        let new_pba = if packed.is_empty() {
            None
        } else {
            let encoded = if self.cfg.compression_enabled {
                purity_compress::compress(&packed)
            } else {
                purity_compress::store_raw(&packed)
            };
            Some(self.place_cblock_with(shelf, &encoded, true, now)?)
        };

        // Rewrite every referencing key with a fresh fact.
        let seq: Seq = self.seq.next();
        for (key, val) in refs {
            let old_sector = val.loc.sector as usize;
            let (loc, deduped) = match &outcomes[old_sector] {
                Outcome::Unique => (
                    BlockLoc {
                        pba: new_pba.expect("unique sectors imply a new cblock"),
                        sector: packed_index[old_sector],
                    },
                    val.deduped,
                ),
                Outcome::Dup { loc, .. } => {
                    report.gc_dedup_sectors += 1;
                    (*loc, true)
                }
            };
            self.map.insert(*key, MapVal { loc, deduped }, seq);
        }
        Ok(payload.len() as u64)
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
            let mut candidates = HashSet::new();
            self.collect_candidates(root, 0, size, 0, 0, &mut candidates);
            // Sorted: materialization order feeds the memtable and from
            // there physical placement; HashSet order would make two
            // runs of the same seed diverge.
            let mut candidates: Vec<u64> = candidates.into_iter().collect();
            candidates.sort_unstable();
            let to_materialize: Vec<(u64, MapVal)> = self
                .resolve_sorted_candidates(root, &candidates)
                .into_iter()
                .filter(|(_, key, _)| key.0 != root.0)
                .map(|(x, _, val)| (x, val))
                .collect();
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
