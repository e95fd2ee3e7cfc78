//! Garbage collection (§4.5, §4.7, §4.10).
//!
//! Purity's data region is unordered, so GC is cheap: pick low-occupancy
//! sealed segments, relocate their live cblocks into the open segment,
//! and free the AUs. Occupancy is live bytes against the bytes written
//! into a segment, not its capacity: a partial segment that nothing has
//! overwritten (a pass seals two, the host's before it moves and its own
//! after) is not moved again, so one pass's output is not the next
//! one's input. Only a class short of space judges by capacity and packs
//! its partial segments into whole ones: when one of its drives is down
//! to the reserve, or when the segments only that judgement collects
//! hold as many AUs as writes can still take. Along the way GC does the
//! jobs the paper assigns it:
//!
//! * consults elide tables — facts for deleted mediums are dropped at
//!   merge rather than relocated, which is the fast space reclamation of
//!   elision (§4.10);
//! * runs the "more expensive deduplication pass" over relocated data
//!   (§4.7), catching duplicates inline dedup missed — a hash hit on the
//!   cblock being moved or on a segment being collected is a miss, never
//!   fetched or verified — and keeps only the sectors some key still
//!   reads, moving a cblock that stays whole as a copy of its stored
//!   bytes (`Controller::relocate`, shared with the tiering migrator);
//! * leaves the host's hot set in the read cache: a move's fetch is
//!   served from the cache on a hit but never admits the cblock, whose
//!   old address no reference keeps once it has moved;
//! * **segregates its output** (§4.7 segregates deduplicated blocks,
//!   "less likely to become completely unreferenced") — GC seals the
//!   open segment before and after relocating, so what it moves lands in
//!   segments of its own, apart from host writes; that sealing is the
//!   only segregation, and the partial segments it leaves are judged by
//!   what they hold;
//! * compacts the map pyramid (memtable and patches in one merge) and
//!   writes it once, as the patch set the checkpoint names, bounding
//!   recovery work: the records go back to back into the log and are
//!   flushed together, so they pad one log stripe, not one each;
//! * shortcuts medium chains so reads touch ≤ 3 cblocks (§4.6).
//!
//! GC runs over both device classes: a cold segment's live cblocks are
//! relocated into the cold open segment, and its AUs go back to the
//! cold allocator — the only way cold space is ever freed.

use crate::controller::{Controller, MapKey, RecordId, Stored};
use crate::error::{PurityError, Result};
use crate::records::{map_patch_records, PATCH_CHUNK_FACTS};
use crate::segment::{SegmentInfo, SegmentState, HOT};
use crate::shelf::Shelf;
use crate::types::{BlockLoc, MediumId, Pba, SECTOR};
use crate::write::encode_cblock;
use purity_dedup::engine::Outcome;
use purity_lsm::Seq;
use purity_obs::OpTrace;
use purity_sim::Nanos;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::ops::Bound::{self, Unbounded};

/// GC collects sealed segments whose live bytes are below this share of
/// the bytes written into them (of their capacity, under space pressure).
const GC_OCCUPANCY_THRESHOLD: f64 = 0.55;

/// All live references to one cblock: (map key, value) pairs.
type CblockRefs = [(MapKey, Stored)];

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
        // A segment holding a record the checkpoint names stays. One whose
        // records are all dead is fair game: nothing names them, and the
        // checkpoint below is written before any victim is freed.
        let protected: HashSet<u64> = self.map_records.locs().map(|p| p.segment).collect();
        // A segment is a victim when its live bytes are under the
        // threshold of the bytes written into it, so a partial segment
        // nothing has overwritten (one a pass sealed) is not moved again;
        // one with nothing live is, even with no data bytes (log only).
        // A class short of space judges by capacity, and packs its
        // partial segments into whole ones: when a drive is down to its
        // reserve, or when the segments only that judgement collects hold
        // as many AUs as writes can still take.
        let sealed: Vec<(&SegmentInfo, u64)> = (self.segments.values())
            .filter(|s| {
                s.state == SegmentState::Sealed
                    && !open.contains(&s.id.0)
                    && !protected.contains(&s.id.0)
            })
            .map(|s| (s, seg_live_bytes.get(&s.id.0).copied().unwrap_or(0)))
            .collect();
        let under = |live: u64, basis: u64| {
            live == 0 || (live as f64) < basis as f64 * GC_OCCUPANCY_THRESHOLD
        };
        let n_hot = self.cfg.n_drives;
        let mut deferred = [0; 2];
        for &(s, live) in &sealed {
            if under(live, self.capacity(s)) && !under(live, s.data_bytes) {
                deferred[s.class(n_hot)] += s.columns.len();
            }
        }
        let short: [bool; 2] = std::array::from_fn(|class| {
            let a = &self.allocators[class];
            a.min_available().is_some_and(|n| n <= Self::RESERVE_AUS)
                || deferred[class] >= a.spare(Self::RESERVE_AUS)
        });
        // Ascending (segment-table order): membership is a binary search.
        let victims: Vec<u64> = (sealed.iter())
            .filter(|&&(s, live)| {
                let class = s.class(n_hot);
                under(
                    live,
                    if short[class] {
                        self.capacity(s)
                    } else {
                        s.data_bytes
                    },
                )
            })
            .map(|(s, _)| s.id.0)
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

        // ---- Map maintenance: compact once, encode once. -------------
        // The memtable is not flushed on its own: the checkpoint below
        // names only the compacted records, so a flushed record would be
        // dead before anything pointed at it.
        let before_facts = self.map.total_facts() as u64;
        if self.map.memtable_facts() > 0 {
            self.persist_memtable_data(shelf, now)?;
        }
        // Ids for every record the compacted run, at most every fact, is
        // cut into; each fact is tagged with its record's.
        let first = (self.map_records).reserve(self.map.total_facts() / PATCH_CHUNK_FACTS + 1);
        let whole =
            (self.map).compact(|i, v| v.record = first + (i / PATCH_CHUNK_FACTS) as RecordId);
        report.map_facts_dropped = before_facts.saturating_sub(self.map.total_facts() as u64);
        let facts = whole
            .as_deref()
            .map_or(&[][..], |p| p.range_slice(Unbounded, Unbounded));
        let records: Vec<Vec<u8>> =
            map_patch_records(facts, PATCH_CHUNK_FACTS, &self.unsaved_fills).collect();
        let locs = self.append_log_records(shelf, &records, now)?;
        // The compacted records hold each key once: they are named, and
        // every older record is superseded.
        self.map_records.name((first..).zip(locs), &self.map);

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
    pub(crate) fn reachable_live(&self) -> Vec<((u64, u64), Stored)> {
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
        let mut out: Vec<((u64, u64), Stored)> = Vec::new();
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
        mut f: impl FnMut(u64, MapKey, Stored),
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
    /// The fetch looks the cache up but admits nothing: its entry would
    /// be keyed by the address the move leaves, so it could only evict
    /// what host reads hit.
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
        let fetched = self.fetch_for_move(shelf, &pba, now, trace)?;
        let payload = fetched.payload;

        let mut survives = vec![false; payload.len() / SECTOR];
        for (_, val) in refs {
            let sector = val.loc.sector;
            *survives.get_mut(sector as usize).ok_or_else(|| {
                PurityError::DataLoss(format!(
                    "cblock at {pba:?} shorter than mapped sector {sector}"
                ))
            })? = true;
        }
        let sectors_dropped = survives.iter().filter(|&&s| !s).count() as u64;

        // The dedup pass, when asked for; no outcomes = no duplicates.
        // A hit on this cblock or on a segment being collected is a
        // miss, and an anchor's run stays inside its own hit's cblock,
        // so no outcome points into either.
        let mut outcomes: Vec<Outcome<BlockLoc>> = Vec::new();
        if let Some(victims) = dedup_victims.filter(|_| self.cfg.dedup_enabled) {
            let (dedup, mut fetcher) = self.fetcher(shelf, now);
            outcomes = dedup.process_excluding(&payload, &mut fetcher, |loc| {
                loc.pba == pba || victims.binary_search(&loc.pba.segment.0).is_ok()
            });
        }
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
            (*key, Stored::new(loc, deduped), seq)
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
            let mut to_materialize: Vec<(u64, Stored)> = Vec::new();
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
    use crate::controller::Stored;
    use crate::error::PurityError;
    use crate::fault::{FaultEvent, FaultOutcome};
    use crate::records::PATCH_CHUNK_FACTS;
    use crate::segment::HOT;
    use crate::types::{BlockLoc, Pba, SECTOR};
    use crate::{ArrayConfig, FlashArray};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeMap;

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
        let moved = ctrl.fetch_for_move(shelf, &after.pba, now, None).unwrap();
        assert!(
            moved.payload[..] == data[16 * 1024..],
            "the relocated cblock holds dead sectors"
        );
        let (back, _) = a.read(keep, 0, data.len()).unwrap();
        assert!(back == data, "relocated data differs");
        assert!(a.verify_integrity().is_empty());
    }

    /// A move admits nothing to the read cache: with the cache full of
    /// cblocks host reads put there, a pass that relocates more live
    /// bytes than the cache holds evicts none of them.
    #[test]
    fn a_pass_leaves_the_host_hot_set_in_the_cache() {
        const CBLOCK: usize = 32 * 1024;
        let cfg = ArrayConfig {
            cache_bytes: 8 * CBLOCK,
            ..ArrayConfig::test_small()
        };
        let mut a = FlashArray::new(cfg).unwrap();
        let hot = a.create_volume("hot", 4 << 20).unwrap();
        let keep = a.create_volume("keep", 4 << 20).unwrap();
        let kill = a.create_volume("kill", 4 << 20).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let mut chunk = vec![0u8; 256 * 1024];
        // The hot volume fills a segment of its own, which stays whole.
        for i in 0..8u64 {
            rng.fill(&mut chunk[..]);
            a.write(hot, i * chunk.len() as u64, &chunk).unwrap();
        }
        // Half-live segments: `keep` and `kill` interleaved, then `kill`
        // destroyed.
        let half = &mut chunk[..128 * 1024];
        for i in 0..24u64 {
            for vol in [keep, kill] {
                rng.fill(&mut half[..]);
                a.write(vol, i * half.len() as u64, half).unwrap();
            }
        }
        a.destroy_volume(kill).unwrap();
        a.read(hot, 0, 16 * CBLOCK).unwrap();

        let cache = &a.controller().cache;
        assert!(cache.used_bytes() + CBLOCK > cache.capacity_bytes());
        let resident: Vec<Pba> = cache.keys().copied().collect();
        let evictions = cache.stats().2;
        let segments: Vec<u64> = a.controller().segments.keys().copied().collect();

        let report = a.run_gc().unwrap();
        let ctrl = a.controller();
        assert!(
            report.bytes_relocated > ctrl.cache.capacity_bytes() as u64,
            "{report:?}"
        );
        assert_eq!(ctrl.cache.stats().2, evictions, "the pass evicted");
        assert!(segments.iter().any(|s| !ctrl.segments.contains_key(s)));
        for pba in &resident {
            let victim = !ctrl.segments.contains_key(&pba.segment.0);
            assert!(!victim, "setup: hot cblock {pba:?} was in a victim");
            assert!(ctrl.cache.contains(pba), "{pba:?} left the cache");
        }
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
        let val = Stored::new(BlockLoc { pba, sector: 0 }, false);
        let seq = ctrl.seq.next();
        ctrl.map.insert((anchor.0, 0), val, seq);
        let violations = a.verify_integrity();
        assert!(
            violations.iter().any(|v| v.contains("not in the table")),
            "{violations:?}"
        );
    }

    /// A pass over a non-empty memtable writes the map once: the
    /// compacted map's ⌈facts / `PATCH_CHUNK_FACTS`⌉ records go back to
    /// back into the log and are flushed once, so the stripes the pass
    /// appends are ⌈Σ record bytes / stripe payload⌉ — no record of the
    /// memtable alone, no stripe padded per record — and the
    /// checkpoint's patch list names exactly them.
    #[test]
    fn a_pass_writes_the_map_once() {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let vol = a.create_volume("v", 8 << 20).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let mut chunk = vec![0u8; 256 * 1024];
        // 24 × 256 KiB: 12 288 sector facts, two records' worth.
        for i in 0..24u64 {
            rng.fill(&mut chunk[..]);
            a.write(vol, i * 256 * 1024, &chunk).unwrap();
        }
        let ctrl = a.controller();
        assert!(ctrl.map.memtable_facts() > 0);
        let log_before: BTreeMap<u64, (u64, u64)> = (ctrl.segments.iter())
            .map(|(&id, s)| (id, (s.log_stripes, s.log_bytes)))
            .collect();

        a.run_gc().unwrap();
        let ctrl = a.controller();
        let facts = ctrl.map.total_facts();
        assert_eq!(ctrl.map.memtable_facts(), 0);
        assert!(facts > PATCH_CHUNK_FACTS, "{facts} facts fill one record");
        let records = &ctrl.map_records();
        assert_eq!(records.len(), facts.div_ceil(PATCH_CHUNK_FACTS));
        let sp = ctrl.writers[HOT].layout().log_stripe_payload() as u64;
        let record_bytes: u64 = records.iter().map(|r| r.len).sum();
        let appended: u64 = (ctrl.segments.iter())
            .map(|(id, s)| s.log_stripes - log_before.get(id).map_or(0, |b| b.0))
            .sum();
        assert!(records.iter().all(|r| r.segment == records[0].segment));
        assert_eq!(appended, record_bytes.div_ceil(sp), "records padded apart");
        for (r, next) in records.iter().zip(&records[1..]) {
            assert_eq!(r.log_offset + r.len, next.log_offset, "{r:?} then {next:?}");
        }
        for r in records {
            let old_end = log_before.get(&r.segment).map_or(0, |b| b.1);
            assert!(r.log_offset >= old_end, "{r:?} predates the pass");
        }
        assert!(a.verify_integrity().is_empty());
    }

    /// A pass's output is not the next pass's input: the partial
    /// segments a pass seals hold only live bytes, so a second pass with
    /// no write between relocates nothing.
    #[test]
    fn a_second_pass_relocates_nothing() {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let keep = a.create_volume("keep", 4 << 20).unwrap();
        let kill = a.create_volume("kill", 4 << 20).unwrap();
        let mut rng = StdRng::seed_from_u64(27);
        let mut chunk = vec![0u8; 64 * 1024];
        let mut kept = Vec::new();
        // Half-live segments: `keep` and `kill` interleaved, then `kill`
        // destroyed; then whole segments of `keep` alone, so the one the
        // pass seals before it relocates is all live.
        for i in 0..56u64 {
            for vol in [keep, kill] {
                if vol == kill && i >= 24 {
                    continue;
                }
                rng.fill(&mut chunk[..]);
                a.write(vol, i * chunk.len() as u64, &chunk).unwrap();
                if vol == keep {
                    kept.extend_from_slice(&chunk);
                }
            }
        }
        a.destroy_volume(kill).unwrap();

        let first = a.run_gc().unwrap();
        assert!(first.bytes_relocated > 0, "{first:?}");
        let second = a.run_gc().unwrap();
        assert_eq!(second.bytes_relocated, 0, "{second:?}");
        assert_eq!(second.segments_freed, 0, "{second:?}");
        let (back, _) = a.read(keep, 0, kept.len()).unwrap();
        assert!(back == kept, "relocated data differs");
        assert!(a.verify_integrity().is_empty());
    }

    /// The partial segments passes seal and leave alone are still space:
    /// once they hold as many AUs as writes can still take, victims are
    /// judged by capacity and packed into whole segments. A fill after
    /// GC churn, with a pass every 2 MiB and one more whenever a write
    /// finds no space, takes at least the 178 257 920 bytes it took when
    /// every pass judged by capacity.
    #[test]
    fn a_fill_after_churn_takes_back_the_partial_segments() {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let churn = a.create_volume("churn", 4 << 20).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let mut chunk = vec![0u8; 64 * 1024];
        for i in 0..300u64 {
            rng.fill(&mut chunk[..]);
            let at = rng.gen_range(0..64u64) * chunk.len() as u64;
            a.write(churn, at, &chunk).unwrap();
            if i % 25 == 24 {
                a.run_gc().unwrap();
            }
        }
        let ctrl = a.controller();
        let partial = (ctrl.segments.values())
            .filter(|s| 2 * s.data_bytes < ctrl.capacity(s))
            .count();
        assert!(partial > 4, "{partial} partial segments");

        let fill = a.create_volume("fill", 1 << 30).unwrap();
        let mut chunk = vec![0u8; 256 * 1024];
        rng.fill(&mut chunk[..]);
        let mut wrote = 0u64;
        for _ in 0..2_000 {
            let full = match a.write(fill, wrote, &chunk) {
                Ok(_) => {
                    wrote += chunk.len() as u64;
                    rng.fill(&mut chunk[..]);
                    false
                }
                Err(PurityError::OutOfSpace) => true,
                Err(e) => panic!("{e}"),
            };
            if full || wrote.is_multiple_of(8 * chunk.len() as u64) {
                match a.run_gc() {
                    Ok(r) if !full || r.segments_freed > 0 => {}
                    // Full, and a pass frees nothing or cannot run.
                    _ => break,
                }
            }
        }
        assert!(wrote >= 178_257_920, "filled {wrote} bytes");
        let (back, _) = a.read(fill, 0, chunk.len()).unwrap();
        assert_eq!(back.len(), chunk.len());
        assert!(a.verify_integrity().is_empty());
    }

    /// A map fact whose sector lies past its cblock's payload: GC's
    /// relocation refuses it with the host read path's typed error.
    #[test]
    fn a_fact_past_its_cblock_is_data_loss() {
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
        // Sector 1000 of `keep` mapped to sector 200 of its first
        // cblock, which holds 64.
        let (ctrl, _) = a.controller_and_shelf();
        let anchor = ctrl.volumes[&keep.0].anchor;
        let pba = ctrl.resolve_sector(anchor, 0).unwrap().loc.pba;
        let val = Stored::new(BlockLoc { pba, sector: 200 }, false);
        let seq = ctrl.seq.next();
        ctrl.map.insert((anchor.0, 1000), val, seq);

        let shorter = |e: &PurityError| match e {
            PurityError::DataLoss(m) => m.contains("shorter than mapped sector 200"),
            _ => false,
        };
        let read = a.read(keep, 1000 * SECTOR as u64, SECTOR).unwrap_err();
        assert!(shorter(&read), "{read:?}");
        let gc = a.run_gc().unwrap_err();
        assert!(shorter(&gc), "{gc:?}");
    }
}
