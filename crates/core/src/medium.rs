//! Mediums: Purity's storage virtualization layer (§4.5, Figure 6).
//!
//! All user data lives in *mediums* — coarse-grained virtual containers.
//! Volumes point at a writable anchor medium; snapshots freeze a medium
//! and stack a fresh writable one on top; clones stack a writable medium
//! over any existing one. The medium table maps, per medium, sector
//! ranges to an underlying (target) medium, letting reads fall through a
//! chain until some medium's own cblocks satisfy them. Rows can shortcut
//! past intermediates that hold no data in a range (the paper's medium 22
//! referring straight to 12), which is how GC bounds chains to ≤ 3 hops.
//!
//! Deleting a medium is a single elide-table insert: medium ids are dense
//! and never reused, so the elide table collapses into ranges (§4.10).

use crate::records::MediumFact;
use crate::types::MediumId;
use purity_format::RangeTable;
use purity_lsm::Seq;
use std::collections::BTreeMap;

/// One medium-table row (Figure 6), keyed externally by (medium, start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediumRow {
    /// End of the covered sector range (exclusive).
    pub end: u64,
    /// Medium reads fall through to when this medium has no cblock.
    pub target: Option<MediumId>,
    /// Sector in `target` that `start` maps to.
    pub target_offset: u64,
    /// Whether writes may land in this range.
    pub writable: bool,
    /// Fact sequence number.
    pub seq: Seq,
}

/// A step of a resolution chain: consult `medium` at `sector`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainStep {
    /// Medium to consult.
    pub medium: MediumId,
    /// Sector within that medium.
    pub sector: u64,
}

/// The medium table.
#[derive(Debug, Default, Clone)]
pub struct MediumTable {
    /// (medium, range start) -> row.
    rows: BTreeMap<(u64, u64), MediumRow>,
    /// Elided (deleted) medium ids.
    elided: RangeTable,
}

impl MediumTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a brand-new root medium covering `[0, size_sectors)`.
    pub fn create_root(&mut self, medium: MediumId, size_sectors: u64, seq: Seq) {
        self.rows.insert(
            (medium.0, 0),
            MediumRow {
                end: size_sectors,
                target: None,
                target_offset: 0,
                writable: true,
                seq,
            },
        );
    }

    /// Registers a child medium layered over `source` (snapshot's new
    /// writable top, or a clone).
    pub fn create_child(&mut self, child: MediumId, source: MediumId, size_sectors: u64, seq: Seq) {
        self.rows.insert(
            (child.0, 0),
            MediumRow {
                end: size_sectors,
                target: Some(source),
                target_offset: 0,
                writable: true,
                seq,
            },
        );
    }

    /// Inserts an explicit row (GC shortcuts; Figure 6 style fixtures).
    pub fn insert_row(&mut self, medium: MediumId, start: u64, row: MediumRow) {
        self.rows.insert((medium.0, start), row);
    }

    /// Replaces every row of a medium with a single row (GC tree
    /// flattening).
    pub fn replace_rows(&mut self, medium: MediumId, start: u64, row: MediumRow) {
        let keys: Vec<(u64, u64)> = self
            .rows
            .range((medium.0, 0)..(medium.0 + 1, 0))
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            self.rows.remove(&k);
        }
        self.rows.insert((medium.0, start), row);
    }

    /// Freezes a medium: all its ranges become read-only (snapshot step).
    pub fn freeze(&mut self, medium: MediumId, seq: Seq) {
        for ((_, _), row) in self.rows.range_mut((medium.0, 0)..(medium.0 + 1, 0)) {
            row.writable = false;
            row.seq = seq;
        }
    }

    /// Whether a medium accepts writes at `sector`.
    pub fn is_writable(&self, medium: MediumId, sector: u64) -> bool {
        self.row_covering(medium, sector)
            .map(|(_, r)| r.writable)
            .unwrap_or(false)
    }

    /// Marks a medium deleted. One range-table insert — the whole point
    /// of elision (§4.10).
    pub fn elide(&mut self, medium: MediumId) {
        self.elided.insert(medium.0);
        // Drop its rows eagerly; facts about it are filtered everywhere
        // else by the elide set.
        let keys: Vec<(u64, u64)> = self
            .rows
            .range((medium.0, 0)..(medium.0 + 1, 0))
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            self.rows.remove(&k);
        }
    }

    /// Whether a medium has been deleted.
    pub fn is_elided(&self, medium: MediumId) -> bool {
        self.elided.contains(medium.0)
    }

    /// The elide set (for wiring into the map pyramid's filter and the
    /// checkpoint).
    pub fn elided_set(&self) -> &RangeTable {
        &self.elided
    }

    /// All rows of one medium, as (start, row) pairs in range order.
    pub fn rows_of(&self, medium: MediumId) -> Vec<(u64, MediumRow)> {
        if self.is_elided(medium) {
            return Vec::new();
        }
        self.rows
            .range((medium.0, 0)..(medium.0 + 1, 0))
            .map(|(&(_, start), &row)| (start, row))
            .collect()
    }

    /// The row covering `sector` in `medium`, with its start.
    pub fn row_covering(&self, medium: MediumId, sector: u64) -> Option<(u64, MediumRow)> {
        if self.is_elided(medium) {
            return None;
        }
        let ((_, start), row) = self
            .rows
            .range((medium.0, 0)..=(medium.0, sector))
            .next_back()?;
        (sector < row.end).then_some((*start, *row))
    }

    /// Resolves the lookup chain for `(medium, sector)`: the ordered list
    /// of `(medium, sector)` pairs whose cblocks may satisfy a read,
    /// topmost first (§4.5: "identify all possible keys that might be
    /// used to find the value").
    pub fn resolve(&self, medium: MediumId, sector: u64) -> Vec<ChainStep> {
        let mut chain = Vec::new();
        let mut at = ChainStep { medium, sector };
        // Cycles are impossible by construction (children always point at
        // pre-existing mediums), but bound the walk defensively.
        for _ in 0..64 {
            let Some((start, row)) = self.row_covering(at.medium, at.sector) else {
                break;
            };
            chain.push(at);
            match row.target {
                Some(target) => {
                    at = ChainStep {
                        medium: target,
                        sector: at.sector - start + row.target_offset,
                    };
                }
                None => break,
            }
        }
        chain
    }

    /// GC chain shortening: rewrites rows that target a medium with no
    /// own data in the mapped range (per `has_data(medium, start, end)`)
    /// to point at that medium's own target. One pass; call repeatedly
    /// to reach a fixpoint.
    pub fn shortcut_pass(
        &mut self,
        mut has_data: impl FnMut(MediumId, u64, u64) -> bool,
        seq: Seq,
    ) -> usize {
        let snapshot: Vec<((u64, u64), MediumRow)> =
            self.rows.iter().map(|(&k, &v)| (k, v)).collect();
        let mut rewrites = 0;
        for ((medium, start), row) in snapshot {
            let Some(target) = row.target else { continue };
            if self.is_elided(MediumId(medium)) {
                continue;
            }
            let t_start = row.target_offset;
            let t_end = row.target_offset + (row.end - start);
            // If the target is elided OR has no data in range, skip it.
            let target_dead = self.is_elided(target);
            if !target_dead && has_data(target, t_start, t_end) {
                continue;
            }
            // Find what the target maps this range to. The whole mapped
            // range must sit inside one row of the target for a safe
            // single-row rewrite.
            let Some((tt_start, t_row)) = self.row_covering(target, t_start) else {
                if target_dead {
                    // Deleted target with no fallthrough: range is
                    // unwritten; terminate the chain.
                    self.rows.insert(
                        (medium, start),
                        MediumRow {
                            target: None,
                            seq,
                            ..row
                        },
                    );
                    rewrites += 1;
                }
                continue;
            };
            if t_end > t_row.end {
                continue; // spans target rows; a finer split could handle it
            }
            let new_row = match t_row.target {
                Some(grand) => MediumRow {
                    end: row.end,
                    target: Some(grand),
                    target_offset: t_start - tt_start + t_row.target_offset,
                    writable: row.writable,
                    seq,
                },
                None => continue, // target is a root with no data: chain ends there anyway
            };
            self.rows.insert((medium, start), new_row);
            rewrites += 1;
        }
        rewrites
    }

    /// Longest resolution chain over the sampled sectors of every medium
    /// (the paper's "reads never touch more than three cblocks" bound is
    /// checked against this).
    pub fn max_chain_depth(&self, sample_sectors: &[u64]) -> usize {
        let mediums: Vec<u64> = {
            let mut seen = Vec::new();
            for &(m, _) in self.rows.keys() {
                if seen.last() != Some(&m) {
                    seen.push(m);
                }
            }
            seen
        };
        let mut max = 0;
        for m in mediums {
            for &s in sample_sectors {
                max = max.max(self.resolve(MediumId(m), s).len());
            }
        }
        max
    }

    /// Serializes all rows as facts (checkpoint).
    pub fn to_facts(&self) -> Vec<MediumFact> {
        self.rows
            .iter()
            .map(|(&(medium, start), row)| MediumFact {
                medium: MediumId(medium),
                start,
                end: row.end,
                target: row.target,
                target_offset: row.target_offset,
                writable: row.writable,
                seq: row.seq,
            })
            .collect()
    }

    /// Rebuilds from facts (recovery). Newest fact per (medium, start)
    /// wins; elided mediums are dropped.
    pub fn from_facts(facts: &[MediumFact], elided: RangeTable) -> Self {
        let mut rows: BTreeMap<(u64, u64), MediumRow> = BTreeMap::new();
        for f in facts {
            if elided.contains(f.medium.0) {
                continue;
            }
            let key = (f.medium.0, f.start);
            let row = MediumRow {
                end: f.end,
                target: f.target,
                target_offset: f.target_offset,
                writable: f.writable,
                seq: f.seq,
            };
            match rows.get(&key) {
                Some(existing) if existing.seq >= f.seq => {}
                _ => {
                    rows.insert(key, row);
                }
            }
        }
        Self { rows, elided }
    }

    /// Number of live rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// All mediums with at least one live row.
    pub fn live_mediums(&self) -> Vec<MediumId> {
        let mut out: Vec<MediumId> = Vec::new();
        for &(m, _) in self.rows.keys() {
            if out.last().map(|l| l.0 != m).unwrap_or(true) {
                out.push(MediumId(m));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rebuilds the paper's Figure 6 medium table.
    fn figure6() -> MediumTable {
        let mut t = MediumTable::new();
        let row = |end, target: Option<u64>, offset, rw| MediumRow {
            end,
            target: target.map(MediumId),
            target_offset: offset,
            writable: rw,
            seq: 1,
        };
        t.insert_row(MediumId(12), 0, row(4000, None, 0, false));
        t.insert_row(MediumId(14), 0, row(4000, Some(12), 0, true));
        t.insert_row(MediumId(15), 0, row(1000, Some(12), 2000, true));
        t.insert_row(MediumId(18), 0, row(1000, Some(12), 2000, false));
        t.insert_row(MediumId(20), 0, row(1000, Some(18), 0, false));
        t.insert_row(MediumId(21), 0, row(1000, Some(20), 0, false));
        t.insert_row(MediumId(22), 0, row(500, Some(21), 0, true));
        t.insert_row(MediumId(22), 500, row(1000, Some(12), 2500, true));
        t.insert_row(MediumId(22), 1000, row(2000, None, 0, true));
        t
    }

    #[test]
    fn figure6_chain_resolution() {
        let t = figure6();
        // Medium 14 (snapshot of 12): sector 100 falls through to 12.
        let chain = t.resolve(MediumId(14), 100);
        assert_eq!(
            chain,
            vec![
                ChainStep {
                    medium: MediumId(14),
                    sector: 100
                },
                ChainStep {
                    medium: MediumId(12),
                    sector: 100
                },
            ]
        );
        // Medium 15 (clone of part of 12): offset shifts by 2000.
        let chain = t.resolve(MediumId(15), 10);
        assert_eq!(
            chain[1],
            ChainStep {
                medium: MediumId(12),
                sector: 2010
            }
        );
        // Medium 22 sector 0..500 walks 21 -> 20 -> 18 -> 12.
        let chain = t.resolve(MediumId(22), 42);
        let ids: Vec<u64> = chain.iter().map(|c| c.medium.0).collect();
        assert_eq!(ids, vec![22, 21, 20, 18, 12]);
        assert_eq!(chain.last().unwrap().sector, 2042);
        // Medium 22 sector 500..1000 shortcuts straight to 12 at 2500.
        let chain = t.resolve(MediumId(22), 600);
        assert_eq!(
            chain,
            vec![
                ChainStep {
                    medium: MediumId(22),
                    sector: 600
                },
                ChainStep {
                    medium: MediumId(12),
                    sector: 2600
                },
            ]
        );
        // Medium 22 sector 1000.. is its own root.
        let chain = t.resolve(MediumId(22), 1500);
        assert_eq!(
            chain,
            vec![ChainStep {
                medium: MediumId(22),
                sector: 1500
            }]
        );
    }

    #[test]
    fn snapshot_flow_freezes_and_stacks() {
        let mut t = MediumTable::new();
        t.create_root(MediumId(1), 1000, 1);
        assert!(t.is_writable(MediumId(1), 5));
        // Snapshot: freeze 1, stack 2 on top.
        t.freeze(MediumId(1), 2);
        t.create_child(MediumId(2), MediumId(1), 1000, 3);
        assert!(!t.is_writable(MediumId(1), 5));
        assert!(t.is_writable(MediumId(2), 5));
        let chain = t.resolve(MediumId(2), 7);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[1].medium, MediumId(1));
    }

    #[test]
    fn elide_removes_medium_and_its_chains() {
        let mut t = MediumTable::new();
        t.create_root(MediumId(1), 100, 1);
        t.create_child(MediumId(2), MediumId(1), 100, 2);
        t.elide(MediumId(2));
        assert!(t.is_elided(MediumId(2)));
        assert!(t.resolve(MediumId(2), 0).is_empty());
        // Base medium still resolves.
        assert_eq!(t.resolve(MediumId(1), 0).len(), 1);
        // Elide set collapses for dense ids.
        let mut t2 = MediumTable::new();
        for m in 0..100 {
            t2.create_root(MediumId(m), 10, 1);
        }
        for m in 0..100 {
            t2.elide(MediumId(m));
        }
        assert_eq!(t2.elided_set().range_count(), 1);
    }

    #[test]
    fn shortcut_pass_skips_dataless_intermediates() {
        let mut t = figure6();
        // 20 and 21 never had their own data; 18 has none either. A pass
        // with "only 12 has data" should shortcut 22's first range.
        let has_data = |m: MediumId, _s: u64, _e: u64| m.0 == 12;
        let mut total = 0;
        loop {
            let n = t.shortcut_pass(has_data, 99);
            total += n;
            if n == 0 {
                break;
            }
        }
        assert!(total > 0);
        let chain = t.resolve(MediumId(22), 42);
        assert!(
            chain.len() <= 3,
            "chain should be bounded after shortcuts: {:?}",
            chain
        );
        // Resolution target is unchanged.
        assert_eq!(
            chain.last().unwrap(),
            &ChainStep {
                medium: MediumId(12),
                sector: 2042
            }
        );
    }

    #[test]
    fn facts_round_trip() {
        let t = figure6();
        let facts = t.to_facts();
        let back = MediumTable::from_facts(&facts, RangeTable::new());
        assert_eq!(back.row_count(), t.row_count());
        assert_eq!(back.resolve(MediumId(22), 42), t.resolve(MediumId(22), 42));
    }

    #[test]
    fn from_facts_newest_wins_and_elided_dropped() {
        let mk = |seq, end| MediumFact {
            medium: MediumId(1),
            start: 0,
            end,
            target: None,
            target_offset: 0,
            writable: true,
            seq,
        };
        // Stale fact arrives after the newer one (recovery reordering).
        let facts = vec![mk(5, 2000), mk(3, 1000)];
        let t = MediumTable::from_facts(&facts, RangeTable::new());
        assert_eq!(t.row_covering(MediumId(1), 0).unwrap().1.end, 2000);

        let mut elided = RangeTable::new();
        elided.insert(1);
        let t = MediumTable::from_facts(&facts, elided);
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn max_chain_depth_reports_deepest_walk() {
        let t = figure6();
        // Deepest chain: 22 -> 21 -> 20 -> 18 -> 12 (5 steps).
        assert_eq!(t.max_chain_depth(&[0, 42, 600, 1500]), 5);
    }

    #[test]
    fn replace_rows_collapses_a_medium() {
        let mut t = figure6();
        t.replace_rows(
            MediumId(22),
            0,
            MediumRow {
                end: 2000,
                target: None,
                target_offset: 0,
                writable: true,
                seq: 50,
            },
        );
        assert_eq!(t.rows_of(MediumId(22)).len(), 1);
        assert_eq!(t.resolve(MediumId(22), 42).len(), 1, "chain terminated");
        // Other mediums untouched.
        assert_eq!(t.resolve(MediumId(14), 100).len(), 2);
    }

    #[test]
    fn out_of_range_sectors_resolve_empty() {
        let mut t = MediumTable::new();
        t.create_root(MediumId(1), 100, 1);
        assert!(t.resolve(MediumId(1), 100).is_empty());
        assert!(t.resolve(MediumId(99), 0).is_empty());
    }
}
