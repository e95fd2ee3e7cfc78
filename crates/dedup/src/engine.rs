//! The dedup decision engine: lookup → verify → anchor extension.

use crate::hash::block_hash;
use crate::index::DedupIndex;
use crate::DEDUP_BLOCK;

/// Fetches candidate block contents for verification.
///
/// `fetch(loc, delta)` returns the 512 B block `delta` blocks away from
/// `loc` in the stored data stream, or `None` if that neighbour does not
/// exist / is unreadable. Anchor extension (§4.7) relies on duplicates
/// being *runs*: once block i matches location L, block i+1 likely
/// matches L's successor.
pub trait BlockFetcher<L> {
    /// Reads the block at `loc` displaced by `delta` blocks.
    fn fetch(&mut self, loc: &L, delta: i64) -> Option<Vec<u8>>;

    /// The location `delta` blocks away from `loc`, if addressable.
    fn displace(&self, loc: &L, delta: i64) -> Option<L>;

    /// Whether the stored block at `loc + delta` equals `expect`.
    /// `None` when the block is unreadable. Implementations that can
    /// compare against cached payload in place should override this —
    /// the engine byte-verifies every hash hit and every anchor step, so
    /// the default `fetch` path pays an allocation per comparison.
    fn matches(&mut self, loc: &L, delta: i64, expect: &[u8]) -> Option<bool> {
        self.fetch(loc, delta).map(|block| block == expect)
    }
}

/// Per-block dedup outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome<L> {
    /// No duplicate found: store the block.
    Unique,
    /// Confirmed duplicate of the data at `L`. `via_anchor` is true when
    /// the match came from neighbour extension rather than a hash hit.
    Dup {
        /// Existing location holding identical bytes.
        loc: L,
        /// Whether anchor extension (not a direct hash hit) found it.
        via_anchor: bool,
    },
}

/// Engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Blocks processed.
    pub blocks: u64,
    /// Hash hits whose byte-compare confirmed a duplicate.
    pub verified_dups: u64,
    /// Hash hits whose byte-compare failed (collision or stale index).
    pub failed_verifies: u64,
    /// Duplicates found by anchor extension.
    pub anchored_dups: u64,
}

/// The inline dedup engine. Owns the index; borrows a fetcher per call.
pub struct DedupEngine<L> {
    index: DedupIndex<L>,
    stats: EngineStats,
}

impl<L: Copy + Eq> DedupEngine<L> {
    /// Creates an engine around an index.
    pub fn new(index: DedupIndex<L>) -> Self {
        Self {
            index,
            stats: EngineStats::default(),
        }
    }

    /// Access to the underlying index (for recording writes of blocks the
    /// caller decided to store).
    pub fn index_mut(&mut self) -> &mut DedupIndex<L> {
        &mut self.index
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Dedups a write buffer of whole 512 B blocks. Returns one outcome
    /// per block. The caller stores `Unique` blocks (and records them via
    /// [`DedupEngine::index_mut`]) and maps `Dup` blocks to the existing
    /// location.
    ///
    /// Two phases: first every block's hash is looked up (§4.7: "all
    /// hashes are looked up") and hits are verified into anchors; then
    /// each anchor extends forward *and backward* over still-undecided
    /// neighbours. Extension must run after all anchors are found —
    /// a duplicate run's sampled hash may sit at its tail, and the run's
    /// head must still be claimable.
    pub fn process<F: BlockFetcher<L>>(&mut self, data: &[u8], fetcher: &mut F) -> Vec<Outcome<L>> {
        self.process_excluding(data, fetcher, |_| false)
    }

    /// [`DedupEngine::process`] where no duplicate may point at a
    /// location `skip` names: a hash hit on one is a miss. It is never
    /// fetched, verified, promoted or forgotten, and it anchors nothing.
    /// GC's pass skips the cblock it relocates and the segments it
    /// collects.
    pub fn process_excluding<F: BlockFetcher<L>>(
        &mut self,
        data: &[u8],
        fetcher: &mut F,
        skip: impl Fn(&L) -> bool,
    ) -> Vec<Outcome<L>> {
        assert_eq!(data.len() % DEDUP_BLOCK, 0, "whole blocks only");
        let n = data.len() / DEDUP_BLOCK;
        let mut out: Vec<Option<Outcome<L>>> = vec![None; n];
        let block = |i: usize| &data[i * DEDUP_BLOCK..(i + 1) * DEDUP_BLOCK];

        // Phase 1: hash lookups -> verified anchors.
        let mut anchors: Vec<(usize, L)> = Vec::new();
        #[allow(clippy::needless_range_loop)] // indexes out[] and block() together
        for i in 0..n {
            self.stats.blocks += 1;
            let h = block_hash(block(i));
            let Some(loc) = self.index.lookup(h).filter(|loc| !skip(loc)) else {
                continue;
            };
            match fetcher.matches(&loc, 0, block(i)) {
                Some(true) => {
                    self.stats.verified_dups += 1;
                    self.index.promote(h, loc);
                    out[i] = Some(Outcome::Dup {
                        loc,
                        via_anchor: false,
                    });
                    anchors.push((i, loc));
                }
                _ => {
                    self.stats.failed_verifies += 1;
                    self.index.forget(h);
                }
            }
        }

        // Phase 2: anchors extend over undecided neighbours.
        for (i, loc) in anchors {
            self.extend(&mut out, data, i, loc, 1, fetcher);
            self.extend(&mut out, data, i, loc, -1, fetcher);
        }

        // Phase 3: everything else stores as unique.
        out.into_iter()
            .map(|o| o.unwrap_or(Outcome::Unique))
            .collect()
    }

    /// Extends a confirmed anchor at block `at` matching `loc` in
    /// direction `dir`, claiming neighbours while bytes keep matching.
    fn extend<F: BlockFetcher<L>>(
        &mut self,
        out: &mut [Option<Outcome<L>>],
        data: &[u8],
        at: usize,
        loc: L,
        dir: i64,
        fetcher: &mut F,
    ) {
        let n = out.len();
        let mut delta = dir;
        loop {
            let j = at as i64 + delta;
            if j < 0 || j >= n as i64 {
                break;
            }
            let j = j as usize;
            if out[j].is_some() {
                break; // already decided (e.g. an earlier anchor claimed it)
            }
            let here = &data[j * DEDUP_BLOCK..(j + 1) * DEDUP_BLOCK];
            let (Some(same), Some(there_loc)) = (
                fetcher.matches(&loc, delta, here),
                fetcher.displace(&loc, delta),
            ) else {
                break;
            };
            if !same {
                break;
            }
            out[j] = Some(Outcome::Dup {
                loc: there_loc,
                via_anchor: true,
            });
            self.stats.blocks += 1;
            self.stats.anchored_dups += 1;
            delta += dir;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A toy store: locations are block indexes into a flat buffer.
    struct MemStore {
        blocks: Vec<Vec<u8>>,
    }

    impl MemStore {
        fn new() -> Self {
            Self { blocks: Vec::new() }
        }

        fn append(&mut self, block: &[u8]) -> u64 {
            self.blocks.push(block.to_vec());
            (self.blocks.len() - 1) as u64
        }
    }

    impl BlockFetcher<u64> for MemStore {
        fn fetch(&mut self, loc: &u64, delta: i64) -> Option<Vec<u8>> {
            let idx = (*loc as i64).checked_add(delta)?;
            self.blocks.get(usize::try_from(idx).ok()?).cloned()
        }

        fn displace(&self, loc: &u64, delta: i64) -> Option<u64> {
            let idx = (*loc as i64).checked_add(delta)?;
            (idx >= 0 && (idx as usize) < self.blocks.len()).then_some(idx as u64)
        }
    }

    fn engine() -> DedupEngine<u64> {
        DedupEngine::new(DedupIndex::new(1024, 64))
    }

    /// Writes `data` through the engine, storing uniques in the store.
    fn write_through(
        eng: &mut DedupEngine<u64>,
        store: &mut MemStore,
        data: &[u8],
    ) -> Vec<Outcome<u64>> {
        let outcomes = eng.process(data, store);
        for (i, o) in outcomes.iter().enumerate() {
            if matches!(o, Outcome::Unique) {
                let blk = &data[i * DEDUP_BLOCK..(i + 1) * DEDUP_BLOCK];
                let loc = store.append(blk);
                eng.index_mut().record_write(block_hash(blk), loc);
            }
        }
        outcomes
    }

    fn blocks_of(pattern: &[u8], n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n * DEDUP_BLOCK);
        for i in 0..n {
            let mut blk = vec![0u8; DEDUP_BLOCK];
            blk[..pattern.len()].copy_from_slice(pattern);
            blk[pattern.len()..pattern.len() + 8].copy_from_slice(&(i as u64).to_le_bytes());
            out.extend_from_slice(&blk);
        }
        out
    }

    #[test]
    fn first_write_is_unique() {
        let mut eng = engine();
        let mut store = MemStore::new();
        let data = blocks_of(b"unique", 16);
        let outcomes = write_through(&mut eng, &mut store, &data);
        assert!(outcomes.iter().all(|o| matches!(o, Outcome::Unique)));
    }

    #[test]
    fn rewrite_is_fully_deduped_via_anchors() {
        let mut eng = engine();
        let mut store = MemStore::new();
        let data = blocks_of(b"copyme", 32);
        write_through(&mut eng, &mut store, &data);
        // Write the identical 16 KiB again: sampled hashes hit for 1/8 of
        // blocks, anchors claim the rest.
        let outcomes = write_through(&mut eng, &mut store, &data);
        let dups = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Dup { .. }))
            .count();
        assert_eq!(dups, 32, "whole rewrite should dedup");

        // With a cold index (no recent-write window), only 1-in-8 hashes
        // are findable and anchors must extend the rest.
        let mut cold = DedupEngine::new(DedupIndex::new(0, 64));
        let mut store2 = MemStore::new();
        write_through(&mut cold, &mut store2, &data);
        let outcomes = write_through(&mut cold, &mut store2, &data);
        let dups = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Dup { .. }))
            .count();
        assert_eq!(dups, 32, "cold rewrite should still fully dedup");
        assert!(
            cold.stats().anchored_dups > 0,
            "anchors should have extended"
        );
        // Dup locations must hold identical bytes.
        for (i, o) in outcomes.iter().enumerate() {
            if let Outcome::Dup { loc, .. } = o {
                assert_eq!(
                    store.fetch(loc, 0).unwrap(),
                    &data[i * DEDUP_BLOCK..(i + 1) * DEDUP_BLOCK]
                );
            }
        }
    }

    #[test]
    fn misaligned_duplicate_runs_are_found() {
        // §4.7: detects ≥8-block runs regardless of alignment.
        let mut eng = engine();
        let mut store = MemStore::new();
        let original = blocks_of(b"shifted", 64);
        write_through(&mut eng, &mut store, &original);
        // A new stream: 3 fresh blocks, then 32 blocks copied from the
        // middle of the original at an arbitrary block offset (5).
        let mut stream = blocks_of(b"fresh!!", 3);
        stream.extend_from_slice(&original[5 * DEDUP_BLOCK..37 * DEDUP_BLOCK]);
        let outcomes = write_through(&mut eng, &mut store, &stream);
        let dup_count = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Dup { .. }))
            .count();
        assert!(
            dup_count >= 30,
            "expected most of the 32-block run, got {}",
            dup_count
        );
        assert!(outcomes[..3].iter().all(|o| matches!(o, Outcome::Unique)));
    }

    #[test]
    fn hash_collision_is_caught_by_verify() {
        let mut eng = engine();
        let mut store = MemStore::new();
        // Poison the index: claim hash H maps to a block with different content.
        let real = vec![1u8; DEDUP_BLOCK];
        let loc = store.append(&real);
        let fake_block = vec![2u8; DEDUP_BLOCK];
        let h = block_hash(&fake_block);
        eng.index_mut().set_sample_rate(1);
        eng.index_mut().record_write(h, loc); // wrong location for this hash
        let outcomes = eng.process(&fake_block, &mut store);
        assert_eq!(outcomes, vec![Outcome::Unique]);
        assert_eq!(eng.stats().failed_verifies, 1);
    }

    #[test]
    fn partial_modification_breaks_anchor_run() {
        let mut eng = engine();
        let mut store = MemStore::new();
        let original = blocks_of(b"basefil", 40);
        write_through(&mut eng, &mut store, &original);
        // Copy with one block mutated in the middle.
        let mut copy = original.clone();
        let mid = 20 * DEDUP_BLOCK + 17;
        copy[mid] ^= 0xff;
        let outcomes = write_through(&mut eng, &mut store, &copy);
        let uniques: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, Outcome::Unique))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(uniques, vec![20], "only the mutated block should store");
    }

    #[test]
    fn dedup_ratio_accounting_example() {
        // A VDI-like workload: 10 "images" 90% identical.
        let mut eng = engine();
        let mut store = MemStore::new();
        let base = blocks_of(b"golden!", 100);
        let mut logical = 0usize;
        for img in 0..10u8 {
            let mut image = base.clone();
            // 10% image-specific blocks at the end.
            for b in 90..100 {
                image[b * DEDUP_BLOCK] = img + 1;
                image[b * DEDUP_BLOCK + 1] = 0xEE;
            }
            write_through(&mut eng, &mut store, &image);
            logical += image.len();
        }
        let physical = store.blocks.len() * DEDUP_BLOCK;
        let ratio = logical as f64 / physical as f64;
        assert!(ratio > 4.0, "VDI clones should dedup >4x, got {:.2}", ratio);
    }

    /// A [`MemStore`] that counts the engine's reads of it.
    struct Counting {
        store: MemStore,
        reads: usize,
    }

    impl BlockFetcher<u64> for Counting {
        fn fetch(&mut self, loc: &u64, delta: i64) -> Option<Vec<u8>> {
            self.reads += 1;
            self.store.fetch(loc, delta)
        }

        fn displace(&self, loc: &u64, delta: i64) -> Option<u64> {
            self.store.displace(loc, delta)
        }
    }

    /// A hit on a skipped location costs nothing and changes nothing:
    /// no fetch, no verify (true or false), no promotion, no forget.
    #[test]
    fn a_skipped_hit_is_never_fetched_verified_promoted_or_forgotten() {
        // Every hash sampled, no recent window: a lookup's tier shows
        // whether the hit was promoted to the hot set.
        let mut eng = DedupEngine::new(DedupIndex::new(0, 64));
        eng.index_mut().set_sample_rate(1);
        let mut store = Counting {
            store: MemStore::new(),
            reads: 0,
        };
        let data = blocks_of(b"skipme", 16);
        write_through(&mut eng, &mut store.store, &data);
        // A poisoned entry too: a verify of it would fail and forget it.
        let fake = vec![9u8; DEDUP_BLOCK];
        eng.index_mut().record_write(block_hash(&fake), 3);
        let mut again = data.clone();
        again.extend_from_slice(&fake);

        let outcomes = eng.process_excluding(&again, &mut store, |_| true);
        assert!(outcomes.iter().all(|o| *o == Outcome::Unique));
        assert_eq!(store.reads, 0, "a skipped hit was fetched");
        let s = eng.stats();
        assert_eq!(
            (s.verified_dups, s.failed_verifies, s.anchored_dups),
            (0, 0, 0)
        );
        let index = eng.index_mut();
        let hot_before = index.stats().hot_hits;
        for (i, block) in again.chunks_exact(DEDUP_BLOCK).enumerate() {
            let want = if i < 16 { i as u64 } else { 3 };
            assert_eq!(index.lookup(block_hash(block)), Some(want), "forgotten");
        }
        assert_eq!(index.stats().hot_hits, hot_before, "promoted");

        // The same hits, not skipped: fetched, verified and promoted.
        let outcomes = eng.process_excluding(&data, &mut store, |_| false);
        assert!(outcomes.iter().all(|o| matches!(o, Outcome::Dup { .. })));
        assert!(store.reads > 0);
        assert!(eng.stats().verified_dups > 0);
    }

    /// `process` is `process_excluding` with nothing skipped: two engines
    /// fed the same random stream, one through each, decide alike.
    #[test]
    fn process_is_process_excluding_nothing() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut plain = (engine(), MemStore::new());
        let mut excl = (engine(), MemStore::new());
        for _ in 0..200 {
            // A small alphabet of block contents keeps hits frequent.
            let n = rng.gen_range(1..24);
            let data: Vec<u8> = (0..n)
                .flat_map(|_| blocks_of(b"rand", rng.gen_range(1..6)))
                .take(n * DEDUP_BLOCK)
                .collect();
            let a = plain.0.process(&data, &mut plain.1);
            let b = excl.0.process_excluding(&data, &mut excl.1, |_| false);
            assert_eq!(a, b);
            for (eng, store) in [&mut plain, &mut excl] {
                for (i, o) in a.iter().enumerate() {
                    if *o == Outcome::Unique {
                        let blk = &data[i * DEDUP_BLOCK..(i + 1) * DEDUP_BLOCK];
                        let loc = store.append(blk);
                        eng.index_mut().record_write(block_hash(blk), loc);
                    }
                }
            }
        }
        assert_eq!(plain.0.stats(), excl.0.stats());
        assert!(plain.0.stats().verified_dups > 0, "the stream never hit");
    }

    /// Location map sanity: anchored dups must point at the displaced
    /// location, not the anchor's.
    #[test]
    fn anchored_locations_are_displaced() {
        let mut eng = engine();
        let mut store = MemStore::new();
        let data = blocks_of(b"displc", 16);
        write_through(&mut eng, &mut store, &data);
        let outcomes = write_through(&mut eng, &mut store, &data);
        let mut locs = HashMap::new();
        for (i, o) in outcomes.iter().enumerate() {
            if let Outcome::Dup { loc, .. } = o {
                locs.insert(i, *loc);
            }
        }
        // Locations must be strictly increasing with block index
        // (the original was appended in order).
        let mut sorted: Vec<_> = locs.iter().collect();
        sorted.sort();
        for w in sorted.windows(2) {
            assert!(w[0].1 < w[1].1);
        }
    }
}
