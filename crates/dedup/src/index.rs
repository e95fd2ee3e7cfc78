//! The dedup hash index and inline heuristics (§4.7).
//!
//! Three tiers, looked up in order:
//!
//! 1. **recent window** — hashes of the last N blocks written. Inline
//!    dedup "only checks for duplicates of recently written data", which
//!    catches the dominant pattern (copies made shortly after writes).
//! 2. **hot cache** — "frequently deduplicated data": confirmed dedup
//!    hits are promoted here with a use count; the cache evicts the
//!    coldest entries when full.
//! 3. **sampled index** — the persistent map holding only every eighth
//!    block hash, which bounds index memory to 1/8 of naive.
//!
//! Generic over the location type `L` so the engine can be tested without
//! the array's segment addressing.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Pass-through hasher for keys that are already uniform 64-bit hashes
/// (every key in this index is an XXH64 block hash). Re-hashing them
/// through SipHash costs more than the probe itself; three tiers are
/// probed per block on the inline write path.
#[derive(Default)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("identity hasher only accepts u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type HashKeyMap<V> = HashMap<u64, V, BuildHasherDefault<IdentityHasher>>;

/// Hit/miss counters per tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Hashes recorded into the sampled index.
    pub sampled_recorded: u64,
    /// Lookups answered by the recent window.
    pub recent_hits: u64,
    /// Lookups answered by the hot cache.
    pub hot_hits: u64,
    /// Lookups answered by the sampled index.
    pub sampled_hits: u64,
    /// Lookups that missed everywhere.
    pub misses: u64,
}

/// The three-tier dedup index.
pub struct DedupIndex<L> {
    sampled: HashKeyMap<L>,
    recent: HashKeyMap<L>,
    recent_order: VecDeque<u64>,
    recent_capacity: usize,
    hot: HashKeyMap<(L, u64)>,
    /// `(use count, hash)` of every `hot` entry, coldest first: the
    /// eviction order, kept beside the map so a promotion into a full
    /// cache pops its victim instead of scanning for it.
    hot_order: BTreeSet<(u64, u64)>,
    hot_capacity: usize,
    sample_rate: u64,
    written: u64,
    stats: IndexStats,
}

impl<L: Copy> DedupIndex<L> {
    /// Creates an index. `recent_capacity` bounds the recent-writes
    /// window (in blocks); `hot_capacity` bounds the hot cache.
    pub fn new(recent_capacity: usize, hot_capacity: usize) -> Self {
        Self {
            sampled: HashKeyMap::default(),
            recent: HashKeyMap::default(),
            recent_order: VecDeque::with_capacity(recent_capacity),
            recent_capacity,
            hot: HashKeyMap::default(),
            hot_order: BTreeSet::new(),
            hot_capacity,
            sample_rate: crate::SAMPLE_RATE,
            written: 0,
            stats: IndexStats::default(),
        }
    }

    /// Overrides the 1-in-8 sampling (for ablation experiments).
    pub fn set_sample_rate(&mut self, rate: u64) {
        assert!(rate >= 1);
        self.sample_rate = rate;
    }

    /// Records a newly written unique block. Every hash enters the recent
    /// window; every `sample_rate`-th write also enters the sampled index.
    pub fn record_write(&mut self, hash: u64, loc: L) {
        self.written += 1;
        if self.written.is_multiple_of(self.sample_rate) {
            self.sampled.insert(hash, loc);
            self.stats.sampled_recorded += 1;
        }
        if self.recent_capacity > 0 {
            if self.recent_order.len() == self.recent_capacity {
                if let Some(evicted) = self.recent_order.pop_front() {
                    self.recent.remove(&evicted);
                }
            }
            self.recent_order.push_back(hash);
            self.recent.insert(hash, loc);
        }
    }

    /// Looks a hash up across all tiers. All hashes are looked up even
    /// though only 1/8 are recorded.
    pub fn lookup(&mut self, hash: u64) -> Option<L> {
        if let Some(loc) = self.recent.get(&hash) {
            self.stats.recent_hits += 1;
            return Some(*loc);
        }
        if let Some((loc, _)) = self.hot.get(&hash) {
            self.stats.hot_hits += 1;
            return Some(*loc);
        }
        if let Some(loc) = self.sampled.get(&hash) {
            self.stats.sampled_hits += 1;
            return Some(*loc);
        }
        self.stats.misses += 1;
        None
    }

    /// Promotes a confirmed duplicate into the hot cache ("frequently
    /// deduplicated data"), bumping its use count.
    pub fn promote(&mut self, hash: u64, loc: L) {
        let count = match self.hot.get(&hash) {
            Some(&(_, count)) => {
                self.hot_order.remove(&(count, hash));
                count + 1
            }
            None => {
                if self.hot.len() >= self.hot_capacity {
                    // Evict the coldest entry; count ties break by hash.
                    if let Some((_, victim)) = self.hot_order.pop_first() {
                        self.hot.remove(&victim);
                    }
                }
                1
            }
        };
        self.hot_order.insert((count, hash));
        self.hot.insert(hash, (loc, count));
    }

    /// Drops a hash whose location went stale (GC moved or freed the
    /// block). Verify-by-compare already protects correctness; this keeps
    /// hit rates honest.
    pub fn forget(&mut self, hash: u64) {
        self.sampled.remove(&hash);
        if let Some((_, count)) = self.hot.remove(&hash) {
            self.hot_order.remove(&(count, hash));
        }
        self.recent.remove(&hash);
    }

    /// Entries in the sampled (persistent) index.
    pub fn sampled_len(&self) -> usize {
        self.sampled.len()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_every_eighth_hash_is_sampled() {
        let mut idx: DedupIndex<u64> = DedupIndex::new(0, 8);
        for i in 0..64u64 {
            idx.record_write(1000 + i, i);
        }
        assert_eq!(idx.sampled_len(), 8);
    }

    #[test]
    fn recent_window_catches_unsampled_hashes() {
        let mut idx: DedupIndex<u64> = DedupIndex::new(16, 8);
        idx.record_write(0xabc, 1); // write #1: not sampled (1 % 8 != 0)
        assert_eq!(idx.lookup(0xabc), Some(1));
        assert_eq!(idx.stats().recent_hits, 1);
    }

    #[test]
    fn recent_window_evicts_fifo() {
        let mut idx: DedupIndex<u64> = DedupIndex::new(4, 8);
        for i in 0..8u64 {
            idx.record_write(i, i);
        }
        assert_eq!(idx.lookup(0), None, "evicted");
        assert_eq!(idx.lookup(7), Some(7), "still in window");
    }

    #[test]
    fn hot_cache_survives_recent_eviction() {
        let mut idx: DedupIndex<u64> = DedupIndex::new(2, 8);
        idx.record_write(0x11, 5);
        idx.promote(0x11, 5);
        // Push it out of the recent window.
        idx.record_write(0x22, 6);
        idx.record_write(0x33, 7);
        assert_eq!(idx.lookup(0x11), Some(5));
        assert_eq!(idx.stats().hot_hits, 1);
    }

    #[test]
    fn hot_cache_evicts_coldest() {
        let mut idx: DedupIndex<u64> = DedupIndex::new(0, 2);
        idx.promote(1, 10);
        idx.promote(1, 10); // count 2
        idx.promote(2, 20); // count 1
        idx.promote(3, 30); // evicts hash 2 (coldest)
        assert_eq!(idx.lookup(1), Some(10));
        assert_eq!(idx.lookup(2), None);
        assert_eq!(idx.lookup(3), Some(30));
    }

    #[test]
    fn forget_drops_a_stale_entry() {
        let mut idx: DedupIndex<u64> = DedupIndex::new(4, 4);
        idx.set_sample_rate(1);
        idx.record_write(0x99, 1);
        assert_eq!(idx.lookup(0x99), Some(1));
        idx.forget(0x99);
        assert_eq!(idx.lookup(0x99), None);
    }

    #[test]
    fn sample_rate_override() {
        let mut idx: DedupIndex<u64> = DedupIndex::new(0, 1);
        idx.set_sample_rate(2);
        for i in 0..10u64 {
            idx.record_write(i, i);
        }
        assert_eq!(idx.sampled_len(), 5);
    }

    #[test]
    fn misses_are_counted() {
        let mut idx: DedupIndex<u64> = DedupIndex::new(4, 4);
        assert_eq!(idx.lookup(42), None);
        assert_eq!(idx.stats().misses, 1);
    }

    /// What the hot cache must equal: the map alone, its victim found by
    /// scanning every entry for the `(count, hash)` minimum. No recent
    /// window, every write sampled.
    #[derive(Default)]
    struct ScanModel {
        sampled: HashMap<u64, u64>,
        hot: HashMap<u64, (u64, u64)>,
        hot_capacity: usize,
    }

    impl ScanModel {
        fn lookup(&self, hash: u64) -> Option<u64> {
            let hot = self.hot.get(&hash).map(|(loc, _)| *loc);
            hot.or(self.sampled.get(&hash).copied())
        }

        fn promote(&mut self, hash: u64, loc: u64) {
            let count = self.hot.get(&hash).map(|(_, c)| *c).unwrap_or(0) + 1;
            if self.hot.len() >= self.hot_capacity && !self.hot.contains_key(&hash) {
                if let Some((&victim, _)) = self.hot.iter().min_by_key(|(&h, &(_, c))| (c, h)) {
                    self.hot.remove(&victim);
                }
            }
            self.hot.insert(hash, (loc, count));
        }
    }

    use proptest::Strategy;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The ordered eviction is the scan it replaced: over any
        /// record_write / lookup / promote / forget stream the index
        /// answers every lookup like the model and its hot cache holds
        /// the same entries with the same counts — so each eviction
        /// picked the same victim.
        #[test]
        fn hot_eviction_equals_the_scanning_model(
            capacity in (0usize..3).prop_map(|i| [0, 1, 8][i]),
            ops in proptest::collection::vec((0u8..4, 0u64..24), 0..300),
        ) {
            let mut idx: DedupIndex<u64> = DedupIndex::new(0, capacity);
            idx.set_sample_rate(1);
            let mut m = ScanModel { hot_capacity: capacity, ..Default::default() };
            for (i, (op, hash)) in ops.into_iter().enumerate() {
                // A location per op tells the tiers' answers apart.
                let loc = i as u64;
                match op {
                    0 => {
                        idx.record_write(hash, loc);
                        m.sampled.insert(hash, loc);
                    }
                    1 => proptest::prop_assert_eq!(idx.lookup(hash), m.lookup(hash)),
                    2 => {
                        idx.promote(hash, loc);
                        m.promote(hash, loc);
                    }
                    _ => {
                        idx.forget(hash);
                        m.sampled.remove(&hash);
                        m.hot.remove(&hash);
                    }
                }
                let hot: HashMap<u64, (u64, u64)> = idx.hot.iter().map(|(h, e)| (*h, *e)).collect();
                proptest::prop_assert_eq!(&hot, &m.hot);
                let order: Vec<(u64, u64)> = idx.hot_order.iter().copied().collect();
                let mut expect: Vec<(u64, u64)> = m.hot.iter().map(|(h, (_, c))| (*c, *h)).collect();
                expect.sort_unstable();
                proptest::prop_assert_eq!(order, expect);
            }
        }
    }
}
