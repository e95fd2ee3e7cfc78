//! Controller-RAM read cache: a byte-bounded LRU with strictly
//! deterministic, `BTreeMap`-ordered eviction.
//!
//! The array's controller runs it over decoded cblocks: the primary
//! serves reads from DRAM when it can, and asynchronously warms the
//! standby's copy so failover does not start cold (§4.3: "the primary
//! controller asynchronously warms the cache of the secondary, reducing
//! the total amount of I/O required for failover").
//!
//! Recency is a monotone logical tick, and the recency index is a
//! `BTreeMap` keyed by tick — the victim is its first entry, so two runs
//! of the same op stream evict identically regardless of allocator
//! layout.

use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug)]
struct Entry {
    data: Arc<Vec<u8>>,
    /// Last-touch tick; also the key into the recency index.
    stamp: u64,
}

/// A deterministic byte-capacity-bounded LRU cache keyed by `K`.
#[derive(Debug)]
pub struct RamCache<K: Ord + Copy> {
    capacity_bytes: usize,
    entries: BTreeMap<K, Entry>,
    /// Recency index: last-touch tick → key (front = coldest).
    lru: BTreeMap<u64, K>,
    used_bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Ord + Copy> RamCache<K> {
    /// Creates a cache bounded to `capacity_bytes` of payload.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            entries: BTreeMap::new(),
            lru: BTreeMap::new(),
            used_bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up a payload and refreshes its LRU position. The payload is
    /// shared, not copied — a hit costs a refcount bump, which matters
    /// when dedup verification fetches a 32 KiB cblock per 512 B compare.
    pub fn get(&mut self, key: &K) -> Option<Arc<Vec<u8>>> {
        let t = self.next_tick();
        let Some(e) = self.entries.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.lru.remove(&e.stamp);
        e.stamp = t;
        self.lru.insert(t, *key);
        Some(e.data.clone())
    }

    /// Whether `key` is resident (no recency side effects).
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Inserts a payload as the most recently used entry, evicting from
    /// the cold end until it fits.
    pub fn put(&mut self, key: K, data: Arc<Vec<u8>>) {
        if data.len() > self.capacity_bytes || self.capacity_bytes == 0 {
            return;
        }
        let t = self.next_tick();
        self.remove(&key);
        self.used_bytes += data.len();
        self.lru.insert(t, key);
        self.entries.insert(key, Entry { data, stamp: t });
        while self.used_bytes > self.capacity_bytes {
            let (_, victim) = self.lru.pop_first().expect("over budget implies an entry");
            let e = self.entries.remove(&victim).expect("indexed entry exists");
            self.used_bytes -= e.data.len();
            self.evictions += 1;
        }
    }

    /// Removes one key.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(e) = self.entries.remove(key) else {
            return false;
        };
        self.lru.remove(&e.stamp);
        self.used_bytes -= e.data.len();
        true
    }

    /// Removes every resident key `stale` matches. Whoever frees a
    /// location that a later write can reuse calls this first, or the
    /// new occupant's reads are served the old occupant's payload.
    pub fn invalidate(&mut self, mut stale: impl FnMut(&K) -> bool) {
        let victims: Vec<K> = self.entries.keys().filter(|k| stale(k)).copied().collect();
        for k in victims {
            self.remove(&k);
        }
    }

    /// Copies the hot set into another cache (standby warming), hottest
    /// first, stopping at the first entry that does not fit.
    pub fn warm_into(&self, other: &mut Self) {
        let mut hot: Vec<(&K, &Entry)> = self.entries.iter().collect();
        hot.sort_by_key(|(_, e)| std::cmp::Reverse(e.stamp));
        for (key, e) in hot {
            if other.used_bytes() + e.data.len() > other.capacity_bytes {
                break;
            }
            other.put(*key, e.data.clone());
        }
    }

    /// Resident keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.keys()
    }

    /// Bytes resident.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses, evictions)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(c: &mut RamCache<u64>, k: u64, n: usize) {
        c.put(k, Arc::new(vec![k as u8; n]));
    }

    #[test]
    fn get_put_round_trip() {
        let mut c = RamCache::new(1024);
        assert!(c.get(&1).is_none());
        put(&mut c, 1, 100);
        assert_eq!(c.get(&1).unwrap().len(), 100);
        assert_eq!(c.stats(), (1, 1, 0));
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = RamCache::new(1000);
        for k in 0..50u64 {
            put(&mut c, k, 90);
            if k % 3 == 0 {
                c.get(&k);
            }
            assert!(c.used_bytes() <= 1000, "at k={k}: {}", c.used_bytes());
        }
        let (_, _, ev) = c.stats();
        assert!(ev > 0);
    }

    #[test]
    fn remove_and_invalidate_drop_entries() {
        let mut c = RamCache::new(1000);
        put(&mut c, 1, 100);
        put(&mut c, 2, 100);
        assert!(c.remove(&1));
        assert!(!c.remove(&1));
        assert!(!c.contains(&1));
        c.invalidate(|&k| k == 2);
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn oversized_and_zero_capacity_are_rejected() {
        let mut c = RamCache::new(10);
        put(&mut c, 1, 100);
        assert!(c.is_empty());
        let mut z: RamCache<u64> = RamCache::new(0);
        z.put(1, Arc::new(vec![0; 1]));
        assert!(z.is_empty());
    }

    #[test]
    fn eviction_order_is_deterministic() {
        let run = || {
            let mut c = RamCache::new(2000);
            let mut log = String::new();
            for k in 0..60u64 {
                put(&mut c, (k * 7) % 23, 150);
                if k % 4 == 1 {
                    c.get(&((k * 5) % 23));
                }
                let keys: Vec<u64> = c.entries.keys().copied().collect();
                log.push_str(&format!("{keys:?};"));
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lru_get_put_and_stats() {
        let mut c = RamCache::new(1024);
        assert_eq!(c.get(&1), None);
        c.put(1, Arc::new(vec![1, 2, 3]));
        assert_eq!(c.get(&1), Some(Arc::new(vec![1, 2, 3])));
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let mut c = RamCache::new(1000);
        put(&mut c, 0, 400);
        put(&mut c, 1, 400);
        c.get(&0); // touch 0 so 1 is LRU
        put(&mut c, 2, 400); // evicts 1
        assert!(c.get(&0).is_some());
        assert!(c.get(&1).is_none());
        assert!(c.get(&2).is_some());
        assert!(c.used_bytes() <= 1000);
    }

    #[test]
    fn lru_oversized_payloads_are_skipped() {
        let mut c = RamCache::new(10);
        put(&mut c, 1, 100);
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn lru_segment_invalidation() {
        // Keyed like a `Pba`: (segment, offset).
        let mut c: RamCache<(u64, u64)> = RamCache::new(1024);
        c.put((1, 0), Arc::new(vec![1]));
        c.put((2, 0), Arc::new(vec![2]));
        c.invalidate(|k| k.0 == 1);
        assert!(c.get(&(1, 0)).is_none());
        assert!(c.get(&(2, 0)).is_some());
    }

    #[test]
    fn lru_warming_copies_hottest_first() {
        let mut primary = RamCache::new(1000);
        put(&mut primary, 0, 300);
        put(&mut primary, 1, 300);
        put(&mut primary, 2, 300);
        primary.get(&0); // hottest
        let mut secondary = RamCache::new(500);
        primary.warm_into(&mut secondary);
        assert!(secondary.get(&0).is_some(), "hottest entry warmed");
        assert!(secondary.used_bytes() <= 500);
    }

    #[test]
    fn lru_replacing_an_entry_adjusts_usage() {
        let mut c = RamCache::new(100);
        put(&mut c, 1, 60);
        put(&mut c, 1, 40);
        assert_eq!(c.used_bytes(), 40);
    }

    /// What the cache must equal: `(key, len)` in recency order, front =
    /// next victim.
    struct LruModel {
        capacity: usize,
        order: Vec<(u8, usize)>,
    }

    impl LruModel {
        fn get(&mut self, k: u8) -> Option<usize> {
            let i = self.order.iter().position(|e| e.0 == k)?;
            let e = self.order.remove(i);
            self.order.push(e);
            Some(e.1)
        }

        fn put(&mut self, k: u8, len: usize) {
            if len > self.capacity {
                return;
            }
            self.order.retain(|e| e.0 != k);
            while self.order.iter().map(|e| e.1).sum::<usize>() + len > self.capacity {
                self.order.remove(0);
            }
            self.order.push((k, len));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The cache is an LRU: over any get / put / invalidate stream it
        /// answers like the model and holds the same entries in the same
        /// victim order.
        #[test]
        fn lru_admission_equals_the_reference_model(
            capacity in 1usize..2000,
            ops in proptest::collection::vec((0u8..3, 0u8..24, 0usize..700), 0..200),
        ) {
            let mut c: RamCache<u8> = RamCache::new(capacity);
            let mut m = LruModel { capacity, order: Vec::new() };
            for (op, k, len) in ops {
                match op {
                    0 => proptest::prop_assert_eq!(c.get(&k).map(|d| d.len()), m.get(k)),
                    1 => {
                        c.put(k, Arc::new(vec![k; len]));
                        m.put(k, len);
                    }
                    _ => {
                        c.invalidate(|x| x % 8 == k % 8);
                        m.order.retain(|e| e.0 % 8 != k % 8);
                    }
                }
                let order: Vec<(u8, usize)> = c
                    .lru
                    .values()
                    .map(|key| (*key, c.entries[key].data.len()))
                    .collect();
                proptest::prop_assert_eq!(&order, &m.order);
                proptest::prop_assert_eq!(c.used_bytes(), m.order.iter().map(|e| e.1).sum::<usize>());
            }
        }
    }
}
