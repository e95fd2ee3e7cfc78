//! Controller-RAM read cache: byte-bounded, with strictly
//! deterministic, `BTreeMap`-ordered eviction, under 2Q or plain LRU
//! admission.
//!
//! The array's controller runs it as an LRU ([`RamCache::lru`]): the
//! primary serves reads from DRAM when it can, and asynchronously warms
//! the standby's copy so failover does not start cold (§4.3: "the
//! primary controller asynchronously warms the cache of the secondary,
//! reducing the total amount of I/O required for failover").
//!
//! Plain LRU is scan-vulnerable: one sequential sweep of a cold volume
//! evicts the whole hot set. 2Q (Johnson & Shasha, VLDB '94) fixes that
//! with three structures:
//!
//! * **probation** — a FIFO holding first-touch entries; a scan flows
//!   through probation and out again without disturbing the hot set;
//! * **protected** — an LRU holding entries re-referenced while in
//!   probation (or remembered by the ghost list);
//! * **ghost** — a bounded set of recently-evicted keys (no payloads);
//!   a miss on a ghosted key admits straight into protected, so a
//!   working set slightly larger than probation still gets promoted.
//!
//! Recency is a monotone logical tick, and every index is a `BTreeMap`
//! keyed by tick — victim selection is `first_key_value()`, so two runs
//! of the same op stream evict identically regardless of allocator
//! layout.
//!
//! LRU admission is the same machine with probation and ghosts unused:
//! every `put` enters protected, so the victim is always the entry with
//! the oldest touch.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Fraction of capacity reserved for the probation FIFO (×1/4).
const PROBATION_SHARE: usize = 4;

/// Ghost entries retained per live entry currently cached.
const GHOST_FACTOR: usize = 2;

#[derive(Debug)]
struct Entry {
    data: Arc<Vec<u8>>,
    /// Recency tick; also the key into the owning queue's index.
    stamp: u64,
    protected: bool,
}

/// A deterministic byte-capacity-bounded cache keyed by `K`.
#[derive(Debug)]
pub struct RamCache<K: Ord + Copy> {
    capacity_bytes: usize,
    /// 2Q admission; `false` = LRU (no probation, no ghosts).
    two_q: bool,
    entries: BTreeMap<K, Entry>,
    /// Probation FIFO: insertion tick → key (front = oldest).
    probation: BTreeMap<u64, K>,
    probation_bytes: usize,
    /// Protected LRU: last-touch tick → key (front = coldest).
    protected: BTreeMap<u64, K>,
    protected_bytes: usize,
    /// Ghost list: eviction tick → key, plus the reverse index.
    ghost: BTreeMap<u64, K>,
    ghost_keys: BTreeMap<K, u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Ord + Copy> RamCache<K> {
    /// Creates a 2Q cache bounded to `capacity_bytes` of payload.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            two_q: true,
            entries: BTreeMap::new(),
            probation: BTreeMap::new(),
            probation_bytes: 0,
            protected: BTreeMap::new(),
            protected_bytes: 0,
            ghost: BTreeMap::new(),
            ghost_keys: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Creates an LRU cache bounded to `capacity_bytes` of payload.
    pub fn lru(capacity_bytes: usize) -> Self {
        Self {
            two_q: false,
            ..Self::new(capacity_bytes)
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up a payload. A probation hit promotes the entry into
    /// protected (it has now proven a re-reference); a protected hit
    /// refreshes its LRU position. The payload is shared, not copied — a
    /// hit costs a refcount bump, which matters when dedup verification
    /// fetches a 32 KiB cblock per 512 B compare.
    pub fn get(&mut self, key: &K) -> Option<Arc<Vec<u8>>> {
        let t = self.next_tick();
        let Some(e) = self.entries.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let len = e.data.len();
        let old = e.stamp;
        let was_protected = e.protected;
        e.stamp = t;
        e.protected = true;
        let data = e.data.clone();
        if was_protected {
            self.protected.remove(&old);
        } else {
            self.probation.remove(&old);
            self.probation_bytes -= len;
            self.protected_bytes += len;
        }
        self.protected.insert(t, *key);
        Some(data)
    }

    /// Whether `key` is resident (no recency side effects).
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Inserts a payload. Under 2Q, keys remembered by the ghost list
    /// are admitted straight into protected and first-timers enter
    /// probation; under LRU everything enters protected.
    pub fn put(&mut self, key: K, data: Arc<Vec<u8>>) {
        if data.len() > self.capacity_bytes || self.capacity_bytes == 0 {
            return;
        }
        let t = self.next_tick();
        self.remove(&key);
        let ghosted = self.ghost_keys.remove(&key).inspect(|stamp| {
            self.ghost.remove(stamp);
        });
        let protected = !self.two_q || ghosted.is_some();
        let len = data.len();
        if protected {
            self.protected.insert(t, key);
            self.protected_bytes += len;
        } else {
            self.probation.insert(t, key);
            self.probation_bytes += len;
        }
        self.entries.insert(
            key,
            Entry {
                data,
                stamp: t,
                protected,
            },
        );
        self.enforce_capacity();
    }

    /// Evicts until within budget: probation first while it exceeds its
    /// share (scans drain without touching the hot set), protected LRU
    /// for the remainder. Under 2Q, evicted keys enter the ghost list.
    fn enforce_capacity(&mut self) {
        let probation_budget = self.capacity_bytes / PROBATION_SHARE;
        while self.probation_bytes + self.protected_bytes > self.capacity_bytes {
            let from_probation = if self.probation.is_empty() {
                false
            } else if self.protected.is_empty() {
                true
            } else {
                self.probation_bytes > probation_budget
            };
            let (stamp, key) = if from_probation {
                let (&s, &k) = self.probation.first_key_value().expect("non-empty");
                (s, k)
            } else {
                let (&s, &k) = self.protected.first_key_value().expect("non-empty");
                (s, k)
            };
            if from_probation {
                self.probation.remove(&stamp);
            } else {
                self.protected.remove(&stamp);
            }
            let e = self.entries.remove(&key).expect("indexed entry exists");
            if e.protected {
                self.protected_bytes -= e.data.len();
            } else {
                self.probation_bytes -= e.data.len();
            }
            self.evictions += 1;
            if self.two_q {
                let g = self.next_tick();
                self.ghost.insert(g, key);
                self.ghost_keys.insert(key, g);
            }
        }
        let ghost_cap = (self.entries.len() * GHOST_FACTOR).max(8);
        while self.ghost.len() > ghost_cap {
            let (&s, &k) = self.ghost.first_key_value().expect("non-empty");
            self.ghost.remove(&s);
            self.ghost_keys.remove(&k);
        }
    }

    /// Removes one key. No ghost entry is left behind — the payload the
    /// ghost would vouch for no longer exists.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(e) = self.entries.remove(key) else {
            return false;
        };
        if e.protected {
            self.protected.remove(&e.stamp);
            self.protected_bytes -= e.data.len();
        } else {
            self.probation.remove(&e.stamp);
            self.probation_bytes -= e.data.len();
        }
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
        self.probation_bytes + self.protected_bytes
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
    fn scan_does_not_evict_the_hot_set() {
        let mut c = RamCache::new(1000);
        // Build a protected hot set: insert then re-reference.
        for k in 0..3u64 {
            put(&mut c, k, 200);
            c.get(&k);
        }
        // A long one-touch scan flows through probation only.
        for k in 100..140u64 {
            put(&mut c, k, 200);
        }
        for k in 0..3u64 {
            assert!(c.get(&k).is_some(), "hot key {k} survived the scan");
        }
    }

    #[test]
    fn ghosted_keys_readmit_into_protected() {
        let mut c = RamCache::new(800);
        put(&mut c, 1, 300);
        // Push 1 out through probation.
        put(&mut c, 2, 300);
        put(&mut c, 3, 300);
        put(&mut c, 4, 300);
        assert!(!c.contains(&1));
        // Re-inserting a ghosted key lands protected: it now survives
        // further probation churn.
        put(&mut c, 1, 300);
        put(&mut c, 5, 300);
        put(&mut c, 6, 300);
        assert!(c.contains(&1), "ghost admission protected key 1");
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

    // ---- LRU admission: the controller's cblock cache. ---------------

    #[test]
    fn lru_get_put_and_stats() {
        let mut c = RamCache::lru(1024);
        assert_eq!(c.get(&1), None);
        c.put(1, Arc::new(vec![1, 2, 3]));
        assert_eq!(c.get(&1), Some(Arc::new(vec![1, 2, 3])));
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let mut c = RamCache::lru(1000);
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
        let mut c = RamCache::lru(10);
        put(&mut c, 1, 100);
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn lru_segment_invalidation() {
        // Keyed like a `Pba`: (segment, offset).
        let mut c: RamCache<(u64, u64)> = RamCache::lru(1024);
        c.put((1, 0), Arc::new(vec![1]));
        c.put((2, 0), Arc::new(vec![2]));
        c.invalidate(|k| k.0 == 1);
        assert!(c.get(&(1, 0)).is_none());
        assert!(c.get(&(2, 0)).is_some());
    }

    #[test]
    fn lru_warming_copies_hottest_first() {
        let mut primary = RamCache::lru(1000);
        put(&mut primary, 0, 300);
        put(&mut primary, 1, 300);
        put(&mut primary, 2, 300);
        primary.get(&0); // hottest
        let mut secondary = RamCache::lru(500);
        primary.warm_into(&mut secondary);
        assert!(secondary.get(&0).is_some(), "hottest entry warmed");
        assert!(secondary.used_bytes() <= 500);
    }

    #[test]
    fn lru_replacing_an_entry_adjusts_usage() {
        let mut c = RamCache::lru(100);
        put(&mut c, 1, 60);
        put(&mut c, 1, 40);
        assert_eq!(c.used_bytes(), 40);
    }

    /// What LRU admission must equal: `(key, len)` in recency order,
    /// front = next victim.
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

        /// LRU admission is the LRU it replaced: over any get / put /
        /// invalidate stream the cache answers like the model and holds
        /// the same entries in the same victim order.
        #[test]
        fn lru_admission_equals_the_reference_model(
            capacity in 1usize..2000,
            ops in proptest::collection::vec((0u8..3, 0u8..24, 0usize..700), 0..200),
        ) {
            let mut c: RamCache<u8> = RamCache::lru(capacity);
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
                    .protected
                    .values()
                    .map(|key| (*key, c.entries[key].data.len()))
                    .collect();
                proptest::prop_assert_eq!(&order, &m.order);
                proptest::prop_assert!(c.probation.is_empty() && c.ghost.is_empty());
                proptest::prop_assert_eq!(c.used_bytes(), m.order.iter().map(|e| e.1).sum::<usize>());
            }
        }
    }
}
