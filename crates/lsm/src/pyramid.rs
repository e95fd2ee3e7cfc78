//! The pyramid proper: memtable + patch stack + merge policy + elision.

use crate::patch::{newest_per_key, Patch};
use crate::seq::Seq;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// Deletion predicates consulted by readers and by merge (§4.10).
///
/// Implementations are typically backed by an elide table — a
/// `purity_format::RangeTable` over medium ids or sequence numbers.
pub trait ElideFilter<K>: Send + Sync {
    /// True if the fact `(key, seq)` has been deleted by predicate.
    fn is_elided(&self, key: &K, seq: Seq) -> bool;

    /// What the predicate says about every key inside the bounds at
    /// once. A filter whose answer depends on a key prefix (a medium id)
    /// settles a scan inside one prefix here, and the scan then pays
    /// nothing per fact; the default asks per key.
    fn elides_range(&self, _lo: Bound<&K>, _hi: Bound<&K>) -> RangeElision {
        RangeElision::PerKey
    }
}

/// An [`ElideFilter`]'s answer for a whole key range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeElision {
    /// Every key in the bounds is elided, at any sequence number.
    All,
    /// No key in the bounds is elided.
    Nothing,
    /// The range is mixed or the filter cannot tell: ask
    /// [`ElideFilter::is_elided`] fact by fact.
    PerKey,
}

impl<K, F> ElideFilter<K> for F
where
    F: Fn(&K, Seq) -> bool + Send + Sync,
{
    fn is_elided(&self, key: &K, seq: Seq) -> bool {
        self(key, seq)
    }
}

/// Counters describing pyramid shape and maintenance work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PyramidStats {
    /// Facts inserted over the lifetime.
    pub inserts: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Merge operations performed.
    pub merges: u64,
    /// Facts dropped by merges as superseded (older duplicate keys).
    pub superseded_dropped: u64,
    /// Facts dropped by merges as elided.
    pub elided_dropped: u64,
}

impl PyramidStats {
    /// Writes these counters into `out` under the `lsm_*` names,
    /// labeled with the pyramid's name.
    pub fn collect(&self, pyramid: &str, out: &mut purity_obs::Frame<'_>) {
        let labels = [("pyramid", pyramid)];
        out.counter("lsm_inserts", &labels, self.inserts);
        out.counter("lsm_flushes", &labels, self.flushes);
        out.counter("lsm_merges", &labels, self.merges);
        out.counter("lsm_superseded_dropped", &labels, self.superseded_dropped);
        out.counter("lsm_elided_dropped", &labels, self.elided_dropped);
    }
}

/// The facts buffered for one key in the memtable. Nearly every key
/// holds exactly one fact between flushes, so that case is stored
/// inline — a heap `Vec` per key would dominate insert cost on the
/// write path.
enum Versions<V> {
    One((Seq, V)),
    Many(Vec<(Seq, V)>),
}

impl<V> Versions<V> {
    #[inline]
    fn push(&mut self, fact: (Seq, V)) {
        match self {
            Versions::Many(v) => v.push(fact),
            Versions::One(_) => {
                let Versions::One(first) =
                    std::mem::replace(self, Versions::Many(Vec::with_capacity(2)))
                else {
                    unreachable!()
                };
                let Versions::Many(v) = self else {
                    unreachable!()
                };
                v.push(first);
                v.push(fact);
            }
        }
    }

    #[inline]
    fn iter(&self) -> std::slice::Iter<'_, (Seq, V)> {
        match self {
            Versions::One(f) => std::slice::from_ref(f).iter(),
            Versions::Many(v) => v.iter(),
        }
    }
}

/// By-value iteration without boxing either arm (flush drains the whole
/// memtable through this).
enum VersionsIntoIter<V> {
    One(std::option::IntoIter<(Seq, V)>),
    Many(std::vec::IntoIter<(Seq, V)>),
}

impl<V> Iterator for VersionsIntoIter<V> {
    type Item = (Seq, V);

    fn next(&mut self) -> Option<(Seq, V)> {
        match self {
            VersionsIntoIter::One(i) => i.next(),
            VersionsIntoIter::Many(i) => i.next(),
        }
    }
}

impl<V> IntoIterator for Versions<V> {
    type Item = (Seq, V);
    type IntoIter = VersionsIntoIter<V>;

    fn into_iter(self) -> VersionsIntoIter<V> {
        match self {
            Versions::One(f) => VersionsIntoIter::One(Some(f).into_iter()),
            Versions::Many(v) => VersionsIntoIter::Many(v.into_iter()),
        }
    }
}

/// A log-structured merge index over immutable facts.
///
/// Readers see the union of the memtable and all patches, newest sequence
/// number winning per key, with elided facts filtered out — except via
/// [`Pyramid::get_relaxed`], the paper's relaxed consistency mode that
/// skips elide checks (§3.2: readers "may observe tuples that no longer
/// exist" with no ill effect).
pub struct Pyramid<K: Ord + Clone, V: Clone> {
    /// Key -> seq-ascending facts.
    memtable: BTreeMap<K, Versions<V>>,
    mem_facts: usize,
    /// Newest-first immutable patches.
    patches: Vec<Arc<Patch<K, V>>>,
    elide: Option<Arc<dyn ElideFilter<K>>>,
    /// Flush when the memtable holds this many facts.
    flush_threshold: usize,
    /// Merge adjacent patches when the stack grows past this depth.
    max_patches: usize,
    stats: PyramidStats,
}

/// A flushed patch folds into the patches below it while it (with what
/// it has already swallowed) holds at least `1 / FOLD_RATIO` of the next
/// one's facts, so every patch stays more than `FOLD_RATIO` times the
/// size of the one above it: the stack is logarithmic in the fact count
/// and a key has O(1) stored versions on average, whatever the flush
/// count. `max_patches` is the backstop.
const FOLD_RATIO: usize = 2;

impl<K: Ord + Clone, V: Clone> Pyramid<K, V> {
    /// Creates an empty pyramid with default maintenance thresholds.
    pub fn new() -> Self {
        Self::with_thresholds(4096, 8)
    }

    /// Creates a pyramid with explicit flush/merge thresholds.
    pub fn with_thresholds(flush_threshold: usize, max_patches: usize) -> Self {
        assert!(flush_threshold >= 1 && max_patches >= 2);
        Self {
            memtable: BTreeMap::new(),
            mem_facts: 0,
            patches: Vec::new(),
            elide: None,
            flush_threshold,
            max_patches,
            stats: PyramidStats::default(),
        }
    }

    /// Attaches the elide filter (the table's deletion policy).
    pub fn set_elide_filter(&mut self, filter: Arc<dyn ElideFilter<K>>) {
        self.elide = Some(filter);
    }

    /// Inserts one immutable fact. Duplicate or stale facts are harmless;
    /// this is what makes recovery a plain set union (§4.3).
    pub fn insert(&mut self, key: K, value: V, seq: Seq) {
        purity_obs::profile_scope!(purity_obs::Plane::Lsm);
        self.insert_unprofiled(key, value, seq);
    }

    /// Inserts a batch of facts under one profiling scope (the per-fact
    /// event count is preserved via `add_events`, so the perf trajectory
    /// stays comparable while the hot write path pays the scope cost
    /// once per cblock instead of once per sector).
    pub fn insert_many<I: IntoIterator<Item = (K, V, Seq)>>(&mut self, facts: I) {
        purity_obs::profile_scope!(purity_obs::Plane::Lsm);
        let mut extra = 0u64;
        for (key, value, seq) in facts {
            self.insert_unprofiled(key, value, seq);
            extra += 1;
        }
        purity_obs::profiler::add_events(purity_obs::Plane::Lsm, extra.saturating_sub(1));
    }

    fn insert_unprofiled(&mut self, key: K, value: V, seq: Seq) {
        match self.memtable.entry(key) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(Versions::One((seq, value)));
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                e.get_mut().push((seq, value));
            }
        }
        self.mem_facts += 1;
        self.stats.inserts += 1;
        if self.mem_facts >= self.flush_threshold {
            self.flush();
        }
    }

    fn is_elided(&self, key: &K, seq: Seq) -> bool {
        self.elide
            .as_ref()
            .map(|e| e.is_elided(key, seq))
            .unwrap_or(false)
    }

    fn elides_range(&self, lo: Bound<&K>, hi: Bound<&K>) -> RangeElision {
        self.elide
            .as_ref()
            .map_or(RangeElision::Nothing, |e| e.elides_range(lo, hi))
    }

    /// Newest non-elided fact for `key`.
    pub fn get(&self, key: &K) -> Option<(V, Seq)> {
        purity_obs::profile_scope!(purity_obs::Plane::Lsm);
        let newest = self.newest_fact(key)?;
        if self.is_elided(key, newest.1) {
            None
        } else {
            Some(newest)
        }
    }

    /// Relaxed-consistency read: ignores retraction/elide state entirely,
    /// so it may return a fact that has been deleted (§3.2).
    pub fn get_relaxed(&self, key: &K) -> Option<(V, Seq)> {
        self.newest_fact(key)
    }

    fn newest_fact(&self, key: &K) -> Option<(V, Seq)> {
        let mut best: Option<(V, Seq)> = None;
        if let Some(versions) = self.memtable.get(key) {
            if let Some((seq, v)) = versions.iter().max_by_key(|(s, _)| *s) {
                best = Some((v.clone(), *seq));
            }
        }
        for patch in &self.patches {
            if let Some((v, seq)) = patch.lookup(key) {
                if best.as_ref().map(|(_, bs)| seq > *bs).unwrap_or(true) {
                    best = Some((v.clone(), seq));
                }
            }
        }
        best
    }

    /// Newest non-elided fact per key in `[lo, hi]`, in key order.
    pub fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V, Seq)> {
        let mut out = Vec::new();
        self.range_for_each(lo, hi, |k, v, seq| out.push((k.clone(), v.clone(), seq)));
        out
    }

    /// Streams the newest non-elided fact per key in the bounds, in key
    /// order, without materializing a map: a k-way merge over the sorted
    /// patch runs, with the memtable's keys woven in. This is the engine
    /// under [`Pyramid::range`]; GC's liveness scans and patch rewrites
    /// call it directly to skip the intermediate `Vec` as well.
    pub fn range_for_each(&self, lo: Bound<&K>, hi: Bound<&K>, mut f: impl FnMut(&K, &V, Seq)) {
        // The filter is asked once for the whole range where it can
        // answer, and per fact only where it cannot.
        let ask_per_key = match self.elides_range(lo, hi) {
            RangeElision::All => return,
            RangeElision::Nothing => false,
            RangeElision::PerKey => true,
        };
        let mut emit = |key: &K, v: &V, seq: Seq| {
            if !(ask_per_key && self.is_elided(key, seq)) {
                f(key, v, seq);
            }
        };
        let mut cursors: Vec<&[(K, Seq, V)]> =
            self.patches.iter().map(|p| p.range_slice(lo, hi)).collect();
        for (key, versions) in self.memtable.range::<K, _>((lo, hi)) {
            // What the patches hold below this memtable key, then the
            // key itself: memtable first, then patches in newest-first
            // order; later sources win only on strictly greater seq
            // (matching point-get semantics).
            newest_per_key(&mut cursors, Some(key), |e| emit(&e.0, &e.2, e.1));
            let mut best: Option<(Seq, &V)> = None;
            let patched = cursors.iter_mut().filter_map(|c| {
                let run = c.iter().take_while(|e| e.0 == *key).count();
                let (found, rest) = c.split_at(run);
                *c = rest;
                found.last().map(|(_, seq, v)| (*seq, v))
            });
            for (seq, v) in versions.iter().map(|(s, v)| (*s, v)).chain(patched) {
                if best.is_none_or(|(s, _)| seq > s) {
                    best = Some((seq, v));
                }
            }
            let (seq, v) = best.expect("a memtable key holds a fact");
            emit(key, v, seq);
        }
        newest_per_key(&mut cursors, None, |e| emit(&e.0, &e.2, e.1));
    }

    /// Every live (non-elided, newest-per-key) fact.
    pub fn iter_live(&self) -> Vec<(K, V, Seq)> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// True when at least one live fact exists in the bounds — the
    /// emptiness probe [`Pyramid::range`] would answer, without cloning
    /// the whole range into a map (GC's chain-shortcut fixpoint asks
    /// this for every medium row on every pass).
    pub fn range_any(&self, lo: Bound<&K>, hi: Bound<&K>) -> bool {
        fn as_ref<K>(b: &Bound<K>) -> Bound<&K> {
            match b {
                Bound::Included(k) => Bound::Included(k),
                Bound::Excluded(k) => Bound::Excluded(k),
                Bound::Unbounded => Bound::Unbounded,
            }
        }
        match self.elides_range(lo, hi) {
            RangeElision::All => return false,
            // Any stored fact counts (superseded facts imply a newest
            // fact for the same in-bounds key).
            RangeElision::Nothing => {
                return self.memtable.range::<K, _>((lo, hi)).next().is_some()
                    || self
                        .patches
                        .iter()
                        .any(|p| !p.range_slice(lo, hi).is_empty());
            }
            RangeElision::PerKey => {}
        }
        // With elision, walk candidate keys in ascending order and stop
        // at the first whose newest fact survives the filter; elided
        // prefixes are skipped one key at a time (rare in practice).
        let mut cur: Bound<K> = lo.cloned();
        loop {
            let mut best: Option<&K> = None;
            if let Some((k, _)) = self.memtable.range((as_ref(&cur), hi)).next() {
                best = Some(k);
            }
            for p in &self.patches {
                if let Some((k, _, _)) = p.range(as_ref(&cur), hi).next() {
                    if best.map(|b| k < b).unwrap_or(true) {
                        best = Some(k);
                    }
                }
            }
            let Some(key) = best.cloned() else {
                return false;
            };
            let newest = self.newest_fact(&key).expect("key observed in range").1;
            if !self.is_elided(&key, newest) {
                return true;
            }
            cur = Bound::Excluded(key);
        }
    }

    /// Freezes the memtable into a patch. Returns it (also kept in the
    /// pyramid) so the owner can persist its facts into segments.
    pub fn flush(&mut self) -> Option<Arc<Patch<K, V>>> {
        purity_obs::profile_scope!(purity_obs::Plane::Lsm);
        if self.memtable.is_empty() {
            return None;
        }
        let entries: Vec<(K, Seq, V)> = std::mem::take(&mut self.memtable)
            .into_iter()
            .flat_map(|(k, versions)| versions.into_iter().map(move |(s, v)| (k.clone(), s, v)))
            .collect();
        self.mem_facts = 0;
        let patch = Arc::new(Patch::from_entries(entries));
        self.patches.insert(0, patch.clone());
        self.stats.flushes += 1;
        // Fold as deep as the ratio reaches, in one k-way merge. The fact
        // count carried down is an upper bound on the merged size, so
        // the patch below the fold is more than `FOLD_RATIO` times it.
        let mut facts = patch.len();
        let mut depth = 1;
        while depth < self.patches.len() && facts * FOLD_RATIO >= self.patches[depth].len() {
            facts += self.patches[depth].len();
            depth += 1;
        }
        if depth > 1 {
            self.merge_span(0..depth);
        }
        debug_assert!(self
            .patches
            .get(1)
            .is_none_or(|below| self.patches[0].len() * FOLD_RATIO < below.len()));
        if self.patches.len() > self.max_patches {
            self.merge_cheapest_adjacent_pair();
        }
        Some(patch)
    }

    /// Merges the adjacent pair with the smallest combined size (ties
    /// broken toward the newest pair, deterministically) — what a flush
    /// falls back on when the size-ratio fold has left more than
    /// `max_patches`. The cheapest pair, not the two oldest: that would
    /// re-walk the biggest patch on almost every flush. Adjacent merges
    /// keep sequence ranges contiguous and the newest-first patch order
    /// intact.
    pub fn merge_cheapest_adjacent_pair(&mut self) {
        let n = self.patches.len();
        if n < 2 {
            return;
        }
        purity_obs::profile_scope!(purity_obs::Plane::Lsm);
        let cost = |i: usize| self.patches[i].len() + self.patches[i + 1].len();
        let at = (0..n - 1).min_by_key(|&i| cost(i)).expect("n >= 2");
        self.merge_span(at..at + 2);
    }

    /// Merges the two oldest patches (contiguous sequence ranges) into
    /// one, dropping superseded and elided facts.
    pub fn merge_oldest_pair(&mut self) {
        purity_obs::profile_scope!(purity_obs::Plane::Lsm);
        let n = self.patches.len();
        if n >= 2 {
            self.merge_span(n - 2..n);
        }
    }

    /// Full flatten: collapses every patch (not the memtable) into one.
    /// GC uses this to bound read fan-out and reclaim elided space; a
    /// single patch is still re-merged, which drops newly elided facts.
    pub fn flatten(&mut self) {
        purity_obs::profile_scope!(purity_obs::Plane::Lsm);
        if !self.patches.is_empty() {
            self.merge_span(0..self.patches.len());
        }
    }

    /// Replaces the adjacent patches `span` with their merge through the
    /// elide filter, and books it: every fact that went in and did not
    /// come out was either the newest of its key and elided, or
    /// superseded.
    fn merge_span(&mut self, span: std::ops::Range<usize>) {
        let inputs = &self.patches[span.clone()];
        let before: usize = inputs.iter().map(|p| p.len()).sum();
        let (merged, elided) = Patch::merge(inputs, |k, s| self.is_elided(k, s));
        self.stats.merges += 1;
        self.stats.elided_dropped += elided as u64;
        self.stats.superseded_dropped += (before - merged.len() - elided) as u64;
        self.patches.splice(span, [Arc::new(merged)]);
    }

    /// Number of immutable patches (the read fan-out bound).
    pub fn patch_count(&self) -> usize {
        self.patches.len()
    }

    /// Facts currently buffered in the memtable.
    pub fn memtable_facts(&self) -> usize {
        self.mem_facts
    }

    /// Total facts across memtable and patches (including superseded).
    pub fn total_facts(&self) -> usize {
        self.mem_facts + self.patches.iter().map(|p| p.len()).sum::<usize>()
    }

    /// Highest sequence number stored anywhere in the pyramid.
    pub fn max_seq(&self) -> Seq {
        let mem = self
            .memtable
            .values()
            .flat_map(|v| v.iter().map(|(s, _)| *s))
            .max()
            .unwrap_or(0);
        let patch = self.patches.iter().map(|p| p.max_seq()).max().unwrap_or(0);
        mem.max(patch)
    }

    /// Maintenance counters.
    pub fn stats(&self) -> PyramidStats {
        self.stats
    }
}

impl<K: Ord + Clone, V: Clone> Default for Pyramid<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pyramid() -> Pyramid<u64, u64> {
        Pyramid::with_thresholds(8, 4)
    }

    #[test]
    fn newest_fact_wins_across_memtable_and_patches() {
        let mut p = pyramid();
        p.insert(1, 100, 1);
        p.flush();
        p.insert(1, 200, 2);
        assert_eq!(p.get(&1), Some((200, 2)));
        p.flush();
        p.insert(1, 300, 3);
        assert_eq!(p.get(&1), Some((300, 3)));
    }

    #[test]
    fn out_of_order_inserts_converge() {
        // §3.2: confused or lagging writers may reorder inserts safely.
        let mut a = pyramid();
        let mut b = pyramid();
        let facts = [(1u64, 10u64, 5u64), (1, 20, 3), (2, 30, 4), (1, 40, 6)];
        for (k, v, s) in facts {
            a.insert(k, v, s);
        }
        for (k, v, s) in facts.iter().rev() {
            b.insert(*k, *v, *s);
        }
        assert_eq!(a.get(&1), b.get(&1));
        assert_eq!(a.get(&1), Some((40, 6)));
        assert_eq!(a.get(&2), b.get(&2));
    }

    #[test]
    fn duplicate_reinsertion_is_harmless() {
        // Recovery replays facts that may already be present (§4.3).
        let mut p = pyramid();
        for (k, v, s) in [(1u64, 10u64, 1u64), (2, 20, 2), (3, 30, 3)] {
            p.insert(k, v, s);
        }
        p.flush();
        for (k, v, s) in [(1u64, 10u64, 1u64), (2, 20, 2), (3, 30, 3)] {
            p.insert(k, v, s);
        }
        assert_eq!(p.get(&1), Some((10, 1)));
        assert_eq!(p.get(&2), Some((20, 2)));
        assert_eq!(p.iter_live().len(), 3);
    }

    #[test]
    fn automatic_flush_and_merge_bound_patch_count() {
        let mut p = Pyramid::with_thresholds(4, 3);
        for i in 0..200u64 {
            p.insert(i, i, i + 1);
        }
        assert!(p.patch_count() <= 3, "patch count {}", p.patch_count());
        for i in (0..200u64).step_by(17) {
            assert_eq!(p.get(&i), Some((i, i + 1)));
        }
        assert!(p.stats().merges > 0);
    }

    #[test]
    fn elide_filter_hides_and_merge_reclaims() {
        let mut p = pyramid();
        for i in 0..20u64 {
            p.insert(i, i * 10, i + 1);
        }
        p.flush();
        assert_eq!(p.total_facts(), 20);
        // Elide keys 0..10 (e.g. "drop medium 0").
        p.set_elide_filter(Arc::new(|k: &u64, _s: Seq| *k < 10));
        assert_eq!(p.get(&5), None);
        assert_eq!(p.get(&15), Some((150, 16)));
        // Relaxed readers still see the elided fact — allowed by §3.2.
        assert_eq!(p.get_relaxed(&5), Some((50, 6)));
        // Flatten reclaims elided facts immediately.
        p.flatten();
        assert_eq!(p.total_facts(), 10);
        assert_eq!(p.iter_live().len(), 10);
    }

    #[test]
    fn merge_books_elided_and_superseded_drops_apart() {
        // The scenario above: 20 single-version keys, 10 of them elided.
        let mut p = pyramid();
        for i in 0..20u64 {
            p.insert(i, i * 10, i + 1);
        }
        p.flush();
        p.set_elide_filter(Arc::new(|k: &u64, _s: Seq| *k < 10));
        p.flatten();
        let s = p.stats();
        assert_eq!((s.elided_dropped, s.superseded_dropped), (10, 0));
        // A live key overwritten twice and an elided one overwritten
        // once: the old versions are superseded, whatever their key.
        p.insert(15, 1, 30);
        p.insert(15, 2, 31);
        p.insert(3, 3, 32);
        p.insert(3, 4, 33);
        p.flush();
        p.flatten();
        let s = p.stats();
        assert_eq!((s.elided_dropped, s.superseded_dropped), (11, 3));
        assert_eq!(p.total_facts(), 10);
    }

    #[test]
    fn flatten_is_idempotent() {
        let mut p = pyramid();
        for i in 0..50u64 {
            p.insert(i % 10, i, i + 1);
        }
        p.flush();
        p.flatten();
        let first: Vec<_> = p.iter_live();
        let facts_first = p.total_facts();
        p.flatten();
        assert_eq!(p.iter_live(), first);
        assert_eq!(p.total_facts(), facts_first);
    }

    #[test]
    fn range_scans_respect_bounds_and_elision() {
        let mut p = pyramid();
        for i in 0..30u64 {
            p.insert(i, i, i + 1);
        }
        p.flush();
        p.insert(5, 500, 100); // overwrite in memtable
        p.set_elide_filter(Arc::new(|k: &u64, _| *k == 7));
        let got = p.range(Bound::Included(&5), Bound::Excluded(&10));
        let keys: Vec<u64> = got.iter().map(|(k, _, _)| *k).collect();
        assert_eq!(keys, vec![5, 6, 8, 9]);
        let five = got.iter().find(|(k, _, _)| *k == 5).unwrap();
        assert_eq!((five.1, five.2), (500, 100));
    }

    #[test]
    fn empty_pyramid_behaves() {
        let mut p = pyramid();
        assert_eq!(p.get(&1), None);
        assert!(p.iter_live().is_empty());
        assert_eq!(p.flush().map(|f| f.len()), None);
        p.flatten();
        assert_eq!(p.max_seq(), 0);
    }

    #[test]
    fn max_seq_tracks_all_layers() {
        let mut p = pyramid();
        p.insert(1, 1, 5);
        p.flush();
        p.insert(2, 2, 9);
        assert_eq!(p.max_seq(), 9);
    }

    #[test]
    fn superseded_facts_are_dropped_by_merge_not_reads() {
        let mut p = Pyramid::with_thresholds(100, 8);
        for s in 1..=50u64 {
            p.insert(42, s, s);
        }
        p.flush();
        assert_eq!(p.total_facts(), 50);
        assert_eq!(p.get(&42), Some((50, 50)));
        p.flatten();
        assert_eq!(p.total_facts(), 1);
        assert_eq!(p.get(&42), Some((50, 50)));
    }
}
