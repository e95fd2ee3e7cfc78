//! Immutable sorted runs of facts ("patches", §4.8).
//!
//! A patch describes the difference between one version of a pyramid and
//! the next: a key-sorted set of `(key, seq, value)` facts with a tracked
//! sequence range. Patches never change after construction; merge builds
//! new patches from old ones.

use crate::seq::Seq;
use std::ops::Bound;
use std::sync::Arc;

/// An immutable sorted run of facts.
#[derive(Debug, Clone)]
pub struct Patch<K, V> {
    /// Sorted by (key asc, seq asc).
    entries: Vec<(K, Seq, V)>,
    min_seq: Seq,
    max_seq: Seq,
}

impl<K: Ord + Clone, V: Clone> Patch<K, V> {
    /// Builds a patch from facts; sorts them by (key, seq).
    pub fn from_entries(mut entries: Vec<(K, Seq, V)>) -> Self {
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let min_seq = entries.iter().map(|e| e.1).min().unwrap_or(0);
        let max_seq = entries.iter().map(|e| e.1).max().unwrap_or(0);
        Self {
            entries,
            min_seq,
            max_seq,
        }
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the patch holds no facts.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lowest sequence number contained (0 when empty).
    pub fn min_seq(&self) -> Seq {
        self.min_seq
    }

    /// Highest sequence number contained (0 when empty).
    pub fn max_seq(&self) -> Seq {
        self.max_seq
    }

    /// Newest fact for `key` within this patch.
    pub fn lookup(&self, key: &K) -> Option<(&V, Seq)> {
        // Entries for a key are contiguous and seq-ascending; take the
        // last one <= key's upper bound.
        let end = self.entries.partition_point(|e| e.0 <= *key);
        if end == 0 {
            return None;
        }
        let cand = &self.entries[end - 1];
        (cand.0 == *key).then_some((&cand.2, cand.1))
    }

    /// All facts, in (key, seq) order.
    pub fn iter(&self) -> impl Iterator<Item = &(K, Seq, V)> {
        self.entries.iter()
    }

    /// Facts whose keys fall in `\[lo, hi\]`.
    pub fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> impl Iterator<Item = &(K, Seq, V)> {
        self.range_slice(lo, hi).iter()
    }

    /// The contiguous entry slice whose keys fall in the bounds (entries
    /// are (key asc, seq asc); same-key runs are contiguous). Exposed so
    /// the pyramid can run cursor-based k-way merges over patches.
    pub fn range_slice(&self, lo: Bound<&K>, hi: Bound<&K>) -> &[(K, Seq, V)] {
        let start = match lo {
            Bound::Included(k) => self.entries.partition_point(|e| e.0 < *k),
            Bound::Excluded(k) => self.entries.partition_point(|e| e.0 <= *k),
            Bound::Unbounded => 0,
        };
        let end = match hi {
            Bound::Included(k) => self.entries.partition_point(|e| e.0 <= *k),
            Bound::Excluded(k) => self.entries.partition_point(|e| e.0 < *k),
            Bound::Unbounded => self.entries.len(),
        };
        &self.entries[start..end.max(start)]
    }

    /// Merges seq-ordered patches (newest first) into one, keeping only
    /// the newest fact per key and dropping facts for which `elided`
    /// returns true; returns the patch and how many newest facts the
    /// filter dropped (every other dropped fact was superseded).
    /// Idempotent: merging the output with itself or re-running the
    /// merge produces the same facts.
    pub fn merge(
        patches: &[Arc<Patch<K, V>>],
        elided: impl Fn(&K, Seq) -> bool,
    ) -> (Patch<K, V>, usize) {
        let total: usize = patches.iter().map(|p| p.len()).sum();
        let mut out: Vec<(K, Seq, V)> = Vec::with_capacity(total);
        let mut elided_dropped = 0usize;
        let mut cursors: Vec<&[(K, Seq, V)]> = patches.iter().map(|p| &p.entries[..]).collect();
        newest_per_key(&mut cursors, None, |e| {
            if elided(&e.0, e.1) {
                elided_dropped += 1;
            } else {
                out.push(e.clone());
            }
        });
        // `out` is key-sorted with one fact per key: already in
        // (key asc, seq asc) order, no re-sort needed.
        let min_seq = out.iter().map(|e| e.1).min().unwrap_or(0);
        let max_seq = out.iter().map(|e| e.1).max().unwrap_or(0);
        let merged = Self {
            entries: out,
            min_seq,
            max_seq,
        };
        (merged, elided_dropped)
    }
}

impl<K, V> Patch<K, V> {
    /// Applies `f` to each value, with its position: only while the
    /// patch is being built, before anything reads it.
    pub(crate) fn tag(&mut self, mut f: impl FnMut(usize, &mut V)) {
        for (i, e) in self.entries.iter_mut().enumerate() {
            f(i, &mut e.2);
        }
    }
}

/// The k-way merge under [`Patch::merge`] and the pyramid's range scans:
/// walks (key asc, seq asc) sorted runs, newest source first, and hands
/// `f` the newest fact of every key below `until` (of every key, if
/// `None`) in key order, leaving each cursor at its first entry not
/// consumed. Equal sequence numbers go to the earlier source, as in a
/// point lookup (exact duplicates carry equal values, so the choice is
/// immaterial).
///
/// It moves by runs, not keys: the cursor with the smallest front key
/// (the lead) is drained up to the smallest front key of the others
/// without looking at them again, so key-disjoint runs concatenate and a
/// few new facts over a big old run cost one comparison per old fact.
/// Only a key at the front of several cursors is settled across them.
pub(crate) fn newest_per_key<'a, K: Ord, V>(
    cursors: &mut [&'a [(K, Seq, V)]],
    until: Option<&K>,
    mut f: impl FnMut(&'a (K, Seq, V)),
) {
    loop {
        let mut lead: Option<usize> = None;
        let mut next: Option<&K> = None;
        for (i, c) in cursors.iter().enumerate() {
            let Some((k, _, _)) = c.first() else { continue };
            match lead.map(|l| &cursors[l][0].0) {
                Some(lk) if k >= lk => {
                    if next.is_none_or(|n| k < n) {
                        next = Some(k);
                    }
                }
                lk => {
                    next = lk;
                    lead = Some(i);
                }
            }
        }
        let Some(lead) = lead else { return };
        let c = cursors[lead];
        let key = &c[0].0;
        if until.is_some_and(|u| key >= u) {
            return;
        }
        if next == Some(key) {
            let mut newest: Option<&'a (K, Seq, V)> = None;
            for c in cursors.iter_mut() {
                let run = c.iter().take_while(|e| e.0 == *key).count();
                if let Some(e) = c[..run].last() {
                    if newest.is_none_or(|n| e.1 > n.1) {
                        newest = Some(e);
                    }
                }
                *c = &c[run..];
            }
            // Invariant: `key` is at the front of the lead cursor.
            f(newest.expect("key came from a non-empty front"));
            continue;
        }
        // The lead alone holds every key below `bound`. Same-key entries
        // are adjacent and seq-ascending: the last of a group is its
        // newest.
        let bound = match (next, until) {
            (Some(n), Some(u)) => Some(n.min(u)),
            (n, u) => n.or(u),
        };
        let mut run = 0;
        while run < c.len() && bound.is_none_or(|b| c[run].0 < *b) {
            if c.get(run + 1).is_none_or(|after| after.0 != c[run].0) {
                f(&c[run]);
            }
            run += 1;
        }
        cursors[lead] = &c[run..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patch(entries: Vec<(u64, Seq, &str)>) -> Patch<u64, String> {
        Patch::from_entries(
            entries
                .into_iter()
                .map(|(k, s, v)| (k, s, v.to_string()))
                .collect(),
        )
    }

    #[test]
    fn lookup_returns_newest_within_patch() {
        let p = patch(vec![(1, 10, "old"), (1, 20, "new"), (2, 15, "x")]);
        assert_eq!(p.lookup(&1), Some((&"new".to_string(), 20)));
        assert_eq!(p.lookup(&2), Some((&"x".to_string(), 15)));
        assert_eq!(p.lookup(&3), None);
    }

    #[test]
    fn seq_range_is_tracked() {
        let p = patch(vec![(5, 7, "a"), (9, 3, "b")]);
        assert_eq!((p.min_seq(), p.max_seq()), (3, 7));
        let empty: Patch<u64, String> = Patch::from_entries(vec![]);
        assert_eq!((empty.min_seq(), empty.max_seq()), (0, 0));
        assert!(empty.is_empty());
    }

    #[test]
    fn range_scan_bounds() {
        let p = patch(vec![(1, 1, "a"), (3, 2, "b"), (5, 3, "c"), (7, 4, "d")]);
        let got: Vec<u64> = p
            .range(Bound::Included(&3), Bound::Excluded(&7))
            .map(|e| e.0)
            .collect();
        assert_eq!(got, vec![3, 5]);
        let all: Vec<u64> = p
            .range(Bound::Unbounded, Bound::Unbounded)
            .map(|e| e.0)
            .collect();
        assert_eq!(all, vec![1, 3, 5, 7]);
    }

    #[test]
    fn merge_keeps_newest_per_key() {
        let newer = Arc::new(patch(vec![(1, 30, "v3"), (2, 31, "w2")]));
        let older = Arc::new(patch(vec![(1, 10, "v1"), (1, 20, "v2"), (3, 5, "z")]));
        let (merged, _) = Patch::merge(&[newer, older], |_, _| false);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.lookup(&1), Some((&"v3".to_string(), 30)));
        assert_eq!(merged.lookup(&3), Some((&"z".to_string(), 5)));
    }

    #[test]
    fn merge_drops_elided_facts() {
        let p = Arc::new(patch(vec![(1, 10, "a"), (2, 11, "b"), (3, 12, "c")]));
        let (merged, elided) = Patch::merge(&[p], |k, _| *k == 2);
        assert_eq!((merged.len(), elided), (2, 1));
        assert_eq!(merged.lookup(&2), None);
    }

    #[test]
    fn merge_is_idempotent() {
        let a = Arc::new(patch(vec![(1, 10, "a"), (2, 20, "b")]));
        let b = Arc::new(patch(vec![(1, 5, "stale"), (3, 7, "c")]));
        let once = Arc::new(Patch::merge(&[a.clone(), b.clone()], |_, _| false).0);
        // Re-merging the merged patch with the originals changes nothing.
        let (twice, _) = Patch::merge(&[once.clone(), a, b], |_, _| false);
        let collect = |p: &Patch<u64, String>| p.iter().cloned().collect::<Vec<_>>();
        assert_eq!(collect(&once), collect(&twice));
    }

    #[test]
    fn duplicate_facts_are_harmless() {
        // Recovery may re-insert facts already present (§4.3).
        let p1 = Arc::new(patch(vec![(1, 10, "a"), (2, 20, "b")]));
        let p2 = Arc::new(patch(vec![(1, 10, "a")])); // exact duplicate
        let (merged, _) = Patch::merge(&[p1, p2], |_, _| false);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.lookup(&1), Some((&"a".to_string(), 10)));
    }
}
