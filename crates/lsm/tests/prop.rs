//! Property tests: pyramids vs a reference map, under arbitrary
//! interleavings of inserts, flushes, merges and flattens — and the
//! §3.2 invariants (insert-order independence, duplicate harmlessness).

use proptest::prelude::*;
use purity_lsm::{ElideFilter, Patch, Pyramid, RangeElision, Seq};
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u16, Seq),
    Flush,
    Merge,
    Flatten,
}

/// Elides whole key prefixes, and says so for any range inside one.
struct PrefixFilter(BTreeSet<u8>);

impl ElideFilter<(u8, u8)> for PrefixFilter {
    fn is_elided(&self, key: &(u8, u8), _seq: Seq) -> bool {
        self.0.contains(&key.0)
    }

    fn elides_range(&self, lo: Bound<&(u8, u8)>, hi: Bound<&(u8, u8)>) -> RangeElision {
        match (lo, hi) {
            (Bound::Included(lo), Bound::Included(hi)) if lo.0 == hi.0 => {
                if self.0.contains(&lo.0) {
                    RangeElision::All
                } else {
                    RangeElision::Nothing
                }
            }
            _ => RangeElision::PerKey,
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u8>(), any::<u16>(), 1u64..1000).prop_map(|(k, v, s)| Op::Insert(k, v, s)),
        2 => Just(Op::Flush),
        1 => Just(Op::Merge),
        1 => Just(Op::Flatten),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pyramid_matches_reference(
        ops in proptest::collection::vec(op_strategy(), 0..300),
        (lo, hi) in (any::<u8>(), any::<u8>()),
    ) {
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let mut p: Pyramid<u8, u16> = Pyramid::with_thresholds(32, 4);
        let mut reference: HashMap<u8, (u16, Seq)> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v, s) => {
                    p.insert(k, v, s);
                    // Reference: newest seq wins; ties keep the later
                    // arrival unresolved — avoid ties by skipping equal
                    // seq updates in the reference the same way lookup
                    // does (max_by_key returns the last max).
                    match reference.get(&k) {
                        Some((_, rs)) if *rs > s => {}
                        _ => {
                            reference.insert(k, (v, s));
                        }
                    }
                }
                Op::Flush => {
                    p.flush();
                }
                Op::Merge => p.merge_oldest_pair(),
                Op::Flatten => p.flatten(),
            }
            // Spot-check a few keys every step is too slow; check after.
        }
        for k in 0..=255u8 {
            let got = p.get(&k);
            let want = reference.get(&k).copied();
            // Equal-seq duplicates make the value ambiguous; the seq must
            // still match.
            match (got, want) {
                (None, None) => {}
                (Some((_, gs)), Some((_, ws))) => prop_assert_eq!(gs, ws),
                other => prop_assert!(false, "mismatch for {}: {:?}", k, other),
            }
        }
        // Scans: every key once, ascending, at its newest seq — whole
        // map and a sub-range (seqs arrive out of order, and a patch
        // holds several versions of a key).
        let mut want: Vec<(u8, Seq)> = reference.iter().map(|(k, (_, s))| (*k, *s)).collect();
        want.sort_unstable();
        let scanned = |facts: Vec<(u8, u16, Seq)>| -> Vec<(u8, Seq)> {
            facts.into_iter().map(|(k, _, s)| (k, s)).collect()
        };
        prop_assert_eq!(scanned(p.iter_live()), want.clone());
        want.retain(|(k, _)| (lo..hi).contains(k));
        let got = p.range(Bound::Included(&lo), Bound::Excluded(&hi));
        prop_assert_eq!(scanned(got), want);
    }

    /// A pyramid driven by `insert` + `flush` alone (cap not reached)
    /// folds at flush: every patch is more than twice the one above it,
    /// so the stack is logarithmic in the facts it holds — and it
    /// answers exactly like a twin that never flushed.
    #[test]
    fn flush_fold_keeps_the_stack_logarithmic(
        facts in proptest::collection::vec((any::<u16>(), any::<u16>(), 1usize..40), 1..600),
        (lo, hi) in (any::<u16>(), any::<u16>()),
    ) {
        let mut folded: Pyramid<u16, u16> = Pyramid::with_thresholds(usize::MAX, 64);
        let mut twin: Pyramid<u16, u16> = Pyramid::with_thresholds(usize::MAX, 64);
        for (i, &(k, v, flush_every)) in facts.iter().enumerate() {
            let seq = i as Seq + 1;
            folded.insert(k, v, seq);
            twin.insert(k, v, seq);
            if i % flush_every == 0 {
                folded.flush();
                let in_patches = folded.total_facts() - folded.memtable_facts();
                prop_assert!(
                    folded.patch_count() <= in_patches.ilog2() as usize + 1,
                    "{} patches hold {} facts", folded.patch_count(), in_patches
                );
            }
        }
        prop_assert_eq!(twin.patch_count(), 0);
        prop_assert_eq!(folded.iter_live(), twin.iter_live());
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        prop_assert_eq!(
            folded.range(Bound::Included(&lo), Bound::Included(&hi)),
            twin.range(Bound::Included(&lo), Bound::Included(&hi))
        );
        for &(k, _, _) in &facts {
            prop_assert_eq!(folded.get(&k), twin.get(&k));
        }
    }

    /// A filter that answers for a whole range and the same predicate
    /// asked fact by fact scan alike: bounds inside one elided prefix,
    /// inside one live prefix, and straddling both.
    #[test]
    fn range_answer_equals_per_key_answer(
        facts in proptest::collection::vec(((0u8..6, any::<u8>()), any::<u16>()), 1..200),
        elided in proptest::collection::vec(0u8..6, 0..4).prop_map(BTreeSet::from_iter),
        flush_every in 1usize..50,
        bounds in proptest::collection::vec(((0u8..6, any::<u8>()), (0u8..6, any::<u8>())), 1..8),
    ) {
        let mut by_range: Pyramid<(u8, u8), u16> = Pyramid::with_thresholds(usize::MAX, 8);
        let mut by_key: Pyramid<(u8, u8), u16> = Pyramid::with_thresholds(usize::MAX, 8);
        for (i, &(k, v)) in facts.iter().enumerate() {
            by_range.insert(k, v, i as Seq + 1);
            by_key.insert(k, v, i as Seq + 1);
            if i % flush_every == 0 {
                by_range.flush();
                by_key.flush();
            }
        }
        by_range.set_elide_filter(Arc::new(PrefixFilter(elided.clone())));
        by_key.set_elide_filter(Arc::new(move |k: &(u8, u8), _s: Seq| elided.contains(&k.0)));
        for (a, b) in bounds {
            // The generated pair straddles prefixes; pinning the upper
            // prefix to the lower one keeps it inside a single prefix.
            for hi in [b, (a.0, b.1)] {
                let (lo, hi) = (a.min(hi), a.max(hi));
                prop_assert_eq!(
                    by_range.range(Bound::Included(&lo), Bound::Included(&hi)),
                    by_key.range(Bound::Included(&lo), Bound::Included(&hi))
                );
                prop_assert_eq!(
                    by_range.range_any(Bound::Included(&lo), Bound::Included(&hi)),
                    by_key.range_any(Bound::Included(&lo), Bound::Included(&hi))
                );
            }
        }
        prop_assert_eq!(by_range.iter_live(), by_key.iter_live());
    }

    /// Merging two patches whose key ranges do not overlap is their
    /// concatenation, in either stacking order.
    #[test]
    fn disjoint_merge_is_concatenation(
        keys in proptest::collection::vec(any::<u16>(), 0..200).prop_map(BTreeSet::from_iter),
        split in any::<prop::sample::Index>(),
        seqs in proptest::collection::vec(1u64..1000, 200),
    ) {
        let entries: Vec<(u16, Seq, u16)> =
            keys.iter().zip(&seqs).map(|(&k, &s)| (k, s, k ^ 0x5a5a)).collect();
        let (low, high) = entries.split_at(split.index(entries.len() + 1));
        let union = Patch::from_entries(entries.clone());
        let (low, high) = (
            Arc::new(Patch::from_entries(low.to_vec())),
            Arc::new(Patch::from_entries(high.to_vec())),
        );
        for stack in [[low.clone(), high.clone()], [high, low]] {
            let (merged, elided) = Patch::merge(&stack, |_, _| false);
            prop_assert_eq!(elided, 0);
            prop_assert!(merged.iter().eq(union.iter()));
            prop_assert_eq!(
                (merged.min_seq(), merged.max_seq()),
                (union.min_seq(), union.max_seq())
            );
        }
    }

    /// §3.2: inserts commute — any permutation converges to the same state.
    #[test]
    fn insertion_order_is_irrelevant(
        mut facts in proptest::collection::vec((any::<u8>(), any::<u16>(), 1u64..1000), 1..100),
        seed in any::<u64>(),
    ) {
        // Make seqs unique so the outcome is fully determined.
        for (i, f) in facts.iter_mut().enumerate() {
            f.2 = f.2 * 1000 + i as u64;
        }
        let mut a: Pyramid<u8, u16> = Pyramid::with_thresholds(16, 3);
        for &(k, v, s) in &facts {
            a.insert(k, v, s);
        }
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut shuffled = facts.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let mut b: Pyramid<u8, u16> = Pyramid::with_thresholds(16, 3);
        for &(k, v, s) in &shuffled {
            b.insert(k, v, s);
        }
        b.flatten();
        for k in 0..=255u8 {
            prop_assert_eq!(a.get(&k), b.get(&k), "key {}", k);
        }
    }

    /// Elided facts never surface from get/range, and flatten drops them.
    #[test]
    fn elision_is_complete(
        facts in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..100),
        cutoff in any::<u8>(),
    ) {
        let mut p: Pyramid<u8, u16> = Pyramid::with_thresholds(16, 3);
        for (i, &(k, v)) in facts.iter().enumerate() {
            p.insert(k, v, i as u64 + 1);
        }
        p.set_elide_filter(Arc::new(move |k: &u8, _s: Seq| *k < cutoff));
        p.flatten();
        for k in 0..cutoff {
            prop_assert_eq!(p.get(&k), None);
        }
        for (k, _, _) in p.iter_live() {
            prop_assert!(k >= cutoff);
        }
    }
}
