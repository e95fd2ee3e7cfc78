//! Property tests: Timeline bookings never overlap, reservations start
//! no earlier than their issue time, scheduling is FIFO within a
//! resource, gap-filling respects future bookings, and LatencyHistogram
//! merge/quantile behave like the union population.

use proptest::prelude::*;
use purity_sim::{LatencyHistogram, Timeline};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reservations_never_overlap(mut reqs in proptest::collection::vec((0u64..1_000_000, 1u64..50_000), 1..200)) {
        // The non-overlap guarantee is for monotonic issue times (see the
        // Timeline contract); sort the issue schedule accordingly.
        reqs.sort_by_key(|&(now, _)| now);
        let t = Timeline::new();
        let mut granted: Vec<(u64, u64)> = Vec::new();
        for (now, dur) in reqs {
            let r = t.reserve(now, dur);
            prop_assert!(r.start >= now, "started before issue");
            prop_assert_eq!(r.end - r.start, dur);
            for &(s, e) in &granted {
                prop_assert!(r.end <= s || r.start >= e, "overlap: ({},{}) vs ({},{})", r.start, r.end, s, e);
            }
            granted.push((r.start, r.end));
        }
    }

    #[test]
    fn probe_is_the_reservation_reserve_then_makes(
        history in proptest::collection::vec((0u64..1_000_000, 1u64..50_000), 0..100),
        asks in proptest::collection::vec((0u64..1_100_000, 1u64..50_000), 1..20),
    ) {
        // Any booking history, issue times in any order (paced work books
        // future slots, so readers do lag): the estimate is the booking,
        // and asking twice changes nothing.
        let t = Timeline::new();
        for (now, dur) in history {
            t.reserve(now, dur);
        }
        for (now, dur) in asks {
            let estimate = t.probe(now, dur);
            prop_assert_eq!(t.probe(now, dur), estimate, "a probe must not book or prune");
            prop_assert_eq!(t.reserve(now, dur), estimate);
        }
    }

    #[test]
    fn busy_at_is_consistent_with_grants(reqs in proptest::collection::vec((0u64..100_000, 1u64..5_000), 1..50), probe in 0u64..110_000) {
        let t = Timeline::new();
        let mut granted: Vec<(u64, u64)> = Vec::new();
        for (now, dur) in reqs {
            let r = t.reserve(now, dur);
            granted.push((r.start, r.end));
        }
        let covered = granted.iter().any(|&(s, e)| s <= probe && probe < e);
        // busy_at must never report idle where a booking exists (pruned
        // history is conservatively busy, so covered => busy always).
        if covered {
            prop_assert!(t.busy_at(probe));
        }
    }

    #[test]
    fn fifo_within_a_resource(mut reqs in proptest::collection::vec((0u64..1_000_000, 1u64..50_000), 2..200)) {
        // For monotonic issue times a resource serves strictly in issue
        // order: starts never regress, and the latency split
        // queueing + service == latency holds per grant.
        reqs.sort_by_key(|&(now, _)| now);
        let t = Timeline::new();
        let mut last_start = 0u64;
        for (now, dur) in reqs {
            let r = t.reserve(now, dur);
            prop_assert!(r.start >= last_start, "FIFO violated: start {} after {}", r.start, last_start);
            prop_assert_eq!(r.queueing(now) + r.service(), r.latency(now));
            prop_assert_eq!(r.service(), dur);
            last_start = r.start;
        }
    }

    #[test]
    fn gap_filling_respects_future_bookings(
        future_start in 500_000u64..1_000_000,
        future_dur in 100_000u64..500_000,
        mut fillers in proptest::collection::vec((0u64..400_000, 1u64..30_000), 1..50),
    ) {
        // One future slot (a paced segment flush) is booked first; small
        // ops issued earlier must fill the idle gap before it without
        // ever overlapping it, and whenever an op fits entirely before
        // the slot it must not be pushed behind it.
        let t = Timeline::new();
        let future = t.reserve(future_start, future_dur);
        prop_assert_eq!(future.start, future_start);
        fillers.sort_by_key(|&(now, _)| now);
        let mut granted: Vec<(u64, u64)> = vec![(future.start, future.end)];
        for (now, dur) in fillers {
            let r = t.reserve(now, dur);
            for &(s, e) in &granted {
                prop_assert!(r.end <= s || r.start >= e,
                    "overlap with booking: ({},{}) vs ({},{})", r.start, r.end, s, e);
            }
            // If the gap before the future slot fits this op at its issue
            // time, the op must use the gap, not queue behind the future.
            let gap_fits = granted
                .iter()
                .filter(|&&(s, _)| s < future.start)
                .map(|&(_, e)| e)
                .max()
                .unwrap_or(0)
                .max(now)
                + dur
                <= future.start;
            if gap_fits {
                prop_assert!(r.end <= future.start,
                    "op ({},{}) needlessly queued behind future slot at {}", r.start, r.end, future.start);
            }
            granted.push((r.start, r.end));
            granted.sort_unstable();
        }
    }

    #[test]
    fn histogram_merge_equals_union(
        xs in proptest::collection::vec(0u64..10_000_000, 1..300),
        ys in proptest::collection::vec(0u64..10_000_000, 1..300),
    ) {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut union = LatencyHistogram::new();
        for &x in &xs { a.record(x); union.record(x); }
        for &y in &ys { b.record(y); union.record(y); }
        a.merge(&b);
        prop_assert_eq!(a.count(), union.count());
        prop_assert_eq!(a.mean(), union.mean());
        prop_assert_eq!(a.min(), union.min());
        prop_assert_eq!(a.max(), union.max());
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
            prop_assert_eq!(a.quantile(q), union.quantile(q), "q={}", q);
        }
    }

    #[test]
    fn histogram_quantiles_are_monotonic(
        xs in proptest::collection::vec(0u64..100_000_000, 1..500),
        qa in 0u32..=1000,
        qb in 0u32..=1000,
    ) {
        let mut h = LatencyHistogram::new();
        for &x in &xs { h.record(x); }
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(
            h.quantile(lo as f64 / 1000.0) <= h.quantile(hi as f64 / 1000.0),
            "quantile({}) > quantile({})", lo, hi
        );
        // Quantiles are bracketed by the recorded extremes.
        prop_assert!(h.quantile(0.0) >= h.min());
        prop_assert!(h.quantile(1.0) <= h.max());
    }
}
