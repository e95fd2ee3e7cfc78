//! Property tests for the host dispatch queue: requests leave in
//! (arrival, admission) order, each exactly once, and a request pushed
//! back after a failed attempt keeps its arrival's place.

use proptest::prelude::*;
use purity_host::DispatchQueue;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pushes `first`, pops a prefix of it and pushes back the pops that
    /// `retry` marks (a retry keeps its arrival), pushes `later`, then
    /// drains. Every pop is in (arrival, latest admission) order, every
    /// request is dispatched exactly once, and a retried request leaves
    /// ahead of every request that arrived after it.
    #[test]
    fn fifo_by_arrival_then_admission(
        first in proptest::collection::vec(0u64..50, 1..80),
        popped in 0usize..80,
        retry in proptest::collection::vec(any::<bool>(), 80),
        later in proptest::collection::vec(0u64..100, 0..80),
    ) {
        let mut q = DispatchQueue::default();
        // Request id -> (arrival, admission seq of its latest push).
        let mut key: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0;
        for &arrival in &first {
            q.push(key.len() as u64, arrival);
            key.push((arrival, seq));
            seq += 1;
        }
        let mut done = Vec::new();
        let mut retried = Vec::new();
        let mut last = None;
        for &again in retry.iter().take(popped.min(first.len())) {
            let req = q.pop().expect("queue holds every unpopped request");
            prop_assert!(last < Some(key[req as usize]), "pop out of order");
            last = Some(key[req as usize]);
            if again { retried.push(req) } else { done.push(req) }
        }
        for &req in &retried {
            q.push(req, key[req as usize].0);
            key[req as usize].1 = seq;
            seq += 1;
        }
        for &arrival in &later {
            q.push(key.len() as u64, arrival);
            key.push((arrival, seq));
            seq += 1;
        }
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert!(q.is_empty());
        for pair in rest.windows(2) {
            prop_assert!(
                key[pair[0] as usize] < key[pair[1] as usize],
                "dispatch order violated (arrival, admission): {:?} then {:?}",
                key[pair[0] as usize], key[pair[1] as usize]
            );
        }
        let mut seen: Vec<u64> = done.iter().chain(&rest).copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..key.len() as u64).collect::<Vec<_>>(), "each exactly once");
        for &r in &retried {
            let at = rest.iter().position(|&x| x == r).expect("retry dispatched");
            prop_assert!(
                rest[..at].iter().all(|&x| key[x as usize].0 <= key[r as usize].0),
                "request {} overtaken by a later arrival", r
            );
        }
    }

    /// Every request carries the one latency budget, so earliest-
    /// deadline-first over `arrival + budget` is arrival order. With
    /// every request queued before the first pop, dispatch order is
    /// nondecreasing in (deadline, push seq): EDF overall, FIFO within
    /// equal deadlines.
    #[test]
    fn edf_with_fifo_ties(
        arrivals in proptest::collection::vec(0u64..1_000, 2..150),
        budget in 0u64..10_000_000,
    ) {
        let mut q = DispatchQueue::default();
        for (i, &arrival) in arrivals.iter().enumerate() {
            q.push(i as u64, arrival);
        }
        let dispatched: Vec<u64> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(dispatched.len(), arrivals.len());
        let key = |req: u64| (arrivals[req as usize] + budget, req);
        for pair in dispatched.windows(2) {
            prop_assert!(
                key(pair[0]) < key(pair[1]),
                "dispatch order violated EDF/FIFO: {:?} then {:?}",
                key(pair[0]), key(pair[1])
            );
        }
    }

    /// No request is dispatched twice and every request leaves once,
    /// under the engine's combined queue operations: admissions, pops,
    /// requeues after a failed attempt, and removals when coalescing
    /// absorbs a queued neighbour. A removed request leaves by removal
    /// and is never popped.
    #[test]
    fn exactly_once_under_combined_caps(
        ops in proptest::collection::vec((0u8..4, 0u64..20_000), 1..200),
    ) {
        let mut q = DispatchQueue::default();
        let mut arrival_of: Vec<u64> = Vec::new();
        let mut in_flight: Vec<u64> = Vec::new();
        let mut left = std::collections::HashSet::new();
        for &(op, x) in &ops {
            match op {
                0 => {
                    q.push(arrival_of.len() as u64, x);
                    arrival_of.push(x);
                }
                1 => {
                    if let Some(req) = q.pop() {
                        in_flight.push(req);
                    }
                }
                2 => {
                    if !in_flight.is_empty() {
                        let req = in_flight.swap_remove(x as usize % in_flight.len());
                        q.push(req, arrival_of[req as usize]);
                    }
                }
                _ => {
                    let queued: Vec<u64> = q.iter().collect();
                    if !queued.is_empty() {
                        let req = queued[x as usize % queued.len()];
                        prop_assert!(q.remove(req));
                        prop_assert!(!q.remove(req), "request {} removed twice", req);
                        prop_assert!(left.insert(req), "request {} left twice", req);
                    }
                }
            }
            prop_assert_eq!(q.len(), q.iter().count());
        }
        for req in in_flight.into_iter().chain(std::iter::from_fn(|| q.pop())) {
            prop_assert!(left.insert(req), "request {} dispatched twice", req);
        }
        prop_assert_eq!(left.len(), arrival_of.len(), "every request leaves once");
    }
}
