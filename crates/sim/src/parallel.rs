//! Conservative-lookahead parallel execution substrate.
//!
//! The simulation's unit of concurrency is the *shard*: a resource whose
//! state no other shard touches (a flash die, a drive, a replica link).
//! Work against different shards may run on different worker threads;
//! work within one shard always runs in insertion order on one thread.
//! Results are merged back in **(shard id, insertion order)** — never in
//! completion order — so a same-seed run produces byte-identical output
//! regardless of the thread count. That merge rule, plus the fact that
//! every parallel closure is either pure or confined to its shard, is
//! the whole determinism argument (DESIGN.md §7).
//!
//! How far a shard may run ahead of the others without synchronizing is
//! bounded by the [`SafeHorizon`]: the minimum device latency floor
//! (program/erase minimums) guarantees that no event a shard could emit
//! lands earlier than `earliest_pending + floor`, so every pending event
//! stamped at or before that horizon is safe to execute in parallel.
//! [`ShardedRun`] packages the resulting barrier loop.
//!
//! Thread count is a process-global knob ([`set_threads`], `--threads N`
//! on the bench binaries, `PURITY_THREADS` in the environment). At one
//! thread every primitive degrades to inline execution with zero
//! overhead — the serial engine is literally the parallel engine with a
//! pool of one.

use crate::units::Nanos;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// 0 = not yet resolved; resolved lazily from `PURITY_THREADS` (else 1)
/// on first use.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker count for every subsequent parallel region. Clamped
/// to at least 1. Safe to call at any point, any number of times — the
/// differential harness flips a live process between 1/2/8 threads and
/// asserts byte-identical exports.
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Current worker count (resolving the default on first call).
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            let n = default_threads();
            // Racing initializers compute the same value.
            THREADS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// `PURITY_THREADS` if set and >= 1, else 1: the scorecard measures
/// two workers slower than one on every workload (`sim.t2_wall_ratio`
/// 1.1-4.3), so wider pools are opt-in until a committed ratio drops
/// below 1 (DESIGN.md §7).
fn default_threads() -> usize {
    std::env::var("PURITY_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Runs `f(i, work[i])` for every item and returns results in item
/// order, regardless of which worker ran what or when it finished.
///
/// The scheduling contract: item index = merge position. Workers claim
/// items through an atomic cursor (completion order is arbitrary), but
/// each result lands in its item's slot, so the output is a pure
/// function of the input — never of thread interleaving.
///
/// With one worker (or one item) this is an inline loop: no threads, no
/// locks, no allocation beyond the result vector.
pub fn par_run<W, R, F>(work: Vec<W>, f: F) -> Vec<R>
where
    W: Send,
    R: Send,
    F: Fn(usize, W) -> R + Sync,
{
    let len = work.len();
    let n = threads().min(len);
    if n <= 1 {
        return work.into_iter().enumerate().map(|(i, w)| f(i, w)).collect();
    }
    let slots: Vec<Mutex<Option<W>>> = work.into_iter().map(|w| Mutex::new(Some(w))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let region = std::time::Instant::now();
    let worker = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= len {
            break;
        }
        let w = slots[i].lock().take().expect("each slot claimed once");
        let r = f(i, w);
        *results[i].lock() = Some(r);
    };
    std::thread::scope(|s| {
        for _ in 1..n {
            s.spawn(worker);
        }
        worker();
    });
    // Absorb the region into the caller's open profiling scope as child
    // time: workers attributed their own scoped time to the global plane
    // cells while running, so without this the parent scope would count
    // the same wall nanoseconds a second time.
    purity_obs_note_child(region.elapsed().as_nanos() as u64);
    results
        .into_iter()
        .map(|m| m.into_inner().expect("every slot filled"))
        .collect()
}

/// Hook into the profiler without a dependency cycle: `purity-obs`
/// depends on nothing in-workspace, and `purity-sim` must not depend on
/// it (obs depends on sim's units). The bench/core layers register the
/// profiler's child-time sink at startup; unregistered, it's a no-op.
static CHILD_SINK: AtomicUsize = AtomicUsize::new(0);

/// Registers the function parallel regions report their wall time to
/// (the profiler's "charge my caller's open scope" entry point).
pub fn set_region_sink(f: fn(u64)) {
    CHILD_SINK.store(f as usize, Ordering::Relaxed);
}

fn purity_obs_note_child(ns: u64) {
    let p = CHILD_SINK.load(Ordering::Relaxed);
    if p != 0 {
        // SAFETY: the only writer is set_region_sink, which stores a
        // valid fn(u64) pointer; fn pointers are never deallocated.
        let f: fn(u64) = unsafe { std::mem::transmute::<usize, fn(u64)>(p) };
        f(ns);
    }
}

/// Runs `f(i, &work[i])` in parallel, returning results in item order.
pub fn par_map<T, R, F>(work: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_run(work.iter().collect(), f)
}

/// Splits `slice` into disjoint `&mut` references at strictly-increasing
/// indices — the safe scatter that lets shard groups (per-die op
/// batches) borrow their dies mutably and independently.
///
/// Panics if `idxs` is not strictly increasing or indexes out of bounds.
pub fn disjoint_muts<'a, S>(mut slice: &'a mut [S], idxs: &[usize]) -> Vec<&'a mut S> {
    let mut out = Vec::with_capacity(idxs.len());
    let mut base = 0usize;
    for &i in idxs {
        assert!(i >= base, "indices must be strictly increasing");
        let (head, tail) = slice.split_at_mut(i - base + 1);
        out.push(&mut head[i - base]);
        slice = tail;
        base = i + 1;
    }
    out
}

/// The conservative lookahead bound: the minimum latency floor across
/// every device class in play. A shard holding an event stamped `t` may
/// execute it without synchronizing as long as `t` is at or before
/// `earliest_pending + floor`, because no shard can emit a new event
/// earlier than that — every device operation takes at least the floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafeHorizon {
    floor: Nanos,
}

impl SafeHorizon {
    /// A horizon with an explicit floor.
    pub fn new(floor: Nanos) -> Self {
        Self { floor }
    }

    /// The conservative bound over several device latency floors: the
    /// minimum (an empty set gives floor 0 — no lookahead, every event
    /// needs a barrier, still correct).
    pub fn from_floors<I: IntoIterator<Item = Nanos>>(floors: I) -> Self {
        Self {
            floor: floors.into_iter().min().unwrap_or(0),
        }
    }

    /// The lookahead window length.
    pub fn floor(&self) -> Nanos {
        self.floor
    }

    /// Events stamped at or before this are safe to run unsynchronized
    /// when the earliest pending event anywhere is `earliest_pending`.
    pub fn horizon(&self, earliest_pending: Nanos) -> Nanos {
        earliest_pending.saturating_add(self.floor)
    }
}

/// A batch of timestamped events sharded by resource, executed in
/// conservative rounds: each round releases every event at or before
/// the current safe horizon, runs the released per-shard prefixes in
/// parallel (in-shard order preserved), merges results by (shard id,
/// insertion order), then re-derives the horizon at the barrier.
///
/// Timestamps within one shard must be non-decreasing (they are issue
/// times on one resource's timeline).
#[derive(Debug)]
pub struct ShardedRun<E> {
    shards: Vec<VecDeque<(Nanos, E)>>,
}

impl<E: Send> ShardedRun<E> {
    /// Creates a run with `n` empty shards.
    pub fn new(n: usize) -> Self {
        Self {
            shards: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Appends an event to a shard. Panics if it would go backwards in
    /// time within the shard.
    pub fn push(&mut self, shard: usize, at: Nanos, event: E) {
        let q = &mut self.shards[shard];
        if let Some(&(last, _)) = q.back() {
            assert!(at >= last, "per-shard timestamps must be non-decreasing");
        }
        q.push_back((at, event));
    }

    /// Total queued events.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Executes every event. `f(shard, at, event)` runs with in-shard
    /// order preserved; the returned vector is in deterministic merge
    /// order — by round, then shard id, then insertion order — and is
    /// identical for any thread count or worker completion order.
    pub fn run<R, F>(mut self, horizon: SafeHorizon, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Nanos, E) -> R + Sync,
    {
        let mut out = Vec::with_capacity(self.len());
        while let Some(earliest) = self
            .shards
            .iter()
            .filter_map(|s| s.front().map(|&(t, _)| t))
            .min()
        {
            let h = horizon.horizon(earliest);
            // Release each shard's prefix of events stamped <= horizon.
            let mut released: Vec<(usize, Vec<(Nanos, E)>)> = Vec::new();
            for (id, q) in self.shards.iter_mut().enumerate() {
                let mut batch = Vec::new();
                while q.front().map(|&(t, _)| t <= h).unwrap_or(false) {
                    batch.push(q.pop_front().expect("front checked"));
                }
                if !batch.is_empty() {
                    released.push((id, batch));
                }
            }
            debug_assert!(!released.is_empty(), "horizon must release progress");
            // Parallel across shards; serial (insertion order) within.
            let round = par_run(released, |_, (id, batch)| {
                batch
                    .into_iter()
                    .map(|(t, e)| f(id, t, e))
                    .collect::<Vec<R>>()
            });
            // Barrier + deterministic merge: par_run already returns in
            // shard-id order because `released` was built in shard order.
            for shard_results in round {
                out.extend(shard_results);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_run_preserves_order_at_any_thread_count() {
        let work: Vec<u64> = (0..100).collect();
        for n in [1usize, 2, 8] {
            set_threads(n);
            let out = par_run(work.clone(), |i, w| (i as u64) * 1000 + w * 3);
            let expect: Vec<u64> = (0..100).map(|i| i * 1000 + i * 3).collect();
            assert_eq!(out, expect, "threads={n}");
        }
        set_threads(1);
    }

    #[test]
    fn par_run_runs_every_item_exactly_once() {
        set_threads(4);
        let count = AtomicU64::new(0);
        let out = par_run((0..257).collect::<Vec<i32>>(), |_, w| {
            count.fetch_add(1, Ordering::Relaxed);
            w
        });
        assert_eq!(out.len(), 257);
        assert_eq!(count.load(Ordering::Relaxed), 257);
        set_threads(1);
    }

    #[test]
    fn disjoint_muts_scatters_without_overlap() {
        let mut v = vec![0u32; 10];
        let refs = disjoint_muts(&mut v, &[1, 4, 9]);
        assert_eq!(refs.len(), 3);
        for (k, r) in refs.into_iter().enumerate() {
            *r = k as u32 + 1;
        }
        assert_eq!(v, [0, 1, 0, 0, 2, 0, 0, 0, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn disjoint_muts_rejects_unsorted() {
        let mut v = vec![0u32; 4];
        disjoint_muts(&mut v, &[2, 1]);
    }

    #[test]
    fn safe_horizon_is_min_floor() {
        let h = SafeHorizon::from_floors([200, 50, 900]);
        assert_eq!(h.floor(), 50);
        assert_eq!(h.horizon(1_000), 1_050);
        assert_eq!(SafeHorizon::from_floors([]).floor(), 0);
    }

    #[test]
    fn sharded_run_merges_by_shard_then_insertion() {
        for n in [1usize, 2, 8] {
            set_threads(n);
            let mut run = ShardedRun::new(3);
            run.push(2, 0, "c0");
            run.push(0, 0, "a0");
            run.push(0, 5, "a1");
            run.push(1, 3, "b0");
            let out = run.run(SafeHorizon::new(1_000_000), |s, t, e| (s, t, e));
            assert_eq!(
                out,
                vec![(0, 0, "a0"), (0, 5, "a1"), (1, 3, "b0"), (2, 0, "c0")],
                "threads={n}"
            );
        }
        set_threads(1);
    }

    #[test]
    fn sharded_run_respects_horizon_rounds() {
        set_threads(2);
        // Floor 10: events at t=0..=10 release in round 1; t=100 waits.
        let mut run = ShardedRun::new(2);
        run.push(0, 0, ());
        run.push(0, 100, ());
        run.push(1, 10, ());
        let rounds = Mutex::new(Vec::new());
        run.run(SafeHorizon::new(10), |s, t, _| {
            rounds.lock().push((s, t));
        });
        let seen = rounds.into_inner();
        // t=100 must come after the barrier (it is last in merge order
        // and executes in a later round than both early events).
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[2], (0, 100));
        set_threads(1);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn sharded_run_rejects_time_travel_within_shard() {
        let mut run = ShardedRun::new(1);
        run.push(0, 10, ());
        run.push(0, 5, ());
    }
}
