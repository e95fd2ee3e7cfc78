//! Per-resource busy-time tracking.

use crate::units::Nanos;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Tracks when a serially-shared resource (a flash die, a bus, a disk arm)
/// is busy, so operations issued while it is busy queue behind it.
///
/// Bookings are *intervals*: work scheduled for a future slot (e.g. a
/// paced segment flush) occupies only its slot, and an operation issued
/// earlier runs in the idle gap before it. This is the piece that
/// reproduces the paper's central hardware quirk: a read issued to a die
/// that is mid-erase waits for the erase (§2.1 "while an SSD is erasing a
/// block, it cannot read data from physically-related blocks, leading to
/// read latency spikes") — but a die that is merely *scheduled* to erase
/// later is still readable now.
#[derive(Debug, Default)]
pub struct Timeline {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Sorted, non-overlapping busy intervals.
    bookings: VecDeque<(Nanos, Nanos)>,
    /// Everything before this has been pruned; treat as busy
    /// (conservative: callers only query at/after current time).
    pruned_floor: Nanos,
}

/// The scheduled interval returned by [`Timeline::reserve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the operation actually starts (>= issue time).
    pub start: Nanos,
    /// When the operation completes and the resource frees up.
    pub end: Nanos,
}

impl Reservation {
    /// Total latency observed by the issuer, including queueing delay.
    pub fn latency(&self, issued_at: Nanos) -> Nanos {
        self.end.saturating_sub(issued_at)
    }

    /// Time spent waiting for the resource: `start - issued_at`. Zero when
    /// the resource was idle at issue. This is the observability split the
    /// paper's tail analysis needs — a sample is slow either because the
    /// device was busy (queueing) or because the op itself was long
    /// (service).
    pub fn queueing(&self, issued_at: Nanos) -> Nanos {
        self.start.saturating_sub(issued_at)
    }

    /// Time the resource actually spent on the op: `end - start`.
    pub fn service(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }
}

impl Inner {
    /// The earliest gap of `duration` starting at or after `now`, and the
    /// index a booking for it would be inserted at. Bookings that ended
    /// by `now` never match, so pruning them first changes nothing.
    ///
    /// NOTE the contract: reservations are guaranteed non-overlapping
    /// for issue times at or after the largest already-pruned booking.
    /// An issuer lagging behind (a read arriving while a future paced
    /// flush has already pruned history past it) may overlap intervals
    /// that were pruned as complete — a bounded accounting
    /// approximation, preferred over pushing present readers behind
    /// future work.
    #[inline]
    fn earliest_gap(&self, now: Nanos, duration: Nanos) -> (usize, Reservation) {
        let mut candidate = now;
        let mut insert_at = self.bookings.len();
        for (i, &(s, e)) in self.bookings.iter().enumerate() {
            if candidate + duration <= s {
                insert_at = i;
                break;
            }
            candidate = candidate.max(e);
        }
        (
            insert_at,
            Reservation {
                start: candidate,
                end: candidate + duration,
            },
        )
    }
}

impl Timeline {
    /// Creates an idle timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The reservation [`Timeline::reserve`] would make for the same
    /// arguments, without making it: nothing is booked and nothing is
    /// pruned. What a planner asks before it commits to a resource.
    pub fn probe(&self, now: Nanos, duration: Nanos) -> Reservation {
        self.inner.lock().earliest_gap(now, duration).1
    }

    /// Schedules an operation of length `duration` issued at time `now`:
    /// it runs in the earliest idle gap at or after `now` that fits.
    pub fn reserve(&self, now: Nanos, duration: Nanos) -> Reservation {
        let mut inner = self.inner.lock();
        // Drop bookings fully in the past (nothing can be scheduled
        // before `now` anyway); remember how far we pruned.
        while let Some(&(_, e)) = inner.bookings.front() {
            if e <= now {
                inner.pruned_floor = inner.pruned_floor.max(e);
                inner.bookings.pop_front();
            } else {
                break;
            }
        }
        let (insert_at, Reservation { start, end }) = inner.earliest_gap(now, duration);
        // Insert, merging with exactly-adjacent neighbours so back-to-
        // back chains stay O(1) in memory.
        let merge_prev = insert_at > 0 && inner.bookings[insert_at - 1].1 == start;
        let merge_next = insert_at < inner.bookings.len() && inner.bookings[insert_at].0 == end;
        match (merge_prev, merge_next) {
            (true, true) => {
                let next_end = inner.bookings.remove(insert_at).expect("index checked").1;
                inner.bookings[insert_at - 1].1 = next_end;
            }
            (true, false) => inner.bookings[insert_at - 1].1 = end,
            (false, true) => inner.bookings[insert_at].0 = start,
            (false, false) => inner.bookings.insert(insert_at, (start, end)),
        }
        Reservation { start, end }
    }

    /// True if the resource is busy at `now`. Only meaningful for times
    /// at or after the most recent `reserve` issue time; older history
    /// may be pruned and reports busy conservatively.
    pub fn busy_at(&self, now: Nanos) -> bool {
        let inner = self.inner.lock();
        now < inner.pruned_floor || inner.bookings.iter().any(|&(s, e)| s <= now && now < e)
    }

    /// The end of the last booking (0 when idle).
    pub fn free_at(&self) -> Nanos {
        let inner = self.inner.lock();
        inner
            .bookings
            .back()
            .map(|&(_, e)| e)
            .unwrap_or(inner.pruned_floor)
    }

    /// Marks the resource busy through `t` (used for background work
    /// like device-internal GC): extends the final booking.
    pub fn occupy_until(&self, t: Nanos) {
        let mut inner = self.inner.lock();
        match inner.bookings.back_mut() {
            Some(last) if last.1 >= t => {}
            Some(last) => last.1 = t,
            None => {
                let floor = inner.pruned_floor;
                if t > floor {
                    inner.bookings.push_back((floor, t));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let t = Timeline::new();
        let r = t.reserve(100, 50);
        assert_eq!(
            r,
            Reservation {
                start: 100,
                end: 150
            }
        );
        assert_eq!(r.latency(100), 50);
    }

    #[test]
    fn busy_resource_queues() {
        let t = Timeline::new();
        t.reserve(0, 1_000);
        // Issued at t=100 while busy until t=1000: waits 900ns.
        let r = t.reserve(100, 50);
        assert_eq!(r.start, 1_000);
        assert_eq!(r.latency(100), 950);
        // latency decomposes exactly into queueing + service.
        assert_eq!(r.queueing(100), 900);
        assert_eq!(r.service(), 50);
        assert_eq!(r.queueing(100) + r.service(), r.latency(100));
    }

    #[test]
    fn idle_resource_has_zero_queueing() {
        let t = Timeline::new();
        let r = t.reserve(500, 70);
        assert_eq!(r.queueing(500), 0);
        assert_eq!(r.service(), 70);
    }

    #[test]
    fn small_ops_fit_in_gaps_before_future_bookings() {
        let t = Timeline::new();
        // Book future work at t=10ms for 5ms (a paced flush slot).
        let future = t.reserve(10_000_000, 5_000_000);
        assert_eq!(future.start, 10_000_000);
        // A read issued now runs immediately in the gap.
        let r = t.reserve(0, 100_000);
        assert_eq!(r.start, 0, "idle gap before the future slot must be usable");
        // A read too big for the gap waits until after the future work.
        let big = t.reserve(9_950_000, 10_000_000);
        assert!(big.start >= 15_000_000);
    }

    #[test]
    fn busy_at_reflects_intervals_not_horizon() {
        let t = Timeline::new();
        t.reserve(1_000_000, 500_000);
        assert!(!t.busy_at(0), "not busy before the booking");
        assert!(t.busy_at(1_200_000));
        assert!(!t.busy_at(1_600_000));
        assert_eq!(t.free_at(), 1_500_000);
    }

    #[test]
    fn occupy_until_only_extends() {
        let t = Timeline::new();
        t.occupy_until(300);
        assert_eq!(t.free_at(), 300);
        t.occupy_until(200);
        assert_eq!(t.free_at(), 300);
    }

    #[test]
    fn latency_saturates_for_past_issue_times() {
        let r = Reservation { start: 0, end: 10 };
        assert_eq!(r.latency(50), 0);
    }

    #[test]
    fn back_to_back_reservations_chain() {
        let t = Timeline::new();
        let mut end = 0;
        for _ in 0..100 {
            let r = t.reserve(0, 10_000);
            assert!(r.start >= end);
            end = r.end;
        }
        assert_eq!(end, 1_000_000);
    }

    #[test]
    fn coalescing_bounds_memory() {
        let t = Timeline::new();
        for i in 0..10_000u64 {
            t.reserve(i, 10);
        }
        // All back-to-back: one booking.
        assert!(t.inner.lock().bookings.len() <= 2);
    }

    #[test]
    fn past_bookings_are_pruned() {
        let t = Timeline::new();
        for i in 0..100u64 {
            t.reserve(i * 1_000_000, 10);
        }
        t.reserve(1_000_000_000, 10);
        assert!(
            t.inner.lock().bookings.len() < 5,
            "old intervals pruned on reserve"
        );
        // Pruned history reports busy conservatively.
        assert!(t.busy_at(5));
    }
}
