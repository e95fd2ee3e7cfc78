//! The host's dispatch queue: first come, first served.
//!
//! Every request the engine admits carries the same latency budget, so
//! an earliest-deadline-first order over `arrival + budget` is arrival
//! order, and the queue keeps only that: requests leave in `(arrival,
//! admission seq)` order. A request put back after a failed attempt or
//! a QFULL keeps its arrival time, so it takes its arrival's place
//! ahead of everything that arrived after it. This is the FCFS queue
//! the analytic queueing checks model.

use purity_sim::Nanos;
use std::collections::BTreeMap;

/// Arrival-ordered dispatch queue of engine request ids.
#[derive(Debug, Default)]
pub struct DispatchQueue {
    /// (arrival, admission seq) → request id. BTreeMap iteration order
    /// *is* dispatch order: earliest arrival first, admission order
    /// within equal arrivals.
    queue: BTreeMap<(Nanos, u64), u64>,
    seq: u64,
}

impl DispatchQueue {
    /// Queued requests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Admits request `req` that arrived at `arrival`. A request pushed
    /// again after a failed attempt passes its original arrival.
    pub fn push(&mut self, req: u64, arrival: Nanos) {
        self.queue.insert((arrival, self.seq), req);
        self.seq += 1;
    }

    /// Takes the earliest-arrived request.
    pub fn pop(&mut self) -> Option<u64> {
        self.queue.pop_first().map(|(_, req)| req)
    }

    /// Removes a specific queued request (used when coalescing absorbs
    /// a neighbour). Returns whether it was queued.
    pub fn remove(&mut self, req: u64) -> bool {
        let key = self.queue.iter().find(|&(_, &r)| r == req).map(|(&k, _)| k);
        key.and_then(|k| self.queue.remove(&k)).is_some()
    }

    /// Queued request ids in dispatch order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.queue.values().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_order_with_admission_ties() {
        let mut q = DispatchQueue::default();
        q.push(1, 100);
        q.push(2, 50);
        q.push(3, 50); // ties with req 2, admitted later
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn remove_extracts_by_request_id() {
        let mut q = DispatchQueue::default();
        q.push(7, 0);
        q.push(8, 1);
        assert!(q.remove(7));
        assert!(!q.remove(7));
        assert_eq!(q.len(), 1);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![8]);
    }
}
