//! The exactly-once ack audit, shared between the host engine and the
//! torture campaigns.
//!
//! The contract every front end must keep (Purity §4.8: an ack means
//! the write is durable): each issued request is acknowledged to the
//! application **exactly once** — a failover may delay an ack or force
//! a retry, but it may neither drop the ack forever nor deliver it
//! twice. The host engine audited this inline per-request; the cluster
//! plane needs the same audit across N arrays, so the bookkeeping
//! lives here and both layers feed it.
//!
//! Ids are caller-chosen `u64`s (the host engine uses its request
//! index; the cluster campaign uses cluster-wide op ids). All
//! iteration is `BTreeMap`-ordered so violation lists are
//! deterministic.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    acks: u32,
    failed: bool,
}

/// Summary counters of one audited run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AckAuditReport {
    /// Requests registered.
    pub issued: u64,
    /// Acks delivered to the application (duplicates included).
    pub acks_delivered: u64,
    /// Acks beyond the first for some request.
    pub duplicate_acks: u64,
    /// Requests that permanently failed (reported to the application
    /// as errors — allowed, as long as no ack was also delivered).
    pub failed_ops: u64,
    /// Requests that neither completed nor failed: their ack was lost.
    pub stranded_ops: u64,
}

impl AckAuditReport {
    /// Whether the run upheld exactly-once delivery.
    pub fn clean(&self) -> bool {
        self.duplicate_acks == 0 && self.stranded_ops == 0
    }
}

/// Tracks ack delivery per request id.
#[derive(Debug, Default)]
pub struct AckAudit {
    entries: BTreeMap<u64, Entry>,
    delivered: u64,
    duplicates: u64,
}

impl AckAudit {
    /// Fresh audit with nothing registered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an issued request. Ids must be unique per run.
    pub fn register(&mut self, id: u64) {
        let prior = self.entries.insert(id, Entry::default());
        assert!(prior.is_none(), "request id {id} registered twice");
    }

    /// Records one ack delivered for `id`; returns the ack count after
    /// (so `> 1` means this very ack was a duplicate). Acking an
    /// unregistered id is itself a protocol bug and panics.
    pub fn ack(&mut self, id: u64) -> u32 {
        let e = self
            .entries
            .get_mut(&id)
            .unwrap_or_else(|| panic!("ack for unregistered request {id}"));
        e.acks += 1;
        self.delivered += 1;
        if e.acks > 1 {
            self.duplicates += 1;
        }
        e.acks
    }

    /// Records that `id` permanently failed (application saw an error).
    pub fn fail(&mut self, id: u64) {
        let e = self
            .entries
            .get_mut(&id)
            .unwrap_or_else(|| panic!("failure for unregistered request {id}"));
        e.failed = true;
    }

    /// Acks delivered so far (duplicates included).
    pub fn acks_delivered(&self) -> u64 {
        self.delivered
    }

    /// Duplicate acks observed so far.
    pub fn duplicate_acks(&self) -> u64 {
        self.duplicates
    }

    /// Closes the audit: every registered request must by now have been
    /// acked or failed; anything else is stranded.
    pub fn report(&self) -> AckAuditReport {
        let mut r = AckAuditReport {
            issued: self.entries.len() as u64,
            acks_delivered: self.delivered,
            duplicate_acks: self.duplicates,
            ..Default::default()
        };
        for e in self.entries.values() {
            if e.failed {
                r.failed_ops += 1;
            } else if e.acks == 0 {
                r.stranded_ops += 1;
            }
        }
        r
    }

    /// Human-readable violations, ascending by request id — the shape
    /// the torture oracles collect. Empty on a clean run.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (&id, e) in &self.entries {
            if e.acks > 1 {
                out.push(format!("request {id}: acked {} times", e.acks));
            }
            if e.acks > 0 && e.failed {
                out.push(format!("request {id}: both acked and failed"));
            }
            if e.acks == 0 && !e.failed {
                out.push(format!("request {id}: ack lost (stranded)"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_reports_clean() {
        let mut a = AckAudit::new();
        for id in 0..10 {
            a.register(id);
        }
        for id in 0..9 {
            a.ack(id);
        }
        a.fail(9);
        let r = a.report();
        assert!(r.clean());
        assert_eq!(r.issued, 10);
        assert_eq!(r.acks_delivered, 9);
        assert_eq!(r.failed_ops, 1);
        assert!(a.violations().is_empty());
    }

    #[test]
    fn duplicates_and_strands_are_flagged() {
        let mut a = AckAudit::new();
        a.register(1);
        a.register(2);
        a.register(3);
        assert_eq!(a.ack(1), 1);
        assert_eq!(a.ack(1), 2, "second ack must report as duplicate");
        a.ack(2);
        // 3 never acked, never failed -> stranded.
        let r = a.report();
        assert!(!r.clean());
        assert_eq!(r.duplicate_acks, 1);
        assert_eq!(r.stranded_ops, 1);
        let v = a.violations();
        assert_eq!(v.len(), 2);
        assert!(v[0].contains("request 1"));
        assert!(v[1].contains("request 3"));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let mut a = AckAudit::new();
        a.register(7);
        a.register(7);
    }
}
