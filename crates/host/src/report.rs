//! Run results and metric publication.

use crate::multipath::PathId;
use purity_obs::json::JsonWriter;
use purity_obs::{HistogramSummary, MetricsRegistry};
use purity_sim::{LatencyHistogram, Nanos, SEC};

/// Everything one engine run observed, host-side: end-to-end latency
/// (arrival → ack, which is what an application feels), the
/// queueing/service split, and the retry/failover audit trail.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// Requests acknowledged.
    pub ops: u64,
    /// Reads acknowledged.
    pub reads: u64,
    /// Writes acknowledged.
    pub writes: u64,
    /// Logical bytes moved.
    pub bytes: u64,
    /// First arrival to last ack, virtual time.
    pub elapsed: Nanos,
    /// End-to-end read latency (arrival → ack).
    pub e2e_read: LatencyHistogram,
    /// End-to-end write latency (arrival → ack).
    pub e2e_write: LatencyHistogram,
    /// Host-side queueing: arrival → first dispatch.
    pub queue_wait: LatencyHistogram,
    /// Dispatch → ack of the final (successful) attempt.
    pub service: LatencyHistogram,
    /// End-to-end latency per initiator.
    pub per_initiator_e2e: Vec<LatencyHistogram>,
    /// Ops resubmitted after a host timeout.
    pub retries: u64,
    /// Host I/O timeouts observed.
    pub timeouts: u64,
    /// Acks the array reported lost to controller failover.
    pub acks_lost: u64,
    /// Acks delivered to the application (audit: one per request).
    pub acks_delivered: u64,
    /// Requests acked more than once (audit: must be 0).
    pub duplicate_acks: u64,
    /// Requests left neither completed nor failed (audit: must be 0).
    pub stranded_ops: u64,
    /// Writes absorbed into a neighbour's coalesced dispatch.
    pub coalesced_writes: u64,
    /// Arrivals deferred by the admission bound.
    pub qfull: u64,
    /// Array-rejected dispatch attempts.
    pub dispatch_errors: u64,
    /// Requests that exhausted their retry budget.
    pub failed_ops: u64,
    /// Controller failovers the host lived through.
    pub failovers_observed: u64,
    /// Dispatches down the optimized path (A / primary ports).
    pub path_a_dispatched: u64,
    /// Dispatches down the non-optimized path (B / standby ports).
    pub path_b_dispatched: u64,
    /// Timeouts charged to path A.
    pub path_a_timeouts: u64,
    /// Timeouts charged to path B.
    pub path_b_timeouts: u64,
}

impl HostReport {
    /// An empty report for `initiators` initiators.
    pub fn new(initiators: usize) -> Self {
        Self {
            ops: 0,
            reads: 0,
            writes: 0,
            bytes: 0,
            elapsed: 0,
            e2e_read: LatencyHistogram::new(),
            e2e_write: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            service: LatencyHistogram::new(),
            per_initiator_e2e: vec![LatencyHistogram::new(); initiators],
            retries: 0,
            timeouts: 0,
            acks_lost: 0,
            acks_delivered: 0,
            duplicate_acks: 0,
            stranded_ops: 0,
            coalesced_writes: 0,
            qfull: 0,
            dispatch_errors: 0,
            failed_ops: 0,
            failovers_observed: 0,
            path_a_dispatched: 0,
            path_b_dispatched: 0,
            path_a_timeouts: 0,
            path_b_timeouts: 0,
        }
    }

    pub(crate) fn note_path_dispatch(&mut self, p: PathId) {
        match p {
            PathId::A => self.path_a_dispatched += 1,
            PathId::B => self.path_b_dispatched += 1,
        }
    }

    pub(crate) fn note_path_timeout(&mut self, p: PathId) {
        match p {
            PathId::A => self.path_a_timeouts += 1,
            PathId::B => self.path_b_timeouts += 1,
        }
    }

    /// Acknowledged ops per virtual second.
    pub fn iops(&self) -> f64 {
        if self.elapsed == 0 {
            return 0.0;
        }
        self.ops as f64 * SEC as f64 / self.elapsed as f64
    }

    /// Logical throughput, bytes per virtual second.
    pub fn throughput_bps(&self) -> f64 {
        if self.elapsed == 0 {
            return 0.0;
        }
        self.bytes as f64 * SEC as f64 / self.elapsed as f64
    }

    /// Combined end-to-end latency across reads and writes.
    pub fn e2e_all(&self) -> LatencyHistogram {
        let mut all = self.e2e_read.clone();
        all.merge(&self.e2e_write);
        all
    }

    /// Sets the run's series in the hub's side table under a volume label.
    /// Metric names are documented in OBSERVABILITY.md; label
    /// cardinality is bounded by host shape (initiators × volumes the
    /// host is configured to drive), not by traffic.
    pub fn publish(&self, registry: &MetricsRegistry, volume: &str) {
        let vol = [("volume", volume)];
        registry.set_counter("host_ops_acked", &vol, self.ops);
        registry.set_counter("host_reads_acked", &vol, self.reads);
        registry.set_counter("host_writes_acked", &vol, self.writes);
        registry.set_counter("host_bytes_moved", &vol, self.bytes);
        registry.set_counter("host_retries", &vol, self.retries);
        registry.set_counter("host_timeouts", &vol, self.timeouts);
        registry.set_counter("host_acks_lost", &vol, self.acks_lost);
        registry.set_counter("host_duplicate_acks", &vol, self.duplicate_acks);
        registry.set_counter("host_coalesced_writes", &vol, self.coalesced_writes);
        registry.set_counter("host_qfull", &vol, self.qfull);
        registry.set_counter("host_failed_ops", &vol, self.failed_ops);
        registry.set_counter("host_failovers_observed", &vol, self.failovers_observed);
        for (path, dispatched, timeouts) in [
            ("a", self.path_a_dispatched, self.path_a_timeouts),
            ("b", self.path_b_dispatched, self.path_b_timeouts),
        ] {
            let labels = [("path", path)];
            registry.set_counter("host_path_dispatched", &labels, dispatched);
            registry.set_counter("host_path_timeouts", &labels, timeouts);
        }
        registry.with_histogram(
            "host_e2e_latency",
            &[("volume", volume), ("op", "read")],
            |dst| dst.clone_from(&self.e2e_read),
        );
        registry.with_histogram(
            "host_e2e_latency",
            &[("volume", volume), ("op", "write")],
            |dst| dst.clone_from(&self.e2e_write),
        );
        registry.with_histogram("host_queue_wait", &vol, |dst| {
            dst.clone_from(&self.queue_wait)
        });
        registry.with_histogram("host_service_latency", &vol, |dst| {
            dst.clone_from(&self.service)
        });
        for (i, h) in self.per_initiator_e2e.iter().enumerate() {
            registry.with_histogram(
                "host_initiator_e2e_latency",
                &[("initiator", &i.to_string())],
                |dst| dst.clone_from(h),
            );
        }
    }

    /// Machine-readable form for the bench binaries.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.u64_field("ops", self.ops)
            .u64_field("reads", self.reads)
            .u64_field("writes", self.writes)
            .u64_field("bytes", self.bytes)
            .u64_field("elapsed_ns", self.elapsed)
            .f64_field("iops", self.iops())
            .f64_field("throughput_bytes_per_sec", self.throughput_bps())
            .raw_field("e2e_read", &HistogramSummary::of(&self.e2e_read).to_json())
            .raw_field(
                "e2e_write",
                &HistogramSummary::of(&self.e2e_write).to_json(),
            )
            .raw_field(
                "queue_wait",
                &HistogramSummary::of(&self.queue_wait).to_json(),
            )
            .raw_field("service", &HistogramSummary::of(&self.service).to_json())
            .u64_field("retries", self.retries)
            .u64_field("timeouts", self.timeouts)
            .u64_field("acks_lost", self.acks_lost)
            .u64_field("acks_delivered", self.acks_delivered)
            .u64_field("duplicate_acks", self.duplicate_acks)
            .u64_field("stranded_ops", self.stranded_ops)
            .u64_field("coalesced_writes", self.coalesced_writes)
            .u64_field("qfull", self.qfull)
            .u64_field("failed_ops", self.failed_ops)
            .u64_field("failovers_observed", self.failovers_observed)
            .u64_field("path_a_dispatched", self.path_a_dispatched)
            .u64_field("path_b_dispatched", self.path_b_dispatched);
        w.finish()
    }
}
