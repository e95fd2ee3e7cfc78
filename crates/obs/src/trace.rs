//! Virtual-clock span tracing with bounded slow-op capture.
//!
//! Each I/O carries an [`OpTrace`]: a vector of per-stage
//! (name, start, end, note) records stamped with virtual-time `Nanos` as
//! the op moves through the stack (NVRAM append, dedup, drive reads,
//! reconstruction, ...). On completion the trace is handed to the
//! [`Tracer`]; ops slower than the configured threshold are captured in
//! full into a bounded ring buffer, so the tail of any run can be
//! explained stage-by-stage after the fact — e.g. a p99.9 read whose
//! `drive_read` span carries the note
//! `queued 2.1ms behind erase on die 3 of drive 7`.

use crate::blame::{fold_blame, BlameVec};
use crate::json::JsonWriter;
use crate::registry::Frame;
use parking_lot::Mutex;
use purity_sim::units::format_nanos;
use purity_sim::Nanos;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// One span inside an operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageRecord {
    pub stage: &'static str,
    pub start: Nanos,
    pub end: Nanos,
    /// Free-form attribution, e.g. `queued 1.9ms behind erase on die 3 of drive 7`.
    pub note: Option<String>,
}

impl StageRecord {
    pub fn duration(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }

    fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.str_field("stage", self.stage)
            .u64_field("start_ns", self.start)
            .u64_field("end_ns", self.end)
            .u64_field("duration_ns", self.duration());
        if let Some(n) = &self.note {
            w.str_field("note", n);
        }
        w.finish()
    }
}

/// Trace context carried by one in-flight operation.
#[derive(Clone, Debug)]
pub struct OpTrace {
    pub kind: &'static str,
    pub issued_at: Nanos,
    stages: Vec<StageRecord>,
}

impl OpTrace {
    pub fn new(kind: &'static str, issued_at: Nanos) -> Self {
        Self {
            kind,
            issued_at,
            stages: Vec::new(),
        }
    }

    /// Records a span. Zero-duration spans are legal: CPU stages take no
    /// virtual time but still mark ordering and carry notes.
    pub fn stage(&mut self, stage: &'static str, start: Nanos, end: Nanos) {
        debug_assert!(
            crate::blame::is_registered_stage(stage),
            "unregistered stage name {stage:?} (add it to STAGE_REGISTRY)"
        );
        self.stages.push(StageRecord {
            stage,
            start,
            end,
            note: None,
        });
    }

    /// Records a span with an attribution note.
    pub fn stage_note(&mut self, stage: &'static str, start: Nanos, end: Nanos, note: String) {
        debug_assert!(
            crate::blame::is_registered_stage(stage),
            "unregistered stage name {stage:?} (add it to STAGE_REGISTRY)"
        );
        self.stages.push(StageRecord {
            stage,
            start,
            end,
            note: Some(note),
        });
    }

    pub fn stages(&self) -> &[StageRecord] {
        &self.stages
    }

    /// Grafts another trace's spans into this one (same virtual clock):
    /// how an upstream initiator's context absorbs the array-side spans
    /// of one dispatch leg, producing a single end-to-end tree.
    pub fn absorb(&mut self, other: OpTrace) {
        self.stages.extend(other.stages);
    }

    /// Grafts spans recorded on a *different* clock, shifting each by
    /// `shift` (cluster ops rebase member-array spans into the cluster
    /// timeline). Saturates at zero.
    pub fn absorb_shifted(&mut self, other: OpTrace, shift: i64) {
        for mut s in other.stages {
            s.start = s.start.saturating_add_signed(shift);
            s.end = s.end.saturating_add_signed(shift);
            self.stages.push(s);
        }
    }
}

/// A captured slow operation: the full stage breakdown.
#[derive(Clone, Debug)]
pub struct SlowOp {
    pub kind: &'static str,
    pub issued_at: Nanos,
    pub completed_at: Nanos,
    pub latency: Nanos,
    pub stages: Vec<StageRecord>,
}

impl SlowOp {
    /// The stage that consumed the most virtual time.
    pub fn dominant_stage(&self) -> Option<&StageRecord> {
        self.stages.iter().max_by_key(|s| s.duration())
    }

    /// One-line human-readable attribution.
    pub fn describe(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for s in &self.stages {
            let mut p = format!("{} {}", s.stage, format_nanos(s.duration()));
            if let Some(n) = &s.note {
                p.push_str(&format!(" ({n})"));
            }
            parts.push(p);
        }
        format!(
            "{} @{} took {}: {}",
            self.kind,
            format_nanos(self.issued_at),
            format_nanos(self.latency),
            parts.join(", ")
        )
    }

    pub fn to_json(&self) -> String {
        let mut stages = JsonWriter::array();
        for s in &self.stages {
            stages.raw_element(&s.to_json());
        }
        let mut w = JsonWriter::object();
        w.str_field("kind", self.kind)
            .u64_field("issued_at_ns", self.issued_at)
            .u64_field("completed_at_ns", self.completed_at)
            .u64_field("latency_ns", self.latency)
            .raw_field("stages", &stages.finish());
        w.finish()
    }
}

/// One op's folded blame, queued for the flight recorder's interval
/// accounting.
#[derive(Debug, Clone, Copy)]
pub struct FoldedOp {
    pub completed_at: Nanos,
    pub latency: Nanos,
    pub blame: BlameVec,
}

#[derive(Debug, Default)]
struct BlameState {
    /// Cumulative all-ops blame since boot (the `trace_blame_ns`
    /// counters mirror this).
    totals: BlameVec,
    /// Folded ops not yet claimed by a recorder interval, in finish
    /// order. Completion times may run ahead of the virtual now (the
    /// controller finishes with `now + latency`), so the recorder
    /// drains by boundary, not wholesale.
    pending: Vec<FoldedOp>,
}

/// Completion sink: folds every op's critical path into the blame
/// taxonomy and captures slow ones in full into a ring.
#[derive(Debug)]
pub struct Tracer {
    threshold: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<SlowOp>>,
    finished: AtomicU64,
    captured: AtomicU64,
    folded: AtomicU64,
    fold_enabled: AtomicBool,
    blame: Mutex<BlameState>,
}

impl Tracer {
    pub fn new(threshold: Nanos, capacity: usize) -> Self {
        Self {
            threshold: AtomicU64::new(threshold),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            finished: AtomicU64::new(0),
            captured: AtomicU64::new(0),
            folded: AtomicU64::new(0),
            fold_enabled: AtomicBool::new(true),
            blame: Mutex::new(BlameState::default()),
        }
    }

    /// Current slow-op capture threshold in ns.
    pub fn threshold(&self) -> Nanos {
        self.threshold.load(Ordering::Relaxed)
    }

    /// Adjusts the capture threshold at runtime. Ops already in the
    /// ring are unaffected; only subsequent completions see the new
    /// threshold.
    pub fn set_threshold(&self, t: Nanos) {
        self.threshold.store(t, Ordering::Relaxed);
    }

    /// Current ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Completes an operation; returns its end-to-end latency and whether
    /// it was captured as slow. *Every* op is folded into the blame
    /// taxonomy first — aggregate blame covers the whole population,
    /// not just the ring's worst cases.
    pub fn finish(&self, trace: OpTrace, completed_at: Nanos) -> (Nanos, bool) {
        let latency = completed_at.saturating_sub(trace.issued_at);
        self.finished.fetch_add(1, Ordering::Relaxed);
        if self.fold_enabled.load(Ordering::Relaxed) {
            let blame = fold_blame(trace.issued_at, completed_at, &trace.stages);
            self.folded.fetch_add(1, Ordering::Relaxed);
            let mut st = self.blame.lock();
            st.totals.merge(&blame);
            st.pending.push(FoldedOp {
                completed_at,
                latency,
                blame,
            });
        }
        if latency < self.threshold() {
            return (latency, false);
        }
        self.captured.fetch_add(1, Ordering::Relaxed);
        let op = SlowOp {
            kind: trace.kind,
            issued_at: trace.issued_at,
            completed_at,
            latency,
            stages: trace.stages,
        };
        let mut ring = self.ring.lock();
        while ring.len() >= self.capacity() {
            ring.pop_front();
        }
        ring.push_back(op);
        (latency, true)
    }

    /// Total ops finished through this tracer.
    pub fn finished_count(&self) -> u64 {
        self.finished.load(Ordering::Relaxed)
    }

    /// Total ops that crossed the threshold (including ones evicted from
    /// the ring since).
    pub fn captured_count(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Total ops folded into the blame taxonomy (`trace_ops_folded`).
    pub fn folded_count(&self) -> u64 {
        self.folded.load(Ordering::Relaxed)
    }

    /// Whether completion-time blame folding is on (default). The perf
    /// benchmark toggles this to measure tracing's own overhead.
    pub fn fold_enabled(&self) -> bool {
        self.fold_enabled.load(Ordering::Relaxed)
    }

    /// Enables/disables blame folding for subsequent completions.
    pub fn set_fold_enabled(&self, on: bool) {
        self.fold_enabled.store(on, Ordering::Relaxed);
    }

    /// Cumulative all-ops blame since boot.
    pub fn blame_totals(&self) -> BlameVec {
        self.blame.lock().totals
    }

    /// Writes the causal-tracing spine's own series: every completed op
    /// is folded into the blame taxonomy (not just slow-op captures).
    pub fn collect(&self, out: &mut Frame<'_>) {
        out.counter("trace_ops_folded", &[], self.folded_count());
        for (cat, ns) in self.blame_totals().iter() {
            out.counter("trace_blame_ns", &[("category", cat.as_str())], ns);
        }
    }

    /// Removes and returns the folded ops completing strictly before
    /// `boundary`, preserving finish order. Ops completing later stay
    /// queued for a future interval.
    pub fn drain_folded_before(&self, boundary: Nanos) -> Vec<FoldedOp> {
        let mut st = self.blame.lock();
        let mut taken = Vec::new();
        let mut kept = Vec::with_capacity(st.pending.len());
        for op in st.pending.drain(..) {
            if op.completed_at < boundary {
                taken.push(op);
            } else {
                kept.push(op);
            }
        }
        st.pending = kept;
        taken
    }

    /// Copies out the current ring contents, oldest first.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.ring.lock().iter().cloned().collect()
    }

    /// The slowest capture still in the ring.
    pub fn slowest(&self) -> Option<SlowOp> {
        self.ring.lock().iter().max_by_key(|o| o.latency).cloned()
    }

    pub fn slow_ops_json(&self) -> String {
        let mut w = JsonWriter::array();
        for op in self.ring.lock().iter() {
            w.raw_element(&op.to_json());
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: &'static str, issued: Nanos, end: Nanos) -> OpTrace {
        let mut t = OpTrace::new(kind, issued);
        t.stage("drive_read", issued, end);
        t
    }

    #[test]
    fn fast_ops_are_not_captured() {
        let tr = Tracer::new(1000, 4);
        let (lat, slow) = tr.finish(op("read", 0, 500), 500);
        assert_eq!((lat, slow), (500, false));
        assert_eq!(tr.finished_count(), 1);
        assert_eq!(tr.captured_count(), 0);
        assert!(tr.slow_ops().is_empty());
    }

    #[test]
    fn slow_ops_capture_stage_breakdown() {
        let tr = Tracer::new(1000, 4);
        let mut t = OpTrace::new("read", 100);
        t.stage("nvram_commit", 100, 110);
        t.stage_note(
            "drive_read",
            110,
            2100,
            "queued 1.9ms behind erase on die 3 of drive 7".into(),
        );
        let (lat, slow) = tr.finish(t, 2100);
        assert_eq!((lat, slow), (2000, true));
        let ops = tr.slow_ops();
        assert_eq!(ops.len(), 1);
        let dom = ops[0].dominant_stage().unwrap();
        assert_eq!(dom.stage, "drive_read");
        assert!(ops[0]
            .describe()
            .contains("behind erase on die 3 of drive 7"));
        assert!(ops[0].to_json().contains("\"note\""));
    }

    #[test]
    fn ring_is_bounded_fifo() {
        let tr = Tracer::new(0, 3);
        for i in 0..10u64 {
            tr.finish(op("w", i, i + 100), i + 100);
        }
        let ops = tr.slow_ops();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].issued_at, 7);
        assert_eq!(tr.captured_count(), 10);
    }

    #[test]
    fn every_op_is_folded_even_below_threshold() {
        use crate::blame::BlameCategory;
        let tr = Tracer::new(1000, 4);
        let (_, slow) = tr.finish(op("read", 0, 500), 500);
        assert!(!slow, "below threshold");
        assert_eq!(tr.folded_count(), 1, "fast ops still fold");
        assert_eq!(tr.blame_totals().get(BlameCategory::DriveQueue), 500);
        tr.finish(op("read", 0, 2000), 2000);
        assert_eq!(tr.folded_count(), 2);
        assert_eq!(tr.blame_totals().total(), 2500);
        // Drain splits on completion time, preserving order.
        let first = tr.drain_folded_before(1000);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].latency, 500);
        let rest = tr.drain_folded_before(u64::MAX);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].latency, 2000);
        assert!(tr.drain_folded_before(u64::MAX).is_empty());
    }

    #[test]
    fn fold_can_be_disabled_for_overhead_measurement() {
        let tr = Tracer::new(0, 4);
        tr.set_fold_enabled(false);
        tr.finish(op("read", 0, 500), 500);
        assert_eq!(tr.folded_count(), 0);
        assert_eq!(tr.blame_totals().total(), 0);
        assert_eq!(tr.slow_ops().len(), 1, "ring capture still works");
        tr.set_fold_enabled(true);
        tr.finish(op("read", 0, 500), 500);
        assert_eq!(tr.folded_count(), 1);
    }

    #[test]
    fn threshold_is_adjustable() {
        let tr = Tracer::new(u64::MAX, 4);
        tr.finish(op("r", 0, 10_000_000), 10_000_000);
        assert!(tr.slow_ops().is_empty());
        tr.set_threshold(1000);
        tr.finish(op("r", 0, 10_000_000), 10_000_000);
        assert_eq!(tr.slow_ops().len(), 1);
        assert!(tr.slowest().is_some());
    }
}
