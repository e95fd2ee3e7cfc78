//! Observability layer for the Purity reproduction.
//!
//! The paper's headline claim is *operational*: p99.9 read latency stays
//! low because the scheduler reads around drives that are busy programming
//! or erasing (§4.4, Figure 7). Verifying that requires more than one
//! end-to-end histogram — it needs to answer *why a specific tail sample
//! was slow*. This crate provides the pieces every subsystem reports
//! through:
//!
//! * [`Frame`] — one sample of every named, labeled counter / gauge /
//!   latency histogram (per drive, per subsystem), written by each
//!   owner's `collect` straight from its stats struct and frozen into a
//!   JSON-exportable [`MetricsSnapshot`]; [`MetricsRegistry`] is the
//!   side table for series the array does not own. See OBSERVABILITY.md
//!   for the metric name and label scheme.
//! * [`OpTrace`] / [`Tracer`] — virtual-clock span tracing. Each I/O
//!   carries a lightweight [`OpTrace`] recording per-stage start/end
//!   [`Nanos`]; on completion the [`Tracer`] captures the full stage
//!   breakdown of any op slower than a configurable threshold into a
//!   bounded ring buffer ("this p99.9 read waited 2.1 ms behind an erase
//!   on die 3 of drive 7").
//! * [`json`] — a dependency-free JSON writer used by the snapshot and
//!   trace export paths, and the reader exhibits and tests parse those
//!   documents back with (the container has no serde).
//!
//! Everything works on the simulation's virtual clock: spans are exact,
//! not sampled, and runs are deterministic.

pub mod blame;
pub mod json;
pub mod profiler;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use blame::{
    fold_blame, is_registered_stage, stage_category, BlameCategory, BlameVec, BLAME_CATEGORIES,
    N_BLAME, STAGE_REGISTRY,
};
pub use profiler::{Plane, PlaneStat, ProfileSnapshot};
pub use recorder::{
    EvidenceSection, Incident, IntervalStats, Recorder, RecorderConfig, SloConfig, SloEvent,
    TailBlame,
};
pub use registry::{Frame, HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use trace::{FoldedOp, OpTrace, SlowOp, StageRecord, Tracer};

use purity_sim::Nanos;
use std::sync::Arc;

/// Default slow-op capture threshold: 1 ms, the paper's tail budget.
pub const DEFAULT_SLOW_OP_THRESHOLD: Nanos = 1_000_000;

/// Default slow-op ring capacity.
pub const DEFAULT_SLOW_OP_CAPACITY: usize = 256;

/// Full hub configuration: slow-op capture knobs plus the flight
/// recorder's cadence/window/SLO settings.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Ops slower than this (virtual ns) are captured with their full
    /// per-stage trace.
    pub slow_op_threshold: Nanos,
    /// Slow-op ring capacity.
    pub slow_op_capacity: usize,
    /// Flight-recorder knobs.
    pub recorder: RecorderConfig,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            slow_op_threshold: DEFAULT_SLOW_OP_THRESHOLD,
            slow_op_capacity: DEFAULT_SLOW_OP_CAPACITY,
            recorder: RecorderConfig::default(),
        }
    }
}

/// The bundle of observability state one array (controller pair) shares.
///
/// Cheap to clone the `Arc`; both controllers of an HA pair hold the same
/// hub so captures, metrics and recordings survive failover without
/// copying. A whole-array power loss boots a fresh hub (volatile
/// telemetry dies with both controllers).
#[derive(Debug)]
pub struct Obs {
    pub registry: MetricsRegistry,
    pub tracer: Tracer,
    pub recorder: Recorder,
}

impl Obs {
    /// Creates a hub with the given slow-op threshold (ns) and default
    /// ring capacity and recorder settings, anchored at virtual time 0.
    pub fn new(slow_op_threshold: Nanos) -> Arc<Self> {
        Self::with_config(
            ObsConfig {
                slow_op_threshold,
                ..ObsConfig::default()
            },
            0,
        )
    }

    /// Creates a fully configured hub whose recorder grid is anchored
    /// at `epoch` (the virtual time the owning controller boots).
    pub fn with_config(cfg: ObsConfig, epoch: Nanos) -> Arc<Self> {
        Arc::new(Self {
            registry: MetricsRegistry::new(),
            tracer: Tracer::new(cfg.slow_op_threshold, cfg.slow_op_capacity),
            recorder: Recorder::new(cfg.recorder, epoch),
        })
    }

    /// One JSON document with the given metric snapshot, the slow-op
    /// ring, and the flight recorder's time-series + incident log +
    /// per-interval tail-blame decomposition — the export consumed by
    /// the bench binaries. Every section is sorted
    /// by series name+labels (or id order for ring/incident entries),
    /// so same-seed runs export byte-identical documents.
    ///
    /// When the wall-clock [`profiler`] is enabled, a `"profile"`
    /// section is appended as the final field. It is nondeterministic
    /// (real time) by nature, so it lives *after* every deterministic
    /// section; [`profiler::strip_profile_section`] recovers the
    /// byte-identical deterministic prefix.
    pub fn export_json(&self, metrics: &MetricsSnapshot) -> String {
        let mut w = json::JsonWriter::object();
        w.raw_field("metrics", &metrics.to_json());
        w.raw_field("slow_ops", &self.tracer.slow_ops_json());
        w.raw_field("timeseries", &self.recorder.timeseries_json());
        w.raw_field("incidents", &self.recorder.incidents_json());
        w.raw_field("tail_blame", &self.recorder.tail_blame_json());
        if profiler::is_enabled() {
            w.raw_field("profile", &profiler::snapshot().to_json(None));
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_combines_metrics_and_slow_ops() {
        let obs = Obs::new(1000);
        obs.registry.set_counter("ops", &[], 1);
        let mut t = OpTrace::new("read", 0);
        t.stage("drive_read", 0, 5000);
        obs.tracer.finish(t, 5000);
        let mut frame = Frame::default();
        obs.registry.collect(&mut frame);
        let j = obs.export_json(&frame.into_snapshot());
        assert!(j.contains("\"metrics\""), "{j}");
        assert!(j.contains("\"slow_ops\""), "{j}");
        assert!(j.contains("\"timeseries\""), "{j}");
        assert!(j.contains("\"incidents\""), "{j}");
        assert!(j.contains("\"tail_blame\""), "{j}");
        assert!(j.contains("drive_read"), "{j}");
    }
}
