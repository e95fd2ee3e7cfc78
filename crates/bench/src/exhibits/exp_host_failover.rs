//! Host-visible controller failover (§4.1): with QD=32 outstanding, the
//! primary controller dies mid-run; every in-flight ack dies with it.
//! The exhibit shows the paper's availability claim from the *host's*
//! seat: the multipath layer times the losses out, resubmits on the
//! surviving controller, and the application sees every op acked
//! exactly once — zero lost acks, zero duplicates — at the cost of a
//! latency spike bounded by the host timeout.
//! `--smoke` shrinks the run for CI.

use crate::{flag, Report};
use purity_core::{ArrayConfig, FaultEvent, FaultPlan, FlashArray};
use purity_host::{HostConfig, HostEngine};
use purity_obs::json::JsonWriter;
use purity_sim::units::format_nanos;
use purity_sim::MS;
use purity_wkld::{AccessPattern, ContentModel, SizeMix, WorkloadGen};

pub fn run(args: &[String], r: &mut Report) {
    let smoke = flag(args, "--smoke");
    let ops: u64 = if smoke { 1_500 } else { 6_000 };
    // Mid-run for either length: the shorter smoke run needs an earlier
    // fault to still catch a full QD of acks in flight.
    let fail_at = if smoke { 4 * MS } else { 15 * MS };
    r.line("=== host-visible controller failover (QD=32) ===");

    let mut a = FlashArray::new(ArrayConfig::bench_medium()).unwrap();
    let vol_bytes: u64 = 32 << 20;
    let vol = a.create_volume("db", vol_bytes).unwrap();
    let mut gen = WorkloadGen::new(
        29,
        vol_bytes,
        AccessPattern::Uniform,
        SizeMix::fixed(16 * 1024),
        50,
        ContentModel::Rdbms,
        0,
    );
    let mut plan = FaultPlan::new().at(fail_at, FaultEvent::FailPrimary);
    let engine = HostEngine::new(HostConfig {
        initiators: 4,
        queue_depth: 8, // 4 × 8 = QD 32
        timeout: 20 * MS,
        ..HostConfig::default()
    });
    let h = engine.run_closed_loop(&mut a, vol, &mut gen, ops, Some(&mut plan));

    assert!(plan.is_done(), "failover fired");
    r.line(format!(
        "{} ops, failover at {}: {} in-flight acks lost, {} timeouts, {} retries",
        h.ops,
        format_nanos(fail_at),
        h.acks_lost,
        h.timeouts,
        h.retries
    ));
    r.line(format!(
        "acks delivered {} / duplicates {} / stranded {} / failed {}",
        h.acks_delivered, h.duplicate_acks, h.stranded_ops, h.failed_ops
    ));
    r.line(format!(
        "paths: A dispatched {} (timeouts {}), B dispatched {} (timeouts {})",
        h.path_a_dispatched, h.path_a_timeouts, h.path_b_dispatched, h.path_b_timeouts
    ));
    let all = h.e2e_all();
    r.line(format!(
        "e2e p50 {} p99 {} max {}",
        format_nanos(all.p50()),
        format_nanos(all.p99()),
        format_nanos(all.max()),
    ));

    let mut root = JsonWriter::object();
    root.str_field("experiment", "exp_host_failover")
        .bool_field("smoke", smoke)
        .u64_field("fail_at_ns", fail_at)
        .u64_field("failovers", h.failovers_observed)
        .raw_field("report", &h.to_json());
    // Self-check: the availability contract holds.
    let doc = r.json(root.finish());
    assert_eq!(doc.u64_at("failovers"), 1, "exactly one failover");
    assert!(
        doc.u64_at("report.acks_lost") > 0,
        "QD=32 must catch acks in flight"
    );
    assert_eq!(doc.u64_at("report.ops"), ops, "every op acked");
    assert_eq!(doc.u64_at("report.acks_delivered"), ops);
    assert_eq!(doc.u64_at("report.duplicate_acks"), 0, "no double acks");
    assert_eq!(doc.u64_at("report.stranded_ops"), 0, "no stranded ops");
    assert_eq!(doc.u64_at("report.failed_ops"), 0, "no op failed to the app");
    r.line("\nself-check OK: zero lost or duplicated acks across the failover.");
}
