//! End-to-end: a controller failover mid-run, with QD=32 of I/O
//! outstanding, is invisible to the application — every request
//! completes exactly once via host-side timeout/retry on the surviving
//! path. This is the paper's §4.1 availability story seen from the
//! host: acks in flight on the dead primary are lost, the host times
//! out, fails the path, and resubmits; nothing is lost, nothing is
//! double-acked.

use purity_core::{ArrayConfig, FaultEvent, FaultPlan, FlashArray};
use purity_host::{HostConfig, HostEngine};
use purity_sim::{MS, SEC};
use purity_wkld::{AccessPattern, ArrivalProcess, ContentModel, SizeMix, WorkloadGen};

fn engine_qd32() -> HostEngine {
    HostEngine::new(HostConfig {
        initiators: 4,
        queue_depth: 8, // 4 × 8 = QD 32 outstanding
        timeout: 50 * MS,
        backoff: 100_000,
        ..HostConfig::default()
    })
}

fn workload(read_pct: u8) -> WorkloadGen {
    WorkloadGen::new(
        21,
        16 << 20,
        AccessPattern::Uniform,
        SizeMix::fixed(16 * 1024),
        read_pct,
        ContentModel::Rdbms,
        0,
    )
}

#[test]
fn failover_under_qd32_loses_no_acks() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 16 << 20).unwrap();
    // Mixed load so both the NVRAM commit path and the read path have
    // in-flight ops when the controller dies.
    let mut gen = workload(50);
    // Let the run reach steady state, then kill the primary well inside
    // the run (3 000 ops last about 20 virt-ms). With QD=32 the array
    // always has ops in flight, so the failover is guaranteed to abort
    // some acks (asserted below).
    let mut plan = FaultPlan::new().at(10 * MS, FaultEvent::FailPrimary);
    let engine = engine_qd32();
    let report = engine.run_closed_loop(&mut a, vol, &mut gen, 3_000, Some(&mut plan));

    assert!(plan.is_done(), "the failover fired");
    assert_eq!(a.failovers, 1);
    assert_eq!(report.failovers_observed, 1);
    assert!(
        report.acks_lost > 0,
        "a QD=32 mid-run failover must catch acks in flight"
    );
    assert!(report.timeouts > 0, "losses are detected by host timeout");
    assert!(report.retries > 0, "lost ops are resubmitted");
    // The contract: every op acked exactly once, none stranded, none
    // failed, none double-acked.
    assert_eq!(report.ops, 3_000);
    assert_eq!(report.acks_delivered, 3_000);
    assert_eq!(report.duplicate_acks, 0);
    assert_eq!(report.stranded_ops, 0);
    assert_eq!(report.failed_ops, 0);
    // Retried ops went down the surviving (non-optimized) path.
    assert!(
        report.path_b_dispatched > 0,
        "failover must shift traffic to path B"
    );
}

#[test]
fn failover_retries_preserve_write_contents() {
    // Deterministic sequential writes, failover mid-stream, then read
    // everything back: retried writes must land (idempotently) and the
    // volume must be fully intact.
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 8 << 20).unwrap();
    let mut gen = WorkloadGen::new(
        5,
        4 << 20,
        AccessPattern::Sequential,
        SizeMix::fixed(32 * 1024),
        0,
        ContentModel::Rdbms,
        0,
    );
    let mut plan = FaultPlan::new().at(5 * MS, FaultEvent::FailPrimary);
    let engine = engine_qd32();
    let report = engine.run_closed_loop(&mut a, vol, &mut gen, 500, Some(&mut plan));
    assert_eq!(report.ops, 500);
    assert_eq!(report.duplicate_acks, 0);
    assert_eq!(report.failed_ops, 0);
    assert_eq!(a.failovers, 1);
    // Every acked write is durable and readable after the dust settles.
    let (data, _) = a.read(vol, 0, 1 << 20).unwrap();
    assert_eq!(data.len(), 1 << 20);
    assert!(
        data.iter().any(|&b| b != 0),
        "sequential writes covered this range"
    );
}

#[test]
fn open_loop_failover_also_loses_no_acks() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 16 << 20).unwrap();
    let mut gen = workload(70).with_arrivals(ArrivalProcess::poisson_iops(40_000.0));
    let mut plan = FaultPlan::new().at(10 * MS, FaultEvent::FailPrimary);
    let engine = engine_qd32();
    let report = engine.run_open_loop(&mut a, vol, &mut gen, 1_500, Some(&mut plan));
    assert_eq!(report.ops, 1_500);
    assert_eq!(report.acks_delivered, 1_500);
    assert_eq!(report.duplicate_acks, 0);
    assert_eq!(report.stranded_ops, 0);
    assert_eq!(report.failovers_observed, 1);
}

#[test]
fn scheduled_drive_pull_and_reinsert_ride_along() {
    // The unified FaultPlan drives non-controller faults through the
    // same entry point: pull a drive mid-run, re-insert it later; the
    // host never notices (reconstruction serves reads) and every op
    // completes.
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 16 << 20).unwrap();
    let mut gen = workload(60);
    let mut plan = FaultPlan::new()
        .at(5 * MS, FaultEvent::FailDrive(3))
        .at(40 * MS, FaultEvent::ReviveDrive(3));
    let engine = engine_qd32();
    let report = engine.run_closed_loop(&mut a, vol, &mut gen, 1_000, Some(&mut plan));
    assert!(plan.is_done());
    assert_eq!(report.ops, 1_000);
    assert_eq!(report.stranded_ops, 0);
    assert_eq!(report.failed_ops, 0);
    assert!(a.failed_drives().is_empty(), "drive was re-inserted");
    assert!(report.elapsed < SEC, "run stays in a sane time envelope");
}
