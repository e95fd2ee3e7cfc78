//! E2 (§1, §4.4): 99.9th-percentile latency under 1 ms, and the
//! read-around-writes scheduler ablation. The paper: "typical
//! installations have 99.9% latencies under 1 ms" and the scheduler is
//! what keeps reads from stalling behind SSD programs/erases.
//!
//! Besides the text, the run emits a machine-readable metrics
//! snapshot: per-variant latency
//! quantiles, per-path read counters, reconstruction fraction, offered
//! load, and the slowest captured op's stage-by-stage attribution.
//! `--slowest N` prints the N slowest reads of each variant with their
//! stage lists: where a tail question starts.

use crate::{drive, enterprise_mix, flag, preload, value, Report};
use purity_core::{ArrayConfig, FlashArray, VolumeId};
use purity_obs::json::JsonWriter;
use purity_sim::units::format_nanos;
use purity_sim::MS;
use purity_wkld::{ContentModel, WorkloadGen};

/// The preloaded array and the mixed stream one variant drives, which
/// `bench_perf` times too.
pub(super) fn setup(read_around: bool, fa450: bool) -> (FlashArray, VolumeId, WorkloadGen) {
    // `--fa450` swaps the mini-array shelf for the full 2816-die
    // FA-450 geometry (22 drives × 128 dies) — the scale the paper's
    // tail-latency claims were measured at. Same workload either way.
    let mut cfg = if fa450 {
        ArrayConfig::fa450()
    } else {
        ArrayConfig::bench_medium()
    };
    cfg.read_around_writes = read_around;
    let mut a = FlashArray::new(cfg).unwrap();
    let vol_bytes: u64 = 96 << 20;
    let vol = a.create_volume("db", vol_bytes).unwrap();
    preload(&mut a, vol, 3, 128 * 1024, ContentModel::Rdbms, 50_000, 500);
    a.advance(10 * purity_sim::SEC);

    // Moderate mixed load, ~1.5K offered IOPS: the mini array's 'typical
    // installation' regime, where the paper quotes customer p99.9.
    (a, vol, enterprise_mix(5, vol_bytes, 70, 650_000))
}

/// One variant's JSON: the drive report, per-path counters from the
/// metrics snapshot, and the tracer's tail evidence.
fn variant_json(
    report: &crate::DriveReport,
    a: &FlashArray,
    offered: &purity_wkld::OfferedLoad,
    scheduler_on: bool,
) -> String {
    offered.publish(&a.obs().registry, "mixed_enterprise");
    let snap = a.metrics_snapshot();
    let mut reads = JsonWriter::object();
    for path in ["direct", "reconstructed", "cache", "zero"] {
        reads.u64_field(path, snap.counter("array_reads", &[("path", path)]));
    }
    let mut w = JsonWriter::object();
    w.bool_field("read_around_writes", scheduler_on)
        .raw_field("drive_report", &report.to_json())
        .raw_field("reads_by_path", &reads.finish())
        .f64_field(
            "reconstruction_fraction",
            a.stats().reconstruction_fraction(),
        )
        .f64_field("read_amplification", a.stats().read_amplification())
        .u64_field("wkld_ops_issued", offered.ops)
        .u64_field("slow_ops_captured", a.obs().tracer.captured_count());
    if let Some(q) = snap.histogram("array_read_queueing", &[("path", "direct")]) {
        w.raw_field("read_queueing", &q.to_json());
    }
    if let Some(s) = snap.histogram("array_read_service", &[("path", "direct")]) {
        w.raw_field("read_service", &s.to_json());
    }
    if let Some(op) = a.obs().tracer.slowest() {
        w.raw_field("slowest_op", &op.to_json());
        w.str_field("slowest_op_describe", &op.describe());
    }
    w.finish()
}

pub fn run(args: &[String], r: &mut Report) {
    let fa450 = flag(args, "--fa450");
    let slowest: usize = value(args, "--slowest").unwrap_or(0);
    let geometry = if fa450 {
        "full FA-450, 2816 dies"
    } else {
        "mini array, 88 dies"
    };
    r.line(format!(
        "=== E2: tail latency (mixed 70/30 enterprise workload; {geometry}) ==="
    ));
    let mut variants = JsonWriter::array();
    for (label, on) in [
        ("scheduler ON (read around writes)", true),
        ("scheduler OFF", false),
    ] {
        let (mut a, vol, mut gen) = setup(on, fa450);
        let d = drive(&mut a, vol, &mut gen, 6000, 0);
        let offered = gen.offered();
        r.line(format!("\n{}:", label));
        r.line(format!("  reads:  {}", d.read_latency.summary()));
        r.line(format!("  writes: {}", d.write_latency.summary()));
        let p999 = d.read_latency.p999();
        r.line(format!(
            "  read p99.9 = {} -> {}",
            format_nanos(p999),
            if p999 < MS {
                "UNDER the paper's 1 ms bound"
            } else {
                "over 1 ms"
            }
        ));
        if let Some(op) = a.obs().tracer.slowest() {
            r.line(format!("  slowest captured op: {}", op.describe()));
        }
        if slowest > 0 {
            let tracer = &a.obs().tracer;
            let mut reads = tracer.slow_ops();
            reads.retain(|op| op.kind == "read");
            reads.sort_by_key(|op| std::cmp::Reverse(op.latency));
            r.line(format!(
                "  slowest reads ({} over {} in the slow-op ring of {}):",
                reads.len(),
                format_nanos(tracer.threshold()),
                tracer.capacity()
            ));
            for op in reads.iter().take(slowest) {
                r.line(format!("    {}", op.describe()));
            }
        }
        variants.raw_element(&variant_json(&d, &a, &offered, on));
    }
    let mut root = JsonWriter::object();
    root.str_field("experiment", "exp_tail_latency")
        .bool_field("fa450_geometry", fa450)
        .u64_field("tail_budget_ns", MS)
        .raw_field("variants", &variants.finish());
    r.json(root.finish());
    r.line(
        "\npaper: 99.9% latencies under 1 ms; scheduler reconstructs instead of waiting (§4.4).",
    );
}
