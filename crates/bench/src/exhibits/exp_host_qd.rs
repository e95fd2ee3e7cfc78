//! Host queue-depth sweep (§2, §4.4): drive the array through the
//! purity-host front end at queue depths 1, 8, 32 and 128 and show the
//! classic closed-loop trade: IOPS rises with queue depth while p50 and
//! p99 end-to-end latency rise with it — more outstanding ops queue
//! against the same dies. The curves come out of the array's per-die
//! timelines, not a fitted model.
//!
//! The monotonicity is asserted on the emitted document, so a CI smoke
//! run (`--smoke`) fails loudly if the host engine stops producing
//! queue-depth-dependent behaviour.

use crate::{flag, Report};
use purity_core::{ArrayConfig, FlashArray, VolumeId};
use purity_host::{HostConfig, HostEngine};
use purity_obs::json::{JsonValue, JsonWriter};
use purity_sim::units::format_nanos;
use purity_wkld::{AccessPattern, ContentModel, SizeMix, WorkloadGen};

/// One sweep point's setup, which `bench_perf` times too: a fresh
/// identically-seeded array warmed with unique content, the host engine
/// at `qd` outstanding, and the 70/30 16 KiB mix.
pub(super) fn setup(qd: usize, vol_bytes: u64) -> (FlashArray, VolumeId, HostEngine, WorkloadGen) {
    let mut cfg = ArrayConfig::bench_medium();
    // Working set deliberately larger than DRAM cache so reads reach
    // the drives, where per-die timelines make queueing visible.
    cfg.cache_bytes = 1 << 20;
    let mut a = FlashArray::new(cfg).unwrap();
    let vol = a.create_volume("db", vol_bytes).unwrap();

    // Warm the working set with unique (dedup-proof) content.
    let mut warm = vec![0u8; 1 << 20];
    for c in 0..(vol_bytes >> 20) {
        for (i, b) in warm.iter_mut().enumerate() {
            *b = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(c) as u8;
        }
        a.write(vol, c << 20, &warm).unwrap();
    }

    let engine = HostEngine::new(HostConfig {
        initiators: 4,
        queue_depth: qd.div_ceil(4).max(1),
        coalesce: false,
        ..HostConfig::default()
    });
    let gen = WorkloadGen::new(
        17,
        vol_bytes,
        AccessPattern::Uniform,
        SizeMix::fixed(16 * 1024),
        70,
        ContentModel::Rdbms,
        0,
    );
    (a, vol, engine, gen)
}

/// Pulls (qd, iops, p50, p99) rows back out of the written document.
fn rows_of(doc: &JsonValue) -> Vec<(u64, f64, u64, u64)> {
    doc.array_at("sweep")
        .iter()
        .map(|point| {
            (
                point.u64_at("queue_depth"),
                point.f64_at("report.iops"),
                point.u64_at("e2e_p50_ns"),
                point.u64_at("e2e_p99_ns"),
            )
        })
        .collect()
}

pub fn run(args: &[String], r: &mut Report) {
    let smoke = flag(args, "--smoke");
    let (depths, ops): (&[usize], u64) = if smoke {
        (&[1, 32], 600)
    } else {
        (&[1, 8, 32, 128], 2_000)
    };
    r.line(format!(
        "=== host queue-depth sweep ({} mode) ===",
        if smoke { "smoke" } else { "full" }
    ));

    let mut sweep = JsonWriter::array();
    let mut table = Vec::new();
    for &qd in depths {
        let (mut a, vol, engine, mut gen) = setup(qd, 48 << 20);
        let h = engine.run_closed_loop(&mut a, vol, &mut gen, ops, None);
        let all = h.e2e_all();
        r.line(format!(
            "QD {:>3}: {:>8.0} IOPS | e2e p50 {} p99 {} | queue wait p50 {}",
            qd,
            h.iops(),
            format_nanos(all.p50()),
            format_nanos(all.p99()),
            format_nanos(h.queue_wait.p50()),
        ));
        table.push(vec![
            qd.to_string(),
            format!("{:.0}", h.iops()),
            format_nanos(all.p50()),
            format_nanos(all.p99()),
            format_nanos(h.queue_wait.p50()),
        ]);
        let mut point = JsonWriter::object();
        point
            .u64_field("queue_depth", qd as u64)
            .u64_field("e2e_p50_ns", all.p50())
            .u64_field("e2e_p99_ns", all.p99())
            .raw_field("report", &h.to_json());
        sweep.raw_element(&point.finish());
    }
    r.table(
        "host closed-loop sweep",
        &["QD", "IOPS", "e2e p50", "e2e p99", "qwait p50"],
        &table,
    );

    let mut root = JsonWriter::object();
    root.str_field("experiment", "exp_host_qd")
        .bool_field("smoke", smoke)
        .u64_field("ops_per_point", ops)
        .raw_field("sweep", &sweep.finish());
    // Self-check: the exhibit's claim must hold on the written
    // document — IOPS and latency both rise with queue depth.
    let doc = r.json(root.finish());
    let rows = rows_of(&doc);
    assert_eq!(rows.len(), depths.len());
    for pair in rows.windows(2) {
        let (qd0, iops0, p50_0, p99_0) = pair[0];
        let (qd1, iops1, p50_1, p99_1) = pair[1];
        assert!(qd1 > qd0);
        assert!(
            iops1 > iops0,
            "IOPS must rise with QD: qd{qd0}={iops0:.0} vs qd{qd1}={iops1:.0}"
        );
        assert!(
            p50_1 >= p50_0,
            "p50 must not fall as QD rises: qd{qd0}={p50_0} vs qd{qd1}={p50_1}"
        );
        assert!(
            p99_1 >= p99_0,
            "p99 must not fall as QD rises: qd{qd0}={p99_0} vs qd{qd1}={p99_1}"
        );
    }
    r.line("\nself-check OK: IOPS and latency rise monotonically with QD.");
}
