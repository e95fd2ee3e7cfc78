//! Figure 7: the relative cost of storing data in Purity arrays, disk
//! arrays and main memory versus access frequency — the five-minute rule
//! recomputed for 2015 flash economics, plus the paper's rules of thumb.
//!
//! The second half puts the "five minutes" on a clock: a five-minute
//! failure-injection trace sampled by the flight recorder at a one
//! second cadence. An enterprise-mix workload runs throughout; a drive
//! is pulled a third of the way in and revived a minute later, and the
//! recorder's per-interval read-latency series captures the whole arc.
//! The trace (and any SLO incidents it opened) lands next to the cost
//! table in the JSON. `--smoke` shrinks the trace to one minute for CI.

use super::exp_fiveminute_live::dev;
use crate::{drive, enterprise_mix, flag, preload, Report};
use purity_core::{ArrayConfig, FlashArray};
use purity_obs::json::JsonWriter;
use purity_sim::units::format_nanos;
use purity_sim::{Nanos, SEC};
use purity_wkld::costmodel::{
    cost_per_item, crossover_interval, figure7_devices, figure7_intervals,
};
use purity_wkld::ContentModel;

/// Telemetry cadence for the trace: one interval per virtual second.
const TRACE_INTERVAL: Nanos = SEC;

/// What the five-minute trace leaves behind for printing and export.
struct Trace {
    /// `five_minute_trace` JSON section.
    json: String,
    /// Closed recorder intervals (seconds of trace).
    intervals: usize,
    /// Reads driven, which must equal the series' summed counts.
    reads: u64,
    /// Interval indices of the drive pull and revival.
    pull: usize,
    revive: usize,
    /// Per-interval (count, p99.9) pairs for the printed digest.
    series: Vec<(u64, Nanos)>,
    incidents: usize,
}

/// Five minutes of enterprise-mix traffic with a mid-trace drive pull,
/// watched by the flight recorder at a one-second cadence.
fn five_minute_trace(smoke: bool) -> Trace {
    let mut cfg = ArrayConfig::test_small();
    cfg.obs.recorder.interval_ns = TRACE_INTERVAL;
    let mut a = FlashArray::new(cfg).unwrap();
    let vol_bytes: u64 = 4 << 20;
    let vol = a.create_volume("fig7", vol_bytes).unwrap();

    // Preload so the trace reads hit real blocks (sub-interval, fast).
    preload(&mut a, vol, 7, 64 * 1024, ContentModel::Rdbms, 20_000, vol_bytes / (64 * 1024));

    // 100 IOPS of the paper's enterprise mix (≈55 KiB mean, 70% reads)
    // over zipfian offsets; GC runs periodically to keep the churn from
    // exhausting the small array's segments.
    let scale: u64 = if smoke { 1 } else { 5 };
    let mut mix = enterprise_mix(21, vol_bytes, 70, 10_000_000);
    let mut reads = 0;
    // 1/3 healthy, 1/3 degraded + rebuilding, 1/3 healthy again.
    reads += drive(&mut a, vol, &mut mix, 2400 * scale, 50).reads;
    let t_pull = a.now();
    a.fail_drive(2);
    reads += drive(&mut a, vol, &mut mix, 1200 * scale, 50).reads;
    let t_revive = a.now();
    let rebuilt = a.revive_drive(2);
    assert_eq!(rebuilt.unrecoverable, 0, "RS must cover a single pull");
    reads += drive(&mut a, vol, &mut mix, 2400 * scale, 50).reads;
    // Cross one more boundary so the final partial interval closes.
    a.advance(TRACE_INTERVAL);

    let rec = &a.obs().recorder;
    let first = rec.first_interval_start();
    let idx = |t: Nanos| ((t - first) / TRACE_INTERVAL) as usize;
    let stats = rec.hist_series("array_read_latency", &[]);
    let series: Vec<(u64, Nanos)> = stats.iter().map(|s| (s.count, s.p999)).collect();
    let incidents = rec.incidents().len();

    let mut points = JsonWriter::array();
    for s in &stats {
        let mut p = JsonWriter::object();
        p.u64_field("count", s.count).u64_field("p999_ns", s.p999);
        points.raw_element(&p.finish());
    }
    let mut json = JsonWriter::object();
    json.u64_field("interval_ns", TRACE_INTERVAL)
        .u64_field("intervals", stats.len() as u64)
        .u64_field("reads", reads)
        .u64_field("pull_interval", idx(t_pull) as u64)
        .u64_field("revive_interval", idx(t_revive) as u64)
        .u64_field("incidents", incidents as u64)
        .raw_field("read_latency", &points.finish());
    Trace {
        json: json.finish(),
        intervals: stats.len(),
        reads,
        pull: idx(t_pull),
        revive: idx(t_revive),
        series,
        incidents,
    }
}

pub fn run(args: &[String], r: &mut Report) {
    let smoke = flag(args, "--smoke");
    const ITEM: u64 = 55 * 1024; // the paper's 55 KiB average I/O
    let devices = figure7_devices();
    let intervals = figure7_intervals();

    // Normalize against the cheapest cell in the table (relative cost).
    let mut min_cost = f64::MAX;
    for (dev, _) in &devices {
        for (_, t) in &intervals {
            min_cost = min_cost.min(cost_per_item(dev, ITEM, *t));
        }
    }

    let headers: Vec<&str> = std::iter::once("Access interval")
        .chain(devices.iter().map(|(d, _)| d.name))
        .collect();
    let rows: Vec<Vec<String>> = intervals
        .iter()
        .map(|(label, t)| {
            let mut row = vec![label.to_string()];
            for (dev, _) in &devices {
                row.push(format!("{:.1}", cost_per_item(dev, ITEM, *t) / min_cost));
            }
            row
        })
        .collect();
    r.table(
        "Figure 7: relative cost vs access frequency (55 KiB items)",
        &headers,
        &rows,
    );

    // Crossovers → the rules of thumb.
    let ram = dev("DIMM");
    r.line("\nCrossover intervals vs ECC DIMM (flash cheaper for colder data):");
    for name in ["1x", "4x", "10x"] {
        let d = dev(name);
        match crossover_interval(&d, &ram, ITEM) {
            Some(t) => r.line(format!(
                "  {:<20} {:>8.1} s  (~{:.1} min)",
                d.name,
                t,
                t / 60.0
            )),
            None => r.line(format!("  {:<20} no crossover in range", d.name)),
        }
    }
    r.line("\nRules of thumb (paper §5.2.2):");
    r.line("  1. Performance disk is dead (dominated at every interval above).");
    r.line("  2. Without data reduction, RAM wins for anything hot.");
    r.line("  3. With data reduction, never cache data accessed less often than ~every half hour.");
    r.line("  4. Important data follows a ten-minute rule (second cached copy vs storage access).");

    // The five-minute trace, digested into ~10-row chunks.
    let trace = five_minute_trace(smoke);
    r.line(format!("\nFive-minute trace: {} one-second intervals, drive pulled at [{}], revived at [{}], {} incident(s)",
        trace.intervals, trace.pull, trace.revive, trace.incidents
    ));
    let chunk = (trace.intervals / 10).max(1);
    let rows: Vec<Vec<String>> = trace
        .series
        .chunks(chunk)
        .enumerate()
        .map(|(i, c)| {
            let lo = i * chunk;
            let hi = lo + c.len() - 1;
            let mark = if (lo..=hi).contains(&trace.pull) {
                "  << pull"
            } else if (lo..=hi).contains(&trace.revive) {
                "  << revive"
            } else {
                ""
            };
            vec![
                format!("{lo:3}..{hi:3}"),
                c.iter().map(|&(n, _)| n).sum::<u64>().to_string(),
                format_nanos(c.iter().map(|&(_, p)| p).max().unwrap_or(0)),
                mark.to_string(),
            ]
        })
        .collect();
    r.table(
        "Trace digest (per-interval read latency)",
        &["Intervals", "Reads", "Max p99.9", ""],
        &rows,
    );

    // Machine-readable form: cost table + crossovers + trace.
    let mut cells = JsonWriter::array();
    for (label, t) in &intervals {
        let mut row = JsonWriter::object();
        row.str_field("access_interval", label)
            .f64_field("interval_sec", *t);
        let mut costs = JsonWriter::object();
        for (dev, _) in &devices {
            costs.f64_field(dev.name, cost_per_item(dev, ITEM, *t) / min_cost);
        }
        row.raw_field("relative_cost", &costs.finish());
        cells.raw_element(&row.finish());
    }
    let mut crossovers = JsonWriter::object();
    for name in ["1x", "4x", "10x"] {
        let d = dev(name);
        if let Some(t) = crossover_interval(&d, &ram, ITEM) {
            crossovers.f64_field(d.name, t);
        }
    }
    let mut root = JsonWriter::object();
    root.str_field("experiment", "fig7_fiveminute")
        .bool_field("smoke", smoke)
        .u64_field("item_bytes", ITEM)
        .raw_field("relative_cost_table", &cells.finish())
        .raw_field("crossover_vs_ram_sec", &crossovers.finish())
        .raw_field("five_minute_trace", &trace.json);
    // Self-check: the emitted trace covers every driven read and
    // brackets the failure window.
    let doc = r.json(root.finish());
    let points = doc.array_at("five_minute_trace.read_latency");
    assert_eq!(points.len(), trace.intervals);
    let counted: u64 = points.iter().map(|p| p.u64_at("count")).sum();
    assert_eq!(
        counted, trace.reads,
        "every driven read must land in exactly one interval"
    );
    assert!(
        trace.pull < trace.revive && trace.revive < trace.intervals,
        "failure window must sit inside the trace"
    );
    r.line(format!(
        "\nself-check OK: {} reads across {} intervals.",
        counted, trace.intervals
    ));
}
