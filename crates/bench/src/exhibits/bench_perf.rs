//! Canonical simulator-throughput benchmark: the perf trajectory every
//! perf-affecting PR appends to.
//!
//! Runs a fixed matrix of representative workloads with the wall-clock
//! profiler (`purity_obs::profiler`) enabled, and records what the
//! *simulator itself* costs: events processed, wall milliseconds,
//! events per wall second, simulated-seconds per wall-second, and the
//! per-plane wall-time breakdown (shares of self time, summing to
//! ~100%). Results merge into `BENCH_perf.json` at the repo root —
//! entries are keyed by `(label, mode)`, so re-running with the same
//! label replaces that entry while the rest of the trajectory is
//! preserved. Perf PRs claim their speedups against this file.
//!
//! Wall time is nondeterministic, so `BENCH_perf.json` is a perf *log*,
//! not a golden output: the self-check and the `--check` baseline
//! comparison validate schema and deterministic quantities (workload
//! names, plane sets, event counts) with tolerances, never absolute
//! wall numbers. For the same reason the registry entry has no gate,
//! and the measured table is printed to stderr, not into the report.
//!
//! Usage:
//!   exhibit bench_perf [--smoke] [--label NAME] [--check PATH]
//!
//! `--smoke` shrinks every workload for CI; `--check PATH` compares
//! this run against the committed baseline at PATH (same mode) and
//! fails on schema drift. Entries up to PR 17 carry a `threads` field
//! (always 1) from when the simulator had a worker pool; nothing reads
//! it.

use super::{exp_host_qd, exp_tail_latency};
use crate::{drive, enterprise_mix, flag, format_table, preload, results_dir, value, Report};
use purity_cluster::{Cluster, ClusterSpec};
use purity_core::{ArrayConfig, FlashArray, SECTOR};
use purity_obs::json::{parse_json, JsonValue, JsonWriter};
use purity_obs::profiler::{self, ProfileSnapshot};
use purity_repl::{LinkConfig, ReplFabric, ReplicaLink};
use purity_sim::{MS, SEC};
use purity_wkld::{AccessPattern, ContentModel, SizeMix, WorkloadGen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Instant;

/// Schema tag; bump on any breaking change to the entry layout.
const SCHEMA: &str = "bench_perf/v1";

/// Fields every workload object must carry (the ISSUE-6 schema).
const REQUIRED_FIELDS: [&str; 6] = [
    "workload",
    "events",
    "wall_ms",
    "events_per_sec",
    "sim_ratio",
    "plane_breakdown",
];

/// One measured workload.
struct WorkloadResult {
    name: &'static str,
    events: u64,
    wall_ns: u64,
    sim_ns: u64,
    snapshot: ProfileSnapshot,
}

impl WorkloadResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    fn sim_ratio(&self) -> f64 {
        self.sim_ns as f64 / self.wall_ns.max(1) as f64
    }

    fn to_json(&self) -> String {
        let mut breakdown = JsonWriter::array();
        for stat in &self.snapshot.planes {
            let mut p = JsonWriter::object();
            p.str_field("plane", stat.plane)
                .f64_field("share_pct", self.snapshot.share_pct(stat))
                .f64_field("self_ms", stat.self_ns as f64 / 1e6)
                .u64_field("events", stat.events);
            breakdown.raw_element(&p.finish());
        }
        let mut w = JsonWriter::object();
        w.str_field("workload", self.name)
            .u64_field("events", self.events)
            .f64_field("wall_ms", self.wall_ns as f64 / 1e6)
            .f64_field("events_per_sec", self.events_per_sec())
            .f64_field("sim_ratio", self.sim_ratio())
            .raw_field("plane_breakdown", &breakdown.finish());
        w.finish()
    }
}

/// Runs `f` (which returns the virtual ns it advanced the clock by)
/// with the profiler on, capturing wall time and the plane breakdown.
fn measure(name: &'static str, f: impl FnOnce() -> u64) -> WorkloadResult {
    profiler::reset();
    profiler::enable();
    let wall = Instant::now();
    let sim_ns = f();
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let snapshot = profiler::snapshot();
    profiler::disable();
    WorkloadResult {
        name,
        events: snapshot.events(),
        wall_ns,
        sim_ns,
        snapshot,
    }
}

/// W1: the E2 mini array — Zipfian 70/30 enterprise mix at moderate
/// offered load. Exercises the read path, dedup/compression, and the
/// per-die timelines; setup (volume preload) is not profiled.
fn wl_tail(smoke: bool) -> WorkloadResult {
    let (mut a, vol, mut gen) = exp_tail_latency::setup(true, false);
    let ops = if smoke { 1200 } else { 6000 };
    measure("tail_mini_array", || {
        let start = a.now();
        drive(&mut a, vol, &mut gen, ops, 0);
        a.now() - start
    })
}

/// W2: closed-loop host front end at 32 outstanding ops (4 initiators
/// × QD 8) against a cache-starved array, so dispatch, retries and
/// per-die queueing all run.
fn wl_host(smoke: bool) -> WorkloadResult {
    let vol_bytes: u64 = if smoke { 16 << 20 } else { 48 << 20 };
    let (mut a, vol, engine, mut gen) = exp_host_qd::setup(32, vol_bytes);
    let ops = if smoke { 800 } else { 4000 };
    measure("host_qd32", || {
        let start = a.now();
        engine.run_closed_loop(&mut a, vol, &mut gen, ops, None);
        a.now() - start
    })
}

/// W3: overwrite churn with frequent GC passes — the write path's
/// worst case (segment GC, FTL relocations, map flattening).
fn wl_gc_storm(smoke: bool) -> WorkloadResult {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol_bytes: u64 = 8 << 20;
    let vol = a.create_volume("churn", vol_bytes).unwrap();
    let mut gen = WorkloadGen::new(
        29,
        vol_bytes,
        AccessPattern::Uniform,
        SizeMix::fixed(64 * 1024),
        10,
        ContentModel::Rdbms,
        100_000,
    );
    let ops = if smoke { 500 } else { 2500 };
    measure("gc_storm", || {
        let start = a.now();
        drive(&mut a, vol, &mut gen, ops, 25);
        a.now() - start
    })
}

/// W4: DR replication — seed ship plus incremental deltas over a
/// moderately flapping 25 MB/s WAN link, including the source writes
/// that produce the deltas.
fn wl_repl(smoke: bool) -> WorkloadResult {
    let mut src = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let mut dst = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let size = if smoke { 1usize << 20 } else { 2usize << 20 };
    let vol = src.create_volume("prod", size as u64).unwrap();
    let cfg = LinkConfig::flaky(25 << 20, 0xF1A9, 40 * MS, 10 * MS);
    let mut fabric = ReplFabric::new(ReplicaLink::with_config(cfg));
    let pg = fabric.protect(&src, vol, "prod", SEC).unwrap();
    let mut rng = StdRng::seed_from_u64(0xBE9C);
    let rounds = if smoke { 1 } else { 3 };
    measure("repl_ship", || {
        let start = src.now();
        for round in 0..=rounds {
            let writes = if round == 0 { 24 } else { 8 };
            for _ in 0..writes {
                let len = SECTOR << rng.gen_range(0..6u32);
                let off = rng.gen_range(0..(size - len) / SECTOR) * SECTOR;
                let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                src.write(vol, off as u64, &data).unwrap();
            }
            src.advance(5 * MS);
            let mut report = fabric.ship_now(pg, &mut src, &mut dst).unwrap();
            let mut guard = 0;
            while !report.completed {
                src.advance(100 * MS);
                report = fabric.resume(pg, &mut src, &mut dst).unwrap();
                guard += 1;
                assert!(guard <= 500, "repl_ship: transfer never completed");
            }
        }
        src.now() - start
    })
}

/// W5: cluster-wide rebuild — a 3-array cluster loses one member
/// mid-traffic; SWIM detection, placement rehoming and dedup-aware
/// shard re-shipping all run against continuing foreground writes.
fn wl_cluster(smoke: bool) -> WorkloadResult {
    let mut c = Cluster::new(ClusterSpec::test_small(3, 0xC15)).unwrap();
    let size = if smoke { 1usize << 20 } else { 2usize << 20 };
    let vol = c.create_volume("db", size as u64).unwrap();
    let mut client = c.client();
    let mut rng = StdRng::seed_from_u64(0xC15_7E12);
    let ops = if smoke { 24 } else { 96 };
    measure("cluster_rebuild", || {
        let start = c.now();
        for op in 0..ops {
            if op == ops / 3 {
                c.kill(1);
            }
            let len = SECTOR << rng.gen_range(0..4u32);
            let off = rng.gen_range(0..(size - len) / SECTOR) * SECTOR;
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            c.write(&mut client, vol, off as u64, &data).unwrap();
            c.tick(40 * MS);
        }
        let mut guard = 0;
        while !(c.epoch() > 1 && c.fully_redundant()) {
            c.tick(100 * MS);
            guard += 1;
            assert!(guard <= 1200, "cluster_rebuild: never stabilized");
        }
        c.now() - start
    })
}

/// W6: the five-minute-rule tiering engine — read-heavy Zipfian
/// traffic on a tiered array with a mid-run working-set shift, so the
/// RAM LRU cache, heat classification and the migrator (demotions, cold
/// reads, promotions) all run inside the measured window.
fn wl_tier(smoke: bool) -> WorkloadResult {
    let mut a = FlashArray::new(ArrayConfig::tiered()).unwrap();
    let vol_bytes: u64 = 4 << 20;
    let hot = a.create_volume("hot", vol_bytes).unwrap();
    let alt = a.create_volume("alt", vol_bytes).unwrap();
    for vol in [hot, alt] {
        preload(&mut a, vol, 41, 64 * 1024, ContentModel::Rdbms, 50_000, vol_bytes / (64 * 1024));
    }
    a.advance(100 * MS);
    let gen = |seed| enterprise_mix(seed, vol_bytes, 90, 400_000);
    let (mut g_hot, mut g_alt, mut g_back) = (gen(43), gen(47), gen(53));
    let ops = if smoke { 300 } else { 1500 };
    measure("tier_cache", || {
        let start = a.now();
        // Day: the hot volume's working set warms the RAM cache.
        drive(&mut a, hot, &mut g_hot, ops, 0);
        // Night: the working set shifts; `hot` idles past the demote
        // threshold and the migrator copies it to the cold class.
        for _ in 0..12 {
            a.advance(50 * MS);
        }
        drive(&mut a, alt, &mut g_alt, ops, 0);
        // Morning: the shift reverses — cold reads, then promotions.
        drive(&mut a, hot, &mut g_back, ops, 0);
        a.now() - start
    })
}

/// Builds one trajectory entry.
fn entry_json(label: &str, mode: &str, results: &[WorkloadResult]) -> String {
    let mut workloads = JsonWriter::array();
    for r in results {
        workloads.raw_element(&r.to_json());
    }
    let mut w = JsonWriter::object();
    w.str_field("label", label)
        .str_field("mode", mode)
        .raw_field("workloads", &workloads.finish());
    w.finish()
}

/// Merges `new_entry` into the trajectory file: existing entries are
/// preserved except any with the same `(label, mode)`, which the new
/// entry replaces. Unreadable or mismatched-schema files start fresh.
fn merge_trajectory(path: &PathBuf, label: &str, mode: &str, new_entry: &str) -> String {
    let mut kept: Vec<String> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(doc) = parse_json(&text) {
            let schema_ok = doc.path("schema").and_then(|v| v.as_str()) == Some(SCHEMA);
            if schema_ok {
                for e in doc
                    .path("entries")
                    .and_then(|v| v.as_array())
                    .unwrap_or(&[])
                {
                    let same = e.path("label").and_then(|v| v.as_str()) == Some(label)
                        && e.path("mode").and_then(|v| v.as_str()) == Some(mode);
                    if !same {
                        kept.push(e.to_json_string());
                    }
                }
            }
        }
    }
    kept.push(new_entry.to_string());
    let mut entries = JsonWriter::array();
    for e in &kept {
        entries.raw_element(e);
    }
    let mut w = JsonWriter::object();
    w.str_field("schema", SCHEMA)
        .raw_field("entries", &entries.finish());
    w.finish()
}

/// Validates a whole trajectory document: schema tag, and every
/// workload of every entry carries the required fields with sane
/// values (shares summing to ~100%).
fn validate_doc(doc: &JsonValue) -> Result<(), String> {
    if doc.path("schema").and_then(|v| v.as_str()) != Some(SCHEMA) {
        return Err(format!("schema tag is not {SCHEMA:?}"));
    }
    let entries = doc
        .path("entries")
        .and_then(|v| v.as_array())
        .ok_or("missing entries array")?;
    if entries.is_empty() {
        return Err("entries array is empty".into());
    }
    for e in entries {
        let label = e
            .path("label")
            .and_then(|v| v.as_str())
            .ok_or("entry missing label")?;
        e.path("mode")
            .and_then(|v| v.as_str())
            .ok_or("entry missing mode")?;
        let workloads = e
            .path("workloads")
            .and_then(|v| v.as_array())
            .ok_or("entry missing workloads")?;
        if workloads.is_empty() {
            return Err(format!("entry {label:?} has no workloads"));
        }
        for wl in workloads {
            for field in REQUIRED_FIELDS {
                if wl.get(field).is_none() {
                    return Err(format!("entry {label:?}: workload missing {field:?}"));
                }
            }
            let name = wl.path("workload").and_then(|v| v.as_str()).unwrap_or("?");
            let events = wl.path("events").and_then(|v| v.as_u64()).unwrap_or(0);
            if events == 0 {
                return Err(format!("{label}/{name}: zero events"));
            }
            if wl.path("wall_ms").and_then(|v| v.as_f64()).unwrap_or(0.0) <= 0.0 {
                return Err(format!("{label}/{name}: non-positive wall_ms"));
            }
            if wl
                .path("events_per_sec")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
                <= 0.0
            {
                return Err(format!("{label}/{name}: non-positive events_per_sec"));
            }
            if wl.path("sim_ratio").and_then(|v| v.as_f64()).unwrap_or(0.0) <= 0.0 {
                return Err(format!("{label}/{name}: non-positive sim_ratio"));
            }
            let breakdown = wl
                .path("plane_breakdown")
                .and_then(|v| v.as_array())
                .ok_or_else(|| format!("{label}/{name}: plane_breakdown not an array"))?;
            if breakdown.is_empty() {
                return Err(format!("{label}/{name}: empty plane_breakdown"));
            }
            let share_sum: f64 = breakdown
                .iter()
                .map(|p| p.path("share_pct").and_then(|v| v.as_f64()).unwrap_or(0.0))
                .sum();
            if (share_sum - 100.0).abs() > 2.0 {
                return Err(format!(
                    "{label}/{name}: plane shares sum to {share_sum:.2}%, expected ~100%"
                ));
            }
        }
    }
    Ok(())
}

/// Workload name → sorted plane names, from one entry.
fn plane_map(entry: &JsonValue) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    for wl in entry
        .path("workloads")
        .and_then(|v| v.as_array())
        .unwrap_or(&[])
    {
        let name = wl
            .path("workload")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string();
        let mut planes: Vec<String> = wl
            .path("plane_breakdown")
            .and_then(|v| v.as_array())
            .unwrap_or(&[])
            .iter()
            .filter_map(|p| p.path("plane").and_then(|v| v.as_str()))
            .map(str::to_string)
            .collect();
        planes.sort();
        out.push((name, planes));
    }
    out.sort();
    out
}

/// Tolerance-based baseline comparison: fails on schema drift (field
/// sets, workload matrix, plane sets) and on deterministic quantities
/// (event counts) moving beyond a generous band — never on wall time,
/// which is machine-dependent by nature.
fn check_against_baseline(
    baseline_path: &str,
    mode: &str,
    fresh: &JsonValue,
) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("baseline does not parse: {e}"))?;
    validate_doc(&doc).map_err(|e| format!("baseline invalid: {e}"))?;
    let entries = doc.path("entries").and_then(|v| v.as_array()).unwrap();
    let base = entries
        .iter()
        .rfind(|e| e.path("mode").and_then(|v| v.as_str()) == Some(mode))
        .ok_or_else(|| format!("baseline has no {mode:?}-mode entry"))?;

    let base_planes = plane_map(base);
    let fresh_planes = plane_map(fresh);
    let base_names: Vec<&String> = base_planes.iter().map(|(n, _)| n).collect();
    let fresh_names: Vec<&String> = fresh_planes.iter().map(|(n, _)| n).collect();
    if base_names != fresh_names {
        return Err(format!(
            "workload matrix drifted: baseline {base_names:?} vs current {fresh_names:?}"
        ));
    }
    for ((name, base_set), (_, fresh_set)) in base_planes.iter().zip(fresh_planes.iter()) {
        if base_set != fresh_set {
            return Err(format!(
                "{name}: plane set drifted: baseline {base_set:?} vs current {fresh_set:?}"
            ));
        }
    }
    // Event counts are virtual-time-deterministic, so they should be
    // stable per mode across machines; a >1.5× move means the workload
    // or the instrumentation changed without a baseline refresh.
    let events_of = |e: &JsonValue| -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = e
            .path("workloads")
            .and_then(|w| w.as_array())
            .unwrap_or(&[])
            .iter()
            .map(|wl| {
                (
                    wl.path("workload")
                        .and_then(|v| v.as_str())
                        .unwrap_or("?")
                        .to_string(),
                    wl.path("events").and_then(|v| v.as_u64()).unwrap_or(0),
                )
            })
            .collect();
        v.sort();
        v
    };
    for ((name, base_ev), (_, fresh_ev)) in events_of(base).iter().zip(events_of(fresh).iter()) {
        let ratio = *fresh_ev.max(&1) as f64 / *base_ev.max(&1) as f64;
        if !(1.0 / 1.5..=1.5).contains(&ratio) {
            return Err(format!(
                "{name}: event count drifted {base_ev} -> {fresh_ev} (ratio {ratio:.2}); \
                 refresh the baseline if the workload intentionally changed"
            ));
        }
    }
    Ok(())
}

/// Completion-time blame folding is the causal-tracing spine's only
/// per-op hot-path cost (ISSUE 9 budgeted it at 5% wall). This runs the
/// same deterministic workload with folding off and on (interleaved,
/// min of three runs per arm) and prints the ratio. It is reported, not
/// gated: `--check` fails only on deterministic quantities, and a ratio
/// of two ~100 ms wall arms moves more than 5% on a shared box. The
/// tracked number is the scorecard's `obs.trace_overhead_ratio`.
fn report_tracing_overhead(smoke: bool) {
    let ops = if smoke { 800 } else { 4000 };
    let run = |fold: bool| -> u64 {
        let mut a = FlashArray::new(ArrayConfig::bench_medium()).unwrap();
        let vol_bytes: u64 = 32 << 20;
        let vol = a.create_volume("db", vol_bytes).unwrap();
        preload(&mut a, vol, 3, 128 * 1024, ContentModel::Rdbms, 50_000, 200);
        a.advance(10 * SEC);
        a.obs().tracer.set_fold_enabled(fold);
        let mut gen = enterprise_mix(5, vol_bytes, 70, 650_000);
        let wall = Instant::now();
        drive(&mut a, vol, &mut gen, ops, 0);
        wall.elapsed().as_nanos() as u64
    };
    let (mut off, mut on) = (u64::MAX, u64::MAX);
    for _ in 0..3 {
        off = off.min(run(false));
        on = on.min(run(true));
    }
    let ratio = on as f64 / off.max(1) as f64;
    eprintln!(
        "\ntracing overhead: fold-on/fold-off wall ratio {ratio:.3} \
         (min of 3 per arm; reported, not gated)"
    );
}

pub fn run(args: &[String], r: &mut Report) {
    let smoke = flag(args, "--smoke");
    let label: String = value(args, "--label").unwrap_or_else(|| "baseline".to_string());
    let check: Option<String> = value(args, "--check");
    let mode = if smoke { "smoke" } else { "full" };

    r.line(format!(
        "=== bench_perf: simulator throughput matrix ({mode}) ==="
    ));
    let results = vec![
        wl_tail(smoke),
        wl_host(smoke),
        wl_gc_storm(smoke),
        wl_repl(smoke),
        wl_cluster(smoke),
        wl_tier(smoke),
    ];

    let mut rows = Vec::new();
    for w in &results {
        let top = w
            .snapshot
            .planes
            .first()
            .map(|p| format!("{} {:.0}%", p.plane, w.snapshot.share_pct(p)))
            .unwrap_or_default();
        rows.push(vec![
            w.name.to_string(),
            w.events.to_string(),
            format!("{:.1}", w.wall_ns as f64 / 1e6),
            format!("{:.0}", w.events_per_sec()),
            format!("{:.1}", w.sim_ratio()),
            top,
        ]);
    }
    let table = format_table(
        "simulator cost per workload",
        &[
            "workload",
            "events",
            "wall ms",
            "events/s",
            "sim_s/wall_s",
            "top plane",
        ],
        &rows,
    );
    eprint!("{table}");

    let entry = entry_json(&label, mode, &results);
    let fresh = parse_json(&entry).expect("entry must parse");

    // Baseline comparison runs against the file as committed, before
    // this run's entry is merged in.
    if let Some(path) = check {
        match check_against_baseline(&path, mode, &fresh) {
            Ok(()) => r.line(format!("\nbaseline check OK against {path}")),
            Err(e) => panic!("baseline check FAILED: {e}"),
        }
        report_tracing_overhead(smoke);
    }

    let out = results_dir().with_file_name("BENCH_perf.json");
    let doc = merge_trajectory(&out, &label, mode, &entry);
    std::fs::write(&out, &doc).expect("write BENCH_perf.json");
    eprintln!("wrote {}", out.display());

    // Self-check: the merged file parses and every entry (old and new)
    // satisfies the schema.
    let parsed = parse_json(&std::fs::read_to_string(&out).expect("read back")).expect("parse");
    if let Err(e) = validate_doc(&parsed) {
        panic!("self-check FAILED: {e}");
    }
    r.line(format!(
        "self-check OK: schema {SCHEMA}, shares sum to ~100% in every entry."
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_baseline(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!("bench_perf_test_{name}.json"));
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn minimal_workload(name: &str, events: u64) -> String {
        format!(
            r#"{{"workload":"{name}","events":{events},"wall_ms":1.0,
               "events_per_sec":1000.0,"sim_ratio":1.0,
               "plane_breakdown":[{{"plane":"lsm","share_pct":100.0,
               "self_ms":1.0,"events":{events}}}]}}"#
        )
    }

    fn entry(label: &str, mode: &str, events: u64) -> String {
        format!(
            r#"{{"label":"{label}","mode":"{mode}","workloads":[{}]}}"#,
            minimal_workload("tail_mini_array", events)
        )
    }

    fn doc(entries: &[String]) -> String {
        format!(
            r#"{{"schema":"{SCHEMA}","entries":[{}]}}"#,
            entries.join(",")
        )
    }

    #[test]
    fn check_fails_on_missing_baseline_file() {
        let fresh = parse_json(&entry("x", "full", 10)).unwrap();
        let err = check_against_baseline("/nonexistent/bench_perf_baseline.json", "full", &fresh)
            .unwrap_err();
        assert!(err.contains("cannot read baseline"), "got: {err}");
    }

    #[test]
    fn check_fails_when_trajectory_is_empty() {
        // The "flat trajectory" case: a schema-valid file with zero
        // entries must fail the check, not pass vacuously.
        let path = temp_baseline("empty", &doc(&[]));
        let fresh = parse_json(&entry("x", "full", 10)).unwrap();
        let err = check_against_baseline(&path, "full", &fresh).unwrap_err();
        assert!(err.contains("empty"), "got: {err}");
    }

    #[test]
    fn check_fails_when_no_comparable_mode_entry() {
        let path = temp_baseline("mode", &doc(&[entry("base", "smoke", 10)]));
        let fresh = parse_json(&entry("x", "full", 10)).unwrap();
        let err = check_against_baseline(&path, "full", &fresh).unwrap_err();
        assert!(err.contains("no \"full\"-mode entry"), "got: {err}");
    }

    #[test]
    fn check_passes_against_a_comparable_entry() {
        let path = temp_baseline("ok", &doc(&[entry("base", "full", 10)]));
        let fresh = parse_json(&entry("x", "full", 12)).unwrap();
        check_against_baseline(&path, "full", &fresh).unwrap();
    }

    #[test]
    fn check_fails_on_event_count_drift() {
        let path = temp_baseline("drift", &doc(&[entry("base", "full", 10)]));
        let fresh = parse_json(&entry("x", "full", 100)).unwrap();
        let err = check_against_baseline(&path, "full", &fresh).unwrap_err();
        assert!(err.contains("drifted"), "got: {err}");
    }
}
