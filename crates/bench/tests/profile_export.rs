//! The wall-clock profiler's export contract, verified end to end:
//!
//! * the `"profile"` section round-trips through `purity_obs::json`
//!   with the documented schema and shares summing to ~100%;
//! * same-seed runs export byte-identical *deterministic* sections
//!   with the profiler enabled — the profile section is the only thing
//!   allowed to differ, and stripping it recovers exactly the document
//!   a profiler-off run exports.
//!
//! The profiler is process-global, so every test here serializes on
//! one mutex (this integration binary is its own process; other test
//! binaries never see the profiler enabled).

use purity_bench::drive;
use purity_core::{ArrayConfig, FlashArray};
use purity_obs::json::{parse_json, JsonValue};
use purity_obs::profiler;
use purity_wkld::{AccessPattern, ContentModel, SizeMix, WorkloadGen};
use std::sync::Mutex;

static PROFILER_LOCK: Mutex<()> = Mutex::new(());

/// A small mixed run with telemetry sampling on a 1 ms grid.
fn telemetry_run(seed: u64) -> String {
    let mut cfg = ArrayConfig::test_small();
    cfg.obs.recorder.interval_ns = 1_000_000;
    let mut a = FlashArray::new(cfg).expect("format");
    let vol = a.create_volume("prof", 4 << 20).unwrap();
    let mut gen = WorkloadGen::new(
        seed,
        4 << 20,
        AccessPattern::Uniform,
        SizeMix::fixed(16 * 1024),
        60,
        ContentModel::Rdbms,
        200_000,
    );
    drive(&mut a, vol, &mut gen, 150, 40);
    a.export_observability_json()
}

#[test]
fn profile_section_round_trips_through_bench_json() {
    let _l = PROFILER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    profiler::reset();
    profiler::enable();
    let export = telemetry_run(11);
    profiler::disable();

    let doc = parse_json(&export).expect("profiled export must parse");
    let profile = doc.get("profile").expect("profile section present");
    assert_eq!(profile.get("enabled"), Some(&JsonValue::Bool(true)));
    for field in ["wall_ns", "events", "events_per_sec"] {
        assert!(
            profile.get(field).and_then(|v| v.as_f64()).unwrap_or(-1.0) >= 0.0,
            "profile field {field}"
        );
    }
    assert!(
        profile.path("events").and_then(|v| v.as_u64()).unwrap() > 0,
        "the run must record events"
    );
    let planes = profile
        .get("planes")
        .and_then(|v| v.as_array())
        .expect("planes array");
    assert!(!planes.is_empty(), "hot planes must appear");
    let mut share_sum = 0.0;
    let mut prev_self = u64::MAX;
    for p in planes {
        for field in ["plane", "events", "self_ns", "total_ns", "share_pct"] {
            assert!(p.get(field).is_some(), "plane field {field}");
        }
        let self_ns = p.path("self_ns").and_then(|v| v.as_u64()).unwrap();
        assert!(self_ns <= prev_self, "planes sorted by self_ns descending");
        prev_self = self_ns;
        share_sum += p.path("share_pct").and_then(|v| v.as_f64()).unwrap();
    }
    assert!(
        (share_sum - 100.0).abs() < 0.01,
        "shares sum to ~100%, got {share_sum}"
    );
    // The run drives the array and LSM paths, so those planes must be
    // attributed.
    let names: Vec<&str> = planes
        .iter()
        .filter_map(|p| p.path("plane").and_then(|v| v.as_str()))
        .collect();
    for expected in ["array_write", "array_read", "lsm", "gc"] {
        assert!(names.contains(&expected), "plane {expected} in {names:?}");
    }
}

#[test]
fn same_seed_exports_are_byte_identical_with_profiler_enabled() {
    let _l = PROFILER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // Reference document: profiler off — no profile section at all.
    profiler::disable();
    profiler::reset();
    let plain = telemetry_run(42);
    assert!(
        !plain.contains("\"profile\""),
        "disabled profiler must not export a profile section"
    );

    profiler::reset();
    profiler::enable();
    let first = telemetry_run(42);
    let second = telemetry_run(42);
    profiler::disable();

    // The deterministic sections must be byte-identical across
    // same-seed runs even though wall-clock profiling was live...
    assert!(first.contains("\"profile\""), "profiled export tagged");
    assert_eq!(
        profiler::strip_profile_section(&first),
        profiler::strip_profile_section(&second),
        "profiling must not perturb the deterministic export"
    );
    // ...and identical to what a profiler-off run exports: enabling
    // the profiler only *appends*, never changes, the document.
    assert_eq!(profiler::strip_profile_section(&first), plain);

    // Sanity: the stripped document still parses and kept every
    // deterministic section.
    let stripped = parse_json(&profiler::strip_profile_section(&first)).expect("stripped parses");
    for section in ["metrics", "slow_ops", "timeseries", "incidents"] {
        assert!(stripped.get(section).is_some(), "section {section} kept");
    }
    assert!(stripped.get("profile").is_none());
}

#[test]
fn bench_perf_entry_schema_validates_via_parser() {
    let _l = PROFILER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A miniature bench_perf-style measurement: profile one workload
    // and build the {workload, events, wall_ms, events_per_sec,
    // sim_ratio, plane_breakdown} object the trajectory file commits.
    profiler::reset();
    profiler::enable();
    let _export = telemetry_run(7);
    let snap = profiler::snapshot();
    profiler::disable();

    let mut breakdown = purity_obs::json::JsonWriter::array();
    for stat in &snap.planes {
        let mut p = purity_obs::json::JsonWriter::object();
        p.str_field("plane", stat.plane)
            .f64_field("share_pct", snap.share_pct(stat))
            .f64_field("self_ms", stat.self_ns as f64 / 1e6)
            .u64_field("events", stat.events);
        breakdown.raw_element(&p.finish());
    }
    let mut w = purity_obs::json::JsonWriter::object();
    w.str_field("workload", "mini")
        .u64_field("events", snap.events())
        .f64_field("wall_ms", snap.wall_ns as f64 / 1e6)
        .f64_field("events_per_sec", snap.events_per_sec())
        .f64_field("sim_ratio", snap.sim_ratio(1_000_000))
        .raw_field("plane_breakdown", &breakdown.finish());
    let entry = w.finish();

    let doc = parse_json(&entry).expect("entry parses");
    for field in [
        "workload",
        "events",
        "wall_ms",
        "events_per_sec",
        "sim_ratio",
        "plane_breakdown",
    ] {
        assert!(doc.get(field).is_some(), "entry field {field}");
    }
    // And the serializer round-trips it (what merge_trajectory relies
    // on to preserve older entries).
    let re = parse_json(&doc.to_json_string()).expect("re-serialized entry parses");
    assert_eq!(re, doc);
}
