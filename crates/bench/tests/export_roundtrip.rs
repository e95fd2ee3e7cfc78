//! Round-trip test for the observability export: build a small run
//! that exercises every export section — metrics, slow-op captures,
//! the flight recorder's time-series, and an SLO incident — then parse
//! `export_observability_json()` back with `purity_obs::json` and
//! assert the schema the docs promise, field by field.

use purity_core::{ArrayConfig, FlashArray};
use purity_obs::json::parse_json;

/// A deterministic run that populates all four export sections. An
/// impossibly tight SLO budget (1 ns) guarantees the paced reads open
/// an incident, and the idle tail's healthy intervals close it.
fn exported_run() -> String {
    let mut cfg = ArrayConfig::test_small();
    cfg.cache_bytes = 0;
    cfg.obs.recorder.interval_ns = 1_000_000;
    cfg.obs.slow_op_threshold = 1;
    cfg.obs.recorder.slo.p999_budget_ns = 1;
    cfg.obs.recorder.slo.min_interval_count = 4;
    cfg.obs.recorder.slo.cooldown_intervals = 2;
    let mut a = FlashArray::new(cfg).expect("format");
    let vol = a.create_volume("rt", 1 << 20).unwrap();
    // Distinct byte stream: constant fill would dedup into a single
    // cblock that never leaves the pending buffer, and pending-buffer
    // reads bypass the per-path read classification entirely.
    let data: Vec<u8> = (0..256 * 1024u64)
        .map(|i| (i.wrapping_mul(2654435761) >> 16) as u8)
        .collect();
    a.write(vol, 0, &data).unwrap();
    // Force the open segment to flash — pending-buffer hits would skip
    // both the media counters and the drive-level latency model.
    a.checkpoint().unwrap();
    a.advance(30_000_000);
    for i in 0..32u64 {
        a.read(vol, (i * 4096) % (1 << 18), 4096).unwrap();
        a.advance(250_000);
    }
    // Idle long enough for the cooldown streak to close the incident.
    a.advance(10_000_000);
    a.export_observability_json()
}

#[test]
fn export_parses_and_carries_the_documented_schema() {
    let export = exported_run();
    let doc = parse_json(&export).expect("export must be valid JSON");

    // -- metrics: counters/gauges/histograms with name/labels/value(s).
    let counters = doc
        .path("metrics.counters")
        .and_then(|v| v.as_array())
        .expect("metrics.counters");
    let read_paths: Vec<_> = counters
        .iter()
        .filter(|c| c.get("name").and_then(|n| n.as_str()) == Some("array_reads"))
        .collect();
    assert!(!read_paths.is_empty(), "array_reads counters");
    for c in &read_paths {
        assert!(
            c.path("labels.path").and_then(|p| p.as_str()).is_some(),
            "array_reads carries a path label"
        );
    }
    let total_reads: u64 = read_paths
        .iter()
        .filter_map(|c| c.get("value").and_then(|v| v.as_u64()))
        .sum();
    // Classification is per media fetch (cblock), not per user read.
    assert!(total_reads > 0, "reads must reach the media counters");
    let hists = doc
        .path("metrics.histograms")
        .and_then(|v| v.as_array())
        .expect("metrics.histograms");
    let read_hist = hists
        .iter()
        .find(|h| h.get("name").and_then(|n| n.as_str()) == Some("array_read_latency"))
        .expect("array_read_latency histogram");
    for field in [
        "count", "mean_ns", "min_ns", "max_ns", "p50_ns", "p95_ns", "p99_ns", "p999_ns",
    ] {
        assert!(
            read_hist.path(&format!("summary.{field}")).is_some() || read_hist.get(field).is_some(),
            "histogram summary field {field}"
        );
    }

    // -- slow_ops: captures with kind/latency and per-stage spans.
    let slow = doc
        .path("slow_ops")
        .and_then(|v| v.as_array())
        .expect("slow_ops");
    assert!(!slow.is_empty(), "1 ns threshold must capture ops");
    let op = &slow[0];
    for field in ["kind", "issued_at_ns", "completed_at_ns", "latency_ns"] {
        assert!(op.get(field).is_some(), "slow op field {field}");
    }
    let stages = op.get("stages").and_then(|v| v.as_array()).expect("stages");
    for field in ["stage", "start_ns", "end_ns", "duration_ns"] {
        assert!(stages[0].get(field).is_some(), "stage field {field}");
    }

    // -- timeseries: the interval grid plus per-series parallel arrays.
    for field in [
        "interval_ns",
        "epoch_ns",
        "first_start_ns",
        "intervals",
        "dropped_intervals",
    ] {
        assert!(
            doc.path(&format!("timeseries.{field}")).is_some(),
            "timeseries field {field}"
        );
    }
    assert_eq!(
        doc.path("timeseries.interval_ns").and_then(|v| v.as_u64()),
        Some(1_000_000)
    );
    let n = doc
        .path("timeseries.intervals")
        .and_then(|v| v.as_u64())
        .unwrap() as usize;
    assert!(n > 0, "run must close intervals");
    let ts_hists = doc
        .path("timeseries.histograms")
        .and_then(|v| v.as_array())
        .expect("timeseries.histograms");
    let series = ts_hists
        .iter()
        .find(|h| h.get("name").and_then(|x| x.as_str()) == Some("array_read_latency"))
        .expect("read latency series");
    let mut counted = 0;
    for field in ["count", "p50_ns", "p99_ns", "p999_ns", "max_ns"] {
        let arr = series
            .get(field)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("series array {field}"));
        assert_eq!(arr.len(), n, "series {field} spans every interval");
        if field == "count" {
            counted = arr.iter().filter_map(|v| v.as_u64()).sum::<u64>();
        }
    }
    assert_eq!(counted, 32, "every read lands in exactly one interval");
    let ts_counters = doc
        .path("timeseries.counters")
        .and_then(|v| v.as_array())
        .expect("timeseries.counters");
    let deltas = ts_counters
        .iter()
        .find(|c| c.get("name").and_then(|x| x.as_str()) == Some("array_logical_bytes_read"))
        .and_then(|c| c.get("deltas"))
        .and_then(|v| v.as_array())
        .expect("logical bytes read deltas");
    assert_eq!(deltas.len(), n);
    assert_eq!(
        deltas.iter().filter_map(|v| v.as_u64()).sum::<u64>(),
        32 * 4096,
        "counter deltas reassemble the cumulative total"
    );

    // -- incidents: opened by the 1 ns budget, closed by the idle tail.
    let incidents = doc
        .path("incidents")
        .and_then(|v| v.as_array())
        .expect("incidents");
    assert_eq!(incidents.len(), 1, "one incident for the whole burst");
    let inc = &incidents[0];
    for field in [
        "id",
        "opened_at_ns",
        "open",
        "closed_at_ns",
        "budget_ns",
        "peak_p999_ns",
        "violating_intervals",
        "trigger",
        "slow_ops",
        "evidence",
    ] {
        assert!(inc.get(field).is_some(), "incident field {field}");
    }
    assert_eq!(inc.path("budget_ns").and_then(|v| v.as_u64()), Some(1));
    assert!(
        inc.path("trigger.count").and_then(|v| v.as_u64()).unwrap() >= 4,
        "trigger interval carries its stats"
    );
    let evidence = inc
        .get("evidence")
        .and_then(|v| v.as_array())
        .expect("evidence sections");
    for section in ["array", "drives", "gauges"] {
        assert!(
            evidence
                .iter()
                .any(|s| s.get("section").and_then(|x| x.as_str()) == Some(section)),
            "evidence section {section}"
        );
    }
}
