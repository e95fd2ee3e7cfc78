//! SLO burn and incident capture (§1, §4.4): the paper's headline
//! promise is 99.9th-percentile read latency under 1 ms. This exhibit
//! drives the flight recorder through a calm / interference / calm
//! arc — a victim volume is read at a steady trickle while, mid-run, a
//! drive is pulled and a noisy neighbour's GC-heavy write storm lands
//! on the survivors with read-around scheduling disabled — and shows
//! the SLO monitor doing its job: per-interval p99.9 crosses the 1 ms
//! budget only inside the interference window, exactly one incident
//! opens with a frozen causal-evidence bundle (per-die busy state,
//! slow-op captures, array GC/rebuild counters, registry gauges), and
//! the cooldown closes it once the storm passes.
//!
//! The JSON carries the summary plus the full observability export.
//! The scenario runs twice
//! from the same seeds and the two exports must be byte-identical —
//! the recorder is as deterministic as the simulation it watches.
//! `--smoke` shrinks the run for CI.

use crate::{drive, preload, flag, settle, Report};
use purity_core::{ArrayConfig, FlashArray};
use purity_obs::json::JsonWriter;
use purity_obs::{Incident, IntervalStats};
use purity_sim::units::format_nanos;
use purity_sim::{Nanos, MS};
use purity_ssd::SsdGeometry;
use purity_wkld::{AccessPattern, ContentModel, SizeMix, WorkloadGen};

/// Telemetry cadence for the exhibit: fine enough that the five-ish
/// millisecond stalls of a GC storm dominate single intervals.
const INTERVAL: Nanos = 5 * MS;
const PULLED_DRIVE: usize = 3;

/// What one scenario run leaves behind for checking and plotting.
struct Trace {
    export: String,
    /// Inclusive interval-index range of the interference window.
    window: (usize, usize),
    read_series: Vec<IntervalStats>,
    violating: Vec<usize>,
    incidents: Vec<Incident>,
    budget: Nanos,
    min_count: u64,
}

fn scenario(smoke: bool) -> Trace {
    // Small drives (4 dies) funnel reads into busy dies; no cache, no
    // read-around, incompressible non-dedupable data — reads must go
    // to flash and take whatever the dies are doing on the chin.
    let mut cfg = ArrayConfig::test_small();
    cfg.cache_bytes = 0;
    cfg.read_around_writes = false;
    cfg.dedup_enabled = false;
    cfg.compression_enabled = false;
    cfg.ssd_geometry = SsdGeometry {
        dies: 4,
        blocks_per_die: 16,
        pages_per_block: 32,
        page_size: 4096,
    };
    cfg.obs.recorder.interval_ns = INTERVAL;
    // The full run's post-storm drain spans thousands of intervals;
    // widen the bounded window so the calm prelude is still in the
    // series when the exhibit checks it.
    cfg.obs.recorder.window_intervals = 16 * 1024;
    cfg.obs.recorder.slo.min_interval_count = 8;
    // A storm interval can dip under budget for a beat; a longer
    // cooldown keeps one incident from reading as several.
    cfg.obs.recorder.slo.cooldown_intervals = 4;
    let budget = cfg.obs.recorder.slo.p999_budget_ns;
    let min_count = cfg.obs.recorder.slo.min_interval_count;
    let mut a = FlashArray::new(cfg).unwrap();
    let vol_bytes: u64 = 2 << 20;
    // Two volumes: the storm lands on `noise` while both calm phases
    // read `slo`. The victim volume is never overwritten, so its
    // segments carry no dead space, GC never fragments its layout, and
    // any tail latency it sees is pure interference — the noisy
    // neighbour plus the pulled drive — not self-inflicted read
    // amplification.
    let vol = a.create_volume("slo", vol_bytes).unwrap();
    let noise = a.create_volume("noise", vol_bytes).unwrap();

    // Preload both volumes so later reads hit real drive blocks, then
    // wait out the flush chains. The victim is written in 4 KiB units:
    // with the cache off a read always fetches the whole stored cblock,
    // so page-sized cblocks keep one calm read = one die fetch even if
    // GC later repacks them onto fewer columns.
    for (v, unit) in [(vol, 4 * 1024), (noise, 64 * 1024)] {
        preload(&mut a, v, 11, unit, ContentModel::Random, 20_000, vol_bytes / unit as u64);
    }
    settle(&mut a);

    let scale: u64 = if smoke { 1 } else { 4 };

    // Phase A — calm: paced read-only traffic, no programs in flight.
    // Sequential 4 KiB reads line up with the preload's page-sized
    // cblocks, so calm latency is flat single-fetch service time
    // rather than sector-offset straddles piling onto a hot die.
    let mut calm = WorkloadGen::new(
        13,
        vol_bytes,
        AccessPattern::Sequential,
        SizeMix::fixed(4096),
        100,
        ContentModel::Random,
        500_000,
    );
    drive(&mut a, vol, &mut calm, 400 * scale, 0);

    // Phase B — interference: pull a drive, then a write-heavy mix
    // with forced GC passes. Reads queue behind 1.3 ms programs and
    // erases; per-interval p99.9 blows through the budget.
    let window_open = a.now();
    a.fail_drive(PULLED_DRIVE);
    let mut storm = WorkloadGen::new(
        17,
        vol_bytes,
        AccessPattern::Uniform,
        SizeMix::fixed(32 * 1024),
        30,
        ContentModel::Random,
        20_000,
    );
    drive(&mut a, noise, &mut storm, 400 * scale, 10);
    // The recorder judges an interval, and an incident freezes its
    // evidence, only once the clock has left it. Keep the drive out for
    // one interval more, so the storm's last interval is judged while it
    // is still pulled.
    a.advance(INTERVAL);
    let rebuild = a.revive_drive(PULLED_DRIVE);
    assert_eq!(rebuild.unrecoverable, 0, "RS must cover a single pull");
    // The storm queues device work well past the clock; idle until the
    // die backlog drains so phase C measures a genuinely calm array.
    // The drain still counts as interference window — reads issued into
    // it would stall behind the leftover programs.
    settle(&mut a);
    let window_close = a.now();

    // Phase C — calm again: the cooldown streak closes the incident.
    let mut calm2 = WorkloadGen::new(
        19,
        vol_bytes,
        AccessPattern::Sequential,
        SizeMix::fixed(4096),
        100,
        ContentModel::Random,
        500_000,
    );
    drive(&mut a, vol, &mut calm2, 400 * scale, 0);

    let export = a.export_observability_json();
    let rec = &a.obs().recorder;
    let first = rec.first_interval_start();
    let idx = |t: Nanos| ((t - first) / INTERVAL) as usize;
    let read_series = rec.hist_series("array_read_latency", &[]);
    let violating = read_series
        .iter()
        .enumerate()
        .filter(|(_, s)| s.count >= min_count && s.p999 > budget)
        .map(|(i, _)| i)
        .collect();
    Trace {
        export,
        window: (idx(window_open), idx(window_close)),
        read_series,
        violating,
        incidents: rec.incidents(),
        budget,
        min_count,
    }
}

pub fn run(args: &[String], r: &mut Report) {
    let smoke = flag(args, "--smoke");
    r.line("=== SLO burn: 1 ms p99.9 read budget under GC storm + drive pull ===");

    let t = scenario(smoke);

    // Determinism: an identical second run must export identical bytes.
    let again = scenario(smoke);
    assert_eq!(
        t.export, again.export,
        "same-seed runs must export byte-identical telemetry"
    );

    r.line(format!(
        "{} intervals of {}; interference window covers intervals {}..={}",
        t.read_series.len(),
        format_nanos(INTERVAL),
        t.window.0,
        t.window.1
    ));
    for (i, s) in t.read_series.iter().enumerate() {
        if s.count == 0 {
            continue;
        }
        let mark = if t.violating.contains(&i) {
            "  << SLO"
        } else {
            ""
        };
        r.line(format!(
            "  [{i:3}] reads {:5}  p50 {:>9}  p99 {:>9}  p99.9 {:>9}{mark}",
            s.count,
            format_nanos(s.p50),
            format_nanos(s.p99),
            format_nanos(s.p999),
        ));
    }

    // The budget is only ever exceeded inside the interference window.
    assert!(
        !t.violating.is_empty(),
        "the storm must push p99.9 past the budget"
    );
    for &i in &t.violating {
        assert!(
            i >= t.window.0 && i <= t.window.1,
            "interval {i} violates the SLO outside the window {:?}",
            t.window
        );
    }

    // Exactly one incident, opened in the window, closed by cooldown,
    // carrying per-die blame.
    assert_eq!(t.incidents.len(), 1, "one storm, one incident");
    let inc = &t.incidents[0];
    r.line(format!(
        "incident {}: opened {} closed {} peak p99.9 {} over {} violating intervals",
        inc.id,
        format_nanos(inc.opened_at),
        format_nanos(inc.closed_at.expect("cooldown must close it")),
        format_nanos(inc.peak_p999_ns),
        inc.violating_intervals,
    ));
    assert!(inc.trigger.count >= t.min_count && inc.trigger.p999 > t.budget);
    let drives = inc
        .evidence
        .iter()
        .find(|s| s.section == "drives")
        .expect("incident must carry drive evidence");
    assert!(
        drives.entries.iter().any(|(k, _)| k.contains(".die")),
        "drive evidence must blame specific busy dies"
    );
    assert!(
        drives
            .entries
            .iter()
            .any(|(k, v)| k == &format!("drive{PULLED_DRIVE}") && v.contains("failed")),
        "drive evidence must show the pulled drive"
    );
    for section in ["array", "gauges"] {
        assert!(
            inc.evidence.iter().any(|s| s.section == section),
            "incident must carry the {section} section"
        );
    }

    let mut violating = JsonWriter::array();
    for &i in &t.violating {
        violating.raw_element(&i.to_string());
    }
    let mut root = JsonWriter::object();
    root.str_field("experiment", "exp_slo")
        .bool_field("smoke", smoke)
        .u64_field("interval_ns", INTERVAL)
        .u64_field("budget_ns", t.budget)
        .u64_field("window_first_interval", t.window.0 as u64)
        .u64_field("window_last_interval", t.window.1 as u64)
        .raw_field("violating_intervals", &violating.finish())
        .u64_field("incident_opened_at_ns", inc.opened_at)
        .u64_field("incident_closed_at_ns", inc.closed_at.unwrap())
        .raw_field("export", &t.export);
    // Self-check: the recorder's export sections carry the schema the
    // docs promise.
    let doc = r.json(root.finish());
    let incidents = doc.array_at("export.incidents");
    assert_eq!(incidents.len(), 1);
    for field in ["id", "opened_at_ns", "closed_at_ns", "peak_p999_ns"] {
        assert!(incidents[0].get(field).is_some(), "incident field {field}");
    }
    assert!(doc
        .array_at("export.timeseries.histograms")
        .iter()
        .any(|h| { h.get("name").and_then(|n| n.as_str()) == Some("array_read_latency") }));
    r.line(
        "\nself-check OK: violations confined to the window, one incident, deterministic export.",
    );
}
