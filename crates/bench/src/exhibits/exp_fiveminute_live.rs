//! E18 — the five-minute rule, *live* (§5.2.2, Figure 7; ISSUE 10).
//!
//! `fig7_fiveminute` reproduces Figure 7 as a static cost analysis.
//! This exhibit closes the loop: the same economics now drive a running
//! policy engine, and the exhibit checks the engine lands where the
//! analysis predicted.
//!
//! * **Part 1 — crossover frontier from the running cache.** For each
//!   reduction ratio (1×/4×/10×) a standalone 2Q cache is sized with
//!   [`purity_tier::capacity_for_crossover`] from the measured
//!   flash-vs-DIMM crossover interval (~31/22/21 minutes). A one-touch
//!   arrival stream of the paper's 55 KiB items then flows through the
//!   real 2Q cache on virtual time, and the *measured* retention — how
//!   long an item stays resident before eviction — must reproduce the
//!   predicted crossover, including the ordering (less reduction ⇒
//!   colder crossover ⇒ longer retention). A probe sweep at multiples
//!   of the crossover shows the hit-rate knee: re-references faster
//!   than the crossover hit, slower ones miss.
//!
//! * **Part 2 — the migrator chases the knee.** On a tiered array
//!   (QLC-like cold drives + migrator, reads through the controller's
//!   DRAM cache like every preset), a VDI day cycle
//!   runs: boot storm on the `vdi` volume, quiet night shifting the
//!   working set to a `batch` volume, then a morning storm returning to
//!   `vdi`. The night demotes the idle boot image to the cold class;
//!   the morning's first wave pays the QLC penalty (visible as
//!   `tier_cold` blame), the migrator promotes the volume back, and
//!   later waves recover to RAM-hit latency.
//!
//! The array scenario runs twice and must export byte-identical
//! observability JSON (minus the wall-clock profile section) — the
//! tiering engine keeps the determinism contract.

use crate::Report;
use purity_core::{ArrayConfig, FlashArray, VolumeId};
use purity_obs::json::JsonWriter;
use purity_obs::profiler::strip_profile_section;
use purity_obs::BlameCategory;
use purity_sim::MS;
use purity_tier::{capacity_for_crossover, Heat, RamCache};
use purity_wkld::costmodel::{cost_per_item, crossover_interval, figure7_devices, DeviceEconomics};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The paper's average I/O size (Figure 7's item).
const ITEM: u64 = 55 * 1024;

/// Virtual seconds between arrivals in the frontier stream.
const STEP_SEC: f64 = 2.0;

/// Probe-sweep multiples of the predicted crossover interval.
const SWEEP: [f64; 7] = [0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0];

/// The Figure 7 device whose name contains `name`.
pub(super) fn dev(name: &str) -> DeviceEconomics {
    figure7_devices()
        .into_iter()
        .map(|(d, _)| d)
        .find(|d| d.name.contains(name))
        .expect("device exists")
}

/// One reduction ratio's measured frontier.
struct FrontierRow {
    label: &'static str,
    reduction: f64,
    predicted_sec: f64,
    capacity_bytes: usize,
    measured_sec: f64,
    /// Hit fraction per SWEEP multiple.
    hit_rate: [f64; 7],
    /// (flash, ram) $/item at the predicted crossover.
    cost_at_crossover: (f64, f64),
}

/// Streams one-touch 55 KiB items through a crossover-sized 2Q cache
/// and measures retention plus the hit-rate knee.
fn frontier_for(label: &'static str, reduction: f64, expect_minutes: u64) -> FrontierRow {
    let flash = dev(label);
    let ram = dev("DIMM");
    let predicted_sec = crossover_interval(&flash, &ram, ITEM).expect("crossover exists");
    assert_eq!(
        (predicted_sec / 60.0).round() as u64,
        expect_minutes,
        "{label}: Figure 7 predicts a ~{expect_minutes} min crossover, model says {:.0}s",
        predicted_sec
    );
    let rate = ITEM as f64 / STEP_SEC;
    let capacity = capacity_for_crossover(rate, predicted_sec);
    let mut cache: RamCache<u64> = RamCache::new(capacity);
    let payload = Arc::new(vec![0u8; ITEM as usize]);

    // One step per arrival; the cache holds ~capacity/ITEM items, which
    // by construction is the predicted crossover in steps.
    let steps_resident = capacity / ITEM as usize;
    let predicted_steps = predicted_sec / STEP_SEC;
    let warmup = steps_resident as u64;
    let plant_until = 2 * warmup;
    let total_steps = plant_until + (2.5 * predicted_steps) as u64;

    // key -> insertion step, oldest first, for retention measurement.
    let mut resident: VecDeque<(u64, u64)> = VecDeque::new();
    // step -> (sweep index, key) probes due for a residency check.
    let mut due: BTreeMap<u64, Vec<(usize, u64)>> = BTreeMap::new();
    let mut retention_steps: Vec<u64> = Vec::new();
    let mut hits = [0u64; 7];
    let mut checks = [0u64; 7];

    for step in 0..total_steps {
        cache.put(step, payload.clone());
        resident.push_back((step, step));
        while let Some(&(key, born)) = resident.front() {
            if cache.contains(&key) {
                break;
            }
            resident.pop_front();
            if born >= warmup {
                retention_steps.push(step - born);
            }
        }
        if step >= warmup && step < plant_until && step.is_multiple_of(25) {
            for (i, m) in SWEEP.iter().enumerate() {
                let at = step + (m * predicted_steps).round() as u64;
                due.entry(at).or_default().push((i, step));
            }
        }
        for (i, key) in due.remove(&step).unwrap_or_default() {
            checks[i] += 1;
            if cache.contains(&key) {
                hits[i] += 1;
            }
        }
    }

    assert!(
        !retention_steps.is_empty(),
        "{label}: stream too short to observe evictions"
    );
    let measured_sec =
        retention_steps.iter().sum::<u64>() as f64 / retention_steps.len() as f64 * STEP_SEC;
    let err = (measured_sec - predicted_sec).abs() / predicted_sec;
    assert!(
        err < 0.05,
        "{label}: measured retention {measured_sec:.0}s vs predicted {predicted_sec:.0}s \
         ({:.1}% off; crossover sizing should pin retention to the break-even)",
        err * 100.0
    );
    let mut hit_rate = [0f64; 7];
    for i in 0..SWEEP.len() {
        assert!(checks[i] > 0, "{label}: sweep x{} never checked", SWEEP[i]);
        hit_rate[i] = hits[i] as f64 / checks[i] as f64;
        if SWEEP[i] <= 0.9 {
            assert!(
                hit_rate[i] >= 0.9,
                "{label}: re-reference at {}x crossover should hit (got {:.2})",
                SWEEP[i],
                hit_rate[i]
            );
        } else {
            assert!(
                hit_rate[i] <= 0.1,
                "{label}: re-reference at {}x crossover should miss (got {:.2})",
                SWEEP[i],
                hit_rate[i]
            );
        }
    }
    FrontierRow {
        label,
        reduction,
        predicted_sec,
        capacity_bytes: capacity,
        measured_sec,
        hit_rate,
        cost_at_crossover: (
            cost_per_item(&flash, ITEM, predicted_sec),
            cost_per_item(&ram, ITEM, predicted_sec),
        ),
    }
}

/// Per-phase counters for the working-set-shift arc.
#[derive(Clone, Copy)]
struct PhaseDelta {
    reads: u64,
    sum_latency: u64,
    ram_hits: u64,
    cold_reads: u64,
    demotions: u64,
    promotions: u64,
}

impl PhaseDelta {
    fn mean_ns(&self) -> f64 {
        self.sum_latency as f64 / self.reads.max(1) as f64
    }
    fn hit_rate(&self) -> f64 {
        self.ram_hits as f64 / self.reads.max(1) as f64
    }
}

struct ShiftTrace {
    phases: Vec<(&'static str, PhaseDelta)>,
    morning_waves: Vec<PhaseDelta>,
    tier_cold_blame_ns: u64,
    vdi_heat_after_night: &'static str,
    export: String,
}

/// Snapshot of the cumulative tier counters, for phase deltas.
fn counters(a: &FlashArray) -> (u64, u64, u64) {
    let s = a.stats();
    (s.cold_reads, s.tier_demotions, s.tier_promotions)
}

/// Reads every 32 KiB chunk of `vol` once, pacing 2 ms per read, and
/// returns (reads, summed latency, reads the cache served). Hits are
/// counted across the read call alone: the migrator fetches through
/// the same cache while the clock advances.
fn read_wave(a: &mut FlashArray, vol: VolumeId, chunks: u64) -> (u64, u64, u64) {
    let (mut sum, mut hits) = (0u64, 0u64);
    for c in 0..chunks {
        let before = a.stats().cache_reads;
        let (_, ack) = a.read(vol, c * 32 * 1024, 32 * 1024).expect("read");
        hits += a.stats().cache_reads - before;
        sum += ack.latency;
        a.advance(2 * MS);
    }
    (chunks, sum, hits)
}

/// Runs `waves` read sweeps of `vol` and folds the counter deltas.
fn run_phase(a: &mut FlashArray, vol: VolumeId, chunks: u64, waves: u64) -> PhaseDelta {
    let before = counters(a);
    let (mut reads, mut sum, mut hits) = (0u64, 0u64, 0u64);
    for _ in 0..waves {
        let (r, s, h) = read_wave(a, vol, chunks);
        reads += r;
        sum += s;
        hits += h;
        a.advance(20 * MS);
    }
    let after = counters(a);
    PhaseDelta {
        reads,
        sum_latency: sum,
        ram_hits: hits,
        cold_reads: after.0 - before.0,
        demotions: after.1 - before.1,
        promotions: after.2 - before.2,
    }
}

/// The VDI day cycle on a tiered array. Deterministic: same seed, same
/// virtual schedule, every run.
fn workset_scenario() -> ShiftTrace {
    let mut a = FlashArray::new(ArrayConfig::tiered()).expect("format");
    let vol_bytes: u64 = 1 << 20;
    let chunks = vol_bytes / (32 * 1024);
    let vdi = a.create_volume("vdi", vol_bytes).unwrap();
    let batch = a.create_volume("batch", vol_bytes).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5F1E);
    for vol in [vdi, batch] {
        for c in 0..chunks {
            let mut data = vec![0u8; 32 * 1024];
            rng.fill(&mut data[..]);
            a.write(vol, c * 32 * 1024, &data).unwrap();
            a.advance(MS);
        }
    }
    a.advance(50 * MS);

    // Boot storm: every desktop reads its image, repeatedly.
    let boot = run_phase(&mut a, vdi, chunks, 4);

    // Quiet night: the batch volume takes over; the boot image idles
    // past `tier_demote_after_ns` and the migrator demotes it.
    let night = run_phase(&mut a, batch, chunks, 12);
    let vdi_heat_after_night = a.controller().volume_heat(vdi.0, a.now()).as_str();

    // Morning storm: back to the boot image. Wave 0 pays the cold
    // penalty; promotion and RAM admission recover the later waves.
    let mut morning_waves = Vec::new();
    for _ in 0..6 {
        morning_waves.push(run_phase(&mut a, vdi, chunks, 1));
    }
    let morning = PhaseDelta {
        reads: morning_waves.iter().map(|w| w.reads).sum(),
        sum_latency: morning_waves.iter().map(|w| w.sum_latency).sum(),
        ram_hits: morning_waves.iter().map(|w| w.ram_hits).sum(),
        cold_reads: morning_waves.iter().map(|w| w.cold_reads).sum(),
        demotions: morning_waves.iter().map(|w| w.demotions).sum(),
        promotions: morning_waves.iter().map(|w| w.promotions).sum(),
    };

    let violations = a.verify_integrity();
    assert!(
        violations.is_empty(),
        "integrity after the cycle: {violations:?}"
    );
    let tier_cold_blame_ns = a.obs().tracer.blame_totals().get(BlameCategory::TierCold);
    let export = strip_profile_section(&a.export_observability_json()).to_string();
    ShiftTrace {
        phases: vec![
            ("boot_storm", boot),
            ("quiet_night", night),
            ("morning_storm", morning),
        ],
        morning_waves,
        tier_cold_blame_ns,
        vdi_heat_after_night,
        export,
    }
}

fn frontier_json(rows: &[FrontierRow]) -> String {
    let mut arr = JsonWriter::array();
    for r in rows {
        let mut sweep = JsonWriter::array();
        for (i, m) in SWEEP.iter().enumerate() {
            let mut p = JsonWriter::object();
            p.f64_field("crossover_multiple", *m)
                .f64_field("hit_rate", r.hit_rate[i]);
            sweep.raw_element(&p.finish());
        }
        let mut w = JsonWriter::object();
        w.str_field("reduction", r.label)
            .f64_field("reduction_ratio", r.reduction)
            .f64_field("predicted_crossover_sec", r.predicted_sec)
            .f64_field("predicted_crossover_min", r.predicted_sec / 60.0)
            .u64_field("cache_capacity_bytes", r.capacity_bytes as u64)
            .f64_field("measured_retention_sec", r.measured_sec)
            .f64_field(
                "retention_error_pct",
                (r.measured_sec - r.predicted_sec).abs() / r.predicted_sec * 100.0,
            )
            .f64_field("flash_cost_at_crossover_usd", r.cost_at_crossover.0)
            .f64_field("ram_cost_at_crossover_usd", r.cost_at_crossover.1)
            .raw_field("hit_knee", &sweep.finish());
        arr.raw_element(&w.finish());
    }
    arr.finish()
}

fn phase_json(name: &str, d: &PhaseDelta) -> String {
    let mut w = JsonWriter::object();
    w.str_field("phase", name)
        .u64_field("reads", d.reads)
        .f64_field("mean_read_us", d.mean_ns() / 1e3)
        .f64_field("ram_hit_rate", d.hit_rate())
        .u64_field("cold_reads", d.cold_reads)
        .u64_field("demotions", d.demotions)
        .u64_field("promotions", d.promotions);
    w.finish()
}

pub fn run(_args: &[String], r: &mut Report) {
    r.line("=== E18: five-minute-rule tiering engine, live ===");

    // --- Part 1: crossover frontier from the running 2Q cache ---
    let rows = vec![
        frontier_for("1x", 1.0, 31),
        frontier_for("4x", 4.0, 22),
        frontier_for("10x", 10.0, 21),
    ];
    assert!(
        rows[0].measured_sec > rows[1].measured_sec && rows[1].measured_sec > rows[2].measured_sec,
        "retention must fall with reduction (crossover moves hotter): {:?}",
        rows.iter().map(|r| r.measured_sec).collect::<Vec<_>>()
    );
    let mut table = Vec::new();
    for r in &rows {
        table.push(vec![
            r.label.to_string(),
            format!("{:.1}", r.predicted_sec / 60.0),
            format!("{:.1}", r.measured_sec / 60.0),
            format!(
                "{:.1}%",
                (r.measured_sec - r.predicted_sec).abs() / r.predicted_sec * 100.0
            ),
            format!("{}", r.capacity_bytes >> 20),
            format!("{:.2}", r.hit_rate[1]),
            format!("{:.2}", r.hit_rate[6]),
        ]);
    }
    r.table(
        "crossover frontier: predicted vs measured retention (the running cache)",
        &[
            "reduction",
            "predicted min",
            "measured min",
            "err",
            "cache MiB",
            "hit @0.5x",
            "hit @2.0x",
        ],
        &table,
    );

    // --- Part 2: working-set shift, identical run to run ---
    let trace = workset_scenario();
    assert_eq!(
        trace.export,
        workset_scenario().export,
        "second same-seed run exported different bytes"
    );

    let night = trace.phases[1].1;
    let morning = trace.phases[2].1;
    assert!(
        night.demotions > 0,
        "the quiet night must demote the idle boot image"
    );
    assert_eq!(
        trace.vdi_heat_after_night,
        Heat::Cold.as_str(),
        "the watcher must classify the idle vdi volume cold"
    );
    assert!(
        morning.cold_reads > 0 && trace.morning_waves[0].cold_reads > 0,
        "the morning's first wave must pay the cold penalty"
    );
    assert!(
        trace.tier_cold_blame_ns > 0,
        "cold-read nanoseconds must land in the tier_cold blame category"
    );
    assert!(
        morning.promotions > 0,
        "the migrator must promote the reheated volume back to flash"
    );
    let first = trace.morning_waves.first().unwrap();
    let last = trace.morning_waves.last().unwrap();
    assert!(
        last.cold_reads == 0 && last.mean_ns() < first.mean_ns(),
        "hit-rate recovery: last wave {:.0}us / {} cold vs first wave {:.0}us / {} cold",
        last.mean_ns() / 1e3,
        last.cold_reads,
        first.mean_ns() / 1e3,
        first.cold_reads
    );

    let mut rows2 = Vec::new();
    for (name, d) in &trace.phases {
        rows2.push(vec![
            name.to_string(),
            d.reads.to_string(),
            format!("{:.0}", d.mean_ns() / 1e3),
            format!("{:.2}", d.hit_rate()),
            d.cold_reads.to_string(),
            d.demotions.to_string(),
            d.promotions.to_string(),
        ]);
    }
    r.table(
        "VDI day cycle on the tiered array",
        &[
            "phase", "reads", "mean us", "ram hit", "cold", "demote", "promote",
        ],
        &rows2,
    );
    let mut rows3 = Vec::new();
    for (i, w) in trace.morning_waves.iter().enumerate() {
        rows3.push(vec![
            format!("wave {i}"),
            format!("{:.0}", w.mean_ns() / 1e3),
            format!("{:.2}", w.hit_rate()),
            w.cold_reads.to_string(),
            w.promotions.to_string(),
        ]);
    }
    r.table(
        "morning storm: the migrator chasing the knee",
        &["", "mean us", "ram hit", "cold", "promote"],
        &rows3,
    );

    // --- Emit and self-check ---
    let mut phases = JsonWriter::array();
    for (name, d) in &trace.phases {
        phases.raw_element(&phase_json(name, d));
    }
    let mut waves = JsonWriter::array();
    for (i, d) in trace.morning_waves.iter().enumerate() {
        waves.raw_element(&phase_json(&format!("wave_{i}"), d));
    }
    let mut shift = JsonWriter::object();
    shift
        .raw_field("phases", &phases.finish())
        .raw_field("morning_waves", &waves.finish())
        .str_field("vdi_heat_after_night", trace.vdi_heat_after_night)
        .u64_field("tier_cold_blame_ns", trace.tier_cold_blame_ns);
    let mut det = JsonWriter::object();
    det.u64_field("runs", 2).bool_field("identical", true);
    let mut out = JsonWriter::object();
    out.str_field("experiment", "exp_fiveminute_live")
        .u64_field("item_bytes", ITEM)
        .raw_field("frontier", &frontier_json(&rows))
        .raw_field("workset_shift", &shift.finish())
        .raw_field("determinism", &det.finish());
    let doc = r.json(out.finish());
    let frontier = doc.array_at("frontier");
    assert_eq!(frontier.len(), 3, "one frontier row per reduction ratio");
    for row in frontier {
        assert!(row.f64_at("measured_retention_sec") > 0.0);
    }
    let phases = doc.array_at("workset_shift.phases");
    assert_eq!(phases.len(), 3, "boot/night/morning phases present");
    assert!(doc.u64_at("workset_shift.tier_cold_blame_ns") > 0);
    r.line(
        "\nself-check OK: frontier matches Figure 7, migrator chased the knee, both runs agree.",
    );
}
