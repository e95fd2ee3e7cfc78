//! Differential determinism harness: "same seed, same bytes, run to
//! run", enforced byte-for-byte (DESIGN.md §7).
//!
//! Every scenario here runs the same seed twice in one process and
//! asserts the runs are indistinguishable:
//!
//! - exhibit-style workloads compare `export_observability_json()`
//!   (stripped of the wall-clock `profile` section, the one block
//!   that is *allowed* to differ) byte-for-byte;
//! - campaigns of every kind the engine registers compare the full
//!   `Debug` rendering of the outcome — violations, torn-write
//!   descriptions, recovery reports, virtual downtime, ack audits;
//! - the model-check personality compares the export of the array it
//!   leaves behind.
//!
//! What a second run can catch: iteration over a `HashMap` (its hasher
//! is seeded per instance), an unseeded RNG, wall time or an address
//! leaking into a decision, state left behind in a process-global.

use purity_core::{Ack, ArrayConfig, FlashArray};
use purity_obs::profiler::strip_profile_section;
use purity_torture::{replay, run_model_check, CrashPhase, KINDS};
use purity_wkld::{AccessPattern, ContentModel, Op, SizeMix, WorkloadGen};

/// Runs `scenario` twice and asserts the two renderings are
/// byte-identical, pointing at the first byte that differs.
fn assert_deterministic(what: &str, mut scenario: impl FnMut() -> String) {
    let (first, second) = (scenario(), scenario());
    if first != second {
        let at = first
            .bytes()
            .zip(second.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(first.len().min(second.len()));
        let lo = at.saturating_sub(60);
        panic!(
            "{what}: two same-seed runs diverge at byte {at}:\n \
             run 1: ...{}\n  run 2: ...{}",
            &first[lo..(at + 60).min(first.len())],
            &second[lo..(at + 60).min(second.len())],
        );
    }
}

/// Drives `n_ops` of a generated workload against a fresh array and
/// returns the deterministic observability export.
fn exhibit_export(cfg: ArrayConfig, wkld_seed: u64, n_ops: u64, gc_every: u64) -> String {
    let mut a = FlashArray::new(cfg).expect("format");
    let vol_bytes: u64 = 8 << 20;
    let vol = a.create_volume("diff", vol_bytes).unwrap();
    let mut gen = WorkloadGen::new(
        wkld_seed,
        vol_bytes,
        AccessPattern::Zipfian(0.99),
        SizeMix::enterprise(),
        70,
        ContentModel::Rdbms,
        200_000,
    );
    for i in 0..n_ops {
        match gen.next_op() {
            Op::Read { offset, len } => {
                a.read(vol, offset, len).expect("read");
            }
            Op::Write { offset, data } => {
                let Ack { .. } = a.write(vol, offset, &data).expect("write");
            }
        }
        a.advance(gen.interarrival);
        if gc_every > 0 && i % gc_every == gc_every - 1 {
            a.run_gc().expect("gc");
        }
    }
    strip_profile_section(&a.export_observability_json())
}

/// The exhibit seeds the bench binaries actually use (tail-latency
/// preload/mix, host front end, GC storm).
const EXHIBIT_SEEDS: [u64; 4] = [3, 5, 17, 29];

#[test]
fn exhibit_exports_are_deterministic() {
    for seed in EXHIBIT_SEEDS {
        assert_deterministic(&format!("exhibit seed {seed}"), || {
            exhibit_export(ArrayConfig::test_small(), seed, 250, 50)
        });
    }
}

/// Overwrite churn on tiny dies forces FTL GC erases mid-run — the
/// path where per-die reservations interleave with relocations.
#[test]
fn gc_churn_export_is_deterministic() {
    let mut cfg = ArrayConfig::test_small();
    cfg.cache_bytes = 0;
    cfg.read_around_writes = false;
    assert_deterministic("gc churn", move || exhibit_export(cfg.clone(), 29, 300, 25));
}

/// Pre-aged flash (the paper's worn-drive validation) changes per-die
/// wear and retention limits (each block's endurance is a seeded draw).
#[test]
fn preaged_export_is_deterministic() {
    let mut cfg = ArrayConfig::test_small();
    cfg.preage_cycles = 1500;
    assert_deterministic("preaged array", move || {
        exhibit_export(cfg.clone(), 5, 200, 40)
    });
}

/// The tiering engine's exhibit arc (ISSUE 10, `exp_fiveminute_live`
/// seed): a working-set shift that demotes an idle volume to the cold
/// class, pays cold reads on its return, and promotes it back. RAM-cache
/// admissions, migrator ticks, cold segment placement and the tier blame
/// category must all repeat exactly.
#[test]
fn tiered_workset_shift_export_is_deterministic() {
    assert_deterministic("tiered workset shift seed 0x5F1E", || {
        let mut a = FlashArray::new(ArrayConfig::tiered()).expect("format");
        let vol_bytes: u64 = 512 * 1024;
        let chunks = vol_bytes / (32 * 1024);
        let vdi = a.create_volume("vdi", vol_bytes).unwrap();
        let batch = a.create_volume("batch", vol_bytes).unwrap();
        let mut gen = WorkloadGen::new(
            0x5F1E,
            vol_bytes,
            AccessPattern::Sequential,
            SizeMix::fixed(32 * 1024),
            0,
            ContentModel::Random,
            1_000_000,
        );
        for vol in [vdi, batch] {
            for _ in 0..chunks {
                if let Op::Write { offset, data } = gen.next_op() {
                    a.write(vol, offset, &data).unwrap();
                }
                a.advance(1_000_000);
            }
        }
        // Boot storm on vdi, quiet night on batch (vdi idles past the
        // demote threshold), morning storm back on vdi.
        let phases: [(_, u64); 3] = [(vdi, 2), (batch, 10), (vdi, 3)];
        for (vol, waves) in phases {
            for _ in 0..waves {
                for c in 0..chunks {
                    a.read(vol, c * 32 * 1024, 32 * 1024).unwrap();
                    a.advance(2_000_000);
                }
                a.advance(20_000_000);
            }
        }
        let s = a.stats();
        assert!(s.tier_demotions > 0, "night must demote the idle volume");
        assert!(s.cold_reads > 0, "morning must pay cold reads");
        assert!(s.tier_promotions > 0, "migrator must promote the return");
        let mut doc = strip_profile_section(&a.export_observability_json()).to_string();
        doc.push_str(&format!(
            "\ndemotions={} promotions={} cold_reads={} cache_hits={}",
            s.tier_demotions, s.tier_promotions, s.cold_reads, s.cache_reads
        ));
        doc
    });
}

/// The repro payloads replayed twice for one campaign kind: the seeds
/// its tier-1 sweep uses, or seeds 0 and 1 of a kind not named here — so
/// a kind added to `purity_torture::KINDS` is covered without an edit.
fn campaign_lines(kind: &str) -> Vec<String> {
    let seeds = |seeds: &[u64]| {
        let line = |seed| format!("kind={kind},seed={seed}");
        seeds.iter().map(line).collect()
    };
    match kind {
        "array" => [
            (CrashPhase::NvramTail, 0..6u64),
            (CrashPhase::SegmentFlush, 10..16),
            (CrashPhase::Checkpoint, 20..26),
            (CrashPhase::OpBoundary, 30..36),
            (CrashPhase::TierDemote, 60..63),
            (CrashPhase::SegmentFlush, 7..8),
        ]
        .into_iter()
        .flat_map(|(phase, seeds)| {
            seeds.map(move |seed| format!("kind=array,seed={seed},phase={}", phase.name()))
        })
        .collect(),
        "cluster" => seeds(&[0, 1, 2]),
        "repl" => seeds(&[0, 1, 5]),
        _ => seeds(&[0, 1]),
    }
}

/// Same spec, run twice: byte-identical outcome. Violation strings,
/// torn notes, recovery counters, detection instants — everything. This
/// is what makes a failing line a repro rather than an anecdote.
fn kind_is_deterministic(kind: &str) {
    for line in campaign_lines(kind) {
        assert_deterministic(&line, || {
            replay(&line).expect("a line of a known kind").outcome
        });
    }
}

/// Every tier-1 array seed (27 specs over the five crash phases, and
/// seed 7 mid-segment-flush).
#[test]
fn torture_outcomes_are_deterministic() {
    kind_is_deterministic("array");
}

/// Crash-during-replication campaigns cross two arrays and a lossy
/// link with seeded flap windows.
#[test]
fn repl_campaigns_are_deterministic() {
    kind_is_deterministic("repl");
}

/// Cluster fault campaigns: SWIM timing, rebuild ordering and ack
/// audits across three or four arrays.
#[test]
fn cluster_campaigns_are_deterministic() {
    kind_is_deterministic("cluster");
}

/// The three tests above split the engine's kinds so they run in
/// parallel; a kind none of them names runs here.
#[test]
fn every_other_campaign_kind_is_deterministic() {
    for kind in KINDS {
        if !["array", "repl", "cluster"].contains(&kind.name) {
            kind_is_deterministic(kind.name);
        }
    }
}

/// The model-check personality: the engine's op mix with drive pulls
/// and controller failovers in place of a power loss.
#[test]
fn model_check_export_is_deterministic() {
    assert_deterministic("model check seed 11", || {
        let (array, violations) = run_model_check(11, 300);
        assert!(violations.is_empty(), "{violations:?}");
        strip_profile_section(&array.export_observability_json()).to_string()
    });
}

/// The causal-tracing spine (ISSUE 9): a compact GC-storm with
/// single-sector probes racing the §4.4 write pacer produces die-stall
/// blame, slow-op captures with stall notes, and a populated
/// `tail_blame` export section. The comparison string
/// carries the stripped observability export (tail blame and stage
/// audit included), every slow-op `describe()`, and the tracer's
/// cumulative per-category blame totals — so trace assembly, the
/// critical-path fold, and the p99.9 cohort are all byte-equal.
#[test]
fn blame_traces_and_tail_blame_are_deterministic() {
    use purity_core::SECTOR;
    assert_deterministic("blame trace", || {
        let mut cfg = ArrayConfig::test_small();
        cfg.cache_bytes = 0;
        cfg.read_around_writes = false;
        cfg.dedup_enabled = false;
        cfg.compression_enabled = false;
        cfg.telemetry_interval_ns = 5_000_000;
        let mut a = FlashArray::new(cfg).expect("format");
        let vol_bytes: u64 = 1 << 20;
        let vol = a.create_volume("blame", vol_bytes).unwrap();
        let mut gen = WorkloadGen::new(
            23,
            vol_bytes,
            AccessPattern::Sequential,
            SizeMix::fixed(32 * 1024),
            0,
            ContentModel::Random,
            20_000,
        );
        for _ in 0..(vol_bytes / (32 * 1024)) {
            if let Op::Write { offset, data } = gen.next_op() {
                a.write(vol, offset, &data).unwrap();
            }
            a.advance(200_000);
        }
        a.advance(50_000_000);
        let vol_sectors = vol_bytes / SECTOR as u64;
        for round in 0..6u64 {
            for _ in 0..4 {
                if let Op::Write { offset, data } = gen.next_op() {
                    a.write(vol, offset % vol_bytes, &data).unwrap();
                }
                a.advance(100_000);
            }
            for p in 0..12u64 {
                let s = (round * 37 + p * 11) % vol_sectors;
                a.read(vol, s * SECTOR as u64, SECTOR).unwrap();
                a.advance(300_000);
            }
            if round % 3 == 2 {
                a.run_gc().unwrap();
                a.advance(5_000_000);
            }
        }
        let mut doc = strip_profile_section(&a.export_observability_json()).to_string();
        assert!(doc.contains("\"tail_blame\""), "export carries tail blame");
        let totals = a.obs().tracer.blame_totals();
        assert!(totals.total() > 0, "every completed op folds into blame");
        doc.push('\n');
        for op in a.obs().tracer.slow_ops() {
            doc.push_str(&op.describe());
            doc.push('\n');
        }
        doc.push_str(&totals.to_json());
        doc
    });
}
