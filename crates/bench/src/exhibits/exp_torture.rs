//! Crash–recovery torture sweep (§4.3): whole-array power loss at
//! adversarial instants, cold start through the normal recovery paths,
//! durability oracle on every run.
//!
//! Each seed runs one campaign; the crash phase rotates through
//! NVRAM-tail / segment-flush / checkpoint / op-boundary / tier-demote
//! so a sweep of N seeds covers all five. Any violation is shrunk to a
//! minimal spec
//! and written to `results/exp_torture_repro.txt` as a one-line repro;
//! replay it with `exp_torture --repro <line>`.
//!
//! The self-check also runs one deliberately sabotaged recovery (NVRAM
//! replay skipped) and demands the oracle catch it — proof the sweep is
//! not a rubber stamp.

use crate::{flag, results_dir, value, Report};
use purity_obs::json::{JsonValue, JsonWriter};
use purity_sim::units::format_nanos;
use purity_torture::{parse_repro, repro_line, run_campaign, shrink, CampaignSpec, CrashPhase};

pub fn run(args: &[String], r: &mut Report) {
    let smoke = flag(args, "--smoke");
    let seeds: u64 = value(args, "--seeds").unwrap_or(25);

    // Replay mode: run exactly one spec, print everything, fail if it
    // reproduces.
    if let Some(line) = value::<String>(args, "--repro") {
        let spec = parse_repro(&line).expect("unparsable repro line");
        r.line(format!("replaying {}", repro_line(&spec)));
        let out = run_campaign(&spec);
        r.line(format!("{:#?}", out));
        let n = out.violations.len();
        assert!(n == 0, "reproduced: {n} violation(s)");
        r.line("repro did NOT reproduce (no violations)");
        return;
    }

    r.line(format!(
        "=== crash-recovery torture sweep ({seeds} seeds) ==="
    ));
    let (crash_op, post_ops) = if smoke { (60, 30) } else { (120, 60) };

    let n_phases = CrashPhase::ALL.len();
    let mut phase_hits = vec![0u64; n_phases];
    let mut phase_runs = vec![0u64; n_phases];
    let mut torn_writes = 0u64;
    let mut total_downtime = 0u64;
    let mut intents_replayed = 0u64;
    let mut torn_tails = 0u64;
    let mut failures: Vec<CampaignSpec> = Vec::new();

    for seed in 0..seeds {
        let phase = CrashPhase::ALL[(seed % n_phases as u64) as usize];
        let spec = CampaignSpec {
            crash_op,
            post_ops,
            // Every 5th seed drives the host engine front end too.
            host_stage: seed % 5 == 4,
            ..CampaignSpec::new(seed, phase)
        };
        let out = run_campaign(&spec);
        let pi = (seed % n_phases as u64) as usize;
        phase_runs[pi] += 1;
        if out.phase_hit {
            phase_hits[pi] += 1;
        }
        if out.torn.as_deref().is_some_and(|t| t.contains("torn")) {
            torn_writes += 1;
        }
        total_downtime += out.downtime;
        intents_replayed +=
            (out.recovery.write_intents_replayed + out.recovery.meta_intents_replayed) as u64;
        torn_tails += out.recovery.torn_tail_records as u64;
        if out.violations.is_empty() {
            r.line(format!(
                "seed {seed:>3} {:<13} {} downtime {}  replayed {:>3} intents{}",
                phase.name(),
                if out.phase_hit { "hit " } else { "miss" },
                format_nanos(out.downtime),
                out.recovery.write_intents_replayed + out.recovery.meta_intents_replayed,
                if out.recovery.torn_tail_records > 0 {
                    "  (torn tail dropped)"
                } else {
                    ""
                },
            ));
        } else {
            r.line(format!(
                "seed {seed:>3} {:<13} FAILED: {} violation(s)",
                phase.name(),
                out.violations.len()
            ));
            for v in out.violations.iter().take(5) {
                r.line(format!("    {v}"));
            }
            failures.push(spec);
        }
    }

    // Shrink the first failure to a minimal repro and persist the line
    // where CI can pick it up as an artifact.
    let repro_path = results_dir().join("exp_torture_repro.txt");
    if let Some(first) = failures.first() {
        r.line("\nshrinking first failing spec ...");
        let shrunk = shrink(first);
        let line = repro_line(&shrunk.spec);
        r.line(format!(
            "minimal repro after {} runs ({} ops): exp_torture {}",
            shrunk.runs,
            shrunk.spec.crash_op + shrunk.spec.post_ops,
            line
        ));
        std::fs::write(&repro_path, format!("{line}\n")).expect("write repro file");
        r.line(format!("repro written to {}", repro_path.display()));
    } else {
        // Stale repro files from earlier failing runs must not linger.
        let _ = std::fs::remove_file(&repro_path);
    }

    // Oracle power self-check: sabotaged recovery must be caught.
    let sabotaged = CampaignSpec {
        sabotage: true,
        crash_op,
        post_ops,
        ..CampaignSpec::new(1, CrashPhase::OpBoundary)
    };
    let caught = !run_campaign(&sabotaged).violations.is_empty();
    r.line(format!(
        "\noracle self-check (NVRAM replay skipped): {}",
        if caught { "caught" } else { "MISSED" }
    ));

    let mut root = JsonWriter::object();
    root.str_field("experiment", "exp_torture")
        .bool_field("smoke", smoke)
        .u64_field("seeds", seeds)
        .u64_field("failures", failures.len() as u64)
        .bool_field("sabotage_caught", caught)
        .u64_field("torn_writes", torn_writes)
        .u64_field("intents_replayed", intents_replayed)
        .u64_field("torn_tails_dropped", torn_tails)
        .u64_field("mean_downtime_ns", total_downtime / seeds.max(1));
    {
        let mut phases = JsonWriter::object();
        for (i, p) in CrashPhase::ALL.iter().enumerate() {
            let mut ph = JsonWriter::object();
            ph.u64_field("runs", phase_runs[i])
                .u64_field("hits", phase_hits[i]);
            phases.raw_field(p.name(), &ph.finish());
        }
        root.raw_field("phases", &phases.finish());
    }
    // Self-check: the sweep covered at least 4 distinct phases with a
    // real (torn-write) hit, nothing failed, and the oracle has teeth.
    let doc = r.json(root.finish());
    assert_eq!(
        doc.path("sabotage_caught"),
        Some(&JsonValue::Bool(true)),
        "oracle must catch sabotage"
    );
    let phases_hit = CrashPhase::ALL
        .iter()
        .filter(|p| doc.u64_at(&format!("phases.{}.hits", p.name())) > 0)
        .count();
    assert!(
        phases_hit >= 4,
        "sweep must hit >= 4 distinct crash phases, got {phases_hit}"
    );
    assert_eq!(
        doc.u64_at("failures"),
        0,
        "durability contract violated — see repro file"
    );
    r.line(format!(
        "\nself-check OK: {phases_hit}/{} phases hit, zero violations across {seeds} seeds.",
        CrashPhase::ALL.len()
    ));
}
