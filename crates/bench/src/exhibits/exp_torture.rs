//! Torture sweep (§4.1, §4.3): one seeded fault campaign per seed of the
//! chosen kind, every run held to its contract by the durability oracle.
//!
//! - `--kind array` (the default, and the gated run): whole-array power
//!   loss at adversarial instants, the crash phase rotating through
//!   NVRAM-tail / segment-flush / checkpoint / op-boundary / tier-demote
//!   so a sweep of N seeds covers all five;
//! - `--kind cluster`: one of N arrays killed or partitioned mid-traffic;
//! - `--kind repl`: the replication destination crashed mid-ship, then
//!   the source lost.
//!
//! Any violation is shrunk to a minimal spec and written to
//! `results/exp_torture_repro.txt` as one line; `exp_torture --repro
//! <line>` replays it, whatever the kind. Every sweep ends with one
//! deliberately sabotaged run of its kind and demands the contract catch
//! it — proof the sweep is not a rubber stamp.

use crate::{flag, results_dir, value, Report};
use purity_obs::json::{JsonValue, JsonWriter};
use purity_sim::units::format_nanos;
use purity_torture::{
    kind, replay, repro_line, sweep, Campaign, CampaignSpec, CrashPhase, KINDS,
};

pub fn run(args: &[String], r: &mut Report) {
    let smoke = flag(args, "--smoke");
    let seeds: u64 = value(args, "--seeds").unwrap_or(25);

    // Replay mode: run exactly one spec, print everything, fail if it
    // reproduces.
    if let Some(line) = value::<String>(args, "--repro") {
        let out = replay(&line).expect("unparsable repro line");
        r.line(format!("replaying {}", out.line));
        r.line(&out.outcome);
        let n = out.violations.len();
        assert!(n == 0, "reproduced: {n} violation(s)");
        r.line("repro did NOT reproduce (no violations)");
        return;
    }

    let name = value::<String>(args, "--kind").unwrap_or_else(|| CampaignSpec::KIND.into());
    let kind = kind(&name).unwrap_or_else(|| {
        let known: Vec<_> = KINDS.iter().map(|k| k.name).collect();
        panic!("unknown --kind {name}: one of {known:?}")
    });
    let array = kind.name == CampaignSpec::KIND;
    let (crash_op, post_ops) = if smoke { (60, 30) } else { (120, 60) };
    let n_phases = CrashPhase::ALL.len() as u64;
    let mut phases = vec![(0u64, 0u64); CrashPhase::ALL.len()];
    let (mut torn_writes, mut downtime, mut replayed, mut torn_tails) = (0u64, 0, 0u64, 0u64);
    let failed_row = |r: &mut Report, line: &str, violations: &[String]| {
        let n = violations.len();
        r.line(format!("FAILED {line}: {n} violation(s)"));
        for v in violations.iter().take(5) {
            r.line(format!("    {v}"));
        }
    };

    let failure = if array {
        r.line(format!(
            "=== crash-recovery torture sweep ({seeds} seeds) ==="
        ));
        let specs = (0..seeds).map(|seed| CampaignSpec {
            crash_op,
            post_ops,
            // Every 5th seed drives the host engine front end too.
            host_stage: seed % 5 == 4,
            ..CampaignSpec::new(seed, CrashPhase::ALL[(seed % n_phases) as usize])
        });
        sweep(specs, |spec, out| {
            let (runs, hits) = &mut phases[(spec.seed % n_phases) as usize];
            *runs += 1;
            *hits += u64::from(out.phase_hit);
            torn_writes += u64::from(out.torn.as_deref().is_some_and(|t| t.contains("torn")));
            downtime += out.downtime;
            let intents =
                out.recovery.write_intents_replayed + out.recovery.meta_intents_replayed;
            replayed += intents as u64;
            torn_tails += out.recovery.torn_tail_records as u64;
            if !out.violations.is_empty() {
                return failed_row(r, &repro_line(spec), &out.violations);
            }
            r.line(format!(
                "seed {:>3} {:<13} {} downtime {}  replayed {intents:>3} intents{}",
                spec.seed,
                spec.phase,
                if out.phase_hit { "hit " } else { "miss" },
                format_nanos(out.downtime),
                if out.recovery.torn_tail_records > 0 {
                    "  (torn tail dropped)"
                } else {
                    ""
                },
            ));
        })
    } else {
        r.line(format!(
            "=== {name} fault campaign sweep ({seeds} seeds) ==="
        ));
        (kind.sweep)(0..seeds, &mut |run| match run.violations.is_empty() {
            true => r.line(format!("ok  {}", run.line)),
            false => failed_row(r, &run.line, &run.violations),
        })
    };

    // Persist the first failure's shrunk one-line repro where CI picks
    // it up as an artifact; a clean sweep clears a stale one.
    let repro_path = results_dir().join("exp_torture_repro.txt");
    match &failure {
        Some(f) => {
            r.line(format!("\n{f}"));
            std::fs::write(&repro_path, format!("{}\n", f.repro)).expect("write repro file");
            r.line(format!("repro written to {}", repro_path.display()));
        }
        None => drop(std::fs::remove_file(&repro_path)),
    }

    // Oracle power self-check: a sabotaged run must be caught.
    let (sabotaged, what) = match array {
        true => (
            format!("seed=1,phase=op-boundary,crash_op={crash_op},post_ops={post_ops}"),
            "NVRAM replay skipped".into(),
        ),
        false => ("seed=1".into(), format!("sabotaged {name} run")),
    };
    let sabotaged = replay(&format!("kind={name},{sabotaged},sabotage=true"));
    let caught = !sabotaged.expect("built from known fields").violations.is_empty();
    let verdict = if caught { "caught" } else { "MISSED" };
    r.line(format!("\noracle self-check ({what}): {verdict}"));

    let mut root = JsonWriter::object();
    root.str_field("experiment", "exp_torture")
        .bool_field("smoke", smoke)
        .u64_field("seeds", seeds)
        .u64_field("failures", failure.map_or(0, |f| f.failed as u64))
        .bool_field("sabotage_caught", caught);
    if array {
        root.u64_field("torn_writes", torn_writes)
            .u64_field("intents_replayed", replayed)
            .u64_field("torn_tails_dropped", torn_tails)
            .u64_field("mean_downtime_ns", downtime / seeds.max(1));
        let mut by_phase = JsonWriter::object();
        for (p, (runs, hits)) in CrashPhase::ALL.iter().zip(&phases) {
            let mut ph = JsonWriter::object();
            ph.u64_field("runs", *runs).u64_field("hits", *hits);
            by_phase.raw_field(p.name(), &ph.finish());
        }
        root.raw_field("phases", &by_phase.finish());
    } else {
        root.str_field("kind", kind.name);
    }
    // Self-check: nothing failed, the oracle has teeth, and an array
    // sweep covered at least 4 distinct phases with a real hit.
    let doc = r.json(root.finish());
    assert_eq!(
        doc.path("sabotage_caught"),
        Some(&JsonValue::Bool(true)),
        "oracle must catch sabotage"
    );
    let phases_hit = phases.iter().filter(|(_, hits)| *hits > 0).count();
    assert!(
        !array || phases_hit >= 4,
        "sweep must hit >= 4 distinct crash phases, got {phases_hit}"
    );
    assert_eq!(
        doc.u64_at("failures"),
        0,
        "contract violated — see results/exp_torture_repro.txt"
    );
    let covered = match array {
        true => format!("{phases_hit}/{} phases hit, ", CrashPhase::ALL.len()),
        false => String::new(),
    };
    r.line(format!(
        "\nself-check OK: {covered}zero violations across {seeds} seeds."
    ));
}
