//! The Purity reproduction's standing scorecard. Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one measured run of
//!   one workload, ending in one JSON line (`BENCHMARK.json`'s contract);
//! * no `--workload` — every workload, every pass, as readable tables
//!   (`--selfcheck` repeats the timed pass and compares the two);
//! * `--round W …` — one round in this process; the two modes above
//!   re-execute the binary this way, one child at a time, so every round
//!   starts from a fresh allocator and has its own peak RSS.

mod alloc;
mod catalog;
mod harness;
mod kernels;
mod mirror;
mod spans;
mod stats;
mod workloads;

use catalog::{END_TO_END, PER_LAYER, READ_BUDGET_US};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Untraced single-thread rounds per workload in the scorecard's timed pass.
const SCORECARD_REPS: usize = 5;
/// A measured run is at least this many rounds, however short `--seconds`.
const MIN_ROUNDS: usize = 3;
/// A measured run stops adding rounds after this long, whatever `--seconds`
/// says: set-up and read-back are outside the windows it counts.
const RUN_WALL_CAP: Duration = Duration::from_secs(120);

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }
}

/// What one round reported, as the parent reads it back.
#[derive(Default)]
struct RoundOut {
    metrics: BTreeMap<String, f64>,
    tails: BTreeMap<String, (f64, u64)>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl RoundOut {
    fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

// ---- one round, in this process -----------------------------------------

fn round_main(args: &Args, workload: &str) -> Result<ExitCode, String> {
    let seed: u64 = args.number("--seed", 1)?;
    let threads: usize = args.number("--threads", 1)?;
    let cfg = harness::RoundCfg {
        seed,
        traced: args.flag("--traced"),
        sabotage: args.flag("--sabotage"),
    };
    purity_sim::parallel::set_threads(threads);
    let mut round =
        workloads::run(workload, &cfg).ok_or_else(|| format!("no workload named {workload:?}"))?;
    if cfg.traced {
        round
            .metrics
            .extend(kernels::run(&mut workloads::generator(workload, seed)));
        let gen_ns = round.metrics["wkld.gen_ns_per_op"];
        if workload == "host_qd32" {
            // The engine draws its ops inline, so the generator's share of
            // the window is its per-op cost times the ops issued.
            let share = gen_ns * round.attempted as f64 / (round.metrics["window_s"] * 1e9);
            round.metrics.insert("wkld.gen_share".into(), share);
        }
        if let Some(dir) = args.value("--out") {
            std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
            let path = Path::new(dir).join(format!("trace_{workload}.json"));
            std::fs::write(&path, round.spans.to_json(workload, seed))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    let rss = alloc::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    round.metrics.insert("peak_rss_mb".into(), rss);

    for (name, value) in &round.metrics {
        println!("M {name} {value}");
    }
    for (name, (q, n)) in &round.tails {
        println!("T {name} {q} {n}");
    }
    for v in &round.violations {
        println!("V {}", v.replace('\n', " "));
    }
    println!("A {} {}", round.attempted, round.failed);
    Ok(ExitCode::SUCCESS)
}

// ---- running rounds as children -----------------------------------------

#[derive(Clone)]
struct Runner {
    exe: PathBuf,
    seed: u64,
    out: PathBuf,
    sabotage: bool,
}

impl Runner {
    fn round(&self, workload: &str, threads: usize, traced: bool) -> Result<RoundOut, String> {
        let mut cmd = Command::new(&self.exe);
        cmd.args(["--round", workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--threads", &threads.to_string()])
            .arg("--out")
            .arg(&self.out);
        if traced {
            cmd.arg("--traced");
        }
        if self.sabotage {
            cmd.arg("--sabotage");
        }
        // `output` waits for the child, so no process outlives its round.
        let done = cmd
            .output()
            .map_err(|e| format!("cannot start {}: {e}", self.exe.display()))?;
        if !done.status.success() {
            return Err(format!(
                "round {workload} ended with {}: {}",
                done.status,
                String::from_utf8_lossy(&done.stderr).trim()
            ));
        }
        parse_round(&String::from_utf8_lossy(&done.stdout))
            .ok_or_else(|| format!("round {workload} printed an unreadable report"))
    }
}

fn parse_round(text: &str) -> Option<RoundOut> {
    let mut out = RoundOut::default();
    let mut closed = false;
    for line in text.lines() {
        let (tag, rest) = line.split_once(' ')?;
        let mut words = rest.split(' ');
        match tag {
            "M" => {
                out.metrics
                    .insert(words.next()?.to_string(), words.next()?.parse().ok()?);
            }
            "T" => {
                out.tails.insert(
                    words.next()?.to_string(),
                    (words.next()?.parse().ok()?, words.next()?.parse().ok()?),
                );
            }
            "V" => out.violations.push(rest.to_string()),
            "A" => {
                out.attempted = words.next()?.parse().ok()?;
                out.failed = words.next()?.parse().ok()?;
                closed = true;
            }
            _ => return None,
        }
    }
    closed.then_some(out)
}

/// Names whose values depend only on the seed: the virtual-clock
/// end-to-end metrics and every count read through a public snapshot.
fn exact_names() -> impl Iterator<Item = &'static str> {
    END_TO_END
        .iter()
        .filter(|e| e.virtual_clock)
        .map(|e| e.name)
        .chain(PER_LAYER.iter().filter(|l| l.source == 'C').map(|l| l.name))
}

/// Every exact metric on which `b` differs from `a`.
fn drift(a: &RoundOut, b: &RoundOut, what: &str) -> Vec<String> {
    exact_names()
        .filter(|n| a.get(n) != b.get(n))
        .map(|n| format!("{what}: {n} is {} then {}", a.get(n), b.get(n)))
        .collect()
}

/// One workload's untraced single-thread rounds, reduced.
struct Timed {
    rounds: Vec<RoundOut>,
}

impl Timed {
    fn samples(&self, name: &str) -> Vec<f64> {
        self.rounds.iter().map(|r| r.get(name)).collect()
    }

    /// Median over the rounds for a wall metric, the (shared) value for a
    /// virtual one.
    fn value(&self, name: &str) -> f64 {
        stats::median(&self.samples(name))
    }

    fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    /// Failed ops, plus one per exact metric that did not repeat.
    fn faults(&self) -> (u64, Vec<String>) {
        let mut notes: Vec<String> = self
            .rounds
            .iter()
            .flat_map(|r| r.violations.iter().cloned())
            .collect();
        let mut failed: u64 = self.rounds.iter().map(|r| r.failed).sum();
        for later in &self.rounds[1..] {
            let d = drift(&self.rounds[0], later, "same seed, two rounds");
            failed += d.len() as u64;
            notes.extend(d);
        }
        (failed, notes)
    }
}

/// The two-thread and the traced round of one workload.
struct Extra {
    two: RoundOut,
    traced: RoundOut,
}

impl Extra {
    fn run(runner: &Runner, workload: &str) -> Result<Self, String> {
        Ok(Self {
            two: runner.round(workload, 2, false)?,
            traced: runner.round(workload, 1, true)?,
        })
    }

    fn attempted(&self) -> u64 {
        self.two.attempted + self.traced.attempted
    }

    /// Failed ops, plus one per exact metric that differs from `base`, a
    /// timed round of the same seed.
    fn faults(&self, base: &RoundOut) -> (u64, Vec<String>) {
        let (mut failed, mut notes) = (0, Vec::new());
        for (r, what) in [(&self.two, "two threads"), (&self.traced, "traced")] {
            let d = drift(base, r, what);
            failed += r.failed + d.len() as u64;
            notes.extend(r.violations.iter().map(|v| format!("{what}: {v}")));
            notes.extend(d);
        }
        (failed, notes)
    }

    /// A per-layer metric's value: two are ratios of whole passes, the
    /// rest come from the traced round.
    fn layer_value(&self, name: &str, timed_window_s: f64) -> f64 {
        match name {
            "sim.t2_wall_ratio" => self.two.get("window_s") / timed_window_s,
            "obs.trace_overhead_ratio" => self.traced.get("window_s") / timed_window_s,
            name => self.traced.get(name),
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

// ---- one measured run (the BENCHMARK.json contract) ---------------------

fn measured_run(args: &Args, runner: &Runner, workload: &str) -> Result<ExitCode, String> {
    if !workloads::NAMES.contains(&workload) {
        return Err(format!("no workload named {workload:?}"));
    }
    let seconds: f64 = args.number("--seconds", 10.0)?;
    let trace: u8 = args.number("--trace", 0)?;
    let mut timed = Timed { rounds: Vec::new() };
    let mut measured = 0.0;
    let started = Instant::now();
    let rounds_wanted = if trace == 1 { 1 } else { MIN_ROUNDS };
    while timed.rounds.len() < rounds_wanted
        || (trace == 0 && measured < seconds && started.elapsed() < RUN_WALL_CAP)
    {
        let r = runner.round(workload, 1, false)?;
        measured += r.get("window_s");
        timed.rounds.push(r);
    }
    let (mut failed, mut notes) = timed.faults();
    let mut attempted = timed.attempted();

    let mut fields = Vec::new();
    if trace == 0 {
        for e in &END_TO_END {
            fields.push((e.name, e.unit, timed.value(e.name)));
        }
    } else {
        let extra = Extra::run(runner, workload)?;
        let (extra_failed, extra_notes) = extra.faults(&timed.rounds[0]);
        failed += extra_failed;
        attempted += extra.attempted();
        notes.extend(extra_notes);
        let base = timed.value("window_s");
        for l in &PER_LAYER {
            fields.push((l.name, l.unit, extra.layer_value(l.name, base)));
        }
    }
    for n in &notes {
        eprintln!("violation: {n}");
    }
    let metrics: Vec<String> = fields
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ---- the scorecard ------------------------------------------------------

/// `reps` untraced single-thread rounds of every workload, round-robin so
/// slow drift of the machine lands on all workloads alike.
fn timed_pass(runner: &Runner, reps: usize) -> Result<BTreeMap<&'static str, Timed>, String> {
    let mut pass: BTreeMap<&'static str, Timed> = BTreeMap::new();
    for rep in 0..reps {
        for w in workloads::NAMES {
            eprintln!("timed pass: {w} round {}/{reps}", rep + 1);
            let r = runner.round(w, 1, false)?;
            pass.entry(w)
                .or_insert(Timed { rounds: Vec::new() })
                .rounds
                .push(r);
        }
    }
    Ok(pass)
}

fn direction(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

fn scorecard(args: &Args, runner: &Runner) -> Result<ExitCode, String> {
    let mut faults: Vec<String> = Vec::new();
    let selfcheck = args.flag("--selfcheck");
    let mut first = timed_pass(
        runner,
        if selfcheck {
            2 * SCORECARD_REPS
        } else {
            SCORECARD_REPS
        },
    )?;

    if selfcheck {
        // The two passes are the even and the odd rounds of one sequence:
        // the machine slows by a tenth for minutes at a time, and two
        // passes run one after the other would differ by that.
        let second: BTreeMap<&'static str, Timed> = first
            .iter_mut()
            .map(|(w, timed)| {
                let (even, odd): (Vec<_>, Vec<_>) = std::mem::take(&mut timed.rounds)
                    .into_iter()
                    .enumerate()
                    .partition(|(i, _)| i % 2 == 0);
                timed.rounds = even.into_iter().map(|(_, r)| r).collect();
                let rounds = odd.into_iter().map(|(_, r)| r).collect();
                (*w, Timed { rounds })
            })
            .collect();
        for w in workloads::NAMES {
            let (a, b) = (&first[w], &second[w]);
            faults.extend(drift(
                &a.rounds[0],
                &b.rounds[0],
                &format!("{w}: two passes"),
            ));
            for e in END_TO_END.iter().filter(|e| !e.virtual_clock) {
                let (va, vb) = (a.value(e.name), b.value(e.name));
                // Set-up times closer than 50 ms are ties.
                let tie = e.name == "setup_s" && (va - vb).abs() < 0.05;
                let moved = (va - vb).abs() / va;
                println!(
                    "selfcheck {w:<14} {:<16} {va:>12.4} vs {vb:>12.4}  moved {:>5.1}% (bound {:.0}%)",
                    e.name,
                    moved * 100.0,
                    e.bound * 100.0
                );
                if moved > e.bound && !tie {
                    faults.push(format!("{w}: {} medians {va} and {vb} disagree", e.name));
                }
            }
        }
        let probe = Runner {
            sabotage: true,
            ..runner.clone()
        };
        for w in workloads::NAMES {
            let r = probe.round(w, 1, false)?;
            println!(
                "selfcheck {w:<14} sabotaged read-back: {} failed ops",
                r.failed
            );
            if r.failed == 0 {
                faults.push(format!("{w}: a flipped read-back byte went unnoticed"));
            }
        }
    }

    println!("Latency, IOPS, reduction and amplification are the modelled array's, on the");
    println!("simulation clock; ops/s, set-up time and memory are this machine's. All");
    println!("workloads are closed on the virtual clock, so no generator lateness exists.");
    println!(
        "seed {}  available parallelism {}",
        runner.seed,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for w in workloads::NAMES {
        eprintln!("two-thread and traced pass: {w}");
        let timed = &first[w];
        let extra = Extra::run(runner, w)?;
        let (failed, notes) = timed.faults();
        let (extra_failed, extra_notes) = extra.faults(&timed.rounds[0]);
        faults.extend(
            notes
                .iter()
                .chain(&extra_notes)
                .map(|n| format!("{w}: {n}")),
        );
        let total_failed = failed + extra_failed;
        let total_attempted = timed.attempted() + extra.attempted();

        println!("\n== {w} ==");
        println!(
            "{:<22} {:>14} {:>14} {:>14} {:>3}  {:<10} {:<6} bound",
            "end to end", "median", "q1", "q3", "n", "unit", "better"
        );
        for e in &END_TO_END {
            let samples = timed.samples(e.name);
            let (q1, q3) = stats::quartiles(&samples);
            println!(
                "{:<22} {:>14.4} {:>14.4} {:>14.4} {:>3}  {:<10} {:<6} {:.0}%{}",
                e.name,
                timed.value(e.name),
                q1,
                q3,
                samples.len(),
                e.unit,
                direction(e.higher_is_better),
                e.bound * 100.0,
                if e.virtual_clock {
                    " (exact per seed)"
                } else {
                    ""
                }
            );
        }
        println!(
            "failed_ops_share       {:>14.6}   ({total_failed} of {total_attempted} ops; must be 0)",
            total_failed as f64 / total_attempted.max(1) as f64
        );
        // The percentile follows from the sample count (`stats::pick_tail`)
        // and is named wherever the value is shown.
        let tails = &timed.rounds[0].tails;
        if let Some((q, n)) = tails.get("virt_write_tail_us") {
            println!("virt_write_tail_us is p{} of {n} writes", q * 100.0);
        }
        if let Some(&(q, n)) = tails.get("virt_read_tail_us") {
            let tail = timed.value("virt_read_tail_us");
            println!(
                "virt_read_tail_us is p{} of {n} reads: {tail:.1} us, {:.2}x the paper's {READ_BUDGET_US:.0} us p99.9 budget{}",
                q * 100.0,
                tail / READ_BUDGET_US,
                if q < 0.999 {
                    " (too few reads for a p99.9: theirs is at least this)"
                } else {
                    ""
                }
            );
        }
        let base = timed.value("window_s");
        println!(
            "{:<34} {:>16}  {:<8} {:<6} source",
            "per layer", "value", "unit", "better"
        );
        for l in &PER_LAYER {
            println!(
                "{:<34} {:>16.4}  {:<8} {:<6} {}",
                l.name,
                extra.layer_value(l.name, base),
                l.unit,
                direction(l.higher_is_better),
                l.source
            );
        }
        println!(
            "trace: {}",
            runner.out.join(format!("trace_{w}.json")).display()
        );
    }
    if faults.is_empty() {
        println!("\nall outputs verified; every exact metric repeated");
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &faults {
            println!("FAULT {f}");
        }
        Ok(ExitCode::FAILURE)
    }
}

fn run() -> Result<ExitCode, String> {
    let args = Args(std::env::args().skip(1).collect());
    if let Some(workload) = args.value("--round") {
        return round_main(&args, workload);
    }
    let runner = Runner {
        exe: std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?,
        seed: args.number("--seed", 1)?,
        out: PathBuf::from(args.value("--out").unwrap_or("out")),
        sabotage: args.flag("--sabotage"),
    };
    match args.value("--workload") {
        Some(workload) => measured_run(&args, &runner, workload),
        None => scorecard(&args, &runner),
    }
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_report_reads_back() {
        let r = parse_round("M a.b 1.5\nM c 2\nT t 0.99 1200\nV lost one\nA 10 1\n").unwrap();
        assert_eq!(r.get("a.b"), 1.5);
        assert_eq!(r.get("c"), 2.0);
        assert_eq!(r.tails["t"], (0.99, 1200));
        assert_eq!(r.violations, vec!["lost one"]);
        assert_eq!((r.attempted, r.failed), (10, 1));
        assert!(parse_round("M a 1\n").is_none(), "no closing A line");
        assert!(parse_round("X y\nA 1 0\n").is_none());
    }

    #[test]
    fn drift_names_only_exact_metrics() {
        let mut a = RoundOut::default();
        let mut b = RoundOut::default();
        a.metrics.insert("write_amp".into(), 1.5);
        b.metrics.insert("write_amp".into(), 1.6);
        a.metrics.insert("wall_ops_per_s".into(), 100.0);
        b.metrics.insert("wall_ops_per_s".into(), 90.0);
        let d = drift(&a, &b, "t");
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("write_amp"));
    }
}
