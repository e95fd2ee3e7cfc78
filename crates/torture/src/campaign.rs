//! The array kind: one seeded run of the full stack that loses power at
//! an adversarial instant and must come back with every promise intact.
//! [`Run::step`] is the crate's only seeded op mix; [`run_model_check`]
//! is the same mix with hardware faults in place of idle time and no
//! power loss.
//!
//! The run is a pure function of its [`CampaignSpec`] — same spec, same
//! virtual-time history, same violations, byte for byte. That is what
//! makes a failing `(seed, phase, crash_op)` triple a *repro*, not an
//! anecdote, and what the shrinker in [`crate::shrink`] relies on.
//!
//! Structure of a run:
//!
//! 1. seed an op mix (writes, read-verifies, snapshots, clones,
//!    destroys, GC, scrub, checkpoints) against a fresh array, with an
//!    optional host-engine stage driving a separate volume through the
//!    QoS/multipath front end first;
//! 2. at `crash_op`, arm the phase's power-loss trigger and drive I/O
//!    into it: mid-NVRAM-append, mid-segment-flush, or mid-checkpoint
//!    (boot slot torn). `OpBoundary` cuts power cleanly instead;
//! 3. cold-start via [`FlashArray::power_loss`] (ScanMode per spec,
//!    optionally sabotaged by skipping NVRAM replay — the oracle must
//!    catch that);
//! 4. settle the unacked in-flight write, check structural invariants
//!    and the frontier scan bound, run `post_ops` more ops, then sweep
//!    every volume and frozen snapshot and run the checks every kind
//!    shares ([`final_checks`]).

use crate::oracle::DurabilityOracle;
use crate::shrink::{halvings, Campaign, Field};
use purity_core::{
    ArrayConfig, CrashTarget, FlashArray, PowerLossSpec, RecoveryOptions, RecoveryReport, ScanMode,
    SnapshotId, VolumeId, SECTOR,
};
use purity_host::{HostConfig, HostEngine};
use purity_sim::{Nanos, MS, US};
use purity_wkld::{AccessPattern, ContentModel, SizeMix, WorkloadGen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where in the write path the power dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// Mid-NVRAM-append: the last record's tail is torn off.
    NvramTail,
    /// Mid-segment-flush: a data/parity AU write is cut short.
    SegmentFlush,
    /// Mid-checkpoint: a boot-region slot write is torn (A/B fallback).
    Checkpoint,
    /// Clean cut between ops — no torn bytes at all.
    OpBoundary,
    /// Mid-tier-demotion: a cold-class slot write is torn while the
    /// migrator copies an idle volume down (runs on a tiered array).
    TierDemote,
}

impl CrashPhase {
    pub const ALL: [CrashPhase; 5] = [
        CrashPhase::NvramTail,
        CrashPhase::SegmentFlush,
        CrashPhase::Checkpoint,
        CrashPhase::OpBoundary,
        CrashPhase::TierDemote,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CrashPhase::NvramTail => "nvram-tail",
            CrashPhase::SegmentFlush => "segment-flush",
            CrashPhase::Checkpoint => "checkpoint",
            CrashPhase::OpBoundary => "op-boundary",
            CrashPhase::TierDemote => "tier-demote",
        }
    }
}

impl std::fmt::Display for CrashPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        f.pad(self.name())
    }
}

impl std::str::FromStr for CrashPhase {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        Self::ALL.into_iter().find(|p| p.name() == s).ok_or(())
    }
}

/// Everything that determines a campaign, and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSpec {
    /// RNG seed for the op mix and the crash instant's fine tuning.
    pub seed: u64,
    /// Ops issued before the crash is staged.
    pub crash_op: usize,
    /// Ops issued after the cold start.
    pub post_ops: usize,
    /// Which write-path phase the power loss targets.
    pub phase: CrashPhase,
    /// Recover with a full-device scan instead of the frontier scan.
    pub full_scan: bool,
    /// Test-only recovery sabotage: skip NVRAM replay. A correct oracle
    /// MUST flag this run (acked writes vanish).
    pub sabotage: bool,
    /// Run a host-engine (QoS + multipath) stage on a separate volume
    /// before the op mix, so the crash lands on full-stack state.
    pub host_stage: bool,
}

impl CampaignSpec {
    pub fn new(seed: u64, phase: CrashPhase) -> Self {
        Self {
            seed,
            crash_op: 120,
            post_ops: 60,
            phase,
            full_scan: false,
            sabotage: false,
            host_stage: false,
        }
    }
}

/// What one campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Oracle + structural violations; empty = the contract held.
    pub violations: Vec<String>,
    /// Whether the armed trigger actually fired in the targeted phase
    /// (`OpBoundary` always counts; other phases fall back to a clean
    /// cut when the workload never reaches the targeted write).
    pub phase_hit: bool,
    /// The shelf's description of what the power loss tore.
    pub torn: Option<String>,
    /// Cold-start downtime in virtual time.
    pub downtime: Nanos,
    /// The recovery report from the cold start.
    pub recovery: RecoveryReport,
    /// Acked sectors tracked by the oracle at the end of the run.
    pub acked_sectors: usize,
}

/// Mutable run state threaded through the op mix.
struct Run {
    a: FlashArray,
    oracle: DurabilityOracle,
    live_vols: Vec<VolumeId>,
    live_snaps: Vec<SnapshotId>,
    violations: Vec<String>,
    /// Set once power dies; the op loops stop issuing.
    dark: bool,
    /// The model-check personality: the drives currently pulled. The
    /// mix's last arm then injects hardware faults where a crash
    /// campaign (`None`) lets virtual time pass.
    pulled: Option<Vec<usize>>,
}

fn content(rng: &mut StdRng, dedup_friendly: bool) -> [u8; SECTOR] {
    let mut s = [0u8; SECTOR];
    if dedup_friendly {
        let tag = rng.gen_range(0..16u8);
        s.fill(tag);
        s[0] = 0xDD;
    } else {
        rng.fill(&mut s[..]);
    }
    s
}

impl Run {
    /// A fresh array with the two volumes every run starts from.
    fn new(cfg: ArrayConfig, pulled: Option<Vec<usize>>) -> Self {
        let mut run = Run {
            a: FlashArray::new(cfg).expect("invariant: the stock configs validate and format"),
            oracle: DurabilityOracle::new(),
            live_vols: Vec::new(),
            live_snaps: Vec::new(),
            violations: Vec::new(),
            dark: false,
            pulled,
        };
        for i in 0..2 {
            let size: u64 = 2 << 20;
            let v = run
                .a
                .create_volume(&format!("v{i}"), size)
                .expect("invariant: a fresh stock array holds two 2 MiB volumes");
            run.oracle.create_volume(v, size);
            run.live_vols.push(v);
        }
        run
    }

    /// Issues one write through the oracle. Returns false once the array
    /// refuses it (the op stays staged for `settle`); only a dark array
    /// may.
    fn write(&mut self, rng: &mut StdRng) -> bool {
        let v = self.live_vols[rng.gen_range(0..self.live_vols.len())];
        let size = self.oracle.size_sectors(v);
        let n = rng.gen_range(1..=32usize) as u64;
        let start = rng.gen_range(0..size - n);
        let mut buf = Vec::with_capacity(n as usize * SECTOR);
        for _ in 0..n {
            let friendly = rng.gen_bool(0.4);
            buf.extend_from_slice(&content(rng, friendly));
        }
        let acked = self.oracle.write_through(v, start, &buf, || {
            self.a.write(v, start * SECTOR as u64, &buf)
        });
        match acked {
            Ok(_) => {
                self.a.advance(rng.gen_range(10 * US..500 * US));
                true
            }
            Err(e) => {
                // Power died mid-op: the write stays staged so settle()
                // can hold recovery to the atomic present-or-absent rule.
                if self.a.powered() {
                    self.violations
                        .push(format!("write vol {} refused with power on: {e}", v.0));
                }
                self.dark = true;
                false
            }
        }
    }

    /// An op the array may not refuse: its error is a violation.
    fn must<T>(&mut self, op: usize, what: &str, result: purity_core::Result<T>) -> Option<T> {
        if let Err(e) = &result {
            self.violations.push(format!("op {op}: {what}: {e}"));
        }
        result.ok()
    }

    /// One op of the seeded mix. Returns false once power is out.
    fn step(&mut self, rng: &mut StdRng, op: usize) -> bool {
        if self.dark {
            return false;
        }
        let ctx = format!("op {op}:");
        let dice = rng.gen_range(0..100);
        match dice {
            // 55%: write a random extent.
            0..=54 => return self.write(rng),
            // 15%: read-verify an extent against the oracle.
            55..=69 => {
                let v = self.live_vols[rng.gen_range(0..self.live_vols.len())];
                let size = self.oracle.size_sectors(v);
                let n = rng.gen_range(1..=32u64);
                let start = rng.gen_range(0..size - n);
                let read = self.a.read(v, start * SECTOR as u64, n as usize * SECTOR);
                if let Some((read, _)) = self.must(op, &format!("read vol {}", v.0), read) {
                    let bad = self.oracle.check_read(v, start, &read, &ctx);
                    self.violations.extend(bad);
                }
            }
            // 8%: snapshot.
            70..=77 => {
                let v = self.live_vols[rng.gen_range(0..self.live_vols.len())];
                let snap = self.a.snapshot(v, &format!("s{op}"));
                if let Some(s) = self.must(op, "snapshot", snap) {
                    self.oracle.snapshot(s, v);
                    self.live_snaps.push(s);
                }
            }
            // 5%: clone the newest snapshot.
            78..=82 => {
                if let Some(&s) = self.live_snaps.last() {
                    let clone = self.a.clone_snapshot(s, &format!("c{op}"));
                    if let Some(c) = self.must(op, "clone", clone) {
                        self.oracle.clone_snapshot(s, c);
                        self.live_vols.push(c);
                    }
                }
            }
            // 4%: spot-verify a snapshot sector.
            83..=86 => {
                if !self.live_snaps.is_empty() {
                    let s = self.live_snaps[rng.gen_range(0..self.live_snaps.len())];
                    let size = self.oracle.snapshot_size_sectors(s);
                    let sector = rng.gen_range(0..size);
                    let read = self.a.read_snapshot(s, sector * SECTOR as u64, SECTOR);
                    if let Some(read) = self.must(op, &format!("snap read {}", s.0), read) {
                        let bad = self.oracle.check_snapshot_read(s, sector, &read, &ctx);
                        self.violations.extend(bad);
                    }
                }
            }
            // 3%: destroy a snapshot.
            87..=89 => {
                if self.live_snaps.len() > 1 {
                    let idx = rng.gen_range(0..self.live_snaps.len());
                    let s = self.live_snaps.remove(idx);
                    let destroyed = self.a.destroy_snapshot(s);
                    self.must(op, "destroy snap", destroyed);
                    self.oracle.destroy_snapshot(s);
                }
            }
            // 3%: GC, 2%: scrub, 2%: checkpoint.
            90..=96 => {
                let (what, done) = match dice {
                    90..=92 => ("gc", self.a.run_gc().map(drop)),
                    93..=94 => ("scrub", self.a.scrub().map(drop)),
                    _ => ("checkpoint", self.a.checkpoint()),
                };
                self.must(op, what, done);
            }
            // 3%: let virtual time pass — or, model checking, 2%: pull or
            // reinsert a drive (at most 2 out) and 1%: fail over.
            _ => match &mut self.pulled {
                None => {
                    self.a.advance(rng.gen_range(100 * US..2 * MS));
                }
                Some(pulled) if dice <= 98 => {
                    if pulled.len() < 2 && rng.gen_bool(0.6) {
                        let d = rng.gen_range(0..self.a.config().n_drives);
                        if !pulled.contains(&d) {
                            self.a.fail_drive(d);
                            pulled.push(d);
                        }
                    } else if let Some(d) = pulled.pop() {
                        self.a.revive_drive(d);
                    }
                }
                Some(_) => {
                    let failed_over = self.a.fail_primary();
                    self.must(op, "failover", failed_over);
                }
            },
        }
        true
    }
}

/// Randomized model checking: `ops` of the seeded mix against a fresh
/// array whose drives are pulled and reinserted and whose controller
/// fails over along the way, then the full sweep. Any divergence between
/// the log-structured, deduped, compressed, erasure-coded array and the
/// oracle's sector map is a bug. Returns the array (for its export)
/// and the violations.
pub fn run_model_check(seed: u64, ops: usize) -> (FlashArray, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut run = Run::new(ArrayConfig::test_small(), Some(Vec::new()));
    for op in 0..ops {
        if !run.step(&mut rng, op) {
            break;
        }
    }
    let sweep = run.oracle.verify_all(&mut run.a);
    run.violations.extend(sweep);
    run.violations.extend(final_checks("", &run.a));
    (run.a, run.violations)
}

/// Runs one campaign to completion. Pure in `spec`.
pub fn run_campaign(spec: &CampaignSpec) -> CampaignOutcome {
    let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // The tier-demote phase needs the tiering engine (cold drives, RAM
    // cache, migrator) configured in; every other phase keeps the seed
    // config so existing repro lines stay stable.
    let cfg = if spec.phase == CrashPhase::TierDemote {
        ArrayConfig::tiered()
    } else {
        ArrayConfig::test_small()
    };
    // The checkpointed persist set is the frontier plus the speculative
    // set — 2x the frontier size per drive (see `AuAllocator::
    // build_persist_set`). A frontier-bounded scan may touch at most
    // that many AU headers, no matter how much data the array holds.
    let frontier_bound = 2 * cfg.frontier_aus_per_drive * cfg.n_drives;
    let mut run = Run::new(cfg, None);

    // Optional full-stack warm-up: the host engine (QoS, queue depths,
    // multipath) pounds a separate volume whose contents the oracle
    // does not track — it exists to leave realistic segment/NVRAM/cache
    // state behind before the crash.
    if spec.host_stage {
        let vol_bytes: u64 = 4 << 20;
        match run.a.create_volume("host", vol_bytes) {
            Err(e) => run.violations.push(format!("host stage: volume: {e}")),
            Ok(hv) => {
                let mut gen = WorkloadGen::new(
                    spec.seed ^ 0xB0057,
                    vol_bytes,
                    AccessPattern::Uniform,
                    SizeMix::fixed(8 * 1024),
                    50,
                    ContentModel::Rdbms,
                    0,
                );
                let engine = HostEngine::new(HostConfig {
                    initiators: 2,
                    queue_depth: 4,
                    ..HostConfig::default()
                });
                let r = engine.run_closed_loop(&mut run.a, hv, &mut gen, 150, None);
                if r.failed_ops > 0 {
                    run.violations
                        .push(format!("host stage: {} ops failed", r.failed_ops));
                }
            }
        }
    }

    // Phase 1: the pre-crash op mix.
    for op in 0..spec.crash_op {
        if !run.step(&mut rng, op) {
            break;
        }
    }

    // Phase 2: arm the trigger and drive I/O into it.
    let phase_hit = stage_crash(spec, &mut run, &mut rng);

    // Phase 3: cold start.
    let report = match run.a.power_loss(PowerLossSpec {
        recovery: RecoveryOptions {
            mode: if spec.full_scan {
                ScanMode::FullScan
            } else {
                ScanMode::Frontier
            },
            skip_nvram_replay: spec.sabotage,
        },
    }) {
        Ok(r) => r,
        Err(e) => {
            run.violations.push(format!("cold start failed: {e}"));
            return CampaignOutcome {
                violations: run.violations,
                phase_hit,
                torn: None,
                downtime: 0,
                recovery: RecoveryReport::default(),
                acked_sectors: run.oracle.acked_sectors(),
            };
        }
    };

    // Phase 4: verification. Settle the in-flight write, check the
    // structural invariants, hold the frontier scan to its bound.
    let settle = run.oracle.settle(&mut run.a);
    run.violations.extend(settle);
    run.violations.extend(run.a.verify_integrity());
    if !spec.full_scan && report.recovery.aus_scanned > frontier_bound {
        run.violations.push(format!(
            "frontier scan touched {} AUs, bound is {}",
            report.recovery.aus_scanned, frontier_bound
        ));
    }
    run.dark = false;

    // Phase 5: life goes on — the recovered array must take more ops.
    for op in 0..spec.post_ops {
        if !run.step(&mut rng, spec.crash_op + op) {
            run.violations
                .push(format!("post-crash op {op}: array went dark again"));
            break;
        }
    }

    // Phase 6: the full durability sweep, then the checks every kind
    // runs on every array it leaves powered.
    let sweep = run.oracle.verify_all(&mut run.a);
    run.violations.extend(sweep);
    run.violations.extend(final_checks("", &run.a));

    CampaignOutcome {
        violations: run.violations,
        phase_hit,
        torn: report.torn.clone(),
        downtime: report.downtime,
        recovery: report.recovery,
        acked_sectors: run.oracle.acked_sectors(),
    }
}

/// Arms the phase's trigger and pushes I/O at it until the lights go
/// out. Returns whether the targeted phase was actually hit (vs a
/// clean-cut fallback when the workload never reached that write).
fn stage_crash(spec: &CampaignSpec, run: &mut Run, rng: &mut StdRng) -> bool {
    if run.dark {
        // Power already died during the op mix (only possible when a
        // prior stage armed something — defensive).
        return false;
    }
    match spec.phase {
        CrashPhase::OpBoundary => {
            run.a.cut_power();
            run.dark = true;
            true
        }
        CrashPhase::NvramTail => {
            // Tear the tail off the very next NVRAM append.
            let keep = rng.gen_range(1..64);
            run.a.arm_power_loss(CrashTarget::NvramAppend, 0, keep);
            for _ in 0..4 {
                if !run.write(rng) {
                    break;
                }
            }
            finish_stage(run, "NVRAM-append")
        }
        CrashPhase::SegmentFlush => {
            // Segment writes happen when a write unit fills (or on the
            // checkpoint's flush); keep writing until one trips it.
            let after = rng.gen_range(0..4);
            let keep = rng.gen_range(1..4096);
            run.a.arm_power_loss(CrashTarget::SegmentWrite, after, keep);
            for _ in 0..256 {
                if !run.write(rng) {
                    break;
                }
            }
            if run.a.powered() {
                // Force a flush of whatever is buffered.
                let _ = run.a.checkpoint();
                run.dark = !run.a.powered();
            }
            finish_stage(run, "segment write")
        }
        CrashPhase::Checkpoint => {
            // Tear one of the checkpoint's boot-region mirror writes,
            // leaving a torn A/B slot for recovery to fall back from.
            let after = rng.gen_range(0..3);
            let keep = rng.gen_range(1..2048);
            run.a.arm_power_loss(CrashTarget::BootWrite, after, keep);
            let _ = run.a.checkpoint();
            run.dark = !run.a.powered();
            finish_stage(run, "boot-region write")
        }
        CrashPhase::TierDemote => {
            // Tear a cold-slot write mid-demotion: idle the volumes
            // past `tier_demote_after_ns` so the migrator starts
            // copying them down, straight into the armed trigger.
            let after = rng.gen_range(0..3);
            let keep = rng.gen_range(1..4096);
            run.a.arm_power_loss(CrashTarget::ColdWrite, after, keep);
            for _ in 0..40 {
                run.a.advance(50 * MS);
                if !run.a.powered() {
                    break;
                }
            }
            run.dark = !run.a.powered();
            finish_stage(run, "cold write")
        }
    }
}

/// Common tail of the armed stages: if the trigger never fired, fall
/// back to a clean cut so the campaign still exercises recovery; report
/// whether the torn note names the targeted phase.
fn finish_stage(run: &mut Run, expect: &str) -> bool {
    if run.a.powered() {
        run.a.cut_power();
        run.dark = true;
        return false;
    }
    run.dark = true;
    run.a.torn_note().is_some_and(|n| n.contains(expect))
}

/// What every kind checks on every array it leaves powered (a dark one
/// passes), each finding prefixed with `who`: the structural invariants,
/// and the flight recorder's incident log against the virtual-time
/// timeline — ids dense from 0, opens monotone and never before the
/// recorder's first interval (its boot; a cold start begins a new
/// recorder), closes after their opens and never in the future, at most
/// the final incident still open.
pub(crate) fn final_checks(who: &str, a: &FlashArray) -> Vec<String> {
    if !a.powered() {
        return Vec::new();
    }
    let mut violations = a.verify_integrity();
    let rec = &a.obs().recorder;
    let incidents = rec.incidents();
    let (born, now) = (rec.first_interval_start(), a.now());
    let mut prev_open = 0;
    for (i, inc) in incidents.iter().enumerate() {
        let (id, opened) = (inc.id, inc.opened_at);
        if id != i as u64 {
            violations.push(format!("incident {i} has id {id}"));
        }
        if opened < born || opened > now {
            violations.push(format!(
                "incident {id} opened at {opened}, outside the recorder's life {born}..={now}"
            ));
        }
        if opened < prev_open {
            violations.push(format!("incident {id} opens out of order"));
        }
        prev_open = opened;
        match inc.closed_at {
            Some(c) if c < opened || c > now => violations.push(format!(
                "incident {id} closed at {c} outside ({opened}..{now}]"
            )),
            None if i + 1 != incidents.len() => {
                violations.push(format!("incident {id} open but not the latest"))
            }
            _ => {}
        }
    }
    violations
        .into_iter()
        .map(|v| format!("{who}{v}"))
        .collect()
}

impl Campaign for CampaignSpec {
    const KIND: &'static str = "array";
    type Outcome = CampaignOutcome;

    fn from_seed(seed: u64) -> Self {
        Self::new(seed, CrashPhase::OpBoundary)
    }

    fn run(&self) -> CampaignOutcome {
        run_campaign(self)
    }

    fn violations(outcome: &CampaignOutcome) -> &[String] {
        &outcome.violations
    }

    /// Post-crash ops first — a failure that survives `post_ops = 0` is
    /// caught by the final sweep alone — then the pre-crash count.
    fn smaller(&self) -> Vec<Self> {
        let post = [0, self.post_ops / 2]
            .into_iter()
            .filter(|&n| n < self.post_ops)
            .map(|post_ops| Self { post_ops, ..*self });
        let pre = halvings(self.crash_op).map(|crash_op| Self { crash_op, ..*self });
        post.chain(pre).collect()
    }

    fn fields(&mut self) -> Vec<(&'static str, &mut dyn Field)> {
        vec![
            ("seed", &mut self.seed),
            ("phase", &mut self.phase),
            ("crash_op", &mut self.crash_op),
            ("post_ops", &mut self.post_ops),
            ("full_scan", &mut self.full_scan),
            ("sabotage", &mut self.sabotage),
            ("host", &mut self.host_stage),
        ]
    }
}
