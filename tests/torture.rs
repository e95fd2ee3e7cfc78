//! Crash–recovery torture: bounded seed sweeps for CI.
//!
//! Each campaign loses whole-array power at an adversarial instant and
//! must cold-start with every promise intact (see
//! `purity_torture::oracle` for the contract). Wider sweeps live in the
//! `exp_torture` bench binary; any failure there prints a one-line
//! repro that replays under `exp_torture --repro`.

use purity_torture::{
    failing, run_campaign, run_cluster_campaign, run_repl_campaign, shrink, CampaignSpec,
    ClusterCampaignSpec, ClusterFault, CrashPhase, ReplCampaignSpec,
};

/// Runs one seed sweep for a phase; asserts zero violations everywhere
/// and returns how many campaigns actually hit the targeted phase.
fn sweep(phase: CrashPhase, seeds: std::ops::Range<u64>) -> usize {
    let mut hits = 0;
    for seed in seeds {
        let spec = CampaignSpec::new(seed, phase);
        let out = run_campaign(&spec);
        assert!(
            out.violations.is_empty(),
            "seed {} phase {} violated the durability contract:\n  {}\nrepro: exp_torture {}",
            seed,
            phase.name(),
            out.violations.join("\n  "),
            purity_torture::repro_line(&spec),
        );
        assert!(
            out.acked_sectors > 0,
            "seed {seed}: campaign acked nothing — not a meaningful run"
        );
        if out.phase_hit {
            hits += 1;
        }
    }
    hits
}

#[test]
fn torture_nvram_tail() {
    let hits = sweep(CrashPhase::NvramTail, 0..6);
    assert!(hits >= 4, "NVRAM-tail trigger rarely fired: {hits}/6");
}

#[test]
fn torture_segment_flush() {
    let hits = sweep(CrashPhase::SegmentFlush, 10..16);
    assert!(hits >= 4, "segment-flush trigger rarely fired: {hits}/6");
}

#[test]
fn torture_checkpoint() {
    let hits = sweep(CrashPhase::Checkpoint, 20..26);
    assert!(hits >= 4, "checkpoint trigger rarely fired: {hits}/6");
}

#[test]
fn torture_op_boundary() {
    let hits = sweep(CrashPhase::OpBoundary, 30..36);
    assert_eq!(hits, 6, "clean cuts always count as hits");
}

/// ISSUE 10: power loss mid-demotion. The migrator's cold-slot copy is
/// torn on a tiered array; recovery must keep every acked write and
/// never serve a stale or torn cold slot.
#[test]
fn torture_tier_demote() {
    let hits = sweep(CrashPhase::TierDemote, 60..66);
    assert!(hits >= 4, "tier-demote trigger rarely fired: {hits}/6");
}

/// Full-device scan recovery must satisfy the same contract as the
/// frontier scan.
#[test]
fn torture_full_scan() {
    for seed in 40..42u64 {
        let spec = CampaignSpec {
            full_scan: true,
            ..CampaignSpec::new(seed, CrashPhase::SegmentFlush)
        };
        let out = run_campaign(&spec);
        assert!(
            out.violations.is_empty(),
            "full-scan seed {seed}: {:?}",
            out.violations
        );
    }
}

/// The host engine stage (QoS + multipath front end) layered under the
/// crash changes nothing about the contract.
#[test]
fn torture_with_host_stage() {
    for seed in 50..52u64 {
        let spec = CampaignSpec {
            host_stage: true,
            ..CampaignSpec::new(seed, CrashPhase::NvramTail)
        };
        let out = run_campaign(&spec);
        assert!(
            out.violations.is_empty(),
            "host-stage seed {seed}: {:?}",
            out.violations
        );
    }
}

/// Crash-during-replication: destination power loss mid-ship (plus
/// link flaps), then source loss, promotion and reprotect. The oracle:
/// every lineage snapshot — and the promoted volume — is bit-exact
/// some fully-acked source snapshot, never a torn mix.
#[test]
fn torture_replication_crash_consistency() {
    let mut crashes = 0;
    let mut resumes = 0;
    for seed in 0..8u64 {
        let spec = ReplCampaignSpec::new(seed);
        let out = run_repl_campaign(&spec);
        assert!(
            out.violations.is_empty(),
            "repl seed {seed} violated the replica-consistency contract:\n  {}",
            out.violations.join("\n  ")
        );
        assert!(
            out.ships_completed >= spec.rounds as u64,
            "seed {seed}: {out:?}"
        );
        assert!(out.promoted_ok, "seed {seed}: promote drill did not verify");
        crashes += out.dst_crashes;
        resumes += out.cursor_resumes;
    }
    assert!(
        crashes >= 8,
        "destination crash trigger rarely fired across the sweep: {crashes}"
    );
    assert!(
        resumes > 0,
        "no transfer ever resumed from a persisted cursor"
    );
}

/// Cluster-plane torture: kill or partition one of N >= 3 arrays
/// mid-traffic. The fleet contract — exactly-once acks cluster-wide,
/// acked data bit-exact after rebuild, replicas byte-identical, full
/// redundancy restored — must hold for every seed.
#[test]
fn torture_cluster_fault_sweep() {
    let mut kills = 0;
    let mut partitions = 0;
    let mut revives = 0;
    for seed in 0..6u64 {
        let spec = ClusterCampaignSpec::new(seed);
        let out = run_cluster_campaign(&spec);
        assert!(
            out.violations.is_empty(),
            "cluster seed {seed} ({:?}) violated the fleet contract:\n  {}",
            spec.fault,
            out.violations.join("\n  ")
        );
        assert!(
            out.audit.clean(),
            "cluster seed {seed}: ack audit dirty: {:?}",
            out.audit
        );
        assert!(
            out.acked_writes > 0 && out.acked_reads > 0,
            "cluster seed {seed}: campaign did no real work"
        );
        match spec.fault {
            ClusterFault::Kill => {
                kills += 1;
                assert!(
                    out.confirms > 0 && out.rebuilds_done > 0,
                    "cluster seed {seed}: kill was never confirmed/rebuilt: {out:?}"
                );
                assert!(
                    out.detection_ns.is_some(),
                    "cluster seed {seed}: no detection"
                );
                if spec.revive {
                    revives += 1;
                }
            }
            ClusterFault::Partition { .. } => {
                partitions += 1;
                // Short partitions refute, long ones confirm + rebuild;
                // either way SWIM must have reacted.
                assert!(
                    out.confirms > 0 || out.refutations > 0,
                    "cluster seed {seed}: partition went unnoticed: {out:?}"
                );
            }
        }
    }
    assert!(
        kills >= 2 && partitions >= 1 && revives >= 1,
        "sweep personalities skewed: kills={kills} partitions={partitions} revives={revives}"
    );
}

/// Same cluster spec, run twice: identical outcome — violation
/// strings, counters, detection instants, everything.
#[test]
fn cluster_campaign_is_deterministic() {
    for seed in [1u64, 2] {
        let spec = ClusterCampaignSpec::new(seed);
        let a = format!("{:?}", run_cluster_campaign(&spec));
        let b = format!("{:?}", run_cluster_campaign(&spec));
        assert_eq!(
            a, b,
            "seed {seed}: same cluster spec must replay identically"
        );
    }
}

/// Same replication spec, run twice: identical outcome.
#[test]
fn repl_campaign_is_deterministic() {
    let spec = ReplCampaignSpec::new(5);
    let a = format!("{:?}", run_repl_campaign(&spec));
    let b = format!("{:?}", run_repl_campaign(&spec));
    assert_eq!(a, b, "same replication spec must replay identically");
}

/// Same spec, run twice: byte-identical outcome. Violation strings,
/// torn notes, recovery counters — everything. This is what makes a
/// failing triple a repro rather than an anecdote.
#[test]
fn campaign_is_deterministic() {
    let spec = CampaignSpec::new(7, CrashPhase::SegmentFlush);
    let a = format!("{:?}", run_campaign(&spec));
    let b = format!("{:?}", run_campaign(&spec));
    assert_eq!(a, b, "same spec must replay identically");
}

/// Oracle power check: deliberately sabotage recovery (skip NVRAM
/// replay) and the oracle MUST catch the missing acked writes. If this
/// test fails, the whole suite is a rubber stamp.
#[test]
fn sabotaged_recovery_is_caught() {
    let spec = CampaignSpec {
        sabotage: true,
        ..CampaignSpec::new(3, CrashPhase::OpBoundary)
    };
    let out = run_campaign(&spec);
    assert!(
        !out.violations.is_empty(),
        "skipping NVRAM replay must lose acked writes — the oracle saw nothing"
    );
}

/// The shrinker takes a seeded failure down to a handful of ops and
/// prints a repro line that parses back to the same spec.
#[test]
fn shrinker_minimizes_a_seeded_failure() {
    let spec = CampaignSpec {
        sabotage: true,
        ..CampaignSpec::new(3, CrashPhase::OpBoundary)
    };
    assert!(failing(&spec));
    let shrunk = shrink(&spec);
    assert!(
        failing(&shrunk.spec),
        "shrunk spec must still fail: {:?}",
        shrunk
    );
    let total = shrunk.spec.crash_op + shrunk.spec.post_ops;
    assert!(
        total <= 25,
        "expected <= 25 ops after shrinking, got {total} ({:?}, {} runs)",
        shrunk.spec,
        shrunk.runs
    );
    let line = purity_torture::repro_line(&shrunk.spec);
    let payload = line.strip_prefix("--repro ").unwrap();
    assert_eq!(
        purity_torture::parse_repro(payload),
        Some(shrunk.spec),
        "repro line must parse back to the shrunk spec"
    );
}

/// Repeated power loss with no GC in between (PR 11 finding 2): twenty
/// cold starts on one tiered array, rotating through the crash phases.
/// Nothing but a GC pass compacts the on-disk patches, so every cold
/// start reloads every fact ever written and the post-recovery flush
/// keeps growing; it used to outgrow a segment's log space, fail the
/// write with an internal error and take acked data with it. A write
/// may fail only because power is off or with the typed `OutOfSpace`,
/// and every acked sector must read back after every cold start.
#[test]
fn repeated_power_loss_without_gc_never_returns_wrong_data() {
    use purity_core::{ArrayConfig, CrashTarget, FlashArray, PowerLossSpec, PurityError, SECTOR};
    use purity_torture::DurabilityOracle;
    use purity_wkld::{AccessPattern, ContentModel, Op, SizeMix, WorkloadGen};

    const VOL_BYTES: u64 = 2 << 20;
    let mut a = FlashArray::new(ArrayConfig::tiered()).unwrap();
    let mut oracle = DurabilityOracle::new();
    let vols = [
        a.create_volume("v0", VOL_BYTES).unwrap(),
        a.create_volume("v1", VOL_BYTES).unwrap(),
    ];
    for &v in &vols {
        oracle.create_volume(v, VOL_BYTES);
    }
    let mut gen = WorkloadGen::new(
        0x5EED_0012,
        VOL_BYTES,
        AccessPattern::Uniform,
        SizeMix {
            choices: vec![(512, 2), (4096, 3), (16 * 1024, 2)],
        },
        40,
        ContentModel::Rdbms,
        200_000,
    );
    // One generated op; a refused write stays staged for `settle`.
    // Returns false once the array stops taking writes.
    let mut step = |a: &mut FlashArray, oracle: &mut DurabilityOracle, vol| -> bool {
        let op = gen.next_op();
        a.advance(gen.interarrival);
        match op {
            Op::Read { offset, len } => {
                if let Ok((read, _)) = a.read(vol, offset, len) {
                    let bad = oracle.check_read(vol, offset / SECTOR as u64, &read, "read");
                    assert!(bad.is_empty(), "{bad:?}");
                }
                true
            }
            Op::Write { offset, data } => {
                oracle.stage_write(vol, offset / SECTOR as u64, &data);
                match a.write(vol, offset, &data) {
                    Ok(_) => {
                        oracle.commit_staged();
                        true
                    }
                    Err(e) => {
                        assert!(
                            !a.powered() || e == PurityError::OutOfSpace,
                            "a powered array refused a write with {e:?}"
                        );
                        oracle.abandon_staged();
                        false
                    }
                }
            }
        }
    };
    for &v in &vols {
        for i in 0..VOL_BYTES / (64 * 1024) {
            let data = vec![(v.0 * 31 + i) as u8 | 1; 64 * 1024];
            oracle.stage_write(v, i * 128, &data);
            a.write(v, i * 64 * 1024, &data).unwrap();
            oracle.commit_staged();
        }
    }
    a.checkpoint().unwrap();

    for cycle in 0..20usize {
        let vol = vols[cycle % 2];
        let mut taking = true;
        for _ in 0..20 + (cycle * 13) % 60 {
            taking = taking && step(&mut a, &mut oracle, vol);
        }
        match cycle % 5 {
            0 => {}
            1 => {
                a.arm_power_loss(CrashTarget::NvramAppend, 0, 17);
                for _ in 0..16 {
                    taking = taking && step(&mut a, &mut oracle, vol);
                }
            }
            2 => {
                a.arm_power_loss(CrashTarget::SegmentWrite, 1, 1000);
                for _ in 0..600 {
                    taking = taking && step(&mut a, &mut oracle, vol);
                }
                if a.powered() {
                    let _ = a.checkpoint();
                }
            }
            3 => {
                a.arm_power_loss(CrashTarget::BootWrite, 1, 700);
                let _ = a.checkpoint();
            }
            _ => {
                a.arm_power_loss(CrashTarget::ColdWrite, 1, 2000);
                for _ in 0..40 {
                    a.advance(50_000_000);
                    if !a.powered() {
                        break;
                    }
                }
            }
        }
        a.power_loss(PowerLossSpec::default())
            .unwrap_or_else(|e| panic!("cold start {cycle}: {e}"));
        let bad = oracle.settle(&mut a);
        assert!(bad.is_empty(), "cycle {cycle}: {bad:?}");
        let broken = a.verify_integrity();
        assert!(broken.is_empty(), "cycle {cycle}: {broken:?}");
    }
    let lost = oracle.verify_all(&mut a);
    assert!(
        lost.is_empty(),
        "{} sectors lost: {:?}",
        lost.len(),
        &lost[..lost.len().min(5)]
    );
}
