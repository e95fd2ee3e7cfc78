//! The campaign engine's bounded seed sweeps for CI, one per kind.
//!
//! Each array campaign loses whole-array power at an adversarial instant
//! and must cold-start with every promise intact (see
//! `purity_torture::oracle` for the contract); the cluster and
//! replication campaigns hold their planes to the same oracle through
//! their own faults. Wider sweeps live in the `exp_torture` exhibit; a
//! failure there or here is shrunk and printed as a one-line repro that
//! replays under `exp_torture --repro`, whatever the kind.

use purity_torture::{
    failing, parse_repro, repro_line, shrink, sweep, Campaign, CampaignSpec, ClusterCampaignSpec,
    ClusterFault, CrashPhase, Failure, ReplCampaignSpec,
};

/// A sweep must come back clean; a failure prints its violations and the
/// shrunk one-line repro.
fn assert_clean(contract: &str, swept: Option<Failure>) {
    if let Some(f) = swept {
        panic!("{contract}: {f}");
    }
}

/// Runs one seed sweep of array specs; asserts zero violations
/// everywhere and returns how many campaigns actually hit the targeted
/// phase.
fn array_sweep(specs: impl IntoIterator<Item = CampaignSpec>) -> usize {
    let mut hits = 0;
    let swept = sweep(specs, |spec, out| {
        assert!(
            !out.violations.is_empty() || out.acked_sectors > 0,
            "seed {}: campaign acked nothing — not a meaningful run",
            spec.seed
        );
        hits += usize::from(out.phase_hit);
    });
    assert_clean("the durability contract", swept);
    hits
}

fn phase_sweep(phase: CrashPhase, seeds: std::ops::Range<u64>) -> usize {
    array_sweep(seeds.map(|seed| CampaignSpec::new(seed, phase)))
}

#[test]
fn torture_nvram_tail() {
    let hits = phase_sweep(CrashPhase::NvramTail, 0..6);
    assert!(hits >= 4, "NVRAM-tail trigger rarely fired: {hits}/6");
}

#[test]
fn torture_segment_flush() {
    let hits = phase_sweep(CrashPhase::SegmentFlush, 10..16);
    assert!(hits >= 4, "segment-flush trigger rarely fired: {hits}/6");
}

#[test]
fn torture_checkpoint() {
    let hits = phase_sweep(CrashPhase::Checkpoint, 20..26);
    assert!(hits >= 4, "checkpoint trigger rarely fired: {hits}/6");
}

#[test]
fn torture_op_boundary() {
    let hits = phase_sweep(CrashPhase::OpBoundary, 30..36);
    assert_eq!(hits, 6, "clean cuts always count as hits");
}

/// Power loss mid-demotion: a write of the migrator's copy into a cold
/// segment is torn on a tiered array; recovery must keep every acked
/// write and never serve a stale or torn cold stripe.
#[test]
fn torture_tier_demote() {
    let hits = phase_sweep(CrashPhase::TierDemote, 60..66);
    assert!(hits >= 4, "tier-demote trigger rarely fired: {hits}/6");
}

/// Full-device scan recovery must satisfy the same contract as the
/// frontier scan.
#[test]
fn torture_full_scan() {
    array_sweep((40..42).map(|seed| CampaignSpec {
        full_scan: true,
        ..CampaignSpec::new(seed, CrashPhase::SegmentFlush)
    }));
}

/// The host engine stage (queue + multipath front end) layered under the
/// crash changes nothing about the contract.
#[test]
fn torture_with_host_stage() {
    array_sweep((50..52).map(|seed| CampaignSpec {
        host_stage: true,
        ..CampaignSpec::new(seed, CrashPhase::NvramTail)
    }));
}

/// Crash-during-replication: destination power loss mid-ship (plus
/// link flaps), then source loss, promotion and reprotect. The oracle:
/// every lineage snapshot — and the promoted volume — is bit-exact
/// some fully-acked source snapshot, never a torn mix.
#[test]
fn torture_replication_crash_consistency() {
    let mut crashes = 0;
    let mut resumes = 0;
    let swept = sweep((0..8).map(ReplCampaignSpec::from_seed), |spec, out| {
        if out.violations.is_empty() {
            assert!(
                out.ships_completed >= spec.rounds as u64,
                "seed {}: {out:?}",
                spec.seed
            );
            assert!(
                out.promoted_ok,
                "seed {}: promote drill did not verify",
                spec.seed
            );
        }
        crashes += out.dst_crashes;
        resumes += out.cursor_resumes;
    });
    assert_clean("the replica-consistency contract", swept);
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
    let swept = sweep((0..6).map(ClusterCampaignSpec::from_seed), |spec, out| {
        let seed = spec.seed;
        if !out.violations.is_empty() {
            return;
        }
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
                revives += usize::from(spec.revive);
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
    });
    assert_clean("the fleet contract", swept);
    assert!(
        kills >= 2 && partitions >= 1 && revives >= 1,
        "sweep personalities skewed: kills={kills} partitions={partitions} revives={revives}"
    );
}

/// `spec` with its test-only `sabotage` flag set. Per kind that is: NVRAM
/// replay skipped at the cold start; one acked write withheld from one
/// in-sync replica behind the cluster's back; one shipped snapshot's
/// image altered by a sector.
fn sabotaged<C: Campaign>(mut spec: C) -> C {
    let flag = spec
        .fields()
        .into_iter()
        .find(|(key, _)| *key == "sabotage");
    flag.expect("every kind has the flag")
        .1
        .set("true")
        .unwrap();
    spec
}

/// Oracle power check: the contract of every kind MUST flag its
/// sabotaged run and pass the twin that differs only in the flag. If
/// this test fails, the whole suite is a rubber stamp.
#[test]
fn sabotaged_recovery_is_caught() {
    fn caught<C: Campaign>(clean: C) {
        let line = repro_line(&sabotaged(clean));
        assert!(!failing(&clean), "{}: the clean twin fails", C::KIND);
        assert!(
            failing(&sabotaged(clean)),
            "the contract saw nothing: {line}"
        );
    }
    caught(CampaignSpec::new(3, CrashPhase::OpBoundary));
    caught(ClusterCampaignSpec::from_seed(0));
    caught(ReplCampaignSpec::from_seed(0));
}

/// The shrinker takes a seeded failure of any kind down to a spec no
/// larger than the input — an array campaign to a handful of ops — and
/// prints a repro line that parses back to the same spec.
#[test]
fn shrinker_minimizes_a_seeded_failure() {
    fn shrunk<C: Campaign>(clean: C) -> C {
        let shrunk = shrink(&sabotaged(clean));
        assert!(failing(&shrunk), "must still fail: {shrunk:?}");
        let line = repro_line(&shrunk);
        let payload = line.strip_prefix("--repro ").unwrap();
        assert_eq!(
            parse_repro(payload),
            Some(shrunk),
            "repro line must parse back to the shrunk spec"
        );
        shrunk
    }
    let a = shrunk(CampaignSpec::new(3, CrashPhase::OpBoundary));
    assert!(a.crash_op + a.post_ops <= 25, "array: {a:?}");
    let c = shrunk(ClusterCampaignSpec::from_seed(0));
    assert!(c.ops <= 4 && !c.revive && !c.flaky_links, "cluster: {c:?}");
    let r = shrunk(ReplCampaignSpec::from_seed(0));
    assert!(r.rounds <= 1, "repl: {r:?}");
}

/// Every kind, at every size its shrinker can ask for from the floor to
/// the default: an outcome, never a panic. (`ops < 4` used to die in
/// `gen_range` and a source lost before any ship completed in an
/// `expect`.) What a small run may report is that a fault never landed;
/// the sizes the sweeps use are held to zero violations above.
#[test]
fn every_shrinkable_size_runs() {
    let array = CampaignSpec::new(1, CrashPhase::NvramTail);
    let sizes = (0..=array.crash_op).map(|n| (n, 0));
    for (crash_op, post_ops) in sizes.chain((0..=array.post_ops).map(|n| (0, n))) {
        CampaignSpec {
            crash_op,
            post_ops,
            ..array
        }
        .run();
    }
    for seed in [0, 2] {
        let cluster = ClusterCampaignSpec::from_seed(seed); // a kill; a partition
        for ops in 0..=cluster.ops {
            ClusterCampaignSpec { ops, ..cluster }.run();
        }
    }
    let repl = ReplCampaignSpec::from_seed(2);
    for rounds in 0..=repl.rounds {
        for crash_source in [false, true] {
            ReplCampaignSpec {
                rounds,
                crash_source,
                ..repl
            }
            .run();
        }
    }
}

/// Repeated power loss with no GC in between (PR 11 finding 2): twenty
/// cold starts on one tiered array, rotating through the crash phases.
/// Recovery used to write every fact it reloaded back as one patch, which
/// grew with each cold start until it outgrew a segment's log space,
/// failed the write with an internal error and took acked data with it.
/// A write may fail only because power is off or with the typed
/// `OutOfSpace`, and every acked sector must read back after every cold
/// start.
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
