//! The paper's budget as a tier-1 gate: "typical installations have
//! 99.9% latencies under 1 ms" (§1), bought by §4.4's scheduler.
//!
//! The E2 mix (`exp_tail_latency`, and `oltp_zipf` on the scorecard)
//! with a third of the scorecard's ops: an RDBMS volume six times the
//! DRAM cache, fully preloaded, then Zipf 0.99, 70 % reads, enterprise
//! sizes, one op every 650 us. Before the read planner consulted the
//! write schedule over a read's whole service span, about one read in
//! five hundred was issued just ahead of a paced write window and waited
//! all 5.2 ms of it out, which put the p99.9 at the scheduler-OFF figure.
//! (`exp_tail_latency --slowest N` prints such reads stage by stage.)
//!
//! The tiered leg holds the scorecard's `tier_shift` shape, at three
//! quarters of its ops, to the same budget: a volume demoted overnight
//! is read back from the cold mirror in the morning. The GC leg holds
//! the scorecard's `gc_churn` shape, at a quarter of its ops, to a read
//! p99 under 1 ms: reads between GC passes over an overwritten volume.
//! The crash leg replays one array of the scorecard's `crash_sweep`: a
//! cold start must not leave reads queued behind programs the drives
//! still hold from before the power loss. The host leg runs the
//! scorecard's `host_qd32` shape, scaled: a saturated closed loop whose
//! reads queue behind other reads, which the planner reads around only
//! where the wait pays for the rebuild.

use purity_core::{ArrayConfig, CrashTarget, FlashArray, PowerLossSpec};
use purity_sim::{LatencyHistogram, Nanos, MS};
use purity_wkld::{AccessPattern, ContentModel, Op, SizeMix, WorkloadGen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VOL_BYTES: u64 = 96 << 20;
const OPS: u64 = 8_000;

/// Issues `ops` generated ops, advancing the clock by the generator's
/// gap after each; `gc_every` > 0 runs a GC pass that often. Returns the
/// read latencies and the write latencies.
fn drive(
    a: &mut FlashArray,
    vol: purity_core::VolumeId,
    gen: &mut WorkloadGen,
    ops: u64,
    gc_every: u64,
) -> (LatencyHistogram, LatencyHistogram) {
    let (mut reads, mut writes) = (LatencyHistogram::new(), LatencyHistogram::new());
    for i in 1..=ops {
        match gen.next_op() {
            Op::Read { offset, len } => reads.record(a.read(vol, offset, len).unwrap().1.latency),
            Op::Write { offset, data } => {
                writes.record(a.write(vol, offset, &data).unwrap().latency)
            }
        }
        a.advance(gen.interarrival);
        if gc_every > 0 && i % gc_every == 0 {
            a.run_gc().unwrap();
        }
    }
    (reads, writes)
}

/// Runs the scaled mix; returns the window's read latencies and the
/// longest `die_stall_program` span any read of the window carried.
fn scaled_e2(seed: u64) -> (LatencyHistogram, Nanos) {
    let mut cfg = ArrayConfig::bench_medium();
    assert_eq!(VOL_BYTES, 6 * cfg.cache_bytes as u64);
    // Keep every read that waited at all long enough to matter.
    cfg.obs.slow_op_threshold = MS / 2;
    cfg.obs.slow_op_capacity = OPS as usize;
    let mut a = FlashArray::new(cfg).expect("format");
    let vol = a.create_volume("db", VOL_BYTES).unwrap();
    let unit = 128 * 1024;
    let mut loader = WorkloadGen::new(
        seed ^ 0x10,
        VOL_BYTES,
        AccessPattern::Sequential,
        SizeMix::fixed(unit),
        0,
        ContentModel::Rdbms,
        50_000,
    );
    drive(&mut a, vol, &mut loader, VOL_BYTES / unit as u64, 0);
    a.advance(10 * purity_sim::SEC);
    let window_opens = a.now();
    let mut mix = WorkloadGen::new(
        seed,
        VOL_BYTES,
        AccessPattern::Zipfian(0.99),
        SizeMix::enterprise(),
        70,
        ContentModel::Rdbms,
        650_000,
    );
    let (reads, _) = drive(&mut a, vol, &mut mix, OPS, 0);
    let worst_program_stall = a
        .obs()
        .tracer
        .slow_ops()
        .iter()
        .filter(|op| op.kind == "read" && op.issued_at >= window_opens)
        .flat_map(|op| &op.stages)
        .filter(|s| s.stage == "die_stall_program")
        .map(|s| s.duration())
        .max()
        .unwrap_or(0);
    (reads, worst_program_stall)
}

fn assert_inside_the_budget(seed: u64) {
    let (reads, worst_program_stall) = scaled_e2(seed);
    assert!(reads.count() > 5_000, "only {} reads", reads.count());
    assert!(
        reads.p999() < MS,
        "seed {seed}: read p99.9 {} ns over {} reads (max {} ns)",
        reads.p999(),
        reads.count(),
        reads.max()
    );
    assert!(
        worst_program_stall <= MS,
        "seed {seed}: a read waited {worst_program_stall} ns behind the array's own program"
    );
}

#[test]
fn scaled_e2_mix_meets_the_budget_seed_1() {
    assert_inside_the_budget(1);
}

#[test]
fn scaled_e2_mix_meets_the_budget_seed_2() {
    assert_inside_the_budget(2);
}

#[test]
fn scaled_e2_mix_meets_the_budget_seed_3() {
    assert_inside_the_budget(3);
}

/// The scorecard's `tier_shift` shape on a tiered array, at
/// [`TIER_OPS_PER_PHASE`] ops a phase: two 4 MiB volumes against a 2 MiB
/// cache, Zipf 0.99, 90 % reads, enterprise sizes, one op every 400 us.
/// Day on one volume; idle past the demote threshold, so the migrator
/// moves it to the cold mirror; night on the other; morning back on the
/// first, whose reads meet its cblocks on the cold drives until the
/// migrator promotes them. Returns every phase's read latencies.
fn tier_shift(seed: u64) -> LatencyHistogram {
    const TIER_VOL_BYTES: u64 = 4 << 20;
    let mut a = FlashArray::new(ArrayConfig::tiered()).expect("format");
    let day = a.create_volume("day", TIER_VOL_BYTES).unwrap();
    let night = a.create_volume("night", TIER_VOL_BYTES).unwrap();
    for (i, vol) in [day, night].into_iter().enumerate() {
        let unit = 64 * 1024;
        let mut loader = WorkloadGen::new(
            mix(seed, 0x04_10 + i as u64),
            TIER_VOL_BYTES,
            AccessPattern::Sequential,
            SizeMix::fixed(unit),
            0,
            ContentModel::Rdbms,
            50_000,
        );
        drive(&mut a, vol, &mut loader, TIER_VOL_BYTES / unit as u64, 0);
    }
    a.advance(100 * MS);
    let phase = |n: u64| {
        WorkloadGen::new(
            mix(seed, 0x04_70 + n),
            TIER_VOL_BYTES,
            AccessPattern::Zipfian(0.99),
            SizeMix::enterprise(),
            90,
            ContentModel::Rdbms,
            400_000,
        )
    };
    let (mut reads, _) = drive(&mut a, day, &mut phase(1), TIER_OPS_PER_PHASE, 0);
    for _ in 0..12 {
        a.advance(50 * MS);
    }
    assert!(
        a.stats().tier_demotions > 0,
        "seed {seed}: nothing was demoted"
    );
    reads.merge(&drive(&mut a, night, &mut phase(2), TIER_OPS_PER_PHASE, 0).0);
    let cold_reads = a.stats().cold_reads;
    reads.merge(&drive(&mut a, day, &mut phase(3), TIER_OPS_PER_PHASE, 0).0);
    assert!(
        a.stats().cold_reads > cold_reads,
        "seed {seed}: the morning read nothing cold"
    );
    reads
}

/// The scorecard's seed derivation (`benchmark/src/harness.rs::mix`), so
/// each phase here draws the scorecard's op stream.
fn mix(seed: u64, salt: u64) -> u64 {
    (seed ^ salt.rotate_left(32))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
        ^ salt
}

/// Three quarters of the scorecard's 8 000 ops a phase. When a read
/// fetched each cblock on its own, and a cold one only off the data copy
/// of its mirror, this leg's p99.9 fell in the 1.05–1.11 ms bucket on
/// each of seeds 1–3 (the full scorecard: 1.25–1.57 ms): cblocks that
/// share a page queued one page read apiece on its die, a ladder of
/// 155 us steps on a QLC drive.
const TIER_OPS_PER_PHASE: u64 = 6_000;

fn assert_tier_shift_inside_the_budget(seed: u64) {
    let reads = tier_shift(seed);
    assert!(reads.count() > 15_000, "only {} reads", reads.count());
    assert!(
        reads.p999() < MS,
        "seed {seed}: tiered read p99.9 {} ns over {} reads (max {} ns)",
        reads.p999(),
        reads.count(),
        reads.max()
    );
}

#[test]
fn tier_shift_meets_the_budget_seed_1() {
    assert_tier_shift_inside_the_budget(1);
}

#[test]
fn tier_shift_meets_the_budget_seed_2() {
    assert_tier_shift_inside_the_budget(2);
}

#[test]
fn tier_shift_meets_the_budget_seed_3() {
    assert_tier_shift_inside_the_budget(3);
}

/// The scorecard's `gc_churn` shape at [`CHURN_OPS`] window ops: an
/// 8 MiB volume on the small shelf, filled and overwritten twice with
/// 64 KiB writes, then uniform 64 KiB ops, 60 % reads, one op every
/// 100 us and a GC pass every 50 ops. Returns the window's read
/// latencies.
fn gc_churn(seed: u64) -> LatencyHistogram {
    const CHURN_VOL_BYTES: u64 = 8 << 20;
    let unit = 64 * 1024;
    let mut a = FlashArray::new(ArrayConfig::test_small()).expect("format");
    let vol = a.create_volume("churn", CHURN_VOL_BYTES).unwrap();
    let gen = |salt: u64, pattern: AccessPattern, read_pct: u8, gap: Nanos| {
        WorkloadGen::new(
            mix(seed, salt),
            CHURN_VOL_BYTES,
            pattern,
            SizeMix::fixed(unit),
            read_pct,
            ContentModel::Rdbms,
            gap,
        )
    };
    let mut loader = gen(0x03_10, AccessPattern::Sequential, 0, 50_000);
    drive(&mut a, vol, &mut loader, CHURN_VOL_BYTES / unit as u64, 0);
    let mut warm = gen(0x03_11, AccessPattern::Uniform, 0, 100_000);
    drive(&mut a, vol, &mut warm, 256, 25);
    let mut window = gen(0x03_7F, AccessPattern::Uniform, 60, 100_000);
    drive(&mut a, vol, &mut window, CHURN_OPS, 50).0
}

/// A quarter of the scorecard's 4 000 window ops. When a relocation
/// copied a cblock's dead sectors along with its live ones, a third of
/// the sectors GC programmed were dead, and this leg's read p99 was
/// 1.57 ms on seed 1 and 1.11 ms on seed 2 (the full scorecard: 1.16 and
/// 1.07 ms): reads queued on a die behind a GC pass's relocation
/// fetches. Now 0.59 and 0.41 ms.
const CHURN_OPS: u64 = 1_000;

fn assert_gc_churn_inside_the_budget(seed: u64) {
    let reads = gc_churn(seed);
    assert!(reads.count() > 500, "only {} reads", reads.count());
    assert!(
        reads.p99() < MS,
        "seed {seed}: read p99 under GC churn {} ns over {} reads (max {} ns)",
        reads.p99(),
        reads.count(),
        reads.max()
    );
}

#[test]
fn gc_churn_meets_the_budget_seed_1() {
    assert_gc_churn_inside_the_budget(1);
}

#[test]
fn gc_churn_meets_the_budget_seed_2() {
    assert_gc_churn_inside_the_budget(2);
}

/// One life of the scorecard's `crash_sweep` (its first array): a tiered
/// array, two 2 MiB volumes preloaded in 64 KiB writes 50 us apart, a
/// checkpoint, then the five crash phases in the sweep's order, each
/// staged after 60 ops of the sweep's mix (uniform, 40 % reads of 512 B
/// to 16 KiB, one op every 200 us) on the volumes in turn. Returns every
/// read's latency and every write's after the preload, the staged
/// bursts' included.
fn crash_life(seed: u64) -> (LatencyHistogram, LatencyHistogram) {
    const CRASH_VOL_BYTES: u64 = 2 << 20;
    let mut a = FlashArray::new(ArrayConfig::tiered()).expect("format");
    let vols = [
        a.create_volume("v0", CRASH_VOL_BYTES).unwrap(),
        a.create_volume("v1", CRASH_VOL_BYTES).unwrap(),
    ];
    for (i, &vol) in vols.iter().enumerate() {
        let unit = 64 * 1024;
        let mut loader = WorkloadGen::new(
            mix(seed, 0x05_1000 + i as u64),
            CRASH_VOL_BYTES,
            AccessPattern::Sequential,
            SizeMix::fixed(unit),
            0,
            ContentModel::Rdbms,
            50_000,
        );
        drive(&mut a, vol, &mut loader, CRASH_VOL_BYTES / unit as u64, 0);
    }
    a.checkpoint().unwrap();
    let mut gen = WorkloadGen::new(
        mix(seed, 0x05_7F),
        CRASH_VOL_BYTES,
        AccessPattern::Uniform,
        SizeMix {
            choices: vec![(512, 2), (4096, 3), (16 * 1024, 2)],
        },
        40,
        ContentModel::Rdbms,
        200_000,
    );
    let (mut reads, mut writes) = (LatencyHistogram::new(), LatencyHistogram::new());
    // Writes, all at one instant, until one is refused: the armed power
    // loss fired.
    let push_writes = |a: &mut FlashArray, gen: &mut WorkloadGen, vol, n: usize| {
        let mut writes = LatencyHistogram::new();
        for _ in 0..n {
            let (offset, data) = loop {
                if let Op::Write { offset, data } = gen.next_op() {
                    break (offset, data);
                }
            };
            match a.write(vol, offset, &data) {
                Ok(ack) => writes.record(ack.latency),
                Err(_) => break,
            }
        }
        writes
    };
    for phase in 0..5 {
        let vol = vols[phase % vols.len()];
        let (r, w) = drive(&mut a, vol, &mut gen, 60, 0);
        reads.merge(&r);
        writes.merge(&w);
        // `CrashPhase::ALL`'s order: a torn NVRAM tail, a torn segment
        // flush, a torn checkpoint, a clean cut, a torn demotion.
        match phase {
            0 => {
                a.arm_power_loss(CrashTarget::NvramAppend, 0, 17);
                writes.merge(&push_writes(&mut a, &mut gen, vol, 4));
            }
            1 => {
                a.arm_power_loss(CrashTarget::SegmentWrite, 1, 1000);
                writes.merge(&push_writes(&mut a, &mut gen, vol, 256));
                if a.powered() {
                    let _ = a.checkpoint();
                }
            }
            2 => {
                a.arm_power_loss(CrashTarget::BootWrite, 1, 700);
                let _ = a.checkpoint();
            }
            3 => {}
            _ => {
                a.arm_power_loss(CrashTarget::ColdWrite, 1, 2000);
                for _ in 0..40 {
                    a.advance(50 * MS);
                    if !a.powered() {
                        break;
                    }
                }
            }
        }
        a.power_loss(PowerLossSpec::default()).unwrap();
    }
    (reads, writes)
}

/// When a cold start forgot the write schedule, the programs the drives
/// still held from before the loss were invisible to the read planner,
/// and this life's read p99 was 2.36 ms (max 2.76 ms, both after the
/// clean cut): reads queued behind programs instead of reading around
/// them. Now 207.2 us.
#[test]
fn a_crash_sweep_life_meets_the_budget() {
    let (reads, _) = crash_life(1);
    assert!(reads.count() > 100, "only {} reads", reads.count());
    assert!(
        reads.p99() < MS,
        "read p99 across five cold starts {} ns over {} reads (max {} ns)",
        reads.p99(),
        reads.count(),
        reads.max()
    );
}

/// The staged bursts issue up to 256 writes at one instant. While each
/// write's share of an NVRAM channel was a program of its own, queued
/// behind the one before, the burst's writes alone had p99 2.62 / 2.51
/// / 2.52 ms on seeds 1–3. Now a write that finds its channel busy joins
/// the group loading behind the running program: p99 221 us, max 317 us
/// on seed 1.
#[test]
fn a_crash_sweep_life_meets_the_write_budget() {
    let (_, writes) = crash_life(1);
    assert!(writes.count() > 200, "only {} writes", writes.count());
    assert!(
        writes.p99() < MS,
        "write p99 across five cold starts {} ns over {} writes (max {} ns)",
        writes.p99(),
        writes.count(),
        writes.max()
    );
}

/// Half random, half constant: stores at about half its length.
fn compressible(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut out = vec![0x5a; len];
    for sector in out.chunks_mut(512) {
        rng.fill(&mut sector[..256]);
    }
    out
}

/// Layer by layer (ROADMAP item 2, the way SimpleSSD validates against
/// its device constants): an op that meets no contention costs exactly
/// what `LatencyModel` and the controller's CPU constant say, so
/// whatever a loaded read takes beyond this is queueing the blame fold
/// must account for. DESIGN.md §3 tabulates these beside the constants.
#[test]
fn uncontended_ops_cost_what_the_device_constants_say() {
    use purity_core::controller::CPU_OVERHEAD_NS;
    let cfg = ArrayConfig::bench_medium();
    let page = cfg.ssd_geometry.page_size;
    let (nand, nvram) = (
        purity_core::shelf::SSD_LATENCY,
        purity_ssd::LatencyModel::slc_nvram(),
    );
    let mut a = FlashArray::new(cfg).expect("format");
    let vol = a.create_volume("v", 8 << 20).unwrap();
    let mut rng = StdRng::seed_from_u64(2);

    // A write is acknowledged from NVRAM: one SLC program of the intent
    // record (the payload and a few dozen bytes of header, which the link
    // rounds up to one more KiB), plus CPU.
    for (offset, len) in [(0, 4096), (1 << 20, 32 * 1024)] {
        let ack = a.write(vol, offset, &compressible(&mut rng, len)).unwrap();
        assert_eq!(
            ack.latency,
            CPU_OVERHEAD_NS + nvram.page_program(len + 1),
            "{len} B write"
        );
        a.advance(purity_sim::MS);
    }
    assert_eq!(CPU_OVERHEAD_NS + nvram.page_program(4096 + 1), 116_750);
    assert_eq!(CPU_OVERHEAD_NS + nvram.page_program(32 * 1024 + 1), 143_350);

    // A write of more cblocks than NVRAM channels commits its intents as
    // one group: 16 intents of 32 KiB on 8 channels are one program of
    // two records on each, not two programs in series.
    let ack = a
        .write(vol, 4 << 20, &compressible(&mut rng, 512 * 1024))
        .unwrap();
    let two_records = nvram.page_program(2 * (32 * 1024 + 1));
    assert_eq!(ack.latency, CPU_OVERHEAD_NS + two_records, "512 KiB write");
    assert_eq!(CPU_OVERHEAD_NS + two_records, 173_750);
    a.advance(purity_sim::MS);

    // Push both cblocks out of the segment writer's DRAM tail and let the
    // paced programs finish.
    let mut filler = vec![0u8; 128 * 1024];
    for i in 0..12u64 {
        rng.fill(&mut filler[..]);
        a.write(vol, (2 << 20) + i * filler.len() as u64, &filler)
            .unwrap();
    }
    a.advance(purity_sim::SEC);

    // A miss is one page read, however many pages the cblock stores: a
    // write unit's pages go round the drive's dies, so a cblock's pages
    // sit on distinct dies and are read in parallel.
    for (offset, len) in [(0, 4096), (1 << 20, 32 * 1024)] {
        let (_, ack) = a.read(vol, offset, len).unwrap();
        assert_eq!(
            ack.latency,
            CPU_OVERHEAD_NS + nand.page_read(page),
            "{len} B read miss"
        );
        let (_, hit) = a.read(vol, offset, len).unwrap();
        assert_eq!(hit.latency, CPU_OVERHEAD_NS, "{len} B read hit");
        a.advance(purity_sim::MS);
    }
    assert_eq!(CPU_OVERHEAD_NS + nand.page_read(page), 109_600);
    assert_eq!(a.stats().direct_reads, 2);
}

/// The host leg's window: scaled from the scorecard's 32 000 ops on a
/// 48 MiB volume.
const HOST_OPS: u64 = 4_000;
const HOST_VOL_BYTES: u64 = 16 << 20;

/// The scorecard's `host_qd32` shape at [`HOST_OPS`] ops on a
/// [`HOST_VOL_BYTES`] volume: 4 initiators × queue depth 8 issuing
/// uniform 32 KiB ops, 70 % reads, through the host front end against a
/// 1 MiB cache, so every read meets a die and the dies queue reads behind
/// reads. The planner rebuilds a read around such a queue only when the
/// wait covers the `k` reads the rebuild books (`read::plan_rebuild`):
/// unpriced, the full-size shape's `read_amp` was 1.39–1.41, past the
/// paper's ≈1.3×. Some reads are rebuilt around a read queue, and
/// `read_amp` over the window stays ≤ 1.3 (seed 1: 106 of 341 rebuilds
/// were around read queues, `read_amp` 1.17). ~10 s in debug.
#[test]
fn host_qd32_reads_around_read_queues_at_a_price() {
    use purity_host::{HostConfig, HostEngine};
    let mut cfg = ArrayConfig::bench_medium();
    cfg.cache_bytes = 1 << 20;
    cfg.obs.slow_op_threshold = 1;
    cfg.obs.slow_op_capacity = HOST_OPS as usize;
    let mut a = FlashArray::new(cfg).expect("format");
    let vol = a.create_volume("db", HOST_VOL_BYTES).unwrap();
    let unit = 1 << 20;
    let mut loader = WorkloadGen::new(
        0x10,
        HOST_VOL_BYTES,
        AccessPattern::Sequential,
        SizeMix::fixed(unit),
        0,
        ContentModel::Rdbms,
        50_000,
    );
    drive(&mut a, vol, &mut loader, HOST_VOL_BYTES / unit as u64, 0);
    let window_opens = a.now();
    let before = a.stats().clone();
    let engine = HostEngine::new(HostConfig {
        initiators: 4,
        queue_depth: 8,
        coalesce: false,
        ..HostConfig::default()
    });
    let mut gen = WorkloadGen::new(
        1,
        HOST_VOL_BYTES,
        AccessPattern::Uniform,
        SizeMix::fixed(32 * 1024),
        70,
        ContentModel::Rdbms,
        0,
    );
    let report = engine.run_closed_loop(&mut a, vol, &mut gen, HOST_OPS, None);
    assert_eq!(report.ops, HOST_OPS);
    assert_eq!(report.failed_ops, 0);
    let s = a.stats();
    let direct = s.direct_reads - before.direct_reads;
    let rebuilt = s.reconstructed_reads - before.reconstructed_reads;
    let extra = s.reconstruction_extra_reads - before.reconstruction_extra_reads;
    let read_amp = (direct + extra) as f64 / (direct + rebuilt) as f64;
    let around_reads = a
        .obs()
        .tracer
        .slow_ops()
        .iter()
        .filter(|op| op.issued_at >= window_opens)
        .flat_map(|op| &op.stages)
        .filter(|s| s.stage == "reconstruct")
        .filter(|s| {
            s.note
                .as_deref()
                .is_some_and(|n| n.contains("behind reads"))
        })
        .count();
    assert!(
        around_reads > 0,
        "no read was rebuilt around a read queue ({rebuilt} rebuilt in all)"
    );
    assert!(
        read_amp <= 1.3,
        "read_amp {read_amp:.3}: {direct} direct, {rebuilt} rebuilt with {extra} extra reads"
    );
}
