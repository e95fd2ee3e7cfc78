//! The six workloads. Each builds its system under test (set-up), runs a
//! fixed, seed-determined window of host operations against it, restarts
//! it, and reads every acked write back. One call = one round.
//!
//! All workloads are closed on the virtual clock: the next operation is
//! issued only after the previous call returned, and pacing gaps are
//! virtual, so there is no generator lateness to report.

use crate::harness::{mix, Counters, FlashTotals, Harness, Round, RoundCfg};
use crate::mirror::Mirror;
use crate::stats::Latencies;
use purity_cluster::{Cluster, ClusterClient, ClusterSpec, ClusterVolumeId};
use purity_core::{
    ArrayConfig, CrashTarget, FlashArray, PowerLossSpec, RecoveryReport, VolumeId, SECTOR,
};
use purity_host::{HostConfig, HostEngine};
use purity_obs::BlameVec;
use purity_repl::{LinkConfig, ReplFabric, ReplicaLink};
use purity_sim::{LatencyHistogram, MS, SEC};
use purity_torture::{run_campaign, CampaignSpec, CrashPhase};
use purity_wkld::{AccessPattern, ContentModel, Op, SizeMix, WorkloadGen};

pub const NAMES: [&str; 6] = [
    "oltp_zipf",
    "host_qd32",
    "gc_churn",
    "tier_shift",
    "crash_sweep",
    "fleet_rebuild",
];

/// Runs one round of the named workload.
pub fn run(name: &str, cfg: &RoundCfg) -> Option<Round> {
    let mut h = Harness::new(cfg);
    match name {
        "oltp_zipf" => oltp_zipf(&mut h, cfg),
        "host_qd32" => host_qd32(&mut h, cfg),
        "gc_churn" => gc_churn(&mut h, cfg),
        "tier_shift" => tier_shift(&mut h, cfg),
        "crash_sweep" => crash_sweep(&mut h, cfg),
        "fleet_rebuild" => fleet_rebuild(&mut h, cfg),
        _ => return None,
    }
    Some(h.into_round())
}

/// A generator configured like the named workload's window, for the
/// kernel micro-timings to draw their inputs from.
pub fn generator(name: &str, seed: u64) -> WorkloadGen {
    match name {
        "host_qd32" => host_gen(seed),
        "gc_churn" => churn_gen(seed),
        "tier_shift" => tier_gen(seed, 1),
        "crash_sweep" => crash_gen(seed),
        "fleet_rebuild" => fleet_gen(seed, FLEET_VOL_BYTES, FLEET_READ_PCT),
        _ => oltp_gen(seed),
    }
}

/// A volume on one array, mirrored by the benchmark.
fn make_volume(
    h: &mut Harness,
    a: &mut FlashArray,
    mirror: &mut Mirror,
    name: &str,
    bytes: u64,
) -> VolumeId {
    let vol = h
        .call("core.create_volume", || a.create_volume(name, bytes))
        .expect("create volume on a fresh array");
    mirror.create_volume(vol, bytes);
    vol
}

/// Sequential fill of a whole volume with `chunk`-sized writes.
fn preload(
    h: &mut Harness,
    a: &mut FlashArray,
    mirror: &mut Mirror,
    vol: VolumeId,
    bytes: u64,
    chunk: usize,
    seed: u64,
) {
    let mut loader = WorkloadGen::new(
        seed,
        bytes,
        AccessPattern::Sequential,
        SizeMix::fixed(chunk),
        0,
        ContentModel::Rdbms,
        50_000,
    );
    drive(h, a, mirror, vol, &mut loader, bytes / chunk as u64, 0);
}

/// Issues `n` generated ops against `vol`, one at a time: every write is
/// staged in the mirror and committed on ack, every read is compared
/// with the mirror, and the virtual clock advances by the generator's
/// pacing gap after each op. `gc_every` > 0 runs a GC pass that often.
fn drive(
    h: &mut Harness,
    a: &mut FlashArray,
    mirror: &mut Mirror,
    vol: VolumeId,
    gen: &mut WorkloadGen,
    n: u64,
    gc_every: u64,
) {
    for i in 0..n {
        match h.generate(|| gen.next_op()) {
            Op::Read { offset, len } => read_op(h, a, mirror, vol, offset, len),
            Op::Write { offset, data } => {
                write_op(h, a, mirror, vol, offset, &data);
            }
        }
        let gap = gen.interarrival;
        h.call("core.advance", || a.advance(gap));
        if gc_every > 0 && i % gc_every == gc_every - 1 {
            if let Err(e) = h.call("core.run_gc", || a.run_gc()) {
                h.fail(format!("gc pass failed: {e}"));
            }
        }
    }
}

fn read_op(
    h: &mut Harness,
    a: &mut FlashArray,
    mirror: &Mirror,
    vol: VolumeId,
    offset: u64,
    len: usize,
) {
    h.attempted += 1;
    match h.call("core.read", || a.read(vol, offset, len)) {
        Ok((mut data, ack)) => {
            h.acked_read(ack.latency, len);
            h.sabotage(&mut data);
            let bad = mirror.check_read(vol, offset, &data, "window read");
            if !bad.is_empty() {
                h.failed += 1;
                h.violations.extend(bad);
            }
        }
        Err(e) => h.fail(format!("read vol {} @{offset}+{len}: {e}", vol.0)),
    }
}

/// Returns false when the write was refused (power is out, or a bug).
fn write_op(
    h: &mut Harness,
    a: &mut FlashArray,
    mirror: &mut Mirror,
    vol: VolumeId,
    offset: u64,
    data: &[u8],
) -> bool {
    mirror.stage(vol, offset, data);
    match h.call("core.write", || a.write(vol, offset, data)) {
        Ok(ack) => {
            h.attempted += 1;
            h.acked_write(ack.latency, data.len());
            mirror.commit(vol, offset, data);
            true
        }
        Err(e) => {
            mirror.refused();
            if a.powered() {
                // Not a staged crash: a refused write is a failed op, and
                // the oracle must learn how much of it landed.
                h.attempted += 1;
                h.fail(format!("write vol {} @{offset}: {e}", vol.0));
                let bad = mirror.settle(a);
                h.violations.extend(bad);
            }
            false
        }
    }
}

/// Window-relative counters of one array.
struct ArrayWindow {
    counters0: Counters,
    flash0: FlashTotals,
    virt0: u64,
}

impl ArrayWindow {
    fn open(h: &mut Harness, a: &mut FlashArray) -> Self {
        let w = Self {
            counters0: Counters::of(a),
            flash0: FlashTotals::of(a),
            virt0: a.now(),
        };
        h.begin_window(a.obs().tracer.blame_totals());
        w
    }

    fn close(&self, h: &mut Harness, a: &mut FlashArray) {
        h.end_window(a.now() - self.virt0);
        h.counters.add(&Counters::of(a).since(&self.counters0));
        h.flash.add(&FlashTotals::of(a).since(&self.flash0));
        h.harvest_blame(a.obs().tracer.blame_totals());
    }
}

fn note_recovery(h: &mut Harness, downtime: u64, r: &RecoveryReport) {
    h.downtimes.push(downtime);
    h.recovery_aus_scanned += r.aus_scanned as u64;
    h.recovery_intents_replayed += (r.write_intents_replayed + r.meta_intents_replayed) as u64;
}

/// The restart that ends a single-array workload, then the read-back of
/// every acked write through the recovered controller.
///
/// The restart is taken at a quiet moment, 100 virtual ms after the last
/// op: with programs still on the dies the downtime is mostly the luck of
/// which die the final op left busy, and swings threefold between seeds.
/// It is also the only one. A write after a failover fails on the larger
/// volumes ("could not append log record": recovery leaves the whole map
/// in the memtable, and its first flush is one record larger than a
/// segment), so no workload writes to a recovered controller.
fn restart_and_verify(h: &mut Harness, a: &mut FlashArray, mirror: &Mirror) {
    h.enter("restart");
    h.call("core.advance", || a.advance(100 * MS));
    match h.call("core.fail_primary", || a.fail_primary()) {
        Ok(r) => note_recovery(h, r.downtime, &r.recovery),
        Err(e) => h.fail(format!("fail_primary: {e}")),
    }
    h.exit();
    h.stop_profile();
    verify(h, a, mirror);
}

fn verify(h: &mut Harness, a: &mut FlashArray, mirror: &Mirror) {
    h.enter("verify");
    let lost = mirror.sweep(a);
    let broken = a.verify_integrity();
    h.failed += (lost.len() + broken.len()) as u64;
    h.violations.extend(lost);
    h.violations.extend(broken);
    h.exit();
    observe(h, a);
}

/// Traced rounds only: what one observability sample and one full export
/// of `a` cost.
fn observe(h: &mut Harness, a: &FlashArray) {
    if !h.spans.on() {
        return;
    }
    h.enter("observe");
    for _ in 0..8 {
        h.call("obs.sample", || a.metrics_snapshot());
    }
    let doc = h.call("obs.export", || a.export_observability_json());
    h.export_bytes = doc.len() as u64;
    h.exit();
}

// ---- oltp_zipf ---------------------------------------------------------

const OLTP_VOL_BYTES: u64 = 96 << 20;
const OLTP_OPS: u64 = 24_000;

fn oltp_gen(seed: u64) -> WorkloadGen {
    WorkloadGen::new(
        mix(seed, 0x01_7F),
        OLTP_VOL_BYTES,
        AccessPattern::Zipfian(0.99),
        SizeMix::enterprise(),
        70,
        ContentModel::Rdbms,
        650_000,
    )
}

/// The E2 mix: a fully preloaded RDBMS volume six times the DRAM cache,
/// Zipf 0.99, 70/30, enterprise sizes, paced at 650 µs, straight on the
/// array. Read and write path, reduction pipeline and the map do the work;
/// GC, host, tier and cluster are idle.
fn oltp_zipf(h: &mut Harness, cfg: &RoundCfg) {
    h.enter("setup");
    let mut mirror = Mirror::image();
    let mut a = h
        .call("core.new", || FlashArray::new(ArrayConfig::bench_medium()))
        .expect("bench_medium is a valid config");
    let vol = make_volume(h, &mut a, &mut mirror, "db", OLTP_VOL_BYTES);
    preload(
        h,
        &mut a,
        &mut mirror,
        vol,
        OLTP_VOL_BYTES,
        128 * 1024,
        mix(cfg.seed, 0x01_10),
    );
    h.call("core.advance", || a.advance(10 * SEC));
    let mut gen = oltp_gen(cfg.seed);
    h.exit();

    let w = ArrayWindow::open(h, &mut a);
    drive(h, &mut a, &mut mirror, vol, &mut gen, OLTP_OPS, 0);
    w.close(h, &mut a);
    restart_and_verify(h, &mut a, &mirror);
}

// ---- host_qd32 ---------------------------------------------------------

const HOST_VOL_BYTES: u64 = 48 << 20;
const HOST_OPS: u64 = 32_000;

fn host_gen(seed: u64) -> WorkloadGen {
    WorkloadGen::new(
        mix(seed, 0x02_7F),
        HOST_VOL_BYTES,
        AccessPattern::Uniform,
        SizeMix::fixed(32 * 1024),
        70,
        ContentModel::Rdbms,
        0,
    )
}

/// The paper's IOPS unit: a closed loop of 4 initiators × queue depth 8
/// issuing uniform 32 KiB ops 70/30 through the host front end, against
/// a 1 MiB cache so every read meets a die. The only workload where
/// `virt_iops` is an outcome and not the offered rate.
fn host_qd32(h: &mut Harness, cfg: &RoundCfg) {
    h.enter("setup");
    let mut mirror = Mirror::image();
    let mut array_cfg = ArrayConfig::bench_medium();
    array_cfg.cache_bytes = 1 << 20;
    let mut a = h
        .call("core.new", || FlashArray::new(array_cfg))
        .expect("bench_medium with a small cache is a valid config");
    let vol = make_volume(h, &mut a, &mut mirror, "db", HOST_VOL_BYTES);
    preload(
        h,
        &mut a,
        &mut mirror,
        vol,
        HOST_VOL_BYTES,
        1 << 20,
        mix(cfg.seed, 0x02_10),
    );
    let engine = HostEngine::new(HostConfig {
        initiators: 4,
        queue_depth: 8,
        coalesce: false,
        ..HostConfig::default()
    });
    let mut gen = host_gen(cfg.seed);
    h.exit();

    let w = ArrayWindow::open(h, &mut a);
    let report = h.call("host.run", || {
        engine.run_closed_loop(&mut a, vol, &mut gen, HOST_OPS, None)
    });
    w.close(h, &mut a);
    h.attempted += HOST_OPS;
    h.acked = report.ops;
    let lost = HOST_OPS - report.ops.min(HOST_OPS);
    let bad = lost + report.failed_ops + report.duplicate_acks + report.stranded_ops;
    if bad > 0 {
        h.failed += bad;
        h.violations.push(format!(
            "host run: {lost} unacked, {} failed, {} duplicate acks, {} stranded",
            report.failed_ops, report.duplicate_acks, report.stranded_ops
        ));
    }
    h.read_lat = Latencies::Hist(report.e2e_read.clone());
    h.write_lat = Latencies::Hist(report.e2e_write.clone());
    h.host_report = Some(report);

    // The engine owns the op stream, so the mirror learns the writes from
    // a twin generator: dispatch is in arrival order, which is generation
    // order, and an acked write is applied at dispatch.
    let mut twin = host_gen(cfg.seed);
    for _ in 0..HOST_OPS {
        if let Op::Write { offset, data } = twin.next_op() {
            h.host_bytes_written += data.len() as u64;
            mirror.commit(vol, offset, &data);
        }
    }
    restart_and_verify(h, &mut a, &mirror);
    if cfg.sabotage {
        // No read passes through the benchmark inside the host window, so
        // the flipped byte goes into one read-back after it.
        read_op(h, &mut a, &mirror, vol, 0, 32 * 1024);
    }
}

// ---- gc_churn ----------------------------------------------------------

const CHURN_VOL_BYTES: u64 = 8 << 20;
const CHURN_OPS: u64 = 4_000;
const CHURN_READ_PCT: u8 = 60;
const CHURN_GC_EVERY: u64 = 50;

fn churn_gen(seed: u64) -> WorkloadGen {
    WorkloadGen::new(
        mix(seed, 0x03_7F),
        CHURN_VOL_BYTES,
        AccessPattern::Uniform,
        SizeMix::fixed(64 * 1024),
        CHURN_READ_PCT,
        ContentModel::Rdbms,
        100_000,
    )
}

/// Overwrite churn: 1 600 uniform 64 KiB overwrites of a small volume
/// with a GC pass every 20 of them. Segment GC, map flush/merge and the
/// drives' own GC do most of the work, so a read-side win that costs
/// relocation shows here. The 2 400 reads in between cost a twentieth of
/// the window; they are that many because the read tail here is reads
/// queueing behind a GC pass's programs, which with the 400 reads of an
/// 80/20 mix moved by half between seeds.
fn gc_churn(h: &mut Harness, cfg: &RoundCfg) {
    h.enter("setup");
    let mut mirror = Mirror::image();
    let mut a = h
        .call("core.new", || FlashArray::new(ArrayConfig::test_small()))
        .expect("test_small is a valid config");
    let vol = make_volume(h, &mut a, &mut mirror, "churn", CHURN_VOL_BYTES);
    // Fill, then overwrite twice, so the window starts with GC in steady
    // state and bytes programmed per host byte has levelled off.
    preload(
        h,
        &mut a,
        &mut mirror,
        vol,
        CHURN_VOL_BYTES,
        64 * 1024,
        mix(cfg.seed, 0x03_10),
    );
    let mut warm = WorkloadGen::new(
        mix(cfg.seed, 0x03_11),
        CHURN_VOL_BYTES,
        AccessPattern::Uniform,
        SizeMix::fixed(64 * 1024),
        0,
        ContentModel::Rdbms,
        100_000,
    );
    drive(h, &mut a, &mut mirror, vol, &mut warm, 256, 25);
    let mut gen = churn_gen(cfg.seed);
    h.exit();

    let w = ArrayWindow::open(h, &mut a);
    drive(
        h,
        &mut a,
        &mut mirror,
        vol,
        &mut gen,
        CHURN_OPS,
        CHURN_GC_EVERY,
    );
    w.close(h, &mut a);
    restart_and_verify(h, &mut a, &mirror);
}

// ---- tier_shift --------------------------------------------------------

const TIER_VOL_BYTES: u64 = 4 << 20;
const TIER_OPS_PER_PHASE: u64 = 8_000;

fn tier_gen(seed: u64, phase: u64) -> WorkloadGen {
    WorkloadGen::new(
        mix(seed, 0x04_70 + phase),
        TIER_VOL_BYTES,
        AccessPattern::Zipfian(0.99),
        SizeMix::enterprise(),
        90,
        ContentModel::Rdbms,
        400_000,
    )
}

/// A working-set shift on a tiered array: day on `hot`, an idle gap, night
/// on `alt`, morning back on `hot`, 90 % reads, two 4 MiB volumes against
/// a 2 MiB RAM cache. The only workload where the tiering policy, the 2Q
/// cache, cold reads and the migrator run.
fn tier_shift(h: &mut Harness, cfg: &RoundCfg) {
    h.enter("setup");
    let mut mirror = Mirror::image();
    let mut a = h
        .call("core.new", || FlashArray::new(ArrayConfig::tiered()))
        .expect("tiered is a valid config");
    let hot = make_volume(h, &mut a, &mut mirror, "hot", TIER_VOL_BYTES);
    let alt = make_volume(h, &mut a, &mut mirror, "alt", TIER_VOL_BYTES);
    for (i, vol) in [hot, alt].into_iter().enumerate() {
        preload(
            h,
            &mut a,
            &mut mirror,
            vol,
            TIER_VOL_BYTES,
            64 * 1024,
            mix(cfg.seed, 0x04_10 + i as u64),
        );
    }
    h.call("core.advance", || a.advance(100 * MS));
    let (mut day, mut night, mut morning) = (
        tier_gen(cfg.seed, 1),
        tier_gen(cfg.seed, 2),
        tier_gen(cfg.seed, 3),
    );
    h.exit();

    let w = ArrayWindow::open(h, &mut a);
    drive(h, &mut a, &mut mirror, hot, &mut day, TIER_OPS_PER_PHASE, 0);
    // `hot` idles past the demote threshold; the migrator copies it down.
    for _ in 0..12 {
        h.call("core.advance", || a.advance(50 * MS));
    }
    drive(
        h,
        &mut a,
        &mut mirror,
        alt,
        &mut night,
        TIER_OPS_PER_PHASE,
        0,
    );
    drive(
        h,
        &mut a,
        &mut mirror,
        hot,
        &mut morning,
        TIER_OPS_PER_PHASE,
        0,
    );
    w.close(h, &mut a);
    restart_and_verify(h, &mut a, &mirror);
}

// ---- crash_sweep -------------------------------------------------------

const CRASH_VOL_BYTES: u64 = 2 << 20;
const CRASH_ARRAYS: usize = 20;
const CRASH_OPS_PER_CYCLE: u64 = 60;

fn crash_gen(seed: u64) -> WorkloadGen {
    WorkloadGen::new(
        mix(seed, 0x05_7F),
        CRASH_VOL_BYTES,
        AccessPattern::Uniform,
        SizeMix {
            choices: vec![(512, 2), (4096, 3), (16 * 1024, 2)],
        },
        40,
        ContentModel::Rdbms,
        200_000,
    )
}

/// Generated ops up to and including the next write; the write is issued
/// like any other. False once the array refuses it.
fn push_write(
    h: &mut Harness,
    a: &mut FlashArray,
    mirror: &mut Mirror,
    vol: VolumeId,
    gen: &mut WorkloadGen,
) -> bool {
    loop {
        if let Op::Write { offset, data } = h.generate(|| gen.next_op()) {
            return write_op(h, a, mirror, vol, offset, &data);
        }
    }
}

/// Arms the phase's power-loss trigger and drives the array into it, the
/// way `purity_torture::campaign` stages a crash.
fn stage_crash(
    h: &mut Harness,
    a: &mut FlashArray,
    mirror: &mut Mirror,
    vol: VolumeId,
    gen: &mut WorkloadGen,
    phase: CrashPhase,
) {
    match phase {
        CrashPhase::OpBoundary => {}
        CrashPhase::NvramTail => {
            a.arm_power_loss(CrashTarget::NvramAppend, 0, 17);
            for _ in 0..4 {
                if !push_write(h, a, mirror, vol, gen) {
                    break;
                }
            }
        }
        CrashPhase::SegmentFlush => {
            a.arm_power_loss(CrashTarget::SegmentWrite, 1, 1000);
            for _ in 0..256 {
                if !push_write(h, a, mirror, vol, gen) {
                    break;
                }
            }
            if a.powered() {
                let _ = h.call("core.checkpoint", || a.checkpoint());
            }
        }
        CrashPhase::Checkpoint => {
            a.arm_power_loss(CrashTarget::BootWrite, 1, 700);
            let _ = h.call("core.checkpoint", || a.checkpoint());
        }
        CrashPhase::TierDemote => {
            a.arm_power_loss(CrashTarget::ColdWrite, 1, 2000);
            for _ in 0..40 {
                h.call("core.advance", || a.advance(50 * MS));
                if !a.powered() {
                    break;
                }
            }
        }
    }
}

/// One array of the sweep: built and preloaded in set-up, then taken
/// through one power loss per crash phase.
struct Life {
    a: FlashArray,
    mirror: Mirror,
    vols: [VolumeId; 2],
}

/// A hundred power losses: twenty tiered arrays, each taken once through
/// the five crash phases with a short 60/40 write/read burst before every
/// loss and no GC. The cold start (boot record, frontier scan, NVRAM
/// replay, map reload) is what runs; `recovery_virt_ms` is the mean
/// cold-start downtime.
///
/// Every array is fresh because a single one cannot be crashed that
/// often: recovery reloads the whole map into the memtable, nothing but a
/// GC pass merges it, and after thirteen to fifteen cold starts a write
/// fails with "could not append log record" and takes acked data with
/// it. A GC pass per cycle avoids that but then does half of the
/// workload's work, which `gc_churn` already measures.
fn crash_sweep(h: &mut Harness, cfg: &RoundCfg) {
    h.enter("setup");
    let mut lives = Vec::with_capacity(CRASH_ARRAYS);
    for life in 0..CRASH_ARRAYS as u64 {
        let mut mirror = Mirror::oracle();
        let mut a = h
            .call("core.new", || FlashArray::new(ArrayConfig::tiered()))
            .expect("tiered is a valid config");
        let vols = [
            make_volume(h, &mut a, &mut mirror, "v0", CRASH_VOL_BYTES),
            make_volume(h, &mut a, &mut mirror, "v1", CRASH_VOL_BYTES),
        ];
        for (i, &vol) in vols.iter().enumerate() {
            preload(
                h,
                &mut a,
                &mut mirror,
                vol,
                CRASH_VOL_BYTES,
                64 * 1024,
                mix(cfg.seed, 0x05_1000 + 2 * life + i as u64),
            );
        }
        if let Err(e) = h.call("core.checkpoint", || a.checkpoint()) {
            h.fail(format!("checkpoint after preload: {e}"));
        }
        lives.push(Life { a, mirror, vols });
    }
    let mut gen = crash_gen(cfg.seed);
    h.exit();

    h.begin_window(BlameVec::default());
    let mut virt_ns = 0;
    let mut last = None;
    for Life {
        mut a,
        mut mirror,
        vols,
    } in lives
    {
        let flash0 = FlashTotals::of(&mut a);
        let virt0 = a.now();
        let mut counters0 = Counters::of(&a);
        h.rebase_blame(a.obs().tracer.blame_totals());
        for (cycle, phase) in CrashPhase::ALL.into_iter().enumerate() {
            let vol = vols[cycle % vols.len()];
            drive(
                h,
                &mut a,
                &mut mirror,
                vol,
                &mut gen,
                CRASH_OPS_PER_CYCLE,
                0,
            );
            stage_crash(h, &mut a, &mut mirror, vol, &mut gen, phase);
            // A cold start boots a fresh controller with zeroed
            // statistics: collect this cycle's before they go.
            h.counters.add(&Counters::of(&a).since(&counters0));
            h.harvest_blame(a.obs().tracer.blame_totals());
            match h.call("core.power_loss", || a.power_loss(PowerLossSpec::default())) {
                Ok(r) => note_recovery(h, r.downtime, &r.recovery),
                Err(e) => h.fail(format!("cold start in phase {phase:?}: {e}")),
            }
            counters0 = Counters::default();
            h.rebase_blame(BlameVec::default());
            let bad = mirror.settle(&mut a);
            let broken = a.verify_integrity();
            h.failed += (bad.len() + broken.len()) as u64;
            h.violations.extend(bad);
            h.violations.extend(broken);
        }
        virt_ns += a.now() - virt0;
        h.flash.add(&FlashTotals::of(&mut a).since(&flash0));
        let lost = mirror.sweep(&mut a);
        h.failed += lost.len() as u64;
        h.violations.extend(lost);
        last = Some(a);
    }
    h.end_window(virt_ns);
    h.stop_profile();
    if let Some(a) = &last {
        observe(h, a);
    }

    if cfg.traced {
        // What the tier-1 torture tests spend their time in.
        h.enter("campaigns");
        for (i, phase) in CrashPhase::ALL.into_iter().enumerate() {
            let spec = CampaignSpec::new(mix(cfg.seed, 0x05_C0 + i as u64), phase);
            let out = h.call("torture.campaign", || run_campaign(&spec));
            h.campaigns += 1;
            h.campaign_phase_hits += u64::from(out.phase_hit);
            h.failed += out.violations.len() as u64;
            h.violations.extend(out.violations);
        }
        h.exit();
    }
}

// ---- fleet_rebuild -----------------------------------------------------

const FLEET_VOL_BYTES: u64 = 4 << 20;
const FLEET_OPS: u64 = 12_000;
const FLEET_DELTAS: u64 = 3;
/// The cluster serves most reads from cache, and the rest in whole die
/// reads of 98 µs: with a fifth of the ops reading, one in a hundred
/// reads takes four of them, so p99 flipped between three and four (27 %)
/// from seed to seed. At a half it sits on three.
const FLEET_READ_PCT: u8 = 50;

fn fleet_gen(seed: u64, span_bytes: u64, read_pct: u8) -> WorkloadGen {
    WorkloadGen::new(
        mix(seed, 0x06_7F) ^ span_bytes,
        span_bytes,
        AccessPattern::Uniform,
        SizeMix {
            choices: vec![(512, 1), (2048, 1), (4096, 1), (8192, 1), (16 * 1024, 1)],
        },
        read_pct,
        ContentModel::Rdbms,
        10 * MS,
    )
}

/// The cluster, its one volume, a client, and the flat image every acked
/// write is mirrored into.
struct Fleet {
    c: Cluster,
    client: ClusterClient,
    vol: ClusterVolumeId,
    image: Vec<u8>,
}

/// One client op against the cluster volume.
fn fleet_op(h: &mut Harness, fleet: &mut Fleet, op: Op) {
    let Fleet {
        c,
        client,
        vol,
        image,
    } = fleet;
    let vol = *vol;
    h.attempted += 1;
    match op {
        Op::Write { offset, data } => {
            match h.call("cluster.write", || c.write(client, vol, offset, &data)) {
                Ok(()) => {
                    h.acked += 1;
                    h.host_bytes_written += data.len() as u64;
                    image[offset as usize..offset as usize + data.len()].copy_from_slice(&data);
                }
                Err(e) => h.fail(format!("cluster write @{offset}: {e}")),
            }
        }
        Op::Read { offset, len } => {
            match h.call("cluster.read", || c.read(client, vol, offset, len)) {
                Ok(mut data) => {
                    h.acked += 1;
                    h.host_bytes_read += len as u64;
                    h.sabotage(&mut data);
                    if data[..] != image[offset as usize..offset as usize + len] {
                        h.fail(format!(
                            "cluster read @{offset}+{len}: acked data lost or corrupt"
                        ));
                    }
                }
                Err(e) => h.fail(format!("cluster read @{offset}: {e}")),
            }
        }
    }
}

/// Every member array's counters, summed.
struct FleetTotals {
    counters: Counters,
    flash: FlashTotals,
    reads: LatencyHistogram,
    writes: LatencyHistogram,
    blame: BlameVec,
}

impl FleetTotals {
    fn of(c: &mut Cluster) -> Self {
        let mut t = Self {
            counters: Counters::default(),
            flash: FlashTotals::default(),
            reads: LatencyHistogram::new(),
            writes: LatencyHistogram::new(),
            blame: BlameVec::default(),
        };
        for node in 0..c.spec().nodes {
            let a = c.array_mut(node);
            t.counters.add(&Counters::of(a));
            t.flash.add(&FlashTotals::of(a));
            t.reads.merge(&a.stats().read_latency);
            t.writes.merge(&a.stats().write_latency);
            t.blame.merge(&a.obs().tracer.blame_totals());
        }
        t
    }
}

/// A three-array cluster under 50/50 small random writes and reads with a
/// 10 ms tick per op loses node 1 a third of the way in and runs on to
/// full redundancy; one surviving backing volume is then replicated (seed
/// plus three deltas) over a flapping 25 MB/s link. Cluster routing, SWIM,
/// rebuild shipping, replication and the flight recorder dominate; the
/// array data path is nearly idle.
fn fleet_rebuild(h: &mut Harness, cfg: &RoundCfg) {
    h.enter("setup");
    let mut c = h
        .call("cluster.new", || {
            Cluster::new(ClusterSpec::test_small(3, 0xC15))
        })
        .expect("a three-node test cluster is a valid spec");
    let vol = h
        .call("cluster.create_volume", || {
            c.create_volume("db", FLEET_VOL_BYTES)
        })
        .expect("create the cluster volume");
    let mut fleet = Fleet {
        client: c.client(),
        c,
        vol,
        image: vec![0u8; FLEET_VOL_BYTES as usize],
    };
    let mut loader = WorkloadGen::new(
        mix(cfg.seed, 0x06_10),
        FLEET_VOL_BYTES,
        AccessPattern::Sequential,
        SizeMix::fixed(64 * 1024),
        0,
        ContentModel::Rdbms,
        MS,
    );
    for _ in 0..FLEET_VOL_BYTES / (64 * 1024) {
        let op = h.generate(|| loader.next_op());
        fleet_op(h, &mut fleet, op);
        h.call("cluster.tick", || fleet.c.tick(MS));
    }
    let mut dst = h
        .call("core.new", || FlashArray::new(ArrayConfig::test_small()))
        .expect("test_small is a valid config");
    let mut gen = fleet_gen(cfg.seed, FLEET_VOL_BYTES, FLEET_READ_PCT);
    // Delta traffic stays inside shard 0, whose backing volume is shipped.
    let shard_bytes = fleet.c.spec().shard_sectors * SECTOR as u64;
    let mut delta_gen = fleet_gen(cfg.seed, shard_bytes, 0);
    h.exit();

    let before = FleetTotals::of(&mut fleet.c);
    let virt0 = fleet.c.now();
    h.begin_window(before.blame);
    for i in 0..FLEET_OPS {
        if i == FLEET_OPS / 3 {
            fleet.c.kill(1);
        }
        let op = h.generate(|| gen.next_op());
        fleet_op(h, &mut fleet, op);
        let gap = gen.interarrival;
        h.call("cluster.tick", || fleet.c.tick(gap));
    }
    let mut guard = 0;
    while !(fleet.c.epoch() > 1 && fleet.c.fully_redundant()) {
        h.call("cluster.tick", || fleet.c.tick(100 * MS));
        guard += 1;
        if guard > 1200 {
            h.fail("cluster never returned to full redundancy".into());
            break;
        }
    }
    if let (Some(kill), Some(redundant)) = (fleet.c.last_kill_at, fleet.c.last_redundant_at) {
        h.downtimes.push(redundant.saturating_sub(kill));
    }

    let shard0 = &fleet.c.volume(vol).expect("the volume exists").shards[0];
    let src_node = shard0
        .owners
        .iter()
        .copied()
        .find(|&n| fleet.c.array(n).powered())
        .expect("a redundant shard has a live owner");
    let backing = shard0
        .backing(src_node)
        .expect("an owner has a backing volume");
    let link = LinkConfig::flaky(25 << 20, 0xF1A9, 40 * MS, 10 * MS);
    let mut fabric = ReplFabric::new(ReplicaLink::with_config(link));
    let pg = fabric
        .protect(fleet.c.array(src_node), backing, "dr", SEC)
        .expect("the backing volume exists");
    for round in 0..=FLEET_DELTAS {
        if round > 0 {
            for _ in 0..64 {
                let op = h.generate(|| delta_gen.next_op());
                fleet_op(h, &mut fleet, op);
            }
        }
        h.call("cluster.tick", || fleet.c.tick(5 * MS));
        let mut report = h.call("repl.ship", || {
            fabric.ship_now(pg, fleet.c.array_mut(src_node), &mut dst)
        });
        let mut guard = 0;
        while matches!(&report, Ok(r) if !r.completed) && guard < 500 {
            h.call("cluster.tick", || fleet.c.tick(100 * MS));
            report = h.call("repl.ship", || {
                fabric.resume(pg, fleet.c.array_mut(src_node), &mut dst)
            });
            guard += 1;
        }
        match report {
            Ok(r) if r.completed => {}
            Ok(_) => h.fail(format!("replication round {round} never completed")),
            Err(e) => h.fail(format!("replication round {round}: {e}")),
        }
    }
    h.end_window(fleet.c.now() - virt0);
    let after = FleetTotals::of(&mut fleet.c);
    h.counters.add(&after.counters.since(&before.counters));
    h.flash.add(&after.flash.since(&before.flash));
    h.read_lat = Latencies::Hist(after.reads.delta_since(&before.reads));
    h.write_lat = Latencies::Hist(after.writes.delta_since(&before.writes));
    h.harvest_blame(after.blame);
    h.cluster_stats = Some((
        fleet.c.stats(),
        fleet.c.swim_stats(),
        fleet.c.fabric_stats(),
    ));
    h.repl_stats = Some(fabric.stats());
    h.stop_profile();

    h.enter("verify");
    let Fleet {
        c, client, image, ..
    } = &mut fleet;
    for (i, expect) in image.chunks(64 * 1024).enumerate() {
        let offset = (i * 64 * 1024) as u64;
        h.attempted += 1;
        match c.read(client, vol, offset, expect.len()) {
            Ok(got) if got[..] == *expect => {}
            Ok(_) => h.fail(format!("image @{offset}: acked data lost or corrupt")),
            Err(e) => h.fail(format!("image read @{offset}: {e}")),
        }
    }
    let mut broken = fabric.verify_lineage(pg, &dst);
    for node in 0..c.spec().nodes {
        if c.array(node).powered() {
            broken.extend(c.array(node).verify_integrity());
        }
    }
    h.failed += broken.len() as u64;
    h.violations.extend(broken);
    h.exit();
    observe(h, c.array(src_node));
}
