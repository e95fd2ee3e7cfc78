//! End-to-end acceptance tests for the observability layer: slow-op
//! capture with die-level stall attribution, per-path metrics export,
//! and survival of telemetry across controller failover.
//!
//! The scenario the tentpole demands: a run with write-induced
//! program/erase stalls must produce a slow-op capture that *explains*
//! a tail read — "queued 1.3ms behind program on die 2 of drive 5" —
//! and the metrics snapshot must expose the per-path counters and
//! queueing/service split that back the explanation up.

use purity_core::{ArrayConfig, FlashArray, SECTOR};
use purity_ssd::{SsdGeometry, StallCause};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A config that funnels reads straight into busy drives: no read
/// cache, no read-around scheduling, incompressible non-dedupable data.
fn stall_config() -> ArrayConfig {
    let mut cfg = ArrayConfig::test_small();
    cfg.cache_bytes = 0;
    cfg.read_around_writes = false;
    cfg.dedup_enabled = false;
    cfg.compression_enabled = false;
    cfg
}

/// Like [`stall_config`], but on tiny drives (4 dies × 16 blocks ×
/// 32 pages = 8 MiB raw) so sustained churn cycles the FTL through its
/// free-block pool and forces device-level GC erases mid-run.
fn churn_config() -> ArrayConfig {
    let mut cfg = stall_config();
    cfg.ssd_geometry = SsdGeometry {
        dies: 4,
        blocks_per_die: 16,
        pages_per_block: 32,
        page_size: 4096,
    };
    cfg
}

/// Whether some die of some drive has an erase booked at `a`'s clock:
/// a read issued to it now would queue behind the erase.
fn erase_pending(a: &mut FlashArray) -> bool {
    let now = a.now();
    let (_, shelf) = a.controller_and_shelf();
    (0..shelf.n_drives()).any(|d| {
        (shelf.drive(d).die_statuses(now).iter()).any(|s| s.pending == Some(StallCause::Erase))
    })
}

fn random_sectors(rng: &mut StdRng, n: usize) -> Vec<u8> {
    let mut out = vec![0u8; n * SECTOR];
    rng.fill(&mut out[..]);
    out
}

#[test]
fn tail_reads_are_attributed_to_die_busy_time() {
    // Tighter than [`churn_config`]: 8-page (32 KiB) blocks and a
    // short frontier let the FTL's free pool cycle within the storm,
    // so device-level GC erases land inside the same paced flush
    // slots the probes race.
    let mut cfg = stall_config();
    cfg.frontier_aus_per_drive = 4;
    cfg.ssd_geometry = SsdGeometry {
        dies: 4,
        blocks_per_die: 20,
        pages_per_block: 8,
        page_size: 4096,
    };
    let mut a = FlashArray::new(cfg).expect("format");
    let vol_bytes: u64 = 2 << 20;
    let vol = a.create_volume("churn", vol_bytes).unwrap();
    let mut rng = StdRng::seed_from_u64(42);

    // Fill the volume once so several segments seal and reach the
    // drives, then let the write pacer drain its flush backlog.
    let chunk = 32 * 1024usize;
    let n_chunks = vol_bytes / chunk as u64;
    for ci in 0..n_chunks {
        let data = random_sectors(&mut rng, chunk / SECTOR);
        a.write(vol, ci * chunk as u64, &data).unwrap();
        a.advance(500_000);
    }
    a.advance(300_000_000);

    // Churn: each iteration overwrites 256 KiB and lasts about as long
    // as the §4.4 pacer takes to flush it, so the flush backlog stays
    // bounded — whatever is mid-program at any instant is data written
    // one to three iterations ago, still reachable through the current
    // logical mapping. Probes target exactly those chunks: one whose
    // column is mid-program (or mid-erase, once the cycling free pool
    // pulls device GC into the flush slots) at issue stalls for the
    // reservation remainder. Periodic array GC recycles AUs, so drive
    // LBAs are overwritten and the FTL accumulates the garbage its GC
    // needs to collect.
    let mut saw_program = false;
    let mut saw_erase = false;
    let col_sectors: u64 = chunk as u64 / SECTOR as u64;
    let bulk: u64 = 8;
    'churn: for iter in 0..160u64 {
        for i in 0..bulk {
            let ci = (iter * bulk + i) % n_chunks;
            let data = random_sectors(&mut rng, chunk / SECTOR);
            a.write(vol, ci * chunk as u64, &data).unwrap();
            a.advance(50_000);
        }
        for burst in 0..2u64 {
            a.advance(2_000_000);
            // Aimed: while some die is erasing, one sector of every
            // chunk, so a read lands on that die whatever the schedule.
            if !saw_erase && erase_pending(&mut a) {
                for ci in 0..n_chunks {
                    a.read(vol, ci * chunk as u64, SECTOR).unwrap();
                }
            }
            for p in 0..8u64 {
                let back = 1 + p % 3;
                let ci = ((iter.saturating_sub(back)) * bulk + p) % n_chunks;
                let r_sector = ci * col_sectors + (iter * 13 + burst * 29 + p * 7) % col_sectors;
                a.read(vol, r_sector * SECTOR as u64, SECTOR).unwrap();
                a.advance(250_000);
            }
        }
        a.advance(2_400_000);
        if iter % 4 == 3 {
            a.run_gc().unwrap();
            a.advance(3_000_000);
        }
        for op in a.obs().tracer.slow_ops() {
            for stage in &op.stages {
                if let Some(note) = &stage.note {
                    if note.contains("behind program on die") {
                        saw_program = true;
                    }
                    if note.contains("behind erase on die") {
                        saw_erase = true;
                    }
                }
            }
        }
        if saw_program && saw_erase {
            break 'churn;
        }
    }
    assert!(
        saw_program,
        "expected a slow read queued behind a page program; slow ops: {:?}",
        a.obs()
            .tracer
            .slow_ops()
            .iter()
            .map(|o| o.describe())
            .collect::<Vec<_>>()
    );
    assert!(
        saw_erase,
        "expected a slow read queued behind an erase (device GC); slow ops: {:?}",
        a.obs()
            .tracer
            .slow_ops()
            .iter()
            .map(|o| o.describe())
            .collect::<Vec<_>>()
    );

    // The capture carries the full decomposition: a drive_read stage with
    // die/drive attribution, and an end-to-end latency above threshold.
    let slow = a.obs().tracer.slowest().expect("ring not empty");
    assert!(slow.latency >= a.config().obs.slow_op_threshold);
    let dominant = slow.dominant_stage().expect("stages recorded");
    assert!(
        matches!(
            dominant.stage,
            "drive_read"
                | "reconstruct"
                | "die_stall_program"
                | "die_stall_erase"
                | "gc_interference"
        ),
        "tail op dominated by {}: {}",
        dominant.stage,
        slow.describe()
    );
    let described = slow.describe();
    assert!(
        described.contains("of drive"),
        "attribution names a drive: {described}"
    );

    // The same story shows up in the aggregate counters.
    let snap = a.metrics_snapshot();
    let stalls: u64 = ["program", "erase", "read"]
        .iter()
        .map(|c| {
            snap.counters
                .iter()
                .filter(|(id, _)| {
                    id.name == "flash_read_stalls"
                        && id.labels.iter().any(|(k, v)| k == "cause" && v == c)
                })
                .map(|&(_, v)| v)
                .sum::<u64>()
        })
        .sum();
    assert!(stalls > 0, "flash_read_stalls counters should be nonzero");
    assert!(snap.counter("array_reads", &[("path", "direct")]) > 0);

    // Queueing + service decompose every direct drive read losslessly.
    let stats = a.stats();
    assert_eq!(stats.read_queueing.count(), stats.read_service.count());
    assert!(stats.read_queueing.count() > 0);
    assert!(
        stats.read_queueing.max() > 0,
        "stalled reads show nonzero queueing"
    );
}

#[test]
fn metrics_snapshot_and_export_are_consistent() {
    let mut a = FlashArray::new(stall_config()).expect("format");
    let vol = a.create_volume("v", 8 << 20).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    // 4 MiB of incompressible data seals 2+ segments, so early offsets
    // are on the drives (not the open segment's pending buffer).
    let data = random_sectors(&mut rng, 1024);
    a.write(vol, 0, &data).unwrap();
    a.advance(20_000_000);
    a.read(vol, 0, 64 * SECTOR).unwrap();
    // An unwritten range exercises the zero-fill path.
    a.read(vol, 6 << 20, 4 * SECTOR).unwrap();

    let snap = a.metrics_snapshot();
    assert_eq!(
        snap.counter("array_logical_bytes_written", &[]),
        data.len() as u64
    );
    assert!(snap.counter("array_reads", &[("path", "direct")]) > 0);
    assert!(snap.counter("array_reads", &[("path", "zero")]) > 0);
    // Per-drive flash counters exist, and at least one full stripe's
    // worth of drives took programs (segments span 9 of the 11 slots).
    let programmed_drives = (0..a.config().n_drives)
        .filter(|d| snap.counter("flash_programs", &[("drive", d.to_string().as_str())]) > 0)
        .count();
    assert!(
        programmed_drives >= a.config().stripe_width(),
        "only {programmed_drives} drives published program counters"
    );
    // Latency histograms are ArrayStats' own, summarized losslessly.
    let h = snap
        .histogram("array_read_latency", &[])
        .expect("read latency published");
    assert_eq!(h.count, a.stats().read_latency.count());
    assert_eq!(h.p999, a.stats().read_latency.p999());

    // Collecting is idempotent: a second snapshot reports the same values.
    let again = a.metrics_snapshot();
    assert_eq!(
        snap.counter("array_logical_bytes_written", &[]),
        again.counter("array_logical_bytes_written", &[])
    );
    assert_eq!(h, again.histogram("array_read_latency", &[]).unwrap());

    // The combined export carries both halves of the story.
    let j = a.export_observability_json();
    assert!(j.contains("\"metrics\""), "{j}");
    assert!(j.contains("\"slow_ops\""), "{j}");
    assert!(j.contains("array_read_latency"), "{j}");
}

/// A compact deterministic run that exercises every export section:
/// preload, paced reads across many 1 ms telemetry intervals, an
/// overwrite burst for slow-op captures, and a final settle.
fn telemetry_run(seed: u64) -> FlashArray {
    let mut cfg = churn_config();
    cfg.obs.recorder.interval_ns = 1_000_000;
    let mut a = FlashArray::new(cfg).expect("format");
    let vol = a.create_volume("t", 2 << 20).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let chunk = 64 * 1024usize;
    for i in 0..16u64 {
        let data = random_sectors(&mut rng, chunk / SECTOR);
        a.write(vol, i * chunk as u64, &data).unwrap();
        a.advance(300_000);
    }
    a.advance(30_000_000);
    for i in 0..64u64 {
        a.read(vol, (i * 4096) % (1 << 20), 4096).unwrap();
        a.advance(250_000);
    }
    a
}

#[test]
fn export_is_idempotent_across_repeated_collects() {
    let a = telemetry_run(3);
    // Collecting reads the owners' cumulative stats and changes
    // nothing, and exporting never advances recorder state: any number
    // of snapshots and exports at the same virtual time must render
    // byte-identical JSON.
    let snap = a.metrics_snapshot();
    assert_eq!(snap.to_json(), a.metrics_snapshot().to_json());
    let first = a.export_observability_json();
    a.metrics_snapshot();
    let second = a.export_observability_json();
    assert_eq!(first, second);
    assert!(
        first.contains(&snap.to_json()),
        "export embeds the snapshot"
    );
    // All five export sections are present.
    for section in [
        "\"metrics\"",
        "\"slow_ops\"",
        "\"timeseries\"",
        "\"incidents\"",
        "\"tail_blame\"",
    ] {
        assert!(first.contains(section), "missing {section}");
    }
}

#[test]
fn same_seed_runs_export_identical_telemetry() {
    // Determinism regression: the full observability export — interval
    // grid, quantiles, ordering, incident log — is a pure function of
    // the seed.
    let first = telemetry_run(9).export_observability_json();
    let second = telemetry_run(9).export_observability_json();
    assert_eq!(first, second);
    // Sanity that the comparison has teeth: more virtual time closes
    // more intervals, which must change the time-series section.
    let mut longer = telemetry_run(9);
    longer.advance(5_000_000);
    assert_ne!(
        first,
        longer.export_observability_json(),
        "a longer run must change the export"
    );
}

#[test]
fn slow_op_ring_capacity_comes_from_config() {
    let mut cfg = stall_config();
    cfg.obs.slow_op_capacity = 4;
    cfg.obs.slow_op_threshold = 1; // capture everything
    let mut a = FlashArray::new(cfg).expect("format");
    assert_eq!(a.obs().tracer.capacity(), 4);
    let vol = a.create_volume("v", 1 << 20).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let data = random_sectors(&mut rng, 256);
    a.write(vol, 0, &data).unwrap();
    a.advance(20_000_000);
    for i in 0..8u64 {
        a.read(vol, i * 4096, 4096).unwrap();
        a.advance(1_000_000);
    }
    // Every op crossed the 1 ns threshold, but the ring holds only the
    // configured four most recent.
    assert!(a.obs().tracer.captured_count() >= 8);
    assert_eq!(a.obs().tracer.slow_ops().len(), 4);
}

#[test]
fn threshold_change_applies_only_to_subsequent_captures() {
    let mut cfg = stall_config();
    cfg.obs.slow_op_threshold = 1;
    let mut a = FlashArray::new(cfg).expect("format");
    let vol = a.create_volume("v", 1 << 20).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let data = random_sectors(&mut rng, 256);
    a.write(vol, 0, &data).unwrap();
    a.advance(20_000_000);

    a.read(vol, 0, 4096).unwrap();
    let captured_low = a.obs().tracer.captured_count();
    assert!(captured_low > 0, "1 ns threshold captures everything");
    let ring_before = a.obs().tracer.slow_ops().len();

    // Raise the bar mid-run: ops already in the ring stay (they were
    // judged against the old threshold); new fast ops no longer match.
    a.obs().tracer.set_threshold(u64::MAX);
    a.read(vol, 4096, 4096).unwrap();
    a.read(vol, 8192, 4096).unwrap();
    assert_eq!(a.obs().tracer.captured_count(), captured_low);
    assert_eq!(a.obs().tracer.slow_ops().len(), ring_before);

    // Drop it again: capturing resumes for subsequent ops only.
    a.obs().tracer.set_threshold(1);
    a.read(vol, 16384, 4096).unwrap();
    assert_eq!(a.obs().tracer.captured_count(), captured_low + 1);
}

#[test]
fn observability_survives_failover() {
    let mut a = FlashArray::new(stall_config()).expect("format");
    let vol = a.create_volume("v", 4 << 20).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let data = random_sectors(&mut rng, 64);
    a.write(vol, 0, &data).unwrap();
    a.read(vol, 0, SECTOR).unwrap();

    let finished_before = a.obs().tracer.finished_count();
    let captured_before = a.obs().tracer.captured_count();
    assert!(finished_before > 0);

    a.fail_primary().unwrap();

    // The secondary shares the same hub: history intact, and new ops
    // keep accumulating into it.
    assert_eq!(a.obs().tracer.finished_count(), finished_before);
    assert_eq!(a.obs().tracer.captured_count(), captured_before);
    a.read(vol, 0, SECTOR).unwrap();
    assert!(a.obs().tracer.finished_count() > finished_before);

    // Post-failover snapshots still reflect the merged stats.
    let snap = a.metrics_snapshot();
    assert_eq!(
        snap.counter("array_logical_bytes_written", &[]),
        data.len() as u64
    );
    assert_eq!(snap.counter("array_failovers", &[]), 1);
}

/// Every stage name a real run emits must come from the closed
/// [`purity_obs::STAGE_REGISTRY`] — the audit that keeps the blame
/// taxonomy total: an unregistered stage would silently fold into
/// `reduction_cpu` and corrupt tail attribution.
#[test]
fn emitted_stage_names_are_registered() {
    let a = telemetry_run(11);
    let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for op in a.obs().tracer.slow_ops() {
        for st in &op.stages {
            seen.insert(st.stage);
        }
    }
    assert!(!seen.is_empty(), "run captured no slow ops to audit");
    for s in &seen {
        assert!(
            purity_obs::is_registered_stage(s),
            "run emitted unregistered stage {s:?}; registry: {:?}",
            purity_obs::STAGE_REGISTRY
        );
    }
}

/// The tiering engine's stages (ISSUE 10) are part of the same closed
/// registry: a run that hits the cache, demotes to the cold class and
/// pays a cold read must emit exactly the registered names — and the
/// new metrics families must show up in the snapshot.
#[test]
fn tier_stages_are_emitted_and_registered() {
    let mut cfg = ArrayConfig::tiered();
    cfg.obs.slow_op_threshold = 1; // capture every op, fast or slow
    let mut a = FlashArray::new(cfg).expect("format");
    let vol = a.create_volume("t", 512 * 1024).unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let data = random_sectors(&mut rng, 512 * 1024 / SECTOR);
    a.write(vol, 0, &data).unwrap();
    // One read warms the heat series; the idle advance crosses the
    // demote threshold so the migrator copies the volume down; the
    // re-read pays the cold penalty and admits into the cache; the
    // final read hits it.
    a.read(vol, 0, 64 * SECTOR).unwrap();
    for _ in 0..12 {
        a.advance(100_000_000);
    }
    a.read(vol, 0, 64 * SECTOR).unwrap();
    a.read(vol, 0, 64 * SECTOR).unwrap();

    let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for op in a.obs().tracer.slow_ops() {
        for st in &op.stages {
            seen.insert(st.stage);
        }
    }
    for want in ["cache_hit", "cold_read", "tier_demote"] {
        assert!(
            seen.contains(want),
            "tiered run never emitted {want:?}; saw {seen:?}"
        );
    }
    for s in &seen {
        assert!(
            purity_obs::is_registered_stage(s),
            "run emitted unregistered stage {s:?}; registry: {:?}",
            purity_obs::STAGE_REGISTRY
        );
    }

    let s = a.stats();
    assert!(s.tier_demotions > 0 && s.cold_reads > 0 && s.cache_reads > 0);
    let snap = a.metrics_snapshot();
    assert_eq!(snap.counter("tier_demotions", &[]), s.tier_demotions);
    assert_eq!(snap.counter("tier_cold_reads", &[]), s.cold_reads);
    assert_eq!(snap.counter("cache_ram_hits", &[]), s.cache_reads);
    let vol_label = vol.0.to_string();
    assert!(
        snap.counter("volume_reads", &[("volume", vol_label.as_str())]) > 0,
        "per-volume heat series must be published"
    );
}

// ---- Export contract -------------------------------------------------
//
// Four fixed-seed scenarios whose full `export_observability_json()`
// is pinned by digest. The digests were captured on the commit *before*
// the registry mirror was removed (ISSUE 12), so any byte that moves in
// `metrics`, `slow_ops`, `timeseries`, `incidents` or `tail_blame` —
// series order, a dropped sticky series, an incident's `gauges`
// evidence — fails here. A deliberate export change re-pins them: run
// with `--nocapture`, each scenario prints its current digest.
//
// Re-pinned once since (ISSUE 24, the read planner compares costs): a
// read rebuilds only where that beats the direct read to the die, so
// `array_reads{path}`, the per-drive `flash_reads` / `flash_read_stall*`
// and what derives from them moved in three scenarios —
// `host_closed_loop` (117 reconstructed reads -> 4), `tiered_cycle`
// (2 -> 0) and the replication source of `cluster_kill_and_repl_ship`
// (2 -> 0; its other four documents are byte-identical). `plain_mix`
// did not move.
//
// Re-pinned again when cold data became ordinary segments: every
// document lost the three cold-pool occupancy gauges (in `metrics`,
// `timeseries` and incident evidence), and the cluster scenario moved by
// nothing else. `plain_mix` and `host_closed_loop` also count fewer
// `lsm_inserts` (2 240 -> 0, 31 136 -> 1 664): the standby loads the
// persisted patches as one patch, not through the memtable. In
// `tiered_cycle` cold reads are segment reads (`array_reads{path=
// "direct"}` 74 -> 105, `tier_cold` blame 259 -> 567 ms), each new cold
// segment is one boot-record write (`flash_programs` +6 on the three
// mirror drives) and `array_allocated_bytes` counts cold segments.
//
// Re-pinned when a read began fetching a segment's adjacent cblocks as
// one run, and a mirror began reading whichever copy is done first.
// `plain_mix`, `host_closed_loop` and four of the five cluster documents
// are byte-identical. In `tiered_cycle` the two slowest intervals' cold
// reads are shorter ladders (`tier_cold` blame 567.09 -> 566.00 ms, the
// slowest read 2.79 -> 2.33 ms, its direct-read queueing p99.9
// 2.64 -> 2.17 ms); no counter of reads moved. In the replication
// source of `cluster_kill_and_repl_ship` one read of two cblocks
// that share a page on drive 5 reads it once (`array_reads{path=
// "direct"}` 46 -> 45, `flash_reads{drive="5"}` 27 -> 26).
//
// Re-pinned when a write's NVRAM intents began committing as one group,
// each channel programming its share once. Only `tiered_cycle` moved:
// its two 512 KiB writes are 16 intents of 32 KiB each, two a channel,
// issued at one instant behind the two volume creations' meta commits
// on channels 0 and 1. The first acks at 274.70 us (375.65: two 131.35
// us programs in series, now one 161.75 us program of both), the second
// behind it at 436.45 us (638.35). So `array_write_latency` (min / p50
// / max), the two write slow ops' `nvram_commit` and `cpu` spans,
// `trace_blame_ns{category="nvram_commit"}` 990.00 -> 687.15 us and the
// first interval's tail-blame cohort moved; the length is unchanged.
// The other three scenarios are byte-identical.
//
// Re-pinned when map patches went to flash as dictionary pages (about
// 6.5 B a fact, down from 14 as row-major varints). Only the two
// scenarios with a failover moved: the takeover reads half the log
// bytes. In `plain_mix` the failover's patch reads on drive 2 take 5
// fewer flash reads (`flash_reads{drive="2"}` 164 -> 159, 4 fewer read
// stalls, 585.6 us less stall time), which shortens the direct-read
// queueing of the interval after it (its p99 196.6 -> 98.3 us). In
// `host_closed_loop` the takeover is 491.35 us instead of 686.55
// (`array_downtime_ns`), 8 fewer recovery reads (`array_reads{path=
// "direct"}` 539 -> 531) and 54 fewer flash reads on drives 2–7, so the
// reads of that interval queue less (read-queueing p99 294.9 -> 196.6
// us, max 488.0 -> 292.8 us). No host op count moved. The other two
// scenarios are byte-identical.
//
// Re-pinned when writes began committing in groups across ops: a share
// of an NVRAM channel issued while the channel programs loads behind
// that program and joins the next one. Only write acks moved, and what
// follows from them; `plain_mix` is byte-identical (no write of it
// finds its channel busy).
// - `tiered_cycle`: its two 512 KiB writes, issued at one instant behind
//   the volume creations' meta commits on channels 0 and 1, ack at
//   212.95 us (274.70: the meta program, then 161.75 us of transfer and
//   program; now the 65 KiB loads while the meta program runs) and
//   312.95 us (436.45). So `array_write_latency`, the two write slow
//   ops' spans, `trace_blame_ns{category="nvram_commit"}` 687.15 ->
//   501.90 us and the first interval's tail-blame cohort moved.
// - `host_closed_loop`: the 973 writes ack sooner (mean 399.5 -> 185.5
//   us, max 517.6 -> 228.2 us, `nvram_commit` blame 377.0 -> 168.8
//   ms), so the closed loop issues its reads closer together and they
//   queue more at the drives (`drive_queue` blame 47.7 -> 54.8 ms,
//   direct-read queueing p99 196.6 -> 278.5 us, read p99 294.9 -> 327.7
//   us; 3 more reads rebuilt, `array_reads{path="reconstructed"}` 4 ->
//   7). The 2 000 ops fill two recorder intervals instead of three, so
//   the failover, due at 20 ms after the last op either way, is counted
//   an interval earlier, and the document is 219 bytes shorter. Its
//   downtime (491.35 us) and every host op count are unchanged.
// - `cluster_kill_and_repl_ship`: the slowest write of cluster nodes 0
//   and 1 is 214.85 us (217.70), of the replication source and
//   destination 243.35 us (274.70: a write's 33 KiB intent queued
//   behind the previous write's 131.35 us program now loads while it
//   runs). Their `array_write_latency` tails, `nvram_commit` blame and
//   tail-blame cohorts moved; node 2 is byte-identical.
//
// Re-pinned when the host dispatch queue became a plain FIFO and its
// per-volume rate caps went. Only `host_closed_loop` moved, and only by
// the `host_qos_throttled{volume="db"}` series the caps fed: its entry
// in `metrics` and its row of deltas in `timeseries` are gone (143
// bytes; both read 0). Every other byte is identical, so no op
// dispatched in a different order. The other three scenarios are
// byte-identical.
//
// Re-pinned when a GC pass stopped flushing the memtable as a record of
// its own before rewriting the whole map (the checkpoint named only the
// rewrite, so the flushed record was dead on arrival). Only `plain_mix`
// runs GC, and only what that record cost moved:
// - the pass programs one log stripe fewer: `flash_programs` and
//   `ssd_host_programs` on drives 2–9 are 57 (66; 59 on drive 2, from
//   68) and drive 10 is 0 (9), all in the GC interval;
// - `lsm_flushes{pyramid="map"}` in that interval is 0 (1): the
//   memtable folds into the one compaction merge instead;
// - `array_allocated_bytes` is 1 605 632 (3 211 264): one segment
//   fewer holds the pass's log stripes;
// - the failover's log reads find the records elsewhere: drive 1 takes 3
//   more flash reads (222 -> 225, 2 more queued behind reads, 195.2 us
//   more stall time) and drive 2 those 3 fewer (159 -> 156);
// - the SLO incident's frozen drive evidence shows the GC interval's
//   program queues ending 13–20 ms sooner, and drive 10 idle.
// No slow op, tail-blame cohort or host op count moved. The document is
// 86 bytes shorter. The other three scenarios are byte-identical.
//
// Re-pinned when a move's fetch stopped entering the read cache. Only
// `tiered_cycle` moved, and only by `cache_ram_used_bytes`: the tier
// moves' fetches no longer leave entries keyed by the addresses they
// left. It ends at 950 272 bytes (2 097 152: 35 such 32 KiB entries),
// in `metrics` and in `timeseries` from interval 5, where the 15
// demoted cblocks are 491 520 bytes fewer (229 376, from 720 896). The
// hits, misses and evictions are unchanged (37, 64, 0), so no read was
// served differently. The document is 10 bytes shorter. The other three
// scenarios are byte-identical; warming replacing the standby's
// contents moved none of them.
//
// Re-pinned when heat became the time since a volume's last read,
// stamped by the controller, and a failover began handing the read
// counts to the standby. The cluster scenario is byte-identical.
// - `plain_mix` and `host_closed_loop` moved only by the
//   `volume_reads{volume="1"}` series. The standby's count no longer
//   restarts at 0, so the interval the failover falls in reads its real
//   reads (`plain_mix` interval 52: 0 -> 3; `host_closed_loop` interval
//   1: 0 -> 300), and the final value counts the array's reads, not the
//   standby's (32 -> 128; 0 -> 1 027). The documents are 1 and 5 bytes
//   longer.
// - `tiered_cycle`: every move comes one 100 ms recorder interval
//   sooner, since heat no longer waits for the interval holding a read
//   to close. `idle`, read at 0, demotes at the 400 ms tick (interval 4,
//   was 5), is promoted at the tick after the re-heat's first read
//   (interval 12, was 13), and `hot` demotes in interval 15 (16). The
//   totals are unchanged: 32 demotions, 16 promotions, 16 cold reads,
//   37 cache hits. The 16 cold reads all fall in interval 12 (4 + 12),
//   so `tier_cold` blame is 565.69 ms (566.00). The move fetches queue
//   differently on drives 5–7: the direct drive-read histograms, which
//   count them, end at 2.64 ms (2.33) and queueing 2.48 ms (2.17). Host
//   reads wait less: the read at 1.6 s no longer queues behind the
//   second demotion's fetches (207.2 us, was 500.0), two reads after
//   it are cache hits, `drive_queue` blame is 4.29 ms (4.59) and
//   `array_read_latency`'s mean 104.74 us (121.98). The slowest read,
//   792.8 us behind the first demotion's fetches, is unchanged.
//   `cache_ram_used_bytes` ends at 884 736 (950 272). The slow-op ring
//   holds the same 58 ops, two `tier_migrate` ops sooner in it. The
//   document is 16 bytes longer.
//
// Re-pinned when log stripes began dealing their flash pages over the
// data columns, the frontier probes were booked before the map-record
// reads, and the recovery seal began programming when the NVRAM scan
// ends. Only the two scenarios with a takeover moved; `tiered_cycle`
// and the cluster documents are byte-identical. No slow op moved.
// - `plain_mix`: the takeover is 320.00 us (420.95, `array_downtime_ns`).
//   A record's pages now sit on several drives, and recovery reads each
//   drive's share once: 2 more direct reads (`array_reads{path=
//   "direct"}` 297 -> 299; `flash_reads` on drives 1 / 2 / 3: 225 -> 223,
//   156 -> 157, 224 -> 225), with their stalls. The ops after the
//   takeover run 0.1 ms sooner, so some cross a 1 ms recorder boundary:
//   the deltas of intervals 52-58 move, the tail-blame cohorts of
//   intervals 52 and 58 hold 3 and 4 ops (2 and 5), and the SLO
//   incident opening there counts 4 (3). The document is 8 bytes
//   longer.
// - `host_closed_loop`: the takeover is 300.00 us (491.35). Its record
//   reads spread from drives 1-3 to 5-9 (`flash_reads{drive="1"}` 97 ->
//   91, `"3"` 150 -> 142, `"5"` 125 -> 131, `"9"` 18 -> 20), 15 more
//   direct reads in all (528 -> 543), and the read stall on drives 1-3
//   falls (drive 2: 5.54 -> 3.49 ms). The direct drive-read histogram,
//   which counts them, has p99 344.1 us (376.8) and queueing p99 245.8
//   us (278.5). Every host op count is unchanged. The document is 1
//   byte longer.
//
// Re-pinned when a cold start began sealing NVRAM only when the log
// ends in a torn tail. Neither takeover finds one, so neither appends
// its seal: the `nvram_used_bytes` gauge and its series are the
// seal's bytes lower from the failover on (`plain_mix` 24 -> 14,
// `host_closed_loop` 852 893 -> 852 882). Both takeovers are bound by
// their map-record reads, so the downtimes and everything else are
// unchanged; so are the documents' lengths. `tiered_cycle` and the
// cluster documents are byte-identical.
//
// Re-pinned when the frontier scan began stopping each drive at the
// first AU no segment opened since the checkpoint, and GC began judging
// victims by the bytes written into them and packing a pass's records
// into shared log stripes. Only the two takeovers moved: each probes one
// AU a drive, so its AU scan ends at 20 us and the takeover is bound by
// the boot record and map-record reads, 195.20 us (`array_downtime_ns`;
// `plain_mix` 320.00, `host_closed_loop` 300.00). `plain_mix`'s one GC
// pass collects and writes what it did before. Its later ops run
// 124.8 us sooner, so some cross a 1 ms recorder boundary: reads move
// between intervals 52-58 (`array_reads{path="direct"}` 11 -> 13 in
// interval 52, 6 -> 4 in 58, with their `flash_reads`, stalls and
// `drive_queue` / `reduction_cpu` blame), and the SLO incident opening
// at 52 ms counts 5 ops (4) and freezes the new downtime. Every total
// but the downtime is unchanged; the document is 3 bytes longer. In
// `host_closed_loop` only the downtime's value and its interval's delta
// moved. `tiered_cycle` and the cluster documents are byte-identical.
//
// Re-pinned when a log flush began programming only the page rows its
// frame and records fill. Only the two documents with map flushes moved;
// `tiered_cycle` and the cluster documents are byte-identical, and no
// slow op moved in either.
// - `plain_mix`: each of drives 1-9 programs 7 pages fewer
//   (`flash_programs` and `ssd_host_programs` 59 / 57 -> 52 / 50): the
//   flushes' log stripes program one row where they programmed eight.
//   The takeover is 97.60 us (195.20, `array_downtime_ns`), one read
//   service time sooner: its map-record reads meet fewer programs on
//   their dies. Drives 1 and 2 lose one read stall each (97.6 us), and the
//   direct read histograms' means fall by 0.65 us. The SLO incident's
//   frozen evidence carries the new downtime and program counts; the
//   document is 32 bytes shorter.
// - `host_closed_loop`: drives 0-10 program 5-16 pages fewer each
//   (drive 9: 148 -> 132). Host reads now find different dies busy:
//   read stalls move between drives (drive 6 4.15 -> 2.69 ms, drive 5
//   3.03 -> 4.75 ms), the direct drive-read p99 is 294.9 us (344.1)
//   and the host read p99 311.3 us (327.7). The takeover is 292.80 us
//   (195.20), one read service time later, as its map-record reads meet
//   a different set of busy dies. Every host op count is unchanged; the initiators
//   split their completions slightly differently (518 / 484 / 498 / 500
//   -> 511 / 495 / 484 / 510). The document is 6 bytes longer.
//
// Re-pinned when a padded data stripe began programming only the pages
// its data fills and their parity rows. The cluster documents are
// byte-identical; no document changed length but `tiered_cycle`, 1 byte
// shorter.
// - `plain_mix`: drives 4-7 program 7-8 pages fewer each
//   (`flash_programs` and `ssd_host_programs` 50 -> 43 / 42 / 42 / 42),
//   all in interval 44, the GC pass's seal pads (deltas 9 -> 2 / 1).
//   The SLO incident's frozen die evidence ends those drives' programs
//   2.6-13.1 ms sooner. No read, latency or blame series moved.
// - `host_closed_loop`: drives 2-9 program 5-24 pages fewer each
//   (drive 5: 132 -> 108). With fewer programs in their way, one read
//   that was rebuilt around a busy drive reads direct (`array_reads`
//   direct 543 -> 544, reconstructed 7 -> 6; extra reads 42 -> 36, six
//   a rebuild as before). The `reconstruct` blame rises
//   0.71 -> 0.89 ms and read stalls move between drives (drive 2 2.86
//   -> 3.14 ms, drive 4 5.30 -> 5.05 ms); the host read p99 is 294.9 us
//   (278.5) and the initiators split their completions 511 / 495 / 484
//   / 510 -> 503 / 488 / 486 / 523. Every host op count is unchanged.
// - `tiered_cycle`: the demotions' cold stripes pad with fewer pages, so
//   the two slow demotions finish sooner (274.2 -> 260.1 ms, 288.2 ->
//   267.2 ms) and `tier_cold` blame falls 565.7 -> 530.7 ms. The cold
//   read at 1.25 s now meets a later program on its die: it takes
//   2.79 ms (2.64), which moves the direct drive-read histogram's tail.

/// FNV-1a 64 over the deterministic part of an export.
fn export_digest(doc: &str) -> (usize, u64) {
    let doc = purity_obs::profiler::strip_profile_section(doc);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in doc.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (doc.len(), h)
}

fn assert_export_digest(scenario: &str, docs: &[String], want: &[(usize, u64)]) {
    let got: Vec<(usize, u64)> = docs.iter().map(|d| export_digest(d)).collect();
    println!("export digest {scenario}: {got:#x?}");
    assert_eq!(got, want, "{scenario}: observability export bytes changed");
}

/// Plain `test_small`-shaped mix on churn drives with a tight SLO
/// budget (so an incident opens and freezes `gauges` evidence): writes,
/// reads, a snapshot, GC, a destroyed volume whose `volume_reads`
/// series must outlive it, and a failover the hub must survive.
#[test]
fn export_contract_plain_mix() {
    let mut cfg = churn_config();
    cfg.obs.recorder.interval_ns = 1_000_000;
    cfg.obs.recorder.slo.p999_budget_ns = 50_000;
    cfg.obs.recorder.slo.min_interval_count = 2;
    let mut a = FlashArray::new(cfg).expect("format");
    let keep = a.create_volume("keep", 2 << 20).unwrap();
    let gone = a.create_volume("gone", 1 << 20).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0117AC7);
    let chunk = 32 * 1024usize;
    for i in 0..24u64 {
        let data = random_sectors(&mut rng, chunk / SECTOR);
        a.write(keep, (i % 32) * chunk as u64, &data).unwrap();
        if i % 3 == 0 {
            a.write(gone, (i % 8) * chunk as u64, &data).unwrap();
        }
        a.advance(400_000);
    }
    a.advance(20_000_000);
    a.snapshot(keep, "s0").unwrap();
    for i in 0..96u64 {
        a.read(keep, (i * 8192) % (768 * 1024), 4096).unwrap();
        if i % 4 == 0 {
            a.read(gone, (i * 4096) % (256 * 1024), 4096).unwrap();
        }
        if i % 16 == 15 {
            let data = random_sectors(&mut rng, chunk / SECTOR);
            a.write(keep, (i % 24) * chunk as u64, &data).unwrap();
        }
        a.advance(150_000);
    }
    a.run_gc().unwrap();
    a.advance(5_000_000);
    // The owner goes away right after a publish: the series stays.
    let before = a.metrics_snapshot();
    let gone_label = gone.0.to_string();
    let gone_reads = before.counter("volume_reads", &[("volume", gone_label.as_str())]);
    assert!(gone_reads > 0);
    a.destroy_volume(gone).unwrap();
    a.advance(3_000_000);
    a.fail_primary().unwrap();
    for i in 0..32u64 {
        a.read(keep, (i * 4096) % (512 * 1024), 4096).unwrap();
        a.advance(200_000);
    }
    a.advance(4_000_000);
    let after = a.metrics_snapshot();
    assert_eq!(
        after.counter("volume_reads", &[("volume", gone_label.as_str())]),
        gone_reads,
        "a destroyed volume's read series is sticky"
    );
    assert!(
        !a.obs().recorder.incidents().is_empty(),
        "scenario must open an SLO incident"
    );
    assert_export_digest(
        "plain_mix",
        &[a.export_observability_json()],
        &[(108_598, 0x9e16_7ab6_f506_c911)],
    );
}

/// `tiered`: demote on idle, cold read, RAM hit, promote on re-heat.
#[test]
fn export_contract_tiered_cycle() {
    let mut cfg = ArrayConfig::tiered();
    cfg.obs.slow_op_threshold = 1;
    let mut a = FlashArray::new(cfg).expect("format");
    let hot = a.create_volume("hot", 512 * 1024).unwrap();
    let idle = a.create_volume("idle", 512 * 1024).unwrap();
    let mut rng = StdRng::seed_from_u64(0x71E2ED);
    for vol in [hot, idle] {
        let data = random_sectors(&mut rng, 512 * 1024 / SECTOR);
        a.write(vol, 0, &data).unwrap();
    }
    a.read(idle, 0, 64 * SECTOR).unwrap();
    // `idle` cools past the demote threshold while `hot` keeps reading.
    for i in 0..12u64 {
        a.read(hot, (i % 8) * 32 * 1024, 32 * 1024).unwrap();
        a.advance(100_000_000);
    }
    assert!(a.stats().tier_demotions > 0, "idle volume must demote");
    // Re-heat: cold reads, then cache hits, then the migrator promotes.
    for i in 0..40u64 {
        a.read(idle, (i % 16) * 32 * 1024, 32 * 1024).unwrap();
        a.advance(25_000_000);
    }
    assert!(a.stats().cold_reads > 0 && a.stats().cache_reads > 0);
    assert!(
        a.stats().tier_promotions > 0,
        "re-heated volume must promote"
    );
    assert_export_digest(
        "tiered_cycle",
        &[a.export_observability_json()],
        &[(79_201, 0xa38e_106d_2709_7399)],
    );
}

/// `purity-host` closed loop (4 initiators x QD 8) across a controller
/// failover, with the host report and offered load published.
#[test]
fn export_contract_host_closed_loop() {
    use purity_core::{FaultEvent, FaultPlan};
    use purity_host::{HostConfig, HostEngine};
    use purity_wkld::{AccessPattern, ContentModel, SizeMix, WorkloadGen};
    let mut cfg = ArrayConfig::test_small();
    cfg.obs.recorder.interval_ns = 5_000_000;
    let mut a = FlashArray::new(cfg).expect("format");
    let vol = a.create_volume("db", 16 << 20).unwrap();
    let mut gen = WorkloadGen::new(
        21,
        16 << 20,
        AccessPattern::Uniform,
        SizeMix::fixed(16 * 1024),
        50,
        ContentModel::Rdbms,
        0,
    );
    let mut plan = FaultPlan::new().at(20_000_000, FaultEvent::FailPrimary);
    let engine = HostEngine::new(HostConfig {
        initiators: 4,
        queue_depth: 8,
        ..HostConfig::default()
    });
    let report = engine.run_closed_loop(&mut a, vol, &mut gen, 2_000, Some(&mut plan));
    assert_eq!(report.ops, 2_000);
    assert_eq!(a.failovers, 1);
    report.publish(&a.obs().registry, "db");
    gen.offered().publish(&a.obs().registry, "oltp");
    a.advance(10_000_000);
    assert_export_digest(
        "host_closed_loop",
        &[a.export_observability_json()],
        &[(43_309, 0x97c8_0ac5_f075_2225)],
    );
}

/// 3-node cluster losing a member and rebuilding, plus a two-array
/// replication ship over a flapping WAN: every node's export.
#[test]
fn export_contract_cluster_kill_and_repl_ship() {
    use purity_cluster::{Cluster, ClusterSpec};
    use purity_repl::{LinkConfig, ReplFabric, ReplicaLink};
    use purity_sim::{MS, SEC};
    let mut spec = ClusterSpec::test_small(3, 71);
    spec.link = LinkConfig::flaky(100 << 20, 0, 600 * MS, 100 * MS);
    let mut c = Cluster::new(spec).unwrap();
    let cvol = c.create_volume("db", 2 << 20).unwrap();
    let mut client = c.client();
    let mut rng = StdRng::seed_from_u64(0xC1057E2);
    for i in 0..12u64 {
        let data = random_sectors(&mut rng, 4);
        c.write(&mut client, cvol, i * 4 * SECTOR as u64, &data)
            .unwrap();
    }
    c.kill(0);
    for i in 0..300u64 {
        c.tick(100 * MS);
        if i % 25 == 0 {
            let _ = c.read(&mut client, cvol, (i % 12) * 4 * SECTOR as u64, 4 * SECTOR);
        }
    }
    assert!(c.fully_redundant(), "rebuild must finish");
    c.publish_metrics();
    let mut docs: Vec<String> = (0..3)
        .map(|n| c.array(n).export_observability_json())
        .collect();

    let mut src = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let mut dst = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let size = 1usize << 20;
    let vol = src.create_volume("prod", size as u64).unwrap();
    let link = LinkConfig::flaky(25 << 20, 5, 40 * MS, 700 * MS);
    let mut fabric = ReplFabric::new(ReplicaLink::with_config(link));
    let pg = fabric.protect(&src, vol, "prod", SEC).unwrap();
    let mut stalled = false;
    for _ in 0..3 {
        for _ in 0..4 {
            let data = random_sectors(&mut rng, 96 * 1024 / SECTOR);
            let off = rng.gen_range(0..(size - data.len()) / SECTOR) * SECTOR;
            src.write(vol, off as u64, &data).unwrap();
        }
        let mut report = fabric.ship_now(pg, &mut src, &mut dst).unwrap();
        let mut guard = 0;
        while !report.completed {
            stalled = true;
            src.advance(80 * MS);
            report = fabric.resume(pg, &mut src, &mut dst).unwrap();
            guard += 1;
            assert!(guard < 200);
        }
        src.advance(20 * MS);
    }
    assert!(stalled, "scenario must include a mid-transfer flap");
    src.advance(SEC);
    dst.advance(SEC);
    docs.push(src.export_observability_json());
    docs.push(dst.export_observability_json());
    assert_export_digest(
        "cluster_kill_and_repl_ship",
        &docs,
        &[
            (16_368, 0xae77_55fe_519b_5bfb),
            (352_950, 0x5d4f_400d_74a9_c451),
            (347_436, 0x0507_31b2_6acd_01db),
            (88_262, 0xaff0_b49d_5813_14ad),
            (86_672, 0xca0d_fcb9_b002_b5ce),
        ],
    );
}
