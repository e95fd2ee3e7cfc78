//! Controller failover and recovery: the paper's §4.3 story.
//!
//! Controllers are stateless; killing the primary rebuilds everything
//! from the boot region, segment log records and NVRAM. These tests
//! exercise recovery at every interesting point in the write lifecycle
//! and check the frontier-set scan bound.

use purity_core::recovery::ScanMode;
use purity_core::{ArrayConfig, FlashArray, SECTOR};
use purity_sim::{MS, SEC};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sectors(tag: u64, n: usize) -> Vec<u8> {
    let mut out = vec![0u8; n * SECTOR];
    let mut rng = StdRng::seed_from_u64(tag);
    for chunk in out.chunks_mut(SECTOR) {
        for b in chunk[..128].iter_mut() {
            *b = rng.gen();
        }
        chunk[128..].fill(tag as u8);
    }
    out
}

#[test]
fn failover_preserves_acknowledged_writes() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 4 << 20).unwrap();
    let data = sectors(1, 200);
    a.write(vol, 0, &data).unwrap();
    // Crash immediately: data lives only in NVRAM + open segment.
    let report = a.fail_primary().unwrap();
    assert!(
        report.recovery.write_intents_replayed > 0,
        "NVRAM replay expected"
    );
    let (read, _) = a.read(vol, 0, data.len()).unwrap();
    assert_eq!(read, data);
}

#[test]
fn failover_after_checkpoint_needs_no_replay() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 4 << 20).unwrap();
    let data = sectors(2, 200);
    a.write(vol, 0, &data).unwrap();
    a.checkpoint().unwrap();
    let report = a.fail_primary().unwrap();
    assert_eq!(
        report.recovery.write_intents_replayed, 0,
        "checkpoint made everything durable: {:?}",
        report.recovery
    );
    assert!(report.recovery.facts_loaded > 0, "facts come from patches");
    let (read, _) = a.read(vol, 0, data.len()).unwrap();
    assert_eq!(read, data);
}

#[test]
fn metadata_operations_survive_failover() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 4 << 20).unwrap();
    let base = sectors(3, 64);
    a.write(vol, 0, &base).unwrap();
    let snap = a.snapshot(vol, "pre-crash").unwrap();
    let clone = a.clone_snapshot(snap, "clone").unwrap();
    a.write(vol, 0, &sectors(4, 64)).unwrap();

    a.fail_primary().unwrap();

    // Snapshot and clone still exist with the right contents.
    let snap_data = a.read_snapshot(snap, 0, base.len()).unwrap();
    assert_eq!(snap_data, base);
    let (clone_data, _) = a.read(clone, 0, base.len()).unwrap();
    assert_eq!(clone_data, base);
    let (live, _) = a.read(vol, 0, 64 * SECTOR).unwrap();
    assert_eq!(live, sectors(4, 64));
}

#[test]
fn repeated_failovers_converge() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 4 << 20).unwrap();
    let mut shadow = std::collections::HashMap::new();
    let mut rng = StdRng::seed_from_u64(9);
    for round in 0..5u64 {
        for _ in 0..20 {
            let s = rng.gen_range(0..8000u64);
            let data = sectors(round * 1000 + s, 4);
            a.write(vol, s * SECTOR as u64, &data).unwrap();
            for i in 0..4u64 {
                shadow.insert(
                    s + i,
                    data[i as usize * SECTOR..(i as usize + 1) * SECTOR].to_vec(),
                );
            }
            a.advance(MS);
        }
        a.fail_primary().unwrap();
        for (&s, expect) in &shadow {
            let (read, _) = a.read(vol, s * SECTOR as u64, SECTOR).unwrap();
            assert_eq!(&read, expect, "round {} sector {}", round, s);
        }
    }
    assert_eq!(a.failovers, 5);
}

#[test]
fn failover_with_dirty_gc_state() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let keep = a.create_volume("keep", 8 << 20).unwrap();
    let kill = a.create_volume("kill", 8 << 20).unwrap();
    let keep_data = sectors(5, 256);
    a.write(keep, 0, &keep_data).unwrap();
    for i in 0..32u64 {
        a.write(kill, i * 128 * 1024, &sectors(100 + i, 256))
            .unwrap();
    }
    a.destroy_volume(kill).unwrap();
    a.run_gc().unwrap();
    a.fail_primary().unwrap();
    let (read, _) = a.read(keep, 0, keep_data.len()).unwrap();
    assert_eq!(read, keep_data);
    // Destroyed volume stays destroyed after recovery.
    assert!(a.read(kill, 0, SECTOR).is_err());
}

#[test]
fn recovery_within_client_timeout() {
    // The paper's hard bound: clients time out at 30 s; failover must
    // complete well inside it.
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 8 << 20).unwrap();
    for i in 0..64u64 {
        a.write(vol, i * 128 * 1024, &sectors(200 + i, 256))
            .unwrap();
        a.advance(MS);
    }
    let report = a.fail_primary().unwrap();
    assert!(
        report.downtime < 30 * SEC,
        "failover took {} virtual ns",
        report.downtime
    );
    // And with the frontier set it should be far below a second.
    assert!(
        report.downtime < SEC,
        "frontier-set failover should be sub-second, was {} ns",
        report.downtime
    );
}

#[test]
fn frontier_scan_beats_full_scan() {
    // Experiment E3's core claim, as a regression test: frontier-set
    // recovery scans orders of magnitude fewer AUs.
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 8 << 20).unwrap();
    for i in 0..64u64 {
        a.write(vol, i * 128 * 1024, &sectors(300 + i, 256))
            .unwrap();
    }
    a.checkpoint().unwrap();

    let frontier = a.fail_primary_with(ScanMode::Frontier).unwrap();
    let full = a.fail_primary_with(ScanMode::FullScan).unwrap();
    assert!(
        full.recovery.aus_scanned >= 5 * frontier.recovery.aus_scanned.max(1),
        "full {} vs frontier {}",
        full.recovery.aus_scanned,
        frontier.recovery.aus_scanned
    );
    // Both recover the same data.
    let (read, _) = a.read(vol, 0, 256 * SECTOR).unwrap();
    assert_eq!(read, sectors(300, 256));
}

#[test]
fn secondary_cache_is_warm_after_failover() {
    for cfg in [ArrayConfig::test_small(), ArrayConfig::tiered()] {
        let mut a = FlashArray::new(cfg).unwrap();
        let vol = a.create_volume("db", 4 << 20).unwrap();
        let data = sectors(6, 64);
        a.write(vol, 0, &data).unwrap();
        // Touch the data repeatedly so it is hot, letting warming kick in
        // (warms every 128 writes).
        for i in 0..256u64 {
            a.write(vol, 32 * SECTOR as u64, &sectors(7 + i % 3, 4))
                .unwrap();
            a.read(vol, 0, 16 * SECTOR).unwrap();
        }
        let hits_before = a.stats().cache_reads;
        assert!(hits_before > 0);
        a.fail_primary().unwrap();
        // First read after failover should hit the warmed cache (the
        // counter carries over, so it must move).
        a.read(vol, 0, 16 * SECTOR).unwrap();
        assert!(
            a.stats().cache_reads > hits_before,
            "warmed secondary cache should serve immediately"
        );
    }
}

/// A full standby cache learns a hot set that has moved: after the
/// primary's reads move from set A to set B, failover serves B from the
/// cache the old primary warmed, not the A of the standby's first fill.
#[test]
fn a_full_standby_learns_the_new_hot_set() {
    const CBLOCK: usize = 32 * 1024;
    let cfg = ArrayConfig {
        cache_bytes: 8 * CBLOCK,
        ..ArrayConfig::test_small()
    };
    let mut a = FlashArray::new(cfg).unwrap();
    let vol = a.create_volume("db", 4 << 20).unwrap();
    let side = a.create_volume("side", 1 << 20).unwrap();
    // Two hot sets of eight cblocks each: the cache holds one.
    let set_a = 0u64;
    let set_b = 2 << 20;
    a.write(vol, set_a, &sectors(11, 8 * CBLOCK / SECTOR))
        .unwrap();
    a.write(vol, set_b, &sectors(12, 8 * CBLOCK / SECTOR))
        .unwrap();
    // Durable where they stand: the takeover replays neither set to a
    // new address.
    a.checkpoint().unwrap();
    // Warming runs every 128 writes: one round reading only A, then
    // one reading only B. The side writes never repeat, so no dedup
    // verification puts their cblocks in the cache.
    for (round, set) in [set_a, set_b].into_iter().enumerate() {
        for i in 0..128u64 {
            let tag = 100 + 128 * round as u64 + i;
            a.write(side, 0, &sectors(tag, 4)).unwrap();
            a.read(vol, set, 8 * CBLOCK).unwrap();
        }
    }
    let hits = |a: &mut FlashArray| {
        let before = a.stats().cache_reads;
        a.read(vol, set_b, 8 * CBLOCK).unwrap();
        a.stats().cache_reads - before
    };
    assert_eq!(hits(&mut a), 8, "the primary serves B from its cache");
    a.fail_primary().unwrap();
    assert_eq!(hits(&mut a), 8, "the standby was warmed with B");
}

#[test]
fn availability_accounting() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 1 << 20).unwrap();
    a.write(vol, 0, &sectors(8, 16)).unwrap();
    // A year of virtual uptime with one failover.
    a.advance(365 * 24 * 3600 * SEC);
    a.fail_primary().unwrap();
    let avail = a.availability();
    assert!(
        avail > 0.99999,
        "one sub-second failover in a year is five nines, got {}",
        avail
    );
}

/// A recovered controller has to take writes. Recovery used to refill
/// the memtable with every on-disk fact, so the first flush after a
/// failover — after 64 MiB of writes, more than one segment's whole log
/// space — gave up with "could not append log record"; it now holds only
/// what was written since.
#[test]
fn recovered_controller_takes_writes() {
    use purity_wkld::{AccessPattern, ContentModel, Op, SizeMix, WorkloadGen};
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol_bytes: u64 = 16 << 20;
    let vol = a.create_volume("big", vol_bytes).unwrap();
    let chunk = 128 * 1024usize;
    let mut image = vec![0u8; vol_bytes as usize];
    let mut write_all = |a: &mut FlashArray, gen: &mut WorkloadGen, n: u64| {
        for _ in 0..n {
            let Op::Write { offset, data } = gen.next_op() else {
                panic!("write-only generator");
            };
            a.write(vol, offset, &data)
                .expect("a recovered controller must take writes");
            image[offset as usize..offset as usize + data.len()].copy_from_slice(&data);
            a.advance(50_000);
        }
    };
    let gen = |seed| {
        WorkloadGen::new(
            seed,
            vol_bytes,
            AccessPattern::Sequential,
            SizeMix::fixed(chunk),
            0,
            ContentModel::Rdbms,
            50_000,
        )
    };
    // Four passes over the volume: the on-disk patches keep every
    // superseded fact until a GC pass rewrites them, and recovery loads
    // them all.
    for pass in 0..4 {
        write_all(&mut a, &mut gen(7 + pass), vol_bytes / chunk as u64);
    }
    a.fail_primary().unwrap();
    // Overwrite a quarter, then checkpoint: both flush the memtable the
    // recovery filled.
    write_all(&mut a, &mut gen(99), vol_bytes / chunk as u64 / 4);
    a.checkpoint().expect("checkpoint after recovery");
    // The split patch records recover like any other.
    a.fail_primary().unwrap();
    for off in (0..vol_bytes as usize).step_by(chunk) {
        let (read, _) = a.read(vol, off as u64, chunk).unwrap();
        assert!(read == image[off..off + chunk], "chunk at {off} diverged");
    }
}

/// The standby takes over the old primary's per-volume read counts: the
/// flight recorder's `volume_reads` series records every interval's
/// reads across a failover, where a count restarting at zero lost the
/// interval the takeover fell in.
#[test]
fn volume_reads_lose_no_interval_across_failover() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 1 << 20).unwrap();
    a.write(vol, 0, &sectors(40, 16)).unwrap();
    for step in 0..60 {
        if step == 30 {
            a.fail_primary().unwrap();
        }
        a.read(vol, 0, 4096).unwrap();
        a.advance(20 * MS);
    }
    let label = vol.0.to_string();
    let series = a
        .obs()
        .recorder
        .counter_series("volume_reads", &[("volume", &label)]);
    assert!(series.len() >= 10, "{series:?}");
    assert!(
        series.iter().all(|&reads| reads > 0),
        "an interval lost its reads: {series:?}"
    );
    assert_eq!(series.iter().sum::<u64>(), 60);
}

/// Heat survives a failover: a volume read before the takeover and idle
/// after it still goes cold and is demoted by the standby.
#[test]
fn a_volume_idle_after_failover_still_demotes() {
    let mut a = FlashArray::new(ArrayConfig::tiered()).unwrap();
    let vol = a.create_volume("db", 1 << 20).unwrap();
    let data = sectors(41, 512);
    a.write(vol, 0, &data).unwrap();
    a.read(vol, 0, 4096).unwrap();
    a.advance(100 * MS);
    a.checkpoint().unwrap();
    a.fail_primary().unwrap();
    for _ in 0..20 {
        a.advance(50 * MS);
    }
    assert!(
        a.stats().tier_demotions > 0,
        "the idle volume stayed on flash"
    );
    assert_eq!(a.read(vol, 0, data.len()).unwrap().0, data);
    assert!(a.verify_integrity().is_empty());
}
