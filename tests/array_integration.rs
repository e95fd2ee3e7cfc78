//! End-to-end integration tests of the FlashArray public API:
//! write/read round trips, overwrites, snapshots, clones, destroys,
//! garbage collection, space accounting.

use purity_core::{ArrayConfig, FlashArray, PurityError, SECTOR};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn array() -> FlashArray {
    FlashArray::new(ArrayConfig::test_small()).expect("format")
}

/// Deterministic, moderately compressible content distinct per (tag, i).
fn sectors(tag: u64, n: usize) -> Vec<u8> {
    let mut out = vec![0u8; n * SECTOR];
    for (i, chunk) in out.chunks_mut(SECTOR).enumerate() {
        let mut rng = StdRng::seed_from_u64(tag.wrapping_mul(1_000_003) + i as u64);
        // Half random, half structured: compresses ~2x, never dedups
        // across different (tag, i).
        for b in chunk[..SECTOR / 2].iter_mut() {
            *b = rng.gen();
        }
        chunk[SECTOR / 2..].fill((tag % 251) as u8);
    }
    out
}

#[test]
fn single_sector_round_trip() {
    let mut a = array();
    let vol = a.create_volume("v", 1 << 20).unwrap();
    let data = sectors(1, 1);
    a.write(vol, 0, &data).unwrap();
    let (read, ack) = a.read(vol, 0, SECTOR).unwrap();
    assert_eq!(read, data);
    assert!(ack.latency > 0);
}

#[test]
fn large_write_round_trips_across_cblocks() {
    let mut a = array();
    let vol = a.create_volume("v", 8 << 20).unwrap();
    // 256 KiB write: spans 8 cblocks of 32 KiB.
    let data = sectors(2, 512);
    a.write(vol, 0, &data).unwrap();
    let (read, _) = a.read(vol, 0, data.len()).unwrap();
    assert_eq!(read, data);
    // Sub-ranges at odd sector offsets.
    let (read, _) = a.read(vol, 3 * SECTOR as u64, 5 * SECTOR).unwrap();
    assert_eq!(read, data[3 * SECTOR..8 * SECTOR]);
}

#[test]
fn unwritten_space_reads_zero() {
    let mut a = array();
    let vol = a.create_volume("v", 1 << 20).unwrap();
    let (read, _) = a.read(vol, 64 * SECTOR as u64, 2 * SECTOR).unwrap();
    assert_eq!(read, vec![0u8; 2 * SECTOR]);
    // Partially written range.
    a.write(vol, 64 * SECTOR as u64, &sectors(3, 1)).unwrap();
    let (read, _) = a.read(vol, 63 * SECTOR as u64, 3 * SECTOR).unwrap();
    assert_eq!(&read[..SECTOR], &[0u8; SECTOR]);
    assert_eq!(&read[SECTOR..2 * SECTOR], &sectors(3, 1)[..]);
    assert_eq!(&read[2 * SECTOR..], &[0u8; SECTOR]);
}

#[test]
fn overwrites_return_latest_data() {
    let mut a = array();
    let vol = a.create_volume("v", 1 << 20).unwrap();
    for round in 0..10u64 {
        let data = sectors(100 + round, 16);
        a.write(vol, 0, &data).unwrap();
        let (read, _) = a.read(vol, 0, data.len()).unwrap();
        assert_eq!(read, data, "round {}", round);
    }
}

#[test]
fn misaligned_and_oversized_requests_are_rejected() {
    let mut a = array();
    let vol = a.create_volume("v", 1 << 20).unwrap();
    assert!(matches!(
        a.write(vol, 10, &sectors(1, 1)),
        Err(PurityError::BadRequest(_))
    ));
    assert!(matches!(
        a.write(vol, 0, &[0u8; 100]),
        Err(PurityError::BadRequest(_))
    ));
    assert!(matches!(
        a.write(vol, 1 << 20, &sectors(1, 1)),
        Err(PurityError::BadRequest(_))
    ));
    assert!(matches!(a.read(vol, 0, 0), Err(PurityError::BadRequest(_))));
    assert!(matches!(
        a.read(purity_core::VolumeId(999), 0, SECTOR),
        Err(PurityError::NoSuchVolume)
    ));
}

#[test]
fn snapshots_freeze_content() {
    let mut a = array();
    let vol = a.create_volume("v", 1 << 20).unwrap();
    let v1 = sectors(10, 32);
    a.write(vol, 0, &v1).unwrap();
    let snap = a.snapshot(vol, "s1").unwrap();
    // Overwrite after the snapshot.
    let v2 = sectors(11, 32);
    a.write(vol, 0, &v2).unwrap();
    // Volume sees new data; snapshot sees old.
    let (live, _) = a.read(vol, 0, v2.len()).unwrap();
    assert_eq!(live, v2);
    let snap_data = a.read_snapshot(snap, 0, v1.len()).unwrap();
    assert_eq!(snap_data, v1);
}

#[test]
fn snapshot_chain_reads_fall_through() {
    let mut a = array();
    let vol = a.create_volume("v", 1 << 20).unwrap();
    // Write sectors 0..8, snapshot, write sectors 8..16, snapshot, etc.
    let mut snaps = Vec::new();
    for gen in 0..4u64 {
        let data = sectors(20 + gen, 8);
        a.write(vol, gen * 8 * SECTOR as u64, &data).unwrap();
        snaps.push(a.snapshot(vol, &format!("s{}", gen)).unwrap());
    }
    // The live volume must see all four generations through the chain.
    for gen in 0..4u64 {
        let (read, _) = a.read(vol, gen * 8 * SECTOR as u64, 8 * SECTOR).unwrap();
        assert_eq!(read, sectors(20 + gen, 8), "generation {}", gen);
    }
    // Earliest snapshot sees only generation 0.
    let early = a
        .read_snapshot(snaps[0], 8 * SECTOR as u64, 8 * SECTOR)
        .unwrap();
    assert_eq!(early, vec![0u8; 8 * SECTOR]);
}

#[test]
fn clones_diverge_from_their_source() {
    let mut a = array();
    let vol = a.create_volume("golden", 1 << 20).unwrap();
    let base = sectors(30, 64);
    a.write(vol, 0, &base).unwrap();
    let snap = a.snapshot(vol, "golden-snap").unwrap();
    let clone = a.clone_snapshot(snap, "clone-a").unwrap();

    // Clone initially mirrors the source.
    let (c, _) = a.read(clone, 0, base.len()).unwrap();
    assert_eq!(c, base);

    // Diverge the clone; the original must not change.
    let patch = sectors(31, 4);
    a.write(clone, 0, &patch).unwrap();
    let (c, _) = a.read(clone, 0, 4 * SECTOR).unwrap();
    assert_eq!(c, patch);
    let (orig, _) = a.read(vol, 0, 4 * SECTOR).unwrap();
    assert_eq!(orig, base[..4 * SECTOR]);
    // Unmodified clone range still tracks the snapshot.
    let (tail, _) = a.read(clone, 32 * SECTOR as u64, 8 * SECTOR).unwrap();
    assert_eq!(tail, base[32 * SECTOR..40 * SECTOR]);
}

#[test]
fn destroy_volume_then_gc_reclaims_segments() {
    let mut a = array();
    let vol = a.create_volume("victim", 16 << 20).unwrap();
    // Write enough to seal a few segments (segment data capacity at the
    // test geometry is ~1.5 MiB; content compresses ~2x).
    for i in 0..96u64 {
        a.write(vol, i * 128 * 1024, &sectors(40 + i, 256)).unwrap();
        a.advance(50_000);
    }
    a.checkpoint().unwrap();
    let segments_before = a.controller().segment_count();
    assert!(
        segments_before >= 4,
        "expected several segments, got {}",
        segments_before
    );

    a.destroy_volume(vol).unwrap();
    let report = a.run_gc().unwrap();
    assert!(
        report.segments_freed > 0,
        "GC should reclaim segments: {:?}",
        report
    );
    assert!(a.controller().segment_count() < segments_before);
    // The destroyed volume is gone from the API.
    assert!(matches!(
        a.read(vol, 0, SECTOR),
        Err(PurityError::NoSuchVolume)
    ));
}

#[test]
fn gc_preserves_live_data() {
    let mut a = array();
    let keep = a.create_volume("keep", 2 << 20).unwrap();
    let kill = a.create_volume("kill", 16 << 20).unwrap();
    let keep_data = sectors(50, 512);
    a.write(keep, 0, &keep_data).unwrap();
    // Enough kill-volume data to seal several segments.
    for i in 0..48u64 {
        a.write(kill, i * 256 * 1024, &sectors(60 + i, 512))
            .unwrap();
    }
    a.destroy_volume(kill).unwrap();
    let report = a.run_gc().unwrap();
    assert!(report.segments_freed > 0 || report.bytes_relocated > 0);
    let (read, _) = a.read(keep, 0, keep_data.len()).unwrap();
    assert_eq!(read, keep_data, "GC must not disturb live data");
    // Run a second pass: idempotent, still consistent.
    a.run_gc().unwrap();
    let (read, _) = a.read(keep, 0, keep_data.len()).unwrap();
    assert_eq!(read, keep_data);
}

#[test]
fn gc_bounds_medium_chain_depth() {
    let mut a = array();
    let vol = a.create_volume("v", 1 << 20).unwrap();
    a.write(vol, 0, &sectors(70, 32)).unwrap();
    // Deep snapshot stack with no intervening writes: chain grows.
    for i in 0..10 {
        a.snapshot(vol, &format!("s{}", i)).unwrap();
    }
    a.run_gc().unwrap();
    let depth = a.controller().max_root_chain_depth();
    assert!(
        depth <= 3,
        "post-GC chain depth {} exceeds the paper's bound",
        depth
    );
    // Data still correct through the shortcut chain.
    let (read, _) = a.read(vol, 0, 32 * SECTOR).unwrap();
    assert_eq!(read, sectors(70, 32));
}

#[test]
fn space_report_tracks_thin_provisioning() {
    let mut a = array();
    let usable = a.space_report().usable_bytes;
    // Provision 12x the usable space across volumes (the paper's fleet
    // average) — thin provisioning makes this fine.
    let per_vol = usable.div_ceil(SECTOR as u64) * SECTOR as u64;
    for i in 0..12 {
        a.create_volume(&format!("thin{}", i), per_vol).unwrap();
    }
    let report = a.space_report();
    assert!(
        report.thin_provision_ratio >= 11.9,
        "ratio {}",
        report.thin_provision_ratio
    );
    assert!(report.provisioned_bytes >= 12 * usable);
}

#[test]
fn stats_accumulate_sanely() {
    let mut a = array();
    let vol = a.create_volume("v", 2 << 20).unwrap();
    let data = sectors(80, 128);
    a.write(vol, 0, &data).unwrap();
    a.read(vol, 0, data.len()).unwrap();
    let s = a.stats();
    assert_eq!(s.logical_bytes_written, data.len() as u64);
    assert_eq!(s.logical_bytes_read, data.len() as u64);
    assert!(s.physical_bytes_stored > 0);
    assert!(
        s.physical_bytes_stored < data.len() as u64,
        "compression should shrink"
    );
    assert!(s.write_latency.count() >= 1);
    assert!(s.read_latency.count() == 1);
    assert!(!s.report().is_empty());
}

#[test]
fn many_volumes_are_isolated() {
    let mut a = array();
    let vols: Vec<_> = (0..8)
        .map(|i| a.create_volume(&format!("v{}", i), 1 << 20).unwrap())
        .collect();
    for (i, &v) in vols.iter().enumerate() {
        a.write(v, 0, &sectors(90 + i as u64, 8)).unwrap();
    }
    for (i, &v) in vols.iter().enumerate() {
        let (read, _) = a.read(v, 0, 8 * SECTOR).unwrap();
        assert_eq!(read, sectors(90 + i as u64, 8), "volume {}", i);
    }
}

#[test]
fn sustained_workload_with_background_maintenance() {
    let mut a = array();
    let vol = a.create_volume("v", 8 << 20).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut shadow: std::collections::HashMap<u64, Vec<u8>> = std::collections::HashMap::new();
    let sectors_total = (8 << 20) / SECTOR as u64;
    for op in 0..400 {
        let start = rng.gen_range(0..sectors_total - 64);
        let n = rng.gen_range(1..=64usize);
        let data = sectors(1000 + op, n);
        a.write(vol, start * SECTOR as u64, &data).unwrap();
        for i in 0..n as u64 {
            shadow.insert(
                start + i,
                data[i as usize * SECTOR..(i as usize + 1) * SECTOR].to_vec(),
            );
        }
        a.advance(100_000);
        if op % 100 == 99 {
            a.run_gc().unwrap();
        }
    }
    // Verify every written sector.
    for (&sector, expect) in &shadow {
        let (read, _) = a.read(vol, sector * SECTOR as u64, SECTOR).unwrap();
        assert_eq!(&read, expect, "sector {}", sector);
    }
}

#[test]
fn cblock_size_inference_follows_write_sizes() {
    // §4.6: cblocks are sized to match application writes. A volume
    // trained with 8 KiB writes should produce 8 KiB cblocks; one trained
    // with large writes keeps the 32 KiB maximum.
    let mut a = array();
    let small = a.create_volume("small-io", 8 << 20).unwrap();
    let large = a.create_volume("large-io", 8 << 20).unwrap();
    for i in 0..32u64 {
        a.write(small, i * 8192, &sectors(900 + i, 16)).unwrap(); // 8 KiB
        a.write(large, i * 128 * 1024, &sectors(950 + i, 256))
            .unwrap(); // 128 KiB
    }
    let small_cb = a.volume(small).unwrap().inferred_cblock_bytes(32 * 1024);
    let large_cb = a.volume(large).unwrap().inferred_cblock_bytes(32 * 1024);
    assert_eq!(
        small_cb,
        8 * 1024,
        "small-write volume infers 8 KiB cblocks"
    );
    assert_eq!(large_cb, 32 * 1024, "large writes cap at the 32 KiB max");
    // Data integrity is unaffected by granularity.
    let (read, _) = a.read(small, 0, 8192).unwrap();
    assert_eq!(read, sectors(900, 16));
}

/// Full FA-450 geometry (22 drives × 128 dies = 2816 flash dies — the
/// paper's production scale) constructs, sustains a short mixed
/// workload, garbage-collects, and round-trips data bit-exact.
///
/// `#[ignore]` because constructing 2816 dies is release-build
/// territory; CI runs it explicitly with
/// `cargo test --release -- --ignored fa450`.
#[test]
#[ignore = "full-geometry smoke: run in release (cargo test --release -- --ignored fa450)"]
fn fa450_full_geometry_smoke() {
    let cfg = ArrayConfig::fa450();
    assert!(cfg.total_dies() >= 2800, "not the paper's geometry");
    let mut a = FlashArray::new(cfg).expect("format at full geometry");
    let vol = a.create_volume("prod", 64 << 20).unwrap();

    // Sequential preload, then scattered overwrites + reads, then GC —
    // enough to seal segments on the wide shelf and spread every
    // drive's pages over its 128 dies.
    let chunk = 128 * 1024usize;
    for i in 0..64u64 {
        a.write(vol, i * chunk as u64, &sectors(7000 + i, chunk / SECTOR))
            .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(0xFA450);
    for _ in 0..128 {
        let sector = rng.gen_range(0..(64 * chunk / SECTOR)) as u64;
        if rng.gen_bool(0.3) {
            a.write(vol, sector * SECTOR as u64, &sectors(8000 + sector, 1))
                .unwrap();
        } else {
            let (data, ack) = a.read(vol, sector * SECTOR as u64, SECTOR).unwrap();
            assert_eq!(data.len(), SECTOR);
            assert!(ack.latency > 0);
        }
        a.advance(200_000);
    }
    a.run_gc().unwrap();

    // Spot-check preloaded data that was never overwritten: offsets in
    // chunks 32..64 are untouched by the overwrite pass only if the
    // oracle says so — verify via fresh writes instead for exactness.
    for i in 0..8u64 {
        let off = i * chunk as u64;
        a.write(vol, off, &sectors(9000 + i, chunk / SECTOR))
            .unwrap();
        let (read, _) = a.read(vol, off, chunk).unwrap();
        assert_eq!(read, sectors(9000 + i, chunk / SECTOR), "chunk {i}");
    }
    let space = a.space_report();
    assert!(space.allocated_bytes > 0);
}

/// `host_qd32`-shaped load — 32 uniform 32 KiB ops an instant, 30 %
/// writes, a cache a sixteenth of the volume — queues about a hundred
/// write units behind the §4.4 pacer, and the write schedule the read
/// planner consults must still know every one of them. While the backlog
/// drains the pacer always has a pair of drives out, back to back, so at
/// every instant until the last program ends the schedule must call one
/// or two drives writing: never none (a schedule capped at 64 windows a
/// drive forgot the windows open *now*), never three. The dies cannot be
/// asked directly — a die's timeline forgets what it booked before its
/// latest paced slot — but the last die to go quiet does so exactly
/// where the schedule's last window ends.
#[test]
fn write_schedule_never_calls_a_programming_drive_idle() {
    const OP: usize = 32 * 1024;
    let mut cfg = ArrayConfig::test_small();
    cfg.cache_bytes = 1 << 20;
    let mut a = FlashArray::new(cfg).expect("format");
    let vol_bytes: u64 = 16 << 20;
    let vol = a.create_volume("v", vol_bytes).unwrap();
    for i in 0..vol_bytes / (4 * OP as u64) {
        a.write(vol, i * 4 * OP as u64, &sectors(7_000 + i, 4 * OP / SECTOR))
            .unwrap();
        a.advance(50_000);
    }
    let mut rng = StdRng::seed_from_u64(32);
    let mut incompressible = vec![0u8; OP];
    let mut slowest_read = 0;
    for _round in 0..260 {
        for _slot in 0..32 {
            let offset = rng.gen_range(0..vol_bytes / OP as u64) * OP as u64;
            if rng.gen_range(0..100) < 30 {
                rng.fill(&mut incompressible[..]);
                a.write(vol, offset, &incompressible).unwrap();
            } else {
                let (_, ack) = a.read(vol, offset, OP).unwrap();
                slowest_read = slowest_read.max(ack.latency);
            }
        }
        a.advance(400_000);
    }
    a.advance(slowest_read);
    let start = a.now();
    let (_, shelf) = a.controller_and_shelf();
    let last_program_ends = (0..shelf.n_drives())
        .map(|d| shelf.drive(d).free_at())
        .max()
        .unwrap();
    assert!(
        last_program_ends > start + 1_000_000_000,
        "the load queued no backlog to speak of ({} ns)",
        last_program_ends.saturating_sub(start)
    );
    for t in (start..last_program_ends).step_by(100_000) {
        let writing = (0..shelf.n_drives())
            .filter(|&d| shelf.is_writing(d, t))
            .count();
        assert!(
            (1..=2).contains(&writing),
            "{writing} drives in a write window at {t}, mid-backlog"
        );
    }
    let after = (0..shelf.n_drives()).any(|d| shelf.is_writing(d, last_program_ends));
    assert!(!after, "a window outlives the last program");
}
