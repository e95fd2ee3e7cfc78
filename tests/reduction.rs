//! Data-reduction behaviour: inline dedup (§4.7), compression (§4.6),
//! elision-driven reclamation (§4.10) — the machinery behind the paper's
//! 5.4× fleet-average reduction.

use purity_core::{ArrayConfig, FlashArray, SECTOR};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fully random, incompressible, non-duplicating content.
fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

#[test]
fn identical_volumes_dedup_almost_entirely() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let image = random_bytes(1, 256 * 1024);
    let v0 = a.create_volume("golden", 1 << 20).unwrap();
    a.write(v0, 0, &image).unwrap();
    let stored_after_first = a.stats().physical_bytes_stored;
    // Nine more identical "VM images".
    for i in 1..10 {
        let v = a.create_volume(&format!("vm{}", i), 1 << 20).unwrap();
        a.write(v, 0, &image).unwrap();
    }
    let stored_total = a.stats().physical_bytes_stored;
    assert!(
        stored_total < stored_after_first + stored_after_first / 4,
        "9 identical rewrites should dedup: first {} total {}",
        stored_after_first,
        stored_total
    );
    let ratio = a.stats().reduction_ratio();
    assert!(
        ratio > 5.0,
        "VDI-style clones should exceed 5x, got {:.2}",
        ratio
    );
    // And every copy reads back identically.
    for i in [0u64, 5, 9] {
        let (read, _) = a
            .read(purity_core::VolumeId(i + 1), 0, image.len())
            .unwrap();
        assert_eq!(read, image, "volume {}", i);
    }
}

#[test]
fn zero_filled_volumes_compress_away() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("zeros", 4 << 20).unwrap();
    let zeros = vec![0u8; 1 << 20];
    a.write(vol, 0, &zeros).unwrap();
    let s = a.stats();
    // Dedup collapses identical sectors, compression squeezes the rest.
    assert!(
        s.physical_bytes_stored < (1 << 20) / 50,
        "zeros should reduce >50x, stored {}",
        s.physical_bytes_stored
    );
    let (read, _) = a.read(vol, 0, 1 << 20).unwrap();
    assert_eq!(read, zeros);
}

#[test]
fn incompressible_data_has_bounded_overhead() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("rand", 4 << 20).unwrap();
    let data = random_bytes(2, 1 << 20);
    a.write(vol, 0, &data).unwrap();
    let s = a.stats();
    let overhead = s.physical_bytes_stored as f64 / data.len() as f64;
    assert!(
        (0.99..1.02).contains(&overhead),
        "random data should store ~1:1 (raw bailout), got {:.3}",
        overhead
    );
}

#[test]
fn ablation_dedup_off_stores_duplicates() {
    let mut cfg = ArrayConfig::test_small();
    cfg.dedup_enabled = false;
    let mut a = FlashArray::new(cfg).unwrap();
    let image = random_bytes(3, 128 * 1024);
    for i in 0..4 {
        let v = a.create_volume(&format!("v{}", i), 1 << 20).unwrap();
        a.write(v, 0, &image).unwrap();
    }
    let ratio = a.stats().reduction_ratio();
    assert!(
        ratio < 1.1,
        "without dedup, identical random images should not reduce: {:.2}",
        ratio
    );
}

#[test]
fn ablation_compression_off_stores_raw() {
    let mut cfg = ArrayConfig::test_small();
    cfg.compression_enabled = false;
    cfg.dedup_enabled = false;
    let mut a = FlashArray::new(cfg).unwrap();
    let vol = a.create_volume("v", 2 << 20).unwrap();
    // Highly compressible content...
    let data = vec![7u8; 512 * 1024];
    a.write(vol, 0, &data).unwrap();
    // ...stored essentially raw.
    let s = a.stats();
    assert!(s.physical_bytes_stored >= data.len() as u64);
    assert_eq!(s.compress_bytes_saved, 0);
    let (read, _) = a.read(vol, 0, data.len()).unwrap();
    assert_eq!(read, data);
}

#[test]
fn dedup_within_a_single_volume() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("v", 8 << 20).unwrap();
    let block = random_bytes(4, 32 * 1024);
    // The same 32 KiB written at 16 different offsets.
    for i in 0..16u64 {
        a.write(vol, i * 64 * 1024, &block).unwrap();
    }
    let s = a.stats();
    assert!(
        s.dedup_bytes_saved > 14 * block.len() as u64,
        "15 of 16 copies should dedup, saved {}",
        s.dedup_bytes_saved
    );
    for i in 0..16u64 {
        let (read, _) = a.read(vol, i * 64 * 1024, block.len()).unwrap();
        assert_eq!(read, block, "copy {}", i);
    }
}

#[test]
fn misaligned_duplicates_found_by_anchors() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("v", 8 << 20).unwrap();
    let base = random_bytes(5, 64 * 1024);
    a.write(vol, 0, &base).unwrap();
    // Rewrite the same content shifted by 3 sectors (1.5 KiB) — hash
    // samples won't line up, anchors must extend.
    let mut shifted = random_bytes(6, 3 * SECTOR);
    shifted.extend_from_slice(&base[..64 * 1024 - 3 * SECTOR]);
    a.write(vol, (1 << 20) as u64, &shifted).unwrap();
    let s = a.stats();
    assert!(
        s.dedup_bytes_saved > 30 * 1024,
        "most of the shifted duplicate should dedup, saved {}",
        s.dedup_bytes_saved
    );
}

#[test]
fn overwrite_churn_then_gc_recovers_space() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("v", 2 << 20).unwrap();
    // Overwrite the same 512 KiB region 8 times with fresh random data.
    for round in 0..8u64 {
        a.write(vol, 0, &random_bytes(100 + round, 512 * 1024))
            .unwrap();
    }
    a.checkpoint().unwrap();
    let segs_before = a.controller().segment_count();
    let report = a.run_gc().unwrap();
    assert!(
        report.segments_freed > 0,
        "7 superseded copies should free segments: {:?} (had {})",
        report,
        segs_before
    );
    // Latest data intact.
    let (read, _) = a.read(vol, 0, 512 * 1024).unwrap();
    assert_eq!(read, random_bytes(107, 512 * 1024));
}

#[test]
fn snapshot_destroy_elides_then_gc_reclaims() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("v", 4 << 20).unwrap();
    let gen1 = random_bytes(200, 1 << 20);
    a.write(vol, 0, &gen1).unwrap();
    let snap = a.snapshot(vol, "s").unwrap();
    // Fully overwrite: the snapshot now pins the old generation.
    let gen2 = random_bytes(201, 1 << 20);
    a.write(vol, 0, &gen2).unwrap();
    a.checkpoint().unwrap();
    let gc1 = a.run_gc().unwrap();
    // Old generation still pinned by the snapshot.
    let pinned = a.controller().segment_count();
    // Destroy the snapshot: one elide insert retires gen1.
    a.destroy_snapshot(snap).unwrap();
    let gc2 = a.run_gc().unwrap();
    assert!(
        gc2.segments_freed > 0,
        "destroying the snapshot should unpin gen1: gc1={:?} gc2={:?} (pinned {})",
        gc1,
        gc2,
        pinned
    );
    let (read, _) = a.read(vol, 0, gen2.len()).unwrap();
    assert_eq!(read, gen2);
}

#[test]
fn reduction_ratio_reported_in_paper_band_for_mixed_content() {
    // A "database-like" mix: structured pages with shared vocabulary and
    // some duplicate pages — expect the paper's RDBMS band (≥3x).
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 8 << 20).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let mut page_pool: Vec<Vec<u8>> = Vec::new();
    for i in 0..256u64 {
        let page = if !page_pool.is_empty() && rng.gen_bool(0.25) {
            // 25% exact duplicate pages (checkpointing, hot rows).
            page_pool[rng.gen_range(0..page_pool.len())].clone()
        } else {
            // Structured page: repeated field templates + small noise.
            let mut p = Vec::with_capacity(8192);
            while p.len() < 8192 {
                p.extend_from_slice(b"|id=");
                p.extend_from_slice(&rng.gen::<u32>().to_be_bytes());
                p.extend_from_slice(b"|status=ACTIVE|balance=000000123.45|region=us-east-1");
            }
            p.truncate(8192);
            page_pool.push(p.clone());
            p
        };
        a.write(vol, i * 8192, &page).unwrap();
    }
    let ratio = a.stats().reduction_ratio();
    assert!(
        ratio >= 3.0,
        "database-like content should reduce >=3x (paper: 3-8x), got {:.2}",
        ratio
    );
}

#[test]
fn gc_copies_unchanged_cblocks_and_repacks_the_ones_it_dedups() {
    const CBLOCK: usize = 32 * 1024;
    let mut cfg = ArrayConfig::test_small();
    // With a short recent window inline dedup is left the 1-in-8 sampled
    // index, so duplicate runs shorter than eight sectors can slip past
    // it and wait for the GC pass.
    cfg.dedup_recent_window = 16;
    let mut a = FlashArray::new(cfg).unwrap();
    let vol_bytes = 8usize << 20;
    let vol = a.create_volume("v", vol_bytes as u64).unwrap();
    let mut image = vec![0u8; vol_bytes];
    let put = |a: &mut FlashArray, image: &mut Vec<u8>, offset: usize, data: &[u8]| {
        a.write(vol, offset as u64, data).unwrap();
        image[offset..offset + data.len()].copy_from_slice(data);
    };

    // `old`: 1 MiB whose first quarter stays live; 2 MiB of filler after
    // it dies entirely, so the segments holding them become victims.
    let old = random_bytes(1, 1 << 20);
    put(&mut a, &mut image, 0, &old);
    put(&mut a, &mut image, 1 << 20, &random_bytes(2, 2 << 20));
    // `copy`: fresh data with four-sector runs of `old`'s live quarter
    // planted in it, one run per cblock of `copy`.
    let mut copy = random_bytes(3, 2 << 20);
    for (i, cblock) in copy.chunks_mut(CBLOCK).enumerate() {
        let from = (i * 5 * SECTOR) % (256 * 1024 - 4 * SECTOR);
        cblock[20 * SECTOR..24 * SECTOR].copy_from_slice(&old[from..from + 4 * SECTOR]);
    }
    put(&mut a, &mut image, 4 << 20, &copy);
    // Churn: everything of `old` but its first quarter, and the filler.
    put(&mut a, &mut image, 256 * 1024, &random_bytes(4, 768 * 1024));
    put(&mut a, &mut image, 1 << 20, &random_bytes(5, 2 << 20));
    a.checkpoint().unwrap();

    let report = a.run_gc().unwrap();
    assert!(report.segments_freed > 0, "{report:?}");
    assert!(report.cblocks_copied > 0, "{report:?}");
    assert!(report.cblocks_repacked > 0, "{report:?}");
    assert!(report.gc_dedup_sectors > 0, "{report:?}");
    for (i, expect) in image.chunks(256 * 1024).enumerate() {
        let (back, _) = a.read(vol, (i * 256 * 1024) as u64, expect.len()).unwrap();
        assert!(back == expect, "read-back differs in chunk {i}");
    }
    assert!(a.verify_integrity().is_empty());
}
