//! Durability under component failure: the paper's "pull drives and
//! unplug controllers" evaluation stance (§1), 7+2 Reed-Solomon
//! protection (§4.2), corruption repair and scrubbing (§5.1).

use purity_core::{ArrayConfig, FlashArray, PowerLossSpec, PurityError, SECTOR};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sectors(tag: u64, n: usize) -> Vec<u8> {
    let mut out = vec![0u8; n * SECTOR];
    let mut rng = StdRng::seed_from_u64(tag);
    for chunk in out.chunks_mut(SECTOR) {
        for b in chunk[..256].iter_mut() {
            *b = rng.gen();
        }
        chunk[256..].fill(tag as u8);
    }
    out
}

fn loaded_array() -> (FlashArray, purity_core::VolumeId, Vec<u8>) {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 8 << 20).unwrap();
    let data = sectors(42, 2048); // 1 MiB
    a.write(vol, 0, &data).unwrap();
    a.checkpoint().unwrap();
    (a, vol, data)
}

#[test]
fn reads_survive_one_pulled_drive() {
    let (mut a, vol, data) = loaded_array();
    a.fail_drive(4);
    let (read, _) = a.read(vol, 0, data.len()).unwrap();
    assert_eq!(read, data);
    assert!(
        a.stats().reconstructed_reads > 0,
        "degraded reads must reconstruct"
    );
}

#[test]
fn reads_survive_two_pulled_drives() {
    // The paper's headline durability claim: any two SSDs.
    for pair in [(0usize, 1usize), (3, 7), (9, 10), (2, 8)] {
        let (mut a, vol, data) = loaded_array();
        a.fail_drive(pair.0);
        a.fail_drive(pair.1);
        let (read, _) = a.read(vol, 0, data.len()).unwrap();
        assert_eq!(read, data, "drives {:?}", pair);
    }
}

#[test]
fn writes_continue_through_two_pulled_drives() {
    let (mut a, vol, data) = loaded_array();
    a.fail_drive(1);
    a.fail_drive(6);
    // New writes land degraded but must read back.
    let fresh = sectors(77, 512);
    a.write(vol, (4 << 20) as u64, &fresh).unwrap();
    let (read, _) = a.read(vol, (4 << 20) as u64, fresh.len()).unwrap();
    assert_eq!(read, fresh);
    // Old data still reads.
    let (read, _) = a.read(vol, 0, data.len()).unwrap();
    assert_eq!(read, data);
}

#[test]
fn three_pulled_drives_lose_availability_not_integrity() {
    let (mut a, vol, data) = loaded_array();
    a.fail_drive(0);
    a.fail_drive(1);
    a.fail_drive(2);
    // Some stripes now have only 6 of 9 columns: unavailable.
    let result = a.read(vol, 0, data.len());
    assert!(
        matches!(result, Err(PurityError::Unavailable(_))) || result.is_ok(),
        "must be an explicit availability error, never wrong data"
    );
    if let Ok((read, _)) = result {
        // If every stripe happened to dodge the failed drives, data must
        // still be exactly right.
        assert_eq!(read, data);
    }
    // Reinserting one drive restores availability.
    a.revive_drive(1);
    let (read, _) = a.read(vol, 0, data.len()).unwrap();
    assert_eq!(read, data);
}

#[test]
fn reinserted_drive_rejoins_service() {
    let (mut a, vol, data) = loaded_array();
    a.fail_drive(5);
    let (read, _) = a.read(vol, 0, data.len()).unwrap();
    assert_eq!(read, data);
    a.revive_drive(5);
    assert!(a.failed_drives().is_empty());
    let before = a.stats().reconstructed_reads;
    let fresh = sectors(88, 64);
    a.write(vol, (6 << 20) as u64, &fresh).unwrap();
    let (read, _) = a.read(vol, (6 << 20) as u64, fresh.len()).unwrap();
    assert_eq!(read, fresh);
    let _ = before; // reconstruction may or may not occur post-revive
}

#[test]
fn corrupted_page_is_repaired_inline() {
    let (mut a, vol, data) = loaded_array();
    // Corrupt a data page on two drives (within the RS tolerance).
    let boot = a.config().boot_region_bytes();
    let mut corrupted = 0;
    for d in 0..a.config().n_drives {
        if corrupted == 2 {
            break;
        }
        if a.corrupt_drive_at(d, boot + 8192) {
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "at least one mapped page should corrupt");
    // Reads still return correct data (inline reconstruction).
    let (read, _) = a.read(vol, 0, data.len()).unwrap();
    assert_eq!(read, data);
}

#[test]
fn scrub_repairs_corruption_and_reports() {
    let (mut a, vol, data) = loaded_array();
    let boot = a.config().boot_region_bytes();
    // Corrupt pages on at most two drives (the RS tolerance); pages on
    // the same stripe row across >2 drives would be genuine data loss.
    let mut injected = 0;
    for d in [4usize, 9] {
        for page in [2, 10, 25] {
            if a.corrupt_drive_at(d, boot + page * 4096) {
                injected += 1;
            }
        }
    }
    assert!(injected > 0);
    let report = a.scrub().unwrap();
    assert!(
        report.units_repaired > 0,
        "scrub should repair injected corruption: {:?}",
        report
    );
    assert_eq!(report.unrecoverable, 0);
    // After scrub, reads are clean (no reconstruction needed for these).
    let (read, _) = a.read(vol, 0, data.len()).unwrap();
    assert_eq!(read, data);
    // A second scrub finds nothing to fix.
    let report2 = a.scrub().unwrap();
    assert_eq!(report2.units_repaired, 0, "{:?}", report2);
}

#[test]
fn failover_while_two_drives_out() {
    let (mut a, vol, data) = loaded_array();
    a.fail_drive(3);
    a.fail_drive(8);
    // Controller dies while drives are out: recovery must read the boot
    // region and patches degraded.
    a.fail_primary().unwrap();
    let (read, _) = a.read(vol, 0, data.len()).unwrap();
    assert_eq!(read, data);
}

#[test]
fn gc_operates_with_a_failed_drive() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let keep = a.create_volume("keep", 8 << 20).unwrap();
    let kill = a.create_volume("kill", 16 << 20).unwrap();
    let keep_data = sectors(1, 256);
    a.write(keep, 0, &keep_data).unwrap();
    for i in 0..48u64 {
        a.write(kill, i * 256 * 1024, &sectors(200 + i, 512))
            .unwrap();
    }
    a.fail_drive(2);
    a.destroy_volume(kill).unwrap();
    let report = a.run_gc().unwrap();
    assert!(report.segments_freed > 0);
    let (read, _) = a.read(keep, 0, keep_data.len()).unwrap();
    assert_eq!(read, keep_data);
}

#[test]
fn write_heavy_interference_triggers_read_around() {
    // §4.4: reads issued while segments flush get rebuilt from parity
    // instead of waiting behind the writing drives. Disable the DRAM
    // cache so reads actually reach the drives.
    let mut cfg = ArrayConfig::test_small();
    cfg.cache_bytes = 0;
    let mut a = FlashArray::new(cfg).unwrap();
    let vol = a.create_volume("db", 16 << 20).unwrap();
    let hot = sectors(9, 64);
    a.write(vol, 0, &hot).unwrap();
    // Heavy write stream with interleaved hot reads, no clock advance:
    // drives stay busy flushing, so reads must work around them.
    for i in 0..64u64 {
        a.write(vol, (1 << 20) + i * 128 * 1024, &sectors(300 + i, 256))
            .unwrap();
        let (read, _) = a.read(vol, 0, hot.len()).unwrap();
        assert_eq!(read, hot);
    }
    assert!(
        a.stats().reconstructed_reads > 0,
        "read-around-writes should have reconstructed: {:?}",
        a.stats().reconstruction_fraction()
    );
}

/// Recovery writes nothing back: thirty power losses on one tiered
/// array, a write burst and a checkpoint before each, and every cold
/// start loads what the one before it did plus the burst's facts — never
/// another copy of the whole map, which used to grow with every loss
/// until a write failed. Every write acks.
#[test]
fn thirty_cold_starts_load_each_fact_once() {
    let mut a = FlashArray::new(ArrayConfig::tiered()).unwrap();
    let vol = a.create_volume("v", 2 << 20).unwrap();
    let mut image = sectors(30, (2 << 20) / SECTOR);
    a.write(vol, 0, &image).unwrap();
    a.checkpoint().unwrap();
    let mut loaded = a
        .power_loss(PowerLossSpec::default())
        .unwrap()
        .recovery
        .facts_loaded;
    let mut rng = StdRng::seed_from_u64(30);
    for loss in 0..30 {
        let mut burst = 0;
        for _ in 0..16 {
            let n = rng.gen_range(1..=16usize);
            let at = rng.gen_range(0..image.len() / SECTOR - n) * SECTOR;
            let data = sectors(rng.gen(), n);
            a.write(vol, at as u64, &data).unwrap();
            image[at..at + data.len()].copy_from_slice(&data);
            burst += n;
        }
        a.checkpoint().unwrap();
        let facts = a
            .power_loss(PowerLossSpec::default())
            .unwrap()
            .recovery
            .facts_loaded;
        assert!(
            facts <= loaded + burst,
            "loss {loss}: {facts} facts loaded after {loaded} and a {burst}-sector burst"
        );
        loaded = facts;
    }
    assert!(a.read(vol, 0, image.len()).unwrap().0 == image);
    assert!(a.verify_integrity().is_empty());
}
