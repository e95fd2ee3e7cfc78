//! Durability under component failure: the paper's "pull drives and
//! unplug controllers" evaluation stance (§1), 7+2 Reed-Solomon
//! protection (§4.2), corruption repair and scrubbing (§5.1).

use purity_core::{ArrayConfig, CrashTarget, FlashArray, PowerLossSpec, PurityError, SECTOR};
use purity_torture::DurabilityOracle;
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

/// A write's intents are durable one by one, in order, though they
/// commit as one group: power lost on the tenth intent of a 16-intent
/// write leaves chunks 0–8 new (their intents replay) and 9–15 as they
/// were (the torn tenth is dropped, the rest never reached NVRAM).
#[test]
fn power_lost_mid_group_keeps_the_logged_prefix_of_a_write() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 8 << 20).unwrap();
    let (old, new) = (sectors(1, 1024), sectors(2, 1024)); // 512 KiB each
    a.write(vol, 0, &old).unwrap();
    a.arm_power_loss(CrashTarget::NvramAppend, 9, 100);
    assert!(a.write(vol, 0, &new).is_err());
    assert!(!a.powered());
    a.power_loss(PowerLossSpec::default()).unwrap();
    let (read, _) = a.read(vol, 0, new.len()).unwrap();
    let chunk = 32 * 1024;
    for (i, got) in read.chunks(chunk).enumerate() {
        let want = if i < 9 { &new } else { &old };
        assert!(got == &want[i * chunk..(i + 1) * chunk], "chunk {i}");
    }
    assert!(a.verify_integrity().is_empty());
}

/// The same across writes: writes issued at one instant commit in groups
/// that load while their NVRAM channels are busy. Power lost on the
/// second intent of a write whose records join such a group (it has not
/// programmed yet) loses no acknowledged write, and tears that write at
/// its logged prefix: a record is durable once logged, grouped or not.
#[test]
fn power_lost_mid_group_of_several_writes_keeps_every_acked_write() {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 8 << 20).unwrap();
    let unit = 64 * 1024; // two 32 KiB intents, on two of the 8 channels
    let old = sectors(1, 13 * unit / SECTOR);
    a.write(vol, 0, &old).unwrap();
    a.advance(10_000_000);
    let new = sectors(2, 13 * unit / SECTOR);
    // Writes 0–3 find their channels idle and program alone, 4–7 open a
    // group behind them, 8–11 join those groups: same ack, no program
    // of their own.
    let acks: Vec<_> = (0..12)
        .map(|i| {
            let at = i * unit;
            a.write(vol, at as u64, &new[at..at + unit])
                .unwrap()
                .latency
        })
        .collect();
    assert!(acks[4] > acks[0], "channels busy after the first round");
    assert_eq!(
        acks[8..],
        acks[4..8],
        "the third round joins the second's groups"
    );
    // Write 12 joins too; power is lost on its second intent.
    a.arm_power_loss(CrashTarget::NvramAppend, 1, 100);
    let at = 12 * unit;
    assert!(a.write(vol, at as u64, &new[at..]).is_err());
    assert!(!a.powered());
    a.power_loss(PowerLossSpec::default()).unwrap();
    let (read, _) = a.read(vol, 0, new.len()).unwrap();
    let chunk = 32 * 1024;
    for (i, got) in read.chunks(chunk).enumerate() {
        // Writes 0–11 and the first intent of write 12 are new.
        let want = if i <= 24 { &new } else { &old };
        assert!(got == &want[i * chunk..(i + 1) * chunk], "chunk {i}");
    }
    assert!(a.verify_integrity().is_empty());
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

/// A crash after map records died: a volume written, checkpointed,
/// overwritten and checkpointed again — so the checkpoint names only the
/// second pass's record — then overwritten once more with power lost
/// mid-segment-flush, or mid-checkpoint after a whole third pass. The
/// torn checkpoint names only the third pass's record; recovery falls
/// back to the one before it, which names the second pass's record, still
/// on flash. Every acked write survives, the unacked one is
/// prefix-atomic, and `verify_integrity()` is clean.
#[test]
fn power_lost_after_records_died_keeps_every_acked_write() {
    const VOLUME: u64 = 1 << 20;
    for target in [CrashTarget::SegmentWrite, CrashTarget::BootWrite] {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let mut oracle = DurabilityOracle::new();
        let vol = a.create_volume("v", VOLUME).unwrap();
        oracle.create_volume(vol, VOLUME);
        let mut write = |a: &mut FlashArray, tag: u64, at: u64, n: usize| {
            let data = sectors(tag, n);
            oracle
                .write_through(vol, at, &data, || a.write(vol, at * SECTOR as u64, &data))
                .is_ok()
        };
        let whole = VOLUME as usize / SECTOR;
        for pass in 0..2 {
            assert!(write(&mut a, pass, 0, whole));
            a.checkpoint().unwrap();
        }
        assert_eq!(a.controller().map_records().len(), 1, "{target:?}");

        a.arm_power_loss(target, 1, 700);
        let mut tag = 10;
        match target {
            CrashTarget::SegmentWrite => {
                while a.powered() && tag < 200 {
                    let at = (tag * 64) % whole as u64;
                    write(&mut a, tag, at, 64);
                    tag += 1;
                }
            }
            _ => {
                if write(&mut a, tag, 0, whole) {
                    let _ = a.checkpoint();
                }
            }
        }
        assert!(!a.powered(), "{target:?} never fired");
        a.power_loss(PowerLossSpec::default()).unwrap();
        let mut violations = oracle.settle(&mut a);
        violations.extend(oracle.verify_all(&mut a));
        assert!(violations.is_empty(), "{target:?}: {violations:?}");
        assert!(a.verify_integrity().is_empty(), "{target:?}");
    }
}

/// A power loss that tears a checkpoint's log stripe between its columns.
/// A map record is dealt a flash page a column, so a torn stripe can hold
/// some of a record's pages and not others. Every segment write of the
/// checkpoint is torn in turn, each on a fresh array: the cold start
/// stops the log at the torn stripe, NVRAM still holds the record's
/// facts, and every acked write survives.
#[test]
fn power_lost_mid_log_stripe_keeps_every_acked_write() {
    const VOLUME: u64 = 1 << 20;
    let cfg = ArrayConfig::test_small();
    let layout = purity_core::segment::SegmentLayout::from_config(&cfg);
    let mut torn_log_columns = 0;
    for after in 0.. {
        let mut a = FlashArray::new(cfg.clone()).unwrap();
        let mut oracle = DurabilityOracle::new();
        let vol = a.create_volume("v", VOLUME).unwrap();
        oracle.create_volume(vol, VOLUME);
        let data = sectors(40, VOLUME as usize / SECTOR);
        (oracle.write_through(vol, 0, &data, || a.write(vol, 0, &data))).unwrap();

        a.arm_power_loss(CrashTarget::SegmentWrite, after, 700);
        let _ = a.checkpoint();
        if a.powered() {
            break; // the sweep is past the checkpoint's last segment write
        }
        // "… drive D offset O torn at …": a write into the segment's
        // last stripe is its first log stripe.
        let note = a.torn_note().unwrap().to_owned();
        let offset: usize = note
            .split("offset ")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let in_au = (offset - layout.boot_region) % layout.au_bytes;
        if in_au >= layout.au_header
            && (in_au - layout.au_header) / layout.wu == layout.n_stripes - 1
        {
            torn_log_columns += 1;
        }
        a.power_loss(PowerLossSpec::default()).unwrap();
        let mut violations = oracle.settle(&mut a);
        violations.extend(oracle.verify_all(&mut a));
        assert!(
            violations.is_empty(),
            "after {after} ({note}): {violations:?}"
        );
        assert!(a.verify_integrity().is_empty(), "after {after} ({note})");
    }
    // Each of the log stripe's column writes was torn once: the first
    // with none landed before it, the last with every data column landed.
    assert_eq!(torn_log_columns, cfg.stripe_width());
}

/// A power loss inside a GC pass whose compaction spans two map records,
/// each holding facts from the checkpoint's records and from the
/// memtable, written to a segment the pass opened after relocating a
/// victim's live data. Every segment write of the pass is torn in turn,
/// each on a fresh array. A cold start that finds only the first
/// compacted record must still replay the NVRAM intents of keys the
/// second one held, though the first holds facts newer than theirs:
/// every acked write survives.
#[test]
fn power_lost_mid_gc_compaction_keeps_every_acked_write() {
    const VOLUME: u64 = 9 << 19;
    let whole = VOLUME as usize / SECTOR;
    let mut torn = 0;
    for after in 0.. {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let mut oracle = DurabilityOracle::new();
        // The victim: a segment mostly of a volume destroyed before the
        // pass, so relocation leaves the compaction a fresh segment.
        let kill = a.create_volume("kill", 3 << 20).unwrap();
        a.write(kill, 0, &sectors(7, (3 << 20) / SECTOR)).unwrap();
        let vol = a.create_volume("v", VOLUME).unwrap();
        oracle.create_volume(vol, VOLUME);
        let mut write = |a: &mut FlashArray, tag: u64, at: usize, n: usize| {
            let data = sectors(tag, n);
            let at_byte = (at * SECTOR) as u64;
            (oracle.write_through(vol, at as u64, &data, || a.write(vol, at_byte, &data))).unwrap();
        };
        for (i, at) in (0..whole).step_by(512).enumerate() {
            write(&mut a, i as u64, at, 512);
        }
        a.checkpoint().unwrap();
        a.destroy_volume(kill).unwrap();
        // Overwrites scattered over both records' key ranges, so each
        // compacted record holds memtable facts, and the first holds
        // some newer than the second's.
        let mut rng = StdRng::seed_from_u64(41);
        for tag in 100..164 {
            write(&mut a, tag, rng.gen_range(0..whole - 8), 8);
        }

        a.arm_power_loss(CrashTarget::SegmentWrite, after, 700);
        let gc = a.run_gc();
        if a.powered() {
            let gc = gc.unwrap();
            assert!(gc.bytes_relocated > 0, "{gc:?}");
            assert_eq!(a.controller().map_records().len(), 2);
            break; // the sweep is past the pass's last segment write
        }
        torn += 1;
        let note = a.torn_note().unwrap().to_owned();
        a.power_loss(PowerLossSpec::default()).unwrap();
        let mut violations = oracle.settle(&mut a);
        violations.extend(oracle.verify_all(&mut a));
        assert!(
            violations.is_empty(),
            "after {after} ({note}): {} violations, first {:?}",
            violations.len(),
            violations.first()
        );
        assert!(a.verify_integrity().is_empty(), "after {after} ({note})");
    }
    assert!(torn > 0, "no segment write in the pass");
}

/// A GC pass's relocation segment ends in a stripe its seal padded,
/// which programs only the pages the relocated data fills and their
/// parity rows. Every boot-region write of the pass is torn in turn, each
/// on a fresh array, and then each drive is pulled in turn, with a cold
/// start, so the read cache is empty: every read of the relocated data
/// succeeds. When power dies at the pass's checkpoint, after its records
/// are appended, the cold start loads the compacted records from
/// segments it discovers, and their facts point into the padded stripe:
/// the previous checkpoint knows nothing of it, so only the fill the
/// records carry tells a rebuild that the columns past the data are
/// zeros rather than unreadable.
#[test]
fn power_lost_before_a_gc_checkpoint_keeps_padded_stripes_readable() {
    let cfg = ArrayConfig::test_small();
    let layout = purity_core::segment::SegmentLayout::from_config(&cfg);
    let mut live = vec![0u8; 96 << 10];
    StdRng::seed_from_u64(45).fill(&mut live[..]);
    let mut record_carried = 0;
    for after in 0.. {
        let mut a = FlashArray::new(cfg.clone()).unwrap();
        // The live data sits between two runs of a volume destroyed
        // before the pass, in a segment the second run seals: the pass
        // relocates it alone into a segment of its own.
        let kill = a.create_volume("kill", 4 << 20).unwrap();
        let vol = a.create_volume("v", 1 << 20).unwrap();
        a.write(kill, 0, &sectors(7, (1 << 20) / SECTOR)).unwrap();
        a.write(vol, 0, &live).unwrap();
        a.write(kill, 1 << 20, &sectors(8, (2 << 20) / SECTOR))
            .unwrap();
        a.checkpoint().unwrap();
        let before: Vec<u64> = (a.controller().map_live().iter())
            .map(|(_, v, _)| v.loc.pba.segment.0)
            .collect();
        a.destroy_volume(kill).unwrap();

        a.arm_power_loss(CrashTarget::BootWrite, after, 100);
        let gc = a.run_gc();
        if a.powered() {
            assert!(gc.unwrap().bytes_relocated > 0);
            break; // the sweep is past the pass's last boot write
        }
        let note = a.torn_note().unwrap().to_owned();
        for d in 0..cfg.n_drives {
            a.fail_drive(d);
            let recovery = a.power_loss(PowerLossSpec::default()).unwrap().recovery;
            if d == 0 {
                // The moved facts, loaded from records in segments the
                // scan discovered, point into a stripe whose data ends
                // more than `m` columns short of its end.
                let moved = a.controller().map_live().iter().all(|(_, v, _)| {
                    let pba = v.loc.pba;
                    let end = (pba.offset + u64::from(pba.stored_len)) as usize;
                    !before.contains(&pba.segment.0)
                        && recovery.discovered.contains(&pba.segment)
                        && end % layout.stripe_data_bytes() < (layout.k - layout.m) * layout.wu
                });
                record_carried += usize::from(moved);
            }
            let read = a.read(vol, 0, live.len());
            assert!(
                read.as_ref().is_ok_and(|(got, _)| *got == live),
                "after {after} ({note}), drive {d} out: {:?}",
                read.map(|_| ())
            );
            a.revive_drive(d);
        }
        assert!(a.verify_integrity().is_empty(), "after {after} ({note})");
    }
    assert!(
        record_carried > 0,
        "no tear left the moved facts in records only"
    );
}

/// A seq tie between two map records. A record flushed after the last
/// checkpoint, into a segment the cold start's frontier scan discovers,
/// holds the same (key, seq) facts NVRAM replays; the replayed copies
/// are flushed again by the next checkpoint. On a tie the map keeps the
/// newer record's copy, so the checkpoint names the new record and
/// drops the one it tied with. A second cold start reads the named
/// records: every acked sector reads back and the array is consistent.
#[test]
fn a_replayed_tie_names_the_copy_the_map_keeps() {
    // The tied record's run is small beside the recovered map's, so no
    // merge folds the two together before the list is derived.
    const FIRST: usize = 6 << 20;
    const TIED: usize = 2 << 20;
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("v", (FIRST + TIED) as u64).unwrap();
    let image = sectors(50, (FIRST + TIED) / SECTOR);
    a.write(vol, 0, &image[..FIRST]).unwrap();
    a.checkpoint().unwrap();
    let checkpointed = a.controller().map_records();
    // Enough data to fill the open segment, so the record lands in one
    // opened after the checkpoint.
    a.write(vol, FIRST as u64, &image[FIRST..]).unwrap();
    let now = a.now();
    let (ctrl, shelf) = a.controller_and_shelf();
    ctrl.flush_map_patch(shelf, now).unwrap();
    let flushed = a.controller().map_records();
    assert_eq!(flushed[..flushed.len() - 1], checkpointed);
    let tied = flushed[flushed.len() - 1];

    let r = a.power_loss(PowerLossSpec::default()).unwrap().recovery;
    assert!(!r.discovered.is_empty(), "{r:?}");
    assert_eq!(r.patches_loaded, flushed.len());
    assert!(r.write_intents_replayed > 0, "{r:?}");
    assert_eq!(a.controller().map_records(), flushed);

    a.checkpoint().unwrap();
    let named = a.controller().map_records();
    assert_eq!(named[..named.len() - 1], checkpointed);
    assert!(!flushed.contains(&named[named.len() - 1]), "{named:?}");
    assert!(!named.contains(&tied), "{named:?} names the older copy");

    let r = a.power_loss(PowerLossSpec::default()).unwrap().recovery;
    assert_eq!(r.patches_loaded, named.len());
    assert_eq!(a.controller().map_records(), named);
    assert!(a.read(vol, 0, image.len()).unwrap().0 == image);
    assert!(a.verify_integrity().is_empty());
}

/// A boot mirror pulled before a checkpoint and reinserted after it held
/// only the older checkpoint. Once the other two mirrors died, a cold
/// start booted from that one with NVRAM already trimmed past it, and
/// every write since read back as zeros, with no error. The rebuild on
/// reinsertion copies the current checkpoint onto the mirror.
#[test]
fn a_revived_boot_mirror_boots_the_current_checkpoint() {
    const CHUNK: usize = 64 << 10;
    for revived in 0..3 {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let vol = a.create_volume("v", 8 << 20).unwrap();
        // Chunks that compress to almost nothing keep every write in the
        // segment the older checkpoint knows, so a cold start from it
        // finds none of their map records.
        let chunk = |i: usize| vec![(i + 1) as u8; CHUNK];
        let write = |a: &mut FlashArray, chunks: std::ops::Range<usize>| {
            for i in chunks {
                a.write(vol, (i * CHUNK) as u64, &chunk(i)).unwrap();
            }
            a.checkpoint().unwrap();
        };
        write(&mut a, 0..16);
        a.fail_drive(revived);
        write(&mut a, 16..40);
        a.revive_drive(revived);
        for d in (0..3).filter(|&d| d != revived) {
            a.fail_drive(d);
        }
        a.fail_primary().unwrap();
        for i in 0..40 {
            let (read, _) = a.read(vol, (i * CHUNK) as u64, CHUNK).unwrap();
            assert!(read == chunk(i), "chunk {i}, mirror {revived} revived");
        }
    }
}
