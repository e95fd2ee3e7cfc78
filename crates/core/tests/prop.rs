//! Property tests for the boot region's A/B slot alternation (§4.3),
//! and for the identity relocation's copy rests on.
//!
//! The checkpoint writer alternates slots (`version % 2`), so a torn
//! write can only ever damage the *newest* checkpoint — the previous one
//! lives in the other slot, untouched. These properties drive arbitrary
//! tears and bit flips into the newest slot on every mirror and require
//! recovery to fall back to the older slot: never a panic, never a
//! garbage checkpoint that passes validation.

use proptest::prelude::*;
use purity_core::bootregion::{BootRegion, Checkpoint, PatchLoc, SnapMeta, VolumeMeta};
use purity_core::config::ArrayConfig;
use purity_core::controller::encode_cblock;
use purity_core::records::{MediumFact, SegmentFact};
use purity_core::shelf::Shelf;
use purity_sim::Clock;
use purity_wkld::ContentModel;

fn sample_checkpoint(version: u64) -> Checkpoint {
    Checkpoint {
        version,
        watermark: 500 + version,
        high_seq: 1000 + version,
        next_segment: 5,
        next_medium: 9,
        next_volume: 2,
        next_snapshot: 3,
        frontier: vec![1, 2, 3, (7 << 32) | 4],
        segment_rows: vec![vec![version; SegmentFact::cols(9)]],
        medium_rows: vec![vec![2; MediumFact::COLS]],
        volumes: vec![VolumeMeta {
            id: 1,
            anchor_medium: 4,
            size_sectors: 2048,
            name: "vol".into(),
        }],
        snapshots: vec![SnapMeta {
            id: 1,
            volume: 1,
            medium: 2,
            name: "snap".into(),
        }],
        elided_mediums: vec![(0, 3)],
        map_patches: vec![PatchLoc {
            segment: 2,
            log_offset: 0,
            len: 888,
        }],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tear + bit-flip the newest slot on every mirror: recovery must
    /// land on one of the two checkpoints actually written — the older
    /// one when the damage bites, the newest only if it still decodes
    /// bit-exact. Never a panic, never a mongrel.
    #[test]
    fn torn_newest_slot_falls_back_to_older(
        tear_at in 0usize..4096,
        fill in any::<u8>(),
        flips in proptest::collection::vec((any::<u16>(), 1u8..=255), 0..8),
    ) {
        let cfg = ArrayConfig::test_small();
        let mut shelf = Shelf::new(&cfg, Clock::new());
        let page = cfg.ssd_geometry.page_size;
        let mut boot = BootRegion::new(cfg.boot_region_bytes(), page, cfg.stripe_width());
        let old = sample_checkpoint(1); // slot 1
        let newest = sample_checkpoint(2); // slot 0
        boot.write(&mut shelf, &old, 0).unwrap();
        boot.write(&mut shelf, &newest, 0).unwrap();

        // Build the damaged image of the newest slot: a torn write keeps
        // a prefix and leaves junk after it; cosmic rays flip bits.
        let mut bytes = newest.encode(cfg.stripe_width());
        let padded = bytes.len().div_ceil(page) * page;
        bytes.resize(padded, 0);
        let cut = tear_at % bytes.len();
        for b in &mut bytes[cut..] {
            *b = fill;
        }
        for &(pos, mask) in &flips {
            let i = pos as usize % bytes.len();
            bytes[i] ^= mask;
        }
        for d in 0..3 {
            shelf.write_drive(d, 0, &bytes, 0).unwrap();
        }

        let (cp, _) = boot.read(&mut shelf, 0).expect("older slot must remain readable");
        prop_assert!(cp == old || cp == newest, "recovered a mongrel checkpoint");
    }

    /// `Checkpoint::decode` on arbitrarily mutated bytes never panics
    /// and never returns a value different from the original.
    #[test]
    fn checkpoint_decode_rejects_mutations(
        do_truncate in any::<bool>(),
        truncate in 0usize..2048,
        flips in proptest::collection::vec((any::<u16>(), 1u8..=255), 1..6),
    ) {
        let cp = sample_checkpoint(3);
        let orig = cp.encode(9);
        let mut bytes = orig.clone();
        if do_truncate {
            bytes.truncate(truncate % orig.len());
        }
        if !bytes.is_empty() {
            for &(pos, mask) in &flips {
                let i = pos as usize % bytes.len();
                bytes[i] ^= mask;
            }
        }
        if bytes == orig {
            return Ok(()); // mutations cancelled out
        }
        match Checkpoint::decode(&bytes) {
            None => {}
            Some((back, _)) => prop_assert_eq!(back, cp, "mutated bytes decoded to a different checkpoint"),
        }
    }

    /// The planner's estimate is the booking: after any history of paced
    /// writes, for reads of any extent at any issue time (each of which
    /// books, so later ones queue behind earlier ones and pages of one
    /// read share dies), `read_eta` is exactly what the read is then
    /// granted — completion, queueing and service — and refuses exactly
    /// the reads the drive refuses.
    #[test]
    fn read_eta_is_what_the_read_is_then_granted(
        writes in proptest::collection::vec(
            (0usize..3, 0usize..40, 1usize..24, 0u64..20_000_000),
            1..10,
        ),
        reads in proptest::collection::vec(
            (0usize..3, 0usize..48 * 4096, 1usize..12 * 4096, 0u64..40_000_000),
            1..32,
        ),
    ) {
        let cfg = ArrayConfig::test_small();
        let mut shelf = Shelf::new(&cfg, Clock::new());
        let page = cfg.ssd_geometry.page_size;
        // Drives 0 and 1 start fully mapped, so their reads always have
        // an estimate; drive 2 holds only what the history wrote, so some
        // of its reads are refused.
        let fill = vec![0xf1; 64 * page];
        shelf.write_paced(&[(0, 0, &fill), (1, 0, &fill)], 0).all_landed().unwrap();
        for (d, first, pages, at) in writes {
            let data = vec![d as u8 + 1; pages * page];
            shelf.write_paced(&[(d, first * page, &data)], at).all_landed().unwrap();
        }
        for (d, offset, len, now) in reads {
            let eta = shelf.read_eta(d, offset, len, now);
            prop_assert_eq!(shelf.read_eta(d, offset, len, now), eta, "an estimate books nothing");
            match (eta, shelf.read_drive_traced(d, offset, len, now)) {
                (Some(eta), Ok(dr)) => {
                    prop_assert_eq!(eta.end, dr.done);
                    prop_assert_eq!(eta.start, now + dr.queued);
                    prop_assert_eq!(eta.service(), dr.service);
                }
                (None, Err(_)) => {}
                (eta, read) => prop_assert!(
                    false,
                    "estimate {:?} but the read said {:?}",
                    eta,
                    read.map(|dr| dr.done)
                ),
            }
        }
    }

    /// Relocation places a cblock's stored bytes verbatim when no sector
    /// was dropped. That is only right if re-encoding what they decode to
    /// reproduces them — for every content class, compressed or raw.
    #[test]
    fn stored_bytes_are_the_encoding_of_what_they_decode_to(
        model in 0usize..5,
        compression in any::<bool>(),
        seed in any::<u64>(),
        start_sector in 0u64..1 << 20,
        n_sectors in 1usize..=64,
    ) {
        let model = [
            ContentModel::Random,
            ContentModel::Zeros,
            ContentModel::Rdbms,
            ContentModel::DocStore,
            ContentModel::VdiClone { clone_id: 3, mutation_pct: 5 },
        ][model];
        let payload = model.buffer(seed, start_sector, n_sectors);
        let stored = encode_cblock(&payload, compression);
        let decoded = purity_compress::decompress(&stored).unwrap();
        prop_assert_eq!(&decoded, &payload);
        prop_assert_eq!(encode_cblock(&decoded, compression), stored);
    }
}
