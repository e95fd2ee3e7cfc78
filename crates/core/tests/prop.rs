//! Property tests for the boot region's A/B slot alternation (§4.3),
//! for the identity relocation's copy rests on, for relocation's
//! dropping of sectors no key reads, and for the snapshot diff.
//!
//! The checkpoint writer alternates slots (`version % 2`), so a torn
//! write can only ever damage the *newest* checkpoint — the previous one
//! lives in the other slot, untouched. These properties drive arbitrary
//! tears and bit flips into the newest slot on every mirror and require
//! recovery to fall back to the older slot: never a panic, never a
//! garbage checkpoint that passes validation.

use proptest::prelude::*;
use purity_compress::varint;
use purity_core::bootregion::{BootRegion, Checkpoint, PatchLoc, SnapMeta, VolumeMeta};
use purity_core::config::ArrayConfig;
use purity_core::gc::GcReport;
use purity_core::records::MediumFact;
use purity_core::shelf::{Cause, Shelf};
use purity_core::stats::ArrayStats;
use purity_core::write::encode_cblock;
use purity_core::{FlashArray, SnapshotId, VolumeId, SECTOR};
use purity_dedup::hash::block_hash;
use purity_sim::{Clock, MS};
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
        // Eight fields, nine columns, and as many fills as the eighth
        // field counts: `version`.
        segment_rows: vec![vec![version; 17 + 2 * version as usize]],
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
        shelf.write_paced(Cause::DataStripe, &[(0, 0, &fill), (1, 0, &fill)], 0).all_landed().unwrap();
        for (d, first, pages, at) in writes {
            let data = vec![d as u8 + 1; pages * page];
            shelf.write_paced(Cause::DataStripe, &[(d, first * page, &data)], at).all_landed().unwrap();
        }
        for (d, offset, len, now) in reads {
            let eta = shelf.read_eta(d, offset, len, now);
            prop_assert_eq!(shelf.read_eta(d, offset, len, now), eta, "an estimate books nothing");
            match (eta, shelf.read_drive(d, offset, len, now)) {
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

/// A checkpoint's frame, split: stripe width and body.
fn width_and_body(encoded: &[u8]) -> (u64, &[u8]) {
    // The frame: magic, stripe width, body length, body, checksum.
    let (width, n) = varint::decode(&encoded[8..]).unwrap();
    let (body_len, m) = varint::decode(&encoded[8 + n..]).unwrap();
    let at = 8 + n + m;
    (width, &encoded[at..at + body_len as usize])
}

/// A checkpoint frame around `body` with a valid checksum, the way a
/// forger would build one.
fn frame(width: u64, body: &[u8]) -> Vec<u8> {
    let mut bytes = Checkpoint::default().encode(9)[..8].to_vec();
    varint::encode(width, &mut bytes);
    varint::encode(body.len() as u64, &mut bytes);
    bytes.extend_from_slice(body);
    let h = block_hash(&bytes[8..]);
    bytes.extend_from_slice(&h.to_le_bytes());
    bytes
}

/// A checkpoint re-encoded to claim `u64::MAX` frontier AUs, under a
/// valid checksum, is refused: the count is not trusted to size an
/// allocation before the body backs it up.
#[test]
fn a_checkpoint_counting_u64_max_frontier_aus_decodes_to_none() {
    let orig = sample_checkpoint(3).encode(9);
    let (width, body) = width_and_body(&orig);
    // Seven scalar varints precede the frontier count.
    let mut count_at = 0;
    for _ in 0..7 {
        count_at += varint::decode(&body[count_at..]).unwrap().1;
    }
    let (count, used) = varint::decode(&body[count_at..]).unwrap();
    assert_eq!(count, 4);
    let mut forged = body[..count_at].to_vec();
    varint::encode(u64::MAX, &mut forged);
    forged.extend_from_slice(&body[count_at + used..]);
    assert!(Checkpoint::decode(&frame(width, &forged)).is_none());
}

/// A stripe width of `u64::MAX` gives segment rows an arity no count of
/// bytes can name: refused, not an overflow.
#[test]
fn a_checkpoint_claiming_a_u64_max_stripe_width_decodes_to_none() {
    let orig = Checkpoint::default().encode(9);
    let (_, body) = width_and_body(&orig);
    assert!(Checkpoint::decode(&frame(u64::MAX, body)).is_none());
}

/// A stripe width of 2^40 under one segment row asks for a row far
/// larger than the body: refused before the row is sized.
#[test]
fn a_checkpoint_claiming_a_2_pow_40_stripe_width_decodes_to_none() {
    let cp = Checkpoint {
        segment_rows: vec![vec![0; 17]],
        ..Checkpoint::default()
    };
    let orig = cp.encode(9);
    let (_, body) = width_and_body(&orig);
    assert!(Checkpoint::decode(&frame(1 << 40, body)).is_none());
}

/// A first page whose body-length varint is `u64::MAX` names no
/// checkpoint length: the slot is skipped and recovery reads the older
/// one.
#[test]
fn a_first_page_claiming_a_u64_max_body_falls_back_to_the_older_slot() {
    let cfg = ArrayConfig::test_small();
    let mut shelf = Shelf::new(&cfg, Clock::new());
    let page = cfg.ssd_geometry.page_size;
    let mut boot = BootRegion::new(cfg.boot_region_bytes(), page, cfg.stripe_width());
    let old = sample_checkpoint(1); // slot 1
    boot.write(&mut shelf, &old, 0).unwrap();
    let newest = sample_checkpoint(2); // slot 0
    boot.write(&mut shelf, &newest, 0).unwrap();

    let encoded = newest.encode(cfg.stripe_width());
    let mut first = encoded[..8].to_vec();
    varint::encode(cfg.stripe_width() as u64, &mut first);
    varint::encode(u64::MAX, &mut first);
    first.resize(page, 0);
    for d in 0..3 {
        shelf.write_drive(d, 0, &first, 0).unwrap();
    }
    let (cp, _) = boot
        .read(&mut shelf, 0)
        .expect("older slot must remain readable");
    assert_eq!(cp, old);
}

const SHARED_VOL_SECTORS: u64 = 512;

/// One tiered array under test, and what each reader must read back.
struct Shared {
    array: FlashArray,
    vols: [VolumeId; 2],
    images: [Vec<u8>; 2],
    snap: Option<(SnapshotId, Vec<u8>)>,
}

impl Shared {
    fn overwrite(&mut self, seed: u64, (first, n, which): (u64, u64, usize)) {
        let n = n.min(SHARED_VOL_SECTORS - first);
        let data = ContentModel::Rdbms.buffer(seed, first, n as usize);
        let at = first as usize * SECTOR;
        self.array
            .write(self.vols[which], at as u64, &data)
            .unwrap();
        self.images[which][at..at + data.len()].copy_from_slice(&data);
    }

    fn reads_back(&mut self, step: &str) -> Result<(), TestCaseError> {
        for (vol, image) in self.vols.iter().zip(&self.images) {
            let (back, _) = self.array.read(*vol, 0, image.len()).unwrap();
            prop_assert!(&back == image, "volume {} differs after {}", vol.0, step);
        }
        if let Some((snap, image)) = &self.snap {
            let back = self.array.read_snapshot(*snap, 0, image.len()).unwrap();
            prop_assert!(&back == image, "the snapshot differs after {}", step);
        }
        prop_assert_eq!(self.array.verify_integrity(), Vec::<String>::new());
        Ok(())
    }

    /// A GC pass after enough doomed, incompressible data to seal the
    /// open segment, so what the readers share sits in a victim.
    fn gc(&mut self, seed: u64) -> GcReport {
        let doomed = self.array.create_volume("doomed", 4 << 20).unwrap();
        for i in 0..12 {
            let chunk = ContentModel::Random.buffer(seed, i * 512, 512);
            self.array.write(doomed, i * 256 * 1024, &chunk).unwrap();
        }
        self.array.destroy_volume(doomed).unwrap();
        self.array.run_gc().unwrap()
    }

    /// Ticks the migrator, reading `busy` so only the other volume idles,
    /// until `counter` has risen and then holds for a tick.
    fn migrate(&mut self, busy: VolumeId, counter: fn(&ArrayStats) -> u64) {
        let before = counter(self.array.stats());
        let mut last = before;
        for _ in 0..60 {
            self.array.read(busy, 0, 8192).unwrap();
            self.array.advance(50 * MS);
            let now = counter(self.array.stats());
            if now > before && now == last {
                return;
            }
            last = now;
        }
        panic!("setup: the migrator never moved the volume");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A relocation keeps only the sectors its refs read, so a cblock
    /// read by keys the move was not handed must stay readable for them.
    /// Two volumes written with the same content share cblocks through
    /// inline dedup, and a snapshot pins sectors its volume later
    /// overwrote; GC passes interleave with a demotion and a promotion of
    /// one volume, whose moves see only that volume's refs. After every
    /// step each volume and the snapshot read back the model's bytes.
    #[test]
    fn shared_cblocks_read_back_through_gc_and_tier_moves(
        seed in any::<u64>(),
        overwrites in proptest::collection::vec(
            (0..SHARED_VOL_SECTORS, 1u64..48, 0usize..2),
            3..12,
        ),
    ) {
        let mut array = FlashArray::new(ArrayConfig::tiered()).unwrap();
        let bytes = SHARED_VOL_SECTORS * SECTOR as u64;
        let vols = [
            array.create_volume("a", bytes).unwrap(),
            array.create_volume("b", bytes).unwrap(),
        ];
        let base = ContentModel::Rdbms.buffer(seed, 0, SHARED_VOL_SECTORS as usize);
        for vol in vols {
            for (i, chunk) in base.chunks(32 * 1024).enumerate() {
                array.write(vol, (i * chunk.len()) as u64, chunk).unwrap();
            }
        }
        prop_assert!(array.stats().dedup_bytes_saved > 0, "setup: nothing deduplicated");
        let mut s = Shared { array, vols, images: [base.clone(), base], snap: None };
        let third = overwrites.len() / 3;
        let mut ops = overwrites.into_iter().enumerate();
        let seed_of = |i: usize| seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9);

        for (i, op) in ops.by_ref().take(third) {
            s.overwrite(seed_of(i), op);
        }
        let snap = s.array.snapshot(vols[0], "snap").unwrap();
        s.snap = Some((snap, s.images[0].clone()));
        for (i, op) in ops.by_ref().take(third) {
            s.overwrite(seed_of(i), op);
        }
        s.reads_back("the overwrites")?;
        let first = s.gc(seed_of(100));
        prop_assert!(first.segments_freed > 0, "setup: no victim {:?}", first);
        s.reads_back("a GC pass")?;
        s.migrate(vols[1], |st| st.tier_demotions);
        s.reads_back("the demotion")?;
        for (i, op) in ops {
            s.overwrite(seed_of(i), op);
        }
        s.gc(seed_of(101));
        s.reads_back("a GC pass after the demotion")?;
        s.migrate(vols[0], |st| st.tier_promotions);
        s.reads_back("the promotion")?;
        s.gc(seed_of(102));
        s.reads_back("the last GC pass")?;
    }
}

const DIFF_VOL_SECTORS: u64 = 256;

/// One volume of the diff property, and what the model says it holds:
/// its bytes now, and each snapshot with the bytes it froze.
struct DiffVol {
    id: VolumeId,
    image: Vec<u8>,
    snaps: Vec<(SnapshotId, Vec<u8>)>,
}

/// Checks `snapshot_diff(base, newer)` of one volume: the runs are
/// sorted, disjoint, non-empty and inside the volume; outside them both
/// sides read the same bytes; and every sector the model holds different
/// bytes for lies in a run. `None` is the empty base, which reads zeros.
fn check_diff(
    array: &mut FlashArray,
    base: Option<&(SnapshotId, Vec<u8>)>,
    newer: &(SnapshotId, Vec<u8>),
) -> Result<(), TestCaseError> {
    let runs = array.snapshot_diff(base.map(|b| b.0), newer.0).unwrap();
    let len = newer.1.len();
    let (base_read, base_model) = match base {
        Some((snap, image)) => (array.read_snapshot(*snap, 0, len).unwrap(), image.clone()),
        None => (vec![0; len], vec![0; len]),
    };
    let newer_read = array.read_snapshot(newer.0, 0, len).unwrap();
    prop_assert!(
        newer_read == newer.1,
        "setup: {:?} does not read back",
        newer.0
    );
    let sectors = (len / SECTOR) as u64;
    let mut in_run = vec![false; sectors as usize];
    let mut prev_end = 0;
    for &(start, end) in &runs {
        prop_assert!(
            prev_end <= start && start < end && end <= sectors,
            "runs {:?} are not sorted, disjoint, non-empty runs of {} sectors",
            runs,
            sectors
        );
        in_run[start as usize..end as usize].fill(true);
        prev_end = end;
    }
    for (i, _) in in_run.iter().enumerate().filter(|(_, inside)| !**inside) {
        let at = i * SECTOR..(i + 1) * SECTOR;
        prop_assert!(
            newer_read[at.clone()] == base_read[at.clone()],
            "sector {} reads differently outside the runs {:?}",
            i,
            runs
        );
        prop_assert!(
            newer.1[at.clone()] == base_model[at],
            "sector {} changed but lies in none of the runs {:?}",
            i,
            runs
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `snapshot_diff`, which replication and cluster rebuild ship from,
    /// names every sector whose bytes changed between two snapshots and
    /// nothing that reads the same. Random writes, some repeating earlier
    /// content so dedup shares locations, with snapshots at random points
    /// and writes over a clone of one: every pair of one volume's
    /// snapshots, and every snapshot against the empty base, passes
    /// [`check_diff`].
    #[test]
    fn snapshot_diff_names_every_changed_sector(
        seed in any::<u64>(),
        ops in proptest::collection::vec(
            (0u8..10, 0..DIFF_VOL_SECTORS, 1u64..24, any::<bool>()),
            4..24,
        ),
    ) {
        let mut array = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let bytes = DIFF_VOL_SECTORS as usize * SECTOR;
        let id = array.create_volume("v", bytes as u64).unwrap();
        let mut vols = vec![DiffVol { id, image: vec![0; bytes], snaps: Vec::new() }];
        let mut written: Vec<Vec<u8>> = Vec::new();
        for (i, (kind, first, n, repeat)) in ops.into_iter().enumerate() {
            let vol = vols.last_mut().expect("one volume at least");
            match kind {
                0..=6 => {
                    let n = n.min(DIFF_VOL_SECTORS - first) as usize;
                    let data = match written.iter().find(|w| repeat && w.len() >= n * SECTOR) {
                        Some(earlier) => earlier[..n * SECTOR].to_vec(),
                        None => ContentModel::Random.buffer(seed ^ i as u64, first, n),
                    };
                    let at = first as usize * SECTOR;
                    array.write(vol.id, at as u64, &data).unwrap();
                    vol.image[at..at + data.len()].copy_from_slice(&data);
                    written.push(data);
                }
                7 | 8 => {
                    let snap = array.snapshot(vol.id, &format!("s{i}")).unwrap();
                    vol.snaps.push((snap, vol.image.clone()));
                }
                _ => {
                    let Some((snap, image)) = vol.snaps.last().cloned() else {
                        continue;
                    };
                    let id = array.clone_snapshot(snap, &format!("c{i}")).unwrap();
                    vols.push(DiffVol { id, image, snaps: Vec::new() });
                }
            }
        }
        for vol in &mut vols {
            let snap = array.snapshot(vol.id, "last").unwrap();
            vol.snaps.push((snap, vol.image.clone()));
        }
        for vol in &vols {
            for (j, newer) in vol.snaps.iter().enumerate() {
                check_diff(&mut array, None, newer)?;
                for base in &vol.snaps[..j] {
                    check_diff(&mut array, Some(base), newer)?;
                }
            }
        }
    }
}
