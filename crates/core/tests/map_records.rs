//! A checkpoint names only the map records that still hold some key's
//! newest fact. This property holds the rule to what naming every record
//! would give: over random writes, overwrites, checkpoints, GC passes,
//! takeovers and power losses, each recovered map agrees with a fold of
//! every record ever named since the last GC compaction, and every
//! sector reads its last acknowledged bytes. After every op the named
//! list is exactly the records that hold a newest fact of that fold.

use proptest::prelude::*;
use purity_core::bootregion::PatchLoc;
use purity_core::controller::{MapKey, MapVal};
use purity_core::records::MapFact;
use purity_core::{ArrayConfig, FlashArray, PowerLossSpec, VolumeId, SECTOR};
use std::collections::{BTreeMap, BTreeSet};

const SECTORS: u64 = 64;

#[derive(Debug, Clone)]
enum Op {
    /// `len` sectors at `start` (clamped to the volume), filled from `tag`.
    Write {
        start: u64,
        len: u64,
        tag: u8,
    },
    /// The whole volume but sector `skip` (none when past the end),
    /// filled from `tag`: the overwrite that leaves an older record
    /// newest for one key.
    Overwrite {
        skip: u64,
        tag: u8,
    },
    Checkpoint,
    Gc,
    FailPrimary,
    PowerLoss,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..SECTORS, 1..16u64, any::<u8>())
            .prop_map(|(start, len, tag)| Op::Write { start, len, tag }),
        2 => (0..SECTORS * 2, any::<u8>()).prop_map(|(skip, tag)| Op::Overwrite { skip, tag }),
        3 => Just(Op::Checkpoint),
        1 => Just(Op::Gc),
        1 => Just(Op::FailPrimary),
        1 => Just(Op::PowerLoss),
    ]
}

/// Writes sectors `start..start + len` that lie in the volume, each
/// filled from its number and `tag` so no two fold together, and keeps
/// `image` in step.
fn write(a: &mut FlashArray, vol: VolumeId, image: &mut [u8], start: u64, len: u64, tag: u8) {
    let (start, end) = (start.min(SECTORS), (start + len).min(SECTORS));
    if start == end {
        return;
    }
    for s in start..end {
        let sector = &mut image[(s as usize) * SECTOR..(s as usize + 1) * SECTOR];
        for (i, b) in sector.iter_mut().enumerate() {
            *b = (s as u8) ^ tag.rotate_left(i as u32 % 8) ^ (i as u8).wrapping_mul(31);
        }
        sector[..8].copy_from_slice(&(s ^ (u64::from(tag) << 32)).to_le_bytes());
    }
    let range = start as usize * SECTOR..end as usize * SECTOR;
    a.write(vol, range.start as u64, &image[range]).unwrap();
}

/// The facts of the record at `loc`.
fn facts(a: &mut FlashArray, loc: &PatchLoc) -> Vec<MapFact> {
    let (ctrl, shelf) = a.controller_and_shelf();
    let (record, _) = ctrl.read_map_record(shelf, loc, 0).unwrap();
    let rows = record.page.rows::<{ MapFact::COLS }>().unwrap();
    rows.map(|row| MapFact::from_row(&row)).collect()
}

/// The newest fact of each key across `records`, read in order; on a seq
/// tie the record read first keeps the key, as recovery's fold does.
fn fold(a: &mut FlashArray, records: &[PatchLoc]) -> BTreeMap<MapKey, (MapVal, u64)> {
    let mut newest: BTreeMap<MapKey, (MapVal, u64)> = BTreeMap::new();
    for loc in records {
        for f in facts(a, loc) {
            let val = MapVal {
                loc: f.loc,
                deduped: f.deduped,
            };
            let held = newest.entry((f.medium.0, f.sector)).or_insert((val, f.seq));
            if held.1 < f.seq {
                *held = (val, f.seq);
            }
        }
    }
    newest
}

/// The named list is minimal and complete against the fold of `ever`:
/// every named record holds some key's newest durable fact, and every
/// such fact sits in a named record.
fn check_named(a: &mut FlashArray, ever: &[PatchLoc]) -> Result<(), TestCaseError> {
    let newest = fold(a, ever);
    let is_newest = |f: &MapFact| newest[&(f.medium.0, f.sector)].1 == f.seq;
    let mut held: BTreeSet<(MapKey, u64)> = BTreeSet::new();
    for loc in a.controller().map_records() {
        let newest_here: Vec<MapFact> = facts(a, &loc).into_iter().filter(is_newest).collect();
        prop_assert!(
            !newest_here.is_empty(),
            "{:?} is named but holds no newest fact",
            loc
        );
        held.extend(newest_here.iter().map(|f| ((f.medium.0, f.sector), f.seq)));
    }
    for (key, &(_, seq)) in &newest {
        prop_assert!(
            held.contains(&(*key, seq)),
            "no named record holds {:?}@{}",
            key,
            seq
        );
    }
    Ok(())
}

/// Adds the records `a` names now to `ever`, each once, oldest first.
fn observe(a: &FlashArray, ever: &mut Vec<PatchLoc>) {
    for loc in a.controller().map_records() {
        if !ever.contains(&loc) {
            ever.push(loc);
        }
    }
}

/// After a restart: the recovered map is what a recovery reading every
/// record in `ever` would build — the fold of those records, with the
/// facts NVRAM replay added (each newer than any record's) over it.
fn check_recovered(a: &mut FlashArray, ever: &mut Vec<PatchLoc>) -> Result<(), TestCaseError> {
    observe(a, ever);
    let reference = fold(a, ever);
    let live: BTreeMap<MapKey, (MapVal, u64)> = (a.controller().map_live().into_iter())
        .map(|(key, val, seq)| (key, (val, seq)))
        .collect();
    let mut want = reference;
    for (key, &(val, seq)) in &live {
        match want.get(key) {
            Some(&(_, held)) if held >= seq => {}
            _ => {
                want.insert(*key, (val, seq));
            }
        }
    }
    prop_assert_eq!(live, want, "the recovered map differs from the full fold");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn recovery_from_named_records_matches_every_record(ops in proptest::collection::vec(op(), 1..28)) {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let vol: VolumeId = a.create_volume("v", SECTORS * SECTOR as u64).unwrap();
        let mut image = vec![0u8; (SECTORS as usize) * SECTOR];
        // Every record named since the last GC compaction.
        let mut ever: Vec<PatchLoc> = Vec::new();
        for op in &ops {
            match *op {
                Op::Write { start, len, tag } => write(&mut a, vol, &mut image, start, len, tag),
                Op::Overwrite { skip, tag } => {
                    write(&mut a, vol, &mut image, 0, skip, tag);
                    write(&mut a, vol, &mut image, skip + 1, SECTORS, tag);
                }
                Op::Checkpoint => a.checkpoint().unwrap(),
                Op::Gc => {
                    a.run_gc().unwrap();
                    ever.clear();
                }
                Op::FailPrimary => {
                    a.fail_primary().unwrap();
                    check_recovered(&mut a, &mut ever)?;
                }
                Op::PowerLoss => {
                    a.power_loss(PowerLossSpec::default()).unwrap();
                    check_recovered(&mut a, &mut ever)?;
                }
            }
            observe(&a, &mut ever);
            check_named(&mut a, &ever)?;
            if matches!(op, Op::FailPrimary | Op::PowerLoss) {
                let (read, _) = a.read(vol, 0, image.len()).unwrap();
                prop_assert!(read == image, "a sector lost its last acknowledged bytes");
            }
        }
        prop_assert!(a.verify_integrity().is_empty());
    }
}
