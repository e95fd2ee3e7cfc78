//! The map records a checkpoint names (§4.3).
//!
//! Every memtable flush and every GC compaction appends map log records,
//! and a checkpoint names the ones a recovery reads. A record stays named
//! while it holds the newest durable fact of at least one key. Once facts
//! with higher seqs, in records that are still named, have superseded
//! every fact in it, no recovery could take anything from it, so the
//! checkpoint stops naming it. Nothing on flash is rewritten: the dead
//! record stays where it is, and GC may collect its segment.
//!
//! The map pyramid is the only index of which record holds a key's
//! newest fact: each fact it stores carries its record's id
//! ([`Stored::record`]), so a record is named while the newest fact of
//! some key in the pyramid's patches carries its id. On a seq tie that
//! is the copy the pyramid keeps, the newer patch's.
//!
//! Ordering: a record is dropped only while the record that supersedes
//! it is named, and that record is named only after it was appended. So
//! every checkpoint that stops naming a record names its superseder.

use crate::bootregion::PatchLoc;
use crate::controller::{MapKey, RecordId, Stored};
use purity_lsm::Pyramid;
use std::collections::BTreeMap;

/// The named map records, by id, and the next id to hand out.
#[derive(Debug, Default)]
pub(crate) struct MapRecords {
    /// Named records by id, so oldest first.
    named: BTreeMap<RecordId, PatchLoc>,
    next_id: RecordId,
}

impl MapRecords {
    /// The named records, oldest first: what a checkpoint lists.
    pub(crate) fn locs(&self) -> impl Iterator<Item = PatchLoc> + '_ {
        self.named.values().copied()
    }

    /// Hands out the ids of the next `n` records; returns the first.
    pub(crate) fn reserve(&mut self, n: usize) -> RecordId {
        let first = self.next_id;
        self.next_id += n as RecordId;
        first
    }

    /// Names the records just `appended`, whose facts `map` holds tagged
    /// with their ids, then drops every named record whose id no key's
    /// newest fact in `map`'s patches carries. A newest fact whose
    /// record was never named — its append failed — drops nothing.
    pub(crate) fn name(
        &mut self,
        appended: impl IntoIterator<Item = (RecordId, PatchLoc)>,
        map: &Pyramid<MapKey, Stored>,
    ) {
        self.named.extend(appended);
        let base = self.named.keys().next().map_or(self.next_id, |&id| id);
        let mut held = vec![false; (self.next_id - base) as usize];
        let mut unnamed = false;
        map.for_each_patched(|(_, _, v)| {
            match (v.record.checked_sub(base)).and_then(|at| held.get_mut(at as usize)) {
                Some(h) => *h = true,
                None => unnamed = true,
            }
        });
        let named = |id| self.named.contains_key(&id);
        unnamed |= (base..).zip(&held).any(|(id, &h)| h && !named(id));
        if !unnamed {
            self.named.retain(|id, _| held[(id - base) as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FlashArray;
    use crate::config::ArrayConfig;
    use crate::types::{BlockLoc, Pba, SegmentId, VolumeId, SECTOR};
    use crate::PowerLossSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Sectors of the volume the array tests overwrite.
    const SECTORS: usize = 1024;

    /// An array with one `SECTORS`-sector volume, and a function that
    /// writes `sectors` of it with fresh random bytes and checkpoints, one
    /// map record a call; it returns the volume's image.
    fn overwriter() -> (
        FlashArray,
        VolumeId,
        impl FnMut(&mut FlashArray, usize) -> Vec<u8>,
    ) {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let vol = a.create_volume("v", (SECTORS * SECTOR) as u64).unwrap();
        let (mut rng, mut image) = (StdRng::seed_from_u64(39), vec![0u8; SECTORS * SECTOR]);
        let overwrite = move |a: &mut FlashArray, sectors: usize| {
            rng.fill(&mut image[..sectors * SECTOR]);
            a.write(vol, 0, &image[..sectors * SECTOR]).unwrap();
            a.checkpoint().unwrap();
            image.clone()
        };
        (a, vol, overwrite)
    }

    /// The records the checkpoint on flash names.
    fn on_flash(a: &mut FlashArray) -> Vec<PatchLoc> {
        let (ctrl, shelf) = a.controller_and_shelf();
        ctrl.boot.read(shelf, 0).unwrap().0.map_patches
    }

    /// A volume overwritten whole four times, a checkpoint after each
    /// pass: only the last pass's record holds a newest fact, so the
    /// checkpoint names it alone, a takeover loads it alone (one fact a
    /// sector, not four), every sector reads back, and a second cold
    /// start loads the same record.
    #[test]
    fn a_checkpoint_names_only_records_holding_a_newest_fact() {
        let (mut a, vol, mut overwrite) = overwriter();
        let image = (0..4).map(|_| overwrite(&mut a, SECTORS)).last().unwrap();
        let named = on_flash(&mut a);
        assert_eq!(named.len(), 1, "{named:?}");

        let r = a.fail_primary().unwrap().recovery;
        assert_eq!((r.patches_loaded, r.facts_loaded), (1, SECTORS));
        assert!(a.read(vol, 0, image.len()).unwrap().0 == image);
        assert_eq!(a.controller().map_records(), named);

        let r = a.power_loss(PowerLossSpec::default()).unwrap().recovery;
        assert_eq!((r.patches_loaded, r.facts_loaded), (1, SECTORS));
        assert_eq!(a.controller().map_records(), named);
        assert!(a.read(vol, 0, image.len()).unwrap().0 == image);
    }

    /// The boundary: a record left newest for exactly one key — every
    /// sector but the last overwritten — stays named, and a takeover
    /// reads that sector from it.
    #[test]
    fn a_record_newest_for_one_key_stays_named() {
        let (mut a, vol, mut overwrite) = overwriter();
        overwrite(&mut a, SECTORS);
        let image = overwrite(&mut a, SECTORS - 1);
        assert_eq!(on_flash(&mut a).len(), 2);
        let r = a.fail_primary().unwrap().recovery;
        assert_eq!((r.patches_loaded, r.facts_loaded), (2, 2 * SECTORS - 1));
        assert!(a.read(vol, 0, image.len()).unwrap().0 == image);
    }

    fn loc(n: u64) -> PatchLoc {
        PatchLoc {
            segment: n,
            log_offset: 0,
            len: 1,
        }
    }

    fn named(r: &MapRecords) -> Vec<u64> {
        r.locs().map(|l| l.segment).collect()
    }

    /// A map and its named records, and `flush(facts, n)`, which inserts
    /// `(key, seq)` facts and flushes them as one record at segment `n`,
    /// as `Controller::flush_map_patch` does.
    fn map() -> (Pyramid<MapKey, Stored>, MapRecords) {
        (
            Pyramid::with_thresholds(usize::MAX, 8),
            MapRecords::default(),
        )
    }

    /// A value persisted in `record`, pointing nowhere.
    fn val(record: RecordId) -> Stored {
        let pba = Pba {
            segment: SegmentId(0),
            offset: 0,
            stored_len: 0,
        };
        let loc = BlockLoc { pba, sector: 0 };
        Stored {
            record,
            ..Stored::new(loc, false)
        }
    }

    fn flush(p: &mut (Pyramid<MapKey, Stored>, MapRecords), facts: &[(MapKey, u64)], n: u64) {
        let (map, r) = p;
        map.insert_many(facts.iter().map(|&(key, seq)| (key, val(0), seq)));
        let id = r.reserve(1);
        map.flush_tagged(|v| v.record = id);
        r.name([(id, loc(n))], map);
    }

    /// A record goes when its last newest key moves, not before: one
    /// newest key keeps it named.
    #[test]
    fn a_record_goes_with_its_last_newest_key() {
        let mut p = map();
        flush(&mut p, &[((1, 0), 1), ((1, 1), 1), ((1, 2), 1)], 1);
        flush(&mut p, &[((1, 0), 2), ((1, 1), 2)], 2);
        assert_eq!(named(&p.1), [1, 2]);
        flush(&mut p, &[((1, 2), 3)], 3);
        assert_eq!(named(&p.1), [2, 3]);
    }

    /// Facts not newer than their key's are not newest: a record of only
    /// such facts is never named, and an older version inside a record
    /// does not keep it. On a seq tie the newer record holds the copy the
    /// map keeps, so the older one goes.
    #[test]
    fn stale_facts_count_for_nothing() {
        let mut p = map();
        flush(&mut p, &[((1, 0), 5), ((1, 0), 7), ((1, 1), 5)], 1);
        flush(&mut p, &[((1, 0), 6), ((1, 1), 4)], 2);
        assert_eq!(named(&p.1), [1]);
        // Record 1 is newest for two keys: one superseder leaves it named.
        flush(&mut p, &[((1, 0), 8)], 3);
        assert_eq!(named(&p.1), [1, 3]);
        flush(&mut p, &[((1, 1), 5)], 4);
        assert_eq!(named(&p.1), [3, 4]);
    }

    /// A recovery names the records some key's newest fact came from,
    /// and later records supersede them as a flush would. A fact tagged
    /// with a record that was never named (its append failed) drops
    /// nothing.
    #[test]
    fn recovered_records_keep_their_counts() {
        let (mut map, mut r) = map();
        let first = r.reserve(3);
        map.load(vec![((1, 0), 4, val(first)), ((1, 1), 6, val(first + 2))]);
        r.name((first..).zip([loc(1), loc(2), loc(3)]), &map);
        assert_eq!(named(&r), [1, 3]);
        let mut p = (map, r);
        flush(&mut p, &[((1, 0), 9)], 4);
        assert_eq!(named(&p.1), [3, 4]);

        let lost = p.1.reserve(1);
        p.0.insert((1, 1), val(0), 10);
        p.0.flush_tagged(|v| v.record = lost);
        flush(&mut p, &[((1, 2), 11)], 5);
        assert_eq!(named(&p.1), [3, 4, 5]);
    }

    /// A first flush whose append failed leaves facts tagged with an id
    /// older than every named record: while they are newest, no record
    /// is dropped, the superseded one included.
    #[test]
    fn a_failed_first_append_drops_nothing() {
        let mut p = map();
        let lost = p.1.reserve(1);
        p.0.insert((1, 0), val(0), 1);
        p.0.flush_tagged(|v| v.record = lost);
        flush(&mut p, &[((1, 1), 2)], 1);
        flush(&mut p, &[((1, 1), 3)], 2);
        assert_eq!(named(&p.1), [1, 2]);
    }
}
