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
//! Ordering: a record is dropped only while the record that supersedes
//! it is named, and that record is named only after it was appended. So
//! every checkpoint that stops naming a record names its superseder.

use crate::bootregion::PatchLoc;
use crate::controller::MapKey;
use purity_lsm::Seq;
use std::collections::BTreeMap;

/// The named map records, and which record holds each durable key's
/// newest fact.
#[derive(Debug, Default)]
pub(crate) struct MapRecords {
    /// Named records by id, so oldest first: the location, and the
    /// number of keys whose newest fact the record holds.
    named: BTreeMap<u64, (PatchLoc, usize)>,
    /// Each durable key's newest fact, in key order: the key, its seq
    /// and its record's id. Records arrive as sorted runs, so a merge
    /// keeps it: sequential, where a hash index pays a cache miss a fact.
    newest: Vec<(MapKey, Seq, u64)>,
    next_id: u64,
}

impl MapRecords {
    /// The records `locs`, and per key, in key order, the seq of its
    /// newest fact and the index in `locs` of the record holding it: what
    /// a recovery read, or what a GC compaction wrote. A record no key
    /// takes its newest fact from is not named.
    pub(crate) fn new(
        locs: &[PatchLoc],
        newest: impl IntoIterator<Item = (MapKey, Seq, usize)>,
    ) -> Self {
        let mut live = vec![0usize; locs.len()];
        let newest: Vec<(MapKey, Seq, u64)> = (newest.into_iter())
            .map(|(key, seq, at)| {
                live[at] += 1;
                (key, seq, at as u64)
            })
            .collect();
        debug_assert!(newest.is_sorted_by(|a, b| a.0 < b.0));
        let named = (locs.iter().zip(live).enumerate())
            .filter(|(_, (_, n))| *n > 0)
            .map(|(id, (loc, n))| (id as u64, (*loc, n)))
            .collect();
        Self {
            named,
            newest,
            next_id: locs.len() as u64,
        }
    }

    /// The named records, oldest first: what a checkpoint lists.
    pub(crate) fn locs(&self) -> impl Iterator<Item = PatchLoc> + '_ {
        self.named.values().map(|(loc, _)| *loc)
    }

    /// Names the record just appended at `loc`, whose `facts` come in key
    /// order, a key's versions oldest first. Each key it holds a newer
    /// fact of moves to it, and a record that is then newest for no key
    /// is dropped. A fact whose seq is not newer than its key's entry
    /// counts for nothing, an older version in this same record
    /// included; a record holding only such facts is not named.
    pub(crate) fn name<V>(&mut self, loc: PatchLoc, facts: &[(MapKey, Seq, V)]) {
        let id = self.next_id;
        self.next_id += 1;
        let mut live = 0;
        let mut old = std::mem::take(&mut self.newest).into_iter().peekable();
        let mut merged = Vec::with_capacity(old.len() + facts.len());
        for run in facts.chunk_by(|a, b| a.0 == b.0) {
            let (key, seq) = (run[run.len() - 1].0, run[run.len() - 1].1);
            merged.extend(std::iter::from_fn(|| old.next_if(|e| e.0 < key)));
            match old.next_if(|e| e.0 == key) {
                Some(held) if held.1 >= seq => merged.push(held),
                held => {
                    if let Some((_, _, was)) = held {
                        let rec = (self.named.get_mut(&was)).expect("a newest fact is named");
                        rec.1 -= 1;
                        if rec.1 == 0 {
                            self.named.remove(&was);
                        }
                    }
                    merged.push((key, seq, id));
                    live += 1;
                }
            }
        }
        merged.extend(old);
        debug_assert!(merged.is_sorted_by(|a, b| a.0 < b.0));
        self.newest = merged;
        if live > 0 {
            self.named.insert(id, (loc, live));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FlashArray;
    use crate::config::ArrayConfig;
    use crate::types::{VolumeId, SECTOR};
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

    /// A record goes when its last newest key moves, not before: one
    /// newest key keeps it named.
    #[test]
    fn a_record_goes_with_its_last_newest_key() {
        let mut r = MapRecords::default();
        r.name(loc(1), &[((1, 0), 1, ()), ((1, 1), 1, ()), ((1, 2), 1, ())]);
        r.name(loc(2), &[((1, 0), 2, ()), ((1, 1), 2, ())]);
        assert_eq!(named(&r), [1, 2]);
        r.name(loc(3), &[((1, 2), 3, ())]);
        assert_eq!(named(&r), [2, 3]);
    }

    /// Facts not newer than their key's entry count for nothing: a record
    /// of only such facts is never named, and an older version inside a
    /// record does not count twice.
    #[test]
    fn stale_facts_count_for_nothing() {
        let mut r = MapRecords::default();
        r.name(loc(1), &[((1, 0), 5, ()), ((1, 0), 7, ()), ((1, 1), 5, ())]);
        r.name(loc(2), &[((1, 0), 7, ()), ((1, 1), 4, ())]);
        assert_eq!(named(&r), [1]);
        // Record 1 is newest for two keys: one superseder leaves it named.
        r.name(loc(3), &[((1, 0), 8, ())]);
        assert_eq!(named(&r), [1, 3]);
        r.name(loc(4), &[((1, 1), 9, ())]);
        assert_eq!(named(&r), [3, 4]);
    }

    /// A recovery names the records some key's newest fact came from,
    /// and later records supersede them as a flush would.
    #[test]
    fn recovered_records_keep_their_counts() {
        let locs = [loc(1), loc(2), loc(3)];
        let mut r = MapRecords::new(&locs, [((1, 0), 4, 0), ((1, 1), 6, 2)]);
        assert_eq!(named(&r), [1, 3]);
        r.name(loc(4), &[((1, 0), 9, ())]);
        assert_eq!(named(&r), [3, 4]);
    }
}
