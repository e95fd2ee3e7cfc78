//! The boot region (§4.3, Figure 5).
//!
//! A tiny reserved area at the front of the first three drives, holding
//! the checkpoint: "the locations of the relations and allocator state
//! for the main region". Two slots alternate (A/B) so a torn checkpoint
//! write can never destroy the previous one; three mirrors tolerate the
//! same two-drive failures the data path does. The big map table is *not*
//! here — only pointers to its persisted patches, plus the small tables
//! (segments, mediums, volumes) serialized whole.

use crate::error::{PurityError, Result};
use crate::records::{MediumFact, RecordReader, RecordWriter};
use crate::segment::SegmentInfo;
use crate::shelf::{Cause, ColumnWrite, Shelf};
use crate::types::DriveId;
use purity_lsm::Seq;
use purity_sim::Nanos;

/// Drives carrying boot-region mirrors.
pub const BOOT_MIRRORS: usize = 3;

const BOOT_MAGIC: u64 = 0x5055_5249_5459_0001; // "PURITY"

/// Location of one persisted map patch inside a segment's log space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchLoc {
    /// Segment holding the log record.
    pub segment: u64,
    /// Byte offset within the segment's log space.
    pub log_offset: u64,
    /// Record length in bytes.
    pub len: u64,
}

/// Volume metadata persisted in the checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeMeta {
    /// Volume id.
    pub id: u64,
    /// Anchor (writable) medium.
    pub anchor_medium: u64,
    /// Provisioned size in sectors.
    pub size_sectors: u64,
    /// Human-readable name.
    pub name: String,
}

/// Snapshot metadata persisted in the checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapMeta {
    /// Snapshot id.
    pub id: u64,
    /// Volume it was taken from.
    pub volume: u64,
    /// The frozen medium capturing the snapshot contents.
    pub medium: u64,
    /// Human-readable name.
    pub name: String,
}

/// The checkpoint: everything recovery needs besides segment log records
/// and NVRAM.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Monotonic checkpoint version.
    pub version: u64,
    /// NVRAM records with seq <= watermark are durable elsewhere.
    pub watermark: Seq,
    /// Sequence allocation resumes above this.
    pub high_seq: Seq,
    /// Id allocation resume points.
    pub next_segment: u64,
    /// Next medium id.
    pub next_medium: u64,
    /// Next volume id.
    pub next_volume: u64,
    /// Next snapshot id.
    pub next_snapshot: u64,
    /// Packed AU ids the allocator may use (frontier ∪ speculative).
    pub frontier: Vec<u64>,
    /// Full segment table (one row per live segment): its fields, its
    /// columns padded to the stripe width, then its fills, two values
    /// each, as many as its last field counts.
    pub segment_rows: Vec<Vec<u64>>,
    /// Full medium table.
    pub medium_rows: Vec<Vec<u64>>,
    /// Volumes.
    pub volumes: Vec<VolumeMeta>,
    /// Snapshots.
    pub snapshots: Vec<SnapMeta>,
    /// Elided medium id ranges (the medium elide table).
    pub elided_mediums: Vec<(u64, u64)>,
    /// The persisted map records a recovery reads, oldest first: each
    /// holds the newest durable fact of at least one key. A record
    /// whose every fact a named record supersedes is left out.
    pub map_patches: Vec<PatchLoc>,
}

impl Checkpoint {
    /// Serializes as magic, stripe width, then the body behind its length
    /// and a trailing checksum.
    pub fn encode(&self, stripe_width: usize) -> Vec<u8> {
        let segment_cols = SegmentInfo::ROW_FIELDS + stripe_width;
        let row = |arity: usize| {
            move |w: &mut RecordWriter, row: &Vec<u64>| {
                debug_assert_eq!(row.len(), arity);
                for &v in row {
                    w.uint(v);
                }
            }
        };
        let mut body = RecordWriter::new(Vec::with_capacity(4096));
        for v in [
            self.version,
            self.watermark,
            self.high_seq,
            self.next_segment,
            self.next_medium,
            self.next_volume,
            self.next_snapshot,
        ] {
            body.uint(v);
        }
        body.list(&self.frontier, |w, &au| {
            w.uint(au);
        })
        .list(&self.segment_rows, |w, row| {
            debug_assert_eq!(row.len(), segment_cols + 2 * fills(row) as usize);
            for &v in row {
                w.uint(v);
            }
        })
        .list(&self.medium_rows, row(MediumFact::COLS))
        .list(&self.volumes, |w, v| {
            w.uint(v.id)
                .uint(v.anchor_medium)
                .uint(v.size_sectors)
                .str(&v.name);
        })
        .list(&self.snapshots, |w, s| {
            w.uint(s.id).uint(s.volume).uint(s.medium).str(&s.name);
        })
        .list(&self.elided_mediums, |w, &(a, b)| {
            w.uint(a).uint(b);
        })
        .list(&self.map_patches, |w, p| {
            w.uint(p.segment).uint(p.log_offset).uint(p.len);
        });
        let body = body.into_bytes();

        // The checksum covers the header varints too, not just the body:
        // a flipped stripe_width changes the segment rows' arity, which
        // would otherwise decode the body into garbage rows while the
        // body checksum still passed.
        let mut w = RecordWriter::magic(Vec::with_capacity(body.len() + 32), BOOT_MAGIC);
        w.uint(stripe_width as u64).bytes(&body);
        w.finish()
    }

    /// Deserializes and verifies a checkpoint. Returns `None` for
    /// missing/corrupt slots (recovery falls back to the other slot).
    pub fn decode(input: &[u8]) -> Option<(Self, usize)> {
        let mut frame = RecordReader::magic(input, BOOT_MAGIC)?;
        let stripe_width = frame.uint()?;
        let body = frame.bytes()?;
        let used = frame.finish()?;
        // A width no row could have is refused before it sizes anything.
        let segment_cols = usize::try_from(stripe_width)
            .ok()?
            .checked_add(SegmentInfo::ROW_FIELDS)?;
        let mut r = RecordReader::new(body);
        let cp = Self {
            version: r.uint()?,
            watermark: r.uint()?,
            high_seq: r.uint()?,
            next_segment: r.uint()?,
            next_medium: r.uint()?,
            next_volume: r.uint()?,
            next_snapshot: r.uint()?,
            frontier: r.list(1, RecordReader::uint)?,
            segment_rows: r.list(segment_cols, |r| {
                let mut row = r.row(segment_cols)?;
                let n = usize::try_from(fills(&row)).ok()?.checked_mul(2)?;
                row.extend(r.row(n)?);
                Some(row)
            })?,
            medium_rows: r.list(MediumFact::COLS, |r| r.row(MediumFact::COLS))?,
            volumes: r.list(4, |r| {
                Some(VolumeMeta {
                    id: r.uint()?,
                    anchor_medium: r.uint()?,
                    size_sectors: r.uint()?,
                    name: r.string()?,
                })
            })?,
            snapshots: r.list(4, |r| {
                Some(SnapMeta {
                    id: r.uint()?,
                    volume: r.uint()?,
                    medium: r.uint()?,
                    name: r.string()?,
                })
            })?,
            elided_mediums: r.list(2, |r| Some((r.uint()?, r.uint()?)))?,
            map_patches: r.list(3, |r| {
                Some(PatchLoc {
                    segment: r.uint()?,
                    log_offset: r.uint()?,
                    len: r.uint()?,
                })
            })?,
        };
        Some((cp, used))
    }
}

/// The fill count of a segment row: its last field before the columns.
fn fills(row: &[u64]) -> u64 {
    row[SegmentInfo::ROW_FIELDS - 1]
}

/// Reads/writes checkpoints to the mirrored boot-region slots.
pub struct BootRegion {
    region_bytes: usize,
    page_size: usize,
    stripe_width: usize,
    /// Boot-region writes performed (the frontier-write rate statistic).
    pub writes: u64,
}

impl BootRegion {
    /// Creates the accessor. `region_bytes` is reserved at offset 0 of
    /// each mirror drive.
    pub fn new(region_bytes: usize, page_size: usize, stripe_width: usize) -> Self {
        Self {
            region_bytes,
            page_size,
            stripe_width,
            writes: 0,
        }
    }

    fn slot_bytes(&self) -> usize {
        // Page-align slots so slot 1 starts on a programmable boundary.
        (self.region_bytes / 2 / self.page_size) * self.page_size
    }

    /// Total serialized length of a checkpoint whose prefix is `bytes`,
    /// or `None` if the prefix is not a checkpoint header.
    fn total_len(bytes: &[u8]) -> Option<usize> {
        let mut r = RecordReader::magic(bytes, BOOT_MAGIC)?;
        r.uint()?; // stripe width
        let body_len = usize::try_from(r.uint()?).ok()?;
        r.consumed().checked_add(body_len)?.checked_add(8)
    }

    /// Writes a checkpoint to slot `version % 2` on every mirror drive.
    /// Returns the completion time of the slowest mirror.
    pub fn write(&mut self, shelf: &mut Shelf, cp: &Checkpoint, now: Nanos) -> Result<Nanos> {
        let (offset, bytes) = self.slot_image(cp)?;
        // Mirror writes honour the hot group's §4.4 write pacing (at most
        // two drives busy writing at once) so checkpoints don't spike reads.
        let mirrors: Vec<ColumnWrite<'_>> = (0..BOOT_MIRRORS.min(shelf.n_drives()))
            .filter(|&d| !shelf.drive(d).is_failed())
            .map(|d| (d, offset, bytes.as_slice()))
            .collect();
        if mirrors.is_empty() {
            return Err(PurityError::Unavailable(
                "all boot-region mirrors failed".into(),
            ));
        }
        let done = shelf.write_paced(Cause::Boot, &mirrors, now).all_landed()?;
        self.writes += 1;
        Ok(done)
    }

    /// Copies the newest checkpoint the other mirrors hold onto mirror
    /// drive `d`, back from a failure, where it is newer than what `d`
    /// holds: `d` missed every checkpoint written while it was out, and
    /// a boot that finds only it would read the newest one it holds. A
    /// drive that is no mirror, or already holds the newest, is left
    /// alone.
    pub fn resilver(&self, shelf: &mut Shelf, d: DriveId, now: Nanos) -> Result<Nanos> {
        let mirrors = BOOT_MIRRORS.min(shelf.n_drives());
        if d >= mirrors {
            return Ok(now);
        }
        let (held, mut done) = self.newest_on(shelf, d, now);
        let mut best: Option<Checkpoint> = None;
        for m in (0..mirrors).filter(|&m| m != d) {
            let (cp, read) = self.newest_on(shelf, m, now);
            done = done.max(read);
            best = newer(best, cp);
        }
        let held = held.map(|cp| cp.version);
        match best {
            Some(cp) if held.is_none_or(|v| cp.version > v) => {
                let (offset, bytes) = self.slot_image(&cp)?;
                (shelf.write_paced(Cause::Boot, &[(d, offset, &bytes)], done)).all_landed()
            }
            _ => Ok(done),
        }
    }

    /// The slot offset and page-padded bytes of `cp` on a mirror.
    fn slot_image(&self, cp: &Checkpoint) -> Result<(usize, Vec<u8>)> {
        let mut bytes = cp.encode(self.stripe_width);
        if bytes.len() > self.slot_bytes() {
            return Err(PurityError::Internal(format!(
                "checkpoint {}B exceeds boot slot {}B",
                bytes.len(),
                self.slot_bytes()
            )));
        }
        bytes.resize(bytes.len().div_ceil(self.page_size) * self.page_size, 0);
        Ok(((cp.version % 2) as usize * self.slot_bytes(), bytes))
    }

    /// Reads the newest valid checkpoint across mirrors and slots.
    pub fn read(&self, shelf: &mut Shelf, now: Nanos) -> Result<(Checkpoint, Nanos)> {
        let mut best: Option<Checkpoint> = None;
        let mut done = now;
        for d in 0..BOOT_MIRRORS.min(shelf.n_drives()) {
            let (cp, read) = self.newest_on(shelf, d, now);
            done = done.max(read);
            best = newer(best, cp);
        }
        best.map(|cp| (cp, done))
            .ok_or_else(|| PurityError::Unavailable("no valid boot-region checkpoint found".into()))
    }

    /// The newest valid checkpoint in either slot of drive `d` (`None`
    /// for a failed drive or one with no readable slot), and when its
    /// reads completed.
    fn newest_on(&self, shelf: &mut Shelf, d: DriveId, now: Nanos) -> (Option<Checkpoint>, Nanos) {
        let mut best: Option<Checkpoint> = None;
        let mut done = now;
        if shelf.drive(d).is_failed() {
            return (best, done);
        }
        for slot in 0..2 {
            let offset = slot * self.slot_bytes();
            // Progressive read: first page tells us the total length.
            let first = match shelf.read_drive(d, offset, self.page_size, now) {
                Ok(read) => {
                    done = done.max(read.done);
                    read.data
                }
                Err(_) => continue, // slot never written / unreadable
            };
            let Some(total) = Self::total_len(&first) else {
                continue;
            };
            // The rest of the checkpoint, after the page already read.
            let mut bytes = first;
            let padded = total.div_ceil(self.page_size) * self.page_size;
            let rest = padded.min(self.slot_bytes()).saturating_sub(self.page_size);
            if rest > 0 {
                let at = offset + self.page_size;
                match shelf.read_drive(d, at, rest, now) {
                    Ok(read) => {
                        done = done.max(read.done);
                        bytes.extend_from_slice(&read.data);
                    }
                    Err(_) => continue,
                }
            }
            if let Some((cp, _)) = Checkpoint::decode(&bytes) {
                best = newer(best, Some(cp));
            }
        }
        (best, done)
    }
}

/// The newer of two checkpoints; `a` on a tie.
fn newer(a: Option<Checkpoint>, b: Option<Checkpoint>) -> Option<Checkpoint> {
    match (a, b) {
        (Some(a), Some(b)) if b.version > a.version => Some(b),
        (a, b) => a.or(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrayConfig;
    use crate::shelf::CrashTarget;
    use purity_sim::Clock;

    fn sample_checkpoint(version: u64) -> Checkpoint {
        Checkpoint {
            version,
            watermark: 1000,
            high_seq: 1234,
            next_segment: 5,
            next_medium: 9,
            next_volume: 2,
            next_snapshot: 3,
            frontier: vec![1, 2, 3, (7 << 32) | 4],
            segment_rows: vec![vec![0; 17], {
                // A fill count of 1: one stripe and its bytes follow the
                // nine columns.
                let mut r = vec![1; 19];
                r[0] = 3;
                r
            }],
            medium_rows: vec![vec![2; MediumFact::COLS]],
            volumes: vec![VolumeMeta {
                id: 1,
                anchor_medium: 4,
                size_sectors: 2048,
                name: "oracle-data".into(),
            }],
            snapshots: vec![SnapMeta {
                id: 1,
                volume: 1,
                medium: 2,
                name: "nightly".into(),
            }],
            elided_mediums: vec![(0, 3), (10, 10)],
            map_patches: vec![PatchLoc {
                segment: 2,
                log_offset: 0,
                len: 888,
            }],
        }
    }

    #[test]
    fn checkpoint_encode_decode_round_trips() {
        let cp = sample_checkpoint(7);
        let bytes = cp.encode(9);
        let (back, used) = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back, cp);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        let bytes = sample_checkpoint(1).encode(9);
        for i in [0usize, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(Checkpoint::decode(&bad).is_none(), "flip at {}", i);
        }
        assert!(
            Checkpoint::decode(&bytes[..bytes.len() - 2]).is_none(),
            "truncated"
        );
    }

    #[test]
    fn boot_region_survives_two_mirror_failures() {
        let cfg = ArrayConfig::test_small();
        let mut shelf = Shelf::new(&cfg, Clock::new());
        let mut boot = BootRegion::new(cfg.boot_region_bytes(), cfg.ssd_geometry.page_size, 9);
        boot.write(&mut shelf, &sample_checkpoint(1), 0).unwrap();
        shelf.drive_mut(0).fail();
        shelf.drive_mut(2).fail();
        let (cp, _) = boot.read(&mut shelf, 0).unwrap();
        assert_eq!(cp.version, 1);
    }

    #[test]
    fn newest_version_wins_across_slots() {
        let cfg = ArrayConfig::test_small();
        let mut shelf = Shelf::new(&cfg, Clock::new());
        let mut boot = BootRegion::new(cfg.boot_region_bytes(), cfg.ssd_geometry.page_size, 9);
        boot.write(&mut shelf, &sample_checkpoint(1), 0).unwrap();
        boot.write(&mut shelf, &sample_checkpoint(2), 0).unwrap();
        boot.write(&mut shelf, &sample_checkpoint(3), 0).unwrap();
        let (cp, _) = boot.read(&mut shelf, 0).unwrap();
        assert_eq!(cp.version, 3);
        assert_eq!(boot.writes, 3);
    }

    /// A checkpoint over several pages whose write power tore on the
    /// first mirror after one page: that slot's first page still names
    /// its length, its body does not decode, and the newest whole
    /// version over mirrors × slots is chosen.
    #[test]
    fn a_torn_mirror_slot_leaves_the_newest_whole_checkpoint() {
        let cfg = ArrayConfig::test_small();
        let page = cfg.ssd_geometry.page_size;
        let mut shelf = Shelf::new(&cfg, Clock::new());
        let mut boot = BootRegion::new(cfg.boot_region_bytes(), page, 9);
        let big = |version| Checkpoint {
            frontier: (0..3000).map(|au| au << 20).collect(),
            ..sample_checkpoint(version)
        };
        assert!(big(3).encode(9).len() > 2 * page);
        boot.write(&mut shelf, &big(1), 0).unwrap();
        boot.write(&mut shelf, &big(2), 0).unwrap();
        shelf.arm_power_loss(CrashTarget::BootWrite, 0, page + 100);
        assert!(boot.write(&mut shelf, &big(3), 0).is_err());
        shelf.power_restore();
        let first = shelf
            .read_drive(0, boot.slot_bytes(), page, 0)
            .unwrap()
            .data;
        assert_eq!(BootRegion::total_len(&first), Some(big(3).encode(9).len()));
        assert_eq!(boot.read(&mut shelf, 0).unwrap().0, big(2));
    }

    /// A mirror back from a failure gets the newest checkpoint written
    /// while it was out, and only then: one that already holds it, or a
    /// drive that is no mirror, costs no boot-region program.
    #[test]
    fn resilver_writes_a_mirror_only_when_it_is_behind() {
        let cfg = ArrayConfig::test_small();
        let mut shelf = Shelf::new(&cfg, Clock::new());
        let mut boot = BootRegion::new(cfg.boot_region_bytes(), cfg.ssd_geometry.page_size, 9);
        let programmed = |shelf: &Shelf| shelf.program_ledger().bytes(Cause::Boot, false);
        boot.write(&mut shelf, &sample_checkpoint(1), 0).unwrap();
        shelf.drive_mut(0).fail();
        boot.write(&mut shelf, &sample_checkpoint(2), 0).unwrap();
        shelf.drive_mut(0).revive();
        let before = programmed(&shelf);
        boot.resilver(&mut shelf, 3, 0).unwrap();
        assert_eq!(programmed(&shelf), before, "drive 3 is no mirror");
        boot.resilver(&mut shelf, 0, 0).unwrap();
        let caught_up = programmed(&shelf);
        assert!(caught_up > before);
        boot.resilver(&mut shelf, 0, 0).unwrap();
        boot.resilver(&mut shelf, 1, 0).unwrap();
        assert_eq!(programmed(&shelf), caught_up, "mirrors hold version 2");
        shelf.drive_mut(1).fail();
        shelf.drive_mut(2).fail();
        assert_eq!(boot.read(&mut shelf, 0).unwrap().0.version, 2);
    }

    #[test]
    fn all_mirrors_failed_is_unavailable() {
        let cfg = ArrayConfig::test_small();
        let mut shelf = Shelf::new(&cfg, Clock::new());
        let mut boot = BootRegion::new(cfg.boot_region_bytes(), cfg.ssd_geometry.page_size, 9);
        boot.write(&mut shelf, &sample_checkpoint(1), 0).unwrap();
        for d in 0..3 {
            shelf.drive_mut(d).fail();
        }
        assert!(matches!(
            boot.read(&mut shelf, 0),
            Err(PurityError::Unavailable(_))
        ));
    }
}
