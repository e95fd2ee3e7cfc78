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
use crate::records::{MediumFact, SegmentFact};
use crate::shelf::{ColumnWrite, Shelf};
use purity_compress::varint;
use purity_dedup::hash::block_hash;
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
    /// Full segment table (one row per live segment).
    pub segment_rows: Vec<Vec<u64>>,
    /// Full medium table.
    pub medium_rows: Vec<Vec<u64>>,
    /// Volumes.
    pub volumes: Vec<VolumeMeta>,
    /// Snapshots.
    pub snapshots: Vec<SnapMeta>,
    /// Elided medium id ranges (the medium elide table).
    pub elided_mediums: Vec<(u64, u64)>,
    /// Persisted map-table patches, oldest first.
    pub map_patches: Vec<PatchLoc>,
}

fn encode_string(s: &str, out: &mut Vec<u8>) {
    varint::encode(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

fn decode_string(input: &[u8], at: &mut usize) -> Option<String> {
    let (len, n) = varint::decode(&input[*at..])?;
    *at += n;
    let bytes = input.get(*at..*at + len as usize)?;
    *at += len as usize;
    String::from_utf8(bytes.to_vec()).ok()
}

fn encode_rows(rows: &[Vec<u64>], arity: usize, out: &mut Vec<u8>) {
    varint::encode(rows.len() as u64, out);
    for row in rows {
        debug_assert_eq!(row.len(), arity);
        for &v in row {
            varint::encode(v, out);
        }
    }
}

fn decode_rows(input: &[u8], at: &mut usize, arity: usize) -> Option<Vec<Vec<u64>>> {
    let (n, used) = varint::decode(&input[*at..])?;
    *at += used;
    let mut rows = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            let (v, used) = varint::decode(&input[*at..])?;
            *at += used;
            row.push(v);
        }
        rows.push(row);
    }
    Some(rows)
}

impl Checkpoint {
    /// Serializes with magic, length and trailing checksum.
    pub fn encode(&self, stripe_width: usize) -> Vec<u8> {
        let mut body = Vec::with_capacity(4096);
        varint::encode(self.version, &mut body);
        varint::encode(self.watermark, &mut body);
        varint::encode(self.high_seq, &mut body);
        varint::encode(self.next_segment, &mut body);
        varint::encode(self.next_medium, &mut body);
        varint::encode(self.next_volume, &mut body);
        varint::encode(self.next_snapshot, &mut body);
        varint::encode(self.frontier.len() as u64, &mut body);
        for &f in &self.frontier {
            varint::encode(f, &mut body);
        }
        encode_rows(
            &self.segment_rows,
            SegmentFact::cols(stripe_width),
            &mut body,
        );
        encode_rows(&self.medium_rows, MediumFact::COLS, &mut body);
        varint::encode(self.volumes.len() as u64, &mut body);
        for v in &self.volumes {
            varint::encode(v.id, &mut body);
            varint::encode(v.anchor_medium, &mut body);
            varint::encode(v.size_sectors, &mut body);
            encode_string(&v.name, &mut body);
        }
        varint::encode(self.snapshots.len() as u64, &mut body);
        for s in &self.snapshots {
            varint::encode(s.id, &mut body);
            varint::encode(s.volume, &mut body);
            varint::encode(s.medium, &mut body);
            encode_string(&s.name, &mut body);
        }
        varint::encode(self.elided_mediums.len() as u64, &mut body);
        for &(a, b) in &self.elided_mediums {
            varint::encode(a, &mut body);
            varint::encode(b, &mut body);
        }
        varint::encode(self.map_patches.len() as u64, &mut body);
        for p in &self.map_patches {
            varint::encode(p.segment, &mut body);
            varint::encode(p.log_offset, &mut body);
            varint::encode(p.len, &mut body);
        }

        let mut out = Vec::with_capacity(body.len() + 32);
        out.extend_from_slice(&BOOT_MAGIC.to_le_bytes());
        varint::encode(stripe_width as u64, &mut out);
        varint::encode(body.len() as u64, &mut out);
        out.extend_from_slice(&body);
        // Checksum covers the header varints too, not just the body: a
        // flipped stripe_width changes SegmentFact arity parsing, which
        // would otherwise decode the body into garbage rows while the
        // body checksum still passed.
        out.extend_from_slice(&block_hash(&out[8..]).to_le_bytes());
        out
    }

    /// Deserializes and verifies a checkpoint. Returns `None` for
    /// missing/corrupt slots (recovery falls back to the other slot).
    pub fn decode(input: &[u8]) -> Option<(Self, usize)> {
        if input.len() < 8 || input[..8] != BOOT_MAGIC.to_le_bytes() {
            return None;
        }
        let mut at = 8;
        let (stripe_width, n) = varint::decode(&input[at..])?;
        at += n;
        let (body_len, n) = varint::decode(&input[at..])?;
        at += n;
        let body = input.get(at..at.checked_add(body_len as usize)?)?;
        let csum_at = at + body_len as usize;
        let csum_bytes = input.get(csum_at..csum_at + 8)?;
        if u64::from_le_bytes(csum_bytes.try_into().ok()?) != block_hash(&input[8..csum_at]) {
            return None;
        }
        let stripe_width = stripe_width as usize;

        let mut at = 0;
        let next = |at: &mut usize| -> Option<u64> {
            let (v, n) = varint::decode(&body[*at..])?;
            *at += n;
            Some(v)
        };
        let version = next(&mut at)?;
        let watermark = next(&mut at)?;
        let high_seq = next(&mut at)?;
        let next_segment = next(&mut at)?;
        let next_medium = next(&mut at)?;
        let next_volume = next(&mut at)?;
        let next_snapshot = next(&mut at)?;
        let n_frontier = next(&mut at)?;
        let mut frontier = Vec::with_capacity(n_frontier as usize);
        for _ in 0..n_frontier {
            frontier.push(next(&mut at)?);
        }
        let segment_rows = decode_rows(body, &mut at, SegmentFact::cols(stripe_width))?;
        let medium_rows = decode_rows(body, &mut at, MediumFact::COLS)?;
        let n_vols = next(&mut at)?;
        let mut volumes = Vec::with_capacity(n_vols as usize);
        for _ in 0..n_vols {
            let id = next(&mut at)?;
            let anchor_medium = next(&mut at)?;
            let size_sectors = next(&mut at)?;
            let name = decode_string(body, &mut at)?;
            volumes.push(VolumeMeta {
                id,
                anchor_medium,
                size_sectors,
                name,
            });
        }
        let n_snaps = next(&mut at)?;
        let mut snapshots = Vec::with_capacity(n_snaps as usize);
        for _ in 0..n_snaps {
            let id = next(&mut at)?;
            let volume = next(&mut at)?;
            let medium = next(&mut at)?;
            let name = decode_string(body, &mut at)?;
            snapshots.push(SnapMeta {
                id,
                volume,
                medium,
                name,
            });
        }
        let n_elided = next(&mut at)?;
        let mut elided_mediums = Vec::with_capacity(n_elided as usize);
        for _ in 0..n_elided {
            elided_mediums.push((next(&mut at)?, next(&mut at)?));
        }
        let n_patches = next(&mut at)?;
        let mut map_patches = Vec::with_capacity(n_patches as usize);
        for _ in 0..n_patches {
            map_patches.push(PatchLoc {
                segment: next(&mut at)?,
                log_offset: next(&mut at)?,
                len: next(&mut at)?,
            });
        }
        Some((
            Self {
                version,
                watermark,
                high_seq,
                next_segment,
                next_medium,
                next_volume,
                next_snapshot,
                frontier,
                segment_rows,
                medium_rows,
                volumes,
                snapshots,
                elided_mediums,
                map_patches,
            },
            csum_at + 8,
        ))
    }
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
        if bytes.len() < 8 || bytes[..8] != BOOT_MAGIC.to_le_bytes() {
            return None;
        }
        let mut at = 8;
        let (_, n) = varint::decode(&bytes[at..])?;
        at += n;
        let (body_len, n) = varint::decode(&bytes[at..])?;
        at += n;
        Some(at + body_len as usize + 8)
    }

    /// Writes a checkpoint to slot `version % 2` on every mirror drive.
    /// Returns the completion time of the slowest mirror.
    pub fn write(&mut self, shelf: &mut Shelf, cp: &Checkpoint, now: Nanos) -> Result<Nanos> {
        let mut bytes = cp.encode(self.stripe_width);
        if bytes.len() > self.slot_bytes() {
            return Err(PurityError::Internal(format!(
                "checkpoint {}B exceeds boot slot {}B",
                bytes.len(),
                self.slot_bytes()
            )));
        }
        // Pad to page multiple.
        let padded = bytes.len().div_ceil(self.page_size) * self.page_size;
        bytes.resize(padded, 0);
        let slot = (cp.version % 2) as usize;
        let offset = slot * self.slot_bytes();
        // Mirror writes honour the global §4.4 write pacing (at most two
        // drives busy writing at once) so checkpoints don't spike reads.
        let mirrors: Vec<ColumnWrite<'_>> = (0..BOOT_MIRRORS.min(shelf.n_drives()))
            .filter(|&d| !shelf.drive(d).is_failed())
            .map(|d| (d, offset, bytes.as_slice()))
            .collect();
        if mirrors.is_empty() {
            return Err(PurityError::Unavailable(
                "all boot-region mirrors failed".into(),
            ));
        }
        let done = shelf.write_paced(&mirrors, now).all_landed()?;
        self.writes += 1;
        Ok(done)
    }

    /// Reads the newest valid checkpoint across mirrors and slots.
    pub fn read(&self, shelf: &mut Shelf, now: Nanos) -> Result<(Checkpoint, Nanos)> {
        let mut best: Option<Checkpoint> = None;
        let mut done = now;
        for d in 0..BOOT_MIRRORS.min(shelf.n_drives()) {
            if shelf.drive(d).is_failed() {
                continue;
            }
            for slot in 0..2 {
                let offset = slot * self.slot_bytes();
                // Progressive read: first page tells us the total length.
                let first = match shelf.read_drive(d, offset, self.page_size, now) {
                    Ok((bytes, t)) => {
                        done = done.max(t);
                        bytes
                    }
                    Err(_) => continue, // slot never written / unreadable
                };
                let Some(total) = Self::total_len(&first) else {
                    continue;
                };
                let bytes = if total <= first.len() {
                    first
                } else {
                    let padded = total.div_ceil(self.page_size) * self.page_size;
                    match shelf.read_drive(d, offset, padded.min(self.slot_bytes()), now) {
                        Ok((bytes, t)) => {
                            done = done.max(t);
                            bytes
                        }
                        Err(_) => continue,
                    }
                };
                if let Some((cp, _)) = Checkpoint::decode(&bytes) {
                    if best
                        .as_ref()
                        .map(|b| cp.version > b.version)
                        .unwrap_or(true)
                    {
                        best = Some(cp);
                    }
                }
            }
        }
        best.map(|cp| (cp, done))
            .ok_or_else(|| PurityError::Unavailable("no valid boot-region checkpoint found".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrayConfig;
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
            segment_rows: vec![vec![0; SegmentFact::cols(9)], {
                let mut r = vec![1; SegmentFact::cols(9)];
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
