//! On-flash and NVRAM record formats.
//!
//! Everything durable is an immutable fact (§3.2). Three containers:
//!
//! * **NVRAM write intents** — the commit path (§4.8): the logical
//!   content of an acknowledged write plus its sequence number. Replayed
//!   at recovery for sequences newer than the checkpoint watermark.
//! * **Log records** — pyramid patches serialized into segment log
//!   stripes as dictionary-compressed [`purity_format::Page`]s (§4.9).
//! * **The checkpoint** — the boot region payload (§4.3): frontier set,
//!   persisted-patch locations, medium/volume state, elide tables, and
//!   the NVRAM trim watermark.
//!
//! Every durable record kind — these, the AU header, the replication
//! cursor and the cluster config — is written by one [`RecordWriter`]
//! and read by one [`RecordReader`].

use crate::controller::{MapKey, Stored};
use crate::segment::Fill;
use crate::types::{BlockLoc, MediumId, Pba, SegmentId};
use purity_compress::varint;
use purity_dedup::hash::block_hash;
use purity_format::Page;
use purity_lsm::Seq;

/// Builds one durable record in the frame every kind shares: a tag byte
/// or an 8-byte magic, varint fields, length-prefixed bytes and counted
/// lists, then an 8-byte content checksum. The checksum is what lets a
/// torn tail or a bit flip *decode to an error* instead of garbage — the
/// recovery paths lean on "undecodable" being a reliable signal.
pub(crate) struct RecordWriter {
    out: Vec<u8>,
    /// Where the span the checksum covers starts.
    covered: usize,
}

impl RecordWriter {
    /// A bare section appended to `out`: no tag, and a checksum (if any)
    /// over what is written from here on.
    pub(crate) fn new(out: Vec<u8>) -> Self {
        Self {
            covered: out.len(),
            out,
        }
    }

    /// A record opening with `tag`, appended to `out`; its checksum
    /// covers the tag.
    pub(crate) fn tagged(out: Vec<u8>, tag: u8) -> Self {
        let mut w = Self::new(out);
        w.out.push(tag);
        w
    }

    /// A record opening with an 8-byte `magic`; its checksum starts past
    /// the magic, which readers compare as it is.
    pub(crate) fn magic(mut out: Vec<u8>, magic: u64) -> Self {
        out.extend_from_slice(&magic.to_le_bytes());
        Self::new(out)
    }

    /// Appends a varint.
    #[inline]
    pub(crate) fn uint(&mut self, v: u64) -> &mut Self {
        varint::encode(v, &mut self.out);
        self
    }

    /// Appends `bytes` behind their length.
    pub(crate) fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.uint(bytes.len() as u64);
        self.out.extend_from_slice(bytes);
        self
    }

    /// Appends a UTF-8 string behind its length.
    pub(crate) fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Appends the count of `items`, then each as `put` writes it.
    pub(crate) fn list<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) -> &mut Self {
        self.uint(items.len() as u64);
        for item in items {
            put(self, item);
        }
        self
    }

    /// Appends the checksum and returns the record.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let h = block_hash(&self.out[self.covered..]);
        self.out.extend_from_slice(&h.to_le_bytes());
        self.out
    }

    /// The bytes written, without a checksum.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.out
    }
}

/// Reads one record a [`RecordWriter`] framed. Total on any input: every
/// read is bounds-checked, and a count is bounded by the bytes left
/// before it sizes an allocation, so damage yields `None` — never a
/// panic, never an allocation the input could not back.
pub(crate) struct RecordReader<'a> {
    input: &'a [u8],
    at: usize,
    /// Where the span the checksum covers starts.
    covered: usize,
}

impl<'a> RecordReader<'a> {
    /// A bare section (no tag, checksum over everything read).
    pub(crate) fn new(input: &'a [u8]) -> Self {
        Self {
            input,
            at: 0,
            covered: 0,
        }
    }

    /// A record that must open with `tag`.
    pub(crate) fn tagged(input: &'a [u8], tag: u8) -> Option<Self> {
        (*input.first()? == tag).then_some(Self {
            at: 1,
            ..Self::new(input)
        })
    }

    /// A record that must open with the 8-byte `magic`.
    pub(crate) fn magic(input: &'a [u8], magic: u64) -> Option<Self> {
        (*input.get(..8)? == magic.to_le_bytes()).then_some(Self {
            input,
            at: 8,
            covered: 8,
        })
    }

    /// Bytes read so far, the tag or magic included.
    pub(crate) fn consumed(&self) -> usize {
        self.at
    }

    /// Reads a varint.
    #[inline]
    pub(crate) fn uint(&mut self) -> Option<u64> {
        let (v, n) = varint::decode(self.input.get(self.at..)?)?;
        self.at += n;
        Some(v)
    }

    /// Reads length-prefixed bytes.
    pub(crate) fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = usize::try_from(self.uint()?).ok()?;
        let bytes = self.input.get(self.at..self.at.checked_add(len)?)?;
        self.at += len;
        Some(bytes)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub(crate) fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?.to_vec()).ok()
    }

    /// Reads a count of items that take at least `min_bytes` each, and
    /// then the items; `None` if the bytes left cannot hold that many.
    pub(crate) fn list<T>(
        &mut self,
        min_bytes: usize,
        item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = usize::try_from(self.uint()?).ok()?;
        self.items(n, min_bytes, item)
    }

    /// Reads `n` varints.
    pub(crate) fn row(&mut self, n: usize) -> Option<Vec<u64>> {
        self.items(n, 1, Self::uint)
    }

    fn items<T>(
        &mut self,
        n: usize,
        min_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        if n.checked_mul(min_bytes)? > self.input.len() - self.at {
            return None;
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Some(items)
    }

    /// Verifies the checksum that follows what was read; returns the
    /// record's whole length.
    pub(crate) fn finish(self) -> Option<usize> {
        let end = self.at.checked_add(8)?;
        let stored = self.input.get(self.at..end)?;
        let h = block_hash(self.input.get(self.covered..self.at)?);
        (*stored == h.to_le_bytes()).then_some(end)
    }
}

/// Map-table fact: one 512 B sector of a medium resolves to a block
/// location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapFact {
    /// Owning medium.
    pub medium: MediumId,
    /// Sector index within the medium.
    pub sector: u64,
    /// Where the data lives.
    pub loc: BlockLoc,
    /// Whether this mapping was created by deduplication (shares a
    /// cblock with other keys).
    pub deduped: bool,
    /// Sequence number of the fact.
    pub seq: Seq,
}

impl MapFact {
    /// Fixed page arity for map facts.
    pub const COLS: usize = 8;

    /// Encodes to a page row. Fixed-arity, without allocating — the bulk
    /// encoders (map-patch flush, GC patch rewrite) stream millions of
    /// these, where a heap `Vec` per row dominates the cost.
    pub fn to_row(&self) -> [u64; Self::COLS] {
        [
            self.medium.0,
            self.sector,
            self.seq,
            self.loc.pba.segment.0,
            self.loc.pba.offset,
            self.loc.pba.stored_len as u64,
            self.loc.sector as u64,
            self.deduped as u64,
        ]
    }

    /// Decodes from a page row.
    pub fn from_row(r: &[u64]) -> Self {
        Self {
            medium: MediumId(r[0]),
            sector: r[1],
            seq: r[2],
            loc: BlockLoc {
                pba: Pba {
                    segment: SegmentId(r[3]),
                    offset: r[4],
                    stored_len: r[5] as u32,
                },
                sector: r[6] as u16,
            },
            deduped: r[7] != 0,
        }
    }
}

/// Medium-table fact: one row of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediumFact {
    /// The medium the row describes.
    pub medium: MediumId,
    /// Covered sector range start.
    pub start: u64,
    /// Covered sector range end (exclusive).
    pub end: u64,
    /// Underlying medium reads fall through to, if any.
    pub target: Option<MediumId>,
    /// Offset into the target where `start` maps.
    pub target_offset: u64,
    /// Whether the medium still accepts writes in this range.
    pub writable: bool,
    /// Sequence number of the fact.
    pub seq: Seq,
}

impl MediumFact {
    /// Fixed page arity for medium facts.
    pub const COLS: usize = 8;

    /// Encodes to a page row.
    pub fn to_row(&self) -> Vec<u64> {
        vec![
            self.medium.0,
            self.start,
            self.end,
            self.target.is_some() as u64,
            self.target.map(|m| m.0).unwrap_or(0),
            self.target_offset,
            self.writable as u64,
            self.seq,
        ]
    }

    /// Decodes from a page row.
    pub fn from_row(r: &[u64]) -> Self {
        Self {
            medium: MediumId(r[0]),
            start: r[1],
            end: r[2],
            target: (r[3] != 0).then_some(MediumId(r[4])),
            target_offset: r[5],
            writable: r[6] != 0,
            seq: r[7],
        }
    }
}

/// A log record's tag: the global VBA map, the one table patched through
/// the log (segment and medium rows go to the checkpoint).
const MAP_LOG_TAG: u8 = 1;

/// A map log record: a patch of map facts, and the fills of the data
/// stripes padded since the last checkpoint. A fact's data is on flash
/// before the record that holds it, so a stripe a loaded fact points
/// into and that was padded after the checkpoint has its fill in the
/// record; one padded before it has its fill in the checkpoint's row.
#[derive(Debug, Clone)]
pub struct MapLogRecord {
    /// The facts, as a page of [`MapFact`] rows.
    pub page: Page,
    /// The fills the record carries.
    pub fills: Vec<Fill>,
}

/// Serializes a map log record onto `out`: the tag, the page's byte
/// form, the fills, then an 8-byte checksum over all of it.
pub fn encode_log_record(record: &MapLogRecord, out: &mut Vec<u8>) {
    let mut w = RecordWriter::tagged(std::mem::take(out), MAP_LOG_TAG);
    record.page.write_to(&mut w.out);
    w.list(&record.fills, |w, f| {
        w.uint(f.segment.0).uint(f.stripe).uint(f.bytes);
    });
    *out = w.finish();
}

/// Facts per map-patch record when GC rewrites the map (bounds
/// log-record size so a record always fits a segment's log space).
pub(crate) const PATCH_CHUNK_FACTS: usize = 8192;

/// Encodes the map pyramid's `(key, seq, value)` facts as patch log
/// records of at most `chunk` facts each, in order, each carrying
/// `fills` — the one encoder behind both the memtable flush (one record)
/// and GC's patch rewrite.
pub(crate) fn map_patch_records<'a>(
    facts: &'a [(MapKey, Seq, Stored)],
    chunk: usize,
    fills: &'a [Fill],
) -> impl Iterator<Item = Vec<u8>> + 'a {
    facts.chunks(chunk).map(move |facts| {
        let rows: Vec<[u64; MapFact::COLS]> = (facts.iter())
            .map(|&((medium, sector), seq, val)| {
                MapFact {
                    medium: MediumId(medium),
                    sector,
                    loc: val.loc,
                    deduped: val.deduped,
                    seq,
                }
                .to_row()
            })
            .collect();
        let record = MapLogRecord {
            page: Page::encode(&rows),
            fills: fills.to_vec(),
        };
        let mut bytes = Vec::new();
        encode_log_record(&record, &mut bytes);
        bytes
    })
}

/// Decodes one map log record from the front of `input`; returns it and
/// the bytes consumed. `None` on truncation, a foreign tag, a malformed
/// page or fill list, or a checksum mismatch — a bit flip anywhere in
/// the record is detected.
pub fn decode_log_record(input: &[u8]) -> Option<(MapLogRecord, usize)> {
    let mut r = RecordReader::tagged(input, MAP_LOG_TAG)?;
    let (page, used) = Page::read_from(&input[r.at..]).ok()?;
    r.at += used;
    let fills = r.list(3, |r| {
        Some(Fill {
            segment: SegmentId(r.uint()?),
            stripe: r.uint()?,
            bytes: r.uint()?,
        })
    })?;
    Some((MapLogRecord { page, fills }, r.finish()?))
}

/// An NVRAM write intent: everything needed to replay an acknowledged
/// write whose facts have not yet reached a durable patch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteIntent {
    /// Sequence number the write committed at.
    pub seq: Seq,
    /// Target medium (the volume's writable anchor).
    pub medium: MediumId,
    /// First sector written.
    pub start_sector: u64,
    /// The original (pre-reduction) data.
    pub data: Vec<u8>,
}

/// A metadata operation committed through NVRAM (volume lifecycle,
/// snapshots, clones, destroys). Replayed at recovery like write intents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaIntent {
    /// Sequence number the operation committed at.
    pub seq: Seq,
    /// The operation.
    pub op: MetaOp,
}

/// Metadata operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaOp {
    /// Create a volume with a fresh root medium.
    CreateVolume {
        /// New volume id.
        volume: u64,
        /// Its writable anchor medium.
        medium: u64,
        /// Provisioned size in sectors.
        size_sectors: u64,
        /// Name.
        name: String,
    },
    /// Snapshot a volume: freeze its anchor, stack a new anchor.
    SnapshotVolume {
        /// New snapshot id.
        snapshot: u64,
        /// Volume snapped.
        volume: u64,
        /// The frozen (now immutable) medium.
        frozen_medium: u64,
        /// The volume's new writable anchor.
        new_anchor: u64,
        /// Snapshot name.
        name: String,
    },
    /// Clone a source medium into a brand-new volume.
    CloneToVolume {
        /// New volume id.
        volume: u64,
        /// Medium the clone layers over.
        source_medium: u64,
        /// The clone's writable anchor.
        new_anchor: u64,
        /// Size in sectors.
        size_sectors: u64,
        /// Name.
        name: String,
    },
    /// Destroy a volume (elides its anchor medium).
    DestroyVolume {
        /// Volume id.
        volume: u64,
        /// Its anchor medium (elided).
        medium: u64,
    },
    /// Destroy a snapshot (elides its medium).
    DestroySnapshot {
        /// Snapshot id.
        snapshot: u64,
        /// Its medium (elided).
        medium: u64,
    },
}

const META_TAG: u8 = 0xA8;

/// Serializes a meta intent for the NVRAM log.
pub fn encode_meta(intent: &MetaIntent) -> Vec<u8> {
    let (tag, fields, name): (u64, &[u64], &str) = match &intent.op {
        MetaOp::CreateVolume {
            volume,
            medium,
            size_sectors,
            name,
        } => (1, &[*volume, *medium, *size_sectors], name),
        MetaOp::SnapshotVolume {
            snapshot,
            volume,
            frozen_medium,
            new_anchor,
            name,
        } => (2, &[*snapshot, *volume, *frozen_medium, *new_anchor], name),
        MetaOp::CloneToVolume {
            volume,
            source_medium,
            new_anchor,
            size_sectors,
            name,
        } => (
            3,
            &[*volume, *source_medium, *new_anchor, *size_sectors],
            name,
        ),
        MetaOp::DestroyVolume { volume, medium } => (4, &[*volume, *medium], ""),
        MetaOp::DestroySnapshot { snapshot, medium } => (5, &[*snapshot, *medium], ""),
    };
    let mut w = RecordWriter::tagged(Vec::new(), META_TAG);
    w.uint(intent.seq).uint(tag);
    for &f in fields {
        w.uint(f);
    }
    w.str(name);
    w.finish()
}

/// Deserializes a meta intent.
pub fn decode_meta(input: &[u8]) -> Option<MetaIntent> {
    let mut r = RecordReader::tagged(input, META_TAG)?;
    let seq = r.uint()?;
    let tag = r.uint()?;
    let n_fields = match tag {
        1 => 3,
        2 | 3 => 4,
        4 | 5 => 2,
        _ => return None,
    };
    let mut f = [0; 4];
    for v in &mut f[..n_fields] {
        *v = r.uint()?;
    }
    let name = r.string()?;
    r.finish()?;
    let op = match tag {
        1 => MetaOp::CreateVolume {
            volume: f[0],
            medium: f[1],
            size_sectors: f[2],
            name,
        },
        2 => MetaOp::SnapshotVolume {
            snapshot: f[0],
            volume: f[1],
            frozen_medium: f[2],
            new_anchor: f[3],
            name,
        },
        3 => MetaOp::CloneToVolume {
            volume: f[0],
            source_medium: f[1],
            new_anchor: f[2],
            size_sectors: f[3],
            name,
        },
        4 => MetaOp::DestroyVolume {
            volume: f[0],
            medium: f[1],
        },
        _ => MetaOp::DestroySnapshot {
            snapshot: f[0],
            medium: f[1],
        },
    };
    Some(MetaIntent { seq, op })
}

const REPL_CURSOR_TAG: u8 = 0xA9;

/// A durable replication cursor: how far a snapshot transfer to a
/// replica has been acknowledged. Persisted by the replication fabric
/// (`purity-repl`) after every chunk ack so a transfer interrupted by a
/// link flap or a crash resumes from the last acked chunk instead of
/// restarting. Like every durable record it is checksummed: a torn or
/// bit-flipped cursor decodes to `None` and the transfer restarts from
/// scratch — safe, just slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplCursor {
    /// Protection-group id the transfer belongs to.
    pub pg: u64,
    /// Source volume being replicated.
    pub src_volume: u64,
    /// The source snapshot being shipped.
    pub src_snapshot: u64,
    /// The base snapshot the delta was computed against (`None` for a
    /// full seed), encoded as id+1 with 0 meaning none.
    pub base_snapshot: Option<u64>,
    /// Next chunk index to ship; chunks below this are fully acked.
    pub next_chunk: u64,
    /// Total chunks in the transfer plan — resume re-derives the plan
    /// from the medium diff and must find the same count, or the cursor
    /// is stale and the transfer restarts.
    pub total_chunks: u64,
    /// Wire sequence number of the last acked message.
    pub wire_seq: u64,
}

/// Serializes a replication cursor (checksummed).
pub fn encode_repl_cursor(c: &ReplCursor) -> Vec<u8> {
    let mut w = RecordWriter::tagged(Vec::new(), REPL_CURSOR_TAG);
    w.uint(c.pg)
        .uint(c.src_volume)
        .uint(c.src_snapshot)
        .uint(c.base_snapshot.map_or(0, |s| s + 1))
        .uint(c.next_chunk)
        .uint(c.total_chunks)
        .uint(c.wire_seq);
    w.finish()
}

/// Deserializes a replication cursor. `None` on truncation, a foreign
/// tag, or any bit flip.
pub fn decode_repl_cursor(input: &[u8]) -> Option<ReplCursor> {
    let mut r = RecordReader::tagged(input, REPL_CURSOR_TAG)?;
    let cursor = ReplCursor {
        pg: r.uint()?,
        src_volume: r.uint()?,
        src_snapshot: r.uint()?,
        base_snapshot: r.uint()?.checked_sub(1),
        next_chunk: r.uint()?,
        total_chunks: r.uint()?,
        wire_seq: r.uint()?,
    };
    r.finish()?;
    Some(cursor)
}

const CLUSTER_CONFIG_TAG: u8 = 0xAB;

/// Lifecycle status of one cluster member as recorded in a
/// [`ClusterConfigRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberStatus {
    /// Participating: owns shards, serves I/O, probes peers.
    Alive,
    /// Failure detector suspects it; still owns shards.
    Suspect,
    /// Confirmed dead: placement excludes it, rebuild re-ships its
    /// shards to survivors.
    Dead,
}

impl MemberStatus {
    fn to_u64(self) -> u64 {
        match self {
            MemberStatus::Alive => 0,
            MemberStatus::Suspect => 1,
            MemberStatus::Dead => 2,
        }
    }

    fn from_u64(v: u64) -> Option<Self> {
        match v {
            0 => Some(MemberStatus::Alive),
            1 => Some(MemberStatus::Suspect),
            2 => Some(MemberStatus::Dead),
            _ => None,
        }
    }
}

/// One member row of a [`ClusterConfigRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterMember {
    /// Cluster-wide node id.
    pub node: u64,
    /// Membership status at this epoch.
    pub status: MemberStatus,
    /// SWIM incarnation: bumped every time the node rejoins or refutes
    /// a suspicion, so stale suspicion can never override a newer
    /// alive claim.
    pub incarnation: u64,
}

/// The replicated cluster configuration: membership epoch, the
/// placement-map version derived from it, and per-member status.
/// Every member persists the latest record through the same checksummed
/// record machinery as write intents and replication cursors — a torn
/// or bit-flipped copy decodes to `None` and the node re-syncs its
/// config from a surviving peer instead of trusting garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfigRecord {
    /// Membership epoch; bumped on every join, confirmed death, or
    /// recovery.
    pub epoch: u64,
    /// Placement-map version in force at this epoch.
    pub placement_version: u64,
    /// Seed the placement map hashes with (cluster-lifetime constant).
    pub placement_seed: u64,
    /// Member rows, ascending by node id.
    pub members: Vec<ClusterMember>,
}

/// Serializes a cluster config record (checksummed).
pub fn encode_cluster_config(c: &ClusterConfigRecord) -> Vec<u8> {
    let mut w = RecordWriter::tagged(Vec::new(), CLUSTER_CONFIG_TAG);
    w.uint(c.epoch)
        .uint(c.placement_version)
        .uint(c.placement_seed)
        .list(&c.members, |w, m| {
            w.uint(m.node).uint(m.status.to_u64()).uint(m.incarnation);
        });
    w.finish()
}

/// Deserializes a cluster config record. `None` on truncation, a
/// foreign tag, an unknown status, or any bit flip.
pub fn decode_cluster_config(input: &[u8]) -> Option<ClusterConfigRecord> {
    let mut r = RecordReader::tagged(input, CLUSTER_CONFIG_TAG)?;
    let config = ClusterConfigRecord {
        epoch: r.uint()?,
        placement_version: r.uint()?,
        placement_seed: r.uint()?,
        members: r.list(3, |r| {
            Some(ClusterMember {
                node: r.uint()?,
                status: MemberStatus::from_u64(r.uint()?)?,
                incarnation: r.uint()?,
            })
        })?,
    };
    r.finish()?;
    Some(config)
}

const INTENT_TAG: u8 = 0xA7;
const SEAL_TAG: u8 = 0xAA;

/// Classifies an NVRAM record payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NvramEntry {
    /// A user write.
    Write(WriteIntent),
    /// A metadata operation.
    Meta(MetaIntent),
    /// A recovery seal (payload: last replayed record index). Appended
    /// after a successful NVRAM replay of a log that ended in a torn
    /// tail; an undecodable record *before* a seal is a torn tail an
    /// earlier recovery already tolerated, not data loss.
    Seal(u64),
}

/// Decodes any NVRAM record kind.
pub fn decode_nvram_entry(input: &[u8]) -> Option<NvramEntry> {
    match *input.first()? {
        INTENT_TAG => decode_intent(input).map(NvramEntry::Write),
        META_TAG => decode_meta(input).map(NvramEntry::Meta),
        SEAL_TAG => decode_recovery_seal(input).map(NvramEntry::Seal),
        _ => None,
    }
}

/// Serializes a recovery seal.
pub fn encode_recovery_seal(replayed_through: u64) -> Vec<u8> {
    let mut w = RecordWriter::tagged(Vec::new(), SEAL_TAG);
    w.uint(replayed_through);
    w.finish()
}

/// Deserializes a recovery seal. `None` on truncation or any bit flip.
pub fn decode_recovery_seal(input: &[u8]) -> Option<u64> {
    let mut r = RecordReader::tagged(input, SEAL_TAG)?;
    let through = r.uint()?;
    r.finish()?;
    Some(through)
}

/// Serializes a write intent for the NVRAM log.
pub fn encode_intent(intent: &WriteIntent) -> Vec<u8> {
    encode_intent_parts(intent.seq, intent.medium, intent.start_sector, &intent.data)
}

/// Encodes a write intent straight from its parts — the foreground
/// write path journals every chunk, and building a `WriteIntent` first
/// would copy the payload an extra time. One allocation, sized up front.
pub fn encode_intent_parts(seq: Seq, medium: MediumId, start_sector: u64, data: &[u8]) -> Vec<u8> {
    let mut w = RecordWriter::tagged(Vec::with_capacity(data.len() + 32), INTENT_TAG);
    w.uint(seq).uint(medium.0).uint(start_sector).bytes(data);
    w.finish()
}

/// Deserializes a write intent. `None` on truncation or any bit flip
/// (checksum-verified) — a torn NVRAM tail must never replay as a
/// shorter-but-plausible write.
pub fn decode_intent(input: &[u8]) -> Option<WriteIntent> {
    let mut r = RecordReader::tagged(input, INTENT_TAG)?;
    let intent = WriteIntent {
        seq: r.uint()?,
        medium: MediumId(r.uint()?),
        start_sector: r.uint()?,
        data: r.bytes()?.to_vec(),
    };
    r.finish()?;
    Some(intent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_loc() -> BlockLoc {
        BlockLoc {
            pba: Pba {
                segment: SegmentId(7),
                offset: 123_456,
                stored_len: 4096,
            },
            sector: 3,
        }
    }

    #[test]
    fn map_fact_row_round_trip() {
        let f = MapFact {
            medium: MediumId(42),
            sector: 999,
            loc: sample_loc(),
            deduped: true,
            seq: 1234,
        };
        assert_eq!(MapFact::from_row(&f.to_row()), f);
        assert_eq!(f.to_row().len(), MapFact::COLS);
    }

    #[test]
    fn medium_fact_row_round_trip() {
        for target in [None, Some(MediumId(12))] {
            let f = MediumFact {
                medium: MediumId(22),
                start: 500,
                end: 1000,
                target,
                target_offset: 2500,
                writable: target.is_none(),
                seq: 77,
            };
            assert_eq!(MediumFact::from_row(&f.to_row()), f);
        }
    }

    /// The map pyramid's form of `fact`.
    fn entry(fact: &MapFact) -> (MapKey, Seq, Stored) {
        let val = Stored::new(fact.loc, fact.deduped);
        ((fact.medium.0, fact.sector), fact.seq, val)
    }

    #[test]
    fn log_record_round_trip_with_trailing_data() {
        let facts: Vec<MapFact> = (0..50)
            .map(|i| MapFact {
                medium: MediumId(1),
                sector: i,
                loc: sample_loc(),
                deduped: false,
                seq: 100 + i,
            })
            .collect();
        let entries: Vec<_> = facts.iter().map(entry).collect();
        let fills = [
            Fill {
                segment: SegmentId(3),
                stripe: 4,
                bytes: 70_001,
            },
            Fill {
                segment: SegmentId(9),
                stripe: 0,
                bytes: 512,
            },
        ];
        let mut buf = map_patch_records(&entries, entries.len(), &fills)
            .next()
            .unwrap();
        let used = buf.len();
        buf.extend_from_slice(&[0xff; 16]);
        let (record, consumed) = decode_log_record(&buf).unwrap();
        assert_eq!(consumed, used);
        let decoded: Vec<_> = (record.page.rows::<{ MapFact::COLS }>().unwrap())
            .map(|row| MapFact::from_row(&row))
            .collect();
        assert_eq!(decoded, facts);
        assert_eq!(record.fills, fills);
    }

    #[test]
    fn empty_log_record_round_trips() {
        let mut buf = Vec::new();
        let record = MapLogRecord {
            page: Page::encode::<Vec<u64>>(&[]),
            fills: Vec::new(),
        };
        encode_log_record(&record, &mut buf);
        let (record, used) = decode_log_record(&buf).unwrap();
        assert_eq!((record.page.n_rows(), used), (0, buf.len()));
    }

    #[test]
    fn patches_split_into_chunks_in_row_order() {
        let rows: Vec<[u64; MapFact::COLS]> = (0..20u64)
            .map(|i| [1, i, i, 2, i * 512, 512, 0, 0])
            .collect();
        let entries: Vec<_> = (rows.iter())
            .map(|row| entry(&MapFact::from_row(row)))
            .collect();
        let records: Vec<Vec<u8>> = map_patch_records(&entries, 8, &[]).collect();
        assert_eq!(records.len(), 3);
        let back: Vec<[u64; MapFact::COLS]> = (records.iter())
            .flat_map(|r| {
                let (record, _) = decode_log_record(r).unwrap();
                record
                    .page
                    .rows::<{ MapFact::COLS }>()
                    .unwrap()
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(back, rows);
    }

    #[test]
    fn patch_pages_compress_dense_facts() {
        // Map facts with sequential sectors/seqs and constant fields
        // should compress far below 8 u64s per row.
        let entries: Vec<_> = (0..1000u64)
            .map(|i| {
                entry(&MapFact {
                    medium: MediumId(5),
                    sector: 1_000_000 + i,
                    loc: BlockLoc {
                        pba: Pba {
                            segment: SegmentId(3),
                            offset: i * 4096,
                            stored_len: 4096,
                        },
                        sector: 0,
                    },
                    deduped: false,
                    seq: 5000 + i,
                })
            })
            .collect();
        let raw = 1000 * MapFact::COLS * 8;
        let record = map_patch_records(&entries, entries.len(), &[])
            .next()
            .unwrap();
        assert!(
            record.len() < raw / 4,
            "page format should compress 4x+: {} vs {}",
            record.len(),
            raw
        );
    }

    /// A memtable flush shaped like `oltp_zipf`'s: 4 KiB cblocks written
    /// one to eight at a time at random spots of a 96 MiB volume, each
    /// write one seq, appended to an open segment of up to 8 MiB at the
    /// size it compressed to, sorted by key with the newest fact of each.
    /// As row-major varints these rows took 14.9 B a fact; a page, 6.4.
    #[test]
    fn a_map_patch_page_takes_at_most_8_bytes_a_fact() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const FACTS: usize = 16_384;
        let mut rng = StdRng::seed_from_u64(30);
        let mut newest = std::collections::BTreeMap::new();
        let (mut seq, mut segment, mut offset) = (40_000u64, 11u64, 0u64);
        while newest.len() < FACTS {
            seq += 1;
            let first: u64 = rng.gen_range(0..(96u64 << 20) / 4096 - 8) * 8;
            for cblock in 0..rng.gen_range(1..=8u64) {
                let stored_len = rng.gen_range(255..900u32);
                if offset + u64::from(stored_len) > 8 << 20 {
                    (segment, offset) = (segment + 1, 0);
                }
                for s in 0..8u16 {
                    let fact = MapFact {
                        medium: MediumId(1),
                        sector: first + cblock * 8 + s as u64,
                        loc: BlockLoc {
                            pba: Pba {
                                segment: SegmentId(segment),
                                offset,
                                stored_len,
                            },
                            sector: s,
                        },
                        deduped: rng.gen_range(0..50) == 0,
                        seq,
                    };
                    newest.insert((fact.medium.0, fact.sector), fact);
                }
                offset += u64::from(stored_len);
            }
        }
        let facts: Vec<MapFact> = newest.into_values().take(FACTS).collect();
        let entries: Vec<_> = facts.iter().map(entry).collect();
        let record = map_patch_records(&entries, entries.len(), &[])
            .next()
            .unwrap();
        let per_fact = record.len() as f64 / FACTS as f64;
        assert!(per_fact <= 8.0, "{per_fact:.2} B a fact");
        let (record, _) = decode_log_record(&record).unwrap();
        let rows = record.page.rows::<{ MapFact::COLS }>().unwrap();
        assert!(rows.map(|row| MapFact::from_row(&row)).eq(facts));
    }

    #[test]
    fn intent_round_trip() {
        let intent = WriteIntent {
            seq: 555,
            medium: MediumId(9),
            start_sector: 2048,
            data: (0..1024u32).map(|i| i as u8).collect(),
        };
        let bytes = encode_intent(&intent);
        assert_eq!(decode_intent(&bytes), Some(intent));
    }

    #[test]
    fn corrupt_intents_are_rejected() {
        let intent = WriteIntent {
            seq: 1,
            medium: MediumId(1),
            start_sector: 0,
            data: vec![1, 2, 3],
        };
        let bytes = encode_intent(&intent);
        assert_eq!(decode_intent(&bytes[..bytes.len() - 1]), None, "truncated");
        let mut bad = bytes.clone();
        bad[0] = 0;
        assert_eq!(decode_intent(&bad), None, "bad tag");
    }
}

#[cfg(test)]
mod meta_tests {
    use super::*;

    #[test]
    fn meta_intents_round_trip() {
        let ops = vec![
            MetaOp::CreateVolume {
                volume: 1,
                medium: 2,
                size_sectors: 4096,
                name: "db".into(),
            },
            MetaOp::SnapshotVolume {
                snapshot: 3,
                volume: 1,
                frozen_medium: 2,
                new_anchor: 4,
                name: "nightly".into(),
            },
            MetaOp::CloneToVolume {
                volume: 5,
                source_medium: 2,
                new_anchor: 6,
                size_sectors: 4096,
                name: "dev-clone".into(),
            },
            MetaOp::DestroyVolume {
                volume: 5,
                medium: 6,
            },
            MetaOp::DestroySnapshot {
                snapshot: 3,
                medium: 2,
            },
        ];
        for (i, op) in ops.into_iter().enumerate() {
            let intent = MetaIntent {
                seq: 100 + i as u64,
                op,
            };
            let bytes = encode_meta(&intent);
            assert_eq!(decode_meta(&bytes), Some(intent.clone()));
            assert_eq!(decode_nvram_entry(&bytes), Some(NvramEntry::Meta(intent)));
        }
    }

    #[test]
    fn repl_cursor_round_trips_and_rejects_corruption() {
        for base in [None, Some(7u64)] {
            let c = ReplCursor {
                pg: 3,
                src_volume: 11,
                src_snapshot: 42,
                base_snapshot: base,
                next_chunk: 17,
                total_chunks: 128,
                wire_seq: 9001,
            };
            let bytes = encode_repl_cursor(&c);
            assert_eq!(decode_repl_cursor(&bytes), Some(c));
            assert_eq!(decode_repl_cursor(&bytes[..bytes.len() - 1]), None);
            let mut bad = bytes.clone();
            bad[2] ^= 0x40;
            assert_eq!(decode_repl_cursor(&bad), None, "bit flip must be caught");
        }
    }

    #[test]
    fn cluster_config_round_trips_and_rejects_corruption() {
        let c = ClusterConfigRecord {
            epoch: 12,
            placement_version: 9,
            placement_seed: 0xDEAD_BEEF,
            members: vec![
                ClusterMember {
                    node: 0,
                    status: MemberStatus::Alive,
                    incarnation: 3,
                },
                ClusterMember {
                    node: 1,
                    status: MemberStatus::Dead,
                    incarnation: 0,
                },
                ClusterMember {
                    node: 2,
                    status: MemberStatus::Suspect,
                    incarnation: 7,
                },
            ],
        };
        let bytes = encode_cluster_config(&c);
        assert_eq!(decode_cluster_config(&bytes), Some(c.clone()));
        assert_eq!(decode_cluster_config(&bytes[..bytes.len() - 1]), None);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert_eq!(
                decode_cluster_config(&bad),
                None,
                "bit flip at byte {i} must be caught"
            );
        }
        let empty = ClusterConfigRecord {
            epoch: 0,
            placement_version: 0,
            placement_seed: 0,
            members: vec![],
        };
        let bytes = encode_cluster_config(&empty);
        assert_eq!(decode_cluster_config(&bytes), Some(empty));
    }

    #[test]
    fn nvram_entry_dispatches_by_tag() {
        let w = WriteIntent {
            seq: 1,
            medium: MediumId(1),
            start_sector: 0,
            data: vec![9; 512],
        };
        let bytes = encode_intent(&w);
        assert_eq!(decode_nvram_entry(&bytes), Some(NvramEntry::Write(w)));
        assert_eq!(decode_nvram_entry(&[0x00, 0x01]), None);
    }
}
