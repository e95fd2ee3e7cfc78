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

use crate::types::{BlockLoc, MediumId, Pba, SegmentId};
use purity_compress::varint;
use purity_dedup::hash::block_hash;
use purity_format::Page;
use purity_lsm::Seq;

/// Appends an 8-byte content checksum over everything already in `out`
/// starting at `from`. Every durable record carries one so that torn
/// tails and bit flips *decode to an error* instead of garbage — the
/// recovery paths lean on "undecodable" being a reliable signal.
fn put_checksum(out: &mut Vec<u8>, from: usize) {
    let h = block_hash(&out[from..]);
    out.extend_from_slice(&h.to_le_bytes());
}

/// Verifies the 8-byte checksum at `input[at..at + 8]` over
/// `input[..at]`. Returns the total length consumed (body + checksum).
fn check_checksum(input: &[u8], at: usize) -> Option<usize> {
    let stored = input.get(at..at + 8)?;
    let h = block_hash(&input[..at]);
    if stored != h.to_le_bytes() {
        return None;
    }
    Some(at + 8)
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

    /// Encodes to a page row.
    pub fn to_row(&self) -> Vec<u64> {
        self.to_row_fixed().to_vec()
    }

    /// Encodes to a fixed-arity row without allocating — the bulk
    /// encoders (map-patch flush, GC patch rewrite) stream millions of
    /// these, where a heap `Vec` per row dominates the cost.
    pub fn to_row_fixed(&self) -> [u64; Self::COLS] {
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

/// Segment-table fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentFact {
    /// The segment described.
    pub segment: SegmentId,
    /// Lifecycle state.
    pub state: SegmentState,
    /// AUs making up the stripe, in column order (data then parity).
    pub columns: Vec<u64>,
    /// Bytes of user data the segment holds (capacity used, not live).
    pub data_bytes: u64,
    /// Data stripes flushed (from the front).
    pub data_stripes: u64,
    /// Log stripes flushed (from the back).
    pub log_stripes: u64,
    /// Bytes of log records written.
    pub log_bytes: u64,
    /// Sequence number of the fact.
    pub seq: Seq,
}

/// Segment lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentState {
    /// Accepting appends.
    Open,
    /// Fully written; immutable until GC frees it.
    Sealed,
    /// Freed by GC; its AUs are reusable.
    Free,
}

impl SegmentState {
    fn to_u64(self) -> u64 {
        match self {
            SegmentState::Open => 0,
            SegmentState::Sealed => 1,
            SegmentState::Free => 2,
        }
    }

    fn from_u64(v: u64) -> Self {
        match v {
            0 => SegmentState::Open,
            1 => SegmentState::Sealed,
            _ => SegmentState::Free,
        }
    }
}

/// The value of a column slot a narrower segment leaves empty: a cold
/// segment has one column per cold drive, fewer than a hot stripe.
const NO_COLUMN: u64 = u64::MAX;

impl SegmentFact {
    /// Page arity for a given stripe width.
    pub fn cols(stripe_width: usize) -> usize {
        7 + stripe_width
    }

    /// Encodes to a page row of [`SegmentFact::cols`]`(stripe_width)`.
    pub fn to_row(&self, stripe_width: usize) -> Vec<u64> {
        let mut row = vec![
            self.segment.0,
            self.state.to_u64(),
            self.data_bytes,
            self.seq,
            self.data_stripes,
            self.log_stripes,
            self.log_bytes,
        ];
        row.extend_from_slice(&self.columns);
        row.resize(Self::cols(stripe_width), NO_COLUMN);
        row
    }

    /// Decodes from a page row.
    pub fn from_row(r: &[u64]) -> Self {
        Self {
            segment: SegmentId(r[0]),
            state: SegmentState::from_u64(r[1]),
            data_bytes: r[2],
            seq: r[3],
            data_stripes: r[4],
            log_stripes: r[5],
            log_bytes: r[6],
            columns: r[7..].iter().copied().filter(|&c| c != NO_COLUMN).collect(),
        }
    }
}

/// A pyramid patch persisted as a log record: which table it belongs to
/// plus its facts as a dictionary-compressed page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableId {
    /// The global VBA map.
    Map = 1,
    /// The medium table.
    Medium = 2,
    /// The segment table.
    Segment = 3,
}

impl TableId {
    fn from_u64(v: u64) -> Option<Self> {
        match v {
            1 => Some(TableId::Map),
            2 => Some(TableId::Medium),
            3 => Some(TableId::Segment),
            _ => None,
        }
    }
}

/// One log record: a serialized patch of `table` facts.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// Which pyramid the facts belong to.
    pub table: TableId,
    /// Facts, one per row, in the table's row format.
    pub rows: Vec<Vec<u64>>,
}

/// Serializes a log record: tag, row count, arity, the row-major varint
/// stream, then an 8-byte checksum over all of it.
pub fn encode_log_record(rec: &LogRecord, out: &mut Vec<u8>) {
    let arity = rec.rows.first().map(|r| r.len()).unwrap_or(0);
    encode_log_record_rows(
        rec.table,
        arity,
        rec.rows.len(),
        rec.rows.iter().map(|r| r.as_slice()),
        out,
    );
}

/// Facts per map-patch record when GC rewrites the map (bounds
/// log-record size so a record always fits a segment's log space).
pub(crate) const PATCH_CHUNK_FACTS: usize = 8192;

/// Encodes map-fact rows as patch log records of at most `chunk` facts
/// each, in row order — the one encoder behind both the memtable flush
/// (one record) and GC's patch rewrite.
pub(crate) fn map_patch_records(
    rows: &[[u64; MapFact::COLS]],
    chunk: usize,
) -> impl Iterator<Item = Vec<u8>> + '_ {
    rows.chunks(chunk).map(|rows| {
        let mut bytes = Vec::with_capacity(rows.len() * MapFact::COLS * 4 + 64);
        encode_log_record_rows(TableId::Map, MapFact::COLS, rows.len(), rows, &mut bytes);
        bytes
    })
}

/// Streaming form of [`encode_log_record`]: encodes `n_rows` fixed-arity
/// rows straight into `out` without materializing a `Vec<Vec<u64>>`.
/// Byte-identical to the non-streaming form for the same rows.
pub fn encode_log_record_rows<R: AsRef<[u64]>, I: IntoIterator<Item = R>>(
    table: TableId,
    arity: usize,
    n_rows: usize,
    rows: I,
    out: &mut Vec<u8>,
) {
    let start = out.len();
    varint::encode(table as u64, out);
    varint::encode(n_rows as u64, out);
    varint::encode(arity as u64, out);
    // Row-major varint stream; the Page form is used for in-memory scans,
    // varints are friendlier for a byte log. Dictionary compression of
    // persisted patches is applied by measuring Page size for stats.
    let mut seen = 0usize;
    for row in rows {
        let row = row.as_ref();
        debug_assert_eq!(row.len(), arity);
        for &v in row {
            varint::encode(v, out);
        }
        seen += 1;
    }
    debug_assert_eq!(seen, n_rows, "row iterator length must match n_rows");
    put_checksum(out, start);
}

/// Decodes one log record from the front of `input`; returns it and the
/// bytes consumed. `None` on truncation, an unknown table tag, or a
/// checksum mismatch — a bit flip anywhere in the record is detected.
pub fn decode_log_record(input: &[u8]) -> Option<(LogRecord, usize)> {
    let mut at = 0;
    let (tag, n) = varint::decode(&input[at..])?;
    at += n;
    let table = TableId::from_u64(tag)?;
    let (n_rows, n) = varint::decode(&input[at..])?;
    at += n;
    let (arity, n) = varint::decode(&input[at..])?;
    at += n;
    let mut rows = Vec::with_capacity((n_rows as usize).min(input.len()));
    for _ in 0..n_rows {
        let mut row = Vec::with_capacity(arity as usize);
        for _ in 0..arity {
            let (v, n) = varint::decode(&input[at..])?;
            at += n;
            row.push(v);
        }
        rows.push(row);
    }
    let consumed = check_checksum(input, at)?;
    Some((LogRecord { table, rows }, consumed))
}

/// Measures the dictionary-compressed size of a patch (what §4.9's page
/// format achieves) — used by stats and experiment E10.
pub fn patch_page_bytes(rows: &[Vec<u64>]) -> usize {
    Page::encode(rows).encoded_bytes()
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
    let mut out = vec![META_TAG];
    varint::encode(intent.seq, &mut out);
    let put_name = |tag: u64, fields: &[u64], name: &str, out: &mut Vec<u8>| {
        varint::encode(tag, out);
        for &f in fields {
            varint::encode(f, out);
        }
        varint::encode(name.len() as u64, out);
        out.extend_from_slice(name.as_bytes());
    };
    match &intent.op {
        MetaOp::CreateVolume {
            volume,
            medium,
            size_sectors,
            name,
        } => put_name(1, &[*volume, *medium, *size_sectors], name, &mut out),
        MetaOp::SnapshotVolume {
            snapshot,
            volume,
            frozen_medium,
            new_anchor,
            name,
        } => put_name(
            2,
            &[*snapshot, *volume, *frozen_medium, *new_anchor],
            name,
            &mut out,
        ),
        MetaOp::CloneToVolume {
            volume,
            source_medium,
            new_anchor,
            size_sectors,
            name,
        } => put_name(
            3,
            &[*volume, *source_medium, *new_anchor, *size_sectors],
            name,
            &mut out,
        ),
        MetaOp::DestroyVolume { volume, medium } => put_name(4, &[*volume, *medium], "", &mut out),
        MetaOp::DestroySnapshot { snapshot, medium } => {
            put_name(5, &[*snapshot, *medium], "", &mut out)
        }
    }
    put_checksum(&mut out, 0);
    out
}

/// Deserializes a meta intent.
pub fn decode_meta(input: &[u8]) -> Option<MetaIntent> {
    if *input.first()? != META_TAG {
        return None;
    }
    let mut at = 1;
    let next = |at: &mut usize| -> Option<u64> {
        let (v, n) = varint::decode(&input[*at..])?;
        *at += n;
        Some(v)
    };
    let seq = next(&mut at)?;
    let tag = next(&mut at)?;
    let n_fields = match tag {
        1 => 3,
        2 => 4,
        3 => 4,
        4 | 5 => 2,
        _ => return None,
    };
    let mut f = Vec::with_capacity(n_fields);
    for _ in 0..n_fields {
        f.push(next(&mut at)?);
    }
    let name_len = next(&mut at)? as usize;
    let name = String::from_utf8(input.get(at..at.checked_add(name_len)?)?.to_vec()).ok()?;
    at += name_len;
    check_checksum(input, at)?;
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
    let mut out = vec![REPL_CURSOR_TAG];
    varint::encode(c.pg, &mut out);
    varint::encode(c.src_volume, &mut out);
    varint::encode(c.src_snapshot, &mut out);
    varint::encode(c.base_snapshot.map(|s| s + 1).unwrap_or(0), &mut out);
    varint::encode(c.next_chunk, &mut out);
    varint::encode(c.total_chunks, &mut out);
    varint::encode(c.wire_seq, &mut out);
    put_checksum(&mut out, 0);
    out
}

/// Deserializes a replication cursor. `None` on truncation, a foreign
/// tag, or any bit flip.
pub fn decode_repl_cursor(input: &[u8]) -> Option<ReplCursor> {
    if *input.first()? != REPL_CURSOR_TAG {
        return None;
    }
    let mut at = 1;
    let next = |at: &mut usize| -> Option<u64> {
        let (v, n) = varint::decode(&input[*at..])?;
        *at += n;
        Some(v)
    };
    let pg = next(&mut at)?;
    let src_volume = next(&mut at)?;
    let src_snapshot = next(&mut at)?;
    let base = next(&mut at)?;
    let next_chunk = next(&mut at)?;
    let total_chunks = next(&mut at)?;
    let wire_seq = next(&mut at)?;
    check_checksum(input, at)?;
    Some(ReplCursor {
        pg,
        src_volume,
        src_snapshot,
        base_snapshot: base.checked_sub(1),
        next_chunk,
        total_chunks,
        wire_seq,
    })
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
    let mut out = vec![CLUSTER_CONFIG_TAG];
    varint::encode(c.epoch, &mut out);
    varint::encode(c.placement_version, &mut out);
    varint::encode(c.placement_seed, &mut out);
    varint::encode(c.members.len() as u64, &mut out);
    for m in &c.members {
        varint::encode(m.node, &mut out);
        varint::encode(m.status.to_u64(), &mut out);
        varint::encode(m.incarnation, &mut out);
    }
    put_checksum(&mut out, 0);
    out
}

/// Deserializes a cluster config record. `None` on truncation, a
/// foreign tag, an unknown status, or any bit flip.
pub fn decode_cluster_config(input: &[u8]) -> Option<ClusterConfigRecord> {
    if *input.first()? != CLUSTER_CONFIG_TAG {
        return None;
    }
    let mut at = 1;
    let next = |at: &mut usize| -> Option<u64> {
        let (v, n) = varint::decode(&input[*at..])?;
        *at += n;
        Some(v)
    };
    let epoch = next(&mut at)?;
    let placement_version = next(&mut at)?;
    let placement_seed = next(&mut at)?;
    let n = next(&mut at)? as usize;
    let mut members = Vec::with_capacity(n.min(input.len()));
    for _ in 0..n {
        let node = next(&mut at)?;
        let status = MemberStatus::from_u64(next(&mut at)?)?;
        let incarnation = next(&mut at)?;
        members.push(ClusterMember {
            node,
            status,
            incarnation,
        });
    }
    check_checksum(input, at)?;
    Some(ClusterConfigRecord {
        epoch,
        placement_version,
        placement_seed,
        members,
    })
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
    /// after a successful NVRAM replay; an undecodable record *before*
    /// a seal is a torn tail an earlier recovery already tolerated, not
    /// data loss.
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
    let mut out = vec![SEAL_TAG];
    varint::encode(replayed_through, &mut out);
    put_checksum(&mut out, 0);
    out
}

/// Deserializes a recovery seal. `None` on truncation or any bit flip.
pub fn decode_recovery_seal(input: &[u8]) -> Option<u64> {
    if *input.first()? != SEAL_TAG {
        return None;
    }
    let (through, n) = varint::decode(&input[1..])?;
    check_checksum(input, 1 + n)?;
    Some(through)
}

/// Serializes a write intent for the NVRAM log.
pub fn encode_intent(intent: &WriteIntent) -> Vec<u8> {
    encode_intent_parts(intent.seq, intent.medium, intent.start_sector, &intent.data)
}

/// Encodes a write intent straight from its parts — the foreground
/// write path journals every chunk, and building a `WriteIntent` first
/// would copy the payload an extra time.
pub fn encode_intent_parts(seq: Seq, medium: MediumId, start_sector: u64, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + 32);
    out.push(INTENT_TAG);
    varint::encode(seq, &mut out);
    varint::encode(medium.0, &mut out);
    varint::encode(start_sector, &mut out);
    varint::encode(data.len() as u64, &mut out);
    out.extend_from_slice(data);
    put_checksum(&mut out, 0);
    out
}

/// Deserializes a write intent. `None` on truncation or any bit flip
/// (checksum-verified) — a torn NVRAM tail must never replay as a
/// shorter-but-plausible write.
pub fn decode_intent(input: &[u8]) -> Option<WriteIntent> {
    let mut at = 0;
    if *input.first()? != INTENT_TAG {
        return None;
    }
    at += 1;
    let (seq, n) = varint::decode(&input[at..])?;
    at += n;
    let (medium, n) = varint::decode(&input[at..])?;
    at += n;
    let (start_sector, n) = varint::decode(&input[at..])?;
    at += n;
    let (len, n) = varint::decode(&input[at..])?;
    at += n;
    let data = input.get(at..at.checked_add(len as usize)?)?.to_vec();
    at += len as usize;
    check_checksum(input, at)?;
    Some(WriteIntent {
        seq,
        medium: MediumId(medium),
        start_sector,
        data,
    })
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

    #[test]
    fn segment_fact_row_round_trip() {
        let f = SegmentFact {
            segment: SegmentId(3),
            state: SegmentState::Sealed,
            columns: (0..9).map(|i| i * 1000).collect(),
            data_bytes: 1 << 20,
            data_stripes: 6,
            log_stripes: 1,
            log_bytes: 4096,
            seq: 88,
        };
        let row = f.to_row(9);
        assert_eq!(row.len(), SegmentFact::cols(9));
        assert_eq!(SegmentFact::from_row(&row), f);
        // A narrower (cold) segment pads to the checkpoint's arity.
        let mirror = SegmentFact {
            columns: vec![11 << 32, 12 << 32],
            ..f
        };
        let row = mirror.to_row(9);
        assert_eq!(row.len(), SegmentFact::cols(9));
        assert_eq!(SegmentFact::from_row(&row), mirror);
    }

    #[test]
    fn log_record_round_trip_with_trailing_data() {
        let rec = LogRecord {
            table: TableId::Map,
            rows: (0..50)
                .map(|i| {
                    MapFact {
                        medium: MediumId(1),
                        sector: i,
                        loc: sample_loc(),
                        deduped: false,
                        seq: 100 + i,
                    }
                    .to_row()
                })
                .collect(),
        };
        let mut buf = Vec::new();
        encode_log_record(&rec, &mut buf);
        let used = buf.len();
        buf.extend_from_slice(&[0xff; 16]);
        let (back, consumed) = decode_log_record(&buf).unwrap();
        assert_eq!(consumed, used);
        assert_eq!(back.rows, rec.rows);
        assert_eq!(back.table as u64, rec.table as u64);
    }

    #[test]
    fn empty_log_record_round_trips() {
        let rec = LogRecord {
            table: TableId::Segment,
            rows: vec![],
        };
        let mut buf = Vec::new();
        encode_log_record(&rec, &mut buf);
        let (back, _) = decode_log_record(&buf).unwrap();
        assert!(back.rows.is_empty());
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

    #[test]
    fn patch_pages_compress_dense_facts() {
        // Map facts with sequential sectors/seqs and constant fields
        // should compress far below 8 u64s per row.
        let rows: Vec<Vec<u64>> = (0..1000u64)
            .map(|i| {
                MapFact {
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
                }
                .to_row()
            })
            .collect();
        let raw = 1000 * MapFact::COLS * 8;
        let compressed = patch_page_bytes(&rows);
        assert!(
            compressed < raw / 4,
            "page format should compress 4x+: {} vs {}",
            compressed,
            raw
        );
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
