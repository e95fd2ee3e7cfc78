//! The chunked, resumable ship engine.
//!
//! A ship moves one snapshot delta (or a full seed) from a source
//! array to a destination volume over a [`ReplicaLink`]. The sector
//! runs that differ come from the source's medium table
//! ([`FlashArray::snapshot_diff`]); they are split into fixed-size
//! chunks and shipped strictly in order, each chunk as a
//! hash-probe message (8 B per sector) followed — only for sectors the
//! destination's dedup index cannot already produce — by a payload
//! message. Every acked chunk advances a checksummed
//! [`ReplCursor`](purity_core::records::ReplCursor) record, so a link
//! stall, destination crash, or replication-service restart resumes
//! from the last acked chunk instead of re-shipping from sector zero.
//!
//! Rewriting an un-acked chunk on resume is idempotent: the chunk is
//! re-read from the *frozen source snapshot* and rewritten whole, so a
//! torn first attempt is simply overwritten.

use crate::fabric::FabricStats;
use crate::link::{ReplicaLink, WireOutcome};
use purity_core::records::{decode_repl_cursor, encode_repl_cursor, ReplCursor};
use purity_core::{FlashArray, PurityError, Result, SnapshotId, VolumeId, SECTOR};
use purity_dedup::hash::block_hash;
use purity_sim::Nanos;

/// Sectors per wire chunk (32 KiB of payload at 512 B sectors).
pub const CHUNK_SECTORS: u64 = 64;
/// Fixed framing overhead per wire message (seq, pg, chunk index,
/// offsets, checksum).
pub const MSG_HEADER_BYTES: u64 = 24;
/// Bytes per sector hash in a probe message.
pub const HASH_BYTES: u64 = 8;

/// What one ship did. All byte counts are this ship only; wire totals
/// include retransmissions, payload/hash totals do not.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShipReport {
    /// Sectors of the volume examined by the medium diff.
    pub sectors_scanned: u64,
    /// Sectors whose payload crossed the wire (destination dedup miss).
    pub sectors_shipped: u64,
    /// Diff sectors the destination already held (hash-only transfer).
    pub dedup_hit_sectors: u64,
    /// Payload bytes shipped (misses × sector size, single copy).
    pub bytes_shipped: u64,
    /// Hash-probe bytes shipped (single copy).
    pub hash_bytes: u64,
    /// Every byte serialized onto the wire, retransmissions and
    /// headers included.
    pub bytes_on_wire: u64,
    /// Message retransmissions during this ship.
    pub retransmits: u64,
    /// Chunks in the transfer plan.
    pub chunks_total: u64,
    /// Chunks acked by the destination (== `chunks_total` iff
    /// `completed`).
    pub chunks_acked: u64,
    /// First chunk of this run — non-zero when a cursor resumed a
    /// previously stalled transfer.
    pub resumed_from_chunk: u64,
    /// Virtual time from ship start to last ack.
    pub link_time: Nanos,
    /// Whether every chunk was acked. `false` means the transfer
    /// stalled (link down past the retry budget, or the destination
    /// went away) and a cursor was persisted for resume.
    pub completed: bool,
}

/// Splits diff runs into the in-order chunk plan. The plan is a pure
/// function of the frozen snapshots, so a resumed ship recomputes the
/// identical plan and the persisted cursor's chunk index stays valid.
fn chunk_plan(runs: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut plan = Vec::new();
    for &(start, end) in runs {
        let mut at = start;
        while at < end {
            let to = (at + CHUNK_SECTORS).min(end);
            plan.push((at, to));
            at = to;
        }
    }
    plan
}

/// Ships `newer` (relative to `base`, or in full when `base` is
/// `None`) from `src` into `dst_vol` on `dst`.
///
/// `cursor_slot` is the caller's durable cursor cell: a persisted
/// [`ReplCursor`] record matching this transfer resumes it; the slot is
/// updated after every acked chunk and cleared on completion. A stall
/// is **not** an error — the report comes back with
/// `completed == false` and the cursor persisted. Errors are reserved
/// for invalid requests (unknown snapshot, cross-volume diff, unknown
/// destination volume).
#[allow(clippy::too_many_arguments)]
pub fn ship_snapshot(
    src: &mut FlashArray,
    base: Option<SnapshotId>,
    newer: SnapshotId,
    dst: &mut FlashArray,
    dst_vol: VolumeId,
    link: &mut ReplicaLink,
    cursor_slot: &mut Option<Vec<u8>>,
    pg: u64,
    stats: &mut FabricStats,
) -> Result<ShipReport> {
    let src_snap = src
        .controller()
        .snapshot_info(newer)
        .ok_or(PurityError::NoSuchSnapshot)?;
    let src_volume = src_snap.volume;
    let size_sectors = src
        .volume(src_volume)
        .map(|v| v.size_sectors)
        .ok_or(PurityError::NoSuchVolume)?;
    if dst.volume(dst_vol).is_none() {
        return Err(PurityError::NoSuchVolume);
    }
    let runs = src.snapshot_diff(base, newer)?;
    let plan = chunk_plan(&runs);

    // Both arrays and the link share one virtual "now": replication is
    // driven from whichever side is further along.
    let epoch = src.now().max(dst.now());
    let mut now = epoch;

    let mut report = ShipReport {
        sectors_scanned: size_sectors,
        chunks_total: plan.len() as u64,
        ..ShipReport::default()
    };
    let wire_before = link.stats();

    // Resume from a persisted cursor only when it describes exactly
    // this transfer; anything else (stale group, different snapshot,
    // plan-length mismatch) restarts from chunk 0.
    let mut cursor = cursor_slot
        .as_deref()
        .and_then(decode_repl_cursor)
        .filter(|c| {
            c.pg == pg
                && c.src_volume == src_volume.0
                && c.src_snapshot == newer.0
                && c.base_snapshot == base.map(|b| b.0)
                && c.total_chunks == plan.len() as u64
                && c.next_chunk <= c.total_chunks
        })
        .unwrap_or(ReplCursor {
            pg,
            src_volume: src_volume.0,
            src_snapshot: newer.0,
            base_snapshot: base.map(|b| b.0),
            next_chunk: 0,
            total_chunks: plan.len() as u64,
            wire_seq: 0,
        });
    report.resumed_from_chunk = cursor.next_chunk;
    report.chunks_acked = cursor.next_chunk;

    let persist = |cursor: &ReplCursor, slot: &mut Option<Vec<u8>>| {
        *slot = Some(encode_repl_cursor(cursor));
    };

    // The RTT series exists from the first attempt on, even one that
    // stalls before any chunk is acked.
    let rtt = "repl_chunk_rtt_ns";
    src.obs().registry.with_histogram(rtt, &[], |_| {});

    let start_chunk = cursor.next_chunk as usize;
    let mut done = true;
    for (i, &(s, e)) in plan.iter().enumerate().skip(start_chunk) {
        let n = e - s;
        let chunk_started = now;

        // Source read of the frozen snapshot. Failing here (e.g. the
        // source lost power mid-campaign) stalls the transfer.
        let bytes = match src.read_snapshot(newer, s * SECTOR as u64, (n as usize) * SECTOR) {
            Ok(b) => b,
            Err(_) => {
                persist(&cursor, cursor_slot);
                done = false;
                break;
            }
        };

        // Hash probe: ship one hash per sector, ask the destination
        // which ones it can already materialize from its dedup index.
        let probe_bytes = n * HASH_BYTES + MSG_HEADER_BYTES;
        match link.send_with_retry(probe_bytes, now) {
            WireOutcome::Delivered { acked_at, .. } => now = acked_at,
            WireOutcome::Stalled { at, .. } => {
                now = at;
                persist(&cursor, cursor_slot);
                done = false;
                break;
            }
        }
        cursor.wire_seq += 1;
        report.hash_bytes += n * HASH_BYTES;

        // Destination-side probe. A hit must byte-compare equal to the
        // source sector (the protocol checksum-verifies; a hash
        // collision is treated as a miss), so dedup can never corrupt
        // the replica.
        let mut miss_sectors = 0u64;
        for sec in 0..n as usize {
            let sector = &bytes[sec * SECTOR..(sec + 1) * SECTOR];
            let hit = dst
                .dedup_fetch_block(block_hash(sector))
                .is_some_and(|blk| blk == sector);
            if hit {
                report.dedup_hit_sectors += 1;
                stats.dedup_hit_sectors += 1;
            } else {
                miss_sectors += 1;
            }
        }

        // Payload message, only when something actually missed.
        if miss_sectors > 0 {
            let payload_bytes = miss_sectors * SECTOR as u64 + MSG_HEADER_BYTES;
            match link.send_with_retry(payload_bytes, now) {
                WireOutcome::Delivered { acked_at, .. } => now = acked_at,
                WireOutcome::Stalled { at, .. } => {
                    now = at;
                    persist(&cursor, cursor_slot);
                    done = false;
                    break;
                }
            }
            cursor.wire_seq += 1;
            report.sectors_shipped += miss_sectors;
            report.bytes_shipped += miss_sectors * SECTOR as u64;
            stats.sectors_shipped += miss_sectors;
            stats.payload_bytes += miss_sectors * SECTOR as u64;
        }

        // Apply the whole chunk on the destination. The write funnels
        // through the destination's normal front door (NVRAM intent,
        // dedup, compression), so an acked chunk is durable there.
        if dst.write(dst_vol, s * SECTOR as u64, &bytes).is_err() {
            persist(&cursor, cursor_slot);
            done = false;
            break;
        }

        // Ack: advance and persist the cursor.
        cursor.next_chunk = i as u64 + 1;
        *cursor_slot = Some(encode_repl_cursor(&cursor));
        report.chunks_acked += 1;
        stats.chunks_acked += 1;
        let registry = &src.obs().registry;
        registry.with_histogram(rtt, &[], |h| h.record(now - chunk_started));
    }

    let wire_after = link.stats();
    report.bytes_on_wire = wire_after.bytes_on_wire - wire_before.bytes_on_wire;
    report.retransmits = wire_after.retransmits - wire_before.retransmits;
    report.link_time = now - epoch;
    stats.hash_bytes += report.hash_bytes;
    stats.bytes_on_wire += report.bytes_on_wire;
    stats.retransmits += report.retransmits;
    if done {
        *cursor_slot = None;
        report.completed = true;
        stats.ships_completed += 1;
    } else {
        stats.ships_stalled += 1;
    }

    // Pull both arrays forward to the transfer's end time so their
    // flight recorders see replication in the same virtual timeline.
    for arr in [src, dst] {
        let t = arr.now();
        if now > t {
            if arr.powered() {
                arr.advance(now - t);
            } else {
                arr.clock().advance_to(now);
            }
        }
    }

    Ok(report)
}
