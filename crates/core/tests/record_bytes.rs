//! The bytes of every durable record kind, pinned.
//!
//! Each record kind is encoded from one fixed instance and compared
//! against the length and `block_hash` of the bytes the format has
//! always produced for it. Records outlive the code that wrote them — an
//! NVRAM intent is replayed, a checkpoint and an AU header are read at
//! the next cold start — so a refactor of the codecs must leave every
//! one of these lines as it is.
//!
//! The map log record is pinned as hex, and rebuilt by decoding that
//! hex: the test names no log-record type, so it holds for every shape
//! `decode_log_record` has returned.
//!
//! Re-pinned once, on purpose, when padded data stripes stopped
//! programming their padding: a checkpoint's segment row gained a count
//! of its stripes written short, and those stripes' fills after its
//! columns, and a map log record gained the list of fills it carries
//! after its page. Every other kind's bytes stayed as they were.

use purity_core::bootregion::{Checkpoint, PatchLoc, SnapMeta, VolumeMeta};
use purity_core::records::{
    decode_log_record, encode_cluster_config, encode_intent, encode_intent_parts,
    encode_log_record, encode_meta, encode_recovery_seal, encode_repl_cursor, ClusterConfigRecord,
    ClusterMember, MapFact, MapLogRecord, MediumFact, MemberStatus, MetaIntent, MetaOp, ReplCursor,
    WriteIntent,
};
use purity_core::segment::{AuHeader, Fill};
use purity_core::types::{AuId, SegmentId};
use purity_core::MediumId;
use purity_dedup::hash::block_hash;
use purity_format::Page;

/// `(name, length, block_hash)` of each pinned encoding.
const PINNED: &[(&str, usize, u64)] = &[
    ("write intent", 80, 0x7c3b3a748fcdbafa),
    ("meta op 0", 20, 0x42127a4765276a8d),
    ("meta op 1", 25, 0x4c1363b2bfbc60e8),
    ("meta op 2", 31, 0xe00638e016349d73),
    ("meta op 3", 16, 0x89e291bd64b96bc6),
    ("meta op 4", 16, 0x969e278b07b1cede),
    ("seal", 11, 0xbd2980455a81aa97),
    ("repl cursor, base Some(6)", 18, 0xfd0da8eb1a0771e6),
    ("repl cursor, base None", 18, 0x5d89dbf698044817),
    ("cluster config", 26, 0xd1ef6cc446478d0e),
    ("checkpoint", 254, 0x3fa92391a7ec8858),
    ("au header", 4096, 0x5f04c66ad49ce3ac),
];

/// The map log record: table tag 1, a three-row page, one fill, the
/// checksum.
const LOG_RECORD_HEX: &str = concat!(
    "0103080001010201080001a4b902000103000180200001bc05020100010100a068",
    "010305f1a204c8bc48902c777a6a",
);

/// The pinned record's fill list: one fill, of segment 3's stripe 5,
/// holding 70 001 bytes, as varints.
const FILL_BYTES: [u8; 6] = [1, 3, 5, 0xf1, 0xa2, 0x04];

fn meta_ops() -> Vec<MetaOp> {
    vec![
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
            size_sectors: 1 << 30,
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
    ]
}

fn columns() -> Vec<AuId> {
    (0..9)
        .map(|drive| AuId {
            drive,
            index: 300 + drive as u32 * 7,
        })
        .collect()
}

fn checkpoint() -> Checkpoint {
    let packed: Vec<u64> = columns().iter().map(AuId::pack).collect();
    // A hot segment row (eight fields, nine columns, then its one fill:
    // stripe 5 padded after 70 001 bytes) and a cold one whose two
    // columns are padded to the hot width with `u64::MAX`.
    let mut hot = vec![3, 1, 1 << 20, 88, 6, 1, 4096, 1];
    hot.extend_from_slice(&packed);
    hot.extend_from_slice(&[5, 70_001]);
    let mut cold = vec![12, 0, 65_536, 90, 1, 0, 0, 0, 11 << 32, (12 << 32) | 5];
    cold.resize(17, u64::MAX);
    let medium = |medium, target: Option<u64>, seq| {
        MediumFact {
            medium: MediumId(medium),
            start: 0,
            end: 2048,
            target: target.map(MediumId),
            target_offset: 0,
            writable: target.is_none(),
            seq,
        }
        .to_row()
    };
    Checkpoint {
        version: 17,
        watermark: 40_000,
        high_seq: 40_123,
        next_segment: 13,
        next_medium: 7,
        next_volume: 3,
        next_snapshot: 2,
        frontier: vec![packed[0], packed[4], (10 << 32) | 77],
        segment_rows: vec![hot, cold],
        medium_rows: vec![medium(2, None, 5), medium(4, Some(2), 9)],
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
        elided_mediums: vec![(0, 1), (6, 6)],
        map_patches: vec![PatchLoc {
            segment: 3,
            log_offset: 8_176,
            len: 888,
        }],
    }
}

fn map_rows() -> Vec<[u64; MapFact::COLS]> {
    (0..3)
        .map(|i| [1, 8 + i, 40_100, 3, 4096, 700, i, u64::from(i == 2)])
        .collect()
}

/// Every record kind's encoding of its fixed instance.
fn encodings() -> Vec<(String, Vec<u8>)> {
    let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
    let intent = WriteIntent {
        seq: 40_001,
        medium: MediumId(4),
        start_sector: 2048,
        data: data.clone(),
    };
    let by_parts = encode_intent_parts(40_001, MediumId(4), 2048, &data);
    assert_eq!(by_parts, encode_intent(&intent), "one intent, two encoders");
    let mut out = vec![("write intent".to_string(), by_parts)];
    for (i, op) in meta_ops().into_iter().enumerate() {
        let seq = 40_002 + i as u64;
        out.push((format!("meta op {i}"), encode_meta(&MetaIntent { seq, op })));
    }
    out.push(("seal".into(), encode_recovery_seal(1_234)));
    for base_snapshot in [Some(6), None] {
        let cursor = ReplCursor {
            pg: 2,
            src_volume: 1,
            src_snapshot: 9,
            base_snapshot,
            next_chunk: 17,
            total_chunks: 128,
            wire_seq: 9_001,
        };
        let name = format!("repl cursor, base {base_snapshot:?}");
        out.push((name, encode_repl_cursor(&cursor)));
    }
    let statuses = [
        MemberStatus::Alive,
        MemberStatus::Suspect,
        MemberStatus::Dead,
    ];
    let config = ClusterConfigRecord {
        epoch: 12,
        placement_version: 9,
        placement_seed: 0xDEAD_BEEF,
        members: (0..3)
            .map(|node| ClusterMember {
                node,
                status: statuses[node as usize],
                incarnation: 3 * node + 1,
            })
            .collect(),
    };
    out.push(("cluster config".into(), encode_cluster_config(&config)));
    out.push(("checkpoint".into(), checkpoint().encode(9)));
    let header = AuHeader {
        segment: SegmentId(42),
        column: 3,
        columns: columns(),
        seq_lo: 40_050,
    };
    out.push(("au header".into(), header.encode(4096)));
    out
}

fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn every_record_kind_encodes_to_its_pinned_bytes() {
    let got: Vec<(String, usize, u64)> = encodings()
        .into_iter()
        .map(|(name, bytes)| (name, bytes.len(), block_hash(&bytes)))
        .collect();
    let want: Vec<(String, usize, u64)> = (PINNED.iter())
        .map(|&(name, len, hash)| (name.to_string(), len, hash))
        .collect();
    let listing: String = (got.iter())
        .map(|(name, len, hash)| format!("    ({name:?}, {len}, {hash:#018x}),\n"))
        .collect();
    assert_eq!(got, want, "encodings now:\n{listing}");
}

#[test]
fn a_map_log_record_encodes_to_its_pinned_bytes() {
    let mut page = Vec::new();
    Page::encode(&map_rows()).write_to(&mut page);
    let record = MapLogRecord {
        page: Page::encode(&map_rows()),
        fills: vec![Fill {
            segment: SegmentId(3),
            stripe: 5,
            bytes: 70_001,
        }],
    };
    let mut now = Vec::new();
    encode_log_record(&record, &mut now);
    let hex: String = now.iter().map(|b| format!("{b:02x}")).collect();
    let pinned = from_hex(LOG_RECORD_HEX);
    assert_eq!(pinned, now, "the record now: {hex}");
    assert_eq!(pinned[0], 1, "the map table's tag");
    let fills = 1 + page.len();
    assert_eq!(pinned[1..fills], page[..], "the fixed page");
    assert_eq!(pinned[fills..pinned.len() - 8], FILL_BYTES, "the fill list");
    let (record, used) = decode_log_record(&pinned).expect("the pinned record decodes");
    assert_eq!(used, pinned.len());
    let mut again = Vec::new();
    encode_log_record(&record, &mut again);
    assert_eq!(again, pinned);
}
