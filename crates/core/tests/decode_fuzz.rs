//! Fuzz-style decode hardening: 10k mutated valid records against
//! `decode_nvram_entry` and `decode_log_record`, every single-byte flip
//! and truncation of map-patch pages, cluster config records,
//! replication cursors and checkpoints, and random bytes against the log
//! record, checkpoint and AU header decoders.
//!
//! Recovery treats "undecodable" as a load-bearing signal (a torn NVRAM
//! tail is *expected* to be undecodable; an undecodable mid-log record
//! is data loss). That only works if the decoders are total functions:
//! on any truncated or bit-flipped input they must return `None` —
//! never panic, never silently decode to something other than the
//! original record.

use purity_compress::varint;
use purity_core::bootregion::{Checkpoint, PatchLoc, SnapMeta, VolumeMeta};
use purity_core::records::{
    decode_cluster_config, decode_log_record, decode_nvram_entry, decode_repl_cursor,
    encode_cluster_config, encode_intent, encode_log_record, encode_meta, encode_repl_cursor,
    ClusterConfigRecord, ClusterMember, MapFact, MapLogRecord, MemberStatus, MetaIntent, MetaOp,
    NvramEntry, ReplCursor, WriteIntent,
};
use purity_core::segment::{AuHeader, Fill, AU_HEADER_MAGIC};
use purity_core::types::SegmentId;
use purity_core::MediumId;
use purity_dedup::hash::block_hash;
use purity_format::Page;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One mutation: truncate to a random prefix, flip a random bit, or
/// both. Returns `None` when the mutation was a no-op.
fn mutate(rng: &mut StdRng, orig: &[u8]) -> Option<Vec<u8>> {
    let mut bytes = orig.to_vec();
    match rng.gen_range(0..3) {
        0 => {
            let keep = rng.gen_range(0..bytes.len());
            bytes.truncate(keep);
        }
        1 => {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= 1u8 << rng.gen_range(0..8u32);
        }
        _ => {
            let keep = rng.gen_range(0..bytes.len());
            bytes.truncate(keep);
            if !bytes.is_empty() {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1u8 << rng.gen_range(0..8u32);
            }
        }
    }
    (bytes != orig).then_some(bytes)
}

fn sample_intents(rng: &mut StdRng) -> Vec<(Vec<u8>, NvramEntry)> {
    let mut out = Vec::new();
    for _ in 0..8 {
        let data: Vec<u8> = (0..rng.gen_range(1..2048)).map(|_| rng.gen()).collect();
        let w = WriteIntent {
            seq: rng.gen_range(1..1_000_000),
            medium: MediumId(rng.gen_range(0..64)),
            start_sector: rng.gen_range(0..1 << 20),
            data,
        };
        out.push((encode_intent(&w), NvramEntry::Write(w)));
    }
    let metas = vec![
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
            name: "dev".into(),
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
    for (i, op) in metas.into_iter().enumerate() {
        let m = MetaIntent {
            seq: 100 + i as u64,
            op,
        };
        out.push((encode_meta(&m), NvramEntry::Meta(m)));
    }
    out
}

#[test]
fn nvram_entry_decode_survives_10k_mutations() {
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    let corpus = sample_intents(&mut rng);
    let mut rejected = 0u32;
    for round in 0..10_000 {
        let (orig_bytes, orig_entry) = &corpus[round % corpus.len()];
        let Some(mutant) = mutate(&mut rng, orig_bytes) else {
            continue;
        };
        match decode_nvram_entry(&mutant) {
            None => rejected += 1,
            Some(got) => assert_eq!(
                &got, orig_entry,
                "round {round}: mutated record decoded to a different entry"
            ),
        }
    }
    // The checksum makes silent acceptance of a damaged record
    // essentially impossible; every mutation should be caught.
    assert!(
        rejected > 9_000,
        "expected nearly all mutants rejected, got {rejected}"
    );
}

/// Map-patch records shaped like a flush: keys in order, a few seqs and
/// segments, clustered offsets, a constant medium.
fn map_patch_corpus(rng: &mut StdRng) -> Vec<(Vec<u8>, Vec<[u64; MapFact::COLS]>)> {
    (0..8u64)
        .map(|i| {
            let rows: Vec<[u64; MapFact::COLS]> = (0..rng.gen_range(1..60u64))
                .map(|r| {
                    let seq = 1000 + i * 100 + r / 8;
                    [
                        3,
                        i * 4096 + r,
                        seq,
                        7 + r / 40,
                        (r / 8) * 700,
                        650,
                        r % 8,
                        0,
                    ]
                })
                .collect();
            // Each record carries a fill, so damage to the fill list is
            // exercised too.
            let record = MapLogRecord {
                page: Page::encode(&rows),
                fills: vec![Fill {
                    segment: SegmentId(7 + i),
                    stripe: i,
                    bytes: i * 4096 + 1,
                }],
            };
            let mut buf = Vec::new();
            encode_log_record(&record, &mut buf);
            (buf, rows)
        })
        .collect()
}

fn decoded_rows(bytes: &[u8]) -> Option<Vec<[u64; MapFact::COLS]>> {
    let (record, _) = decode_log_record(bytes)?;
    Some(record.page.rows::<{ MapFact::COLS }>().ok()?.collect())
}

#[test]
fn log_record_decode_survives_10k_mutations() {
    let mut rng = StdRng::seed_from_u64(0x106_F422);
    let corpus = map_patch_corpus(&mut rng);
    let mut rejected = 0u32;
    for round in 0..10_000 {
        let (orig, orig_rows) = &corpus[round % corpus.len()];
        let Some(mutant) = mutate(&mut rng, orig) else {
            continue;
        };
        assert_eq!(
            decoded_rows(orig).as_ref(),
            Some(orig_rows),
            "pristine decodes"
        );
        match decoded_rows(&mutant) {
            None => rejected += 1,
            Some(got) => assert_eq!(
                &got, orig_rows,
                "round {round}: mutated log record decoded to different rows"
            ),
        }
    }
    assert!(
        rejected > 9_000,
        "expected nearly all mutants rejected, got {rejected}"
    );
}

/// Every truncation of `orig`, and every single-byte flip (each bit,
/// and all eight), is refused by `decodes`.
fn assert_every_flip_and_truncation_rejected(orig: &[u8], decodes: impl Fn(&[u8]) -> bool) {
    for keep in 0..orig.len() {
        assert!(!decodes(&orig[..keep]), "truncated to {keep}");
    }
    for i in 0..orig.len() {
        for flip in (0..8).map(|b| 1u8 << b).chain([0xff]) {
            let mut bad = orig.to_vec();
            bad[i] ^= flip;
            assert!(
                !decodes(&bad),
                "byte {i} ^ {flip:#04x} of {} decoded",
                orig.len()
            );
        }
    }
}

#[test]
fn every_byte_flip_and_truncation_of_a_map_patch_is_rejected() {
    let mut rng = StdRng::seed_from_u64(0xF11B);
    for (orig, _) in map_patch_corpus(&mut rng) {
        assert_every_flip_and_truncation_rejected(&orig, |b| decode_log_record(b).is_some());
    }
}

/// Cluster config records as replication writes them: a few epochs,
/// every member status, incarnations past one byte.
fn cluster_config_corpus(rng: &mut StdRng) -> Vec<Vec<u8>> {
    let statuses = [
        MemberStatus::Alive,
        MemberStatus::Suspect,
        MemberStatus::Dead,
    ];
    (0..8u64)
        .map(|i| {
            let members = (0..i % 5)
                .map(|node| ClusterMember {
                    node,
                    status: statuses[rng.gen_range(0..3usize)],
                    incarnation: rng.gen_range(0..1000),
                })
                .collect();
            encode_cluster_config(&ClusterConfigRecord {
                epoch: 1 + i,
                placement_version: rng.gen_range(1..1 << 20),
                placement_seed: rng.gen(),
                members,
            })
        })
        .collect()
}

/// Replication cursors mid-transfer, full seeds and deltas.
fn repl_cursor_corpus(rng: &mut StdRng) -> Vec<Vec<u8>> {
    (0..8u64)
        .map(|i| {
            let total_chunks = rng.gen_range(1..5000);
            encode_repl_cursor(&ReplCursor {
                pg: i,
                src_volume: rng.gen_range(0..64),
                src_snapshot: rng.gen_range(0..1 << 16),
                base_snapshot: (i % 2 == 1).then(|| rng.gen_range(0..1 << 16)),
                next_chunk: rng.gen_range(0..=total_chunks),
                total_chunks,
                wire_seq: rng.gen(),
            })
        })
        .collect()
}

#[test]
fn every_byte_flip_and_truncation_of_a_cluster_record_is_rejected() {
    let mut rng = StdRng::seed_from_u64(0xC1A5);
    for orig in cluster_config_corpus(&mut rng) {
        assert!(decode_cluster_config(&orig).is_some(), "pristine decodes");
        assert_every_flip_and_truncation_rejected(&orig, |b| decode_cluster_config(b).is_some());
    }
    for orig in repl_cursor_corpus(&mut rng) {
        assert!(decode_repl_cursor(&orig).is_some(), "pristine decodes");
        assert_every_flip_and_truncation_rejected(&orig, |b| decode_repl_cursor(b).is_some());
    }
}

/// A checkpoint with every list non-empty, one segment row padded for
/// a cold segment.
fn sample_checkpoint() -> Checkpoint {
    // A hot row with one fill (its count is the eighth field; the stripe
    // and bytes follow the columns) and a cold row with none.
    let mut hot_row: Vec<u64> = (0..17).map(|c| 1 + c * 1000).collect();
    hot_row[7] = 1;
    hot_row.extend([5, 70_001]);
    let mut cold_row = vec![12, 0, 65_536, 90, 1, 0, 0, 0, 11 << 32, 12 << 32];
    cold_row.resize(17, u64::MAX);
    Checkpoint {
        version: 9,
        watermark: 4_000,
        high_seq: 4_100,
        next_segment: 13,
        next_medium: 7,
        next_volume: 3,
        next_snapshot: 2,
        frontier: vec![1, (3 << 32) | 40, (8 << 32) | 300],
        segment_rows: vec![hot_row, cold_row],
        medium_rows: vec![vec![2, 0, 2048, 0, 0, 0, 1, 5]],
        volumes: vec![VolumeMeta {
            id: 1,
            anchor_medium: 2,
            size_sectors: 2048,
            name: "oracle-data".into(),
        }],
        snapshots: vec![SnapMeta {
            id: 1,
            volume: 1,
            medium: 4,
            name: "nightly".into(),
        }],
        elided_mediums: vec![(5, 6)],
        map_patches: vec![PatchLoc {
            segment: 12,
            log_offset: 8_176,
            len: 700,
        }],
    }
}

#[test]
fn every_byte_flip_and_truncation_of_a_checkpoint_is_rejected() {
    let cp = sample_checkpoint();
    let orig = cp.encode(9);
    assert_eq!(Checkpoint::decode(&orig), Some((cp, orig.len())));
    assert_every_flip_and_truncation_rejected(&orig, |b| Checkpoint::decode(b).is_some());
}

/// Random bytes meet each decoder a cold start runs, past its framing:
/// a log record behind the map tag and under a valid checksum, so the
/// page decoder itself meets them; a checkpoint body under a valid
/// frame and checksum; an AU header page after the magic, which carries
/// no checksum at all. Each may reject them or decode something, but
/// must never panic.
#[test]
fn random_bytes_never_panic_the_decoders() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let boot_magic = Checkpoint::default().encode(9)[..8].to_vec();
    let (mut logs, mut checkpoints, mut headers) = (0, 0, 0);
    for round in 0..20_000 {
        let len = rng.gen_range(0..200);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        if round % 2 == 0 && !bytes.is_empty() {
            bytes[0] = 1; // the map table's tag
                          // A small header most of the time, so rows get decoded.
            if bytes.len() > 3 {
                bytes[1] = rng.gen_range(0..40);
                bytes[2] = rng.gen_range(0..10);
            }
            let body = bytes.len();
            let at = rng.gen_range(0..=body);
            bytes.truncate(at);
            // A short fill list after where the page may end.
            let fills = rng.gen_range(0..3);
            bytes.push(fills);
            bytes.extend((0..3 * fills).map(|_| rng.gen_range(0..0x80u8)));
            let h = block_hash(&bytes);
            bytes.extend_from_slice(&h.to_le_bytes());
        }
        if let Some((record, used)) = decode_log_record(&bytes) {
            assert!(used <= bytes.len());
            logs += 1;
            if let Ok(rows) = record.page.rows::<{ MapFact::COLS }>() {
                for row in rows.take(1000) {
                    std::hint::black_box(MapFact::from_row(&row));
                }
            }
        }

        // Small counts most of the time, so lists get decoded; in one
        // round of four every byte is small, so whole bodies do (a
        // segment row's fill count sizes the rest of its row).
        let share = if round % 4 == 1 { 1 } else { 4 };
        for b in bytes.iter_mut().filter(|_| rng.gen_range(0..share) == 0) {
            *b &= 0x07;
        }
        let mut frame = boot_magic.clone();
        varint::encode(rng.gen_range(0..12), &mut frame);
        varint::encode(bytes.len() as u64, &mut frame);
        frame.extend_from_slice(&bytes);
        let h = block_hash(&frame[8..]);
        frame.extend_from_slice(&h.to_le_bytes());
        if let Some((cp, used)) = Checkpoint::decode(&frame) {
            assert_eq!(used, frame.len());
            checkpoints += 1;
            std::hint::black_box(cp);
        }

        let mut page = AU_HEADER_MAGIC.to_le_bytes().to_vec();
        page.extend_from_slice(&bytes);
        headers += usize::from(AuHeader::decode(&page).is_some());
    }
    assert!(logs > 0, "no random page got past the checksum");
    assert!(checkpoints > 0, "no random body decoded to a checkpoint");
    assert!(headers > 0, "no random page decoded to an AU header");
}
