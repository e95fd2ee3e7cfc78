//! Fuzz-style decode hardening: 10k mutated valid records against
//! `decode_nvram_entry` and `decode_log_record`, every single-byte flip
//! and truncation of map-patch pages, cluster config records and
//! replication cursors, and random bytes.
//!
//! Recovery treats "undecodable" as a load-bearing signal (a torn NVRAM
//! tail is *expected* to be undecodable; an undecodable mid-log record
//! is data loss). That only works if the decoders are total functions:
//! on any truncated or bit-flipped input they must return `None` —
//! never panic, never silently decode to something other than the
//! original record.

use purity_core::records::{
    decode_cluster_config, decode_log_record, decode_nvram_entry, decode_repl_cursor,
    encode_cluster_config, encode_intent, encode_log_record, encode_meta, encode_repl_cursor,
    ClusterConfigRecord, ClusterMember, LogRecord, MapFact, MemberStatus, MetaIntent, MetaOp,
    NvramEntry, ReplCursor, TableId, WriteIntent,
};
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
            let rec = LogRecord {
                table: TableId::Map,
                page: Page::encode(&rows),
            };
            let mut buf = Vec::new();
            encode_log_record(&rec, &mut buf);
            (buf, rows)
        })
        .collect()
}

fn decoded_rows(bytes: &[u8]) -> Option<Vec<[u64; MapFact::COLS]>> {
    let (rec, _) = decode_log_record(bytes)?;
    Some(rec.page.rows::<{ MapFact::COLS }>().ok()?.collect())
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

/// Random bytes, behind a real table tag and under a valid checksum, so
/// the page decoder itself meets them: it may reject them or decode
/// something, but it must never panic.
#[test]
fn random_bytes_never_panic_the_log_decoder() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut decoded = 0;
    for round in 0..20_000 {
        let len = rng.gen_range(0..200);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        if round % 2 == 0 && !bytes.is_empty() {
            bytes[0] = TableId::Map as u8;
            // A small header most of the time, so rows get decoded.
            if bytes.len() > 3 {
                bytes[1] = rng.gen_range(0..40);
                bytes[2] = rng.gen_range(0..10);
            }
            let body = bytes.len();
            let at = rng.gen_range(0..=body);
            bytes.truncate(at);
            let h = block_hash(&bytes);
            bytes.extend_from_slice(&h.to_le_bytes());
        }
        if let Some((rec, used)) = decode_log_record(&bytes) {
            assert!(used <= bytes.len());
            decoded += 1;
            if let Ok(rows) = rec.page.rows::<{ MapFact::COLS }>() {
                for row in rows.take(1000) {
                    std::hint::black_box(MapFact::from_row(&row));
                }
            }
        }
    }
    assert!(decoded > 0, "no random page got past the checksum");
}
