//! Micro-timings of single public functions of the leaf crates, on bytes
//! the workload's own generator produced. Each is the median of
//! [`BATCHES`] timed batches, so a layer regression shows up as that
//! layer's number and not only as a slower window.

use purity_dedup::hash::block_hash;
use purity_dedup::index::DedupIndex;
use purity_ecc::ReedSolomon;
use purity_format::Page;
use purity_lsm::Pyramid;
use purity_sim::{Clock, Timeline};
use purity_ssd::flash::Flash;
use purity_ssd::ftl::Ftl;
use purity_ssd::geometry::SsdGeometry;
use purity_ssd::latency::{EnduranceModel, LatencyModel};
use purity_tier::RamCache;
use purity_wkld::{Op, WorkloadGen};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub const BATCHES: usize = 30;

/// Median ns per unit over [`BATCHES`] batches; `f` does one batch and
/// returns how many units (bytes, ops, rows) it covered.
fn per_unit(mut f: impl FnMut() -> u64) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        let units = f();
        samples.push(start.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    crate::stats::median(&samples)
}

fn fresh_ftl() -> Ftl {
    Ftl::new(
        Flash::new(
            SsdGeometry::test_small(),
            LatencyModel::consumer_mlc(),
            EnduranceModel::consumer_mlc(),
            Clock::new(),
            3,
        ),
        0.25,
    )
}

/// `gen` is a generator configured like the workload's; the kernels work
/// on 256 KiB of the write payload it produces.
pub fn run(gen: &mut WorkloadGen) -> BTreeMap<String, f64> {
    let payload = &payload_from(gen, 256 * 1024)[..];
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };

    // wkld: one generated op (offset, size, payload bytes).
    put(
        "wkld.gen_ns_per_op",
        per_unit(|| {
            for _ in 0..64 {
                black_box(gen.next_op());
            }
            64
        }),
    );

    // sim: one die-timeline reservation.
    let timeline = Timeline::new();
    let mut now = 0u64;
    put(
        "sim.timeline_reserve_ns",
        per_unit(|| {
            for _ in 0..4096 {
                now += 50_000;
                black_box(timeline.reserve(black_box(now), 75_000));
            }
            4096
        }),
    );

    // ecc: 7+2 over write-unit-sized shards (32 KiB, test_small's unit).
    let rs = ReedSolomon::purity_default();
    let shards: Vec<&[u8]> = payload.chunks_exact(32 * 1024).take(7).collect();
    put(
        "ecc.encode_ns_per_byte",
        per_unit(|| {
            black_box(rs.encode(black_box(&shards)).expect("seven equal shards"));
            7 * 32 * 1024
        }),
    );
    let parity = rs.encode(&shards).expect("seven equal shards");
    let available: Vec<(usize, &[u8])> = shards
        .iter()
        .copied()
        .chain(parity.iter().map(Vec::as_slice))
        .enumerate()
        .filter(|&(i, _)| i != 3)
        .collect();
    put(
        "ecc.reconstruct_ns_per_byte",
        per_unit(|| {
            black_box(
                rs.reconstruct_one(3, black_box(&available))
                    .expect("eight of nine shards suffice"),
            );
            32 * 1024
        }),
    );

    // compress: one 32 KiB cblock each way.
    let block = &payload[..32 * 1024];
    let packed = purity_compress::compress(block);
    put(
        "compress.compress_ns_per_byte",
        per_unit(|| {
            black_box(purity_compress::compress(black_box(block)));
            block.len() as u64
        }),
    );
    put(
        "compress.decompress_ns_per_byte",
        per_unit(|| {
            black_box(purity_compress::decompress(black_box(&packed)).expect("own output decodes"));
            block.len() as u64
        }),
    );
    let packed_total: usize = payload
        .chunks(32 * 1024)
        .map(|b| purity_compress::compress(b).len())
        .sum();
    put("compress.ratio", payload.len() as f64 / packed_total as f64);

    // dedup: hash every sector of the sample; record + look up in the index.
    put(
        "dedup.hash_ns_per_byte",
        per_unit(|| {
            for sector in payload.chunks_exact(512) {
                black_box(block_hash(black_box(sector)));
            }
            payload.len() as u64
        }),
    );
    let hashes: Vec<u64> = payload.chunks_exact(512).map(block_hash).collect();
    let mut index: DedupIndex<u64> = DedupIndex::new(16 * 1024, 1024);
    put(
        "dedup.index_ns_per_op",
        per_unit(|| {
            for &h in &hashes {
                index.record_write(h, h);
                black_box(index.lookup(h.rotate_left(7)));
            }
            hashes.len() as u64
        }),
    );

    // format: a 4096-row, 8-column metadata page shaped like map facts.
    let rows: Vec<Vec<u64>> = hashes
        .iter()
        .cycle()
        .take(4096)
        .enumerate()
        .map(|(i, &h)| {
            let i = i as u64;
            vec![
                7,
                1_000_000 + i,
                50_000 + i,
                3 + i / 1024,
                (i % 1024) * 16384,
                16384,
                h % 64,
                0,
            ]
        })
        .collect();
    put(
        "format.page_encode_ns_per_row",
        per_unit(|| {
            black_box(Page::encode(black_box(&rows)));
            rows.len() as u64
        }),
    );
    let page = Page::encode(&rows);
    put(
        "format.page_scan_ns_per_row",
        per_unit(|| {
            black_box(page.scan_col_eq(3, 4).expect("column 3 exists"));
            rows.len() as u64
        }),
    );

    // lsm: inserts into a fresh pyramid, gets across 16 patches, flatten.
    const FACTS: u64 = 20_000;
    put(
        "lsm.insert_ns",
        per_unit(|| {
            let mut p: Pyramid<u64, u64> = Pyramid::with_thresholds(usize::MAX >> 1, 64);
            for i in 0..FACTS {
                p.insert(i * 7 % FACTS, i, i + 1);
            }
            black_box(p);
            FACTS
        }),
    );
    let layered = || {
        let mut p: Pyramid<u64, u64> = Pyramid::with_thresholds(usize::MAX >> 1, 64);
        for i in 0..FACTS {
            p.insert(i * 7 % FACTS, i, i + 1);
            if i % (FACTS / 16) == FACTS / 16 - 1 {
                p.flush();
            }
        }
        p
    };
    let stacked = layered();
    let mut key = 0u64;
    put(
        "lsm.get_ns",
        per_unit(|| {
            for _ in 0..4096 {
                key = (key + 7919) % FACTS;
                black_box(stacked.get(&key));
            }
            4096
        }),
    );
    let mut flatten_samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut p = layered();
        let start = Instant::now();
        p.flatten();
        flatten_samples.push(start.elapsed().as_nanos() as f64 / FACTS as f64);
        black_box(p);
    }
    put(
        "lsm.flatten_ns_per_fact",
        crate::stats::median(&flatten_samples),
    );

    // tier: the 2Q RAM cache under a put-then-get stream twice its size.
    let mut cache: RamCache<u64> = RamCache::new(2 << 20);
    let entry = Arc::new(payload[..16 * 1024].to_vec());
    let mut k = 0u64;
    put(
        "tier.cache_ns_per_op",
        per_unit(|| {
            for _ in 0..512 {
                k = (k + 1) % 256;
                if cache.get(&k).is_none() {
                    cache.put(k, Arc::clone(&entry));
                }
                black_box(cache.get(&(k / 2)));
            }
            1024
        }),
    );

    // ssd: FTL page writes, first fill then overwrite (device GC runs).
    let page_bytes = &payload[..4096];
    let mut ftl = fresh_ftl();
    let logical = ftl.logical_pages();
    let per_batch = logical / BATCHES;
    let mut next = 0usize;
    put(
        "ssd.ftl_write_ns_per_page",
        per_unit(|| {
            for _ in 0..per_batch {
                ftl.write(next, page_bytes, 0)
                    .expect("fill within capacity");
                next += 1;
            }
            per_batch as u64
        }),
    );
    for lpn in next..logical {
        ftl.write(lpn, page_bytes, 0).expect("fill within capacity");
    }
    let mut at = 0usize;
    put(
        "ssd.ftl_overwrite_ns_per_page",
        per_unit(|| {
            for _ in 0..per_batch {
                at = (at * 31 + 17) % logical;
                ftl.write(at, page_bytes, 0)
                    .expect("overwrite a mapped page");
            }
            per_batch as u64
        }),
    );
    m
}

/// Concatenated write payloads of `gen`, at least `bytes` long.
fn payload_from(gen: &mut WorkloadGen, bytes: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes + 256 * 1024);
    while out.len() < bytes {
        if let Op::Write { data, .. } = gen.next_op() {
            out.extend_from_slice(&data);
        }
    }
    out
}
