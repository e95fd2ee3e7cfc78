//! E10 (§4.9): dictionary-compressed metadata pages — size vs raw
//! encoding, zero-bit constant fields, and equality scans that never
//! decompress tuples. Timing runs on the repo's one wall-clock idiom,
//! the `purity_obs` profiler (planes `page_scan` / `page_decode`), and
//! is printed to stderr: the report holds only what the seed fixes.

use crate::Report;
use purity_format::Page;
use purity_obs::profiler::{self, Plane};

pub fn run(_args: &[String], r: &mut Report) {
    // A realistic metadata page: map-table facts with clustered segments,
    // sequential sectors and seqs, constant flags.
    let rows: Vec<Vec<u64>> = (0..4096u64)
        .map(|i| {
            vec![
                7,                   // medium id (constant)
                1_000_000 + i,       // sector (dense sequence)
                50_000 + i,          // seq (dense sequence)
                3 + (i / 1024),      // segment (4 distinct values)
                (i % 1024) * 16_384, // offset (regular stride)
                16_384,              // stored_len (constant)
                (i % 64),            // sector-in-cblock (small range)
                0,                   // flags (constant)
            ]
        })
        .collect();
    let page = Page::encode(&rows);
    let raw_bytes = rows.len() * rows[0].len() * 8;

    let t = vec![vec![
        "map facts x4096".to_string(),
        format!("{} B", raw_bytes),
        format!("{} B", page.encoded_bytes()),
        format!("{:.1}x", raw_bytes as f64 / page.encoded_bytes() as f64),
        format!("{} bits", page.row_bits()),
    ]];
    r.table(
        "E10: dictionary page compression",
        &["Page", "Raw (8B/field)", "Encoded", "Ratio", "Bits/tuple"],
        &t,
    );
    r.line("constant fields (medium, stored_len, flags) cost 0 bits each (§4.9).");

    // Compressed-domain scan vs decode-then-compare: one profiler scope
    // per approach, one event per iteration. The report carries what the
    // seed fixes (events, rows, bytes materialised, matches); the wall
    // times the profiler measured go to stderr.
    let probe_col = 3;
    let probe_val = 4;
    let iters = 2000u64;
    profiler::enable();
    let mut hits = 0;
    {
        purity_obs::profile_scope!(Plane::PageScan);
        profiler::add_events(Plane::PageScan, iters - 1);
        for _ in 0..iters {
            hits += page.scan_col_eq(probe_col, probe_val).unwrap().len();
        }
    }
    let mut hits2 = 0;
    {
        purity_obs::profile_scope!(Plane::PageDecode);
        profiler::add_events(Plane::PageDecode, iters - 1);
        for _ in 0..iters {
            hits2 += (0..page.n_rows())
                .filter(|&r| page.get(r, probe_col).unwrap() == probe_val)
                .count();
        }
    }
    let snap = profiler::snapshot();
    profiler::disable();
    assert_eq!(hits, hits2);
    let scan = snap.plane("page_scan").expect("scan plane timed");
    let decode = snap.plane("page_decode").expect("decode plane timed");
    assert_eq!(scan.events, iters, "one event per scan iteration");
    let (n, scanned) = (page.n_rows(), page.n_rows() as u64 * iters);
    r.line(format!(
        "\nequality scan, {n} tuples x {iters} iters, {hits} matches either way:"
    ));
    r.line(format!(
        "  compressed-domain: {} page_scan events, {scanned} rows scanned at a {}-bit stride, 0 B decoded",
        scan.events,
        page.row_bits()
    ));
    r.line(format!(
        "  decode-compare:    {} page_decode events, {scanned} rows scanned, {} B decoded (one 8 B field per row)",
        decode.events,
        scanned * 8
    ));
    eprintln!(
        "wall: compressed-domain {:.2}ms vs decode-compare {:.2}ms ({:.1}x faster)",
        scan.self_ns as f64 / 1e6,
        decode.self_ns as f64 / 1e6,
        decode.self_ns as f64 / scan.self_ns.max(1) as f64
    );
    r.line("the scan compares encoded bit patterns at a fixed stride — no tuple is decompressed (§4.9).");
}
