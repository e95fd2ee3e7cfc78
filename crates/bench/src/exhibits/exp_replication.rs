//! Replication sweep (E15): the `purity-repl` DR fabric across a
//! bandwidth × flap-rate grid. Each cell protects the same seeded
//! source volume over a fresh WAN link, ships a seed plus incremental
//! deltas (resuming from the persisted cursor whenever a flap window
//! stalls the transfer), and records what the wire saw: payload vs
//! hash-only bytes, retransmits, cursor resumes, and total link
//! occupancy in virtual time.
//!
//! The grid makes the fabric's two claims visible at once:
//!
//! * **bandwidth bounds transfer time** — at a fixed flap rate, the
//!   slow link's virtual link time exceeds the fast link's;
//! * **flaps cost retransmits, not correctness** — heavier flapping
//!   strictly increases retransmissions and wire overhead, yet every
//!   cell converges to a bit-exact replica of the same source image.
//!
//! The JSON carries the summary rows plus one full observability
//! export. The whole sweep runs twice from the same seeds and must produce byte-identical
//! JSON — flap windows, retries, and backoff are all functions of the
//! seed, never of wall-clock. `--smoke` shrinks the run for CI.

use crate::{flag, Report};
use purity_core::{ArrayConfig, FlashArray, SECTOR};
use purity_obs::json::JsonWriter;
use purity_repl::{LinkConfig, ReplFabric, ReplicaLink};
use purity_sim::units::format_nanos;
use purity_sim::{Nanos, MS, SEC};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Flap personalities swept per bandwidth: mean up / mean down.
const FLAPS: [(&str, Nanos, Nanos); 3] = [
    ("none", 0, 0),
    ("moderate", 40 * MS, 10 * MS),
    ("heavy", 60 * MS, 150 * MS),
];

/// Link bandwidths swept: a thin WAN pipe and a fat metro pipe.
const BANDWIDTHS: [(&str, u64); 2] = [("25 MB/s", 25 << 20), ("200 MB/s", 200 << 20)];

/// What one grid cell leaves behind.
struct Cell {
    bw_label: &'static str,
    flap_label: &'static str,
    payload_bytes: u64,
    hash_bytes: u64,
    bytes_on_wire: u64,
    retransmits: u64,
    stalls: u64,
    resumes: u64,
    link_time: Nanos,
    rpo_lag: Nanos,
    /// Full observability export of the source array.
    export: String,
}

/// Runs one cell: fresh arrays, fresh link, seed ship + deltas, then a
/// bit-exact verification of the replica tip against the source model.
fn run_cell(bw: (&'static str, u64), flap: (&'static str, Nanos, Nanos), smoke: bool) -> Cell {
    let mut src = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let mut dst = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let size = if smoke { 1usize << 20 } else { 2usize << 20 };
    let vol = src.create_volume("prod", size as u64).unwrap();
    let mut model = vec![0u8; size];

    // Same workload seed in every cell, so the grid compares link
    // behaviour on identical payloads.
    let mut rng = StdRng::seed_from_u64(0xE15);
    let cfg = if flap.1 == 0 {
        LinkConfig::reliable(bw.1)
    } else {
        LinkConfig::flaky(bw.1, 0xF1A9, flap.1, flap.2)
    };
    let mut fabric = ReplFabric::new(ReplicaLink::with_config(cfg));
    let pg = fabric.protect(&src, vol, "prod", SEC).unwrap();

    let rounds = if smoke { 2 } else { 4 };
    let (mut stalls, mut resumes, mut link_time) = (0u64, 0u64, 0u64);
    for round in 0..=rounds {
        // Round 0 ships the seed image; later rounds mutate first.
        let writes = if round == 0 { 24 } else { 6 };
        for _ in 0..writes {
            let len = SECTOR << rng.gen_range(0..6u32);
            let off = rng.gen_range(0..(size - len) / SECTOR) * SECTOR;
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            src.write(vol, off as u64, &data).unwrap();
            model[off..off + len].copy_from_slice(&data);
        }
        src.advance(5 * MS);

        let mut report = fabric.ship_now(pg, &mut src, &mut dst).unwrap();
        link_time += report.link_time;
        let mut guard = 0;
        while !report.completed {
            stalls += 1;
            src.advance(100 * MS); // wait out the flap window
            report = fabric.resume(pg, &mut src, &mut dst).unwrap();
            link_time += report.link_time;
            if report.resumed_from_chunk > 0 {
                resumes += 1;
            }
            guard += 1;
            assert!(
                guard <= 500,
                "cell {}/{}: ship never completed",
                bw.0,
                flap.0
            );
        }
    }

    // Every cell must converge to the same bit-exact replica.
    let tip = fabric
        .group(pg)
        .and_then(|g| g.lineage.last())
        .expect("lineage tip")
        .dst_snapshot;
    let got = dst.read_snapshot(tip, 0, size).unwrap();
    assert_eq!(got, model, "cell {}/{}: replica tip diverged", bw.0, flap.0);
    assert!(fabric.verify_lineage(pg, &dst).is_empty());

    let s = fabric.stats();
    Cell {
        bw_label: bw.0,
        flap_label: flap.0,
        payload_bytes: s.payload_bytes,
        hash_bytes: s.hash_bytes,
        bytes_on_wire: s.bytes_on_wire,
        retransmits: s.retransmits,
        stalls,
        resumes,
        link_time,
        rpo_lag: fabric.rpo_lag(pg, src.now()),
        export: src.export_observability_json(),
    }
}

fn sweep(smoke: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    for bw in BANDWIDTHS {
        for flap in FLAPS {
            cells.push(run_cell(bw, flap, smoke));
        }
    }
    cells
}

/// Finds the cell for a (bandwidth, flap) pair.
fn cell<'a>(cells: &'a [Cell], bw: &str, flap: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.bw_label == bw && c.flap_label == flap)
        .unwrap()
}

pub fn run(args: &[String], r: &mut Report) {
    let smoke = flag(args, "--smoke");
    r.line("=== Replication fabric: bandwidth x flap-rate sweep ===");

    let cells = sweep(smoke);

    // Determinism: the entire grid — flaps, retries, backoff, telemetry
    // — must replay byte-identically from the same seeds.
    let again = sweep(smoke);
    for (a, b) in cells.iter().zip(again.iter()) {
        assert_eq!(
            a.export, b.export,
            "cell {}/{}: same-seed sweep must export byte-identical telemetry",
            a.bw_label, a.flap_label
        );
        assert_eq!(
            (a.bytes_on_wire, a.retransmits),
            (b.bytes_on_wire, b.retransmits)
        );
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.bw_label.to_string(),
                c.flap_label.to_string(),
                format!("{}", c.payload_bytes >> 10),
                format!("{}", c.hash_bytes >> 10),
                format!("{}", c.bytes_on_wire >> 10),
                c.retransmits.to_string(),
                format!("{}/{}", c.stalls, c.resumes),
                format_nanos(c.link_time),
                format_nanos(c.rpo_lag),
            ]
        })
        .collect();
    r.table(
        "wire accounting per grid cell",
        &[
            "bandwidth",
            "flap",
            "payload KiB",
            "hash KiB",
            "wire KiB",
            "rexmit",
            "stalls/resumes",
            "link time",
            "RPO lag",
        ],
        &rows,
    );

    for bw in BANDWIDTHS {
        let none = cell(&cells, bw.0, "none");
        let moderate = cell(&cells, bw.0, "moderate");
        let heavy = cell(&cells, bw.0, "heavy");
        // A link that never flaps never retransmits.
        assert_eq!(none.retransmits, 0, "{}: clean link retransmitted", bw.0);
        assert_eq!(none.stalls, 0, "{}: clean link stalled", bw.0);
        // Flaps cost wire overhead, monotonically in flap rate.
        assert!(
            heavy.retransmits > 0,
            "{}: heavy flapping produced no retransmits",
            bw.0
        );
        assert!(
            heavy.retransmits >= moderate.retransmits,
            "{}: heavier flapping must retransmit at least as much",
            bw.0
        );
        assert!(
            heavy.bytes_on_wire >= none.bytes_on_wire,
            "{}: lost sends still consume the wire",
            bw.0
        );
        // Identical payload in every cell — only the wire differs.
        assert_eq!(none.payload_bytes, heavy.payload_bytes);
    }
    // Bandwidth bounds transfer time: on clean links the thin pipe
    // spends strictly more virtual time on the wire.
    let slow = cell(&cells, "25 MB/s", "none");
    let fast = cell(&cells, "200 MB/s", "none");
    assert!(
        slow.link_time > fast.link_time,
        "thin pipe must be slower: {} vs {}",
        format_nanos(slow.link_time),
        format_nanos(fast.link_time)
    );

    let mut grid = JsonWriter::array();
    for c in &cells {
        let mut row = JsonWriter::object();
        row.str_field("bandwidth", c.bw_label)
            .str_field("flap", c.flap_label)
            .u64_field("payload_bytes", c.payload_bytes)
            .u64_field("hash_bytes", c.hash_bytes)
            .u64_field("bytes_on_wire", c.bytes_on_wire)
            .u64_field("retransmits", c.retransmits)
            .u64_field("stalls", c.stalls)
            .u64_field("cursor_resumes", c.resumes)
            .u64_field("link_time_ns", c.link_time)
            .u64_field("rpo_lag_ns", c.rpo_lag);
        grid.raw_element(&row.finish());
    }
    // One representative export so the repl_* series land in the
    // artifact; the heavy cell has the most interesting counters.
    let export = &cell(&cells, "25 MB/s", "heavy").export;
    let mut root = JsonWriter::object();
    root.str_field("experiment", "exp_replication")
        .bool_field("smoke", smoke)
        .raw_field("grid", &grid.finish())
        .raw_field("export", export);

    // Self-check: the source array's export carries the repl_* series
    // the observability docs promise.
    let doc = r.json(root.finish());
    assert_eq!(doc.array_at("grid").len(), BANDWIDTHS.len() * FLAPS.len());
    for name in [
        "repl_bytes_on_wire",
        "repl_retransmits",
        "repl_chunks_acked",
    ] {
        assert!(
            export.contains(name),
            "export must carry the {name} counter"
        );
    }
    r.line("\nself-check OK: grid deterministic, every cell bit-exact, wire costs ordered.");
}
