//! Cluster scale-out sweep (E16): the `purity-cluster` plane across a
//! cluster-size × link-profile grid. Each cell federates N arrays over
//! the simulated WAN, drives seeded client traffic through the
//! placement map, kills one member mid-stream, and records what the
//! fleet did about it: SWIM detection latency, rebuild time back to
//! full redundancy, availability through the fault, and the rebuild
//! traffic's wire accounting (payload vs dedup-elided bytes).
//!
//! The grid makes the cluster's two claims visible at once:
//!
//! * **a single-array loss is survivable and invisible to clients** —
//!   every cell keeps acking 100% of ops through detection and
//!   rebuild (replicas=2, one loss leaves one live copy per shard);
//! * **detection and rebuild are deterministic virtual-time
//!   quantities** — the whole sweep runs twice from the same seeds
//!   and must produce byte-identical telemetry exports.
//!
//! `--smoke` shrinks the run for CI. The cluster *fault campaign* (kill
//! or partition under the durability oracle, shrunk to a one-line repro)
//! is `exp_torture --kind cluster`.

use crate::{flag, Report};
use purity_cluster::{Cluster, ClusterSpec};
use purity_core::SECTOR;
use purity_obs::profiler::strip_profile_section;
use purity_repl::LinkConfig;
use purity_sim::units::format_nanos;
use purity_sim::{Nanos, MS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cluster sizes swept.
const SIZES: [usize; 2] = [3, 5];

/// Link personalities swept: mean up / mean down (0 = reliable).
const LINKS: [(&str, Nanos, Nanos); 2] = [("clean", 0, 0), ("flaky", 600 * MS, 100 * MS)];

/// What one grid cell leaves behind.
struct Cell {
    nodes: usize,
    link_label: &'static str,
    ops: u64,
    acked: u64,
    degraded_writes: u64,
    detect_ns: Nanos,
    rebuild_ns: Nanos,
    rebuilds_done: u64,
    rebuild_wire_bytes: u64,
    dedup_hit_sectors: u64,
    final_epoch: u64,
    /// Stripped observability exports of every member array.
    exports: Vec<String>,
}

/// Runs one cell: fresh N-node cluster, seeded traffic, one kill,
/// detection + rebuild to full redundancy, bit-exact data check.
fn run_cell(nodes: usize, link: (&'static str, Nanos, Nanos), smoke: bool) -> Cell {
    let mut spec = ClusterSpec::test_small(nodes, 0xE16 ^ nodes as u64);
    if link.1 > 0 {
        spec.link = LinkConfig::flaky(100 << 20, 0, link.1, link.2);
    }
    let mut c = Cluster::new(spec).unwrap();
    let size = if smoke { 1usize << 20 } else { 2usize << 20 };
    let vol = c.create_volume("db", size as u64).unwrap();
    let mut client = c.client();
    let mut rng = StdRng::seed_from_u64(0xE16_0000 + nodes as u64);
    let mut model = vec![0u8; size];

    let total_ops: u64 = if smoke { 48 } else { 120 };
    let kill_at = total_ops / 3;
    // Kill a node that actually owns data, so rebuild must run.
    let victim = c.volume(vol).unwrap().shards[0].owners[0];
    let (mut acked, mut degraded_before) = (0u64, 0u64);
    let mut killed_at = 0;
    let mut detected_at = None;
    let mut redundant_at = None;

    for op in 0..total_ops {
        if op == kill_at {
            degraded_before = c.stats().degraded_writes;
            c.kill(victim);
            killed_at = c.now();
        }
        let sectors = 1usize << rng.gen_range(0..4u32);
        let len = sectors * SECTOR;
        let off = rng.gen_range(0..(size - len) / SECTOR) * SECTOR;
        let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        c.write(&mut client, vol, off as u64, &data)
            .unwrap_or_else(|e| panic!("cell {nodes}/{}: op {op} not acked: {e:?}", link.0));
        model[off..off + len].copy_from_slice(&data);
        acked += 1;
        c.tick(40 * MS);
        if detected_at.is_none() && c.epoch() > 1 {
            detected_at = Some(c.now());
        }
        if redundant_at.is_none() && detected_at.is_some() && c.fully_redundant() {
            redundant_at = Some(c.now());
        }
    }
    // Drain detection + rebuild after the op stream.
    let mut guard = 0;
    loop {
        if detected_at.is_none() && c.epoch() > 1 {
            detected_at = Some(c.now());
        }
        if detected_at.is_some() && c.fully_redundant() && c.rebuild_backlog() == 0 {
            redundant_at.get_or_insert(c.now());
            break;
        }
        c.tick(100 * MS);
        guard += 1;
        assert!(
            guard <= 1200,
            "cell {nodes}/{}: never stabilized (epoch {}, redundant {})",
            link.0,
            c.epoch(),
            c.fully_redundant()
        );
    }
    let detected_at = detected_at.unwrap();
    let redundant_at = redundant_at.unwrap();

    // Every acked byte reads back bit-exact from the survivors.
    let got = c.read(&mut client, vol, 0, size).unwrap();
    assert_eq!(got, model, "cell {nodes}/{}: acked data corrupted", link.0);

    c.publish_metrics();
    let exports = (0..nodes)
        .map(|n| strip_profile_section(&c.array(n).export_observability_json()).to_string())
        .collect();
    Cell {
        nodes,
        link_label: link.0,
        ops: total_ops,
        acked,
        degraded_writes: c.stats().degraded_writes - degraded_before,
        detect_ns: detected_at - killed_at,
        rebuild_ns: redundant_at - detected_at,
        rebuilds_done: c.rebuild_stats().done,
        rebuild_wire_bytes: c.fabric_stats().bytes_on_wire,
        dedup_hit_sectors: c.fabric_stats().dedup_hit_sectors,
        final_epoch: c.epoch(),
        exports,
    }
}

fn sweep(smoke: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    for nodes in SIZES {
        for link in LINKS {
            cells.push(run_cell(nodes, link, smoke));
        }
    }
    cells
}

pub fn run(args: &[String], r: &mut Report) {
    let smoke = flag(args, "--smoke");

    r.line("=== cluster scale-out: size x link-profile sweep ===");
    let cells = sweep(smoke);

    // Determinism: the entire grid — probes, flaps, rebuild legs,
    // telemetry — must replay byte-identically from the same seeds.
    let again = sweep(smoke);
    for (a, b) in cells.iter().zip(again.iter()) {
        for (x, y) in a.exports.iter().zip(b.exports.iter()) {
            assert_eq!(
                x, y,
                "cell {}/{}: same-seed sweep must export byte-identical telemetry",
                a.nodes, a.link_label
            );
        }
        assert_eq!(
            (a.detect_ns, a.rebuild_ns, a.rebuild_wire_bytes),
            (b.detect_ns, b.rebuild_ns, b.rebuild_wire_bytes)
        );
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.nodes.to_string(),
                c.link_label.to_string(),
                format!("{}/{}", c.acked, c.ops),
                c.degraded_writes.to_string(),
                format_nanos(c.detect_ns),
                format_nanos(c.rebuild_ns),
                c.rebuilds_done.to_string(),
                format!("{}", c.rebuild_wire_bytes >> 10),
                c.dedup_hit_sectors.to_string(),
            ]
        })
        .collect();
    r.table(
        "one member killed mid-traffic, per grid cell",
        &[
            "nodes",
            "link",
            "acked/ops",
            "degraded",
            "detect",
            "rebuild",
            "tasks",
            "wire KiB",
            "dedup hits",
        ],
        &rows,
    );

    for c in &cells {
        // Availability through the fault: every op acked.
        assert_eq!(
            c.acked, c.ops,
            "cell {}/{}: ops went unacked",
            c.nodes, c.link_label
        );
        assert!(c.final_epoch > 1, "death never confirmed");
        assert!(c.rebuilds_done > 0, "no rebuild ran");
        assert!(
            c.degraded_writes > 0,
            "kill mid-traffic must degrade writes"
        );
    }

    let mut grid = purity_obs::json::JsonWriter::array();
    for c in &cells {
        let mut row = purity_obs::json::JsonWriter::object();
        row.u64_field("nodes", c.nodes as u64)
            .str_field("link", c.link_label)
            .u64_field("ops", c.ops)
            .u64_field("acked", c.acked)
            .u64_field("degraded_writes", c.degraded_writes)
            .u64_field("detect_ns", c.detect_ns)
            .u64_field("rebuild_ns", c.rebuild_ns)
            .u64_field("rebuilds_done", c.rebuilds_done)
            .u64_field("rebuild_wire_bytes", c.rebuild_wire_bytes)
            .u64_field("dedup_hit_sectors", c.dedup_hit_sectors)
            .u64_field("final_epoch", c.final_epoch);
        grid.raw_element(&row.finish());
    }
    let export = &cells.last().unwrap().exports[0];
    let mut root = purity_obs::json::JsonWriter::object();
    root.str_field("experiment", "exp_cluster")
        .bool_field("smoke", smoke)
        .raw_field("grid", &grid.finish())
        // One representative export so the cluster_* series land in
        // the artifact: a surviving member of the largest cluster.
        .raw_field("export", export);

    // Self-check: the grid is full, and the export carries the
    // cluster_* series the docs promise.
    let doc = r.json(root.finish());
    assert_eq!(doc.array_at("grid").len(), SIZES.len() * LINKS.len());
    for name in [
        "cluster_epoch",
        "cluster_suspicions",
        "cluster_rebuilds_done",
        "cluster_rebuild_bytes_on_wire",
    ] {
        assert!(export.contains(name), "export must carry the {name} series");
    }
    r.line(
        "\nself-check OK: grid deterministic, 100% availability through the \
         fault in every cell, cluster_* series exported.",
    );
}
