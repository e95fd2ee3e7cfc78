//! E17 — tail-latency blame attribution (§4.2, §4.4): every completed
//! op's critical path folds into a fixed 12-category blame taxonomy,
//! and the flight recorder decomposes each interval's p99.9 cohort by
//! category. This exhibit proves the attribution *moves with the
//! cause*, across two planes:
//!
//! * **Array plane** — a noisy neighbour's GC-heavy write storm lands
//!   on tiny drives while the victim mix keeps reading. With
//!   read-around scheduling off, the p99.9 cohort's blame mass sits on
//!   the die-stall categories (`die_stall_program`, `die_stall_erase`,
//!   `gc_interference`); turning read-around on collapses that mass by
//!   well over 5x because reads reconstruct around busy dies instead
//!   of queueing behind them.
//! * **Cluster plane** — killing a member mid-traffic makes fallback
//!   reads charge `reconstruct` and the post-confirmation stale client
//!   charge `cluster_redirect`; both categories are zero before the
//!   kill and zero again once rebuild restores redundancy and the
//!   client's map is fresh.
//!
//! The JSON carries the summary plus the read-around-off
//! observability export, whose `tail_blame` section holds the
//! per-interval decomposition. Both scenarios run twice from the same
//! seeds and must export byte-identical telemetry.

use crate::{preload, settle, times, Report};
use purity_cluster::{Cluster, ClusterSpec};
use purity_core::{ArrayConfig, FlashArray, SECTOR};
use purity_obs::json::JsonWriter;
use purity_obs::profiler::strip_profile_section;
use purity_obs::{BlameCategory, BlameVec};
use purity_sim::units::format_nanos;
use purity_sim::{Nanos, MS};
use purity_ssd::SsdGeometry;
use purity_wkld::ContentModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const INTERVAL: Nanos = 20 * MS;

/// The taxonomy categories that mean "the read sat behind die work".
const DIE_STALL: [BlameCategory; 3] = [
    BlameCategory::DieStallProgram,
    BlameCategory::DieStallErase,
    BlameCategory::GcInterference,
];

fn die_stall_ns(v: &BlameVec) -> u64 {
    DIE_STALL.iter().map(|&c| v.get(c)).sum()
}

struct ArrayTrace {
    export: String,
    /// Summed p99.9-cohort blame over every interval of the storm.
    cohort: BlameVec,
    intervals_with_cohort: usize,
}

/// GC storm on tiny drives; the only lever between the two runs is
/// read-around scheduling.
fn array_scenario(read_around: bool) -> ArrayTrace {
    let mut cfg = ArrayConfig::test_small();
    cfg.cache_bytes = 0;
    cfg.read_around_writes = read_around;
    cfg.dedup_enabled = false;
    cfg.compression_enabled = false;
    // Enough blocks that the drives' *internal* low-water GC never
    // runs: its relocation programs land outside the array's writing
    // windows, which read-around cannot see (by design — §4.4
    // schedules around array-issued writes only). All die stalls here
    // come from array-issued foreground and GC-mode programs.
    cfg.ssd_geometry = SsdGeometry {
        dies: 4,
        blocks_per_die: 128,
        pages_per_block: 32,
        page_size: 4096,
    };
    cfg.telemetry_interval_ns = INTERVAL;
    cfg.telemetry_window_intervals = 16 * 1024;
    let mut a = FlashArray::new(cfg).unwrap();
    let vol_bytes: u64 = 2 << 20;
    let noise = a.create_volume("noise", vol_bytes).unwrap();

    // Preload so storm-phase reads hit real drive blocks.
    preload(&mut a, noise, 11, 64 * 1024, ContentModel::Random, 20_000, vol_bytes / (64 * 1024));
    settle(&mut a);

    // The storm: a neighbour writes just under the pacer's flush
    // bandwidth, so the flush backlog stays *bounded* — the stripes
    // mid-flush at any instant hold data written one or two rounds
    // ago, still reachable through the current logical mapping.
    // Victim probes target exactly those recently-written chunks,
    // racing their own flush slots: a probe whose chunk's column is
    // mid-program stalls for the reservation remainder — the ms-scale
    // die stall the p99.9 cohort sees with read-around off. With it
    // on, §4.4 treats the busy column as failed and reconstructs from
    // idle ones. GC every few rounds feeds gc-flagged relocation
    // programs into the backlog (gc_interference); its present-time
    // relocation *read* chains get a long drain so probes stall behind
    // programs, not behind GC's own reads.
    // The storm is calibrated: 16 rounds keep the write pacer's backlog
    // bounded so the aimed probes land inside active program/relocation
    // slots. More rounds wrap the 64-chunk volume and dilute the stall
    // share with plain drive-queue mass, so both modes run the same arc.
    let rounds: u64 = 16;
    let chunk: usize = 32 * 1024;
    let col_sectors: u64 = (32 * 1024) / SECTOR as u64;
    let chunks_per_round: u64 = 4;
    let n_chunks = vol_bytes / chunk as u64;
    let mut rng = StdRng::seed_from_u64(17);
    for round in 0..rounds {
        for i in 0..chunks_per_round {
            let ci = (round * chunks_per_round + i) % n_chunks;
            let mut data = vec![0u8; chunk];
            rng.fill(&mut data[..]);
            a.write(noise, ci * chunk as u64, &data).unwrap();
            a.advance(50_000);
        }
        // Probe bursts sweep every chunk written one or two rounds
        // ago — the data the bounded flush backlog is programming
        // right now. Whichever chunk's column pair is mid-program at
        // the burst instant, some probe hits it and stalls for the
        // reservation remainder; the rest find idle columns. Probes
        // are spaced past the drive service time so they never queue
        // on each other.
        for burst in 0..2u64 {
            a.advance(3 * MS);
            for p in 0..8u64 {
                let back = 1 + (p % 2);
                let ci = ((round.saturating_sub(back)) * chunks_per_round
                    + (p / 2) % chunks_per_round)
                    % n_chunks;
                let r_sector = ci * col_sectors + (burst * 29 + p * 7) % col_sectors;
                a.read(noise, r_sector * SECTOR as u64, SECTOR).unwrap();
                a.advance(250_000);
            }
        }
        a.advance(4 * MS);
        if round % 4 == 3 {
            // GC pass: the overwritten frontier left mostly-garbage
            // preload segments whose remaining live chunks sit just
            // *ahead* of the frontier. GC relocates them, booking
            // gc-flagged relocation programs into the backlog — probe
            // exactly those chunks while their relocation stripes
            // flush, then drain what's left so the next round's
            // aimed probes line up with the backlog again.
            a.run_gc().unwrap();
            // The pacer is FIFO: the host stripes already booked flush
            // first, so the gc-flagged relocation slots only reach the
            // present after ~25ms. Probing before that would find idle
            // columns every time.
            a.advance(25 * MS);
            for b in 0..4u64 {
                for q in 0..12u64 {
                    let ci = ((round + 1) * chunks_per_round + q) % n_chunks;
                    let r_sector = ci * col_sectors + (b * 29 + q * 11) % col_sectors;
                    a.read(noise, r_sector * SECTOR as u64, SECTOR).unwrap();
                    a.advance(250_000);
                }
                a.advance(7 * MS);
            }
            a.advance(15 * MS);
        }
    }
    settle(&mut a);

    let export = a.export_observability_json();
    let mut cohort = BlameVec::default();
    let mut intervals_with_cohort = 0usize;
    for tb in a.obs().recorder.tail_series() {
        if tb.cohort_ops > 0 {
            cohort.merge(&tb.cohort);
            intervals_with_cohort += 1;
        }
    }
    ArrayTrace {
        export,
        cohort,
        intervals_with_cohort,
    }
}

struct ClusterTrace {
    exports: Vec<String>,
    /// (cluster_redirect, reconstruct) blame deltas per phase:
    /// healthy, incident, restored.
    phases: [(u64, u64); 3],
}

fn block(seed: u64, sectors: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = vec![0u8; sectors * SECTOR];
    rng.fill(&mut b[..]);
    b
}

/// Kill-and-rebuild arc on a 3-node cluster; cluster-plane blame must
/// appear inside the incident window and nowhere else.
fn cluster_scenario() -> ClusterTrace {
    let mut c = Cluster::new(ClusterSpec::test_small(3, 91)).unwrap();
    let shard_bytes = c.spec().shard_sectors * SECTOR as u64;
    // 8 shards in both modes: enough that this seed places at least
    // one shard's preferred replica on node 1, so killing node 1
    // forces fallback (reconstruct-blamed) reads below.
    let nshards: u64 = 8;
    let vol = c.create_volume("db", nshards * shard_bytes).unwrap();
    assert!(
        (0..nshards).any(|s| c.volume(vol).unwrap().shards[s as usize].owners[0] == 1),
        "seed places no shard primary on node 1"
    );
    let mut client = c.client();
    let sink_blame = |c: &Cluster| {
        let v = c.array(0).obs().tracer.blame_totals();
        (
            v.get(BlameCategory::ClusterRedirect),
            v.get(BlameCategory::Reconstruct),
        )
    };
    let delta = |a: (u64, u64), b: (u64, u64)| (b.0 - a.0, b.1 - a.1);

    // Phase 1 — healthy baseline.
    let before = sink_blame(&c);
    for s in 0..nshards {
        c.write(&mut client, vol, s * shard_bytes, &block(700 + s, 8))
            .unwrap();
        c.read(&mut client, vol, s * shard_bytes, 8 * SECTOR)
            .unwrap();
    }
    let healthy = delta(before, sink_blame(&c));

    // Phase 2 — incident: kill node 1, read through the loss, then let
    // SWIM confirm and write through the stale client map.
    c.kill(1);
    let at_kill = sink_blame(&c);
    for s in 0..nshards {
        c.read(&mut client, vol, s * shard_bytes, 8 * SECTOR)
            .unwrap();
    }
    for _ in 0..200 {
        c.tick(100 * MS);
        if c.epoch() > 1 {
            break;
        }
    }
    assert!(c.epoch() > 1, "death never confirmed");
    for s in 0..nshards {
        c.write(&mut client, vol, s * shard_bytes, &block(900 + s, 8))
            .unwrap();
    }
    let incident = delta(at_kill, sink_blame(&c));

    // Phase 3 — restored: full redundancy back, client map fresh.
    for _ in 0..600 {
        c.tick(100 * MS);
        if c.fully_redundant() {
            break;
        }
    }
    assert!(c.fully_redundant(), "rebuild never completed");
    let at_restored = sink_blame(&c);
    for s in 0..nshards {
        c.write(&mut client, vol, s * shard_bytes, &block(1100 + s, 8))
            .unwrap();
        c.read(&mut client, vol, s * shard_bytes, 8 * SECTOR)
            .unwrap();
    }
    let restored = delta(at_restored, sink_blame(&c));

    c.publish_metrics();
    let exports = (0..3)
        .map(|n| strip_profile_section(&c.array(n).export_observability_json()).to_string())
        .collect();
    ClusterTrace {
        exports,
        phases: [healthy, incident, restored],
    }
}

pub fn run(_args: &[String], r: &mut Report) {
    r.line("=== E17: tail-latency blame attribution across array and cluster planes ===");

    // --- Array plane: read-around off vs on ---
    let off = array_scenario(false);
    let off_again = array_scenario(false);
    assert_eq!(
        off.export, off_again.export,
        "same-seed runs must export byte-identical telemetry"
    );
    let on = array_scenario(true);

    let mut rows = Vec::new();
    for (cat, ns_off) in off.cohort.iter() {
        let ns_on = on.cohort.get(cat);
        if ns_off == 0 && ns_on == 0 {
            continue;
        }
        rows.push(vec![
            cat.as_str().to_string(),
            format_nanos(ns_off),
            format_nanos(ns_on),
        ]);
    }
    r.table(
        "p99.9-cohort blame by category (GC storm)",
        &["category", "read-around off", "read-around on"],
        &rows,
    );

    let off_total = off.cohort.total();
    let off_stall = die_stall_ns(&off.cohort);
    let on_stall = die_stall_ns(&on.cohort);
    let share = off_stall as f64 / off_total as f64;
    // Infinite when the scheduler left no stall mass at all (the JSON
    // field is then null).
    let reduction = off_stall as f64 / on_stall as f64;
    r.line(format!(
        "\ndie-stall share of cohort blame (RA off): {:.1}% over {} intervals",
        100.0 * share,
        off.intervals_with_cohort
    ));
    r.line(format!(
        "die-stall cohort mass: {} (off) vs {} (on) — {}",
        format_nanos(off_stall),
        format_nanos(on_stall),
        if on_stall == 0 {
            "eliminated".to_string()
        } else {
            format!("{} reduction", times(reduction))
        }
    ));
    assert!(
        share >= 0.80,
        "with read-around off, >=80% of cohort blame must be die stalls (got {:.1}%)",
        100.0 * share
    );
    assert!(
        off_stall > 0 && reduction >= 5.0,
        "read-around must cut die-stall cohort blame >=5x (got {} -> {})",
        format_nanos(off_stall),
        format_nanos(on_stall)
    );

    // --- Cluster plane: blame confined to the incident window ---
    let cl = cluster_scenario();
    let cl_again = cluster_scenario();
    for (x, y) in cl.exports.iter().zip(&cl_again.exports) {
        assert_eq!(x, y, "same-seed cluster exports diverged");
    }
    let [healthy, incident, restored] = cl.phases;
    r.line(format!(
        "\ncluster blame (redirect, reconstruct): healthy {:?}  incident {:?}  restored {:?}",
        healthy, incident, restored
    ));
    assert_eq!(healthy, (0, 0), "healthy ops must carry no incident blame");
    assert!(
        incident.0 > 0 && incident.1 > 0,
        "incident window must blame cluster_redirect and reconstruct: {incident:?}"
    );
    assert_eq!(
        restored,
        (0, 0),
        "restored ops must carry no incident blame"
    );

    // --- Emit + self-check ---
    let mut root = JsonWriter::object();
    root.str_field("experiment", "exp_blame")
        .u64_field("interval_ns", INTERVAL)
        .raw_field("cohort_blame_ra_off", &off.cohort.to_json())
        .raw_field("cohort_blame_ra_on", &on.cohort.to_json())
        .f64_field("die_stall_share_ra_off", share)
        .f64_field("die_stall_reduction", reduction)
        .u64_field("cluster_incident_redirect_ns", incident.0)
        .u64_field("cluster_incident_reconstruct_ns", incident.1)
        .raw_field("export", &off.export);
    let doc = r.json(root.finish());
    let n_intervals = doc.u64_at("export.tail_blame.intervals");
    assert!(n_intervals > 0, "tail_blame section must carry intervals");
    let populated = doc
        .array_at("export.tail_blame.entries")
        .iter()
        .find(|e| e.get("cohort_ops").and_then(|v| v.as_u64()).unwrap_or(0) > 0)
        .expect("at least one interval with a cohort");
    for field in ["ops", "cohort_ops", "p999_ns", "cohort", "total"] {
        assert!(populated.get(field).is_some(), "tail_blame field {field}");
    }
    r.line("\nself-check OK: blame mass follows the cause on both planes; exports deterministic.");
}
