//! E9 (§2.1, §3.3): why Purity writes sequentially — on a raw page-
//! mapping FTL, random overwrites force device GC, inflating write
//! amplification and latency; large sequential writes keep WA at ~1.
//! This is the paper's motivation for log-structured layouts.

use crate::Report;
use purity_sim::units::format_nanos;
use purity_sim::Clock;
use purity_ssd::flash::Flash;
use purity_ssd::ftl::Ftl;
use purity_ssd::geometry::SsdGeometry;
use purity_ssd::latency::{EnduranceModel, LatencyModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn mk() -> Ftl {
    let flash = Flash::new(
        SsdGeometry::consumer_mlc_scaled(),
        LatencyModel::consumer_mlc(),
        EnduranceModel::consumer_mlc(),
        Clock::new(),
        7,
    );
    Ftl::new(flash, 0.125)
}

pub fn run(_args: &[String], r: &mut Report) {
    let page = vec![0xABu8; 4096];
    let mut rows = Vec::new();

    for (label, random) in [
        ("sequential overwrite x2", false),
        ("random overwrite x2", true),
    ] {
        let mut ftl = mk();
        let n = ftl.logical_pages();
        // Fill once sequentially.
        for lpn in 0..n {
            ftl.write(lpn, &page, 0).unwrap();
        }
        // Overwrite 2x the logical space.
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = 0;
        let mut lats = Vec::new();
        let ops = 2 * n;
        for i in 0..ops {
            let lpn = if random { rng.gen_range(0..n) } else { i % n };
            let done = ftl.write(lpn, &page, t).unwrap();
            lats.push(done - t);
            t = done;
        }
        let s = ftl.stats();
        let mean = lats.iter().sum::<u64>() / ops as u64;
        lats.sort_unstable();
        let p99 = lats[ops * 99 / 100];
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", s.write_amplification()),
            format!("{}", s.gc_runs),
            format_nanos(mean),
            format_nanos(p99),
        ]);
    }
    r.table(
        "E9: raw FTL behaviour, sequential vs random writes (same device, same volume of data)",
        &[
            "Workload",
            "Write amplification",
            "Device GC runs",
            "Mean write",
            "p99 write (GC stall)",
        ],
        &rows,
    );
    r.line("\npaper: 'SSDs pay a large penalty for random writes' [55]; FTLs 'behave erratically");
    r.line("when exposed to random writes' [43]. Purity therefore presents only large sequential");
    r.line("writes (log-structured segments) and whole-AU trims to its drives (§3.3, §4.4).");
}
