//! E1 (§1, §4.2): "we encourage potential customers to pull drives and
//! unplug controllers as they evaluate Purity" — throughput and
//! correctness through two drive pulls and a controller failure, under
//! continuous load.

use crate::{drive, preload, Report};
use purity_core::{ArrayConfig, FlashArray};
use purity_sim::units::{format_bytes, format_nanos};
use purity_wkld::{AccessPattern, ContentModel, SizeMix, WorkloadGen};

pub fn run(_args: &[String], r: &mut Report) {
    r.line("=== E1: pull drives and unplug controllers under load ===");
    let mut a = FlashArray::new(ArrayConfig::bench_medium()).unwrap();
    let vol_bytes: u64 = 64 << 20;
    let vol = a.create_volume("prod", vol_bytes).unwrap();
    preload(&mut a, vol, 3, 128 * 1024, ContentModel::Rdbms, 50_000, 350);
    a.advance(10 * purity_sim::SEC);

    let phase = |a: &mut FlashArray, label: &str, r: &mut Report| {
        let mut gen = WorkloadGen::new(
            5,
            vol_bytes,
            AccessPattern::Uniform,
            SizeMix::fixed(32 * 1024),
            70,
            ContentModel::Rdbms,
            500_000,
        );
        let d = drive(a, vol, &mut gen, 1500, 0);
        r.line(format!(
            "{:<34} {:>9.0} IOPS  {:>10}/s  read p99 {}",
            label,
            d.iops(),
            format_bytes(d.throughput_bps() as u64),
            format_nanos(d.read_latency.p99()),
        ));
    };

    phase(&mut a, "healthy (11 drives, primary)", r);
    a.fail_drive(4);
    phase(&mut a, "1 drive pulled", r);
    a.fail_drive(9);
    phase(&mut a, "2 drives pulled", r);
    let fo = a.fail_primary().unwrap();
    r.line(format!(
        "controller unplugged -> failover downtime {}",
        format_nanos(fo.downtime)
    ));
    phase(&mut a, "2 drives out + standby serving", r);
    a.revive_drive(4);
    a.revive_drive(9);
    phase(&mut a, "drives reinserted + rebuilt", r);
    let s = a.stats();
    r.line(format!("\nreconstructed reads {} ({:.1}% of device reads), amplification {:.3}x — service never stopped",
        s.reconstructed_reads,
        s.reconstruction_fraction() * 100.0,
        s.read_amplification()
    ));
}
