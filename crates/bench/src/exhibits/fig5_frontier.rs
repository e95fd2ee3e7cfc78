//! Figure 5: the boot region and frontier set — allocation is constrained
//! to the persisted frontier so recovery scans a handful of AUs, and
//! frontier persists are a vanishing fraction of writes.

use crate::Report;
use purity_core::recovery::ScanMode;
use purity_core::{ArrayConfig, FlashArray};
use purity_sim::units::format_nanos;

pub fn run(_args: &[String], r: &mut Report) {
    let cfg = ArrayConfig::test_small();
    let aus_total = cfg.aus_per_drive() * cfg.n_drives;
    r.line("=== Figure 5: boot region + frontier set ===");
    r.line(format!(
        "main region: {} AUs across {} drives",
        aus_total, cfg.n_drives
    ));
    r.line(format!(
        "boot region: {} KiB x 3 mirror drives (A/B slots)",
        cfg.boot_region_bytes() / 1024 / 2
    ));
    r.line(format!(
        "frontier:    {} AUs/drive persisted (+ speculative set of the same size)",
        cfg.frontier_aus_per_drive
    ));

    let mut a = FlashArray::new(cfg).unwrap();
    let vol = a.create_volume("v", 24 << 20).unwrap();
    for i in 0..160u64 {
        a.write(vol, i * 128 * 1024, &vec![(i % 250) as u8; 128 * 1024])
            .unwrap();
        a.advance(200_000);
    }
    a.checkpoint().unwrap();

    let frontier = a.fail_primary_with(ScanMode::Frontier).unwrap();
    let full = a.fail_primary_with(ScanMode::FullScan).unwrap();
    r.line(format!(
        "\nrecovery scan with frontier set:  {:>6} AUs, {}",
        frontier.recovery.aus_scanned,
        format_nanos(frontier.recovery.scan_time)
    ));
    r.line(format!(
        "recovery scan without (baseline): {:>6} AUs, {}",
        full.recovery.aus_scanned,
        format_nanos(full.recovery.scan_time)
    ));
    r.line(format!(
        "scan reduction: {:.1}x fewer AUs",
        full.recovery.aus_scanned as f64 / frontier.recovery.aus_scanned.max(1) as f64
    ));
    r.line("(paper: frontier sets cut the startup scan from 12 s to 0.1 s, §4.3)");
}
