//! E3 (§4.3): frontier sets cut the failover scan. The paper: segment
//! header scans took 12 s; frontier sets reduced them to 0.1 s. The
//! effect is linear-in-capacity vs constant, so the mini array shows a
//! smaller absolute gap with the same shape.

use crate::Report;
use purity_core::recovery::ScanMode;
use purity_core::{ArrayConfig, FlashArray, RecoveryReport};
use purity_sim::units::format_nanos;
use purity_sim::SEC;

fn scan(cfg: ArrayConfig, label: &str, r: &mut Report) {
    let aus = cfg.aus_per_drive() * cfg.n_drives;
    let mut a = FlashArray::new(cfg).unwrap();
    let vol = a.create_volume("db", 48 << 20).unwrap();
    for i in 0..256u64 {
        a.write(
            vol,
            (i * 128 * 1024) % (48 << 20),
            &vec![(i % 251) as u8; 128 * 1024],
        )
        .unwrap();
        a.advance(100_000);
    }
    a.checkpoint().unwrap();

    let f = a.fail_primary_with(ScanMode::Frontier).unwrap();
    let full = a.fail_primary_with(ScanMode::FullScan).unwrap();
    r.line(format!("\n{} ({} AUs total):", label, aus));
    r.line(format!(
        "  frontier scan: {:>6} AUs in {:>10}  | total failover {}",
        f.recovery.aus_scanned,
        format_nanos(f.recovery.scan_time()),
        format_nanos(f.downtime)
    ));
    r.line(format!(
        "  full scan:     {:>6} AUs in {:>10}  | total failover {}",
        full.recovery.aus_scanned,
        format_nanos(full.recovery.scan_time()),
        format_nanos(full.downtime)
    ));
    // Where the frontier failover's time goes: each stage's end.
    let stages = (RecoveryReport::STAGES.iter().zip(f.recovery.stage_ends))
        .map(|(stage, end)| format!("{stage} {}", format_nanos(end)))
        .collect::<Vec<_>>();
    r.line(format!("  frontier stage ends: {}", stages.join(" | ")));
    r.line(format!(
        "  scan speedup {:.1}x | both well under the 30 s client timeout: {}",
        full.recovery.scan_time().max(1) as f64 / f.recovery.scan_time().max(1) as f64,
        full.downtime < 30 * SEC && f.downtime < 30 * SEC
    ));
}

pub fn run(_args: &[String], r: &mut Report) {
    r.line("=== E3: recovery scan, frontier vs full (paper: 12 s -> 0.1 s) ===");
    scan(ArrayConfig::test_small(), "small geometry", r);
    scan(ArrayConfig::bench_medium(), "medium geometry", r);
    r.line("\nthe full-scan cost grows with AU count; the frontier scan does not (§4.3).");
}
