//! Figure 2: Flash Array hardware — two stateless controllers over a
//! shared shelf of SSDs + NVRAM. Demonstrates active-active port
//! forwarding and interposer-style takeover (controller failover).

use crate::Report;
use purity_core::{ArrayConfig, FlashArray, Port};
use purity_sim::units::format_nanos;

pub fn run(_args: &[String], r: &mut Report) {
    let cfg = ArrayConfig::test_small();
    r.line("=== Figure 2: Flash Array hardware (simulated) ===");
    r.line("controllers: 2 (stateless; standby keeps a warm cache)");
    r.line(format!(
        "drives:      {} consumer-MLC SSDs, dual-ported via interposers",
        cfg.n_drives
    ));
    r.line(format!(
        "NVRAM:       {} MiB shelf-resident SLC log",
        cfg.nvram_bytes >> 20
    ));
    r.line(format!(
        "stripe:      {}+{} Reed-Solomon over a {}-drive write group",
        cfg.rs_data, cfg.rs_parity, cfg.write_group
    ));

    let mut a = FlashArray::new(cfg).unwrap();
    let vol = a.create_volume("demo", 4 << 20).unwrap();
    let data = vec![7u8; 64 * 1024];
    a.write(vol, 0, &data).unwrap();

    // Active-active: both ports serve; the standby's adds a forward hop.
    let (_, ack_p) = a.read_via(Port::Primary, vol, 0, 32 * 1024).unwrap();
    let (_, ack_s) = a.read_via(Port::Secondary, vol, 0, 32 * 1024).unwrap();
    r.line(format!(
        "\nread via primary port:   {}",
        format_nanos(ack_p.latency)
    ));
    r.line(format!(
        "read via secondary port: {} (interconnect forward)",
        format_nanos(ack_s.latency)
    ));

    // Interposer takeover: kill the primary; the standby re-derives all
    // state from the shelf.
    let report = a.fail_primary().unwrap();
    r.line(format!(
        "\ncontroller failover: downtime {} ({} AUs scanned, {} intents replayed)",
        format_nanos(report.downtime),
        report.recovery.aus_scanned,
        report.recovery.write_intents_replayed
    ));
    let (read, _) = a.read(vol, 0, 64 * 1024).unwrap();
    assert_eq!(read, data);
    r.line("data intact after takeover: yes");
    r.line("-> controllers hold no durable state; the shelf (drives + NVRAM) is the system");
}
