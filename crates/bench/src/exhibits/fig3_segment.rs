//! Figure 3: data layout — segments striped across drives with
//! Reed-Solomon parity; data accumulates from the front of the segment
//! and log records from the back.

use crate::Report;
use purity_core::config::ArrayConfig;
use purity_core::segment::{SegmentLayout, SegmentWriter, LOG_STRIPE_MAGIC};
use purity_core::shelf::Shelf;
use purity_core::types::{AuId, SegmentId};
use purity_sim::Clock;

pub fn run(_args: &[String], r: &mut Report) {
    let cfg = ArrayConfig::test_small();
    let mut shelf = Shelf::new(&cfg, Clock::new());
    let layout = SegmentLayout::from_config(&cfg);
    let mut w = SegmentWriter::new(layout, cfg.ssd_geometry.page_size);

    r.line("=== Figure 3: segment layout ===");
    r.line(format!(
        "write unit: {} KiB | stripe (segio): {} data + {} parity columns | {} stripes/segment",
        layout.wu >> 10,
        layout.k,
        layout.m,
        layout.n_stripes
    ));

    let columns: Vec<AuId> = (0..cfg.stripe_width())
        .map(|d| AuId { drive: d, index: 0 })
        .collect();
    w.open_segment_on(&mut shelf, SegmentId(1), columns.clone(), 1, 0)
        .unwrap();

    // Data from the front (varied content so parity differs visibly)...
    let data: Vec<u8> = (0..2 * layout.stripe_data_bytes())
        .map(|i| (i / layout.wu) as u8 ^ (i % 251) as u8)
        .collect();
    w.append_data(&mut shelf, &data, 0).unwrap();
    // ...log records from the back.
    w.append_log(&mut shelf, b"patch: map facts 100..200", 0)
        .unwrap();
    w.flush_log(&mut shelf, 0).unwrap();
    let info = w.open_segment().unwrap().clone();

    r.line(format!(
        "\nafter writing {} KiB of data and one log record:",
        data.len() >> 10
    ));
    r.line(format!(
        "  data stripes (from front): {:?}",
        (0..info.data_stripes).collect::<Vec<_>>()
    ));
    r.line(format!(
        "  log stripes (from back):   {:?}",
        (0..info.log_stripes)
            .map(|l| layout.n_stripes as u64 - 1 - l)
            .collect::<Vec<_>>()
    ));

    // Show parity columns really carry parity: first data stripe, dump a
    // byte from each column.
    r.line("\nstripe 0, byte 0 of each column (D=data, P/Q=parity):");
    for (c, au) in columns.iter().enumerate() {
        let off = layout.wu_byte_offset(au.index, 0, 0);
        let (b, _) = shelf.read_drive(au.drive, off, 1, 0).unwrap();
        let role = if c < layout.k { "D" } else { "P/Q" };
        r.line(format!(
            "  column {} (drive {}) [{}]: {:#04x}",
            c, au.drive, role, b[0]
        ));
    }

    // The last stripe starts with the log-stripe frame magic.
    let au = columns[0];
    let off = layout.wu_byte_offset(au.index, layout.n_stripes - 1, 0);
    let (frame, _) = shelf.read_drive(au.drive, off, 8, 0).unwrap();
    assert_eq!(frame, LOG_STRIPE_MAGIC.to_le_bytes());
    r.line("\nlast stripe begins with LOG_STRIPE_MAGIC: yes (log grows from the back)");
}
