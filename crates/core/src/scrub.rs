//! Background scrubbing (§5.1).
//!
//! Worn flash leaks charge; P/E ratings assume a year of unpowered
//! retention. Purity periodically reads every stripe, repairs anything
//! unreadable from parity, and rewrites repaired data in place — which
//! also refreshes retention, letting arrays run "well past rated wear
//! out". Every rewrite goes out on the shelf's §4.4 pacer, so a scrub or
//! rebuild pass never takes more columns away from a reader than parity
//! can rebuild. Both run over both device classes, each segment at its
//! class's layout and code.

use crate::controller::Controller;
use crate::error::{PurityError, Result};
use crate::records::SegmentState;
use crate::shelf::{ColumnWrite, Shelf};
use purity_sim::Nanos;

/// Results of one scrub pass.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Segments examined.
    pub segments_scanned: usize,
    /// Stripes read and verified.
    pub stripes_verified: u64,
    /// Write units repaired from parity and rewritten.
    pub units_repaired: u64,
    /// Healthy write units rewritten to refresh flash retention (§5.1:
    /// "periodically scrubbing and rewriting data ensures that the
    /// worn-out flash is rewritten more frequently than the P/E
    /// calculations assumed").
    pub units_refreshed: u64,
    /// Stripes with too many failures to repair.
    pub unrecoverable: u64,
}

impl Controller {
    /// Scrubs every sealed segment: read, verify, repair, rewrite.
    pub fn scrub(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<ScrubReport> {
        let mut report = ScrubReport::default();
        // Scrub sealed segments fully, and the open segments' already-
        // flushed stripes (their pending tails live in DRAM).
        let segments: Vec<_> = self
            .segments
            .values()
            .filter(|s| matches!(s.state, SegmentState::Sealed | SegmentState::Open))
            .cloned()
            .collect();
        for info in segments {
            report.segments_scanned += 1;
            let writer = &self.writers[info.class(self.cfg.n_drives)];
            let (layout, rs) = (*writer.layout(), writer.rs());
            let (wu, width) = (layout.wu, layout.k + layout.m);
            // Written stripes: data from the front, log from the back.
            let mut stripes: Vec<usize> = (0..info.data_stripes as usize).collect();
            for l in 0..info.log_stripes as usize {
                stripes.push(layout.n_stripes - 1 - l);
            }
            for stripe in stripes {
                let mut units: Vec<Option<Vec<u8>>> = Vec::with_capacity(width);
                let mut failed_cols: Vec<usize> = Vec::new();
                let mut unmapped = 0;
                for (c, au) in info.columns.iter().enumerate() {
                    let off = layout.wu_byte_offset(au.index, stripe, 0);
                    if shelf.drive(au.drive).is_failed() {
                        units.push(None);
                        failed_cols.push(c);
                        continue;
                    }
                    match shelf.read_drive(au.drive, off, wu, now) {
                        Ok(read) => units.push(Some(read.data)),
                        Err(PurityError::Device(msg)) if msg.contains("unmapped") => {
                            // Either a never-written stripe (recovery can
                            // over-approximate stripe counts) or a column
                            // skipped by a degraded write.
                            units.push(None);
                            failed_cols.push(c);
                            unmapped += 1;
                        }
                        Err(_) => {
                            units.push(None);
                            failed_cols.push(c);
                        }
                    }
                }
                if unmapped == width {
                    continue; // never-written stripe
                }
                report.stripes_verified += 1;
                if failed_cols.is_empty() {
                    // All readable: verify parity consistency, then
                    // rewrite in place to refresh retention.
                    let ok = {
                        let refs: Vec<&[u8]> = units
                            .iter()
                            .map(|u| u.as_ref().expect("all read").as_slice())
                            .collect();
                        rs.verify(&refs)
                            .map_err(|e| PurityError::Internal(e.to_string()))?
                    };
                    if !ok {
                        report.unrecoverable += 1;
                        continue;
                    }
                    let batch: Vec<ColumnWrite<'_>> = info
                        .columns
                        .iter()
                        .zip(&units)
                        .map(|(au, unit)| {
                            let off = layout.wu_byte_offset(au.index, stripe, 0);
                            (au.drive, off, unit.as_deref().expect("all read"))
                        })
                        .collect();
                    shelf.write_paced(&batch, now).all_landed()?;
                    report.units_refreshed += width as u64;
                    continue;
                }
                // Repair: need at least k readable columns.
                let mut shards: Vec<Option<Vec<u8>>> = units.clone();
                match rs.reconstruct(&mut shards) {
                    Ok(()) => {
                        // Can't rewrite a pulled drive.
                        let live: Vec<usize> = (0..width)
                            .filter(|&c| !shelf.drive(info.columns[c].drive).is_failed())
                            .collect();
                        let batch: Vec<ColumnWrite<'_>> = live
                            .iter()
                            .map(|&c| {
                                let au = info.columns[c];
                                let off = layout.wu_byte_offset(au.index, stripe, 0);
                                (au.drive, off, shards[c].as_deref().expect("reconstructed"))
                            })
                            .collect();
                        shelf.write_paced(&batch, now).all_landed()?;
                        let repaired = live.iter().filter(|c| failed_cols.contains(c)).count();
                        report.units_repaired += repaired as u64;
                        report.units_refreshed += (live.len() - repaired) as u64;
                    }
                    Err(_) => report.unrecoverable += 1,
                }
            }
        }
        self.stats.scrub_passes += 1;
        self.stats.scrub_repairs += report.units_repaired;
        Ok(report)
    }
}

/// Results of rebuilding one drive after reinsertion/replacement.
#[derive(Debug, Clone, Default)]
pub struct RebuildReport {
    /// Segments that have a column on the drive.
    pub segments_visited: usize,
    /// Write units reconstructed onto the drive.
    pub units_rebuilt: u64,
    /// Stripes that could not be rebuilt (too many other failures).
    pub unrecoverable: u64,
}

impl Controller {
    /// Rebuilds every write unit a (reinserted or replacement) drive
    /// should hold, reconstructing from the other columns. Run on drive
    /// reinsertion so stripes degrade by at most the concurrent failure
    /// count, never by history.
    pub fn rebuild_drive(
        &mut self,
        shelf: &mut Shelf,
        drive: crate::types::DriveId,
        now: Nanos,
    ) -> Result<RebuildReport> {
        let mut report = RebuildReport::default();
        let segments: Vec<_> = self
            .segments
            .values()
            .filter(|s| s.columns.iter().any(|au| au.drive == drive))
            .cloned()
            .collect();
        for info in segments {
            report.segments_visited += 1;
            let writer = &self.writers[info.class(self.cfg.n_drives)];
            let (layout, rs) = (*writer.layout(), writer.rs());
            let wu = layout.wu;
            let target_col = info
                .columns
                .iter()
                .position(|au| au.drive == drive)
                .expect("filtered above");
            let target_au = info.columns[target_col];
            let mut stripes: Vec<usize> = (0..info.data_stripes as usize).collect();
            for l in 0..info.log_stripes as usize {
                stripes.push(layout.n_stripes - 1 - l);
            }
            // Refresh the AU header first (it was written at open and may
            // be missing if the drive was out when the segment opened).
            let header = crate::segment::AuHeader {
                segment: info.id,
                column: target_col,
                columns: info.columns.clone(),
                seq_lo: info.seq,
            }
            .encode(layout.au_header);
            let hdr_off = layout.au_byte_offset(target_au.index);
            let _ = shelf.write_paced(&[(drive, hdr_off, &header)], now);

            for stripe in stripes {
                let off = layout.wu_byte_offset(target_au.index, stripe, 0);
                if shelf.read_drive(drive, off, wu, now).is_ok() {
                    continue; // already intact
                }
                // Gather k other columns.
                let mut available: Vec<(usize, Vec<u8>)> = Vec::new();
                for (c, au) in info.columns.iter().enumerate() {
                    if c == target_col || shelf.drive(au.drive).is_failed() {
                        continue;
                    }
                    if available.len() == layout.k {
                        break;
                    }
                    let o = layout.wu_byte_offset(au.index, stripe, 0);
                    if let Ok(read) = shelf.read_drive(au.drive, o, wu, now) {
                        available.push((c, read.data));
                    }
                }
                if available.len() < layout.k {
                    // Either a never-written stripe (all unmapped) or too
                    // many concurrent failures.
                    let any_written = !available.is_empty();
                    if any_written {
                        report.unrecoverable += 1;
                    }
                    continue;
                }
                let refs: Vec<(usize, &[u8])> =
                    available.iter().map(|(c, b)| (*c, b.as_slice())).collect();
                match rs.reconstruct_one(target_col, &refs) {
                    Ok(data) => {
                        shelf
                            .write_paced(&[(drive, off, &data)], now)
                            .all_landed()?;
                        report.units_rebuilt += 1;
                    }
                    Err(_) => report.unrecoverable += 1,
                }
            }
        }
        Ok(report)
    }
}
