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
use crate::read::read_extent;
use crate::segment::{log_frame_len, Extent, SegmentInfo, SegmentLayout, SegmentState};
use crate::shelf::{Cause, ColumnWrite, Shelf};
use crate::stats::ArrayStats;
use purity_ecc::ReedSolomon;
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
        // Frame reads are scrub's own, not host reads.
        let mut frame_stats = ArrayStats::default();
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
            let width = layout.k + layout.m;
            for stripe in written_stripes(&info, &layout) {
                let unit = stripe_unit(shelf, &info, &layout, rs, stripe, &mut frame_stats, now);
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
                    match shelf.read_drive(au.drive, off, unit, now) {
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
                    let all: Vec<&[u8]> = units.iter().flatten().map(Vec::as_slice).collect();
                    let ok = (rs.verify(&all)).map_err(|e| PurityError::Internal(e.to_string()))?;
                    if !ok {
                        report.unrecoverable += 1;
                        continue;
                    }
                    let batch: Vec<ColumnWrite<'_>> = (info.columns.iter().zip(all))
                        .map(|(au, unit)| {
                            (au.drive, layout.wu_byte_offset(au.index, stripe, 0), unit)
                        })
                        .collect();
                    shelf
                        .write_paced(Cause::Rewrite, &batch, now)
                        .all_landed()?;
                    report.units_refreshed += width as u64;
                    continue;
                }
                // Repair: need at least k readable columns.
                let mut shards = units;
                match rs.reconstruct(&mut shards) {
                    Ok(()) => {
                        // Can't rewrite a pulled drive.
                        let live: Vec<usize> = (0..width)
                            .filter(|&c| !shelf.drive(info.columns[c].drive).is_failed())
                            .collect();
                        let batch: Vec<ColumnWrite<'_>> = live
                            .iter()
                            .filter_map(|&c| {
                                let au = info.columns[c];
                                let off = layout.wu_byte_offset(au.index, stripe, 0);
                                Some((au.drive, off, shards[c].as_deref()?))
                            })
                            .collect();
                        shelf
                            .write_paced(Cause::Rewrite, &batch, now)
                            .all_landed()?;
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

/// The written stripes of `info`: data from the front, log from the back.
fn written_stripes(info: &SegmentInfo, layout: &SegmentLayout) -> Vec<usize> {
    let log = (0..info.log_stripes as usize).map(|l| layout.n_stripes - 1 - l);
    (0..info.data_stripes as usize).chain(log).collect()
}

/// The bytes of each column that written stripe `stripe` of `info` holds
/// from its unit's start: the whole unit for a data stripe; for a log
/// stripe, the page rows its frame counts ([`SegmentLayout::log_unit`]).
/// The frame is read as recovery reads it, rebuilt from parity where
/// column 0 is out; a log stripe whose frame reads from nowhere is
/// checked by its first row. `stats` takes the frame read's counters.
fn stripe_unit(
    shelf: &mut Shelf,
    info: &SegmentInfo,
    layout: &SegmentLayout,
    rs: &ReedSolomon,
    stripe: usize,
    stats: &mut ArrayStats,
    now: Nanos,
) -> usize {
    if stripe < info.data_stripes as usize {
        return layout.wu;
    }
    let frame = Extent {
        column: 0,
        stripe,
        within: 0,
        len: 16,
    };
    read_extent(shelf, info, layout, rs, false, stats, &frame, now, None)
        .ok()
        .and_then(|(f, _)| log_frame_len(&f))
        .map_or(layout.page, |n| layout.log_unit(n))
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
    /// count, never by history. A boot mirror first gets the current
    /// checkpoint back; if that write fails, nothing is rebuilt.
    pub fn rebuild_drive(
        &mut self,
        shelf: &mut Shelf,
        drive: crate::types::DriveId,
        now: Nanos,
    ) -> Result<RebuildReport> {
        self.boot.resilver(shelf, drive, now)?;
        let mut report = RebuildReport::default();
        let mut frame_stats = ArrayStats::default();
        let segments: Vec<_> = self.segments.values().cloned().collect();
        for info in segments {
            let Some(target_col) = info.columns.iter().position(|au| au.drive == drive) else {
                continue;
            };
            report.segments_visited += 1;
            let writer = &self.writers[info.class(self.cfg.n_drives)];
            let (layout, rs) = (*writer.layout(), writer.rs());
            let target_au = info.columns[target_col];
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
            let _ = shelf.write_paced(Cause::Rewrite, &[(drive, hdr_off, &header)], now);

            for stripe in written_stripes(&info, &layout) {
                let unit = stripe_unit(shelf, &info, &layout, rs, stripe, &mut frame_stats, now);
                let off = layout.wu_byte_offset(target_au.index, stripe, 0);
                if shelf.read_drive(drive, off, unit, now).is_ok() {
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
                    if let Ok(read) = shelf.read_drive(au.drive, o, unit, now) {
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
                            .write_paced(Cause::Rewrite, &[(drive, off, &data)], now)
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

#[cfg(test)]
mod tests {
    use crate::array::{FlashArray, PowerLossSpec};
    use crate::config::ArrayConfig;
    use crate::segment::{SegmentInfo, SegmentState, HOT};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn open_segment(a: &FlashArray) -> SegmentInfo {
        a.controller().writers[HOT].open_segment().unwrap().clone()
    }

    /// A checkpoint's map record fills a few page rows of its log stripe,
    /// and only those rows are programmed. Rebuild and scrub take the row
    /// count from the stripe's frame; read as whole units, the rows never
    /// programmed made the stripe look never written, and a revived drive
    /// kept the hole it was pulled with. Column 0, which holds the frame,
    /// is out for the flush, so the rebuild reads the frame from parity.
    #[test]
    fn rebuild_and_scrub_cover_a_partial_log_stripe() {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let vol = a.create_volume("v", 1 << 20).unwrap();
        let mut data = vec![0u8; 1 << 20];
        StdRng::seed_from_u64(44).fill(&mut data[..]);
        // One 4 KiB write at a time: a map fact each.
        for (i, block) in data.chunks(4096).enumerate() {
            a.write(vol, i as u64 * 4096, block).unwrap();
        }
        let before = open_segment(&a);
        let drive = |c: usize| before.columns[c].drive;
        a.fail_drive(drive(0));
        a.checkpoint().unwrap();

        // The flush was one log stripe, its record first in it: pages 0,
        // 1 and 2 (columns 0, 1 and 2) hold record bytes, and rows are
        // left unprogrammed after it.
        let after = open_segment(&a);
        assert_eq!(
            (after.id, after.log_stripes),
            (before.id, before.log_stripes + 1)
        );
        let layout = *a.controller().writers[HOT].layout();
        let (sp, page) = (layout.log_stripe_payload(), layout.page);
        let named = a.controller().map_records();
        let record = *named.last().unwrap();
        assert_eq!(record.segment, after.id.0);
        assert_eq!(record.log_offset, before.log_stripes * sp as u64);
        assert!(16 + record.len as usize > 2 * page, "{record:?}");
        assert!(
            layout.log_unit(record.len as usize) < layout.wu,
            "{record:?}"
        );

        // The revive rebuilds every unit the drive missed: the padded
        // data tail's and the log stripe's.
        let rebuilt = a.revive_drive(drive(0));
        let missed = after.data_stripes - before.data_stripes + 1;
        assert_eq!((rebuilt.units_rebuilt, rebuilt.unrecoverable), (missed, 0));

        // Scrub verifies every written stripe, the partial one included.
        let scrubbed = a.scrub().unwrap();
        let written: u64 = (a.controller().segments.values())
            .filter(|s| matches!(s.state, SegmentState::Sealed | SegmentState::Open))
            .map(|s| s.data_stripes + s.log_stripes)
            .sum();
        assert_eq!(scrubbed.stripes_verified, written);
        assert_eq!(scrubbed.unrecoverable, 0);

        // With the record's other two columns out, it reads only through
        // the rebuilt column: a cold start still loads every named record.
        a.fail_drive(drive(1));
        a.fail_drive(drive(2));
        let recovery = a.power_loss(PowerLossSpec::default()).unwrap().recovery;
        assert_eq!(recovery.patches_loaded, named.len());
        assert_eq!(a.read(vol, 0, data.len()).unwrap().0, data);
    }
}
