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
use crate::segment::{SegmentInfo, SegmentLayout, SegmentState};
use crate::shelf::{Cause, ColumnWrite, Shelf};
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
    /// Scrubs every sealed segment: read, verify, repair, rewrite. Each
    /// column is read, verified and rewritten for the bytes it holds on
    /// flash ([`SegmentInfo::on_flash`]): a padded stripe's pages that
    /// were never programmed are zeros, read from nowhere, never counted
    /// as erasures and never rewritten.
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
            let width = layout.k + layout.m;
            for stripe in written_stripes(&info, &layout) {
                let units: Vec<usize> = (0..width)
                    .map(|c| info.on_flash(&layout, stripe, c))
                    .collect();
                // Every column's share, zeros past its bytes on flash, as
                // long as the longest.
                let rows = units.iter().copied().max().unwrap_or(0);
                let mut shards: Vec<Option<Vec<u8>>> = Vec::with_capacity(width);
                let mut failed_cols: Vec<usize> = Vec::new();
                let mut unmapped = 0;
                for (c, au) in info.columns.iter().enumerate() {
                    let off = layout.wu_byte_offset(au.index, stripe, 0);
                    let read = match units[c] {
                        0 => Ok(Vec::new()),
                        _ if shelf.drive(au.drive).is_failed() => Err(false),
                        unit => match shelf.read_drive(au.drive, off, unit, now) {
                            Ok(read) => Ok(read.data),
                            // Either a never-written stripe (recovery can
                            // over-approximate stripe counts) or a column
                            // skipped by a degraded write.
                            Err(PurityError::Device(msg)) => Err(msg.contains("unmapped")),
                            Err(_) => Err(false),
                        },
                    };
                    match read {
                        Ok(mut bytes) => {
                            bytes.resize(rows, 0);
                            shards.push(Some(bytes));
                        }
                        Err(never_written) => {
                            shards.push(None);
                            failed_cols.push(c);
                            unmapped += usize::from(never_written);
                        }
                    }
                }
                // Every column that reads as never programmed, more than
                // parity covers: a stripe never written whole (torn, or
                // padded with its fill in no loaded record), which no
                // loaded fact reads, or one never written at all.
                if unmapped == failed_cols.len() && unmapped > layout.m {
                    continue;
                }
                report.stripes_verified += 1;
                if failed_cols.is_empty() {
                    // All readable: verify parity consistency, then
                    // rewrite in place to refresh retention.
                    let all: Vec<&[u8]> = shards.iter().flatten().map(Vec::as_slice).collect();
                    let ok = (rs.verify(&all)).map_err(|e| PurityError::Internal(e.to_string()))?;
                    if !ok {
                        report.unrecoverable += 1;
                        continue;
                    }
                }
                // Repair: need at least k readable columns.
                if rs.reconstruct(&mut shards).is_err() {
                    report.unrecoverable += 1;
                    continue;
                }
                // Can't rewrite a pulled drive, nor what was never
                // programmed.
                let live: Vec<usize> = (0..width)
                    .filter(|&c| units[c] > 0 && !shelf.drive(info.columns[c].drive).is_failed())
                    .collect();
                let batch: Vec<ColumnWrite<'_>> = (live.iter())
                    .filter_map(|&c| {
                        let au = info.columns[c];
                        let off = layout.wu_byte_offset(au.index, stripe, 0);
                        Some((au.drive, off, shards[c].as_ref()?.get(..units[c])?))
                    })
                    .collect();
                shelf
                    .write_paced(Cause::Rewrite, &batch, now)
                    .all_landed()?;
                let repaired = live.iter().filter(|c| failed_cols.contains(c)).count();
                report.units_repaired += repaired as u64;
                report.units_refreshed += (live.len() - repaired) as u64;
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
    ///
    /// A unit the drive can read is not taken as intact: the bytes there
    /// may be an earlier use's of the AU, left when the drive was out for
    /// the trim that freed it. Each unit is rebuilt from `k` other
    /// columns and rewritten unless the drive already holds exactly that.
    /// Only the bytes the unit holds on flash are read, compared and
    /// written ([`SegmentInfo::on_flash`]); a padded stripe's other
    /// columns are zeros past theirs, read from nowhere.
    pub fn rebuild_drive(
        &mut self,
        shelf: &mut Shelf,
        drive: crate::types::DriveId,
        now: Nanos,
    ) -> Result<RebuildReport> {
        self.boot.resilver(shelf, drive, now)?;
        let mut report = RebuildReport::default();
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
                let unit = info.on_flash(&layout, stripe, target_col);
                if unit == 0 {
                    continue; // padding: nothing of this stripe is here
                }
                // Gather k other columns' bytes of the unit's rows.
                let (mut available, mut read, mut lost) = (Vec::new(), 0, 0);
                for (c, au) in info.columns.iter().enumerate() {
                    if available.len() == layout.k {
                        break;
                    }
                    if c == target_col {
                        continue;
                    }
                    let span = info.on_flash(&layout, stripe, c).min(unit);
                    let mut bytes = Vec::new();
                    if span > 0 {
                        let o = layout.wu_byte_offset(au.index, stripe, 0);
                        match shelf.read_drive(au.drive, o, span, now) {
                            Ok(r) => bytes = r.data,
                            Err(PurityError::Device(msg)) if msg.contains("unmapped") => continue,
                            Err(_) => {
                                lost += 1;
                                continue;
                            }
                        }
                        read += 1;
                    }
                    bytes.resize(unit, 0);
                    available.push((c, bytes));
                }
                if available.len() < layout.k {
                    // A stripe never written whole (its missing columns
                    // never programmed) holds nothing to rebuild; one
                    // written whole with too many columns failed is lost.
                    if read > 0 && lost > 0 {
                        report.unrecoverable += 1;
                    }
                    continue;
                }
                let refs: Vec<(usize, &[u8])> =
                    available.iter().map(|(c, b)| (*c, b.as_slice())).collect();
                let Ok(data) = rs.reconstruct_one(target_col, &refs) else {
                    report.unrecoverable += 1;
                    continue;
                };
                let off = layout.wu_byte_offset(target_au.index, stripe, 0);
                if shelf
                    .read_drive(drive, off, unit, now)
                    .is_ok_and(|r| r.data == data)
                {
                    continue; // already intact
                }
                shelf
                    .write_paced(Cause::Rewrite, &[(drive, off, &data)], now)
                    .all_landed()?;
                report.units_rebuilt += 1;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::written_stripes;
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

    /// A drive pulled while the open segment wrote five stripes, whose AU
    /// held other bytes where column 3's next stripe goes — what an AU's
    /// earlier use leaves when GC's trim skips a pulled drive. The rebuild
    /// checks each readable unit against the other columns: it rewrote
    /// four of the five units and kept the stale one, so scrub found that
    /// stripe inconsistent and the read of it failed to decode.
    #[test]
    fn a_rebuild_replaces_stale_bytes_a_revived_drive_reads() {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let vol = a.create_volume("v", 4 << 20).unwrap();
        let layout = *a.controller().writers[HOT].layout();
        let mut data = vec![0u8; 64 << 10];
        StdRng::seed_from_u64(46).fill(&mut data[..]);
        a.write(vol, 0, &data).unwrap();
        let seg = open_segment(&a);
        let au = seg.columns[3];
        let next = seg.data_stripes as usize + 1;
        let stale = vec![0xA5; layout.wu];
        let now = a.now();
        let (_, shelf) = a.controller_and_shelf();
        let at = layout.wu_byte_offset(au.index, next, 0);
        shelf.write_drive(au.drive, at, &stale, now).unwrap();

        a.fail_drive(au.drive);
        let mut more = vec![0u8; 5 * layout.stripe_data_bytes()];
        StdRng::seed_from_u64(47).fill(&mut more[..]);
        a.write(vol, data.len() as u64, &more).unwrap();
        let written = open_segment(&a).data_stripes - seg.data_stripes;
        assert!(written >= 5, "{written} stripes");
        let rebuilt = a.revive_drive(au.drive);
        assert_eq!((rebuilt.units_rebuilt, rebuilt.unrecoverable), (written, 0));
        let scrubbed = a.scrub().unwrap();
        assert_eq!((scrubbed.unrecoverable, scrubbed.units_repaired), (0, 0));
        data.extend_from_slice(&more);
        assert_eq!(a.read(vol, 0, data.len()).unwrap().0, data);
    }

    /// Padded data stripes after a cold start and after a failover: the
    /// checkpoint's rows bring their fills back, scrub verifies every
    /// written stripe with nothing repaired or unrecoverable and rewrites
    /// only the pages they hold, and a drive pulled across padded writes
    /// gets back only its units' programmed pages.
    #[test]
    fn scrub_and_rebuild_keep_to_the_programmed_pages_after_a_restart() {
        use crate::shelf::Cause;
        let rewritten = |a: &mut FlashArray| {
            let (_, shelf) = a.controller_and_shelf();
            let ledger = shelf.program_ledger();
            ledger.bytes(Cause::Rewrite, false)
        };
        for failover in [false, true] {
            let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
            let layout = *a.controller().writers[HOT].layout();
            let vol = a.create_volume("v", 4 << 20).unwrap();
            let mut data = vec![0u8; 1 << 20];
            StdRng::seed_from_u64(48).fill(&mut data[..]);
            // 96 KiB a write, a checkpoint after each: each pads a stripe.
            let write = |a: &mut FlashArray, i: usize| {
                let at = i * (96 << 10);
                a.write(vol, at as u64, &data[at..at + (96 << 10)]).unwrap();
                a.checkpoint().unwrap();
            };
            for i in 0..4 {
                write(&mut a, i);
            }
            let fills = |a: &FlashArray| -> Vec<(u64, Vec<(u64, u64)>)> {
                (a.controller().segments.values())
                    .map(|s| (s.id.0, s.fills.clone()))
                    .collect()
            };
            let before = fills(&a);
            let padded = (a.controller().segments.values())
                .flat_map(|s| (0..s.data_stripes as usize).filter(|&d| s.fill(d).is_some()))
                .count();
            assert!(padded >= 4, "{before:?}");
            if failover {
                a.fail_primary().unwrap();
            } else {
                a.power_loss(PowerLossSpec::default()).unwrap();
            }
            assert_eq!(fills(&a), before);

            // Scrub rewrites every column's bytes on flash, and no more.
            let (mut stripes, mut on_flash) = (0, 0);
            for info in a.controller().segments.values() {
                for stripe in written_stripes(info, &layout) {
                    stripes += 1;
                    on_flash += (0..layout.k + layout.m)
                        .map(|c| info.on_flash(&layout, stripe, c) as u64)
                        .sum::<u64>();
                }
            }
            let was = rewritten(&mut a);
            let scrubbed = a.scrub().unwrap();
            assert_eq!(scrubbed.stripes_verified, stripes);
            assert_eq!((scrubbed.unrecoverable, scrubbed.units_repaired), (0, 0));
            assert_eq!(rewritten(&mut a) - was, on_flash);

            // A drive out across two padded writes gets back the pages
            // its units hold of what it missed, and each visited
            // segment's header.
            write(&mut a, 4);
            let drive = open_segment(&a).columns[1].drive;
            let old: Vec<(u64, u64, u64)> = (a.controller().segments.values())
                .map(|s| (s.id.0, s.data_stripes, s.log_stripes))
                .collect();
            a.fail_drive(drive);
            write(&mut a, 5);
            write(&mut a, 6);
            let (mut missed, mut bytes, mut visited) = (0, 0, 0);
            for info in a.controller().segments.values() {
                let Some(c) = info.columns.iter().position(|au| au.drive == drive) else {
                    continue;
                };
                visited += 1;
                let (d0, l0) = (old.iter())
                    .find(|o| o.0 == info.id.0)
                    .map_or((0, 0), |o| (o.1 as usize, o.2 as usize));
                let new_data = d0..info.data_stripes as usize;
                let new_log = (l0..info.log_stripes as usize).map(|l| layout.n_stripes - 1 - l);
                for stripe in new_data.chain(new_log) {
                    let unit = info.on_flash(&layout, stripe, c) as u64;
                    missed += u64::from(unit > 0);
                    bytes += unit;
                }
            }
            let was = rewritten(&mut a);
            let rebuilt = a.revive_drive(drive);
            assert_eq!((rebuilt.units_rebuilt, rebuilt.unrecoverable), (missed, 0));
            let headers = visited * layout.au_header as u64;
            assert_eq!(rewritten(&mut a) - was, bytes + headers);
            assert_eq!(a.scrub().unwrap().unrecoverable, 0);
            let len = 7 * (96 << 10);
            assert_eq!(a.read(vol, 0, len).unwrap().0, data[..len]);
        }
    }
}
