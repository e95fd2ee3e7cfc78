//! The shelf: the drives and NVRAM both controllers can reach (§4.1).
//!
//! SAS interposers connect every drive to both controllers, and the NVRAM
//! lives in the shelf precisely so controllers stay stateless. The shelf
//! is therefore the unit that *survives* a controller failover. It also
//! owns the §4.4 write schedule: every array-issued bulk write goes out
//! through [`Shelf::write_paced`], as many drives a slot as the write
//! group has parity, and the windows those writes occupy are what the
//! read planner reads around.
//!
//! Drives are numbered in one space: the hot drives first, then the cold
//! pool. One write, read and trim path serves both, behind one power
//! gate; the two are separate write groups with separate pacers.

use crate::config::ArrayConfig;
use crate::error::{PurityError, Result};
use crate::segment::{SegmentLayout, COLD, HOT};
use crate::types::DriveId;
use purity_sim::{Clock, Nanos, Reservation};
use purity_ssd::nvram::NvramError;
use purity_ssd::{Nvram, Ssd};
use std::sync::Arc;

/// Which durable-device mutations a scheduled power loss counts toward
/// its trigger (and tears when it fires). Every variant but `AnyWrite`
/// is also the kind of one mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTarget {
    /// Any drive write or NVRAM append.
    AnyWrite,
    /// NVRAM appends only (torn write-intent tail).
    NvramAppend,
    /// Boot-region mirror writes only (torn checkpoint slot).
    BootWrite,
    /// Hot-drive writes outside the boot region (torn segment flush / AU
    /// header).
    SegmentWrite,
    /// Cold-drive writes (torn cold segment flush mid-relocation, as a
    /// demotion is).
    ColdWrite,
}

impl CrashTarget {
    /// How a torn note names a mutation of this kind.
    fn noun(self) -> &'static str {
        match self {
            CrashTarget::AnyWrite => "write",
            CrashTarget::NvramAppend => "NVRAM-append",
            CrashTarget::BootWrite => "boot-region write",
            CrashTarget::SegmentWrite => "segment write",
            CrashTarget::ColdWrite => "cold write",
        }
    }
}

/// A pending whole-array power loss, armed on the shelf: the `after`-th
/// matching device mutation from now is torn at `keep_bytes` and power
/// dies with it — every later I/O fails until [`Shelf::power_restore`].
#[derive(Debug, Clone, Copy)]
struct PowerTrigger {
    target: CrashTarget,
    after: u64,
    keep_bytes: usize,
}

/// One column of a [`Shelf::write_paced`] batch: page-aligned bytes for
/// a page-aligned byte offset of a drive.
pub type ColumnWrite<'a> = (DriveId, usize, &'a [u8]);

/// What one [`Shelf::write_paced`] batch did.
#[derive(Debug)]
pub struct Paced {
    /// When the last column that landed completes (`now` if none did).
    pub done: Nanos,
    /// Why the first skipped column was refused, if any was.
    pub refused: Option<PurityError>,
}

impl Paced {
    /// For a batch that must not be degraded: the completion time, or
    /// the refusal.
    pub fn all_landed(self) -> Result<Nanos> {
        match self.refused {
            Some(e) => Err(e),
            None => Ok(self.done),
        }
    }
}

/// The shared drive shelf.
pub struct Shelf {
    /// The virtual clock every component shares.
    pub clock: Arc<Clock>,
    /// The hot drives, then the cold pool (QLC-like).
    drives: Vec<Ssd>,
    /// Hot drives: ids below this are hot, the rest cold.
    n_hot: usize,
    nvram: Nvram,
    /// Per-drive intervals during which array-issued bulk writes occupy
    /// the drive: sorted, disjoint, merged where they touch. Windows
    /// start at the paced device-issue time, not the request arrival — a
    /// drive queued behind the pacer is still idle. Pruned by the clock
    /// only: a window is dropped once it has ended, never for being one
    /// too many.
    writing_windows: Vec<Vec<(Nanos, Nanos)>>,
    /// The §4.4 write pacer of each write group, hot and cold: its slot
    /// width (the group's parity count — no more drives writing at once
    /// than a read can rebuild around) and the end of the last slot
    /// [`Shelf::write_paced`] handed out.
    pacers: [(usize, Nanos); 2],
    /// Boot-region extent at the front of the mirror drives (used to
    /// classify writes for [`CrashTarget`]).
    boot_region_bytes: usize,
    /// Whole-shelf power state. While off, every durable mutation and
    /// read is rejected; contents are frozen (flash and NVRAM are
    /// non-volatile).
    powered: bool,
    /// Armed power-loss trigger, if any.
    trigger: Option<PowerTrigger>,
    /// Human-readable note describing what the last fired trigger tore
    /// (phase classification for the torture harness).
    torn_note: Option<String>,
}

impl Shelf {
    /// Builds the shelf from a config.
    pub fn new(config: &ArrayConfig, clock: Arc<Clock>) -> Self {
        let mut drives: Vec<Ssd> = (0..config.n_drives)
            .map(|i| {
                let mut ssd = Ssd::new(
                    config.ssd_geometry,
                    config.ssd_latency,
                    config.ssd_endurance,
                    clock.clone(),
                    config.seed.wrapping_add(i as u64 * 0x9E37),
                    config.ssd_over_provision,
                );
                if config.preage_cycles > 0 {
                    ssd.preage(config.preage_cycles);
                }
                ssd
            })
            .collect();
        drives.extend((0..config.cold_drives).map(|i| {
            Ssd::new(
                config.cold_geometry,
                config.cold_latency,
                config.cold_endurance,
                clock.clone(),
                config
                    .seed
                    .wrapping_add(0xC01D)
                    .wrapping_add(i as u64 * 0x9E37),
                config.ssd_over_provision,
            )
        }));
        Self {
            clock,
            writing_windows: vec![Vec::new(); drives.len()],
            drives,
            n_hot: config.n_drives,
            nvram: Nvram::new(config.nvram_bytes),
            pacers: [
                (SegmentLayout::from_config(config).m, 0),
                (SegmentLayout::cold(config).m, 0),
            ],
            boot_region_bytes: config.boot_region_bytes(),
            powered: true,
            trigger: None,
            torn_note: None,
        }
    }

    /// Whether the shelf currently has power.
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Arms a power-loss trigger: the `after`-th subsequent device
    /// mutation matching `target` (0 = the very next one) is torn so
    /// that only its first `keep_bytes` bytes reach the medium, and the
    /// whole shelf loses power at that instant. Replaces any
    /// previously-armed trigger.
    pub fn arm_power_loss(&mut self, target: CrashTarget, after: u64, keep_bytes: usize) {
        self.trigger = Some(PowerTrigger {
            target,
            after,
            keep_bytes,
        });
    }

    /// Whether a power-loss trigger is still armed (it has not fired).
    pub fn power_loss_armed(&self) -> bool {
        self.trigger.is_some()
    }

    /// Cuts power cleanly at an operation boundary: no in-flight write
    /// is torn, but every subsequent I/O fails until
    /// [`Shelf::power_restore`]. Disarms any pending trigger.
    pub fn cut_power(&mut self) {
        self.powered = false;
        self.trigger = None;
        self.torn_note = Some("clean cut at op boundary".to_string());
    }

    /// Restores power. Durable contents (flash, NVRAM) are intact;
    /// volatile shelf-side scheduling state (writing windows, the write
    /// pacer) is gone with the outage.
    pub fn power_restore(&mut self) {
        self.powered = true;
        self.trigger = None;
        for w in &mut self.writing_windows {
            w.clear();
        }
        for pacer in &mut self.pacers {
            pacer.1 = 0;
        }
    }

    /// What the last power loss tore, if anything (phase classification
    /// for the torture harness).
    pub fn torn_note(&self) -> Option<&str> {
        self.torn_note.as_deref()
    }

    /// The kind of durable mutation a write to drive `d` at `offset` is.
    fn write_kind(&self, d: DriveId, offset: usize) -> CrashTarget {
        if d >= self.n_hot {
            CrashTarget::ColdWrite
        } else if d < crate::bootregion::BOOT_MIRRORS && offset < self.boot_region_bytes {
            CrashTarget::BootWrite
        } else {
            CrashTarget::SegmentWrite
        }
    }

    /// Counts one durable mutation of `kind` against the armed trigger.
    /// Returns `Some(keep_bytes)` when the trigger fires on this one; the
    /// caller tears the mutation there, and power dies with it.
    fn countdown(&mut self, kind: CrashTarget) -> Option<usize> {
        let t = self.trigger.as_mut()?;
        if t.target != kind && t.target != CrashTarget::AnyWrite {
            return None;
        }
        if t.after > 0 {
            t.after -= 1;
            return None;
        }
        self.trigger.take().map(|t| t.keep_bytes)
    }

    /// Cuts power after a torn mutation of `kind`; the note names it and
    /// `what` it tore ("drive 3 offset 4096").
    fn tear(&mut self, kind: CrashTarget, what: String, keep: usize, len: usize) -> PurityError {
        self.powered = false;
        self.torn_note = Some(format!(
            "power lost mid-{}: {what} torn at {keep}/{len} bytes",
            kind.noun()
        ));
        PurityError::Device(format!("{what}: power lost mid-write"))
    }

    /// Number of hot drive slots (ids `0..n_drives()`).
    pub fn n_drives(&self) -> usize {
        self.n_hot
    }

    /// Number of cold-pool drive slots (ids from `n_drives()` on).
    pub fn n_cold_drives(&self) -> usize {
        self.drives.len() - self.n_hot
    }

    /// Immutable access to cold drive `d` (drive id `n_drives() + d`).
    pub fn cold_drive(&self, d: usize) -> &Ssd {
        &self.drives[self.n_hot + d]
    }

    /// Immutable drive access.
    pub fn drive(&self, d: DriveId) -> &Ssd {
        &self.drives[d]
    }

    /// Mutable drive access (fault injection, direct I/O).
    pub fn drive_mut(&mut self, d: DriveId) -> &mut Ssd {
        &mut self.drives[d]
    }

    /// The NVRAM log device.
    pub fn nvram(&self) -> &Nvram {
        &self.nvram
    }

    /// Attributes subsequent drive programs to controller-driven garbage
    /// collection (or back to host traffic) on every drive, so reads
    /// queueing behind them report GC interference rather than an
    /// ordinary program stall.
    pub fn set_gc_mode(&mut self, on: bool) {
        for d in &mut self.drives {
            d.set_gc_mode(on);
        }
    }

    /// Drives currently failed, hot and cold.
    pub fn failed_drives(&self) -> Vec<DriveId> {
        (0..self.drives.len())
            .filter(|&d| self.drives[d].is_failed())
            .collect()
    }

    /// The one paced write entry (§4.4: "we try to avoid writing to more
    /// than two SSDs per ECC group at the same time"). The batch's
    /// column writes go out in order, a slot of as many drives as its
    /// write group has parity, each slot starting where the group's last
    /// one — of this batch or any earlier one — ended, so a read always
    /// finds at least `k` columns outside a window. The hot drives and
    /// the cold pool are separate groups: neither waits for the other. A
    /// column its drive refuses (pulled drive, power lost) is skipped and
    /// the rest still go out: parity covers a degraded write.
    pub fn write_paced(&mut self, columns: &[ColumnWrite<'_>], now: Nanos) -> Paced {
        let mut out = Paced {
            done: now,
            refused: None,
        };
        let Some(&(first, _, _)) = columns.first() else {
            return out;
        };
        let group = if first < self.n_hot { HOT } else { COLD };
        for slot in columns.chunks(self.pacers[group].0) {
            let start = self.pacers[group].1.max(now);
            let mut slot_end = start;
            for &(d, offset, data) in slot {
                match self.write_drive(d, offset, data, start) {
                    Ok(t) => slot_end = slot_end.max(t),
                    Err(e) => {
                        out.refused.get_or_insert(e);
                    }
                }
            }
            self.pacers[group].1 = slot_end;
            out.done = out.done.max(slot_end);
        }
        out
    }

    /// Marks a drive as servicing array writes over `[from, until)`.
    fn mark_writing(&mut self, d: DriveId, mut from: Nanos, mut until: Nanos) {
        if from >= until {
            return;
        }
        let present = self.clock.now();
        let w = &mut self.writing_windows[d];
        w.drain(..w.partition_point(|&(_, e)| e <= present));
        // Everything from the first window that reaches `from` to the
        // last that starts by `until` folds into the new one.
        let lo = w.partition_point(|&(_, e)| e < from);
        let hi = w.partition_point(|&(s, _)| s <= until);
        if lo < hi {
            from = from.min(w[lo].0);
            until = until.max(w[hi - 1].1);
        }
        w.splice(lo..hi, [(from, until)]);
    }

    /// True if the array writes to drive `d` at some instant of
    /// `[from, to)` — the §4.4 condition for treating the drive as
    /// failed, asked over the whole span a read would occupy it.
    pub fn writes_overlap(&self, d: DriveId, from: Nanos, to: Nanos) -> bool {
        let w = &self.writing_windows[d];
        w.get(w.partition_point(|&(_, e)| e <= from))
            .is_some_and(|&(s, _)| s < to)
    }

    /// True if the array is writing to drive `d` at the instant `at`.
    pub fn is_writing(&self, d: DriveId, at: Nanos) -> bool {
        self.writes_overlap(d, at, at + 1)
    }

    /// Writes page-aligned bytes to a drive at `now`, unpaced, updating
    /// the writing window. The single choke point every durable drive
    /// mutation goes through ([`Shelf::write_paced`] is the scheduled
    /// way in): power loss (armed via [`Shelf::arm_power_loss`]) fires
    /// here, tearing this write and failing everything after it.
    pub fn write_drive(
        &mut self,
        d: DriveId,
        offset: usize,
        data: &[u8],
        now: Nanos,
    ) -> Result<Nanos> {
        if !self.powered {
            return Err(PurityError::Device("shelf power lost".to_string()));
        }
        let kind = self.write_kind(d, offset);
        if let Some(keep) = self.countdown(kind) {
            let keep = keep.min(data.len().saturating_sub(1));
            // The prefix reaches the medium; the straddling page is an
            // interrupted program (undefined contents); the tail never
            // started. Then the lights go out.
            let _ = self.drives[d].write_torn(offset, data, keep, now);
            let what = format!("drive {d} offset {offset}");
            return Err(self.tear(kind, what, keep, data.len()));
        }
        let done = self.drives[d]
            .write(offset, data, now)
            .map_err(|e| PurityError::Device(format!("drive {}: {}", d, e)))?;
        self.mark_writing(d, now, done);
        Ok(done)
    }

    /// Appends to NVRAM through the power gate. An armed
    /// `NvramAppend`/`AnyWrite` trigger fires here: the record's tail is
    /// torn at `keep_bytes` and power dies with it — the caller never
    /// gets an index back, so the intent was never acknowledgeable.
    pub fn nvram_append(&mut self, payload: &[u8], now: Nanos) -> Result<(u64, Nanos)> {
        if !self.powered {
            return Err(PurityError::Device("shelf power lost".to_string()));
        }
        if let Some(keep) = self.countdown(CrashTarget::NvramAppend) {
            let keep = keep.min(payload.len().saturating_sub(1));
            // Durably land the record first, then tear its tail: the
            // prefix genuinely reached the SLC medium before the outage.
            let _ = self.nvram.append(payload, now);
            self.nvram.tear_last_append(keep);
            let what = "nvram record".to_string();
            return Err(self.tear(CrashTarget::NvramAppend, what, keep, payload.len()));
        }
        match self.nvram.append(payload, now) {
            Ok(v) => Ok(v),
            // Full is recoverable: the controller checkpoints to trim
            // the log and retries, so it must stay distinguishable.
            Err(NvramError::Full) => Err(PurityError::OutOfSpace),
            Err(e) => Err(PurityError::Device(format!("nvram: {}", e))),
        }
    }

    /// Trims NVRAM through the power gate (trims are durable mutations
    /// too — a powered-off shelf must not lose its replay log).
    pub fn nvram_trim(&mut self, through: u64) -> Result<()> {
        if !self.powered {
            return Err(PurityError::Device("shelf power lost".to_string()));
        }
        self.nvram.trim_through(through);
        Ok(())
    }

    /// TRIMs a drive extent through the power gate (GC's erasure path).
    pub fn trim_drive(&mut self, d: DriveId, offset: usize, len: usize) -> Result<()> {
        if !self.powered {
            return Err(PurityError::Device("shelf power lost".to_string()));
        }
        self.drives[d]
            .trim(offset, len)
            .map_err(|e| PurityError::Device(format!("drive {}: {}", d, e)))
    }

    /// What [`Shelf::read_drive`] would be granted for the same
    /// arguments, without booking anything on the drive: `end` is when
    /// the read would complete, `start` when its critical-path page
    /// would leave the die's queue. `None` where the read would be
    /// refused: power off, drive failed, or a page of the extent
    /// unmapped or unreadable.
    pub fn read_eta(
        &self,
        d: DriveId,
        offset: usize,
        len: usize,
        now: Nanos,
    ) -> Option<Reservation> {
        if !self.powered {
            return None;
        }
        self.drives[d].read_eta(offset, len, now)
    }

    /// Reads from a drive: the bytes, their completion time and the
    /// latency decomposition of the critical-path page (queueing vs
    /// service, and what it queued behind) — the per-drive attribution
    /// the read path stamps into slow-op traces.
    pub fn read_drive(
        &mut self,
        d: DriveId,
        offset: usize,
        len: usize,
        now: Nanos,
    ) -> Result<purity_ssd::DeviceRead> {
        if !self.powered {
            return Err(PurityError::Device("shelf power lost".to_string()));
        }
        self.drives[d]
            .read(offset, len, now)
            .map_err(|e| PurityError::Device(format!("drive {}: {}", d, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shelf() -> Shelf {
        let cfg = ArrayConfig::test_small();
        Shelf::new(&cfg, Clock::new())
    }

    #[test]
    fn shelf_has_configured_drives() {
        let s = shelf();
        assert_eq!(s.n_drives(), 11);
        assert!(s.failed_drives().is_empty());
    }

    #[test]
    fn writing_window_tracks_flushes() {
        let mut s = shelf();
        assert!(!s.is_writing(3, 0));
        s.mark_writing(3, 0, 1_000_000);
        assert!(s.is_writing(3, 999_999));
        assert!(!s.is_writing(3, 1_000_000));
        // A future window does not mark the drive busy now.
        s.mark_writing(3, 5_000_000, 6_000_000);
        assert!(!s.is_writing(3, 2_000_000));
        assert!(s.is_writing(3, 5_500_000));
        // Contiguous windows coalesce.
        s.mark_writing(3, 6_000_000, 7_000_000);
        assert!(s.is_writing(3, 6_500_000));
    }

    /// The old set kept 64 windows a drive and dropped the oldest — which
    /// under a pacer backlog is the one open now.
    #[test]
    fn a_backlog_of_windows_never_evicts_the_live_one() {
        let mut s = shelf();
        for i in 0..70u64 {
            s.mark_writing(3, i * 10_000_000, i * 10_000_000 + 5_000_000);
        }
        assert!(s.is_writing(3, 2_500_000), "the first window is still open");
        assert!(s.writes_overlap(3, 690_000_000, 690_000_001));
        assert!(!s.is_writing(3, 7_000_000), "and the gaps are still gaps");
        // Only the clock retires a window.
        s.clock.advance(12_000_000);
        s.mark_writing(3, 900_000_000, 901_000_000);
        assert_eq!(s.writing_windows[3].len(), 70, "one ended, one came");
        assert!(s.is_writing(3, 12_000_000), "the window open now stays");
    }

    /// The old set merged a window that starts before the last one into
    /// it without moving its start.
    #[test]
    fn a_window_marked_out_of_order_keeps_its_own_start() {
        let mut s = shelf();
        s.mark_writing(3, 5_000_000, 6_000_000);
        s.mark_writing(3, 0, 1_000_000);
        assert!(s.is_writing(3, 500_000));
        assert!(!s.is_writing(3, 3_000_000));
        assert!(s.is_writing(3, 5_500_000));
        // Overlapping and touching windows fold into one; `[from, to)`
        // queries see exactly the union.
        s.mark_writing(3, 900_000, 5_000_000);
        assert_eq!(s.writing_windows[3], vec![(0, 6_000_000)]);
        assert!(s.writes_overlap(3, 5_999_999, 7_000_000));
        assert!(!s.writes_overlap(3, 6_000_000, 7_000_000));
    }

    #[test]
    fn paced_batch_goes_out_two_drives_a_slot_and_reports_refusals() {
        let cfg = ArrayConfig::test_small();
        let mut s = Shelf::new(&cfg, Clock::new());
        let off = cfg.boot_region_bytes();
        let page = vec![7u8; 4096];
        s.drive_mut(2).fail();
        let batch: Vec<ColumnWrite<'_>> = (0..5).map(|d| (d, off, page.as_slice())).collect();
        let first = s.write_paced(&batch, 1_000);
        assert!(
            matches!(first.refused, Some(PurityError::Device(_))),
            "the pulled drive is skipped and said so"
        );
        // Slots chain: (0,1) then (2,3) then (4), each starting where the
        // last ended, so no instant has three drives in a window.
        for t in (0..first.done).step_by(10_000) {
            let busy = (0..5).filter(|&d| s.is_writing(d, t)).count();
            assert!(busy <= 2, "{busy} drives writing at {t}");
        }
        assert!(!s.is_writing(0, 999) && s.is_writing(0, 1_000));
        assert!(!s.is_writing(4, 1_000) && s.is_writing(4, first.done - 1));
        // The next batch queues behind this one, whatever its issue time.
        let second = s.write_paced(&[(5, off, page.as_slice())], 0);
        assert!(!s.writes_overlap(5, 0, first.done));
        assert!(s.is_writing(5, first.done));
        assert!(second.all_landed().unwrap() > first.done);
        assert!(first.all_landed().is_err());
    }

    #[test]
    fn drive_io_round_trips_through_shelf() {
        let mut s = shelf();
        let data = vec![0x5a; 8192];
        let done = s.write_drive(2, 4096, &data, 0).unwrap();
        assert!(done > 0);
        assert!(s.is_writing(2, 0), "write marks the drive busy");
        let read = s.read_drive(2, 4096, 8192, done).unwrap().data;
        assert_eq!(read, data);
    }

    #[test]
    fn failed_drive_surfaces_device_error() {
        let mut s = shelf();
        s.drive_mut(1).fail();
        assert_eq!(s.failed_drives(), vec![1]);
        assert!(s.write_drive(1, 0, &[0; 4096], 0).is_err());
    }

    #[test]
    fn power_cut_blocks_all_io_until_restore() {
        let mut s = shelf();
        s.write_drive(2, 0, &[1; 4096], 0).unwrap();
        s.cut_power();
        assert!(!s.powered());
        assert!(s.write_drive(2, 4096, &[2; 4096], 0).is_err());
        assert!(s.read_drive(2, 0, 4096, 0).is_err());
        assert!(s.nvram_append(b"x", 0).is_err());
        assert!(s.nvram_trim(0).is_err());
        assert!(s.trim_drive(2, 0, 4096).is_err());
        s.power_restore();
        // Durable contents survive the outage.
        let data = s.read_drive(2, 0, 4096, 0).unwrap().data;
        assert_eq!(data, vec![1; 4096]);
        // Volatile scheduling state did not.
        assert!(!s.is_writing(2, 0));
    }

    #[test]
    fn armed_trigger_tears_the_matching_write_and_kills_power() {
        let mut s = shelf();
        let page = 4096;
        // Fires on the second AnyWrite, keeping one page of three.
        s.arm_power_loss(CrashTarget::AnyWrite, 1, page);
        s.write_drive(4, 0, &vec![0xaa; page], 0).unwrap();
        assert!(s.power_loss_armed());
        let err = s.write_drive(4, page, &vec![0xbb; 3 * page], 0);
        assert!(err.is_err());
        assert!(!s.powered());
        assert!(!s.power_loss_armed());
        assert!(s.torn_note().unwrap().contains("segment write"));
        s.power_restore();
        // Prefix page reached the medium; straddle/tail did not survive
        // intact (interrupted program or never written).
        let p0 = s.read_drive(4, page, page, 0).unwrap().data;
        assert_eq!(p0, vec![0xbb; page]);
        assert!(s.read_drive(4, 2 * page, page, 0).is_err());
    }

    #[test]
    fn nvram_trigger_tears_the_append_tail() {
        let mut s = shelf();
        s.nvram_append(&[7u8; 64], 0).unwrap();
        s.arm_power_loss(CrashTarget::NvramAppend, 0, 10);
        assert!(s.nvram_append(&[9u8; 64], 0).is_err());
        assert!(!s.powered());
        assert!(s.torn_note().unwrap().contains("NVRAM"));
        s.power_restore();
        let (records, _) = s.nvram().scan(0).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].payload, vec![7u8; 64]);
        assert_eq!(records[1].payload, vec![9u8; 10]);
    }

    #[test]
    fn cold_pool_round_trips_and_cold_trigger_tears_the_slot() {
        let cfg = ArrayConfig::tiered();
        let mut s = Shelf::new(&cfg, Clock::new());
        assert_eq!((s.n_drives(), s.n_cold_drives()), (11, 2));
        // The cold pool is numbered after the hot drives.
        let (c0, c1) = (s.n_drives(), s.n_drives() + 1);
        let page = cfg.cold_geometry.page_size;
        let data = vec![0x3c; 2 * page];
        let done = s.write_drive(c0, 0, &data, 0).unwrap();
        let back = s.read_drive(c0, 0, data.len(), done).unwrap().data;
        assert_eq!(back, data);
        assert!(s.cold_drive(0).flash_counters().reads > 0);
        assert_eq!(s.cold_drive(1).flash_counters().reads, 0);
        // Cold reads are slower than main-pool reads (QLC class).
        let main_done = s.write_drive(0, cfg.boot_region_bytes(), &data, 0).unwrap();
        let t_main = s
            .read_drive(0, cfg.boot_region_bytes(), data.len(), main_done)
            .unwrap()
            .done;
        let t_cold = s.read_drive(c0, 0, data.len(), main_done).unwrap().done;
        assert!(t_cold - main_done > t_main - main_done);
        // A ColdWrite trigger ignores main-pool writes and fires on the
        // next cold write, tearing it and killing power.
        s.arm_power_loss(CrashTarget::ColdWrite, 0, page);
        s.write_drive(1, cfg.boot_region_bytes(), &data, 0).unwrap();
        assert!(s.power_loss_armed());
        assert!(s.write_drive(c1, 0, &data, 0).is_err());
        assert!(!s.powered());
        assert!(s.torn_note().unwrap().contains("cold write"));
        s.power_restore();
        let p0 = s.read_drive(c1, 0, page, 0).unwrap().data;
        assert_eq!(p0, vec![0x3c; page]);
        assert!(
            s.read_drive(c1, page, page, 0).is_err(),
            "torn tail unreadable"
        );
    }

    /// The cold pool is a write group of its own, one parity column wide:
    /// its stripe never waits for the hot pacer, and its two columns are
    /// never both writing.
    #[test]
    fn a_cold_stripe_paces_on_its_own_group_one_drive_a_slot() {
        let cfg = ArrayConfig::tiered();
        let mut s = Shelf::new(&cfg, Clock::new());
        let off = cfg.boot_region_bytes();
        let unit = vec![7u8; cfg.write_unit_bytes];
        let hot: Vec<ColumnWrite<'_>> = (0..9).map(|d| (d, off, unit.as_slice())).collect();
        let hot_done = s.write_paced(&hot, 1_000).all_landed().unwrap();
        let (c0, c1) = (s.n_drives(), s.n_drives() + 1);
        let cold = [(c0, 0, unit.as_slice()), (c1, 0, unit.as_slice())];
        let cold_done = s.write_paced(&cold, 1_000).all_landed().unwrap();
        assert!(s.is_writing(c0, 1_000), "the cold stripe starts at once");
        assert!(!s.is_writing(c1, 1_000));
        for t in (1_000..cold_done).step_by(10_000) {
            assert!(!(s.is_writing(c0, t) && s.is_writing(c1, t)), "both at {t}");
        }
        assert!(s.is_writing(c1, cold_done - 1));
        // The hot group kept its own schedule: the next hot batch still
        // queues behind the first, not behind the cold stripe.
        let next = s.write_paced(&hot[..1], 1_000).all_landed().unwrap();
        assert!(next > hot_done && s.is_writing(0, hot_done));
    }

    #[test]
    fn boot_target_skips_segment_writes() {
        let cfg = ArrayConfig::test_small();
        let mut s = Shelf::new(&cfg, Clock::new());
        let boot_bytes = cfg.boot_region_bytes();
        s.arm_power_loss(CrashTarget::BootWrite, 0, 0);
        // A main-region write on a mirror drive does not match.
        s.write_drive(0, boot_bytes, &[1; 4096], 0).unwrap();
        // A boot-region write on a non-mirror drive id does not exist,
        // but a mirror-drive boot offset fires.
        assert!(s.write_drive(0, 0, &[2; 8192], 0).is_err());
        assert!(s.torn_note().unwrap().contains("boot-region"));
    }
}
