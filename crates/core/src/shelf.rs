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
use purity_ssd::latency::{EnduranceModel, LatencyModel};
use purity_ssd::nvram::NvramError;
use purity_ssd::{Nvram, Ssd};
use std::sync::Arc;

/// Hot-drive timing: the consumer MLC parts Purity shelves are built from.
pub const SSD_LATENCY: LatencyModel = LatencyModel::consumer_mlc();

/// Drive-internal over-provisioning, hot and cold.
pub const SSD_OVER_PROVISION: f64 = 0.08;

/// Cold-drive timing (QLC-like).
pub const COLD_LATENCY: LatencyModel = LatencyModel::qlc_cold();

/// Cold-drive endurance rating.
pub const COLD_ENDURANCE: EnduranceModel = EnduranceModel::qlc();

/// Seed of the drives' deterministic randomness; each drive derives its
/// own from it.
const DRIVE_SEED: u64 = 0x9E3779B9;

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

/// What a paced write programs flash for: the causes of the shelf's
/// [`ProgramLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// A data stripe's units and parity (host writes, GC relocation, tier
    /// moves).
    DataStripe,
    /// A log stripe's page rows and their parity (map records).
    LogStripe,
    /// The header page of a segment's AUs.
    AuHeader,
    /// A checkpoint on the boot-region mirrors.
    Boot,
    /// Scrub's refresh and repair, and a revived drive's rebuild.
    Rewrite,
}

impl Cause {
    /// Every cause, in ledger order.
    pub const ALL: [Cause; 5] = [
        Cause::DataStripe,
        Cause::LogStripe,
        Cause::AuHeader,
        Cause::Boot,
        Cause::Rewrite,
    ];
}

/// Bytes the array has programmed onto its drives, by [`Cause`] and by
/// whether a GC pass was running. Drive-internal (FTL GC) programs are
/// not the array's, so the ledger sums to every drive's programmed
/// bytes less its FTL's relocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramLedger {
    bytes: [[u64; 2]; Cause::ALL.len()],
}

impl ProgramLedger {
    /// Bytes programmed for `cause`, inside (`gc`) or outside GC passes.
    pub fn bytes(&self, cause: Cause, gc: bool) -> u64 {
        self.bytes[cause as usize][usize::from(gc)]
    }

    /// Every byte the ledger holds.
    pub fn total(&self) -> u64 {
        self.bytes.iter().flatten().sum()
    }
}

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
    /// Whether a GC pass is running ([`Shelf::set_gc_mode`]).
    gc_mode: bool,
    /// Bytes programmed by paced writes, by cause.
    ledger: ProgramLedger,
}

impl Shelf {
    /// Builds the shelf from a config.
    pub fn new(config: &ArrayConfig, clock: Arc<Clock>) -> Self {
        let mut drives: Vec<Ssd> = (0..config.n_drives)
            .map(|i| {
                let mut ssd = Ssd::new(
                    config.ssd_geometry,
                    SSD_LATENCY,
                    config.ssd_endurance,
                    clock.clone(),
                    DRIVE_SEED.wrapping_add(i as u64 * 0x9E37),
                    SSD_OVER_PROVISION,
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
                COLD_LATENCY,
                COLD_ENDURANCE,
                clock.clone(),
                DRIVE_SEED
                    .wrapping_add(0xC01D)
                    .wrapping_add(i as u64 * 0x9E37),
                SSD_OVER_PROVISION,
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
            gc_mode: false,
            ledger: ProgramLedger::default(),
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

    /// Restores power. Durable contents (flash, NVRAM) are intact, and
    /// so is the §4.4 write schedule: the drives still hold every program
    /// booked before the loss, so the writing windows and both pacers
    /// stay, pruned by the clock like every window. A read planner blind
    /// to that backlog would queue reads behind it, and new flushes paced
    /// from now would put more drives to work at once than a read can
    /// rebuild around.
    pub fn power_restore(&mut self) {
        self.powered = true;
        self.trigger = None;
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
        self.gc_mode = on;
        for d in &mut self.drives {
            d.set_gc_mode(on);
        }
    }

    /// The bytes paced writes have programmed, by cause.
    pub fn program_ledger(&self) -> &ProgramLedger {
        &self.ledger
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
    /// the rest still go out: parity covers a degraded write. A column of
    /// no bytes (a padded stripe's column past its data) keeps its place
    /// in its slot and programs nothing. What the batch programs is
    /// charged to `cause` in the ledger.
    pub fn write_paced(&mut self, cause: Cause, columns: &[ColumnWrite<'_>], now: Nanos) -> Paced {
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
                if data.is_empty() {
                    continue;
                }
                match self.program(Some(cause), d, offset, data, start) {
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

    /// The end of the last slot the hot group's write pacer handed out:
    /// the instant the array's booked writes have all reached the drives.
    pub fn paced_until(&self) -> Nanos {
        self.pacers[HOT].1
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

    /// Writes page-aligned bytes to a drive at `now`, unpaced and charged
    /// to no cause: direct I/O for fault injection and tests (the array's
    /// own writes go out through [`Shelf::write_paced`]).
    pub fn write_drive(
        &mut self,
        d: DriveId,
        offset: usize,
        data: &[u8],
        now: Nanos,
    ) -> Result<Nanos> {
        self.program(None, d, offset, data, now)
    }

    /// Programs `data` at `offset` of drive `d` at `now`, updating the
    /// writing window and charging what reached the medium to `cause`.
    /// The single choke point every durable drive mutation goes
    /// through: power loss (armed via [`Shelf::arm_power_loss`]) fires
    /// here, tearing this write and failing everything after it.
    fn program(
        &mut self,
        cause: Option<Cause>,
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
            if self.drives[d].write_torn(offset, data, keep, now).is_ok() {
                let page = self.drives[d].page_size();
                self.charge(cause, keep.div_ceil(page) * page);
            }
            let what = format!("drive {d} offset {offset}");
            return Err(self.tear(kind, what, keep, data.len()));
        }
        let done = self.drives[d]
            .write(offset, data, now)
            .map_err(|e| PurityError::Device(format!("drive {}: {}", d, e)))?;
        self.charge(cause, data.len());
        self.mark_writing(d, now, done);
        Ok(done)
    }

    /// Adds `bytes` programmed for `cause` to the ledger.
    fn charge(&mut self, cause: Option<Cause>, bytes: usize) {
        if let Some(cause) = cause {
            self.ledger.bytes[cause as usize][usize::from(self.gc_mode)] += bytes as u64;
        }
    }

    /// Logs an NVRAM record through the power gate and returns its index;
    /// [`Shelf::nvram_program`] books its commit group's SLC time. An
    /// armed `NvramAppend`/`AnyWrite` trigger fires here: the record's
    /// tail is torn at `keep_bytes` and power dies with it — the caller
    /// never gets an index back, so the intent was never acknowledgeable.
    pub fn nvram_log(&mut self, payload: Vec<u8>) -> Result<u64> {
        if !self.powered {
            return Err(PurityError::Device("shelf power lost".to_string()));
        }
        if let Some(keep) = self.countdown(CrashTarget::NvramAppend) {
            let len = payload.len();
            // Durably land the record first, then tear its tail: the
            // prefix genuinely reached the SLC medium before the outage.
            // A record the log refuses (full, failed) lands nothing, and
            // the record before it — acknowledged — stays whole.
            let keep = match self.nvram.log(payload) {
                Ok(_) => {
                    let keep = keep.min(len.saturating_sub(1));
                    self.nvram.tear_last_append(keep);
                    keep
                }
                Err(_) => 0,
            };
            let what = "nvram record".to_string();
            return Err(self.tear(CrashTarget::NvramAppend, what, keep, len));
        }
        self.nvram.log(payload).map_err(|e| match e {
            // Full is recoverable: the controller checkpoints to trim
            // the log, so it must stay distinguishable.
            NvramError::Full => PurityError::OutOfSpace,
            e => PurityError::Device(format!("nvram: {}", e)),
        })
    }

    /// Books the SLC programs of one commit group — records of `sizes`
    /// bytes, logged in that order — issued at `now`, and returns when
    /// the group is durable enough to acknowledge.
    pub fn nvram_program(&mut self, sizes: &[usize], now: Nanos) -> Nanos {
        self.nvram.program(sizes, now)
    }

    /// Logs one record as a commit group of its own: its index and when
    /// it can be acknowledged.
    pub fn nvram_append(&mut self, payload: Vec<u8>, now: Nanos) -> Result<(u64, Nanos)> {
        let len = payload.len();
        let index = self.nvram_log(payload)?;
        Ok((index, self.nvram_program(&[len], now)))
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
        let first = s.write_paced(Cause::DataStripe, &batch, 1_000);
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
        let second = s.write_paced(Cause::DataStripe, &[(5, off, page.as_slice())], 0);
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
        assert!(s.nvram_append(b"x".to_vec(), 0).is_err());
        assert!(s.nvram_trim(0).is_err());
        assert!(s.trim_drive(2, 0, 4096).is_err());
        s.power_restore();
        // Durable contents survive the outage.
        let data = s.read_drive(2, 0, 4096, 0).unwrap().data;
        assert_eq!(data, vec![1; 4096]);
        // So does the write schedule: the drive is still programming what
        // was booked before the cut, and a read planned now must see it.
        assert!(s.is_writing(2, 0));
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
        s.nvram_append(vec![7u8; 64], 0).unwrap();
        s.arm_power_loss(CrashTarget::NvramAppend, 0, 10);
        assert!(s.nvram_append(vec![9u8; 64], 0).is_err());
        assert!(!s.powered());
        assert!(s.torn_note().unwrap().contains("NVRAM"));
        s.power_restore();
        let records = s.nvram().records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].payload, vec![7u8; 64]);
        assert_eq!(records[1].payload, vec![9u8; 10]);
    }

    /// A trigger on an append the full log refuses cuts power with
    /// nothing torn: the acknowledged record before it stays whole.
    #[test]
    fn nvram_trigger_on_a_full_log_leaves_the_last_record_whole() {
        let mut s = shelf();
        let acked = s.nvram().capacity_bytes() - 32;
        s.nvram_append(vec![7u8; acked], 0).unwrap();
        s.arm_power_loss(CrashTarget::NvramAppend, 0, 10);
        assert!(s.nvram_append(vec![9u8; 64], 0).is_err());
        assert!(!s.powered());
        assert!(s.torn_note().unwrap().contains("torn at 0/64 bytes"));
        s.power_restore();
        let records = s.nvram().records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload.len(), acked);
        assert_eq!(s.nvram().torn_tails(), 0);
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
        let hot_done = s
            .write_paced(Cause::DataStripe, &hot, 1_000)
            .all_landed()
            .unwrap();
        let (c0, c1) = (s.n_drives(), s.n_drives() + 1);
        let cold = [(c0, 0, unit.as_slice()), (c1, 0, unit.as_slice())];
        let cold_done = s
            .write_paced(Cause::DataStripe, &cold, 1_000)
            .all_landed()
            .unwrap();
        assert!(s.is_writing(c0, 1_000), "the cold stripe starts at once");
        assert!(!s.is_writing(c1, 1_000));
        for t in (1_000..cold_done).step_by(10_000) {
            assert!(!(s.is_writing(c0, t) && s.is_writing(c1, t)), "both at {t}");
        }
        assert!(s.is_writing(c1, cold_done - 1));
        // The hot group kept its own schedule: the next hot batch still
        // queues behind the first, not behind the cold stripe.
        let next = s
            .write_paced(Cause::DataStripe, &hot[..1], 1_000)
            .all_landed()
            .unwrap();
        assert!(next > hot_done && s.is_writing(0, hot_done));
    }

    /// Every byte the array programs is charged to one cause: after host
    /// writes and GC passes, checkpoints, a pulled and reinserted drive,
    /// a scrub and a torn stripe, the ledger holds every drive's
    /// programmed bytes less its FTL's own relocations.
    #[test]
    fn the_program_ledger_sums_to_the_drives_programs() {
        use crate::array::{FlashArray, PowerLossSpec};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let vol = a.create_volume("v", 4 << 20).unwrap();
        let (mut rng, mut chunk) = (StdRng::seed_from_u64(7), vec![0u8; 64 << 10]);
        let mut write = |a: &mut FlashArray, i: u64| {
            rng.fill(&mut chunk[..]);
            a.write(vol, (i * 7 % 64) << 16, &chunk)
        };
        for i in 0..150 {
            write(&mut a, i).unwrap();
            if i % 50 == 49 {
                a.run_gc().unwrap();
            }
        }
        // A padded stripe: a 40 KiB write between two checkpoints programs
        // the pages its data fills and their parity rows, not whole units.
        a.checkpoint().unwrap();
        let ledger_and_open = |a: &mut FlashArray| {
            let (ctrl, shelf) = a.controller_and_shelf();
            let open = ctrl.writers[crate::segment::HOT].open_segment().cloned();
            (
                shelf.program_ledger().bytes(Cause::DataStripe, false),
                open.unwrap(),
            )
        };
        let (before, open) = ledger_and_open(&mut a);
        let small: Vec<u8> = (0..40u32 << 10)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        a.write(vol, 0, &small).unwrap();
        a.checkpoint().unwrap();
        let (after, padded) = ledger_and_open(&mut a);
        let layout = *a.controller().writers[crate::segment::HOT].layout();
        let stripe = open.data_stripes as usize;
        assert_eq!(
            (padded.id, padded.data_stripes),
            (open.id, open.data_stripes + 1)
        );
        assert!(padded
            .fill(stripe)
            .is_some_and(|n| n < layout.stripe_data_bytes()));
        let on_flash: usize = (0..layout.k + layout.m)
            .map(|c| padded.on_flash(&layout, stripe, c))
            .sum();
        assert_eq!(after - before, on_flash as u64);
        assert!(on_flash < (layout.k + layout.m) * layout.wu);
        a.fail_drive(1);
        for i in 0..20 {
            write(&mut a, i).unwrap();
        }
        a.checkpoint().unwrap();
        a.revive_drive(1);
        a.scrub().unwrap();
        a.arm_power_loss(CrashTarget::SegmentWrite, 3, 5000);
        for i in 0.. {
            if write(&mut a, i).is_err() {
                break;
            }
        }
        a.power_loss(PowerLossSpec::default()).unwrap();

        let (_, shelf) = a.controller_and_shelf();
        let programmed: u64 = (shelf.drives.iter())
            .map(|d| (d.flash_counters().programs - d.stats().gc_programs) * d.page_size() as u64)
            .sum();
        let ledger = shelf.program_ledger();
        assert_eq!(ledger.total(), programmed);
        for cause in Cause::ALL {
            assert!(ledger.bytes(cause, false) > 0, "{cause:?}");
        }
        assert!(ledger.bytes(Cause::DataStripe, true) > 0, "GC relocates");
        assert!(
            ledger.bytes(Cause::LogStripe, true) > 0,
            "GC rewrites the map"
        );
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
