//! The FlashArray facade (§4.1, Figure 2).
//!
//! Two controllers front a shared shelf of drives plus NVRAM. Clients
//! treat both controllers' ports interchangeably (active-active), but
//! only the primary serves traffic; the secondary forwards over the
//! internal interconnect and keeps a warm cache. Controllers are
//! stateless: killing the primary promotes the secondary, which rebuilds
//! all state from the shelf via [`Controller::recover`] — the paper's
//! sub-30-second failover, reproduced in virtual time.

use crate::config::ArrayConfig;
use crate::controller::{Ack, Controller, Volume};
use crate::error::Result;
use crate::fault::{AppliedFault, FaultEvent, FaultOutcome, FaultPlan};
use crate::gc::GcReport;
use crate::recovery::{RecoveryOptions, RecoveryReport, ScanMode};
use crate::scrub::ScrubReport;
use crate::shelf::Shelf;
use crate::stats::ArrayStats;
use crate::types::{DriveId, Pba, SnapshotId, VolumeId};
use purity_obs::{Frame, MetricsSnapshot, Obs};
use purity_sim::{Clock, Nanos};
use purity_tier::RamCache;
use std::collections::VecDeque;
use std::sync::Arc;

/// Interconnect hop for requests arriving at the standby's ports
/// (InfiniBand forward + return, §4.1).
pub const FORWARD_NS: Nanos = 10_000;

/// Secondary-cache warm interval, in write operations.
const WARM_EVERY: u64 = 128;

/// Which controller's ports a request arrives at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Port {
    /// The controller currently serving I/O.
    Primary,
    /// The standby; requests are forwarded over the interconnect.
    Secondary,
}

/// Outcome of a controller failover.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// Virtual time the array was unable to serve I/O.
    pub downtime: Nanos,
    /// Recovery details.
    pub recovery: RecoveryReport,
    /// Op ids of in-flight I/Os whose completions would have landed
    /// after the crash: their acks died with the old primary, and a
    /// host must detect the loss (timeout) and resubmit. The data-path
    /// *effects* of these ops are durable (NVRAM commit precedes the
    /// ack), so resubmission is safe.
    pub aborted: Vec<u64>,
}

/// How to recover from a whole-array power loss.
#[derive(Debug, Clone, Copy, Default)]
pub struct PowerLossSpec {
    /// Recovery knobs for the cold start.
    pub recovery: RecoveryOptions,
}

/// Outcome of a whole-array power loss + cold start.
#[derive(Debug, Clone)]
pub struct PowerLossReport {
    /// Virtual time the array was unable to serve I/O.
    pub downtime: Nanos,
    /// Recovery details.
    pub recovery: RecoveryReport,
    /// Op ids whose acks had not reached the host when power died (see
    /// [`FailoverReport::aborted`] — same contract).
    pub aborted: Vec<u64>,
    /// What the outage tore, if a trigger fired ("power lost
    /// mid-NVRAM-append…", "…mid-boot-region write…"); `None` when the
    /// cut was clean.
    pub torn: Option<String>,
}

/// One I/O accepted through a port and not yet known complete: the
/// in-flight accounting a host front end needs across failover.
#[derive(Debug, Clone, Copy)]
pub struct InflightOp {
    /// Monotonic array-assigned op id.
    pub id: u64,
    /// Virtual time the op entered the array.
    pub issued_at: Nanos,
    /// Virtual time its ack reaches the host.
    pub completes_at: Nanos,
    /// Port it arrived on.
    pub port: Port,
}

/// Space accounting (thin provisioning vs physical reality, §1).
#[derive(Debug, Clone, Copy)]
pub struct SpaceReport {
    /// Raw usable capacity (data columns only, after parity overhead).
    pub usable_bytes: u64,
    /// Bytes held by live segments (allocated capacity).
    pub allocated_bytes: u64,
    /// Sum of provisioned volume sizes.
    pub provisioned_bytes: u64,
    /// Provisioned / usable — the paper reports ~12× fleet-wide.
    pub thin_provision_ratio: f64,
}

/// A simulated Purity appliance.
pub struct FlashArray {
    cfg: ArrayConfig,
    clock: Arc<Clock>,
    shelf: Shelf,
    primary: Controller,
    /// The standby's warm cache (its only interesting state — the rest
    /// is rebuilt from the shelf on takeover).
    secondary_cache: RamCache<Pba>,
    writes_since_warm: u64,
    /// Ops accepted but (as of the last prune) not yet complete.
    inflight: VecDeque<InflightOp>,
    /// Next op id to assign.
    next_op_id: u64,
    /// Cumulative downtime across failovers.
    pub downtime_total: Nanos,
    /// Failovers performed.
    pub failovers: u64,
    /// Whole-array power losses survived.
    pub power_losses: u64,
}

impl FlashArray {
    /// Creates and formats a new array.
    pub fn new(cfg: ArrayConfig) -> Result<Self> {
        let clock = Clock::new();
        let mut shelf = Shelf::new(&cfg, clock.clone());
        let primary = Controller::format(cfg.clone(), &mut shelf, clock.now())?;
        let secondary_cache = RamCache::lru(cfg.cache_bytes);
        Ok(Self {
            cfg,
            clock,
            shelf,
            primary,
            secondary_cache,
            writes_since_warm: 0,
            inflight: VecDeque::new(),
            next_op_id: 0,
            downtime_total: 0,
            failovers: 0,
            power_losses: 0,
        })
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// Advances the virtual clock (workload pacing), sampling the
    /// flight recorder if an interval boundary elapsed.
    pub fn advance(&mut self, delta: Nanos) -> Nanos {
        let t = self.clock.advance(delta);
        self.sample_telemetry();
        // Migrator tick (no-op unless the config enables the cold tier
        // and the interval elapsed). Power-loss errors are deliberately
        // swallowed: the shelf is dark, the caller discovers it on the
        // next I/O, and the torture harness recovers via power_loss().
        if self.cfg.tiering_enabled() && self.shelf.powered() {
            let _ = self.primary.tier_maintenance(&mut self.shelf, t);
        }
        t
    }

    /// Configuration accessor.
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    // ---- Volume lifecycle. -------------------------------------------

    /// Creates a thin-provisioned volume.
    pub fn create_volume(&mut self, name: &str, size_bytes: u64) -> Result<VolumeId> {
        let now = self.clock.now();
        self.primary
            .create_volume(&mut self.shelf, name, size_bytes, now)
    }

    /// Snapshots a volume (O(1)).
    pub fn snapshot(&mut self, volume: VolumeId, name: &str) -> Result<SnapshotId> {
        let now = self.clock.now();
        self.primary.snapshot(&mut self.shelf, volume, name, now)
    }

    /// Clones a snapshot into a new volume (O(1)).
    pub fn clone_snapshot(&mut self, snapshot: SnapshotId, name: &str) -> Result<VolumeId> {
        let now = self.clock.now();
        self.primary
            .clone_snapshot(&mut self.shelf, snapshot, name, now)
    }

    /// Destroys a volume via elision. Its read count moves to the hub's
    /// side table: the `volume_reads` series outlives its owner, so the
    /// recorded history and later exports keep the final value.
    pub fn destroy_volume(&mut self, volume: VolumeId) -> Result<()> {
        let now = self.clock.now();
        self.primary.destroy_volume(&mut self.shelf, volume, now)?;
        self.primary.obs.registry.set_counter(
            "volume_reads",
            &[("volume", &volume.0.to_string())],
            self.primary.tier.volume_reads(volume.0),
        );
        Ok(())
    }

    /// Destroys a snapshot via elision.
    pub fn destroy_snapshot(&mut self, snapshot: SnapshotId) -> Result<()> {
        let now = self.clock.now();
        self.primary
            .destroy_snapshot(&mut self.shelf, snapshot, now)
    }

    /// Volume metadata.
    pub fn volume(&self, id: VolumeId) -> Option<&Volume> {
        self.primary.volume(id)
    }

    // ---- Data path. ----------------------------------------------------

    /// Writes through the primary's ports.
    pub fn write(&mut self, volume: VolumeId, offset: u64, data: &[u8]) -> Result<Ack> {
        self.write_via(Port::Primary, volume, offset, data)
    }

    /// Writes through a chosen port.
    pub fn write_via(
        &mut self,
        port: Port,
        volume: VolumeId,
        offset: u64,
        data: &[u8],
    ) -> Result<Ack> {
        self.submit_write(port, volume, offset, data)
            .map(|(_, a)| a)
    }

    /// Writes through a chosen port, returning the array op id alongside
    /// the ack — the completion-event hook a discrete-event host uses:
    /// the ack lands at `issue time + ack.latency`, and if a failover
    /// intervenes the id appears in [`FailoverReport::aborted`].
    pub fn submit_write(
        &mut self,
        port: Port,
        volume: VolumeId,
        offset: u64,
        data: &[u8],
    ) -> Result<(u64, Ack)> {
        self.submit_write_traced(port, volume, offset, data, None)
    }

    /// [`FlashArray::submit_write`] with an optional upstream trace
    /// context: array-plane spans (and the secondary-port `wan` forward
    /// hop) are stamped into it instead of being finished here, so the
    /// initiator owns the end-to-end span tree.
    pub fn submit_write_traced(
        &mut self,
        port: Port,
        volume: VolumeId,
        offset: u64,
        data: &[u8],
        mut ext: Option<&mut purity_obs::OpTrace>,
    ) -> Result<(u64, Ack)> {
        self.check_powered()?;
        let now = self.clock.now();
        let mut ack = self.primary.write_ext(
            &mut self.shelf,
            volume,
            offset,
            data,
            now,
            ext.as_deref_mut(),
        )?;
        if port == Port::Secondary {
            if let Some(tr) = ext {
                tr.stage("wan", now + ack.latency, now + ack.latency + FORWARD_NS);
            }
            ack.latency += FORWARD_NS;
        }
        self.writes_since_warm += 1;
        if self.writes_since_warm >= WARM_EVERY {
            self.writes_since_warm = 0;
            // Asynchronous cache warming (§4.3) — free of request-path
            // virtual time.
            self.primary.cache.warm_into(&mut self.secondary_cache);
        }
        Ok((self.note_inflight(port, now, ack.latency), ack))
    }

    /// Reads through the primary's ports.
    pub fn read(&mut self, volume: VolumeId, offset: u64, len: usize) -> Result<(Vec<u8>, Ack)> {
        self.read_via(Port::Primary, volume, offset, len)
    }

    /// Reads through a chosen port.
    pub fn read_via(
        &mut self,
        port: Port,
        volume: VolumeId,
        offset: u64,
        len: usize,
    ) -> Result<(Vec<u8>, Ack)> {
        self.submit_read(port, volume, offset, len)
            .map(|(_, d, a)| (d, a))
    }

    /// Reads through a chosen port, returning the array op id (see
    /// [`FlashArray::submit_write`]).
    pub fn submit_read(
        &mut self,
        port: Port,
        volume: VolumeId,
        offset: u64,
        len: usize,
    ) -> Result<(u64, Vec<u8>, Ack)> {
        self.submit_read_traced(port, volume, offset, len, None)
    }

    /// [`FlashArray::submit_read`] with an optional upstream trace
    /// context (see [`FlashArray::submit_write_traced`]).
    pub fn submit_read_traced(
        &mut self,
        port: Port,
        volume: VolumeId,
        offset: u64,
        len: usize,
        mut ext: Option<&mut purity_obs::OpTrace>,
    ) -> Result<(u64, Vec<u8>, Ack)> {
        self.check_powered()?;
        let now = self.clock.now();
        let (data, mut ack) = self.primary.read_ext(
            &mut self.shelf,
            volume,
            offset,
            len,
            now,
            ext.as_deref_mut(),
        )?;
        if port == Port::Secondary {
            if let Some(tr) = ext {
                tr.stage("wan", now + ack.latency, now + ack.latency + FORWARD_NS);
            }
            ack.latency += FORWARD_NS;
        }
        let id = self.note_inflight(port, now, ack.latency);
        Ok((id, data, ack))
    }

    /// Records an accepted op in the in-flight log and assigns its id.
    /// Ops whose completion time has already passed are pruned — the
    /// log only ever holds the window a failover could abort.
    fn note_inflight(&mut self, port: Port, issued_at: Nanos, latency: Nanos) -> u64 {
        self.inflight.retain(|op| op.completes_at > issued_at);
        let id = self.next_op_id;
        self.next_op_id += 1;
        self.inflight.push_back(InflightOp {
            id,
            issued_at,
            completes_at: issued_at + latency,
            port,
        });
        id
    }

    /// Reads a snapshot's contents (sector-addressed).
    pub fn read_snapshot(
        &mut self,
        snapshot: SnapshotId,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        self.check_powered()?;
        let now = self.clock.now();
        let medium = self
            .primary
            .snapshot_info(snapshot)
            .ok_or(crate::error::PurityError::NoSuchSnapshot)?
            .medium;
        let (data, _t) = self.primary.read_medium(
            &mut self.shelf,
            medium,
            offset / crate::types::SECTOR as u64,
            len / crate::types::SECTOR,
            now,
        )?;
        Ok(data)
    }

    /// Enumerates the sector runs that differ between two snapshots of
    /// the same volume, as half-open `(start, end)` ranges. With
    /// `base = None` it enumerates every mapped run of `newer` (the
    /// full-seed case). This is the medium-diff enumeration API the
    /// replication fabric computes delta transfers from.
    pub fn snapshot_diff(
        &self,
        base: Option<SnapshotId>,
        newer: SnapshotId,
    ) -> Result<Vec<(u64, u64)>> {
        let ctrl = &self.primary;
        let new_snap = ctrl
            .snapshot_info(newer)
            .ok_or(crate::error::PurityError::NoSuchSnapshot)?;
        let base_medium = match base {
            None => None,
            Some(b) => {
                let bs = ctrl
                    .snapshot_info(b)
                    .ok_or(crate::error::PurityError::NoSuchSnapshot)?;
                if bs.volume != new_snap.volume {
                    return Err(crate::error::PurityError::BadRequest(
                        "snapshots must belong to the same volume".into(),
                    ));
                }
                Some(bs.medium)
            }
        };
        let size = ctrl
            .volume(new_snap.volume)
            .map(|v| v.size_sectors)
            .ok_or(crate::error::PurityError::NoSuchVolume)?;
        Ok(ctrl.medium_diff(base_medium, new_snap.medium, size))
    }

    /// Verified dedup probe: looks `hash` up in the array's dedup index
    /// and, on a hit whose stored bytes actually hash to `hash`, returns
    /// the 512 B block. Replication uses this on the *destination* to
    /// answer hash-first delta shipping — a hit means the sector need
    /// not cross the wire at all.
    pub fn dedup_fetch_block(&mut self, hash: u64) -> Option<Vec<u8>> {
        self.check_powered().ok()?;
        let now = self.clock.now();
        let loc = self.primary.dedup.index_mut().lookup(hash)?;
        let payload = self
            .primary
            .fetch_cblock(&mut self.shelf, &loc.pba, now, None)
            .ok()?
            .payload;
        let start = loc.sector as usize * crate::types::SECTOR;
        let data = payload.get(start..start + crate::types::SECTOR)?.to_vec();
        (purity_dedup::hash::block_hash(&data) == hash).then_some(data)
    }

    // ---- Maintenance. --------------------------------------------------

    /// Runs a GC pass.
    pub fn run_gc(&mut self) -> Result<GcReport> {
        let now = self.clock.now();
        self.primary.run_gc(&mut self.shelf, now)
    }

    /// Runs a scrub pass.
    pub fn scrub(&mut self) -> Result<ScrubReport> {
        let now = self.clock.now();
        self.primary.scrub(&mut self.shelf, now)
    }

    /// Forces a checkpoint.
    pub fn checkpoint(&mut self) -> Result<()> {
        let now = self.clock.now();
        self.primary.write_checkpoint(&mut self.shelf, now)?;
        Ok(())
    }

    // ---- Fault injection (the "pull drives" demo, §1). -----------------
    //
    // All faults — imperative calls below and declarative [`FaultPlan`]
    // schedules — funnel through [`FlashArray::apply_fault`], the single
    // entry point.

    /// Applies one fault right now. The one entry point every other
    /// fault surface routes through.
    pub fn apply_fault(&mut self, event: &FaultEvent) -> Result<FaultOutcome> {
        match *event {
            FaultEvent::FailDrive(d) => {
                self.shelf.drive_mut(d).fail();
                Ok(FaultOutcome::DriveFailed)
            }
            FaultEvent::ReviveDrive(d) => {
                self.shelf.drive_mut(d).revive();
                let now = self.clock.now();
                let report = self
                    .primary
                    .rebuild_drive(&mut self.shelf, d, now)
                    .unwrap_or_default();
                Ok(FaultOutcome::DriveRevived(report))
            }
            FaultEvent::CorruptAt { drive, offset } => Ok(FaultOutcome::Corrupted(
                self.shelf.drive_mut(drive).corrupt_at(offset),
            )),
            FaultEvent::FailPrimary => self
                .fail_primary_with(ScanMode::Frontier)
                .map(FaultOutcome::FailedOver),
        }
    }

    /// Fires every event in `plan` due at or before the current virtual
    /// time, in schedule order, and reports what each did. Drivers call
    /// this as they advance the clock; a plan with nothing due is a
    /// cheap no-op.
    pub fn apply_due_faults(&mut self, plan: &mut FaultPlan) -> Result<Vec<AppliedFault>> {
        let mut applied = Vec::new();
        while let Some((at, event)) = plan.take_due(self.clock.now()) {
            let outcome = self.apply_fault(&event)?;
            applied.push(AppliedFault { at, event, outcome });
        }
        Ok(applied)
    }

    /// Pulls a drive from the shelf.
    pub fn fail_drive(&mut self, d: DriveId) {
        let _ = self.apply_fault(&FaultEvent::FailDrive(d));
    }

    /// Re-inserts a pulled drive (contents intact) and rebuilds any
    /// write units it missed while out — the standard rebuild-on-
    /// reinsertion that keeps per-stripe degradation bounded by the
    /// *concurrent* failure count.
    pub fn revive_drive(&mut self, d: DriveId) -> crate::scrub::RebuildReport {
        match self.apply_fault(&FaultEvent::ReviveDrive(d)) {
            Ok(FaultOutcome::DriveRevived(report)) => report,
            _ => crate::scrub::RebuildReport::default(),
        }
    }

    /// Currently failed drives.
    pub fn failed_drives(&self) -> Vec<DriveId> {
        self.shelf.failed_drives()
    }

    /// Corrupts the flash page backing a drive byte offset (bit rot).
    pub fn corrupt_drive_at(&mut self, d: DriveId, offset: usize) -> bool {
        matches!(
            self.apply_fault(&FaultEvent::CorruptAt { drive: d, offset }),
            Ok(FaultOutcome::Corrupted(true))
        )
    }

    /// Kills the primary controller; the standby takes over by
    /// re-deriving all state from the shelf. Returns the virtual
    /// downtime (must stay under the paper's 30 s client timeout).
    pub fn fail_primary(&mut self) -> Result<FailoverReport> {
        self.fail_primary_with(ScanMode::Frontier)
    }

    /// Failover with an explicit scan mode (experiment E3 uses
    /// [`ScanMode::FullScan`] as the pre-frontier-set baseline).
    pub fn fail_primary_with(&mut self, mode: ScanMode) -> Result<FailoverReport> {
        let start = self.clock.now();
        // Acks not yet delivered at the moment of the crash die with the
        // old primary; their op ids are surfaced so a host front end can
        // time out and resubmit them. Everything older has been seen.
        let aborted: Vec<u64> = self
            .inflight
            .iter()
            .filter(|op| op.completes_at > start)
            .map(|op| op.id)
            .collect();
        self.inflight.clear();
        let (mut ctrl, recovery) =
            Controller::recover(self.cfg.clone(), &mut self.shelf, mode, start)?;
        // The standby starts with the warm cache the old primary fed it,
        // and the array's cumulative telemetry carries over (fleet
        // history outlives any one controller).
        ctrl.cache = std::mem::replace(
            &mut self.secondary_cache,
            RamCache::lru(self.cfg.cache_bytes),
        );
        // The standby never heard the old primary's invalidations: keep
        // only segments the recovered table knows (ids are never reused,
        // so those payloads are still right) and no cold slot at all — a
        // slot may have been released and refilled since it was warmed.
        let segments = &ctrl.segments;
        ctrl.cache
            .invalidate(|p| !segments.contains_key(&p.segment.0));
        ctrl.stats.absorb(&self.primary.stats);
        // The observability hub (side table, slow-op ring, recorder)
        // likewise outlives the controller: the standby inherits it.
        ctrl.obs = Arc::clone(&self.primary.obs);
        self.primary = ctrl;
        let downtime = recovery.total_time;
        self.clock.advance_to(start + downtime);
        self.downtime_total += downtime;
        self.failovers += 1;
        Ok(FailoverReport {
            downtime,
            recovery,
            aborted,
        })
    }

    // ---- Whole-array power loss (torture harness). ---------------------

    /// Arms a power-loss trigger on the shelf: the `after`-th subsequent
    /// device mutation matching `target` is torn at `keep_bytes` and the
    /// whole shelf goes dark with it. The array keeps running until the
    /// trigger fires — call [`FlashArray::power_loss`] afterwards (or on
    /// a clean boundary without arming) to cold-start.
    pub fn arm_power_loss(&mut self, target: crate::shelf::CrashTarget, after: u64, keep: usize) {
        self.shelf.arm_power_loss(target, after, keep);
    }

    /// Whether the shelf currently has power.
    pub fn powered(&self) -> bool {
        self.shelf.powered()
    }

    /// A powered-off array must fail all I/O, even requests the
    /// controller could have satisfied from DRAM cache or the zero path
    /// without touching the (gated) shelf.
    fn check_powered(&self) -> crate::error::Result<()> {
        if self.shelf.powered() {
            Ok(())
        } else {
            Err(crate::error::PurityError::Unavailable(
                "array power is off".into(),
            ))
        }
    }

    /// Whether an armed power-loss trigger has not yet fired.
    pub fn power_loss_armed(&self) -> bool {
        self.shelf.power_loss_armed()
    }

    /// Cuts power cleanly right now (no torn write).
    pub fn cut_power(&mut self) {
        self.shelf.cut_power();
    }

    /// The shelf's description of what the last power cut tore, if any.
    pub fn torn_note(&self) -> Option<&str> {
        self.shelf.torn_note()
    }

    /// Whole-array power loss + cold start: both controllers die at
    /// once, so — unlike [`FlashArray::fail_primary_with`] — nothing
    /// volatile survives: no warm standby cache, no carried-over
    /// telemetry, no in-flight acks. If power is still on (no trigger
    /// fired), it is cut cleanly first. Power is then restored and a
    /// fresh controller rebuilds purely from durable shelf state via
    /// [`Controller::recover_with`].
    pub fn power_loss(&mut self, spec: PowerLossSpec) -> Result<PowerLossReport> {
        let start = self.clock.now();
        if self.shelf.powered() {
            self.shelf.cut_power();
        }
        let torn = self.shelf.torn_note().map(str::to_owned);
        let aborted: Vec<u64> = self
            .inflight
            .iter()
            .filter(|op| op.completes_at > start)
            .map(|op| op.id)
            .collect();
        self.inflight.clear();
        self.shelf.power_restore();
        let (ctrl, recovery) =
            Controller::recover_with(self.cfg.clone(), &mut self.shelf, spec.recovery, start)?;
        // Cold start: the secondary's warm cache died too, and a fresh
        // observability registry boots with the new controller.
        self.secondary_cache = RamCache::lru(self.cfg.cache_bytes);
        self.writes_since_warm = 0;
        self.primary = ctrl;
        let downtime = recovery.total_time;
        self.clock.advance_to(start + downtime);
        self.downtime_total += downtime;
        self.power_losses += 1;
        Ok(PowerLossReport {
            downtime,
            recovery,
            aborted,
            torn,
        })
    }

    /// Cross-checks structural invariants the recovery paths must
    /// uphold, returning one human-readable line per violation (empty =
    /// healthy). The torture oracle calls this after every cold start.
    ///
    /// - no AU is owned by two live segments (the §4.3 "duplicate facts
    ///   are harmless" claim only holds for *facts*, never ownership);
    /// - every volume anchor medium exists and is writable;
    /// - every snapshot medium exists and is frozen (not writable);
    /// - every live cold reference addresses a slot the allocator holds;
    /// - every cached payload belongs to a location not yet freed.
    pub fn verify_integrity(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let ctrl = &self.primary;
        let mut owner: std::collections::BTreeMap<(usize, u32), u64> =
            std::collections::BTreeMap::new();
        for seg in ctrl.segments.values() {
            for au in &seg.columns {
                if let Some(prev) = owner.insert((au.drive, au.index), seg.id.0) {
                    violations.push(format!(
                        "AU drive {} index {} owned by both segment {} and segment {}",
                        au.drive, au.index, prev, seg.id.0
                    ));
                }
            }
        }
        for v in ctrl.volumes.values() {
            if ctrl.mediums.rows_of(v.anchor).is_empty() {
                violations.push(format!(
                    "volume {} anchor medium {} has no medium rows",
                    v.id.0, v.anchor.0
                ));
            } else if !ctrl.mediums.is_writable(v.anchor, 0) {
                violations.push(format!(
                    "volume {} anchor medium {} is not writable",
                    v.id.0, v.anchor.0
                ));
            }
        }
        for s in ctrl.snapshots.values() {
            if ctrl.mediums.rows_of(s.medium).is_empty() {
                violations.push(format!(
                    "snapshot {} medium {} has no medium rows",
                    s.id.0, s.medium.0
                ));
            } else if ctrl.mediums.is_writable(s.medium, 0) {
                violations.push(format!(
                    "snapshot {} medium {} is still writable (not frozen)",
                    s.id.0, s.medium.0
                ));
            }
        }
        // Cold-tier invariants: no cold pseudo-segment leaks into the
        // real segment table, and every live cold reference addresses an
        // in-bounds slot the allocator also considers used.
        let slot_bytes = self.cfg.cold_slot_bytes() as u64;
        let slots_per_drive = if self.cfg.tiering_enabled() {
            self.cfg.cold_slots_per_drive() as u64
        } else {
            0
        };
        for id in ctrl.segments.keys() {
            if *id >= crate::tier::COLD_SEG_BASE {
                violations.push(format!(
                    "cold pseudo-segment {id} leaked into the segment table"
                ));
            }
        }
        for (_key, val) in ctrl.reachable_live() {
            let Some(d) = crate::tier::cold_drive_of(&val.loc.pba) else {
                continue;
            };
            let slot = val.loc.pba.offset / slot_bytes;
            if d >= self.cfg.cold_drives || slot >= slots_per_drive {
                violations.push(format!(
                    "live cold reference out of bounds: drive {d} slot {slot}"
                ));
            } else if !ctrl.tier.slot_used(d, slot) {
                violations.push(format!(
                    "live cold reference to slot {d}:{slot} the allocator considers free"
                ));
            }
        }
        // Cache invariant: a resident key names a location whose bytes
        // are still its own — a live (or the open) segment, or a cold
        // slot not yet released for reuse.
        let open = ctrl.writer.open_segment().map(|s| s.id);
        for pba in ctrl.cache.keys() {
            let held = match crate::tier::cold_drive_of(pba) {
                Some(d) => ctrl.tier.slot_held(d, pba.offset / slot_bytes),
                None => ctrl.segments.contains_key(&pba.segment.0) || open == Some(pba.segment),
            };
            if !held {
                violations.push(format!("cache holds a payload for freed location {pba:?}"));
            }
        }
        violations
    }

    // ---- Telemetry. ------------------------------------------------------

    /// Array statistics.
    pub fn stats(&self) -> &ArrayStats {
        &self.primary.stats
    }

    /// The observability hub: side table, slow-op tracer, recorder.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.primary.obs
    }

    /// One sample of every series this array exports: each owner
    /// writes its own (per-drive device internals, the controller's
    /// data path / tiering / map pyramid, shelf + availability, the
    /// tracing spine), then the hub's side table adds the series the
    /// array does not own. Metric names and labels are documented in
    /// OBSERVABILITY.md.
    fn frame(&self) -> Frame<'_> {
        let mut out = Frame::default();
        for d in 0..self.shelf.n_drives() {
            self.shelf.drive(d).collect(&d.to_string(), &mut out);
        }
        self.primary.collect(&mut out);
        out.gauge("nvram_used_bytes", &[], self.nvram_used() as i64);
        out.counter("array_failovers", &[], self.failovers);
        out.counter("array_downtime_ns", &[], self.downtime_total);
        let space = self.space_report();
        out.gauge("array_allocated_bytes", &[], space.allocated_bytes as i64);
        out.gauge(
            "array_provisioned_bytes",
            &[],
            space.provisioned_bytes as i64,
        );
        let obs = &self.primary.obs;
        obs.tracer.collect(&mut out);
        obs.registry.collect(&mut out);
        out
    }

    /// Whether the flight recorder has an interval boundary to close at
    /// the current virtual time (one atomic load — callable per op).
    pub fn telemetry_due(&self) -> bool {
        self.primary.obs.recorder.due(self.clock.now())
    }

    /// Samples the flight recorder if an interval boundary has elapsed:
    /// collects the frame, closes the due interval(s), and — when the
    /// SLO monitor opens an incident — freezes the causal evidence
    /// bundle (per-die busy/GC state, array rebuild/failover state,
    /// the frame's gauges such as host queue depth). Drivers that
    /// advance the clock themselves (the host engine) call this on
    /// their ticks; [`FlashArray::advance`] calls it automatically.
    pub fn sample_telemetry(&self) {
        let now = self.clock.now();
        let obs = &self.primary.obs;
        if !obs.recorder.due(now) || !self.shelf.powered() {
            return;
        }
        purity_obs::profile_scope!(purity_obs::Plane::Recorder);
        let frame = self.frame();
        let events = obs.recorder.sample(now, &frame, &obs.tracer);
        for ev in events {
            if let purity_obs::SloEvent::Opened { id, .. } = ev {
                obs.recorder
                    .attach_evidence(id, self.incident_evidence(now, &frame));
            }
        }
    }

    /// The frozen blame state an SLO incident captures at open time.
    fn incident_evidence(&self, now: Nanos, frame: &Frame<'_>) -> Vec<purity_obs::EvidenceSection> {
        let mut drives = Vec::new();
        for d in 0..self.shelf.n_drives() {
            let drive = self.shelf.drive(d);
            if drive.is_failed() {
                drives.push((format!("drive{d}"), "failed (pulled)".to_string()));
                continue;
            }
            let ftl = drive.stats();
            drives.push((
                format!("drive{d}"),
                format!(
                    "busy={} gc_runs={} gc_programs={} erases={}",
                    drive.busy_at(now),
                    ftl.gc_runs,
                    ftl.gc_programs,
                    ftl.erases
                ),
            ));
            for die in drive.die_statuses(now) {
                if !die.busy {
                    continue;
                }
                let cause = die.pending.map(|c| c.as_str()).unwrap_or("read");
                drives.push((
                    format!("drive{d}.die{die}", die = die.die),
                    format!("busy with {cause} until t={}ns", die.free_at),
                ));
            }
        }
        let s = &self.primary.stats;
        let array = vec![
            (
                "failed_drives".to_string(),
                format!("{:?}", self.shelf.failed_drives()),
            ),
            ("gc_passes".to_string(), s.gc_passes.to_string()),
            (
                "gc_bytes_relocated".to_string(),
                s.gc_bytes_relocated.to_string(),
            ),
            ("scrub_passes".to_string(), s.scrub_passes.to_string()),
            ("failovers".to_string(), self.failovers.to_string()),
            ("downtime_ns".to_string(), self.downtime_total.to_string()),
            (
                "nvram_used_bytes".to_string(),
                self.shelf.nvram().used_bytes().to_string(),
            ),
        ];
        // Point-in-time gauges: the array's own (space accounting, …)
        // and those set by whoever drives it (host queue depth, …).
        let gauges = frame
            .gauges
            .iter()
            .map(|(id, v)| (id.render(), v.to_string()))
            .collect();
        vec![
            purity_obs::EvidenceSection {
                section: "array".to_string(),
                entries: array,
            },
            purity_obs::EvidenceSection {
                section: "drives".to_string(),
                entries: drives,
            },
            purity_obs::EvidenceSection {
                section: "gauges".to_string(),
                entries: gauges,
            },
        ]
    }

    /// Collects and freezes every metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.frame().into_snapshot()
    }

    /// Collects, then renders the full observability export (metrics,
    /// captured slow ops, the flight recorder's `timeseries` and
    /// `incidents`) as JSON — what the bench binaries write into
    /// `results/`. Pure: exporting never advances recorder state, so
    /// repeated exports at the same virtual time are byte-identical.
    pub fn export_observability_json(&self) -> String {
        self.primary.obs.export_json(&self.metrics_snapshot())
    }

    /// Space accounting.
    pub fn space_report(&self) -> SpaceReport {
        let capacity = (self.cfg.aus_per_drive() * self.cfg.n_drives / self.cfg.stripe_width()
            * self.cfg.rs_data) as u64
            * self.cfg.au_bytes as u64;
        let seg_cap =
            (self.primary.layout.n_stripes * self.primary.layout.stripe_data_bytes()) as u64;
        let allocated = self.primary.segment_count() as u64 * seg_cap;
        let provisioned: u64 = self
            .primary
            .volumes()
            .map(|v| v.size_sectors * crate::types::SECTOR as u64)
            .sum();
        SpaceReport {
            usable_bytes: capacity,
            allocated_bytes: allocated,
            provisioned_bytes: provisioned,
            thin_provision_ratio: if capacity == 0 {
                0.0
            } else {
                provisioned as f64 / capacity as f64
            },
        }
    }

    /// Availability over the array's virtual lifetime so far.
    pub fn availability(&self) -> f64 {
        let elapsed = self.clock.now().max(1);
        1.0 - self.downtime_total as f64 / elapsed as f64
    }

    /// Direct controller access (experiments, tests).
    pub fn controller(&self) -> &Controller {
        &self.primary
    }

    /// Mutable controller + shelf access for advanced experiments.
    pub fn controller_and_shelf(&mut self) -> (&mut Controller, &mut Shelf) {
        (&mut self.primary, &mut self.shelf)
    }

    /// NVRAM occupancy (bytes used).
    pub fn nvram_used(&self) -> usize {
        self.shelf.nvram().used_bytes()
    }
}
