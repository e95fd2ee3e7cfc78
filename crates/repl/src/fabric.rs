//! Protection groups, replica lineage, promotion and reprotect.
//!
//! A [`ReplFabric`] owns one [`ReplicaLink`] and a set of
//! [`ProtectionGroup`]s. Each group pairs a source volume with a
//! replica volume it materializes on the destination array, and a
//! schedule interval driven by the arrays' shared virtual clock. Every
//! completed ship snapshots the replica volume on the destination, so
//! successive deltas stack into a consistent lineage: the replica
//! volume's *anchor* may hold a torn, half-shipped delta after a flap
//! or crash, but every snapshot in the lineage is bit-exact some fully
//! acked source snapshot. Promotion clones the lineage tip read-write
//! (it needs nothing from the source, which may be dead); reprotect
//! registers the promoted volume as a new group shipping the surviving
//! data back the other way.

use std::collections::BTreeMap;

use crate::link::ReplicaLink;
use crate::transfer::{ship_snapshot, ShipReport};
use purity_core::{FlashArray, PurityError, Result, SnapshotId, VolumeId, SECTOR};
use purity_sim::Nanos;

/// Cumulative fabric-lifetime counters, set into both arrays' side
/// tables by [`ReplFabric::publish_metrics`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricStats {
    /// Bytes serialized onto the wire, retransmissions included.
    pub bytes_on_wire: u64,
    /// Payload bytes shipped once (dedup-miss sectors).
    pub payload_bytes: u64,
    /// Hash-probe bytes shipped once.
    pub hash_bytes: u64,
    /// Wire retransmissions.
    pub retransmits: u64,
    /// Chunks acked by destinations.
    pub chunks_acked: u64,
    /// Sectors whose payload crossed the wire.
    pub sectors_shipped: u64,
    /// Diff sectors satisfied by destination dedup (hash-only).
    pub dedup_hit_sectors: u64,
    /// Ships that ran to completion.
    pub ships_completed: u64,
    /// Ships that stalled and persisted a resume cursor.
    pub ships_stalled: u64,
}

/// One completed ship in a group's replica history.
#[derive(Debug, Clone, Copy)]
pub struct LineageEntry {
    /// The source snapshot that was shipped.
    pub src_snapshot: SnapshotId,
    /// The destination snapshot freezing the replica at that point.
    pub dst_snapshot: SnapshotId,
    /// When the source snapshot was taken (RPO reference point).
    pub src_taken_at: Nanos,
    /// When the ship finished.
    pub completed_at: Nanos,
}

/// A delta ship in flight (possibly stalled awaiting resume).
#[derive(Debug, Clone, Copy)]
struct PendingShip {
    base: Option<SnapshotId>,
    newer: SnapshotId,
    src_taken_at: Nanos,
}

/// A per-volume replication schedule and its replica lineage.
#[derive(Debug)]
pub struct ProtectionGroup {
    /// Fabric-assigned id.
    pub id: u64,
    /// Group name; replica objects derive their names from it.
    pub name: String,
    /// The protected source volume.
    pub src_volume: VolumeId,
    /// The replica volume on the destination, created on first ship.
    pub replica_volume: Option<VolumeId>,
    /// Schedule interval in virtual time.
    pub interval: Nanos,
    /// Next time `tick` starts a ship for this group.
    pub next_due: Nanos,
    /// Completed ships, oldest first.
    pub lineage: Vec<LineageEntry>,
    /// The promoted read-write volume, if promotion happened.
    pub promoted: Option<VolumeId>,
    /// Persisted replication cursor (encoded `ReplCursor` record) for
    /// the pending ship, `None` when no transfer is mid-flight.
    cursor: Option<Vec<u8>>,
    pending: Option<PendingShip>,
    /// Snapshot-name generation counter.
    generation: u64,
}

impl ProtectionGroup {
    /// The persisted replication cursor bytes, when a transfer is
    /// mid-flight.
    pub fn cursor(&self) -> Option<&[u8]> {
        self.cursor.as_deref()
    }
}

/// The replication fabric: one WAN link, many protection groups.
pub struct ReplFabric {
    link: ReplicaLink,
    groups: BTreeMap<u64, ProtectionGroup>,
    stats: FabricStats,
    next_pg: u64,
}

impl ReplFabric {
    /// A fabric over the given link.
    pub fn new(link: ReplicaLink) -> Self {
        Self {
            link,
            groups: BTreeMap::new(),
            stats: FabricStats::default(),
            next_pg: 1,
        }
    }

    /// Registers a protection group for `volume` on `src`, due for its
    /// seeding ship immediately.
    pub fn protect(
        &mut self,
        src: &FlashArray,
        volume: VolumeId,
        name: &str,
        interval: Nanos,
    ) -> Result<u64> {
        if src.volume(volume).is_none() {
            return Err(PurityError::NoSuchVolume);
        }
        let id = self.next_pg;
        self.next_pg += 1;
        self.groups.insert(
            id,
            ProtectionGroup {
                id,
                name: name.to_string(),
                src_volume: volume,
                replica_volume: None,
                interval,
                next_due: src.now(),
                lineage: Vec::new(),
                promoted: None,
                cursor: None,
                pending: None,
                generation: 0,
            },
        );
        Ok(id)
    }

    /// The group with the given id.
    pub fn group(&self, pg: u64) -> Option<&ProtectionGroup> {
        self.groups.get(&pg)
    }

    /// Cumulative fabric counters.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// The underlying link.
    pub fn link(&self) -> &ReplicaLink {
        &self.link
    }

    /// Starts (or resumes) a ship for `pg` right now, regardless of
    /// schedule. A fresh ship snapshots the source volume first; a
    /// pending ship resumes from its persisted cursor.
    pub fn ship_now(
        &mut self,
        pg: u64,
        src: &mut FlashArray,
        dst: &mut FlashArray,
    ) -> Result<ShipReport> {
        let g = self
            .groups
            .get_mut(&pg)
            .ok_or_else(|| PurityError::BadRequest(format!("no protection group {pg}")))?;
        if g.pending.is_none() {
            let base = g.lineage.last().map(|e| e.src_snapshot);
            g.generation += 1;
            let snap_name = format!("{}@{}", g.name, g.generation);
            let newer = src.snapshot(g.src_volume, &snap_name)?;
            g.pending = Some(PendingShip {
                base,
                newer,
                src_taken_at: src.now(),
            });
        }
        self.run_pending(pg, src, dst)
    }

    /// Resumes a stalled ship from its persisted cursor. Errors when
    /// nothing is pending.
    pub fn resume(
        &mut self,
        pg: u64,
        src: &mut FlashArray,
        dst: &mut FlashArray,
    ) -> Result<ShipReport> {
        let g = self
            .groups
            .get(&pg)
            .ok_or_else(|| PurityError::BadRequest(format!("no protection group {pg}")))?;
        if g.pending.is_none() {
            return Err(PurityError::BadRequest(format!(
                "protection group {pg} has no pending transfer"
            )));
        }
        self.run_pending(pg, src, dst)
    }

    /// Drives every group that is due (or has a stalled transfer to
    /// resume) at the source's current virtual time, in id order.
    /// Returns the reports of the ships that ran.
    pub fn tick(
        &mut self,
        src: &mut FlashArray,
        dst: &mut FlashArray,
    ) -> Result<Vec<(u64, ShipReport)>> {
        let now = src.now();
        let due: Vec<u64> = self
            .groups
            .iter()
            .filter(|(_, g)| g.promoted.is_none() && (g.pending.is_some() || g.next_due <= now))
            .map(|(&id, _)| id)
            .collect();
        let mut out = Vec::new();
        for pg in due {
            let report = self.ship_now(pg, src, dst)?;
            out.push((pg, report));
        }
        Ok(out)
    }

    /// Runs the pending ship of `pg`, creating the replica volume on
    /// first contact, snapshotting it on completion, and publishing
    /// fabric metrics to both arrays either way.
    fn run_pending(
        &mut self,
        pg: u64,
        src: &mut FlashArray,
        dst: &mut FlashArray,
    ) -> Result<ShipReport> {
        purity_obs::profile_scope!(purity_obs::Plane::Repl);
        let g = self.groups.get_mut(&pg).expect("caller checked");
        let pending = g.pending.expect("caller ensured pending");
        let replica = match g.replica_volume {
            Some(v) => v,
            None => {
                let sectors = src
                    .volume(g.src_volume)
                    .map(|v| v.size_sectors)
                    .ok_or(PurityError::NoSuchVolume)?;
                let v =
                    dst.create_volume(&format!("{}-replica", g.name), sectors * SECTOR as u64)?;
                g.replica_volume = Some(v);
                v
            }
        };
        let report = ship_snapshot(
            src,
            pending.base,
            pending.newer,
            dst,
            replica,
            &mut self.link,
            &mut g.cursor,
            pg,
            &mut self.stats,
        )?;
        if report.completed {
            let snap_name = format!("{}@{}", g.name, g.generation);
            let dst_snapshot = dst.snapshot(replica, &snap_name)?;
            g.lineage.push(LineageEntry {
                src_snapshot: pending.newer,
                dst_snapshot,
                src_taken_at: pending.src_taken_at,
                completed_at: dst.now(),
            });
            g.pending = None;
            g.cursor = None;
            g.next_due = src.now() + g.interval;
        }
        self.publish_metrics(src, dst);
        Ok(report)
    }

    /// Recovery-point lag of `pg` at `now`: how far behind the last
    /// fully replicated source snapshot is. `now` itself when nothing
    /// has ever completed.
    pub fn rpo_lag(&self, pg: u64, now: Nanos) -> Nanos {
        self.groups
            .get(&pg)
            .and_then(|g| g.lineage.last())
            .map(|e| now.saturating_sub(e.src_taken_at))
            .unwrap_or(now)
    }

    /// Promotes the replica of `pg` to a read-write volume on the
    /// destination by cloning the lineage tip. Purely a destination
    /// operation — it works with the source array dead.
    pub fn promote(&mut self, pg: u64, dst: &mut FlashArray) -> Result<VolumeId> {
        let g = self
            .groups
            .get_mut(&pg)
            .ok_or_else(|| PurityError::BadRequest(format!("no protection group {pg}")))?;
        let tip = g.lineage.last().ok_or_else(|| {
            PurityError::BadRequest("cannot promote: no completed replica snapshot".into())
        })?;
        let vol = dst.clone_snapshot(tip.dst_snapshot, &format!("{}-promoted", g.name))?;
        g.promoted = Some(vol);
        Ok(vol)
    }

    /// After a promotion, registers the promoted volume as a new
    /// protection group shipping back to the recovered original source,
    /// and runs its seeding ship. Dedup-aware shipping makes the seed
    /// cheap: sectors the old source still holds are hash-only.
    pub fn reprotect(
        &mut self,
        pg: u64,
        dst: &mut FlashArray,
        old_src: &mut FlashArray,
    ) -> Result<(u64, ShipReport)> {
        let (promoted, name) = {
            let g = self
                .groups
                .get(&pg)
                .ok_or_else(|| PurityError::BadRequest(format!("no protection group {pg}")))?;
            let promoted = g.promoted.ok_or_else(|| {
                PurityError::BadRequest("reprotect requires a promoted volume".into())
            })?;
            (promoted, format!("{}-reprotect", g.name))
        };
        let interval = self.groups[&pg].interval;
        let back = self.protect(dst, promoted, &name, interval)?;
        let report = self.ship_now(back, dst, old_src)?;
        Ok((back, report))
    }

    /// Checks that `pg`'s replica snapshots form a proper medium-table
    /// lineage on the destination: each snapshot's medium must be an
    /// ancestor of its successor's (deltas stack, never fork). Returns
    /// human-readable violations; empty means consistent.
    pub fn verify_lineage(&self, pg: u64, dst: &FlashArray) -> Vec<String> {
        let mut problems = Vec::new();
        let Some(g) = self.groups.get(&pg) else {
            return vec![format!("no protection group {pg}")];
        };
        let mediums = dst.controller().mediums();
        for pair in g.lineage.windows(2) {
            let (older, newer) = (&pair[0], &pair[1]);
            let Some(old_m) = dst
                .controller()
                .snapshot_info(older.dst_snapshot)
                .map(|s| s.medium)
            else {
                problems.push(format!("snapshot {:?} missing", older.dst_snapshot));
                continue;
            };
            let Some(new_m) = dst
                .controller()
                .snapshot_info(newer.dst_snapshot)
                .map(|s| s.medium)
            else {
                problems.push(format!("snapshot {:?} missing", newer.dst_snapshot));
                continue;
            };
            // Walk the target graph down from the newer medium; the
            // older one must be among its ancestors.
            let mut frontier = vec![new_m];
            let mut seen = std::collections::BTreeSet::new();
            let mut found = false;
            while let Some(m) = frontier.pop() {
                if m == old_m {
                    found = true;
                    break;
                }
                if !seen.insert(m) {
                    continue;
                }
                for (_, row) in mediums.rows_of(m) {
                    if let Some(t) = row.target {
                        frontier.push(t);
                    }
                }
            }
            if !found {
                problems.push(format!(
                    "replica snapshot medium {new_m:?} does not descend from {old_m:?}"
                ));
            }
        }
        problems
    }

    /// Sets cumulative fabric counters and schedule gauges in both
    /// arrays' side tables, so `export_observability_json()` on
    /// either side carries the `repl_*` series and the flight recorder
    /// picks them up at its next interval boundary.
    pub fn publish_metrics(&self, src: &FlashArray, dst: &FlashArray) {
        for arr in [src, dst] {
            let reg = &arr.obs().registry;
            let s = &self.stats;
            reg.set_counter("repl_bytes_on_wire", &[], s.bytes_on_wire);
            reg.set_counter("repl_payload_bytes", &[], s.payload_bytes);
            reg.set_counter("repl_hash_bytes", &[], s.hash_bytes);
            reg.set_counter("repl_retransmits", &[], s.retransmits);
            reg.set_counter("repl_chunks_acked", &[], s.chunks_acked);
            reg.set_counter("repl_sectors_shipped", &[], s.sectors_shipped);
            reg.set_counter("repl_dedup_hit_sectors", &[], s.dedup_hit_sectors);
            reg.set_counter("repl_ships_completed", &[], s.ships_completed);
            reg.set_counter("repl_ships_stalled", &[], s.ships_stalled);
            let pending = self.groups.values().filter(|g| g.pending.is_some()).count();
            reg.set_gauge("repl_pending_transfers", &[], pending as i64);
            let now = arr.now();
            for g in self.groups.values() {
                reg.set_gauge(
                    "repl_rpo_lag_ns",
                    &[("pg", &g.name)],
                    self.rpo_lag(g.id, now) as i64,
                );
            }
        }
    }
}
