//! The durability oracle: an authoritative model of what the array
//! *promised* to keep.
//!
//! The contract under whole-array power loss (§4.3 of the paper):
//!
//! - every **acked** write survives bit-exact — the ack was only sent
//!   after the NVRAM intent was durable;
//! - an **unacked** write (the op that died with the power) is
//!   prefix-atomic: the write path cuts an op into cblock-sized chunks,
//!   each covered by its own NVRAM intent, appended and applied in
//!   order — so after cold start some *prefix* of the op's sectors
//!   holds the new data and the rest still hold their pre-images. No
//!   sector is ever garbage, and the new data never lands out of order
//!   (a durable later chunk with its earlier sibling missing would mean
//!   replay resurrected a torn record);
//! - snapshots are frozen: their contents never change, across any
//!   number of crashes;
//! - unwritten sectors read as zeros.
//!
//! The oracle mirrors acked state sector-by-sector, carries at most one
//! *staged* (issued-but-unresolved) write at a time, and after a cold
//! start [`DurabilityOracle::settle`]s the staged write by reading it
//! back and folding whichever legal outcome it observes into the model.
//! Violations are returned as strings, never panics, so the shrinker
//! can re-run failing campaigns cheaply.
//!
//! It is the only reference model in the crate: it reads back through a
//! [`ReadTarget`], so the same `check_read` / `settle` / `verify_all`
//! hold one array, a cluster seen through a client handle, or a
//! replication destination to account.

use purity_core::{FlashArray, Result, SnapshotId, VolumeId, SECTOR};
use std::collections::BTreeMap;

/// What the oracle reads promises back through, sector-addressed.
pub trait ReadTarget {
    fn read(&mut self, volume: VolumeId, sector: u64, n: usize) -> Result<Vec<u8>>;
    fn read_snapshot(&mut self, snapshot: SnapshotId, sector: u64, n: usize) -> Result<Vec<u8>>;
}

impl ReadTarget for FlashArray {
    fn read(&mut self, volume: VolumeId, sector: u64, n: usize) -> Result<Vec<u8>> {
        FlashArray::read(self, volume, sector * SECTOR as u64, n * SECTOR).map(|(data, _)| data)
    }

    fn read_snapshot(&mut self, snapshot: SnapshotId, sector: u64, n: usize) -> Result<Vec<u8>> {
        FlashArray::read_snapshot(self, snapshot, sector * SECTOR as u64, n * SECTOR)
    }
}

/// Sectors per read of the full sweep.
const SWEEP_SECTORS: u64 = 256;

/// Acked contents of one volume (or a frozen snapshot of one).
#[derive(Clone)]
struct VolState {
    size_sectors: u64,
    sectors: BTreeMap<u64, [u8; SECTOR]>,
}

/// A write that was issued but errored out (power died mid-op): its
/// sectors must resolve all-old or all-new after recovery.
struct StagedWrite {
    volume: VolumeId,
    start_sector: u64,
    /// Per sector: (pre-image, intended new contents).
    sectors: Vec<([u8; SECTOR], [u8; SECTOR])>,
}

/// The model. All bookkeeping is `BTreeMap` so iteration order — and
/// therefore every violation string — is deterministic.
#[derive(Default)]
pub struct DurabilityOracle {
    volumes: BTreeMap<u64, VolState>,
    snapshots: BTreeMap<u64, VolState>,
    staged: Option<StagedWrite>,
}

impl DurabilityOracle {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a freshly created (all-zero) volume.
    pub fn create_volume(&mut self, v: VolumeId, size_bytes: u64) {
        self.volumes.insert(
            v.0,
            VolState {
                size_sectors: size_bytes / SECTOR as u64,
                sectors: BTreeMap::new(),
            },
        );
    }

    pub fn size_sectors(&self, v: VolumeId) -> u64 {
        self.volumes[&v.0].size_sectors
    }

    /// Freezes the current acked state of `v` as snapshot `s`.
    pub fn snapshot(&mut self, s: SnapshotId, v: VolumeId) {
        let frozen = self.volumes[&v.0].clone();
        self.snapshots.insert(s.0, frozen);
    }

    pub fn destroy_snapshot(&mut self, s: SnapshotId) {
        self.snapshots.remove(&s.0);
    }

    /// Registers a clone of snapshot `s` as new volume `v`.
    pub fn clone_snapshot(&mut self, s: SnapshotId, v: VolumeId) {
        let state = self.snapshots[&s.0].clone();
        self.volumes.insert(v.0, state);
    }

    /// Stages a write about to be issued. Exactly one write may be in
    /// flight at a time (the harness is a single-threaded simulation).
    pub fn stage_write(&mut self, v: VolumeId, start_sector: u64, data: &[u8]) {
        assert!(self.staged.is_none(), "oracle: staged write never resolved");
        assert_eq!(data.len() % SECTOR, 0);
        let vol = &self.volumes[&v.0];
        let sectors = data
            .chunks_exact(SECTOR)
            .enumerate()
            .map(|(i, chunk)| {
                let old = vol
                    .sectors
                    .get(&(start_sector + i as u64))
                    .copied()
                    .unwrap_or([0u8; SECTOR]);
                let mut new = [0u8; SECTOR];
                new.copy_from_slice(chunk);
                (old, new)
            })
            .collect();
        self.staged = Some(StagedWrite {
            volume: v,
            start_sector,
            sectors,
        });
    }

    /// The staged write was acked: it is now part of the durability
    /// contract.
    pub fn commit_staged(&mut self) {
        let w = self.staged.take().expect("invariant: commit follows stage");
        let vol = self.volumes.get_mut(&w.volume.0).expect(REGISTERED);
        for (i, (_, new)) in w.sectors.into_iter().enumerate() {
            vol.sectors.insert(w.start_sector + i as u64, new);
        }
    }

    /// The staged write errored (power died mid-op). It stays pending
    /// until [`DurabilityOracle::settle`] observes its outcome.
    pub fn abandon_staged(&mut self) {
        assert!(self.staged.is_some(), "oracle: abandon with nothing staged");
    }

    /// The staged write was refused before it touched anything (a
    /// cluster with no live in-sync replica): the pre-images stand.
    pub fn reject_staged(&mut self) {
        assert!(
            self.staged.take().is_some(),
            "oracle: reject with nothing staged"
        );
    }

    /// One write through the oracle: staged before `issue` runs,
    /// committed when it acks, left pending for
    /// [`DurabilityOracle::settle`] when it errors.
    pub fn write_through<A, E>(
        &mut self,
        v: VolumeId,
        start_sector: u64,
        data: &[u8],
        issue: impl FnOnce() -> std::result::Result<A, E>,
    ) -> std::result::Result<A, E> {
        self.stage_write(v, start_sector, data);
        let acked = issue();
        match acked {
            Ok(_) => self.commit_staged(),
            Err(_) => self.abandon_staged(),
        }
        acked
    }

    /// After a cold start: resolve any pending unacked write by reading
    /// it back. The legal outcome is a *prefix* of the op's sectors
    /// holding the new data and the remainder still holding their
    /// pre-images (each cblock chunk's NVRAM intent is all-or-nothing
    /// and they commit in order). Per-sector garbage, or new data
    /// landing after an old sector (out-of-order durability), is a
    /// violation. The observed outcome is folded into the model.
    pub fn settle(&mut self, t: &mut impl ReadTarget) -> Vec<String> {
        let mut violations = Vec::new();
        let Some(w) = self.staged.take() else {
            return violations;
        };
        match t.read(w.volume, w.start_sector, w.sectors.len()) {
            Err(e) => violations.push(format!(
                "settle: read of pending write vol {} sector {} failed: {}",
                w.volume.0, w.start_sector, e
            )),
            Ok(read) => {
                // True once a sector unambiguously held its pre-image;
                // any unambiguously-new sector after that is a hole in
                // the middle of the op — impossible under in-order
                // intent commit.
                let mut seen_old = false;
                let vol = self.volumes.get_mut(&w.volume.0).expect(REGISTERED);
                for (i, (old, new)) in w.sectors.iter().enumerate() {
                    let got = &read[i * SECTOR..(i + 1) * SECTOR];
                    if got == &new[..] {
                        if seen_old && old != new {
                            violations.push(format!(
                                "settle: unacked write vol {} sector {} is new data after an \
                                 old sector — non-prefix (out-of-order) durability",
                                w.volume.0,
                                w.start_sector + i as u64
                            ));
                        }
                        vol.sectors.insert(w.start_sector + i as u64, *new);
                    } else if got == &old[..] {
                        seen_old = true;
                    } else {
                        violations.push(format!(
                            "settle: vol {} sector {} is neither pre-image nor new data",
                            w.volume.0,
                            w.start_sector + i as u64
                        ));
                    }
                }
            }
        }
        violations
    }

    /// Read-your-writes check over an extent of acked state.
    pub fn check_read(
        &self,
        v: VolumeId,
        start_sector: u64,
        read: &[u8],
        ctx: &str,
    ) -> Vec<String> {
        let what = format!("{ctx} vol {}", v.0);
        Self::check_extent(&self.volumes[&v.0], start_sector, read, &what, LOST)
    }

    /// The same over an extent of a frozen snapshot — or of anything
    /// that must hold the snapshot's image (a replica of it, a volume
    /// promoted from it).
    pub fn check_snapshot_read(
        &self,
        s: SnapshotId,
        start_sector: u64,
        read: &[u8],
        ctx: &str,
    ) -> Vec<String> {
        let what = format!("{ctx} snap {}", s.0);
        Self::check_extent(&self.snapshots[&s.0], start_sector, read, &what, CHANGED)
    }

    fn check_extent(
        state: &VolState,
        start_sector: u64,
        read: &[u8],
        what: &str,
        fault: &str,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        for (i, got) in read.chunks_exact(SECTOR).enumerate() {
            let sector = start_sector + i as u64;
            let expect = state.sectors.get(&sector).copied().unwrap_or([0u8; SECTOR]);
            if got != expect {
                violations.push(format!("{what} sector {sector}: {fault}"));
            }
        }
        violations
    }

    /// Full sweep: every sector of every volume and of every frozen
    /// snapshot must read back bit-exact, the unwritten ones as zeros.
    pub fn verify_all(&self, t: &mut impl ReadTarget) -> Vec<String> {
        let mut violations = Vec::new();
        for (&id, vol) in &self.volumes {
            let what = format!("vol {id}");
            Self::sweep(vol, &what, LOST, &mut violations, |at, n| {
                t.read(VolumeId(id), at, n)
            });
        }
        for (&id, snap) in &self.snapshots {
            let what = format!("snap {id}");
            Self::sweep(snap, &what, CHANGED, &mut violations, |at, n| {
                t.read_snapshot(SnapshotId(id), at, n)
            });
        }
        violations
    }

    fn sweep(
        state: &VolState,
        what: &str,
        fault: &str,
        violations: &mut Vec<String>,
        mut read: impl FnMut(u64, usize) -> Result<Vec<u8>>,
    ) {
        let mut at = 0;
        while at < state.size_sectors {
            let n = SWEEP_SECTORS.min(state.size_sectors - at);
            match read(at, n as usize) {
                Err(e) => violations.push(format!("{what} sector {at}: read failed: {e}")),
                Ok(got) => violations.extend(Self::check_extent(state, at, &got, what, fault)),
            }
            at += n;
        }
    }

    pub fn snapshot_size_sectors(&self, s: SnapshotId) -> u64 {
        self.snapshots[&s.0].size_sectors
    }

    /// Number of acked sectors tracked across all volumes (test aid).
    pub fn acked_sectors(&self) -> usize {
        self.volumes.values().map(|v| v.sectors.len()).sum()
    }
}

const REGISTERED: &str = "invariant: stage_write indexed this volume, so it is registered";
const LOST: &str = "acked data lost or corrupt";
const CHANGED: &str = "frozen data changed";
