//! AU allocation and frontier sets (§4.3, Figure 5).
//!
//! Purity constrains the allocator to hand out only AUs listed in the
//! *persisted* frontier set, so failover recovery scans just those AUs
//! for log records instead of every segment header in the array. A
//! *speculative* set (an approximation of the next frontier) is persisted
//! alongside, so most refreshes need no boot-region write — which is how
//! frontier writes stay "well under 1% of writes".
//!
//! Each device class has its own allocator over its own drives. Only the
//! hot one's frontier is persisted: a cold segment is entered in the
//! checkpoint before it is written, so recovery never scans a cold AU.

use crate::types::{AuId, DriveId};
use std::collections::VecDeque;
use std::ops::Range;

/// Allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// AUs handed out.
    pub allocated: u64,
    /// AUs returned by GC.
    pub released: u64,
    /// Frontier persists requested (each is one boot-region write).
    pub frontier_persists: u64,
}

#[derive(Debug, Default)]
struct DriveAlloc {
    /// Free AUs not yet promoted into the persisted set.
    free: VecDeque<u32>,
    /// AUs allocatable right now (persisted frontier ∪ speculative).
    persisted: VecDeque<u32>,
}

/// The per-drive AU allocator with frontier-set discipline.
#[derive(Debug)]
pub struct AuAllocator {
    /// The first drive id this allocator serves.
    first: DriveId,
    drives: Vec<DriveAlloc>,
    /// Frontier AUs per drive per persist (the speculative set doubles it).
    frontier_per_drive: usize,
    stats: AllocStats,
}

impl AuAllocator {
    /// Creates an allocator over `drives` with every AU free and an
    /// empty persisted set (callers must persist a frontier before
    /// allocating).
    pub fn new(drives: Range<DriveId>, aus_per_drive: usize, frontier_per_drive: usize) -> Self {
        Self {
            first: drives.start,
            drives: drives
                .map(|_| DriveAlloc {
                    free: (0..aus_per_drive as u32).collect(),
                    persisted: VecDeque::new(),
                })
                .collect(),
            frontier_per_drive,
            stats: AllocStats::default(),
        }
    }

    /// Allocates an AU on `drive` from the persisted set. Returns `None`
    /// when the persisted set is exhausted — the caller must persist a
    /// new frontier (boot-region write) and retry.
    pub fn allocate(&mut self, drive: DriveId) -> Option<AuId> {
        let index = self.drives[drive - self.first].persisted.pop_front()?;
        self.stats.allocated += 1;
        Some(AuId { drive, index })
    }

    /// True if `drive`'s persisted set is too thin to open a segment.
    pub fn needs_persist(&self, drive: DriveId) -> bool {
        self.drives[drive - self.first].persisted.is_empty()
    }

    /// Whether any drive needs a frontier persist.
    pub fn any_needs_persist(&self) -> bool {
        self.drives.iter().any(|d| d.persisted.is_empty())
    }

    /// Promotes free AUs into the persisted set (frontier + speculative =
    /// 2× the frontier size) and returns the full persisted snapshot as
    /// packed AU ids for the checkpoint. Call before writing the boot
    /// region.
    pub fn build_persist_set(&mut self) -> Vec<u64> {
        let target = self.frontier_per_drive * 2;
        for d in self.drives.iter_mut() {
            while d.persisted.len() < target {
                match d.free.pop_front() {
                    Some(au) => d.persisted.push_back(au),
                    None => break,
                }
            }
        }
        self.stats.frontier_persists += 1;
        self.snapshot_persisted()
    }

    /// The current persisted set as packed AU ids.
    pub fn snapshot_persisted(&self) -> Vec<u64> {
        self.drives
            .iter()
            .zip(self.first..)
            .flat_map(|(d, drive)| {
                d.persisted
                    .iter()
                    .map(move |&index| AuId { drive, index }.pack())
            })
            .collect()
    }

    /// Returns a freed AU (GC) to the free pool.
    pub fn release(&mut self, au: AuId) {
        self.drives[au.drive - self.first].free.push_back(au.index);
        self.stats.released += 1;
    }

    /// Free + persisted AUs on a drive.
    pub fn available(&self, drive: DriveId) -> usize {
        let d = &self.drives[drive - self.first];
        d.free.len() + d.persisted.len()
    }

    /// Rebuilds allocator state at recovery: `persisted` is the frontier
    /// snapshot from the checkpoint; `in_use` are AUs owned by live
    /// segments (those on other drives are ignored). Everything else is
    /// free.
    pub fn restore(
        drives: Range<DriveId>,
        aus_per_drive: usize,
        frontier_per_drive: usize,
        persisted: &[u64],
        in_use: &[AuId],
    ) -> Self {
        let mut a = Self::new(drives.clone(), aus_per_drive, frontier_per_drive);
        for au in persisted.iter().map(|&p| AuId::unpack(p)) {
            a.claim(au);
            a.drives[au.drive - drives.start]
                .persisted
                .push_back(au.index);
        }
        // AUs in the persisted frontier that live segments consumed stay
        // consumed.
        for au in in_use.iter().filter(|au| drives.contains(&au.drive)) {
            a.claim(*au);
        }
        a
    }

    /// Takes `au` out of the free and persisted sets: recovery found a
    /// segment on it that the checkpoint did not list.
    pub fn claim(&mut self, au: AuId) {
        let d = &mut self.drives[au.drive - self.first];
        d.persisted.retain(|&i| i != au.index);
        d.free.retain(|&i| i != au.index);
    }

    /// Allocation counters.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_requires_a_persisted_frontier() {
        let mut a = AuAllocator::new(0..2, 16, 4);
        assert!(a.needs_persist(0));
        assert_eq!(a.allocate(0), None);
        a.build_persist_set();
        let au = a.allocate(0).unwrap();
        assert_eq!(au, AuId { drive: 0, index: 0 });
    }

    #[test]
    fn persisted_set_covers_frontier_plus_speculative() {
        let mut a = AuAllocator::new(0..1, 32, 4);
        let snap = a.build_persist_set();
        assert_eq!(snap.len(), 8, "frontier(4) + speculative(4)");
        // 8 allocations succeed without another persist.
        for _ in 0..8 {
            assert!(a.allocate(0).is_some());
        }
        assert!(a.needs_persist(0));
    }

    #[test]
    fn frontier_writes_are_rare_relative_to_allocations() {
        let mut a = AuAllocator::new(0..4, 1024, 64);
        let mut allocations = 0u64;
        for _ in 0..3000 {
            let d = (allocations % 4) as usize;
            if a.needs_persist(d) {
                a.build_persist_set();
            }
            if a.allocate(d).is_some() {
                allocations += 1;
            } else {
                break;
            }
        }
        let persists = a.stats().frontier_persists;
        assert!(
            (persists as f64) < allocations as f64 * 0.02,
            "{} persists for {} allocations",
            persists,
            allocations
        );
    }

    #[test]
    fn release_recycles_aus() {
        let mut a = AuAllocator::new(0..1, 4, 2);
        a.build_persist_set();
        let got: Vec<AuId> = (0..4).map(|_| a.allocate(0).unwrap()).collect();
        assert_eq!(a.allocate(0), None);
        assert_eq!(a.available(0), 0);
        a.release(got[1]);
        assert_eq!(a.available(0), 1);
        a.build_persist_set();
        assert_eq!(a.allocate(0), Some(got[1]));
    }

    #[test]
    fn restore_reconstructs_free_and_persisted() {
        let in_use = [AuId { drive: 0, index: 0 }, AuId { drive: 0, index: 1 }];
        let persisted = [
            AuId { drive: 0, index: 2 }.pack(),
            AuId { drive: 0, index: 3 }.pack(),
        ];
        let mut a = AuAllocator::restore(0..1, 8, 2, &persisted, &in_use);
        // Persisted AUs allocatable immediately.
        assert_eq!(a.allocate(0), Some(AuId { drive: 0, index: 2 }));
        assert_eq!(a.allocate(0), Some(AuId { drive: 0, index: 3 }));
        // Remaining free: 4,5,6,7 (0,1 in use).
        let snap = a.build_persist_set();
        assert_eq!(snap.len(), 4);
        assert_eq!(a.allocate(0), Some(AuId { drive: 0, index: 4 }));
    }

    #[test]
    fn restore_drops_persisted_aus_already_consumed() {
        let au = AuId { drive: 0, index: 2 };
        let persisted = [au.pack()];
        let mut a = AuAllocator::restore(0..1, 4, 2, &persisted, &[au]);
        // The AU is in use; it must not be allocatable again.
        assert_eq!(a.allocate(0), None);
        let snap = a.build_persist_set();
        assert!(!snap.contains(&au.pack()));
    }

    #[test]
    fn an_allocator_serves_only_its_own_drives() {
        let hot = AuId { drive: 0, index: 1 };
        let cold = AuId {
            drive: 11,
            index: 0,
        };
        let mut a = AuAllocator::restore(11..13, 4, 4, &[], &[hot, cold]);
        assert!(a.needs_persist(11));
        let snap = a.build_persist_set();
        assert_eq!(snap.len(), 7, "AU 0 of drive 11 is in use");
        assert!(snap.contains(
            &AuId {
                drive: 12,
                index: 0
            }
            .pack()
        ));
        assert_eq!(
            a.allocate(11),
            Some(AuId {
                drive: 11,
                index: 1
            })
        );
        a.release(cold);
        assert_eq!(a.available(11), 3);
        a.claim(AuId {
            drive: 12,
            index: 0,
        });
        assert_eq!(
            a.allocate(12),
            Some(AuId {
                drive: 12,
                index: 1
            })
        );
    }
}
