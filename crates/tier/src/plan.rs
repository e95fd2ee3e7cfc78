//! Reconciler: desired placement (heat) vs actual placement → a
//! bounded migration plan.
//!
//! The watcher says where each volume's data *should* live; the
//! executor in `purity-core` reports where it *does* live (how many of
//! its cblocks sit on flash vs the cold class). The reconciler diffs
//! the two and emits volume-level moves:
//!
//! * hot volume with cold-resident data ⇒ [`Move::Promote`] — reads are
//!   actively paying the QLC penalty, so promotes are planned first;
//! * cold volume with flash-resident data ⇒ [`Move::Demote`];
//! * warm volumes are never moved (the hysteresis band).
//!
//! Iteration is `BTreeMap`-ordered and the plan is a pure function of
//! its inputs, so the same telemetry produces the same plan on every
//! run.

use crate::heat::{Heat, HeatPolicy, HeatWatcher};
use purity_sim::Nanos;
use std::collections::BTreeMap;

/// Where one volume's cblocks currently live, as counted by the
/// executor (resolved map facts, not raw capacity).
#[derive(Debug, Clone, Copy, Default)]
pub struct VolumePlacement {
    /// Live cblocks on the flash (NVRAM/flash) tier.
    pub flash_cblocks: u64,
    /// Live cblocks on the cold class.
    pub cold_cblocks: u64,
}

/// One planned volume-level migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Copy the volume's flash-resident cblocks down to the cold class.
    Demote { volume: u64 },
    /// Bring the volume's cold-resident cblocks back to flash.
    Promote { volume: u64 },
}

impl Move {
    /// The volume this move concerns.
    pub fn volume(&self) -> u64 {
        match *self {
            Move::Demote { volume } | Move::Promote { volume } => volume,
        }
    }
}

/// An ordered, bounded set of moves for one migrator tick.
#[derive(Debug, Clone, Default)]
pub struct MigrationPlan {
    /// Moves in execution order (promotes first).
    pub moves: Vec<Move>,
}

impl MigrationPlan {
    /// Whether there is nothing to do.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Diffs desired vs actual placement into a [`MigrationPlan`].
#[derive(Debug, Default)]
pub struct Reconciler;

impl Reconciler {
    /// Plans one migrator tick. `max_moves` bounds the plan (the
    /// executor additionally bounds cblocks per move).
    pub fn plan(
        placements: &BTreeMap<u64, VolumePlacement>,
        watcher: &HeatWatcher,
        now: Nanos,
        policy: &HeatPolicy,
        max_moves: usize,
    ) -> MigrationPlan {
        let mut plan = MigrationPlan::default();
        // Promotes first: these volumes are serving reads through the
        // QLC penalty right now.
        for (&vol, p) in placements {
            if plan.moves.len() >= max_moves {
                return plan;
            }
            if p.cold_cblocks > 0 && watcher.classify(vol, now, policy) == Heat::Hot {
                plan.moves.push(Move::Promote { volume: vol });
            }
        }
        for (&vol, p) in placements {
            if plan.moves.len() >= max_moves {
                return plan;
            }
            if p.flash_cblocks > 0 && watcher.classify(vol, now, policy) == Heat::Cold {
                plan.moves.push(Move::Demote { volume: vol });
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Nanos = 1_000_000;

    fn placement(flash: u64, cold: u64) -> VolumePlacement {
        VolumePlacement {
            flash_cblocks: flash,
            cold_cblocks: cold,
        }
    }

    fn fixture() -> (BTreeMap<u64, VolumePlacement>, HeatWatcher, HeatPolicy) {
        let mut placements = BTreeMap::new();
        placements.insert(1, placement(10, 0)); // idle, on flash
        placements.insert(2, placement(0, 10)); // busy, on cold
        placements.insert(3, placement(5, 5)); // warm, split
        let mut w = HeatWatcher::new();
        w.observe(1, 40, 100 * MS);
        w.observe(2, 40, 950 * MS);
        w.observe(3, 40, 700 * MS);
        let p = HeatPolicy::with_demote_after(400 * MS);
        (placements, w, p)
    }

    #[test]
    fn promotes_lead_demotes_and_warm_stays_put() {
        let (placements, w, p) = fixture();
        let plan = Reconciler::plan(&placements, &w, 1000 * MS, &p, 8);
        assert_eq!(
            plan.moves,
            vec![Move::Promote { volume: 2 }, Move::Demote { volume: 1 }]
        );
    }

    #[test]
    fn plans_are_bounded_and_already_placed_volumes_are_skipped() {
        let (mut placements, w, p) = fixture();
        let plan = Reconciler::plan(&placements, &w, 1000 * MS, &p, 1);
        assert_eq!(plan.moves, vec![Move::Promote { volume: 2 }]);
        // A cold volume already fully on cold plans nothing.
        placements.insert(1, placement(0, 10));
        placements.remove(&2);
        placements.remove(&3);
        let plan = Reconciler::plan(&placements, &w, 1000 * MS, &p, 8);
        assert!(plan.is_empty());
    }

    #[test]
    fn empty_inputs_plan_nothing() {
        let plan = Reconciler::plan(
            &BTreeMap::new(),
            &HeatWatcher::new(),
            0,
            &HeatPolicy::with_demote_after(MS),
            8,
        );
        assert!(plan.is_empty());
    }
}
