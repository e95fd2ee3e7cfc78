//! Five-minute-rule tiering policy (ROADMAP item 3, ISSUE 10).
//!
//! The paper's Figure 7 analysis prices each storage class in $/(access/s)
//! and $/byte and finds the break-even re-reference interval — ~31/22/21
//! minutes at 1×/4×/10× data reduction against 2014 ECC DRAM. This crate
//! turns that analysis into a running policy engine:
//!
//! * [`cache::RamCache`] — a deterministic, byte-bounded read cache for
//!   controller DRAM. The array runs one as its LRU cblock cache; under
//!   2Q admission it is sized from the measured crossover interval
//!   (capacity = arrival byte rate × break-even time keeps exactly the
//!   blocks whose re-reference interval beats the DRAM price).
//! * [`heat::HeatWatcher`] — folds the flight recorder's per-volume read
//!   time-series into an exponentially-weighted activity estimate and an
//!   idle clock, classifying each volume hot, warm or cold.
//! * [`plan::Reconciler`] — compares desired placement (from heat)
//!   against actual placement and emits a bounded [`plan::MigrationPlan`]
//!   of volume-level promote/demote moves for the executor in
//!   `purity-core` to carry out crash-safely.
//!
//! Everything here is pure policy on the array's virtual clock: no I/O,
//! no wall time, `BTreeMap`-ordered iteration throughout, so the same
//! seed produces the same byte-identical decision stream on every run.

pub mod cache;
pub mod heat;
pub mod plan;

pub use cache::RamCache;
pub use heat::{Heat, HeatPolicy, HeatWatcher};
pub use plan::{MigrationPlan, Move, Reconciler};

/// Five-minute-rule cache sizing: the DRAM capacity that retains data
/// for exactly the break-even re-reference interval at the observed
/// arrival rate. Bytes arriving faster than this capacity can hold for
/// `crossover_interval_sec` would be evicted before their economic
/// break-even, so a larger cache is wasted DRAM and a smaller one
/// spills wins to flash.
pub fn capacity_for_crossover(arrival_bytes_per_sec: f64, crossover_interval_sec: f64) -> usize {
    (arrival_bytes_per_sec * crossover_interval_sec).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_scales_with_rate_and_interval() {
        let a = capacity_for_crossover(1000.0, 60.0);
        assert_eq!(a, 60_000);
        assert!(capacity_for_crossover(1000.0, 120.0) > a);
        assert!(capacity_for_crossover(2000.0, 60.0) > a);
    }
}
