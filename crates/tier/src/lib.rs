//! Five-minute-rule tiering policy (ROADMAP item 3, ISSUE 10).
//!
//! The paper's Figure 7 analysis prices each storage class in $/(access/s)
//! and $/byte and finds the break-even re-reference interval — ~31/22/21
//! minutes at 1×/4×/10× data reduction against 2014 ECC DRAM. This crate
//! holds the pieces of that analysis the array runs:
//!
//! * [`cache::RamCache`] — a deterministic, byte-bounded LRU read cache
//!   for controller DRAM. The array runs one as its cblock cache; E18
//!   sizes one from the measured crossover interval (capacity = arrival
//!   byte rate × break-even time keeps exactly the blocks whose
//!   re-reference interval beats the DRAM price).
//! * [`Heat`] — a volume's temperature. The executor in `purity-core`
//!   classifies each volume by the time since its last read, the
//!   re-access interval the rule is a break-even on, and moves hot
//!   volumes to flash and cold ones to the cold class.
//!
//! Everything here is pure policy on the array's virtual clock: no I/O,
//! no wall time, so the same seed produces the same byte-identical
//! decision stream on every run.

pub mod cache;

pub use cache::RamCache;

/// A volume's temperature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heat {
    /// Recently read: belongs on flash, worth RAM-cache residency.
    Hot,
    /// Between thresholds, or never read: left where it is (the
    /// hysteresis band keeps a volume whose activity hovers at the
    /// threshold from thrashing between classes).
    Warm,
    /// Unread past the demotion threshold: eligible for the cold class.
    Cold,
}

impl Heat {
    /// Canonical `snake_case` name (exports, logs).
    pub fn as_str(self) -> &'static str {
        match self {
            Heat::Hot => "hot",
            Heat::Warm => "warm",
            Heat::Cold => "cold",
        }
    }
}

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
