//! Per-volume heat classification from the flight recorder's read
//! time-series.
//!
//! The watcher is fed one sample per recorder interval per volume — the
//! number of reads the volume served in that interval (exactly what
//! `Recorder::counter_series` yields for the `volume_reads` counter).
//! It maintains, per volume:
//!
//! * an exponentially-weighted read rate (integer EWMA, α = 1/8, so the
//!   arithmetic is exact and replayable), and
//! * an idle clock: virtual ns since the last interval with any reads.
//!
//! Classification against a [`HeatPolicy`] is then a pure function:
//! idle past `demote_after_ns` ⇒ [`Heat::Cold`]; active within
//! `promote_under_ns` ⇒ [`Heat::Hot`]; in between ⇒ [`Heat::Warm`]
//! (hysteresis — the band keeps the migrator from thrashing a volume
//! whose activity hovers at the threshold).

use purity_sim::Nanos;
use std::collections::BTreeMap;

/// EWMA smoothing shift: new = old - old/8 + sample/8.
const EWMA_SHIFT: u32 = 3;

/// A volume's temperature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heat {
    /// Recently active: belongs on flash, worth RAM-cache residency.
    Hot,
    /// Between thresholds: left where it is (hysteresis band).
    Warm,
    /// Idle past the demotion threshold: eligible for the cold class.
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

/// Classification thresholds, in virtual ns of idleness.
#[derive(Debug, Clone, Copy)]
pub struct HeatPolicy {
    /// Idle longer than this ⇒ cold.
    pub demote_after_ns: Nanos,
    /// Idle shorter than this ⇒ hot. Must be ≤ `demote_after_ns`.
    pub promote_under_ns: Nanos,
}

impl HeatPolicy {
    /// A policy with the hysteresis band at ¼ of the demote threshold.
    pub fn with_demote_after(demote_after_ns: Nanos) -> Self {
        Self {
            demote_after_ns,
            promote_under_ns: demote_after_ns / 4,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct VolumeHeat {
    /// EWMA of reads per interval, scaled ×2^EWMA_SHIFT for precision.
    rate_scaled: u64,
    /// Virtual time of the end of the last interval with reads > 0.
    last_active_at: Nanos,
    /// Total reads observed (diagnostics).
    total_reads: u64,
}

/// Folds per-volume read series into heat classifications.
#[derive(Debug, Default)]
pub struct HeatWatcher {
    volumes: BTreeMap<u64, VolumeHeat>,
}

impl HeatWatcher {
    /// Creates an empty watcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one recorder interval for one volume: `reads` reads were
    /// served in the interval ending at `interval_end`. Intervals must
    /// be fed in non-decreasing `interval_end` order per volume.
    pub fn observe(&mut self, volume: u64, reads: u64, interval_end: Nanos) {
        let v = self.volumes.entry(volume).or_default();
        v.rate_scaled = v.rate_scaled - (v.rate_scaled >> EWMA_SHIFT) + reads;
        v.total_reads += reads;
        if reads > 0 {
            v.last_active_at = v.last_active_at.max(interval_end);
        }
    }

    /// Classifies a volume as of virtual time `now`. Never-observed
    /// volumes are warm: there is no evidence either way, and moving
    /// data on no evidence is how migrators thrash.
    pub fn classify(&self, volume: u64, now: Nanos, policy: &HeatPolicy) -> Heat {
        let Some(v) = self.volumes.get(&volume) else {
            return Heat::Warm;
        };
        if v.total_reads == 0 {
            return Heat::Warm;
        }
        let idle = now.saturating_sub(v.last_active_at);
        if idle >= policy.demote_after_ns {
            Heat::Cold
        } else if idle < policy.promote_under_ns {
            Heat::Hot
        } else {
            Heat::Warm
        }
    }

    /// The smoothed reads-per-interval estimate (×1, rounded down).
    pub fn rate(&self, volume: u64) -> u64 {
        self.volumes
            .get(&volume)
            .map(|v| v.rate_scaled >> EWMA_SHIFT)
            .unwrap_or(0)
    }

    /// Volumes the watcher has observed, ascending.
    pub fn volumes(&self) -> impl Iterator<Item = u64> + '_ {
        self.volumes.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Nanos = 1_000_000;

    #[test]
    fn idle_volume_goes_cold_and_recovers() {
        let mut w = HeatWatcher::new();
        let p = HeatPolicy::with_demote_after(400 * MS);
        w.observe(1, 50, 100 * MS);
        assert_eq!(w.classify(1, 110 * MS, &p), Heat::Hot);
        // A long quiet stretch crosses the hysteresis band into cold.
        for i in 1..=6u64 {
            w.observe(1, 0, (100 + i * 100) * MS);
        }
        assert_eq!(w.classify(1, 700 * MS, &p), Heat::Cold);
        // One active interval flips it straight back to hot.
        w.observe(1, 10, 800 * MS);
        assert_eq!(w.classify(1, 810 * MS, &p), Heat::Hot);
    }

    #[test]
    fn hysteresis_band_is_warm() {
        let mut w = HeatWatcher::new();
        let p = HeatPolicy::with_demote_after(400 * MS);
        w.observe(2, 5, 100 * MS);
        // Idle 200 ms: past promote_under (100 ms), short of demote (400).
        assert_eq!(w.classify(2, 300 * MS, &p), Heat::Warm);
    }

    #[test]
    fn unknown_or_never_read_volumes_are_warm() {
        let mut w = HeatWatcher::new();
        let p = HeatPolicy::with_demote_after(400 * MS);
        assert_eq!(w.classify(9, MS, &p), Heat::Warm);
        w.observe(3, 0, 100 * MS);
        assert_eq!(w.classify(3, 900 * MS, &p), Heat::Warm);
    }

    #[test]
    fn ewma_tracks_rate_changes_smoothly() {
        let mut w = HeatWatcher::new();
        for i in 0..32u64 {
            w.observe(1, 80, i * MS);
        }
        let high = w.rate(1);
        assert!((70..=90).contains(&high), "rate {high}");
        for i in 32..40u64 {
            w.observe(1, 0, i * MS);
        }
        let decayed = w.rate(1);
        assert!(decayed < high, "rate decays: {decayed} < {high}");
        assert!(decayed > 0, "but not instantly");
    }
}
