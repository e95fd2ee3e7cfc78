//! ALUA-style multipath: two paths, primary-preferred.
//!
//! A Purity array exposes both controllers' ports (§4.1): the path to
//! the primary is *active/optimized*; the path to the standby is
//! *active/non-optimized* — reachable, but requests pay the internal
//! interconnect forward hop. A host keeps both paths open, prefers the
//! optimized one, and on I/O timeout marks the path failed and fails
//! over to the survivor. Failed paths are re-probed after a cool-down,
//! so the host drifts back to the optimized path once the promoted
//! controller is serving again (ALUA failback).

use purity_core::Port;
use purity_sim::Nanos;

/// Host-side path identity. `A` maps to [`Port::Primary`] (optimized),
/// `B` to [`Port::Secondary`] (non-optimized).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathId {
    /// Active/optimized path (primary controller's ports).
    A,
    /// Active/non-optimized path (standby's ports; forwarded).
    B,
}

impl PathId {
    /// The array port this path lands on.
    pub fn port(self) -> Port {
        match self {
            PathId::A => Port::Primary,
            PathId::B => Port::Secondary,
        }
    }

    /// The other path.
    pub fn other(self) -> PathId {
        match self {
            PathId::A => PathId::B,
            PathId::B => PathId::A,
        }
    }
}

/// Health of one path as the host sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathState {
    /// Serving I/O.
    Up,
    /// Timed out; not selected until the probe cool-down elapses.
    Failed {
        /// When the host declared the path dead.
        at: Nanos,
    },
}

/// Per-path bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct PathInfo {
    /// Current health.
    pub state: PathState,
    /// Dispatches sent down this path.
    pub dispatched: u64,
    /// Timeouts charged to this path.
    pub timeouts: u64,
}

/// The host's two-path view of the array, with its retry backoff and
/// probe cool-down.
#[derive(Debug, Clone)]
pub struct Multipath {
    a: PathInfo,
    b: PathInfo,
    /// Base retry backoff; attempt `n` waits `backoff << min(n, 6)`.
    pub backoff: Nanos,
    /// Cool-down before a failed path is probed again.
    pub probe_interval: Nanos,
}

impl Multipath {
    /// Both paths up.
    pub fn new(backoff: Nanos, probe_interval: Nanos) -> Self {
        let fresh = PathInfo {
            state: PathState::Up,
            dispatched: 0,
            timeouts: 0,
        };
        Self {
            a: fresh,
            b: fresh,
            backoff,
            probe_interval,
        }
    }

    /// Path bookkeeping (immutable).
    pub fn info(&self, p: PathId) -> &PathInfo {
        match p {
            PathId::A => &self.a,
            PathId::B => &self.b,
        }
    }

    fn info_mut(&mut self, p: PathId) -> &mut PathInfo {
        match p {
            PathId::A => &mut self.a,
            PathId::B => &mut self.b,
        }
    }

    fn usable(&self, p: PathId, now: Nanos) -> bool {
        match self.info(p).state {
            PathState::Up => true,
            // Probe: a failed path becomes selectable again after the
            // cool-down (success will mark it Up).
            PathState::Failed { at } => now >= at + self.probe_interval,
        }
    }

    /// ALUA selection at `now`: the optimized path if usable, else the
    /// non-optimized one, else `None` (all-paths-down; the caller backs
    /// off and retries).
    pub fn select(&self, now: Nanos) -> Option<PathId> {
        if self.usable(PathId::A, now) {
            Some(PathId::A)
        } else if self.usable(PathId::B, now) {
            Some(PathId::B)
        } else {
            None
        }
    }

    /// Records a dispatch on `p`.
    pub fn note_dispatch(&mut self, p: PathId) {
        self.info_mut(p).dispatched += 1;
    }

    /// Records a delivered ack on `p`: a probe success revives it.
    pub fn note_success(&mut self, p: PathId) {
        self.info_mut(p).state = PathState::Up;
    }

    /// Records a timeout on `p`, marking it failed as of `now`.
    pub fn note_timeout(&mut self, p: PathId, now: Nanos) {
        let info = self.info_mut(p);
        info.timeouts += 1;
        info.state = PathState::Failed { at: now };
    }

    /// Exponential backoff for retry attempt `attempt` (1-based).
    pub fn backoff_for(&self, attempt: u32) -> Nanos {
        self.backoff.saturating_mul(1 << attempt.min(6) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mp() -> Multipath {
        Multipath::new(10_000, 500_000)
    }

    #[test]
    fn prefers_optimized_path() {
        let m = mp();
        assert_eq!(m.select(0), Some(PathId::A));
        assert_eq!(PathId::A.port(), Port::Primary);
        assert_eq!(PathId::B.port(), Port::Secondary);
    }

    #[test]
    fn fails_over_and_probes_back() {
        let mut m = mp();
        m.note_timeout(PathId::A, 100);
        assert_eq!(m.select(100), Some(PathId::B), "survivor selected");
        // Before the cool-down A stays shunned; after it, A is probed.
        assert_eq!(m.select(100 + 499_999), Some(PathId::B));
        assert_eq!(m.select(100 + 500_000), Some(PathId::A));
        m.note_success(PathId::A);
        assert_eq!(m.info(PathId::A).state, PathState::Up);
    }

    #[test]
    fn all_paths_down_reports_none() {
        let mut m = mp();
        m.note_timeout(PathId::A, 0);
        m.note_timeout(PathId::B, 0);
        assert_eq!(m.select(1), None);
        assert_eq!(m.select(500_000), Some(PathId::A), "probe after cool-down");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let m = mp();
        assert_eq!(m.backoff_for(1), 20_000);
        assert_eq!(m.backoff_for(2), 40_000);
        assert_eq!(m.backoff_for(6), 640_000);
        assert_eq!(m.backoff_for(60), 640_000, "capped at 2^6");
    }
}
