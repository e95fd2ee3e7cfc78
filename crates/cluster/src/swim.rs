//! SWIM-style failure detection on the virtual clock.
//!
//! Each live node probes one peer per probe interval (round-robin over
//! a seed-shuffled order, the classic SWIM randomization without the
//! nondeterminism). A direct probe is one [`send_once`] on the pair
//! link — lost to a flap, a partition, or a powered-off target, it
//! falls back to `k` indirect probes relayed through other live nodes
//! (two link hops each). Only when direct and all indirect probes fail
//! does the observer move the target to **suspect**; a suspect that
//! stays unreachable for the suspicion timeout is **confirmed dead**.
//! A probe answered by a suspect refutes the suspicion — the answer
//! carries the target's incarnation, and a node that rejoins with a
//! bumped incarnation clears any stale suspicion of its former self.
//!
//! Everything runs in virtual time off the caller-supplied `now`:
//! detection latency is a deterministic function of the probe
//! interval, the link flap schedules, and the kill time.
//!
//! [`send_once`]: purity_repl::ReplicaLink::send_once

use purity_repl::{LinkMesh, SendResult};
use purity_sim::{Nanos, MS, SEC};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Gap between one node's successive probes.
pub const PROBE_INTERVAL: Nanos = 200 * MS;

/// Indirect probes (ping-req relays) tried after a failed direct probe.
const INDIRECT_PROBES: usize = 2;

/// Wire size of one probe or ack message.
const PROBE_BYTES: u64 = 64;

/// Failure-detector knobs.
#[derive(Debug, Clone, Copy)]
pub struct SwimConfig {
    /// How long a node stays suspect before it is confirmed dead.
    pub suspicion_timeout: Nanos,
    /// Seed for the per-observer probe-order shuffles.
    pub seed: u64,
}

impl Default for SwimConfig {
    fn default() -> Self {
        Self {
            suspicion_timeout: 2 * SEC,
            seed: 0x5717,
        }
    }
}

/// One observer's view of one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Responding (directly or through a relay).
    Alive,
    /// Unreachable since the contained instant.
    Suspect { since: Nanos },
}

/// A state transition some observer just made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwimEvent {
    /// `observer` moved `subject` to suspect at `at`.
    Suspected {
        observer: usize,
        subject: usize,
        at: Nanos,
    },
    /// A probe answer cleared a suspicion.
    Refuted {
        observer: usize,
        subject: usize,
        at: Nanos,
    },
    /// `observer`'s suspicion of `subject` aged out: confirmed dead.
    Confirmed {
        observer: usize,
        subject: usize,
        at: Nanos,
    },
}

/// Cumulative detector counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwimStats {
    /// Direct probes sent.
    pub probes: u64,
    /// Direct probes lost.
    pub probe_losses: u64,
    /// Indirect (relayed) probes sent.
    pub indirect_probes: u64,
    /// Suspicion transitions.
    pub suspicions: u64,
    /// Suspicions refuted by a later answer.
    pub refutations: u64,
    /// Confirmed deaths.
    pub confirms: u64,
}

/// The cluster's failure-detection state: per-observer peer views plus
/// the shared probe schedule.
pub struct SwimDetector {
    cfg: SwimConfig,
    n: usize,
    /// `views[observer][subject]` for subjects this observer tracks.
    views: Vec<BTreeMap<usize, PeerState>>,
    /// Seed-shuffled probe order per observer, cycled by `probe_ptr`.
    order: Vec<Vec<usize>>,
    probe_ptr: Vec<usize>,
    next_probe: Vec<Nanos>,
    stats: SwimStats,
}

impl SwimDetector {
    /// A detector over `n` nodes, all initially alive in every view.
    pub fn new(n: usize, cfg: SwimConfig) -> Self {
        assert!(n >= 2);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_5717_DE7E_C70A);
        let mut order = Vec::with_capacity(n);
        let mut views = Vec::with_capacity(n);
        for o in 0..n {
            let mut peers: Vec<usize> = (0..n).filter(|&p| p != o).collect();
            peers.shuffle(&mut rng);
            order.push(peers);
            views.push(
                (0..n)
                    .filter(|&p| p != o)
                    .map(|p| (p, PeerState::Alive))
                    .collect(),
            );
        }
        Self {
            cfg,
            n,
            views,
            order,
            probe_ptr: vec![0; n],
            next_probe: vec![0; n],
            stats: SwimStats::default(),
        }
    }

    /// The knobs.
    pub fn config(&self) -> &SwimConfig {
        &self.cfg
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SwimStats {
        self.stats
    }

    /// `observer`'s current view of `subject`.
    pub fn view(&self, observer: usize, subject: usize) -> Option<PeerState> {
        self.views[observer].get(&subject).copied()
    }

    /// Drops `node` from every view and schedule — called once the
    /// membership layer has confirmed it dead so the detector stops
    /// wasting probes on a corpse.
    pub fn remove(&mut self, node: usize) {
        for o in 0..self.n {
            self.views[o].remove(&node);
            self.order[o].retain(|&p| p != node);
            if !self.order[o].is_empty() {
                self.probe_ptr[o] %= self.order[o].len();
            }
        }
        self.views[node].clear();
        self.order[node].clear();
    }

    /// Re-adds a rejoined `node` (fresh incarnation): alive in every
    /// view, probing and probed again. The rejoiner goes to the *end*
    /// of each observer's cycle — deterministic, no reshuffle.
    pub fn rejoin(&mut self, node: usize, members: &[usize]) {
        for &o in members {
            if o == node {
                continue;
            }
            self.views[o].insert(node, PeerState::Alive);
            if !self.order[o].contains(&node) {
                self.order[o].push(node);
            }
        }
        self.views[node] = members
            .iter()
            .filter(|&&p| p != node)
            .map(|&p| (p, PeerState::Alive))
            .collect();
        self.order[node] = members.iter().filter(|&&p| p != node).copied().collect();
        self.probe_ptr[node] = 0;
    }

    /// Whether a message from `from` to `to` gets through and answered
    /// at `now`: the link must deliver and the target must be powered.
    fn reaches(
        mesh: &mut LinkMesh,
        bytes: u64,
        from: usize,
        to: usize,
        powered: &[bool],
        now: Nanos,
    ) -> bool {
        if !powered[to] {
            // The probe still burns wire time even into a dead node.
            let _ = mesh.link(from, to).send_once(bytes, now);
            return false;
        }
        matches!(
            mesh.link(from, to).send_once(bytes, now),
            SendResult::Delivered { .. }
        )
    }

    /// Runs every probe due by `now` and ages suspicions. `powered[i]`
    /// says whether node `i` can answer (and probe); `members` are the
    /// nodes still in the cluster. Returns the transitions, in
    /// deterministic (observer, subject) order per tick.
    pub fn tick(
        &mut self,
        now: Nanos,
        mesh: &mut LinkMesh,
        powered: &[bool],
        members: &[usize],
    ) -> Vec<SwimEvent> {
        let mut events = Vec::new();
        for &o in members {
            if !powered[o] {
                continue;
            }
            while self.next_probe[o] <= now {
                let at = self.next_probe[o];
                self.next_probe[o] += PROBE_INTERVAL;
                if self.order[o].is_empty() {
                    continue;
                }
                let t = self.order[o][self.probe_ptr[o] % self.order[o].len()];
                self.probe_ptr[o] = (self.probe_ptr[o] + 1) % self.order[o].len();
                self.probe(o, t, at, mesh, powered, members, &mut events);
            }
        }
        // Age suspicions into confirmed deaths.
        for &o in members {
            if !powered[o] {
                continue;
            }
            let subjects: Vec<usize> = self.views[o].keys().copied().collect();
            for s in subjects {
                if let Some(PeerState::Suspect { since }) = self.views[o].get(&s).copied() {
                    if now.saturating_sub(since) >= self.cfg.suspicion_timeout {
                        self.views[o].remove(&s);
                        self.stats.confirms += 1;
                        events.push(SwimEvent::Confirmed {
                            observer: o,
                            subject: s,
                            at: now,
                        });
                    }
                }
            }
        }
        events
    }

    /// One probe round from `o` to `t`: direct, then indirect relays.
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &mut self,
        o: usize,
        t: usize,
        at: Nanos,
        mesh: &mut LinkMesh,
        powered: &[bool],
        members: &[usize],
        events: &mut Vec<SwimEvent>,
    ) {
        self.stats.probes += 1;
        let bytes = PROBE_BYTES;
        let mut answered = Self::reaches(mesh, bytes, o, t, powered, at);
        if !answered {
            self.stats.probe_losses += 1;
            // Ping-req through the next relays in this observer's own
            // probe order — deterministic and already shuffled.
            let relays: Vec<usize> = self.order[o]
                .iter()
                .copied()
                .filter(|&r| r != t && powered[r] && members.contains(&r))
                .take(INDIRECT_PROBES)
                .collect();
            for r in relays {
                self.stats.indirect_probes += 1;
                if Self::reaches(mesh, bytes, o, r, powered, at)
                    && Self::reaches(mesh, bytes, r, t, powered, at)
                {
                    answered = true;
                    break;
                }
            }
        }
        match (answered, self.views[o].get(&t).copied()) {
            (true, Some(PeerState::Suspect { .. })) => {
                self.views[o].insert(t, PeerState::Alive);
                self.stats.refutations += 1;
                events.push(SwimEvent::Refuted {
                    observer: o,
                    subject: t,
                    at,
                });
            }
            (true, _) => {
                self.views[o].insert(t, PeerState::Alive);
            }
            (false, Some(PeerState::Alive)) | (false, None) => {
                self.views[o].insert(t, PeerState::Suspect { since: at });
                self.stats.suspicions += 1;
                events.push(SwimEvent::Suspected {
                    observer: o,
                    subject: t,
                    at,
                });
            }
            (false, Some(PeerState::Suspect { .. })) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use purity_repl::LinkConfig;

    fn mesh(n: usize) -> LinkMesh {
        LinkMesh::new(n, LinkConfig::reliable(1 << 30), 5)
    }

    fn members(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn healthy_cluster_never_suspects() {
        let n = 4;
        let mut det = SwimDetector::new(n, SwimConfig::default());
        let mut m = mesh(n);
        let powered = vec![true; n];
        for step in 0..50u64 {
            let ev = det.tick(step * 100 * MS, &mut m, &powered, &members(n));
            assert!(ev.is_empty(), "unexpected events {ev:?}");
        }
        assert!(det.stats().probes > 0);
        assert_eq!(det.stats().suspicions, 0);
    }

    #[test]
    fn dead_node_is_suspected_then_confirmed() {
        let n = 3;
        let cfg = SwimConfig::default();
        let mut det = SwimDetector::new(n, cfg);
        let mut m = mesh(n);
        let mut powered = vec![true; n];
        powered[2] = false;
        let mut confirmed_at = None;
        for step in 0..100u64 {
            let now = step * 100 * MS;
            for ev in det.tick(now, &mut m, &powered, &members(n)) {
                if let SwimEvent::Confirmed { subject, at, .. } = ev {
                    assert_eq!(subject, 2);
                    confirmed_at.get_or_insert(at);
                }
            }
        }
        let at = confirmed_at.expect("dead node never confirmed");
        // Bounded detection: a probe reaches it within (n-1) intervals,
        // then the suspicion must age out.
        assert!(
            at <= (n as u64) * PROBE_INTERVAL + cfg.suspicion_timeout + SEC,
            "detection too slow: {at}"
        );
        assert_eq!(det.stats().refutations, 0);
    }

    #[test]
    fn partition_heals_into_refutation() {
        let n = 3;
        let cfg = SwimConfig {
            suspicion_timeout: 10 * SEC,
            ..SwimConfig::default()
        };
        let mut det = SwimDetector::new(n, cfg);
        let mut m = mesh(n);
        let powered = vec![true; n];
        m.set_node_partitioned(0, true);
        let mut suspected = false;
        for step in 0..20u64 {
            let ev = det.tick(step * 100 * MS, &mut m, &powered, &members(n));
            suspected |= ev
                .iter()
                .any(|e| matches!(e, SwimEvent::Suspected { subject: 0, .. }));
        }
        assert!(suspected, "partitioned node must be suspected");
        m.set_node_partitioned(0, false);
        let mut refuted = false;
        for step in 20..60u64 {
            let ev = det.tick(step * 100 * MS, &mut m, &powered, &members(n));
            refuted |= ev
                .iter()
                .any(|e| matches!(e, SwimEvent::Refuted { subject: 0, .. }));
            assert!(
                !ev.iter()
                    .any(|e| matches!(e, SwimEvent::Confirmed { subject: 0, .. })),
                "healed partition must not reach confirmation"
            );
        }
        assert!(refuted, "healed node must be refuted back to alive");
    }

    #[test]
    fn detection_is_deterministic() {
        let run = || {
            let n = 5;
            let mut det = SwimDetector::new(n, SwimConfig::default());
            let mut m = LinkMesh::new(n, LinkConfig::flaky(1 << 30, 0, 500 * MS, 50 * MS), 77);
            let mut powered = vec![true; n];
            let mut log = Vec::new();
            for step in 0..120u64 {
                let now = step * 50 * MS;
                if step == 30 {
                    powered[3] = false;
                }
                log.extend(det.tick(now, &mut m, &powered, &members(n)));
            }
            log
        };
        let a = run();
        assert_eq!(a, run(), "same seed must give the same event log");
        assert!(
            a.iter()
                .any(|e| matches!(e, SwimEvent::Confirmed { subject: 3, .. })),
            "killed node must be confirmed"
        );
    }
}
