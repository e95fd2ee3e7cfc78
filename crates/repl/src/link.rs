//! The simulated WAN link: latency + bandwidth + seed-deterministic
//! loss/partition "flap" windows.
//!
//! A message put on the wire serializes through a bandwidth
//! [`Timeline`] (replication contends with itself, never with the
//! source array's data path), then propagates one `latency` each way
//! for the ack. The link is *down* during flap windows — alternating
//! up/down intervals generated lazily from a seeded RNG, so the flap
//! schedule is a pure function of the seed and never depends on
//! traffic. A message whose time on the wire overlaps a flap is lost;
//! the sender times out and retries with exponential backoff.

use purity_sim::{Nanos, Timeline, MS, SEC, US};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How long after serialization completes a sender waits for an ack
/// before declaring the message lost.
const ACK_TIMEOUT: Nanos = 20 * MS;

/// First retry backoff; doubles per attempt (capped at 2^10).
const BACKOFF_BASE: Nanos = 2 * MS;

/// Everything that shapes a link's behaviour.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Serialization rate of the wire.
    pub bandwidth_bytes_per_sec: u64,
    /// One-way propagation delay. Even a 1-sector ship costs a full
    /// round trip — transfers never complete in pure bandwidth time.
    pub latency: Nanos,
    /// Seed for the flap schedule (independent of any array seed).
    pub flap_seed: u64,
    /// Mean up-time between flaps; `0` means the link never flaps.
    pub mean_up: Nanos,
    /// Mean flap duration.
    pub mean_down: Nanos,
    /// Send attempts per message before the transfer stalls and hands
    /// control back to the caller (which persists its cursor).
    pub max_attempts: u32,
}

impl LinkConfig {
    /// A metro/WAN link that never flaps: 500 µs one-way latency on top
    /// of the given bandwidth.
    pub fn reliable(bandwidth_bytes_per_sec: u64) -> Self {
        assert!(bandwidth_bytes_per_sec > 0);
        Self {
            bandwidth_bytes_per_sec,
            latency: 500 * US,
            flap_seed: 0,
            mean_up: 0,
            mean_down: 0,
            max_attempts: 6,
        }
    }

    /// A link that drops into seed-deterministic flap windows averaging
    /// `mean_down` long every `mean_up` of up-time.
    pub fn flaky(
        bandwidth_bytes_per_sec: u64,
        flap_seed: u64,
        mean_up: Nanos,
        mean_down: Nanos,
    ) -> Self {
        assert!(mean_up > 0 && mean_down > 0);
        Self {
            flap_seed,
            mean_up,
            mean_down,
            ..Self::reliable(bandwidth_bytes_per_sec)
        }
    }
}

/// Outcome of a single send attempt.
#[derive(Debug, Clone, Copy)]
pub enum SendResult {
    /// Ack observed by the sender at `acked_at`.
    Delivered { acked_at: Nanos },
    /// Lost to a flap or partition; the sender's timeout fires at
    /// `timeout_at`.
    Lost { timeout_at: Nanos },
}

/// Outcome of a retried message.
#[derive(Debug, Clone, Copy)]
pub enum WireOutcome {
    /// Delivered; `attempts` includes the successful one.
    Delivered { acked_at: Nanos, attempts: u32 },
    /// Retry budget exhausted; the sender gave up at `at`.
    Stalled { at: Nanos, attempts: u32 },
}

/// Cumulative wire counters for one link.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Every byte serialized onto the wire, retransmissions included.
    pub bytes_on_wire: u64,
    /// Messages sent (attempts, not logical messages).
    pub sends: u64,
    /// Attempts lost to flap windows.
    pub losses: u64,
    /// Retries issued after a loss (a loss at the retry budget becomes
    /// a stall instead).
    pub retransmits: u64,
}

/// A replication network link between two arrays.
pub struct ReplicaLink {
    cfg: LinkConfig,
    timeline: Timeline,
    rng: StdRng,
    /// Flap windows generated so far, ascending and non-overlapping.
    windows: Vec<(Nanos, Nanos)>,
    /// Virtual time up to which `windows` is complete.
    horizon: Nanos,
    /// Administrative partition: while set, every send is lost. Unlike
    /// flap windows this is driver-controlled state, not part of the
    /// seeded schedule — torture campaigns toggle it at fixed virtual
    /// times, which keeps runs deterministic because the single-threaded
    /// driver orders every toggle against every send.
    partitioned: bool,
    stats: LinkStats,
}

impl ReplicaLink {
    /// A reliable link of the given bandwidth (see
    /// [`LinkConfig::reliable`] for the latency default).
    pub fn new(bandwidth_bytes_per_sec: u64) -> Self {
        Self::with_config(LinkConfig::reliable(bandwidth_bytes_per_sec))
    }

    /// A link with full control over latency, flaps and retry policy.
    pub fn with_config(cfg: LinkConfig) -> Self {
        assert!(cfg.bandwidth_bytes_per_sec > 0);
        Self {
            cfg,
            timeline: Timeline::new(),
            rng: StdRng::seed_from_u64(cfg.flap_seed ^ 0x57AB_1E5E_ED00_F1A9),
            windows: Vec::new(),
            horizon: 0,
            partitioned: false,
            stats: LinkStats::default(),
        }
    }

    /// Sets or clears the administrative partition. While partitioned
    /// every send attempt is lost (the bytes still burn wire bandwidth,
    /// exactly like a flap loss).
    pub fn set_partitioned(&mut self, partitioned: bool) {
        self.partitioned = partitioned;
    }

    /// Whether the link is administratively partitioned.
    pub fn partitioned(&self) -> bool {
        self.partitioned
    }

    /// The link's configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Cumulative wire counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Total bytes ever put on the wire (retransmissions included).
    pub fn bytes_shipped(&self) -> u64 {
        self.stats.bytes_on_wire
    }

    /// Uniform in [mean/2, 3*mean/2] — jittered but never zero-mean.
    fn jittered(rng: &mut StdRng, mean: Nanos) -> Nanos {
        mean / 2 + rng.gen_range(0..=mean)
    }

    /// Extends the flap schedule to cover `until`. Windows are generated
    /// strictly in order, so the schedule is identical no matter how the
    /// link is queried.
    fn ensure_windows(&mut self, until: Nanos) {
        if self.cfg.mean_up == 0 {
            return;
        }
        while self.horizon <= until {
            let up = Self::jittered(&mut self.rng, self.cfg.mean_up);
            let down = Self::jittered(&mut self.rng, self.cfg.mean_down).max(1);
            let start = self.horizon + up;
            self.windows.push((start, start + down));
            self.horizon = start + down;
        }
    }

    /// Whether a flap overlaps `[from, to)`.
    fn flap_overlaps(&mut self, from: Nanos, to: Nanos) -> bool {
        self.ensure_windows(to);
        self.windows.iter().any(|&(s, e)| s < to && e > from)
    }

    /// Whether the link is inside a flap window (or administratively
    /// partitioned) at `t`.
    pub fn is_down(&mut self, t: Nanos) -> bool {
        self.partitioned || self.flap_overlaps(t, t + 1)
    }

    /// One send attempt: serialize, propagate, ack. The bytes occupy
    /// the wire even when lost — a flap does not refund bandwidth.
    /// Public so single-shot protocols (SWIM probes) can pay exactly
    /// one attempt and treat a loss as a missed ack instead of
    /// retrying inline.
    pub fn send_once(&mut self, bytes: u64, now: Nanos) -> SendResult {
        let duration =
            (bytes as u128 * SEC as u128 / self.cfg.bandwidth_bytes_per_sec as u128) as Nanos;
        let r = self.timeline.reserve(now, duration);
        self.stats.bytes_on_wire += bytes;
        self.stats.sends += 1;
        let acked_at = r.end + 2 * self.cfg.latency;
        if self.partitioned || self.flap_overlaps(r.start, acked_at) {
            self.stats.losses += 1;
            SendResult::Lost {
                timeout_at: r.end + ACK_TIMEOUT,
            }
        } else {
            SendResult::Delivered { acked_at }
        }
    }

    /// Sends one message with timeout/retry and exponential backoff.
    pub fn send_with_retry(&mut self, bytes: u64, mut now: Nanos) -> WireOutcome {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match self.send_once(bytes, now) {
                SendResult::Delivered { acked_at } => {
                    return WireOutcome::Delivered { acked_at, attempts }
                }
                SendResult::Lost { timeout_at } => {
                    if attempts >= self.cfg.max_attempts {
                        return WireOutcome::Stalled {
                            at: timeout_at,
                            attempts,
                        };
                    }
                    self.stats.retransmits += 1;
                    let backoff = BACKOFF_BASE << (attempts - 1).min(10);
                    now = timeout_at + backoff;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_link_pays_latency_and_bandwidth() {
        let mut link = ReplicaLink::new(1_000_000); // 1 MB/s, 500 µs one-way
        match link.send_with_retry(1_000_000, 0) {
            WireOutcome::Delivered { acked_at, attempts } => {
                assert_eq!(attempts, 1);
                // 1 s serialization + 1 ms RTT.
                assert_eq!(acked_at, SEC + MS);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Even a 1-byte message costs a full round trip.
        match link.send_with_retry(1, SEC + MS) {
            WireOutcome::Delivered { acked_at, .. } => {
                assert!(acked_at >= SEC + 2 * MS, "latency term missing: {acked_at}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn flap_schedule_is_seed_deterministic_and_traffic_independent() {
        let probe = |queries: &[Nanos]| {
            let mut link = ReplicaLink::with_config(LinkConfig::flaky(1 << 30, 7, 10 * MS, 2 * MS));
            queries.iter().map(|&t| link.is_down(t)).collect::<Vec<_>>()
        };
        // Same seed, different query granularity: identical schedule.
        let coarse: Vec<Nanos> = (0..50).map(|i| i * 2 * MS).collect();
        let a = probe(&coarse);
        let mut link = ReplicaLink::with_config(LinkConfig::flaky(1 << 30, 7, 10 * MS, 2 * MS));
        for t in (0..1000).map(|i| i * 100 * US) {
            link.is_down(t); // dense interleaved queries
        }
        let b: Vec<bool> = coarse.iter().map(|&t| link.is_down(t)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&d| d), "flaps must actually occur");
        assert!(a.iter().any(|&d| !d), "link must come back up");
    }

    #[test]
    fn admin_partition_loses_sends_until_healed() {
        let mut link = ReplicaLink::new(1 << 30);
        link.set_partitioned(true);
        assert!(link.is_down(0));
        match link.send_once(4096, 0) {
            SendResult::Lost { .. } => {}
            other => panic!("partitioned send must be lost, got {other:?}"),
        }
        link.set_partitioned(false);
        assert!(!link.is_down(SEC));
        match link.send_once(4096, SEC) {
            SendResult::Delivered { .. } => {}
            other => panic!("healed send must deliver, got {other:?}"),
        }
        assert_eq!(link.stats().losses, 1);
    }

    #[test]
    fn persistent_flap_stalls_after_retry_budget() {
        // A link that is down essentially forever once it flaps.
        let mut cfg = LinkConfig::flaky(1 << 30, 3, 2 * MS, 60 * SEC);
        cfg.max_attempts = 3;
        let mut link = ReplicaLink::with_config(cfg);
        // Find a down instant, then try to send through it.
        let mut t = 0;
        while !link.is_down(t) {
            t += MS;
        }
        match link.send_with_retry(4096, t) {
            WireOutcome::Stalled { attempts, .. } => assert_eq!(attempts, 3),
            other => panic!("expected stall, got {other:?}"),
        }
        assert_eq!(link.stats().retransmits, 2);
    }
}
