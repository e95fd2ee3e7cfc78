//! Tail-latency blame: a fixed taxonomy of where an op's time went,
//! plus the critical-path extractor that folds an [`crate::OpTrace`]'s
//! span tree into it.
//!
//! Every completed op — not just the slow ones that land in the ring —
//! is folded into a [`BlameVec`]: twelve nanosecond buckets whose sum
//! is *exactly* the op's end-to-end latency (no gaps, no
//! double-charging; a proptest pins this). The folder is a sweep over
//! the elementary intervals between span boundaries: within each
//! interval the covering span that *ends last* wins — the span still
//! running when the others have finished is the one the op was truly
//! waiting on (the critical path of a parallel fan-out), and a
//! retry-leg span that outlives a dead leg's array spans absorbs them
//! rather than double-charging. Uncovered time inherits the
//! neighbouring winner, so instrumentation gaps can never silently
//! vanish from the accounting.
//!
//! Stage names are a closed registry ([`STAGE_REGISTRY`]): every layer
//! (host, cluster, core, ssd, repl) emits `snake_case` names audited in
//! OBSERVABILITY.md, and a debug assertion in [`crate::OpTrace::stage`]
//! rejects unregistered strings at the point of emission.

use crate::json::JsonWriter;
use purity_sim::Nanos;

/// The fixed blame taxonomy, in canonical (export) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum BlameCategory {
    /// Waiting in the host submission/dispatch queue (FIFO order, path
    /// down, QFULL backoff) — everything between arrival and dispatch.
    HostQueue,
    /// Held by a per-volume rate cap. No layer emits its stage (the host
    /// queue has no cap); the slot keeps every export's vector at 13.
    QosThrottle,
    /// A dispatch leg that never delivered its ack: timeout wait plus
    /// backoff until the next leg dispatched.
    MultipathRetry,
    /// Cluster placement went stale: the redirect + map-refresh round.
    ClusterRedirect,
    /// NVRAM mirror persistence (the write-ack bound, Figure 4).
    NvramCommit,
    /// Controller CPU: dedup/compress/segment-fill, decode, zero-fill,
    /// cache and pending-buffer hits — the reduction pipeline.
    ReductionCpu,
    /// Drive read service + queueing behind *reads* (no program/erase
    /// in the way).
    DriveQueue,
    /// Read stalled behind a host-origin program on its die (§4.4).
    DieStallProgram,
    /// Read stalled behind an erase on its die (§4.4).
    DieStallErase,
    /// Read stalled behind GC-origin work (relocation programs).
    GcInterference,
    /// Reed-Solomon reconstruction (read-around, failed drive, media
    /// error, or cluster replica fallback).
    Reconstruct,
    /// WAN / interconnect hops: non-optimized-port forwarding,
    /// replication shipping.
    Wan,
    /// Tiering engine: the cold-device read penalty (a QLC-class fetch
    /// on the read path) and migrator demotion/promotion work.
    TierCold,
}

/// Number of blame categories (the `BlameVec` arity).
pub const N_BLAME: usize = 13;

/// All categories in canonical order.
pub const BLAME_CATEGORIES: [BlameCategory; N_BLAME] = [
    BlameCategory::HostQueue,
    BlameCategory::QosThrottle,
    BlameCategory::MultipathRetry,
    BlameCategory::ClusterRedirect,
    BlameCategory::NvramCommit,
    BlameCategory::ReductionCpu,
    BlameCategory::DriveQueue,
    BlameCategory::DieStallProgram,
    BlameCategory::DieStallErase,
    BlameCategory::GcInterference,
    BlameCategory::Reconstruct,
    BlameCategory::Wan,
    BlameCategory::TierCold,
];

impl BlameCategory {
    /// The category's canonical `snake_case` name.
    pub fn as_str(self) -> &'static str {
        match self {
            BlameCategory::HostQueue => "host_queue",
            BlameCategory::QosThrottle => "qos_throttle",
            BlameCategory::MultipathRetry => "multipath_retry",
            BlameCategory::ClusterRedirect => "cluster_redirect",
            BlameCategory::NvramCommit => "nvram_commit",
            BlameCategory::ReductionCpu => "reduction_cpu",
            BlameCategory::DriveQueue => "drive_queue",
            BlameCategory::DieStallProgram => "die_stall_program",
            BlameCategory::DieStallErase => "die_stall_erase",
            BlameCategory::GcInterference => "gc_interference",
            BlameCategory::Reconstruct => "reconstruct",
            BlameCategory::Wan => "wan",
            BlameCategory::TierCold => "tier_cold",
        }
    }
}

/// Every stage name any layer may stamp into an [`crate::OpTrace`],
/// with the blame category its time folds into. OBSERVABILITY.md
/// documents the table; a test enumerates emitted stages against it.
pub const STAGE_REGISTRY: [(&str, BlameCategory); 20] = [
    // Host front end.
    ("host_queue", BlameCategory::HostQueue),
    ("qos_throttle", BlameCategory::QosThrottle),
    ("multipath_retry", BlameCategory::MultipathRetry),
    // Cluster plane.
    ("cluster_redirect", BlameCategory::ClusterRedirect),
    // Array controller.
    ("nvram_commit", BlameCategory::NvramCommit),
    ("dedup", BlameCategory::ReductionCpu),
    ("compress", BlameCategory::ReductionCpu),
    ("segment_fill", BlameCategory::ReductionCpu),
    ("cpu", BlameCategory::ReductionCpu),
    ("cache_hit", BlameCategory::ReductionCpu),
    ("pending_buffer", BlameCategory::ReductionCpu),
    ("zero_fill", BlameCategory::ReductionCpu),
    ("drive_read", BlameCategory::DriveQueue),
    ("reconstruct", BlameCategory::Reconstruct),
    // SSD die-stall split (prefix spans ahead of `drive_read`).
    ("die_stall_program", BlameCategory::DieStallProgram),
    ("die_stall_erase", BlameCategory::DieStallErase),
    ("gc_interference", BlameCategory::GcInterference),
    // Tiering engine (cold device class + migrator).
    ("cold_read", BlameCategory::TierCold),
    ("tier_demote", BlameCategory::TierCold),
    // WAN / interconnect.
    ("wan", BlameCategory::Wan),
];

/// Whether `stage` is a registered stage name.
pub fn is_registered_stage(stage: &str) -> bool {
    STAGE_REGISTRY.iter().any(|&(s, _)| s == stage)
}

/// The blame category a stage folds into. Unregistered names fold into
/// `ReductionCpu` (release builds degrade gracefully; debug builds
/// never emit one — see [`crate::OpTrace::stage`]).
pub fn stage_category(stage: &str) -> BlameCategory {
    STAGE_REGISTRY
        .iter()
        .find(|&&(s, _)| s == stage)
        .map(|&(_, c)| c)
        .unwrap_or(BlameCategory::ReductionCpu)
}

/// Nanoseconds of blame per category; sums to an op's (or cohort's)
/// end-to-end latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlameVec(pub [u64; N_BLAME]);

impl BlameVec {
    /// Adds `ns` to `cat`'s bucket.
    pub fn add(&mut self, cat: BlameCategory, ns: Nanos) {
        self.0[cat as usize] += ns;
    }

    /// The bucket for `cat`.
    pub fn get(&self, cat: BlameCategory) -> u64 {
        self.0[cat as usize]
    }

    /// Element-wise accumulate.
    pub fn merge(&mut self, other: &BlameVec) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    /// Total nanoseconds across all categories.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// `(category, ns)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (BlameCategory, u64)> + '_ {
        BLAME_CATEGORIES.iter().map(move |&c| (c, self.get(c)))
    }

    /// JSON object keyed by category name, *alphabetically* sorted so
    /// exports are stable and diffable.
    pub fn to_json(&self) -> String {
        let mut pairs: Vec<(&'static str, u64)> =
            self.iter().map(|(c, v)| (c.as_str(), v)).collect();
        pairs.sort_by_key(|&(name, _)| name);
        let mut w = JsonWriter::object();
        for (name, v) in pairs {
            w.u64_field(name, v);
        }
        w.finish()
    }
}

/// Folds one completed op's spans into per-category blame whose sum is
/// exactly `completed_at - issued_at`.
///
/// Spans are clamped to `[issued_at, completed_at]`. The window is
/// swept over the elementary intervals between span boundaries; each
/// interval is charged to the covering span that **ends last** (ties
/// broken by latest insertion), i.e. the span the op was still waiting
/// on. Intervals no span covers inherit the previous winner (an op is
/// always "in" whatever it last did); a leading gap before the first
/// span is charged to that first span. An op with no spans at all is
/// pure controller time (`ReductionCpu`).
pub fn fold_blame(
    issued_at: Nanos,
    completed_at: Nanos,
    stages: &[crate::trace::StageRecord],
) -> BlameVec {
    let mut v = BlameVec::default();
    let total = completed_at.saturating_sub(issued_at);
    if total == 0 {
        return v;
    }
    // Clamp to the op window; drop spans left empty by the clamp.
    let spans: Vec<(Nanos, Nanos, usize, BlameCategory)> = stages
        .iter()
        .enumerate()
        .filter_map(|(i, s)| {
            let start = s.start.clamp(issued_at, completed_at);
            let end = s.end.clamp(issued_at, completed_at);
            (end > start).then(|| (start, end, i, stage_category(s.stage)))
        })
        .collect();
    if spans.is_empty() {
        v.add(BlameCategory::ReductionCpu, total);
        return v;
    }
    let mut bounds: Vec<Nanos> = Vec::with_capacity(spans.len() * 2 + 2);
    bounds.push(issued_at);
    bounds.push(completed_at);
    for &(s, e, _, _) in &spans {
        bounds.push(s);
        bounds.push(e);
    }
    bounds.sort_unstable();
    bounds.dedup();
    let mut last: Option<BlameCategory> = None;
    let mut leading_gap: Nanos = 0;
    for w in bounds.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let winner = spans
            .iter()
            .filter(|&&(s, e, _, _)| s <= lo && e >= hi)
            .max_by_key(|&&(_, e, i, _)| (e, i))
            .map(|&(_, _, _, c)| c);
        match winner.or(last) {
            Some(c) => v.add(c, hi - lo),
            None => leading_gap += hi - lo,
        }
        if winner.is_some() {
            last = winner;
        }
    }
    if leading_gap > 0 {
        let first = spans
            .iter()
            .min_by_key(|&&(s, _, i, _)| (s, i))
            .expect("non-empty")
            .3;
        v.add(first, leading_gap);
    }
    debug_assert_eq!(v.total(), total, "blame must cover the op exactly");
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StageRecord;

    fn span(stage: &'static str, start: Nanos, end: Nanos) -> StageRecord {
        StageRecord {
            stage,
            start,
            end,
            note: None,
        }
    }

    #[test]
    fn registry_covers_every_category() {
        for cat in BLAME_CATEGORIES {
            assert!(
                STAGE_REGISTRY.iter().any(|&(_, c)| c == cat),
                "no stage folds into {:?}",
                cat
            );
        }
        assert!(is_registered_stage("drive_read"));
        assert!(!is_registered_stage("nvram"));
    }

    #[test]
    fn serial_spans_partition_the_latency() {
        let stages = [
            span("nvram_commit", 0, 40),
            span("cpu", 40, 50),
            span("wan", 50, 60),
        ];
        let v = fold_blame(0, 60, &stages);
        assert_eq!(v.get(BlameCategory::NvramCommit), 40);
        assert_eq!(v.get(BlameCategory::ReductionCpu), 10);
        assert_eq!(v.get(BlameCategory::Wan), 10);
        assert_eq!(v.total(), 60);
    }

    #[test]
    fn parallel_fanout_charges_the_longest_leg() {
        // Two drive reads in parallel; the op waits on the longer one.
        let stages = [span("drive_read", 0, 30), span("reconstruct", 0, 100)];
        let v = fold_blame(0, 100, &stages);
        assert_eq!(v.get(BlameCategory::Reconstruct), 100);
        assert_eq!(v.get(BlameCategory::DriveQueue), 0);
    }

    #[test]
    fn gaps_inherit_the_neighbouring_winner() {
        // Uninstrumented time after the drive read sticks to it; the
        // leading gap before the first span charges to that span.
        let stages = [span("drive_read", 20, 60)];
        let v = fold_blame(0, 100, &stages);
        assert_eq!(v.get(BlameCategory::DriveQueue), 100);
        let v = fold_blame(0, 100, &[]);
        assert_eq!(v.get(BlameCategory::ReductionCpu), 100);
    }

    #[test]
    fn spans_clamp_to_the_op_window() {
        let stages = [span("drive_read", 0, 1000)];
        let v = fold_blame(100, 300, &stages);
        assert_eq!(v.total(), 200);
        assert_eq!(v.get(BlameCategory::DriveQueue), 200);
    }

    #[test]
    fn retry_leg_overrides_dead_leg_spans() {
        // A dead leg's array spans [0,80] are absorbed by the retry
        // span [0,90] that outlives them, then the live leg runs.
        let stages = [
            span("drive_read", 0, 80),
            span("multipath_retry", 0, 90),
            span("drive_read", 90, 140),
        ];
        let v = fold_blame(0, 140, &stages);
        assert_eq!(v.get(BlameCategory::MultipathRetry), 90);
        assert_eq!(v.get(BlameCategory::DriveQueue), 50);
        assert_eq!(v.total(), 140);
    }

    #[test]
    fn json_keys_are_sorted() {
        let mut v = BlameVec::default();
        v.add(BlameCategory::Wan, 5);
        v.add(BlameCategory::ClusterRedirect, 7);
        let j = v.to_json();
        assert!(j.starts_with("{\"cluster_redirect\":7"), "{j}");
        assert!(j.contains("\"wan\":5"), "{j}");
    }

    proptest::proptest! {
        /// The folding invariant the whole tail_blame pipeline rests
        /// on: for ANY op window and ANY set of stage spans — nested,
        /// overlapping, out of order, reaching outside the window —
        /// the per-category blame durations sum to exactly the op's
        /// end-to-end latency.
        #[test]
        fn blame_always_sums_to_end_to_end_latency(
            issued in 0u64..1_000_000,
            total in 1u64..10_000_000,
            raw in proptest::collection::vec(
                (0u64..12_000_000, 0u64..12_000_000, 0usize..STAGE_REGISTRY.len()),
                0..12,
            ),
        ) {
            let completed = issued + total;
            let stages: Vec<StageRecord> = raw
                .iter()
                .map(|&(a, b, si)| StageRecord {
                    stage: STAGE_REGISTRY[si].0,
                    start: a.min(b),
                    end: a.max(b),
                    note: None,
                })
                .collect();
            let v = fold_blame(issued, completed, &stages);
            proptest::prop_assert_eq!(v.total(), total);
        }
    }
}
