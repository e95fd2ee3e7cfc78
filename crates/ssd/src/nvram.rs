//! The shelf "NVRAM" device (§4.1).
//!
//! When Purity launched, NVRAM parts were not widely available, so the
//! shelves carry an extremely high-performance SLC flash device with
//! bounded latency and a large P/E budget; the paper calls it NVRAM
//! because that is how it behaves. We model it as an append-only record
//! log with SLC timing: commits append; the segio writer trims records
//! once their facts are durable in segments (Figure 4).
//!
//! An append is two steps. [`Nvram::log`] makes a record durable and
//! gives it its index; [`Nvram::program`] books the SLC time of a
//! *commit group* — the records one operation logged — one share per
//! channel, round-robin. [`Nvram::append`] is a group of one.
//!
//! Each channel keeps one open group, so shares of different operations
//! program together. A share of `b` bytes issued at `now`, `x =
//! xfer(b)`, takes the first rule that matches:
//! - **join**: the open group programs from `S` and its data is loaded
//!   by `L`; if `now < S` and `max(L, now) + x <= S`, the share loads
//!   behind it and acks when it ends, `S + program_ns`;
//! - **idle**: the channel is free at `now`: load, then program, done at
//!   `now + x + program_ns` (the uncontended cost);
//! - **busy**: the share loads while the channel finishes its current
//!   program (NAND cache program), then programs from `max(free, now +
//!   x)`. That program becomes the channel's open group.
//!
//! A joiner never moves its group's end, so an acknowledgement, once
//! returned, never moves; and no share acks later than it would as a
//! program of its own queued behind the one before.

use crate::latency::LatencyModel;
use purity_sim::{Nanos, Timeline};

/// NVRAM errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvramError {
    /// The log is out of space (commits must stall until a trim).
    Full,
    /// The device has failed.
    Failed,
}

impl std::fmt::Display for NvramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NvramError::Full => write!(f, "nvram log full"),
            NvramError::Failed => write!(f, "nvram device failed"),
        }
    }
}

impl std::error::Error for NvramError {}

/// A record durably stored in NVRAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NvramRecord {
    /// Monotonic index assigned at append time.
    pub index: u64,
    /// Record payload.
    pub payload: Vec<u8>,
}

/// One NVRAM part: its SLC bookings, and the last program it granted
/// (the open group while that program has not started).
#[derive(Default)]
struct Channel {
    timeline: Timeline,
    group: Group,
}

/// A granted program: it runs from `start` to `end`, and the link has
/// loaded the group's records by `loaded`.
#[derive(Debug, Clone, Copy, Default)]
struct Group {
    start: Nanos,
    loaded: Nanos,
    end: Nanos,
}

/// The append-only SLC log device.
///
/// Real shelves carry several NVRAM parts; `channels` models their
/// parallelism (records round-robin across channels; each channel
/// serializes its own programs).
pub struct Nvram {
    latency: LatencyModel,
    channels: Vec<Channel>,
    next_channel: usize,
    capacity_bytes: usize,
    used_bytes: usize,
    next_index: u64,
    records: Vec<NvramRecord>,
    failed: bool,
    appends: u64,
    /// Torn-tail injections performed (power-loss simulation).
    torn_tails: u64,
}

impl Nvram {
    /// Creates an NVRAM log with the given capacity, using SLC timing
    /// and 8 channels (a shelf's worth of SLC parts).
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_channels(capacity_bytes, 8)
    }

    /// Creates an NVRAM log with an explicit channel count.
    pub fn with_channels(capacity_bytes: usize, channels: usize) -> Self {
        assert!(channels >= 1);
        Self {
            latency: LatencyModel::slc_nvram(),
            channels: (0..channels).map(|_| Channel::default()).collect(),
            next_channel: 0,
            capacity_bytes,
            used_bytes: 0,
            next_index: 0,
            records: Vec::new(),
            failed: false,
            appends: 0,
            torn_tails: 0,
        }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently held (not yet trimmed).
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Total appends over the device lifetime.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Whether a record of `len` bytes fits in the free space.
    pub fn fits(&self, len: usize) -> bool {
        self.used_bytes + len <= self.capacity_bytes
    }

    /// Durably logs a record and returns its index. Its SLC time is
    /// booked separately, by the [`Nvram::program`] of its commit group.
    pub fn log(&mut self, payload: Vec<u8>) -> Result<u64, NvramError> {
        if self.failed {
            return Err(NvramError::Failed);
        }
        if !self.fits(payload.len()) {
            return Err(NvramError::Full);
        }
        let index = self.next_index;
        self.next_index += 1;
        self.used_bytes += payload.len();
        self.records.push(NvramRecord { index, payload });
        self.appends += 1;
        Ok(index)
    }

    /// Books one commit group of records of `sizes` bytes issued at
    /// `now`: record `i` goes to channel `next + i` (round-robin), and
    /// each channel used commits its share by the module's rules.
    /// Returns when the last share acks (the group becomes
    /// acknowledgeable then); `now` for an empty group.
    pub fn program(&mut self, sizes: &[usize], now: Nanos) -> Nanos {
        let n = self.channels.len();
        let mut end = now;
        for k in 0..sizes.len().min(n) {
            let bytes: usize = sizes[k..].iter().step_by(n).sum();
            let channel = (self.next_channel + k) % n;
            end = end.max(self.commit_share(channel, bytes, now));
        }
        self.next_channel = (self.next_channel + sizes.len()) % n;
        end
    }

    /// Commits one channel's share of a group, `bytes` issued at `now`,
    /// by the join / idle / busy rules; returns when the share acks.
    fn commit_share(&mut self, channel: usize, bytes: usize, now: Nanos) -> Nanos {
        let (x, program_ns) = (self.latency.xfer(bytes), self.latency.program_ns);
        let Channel { timeline, group } = &mut self.channels[channel];
        let loaded = group.loaded.max(now) + x;
        if now < group.start && loaded <= group.start {
            group.loaded = loaded;
            return group.end;
        }
        let free = timeline.free_at();
        let start = if free <= now {
            timeline.reserve(now, x + program_ns).end - program_ns
        } else {
            // Booked at the issue time: the program running now stays on
            // the timeline for whoever is issued before it ends.
            let start = free.max(now + x);
            timeline.reserve_from(now, start, program_ns).start
        };
        *group = Group {
            start,
            loaded: now + x,
            end: start + program_ns,
        };
        group.end
    }

    /// Durably appends one record as a commit group of its own. Returns
    /// its index and the completion timestamp (the commit becomes
    /// acknowledgeable at that time).
    pub fn append(&mut self, payload: Vec<u8>, now: Nanos) -> Result<(u64, Nanos), NvramError> {
        let len = payload.len();
        let index = self.log(payload)?;
        Ok((index, self.program(&[len], now)))
    }

    /// Books a scan of all live records (recovery path) and returns when
    /// it completes; the records it reads are [`Nvram::records`].
    pub fn scan(&self, now: Nanos) -> Result<Nanos, NvramError> {
        if self.failed {
            return Err(NvramError::Failed);
        }
        // Scans stream from all channels in parallel.
        let per_channel = self.used_bytes.div_ceil(self.channels.len()).max(1);
        let service = self.latency.page_read(per_channel);
        let end = self
            .channels
            .iter()
            .map(|c| c.timeline.reserve(now, service).end)
            .max()
            .unwrap_or(now);
        Ok(end)
    }

    /// The live records, oldest first.
    pub fn records(&self) -> &[NvramRecord] {
        &self.records
    }

    /// Releases every record with `index <= through`, freeing space.
    /// Called once the segio writer has made those facts durable in
    /// segments (Figure 4's "trims the DRAM and NVRAM").
    pub fn trim_through(&mut self, through: u64) {
        let mut freed = 0;
        self.records.retain(|r| {
            if r.index <= through {
                freed += r.payload.len();
                false
            } else {
                true
            }
        });
        self.used_bytes -= freed;
    }

    /// Power-loss hook: tears the most recent append at a byte offset,
    /// as if power died while the record's tail was still in the part's
    /// program buffer. The first `keep_bytes` of the last record survive;
    /// the rest never reached the medium. Durable state (all earlier
    /// records) is frozen untouched; there is no volatile state to
    /// discard — a record is durable once logged, by construction.
    ///
    /// Returns `true` if a record was actually torn (`keep_bytes` was
    /// shorter than the record).
    pub fn tear_last_append(&mut self, keep_bytes: usize) -> bool {
        let Some(last) = self.records.last_mut() else {
            return false;
        };
        if keep_bytes >= last.payload.len() {
            return false;
        }
        let shed = last.payload.len() - keep_bytes;
        last.payload.truncate(keep_bytes);
        self.used_bytes -= shed;
        self.torn_tails += 1;
        true
    }

    /// Torn-tail injections performed so far.
    pub fn torn_tails(&self) -> u64 {
        self.torn_tails
    }

    /// Fails the device.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Restores the device (contents intact — it is non-volatile).
    pub fn revive(&mut self) {
        self.failed = false;
    }

    /// Whether the device is failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_monotonic_indexes() {
        let mut nv = Nvram::new(1024);
        let (i0, t0) = nv.append(b"alpha".to_vec(), 0).unwrap();
        let (i1, t1) = nv.append(b"beta".to_vec(), 0).unwrap();
        assert_eq!((i0, i1), (0, 1));
        // Different channels: both complete at the single-program time.
        assert_eq!(t1, t0, "parallel channels absorb concurrent appends");
        // A single-channel device serializes.
        let mut nv1 = Nvram::with_channels(1024, 1);
        let (_, a) = nv1.append(b"x".to_vec(), 0).unwrap();
        let (_, b) = nv1.append(b"y".to_vec(), 0).unwrap();
        assert!(b > a, "single channel serializes");
    }

    #[test]
    fn scan_returns_live_records_in_order() {
        let mut nv = Nvram::new(1024);
        for i in 0..5u8 {
            nv.append(vec![i], 0).unwrap();
        }
        let records = nv.records();
        assert_eq!(records.len(), 5);
        assert!(records.windows(2).all(|w| w[0].index < w[1].index));
    }

    /// A device with three earlier appends of different sizes booked, so
    /// a group starts mid-rotation against busy channels.
    fn warmed() -> Nvram {
        let mut nv = Nvram::new(1 << 20);
        for len in [300, 2000, 700] {
            nv.append(vec![1; len], 0).unwrap();
        }
        nv
    }

    #[test]
    fn a_group_of_up_to_one_record_a_channel_books_what_single_appends_do() {
        for n in 1..=8usize {
            let sizes: Vec<usize> = (1..=n).map(|i| 500 * i).collect();
            let (mut grouped, mut single) = (warmed(), warmed());
            for &len in &sizes {
                grouped.log(vec![2; len]).unwrap();
            }
            let group_end = grouped.program(&sizes, 10);
            let single_end = (sizes.iter())
                .map(|&len| single.append(vec![2; len], 10).unwrap().1)
                .max()
                .unwrap();
            assert_eq!(group_end, single_end, "{n} records");
            // Same channels, same bookings: every later append agrees.
            for len in [100, 4000, 900, 50, 3000, 10, 600, 2500, 1] {
                let g = grouped.append(vec![3; len], 20).unwrap();
                let s = single.append(vec![3; len], 20).unwrap();
                assert_eq!(g, s, "{n} records, then a {len} B append");
            }
        }
    }

    #[test]
    fn sixteen_records_on_eight_channels_cost_one_program_of_two() {
        let slc = LatencyModel::slc_nvram();
        let mut nv = Nvram::new(1 << 20);
        let sizes = [4096usize; 16];
        for len in sizes {
            nv.log(vec![0; len]).unwrap();
        }
        let end = nv.program(&sizes, 0);
        assert_eq!(end, slc.page_program(2 * 4096));
        assert!(end < 2 * slc.page_program(4096), "not two in series");
        // The rotation moved on by the whole group. Channel 0 is next; its
        // record loads while the group programs, then programs alone.
        let (_, t) = nv.append(vec![0; 4096], 0).unwrap();
        assert_eq!(t, end + slc.program_ns, "channel 0 is next");
        assert_eq!(t, 207_600);
    }

    #[test]
    fn a_same_instant_burst_costs_two_programs_a_channel() {
        let slc = LatencyModel::slc_nvram();
        let mut nv = Nvram::new(1 << 20);
        // Twenty 4 KiB writes a channel, all issued at once: each
        // channel's first programs alone, the other nineteen load behind
        // it and program as one group.
        let acks: Vec<Nanos> = (0..160)
            .map(|_| nv.append(vec![0; 4096], 0).unwrap().1)
            .collect();
        let first = slc.page_program(4096);
        assert!(acks[..8].iter().all(|&t| t == first));
        assert!(acks[8..].iter().all(|&t| t == first + slc.program_ns));
        assert_eq!(acks[159], 203_800, "not 20 programs in series");
        // A group holds what the link loads while the program before it
        // runs: 27 records of 4 KiB. The 28th on a channel opens the
        // group after.
        let mut nv1 = Nvram::with_channels(1 << 20, 1);
        let acks: Vec<Nanos> = (0..29)
            .map(|_| nv1.append(vec![0; 4096], 0).unwrap().1)
            .collect();
        assert!(acks[1..=27].iter().all(|&t| t == first + slc.program_ns));
        assert_eq!(acks[28], first + 2 * slc.program_ns);
    }

    #[test]
    fn a_group_logs_consecutive_indexes_that_scan_in_order() {
        let mut nv = warmed();
        let indexes: Vec<u64> = (0..16u8).map(|i| nv.log(vec![i; 64]).unwrap()).collect();
        assert_eq!(indexes, (3..19).collect::<Vec<u64>>());
        nv.program(&[64; 16], 0);
        let records = nv.records();
        let tail: Vec<(u64, u8)> = records[3..]
            .iter()
            .map(|r| (r.index, r.payload[0]))
            .collect();
        assert_eq!(
            tail,
            (0..16u8).map(|i| (3 + i as u64, i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn trim_frees_space_and_hides_records() {
        let mut nv = Nvram::new(64);
        for _ in 0..4 {
            nv.append(vec![0u8; 16], 0).unwrap();
        }
        assert_eq!(nv.append(vec![0u8; 16], 0).unwrap_err(), NvramError::Full);
        nv.trim_through(1);
        assert_eq!(nv.used_bytes(), 32);
        nv.append(vec![0u8; 16], 0).unwrap();
        let records = nv.records();
        let indexes: Vec<u64> = records.iter().map(|r| r.index).collect();
        assert_eq!(indexes, vec![2, 3, 4]);
    }

    #[test]
    fn commit_latency_is_bounded_and_low() {
        let mut nv = Nvram::new(1024 * 1024);
        let (_, t) = nv.append(vec![0u8; 512], 0).unwrap();
        // SLC program + transfer: well under the MLC program time.
        assert!(
            t < LatencyModel::consumer_mlc().program_ns / 2,
            "commit {}",
            t
        );
    }

    #[test]
    fn torn_tail_truncates_only_the_last_record() {
        let mut nv = Nvram::new(1024);
        nv.append(b"stable-record".to_vec(), 0).unwrap();
        nv.append(b"torn-record".to_vec(), 0).unwrap();
        let before = nv.used_bytes();
        assert!(nv.tear_last_append(4));
        assert_eq!(nv.used_bytes(), before - (b"torn-record".len() - 4));
        let records = nv.records();
        assert_eq!(records[0].payload, b"stable-record");
        assert_eq!(records[1].payload, b"torn");
        assert_eq!(nv.torn_tails(), 1);
        // keep >= len is a no-op (the append fully reached the medium).
        assert!(!nv.tear_last_append(100));
        // An empty log has nothing to tear.
        let mut empty = Nvram::new(64);
        assert!(!empty.tear_last_append(0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The channels audited against the per-op model they replaced,
        /// in which each share is its own program queued behind the one
        /// before (`reserve(now, page_program(bytes))`), for any record
        /// sizes, channel count and non-decreasing issue times:
        /// - no two programs granted on one channel overlap, and nothing
        ///   issued later is granted time inside one;
        /// - no share acks later than the per-op model acks it;
        /// - every ack returned is its group's final end.
        #[test]
        fn grouped_channels_never_overlap_and_never_ack_later_than_one_program_per_op(
            channels in 1usize..9,
            ops in proptest::collection::vec(
                (0u64..150_000, proptest::collection::vec(1usize..40_000, 1..20)),
                1..80,
            ),
        ) {
            let slc = LatencyModel::slc_nvram();
            let mut nv = Nvram::with_channels(1 << 30, channels);
            let reference: Vec<Timeline> = (0..channels).map(|_| Timeline::new()).collect();
            // Per channel, every program granted, in grant order.
            let mut granted: Vec<Vec<Group>> = vec![Vec::new(); channels];
            // Per op: its ack and the (channel, program) of each share.
            let mut acks: Vec<(Nanos, Vec<(usize, usize)>)> = Vec::new();
            let mut now = 0;
            for (gap, sizes) in ops {
                now += gap;
                let first = nv.next_channel;
                for &len in &sizes {
                    nv.log(vec![0; len]).unwrap();
                }
                let ack = nv.program(&sizes, now);
                let mut shares = Vec::new();
                for k in 0..sizes.len().min(channels) {
                    let c = (first + k) % channels;
                    let bytes: usize = sizes[k..].iter().step_by(channels).sum();
                    let group = nv.channels[c].group;
                    match granted[c].last_mut() {
                        Some(last) if last.start == group.start => *last = group,
                        _ => granted[c].push(group),
                    }
                    let own = reference[c].reserve(now, slc.page_program(bytes)).end;
                    proptest::prop_assert!(
                        group.end <= own,
                        "share acks {} > per-op {}",
                        group.end,
                        own
                    );
                    shares.push((c, granted[c].len() - 1));
                }
                acks.push((ack, shares));
                // Nothing issued now is granted time inside a program:
                // the timelines forget no program that is still running.
                for (c, programs) in granted.iter().enumerate() {
                    let probe = nv.channels[c].timeline.probe(now, 1).start;
                    let inside = programs.iter().find(|g| g.start <= probe && probe < g.end);
                    proptest::prop_assert!(
                        inside.is_none(),
                        "channel {} grants {} inside {:?}",
                        c,
                        probe,
                        inside
                    );
                }
            }
            for programs in &granted {
                for g in programs {
                    proptest::prop_assert_eq!(g.end - g.start, slc.program_ns);
                }
                for w in programs.windows(2) {
                    proptest::prop_assert!(w[0].end <= w[1].start, "{:?} overlaps {:?}", w[0], w[1]);
                }
            }
            for (ack, shares) in acks {
                let last = shares.iter().map(|&(c, g)| granted[c][g].end).max().unwrap();
                proptest::prop_assert_eq!(ack, last);
            }
        }
    }

    #[test]
    fn failure_blocks_io_but_preserves_content() {
        let mut nv = Nvram::new(1024);
        nv.append(b"persisted".to_vec(), 0).unwrap();
        nv.fail();
        assert_eq!(nv.append(b"x".to_vec(), 0).unwrap_err(), NvramError::Failed);
        assert_eq!(nv.scan(0).unwrap_err(), NvramError::Failed);
        nv.revive();
        nv.scan(0).unwrap();
        let records = nv.records();
        assert_eq!(records[0].payload, b"persisted");
    }
}
