//! Request-stream generators.
//!
//! Customer telemetry in the paper: I/O requests average ≈55 KiB, with
//! databases mixing page-sized data reads and larger log/prefetch
//! transfers (§4.6). The default [`SizeMix`] reproduces that mean from a
//! realistic multi-modal size distribution; offsets follow zipfian,
//! uniform or sequential patterns; read/write ratio is a parameter
//! (enterprise workloads are read-heavy, §5.1).

use crate::arrival::ArrivalProcess;
use crate::content::{ContentModel, SECTOR};
use purity_sim::{Nanos, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated request.
#[derive(Debug, Clone)]
pub enum Op {
    /// Read `len` bytes at `offset`.
    Read {
        /// Byte offset (sector aligned).
        offset: u64,
        /// Length in bytes (sector multiple).
        len: usize,
    },
    /// Write `data` at `offset`.
    Write {
        /// Byte offset (sector aligned).
        offset: u64,
        /// Payload.
        data: Vec<u8>,
    },
}

/// How offsets are chosen.
#[derive(Debug, Clone, Copy)]
pub enum AccessPattern {
    /// Uniformly random.
    Uniform,
    /// Zipfian (hot spots); theta 0.99 is the YCSB default.
    Zipfian(f64),
    /// Sequential from offset 0, wrapping.
    Sequential,
}

/// Request-size distribution.
#[derive(Debug, Clone)]
pub struct SizeMix {
    /// (size_bytes, weight) pairs.
    pub choices: Vec<(usize, u32)>,
}

impl SizeMix {
    /// The paper's telemetry mix: mean ≈ 55 KiB across 4 KiB pages,
    /// 8–32 KiB prefetch clusters, and 64–256 KiB log/scan transfers.
    pub fn enterprise() -> Self {
        Self {
            choices: vec![
                (4 * 1024, 25),
                (8 * 1024, 15),
                (16 * 1024, 15),
                (32 * 1024, 15),
                (64 * 1024, 14),
                (128 * 1024, 10),
                (256 * 1024, 6),
            ],
        }
    }

    /// Fixed-size requests (e.g. the paper's 32 KiB benchmark unit).
    pub fn fixed(bytes: usize) -> Self {
        Self {
            choices: vec![(bytes, 1)],
        }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total: u32 = self.choices.iter().map(|(_, w)| w).sum();
        let mut pick = rng.gen_range(0..total);
        for &(size, w) in &self.choices {
            if pick < w {
                return size;
            }
            pick -= w;
        }
        self.choices[0].0
    }

    /// Weighted mean size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        let total: u64 = self.choices.iter().map(|&(_, w)| w as u64).sum();
        let weighted: u64 = self.choices.iter().map(|&(s, w)| s as u64 * w as u64).sum();
        weighted as f64 / total as f64
    }
}

/// Cumulative offered load: what a generator has *issued* (as opposed
/// to what the array has completed). Bench harnesses publish these as
/// the `wkld_*` metrics so exported snapshots record the demand side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OfferedLoad {
    /// Total operations issued.
    pub ops: u64,
    /// Read operations issued.
    pub reads: u64,
    /// Write operations issued.
    pub writes: u64,
    /// Bytes requested by reads.
    pub bytes_read: u64,
    /// Bytes carried by writes.
    pub bytes_written: u64,
}

impl OfferedLoad {
    /// Sets the counters in the hub's side table under a workload label.
    pub fn publish(&self, registry: &purity_obs::MetricsRegistry, workload: &str) {
        let labels = [("workload", workload)];
        registry.set_counter("wkld_ops_issued", &labels, self.ops);
        registry.set_counter("wkld_reads_issued", &labels, self.reads);
        registry.set_counter("wkld_writes_issued", &labels, self.writes);
        registry.set_counter("wkld_bytes_read_issued", &labels, self.bytes_read);
        registry.set_counter("wkld_bytes_written_issued", &labels, self.bytes_written);
    }
}

/// A deterministic request generator over one volume.
pub struct WorkloadGen {
    rng: StdRng,
    seed: u64,
    volume_bytes: u64,
    pattern: AccessPattern,
    sizes: SizeMix,
    /// Percent of operations that are reads.
    read_pct: u8,
    content: ContentModel,
    zipf: Option<Zipf>,
    sequential_at: u64,
    /// Virtual inter-arrival time between requests (open-loop pacing).
    pub interarrival: Nanos,
    /// Arrival process used by [`WorkloadGen::next_interarrival`];
    /// defaults to `Fixed(interarrival)`.
    arrivals: ArrivalProcess,
    /// Pacing RNG, seeded independently of the op-stream RNG so the
    /// request sequence is identical across pacing modes.
    arrival_rng: StdRng,
    version: u64,
    offered: OfferedLoad,
}

impl WorkloadGen {
    /// Creates a generator.
    pub fn new(
        seed: u64,
        volume_bytes: u64,
        pattern: AccessPattern,
        sizes: SizeMix,
        read_pct: u8,
        content: ContentModel,
        interarrival: Nanos,
    ) -> Self {
        assert!(read_pct <= 100);
        let zipf = match pattern {
            // Domain: 4 KiB regions (hot spots are page-granular).
            AccessPattern::Zipfian(theta) => Some(Zipf::new((volume_bytes / 4096).max(1), theta)),
            _ => None,
        };
        Self {
            rng: StdRng::seed_from_u64(seed),
            seed,
            volume_bytes,
            pattern,
            sizes,
            read_pct,
            content,
            zipf,
            sequential_at: 0,
            interarrival,
            arrivals: ArrivalProcess::Fixed(interarrival),
            arrival_rng: StdRng::seed_from_u64(seed ^ 0x5eed_a221_7a1b_90c3),
            version: 0,
            offered: OfferedLoad::default(),
        }
    }

    /// Replaces the arrival process (builder style). `interarrival`
    /// is updated to the process mean so legacy fixed-pacing drivers
    /// keep a sensible gap.
    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.interarrival = arrivals.mean_gap();
        self.arrivals = arrivals;
        self
    }

    /// The configured arrival process.
    pub fn arrivals(&self) -> ArrivalProcess {
        self.arrivals
    }

    /// Samples the gap between this request's arrival and the next —
    /// open-loop drivers advance virtual time by this between
    /// [`WorkloadGen::next_op`] calls. Deterministic per seed, and
    /// independent of the op stream.
    pub fn next_interarrival(&mut self) -> Nanos {
        self.arrivals.sample(&mut self.arrival_rng)
    }

    /// Cumulative offered load issued by this generator so far.
    pub fn offered(&self) -> OfferedLoad {
        self.offered
    }

    /// Produces the next request.
    pub fn next_op(&mut self) -> Op {
        let len = self
            .sizes
            .sample(&mut self.rng)
            .min(self.volume_bytes as usize);
        let max_start = self.volume_bytes - len as u64;
        let offset = match self.pattern {
            AccessPattern::Uniform => {
                let sectors = max_start / SECTOR as u64;
                self.rng.gen_range(0..=sectors) * SECTOR as u64
            }
            AccessPattern::Zipfian(_) => {
                let region = self
                    .zipf
                    .as_ref()
                    .expect("zipf built")
                    .sample(&mut self.rng);
                (region * 4096).min(max_start) / SECTOR as u64 * SECTOR as u64
            }
            AccessPattern::Sequential => {
                let at = self.sequential_at;
                self.sequential_at = (self.sequential_at + len as u64) % (max_start + 1);
                at / SECTOR as u64 * SECTOR as u64
            }
        };
        self.offered.ops += 1;
        if self.rng.gen_range(0..100u32) < self.read_pct as u32 {
            self.offered.reads += 1;
            self.offered.bytes_read += len as u64;
            Op::Read { offset, len }
        } else {
            self.version += 1;
            self.offered.writes += 1;
            self.offered.bytes_written += len as u64;
            let start_sector = offset / SECTOR as u64;
            // Fold the version in so overwrites produce fresh content.
            let data = self.content.buffer(
                self.seed ^ self.version.rotate_left(17),
                start_sector,
                len / SECTOR,
            );
            Op::Write { offset, data }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enterprise_mix_means_about_55_kib() {
        let mean = SizeMix::enterprise().mean_bytes();
        assert!(
            (45_000.0..65_000.0).contains(&mean),
            "mean {} should be ≈55 KiB",
            mean
        );
    }

    fn gen(pattern: AccessPattern, read_pct: u8) -> WorkloadGen {
        WorkloadGen::new(
            9,
            64 << 20,
            pattern,
            SizeMix::enterprise(),
            read_pct,
            ContentModel::Rdbms,
            100_000,
        )
    }

    #[test]
    fn ops_are_aligned_and_in_bounds() {
        let mut g = gen(AccessPattern::Uniform, 70);
        for _ in 0..2000 {
            match g.next_op() {
                Op::Read { offset, len } => {
                    assert_eq!(offset % SECTOR as u64, 0);
                    assert_eq!(len % SECTOR, 0);
                    assert!(offset + len as u64 <= 64 << 20);
                }
                Op::Write { offset, data } => {
                    assert_eq!(offset % SECTOR as u64, 0);
                    assert_eq!(data.len() % SECTOR, 0);
                    assert!(offset + data.len() as u64 <= 64 << 20);
                }
            }
        }
    }

    #[test]
    fn read_fraction_matches_parameter() {
        let mut g = gen(AccessPattern::Uniform, 70);
        let reads = (0..5000)
            .filter(|_| matches!(g.next_op(), Op::Read { .. }))
            .count();
        assert!((3200..3800).contains(&reads), "reads {}", reads);
    }

    #[test]
    fn zipfian_concentrates_accesses() {
        let mut g = gen(AccessPattern::Zipfian(0.99), 100);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..5000 {
            if let Op::Read { offset, .. } = g.next_op() {
                *counts.entry(offset / (1 << 20)).or_insert(0u32) += 1;
            }
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 1500, "a hot megabyte should dominate, max {}", max);
    }

    #[test]
    fn sequential_advances_monotonically_then_wraps() {
        let mut g = gen(AccessPattern::Sequential, 100);
        let mut last = 0;
        let mut wrapped = false;
        for _ in 0..5000 {
            if let Op::Read { offset, .. } = g.next_op() {
                if offset < last {
                    wrapped = true;
                }
                last = offset;
            }
        }
        assert!(wrapped, "64 MiB volume should wrap within 5000 ops");
    }

    #[test]
    fn arrival_sequence_is_seed_deterministic() {
        let mk = |seed| {
            WorkloadGen::new(
                seed,
                64 << 20,
                AccessPattern::Uniform,
                SizeMix::enterprise(),
                70,
                ContentModel::Rdbms,
                0,
            )
            .with_arrivals(ArrivalProcess::poisson_iops(5_000.0))
        };
        let mut a = mk(42);
        let mut b = mk(42);
        let mut c = mk(43);
        let ga: Vec<_> = (0..500).map(|_| a.next_interarrival()).collect();
        let gb: Vec<_> = (0..500).map(|_| b.next_interarrival()).collect();
        let gc: Vec<_> = (0..500).map(|_| c.next_interarrival()).collect();
        assert_eq!(ga, gb, "same seed, same arrival sequence");
        assert_ne!(ga, gc, "different seed, different arrival sequence");
    }

    #[test]
    fn pacing_mode_does_not_perturb_op_stream() {
        let ops = |arrivals: Option<ArrivalProcess>| {
            let mut g = gen(AccessPattern::Uniform, 50);
            if let Some(a) = arrivals {
                g = g.with_arrivals(a);
            }
            (0..200)
                .map(|_| {
                    g.next_interarrival();
                    match g.next_op() {
                        Op::Read { offset, len } => (false, offset, len),
                        Op::Write { offset, data } => (true, offset, data.len()),
                    }
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            ops(None),
            ops(Some(ArrivalProcess::poisson_iops(1_000.0))),
            "op stream must be identical across pacing modes"
        );
    }

    #[test]
    fn overwrites_generate_fresh_content() {
        let mut g = gen(AccessPattern::Sequential, 0);
        let (a, b) = match (g.next_op(), g.next_op()) {
            (Op::Write { data: a, .. }, Op::Write { data: b, .. }) => (a, b),
            _ => panic!("writes expected"),
        };
        assert_ne!(a[..SECTOR], b[..SECTOR]);
    }
}
