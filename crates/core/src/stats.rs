//! Array-wide telemetry — the numbers the paper's operations team
//! watches (§5.1): latencies, data reduction, space, scheduler behaviour.

use purity_obs::Frame;
use purity_sim::units::format_bytes;
use purity_sim::LatencyHistogram;

/// Cumulative counters and distributions for one array.
#[derive(Debug, Clone, Default)]
pub struct ArrayStats {
    /// Application bytes written (pre-reduction).
    pub logical_bytes_written: u64,
    /// cblock bytes stored on flash (post dedup+compression, pre-parity).
    pub physical_bytes_stored: u64,
    /// Bytes avoided by deduplication.
    pub dedup_bytes_saved: u64,
    /// Bytes avoided by compression.
    pub compress_bytes_saved: u64,
    /// Application bytes read.
    pub logical_bytes_read: u64,
    /// Write-commit latency distribution.
    pub write_latency: LatencyHistogram,
    /// Read latency distribution.
    pub read_latency: LatencyHistogram,
    /// Queueing component of direct drive reads (time the critical-path
    /// page waited behind programs/erases/other reads on its die).
    pub read_queueing: LatencyHistogram,
    /// Service component of direct drive reads (die busy time).
    pub read_service: LatencyHistogram,
    /// Drive-level latency of reads served on the direct path.
    pub direct_read_latency: LatencyHistogram,
    /// Drive-level latency of reads served via parity reconstruction.
    pub reconstructed_read_latency: LatencyHistogram,
    /// Reads served straight from the addressed drive.
    pub direct_reads: u64,
    /// Reads served via parity reconstruction (busy or failed drive).
    pub reconstructed_reads: u64,
    /// Extra drive reads performed for reconstructions.
    pub reconstruction_extra_reads: u64,
    /// Reads served from DRAM cache.
    pub cache_reads: u64,
    /// Always 0: `cache_reads` counts every hit of the one cache. Kept
    /// because `benchmark/src/harness.rs` still reads the field.
    pub ram_cache_hits: u64,
    /// cblock fetches that paid the cold-device (QLC) penalty.
    pub cold_reads: u64,
    /// cblocks demoted flash → cold by the migrator.
    pub tier_demotions: u64,
    /// cblocks promoted cold → flash by the migrator.
    pub tier_promotions: u64,
    /// Encoded bytes copied to the cold pool.
    pub tier_bytes_demoted: u64,
    /// Encoded bytes copied back to the flash log.
    pub tier_bytes_promoted: u64,
    /// Reads of unwritten space (served as zeros).
    pub zero_reads: u64,
    /// GC passes completed.
    pub gc_passes: u64,
    /// Segments reclaimed by GC.
    pub gc_segments_freed: u64,
    /// cblock bytes relocated by GC.
    pub gc_bytes_relocated: u64,
    /// Scrub passes completed.
    pub scrub_passes: u64,
    /// Pages repaired by scrub (corruption or retention loss).
    pub scrub_repairs: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
}

impl ArrayStats {
    /// Overall data-reduction ratio over everything ever written
    /// (logical / physical), the paper's headline 5.4× metric. Excludes
    /// thin-provisioning gains, as the paper does.
    pub fn reduction_ratio(&self) -> f64 {
        if self.physical_bytes_stored == 0 || self.logical_bytes_written == 0 {
            1.0
        } else {
            self.logical_bytes_written as f64 / self.physical_bytes_stored as f64
        }
    }

    /// Folds another stats record into this one (used to carry telemetry
    /// across controller failovers — the fleet history outlives any one
    /// controller).
    pub fn absorb(&mut self, other: &ArrayStats) {
        self.logical_bytes_written += other.logical_bytes_written;
        self.physical_bytes_stored += other.physical_bytes_stored;
        self.dedup_bytes_saved += other.dedup_bytes_saved;
        self.compress_bytes_saved += other.compress_bytes_saved;
        self.logical_bytes_read += other.logical_bytes_read;
        self.write_latency.merge(&other.write_latency);
        self.read_latency.merge(&other.read_latency);
        self.read_queueing.merge(&other.read_queueing);
        self.read_service.merge(&other.read_service);
        self.direct_read_latency.merge(&other.direct_read_latency);
        self.reconstructed_read_latency
            .merge(&other.reconstructed_read_latency);
        self.direct_reads += other.direct_reads;
        self.reconstructed_reads += other.reconstructed_reads;
        self.reconstruction_extra_reads += other.reconstruction_extra_reads;
        self.cache_reads += other.cache_reads;
        self.cold_reads += other.cold_reads;
        self.tier_demotions += other.tier_demotions;
        self.tier_promotions += other.tier_promotions;
        self.tier_bytes_demoted += other.tier_bytes_demoted;
        self.tier_bytes_promoted += other.tier_bytes_promoted;
        self.zero_reads += other.zero_reads;
        self.gc_passes += other.gc_passes;
        self.gc_segments_freed += other.gc_segments_freed;
        self.gc_bytes_relocated += other.gc_bytes_relocated;
        self.scrub_passes += other.scrub_passes;
        self.scrub_repairs += other.scrub_repairs;
        self.checkpoints += other.checkpoints;
    }

    /// Writes the array data-path series (names and labels documented
    /// in OBSERVABILITY.md) into `out`; the latency distributions are
    /// lent, not copied.
    pub fn collect<'a>(&'a self, out: &mut Frame<'a>) {
        out.counter(
            "array_logical_bytes_written",
            &[],
            self.logical_bytes_written,
        );
        out.counter("array_logical_bytes_read", &[], self.logical_bytes_read);
        out.counter(
            "array_physical_bytes_stored",
            &[],
            self.physical_bytes_stored,
        );
        out.counter("array_dedup_bytes_saved", &[], self.dedup_bytes_saved);
        out.counter("array_compress_bytes_saved", &[], self.compress_bytes_saved);
        for (path, v) in [
            ("direct", self.direct_reads),
            ("reconstructed", self.reconstructed_reads),
            ("cache", self.cache_reads),
            ("zero", self.zero_reads),
        ] {
            out.counter("array_reads", &[("path", path)], v);
        }
        out.counter(
            "array_reconstruction_extra_reads",
            &[],
            self.reconstruction_extra_reads,
        );
        out.counter("tier_cold_reads", &[], self.cold_reads);
        out.counter("tier_demotions", &[], self.tier_demotions);
        out.counter("tier_promotions", &[], self.tier_promotions);
        out.counter("tier_bytes_demoted", &[], self.tier_bytes_demoted);
        out.counter("tier_bytes_promoted", &[], self.tier_bytes_promoted);
        out.counter("array_gc_passes", &[], self.gc_passes);
        out.counter("array_gc_segments_freed", &[], self.gc_segments_freed);
        out.counter("array_gc_bytes_relocated", &[], self.gc_bytes_relocated);
        out.counter("array_scrub_passes", &[], self.scrub_passes);
        out.counter("array_scrub_repairs", &[], self.scrub_repairs);
        out.counter("array_checkpoints", &[], self.checkpoints);
        out.histogram("array_write_latency", &[], &self.write_latency);
        out.histogram("array_read_latency", &[], &self.read_latency);
        let direct = [("path", "direct")];
        out.histogram("array_read_queueing", &direct, &self.read_queueing);
        out.histogram("array_read_service", &direct, &self.read_service);
        out.histogram(
            "array_drive_read_latency",
            &direct,
            &self.direct_read_latency,
        );
        out.histogram(
            "array_drive_read_latency",
            &[("path", "reconstructed")],
            &self.reconstructed_read_latency,
        );
    }

    /// Fraction of reads that took the reconstruction path.
    pub fn reconstruction_fraction(&self) -> f64 {
        let total = self.direct_reads + self.reconstructed_reads;
        if total == 0 {
            0.0
        } else {
            self.reconstructed_reads as f64 / total as f64
        }
    }

    /// Drive-read amplification of the scheduling policy:
    /// (direct + reconstruction reads) / (reads if all were direct).
    pub fn read_amplification(&self) -> f64 {
        let ideal = self.direct_reads + self.reconstructed_reads;
        if ideal == 0 {
            1.0
        } else {
            (self.direct_reads + self.reconstruction_extra_reads) as f64 / ideal as f64
        }
    }

    /// Multi-line human-readable report.
    pub fn report(&self) -> String {
        format!(
            "logical written {} | physical stored {} | reduction {:.2}x \
             (dedup saved {}, compression saved {})\n\
             writes: {}\nreads:  {}\n\
             read paths: direct {} reconstructed {} cached {} cold {} zero {} (amplification {:.3}x)\n\
             tier: {} demotions ({}) {} promotions ({})\n\
             gc: {} passes, {} segments freed, {} relocated | scrub: {} passes, {} repairs | checkpoints {}",
            format_bytes(self.logical_bytes_written),
            format_bytes(self.physical_bytes_stored),
            self.reduction_ratio(),
            format_bytes(self.dedup_bytes_saved),
            format_bytes(self.compress_bytes_saved),
            self.write_latency.summary(),
            self.read_latency.summary(),
            self.direct_reads,
            self.reconstructed_reads,
            self.cache_reads,
            self.cold_reads,
            self.zero_reads,
            self.read_amplification(),
            self.tier_demotions,
            format_bytes(self.tier_bytes_demoted),
            self.tier_promotions,
            format_bytes(self.tier_bytes_promoted),
            self.gc_passes,
            self.gc_segments_freed,
            format_bytes(self.gc_bytes_relocated),
            self.scrub_passes,
            self.scrub_repairs,
            self.checkpoints,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_ratio_math() {
        let mut s = ArrayStats::default();
        assert_eq!(s.reduction_ratio(), 1.0);
        s.logical_bytes_written = 1000;
        s.physical_bytes_stored = 200;
        assert!((s.reduction_ratio() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn read_amplification_math() {
        let mut s = ArrayStats::default();
        assert_eq!(s.read_amplification(), 1.0);
        // 10 direct + 2 reconstructed, each reconstruction costing 7 reads.
        s.direct_reads = 10;
        s.reconstructed_reads = 2;
        s.reconstruction_extra_reads = 14;
        assert!((s.read_amplification() - 2.0).abs() < 1e-9);
        assert!((s.reconstruction_fraction() - 2.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn report_formats() {
        let s = ArrayStats::default();
        let r = s.report();
        assert!(r.contains("reduction"));
        assert!(r.contains("gc:"));
    }

    /// The failover contract: absorbing one controller's stats into
    /// another's and then reporting must equal reporting the union of
    /// both observation streams — absorb() is lossless, histograms
    /// included.
    #[test]
    fn absorb_then_report_equals_reporting_the_union() {
        let mut a = ArrayStats::default();
        let mut b = ArrayStats::default();
        let mut union = ArrayStats::default();
        for i in 0..500u64 {
            let lat = 10_000 + i * 377;
            a.read_latency.record(lat);
            union.read_latency.record(lat);
            a.read_queueing.record(lat / 3);
            union.read_queueing.record(lat / 3);
            a.direct_read_latency.record(lat);
            union.direct_read_latency.record(lat);
            a.direct_reads += 1;
            union.direct_reads += 1;
            a.logical_bytes_read += 4096;
            union.logical_bytes_read += 4096;
        }
        for i in 0..300u64 {
            let lat = 2_000_000 + i * 991;
            b.read_latency.record(lat);
            union.read_latency.record(lat);
            b.read_service.record(lat / 7);
            union.read_service.record(lat / 7);
            b.reconstructed_read_latency.record(lat);
            union.reconstructed_read_latency.record(lat);
            b.reconstructed_reads += 1;
            union.reconstructed_reads += 1;
            b.write_latency.record(lat / 2);
            union.write_latency.record(lat / 2);
        }
        a.absorb(&b);
        assert_eq!(a.direct_reads, union.direct_reads);
        assert_eq!(a.reconstructed_reads, union.reconstructed_reads);
        assert_eq!(a.logical_bytes_read, union.logical_bytes_read);
        for (merged, expect) in [
            (&a.read_latency, &union.read_latency),
            (&a.write_latency, &union.write_latency),
            (&a.read_queueing, &union.read_queueing),
            (&a.read_service, &union.read_service),
            (&a.direct_read_latency, &union.direct_read_latency),
            (
                &a.reconstructed_read_latency,
                &union.reconstructed_read_latency,
            ),
        ] {
            assert_eq!(merged.count(), expect.count());
            assert_eq!(merged.mean(), expect.mean());
            assert_eq!(merged.min(), expect.min());
            assert_eq!(merged.max(), expect.max());
            for q in [0.5, 0.95, 0.99, 0.999] {
                assert_eq!(merged.quantile(q), expect.quantile(q));
            }
        }
        assert_eq!(a.report(), union.report());
    }
}
