//! What every workload shares: wall-clock accounting around calls into
//! the system under test, window-relative counters read through public
//! snapshots, and the reduction of one round to named metrics.

use crate::alloc;
use crate::spans::Spans;
use crate::stats::{self, Latencies};
use purity_cluster::{swim::SwimStats, ClusterStats};
use purity_core::stats::ArrayStats;
use purity_core::FlashArray;
use purity_host::HostReport;
use purity_obs::profiler::{self, ProfileSnapshot};
use purity_obs::{BlameVec, BLAME_CATEGORIES};
use purity_repl::FabricStats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Mixes the run's seed with a per-generator constant.
pub fn mix(seed: u64, salt: u64) -> u64 {
    (seed ^ salt.rotate_left(32))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
        ^ salt
}

pub struct RoundCfg {
    pub seed: u64,
    /// Spans, the crate profiler and allocation counting are on.
    pub traced: bool,
    /// Test-only: flip one byte of one read-back before it is checked.
    pub sabotage: bool,
}

/// One round reduced to named values.
pub struct Round {
    pub metrics: BTreeMap<String, f64>,
    /// Tail percentiles chosen, e.g. `virt_read_tail_us` → (0.999, n).
    pub tails: BTreeMap<&'static str, (f64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub spans: Spans,
}

/// The `ArrayStats` and map counters the metrics are ratios of.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub logical_written: u64,
    pub physical_stored: u64,
    pub dedup_saved: u64,
    pub compress_saved: u64,
    pub direct_reads: u64,
    pub reconstructed_reads: u64,
    pub extra_reads: u64,
    pub cache_reads: u64,
    pub ram_hits: u64,
    pub cold_reads: u64,
    pub demotions: u64,
    pub promotions: u64,
    pub bytes_moved: u64,
    pub gc_segments_freed: u64,
    pub gc_relocated: u64,
    pub checkpoints: u64,
    pub lsm_flushes: u64,
    pub lsm_merges: u64,
}

impl Counters {
    pub fn of(a: &FlashArray) -> Self {
        let s = a.stats();
        let m = a.metrics_snapshot();
        Self {
            logical_written: s.logical_bytes_written,
            physical_stored: s.physical_bytes_stored,
            dedup_saved: s.dedup_bytes_saved,
            compress_saved: s.compress_bytes_saved,
            direct_reads: s.direct_reads,
            reconstructed_reads: s.reconstructed_reads,
            extra_reads: s.reconstruction_extra_reads,
            cache_reads: s.cache_reads,
            ram_hits: s.ram_cache_hits,
            cold_reads: s.cold_reads,
            demotions: s.tier_demotions,
            promotions: s.tier_promotions,
            bytes_moved: s.tier_bytes_demoted + s.tier_bytes_promoted,
            gc_segments_freed: s.gc_segments_freed,
            gc_relocated: s.gc_bytes_relocated,
            checkpoints: s.checkpoints,
            lsm_flushes: m.counter_total("lsm_flushes"),
            lsm_merges: m.counter_total("lsm_merges"),
        }
    }

    fn zip(&self, o: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Self {
            logical_written: f(self.logical_written, o.logical_written),
            physical_stored: f(self.physical_stored, o.physical_stored),
            dedup_saved: f(self.dedup_saved, o.dedup_saved),
            compress_saved: f(self.compress_saved, o.compress_saved),
            direct_reads: f(self.direct_reads, o.direct_reads),
            reconstructed_reads: f(self.reconstructed_reads, o.reconstructed_reads),
            extra_reads: f(self.extra_reads, o.extra_reads),
            cache_reads: f(self.cache_reads, o.cache_reads),
            ram_hits: f(self.ram_hits, o.ram_hits),
            cold_reads: f(self.cold_reads, o.cold_reads),
            demotions: f(self.demotions, o.demotions),
            promotions: f(self.promotions, o.promotions),
            bytes_moved: f(self.bytes_moved, o.bytes_moved),
            gc_segments_freed: f(self.gc_segments_freed, o.gc_segments_freed),
            gc_relocated: f(self.gc_relocated, o.gc_relocated),
            checkpoints: f(self.checkpoints, o.checkpoints),
            lsm_flushes: f(self.lsm_flushes, o.lsm_flushes),
            lsm_merges: f(self.lsm_merges, o.lsm_merges),
        }
    }

    pub fn since(&self, base: &Self) -> Self {
        self.zip(base, u64::saturating_sub)
    }

    pub fn add(&mut self, o: &Self) {
        *self = self.zip(o, |a, b| a + b);
    }
}

/// NAND and FTL traffic summed over every drive of a shelf, cold pool
/// included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashTotals {
    pub program_bytes: u64,
    pub page_reads: u64,
    pub read_stall_ns: u64,
    pub erases: u64,
    pub ftl_host_programs: u64,
    pub ftl_gc_programs: u64,
}

impl FlashTotals {
    pub fn of(a: &mut FlashArray) -> Self {
        let (_, shelf) = a.controller_and_shelf();
        let hot = (0..shelf.n_drives()).map(|d| shelf.drive(d));
        let cold = (0..shelf.n_cold_drives()).map(|d| shelf.cold_drive(d));
        let mut t = Self::default();
        for drive in hot.chain(cold) {
            let (fc, ftl) = (drive.flash_counters(), drive.stats());
            t.program_bytes += fc.programs * drive.page_size() as u64;
            t.page_reads += fc.reads;
            t.read_stall_ns += fc.read_stall_ns;
            t.erases += fc.erases;
            t.ftl_host_programs += ftl.host_programs;
            t.ftl_gc_programs += ftl.gc_programs;
        }
        t
    }

    pub fn since(&self, base: &Self) -> Self {
        Self {
            program_bytes: self.program_bytes - base.program_bytes,
            page_reads: self.page_reads - base.page_reads,
            read_stall_ns: self.read_stall_ns - base.read_stall_ns,
            erases: self.erases - base.erases,
            ftl_host_programs: self.ftl_host_programs - base.ftl_host_programs,
            ftl_gc_programs: self.ftl_gc_programs - base.ftl_gc_programs,
        }
    }

    pub fn add(&mut self, o: &Self) {
        self.program_bytes += o.program_bytes;
        self.page_reads += o.page_reads;
        self.read_stall_ns += o.read_stall_ns;
        self.erases += o.erases;
        self.ftl_host_programs += o.ftl_host_programs;
        self.ftl_gc_programs += o.ftl_gc_programs;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub struct Harness {
    pub spans: Spans,
    sabotage_armed: bool,
    phases: Vec<(&'static str, Instant)>,
    setup_wall: Duration,
    /// Wall time inside calls into the system under test.
    busy: Duration,
    /// Wall time inside the workload generators.
    generating: Duration,
    in_window: bool,
    window_busy: Duration,
    window_generating: Duration,
    window_virt_ns: u64,
    window_allocs: (u64, u64),
    profile: Option<ProfileSnapshot>,
    blame_base: BlameVec,
    blame: BlameVec,

    pub attempted: u64,
    pub failed: u64,
    /// Host ops acked inside the window.
    pub acked: u64,
    pub violations: Vec<String>,
    pub read_lat: Latencies,
    pub write_lat: Latencies,
    pub host_bytes_written: u64,
    pub host_bytes_read: u64,
    pub counters: Counters,
    pub flash: FlashTotals,
    /// Virtual downtime of every restart.
    pub downtimes: Vec<u64>,
    pub recovery_aus_scanned: u64,
    pub recovery_intents_replayed: u64,
    pub campaigns: u64,
    pub campaign_phase_hits: u64,
    pub export_bytes: u64,
    pub host_report: Option<HostReport>,
    pub cluster_stats: Option<(ClusterStats, SwimStats, FabricStats)>,
    pub repl_stats: Option<FabricStats>,
}

impl Harness {
    pub fn new(cfg: &RoundCfg) -> Self {
        Self {
            spans: Spans::new(cfg.traced),
            sabotage_armed: cfg.sabotage,
            phases: Vec::new(),
            setup_wall: Duration::ZERO,
            busy: Duration::ZERO,
            generating: Duration::ZERO,
            in_window: false,
            window_busy: Duration::ZERO,
            window_generating: Duration::ZERO,
            window_virt_ns: 0,
            window_allocs: (0, 0),
            profile: None,
            blame_base: BlameVec::default(),
            blame: BlameVec::default(),
            attempted: 0,
            failed: 0,
            acked: 0,
            violations: Vec::new(),
            read_lat: Latencies::Exact(Vec::new()),
            write_lat: Latencies::Exact(Vec::new()),
            host_bytes_written: 0,
            host_bytes_read: 0,
            counters: Counters::default(),
            flash: FlashTotals::default(),
            downtimes: Vec::new(),
            recovery_aus_scanned: 0,
            recovery_intents_replayed: 0,
            campaigns: 0,
            campaign_phase_hits: 0,
            export_bytes: 0,
            host_report: None,
            cluster_stats: None,
            repl_stats: None,
        }
    }

    /// Opens a phase of the round (`setup`, `window`, `restart`, `verify`,
    /// `observe`, `campaigns`): a parent span; set-up's wall time is kept
    /// whether or not spans are.
    pub fn enter(&mut self, phase: &'static str) {
        self.spans.enter(phase);
        self.phases.push((phase, Instant::now()));
    }

    pub fn exit(&mut self) {
        let (phase, start) = self.phases.pop().expect("exit without enter");
        if phase == "setup" {
            self.setup_wall = start.elapsed();
        }
        self.spans.exit();
    }

    /// Times one call into a crate's public function.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.busy += end - start;
        self.spans.leaf(name, start, end);
        out
    }

    /// Times one call into a workload generator.
    pub fn generate<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.generating += start.elapsed();
        out
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.violations.push(what);
    }

    /// An acked read; only those inside the window are measured.
    pub fn acked_read(&mut self, latency_ns: u64, len: usize) {
        if !self.in_window {
            return;
        }
        self.acked += 1;
        self.host_bytes_read += len as u64;
        if let Latencies::Exact(v) = &mut self.read_lat {
            v.push(latency_ns);
        }
    }

    /// An acked write; only those inside the window are measured.
    pub fn acked_write(&mut self, latency_ns: u64, len: usize) {
        if !self.in_window {
            return;
        }
        self.acked += 1;
        self.host_bytes_written += len as u64;
        if let Latencies::Exact(v) = &mut self.write_lat {
            v.push(latency_ns);
        }
    }

    /// The sabotage check: corrupts the first read-back it is shown.
    pub fn sabotage(&mut self, data: &mut [u8]) {
        if self.sabotage_armed && !data.is_empty() {
            data[0] ^= 0x01;
            self.sabotage_armed = false;
        }
    }

    /// Everything recorded before this call was set-up.
    pub fn begin_window(&mut self, blame_now: BlameVec) {
        self.enter("window");
        self.in_window = true;
        self.busy = Duration::ZERO;
        self.generating = Duration::ZERO;
        self.acked = 0;
        self.host_bytes_written = 0;
        self.host_bytes_read = 0;
        self.read_lat = Latencies::Exact(Vec::new());
        self.write_lat = Latencies::Exact(Vec::new());
        self.blame_base = blame_now;
        if self.spans.on() {
            profiler::reset();
            profiler::enable();
            self.window_allocs = alloc::counted();
            alloc::arm(true);
        }
    }

    pub fn end_window(&mut self, virt_ns: u64) {
        if self.spans.on() {
            alloc::arm(false);
            let (calls, bytes) = alloc::counted();
            self.window_allocs = (calls - self.window_allocs.0, bytes - self.window_allocs.1);
        }
        self.in_window = false;
        self.window_busy = self.busy;
        self.window_generating = self.generating;
        self.window_virt_ns = virt_ns;
        self.exit();
    }

    /// Freezes the crate profiler; called after the restart so the
    /// recovery planes are in the snapshot.
    pub fn stop_profile(&mut self) {
        if self.spans.on() {
            self.profile = Some(profiler::snapshot());
            profiler::disable();
        }
    }

    /// Adds the blame folded since the base to the round's total.
    pub fn harvest_blame(&mut self, total: BlameVec) {
        for (i, ns) in self.blame.0.iter_mut().enumerate() {
            *ns += total.0[i].saturating_sub(self.blame_base.0[i]);
        }
    }

    /// Blame is harvested from `base` on: a cold start boots a fresh
    /// tracer whose totals restart from zero.
    pub fn rebase_blame(&mut self, base: BlameVec) {
        self.blame_base = base;
    }

    /// The latency in µs at the highest of p99.9 / p99 / p95 that has at
    /// least ten samples beyond it (p95 when none has: `n` says so).
    fn tail(
        lat: &mut Latencies,
        name: &'static str,
        tails: &mut BTreeMap<&'static str, (f64, u64)>,
    ) -> f64 {
        let n = lat.count();
        let q = stats::pick_tail(n).unwrap_or(0.95);
        tails.insert(name, (q, n));
        lat.quantile(q) as f64 / 1e3
    }

    pub fn into_round(mut self) -> Round {
        let mut m: BTreeMap<String, f64> = BTreeMap::new();
        let mut tails = BTreeMap::new();
        let mut put = |k: &str, v: f64| {
            m.insert(k.to_string(), v);
        };
        let window_s = self.window_busy.as_secs_f64();
        let acked = self.acked.max(1) as f64;
        let c = self.counters;
        let f = self.flash;

        // ---- end to end ----
        put("setup_s", self.setup_wall.as_secs_f64());
        put("window_s", window_s);
        put("wall_ops_per_s", self.acked as f64 / window_s.max(1e-9));
        put(
            "virt_iops",
            self.acked as f64 * 1e9 / self.window_virt_ns.max(1) as f64,
        );
        put("virt_read_p50_us", self.read_lat.quantile(0.5) as f64 / 1e3);
        put(
            "virt_write_p50_us",
            self.write_lat.quantile(0.5) as f64 / 1e3,
        );
        put(
            "virt_read_tail_us",
            Self::tail(&mut self.read_lat, "virt_read_tail_us", &mut tails),
        );
        put(
            "virt_write_tail_us",
            Self::tail(&mut self.write_lat, "virt_write_tail_us", &mut tails),
        );
        put(
            "reduction_ratio",
            ArrayStats {
                logical_bytes_written: c.logical_written,
                physical_bytes_stored: c.physical_stored,
                ..ArrayStats::default()
            }
            .reduction_ratio(),
        );
        put("write_amp", ratio(f.program_bytes, self.host_bytes_written));
        put(
            "read_amp",
            ArrayStats {
                direct_reads: c.direct_reads,
                reconstructed_reads: c.reconstructed_reads,
                reconstruction_extra_reads: c.extra_reads,
                ..ArrayStats::default()
            }
            .read_amplification(),
        );
        let downtimes: Vec<f64> = self.downtimes.iter().map(|&d| d as f64 / 1e6).collect();
        put(
            "recovery_virt_ms",
            downtimes.iter().sum::<f64>() / downtimes.len().max(1) as f64,
        );

        // ---- counts through public snapshots (exact) ----
        put(
            "ssd.ftl_write_amp",
            ratio(f.ftl_host_programs + f.ftl_gc_programs, f.ftl_host_programs),
        );
        put(
            "ssd.erases_per_host_mib",
            f.erases as f64 / (self.host_bytes_written as f64 / (1 << 20) as f64).max(1e-9),
        );
        put(
            "ssd.read_stall_us_per_read",
            ratio(f.read_stall_ns, f.page_reads) / 1e3,
        );
        put("dedup.saved_share", ratio(c.dedup_saved, c.logical_written));
        put(
            "core.compress_saved_share",
            ratio(c.compress_saved, c.logical_written),
        );
        put("lsm.flushes", c.lsm_flushes as f64);
        put("lsm.merges", c.lsm_merges as f64);
        let served = c.cache_reads + c.ram_hits + c.direct_reads + c.reconstructed_reads;
        put("tier.ram_hit_rate", ratio(c.ram_hits, served));
        put("tier.cold_reads", c.cold_reads as f64);
        put("tier.demotions", c.demotions as f64);
        put("tier.promotions", c.promotions as f64);
        put(
            "tier.moved_bytes_per_host_byte",
            ratio(
                c.bytes_moved,
                self.host_bytes_written + self.host_bytes_read,
            ),
        );
        put("core.cache_hit_rate", ratio(c.cache_reads, served));
        put(
            "core.reconstructed_share",
            ratio(
                c.reconstructed_reads,
                c.direct_reads + c.reconstructed_reads,
            ),
        );
        put(
            "core.gc_relocated_per_host_byte",
            ratio(c.gc_relocated, self.host_bytes_written),
        );
        put("core.gc_segments_freed", c.gc_segments_freed as f64);
        put("core.checkpoints", c.checkpoints as f64);
        put(
            "core.recovery_aus_scanned",
            self.recovery_aus_scanned as f64,
        );
        put(
            "core.recovery_intents_replayed",
            self.recovery_intents_replayed as f64,
        );
        let blame_total = self.blame.total();
        for cat in BLAME_CATEGORIES {
            put(
                &format!("blame.{}_share", cat.as_str()),
                ratio(self.blame.get(cat), blame_total),
            );
        }
        let host = self.host_report.as_ref();
        put(
            "host.queue_wait_p50_us",
            host.map_or(0.0, |r| r.queue_wait.p50() as f64 / 1e3),
        );
        put(
            "host.service_p50_us",
            host.map_or(0.0, |r| r.service.p50() as f64 / 1e3),
        );
        put("host.retries", host.map_or(0.0, |r| r.retries as f64));
        put("host.qfull", host.map_or(0.0, |r| r.qfull as f64));
        let repl = self.repl_stats.unwrap_or_default();
        put(
            "repl.wire_bytes_per_payload_byte",
            ratio(repl.bytes_on_wire, repl.payload_bytes),
        );
        put("repl.retransmits", repl.retransmits as f64);
        put(
            "repl.dedup_hit_share",
            ratio(
                repl.dedup_hit_sectors,
                repl.dedup_hit_sectors + repl.sectors_shipped,
            ),
        );
        let (cl, swim, rebuild) = self.cluster_stats.unwrap_or_default();
        put("cluster.probes", swim.probes as f64);
        put(
            "cluster.rebuild_sectors_shipped",
            rebuild.sectors_shipped as f64,
        );
        put(
            "cluster.rebuild_dedup_hit_share",
            ratio(
                rebuild.dedup_hit_sectors,
                rebuild.dedup_hit_sectors + rebuild.sectors_shipped,
            ),
        );
        put("cluster.redirects", cl.redirects as f64);
        put(
            "torture.phase_hit_share",
            ratio(self.campaign_phase_hits, self.campaigns),
        );
        put(
            "wkld.gen_share",
            self.window_generating.as_secs_f64()
                / (window_s + self.window_generating.as_secs_f64()).max(1e-9),
        );

        // ---- traced pass only: crate profiler planes, spans, allocator ----
        if let Some(p) = &self.profile {
            let self_ms = |plane: &str| p.plane(plane).map_or(0.0, |s| s.self_ns as f64 / 1e6);
            let events = |plane: &str| p.plane(plane).map_or(0.0, |s| s.events as f64);
            put("sim.events_per_op", p.events() as f64 / acked);
            put("ssd.self_ms", self_ms("ssd_timeline"));
            put("lsm.self_ms", self_ms("lsm"));
            put("lsm.events_per_op", events("lsm") / acked);
            put("core.write_self_ms", self_ms("array_write"));
            put("core.read_self_ms", self_ms("array_read"));
            put("core.gc_self_ms", self_ms("gc"));
            put("core.nvram_replay_self_ms", self_ms("nvram_replay"));
            put("obs.recorder_self_ms", self_ms("recorder"));
            put("host.dispatch_self_ms", self_ms("host_dispatch"));
            put("repl.self_ms", self_ms("repl"));
            put("cluster.self_ms", self_ms("cluster"));
            put("alloc.count_per_op", self.window_allocs.0 as f64 / acked);
            put("alloc.bytes_per_op", self.window_allocs.1 as f64 / acked);

            // Median per call, over the calls made inside one phase only:
            // set-up's preload writes and GC passes are not the window's.
            let spans = &self.spans;
            let median = |phase: &str, name: &str| spans.median_ns(phase, name) as f64;
            put("core.write_call_us", median("window", "core.write") / 1e3);
            put("core.read_call_us", median("window", "core.read") / 1e3);
            put(
                "core.advance_call_us",
                median("window", "core.advance") / 1e3,
            );
            put("core.run_gc_call_ms", median("window", "core.run_gc") / 1e6);
            put(
                "core.fail_primary_call_ms",
                median("restart", "core.fail_primary").max(median("window", "core.power_loss"))
                    / 1e6,
            );
            put("obs.sample_call_us", median("observe", "obs.sample") / 1e3);
            put("obs.export_ms", median("observe", "obs.export") / 1e6);
            put("obs.export_bytes", self.export_bytes as f64);
            put("host.run_call_ms", median("window", "host.run") / 1e6);
            put(
                "cluster.write_call_us",
                median("window", "cluster.write") / 1e3,
            );
            put(
                "cluster.tick_call_us",
                median("window", "cluster.tick") / 1e3,
            );
            put(
                "torture.campaign_call_ms",
                median("campaigns", "torture.campaign") / 1e6,
            );
        }

        Round {
            metrics: m,
            tails,
            attempted: self.attempted,
            failed: self.failed,
            violations: self.violations,
            spans: self.spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_and_salts_both_change_the_mix() {
        assert_ne!(mix(1, 7), mix(2, 7));
        assert_ne!(mix(1, 7), mix(1, 8));
        assert_eq!(mix(42, 7), mix(42, 7));
    }

    #[test]
    fn counters_subtract_and_add_fieldwise() {
        let a = Counters {
            logical_written: 10,
            lsm_merges: 4,
            ..Counters::default()
        };
        let b = Counters {
            logical_written: 3,
            lsm_merges: 1,
            ..Counters::default()
        };
        let d = a.since(&b);
        assert_eq!((d.logical_written, d.lsm_merges), (7, 3));
        let mut sum = d;
        sum.add(&b);
        assert_eq!(sum, a);
    }

    #[test]
    fn sabotage_flips_exactly_one_read_back() {
        let cfg = RoundCfg {
            seed: 1,
            traced: false,
            sabotage: true,
        };
        let mut h = Harness::new(&cfg);
        let (mut first, mut second) = ([0u8; 4], [0u8; 4]);
        h.sabotage(&mut first);
        h.sabotage(&mut second);
        assert_eq!(first, [1, 0, 0, 0]);
        assert_eq!(second, [0; 4]);
    }
}
