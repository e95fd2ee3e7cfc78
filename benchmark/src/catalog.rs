//! Every metric the benchmark reports, by name. `BENCHMARK.json` at the
//! repository root carries the same lists; a test keeps the two in step.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen: at
    /// least three times the widest quartile spread seen over ten seeds on
    /// any workload (the driver varies the seed from run to run, so even a
    /// virtual metric's spread is its seed-to-seed spread).
    pub bound: f64,
    /// Measured on the simulation clock: identical for identical seeds.
    pub virtual_clock: bool,
}

const fn wall(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
        virtual_clock: false,
    }
}

const fn virt(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
        virtual_clock: true,
    }
}

pub const END_TO_END: [EndToEnd; 12] = [
    wall("setup_s", "s", false, 0.25),
    wall("wall_ops_per_s", "ops/s", true, 0.25),
    wall("peak_rss_mb", "MiB", false, 0.25),
    virt("virt_iops", "ops/virt-s", true, 0.12),
    virt("virt_read_p50_us", "virt-us", false, 0.25),
    virt("virt_write_p50_us", "virt-us", false, 0.2),
    virt("virt_read_tail_us", "virt-us", false, 0.25),
    virt("virt_write_tail_us", "virt-us", false, 0.25),
    virt("reduction_ratio", "x", true, 0.07),
    virt("write_amp", "x", false, 0.2),
    virt("read_amp", "x", false, 0.2),
    virt("recovery_virt_ms", "virt-ms", false, 0.25),
];

/// The paper's read-latency budget the read tail is shown against.
pub const READ_BUDGET_US: f64 = 1_000.0;

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// P crate profiler plane, S benchmark span, K kernel micro-timing,
    /// C count through a public snapshot, A counting allocator.
    pub source: char,
}

const fn layer(name: &'static str, unit: &'static str, higher: bool, source: char) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: higher,
        source,
    }
}

pub const PER_LAYER: [Layer; 90] = [
    layer("sim.events_per_op", "count", false, 'P'),
    layer("sim.timeline_reserve_ns", "ns", false, 'K'),
    layer("sim.t2_wall_ratio", "x", false, 'S'),
    layer("ssd.self_ms", "ms", false, 'P'),
    layer("ssd.ftl_write_ns_per_page", "ns/page", false, 'K'),
    layer("ssd.ftl_overwrite_ns_per_page", "ns/page", false, 'K'),
    layer("ssd.ftl_write_amp", "x", false, 'C'),
    layer("ssd.erases_per_host_mib", "1/MiB", false, 'C'),
    layer("ssd.read_stall_us_per_read", "us", false, 'C'),
    layer("ecc.encode_ns_per_byte", "ns/B", false, 'K'),
    layer("ecc.reconstruct_ns_per_byte", "ns/B", false, 'K'),
    layer("compress.compress_ns_per_byte", "ns/B", false, 'K'),
    layer("compress.decompress_ns_per_byte", "ns/B", false, 'K'),
    layer("compress.ratio", "x", true, 'K'),
    layer("dedup.hash_ns_per_byte", "ns/B", false, 'K'),
    layer("dedup.index_ns_per_op", "ns/op", false, 'K'),
    layer("dedup.saved_share", "fraction", true, 'C'),
    layer("format.page_encode_ns_per_row", "ns/row", false, 'K'),
    layer("format.page_scan_ns_per_row", "ns/row", false, 'K'),
    layer("lsm.self_ms", "ms", false, 'P'),
    layer("lsm.events_per_op", "count", false, 'P'),
    layer("lsm.insert_ns", "ns/op", false, 'K'),
    layer("lsm.get_ns", "ns/op", false, 'K'),
    layer("lsm.flatten_ns_per_fact", "ns/fact", false, 'K'),
    layer("lsm.flushes", "count", false, 'C'),
    layer("lsm.merges", "count", false, 'C'),
    layer("tier.cache_ns_per_op", "ns/op", false, 'K'),
    layer("tier.ram_hit_rate", "fraction", true, 'C'),
    layer("tier.cold_reads", "count", false, 'C'),
    layer("tier.demotions", "count", false, 'C'),
    layer("tier.promotions", "count", false, 'C'),
    layer("tier.moved_bytes_per_host_byte", "x", false, 'C'),
    layer("core.write_self_ms", "ms", false, 'P'),
    layer("core.read_self_ms", "ms", false, 'P'),
    layer("core.gc_self_ms", "ms", false, 'P'),
    layer("core.nvram_replay_self_ms", "ms", false, 'P'),
    layer("core.write_call_us", "us", false, 'S'),
    layer("core.read_call_us", "us", false, 'S'),
    layer("core.advance_call_us", "us", false, 'S'),
    layer("core.run_gc_call_ms", "ms", false, 'S'),
    layer("core.fail_primary_call_ms", "ms", false, 'S'),
    layer("core.cache_hit_rate", "fraction", true, 'C'),
    layer("core.reconstructed_share", "fraction", false, 'C'),
    layer("core.gc_relocated_per_host_byte", "x", false, 'C'),
    layer("core.gc_segments_freed", "count", true, 'C'),
    layer("core.compress_saved_share", "fraction", true, 'C'),
    layer("core.recovery_aus_scanned", "count", false, 'C'),
    layer("core.recovery_intents_replayed", "count", false, 'C'),
    layer("core.checkpoints", "count", false, 'C'),
    layer("obs.recorder_self_ms", "ms", false, 'P'),
    layer("obs.sample_call_us", "us", false, 'S'),
    layer("obs.export_ms", "ms", false, 'S'),
    layer("obs.export_bytes", "bytes", false, 'S'),
    layer("obs.trace_overhead_ratio", "x", false, 'S'),
    layer("blame.host_queue_share", "fraction", false, 'C'),
    layer("blame.qos_throttle_share", "fraction", false, 'C'),
    layer("blame.multipath_retry_share", "fraction", false, 'C'),
    layer("blame.cluster_redirect_share", "fraction", false, 'C'),
    layer("blame.nvram_commit_share", "fraction", false, 'C'),
    layer("blame.reduction_cpu_share", "fraction", false, 'C'),
    layer("blame.drive_queue_share", "fraction", false, 'C'),
    layer("blame.die_stall_program_share", "fraction", false, 'C'),
    layer("blame.die_stall_erase_share", "fraction", false, 'C'),
    layer("blame.gc_interference_share", "fraction", false, 'C'),
    layer("blame.reconstruct_share", "fraction", false, 'C'),
    layer("blame.wan_share", "fraction", false, 'C'),
    layer("blame.tier_cold_share", "fraction", false, 'C'),
    layer("host.dispatch_self_ms", "ms", false, 'P'),
    layer("host.run_call_ms", "ms", false, 'S'),
    layer("host.queue_wait_p50_us", "us", false, 'C'),
    layer("host.service_p50_us", "us", false, 'C'),
    layer("host.retries", "count", false, 'C'),
    layer("host.qfull", "count", false, 'C'),
    layer("repl.self_ms", "ms", false, 'P'),
    layer("repl.wire_bytes_per_payload_byte", "x", false, 'C'),
    layer("repl.retransmits", "count", false, 'C'),
    layer("repl.dedup_hit_share", "fraction", true, 'C'),
    layer("cluster.self_ms", "ms", false, 'P'),
    layer("cluster.write_call_us", "us", false, 'S'),
    layer("cluster.tick_call_us", "us", false, 'S'),
    layer("cluster.probes", "count", false, 'C'),
    layer("cluster.rebuild_sectors_shipped", "count", false, 'C'),
    layer("cluster.rebuild_dedup_hit_share", "fraction", true, 'C'),
    layer("cluster.redirects", "count", false, 'C'),
    layer("torture.campaign_call_ms", "ms", false, 'S'),
    layer("torture.phase_hit_share", "fraction", true, 'S'),
    layer("wkld.gen_ns_per_op", "ns/op", false, 'K'),
    layer("wkld.gen_share", "fraction", false, 'S'),
    layer("alloc.count_per_op", "count", false, 'A'),
    layer("alloc.bytes_per_op", "B/op", false, 'A'),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn better(higher: bool) -> &'static str {
        if higher {
            "higher"
        } else {
            "lower"
        }
    }

    /// `BENCHMARK.json` is hand-laid-out one metric per line; this checks
    /// each catalog entry appears there verbatim, and nothing else does.
    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for e in &END_TO_END {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                e.name,
                e.unit,
                better(e.higher_is_better),
                e.bound
            );
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for l in &PER_LAYER {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                l.name,
                l.unit,
                better(l.higher_is_better)
            );
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for w in crate::workloads::NAMES {
            assert!(text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
        let names = text.matches("{\"name\": ").count();
        assert_eq!(
            names,
            END_TO_END.len() + PER_LAYER.len() + crate::workloads::NAMES.len()
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)));
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }
}
