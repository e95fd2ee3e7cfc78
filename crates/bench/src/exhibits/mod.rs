//! The registry: every exhibit, in the paper's order. `about` says what
//! the exhibit reproduces and what it asserts; the gate is the argument
//! list its committed `results/` files were produced with.

use crate::Exhibit;

/// Gate arguments of an exhibit that takes none.
const NO_ARGS: Option<&[&str]> = Some(&[]);
/// Gate arguments of an exhibit whose committed files are its CI-sized run.
const SMOKE: Option<&[&str]> = Some(&["--smoke"]);

/// Declares each exhibit's module and its [`EXHIBITS`] entry from one
/// line, so a name cannot disagree with its module or its `run`.
macro_rules! registry {
    ($($name:ident: $gate:expr, $about:literal;)*) => {
        $(mod $name;)*

        /// Every exhibit of the reproduction.
        pub const EXHIBITS: &[Exhibit] = &[$(Exhibit {
            name: stringify!($name),
            about: $about,
            gate: $gate,
            run: $name::run,
        }),*];
    };
}

registry! {
    table1: NO_ARGS,
        "Table 1: a 32 KiB 70/30 rate sweep to saturation on the mini array, latency at half load, \
         and the die-scaled / controller-bound appliance rows against the modelled disk array";
    table2: NO_ARGS,
        "Table 2: FA-450 consolidation ratios for the published key-value deployments";
    fig1_ssd: NO_ARGS,
        "Figure 1: SSD geometry, erase-before-program, sequential page programming, and a read \
         stalling behind an erase on its die";
    fig2_array: NO_ARGS,
        "Figure 2: active-active ports and a stateless-controller takeover; asserts the data reads \
         back intact after failover";
    fig3_segment: NO_ARGS,
        "Figure 3: a segment with data stripes from the front, log stripes from the back and live \
         parity columns; asserts the last stripe opens with the log-stripe magic";
    fig4_wal: NO_ARGS,
        "Figure 4: commits acked at NVRAM, a checkpoint persisting the patch, the NVRAM trim, and a \
         harmless replay; asserts the read-back";
    fig5_frontier: NO_ARGS,
        "Figure 5: boot region and frontier set; recovery scan with the frontier set vs a full scan";
    fig6_mediums: NO_ARGS,
        "Figure 6: the paper's nine-row medium table rebuilt row for row, and five lookups resolved \
         through it";
    fig7_fiveminute: SMOKE,
        "Figure 7: relative cost vs access interval and the RAM/flash crossovers, then a \
         failure-injection trace sampled by the flight recorder; asserts every driven read lands \
         in exactly one interval and the pull/revive window sits inside the trace (--smoke: one \
         minute)";
    exp_pull_drives: NO_ARGS,
        "E1 (§1, §4.2): throughput and read p99 through two drive pulls, a controller failure and \
         reinsertion";
    exp_tail_latency: NO_ARGS,
        "E2 (§1, §4.4): read p99.9 against the 1 ms budget with the read-around scheduler on and off \
         (--fa450: the full 2816-die geometry; --slowest N: the N slowest reads, stage by stage)";
    exp_recovery: NO_ARGS,
        "E3 (§4.3): failover scan with the frontier set vs a full scan, at two geometries";
    exp_read_around: NO_ARGS,
        "E4 (§4.4): share of reads reconstructed and read amplification for read-heavy, mixed and \
         write-heavy mixes";
    exp_reduction: NO_ARGS,
        "E5 (§1, §5.2): data reduction by application class through the full write path";
    exp_anchor: NO_ARGS,
        "E6 (§4.7): duplicate-run detection vs run length, averaged over all eight alignments";
    exp_elision: NO_ARGS,
        "E7 (§4.10): deleting 50K keys by elision vs tombstones, and elide-table boundedness";
    exp_durability: NO_ARGS,
        "E8 (§4.2): asserts exact data under every two-drive failure pair; three-drive trios must be \
         unavailable or exact, never wrong";
    exp_ftl: NO_ARGS,
        "E9 (§2.1, §3.3): raw-FTL write amplification and latency, sequential vs random overwrites";
    exp_pagescan: NO_ARGS,
        "E10 (§4.9): dictionary page compression, and the compressed-domain equality scan against \
         decode-then-compare; asserts both find the same matches (wall times on stderr)";
    exp_wear: NO_ARGS,
        "§5.1: an array on flash worn to its rating, aged four virtual years; asserts the scrubbed \
         run keeps its data";
    exp_rollback: NO_ARGS,
        "§5.2.1: analytic Gray-style model of rollback rate vs storage latency";
    exp_host_qd: SMOKE,
        "§2, §4.4: closed-loop queue-depth sweep through purity-host; asserts IOPS rises and p50/p99 \
         do not fall as queue depth rises (--smoke: two depths, 600 ops)";
    exp_host_failover: SMOKE,
        "§4.1: the primary dies with QD 32 outstanding; asserts acks were in flight, and every op \
         acked exactly once: zero lost, duplicated, stranded or failed (--smoke: 1500 ops)";
    exp_slo: SMOKE,
        "§1, §4.4: calm / drive pull + GC storm / calm under the flight recorder; asserts p99.9 \
         passes the 1 ms budget only inside the window, exactly one incident opens with per-die \
         evidence and closes on cooldown, and two same-seed exports are identical (--smoke: shorter \
         arc)";
    exp_torture: Some(&["--seeds", "10", "--smoke"]),
        "§4.1, §4.3: one seeded fault campaign per seed under the durability oracle: whole-array \
         power loss rotating through the five crash phases (--kind array, the default), a member \
         killed or partitioned (--kind cluster), the replication destination crashed mid-ship \
         (--kind repl); asserts zero violations, a sabotaged run of the kind caught, and for array \
         at least four phases hit; a failure of any kind is shrunk to one line in \
         results/exp_torture_repro.txt (--seeds N, --repro LINE; --smoke: shorter array campaigns)";
    exp_replication: SMOKE,
        "§1, §4.1: seed plus incremental ships over a bandwidth x flap-rate grid; asserts clean links \
         never retransmit, retransmits rise with flap rate, the thin pipe is slower, and the sweep \
         replays byte-identically (--smoke: smaller volume)";
    exp_cluster: SMOKE,
        "§1, §4.1: one member killed mid-traffic over a size x link grid; asserts 100% of ops acked, \
         the death confirmed, a rebuild run, and a byte-identical second sweep (--smoke: fewer ops; \
         the fault campaign is exp_torture --kind cluster)";
    exp_blame: NO_ARGS,
        "E17 (§4.2, §4.4): p99.9-cohort blame under a GC storm; asserts >=80% of it on die-stall \
         categories with read-around off, a >=5x cut with it on, cluster_redirect/reconstruct blame \
         only inside a member-kill window, and byte-identical same-seed exports";
    exp_fiveminute_live: NO_ARGS,
        "E18 (§5.2.2): Figure 7's crossovers measured from the running 2Q cache, and the migrator's \
         demote / cold-read / promote cycle over a VDI day; asserts retention falls with reduction, \
         tier_cold blame is charged, the last wave recovers, and two runs agree";
    bench_perf: None,
        "wall-clock cost of the simulator over six workloads, merged into BENCH_perf.json (--smoke, \
         --label NAME, --check PATH); not a function of the seed, so not gated";
}
