//! Cluster-plane torture: a seeded multi-array campaign that kills or
//! partitions one member of an N-node cluster mid-traffic and holds
//! the survivors to the cluster contract.
//!
//! The contract is the single-array durability oracle lifted to the
//! fleet — every client op is an oracle-staged write or a checked read
//! through a [`ClientView`] — with two cluster-specific clauses:
//!
//! 1. **Exactly-once acks, cluster-wide.** Every client op is
//!    registered with the shared [`AckAudit`] before issue and either
//!    acked once or failed once — never both, never twice, never
//!    stranded — across detection, epoch changes and rebuild.
//! 2. **Acked data survives the fault.** After SWIM confirms the
//!    victim and rebuild restores full redundancy, the oracle's full
//!    sweep reads back bit-exact from the surviving owners, and every
//!    replica of every shard agrees byte-for-byte.
//!
//! A run is a pure function of its [`ClusterCampaignSpec`]: same spec,
//! same ops, same detection instant, same outcome — which is what lets
//! CI sweep seeds and replay any failure exactly.

use crate::campaign::final_checks;
use crate::oracle::{DurabilityOracle, ReadTarget};
use crate::shrink::{halvings, Campaign, Field};
use purity_cluster::{Cluster, ClusterClient, ClusterSpec, ClusterVolumeId};
use purity_core::{PurityError, Result, SnapshotId, VolumeId, SECTOR};
use purity_host::{AckAudit, AckAuditReport};
use purity_repl::LinkConfig;
use purity_sim::MS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which fault the campaign injects on the victim node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterFault {
    /// Power loss: SWIM must confirm the death and rebuild must
    /// re-establish full redundancy on the survivors.
    Kill,
    /// WAN partition (power stays on): the victim's links drop until
    /// the heal point. Depending on timing SWIM either refutes the
    /// suspicion (short partition) or confirms and evicts (long one);
    /// the data contract must hold either way.
    Partition {
        /// Ops after the fault before the partition heals.
        heal_after_ops: usize,
    },
}

impl std::fmt::Display for ClusterFault {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        match self {
            ClusterFault::Kill => write!(f, "kill"),
            ClusterFault::Partition { heal_after_ops } => write!(f, "partition:{heal_after_ops}"),
        }
    }
}

impl std::str::FromStr for ClusterFault {
    type Err = ();

    fn from_str(s: &str) -> std::result::Result<Self, ()> {
        match s.split_once(':') {
            None if s == "kill" => Ok(ClusterFault::Kill),
            Some(("partition", n)) => Ok(ClusterFault::Partition {
                heal_after_ops: n.parse().map_err(|_| ())?,
            }),
            _ => Err(()),
        }
    }
}

/// Everything that determines a cluster campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterCampaignSpec {
    /// Seed for the op mix, fault staging and every link schedule.
    pub seed: u64,
    /// Cluster size (>= 3 so a single fault leaves quorum).
    pub nodes: usize,
    /// Foreground client ops issued across the campaign.
    pub ops: usize,
    /// The injected fault.
    pub fault: ClusterFault,
    /// After stabilization, revive the victim and require a second
    /// (dedup-cheap) rebuild back to full redundancy. Kill only.
    pub revive: bool,
    /// Run the WAN mesh with flapping links instead of reliable ones,
    /// so rebuild must resume across stalls while the oracle watches.
    pub flaky_links: bool,
    /// Test-only sabotage: the last acked write is withheld from one
    /// in-sync replica behind the cluster's back. A correct contract
    /// MUST flag this run.
    pub sabotage: bool,
}

/// What a cluster campaign did.
#[derive(Debug, Clone, Default)]
pub struct ClusterCampaignOutcome {
    /// Contract violations; empty means the cluster held.
    pub violations: Vec<String>,
    /// Cluster-wide exactly-once ack accounting.
    pub audit: AckAuditReport,
    /// Client writes acked.
    pub acked_writes: u64,
    /// Client reads served.
    pub acked_reads: u64,
    /// Ops refused with `Unavailable` (failed, never acked).
    pub unavailable_ops: u64,
    /// Writes acked while a touched replica was dead or rebuilding.
    pub degraded_writes: u64,
    /// SWIM death confirmations.
    pub confirms: u64,
    /// SWIM refutations (partition healed in time).
    pub refutations: u64,
    /// Rebuild tasks completed.
    pub rebuilds_done: u64,
    /// Virtual ns from fault injection to membership epoch change
    /// (`None` when the fault was refuted instead of confirmed).
    pub detection_ns: Option<u64>,
    /// Final membership epoch.
    pub final_epoch: u64,
}

const VOLUME_BYTES: usize = 2 << 20;
/// Single-sector writes issued after the cluster has stabilized.
const POST_FAULT_WRITES: usize = 8;

/// The cluster as one client sees it: what the oracle reads back
/// through. The oracle's `VolumeId` is the cluster volume's index.
struct ClientView {
    cluster: Cluster,
    client: ClusterClient,
}

impl ReadTarget for ClientView {
    fn read(&mut self, volume: VolumeId, sector: u64, n: usize) -> Result<Vec<u8>> {
        let (v, at) = (volume.0 as ClusterVolumeId, sector * SECTOR as u64);
        self.cluster.read(&mut self.client, v, at, n * SECTOR)
    }

    fn read_snapshot(&mut self, _: SnapshotId, _: u64, _: usize) -> Result<Vec<u8>> {
        Err(PurityError::NoSuchSnapshot)
    }
}

/// Run state threaded through the client ops.
struct Drill {
    view: ClientView,
    vol: VolumeId,
    oracle: DurabilityOracle,
    audit: AckAudit,
    next_op: u64,
    out: ClusterCampaignOutcome,
}

impl Drill {
    fn flag(&mut self, violation: impl Into<String>) {
        self.out.violations.push(violation.into());
    }

    fn register(&mut self) -> u64 {
        self.next_op += 1;
        self.audit.register(self.next_op - 1);
        self.next_op - 1
    }

    /// Books one client op's result with the audit: acked, refused with
    /// `Unavailable` (a clean failure), or failed with anything else (a
    /// violation).
    fn book<T>(&mut self, id: u64, what: &str, result: Result<T>) -> Option<T> {
        match result {
            Ok(v) => {
                self.audit.ack(id);
                return Some(v);
            }
            Err(PurityError::Unavailable(_)) => self.out.unavailable_ops += 1,
            Err(e) => self.flag(format!("{what} failed unexpectedly: {e:?}")),
        }
        self.audit.fail(id);
        None
    }

    /// One audited client write through the oracle. Returns whether it
    /// was acked.
    fn write(&mut self, what: &str, off: usize, data: &[u8]) -> bool {
        let id = self.register();
        let (v, start, ClientView { cluster, client }) =
            (self.vol, (off / SECTOR) as u64, &mut self.view);
        let issue = || cluster.write(client, v.0 as ClusterVolumeId, off as u64, data);
        let result = self.oracle.write_through(v, start, data, issue);
        let refused = matches!(result, Err(PurityError::Unavailable(_)));
        let acked = self.book(id, &format!("{what} write"), result).is_some();
        if acked {
            self.out.acked_writes += 1;
        } else if refused {
            self.oracle.reject_staged();
        } else {
            let settled = self.oracle.settle(&mut self.view);
            self.out.violations.extend(settled);
        }
        acked
    }

    /// One audited client read, checked against the oracle.
    fn read(&mut self, what: &str, off: usize, len: usize) {
        let id = self.register();
        let start = (off / SECTOR) as u64;
        let result = self.view.read(self.vol, start, len / SECTOR);
        if let Some(got) = self.book(id, &format!("{what} read"), result) {
            self.out.acked_reads += 1;
            let bad = self.oracle.check_read(self.vol, start, &got, what);
            self.out.violations.extend(bad);
        }
    }

    /// The first live in-sync replica's copy of the sector at `off`:
    /// (node, backing volume, byte offset in it, the bytes).
    fn replica_copy(&mut self, off: usize) -> Option<(usize, VolumeId, u64, Vec<u8>)> {
        let c = &mut self.view.cluster;
        let sector = (off / SECTOR) as u64;
        let per_shard = c.spec().shard_sectors;
        let cvol = c.volume(self.vol.0 as ClusterVolumeId)?;
        let shard = cvol.shards.get((sector / per_shard) as usize)?;
        let mut owners = shard.owners.iter().zip(&shard.in_sync);
        let (&node, _) = owners.find(|(&o, &synced)| synced && c.array(o).powered())?;
        let (backing, at) = (shard.backing(node)?, (sector % per_shard) * SECTOR as u64);
        let (bytes, _) = c.array_mut(node).read(backing, at, SECTOR).ok()?;
        Some((node, backing, at, bytes))
    }

    /// Ticks until the cluster is fully redundant with no rebuild queued
    /// — and, with `await_confirm` after a kill, the death confirmed: a
    /// victim that owned no shard leaves the cluster redundant from the
    /// start.
    fn stabilize(&mut self, await_confirm: bool) {
        let c = &mut self.view.cluster;
        for _ in 0..800 {
            let confirmed = c.last_confirm_at.is_some() || !await_confirm;
            if confirmed && c.fully_redundant() && c.rebuild_backlog() == 0 {
                break;
            }
            c.tick(100 * MS);
        }
    }
}

/// Runs one seeded cluster fault campaign.
fn run(spec: &ClusterCampaignSpec) -> ClusterCampaignOutcome {
    let fail = |why: String| ClusterCampaignOutcome {
        violations: vec![why],
        ..Default::default()
    };
    if spec.nodes < 3 {
        let n = spec.nodes;
        return fail(format!(
            "spec: {n} nodes; one fault needs >= 3 to leave quorum"
        ));
    }
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xC1A5_7E12_5EED_0001);

    let mut cspec = ClusterSpec::test_small(spec.nodes, spec.seed);
    if spec.flaky_links {
        cspec.link = LinkConfig::flaky(100 << 20, 0, 700 * MS, 120 * MS);
    }
    let mut cluster = match Cluster::new(cspec) {
        Ok(c) => c,
        Err(e) => return fail(format!("cluster bring-up failed: {e:?}")),
    };
    let cvol = match cluster.create_volume("torture", VOLUME_BYTES as u64) {
        Ok(v) => v,
        Err(e) => return fail(format!("create_volume failed: {e:?}")),
    };
    let client = cluster.client();
    let mut d = Drill {
        view: ClientView { cluster, client },
        vol: VolumeId(cvol as u64),
        oracle: DurabilityOracle::new(),
        audit: AckAudit::new(),
        next_op: 0,
        out: ClusterCampaignOutcome::default(),
    };
    d.oracle.create_volume(d.vol, VOLUME_BYTES as u64);

    let victim = rng.gen_range(0..spec.nodes);
    let fault_at = spec.ops / 4 + rng.gen_range(0..(spec.ops / 4).max(1));
    // `Some(op)` while a partition is in force and due to heal at `op`.
    let mut heal_at = None;

    for op in 0..spec.ops {
        let c = &mut d.view.cluster;
        if op == fault_at {
            match spec.fault {
                ClusterFault::Kill => c.kill(victim),
                ClusterFault::Partition { heal_after_ops } => {
                    c.partition(victim, true);
                    heal_at = Some(op.saturating_add(heal_after_ops));
                }
            }
        }
        if heal_at.is_some_and(|at| op >= at) {
            c.partition(victim, false);
            heal_at = None;
        }

        let write = rng.gen_bool(0.7);
        let len = SECTOR << rng.gen_range(0..5u32);
        let off = rng.gen_range(0..(VOLUME_BYTES - len) / SECTOR) * SECTOR;
        if write {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            d.write(&format!("op {op}:"), off, &data);
        } else {
            d.read(&format!("op {op}:"), off, len);
        }
        d.view.cluster.tick(40 * MS);
    }

    // Heal a partition that outlived the op stream so stabilization
    // does not wait on a fault nobody will clear.
    if heal_at.is_some() {
        d.view.cluster.partition(victim, false);
    }

    // Drive to stability: rebuild (if the victim was confirmed dead)
    // must restore full redundancy.
    let killed = matches!(spec.fault, ClusterFault::Kill) && spec.ops > fault_at;
    d.stabilize(killed);
    if !d.view.cluster.fully_redundant() {
        d.flag("cluster never returned to full redundancy");
    }
    let c = &d.view.cluster;
    d.out.detection_ns = c.last_kill_at.zip(c.last_confirm_at).map(|(k, c)| c - k);
    if killed && d.out.detection_ns.is_none() {
        d.flag("death was never confirmed");
    }

    // Optional rejoin drill: the victim comes back, re-syncs its
    // durable config slot, and a second rebuild must complete.
    if spec.revive && killed {
        if let Err(e) = d.view.cluster.revive(victim) {
            d.flag(format!("revive failed: {e:?}"));
        } else {
            d.stabilize(false);
            if !d.view.cluster.fully_redundant() {
                d.flag("post-revive rebuild never completed");
            }
            if !d.view.cluster.live_members().contains(&victim) {
                d.flag("revived node not live");
            }
        }
    }

    // Post-fault traffic still acks exactly once.
    for i in 0..POST_FAULT_WRITES {
        let off = rng.gen_range(0..(VOLUME_BYTES - SECTOR) / SECTOR) * SECTOR;
        let data: Vec<u8> = (0..SECTOR).map(|_| rng.gen()).collect();
        let withheld = match spec.sabotage && i + 1 == POST_FAULT_WRITES {
            true => d.replica_copy(off),
            false => None,
        };
        if !d.write("post-fault:", off, &data) {
            d.flag("post-fault write was not acked");
        }
        if let Some((node, backing, at, before)) = withheld {
            // The sabotage: one replica goes back to what it held.
            let _ = d.view.cluster.array_mut(node).write(backing, at, &before);
        }
        d.view.cluster.tick(40 * MS);
    }

    // Clause 1: exactly-once acks.
    d.out.audit = d.audit.report();
    d.out.violations.extend(d.audit.violations());
    if d.out.audit.stranded_ops > 0 {
        let n = d.out.audit.stranded_ops;
        d.flag(format!("{n} ops stranded without ack or fail"));
    }

    // Clause 2: every acked byte reads back bit-exact, and all
    // replicas of every shard agree.
    let sweep = d.oracle.verify_all(&mut d.view);
    d.out.violations.extend(sweep);
    let c = &mut d.view.cluster;
    let shards = c.volume(cvol).map(|v| v.shards.clone()).unwrap_or_default();
    let shard_len = c.spec().shard_sectors as usize * SECTOR;
    for (s, shard) in shards.iter().enumerate() {
        let mut first: Option<(usize, Vec<u8>)> = None;
        for (&o, &synced) in shard.owners.iter().zip(&shard.in_sync) {
            let copy = match shard.backing(o) {
                _ if !synced => Err("left out of sync".into()),
                None => Err("has no backing volume".into()),
                Some(b) => c
                    .array_mut(o)
                    .read(b, 0, shard_len)
                    .map_err(|e| format!("{e:?}")),
            };
            let bad = match (copy, &first) {
                (Err(why), _) => format!("shard {s} replica on node {o}: {why}"),
                (Ok((bytes, _)), Some((o0, b0))) if bytes != *b0 => {
                    format!("shard {s} replicas on nodes {o0} and {o} diverge")
                }
                (Ok((bytes, _)), _) => {
                    first.get_or_insert((o, bytes));
                    continue;
                }
            };
            d.out.violations.push(bad);
        }
    }

    for node in 0..spec.nodes {
        let broken = final_checks(&format!("node {node}: "), c.array(node));
        d.out.violations.extend(broken);
    }

    d.out.degraded_writes = c.stats().degraded_writes;
    d.out.confirms = c.swim_stats().confirms;
    d.out.refutations = c.swim_stats().refutations;
    d.out.rebuilds_done = c.rebuild_stats().done;
    d.out.final_epoch = c.epoch();
    d.out
}

impl Campaign for ClusterCampaignSpec {
    const KIND: &'static str = "cluster";
    type Outcome = ClusterCampaignOutcome;

    /// Derives a varied campaign personality from one seed.
    fn from_seed(seed: u64) -> Self {
        Self {
            seed,
            nodes: 3 + (seed % 2) as usize,
            ops: 96,
            fault: if seed % 3 == 2 {
                ClusterFault::Partition {
                    heal_after_ops: 8 + (seed % 17) as usize,
                }
            } else {
                ClusterFault::Kill
            },
            revive: seed.is_multiple_of(3),
            flaky_links: seed % 2 == 1,
            sabotage: false,
        }
    }

    fn run(&self) -> ClusterCampaignOutcome {
        run(self)
    }

    fn violations(outcome: &ClusterCampaignOutcome) -> &[String] {
        &outcome.violations
    }

    /// Fewer client ops first, then the simpler personality: no rejoin
    /// drill, reliable links.
    fn smaller(&self) -> Vec<Self> {
        let mut out: Vec<Self> = halvings(self.ops)
            .map(|ops| Self { ops, ..*self })
            .collect();
        if self.revive {
            out.push(Self {
                revive: false,
                ..*self
            });
        }
        if self.flaky_links {
            out.push(Self {
                flaky_links: false,
                ..*self
            });
        }
        out
    }

    fn fields(&mut self) -> Vec<(&'static str, &mut dyn Field)> {
        vec![
            ("seed", &mut self.seed),
            ("nodes", &mut self.nodes),
            ("ops", &mut self.ops),
            ("fault", &mut self.fault),
            ("revive", &mut self.revive),
            ("flaky", &mut self.flaky_links),
            ("sabotage", &mut self.sabotage),
        ]
    }
}
