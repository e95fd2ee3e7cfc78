//! The cluster itself: N `FlashArray`s, the WAN mesh, placement,
//! failure detection, config replication, rebuild, and the client I/O
//! path.
//!
//! ## Data model
//!
//! A *cluster volume* is striped into fixed-size shards; each shard is
//! backed by a node-local volume (`cv{v}.s{shard}`) on the `replicas`
//! arrays that rendezvous hashing places it on. Writes go to every
//! live in-sync replica; reads come from the first. A replica that
//! misses writes (its node was dead or still rebuilding) is *out of
//! sync* and never serves reads until the rebuild queue has delta-
//! shipped it back.
//!
//! ## Time model
//!
//! Every array keeps its own virtual clock; [`Cluster::tick`] advances
//! them in lockstep (dead arrays' clocks are dragged forward without
//! simulating work, the same convention the repl transfer engine
//! uses). All protocol activity — SWIM probes, config replication,
//! rebuild shipping — happens inside `tick`, so a run is a pure
//! function of the spec and the fault schedule.
//!
//! ## Config replication
//!
//! The authoritative membership state is a checksummed
//! [`ClusterConfigRecord`] re-encoded after every epoch change and
//! pushed to each live node's durable config slot over its WAN link
//! (a dead node restores its last slot on rejoin and then syncs from
//! the lowest-id live peer — a stale or torn record decodes to `None`
//! and is simply replaced).

use crate::placement::PlacementMap;
use crate::rebuild::{RebuildQueue, RebuildStats, RebuildTask};
use crate::swim::{SwimConfig, SwimDetector, SwimEvent, SwimStats};
use purity_core::records::{
    decode_cluster_config, encode_cluster_config, ClusterConfigRecord, ClusterMember, MemberStatus,
};
use purity_core::{
    ArrayConfig, FlashArray, Port, PowerLossSpec, PurityError, Result, VolumeId, SECTOR,
};
use purity_obs::{profile_scope, OpTrace, Plane};
use purity_repl::{ship_snapshot, FabricStats, LinkConfig, LinkMesh, WireOutcome};
use purity_sim::Nanos;

/// Everything that shapes a cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Member arrays.
    pub nodes: usize,
    /// Replicas per shard.
    pub replicas: usize,
    /// Sectors per shard.
    pub shard_sectors: u64,
    /// Seed for the placement map (cluster-lifetime constant).
    pub placement_seed: u64,
    /// Seed deriving every pair link's flap schedule.
    pub mesh_seed: u64,
    /// Per-pair WAN link shape.
    pub link: LinkConfig,
    /// Failure-detector knobs.
    pub swim: SwimConfig,
    /// Per-node array configuration.
    pub array: ArrayConfig,
    /// Rebuild tasks progressed per tick (foreground interleave grain).
    pub rebuild_tasks_per_tick: usize,
}

impl ClusterSpec {
    /// A small deterministic cluster for tests and exhibits.
    pub fn test_small(nodes: usize, seed: u64) -> Self {
        Self {
            nodes,
            replicas: 2,
            shard_sectors: 2048, // 1 MiB shards at 512 B sectors
            placement_seed: seed ^ 0xC1A5_7E12,
            mesh_seed: seed ^ 0x3E5B_0D11,
            link: LinkConfig::reliable(200 << 20),
            swim: SwimConfig {
                seed: seed ^ 0x51_13,
                ..SwimConfig::default()
            },
            array: ArrayConfig::test_small(),
            rebuild_tasks_per_tick: 1,
        }
    }
}

/// One shard of a cluster volume.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Owning nodes, placement order (primary first).
    pub owners: Vec<usize>,
    /// Parallel to `owners`: whether that replica has every acked
    /// write. Out-of-sync replicas never serve reads.
    pub in_sync: Vec<bool>,
    /// Node-local backing volume per node that ever owned the shard.
    backing: Vec<Option<VolumeId>>,
}

impl Shard {
    /// The backing volume on `node`, if one was ever created.
    pub fn backing(&self, node: usize) -> Option<VolumeId> {
        self.backing[node]
    }

    /// Owner indices that are in sync.
    fn sync_owners(&self) -> impl Iterator<Item = usize> + '_ {
        self.owners
            .iter()
            .copied()
            .zip(self.in_sync.iter().copied())
            .filter_map(|(o, s)| s.then_some(o))
    }
}

/// A striped, replicated cluster volume.
#[derive(Debug, Clone)]
pub struct ClusterVolume {
    /// Cluster-wide name.
    pub name: String,
    /// Total size in sectors.
    pub size_sectors: u64,
    /// The shards, in stripe order.
    pub shards: Vec<Shard>,
}

/// Cluster-wide routing / availability counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterStats {
    /// Client writes acked.
    pub writes: u64,
    /// Client reads served.
    pub reads: u64,
    /// Client ops refused because no live in-sync replica existed.
    pub unavailable_ops: u64,
    /// Writes acked with at least one replica skipped (dead or
    /// rebuilding).
    pub degraded_writes: u64,
    /// Client retries after a stale placement version (the
    /// retry-on-redirect path).
    pub redirects: u64,
    /// Config records pushed to live nodes.
    pub config_replications: u64,
    /// Config pushes that could not be delivered (partitioned peer).
    pub config_push_failures: u64,
    /// Membership epoch bumps.
    pub epoch_changes: u64,
}

/// A client handle: caches the placement version it last routed with,
/// so a membership change forces one redirect + refresh round, exactly
/// like an initiator whose map went stale.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterClient {
    cached_version: u64,
}

/// Volume handle.
pub type ClusterVolumeId = usize;

/// The scale-out plane over N arrays.
pub struct Cluster {
    spec: ClusterSpec,
    arrays: Vec<FlashArray>,
    mesh: LinkMesh,
    placement: PlacementMap,
    swim: SwimDetector,
    config: ClusterConfigRecord,
    /// Per-node durable config slot (encoded record, NVRAM-style).
    config_slots: Vec<Option<Vec<u8>>>,
    volumes: Vec<ClusterVolume>,
    rebuild: RebuildQueue,
    stats: ClusterStats,
    fabric_stats: FabricStats,
    /// Kill instants, for detection-latency accounting in exports.
    pub last_kill_at: Option<Nanos>,
    /// First confirm instant after the last kill.
    pub last_confirm_at: Option<Nanos>,
    /// Instant full redundancy was last restored.
    pub last_redundant_at: Option<Nanos>,
}

impl Cluster {
    /// Builds the cluster: N arrays on fresh clocks, the pair-link
    /// mesh, an all-alive config at epoch 1, and the initial placement
    /// map — then replicates the config record to every node.
    pub fn new(spec: ClusterSpec) -> Result<Self> {
        assert!(spec.nodes >= 2, "a cluster needs at least two arrays");
        assert!(
            spec.replicas >= 1 && spec.replicas <= spec.nodes,
            "replicas must fit the membership"
        );
        let mut arrays = Vec::with_capacity(spec.nodes);
        for _ in 0..spec.nodes {
            arrays.push(FlashArray::new(spec.array.clone())?);
        }
        let mesh = LinkMesh::new(spec.nodes, spec.link, spec.mesh_seed);
        let members: Vec<u64> = (0..spec.nodes as u64).collect();
        let placement = PlacementMap::new(spec.placement_seed, &members);
        let config = ClusterConfigRecord {
            epoch: 1,
            placement_version: placement.version(),
            placement_seed: spec.placement_seed,
            members: members
                .iter()
                .map(|&node| ClusterMember {
                    node,
                    status: MemberStatus::Alive,
                    incarnation: 1,
                })
                .collect(),
        };
        let swim = SwimDetector::new(spec.nodes, spec.swim);
        let mut cluster = Self {
            config_slots: vec![None; spec.nodes],
            spec,
            arrays,
            mesh,
            placement,
            swim,
            config,
            volumes: Vec::new(),
            rebuild: RebuildQueue::new(),
            stats: ClusterStats::default(),
            fabric_stats: FabricStats::default(),
            last_kill_at: None,
            last_confirm_at: None,
            last_redundant_at: None,
        };
        cluster.replicate_config();
        Ok(cluster)
    }

    /// The spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Routing/availability counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Failure-detector counters.
    pub fn swim_stats(&self) -> SwimStats {
        self.swim.stats()
    }

    /// Rebuild counters.
    pub fn rebuild_stats(&self) -> RebuildStats {
        self.rebuild.stats()
    }

    /// Rebuild tasks still pending or in flight.
    pub fn rebuild_backlog(&self) -> usize {
        self.rebuild.backlog()
    }

    /// Wire-level shipping counters (rebuild traffic).
    pub fn fabric_stats(&self) -> FabricStats {
        self.fabric_stats
    }

    /// Current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.config.epoch
    }

    /// The replicated config record.
    pub fn config(&self) -> &ClusterConfigRecord {
        &self.config
    }

    /// The placement map.
    pub fn placement(&self) -> &PlacementMap {
        &self.placement
    }

    /// Direct access to a member array (tests, torture oracles).
    pub fn array(&self, node: usize) -> &FlashArray {
        &self.arrays[node]
    }

    /// Mutable access to a member array (torture campaigns arm crash
    /// triggers through this).
    pub fn array_mut(&mut self, node: usize) -> &mut FlashArray {
        &mut self.arrays[node]
    }

    /// A cluster volume.
    pub fn volume(&self, v: ClusterVolumeId) -> Option<&ClusterVolume> {
        self.volumes.get(v)
    }

    /// The cluster-wide virtual now: the furthest member clock.
    pub fn now(&self) -> Nanos {
        self.arrays.iter().map(|a| a.now()).max().unwrap_or(0)
    }

    /// Live (powered and not confirmed-dead) node indices, ascending.
    pub fn live_members(&self) -> Vec<usize> {
        self.config
            .members
            .iter()
            .filter(|m| m.status == MemberStatus::Alive)
            .map(|m| m.node as usize)
            .collect()
    }

    fn powered_flags(&self) -> Vec<bool> {
        self.arrays.iter().map(|a| a.powered()).collect()
    }

    /// Drags every member clock to the cluster-wide `now` (powered
    /// arrays advance and do background work; dead ones just move).
    fn sync_clocks(&mut self) {
        let now = self.now();
        for arr in &mut self.arrays {
            let t = arr.now();
            if now > t {
                if arr.powered() {
                    arr.advance(now - t);
                } else {
                    arr.clock().advance_to(now);
                }
            }
        }
    }

    /// Global shard key fed to the placement hash.
    fn shard_key(volume: usize, shard: usize) -> u64 {
        ((volume as u64) << 32) | shard as u64
    }

    /// Creates a striped, replicated cluster volume.
    pub fn create_volume(&mut self, name: &str, size_bytes: u64) -> Result<ClusterVolumeId> {
        profile_scope!(Plane::Cluster);
        let size_sectors = size_bytes.div_ceil(SECTOR as u64);
        let nshards = size_sectors.div_ceil(self.spec.shard_sectors) as usize;
        let vid = self.volumes.len();
        let mut shards = Vec::with_capacity(nshards);
        for s in 0..nshards {
            let owners: Vec<usize> = self
                .placement
                .owners(Self::shard_key(vid, s), self.spec.replicas)
                .into_iter()
                .map(|n| n as usize)
                .collect();
            let mut backing = vec![None; self.spec.nodes];
            for &o in &owners {
                let local = self.arrays[o].create_volume(
                    &format!("cv{vid}.s{s}"),
                    self.spec.shard_sectors * SECTOR as u64,
                )?;
                backing[o] = Some(local);
            }
            shards.push(Shard {
                in_sync: vec![true; owners.len()],
                owners,
                backing,
            });
        }
        self.volumes.push(ClusterVolume {
            name: name.to_string(),
            size_sectors,
            shards,
        });
        Ok(vid)
    }

    /// Refreshes a stale client map, counting the redirect round a real
    /// initiator would pay. Returns whether a redirect happened so the
    /// op's trace can charge the round to `cluster_redirect`.
    fn refresh_client(&mut self, client: &mut ClusterClient) -> bool {
        if client.cached_version != self.placement.version() {
            self.stats.redirects += 1;
            client.cached_version = self.placement.version();
            true
        } else {
            false
        }
    }

    /// Modeled cost of one placement-map refresh round: a round trip to
    /// a peer over the WAN mesh. Charged only to the op's trace — the
    /// member clocks are untouched, exactly like every other span cost
    /// here (spans *explain* latency already paid; the redirect round
    /// is the one cost the serial client model doesn't otherwise see).
    fn redirect_cost(&self) -> Nanos {
        (2 * self.spec.link.latency).max(1_000)
    }

    /// Finishes a cluster op's end-to-end trace into the lowest live
    /// member's tracer (the node a real client's session would be
    /// pinned to), so cluster-plane blame shows up in that member's
    /// observability export.
    fn finish_trace(&self, trace: OpTrace, completed_at: Nanos) {
        if let Some(&sink) = self.live_members().first() {
            self.arrays[sink].obs().tracer.finish(trace, completed_at);
        }
    }

    /// Splits `[offset, offset+len)` into per-shard `(shard, start
    /// sector in shard, sectors)` runs.
    fn shard_runs(
        &self,
        v: ClusterVolumeId,
        offset: u64,
        len: u64,
    ) -> Result<Vec<(usize, u64, u64)>> {
        let vol = self.volumes.get(v).ok_or(PurityError::NoSuchVolume)?;
        if !offset.is_multiple_of(SECTOR as u64) || !len.is_multiple_of(SECTOR as u64) {
            return Err(PurityError::BadRequest("unaligned cluster I/O".into()));
        }
        let start = offset / SECTOR as u64;
        let sectors = len / SECTOR as u64;
        if start + sectors > vol.size_sectors {
            return Err(PurityError::BadRequest(
                "cluster I/O past volume end".into(),
            ));
        }
        let mut runs = Vec::new();
        let mut at = start;
        let mut left = sectors;
        while left > 0 {
            let shard = (at / self.spec.shard_sectors) as usize;
            let within = at % self.spec.shard_sectors;
            let n = left.min(self.spec.shard_sectors - within);
            runs.push((shard, within, n));
            at += n;
            left -= n;
        }
        Ok(runs)
    }

    /// Client write: every live in-sync replica of every touched shard
    /// gets the data; the ack means at least one replica per shard has
    /// it durably. Replicas that are dead or rebuilding are skipped
    /// (degraded write) — catch-up delta shipping owes them the data.
    pub fn write(
        &mut self,
        client: &mut ClusterClient,
        v: ClusterVolumeId,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        profile_scope!(Plane::Cluster);
        // The op's trace lives on a synthetic cluster timeline anchored
        // at the cluster-wide now; member-array spans are rebased onto
        // it so one tree explains the whole op.
        let t0 = self.now();
        let mut trace = OpTrace::new("cluster_write", t0);
        let mut cursor = t0;
        if self.refresh_client(client) {
            let cost = self.redirect_cost();
            trace.stage_note(
                "cluster_redirect",
                cursor,
                cursor + cost,
                "stale placement map; refreshed from cluster".into(),
            );
            cursor += cost;
        }
        let runs = self.shard_runs(v, offset, data.len() as u64)?;
        // Pass 1: every touched shard must have a live in-sync replica,
        // or the op is refused before any replica is mutated.
        for &(shard, _, _) in &runs {
            let sh = &self.volumes[v].shards[shard];
            if !sh.sync_owners().any(|o| self.arrays[o].powered()) {
                self.stats.unavailable_ops += 1;
                return Err(PurityError::Unavailable(format!(
                    "no live in-sync replica for cv{v}.s{shard}"
                )));
            }
        }
        let mut consumed = 0usize;
        let mut degraded = false;
        for (shard, within, n) in runs {
            let part = &data[consumed..consumed + (n as usize) * SECTOR];
            consumed += part.len();
            let sh = self.volumes[v].shards[shard].clone();
            // Replica legs are logically parallel: each starts at the
            // shard's cursor; the shard completes at the slowest leg.
            let shard_start = cursor;
            let mut shard_latency: Nanos = 0;
            for (i, &o) in sh.owners.iter().enumerate() {
                if !sh.in_sync[i] {
                    degraded = true;
                    continue;
                }
                if !self.arrays[o].powered() {
                    // Replica just died under us: mark it out of sync —
                    // rebuild will restore it — and keep going.
                    self.volumes[v].shards[shard].in_sync[i] = false;
                    degraded = true;
                    continue;
                }
                let backing = sh.backing[o].expect("owner without backing volume");
                let member_now = self.arrays[o].now();
                let mut leg = OpTrace::new("cluster_write_leg", member_now);
                let (_, ack) = self.arrays[o].submit_write(
                    Port::Primary,
                    backing,
                    within * SECTOR as u64,
                    part,
                    Some(&mut leg),
                )?;
                trace.absorb_shifted(leg, shard_start as i64 - member_now as i64);
                shard_latency = shard_latency.max(ack.latency);
            }
            cursor = shard_start + shard_latency;
        }
        self.stats.writes += 1;
        if degraded {
            self.stats.degraded_writes += 1;
        }
        self.finish_trace(trace, cursor);
        Ok(())
    }

    /// Client read, served from the first live in-sync replica of each
    /// shard.
    pub fn read(
        &mut self,
        client: &mut ClusterClient,
        v: ClusterVolumeId,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        profile_scope!(Plane::Cluster);
        let t0 = self.now();
        let mut trace = OpTrace::new("cluster_read", t0);
        let mut cursor = t0;
        if self.refresh_client(client) {
            let cost = self.redirect_cost();
            trace.stage_note(
                "cluster_redirect",
                cursor,
                cursor + cost,
                "stale placement map; refreshed from cluster".into(),
            );
            cursor += cost;
        }
        let runs = self.shard_runs(v, offset, len as u64)?;
        let mut out = Vec::with_capacity(len);
        for (shard, within, n) in runs {
            let sh = self.volumes[v].shards[shard].clone();
            let Some(o) = sh.sync_owners().find(|&o| self.arrays[o].powered()) else {
                self.stats.unavailable_ops += 1;
                return Err(PurityError::Unavailable(format!(
                    "no live in-sync replica for cv{v}.s{shard}"
                )));
            };
            let backing = sh.backing[o].expect("owner without backing volume");
            let member_now = self.arrays[o].now();
            let mut leg = OpTrace::new("cluster_read_leg", member_now);
            let (_, bytes, ack) = self.arrays[o].submit_read(
                Port::Primary,
                backing,
                within * SECTOR as u64,
                (n as usize) * SECTOR,
                Some(&mut leg),
            )?;
            trace.absorb_shifted(leg, cursor as i64 - member_now as i64);
            if o != sh.owners[0] {
                // Degraded service: the preferred replica is dead or
                // still rebuilding, so this leg's whole cost is blamed
                // on serving the read around the loss.
                trace.stage_note(
                    "reconstruct",
                    cursor,
                    cursor + ack.latency,
                    format!("cv{v}.s{shard} served from fallback replica on node {o}"),
                );
            }
            cursor += ack.latency;
            out.extend_from_slice(&bytes);
        }
        self.stats.reads += 1;
        self.finish_trace(trace, cursor);
        Ok(out)
    }

    /// Whether every shard of every volume has its full replica count
    /// live and in sync.
    pub fn fully_redundant(&self) -> bool {
        self.volumes.iter().all(|vol| {
            vol.shards.iter().all(|sh| {
                sh.owners.len() == self.spec.replicas
                    && sh
                        .owners
                        .iter()
                        .zip(&sh.in_sync)
                        .all(|(&o, &s)| s && self.arrays[o].powered())
            })
        })
    }

    /// Cuts power to a member mid-traffic. Detection, placement update
    /// and rebuild all happen through subsequent [`tick`]s.
    ///
    /// [`tick`]: Cluster::tick
    pub fn kill(&mut self, node: usize) {
        self.arrays[node].cut_power();
        self.last_kill_at = Some(self.now());
        self.last_confirm_at = None;
        self.last_redundant_at = None;
    }

    /// Partitions (or heals) every WAN link touching `node` without
    /// touching its power.
    pub fn partition(&mut self, node: usize, partitioned: bool) {
        self.mesh.set_node_partitioned(node, partitioned);
        if partitioned {
            self.last_kill_at = Some(self.now());
            self.last_confirm_at = None;
            self.last_redundant_at = None;
        }
    }

    /// Re-encodes the config record and pushes it to every live node's
    /// durable slot. The push from the lowest live node pays one small
    /// wire message per peer; an unreachable peer keeps its stale slot
    /// (it will re-sync on its next rejoin).
    fn replicate_config(&mut self) {
        let bytes = encode_cluster_config(&self.config);
        let live = self.live_members();
        let Some(&origin) = live.first() else {
            return;
        };
        self.config_slots[origin] = Some(bytes.clone());
        let now = self.now();
        for &peer in &live {
            if peer == origin {
                continue;
            }
            match self
                .mesh
                .link(origin, peer)
                .send_with_retry(bytes.len() as u64 + 24, now)
            {
                WireOutcome::Delivered { .. } => {
                    self.config_slots[peer] = Some(bytes.clone());
                    self.stats.config_replications += 1;
                }
                WireOutcome::Stalled { .. } => {
                    self.stats.config_push_failures += 1;
                }
            }
        }
    }

    /// The durable config slot of `node` (tests decode this).
    pub fn config_slot(&self, node: usize) -> Option<&[u8]> {
        self.config_slots[node].as_deref()
    }

    /// Marks `dead` confirmed-dead: epoch bump, placement update,
    /// shard re-homing, rebuild scheduling, config replication.
    fn confirm_death(&mut self, dead: usize) {
        let m = &mut self.config.members[dead];
        if m.status == MemberStatus::Dead {
            return;
        }
        m.status = MemberStatus::Dead;
        self.config.epoch += 1;
        self.stats.epoch_changes += 1;
        let live: Vec<u64> = self.live_members().iter().map(|&n| n as u64).collect();
        self.placement.set_members(&live);
        self.config.placement_version = self.placement.version();
        self.swim.remove(dead);
        if self.last_confirm_at.is_none() {
            self.last_confirm_at = Some(self.now());
        }
        self.rehome_shards();
        self.replicate_config();
    }

    /// Recomputes ownership of every shard against the current
    /// placement and queues rebuilds for every replica that moved to a
    /// node not yet holding in-sync data.
    fn rehome_shards(&mut self) {
        let epoch = self.config.epoch;
        for v in 0..self.volumes.len() {
            for s in 0..self.volumes[v].shards.len() {
                let new_owners: Vec<usize> = self
                    .placement
                    .owners(Self::shard_key(v, s), self.spec.replicas)
                    .into_iter()
                    .map(|n| n as usize)
                    .collect();
                let sh = &self.volumes[v].shards[s];
                let mut in_sync = Vec::with_capacity(new_owners.len());
                let mut needs_rebuild = Vec::new();
                for &o in &new_owners {
                    // A node keeps its in-sync status only if it was an
                    // in-sync owner before the change.
                    let was = sh
                        .owners
                        .iter()
                        .position(|&p| p == o)
                        .is_some_and(|i| sh.in_sync[i]);
                    in_sync.push(was);
                    if !was {
                        needs_rebuild.push(o);
                    }
                }
                let sh = &mut self.volumes[v].shards[s];
                sh.owners = new_owners;
                sh.in_sync = in_sync;
                for dst in needs_rebuild {
                    self.rebuild.push(RebuildTask {
                        volume: v,
                        shard: s,
                        dst,
                        epoch,
                    });
                }
            }
        }
    }

    /// Cold-starts a dead member and rejoins it: incarnation and epoch
    /// bumps, config restore + re-sync, placement re-add (shards it
    /// re-acquires arrive via dedup-cheap delta rebuild).
    pub fn revive(&mut self, node: usize) -> Result<()> {
        profile_scope!(Plane::Cluster);
        if self.arrays[node].powered() {
            return Err(PurityError::BadRequest(format!(
                "node {node} is already powered"
            )));
        }
        self.arrays[node].power_loss(PowerLossSpec::default())?;
        // Restore the durable config slot; a missing or corrupt record
        // falls back to syncing from the lowest live peer.
        let restored = self.config_slots[node]
            .as_deref()
            .and_then(decode_cluster_config);
        if restored.is_none() {
            if let Some(&peer) = self.live_members().first() {
                self.config_slots[node] = self.config_slots[peer].clone();
            }
        }
        let m = &mut self.config.members[node];
        m.status = MemberStatus::Alive;
        m.incarnation += 1;
        self.config.epoch += 1;
        self.stats.epoch_changes += 1;
        let live: Vec<u64> = self.live_members().iter().map(|&n| n as u64).collect();
        self.placement.set_members(&live);
        self.config.placement_version = self.placement.version();
        let live_usize = self.live_members();
        self.swim.rejoin(node, &live_usize);
        self.rehome_shards();
        self.replicate_config();
        Ok(())
    }

    /// Advances the whole cluster by `dt`: foreground clocks move, the
    /// failure detector probes, confirmed deaths re-home shards, and
    /// the rebuild queue ships.
    pub fn tick(&mut self, dt: Nanos) {
        profile_scope!(Plane::Cluster);
        let target = self.now() + dt;
        for arr in &mut self.arrays {
            let t = arr.now();
            if target > t {
                if arr.powered() {
                    arr.advance(target - t);
                } else {
                    arr.clock().advance_to(target);
                }
            }
        }
        // Failure detection.
        let powered = self.powered_flags();
        let live = self.live_members();
        let events = self.swim.tick(target, &mut self.mesh, &powered, &live);
        for ev in events {
            if let SwimEvent::Confirmed { subject, .. } = ev {
                self.confirm_death(subject);
            }
        }
        // Rebuild shipping, bounded per tick so it competes with (and
        // never starves) foreground traffic.
        for _ in 0..self.spec.rebuild_tasks_per_tick {
            if !self.pump_rebuild() {
                break;
            }
        }
        self.sync_clocks();
    }

    /// Picks a live in-sync source replica for the active task.
    fn rebuild_source(&self, task: &RebuildTask) -> Option<usize> {
        let sh = &self.volumes[task.volume].shards[task.shard];
        sh.sync_owners()
            .find(|&o| o != task.dst && self.arrays[o].powered())
    }

    /// Progresses the active rebuild task (activating the next queued
    /// one if idle). Returns whether any work remains worth pumping.
    fn pump_rebuild(&mut self) -> bool {
        if !self.rebuild.activate() {
            return false;
        }
        let active = self.rebuild.active().expect("activated");
        let task = active.task;
        // Drop tasks the membership has moved past: the destination is
        // no longer an owner, is already in sync, or is dead.
        let sh = &self.volumes[task.volume].shards[task.shard];
        let owner_idx = sh.owners.iter().position(|&o| o == task.dst);
        let stale = match owner_idx {
            None => true,
            Some(i) => sh.in_sync[i] || !self.arrays[task.dst].powered(),
        };
        if stale {
            self.rebuild.finish_active(false);
            return true;
        }
        let Some(src) = self.rebuild_source(&task) else {
            self.rebuild.stats_mut().starved_ticks += 1;
            return false;
        };

        // Ensure the destination has a backing volume.
        if self.volumes[task.volume].shards[task.shard].backing[task.dst].is_none() {
            let local = match self.arrays[task.dst].create_volume(
                &format!("cv{}.s{}", task.volume, task.shard),
                self.spec.shard_sectors * SECTOR as u64,
            ) {
                Ok(v) => v,
                Err(_) => {
                    self.rebuild.finish_active(false);
                    return true;
                }
            };
            self.volumes[task.volume].shards[task.shard].backing[task.dst] = Some(local);
        }
        let src_backing =
            self.volumes[task.volume].shards[task.shard].backing[src].expect("src backing");
        let dst_backing =
            self.volumes[task.volume].shards[task.shard].backing[task.dst].expect("dst backing");

        // Leg 1 (possibly resumed): ship the base snapshot.
        let active = self.rebuild.active().expect("still active");
        if active.src != src {
            // First attempt, or the previous source died: restart the
            // ship from the new source.
            active.src = src;
            active.base = None;
            active.newer = None;
            active.cursor = None;
        }
        let ship_id = active.ship_id;
        if active.newer.is_none() {
            let name = format!("rb{ship_id}.base");
            let snap = match self.arrays[src].snapshot(src_backing, &name) {
                Ok(s) => s,
                Err(_) => {
                    self.rebuild.finish_active(false);
                    return true;
                }
            };
            let active = self.rebuild.active().expect("still active");
            active.newer = Some(snap);
        }

        // Run ship legs until the replica is fully caught up or the
        // wire stalls. Each iteration ships (base -> newer]; on
        // completion, a fresh snapshot picks up foreground writes that
        // landed during the leg. The loop ends the moment a leg
        // completes with zero new writes behind it — and because no
        // foreground write can interleave inside this call, marking the
        // replica in-sync here is race-free.
        let mut legs = 0u32;
        loop {
            legs += 1;
            let active = self.rebuild.active().expect("still active");
            let (base, newer) = (active.base, active.newer.expect("leg snapshot"));
            let mut cursor = active.cursor.take();
            let (src_arr, dst_arr) = split_two(&mut self.arrays, src, task.dst);
            let report = ship_snapshot(
                src_arr,
                base,
                newer,
                dst_arr,
                dst_backing,
                self.mesh.link(src, task.dst),
                &mut cursor,
                ship_id,
                &mut self.fabric_stats,
            );
            let report = match report {
                Ok(r) => r,
                Err(_) => {
                    self.rebuild.finish_active(false);
                    return true;
                }
            };
            if !report.completed {
                // Stalled: persist the cursor and resume next tick.
                let active = self.rebuild.active().expect("still active");
                active.cursor = cursor;
                self.rebuild.stats_mut().stalls += 1;
                return false;
            }
            // Leg complete. Take a catch-up snapshot; if nothing
            // changed since `newer`, the replica is in sync.
            let next_name = format!("rb{ship_id}.l{legs}");
            let next = match self.arrays[src].snapshot(src_backing, &next_name) {
                Ok(s) => s,
                Err(_) => {
                    self.rebuild.finish_active(false);
                    return true;
                }
            };
            let diff = self.arrays[src]
                .snapshot_diff(Some(newer), next)
                .unwrap_or_default();
            // Retire the consumed leg snapshots.
            if let Some(b) = base {
                let _ = self.arrays[src].destroy_snapshot(b);
            }
            if diff.is_empty() {
                let _ = self.arrays[src].destroy_snapshot(newer);
                let _ = self.arrays[src].destroy_snapshot(next);
                let sh = &mut self.volumes[task.volume].shards[task.shard];
                if let Some(i) = sh.owners.iter().position(|&o| o == task.dst) {
                    sh.in_sync[i] = true;
                }
                self.rebuild.finish_active(true);
                if self.fully_redundant() && self.last_redundant_at.is_none() {
                    self.last_redundant_at = Some(self.now());
                }
                return true;
            }
            self.rebuild.stats_mut().catchup_legs += 1;
            let active = self.rebuild.active().expect("still active");
            active.base = Some(newer);
            active.newer = Some(next);
            active.cursor = None;
        }
    }

    /// Sets the `cluster_*` metrics in every member array's side
    /// table, so each node's observability export carries the
    /// cluster plane (mirroring the repl fabric convention).
    pub fn publish_metrics(&self) {
        let s = self.stats;
        let sw = self.swim.stats();
        let rb = self.rebuild.stats();
        let fs = self.fabric_stats;
        let live = self.live_members().len() as i64;
        let backlog = self.rebuild.backlog() as i64;
        for arr in &self.arrays {
            let reg = &arr.obs().registry;
            reg.set_gauge("cluster_epoch", &[], self.config.epoch as i64);
            reg.set_gauge(
                "cluster_placement_version",
                &[],
                self.placement.version() as i64,
            );
            reg.set_gauge("cluster_nodes_live", &[], live);
            reg.set_gauge("cluster_rebuild_backlog", &[], backlog);
            reg.set_counter("cluster_writes", &[], s.writes);
            reg.set_counter("cluster_reads", &[], s.reads);
            reg.set_counter("cluster_unavailable_ops", &[], s.unavailable_ops);
            reg.set_counter("cluster_degraded_writes", &[], s.degraded_writes);
            reg.set_counter("cluster_redirects", &[], s.redirects);
            reg.set_counter("cluster_config_replications", &[], s.config_replications);
            reg.set_counter("cluster_epoch_changes", &[], s.epoch_changes);
            reg.set_counter("cluster_probes", &[], sw.probes);
            reg.set_counter("cluster_probe_losses", &[], sw.probe_losses);
            reg.set_counter("cluster_indirect_probes", &[], sw.indirect_probes);
            reg.set_counter("cluster_suspicions", &[], sw.suspicions);
            reg.set_counter("cluster_refutations", &[], sw.refutations);
            reg.set_counter("cluster_confirms", &[], sw.confirms);
            reg.set_counter("cluster_rebuilds_done", &[], rb.done);
            reg.set_counter("cluster_rebuild_stalls", &[], rb.stalls);
            reg.set_counter("cluster_rebuild_catchup_legs", &[], rb.catchup_legs);
            reg.set_counter("cluster_rebuild_sectors_shipped", &[], fs.sectors_shipped);
            reg.set_counter(
                "cluster_rebuild_dedup_hit_sectors",
                &[],
                fs.dedup_hit_sectors,
            );
            reg.set_counter("cluster_rebuild_bytes_on_wire", &[], fs.bytes_on_wire);
        }
    }

    /// A client handle already synced to the current placement version.
    pub fn client(&self) -> ClusterClient {
        ClusterClient {
            cached_version: self.placement.version(),
        }
    }
}

/// Two distinct elements of `arrays` by index, mutably.
fn split_two(arrays: &mut [FlashArray], a: usize, b: usize) -> (&mut FlashArray, &mut FlashArray) {
    assert!(a != b);
    if a < b {
        let (lo, hi) = arrays.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = arrays.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}
