//! N-node link mesh: one [`ReplicaLink`] per unordered array pair,
//! each with its own seed-derived flap schedule.
//!
//! The two-array fabric owns a single link; a cluster needs N·(N-1)/2
//! of them sharing one virtual clock. The hazard is seed reuse: if
//! every pair link were built from the same `flap_seed`, all links
//! would flap in lockstep and "partition tolerance" tests would really
//! be testing one link N times. The mesh derives a distinct per-pair
//! seed from a single mesh seed with a splitmix64 mix of the pair ids,
//! so each link's schedule is independent, yet the whole mesh is a
//! pure function of `(mesh_seed, pair)` — byte-identical across runs
//! and indifferent to construction or query order.

use crate::link::{LinkConfig, ReplicaLink};
use std::collections::BTreeMap;

/// splitmix64 finalizer — the same cheap avalanche used to seed the
/// vendored xoshiro RNG. Good enough to decorrelate adjacent pair ids.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives the flap seed for the link between nodes `a` and `b`
/// (order-insensitive) from the mesh seed.
pub fn pair_seed(mesh_seed: u64, a: usize, b: usize) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    splitmix64(mesh_seed ^ splitmix64(((hi as u64) << 32) | lo as u64))
}

/// A full mesh of pairwise links between `n` nodes.
pub struct LinkMesh {
    n: usize,
    /// Links keyed by ordered pair `(min, max)`. BTreeMap so any
    /// whole-mesh iteration (stats, metrics) is deterministic.
    links: BTreeMap<(usize, usize), ReplicaLink>,
}

impl LinkMesh {
    /// Builds the mesh: every pair gets `cfg` with its `flap_seed`
    /// replaced by a [`pair_seed`] derivation from `mesh_seed`. A
    /// `cfg.mean_up` of zero still means "never flaps" for every link.
    pub fn new(n: usize, cfg: LinkConfig, mesh_seed: u64) -> Self {
        assert!(n >= 2, "a mesh needs at least two nodes");
        let mut links = BTreeMap::new();
        for a in 0..n {
            for b in (a + 1)..n {
                let mut link_cfg = cfg;
                link_cfg.flap_seed = pair_seed(mesh_seed, a, b);
                links.insert((a, b), ReplicaLink::with_config(link_cfg));
            }
        }
        Self { n, links }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// The link between `a` and `b` (order-insensitive).
    pub fn link(&mut self, a: usize, b: usize) -> &mut ReplicaLink {
        assert!(a != b, "no self-link");
        let key = if a <= b { (a, b) } else { (b, a) };
        self.links
            .get_mut(&key)
            .unwrap_or_else(|| panic!("pair {key:?} outside mesh of {} nodes", self.n))
    }

    /// Administratively partitions (or heals) every link touching
    /// `node` — the "pull the array's WAN uplinks" lever.
    pub fn set_node_partitioned(&mut self, node: usize, partitioned: bool) {
        assert!(node < self.n);
        for (&(a, b), link) in self.links.iter_mut() {
            if a == node || b == node {
                link.set_partitioned(partitioned);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::SendResult;
    use purity_sim::{Nanos, MS, SEC};

    fn flaky_cfg() -> LinkConfig {
        LinkConfig::flaky(1 << 30, 0 /* replaced per pair */, 10 * MS, 2 * MS)
    }

    fn schedule(link: &mut ReplicaLink, points: &[Nanos]) -> Vec<bool> {
        points.iter().map(|&t| link.is_down(t)).collect()
    }

    #[test]
    fn pair_seeds_are_order_insensitive_and_distinct() {
        assert_eq!(pair_seed(42, 1, 3), pair_seed(42, 3, 1));
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..8 {
            for b in (a + 1)..8 {
                assert!(seen.insert(pair_seed(42, a, b)), "duplicate pair seed");
            }
        }
        assert_ne!(pair_seed(42, 0, 1), pair_seed(43, 0, 1));
    }

    #[test]
    fn per_pair_schedules_are_independent_and_deterministic() {
        let points: Vec<Nanos> = (0..200).map(|i| i * MS).collect();
        // Build the mesh twice; every pair's schedule must reproduce.
        let mut m1 = LinkMesh::new(4, flaky_cfg(), 7);
        let mut m2 = LinkMesh::new(4, flaky_cfg(), 7);
        let mut schedules = Vec::new();
        for a in 0..4 {
            for b in (a + 1)..4 {
                let s1 = schedule(m1.link(a, b), &points);
                let s2 = schedule(m2.link(b, a), &points);
                assert_eq!(s1, s2, "pair ({a},{b}) schedule must reproduce");
                schedules.push(s1);
            }
        }
        // Pairwise-distinct schedules: links must not flap in lockstep.
        for i in 0..schedules.len() {
            for j in (i + 1)..schedules.len() {
                assert_ne!(schedules[i], schedules[j], "links {i} and {j} in lockstep");
            }
        }
    }

    #[test]
    fn traffic_on_one_link_leaves_others_untouched() {
        let points: Vec<Nanos> = (0..200).map(|i| i * MS).collect();
        let mut quiet = LinkMesh::new(3, flaky_cfg(), 9);
        let baseline = schedule(quiet.link(1, 2), &points);
        let mut busy = LinkMesh::new(3, flaky_cfg(), 9);
        for i in 0..64 {
            busy.link(0, 1).send_with_retry(1 << 20, i * MS);
            busy.link(0, 2).send_with_retry(1 << 20, i * MS);
        }
        assert_eq!(
            schedule(busy.link(1, 2), &points),
            baseline,
            "traffic elsewhere must not perturb an idle link's flaps"
        );
    }

    #[test]
    fn node_partition_downs_exactly_its_links() {
        let mut mesh = LinkMesh::new(3, LinkConfig::reliable(1 << 30), 1);
        mesh.set_node_partitioned(0, true);
        assert!(mesh.link(0, 1).is_down(0));
        assert!(mesh.link(0, 2).is_down(0));
        assert!(!mesh.link(1, 2).is_down(0));
        match mesh.link(1, 2).send_once(4096, 0) {
            SendResult::Delivered { .. } => {}
            other => panic!("survivor pair must deliver, got {other:?}"),
        }
        mesh.set_node_partitioned(0, false);
        assert!(!mesh.link(0, 1).is_down(SEC));
    }
}
