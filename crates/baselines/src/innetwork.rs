//! Zone-based in-network placement in the style of Ahmad & Çetintemel
//! (VLDB 2004), "Network-aware query processing for stream-based
//! applications".
//!
//! The network is partitioned into a fixed number of *zones*; the plan is
//! chosen first (network-obliviously), and each operator then greedily
//! picks the zone minimizing its input-transport estimate (measured to the
//! zone's medoid), followed by the best node inside that zone. The paper
//! runs this with 5 zones to correspond to `max_cs = 32` on the ~128-node
//! network (Section 3.3), and attributes its losses to the phased
//! deployment and the coarse zone decision.

use crate::logical::rate_optimal_tree;
use dsq_core::{Environment, Optimizer, SearchStats};
use dsq_hierarchy::capped_kmeans;
use dsq_net::NodeId;
use dsq_query::{Catalog, Deployment, FlatNode, Query, ReuseRegistry};

/// Zone-partitioned greedy placement of a rate-optimal plan.
#[derive(Clone, Debug)]
pub struct InNetwork {
    zones: Vec<Vec<NodeId>>,
    medoids: Vec<NodeId>,
}

impl InNetwork {
    /// Partition `env`'s network into `zones` zones (K-Means over the cost
    /// space, matching how the hierarchical algorithms cluster).
    pub fn new(env: &Environment, zones: usize) -> Self {
        assert!(zones >= 1);
        let nodes: Vec<NodeId> = env.network.nodes().collect();
        let pts: Vec<_> = nodes.iter().map(|&n| env.space.coord(n)).collect();
        let cap = nodes.len().div_ceil(zones);
        let groups = capped_kmeans(&pts, cap, 0xA17);
        let zones: Vec<Vec<NodeId>> = groups
            .into_iter()
            .map(|g| g.into_iter().map(|i| nodes[i]).collect())
            .collect();
        let medoids = zones
            .iter()
            .map(|z| {
                env.dm
                    .medoid(z, z)
                    .expect("capped k-means never emits an empty zone")
            })
            .collect();
        InNetwork { zones, medoids }
    }

    /// Number of zones the network was split into.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }
}

/// The environment is passed at optimize time so `InNetwork` can be reused
/// across queries; it carries only the zone structure.
pub struct InNetworkRunner<'a> {
    /// Zone structure.
    pub zones: &'a InNetwork,
    /// Environment (distances).
    pub env: &'a Environment,
}

impl Optimizer for InNetworkRunner<'_> {
    fn name(&self) -> &'static str {
        "in-network"
    }

    fn optimize(
        &self,
        catalog: &Catalog,
        query: &Query,
        registry: &ReuseRegistry,
        stats: &mut SearchStats,
    ) -> Option<Deployment> {
        let (_, plan) = rate_optimal_tree(catalog, query, registry);
        let dm = &self.env.dm;
        let nodes = plan.nodes();
        // Search-space accounting: one record per join operator, counting
        // the zone medoids plus the chosen zone's nodes the greedy actually
        // evaluates (α = 2 makes the Lemma-1 product equal that candidate
        // count). The paper quotes a much larger space for its In-network
        // variant ("nearly 70% that of the Top-Down algorithm") under an
        // unspecified counting; we report what this implementation examines
        // — see EXPERIMENTS.md.
        let max_zone = self.zones.zones.iter().map(Vec::len).max().unwrap_or(0);
        for _ in 0..query.join_count() {
            stats.record(0, query.sink, 2, self.zones.zone_count() + max_zone);
        }

        let mut placement: Vec<NodeId> = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            match node {
                FlatNode::Leaf { source, .. } => placement.push(match source {
                    dsq_query::LeafSource::Base(id) => catalog.stream(*id).node,
                    dsq_query::LeafSource::Derived { host, .. } => *host,
                }),
                FlatNode::Join { left, right, .. } => {
                    // Incremental transport cost of placing this join at a
                    // target, given already-placed inputs; the root also
                    // pulls toward the sink.
                    let is_root = i == plan.root();
                    let cost_at = |target: NodeId| -> f64 {
                        let mut c = nodes[*left].rate() * dm.get(placement[*left], target)
                            + nodes[*right].rate() * dm.get(placement[*right], target);
                        if is_root {
                            c += nodes[i].rate() * dm.get(target, query.sink);
                        }
                        c
                    };
                    // The zone structure is computed once per environment,
                    // so after membership churn a zone may be partially or
                    // fully dead: only zones with at least one still-active
                    // member participate, and the in-zone pick considers
                    // only active nodes. A network with no active zone at
                    // all has no feasible placement.
                    let active = |n: &&NodeId| self.env.hierarchy.is_active(**n);
                    // Phase 1: coarse zone decision by medoid estimate.
                    let zi = (0..self.zones.zones.len())
                        .filter(|&z| {
                            self.zones.zones[z]
                                .iter()
                                .any(|&n| self.env.hierarchy.is_active(n))
                        })
                        .min_by(|&a, &b| {
                            cost_at(self.zones.medoids[a])
                                .total_cmp(&cost_at(self.zones.medoids[b]))
                        })?;
                    // Phase 2: best active node inside the chosen zone.
                    let best = *self.zones.zones[zi]
                        .iter()
                        .filter(active)
                        .min_by(|&&a, &&b| cost_at(a).total_cmp(&cost_at(b)))?;
                    placement.push(best);
                }
            }
        }
        Some(Deployment::evaluate(
            query.id, plan, placement, query.sink, dm,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_net::TransitStubConfig;
    use dsq_workload::{WorkloadConfig, WorkloadGenerator};

    fn setup() -> (Environment, dsq_workload::Workload) {
        let net = TransitStubConfig::paper_128().generate(6).network;
        let env = Environment::build(net, 32);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 20,
                queries: 8,
                joins_per_query: 2..=4,
                ..WorkloadConfig::default()
            },
            31,
        )
        .generate(&env.network);
        (env, wl)
    }

    #[test]
    fn five_zones_on_the_paper_network() {
        let (env, _) = setup();
        let zones = InNetwork::new(&env, 5);
        assert_eq!(zones.zone_count(), 5);
        let total: usize = zones.zones.iter().map(Vec::len).sum();
        assert_eq!(total, env.network.len());
    }

    #[test]
    fn innetwork_feasible_and_bounded_by_optimal() {
        let (env, wl) = setup();
        let zones = InNetwork::new(&env, 5);
        let runner = InNetworkRunner {
            zones: &zones,
            env: &env,
        };
        for q in &wl.queries {
            let r1 = ReuseRegistry::new();
            let r2 = ReuseRegistry::new();
            let mut s = SearchStats::new();
            let inw = runner.optimize(&wl.catalog, q, &r1, &mut s).unwrap();
            let opt = dsq_core::Optimal::new(&env)
                .optimize(&wl.catalog, q, &r2, &mut s)
                .unwrap();
            assert!(inw.cost >= opt.cost - 1e-6);
            assert!(inw.cost.is_finite());
        }
    }

    #[test]
    fn innetwork_beats_random() {
        let (env, wl) = setup();
        let zones = InNetwork::new(&env, 5);
        let runner = InNetworkRunner {
            zones: &zones,
            env: &env,
        };
        let (mut inw_total, mut rand_total) = (0.0, 0.0);
        for q in &wl.queries {
            let r1 = ReuseRegistry::new();
            let r2 = ReuseRegistry::new();
            let mut s = SearchStats::new();
            inw_total += runner.optimize(&wl.catalog, q, &r1, &mut s).unwrap().cost;
            rand_total += crate::RandomPlace::new(&env, 7)
                .optimize(&wl.catalog, q, &r2, &mut s)
                .unwrap()
                .cost;
        }
        assert!(inw_total < rand_total);
    }
}
