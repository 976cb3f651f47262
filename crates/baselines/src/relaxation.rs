//! The Relaxation placement algorithm of Pietzuch et al. (ICDE 2006),
//! "Network-aware operator placement for stream-processing systems".
//!
//! Operators are placed in a continuous *cost space*: producers (stream
//! sources) and the consumer (sink) are pinned at their nodes' coordinates,
//! and each unpinned operator iteratively relaxes to the data-rate-weighted
//! centroid of its plan neighbours — a spring system where each spring's
//! stiffness is the stream rate crossing it. After the relaxation rounds,
//! every operator is mapped to the physical node nearest to its virtual
//! position. The paper runs this comparison "using a 3-dimensional cost
//! space" with the plan fixed beforehand — a plan-then-deploy approach
//! whose lost reuse and approximate placement the joint algorithms beat
//! (Figures 2 and 8).

use crate::logical::rate_optimal_tree;
use dsq_core::{Environment, Optimizer, SearchStats};
use dsq_net::embedding::Point;
use dsq_net::NodeId;
use dsq_query::{Catalog, Deployment, FlatNode, Query, ReuseRegistry};

/// Spring-relaxation placement of a rate-optimal plan in cost space.
#[derive(Clone, Copy, Debug)]
pub struct Relaxation<'a> {
    env: &'a Environment,
    iterations: usize,
}

impl<'a> Relaxation<'a> {
    /// Relaxation with the experiment default of 4 rounds (Section 3.3 uses
    /// as many iterations as the cost-space construction).
    pub fn new(env: &'a Environment) -> Self {
        Self::with_iterations(env, 4)
    }

    /// Relaxation with an explicit number of rounds.
    pub fn with_iterations(env: &'a Environment, iterations: usize) -> Self {
        Relaxation { env, iterations }
    }
}

impl Optimizer for Relaxation<'_> {
    fn name(&self) -> &'static str {
        "relaxation"
    }

    fn optimize(
        &self,
        catalog: &Catalog,
        query: &Query,
        registry: &ReuseRegistry,
        stats: &mut SearchStats,
    ) -> Option<Deployment> {
        let (_, plan) = rate_optimal_tree(catalog, query, registry);
        let space = &self.env.space;
        let nodes = plan.nodes();
        stats.record(0, query.sink, query.sources.len(), self.env.network.len());

        // Pinned coordinates: leaves at their producing node, sink at its
        // node. Operators start at the centroid of their inputs.
        let mut pos: Vec<Point> = Vec::with_capacity(nodes.len());
        for node in nodes {
            match node {
                FlatNode::Leaf { source, .. } => {
                    let loc = match source {
                        dsq_query::LeafSource::Base(id) => catalog.stream(*id).node,
                        dsq_query::LeafSource::Derived { host, .. } => *host,
                    };
                    pos.push(space.coord(loc));
                }
                FlatNode::Join { left, right, .. } => {
                    let mut p = [0.0; 3];
                    for d in 0..3 {
                        p[d] = (pos[*left][d] + pos[*right][d]) / 2.0;
                    }
                    pos.push(p);
                }
            }
        }
        let sink_pos = space.coord(query.sink);

        // Plan neighbours of each join: its two inputs and its consumer
        // (parent join or the sink), each weighted by the rate crossing the
        // spring.
        let mut parent = vec![usize::MAX; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            if let FlatNode::Join { left, right, .. } = node {
                parent[*left] = i;
                parent[*right] = i;
            }
        }
        for _ in 0..self.iterations {
            for (i, node) in nodes.iter().enumerate() {
                if let FlatNode::Join { left, right, .. } = node {
                    let mut acc = [0.0f64; 3];
                    let mut weight = 0.0;
                    for &(j, w) in &[(*left, nodes[*left].rate()), (*right, nodes[*right].rate())] {
                        for d in 0..3 {
                            acc[d] += pos[j][d] * w;
                        }
                        weight += w;
                    }
                    let (consumer_pos, out_rate) = if parent[i] == usize::MAX {
                        (sink_pos, nodes[i].rate())
                    } else {
                        (pos[parent[i]], nodes[i].rate())
                    };
                    for d in 0..3 {
                        acc[d] += consumer_pos[d] * out_rate;
                    }
                    weight += out_rate;
                    if weight > 0.0 {
                        for d in 0..3 {
                            pos[i][d] = acc[d] / weight;
                        }
                    }
                }
            }
        }

        // Map operators to the nearest physical node in cost space.
        let mut placement: Vec<NodeId> = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            match node {
                FlatNode::Leaf { source, .. } => placement.push(match source {
                    dsq_query::LeafSource::Base(id) => catalog.stream(*id).node,
                    dsq_query::LeafSource::Derived { host, .. } => *host,
                }),
                FlatNode::Join { .. } => placement.push(space.nearest(&pos[i], None)),
            }
        }
        Some(Deployment::evaluate(
            query.id,
            plan,
            placement,
            query.sink,
            &self.env.dm,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_net::TransitStubConfig;
    use dsq_workload::{WorkloadConfig, WorkloadGenerator};

    fn setup() -> (Environment, dsq_workload::Workload) {
        let net = TransitStubConfig::paper_64().generate(6).network;
        let env = Environment::build(net, 16);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 15,
                queries: 10,
                joins_per_query: 2..=4,
                ..WorkloadConfig::default()
            },
            23,
        )
        .generate(&env.network);
        (env, wl)
    }

    #[test]
    fn relaxation_is_feasible_and_at_least_optimal_cost() {
        let (env, wl) = setup();
        for q in &wl.queries {
            let r1 = ReuseRegistry::new();
            let r2 = ReuseRegistry::new();
            let mut s = SearchStats::new();
            let rel = Relaxation::new(&env)
                .optimize(&wl.catalog, q, &r1, &mut s)
                .unwrap();
            let opt = dsq_core::Optimal::new(&env)
                .optimize(&wl.catalog, q, &r2, &mut s)
                .unwrap();
            assert!(rel.cost.is_finite() && rel.cost > 0.0);
            assert!(rel.cost >= opt.cost - 1e-6);
        }
    }

    #[test]
    fn relaxation_beats_random_placement_on_average() {
        let (env, wl) = setup();
        let mut rel_total = 0.0;
        let mut rand_total = 0.0;
        for q in &wl.queries {
            let r1 = ReuseRegistry::new();
            let r2 = ReuseRegistry::new();
            let mut s = SearchStats::new();
            rel_total += Relaxation::new(&env)
                .optimize(&wl.catalog, q, &r1, &mut s)
                .unwrap()
                .cost;
            rand_total += crate::RandomPlace::new(&env, 99)
                .optimize(&wl.catalog, q, &r2, &mut s)
                .unwrap()
                .cost;
        }
        assert!(
            rel_total < rand_total,
            "relaxation {rel_total} vs random {rand_total}"
        );
    }

    #[test]
    fn more_iterations_do_not_explode() {
        let (env, wl) = setup();
        let q = &wl.queries[0];
        let mut s = SearchStats::new();
        let r = ReuseRegistry::new();
        let few = Relaxation::with_iterations(&env, 1)
            .optimize(&wl.catalog, q, &r, &mut s)
            .unwrap();
        let many = Relaxation::with_iterations(&env, 50)
            .optimize(&wl.catalog, q, &r, &mut s)
            .unwrap();
        assert!(many.cost.is_finite() && few.cost.is_finite());
    }
}
