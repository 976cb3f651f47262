//! Random placement: the sanity floor every real algorithm must beat.
//!
//! The plan is still rate-optimal (so the comparison isolates *placement*
//! quality), but each join operator lands on a uniformly random node. The
//! paper's extended version uses random placement to show that Bottom-Up's
//! placement-bound beats a random placement of the same join ordering.

use crate::logical::rate_optimal_tree;
use dsq_core::{Environment, Optimizer, SearchStats};
use dsq_net::NodeId;
use dsq_query::{Catalog, Deployment, FlatNode, Query, ReuseRegistry};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;

/// Uniform random placement of a rate-optimal plan.
#[derive(Debug)]
pub struct RandomPlace<'a> {
    env: &'a Environment,
    rng: RefCell<ChaCha8Rng>,
}

impl<'a> RandomPlace<'a> {
    /// Seeded random placer.
    pub fn new(env: &'a Environment, seed: u64) -> Self {
        RandomPlace {
            env,
            rng: RefCell::new(ChaCha8Rng::seed_from_u64(seed)),
        }
    }
}

impl Optimizer for RandomPlace<'_> {
    fn name(&self) -> &'static str {
        "random"
    }

    fn optimize(
        &self,
        catalog: &Catalog,
        query: &Query,
        registry: &ReuseRegistry,
        stats: &mut SearchStats,
    ) -> Option<Deployment> {
        let (_, plan) = rate_optimal_tree(catalog, query, registry);
        stats.record(0, query.sink, query.sources.len(), 1);
        let n = self.env.network.len() as u32;
        let mut rng = self.rng.borrow_mut();
        let placement: Vec<NodeId> = plan
            .nodes()
            .iter()
            .map(|node| match node {
                FlatNode::Leaf { source, .. } => match source {
                    dsq_query::LeafSource::Base(id) => catalog.stream(*id).node,
                    dsq_query::LeafSource::Derived { host, .. } => *host,
                },
                FlatNode::Join { .. } => NodeId(rng.gen_range(0..n)),
            })
            .collect();
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

    #[test]
    fn random_placement_is_feasible_and_seeded() {
        let net = TransitStubConfig::paper_64().generate(2).network;
        let env = Environment::build(net, 16);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 10,
                queries: 4,
                joins_per_query: 2..=3,
                ..WorkloadConfig::default()
            },
            1,
        )
        .generate(&env.network);
        let q = &wl.queries[0];
        let mut s = SearchStats::new();
        let r = ReuseRegistry::new();
        let a = RandomPlace::new(&env, 5)
            .optimize(&wl.catalog, q, &r, &mut s)
            .unwrap();
        let b = RandomPlace::new(&env, 5)
            .optimize(&wl.catalog, q, &r, &mut s)
            .unwrap();
        assert_eq!(a.cost, b.cost, "same seed, same placement");
        assert!(a.cost.is_finite() && a.cost > 0.0);
    }
}
