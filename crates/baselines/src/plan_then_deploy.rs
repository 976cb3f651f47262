//! Plan-then-deploy with an optimal placement phase.
//!
//! This is the strongest possible two-phase baseline ("an optimal
//! deployment through exhaustive search" of Figure 2): the join order is
//! chosen network-obliviously by intermediate result sizes, and the fixed
//! tree is then placed *optimally* on the whole network. Whatever cost gap
//! remains against the joint optimizers is attributable purely to the
//! phased structure — which is the paper's central argument.

use crate::logical::rate_optimal_tree;
use crate::placement::optimal_placement;
use dsq_core::{Environment, Optimizer, SearchStats};
use dsq_net::NodeId;
use dsq_query::{Catalog, Deployment, Query, ReuseRegistry};

/// Rate-optimal plan + optimal placement of the fixed tree.
#[derive(Clone, Copy, Debug)]
pub struct PlanThenDeploy<'a> {
    env: &'a Environment,
}

impl<'a> PlanThenDeploy<'a> {
    /// Create the baseline over an environment.
    pub fn new(env: &'a Environment) -> Self {
        PlanThenDeploy { env }
    }
}

impl Optimizer for PlanThenDeploy<'_> {
    fn name(&self) -> &'static str {
        "plan-then-deploy"
    }

    fn optimize(
        &self,
        catalog: &Catalog,
        query: &Query,
        registry: &ReuseRegistry,
        stats: &mut SearchStats,
    ) -> Option<Deployment> {
        let (_, plan) = rate_optimal_tree(catalog, query, registry);
        let candidates: Vec<NodeId> = self.env.network.nodes().collect();
        stats.record(0, query.sink, query.sources.len(), candidates.len());
        Some(optimal_placement(
            plan,
            query,
            catalog,
            &self.env.dm,
            &candidates,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_net::TransitStubConfig;
    use dsq_workload::{WorkloadConfig, WorkloadGenerator};

    #[test]
    fn phased_never_beats_joint_and_sometimes_loses() {
        let net = TransitStubConfig::paper_64().generate(4).network;
        let env = Environment::build(net, 16);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 15,
                queries: 12,
                joins_per_query: 2..=4,
                ..WorkloadConfig::default()
            },
            17,
        )
        .generate(&env.network);
        let mut phased_total = 0.0;
        let mut joint_total = 0.0;
        for q in &wl.queries {
            let r1 = ReuseRegistry::new();
            let r2 = ReuseRegistry::new();
            let mut s = SearchStats::new();
            let phased = PlanThenDeploy::new(&env)
                .optimize(&wl.catalog, q, &r1, &mut s)
                .unwrap();
            let joint = dsq_core::Optimal::new(&env)
                .optimize(&wl.catalog, q, &r2, &mut s)
                .unwrap();
            assert!(phased.cost >= joint.cost - 1e-6);
            phased_total += phased.cost;
            joint_total += joint.cost;
        }
        assert!(
            phased_total > joint_total,
            "expected the phased approach to lose overall: {phased_total} vs {joint_total}"
        );
    }
}
