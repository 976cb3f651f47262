//! Multi-query deployment: incremental batches.
//!
//! The paper's experiments deploy query batches incrementally (cumulative
//! cost vs. number of queries), exploiting derived streams across queries.
//! [`deploy_all`] drives that: each query is planned against the registry
//! state left by its predecessors, and its operators are advertised for
//! the queries that follow. It is the one sequential committer of the
//! workspace: the optimizer only reads the registry, and `deploy_all`
//! records each query's reuse probe and registers its deployment. (The
//! paper's joint pass over a consolidated query at the top of the
//! hierarchy is not implemented.)

use crate::stats::SearchStats;
use crate::Optimizer;
use dsq_query::{Catalog, Deployment, Query, ReuseRegistry};

/// Outcome of an incremental batch deployment.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Per-query deployments, in deployment order (`None` = infeasible).
    pub deployments: Vec<Option<Deployment>>,
    /// Cumulative deployed cost after each query (the paper's cost curves).
    pub cumulative_cost: Vec<f64>,
    /// Merged search statistics.
    pub stats: SearchStats,
}

impl BatchOutcome {
    /// Final cumulative cost (0.0 for an empty batch).
    pub fn total_cost(&self) -> f64 {
        self.cumulative_cost.last().copied().unwrap_or(0.0)
    }
}

/// Deploy `queries` one after another with `optimizer`.
///
/// After each query is planned, its reuse probe is recorded in `registry`
/// under the optimizer's liveness view, planned or not (LRU recency,
/// re-derivation demand, served counts — see
/// [`ReuseRegistry::usable_for_live`]). When `register` is true every
/// deployment's operators are then advertised in `registry`, enabling
/// reuse by subsequent queries; pass `false` (and an empty registry) for
/// the "without reuse" experiment arms.
pub fn deploy_all(
    optimizer: &dyn Optimizer,
    catalog: &Catalog,
    queries: &[Query],
    registry: &mut ReuseRegistry,
    register: bool,
) -> BatchOutcome {
    let mut deployments = Vec::with_capacity(queries.len());
    let mut cumulative_cost = Vec::with_capacity(queries.len());
    let mut stats = SearchStats::new();
    let mut total = 0.0;
    for q in queries {
        let d = optimizer.optimize(catalog, q, registry, &mut stats);
        registry.usable_for_live(q, |n| optimizer.is_live(n));
        if let Some(d) = &d {
            total += d.cost;
            if register {
                registry.register_deployment(q, d);
            }
        }
        deployments.push(d);
        cumulative_cost.push(total);
    }
    BatchOutcome {
        deployments,
        cumulative_cost,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Environment;
    use crate::optimal::Optimal;
    use dsq_net::TransitStubConfig;
    use dsq_query::QueryId;
    use dsq_workload::{WorkloadConfig, WorkloadGenerator};

    fn setup() -> (Environment, dsq_workload::Workload) {
        let net = TransitStubConfig::paper_64().generate(21).network;
        let env = Environment::build(net, 16);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 12,
                queries: 8,
                joins_per_query: 2..=3,
                ..WorkloadConfig::default()
            },
            5,
        )
        .generate(&env.network);
        (env, wl)
    }

    #[test]
    fn cumulative_costs_are_monotone() {
        let (env, wl) = setup();
        let mut reg = ReuseRegistry::new();
        let out = deploy_all(
            &Optimal::new(&env),
            &wl.catalog,
            &wl.queries,
            &mut reg,
            true,
        );
        assert_eq!(out.cumulative_cost.len(), wl.queries.len());
        for w in out.cumulative_cost.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(out.total_cost() > 0.0);
        assert!(!reg.is_empty(), "operators were advertised");
    }

    #[test]
    fn reuse_reduces_batch_cost() {
        let (env, wl) = setup();
        // A batch with heavy sharing: every query joins the same 3 streams.
        let sources = wl.queries[0].sources[..3.min(wl.queries[0].sources.len())].to_vec();
        let sinks = env.network.stub_nodes();
        let queries: Vec<Query> = (0..6)
            .map(|i| {
                Query::join(
                    QueryId(i),
                    sources.clone(),
                    sinks[(i as usize * 7) % sinks.len()],
                )
            })
            .collect();
        let mut with_reg = ReuseRegistry::new();
        let with = deploy_all(
            &Optimal::new(&env),
            &wl.catalog,
            &queries,
            &mut with_reg,
            true,
        );
        let mut without_reg = ReuseRegistry::new();
        let without = deploy_all(
            &Optimal::new(&env),
            &wl.catalog,
            &queries,
            &mut without_reg,
            false,
        );
        assert!(
            with.total_cost() < without.total_cost(),
            "with reuse {} vs without {}",
            with.total_cost(),
            without.total_cost()
        );
    }
}
