//! The optimal joint plan + placement over the whole network.
//!
//! This is the paper's yardstick: "the optimal deployment computed using
//! dynamic programming" (Figure 7) and the "Plan, then deploy — optimal
//! deployment through exhaustive search" comparison point of Figure 2. For
//! a single query under the sum-of-edge-costs metric, the subset/placement
//! dynamic program of [`ClusterPlanner`] *is* exact, so this optimizer runs
//! it once over all network nodes with full (level-1) distance knowledge.
//!
//! Multi-query experiments deploy queries incrementally; with a shared
//! [`ReuseRegistry`] this optimizer computes each
//! query's optimum *given* the operators already deployed, matching the
//! paper's incremental evaluation.

use crate::engine::{ClusterPlanner, PlannerInput};
use crate::env::Environment;
use crate::stats::SearchStats;
use crate::Optimizer;
use dsq_net::NodeId;
use dsq_query::{Catalog, Deployment, Query, ReuseRegistry};

/// Why a (restricted) placement attempt produced no deployment. Callers
/// that pass a candidate set after membership churn need to distinguish
/// "you gave me nothing to place on" from "the DP found no feasible plan" —
/// planning against a stale or arbitrary node is never an acceptable
/// fallback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// The candidate set was empty.
    NoCandidates,
    /// Every candidate has been deactivated (failed or departed the
    /// overlay) since the set was computed.
    NoActiveCandidates,
    /// The planner examined the (active) candidates and found no feasible
    /// joint plan + placement.
    Infeasible,
    /// The atom universe is too wide even for the sparse reachable-set
    /// engine's state budget. A typed refusal — never a mask overflow.
    UniverseTooLarge {
        /// Number of atoms in the offending universe.
        atoms: usize,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoCandidates => write!(f, "empty placement candidate set"),
            PlacementError::NoActiveCandidates => {
                write!(f, "every placement candidate is inactive")
            }
            PlacementError::Infeasible => write!(f, "no feasible placement over the candidates"),
            PlacementError::UniverseTooLarge { atoms } => {
                write!(
                    f,
                    "planning universe of {atoms} atoms exceeds the engine budget"
                )
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Exact single-query optimizer (reuse-aware through the registry).
#[derive(Clone, Copy, Debug)]
pub struct Optimal<'a> {
    env: &'a Environment,
    /// Restrict operator placement to these nodes (`None` = every node).
    restrict: Option<&'a [NodeId]>,
}

impl<'a> Optimal<'a> {
    /// Optimal over every network node.
    pub fn new(env: &'a Environment) -> Self {
        Optimal {
            env,
            restrict: None,
        }
    }

    /// Optimal with a restricted candidate node set (used by the In-network
    /// baseline's zone search and by tests).
    pub fn restricted(env: &'a Environment, candidates: &'a [NodeId]) -> Self {
        Optimal {
            env,
            restrict: Some(candidates),
        }
    }

    /// Like [`Optimizer::optimize`], but with a typed error: an empty or
    /// fully-inactive restricted candidate set is reported as such instead
    /// of being conflated with plan infeasibility (or, worse, silently
    /// planned against stale nodes).
    pub fn try_optimize(
        &self,
        catalog: &Catalog,
        query: &Query,
        registry: &ReuseRegistry,
        stats: &mut SearchStats,
    ) -> Result<Deployment, PlacementError> {
        let candidates: Vec<NodeId> = match self.restrict {
            Some(c) => {
                if c.is_empty() {
                    return Err(PlacementError::NoCandidates);
                }
                // Churn between computing the set and planning over it must
                // not leave operators on dead nodes.
                let active: Vec<NodeId> = c
                    .iter()
                    .copied()
                    .filter(|&n| self.env.hierarchy.is_active(n))
                    .collect();
                if active.is_empty() {
                    return Err(PlacementError::NoActiveCandidates);
                }
                active
            }
            None => self.env.hierarchy.active_nodes(),
        };
        let mut inputs: Vec<PlannerInput> = query
            .sources
            .iter()
            .map(|&s| PlannerInput::base(catalog, s))
            .collect();
        // Reuse candidates are filtered through the same active-node view
        // as placement candidates: a derived stream hosted on a crashed
        // node is as unusable as a crashed placement site.
        for leaf in registry.peek_usable(query, |n| self.is_live(n)) {
            inputs.push(PlannerInput::derived(leaf));
        }
        stats.record(0, query.sink, query.sources.len(), candidates.len());
        let load = self.env.load_snapshot();
        let planner = ClusterPlanner::new(catalog, query).with_load(load.as_ref());
        let out = planner
            .plan(
                &inputs,
                &candidates,
                &self.env.dm,
                Some(query.sink),
                None,
                stats,
            )?
            .ok_or(PlacementError::Infeasible)?;
        let deployment = out.tree.into_deployment(query, catalog, &self.env.dm);
        // With true distances the estimate equals the communication cost —
        // unless a load model added overload penalties to the objective, in
        // which case the estimate is an upper bound on it.
        debug_assert!(
            if load.is_some() {
                deployment.cost <= out.est_cost + 1e-6 * out.est_cost.max(1.0)
            } else {
                (deployment.cost - out.est_cost).abs() <= 1e-6 * deployment.cost.max(1.0)
            },
            "estimate/cost mismatch: {} vs {}",
            out.est_cost,
            deployment.cost
        );
        Ok(deployment)
    }
}

impl Optimizer for Optimal<'_> {
    fn name(&self) -> &'static str {
        "optimal"
    }

    fn optimize(
        &self,
        catalog: &Catalog,
        query: &Query,
        registry: &ReuseRegistry,
        stats: &mut SearchStats,
    ) -> Option<Deployment> {
        self.try_optimize(catalog, query, registry, stats).ok()
    }

    fn is_live(&self, host: NodeId) -> bool {
        self.env.hierarchy.is_active(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_net::TransitStubConfig;
    use dsq_query::QueryId;
    use dsq_workload::{WorkloadConfig, WorkloadGenerator};

    fn env() -> Environment {
        let net = TransitStubConfig::paper_64().generate(5).network;
        Environment::build(net, 16)
    }

    #[test]
    fn optimal_beats_or_matches_naive_sink_placement() {
        let env = env();
        let mut gen = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 12,
                queries: 6,
                joins_per_query: 2..=3,
                ..WorkloadConfig::default()
            },
            3,
        );
        let wl = gen.generate(&env.network);
        for q in &wl.queries {
            let reg = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            let d = Optimal::new(&env)
                .optimize(&wl.catalog, q, &reg, &mut stats)
                .expect("feasible");
            // Naive comparison: left-deep plan, all joins at the sink.
            let naive = {
                let mut tree =
                    crate::placed::PlacedTree::Leaf(dsq_query::LeafSource::Base(q.sources[0]));
                for &s in &q.sources[1..] {
                    tree = crate::placed::PlacedTree::Join {
                        left: Box::new(tree),
                        right: Box::new(crate::placed::PlacedTree::Leaf(
                            dsq_query::LeafSource::Base(s),
                        )),
                        node: q.sink,
                    };
                }
                tree.into_deployment(q, &wl.catalog, &env.dm)
            };
            assert!(
                d.cost <= naive.cost + 1e-9,
                "optimal {} vs sink-naive {}",
                d.cost,
                naive.cost
            );
        }
    }

    #[test]
    fn reuse_never_hurts_a_single_query() {
        let env = env();
        let mut gen = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 10,
                queries: 2,
                joins_per_query: 3..=3,
                ..WorkloadConfig::default()
            },
            9,
        );
        let wl = gen.generate(&env.network);
        // Deploy q0 and register its operators.
        let mut reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        let d0 = Optimal::new(&env)
            .optimize(&wl.catalog, &wl.queries[0], &reg, &mut stats)
            .unwrap();
        reg.register_deployment(&wl.queries[0], &d0);

        // A second identical-sources query: with reuse available the optimum
        // can only improve (the option set is a superset).
        let q1 = Query::join(
            QueryId(99),
            wl.queries[0].sources.clone(),
            wl.queries[1].sink,
        );
        let with_reuse = Optimal::new(&env)
            .optimize(&wl.catalog, &q1, &reg, &mut stats)
            .unwrap();
        let empty = ReuseRegistry::new();
        let without = Optimal::new(&env)
            .optimize(&wl.catalog, &q1, &empty, &mut stats)
            .unwrap();
        assert!(with_reuse.cost <= without.cost + 1e-9);
        // The full result of q0 exists as a derived stream, so q1 should be
        // able to tap it and pay only delivery.
        assert!(
            with_reuse.cost < without.cost * 0.9 || without.cost < 1e-9,
            "expected substantial reuse savings: {} vs {}",
            with_reuse.cost,
            without.cost
        );
    }

    #[test]
    fn restricted_candidates_cost_at_least_unrestricted() {
        let env = env();
        let mut gen = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 8,
                queries: 3,
                joins_per_query: 2..=2,
                ..WorkloadConfig::default()
            },
            11,
        );
        let wl = gen.generate(&env.network);
        let few: Vec<NodeId> = env.network.nodes().take(4).collect();
        for q in &wl.queries {
            let r1 = ReuseRegistry::new();
            let r2 = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            let full = Optimal::new(&env)
                .optimize(&wl.catalog, q, &r1, &mut stats)
                .unwrap();
            let restricted = Optimal::restricted(&env, &few)
                .optimize(&wl.catalog, q, &r2, &mut stats)
                .unwrap();
            assert!(full.cost <= restricted.cost + 1e-9);
        }
    }

    #[test]
    fn single_source_query_is_a_direct_edge() {
        let env = env();
        let mut catalog = Catalog::new();
        let nodes: Vec<NodeId> = env.network.nodes().collect();
        let s = catalog.add_stream("S", 5.0, nodes[10], dsq_query::Schema::default());
        let q = Query::join(QueryId(0), [s], nodes[40]);
        let reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        let d = Optimal::new(&env)
            .optimize(&catalog, &q, &reg, &mut stats)
            .unwrap();
        assert!((d.cost - 5.0 * env.dm.get(nodes[10], nodes[40])).abs() < 1e-9);
    }
}
