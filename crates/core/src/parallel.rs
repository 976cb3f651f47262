//! Parallel multi-query planning driver.
//!
//! The paper's coordinators plan queries independently; this driver
//! exploits that independence across a workload: queries fan out over the
//! rayon pool in fixed-size **waves**, with every reduction — deployments,
//! [`SearchStats`], instrumentation, and subplan-cache commits — performed
//! in query-index order at the wave barrier. The result is byte-identical
//! to the serial path by construction:
//!
//! * the worker pool preserves item order (see the workspace `rayon`
//!   shim), and the per-query closure is identical in both modes;
//! * each query records into its own virtual-clock sub-sink, absorbed into
//!   the ambient sink in index order ([`dsq_obs::Sink::absorb`]) — traces
//!   cannot interleave no matter how threads are scheduled;
//! * the [`PlanCache`](crate::cache::PlanCache) runs under a commit
//!   [`hold`](crate::cache::PlanCache::hold) during each wave, so lookups
//!   read a frozen map (same hits for every schedule) and staged results
//!   become visible only at the barrier — in both modes, after the same
//!   wave.
//!
//! Queries are planned *independently*: every query reads the given advert
//! registry, which planning never writes, and nothing is registered or
//! recorded in it — matching the paper's Figure 9 multi-query methodology;
//! use [`crate::consolidate::deploy_all`] when sequential reuse semantics
//! are wanted instead.

use crate::env::Environment;
use crate::stats::SearchStats;
use crate::Optimizer;
use dsq_net::NodeId;
use dsq_query::{Catalog, Deployment, Query, ReuseRegistry};
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Queries per wave. A structural constant — deliberately **not** derived
/// from the thread count, so the cache-visibility schedule (and therefore
/// every result bit) is identical whether the wave runs on one thread or
/// sixteen.
pub const DEFAULT_WAVE: usize = 8;

/// Knobs for [`optimize_all`].
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Fan each wave out across the rayon pool (`false` = same structure,
    /// one thread — the `--no-parallel` path).
    pub parallel: bool,
    /// Queries per wave / cache-commit barrier interval.
    pub wave: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            parallel: true,
            wave: DEFAULT_WAVE,
        }
    }
}

impl ParallelConfig {
    /// The serial configuration (identical results, no fan-out).
    pub fn serial() -> Self {
        ParallelConfig {
            parallel: false,
            ..Default::default()
        }
    }
}

/// What [`optimize_all`] produced for a workload.
#[derive(Clone, Debug, Default)]
pub struct MultiQueryOutcome {
    /// Per-query deployments, in input order (`None` = infeasible).
    pub deployments: Vec<Option<Deployment>>,
    /// Search statistics merged in query-index order.
    pub stats: SearchStats,
    /// Each query's own search statistics, parallel to `deployments`
    /// (empty for a query [`optimize_dirty`] left standing).
    pub query_stats: Vec<SearchStats>,
    /// Sum of the feasible deployments' costs.
    pub total_cost: f64,
}

impl MultiQueryOutcome {
    /// Number of queries that produced a deployment.
    pub fn planned(&self) -> usize {
        self.deployments.iter().flatten().count()
    }
}

/// The one wave loop: plan `queries[i]` for each `i` of `picked`, in that
/// order, [`ParallelConfig::wave`] at a time. Each query records into a
/// sub-sink of its own and reads `registry`, which no query writes; at
/// the wave barrier stats and sub-sinks are reduced in `picked` order and
/// the subplans the wave staged are published. The outcome it returns is
/// over the picked queries only, one deployment each.
fn plan_in_waves<O: Optimizer + Sync>(
    env: &Environment,
    optimizer: &O,
    catalog: &Catalog,
    queries: &[Query],
    picked: &[usize],
    registry: &ReuseRegistry,
    cfg: &ParallelConfig,
) -> MultiQueryOutcome {
    let handle = dsq_obs::SinkHandle::capture();
    let sub_mode = handle.sink().map(|s| s.clock_mode());
    let mut outcome = MultiQueryOutcome::default();
    // Per-query commit points inside `optimize` become no-ops for the
    // hold's lifetime; the driver commits at wave barriers itself.
    let hold = env.plan_cache.hold();
    for wave in picked.chunks(cfg.wave.max(1)) {
        let job = |&qi: &usize| {
            let sub = sub_mode.map(dsq_obs::Sink::new);
            let _guard = sub.clone().map(dsq_obs::scoped);
            let mut stats = SearchStats::new();
            let d = optimizer.optimize(catalog, &queries[qi], registry, &mut stats);
            (d, stats, sub)
        };
        let results: Vec<(Option<Deployment>, SearchStats, Option<Arc<dsq_obs::Sink>>)> =
            if cfg.parallel {
                wave.into_par_iter().map(job).collect()
            } else {
                wave.iter().map(job).collect()
            };
        // Wave barrier: reduce in query-index order, then publish staged
        // subplans for the next wave.
        for (d, stats, sub) in results {
            outcome.stats.merge(&stats);
            outcome.query_stats.push(stats);
            if let (Some(sub), Some(parent)) = (sub, handle.sink()) {
                parent.absorb(&sub);
            }
            if let Some(d) = &d {
                outcome.total_cost += d.cost;
            }
            outcome.deployments.push(d);
        }
        env.plan_cache.barrier_commit();
    }
    drop(hold);
    outcome
}

/// Plan every query of a workload with `optimizer`, fanning out across the
/// rayon pool (see the module docs for the determinism contract). Pass the
/// environment the optimizer was built over — the driver coordinates its
/// subplan cache's wave barriers.
pub fn optimize_all<O: Optimizer + Sync>(
    env: &Environment,
    optimizer: &O,
    catalog: &Catalog,
    queries: &[Query],
    registry: &ReuseRegistry,
    cfg: &ParallelConfig,
) -> MultiQueryOutcome {
    // Execution knobs (parallel on/off, pool width) are deliberately NOT
    // recorded: the trace is part of the byte-identity contract, and the
    // whole point is that those knobs cannot change a single byte of it.
    let _span = dsq_obs::span("planner.optimize_all", || {
        vec![
            ("queries", queries.len().into()),
            ("wave", cfg.wave.max(1).into()),
            ("cache", u64::from(env.plan_cache.is_enabled()).into()),
        ]
    });
    let all: Vec<usize> = (0..queries.len()).collect();
    let outcome = plan_in_waves(env, optimizer, catalog, queries, &all, registry, cfg);
    dsq_obs::counter("planner.queries_planned", outcome.planned() as u64);
    outcome
}

/// True when `d` places an operator on, or delivers to, a node in `dirty`.
pub fn deployment_touches(d: &Deployment, dirty: &HashSet<NodeId>) -> bool {
    dirty.contains(&d.sink) || d.placement.iter().any(|n| dirty.contains(n))
}

/// Incrementally replan a workload after an adaptation.
///
/// Queries whose standing deployment in `prior` touches a node in `dirty`
/// — or that have no standing deployment — are replanned through the same
/// wave loop as [`optimize_all`]; every other query keeps its prior
/// deployment verbatim. The selection is sound because `dirty` (as produced
/// by [`crate::cache::metric_dirty_nodes`] or a membership delta) contains
/// *both* endpoints of every changed distance: a deployment placed entirely
/// on clean nodes ships data only over unchanged distances, so its cost
/// bits are unchanged too.
///
/// Pair with the cache's scoped retirement (`PlanCache::retire_*`): the
/// replanned queries then rebuild only the subplans the change actually
/// dirtied, reusing committed entries everywhere else.
#[allow(clippy::too_many_arguments)]
pub fn optimize_dirty<O: Optimizer + Sync>(
    env: &Environment,
    optimizer: &O,
    catalog: &Catalog,
    queries: &[Query],
    prior: &[Option<Deployment>],
    dirty: &HashSet<NodeId>,
    registry: &ReuseRegistry,
    cfg: &ParallelConfig,
) -> MultiQueryOutcome {
    assert_eq!(queries.len(), prior.len(), "prior must parallel queries");
    let replan_idx: Vec<usize> = (0..queries.len())
        .filter(|&i| match &prior[i] {
            None => true,
            Some(d) => deployment_touches(d, dirty),
        })
        .collect();
    let _span = dsq_obs::span("planner.optimize_dirty", || {
        vec![
            ("queries", queries.len().into()),
            ("replanned", replan_idx.len().into()),
            ("dirty_nodes", dirty.len().into()),
            ("wave", cfg.wave.max(1).into()),
        ]
    });
    let mut outcome = plan_in_waves(env, optimizer, catalog, queries, &replan_idx, registry, cfg);
    // Replanned slots take their fresh result, clean slots keep their
    // standing deployment bit-for-bit; the total is re-added in query order
    // from 0.0 as the wave loop does (`sum()` starts at -0.0).
    let fresh = std::mem::replace(&mut outcome.deployments, prior.to_vec());
    let fresh_stats = std::mem::replace(
        &mut outcome.query_stats,
        vec![SearchStats::new(); queries.len()],
    );
    for ((&qi, d), stats) in replan_idx.iter().zip(fresh).zip(fresh_stats) {
        outcome.deployments[qi] = d;
        outcome.query_stats[qi] = stats;
    }
    let costs = outcome.deployments.iter().flatten().map(|d| d.cost);
    outcome.total_cost = costs.fold(0.0, |sum, cost| sum + cost);
    dsq_obs::counter("planner.queries_replanned", replan_idx.len() as u64);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topdown::TopDown;
    use dsq_net::TransitStubConfig;
    use dsq_workload::{WorkloadConfig, WorkloadGenerator};

    fn setup() -> (Environment, dsq_workload::Workload) {
        let net = TransitStubConfig::paper_64().generate(11).network;
        let env = Environment::build(net, 8);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 12,
                queries: 12,
                joins_per_query: 2..=4,
                ..WorkloadConfig::default()
            },
            42,
        )
        .generate(&env.network);
        (env, wl)
    }

    #[test]
    fn driver_matches_per_query_loop() {
        let (env, wl) = setup();
        let td = TopDown::new(&env);
        let out = optimize_all(
            &env,
            &td,
            &wl.catalog,
            &wl.queries,
            &ReuseRegistry::new(),
            &ParallelConfig::serial(),
        );
        assert_eq!(out.deployments.len(), wl.queries.len());
        // Same deployments as the classic one-query-at-a-time loop.
        for (q, d) in wl.queries.iter().zip(&out.deployments) {
            let reg = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            let expect = td.optimize(&wl.catalog, q, &reg, &mut stats);
            assert_eq!(
                expect.as_ref().map(|e| e.cost.to_bits()),
                d.as_ref().map(|d| d.cost.to_bits())
            );
        }
        assert!(out.total_cost > 0.0);
        assert_eq!(out.planned(), wl.queries.len());
    }

    #[test]
    fn parallel_mode_is_bit_identical_to_serial() {
        let (env, wl) = setup();
        env.plan_cache.set_enabled(true);
        let run = |parallel: bool| {
            // Fresh cache per run so hit patterns start equal.
            let env = env.reclustered(8);
            env.plan_cache.set_enabled(true);
            let td = TopDown::new(&env);
            let cfg = ParallelConfig {
                parallel,
                ..Default::default()
            };
            optimize_all(
                &env,
                &td,
                &wl.catalog,
                &wl.queries,
                &ReuseRegistry::new(),
                &cfg,
            )
        };
        let serial = run(false);
        let parallel = run(true);
        assert_eq!(serial.total_cost.to_bits(), parallel.total_cost.to_bits());
        assert_eq!(
            serial.stats.plans_considered,
            parallel.stats.plans_considered
        );
        assert_eq!(serial.stats.dp_states, parallel.stats.dp_states);
        assert_eq!(serial.stats.events.len(), parallel.stats.events.len());
    }

    #[test]
    fn dirty_replan_of_everything_is_optimize_all() {
        // No standing deployments, nothing dirty: `optimize_dirty` selects
        // every query, so both entry points drive the shared wave loop over
        // the same list and must agree to the bit.
        let (env, wl) = setup();
        let run = |dirty_entry: bool| {
            let env = env.reclustered(8);
            env.plan_cache.set_enabled(true);
            let td = TopDown::new(&env);
            let (reg, cfg) = (ReuseRegistry::new(), ParallelConfig::default());
            if dirty_entry {
                let prior = vec![None; wl.queries.len()];
                let dirty = HashSet::new();
                optimize_dirty(
                    &env,
                    &td,
                    &wl.catalog,
                    &wl.queries,
                    &prior,
                    &dirty,
                    &reg,
                    &cfg,
                )
            } else {
                optimize_all(&env, &td, &wl.catalog, &wl.queries, &reg, &cfg)
            }
        };
        let (all, dirty) = (run(false), run(true));
        assert_eq!(all.planned(), wl.queries.len());
        // `{:?}` prints an f64 in its shortest form that parses back to the
        // same bits, so equal text is equal deployments.
        assert_eq!(
            format!("{:?}", all.deployments),
            format!("{:?}", dirty.deployments)
        );
        assert_eq!(all.stats, dirty.stats);
        assert_eq!(all.total_cost.to_bits(), dirty.total_cost.to_bits());
    }
}
