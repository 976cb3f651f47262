//! The Bottom-Up algorithm (Section 2.3).
//!
//! "Queries are registered at their sink. … The coordinator rewrites the
//! query Q as Q′ with respect to two views — V_local … composed of base and
//! derived sources available locally within the cluster and V_remote …
//! composed of base sources not available locally. The coordinator deploys
//! V_local within the current cluster, and then advertises V_local as a
//! derived stream at the next level. … This process continues up the
//! hierarchy, with the query Q progressively decomposed into locally
//! available views and remote views."
//!
//! The climb follows the sink's ancestor-cluster chain. At each level the
//! coordinator plans the join of (the partial result so far + every not-yet
//! -joined source or compatible derived stream inside its subtree) with an
//! exhaustive search confined to its own cluster, leaving the result at the
//! chosen operator (no premature delivery). Once all sources are covered
//! the final result is routed to the sink.
//!
//! How "deploys V_local within the current cluster" turns into concrete
//! node assignments is configurable ([`BottomUpPlacement`]); the
//! `ablation_colocation` bench compares the variants:
//!
//! * [`BottomUpPlacement::Descend`] (default) — each level's V_local is
//!   planned over the cluster's members and then *refined down inside the
//!   cluster's subtree* with the same recursive machinery Top-Down uses, so
//!   operators land on arbitrary physical nodes of the cluster. This is the
//!   reading consistent with the paper's Figure 5 (larger `max_cs` ⇒ fewer
//!   levels ⇒ fewer compounding approximations ⇒ *lower* cost), with the
//!   moderate ~34% average sub-optimality of Figure 7, and with the
//!   extended version's claim that Bottom-Up's placement of its chosen
//!   ordering is near-optimal — its real handicap being the *local-first
//!   join order*, which remains unbounded in general (the high-rate remote
//!   stream scenario of Section 2.3.2).
//! * [`BottomUpPlacement::MembersOnly`] — operators sit on the cluster's
//!   member (coordinator) machines, the literal minimal reading of
//!   Theorem 4's `max_cs^(α−1)` placement space; every base stream then
//!   pays full rate to reach a coordinator.
//! * [`BottomUpPlacement::InputColocation`] — members plus the advertised
//!   host nodes of the inputs being joined (`O(max_cs + α)` candidates).
//!
//! In every mode Bottom-Up touches only the sink's ancestor chain and stops
//! as soon as all sources are covered, which is why it deploys much faster
//! than Top-Down (Figure 10).

use crate::engine::{ClusterPlanner, PlannerInput};
use crate::env::Environment;
use crate::placed::PlacedTree;
use crate::stats::SearchStats;
use crate::Optimizer;
use dsq_net::NodeId;
use dsq_query::{Catalog, Deployment, LeafSource, Query, ReuseRegistry, StreamSet};
use std::collections::HashMap;

/// How Bottom-Up turns a within-cluster plan into node assignments.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum BottomUpPlacement {
    /// Plan over members, then refine down inside the cluster's subtree
    /// (Top-Down's recursive machinery, scoped to the cluster).
    #[default]
    Descend,
    /// Operators sit on the cluster's member (coordinator) machines.
    MembersOnly,
    /// Members plus the inputs' advertised host nodes.
    InputColocation,
}

/// The Bottom-Up hierarchical optimizer.
#[derive(Clone, Copy, Debug)]
pub struct BottomUp<'a> {
    env: &'a Environment,
    placement: BottomUpPlacement,
}

/// Tag used for the partial-result placeholder at each level.
const PARTIAL_TAG: usize = usize::MAX - 1;

impl<'a> BottomUp<'a> {
    /// Create a Bottom-Up optimizer with the default (descending)
    /// placement mode.
    pub fn new(env: &'a Environment) -> Self {
        Self::with_placement(env, BottomUpPlacement::default())
    }

    /// Bottom-Up with an explicit placement mode.
    pub fn with_placement(env: &'a Environment, placement: BottomUpPlacement) -> Self {
        BottomUp { env, placement }
    }

    /// Bottom-Up with input-host co-location (see
    /// [`BottomUpPlacement::InputColocation`]).
    pub fn with_input_colocation(env: &'a Environment) -> Self {
        Self::with_placement(env, BottomUpPlacement::InputColocation)
    }
}

impl Optimizer for BottomUp<'_> {
    fn name(&self) -> &'static str {
        "bottom-up"
    }

    fn is_live(&self, host: NodeId) -> bool {
        self.env.hierarchy.is_active(host)
    }

    fn optimize(
        &self,
        catalog: &Catalog,
        query: &Query,
        registry: &ReuseRegistry,
        stats: &mut SearchStats,
    ) -> Option<Deployment> {
        let out = self.optimize_inner(catalog, query, registry, stats);
        // End-of-query commit barrier for subplans staged during Descend
        // refinement (see `PlanCache::commit`).
        self.env.plan_cache.commit();
        out
    }
}

impl BottomUp<'_> {
    fn optimize_inner(
        &self,
        catalog: &Catalog,
        query: &Query,
        registry: &ReuseRegistry,
        stats: &mut SearchStats,
    ) -> Option<Deployment> {
        let _span = dsq_obs::span("bottomup.optimize", || vec![("query", query.id.0.into())]);
        let h = &self.env.hierarchy;
        let load = self.env.load_snapshot();
        let planner = ClusterPlanner::new(catalog, query).with_load(load.as_ref());
        let deriveds = registry.peek_usable(query, |n| self.is_live(n));

        let mut remaining = query.source_set();
        // The accumulated partial result: (tree, covered set, output node).
        let mut partial: Option<(PlacedTree, StreamSet, NodeId)> = None;

        for level in 1..=h.height() {
            let cluster = h.ancestor(query.sink, level);
            let c = h.cluster(cluster);

            // V_local: not-yet-joined base sources in this cluster's
            // subtree, plus compatible derived streams hosted there whose
            // coverage is still outstanding (actual locations; each
            // placement mode applies its own visibility).
            let mut inputs: Vec<PlannerInput> = Vec::new();
            if let Some((_, covered, location)) = &partial {
                inputs.push(PlannerInput::external(
                    PARTIAL_TAG,
                    covered.clone(),
                    *location,
                ));
            }
            for s in remaining.iter() {
                let node = catalog.stream(s).node;
                if h.member_of(cluster, node).is_some() {
                    inputs.push(PlannerInput::base(catalog, s));
                }
            }
            for leaf in &deriveds {
                if let LeafSource::Derived { covered, host, .. } = leaf {
                    if covered.is_subset_of(&remaining) && h.member_of(cluster, *host).is_some() {
                        inputs.push(PlannerInput::derived(leaf.clone()));
                    }
                }
            }

            let universe: StreamSet = inputs.iter().flat_map(|i| i.covered.iter()).collect();
            if universe.is_empty() {
                continue; // nothing new at this level
            }

            if inputs.len() == 1 {
                // A single available input needs no join at this level;
                // carry it upward as-is.
                let input = &inputs[0];
                if partial.is_none() {
                    partial = Some((
                        match &input.kind {
                            crate::engine::InputKind::Leaf(l) => PlacedTree::Leaf(l.clone()),
                            crate::engine::InputKind::External { .. } => unreachable!(),
                        },
                        input.covered.clone(),
                        input.location,
                    ));
                    remaining = query.source_set().difference(&universe);
                    if remaining.is_empty() {
                        break;
                    }
                }
                continue;
            }

            // The level at which coverage completes also routes the result
            // toward the sink; intermediate levels leave it at the operator.
            let completes = universe == query.source_set();
            dsq_obs::counter("bottomup.merge_steps", 1);
            if dsq_obs::enabled() {
                let candidates_evaluated = match self.placement {
                    // Descend and MembersOnly search the cluster's members;
                    // InputColocation adds the distinct input hosts.
                    BottomUpPlacement::Descend | BottomUpPlacement::MembersOnly => c.members.len(),
                    BottomUpPlacement::InputColocation => {
                        let mut extra_hosts: Vec<NodeId> = Vec::new();
                        for i in &inputs {
                            if !c.members.contains(&i.location)
                                && !extra_hosts.contains(&i.location)
                            {
                                extra_hosts.push(i.location);
                            }
                        }
                        c.members.len() + extra_hosts.len()
                    }
                };
                dsq_obs::counter("bottomup.candidates_evaluated", candidates_evaluated as u64);
                dsq_obs::event("bottomup.level", || {
                    vec![
                        ("level", level.into()),
                        ("inputs", inputs.len().into()),
                        ("candidates", candidates_evaluated.into()),
                        ("completes", u64::from(completes).into()),
                    ]
                });
            }
            let planned = match self.placement {
                BottomUpPlacement::Descend => {
                    // Plan over the cluster's members, then refine down
                    // inside the cluster's subtree — Top-Down's recursive
                    // machinery, scoped to this cluster (its `seen_in`
                    // applies the Theorem 1 representative visibility, and
                    // it records the per-level search statistics).
                    let td = crate::topdown::TopDown::new(self.env);
                    let out = td.plan_in_cluster(&planner, cluster, &inputs, query.sink, stats)?;
                    td.refine(&planner, cluster, out.tree, query.sink, stats, &mut 0)?
                }
                BottomUpPlacement::MembersOnly => {
                    let seen: Vec<PlannerInput> = inputs
                        .iter()
                        .map(|i| i.clone().seen_at(h.representative(i.location, level)))
                        .collect();
                    let sink_rep = h.representative(query.sink, level);
                    let dest = if completes { Some(sink_rep) } else { None };
                    stats.record(
                        level,
                        c.coordinator,
                        crate::engine::universe_size(&inputs),
                        c.members.len(),
                    );
                    planner
                        .plan(&seen, &c.members, &self.env.dm, dest, Some(sink_rep), stats)
                        .ok()
                        .flatten()?
                        .tree
                }
                BottomUpPlacement::InputColocation => {
                    // Members + input hosts, exact advertised positions.
                    // Search-space accounting uses the member count,
                    // matching the Lemma 1 formula family of Figure 9 (the
                    // ≤ α extra hosts are a constant-factor detail).
                    let mut candidates = c.members.clone();
                    for i in &inputs {
                        if !candidates.contains(&i.location) {
                            candidates.push(i.location);
                        }
                    }
                    let dest = if completes { Some(query.sink) } else { None };
                    stats.record(
                        level,
                        c.coordinator,
                        crate::engine::universe_size(&inputs),
                        c.members.len(),
                    );
                    planner
                        .plan(
                            &inputs,
                            &candidates,
                            &self.env.dm,
                            dest,
                            Some(query.sink),
                            stats,
                        )
                        .ok()
                        .flatten()?
                        .tree
                }
            };

            // Splice the carried partial result back in.
            let tree = match &partial {
                Some((ptree, _, _)) => {
                    let mut map = HashMap::new();
                    map.insert(PARTIAL_TAG, ptree.clone());
                    planned.substitute_tagged(&map)
                }
                None => planned,
            };
            let location = tree.output_location(catalog);
            remaining = remaining.difference(&universe);
            partial = Some((tree, universe, location));
            if remaining.is_empty() {
                break;
            }
        }

        if !remaining.is_empty() {
            return None; // sources outside the hierarchy's reach
        }
        let (tree, _, _) = partial?;
        if tree.uses_derived() {
            dsq_obs::counter("reuse.hits", 1);
        }
        Some(tree.into_deployment(query, catalog, &self.env.dm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::Optimal;
    use crate::topdown::TopDown;
    use dsq_net::TransitStubConfig;
    use dsq_workload::{WorkloadConfig, WorkloadGenerator};

    fn env(max_cs: usize) -> Environment {
        let net = TransitStubConfig::paper_64().generate(13).network;
        Environment::build(net, max_cs)
    }

    fn workload(env: &Environment, seed: u64, queries: usize) -> dsq_workload::Workload {
        WorkloadGenerator::new(
            WorkloadConfig {
                streams: 20,
                queries,
                joins_per_query: 2..=4,
                ..WorkloadConfig::default()
            },
            seed,
        )
        .generate(&env.network)
    }

    #[test]
    fn bottomup_produces_valid_deployments() {
        let env = env(8);
        let wl = workload(&env, 1, 10);
        for q in &wl.queries {
            let reg = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            let d = BottomUp::new(&env)
                .optimize(&wl.catalog, q, &reg, &mut stats)
                .expect("feasible");
            assert!(d.cost.is_finite() && d.cost > 0.0);
            assert_eq!(d.plan.nodes().len(), 2 * q.sources.len() - 1);
            // The climb visits each outer level at most once: the running
            // maximum of event levels never decreases by more than the
            // within-level refinement depth (i.e. new maxima are strictly
            // increasing).
            assert!(!stats.events.is_empty());
            let mut maxima = Vec::new();
            let mut cur = 0;
            for ev in &stats.events {
                if ev.level > cur {
                    cur = ev.level;
                    maxima.push(ev.level);
                }
            }
            for w in maxima.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn bottomup_never_beats_optimal() {
        let env = env(8);
        let wl = workload(&env, 2, 10);
        for q in &wl.queries {
            let r1 = ReuseRegistry::new();
            let r2 = ReuseRegistry::new();
            let mut s = SearchStats::new();
            let bu = BottomUp::new(&env)
                .optimize(&wl.catalog, q, &r1, &mut s)
                .unwrap();
            let opt = Optimal::new(&env)
                .optimize(&wl.catalog, q, &r2, &mut s)
                .unwrap();
            assert!(
                bu.cost >= opt.cost - 1e-6,
                "bottom-up {} below optimal {}",
                bu.cost,
                opt.cost
            );
        }
    }

    #[test]
    fn bottomup_examines_fewer_plans_than_topdown_on_average() {
        let env = env(8);
        let wl = workload(&env, 3, 12);
        let (mut bu_total, mut td_total) = (0u128, 0u128);
        for q in &wl.queries {
            let mut s_bu = SearchStats::new();
            let mut s_td = SearchStats::new();
            let r1 = ReuseRegistry::new();
            let r2 = ReuseRegistry::new();
            BottomUp::new(&env)
                .optimize(&wl.catalog, q, &r1, &mut s_bu)
                .unwrap();
            TopDown::new(&env)
                .optimize(&wl.catalog, q, &r2, &mut s_td)
                .unwrap();
            bu_total += s_bu.plans_considered;
            td_total += s_td.plans_considered;
        }
        assert!(
            bu_total < td_total,
            "bottom-up {bu_total} vs top-down {td_total}"
        );
    }

    #[test]
    fn bottomup_uses_local_derived_streams() {
        let env = env(8);
        let wl = workload(&env, 4, 1);
        let q0 = &wl.queries[0];
        let mut reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        let d0 = BottomUp::new(&env)
            .optimize(&wl.catalog, q0, &reg, &mut stats)
            .unwrap();
        reg.register_deployment(q0, &d0);
        // An identical query from a different sink should not cost more
        // with the registry populated.
        let sinks = env.network.stub_nodes();
        let q1 = Query::join(dsq_query::QueryId(70), q0.sources.clone(), sinks[3]);
        let with = BottomUp::new(&env)
            .optimize(&wl.catalog, &q1, &reg, &mut stats)
            .unwrap();
        let empty = ReuseRegistry::new();
        let without = BottomUp::new(&env)
            .optimize(&wl.catalog, &q1, &empty, &mut stats)
            .unwrap();
        assert!(with.cost <= without.cost + 1e-6);
    }

    #[test]
    fn descend_refinement_cache_never_changes_answers() {
        // The Descend placement mode refines through TopDown's recursive
        // machinery, which stages and commits into the shared subplan
        // cache — a second client of the memoization beyond the
        // multi-query driver. Distinct queries rarely share cells (the
        // key carries the full canonical input list and the sink
        // representative), so the hit path is exercised by a second pass
        // over the warmed cache: it must replay every cell and land on
        // the same bits, and both passes must match the cache-off run.
        let env = env(8);
        let wl = workload(&env, 7, 10);
        let run = |enabled: bool| {
            let env = env.reclustered(8); // fresh cache, identical hierarchy
            env.plan_cache.set_enabled(enabled);
            let bu = BottomUp::new(&env);
            let pass = || -> Vec<Option<u64>> {
                wl.queries
                    .iter()
                    .map(|q| {
                        let reg = ReuseRegistry::new();
                        let mut stats = SearchStats::new();
                        bu.optimize(&wl.catalog, q, &reg, &mut stats)
                            .map(|d| d.cost.to_bits())
                    })
                    .collect()
            };
            let cold = pass();
            let warm = pass();
            assert_eq!(cold, warm, "warm replay changed an answer");
            (cold, env.plan_cache.hits())
        };
        let (off, _) = run(false);
        let (on, hits) = run(true);
        assert_eq!(off, on);
        assert!(hits > 0, "bottom-up refinement must exercise the cache");
    }

    #[test]
    fn single_source_query_works() {
        let env = env(8);
        let mut catalog = Catalog::new();
        let nodes = env.network.stub_nodes();
        let s = catalog.add_stream("S", 7.0, nodes[0], dsq_query::Schema::default());
        let q = Query::join(dsq_query::QueryId(0), [s], nodes[20]);
        let reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        let d = BottomUp::new(&env)
            .optimize(&catalog, &q, &reg, &mut stats)
            .unwrap();
        assert!((d.cost - 7.0 * env.dm.get(nodes[0], nodes[20])).abs() < 1e-9);
    }

    #[test]
    fn flat_hierarchy_bottomup_equals_optimal() {
        let env = env(64);
        assert_eq!(env.hierarchy.height(), 1);
        let wl = workload(&env, 6, 6);
        for q in &wl.queries {
            let r1 = ReuseRegistry::new();
            let r2 = ReuseRegistry::new();
            let mut s = SearchStats::new();
            let bu = BottomUp::new(&env)
                .optimize(&wl.catalog, q, &r1, &mut s)
                .unwrap();
            let opt = Optimal::new(&env)
                .optimize(&wl.catalog, q, &r2, &mut s)
                .unwrap();
            assert!(
                (bu.cost - opt.cost).abs() < 1e-6,
                "flat bottom-up {} vs optimal {}",
                bu.cost,
                opt.cost
            );
        }
    }
}
