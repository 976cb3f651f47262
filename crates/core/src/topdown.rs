//! The Top-Down algorithm (Section 2.2).
//!
//! "The query Q is submitted as input to the top level coordinator. The
//! coordinator exhaustively constructs the possible query trees … and then
//! for each such tree constructs a set of all possible node assignments
//! within its current cluster … An assignment of operators to nodes
//! partitions the query into a number of views, each allocated to a single
//! node at level t. Each node is then responsible for instantiating such a
//! view using sources (base or derived) available within its underlying
//! cluster … This process continues until level 1."
//!
//! Implementation notes:
//!
//! * Each within-cluster search runs through the shared
//!   [`ClusterPlanner`]; distances are taken between level-`l`
//!   *representatives* (Theorem 1's `c_est^l`), which is where the bounded
//!   sub-optimality (Theorem 3) comes from.
//! * An assignment partitions the chosen tree into per-member *fragments*;
//!   each fragment is re-planned one level down (both its join order over
//!   its own inputs and its placements are reconsidered, per the paper),
//!   with inputs produced by sibling fragments pinned at the sibling
//!   member's coordinator.
//! * Derived streams from the [`ReuseRegistry`]
//!   enter the top-level search as ordinary inputs, so "operator reuse is
//!   automatically considered in the planning process".

use crate::cache::{CacheEntry, EntryDeps};
use crate::engine::{ClusterPlanner, PlannerInput, PlannerOutput};
use crate::env::Environment;
use crate::placed::PlacedTree;
use crate::stats::SearchStats;
use crate::Optimizer;
use dsq_hierarchy::ClusterId;
use dsq_net::NodeId;
use dsq_query::{Catalog, Deployment, LeafSource, Query, ReuseRegistry};
use std::collections::HashMap;
use std::sync::Arc;

/// The Top-Down hierarchical optimizer.
#[derive(Clone, Copy, Debug)]
pub struct TopDown<'a> {
    env: &'a Environment,
}

/// A per-member view carved out of a higher-level assignment.
struct Fragment {
    /// Member (representative node) the fragment's joins were assigned to.
    member: NodeId,
    /// Globally unique tag its `External` placeholder carries.
    tag: usize,
    /// The fragment's subtree (joins all at `member`; leaves are inputs or
    /// `External` references to other fragments).
    tree: PlacedTree,
    /// Index of the consuming fragment (`None` for the query root).
    consumer: Option<usize>,
}

impl<'a> TopDown<'a> {
    /// Create a Top-Down optimizer over an environment.
    pub fn new(env: &'a Environment) -> Self {
        TopDown { env }
    }

    /// The node standing in for `loc` during planning inside `cluster`:
    /// its level-`l` representative when `loc` lies in the cluster's
    /// subtree, otherwise its representative at the parent level (the
    /// resolution at which the cluster's coordinator learned about it).
    pub(crate) fn seen_in(&self, cluster: ClusterId, loc: NodeId) -> NodeId {
        let h = &self.env.hierarchy;
        if h.member_of(cluster, loc).is_some() {
            h.representative(loc, cluster.level)
        } else {
            h.representative(loc, (cluster.level + 1).min(h.height()))
        }
    }

    /// One coordinator's exhaustive (plan × placement) search over its
    /// cluster members, memoized through the environment's
    /// [`PlanCache`](crate::cache::PlanCache): a cache hit replays the
    /// original invocation's [`SearchStats`] delta and returns the stored
    /// result; a cacheable miss stages its result for the next commit
    /// barrier.
    pub(crate) fn plan_in_cluster(
        &self,
        planner: &ClusterPlanner<'_>,
        cluster: ClusterId,
        inputs: &[PlannerInput],
        dest: NodeId,
        stats: &mut SearchStats,
    ) -> Option<PlannerOutput> {
        let cache = &self.env.plan_cache;
        let key = cache.key_for(planner, cluster, inputs, dest);
        if let Some(k) = &key {
            if let Some(entry) = cache.lookup(k) {
                dsq_obs::counter("planner.cache_hits", 1);
                stats.merge(&entry.stats);
                // The stored tree references the *original* invocation's
                // external tags; rewrite them into this caller's namespace
                // (positional — the key guarantees the inputs line up).
                let tags = crate::cache::external_tags(inputs);
                return entry.output.clone().map(|mut out| {
                    if tags != entry.ext_tags {
                        out.tree = crate::cache::retag(&out.tree, &entry.ext_tags, &tags);
                    }
                    out
                });
            }
            dsq_obs::counter("planner.cache_misses", 1);
        }
        let mut local = SearchStats::new();
        let out = self.plan_in_cluster_uncached(planner, cluster, inputs, dest, &mut local);
        stats.merge(&local);
        if let Some(k) = key {
            cache.stage(
                k,
                Arc::new(CacheEntry {
                    output: out.clone(),
                    stats: local,
                    ext_tags: crate::cache::external_tags(inputs),
                    deps: self.entry_deps(cluster, inputs, dest),
                }),
            );
        }
        out
    }

    /// Dependency record for a cacheable invocation: the nodes whose
    /// distances the DP can consult (members + seen inputs + seen
    /// destination, and apart the seen nodes outside the members), the raw locations the representatives were derived
    /// from, and the covered base streams. Consumed by the cache's scoped
    /// retirement (`PlanCache::retire_*`).
    fn entry_deps(&self, cluster: ClusterId, inputs: &[PlannerInput], dest: NodeId) -> EntryDeps {
        let c = self.env.hierarchy.cluster(cluster);
        let mut locations = Vec::with_capacity(inputs.len() + 1);
        let mut outside = Vec::with_capacity(inputs.len() + 1);
        let mut streams = Vec::new();
        for i in inputs {
            locations.push(i.location);
            outside.push(self.seen_in(cluster, i.location));
            streams.extend(i.covered.iter());
        }
        locations.push(dest);
        outside.push(self.seen_in(cluster, dest));
        outside.retain(|n| !c.members.contains(n));
        outside.sort_unstable();
        outside.dedup();
        let mut metric_nodes = c.members.clone();
        metric_nodes.extend(&outside);
        metric_nodes.sort_unstable();
        metric_nodes.dedup();
        locations.sort_unstable();
        locations.dedup();
        streams.sort_unstable();
        streams.dedup();
        EntryDeps {
            metric_nodes,
            outside,
            locations,
            streams,
        }
    }

    fn plan_in_cluster_uncached(
        &self,
        planner: &ClusterPlanner<'_>,
        cluster: ClusterId,
        inputs: &[PlannerInput],
        dest: NodeId,
        stats: &mut SearchStats,
    ) -> Option<PlannerOutput> {
        let c = self.env.hierarchy.cluster(cluster);
        let seen_inputs: Vec<PlannerInput> = inputs
            .iter()
            .map(|i| i.clone().seen_at(self.seen_in(cluster, i.location)))
            .collect();
        let dest_seen = self.seen_in(cluster, dest);
        stats.record(
            cluster.level,
            c.coordinator,
            crate::engine::universe_size(inputs),
            c.members.len(),
        );
        dsq_obs::counter("topdown.cells_opened", 1);
        dsq_obs::event("topdown.cell", || {
            vec![
                ("level", cluster.level.into()),
                ("coordinator", c.coordinator.0.into()),
                ("members", c.members.len().into()),
                ("inputs", inputs.len().into()),
                (
                    "theorem1_slack",
                    self.env.hierarchy.theorem1_slack(cluster.level).into(),
                ),
            ]
        });
        planner
            .plan(
                &seen_inputs,
                &c.members,
                &self.env.dm,
                Some(dest_seen),
                None,
                stats,
            )
            // A typed refusal (universe too wide) means this cluster cannot
            // plan the fragment — the same outcome as infeasibility here.
            .ok()
            .flatten()
    }

    /// Recursively re-plan a cluster-level assignment one level down until
    /// every operator sits on a physical node. Sibling fragments are
    /// refined one after the other, in fragment order; the parallelism is
    /// across queries ([`crate::parallel::optimize_all`]). `next_tag`
    /// starts at zero once per query (see `decompose`).
    pub(crate) fn refine(
        &self,
        planner: &ClusterPlanner<'_>,
        cluster: ClusterId,
        tree: PlacedTree,
        dest: NodeId,
        stats: &mut SearchStats,
        next_tag: &mut usize,
    ) -> Option<PlacedTree> {
        if cluster.level == 1 || tree.join_count() == 0 {
            // Level-1 assignments are physical; operator-free trees have
            // nothing to refine — this cluster's whole subtree is pruned
            // from the descent.
            dsq_obs::counter("topdown.cells_pruned", 1);
            return Some(tree);
        }
        let fragments = decompose(tree, next_tag);
        let h = &self.env.hierarchy;
        let members = &h.cluster(cluster).members;

        let mut refined = Vec::with_capacity(fragments.len());
        for frag in &fragments {
            let member_idx = members
                .iter()
                .position(|&m| m == frag.member)
                .expect("fragment joins were assigned to cluster members");
            let child = h.child_of_member(cluster, member_idx);
            let inputs = collect_inputs(&frag.tree, planner.catalog());
            let dest_actual = match frag.consumer {
                Some(cf) => fragments[cf].member,
                None => dest,
            };
            let out = self.plan_in_cluster(planner, child, &inputs, dest_actual, stats)?;
            refined.push(self.refine(planner, child, out.tree, dest_actual, stats, next_tag)?);
        }

        // Splice sibling fragments back together (tags from enclosing
        // refinement scopes pass through untouched).
        let tag_map: HashMap<usize, usize> = fragments
            .iter()
            .enumerate()
            .map(|(i, f)| (f.tag, i))
            .collect();
        Some(resolve(0, &fragments, &refined, &tag_map))
    }
}

/// Recursively substitute locally owned `External` tags.
fn resolve(
    fid: usize,
    fragments: &[Fragment],
    refined: &[PlacedTree],
    tag_map: &HashMap<usize, usize>,
) -> PlacedTree {
    let mut subs = HashMap::new();
    collect_local_tags(&refined[fid], tag_map, &mut subs, fragments, refined);
    refined[fid].clone().substitute_tagged(&subs)
}

fn collect_local_tags(
    tree: &PlacedTree,
    tag_map: &HashMap<usize, usize>,
    subs: &mut HashMap<usize, PlacedTree>,
    fragments: &[Fragment],
    refined: &[PlacedTree],
) {
    match tree {
        PlacedTree::Leaf(_) => {}
        PlacedTree::External { tag, .. } => {
            if let Some(&fid) = tag_map.get(tag) {
                if !subs.contains_key(tag) {
                    let sub = resolve(fid, fragments, refined, tag_map);
                    subs.insert(*tag, sub);
                }
            }
        }
        PlacedTree::Join { left, right, .. } => {
            collect_local_tags(left, tag_map, subs, fragments, refined);
            collect_local_tags(right, tag_map, subs, fragments, refined);
        }
    }
}

/// Split a placed tree into maximal same-member fragments, the root's
/// first. Each takes the next tag from `next_tag`, a counter the caller
/// starts at zero once per query so that tags stay unique across nested
/// refinement scopes; they only link a fragment to the `External`
/// placeholders referencing it and are substituted away by `resolve`.
fn decompose(tree: PlacedTree, next_tag: &mut usize) -> Vec<Fragment> {
    fn fresh_tag(next_tag: &mut usize) -> usize {
        *next_tag += 1;
        *next_tag - 1
    }

    fn walk(
        t: &PlacedTree,
        cur: usize,
        fragments: &mut Vec<Fragment>,
        next_tag: &mut usize,
    ) -> PlacedTree {
        match t {
            PlacedTree::Join { left, right, node } if *node == fragments[cur].member => {
                PlacedTree::Join {
                    left: Box::new(walk(left, cur, fragments, next_tag)),
                    right: Box::new(walk(right, cur, fragments, next_tag)),
                    node: *node,
                }
            }
            PlacedTree::Join { node, .. } => {
                // A join on a different member starts a new fragment whose
                // output feeds the current one.
                let tag = fresh_tag(next_tag);
                let fid = fragments.len();
                fragments.push(Fragment {
                    member: *node,
                    tag,
                    tree: PlacedTree::Leaf(LeafSource::Base(dsq_query::StreamId(u32::MAX))),
                    consumer: Some(cur),
                });
                let sub = walk(t, fid, fragments, next_tag);
                let covered = sub.covered();
                fragments[fid].tree = sub;
                PlacedTree::External {
                    tag,
                    covered,
                    location: *node,
                }
            }
            // Leaves and enclosing-scope externals stay with the current
            // fragment as inputs.
            other => other.clone(),
        }
    }

    let root_member = match &tree {
        PlacedTree::Join { node, .. } => *node,
        _ => unreachable!("decompose requires a join root"),
    };
    let mut fragments = vec![Fragment {
        member: root_member,
        tag: fresh_tag(next_tag),
        tree: PlacedTree::Leaf(LeafSource::Base(dsq_query::StreamId(u32::MAX))),
        consumer: None,
    }];
    fragments[0].tree = walk(&tree, 0, &mut fragments, next_tag);
    fragments
}

/// Planner inputs for a fragment: its leaf streams plus `External`
/// references to sibling fragments.
fn collect_inputs(tree: &PlacedTree, catalog: &Catalog) -> Vec<PlannerInput> {
    let mut out = Vec::new();
    fn walk(t: &PlacedTree, catalog: &Catalog, out: &mut Vec<PlannerInput>) {
        match t {
            PlacedTree::Leaf(LeafSource::Base(id)) => out.push(PlannerInput::base(catalog, *id)),
            PlacedTree::Leaf(l @ LeafSource::Derived { .. }) => {
                out.push(PlannerInput::derived(l.clone()))
            }
            PlacedTree::External {
                tag,
                covered,
                location,
            } => out.push(PlannerInput::external(*tag, covered.clone(), *location)),
            PlacedTree::Join { left, right, .. } => {
                walk(left, catalog, out);
                walk(right, catalog, out);
            }
        }
    }
    walk(tree, catalog, &mut out);
    out
}

impl Optimizer for TopDown<'_> {
    fn name(&self) -> &'static str {
        "top-down"
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
        let _span = dsq_obs::span("topdown.optimize", || vec![("query", query.id.0.into())]);
        // A sink or source origin outside the overlay has no cluster to be
        // planned in: no plan, like any other infeasible query.
        let h = &self.env.hierarchy;
        if !h.is_active(query.sink)
            || query
                .sources
                .iter()
                .any(|&s| !h.is_active(catalog.stream(s).node))
        {
            return None;
        }
        let load = self.env.load_snapshot();
        let planner = ClusterPlanner::new(catalog, query).with_load(load.as_ref());
        let mut inputs: Vec<PlannerInput> = query
            .sources
            .iter()
            .map(|&s| PlannerInput::base(catalog, s))
            .collect();
        // Only adverts on currently active hosts may become plan leaves —
        // the liveness view is the hierarchy's, so a crash the registry
        // has not heard about still filters the advert.
        for leaf in registry.peek_usable(query, |n| self.is_live(n)) {
            inputs.push(PlannerInput::derived(leaf));
        }
        let top = self.env.hierarchy.top();
        let out = self.plan_in_cluster(&planner, top, &inputs, query.sink, stats);
        let tree =
            out.and_then(|out| self.refine(&planner, top, out.tree, query.sink, stats, &mut 0));
        // End-of-query commit barrier: no planning is in flight, so staged
        // subplans become visible to the next optimization.
        self.env.plan_cache.commit();
        let tree = tree?;
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
    use dsq_net::TransitStubConfig;
    use dsq_workload::{WorkloadConfig, WorkloadGenerator};

    fn env(max_cs: usize) -> Environment {
        let net = TransitStubConfig::paper_64().generate(7).network;
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
    fn topdown_produces_valid_deployments() {
        let env = env(8);
        let wl = workload(&env, 1, 8);
        for q in &wl.queries {
            let reg = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            let d = TopDown::new(&env)
                .optimize(&wl.catalog, q, &reg, &mut stats)
                .expect("feasible");
            assert!(d.cost.is_finite() && d.cost > 0.0);
            assert_eq!(d.plan.nodes().len(), 2 * q.sources.len() - 1);
            // Events must start at the top level and descend.
            assert_eq!(stats.events[0].level, env.hierarchy.height());
        }
    }

    #[test]
    fn a_crashed_sink_or_origin_gets_no_plan_instead_of_a_panic() {
        let mut env = env(8);
        let wl = workload(&env, 4, 4);
        let q = &wl.queries[0];
        let origin = wl.catalog.stream(q.sources[0]).node;
        for down in [q.sink, origin] {
            let mut crashed = env.clone();
            assert!(crashed.crash_node(down));
            let plan = TopDown::new(&crashed).optimize(
                &wl.catalog,
                q,
                &ReuseRegistry::new(),
                &mut SearchStats::new(),
            );
            assert!(plan.is_none(), "planned around crashed node {down:?}");
        }
        // With both up again the query plans.
        env.isolate_cache(true);
        assert!(TopDown::new(&env)
            .optimize(
                &wl.catalog,
                q,
                &ReuseRegistry::new(),
                &mut SearchStats::new()
            )
            .is_some());
    }

    #[test]
    fn topdown_never_beats_optimal() {
        let env = env(8);
        let wl = workload(&env, 2, 10);
        for q in &wl.queries {
            let r1 = ReuseRegistry::new();
            let r2 = ReuseRegistry::new();
            let mut s = SearchStats::new();
            let td = TopDown::new(&env)
                .optimize(&wl.catalog, q, &r1, &mut s)
                .unwrap();
            let opt = Optimal::new(&env)
                .optimize(&wl.catalog, q, &r2, &mut s)
                .unwrap();
            assert!(
                td.cost >= opt.cost - 1e-6,
                "top-down {} below optimal {}",
                td.cost,
                opt.cost
            );
        }
    }

    #[test]
    fn topdown_respects_theorem3_bound() {
        let env = env(8);
        let wl = workload(&env, 3, 10);
        for q in &wl.queries {
            let r1 = ReuseRegistry::new();
            let r2 = ReuseRegistry::new();
            let mut s = SearchStats::new();
            let td = TopDown::new(&env)
                .optimize(&wl.catalog, q, &r1, &mut s)
                .unwrap();
            let opt = Optimal::new(&env)
                .optimize(&wl.catalog, q, &r2, &mut s)
                .unwrap();
            let bound = crate::bounds::theorem3_bound(&td, &env.hierarchy);
            assert!(
                td.cost - opt.cost <= bound + 1e-6,
                "gap {} exceeds Theorem 3 bound {}",
                td.cost - opt.cost,
                bound
            );
        }
    }

    #[test]
    fn topdown_search_space_is_tiny_fraction_of_exhaustive() {
        let env = env(8);
        let wl = workload(&env, 4, 6);
        let n = env.network.len();
        for q in &wl.queries {
            let reg = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            TopDown::new(&env)
                .optimize(&wl.catalog, q, &reg, &mut stats)
                .unwrap();
            let exhaustive = crate::bounds::lemma1_space(q.sources.len(), n);
            assert!(
                stats.plans_considered < exhaustive / 10,
                "plans {} vs exhaustive {}",
                stats.plans_considered,
                exhaustive
            );
        }
    }

    #[test]
    fn topdown_exploits_reuse() {
        let env = env(8);
        let wl = workload(&env, 5, 1);
        let q0 = &wl.queries[0];
        let mut reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        let d0 = TopDown::new(&env)
            .optimize(&wl.catalog, q0, &reg, &mut stats)
            .unwrap();
        reg.register_deployment(q0, &d0);
        // Same sources, different sink: with the registry populated, the
        // new deployment must not cost more than replanning from scratch.
        let sinks: Vec<NodeId> = env.network.stub_nodes();
        let q1 = Query::join(
            dsq_query::QueryId(50),
            q0.sources.clone(),
            sinks[sinks.len() / 2],
        );
        let with = TopDown::new(&env)
            .optimize(&wl.catalog, &q1, &reg, &mut stats)
            .unwrap();
        let empty = ReuseRegistry::new();
        let without = TopDown::new(&env)
            .optimize(&wl.catalog, &q1, &empty, &mut stats)
            .unwrap();
        assert!(with.cost <= without.cost + 1e-6);
    }

    #[test]
    fn flat_hierarchy_topdown_equals_optimal() {
        // With max_cs ≥ n the hierarchy has one level and Top-Down's search
        // degenerates to the exact whole-network DP.
        let env = env(64);
        assert_eq!(env.hierarchy.height(), 1);
        let wl = workload(&env, 6, 6);
        for q in &wl.queries {
            let r1 = ReuseRegistry::new();
            let r2 = ReuseRegistry::new();
            let mut s = SearchStats::new();
            let td = TopDown::new(&env)
                .optimize(&wl.catalog, q, &r1, &mut s)
                .unwrap();
            let opt = Optimal::new(&env)
                .optimize(&wl.catalog, q, &r2, &mut s)
                .unwrap();
            assert!(
                (td.cost - opt.cost).abs() < 1e-6,
                "flat top-down {} vs optimal {}",
                td.cost,
                opt.cost
            );
        }
    }
}
