//! The optimization environment: network, distances, embedding, hierarchy.

use crate::load::LoadModel;
use dsq_hierarchy::membership::{self, JoinOutcome};
use dsq_hierarchy::{Hierarchy, HierarchyConfig, HierarchyDelta};
use dsq_net::{ChangedEntries, CostSpace, DistanceMatrix, LinkRepair, Metric, Network, NodeId};
use std::sync::{Arc, RwLock};

/// Everything the optimizers need to know about the physical substrate,
/// computed once per network and shared across queries.
///
/// The paper's performance function "might be a low level function, like
/// response time or communication cost": the [`Metric`] chosen at build
/// time decides which link weight the distance matrix — and therefore the
/// clustering ("if the metric is response-time, we cluster based on
/// inter-node delays") and every optimizer decision — is based on.
#[derive(Clone, Debug)]
pub struct Environment {
    /// The physical network.
    pub network: Network,
    /// Actual all-pairs shortest-path distances under `metric` (`c_act`).
    pub dm: DistanceMatrix,
    /// 3-d cost-space embedding (drives K-Means clustering; also used by
    /// the Relaxation baseline).
    pub space: CostSpace,
    /// The virtual clustering hierarchy.
    pub hierarchy: Hierarchy,
    /// The optimization metric the environment was built for.
    pub metric: Metric,
    /// Optional processing-load model; when present, every optimizer adds
    /// its overload penalties to candidate placements. Shared behind a lock
    /// so standing load survives across queries (commit with
    /// [`Environment::commit_load`]).
    pub load: Option<Arc<RwLock<LoadModel>>>,
    /// Shared memoized subplan cache (disabled by default; see
    /// [`crate::cache::PlanCache`]). Cloned environments share it; fault
    /// surgery (below) and the planning service's rate observations retire
    /// the entries a change of distances, hierarchy or catalog reaches.
    pub plan_cache: Arc<crate::cache::PlanCache>,
}

impl Environment {
    /// Build an environment with a K-Means hierarchy capped at `max_cs`,
    /// optimizing communication cost.
    pub fn build(network: Network, max_cs: usize) -> Self {
        Self::build_with(network, HierarchyConfig::new(max_cs), 40)
    }

    /// Build a *response-time* environment: distances, clustering and all
    /// downstream planning minimize rate-weighted latency instead of
    /// transfer cost.
    pub fn build_latency(network: Network, max_cs: usize) -> Self {
        Self::build_full(network, HierarchyConfig::new(max_cs), 40, Metric::DelayMs)
    }

    /// Build with explicit hierarchy configuration and embedding sweeps
    /// (communication-cost metric).
    pub fn build_with(network: Network, config: HierarchyConfig, embed_iters: usize) -> Self {
        Self::build_full(network, config, embed_iters, Metric::Cost)
    }

    /// Fully explicit build.
    pub fn build_full(
        network: Network,
        config: HierarchyConfig,
        embed_iters: usize,
        metric: Metric,
    ) -> Self {
        let dm = DistanceMatrix::build(&network, metric);
        let seed = config.seed ^ network.len() as u64;
        let space = CostSpace::embed(&dm, seed, embed_iters);
        let active: Vec<NodeId> = network.nodes().collect();
        let hierarchy = Hierarchy::build(&active, &dm, &space, config);
        Environment {
            network,
            dm,
            space,
            hierarchy,
            metric,
            load: None,
            plan_cache: Arc::new(crate::cache::PlanCache::new()),
        }
    }

    /// Attach a load model (overload penalties participate in planning
    /// from now on).
    pub fn enable_load_model(&mut self, model: LoadModel) {
        assert_eq!(model.len(), self.network.len());
        self.load = Some(Arc::new(RwLock::new(model)));
    }

    /// A snapshot of the current load state, if a model is attached.
    pub fn load_snapshot(&self) -> Option<LoadModel> {
        self.load
            .as_ref()
            .map(|l| l.read().expect("load lock poisoned").clone())
    }

    /// Add a deployment's operators to the standing load.
    pub fn commit_load(&self, deployment: &dsq_query::Deployment) {
        if let Some(l) = &self.load {
            l.write().expect("load lock poisoned").commit(deployment);
        }
    }

    /// Remove a deployment's operators from the standing load (migration).
    pub fn release_load(&self, deployment: &dsq_query::Deployment) {
        if let Some(l) = &self.load {
            l.write().expect("load lock poisoned").release(deployment);
        }
    }

    /// Swap the shared subplan cache for a fresh, private one with the
    /// given enablement. Cloned environments share the cache `Arc`, so
    /// harnesses that compare runs bit-for-bit (e.g. the chaos runner)
    /// call this at run start — one run's entries and hit counts must not
    /// leak into the next.
    pub fn isolate_cache(&mut self, enabled: bool) {
        self.plan_cache = Arc::new(crate::cache::PlanCache::new_with_enabled(enabled));
    }

    /// A copy of this environment re-clustered with a different `max_cs`
    /// (reuses the distance matrix and embedding — the expensive parts).
    ///
    /// This mirrors the paper's note that "multiple virtual clustering
    /// hierarchies can be created simultaneously with different values of
    /// the max_cs parameter".
    pub fn reclustered(&self, max_cs: usize) -> Self {
        let active: Vec<NodeId> = self.network.nodes().collect();
        let hierarchy =
            Hierarchy::build(&active, &self.dm, &self.space, HierarchyConfig::new(max_cs));
        Environment {
            network: self.network.clone(),
            dm: self.dm.clone(),
            space: self.space.clone(),
            hierarchy,
            metric: self.metric,
            load: self.load.clone(),
            // The new hierarchy makes old cluster keys meaningless: start a
            // fresh cache, preserving only the operator's on/off choice.
            plan_cache: Arc::new(crate::cache::PlanCache::new_with_enabled(
                self.plan_cache.is_enabled(),
            )),
        }
    }
}

/// Fewest overlay members a crash may leave behind: [`Environment::crash_node`]
/// refuses to excise a node at this population — a two-member overlay is
/// the smallest the membership machinery supports without forfeiting the
/// partition structure entirely, so schedulers give the victim's queries up
/// (or skip the report) instead.
pub const OVERLAY_FLOOR: usize = 2;

/// Fault surgery: the one place a crash, a rejoin or a link-cost change is
/// applied to an environment. Each routine leaves hierarchy, distances and
/// hierarchy statistics consistent and retires exactly the memoized subplans
/// the change could have reached, so the planning service and the oracle's
/// fault checks cannot apply different fault rules. All three are pure
/// functions of `(self, arguments)` — snapshot recovery replays them
/// against a freshly built environment.
impl Environment {
    /// Run one membership operation and retire the subplans planned against
    /// the clusters it reports changed.
    fn membership_surgery<T>(
        &mut self,
        op: impl FnOnce(&mut Hierarchy, &DistanceMatrix) -> (T, HierarchyDelta),
    ) -> T {
        let (out, delta) = op(&mut self.hierarchy, &self.dm);
        self.plan_cache.retire_membership(&self.hierarchy, &delta);
        out
    }

    /// Excise a crashed node from the overlay (coordinator re-election
    /// happens inside). Returns `false`, leaving the environment untouched,
    /// when `node` is not an active member or the overlay is at
    /// [`OVERLAY_FLOOR`].
    pub fn crash_node(&mut self, node: NodeId) -> bool {
        if !self.hierarchy.is_active(node) || self.hierarchy.active_count() <= OVERLAY_FLOOR {
            return false;
        }
        self.membership_surgery(|h, dm| {
            let delta =
                membership::remove_node(h, dm, node).expect("guarded: node active, above floor");
            ((), delta)
        });
        true
    }

    /// Rejoin a recovered node through the membership protocol, contacting
    /// its nearest active member as a recovering machine would. `None`
    /// (environment untouched) when `node` already is a member.
    pub fn rejoin_node(&mut self, node: NodeId) -> Option<JoinOutcome> {
        if self.hierarchy.is_active(node) {
            return None;
        }
        let via = self.rejoin_contact(node);
        Some(self.membership_surgery(|h, dm| membership::add_node(h, dm, node, via)))
    }

    /// The member a node rejoining the overlay contacts: the active member
    /// nearest to it, the lowest id among equals.
    pub fn rejoin_contact(&self, node: NodeId) -> NodeId {
        self.hierarchy
            .active()
            .min_by(|&a, &b| {
                self.dm
                    .get(a, node)
                    .total_cmp(&self.dm.get(b, node))
                    .then(a.0.cmp(&b.0))
            })
            .expect("overlay is never empty")
    }

    /// Set the cost of link `a`–`b` and bring the distance matrix (repaired
    /// in place under [`Self::metric`]; bit-identical to a fresh
    /// [`DistanceMatrix::build`]), the subplan cache and the hierarchy's
    /// cost statistics up to date. Returns how the matrix was repaired and
    /// the entries it changed, or `None` (environment untouched) when there
    /// is no such link. A cost that leaves the weight under [`Self::metric`]
    /// as it was — any cost, to a latency environment — changes the
    /// network's price and nothing else.
    ///
    /// Past the repair, the work is sized by the change: every changed
    /// distance pair has an endpoint in the record's
    /// [cover](ChangedEntries::cover), so only the subplans and the
    /// clusters with a node in it are looked at.
    pub fn reprice_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        new_cost: f64,
    ) -> Option<(LinkRepair, ChangedEntries)> {
        let old_w = self.metric.weight(self.network.find_link(a, b)?);
        self.network.set_link_cost(a, b, new_cost);
        let (repair, changed) = self.dm.repair_link_change(&self.network, a, b, old_w);
        dsq_obs::counter("net.repair.nodes_settled", changed.nodes_settled());
        if !changed.is_empty() {
            // Pair-aware: an entry goes only if two nodes it consulted moved
            // apart, so a drift on a far-away link leaves the cache intact.
            self.plan_cache.retire_changed(&self.hierarchy, &changed);
            self.hierarchy
                .refresh_statistics_near(&self.dm, changed.cover());
        }
        Some((repair, changed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_net::TransitStubConfig;

    #[test]
    fn build_and_recluster() {
        let net = TransitStubConfig::paper_64().generate(1).network;
        let env = Environment::build(net, 8);
        env.hierarchy.check_invariants();
        let env32 = env.reclustered(32);
        env32.hierarchy.check_invariants();
        assert!(env32.hierarchy.height() <= env.hierarchy.height());
        assert_eq!(env32.dm.len(), env.dm.len());
        assert_eq!(env.metric, Metric::Cost);
    }

    #[test]
    fn latency_environment_uses_delay_distances() {
        let net = TransitStubConfig::paper_64().generate(2).network;
        let cost_env = Environment::build(net.clone(), 8);
        let lat_env = Environment::build_latency(net.clone(), 8);
        assert_eq!(lat_env.metric, Metric::DelayMs);
        // Pick a pair whose cost and delay distances differ; the two
        // environments must disagree on at least some distances (delays are
        // uniform 1–6 ms across tiers, costs are strongly tiered).
        let a = NodeId(5);
        let b = NodeId(net.len() as u32 - 1);
        assert_ne!(cost_env.dm.get(a, b), lat_env.dm.get(a, b));
    }

    #[test]
    fn latency_optimizer_minimizes_delay() {
        use crate::{Optimizer, SearchStats, TopDown};
        let net = TransitStubConfig::paper_64().generate(3).network;
        let lat_env = Environment::build_latency(net, 8);
        let wl = dsq_workload::WorkloadGenerator::new(
            dsq_workload::WorkloadConfig {
                streams: 10,
                queries: 4,
                joins_per_query: 2..=3,
                ..Default::default()
            },
            5,
        )
        .generate(&lat_env.network);
        for q in &wl.queries {
            let reg = dsq_query::ReuseRegistry::new();
            let mut stats = SearchStats::new();
            let d = TopDown::new(&lat_env)
                .optimize(&wl.catalog, q, &reg, &mut stats)
                .unwrap();
            // Deployment cost is rate-weighted latency under this metric.
            assert!(d.cost.is_finite() && d.cost > 0.0);
            let opt = crate::Optimal::new(&lat_env)
                .optimize(&wl.catalog, q, &dsq_query::ReuseRegistry::new(), &mut stats)
                .unwrap();
            assert!(d.cost >= opt.cost - 1e-6);
        }
    }
}
