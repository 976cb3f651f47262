//! The query-lifecycle core: the per-query decisions every scheduler of
//! faults shares.
//!
//! "The virtual hierarchy is robust enough to adapt as necessary. … Failure
//! of coordinator and operator nodes can be handled by maintaining active
//! back-ups of those nodes within each cluster" (Section 2.1.1). A fault is
//! handled in two halves:
//!
//! 1. *environment surgery* — the node is excised from (or rejoined to) the
//!    hierarchy, or a link is re-priced, by the one routine per fault class
//!    on [`dsq_core::Environment`] (clusters shrink, coordinators are
//!    re-elected — the designated backup, i.e. the next-best medoid, takes
//!    over — distances are repaired and stale subplans retired);
//! 2. *query lifecycle* — the rules in this module decide what the fault
//!    means for each registered query: [`classify_crash`] (a crashed *sink*
//!    loses the query, a crashed *source origin* parks it until the origin
//!    rejoins, a crashed *operator host* gets it replanned over the
//!    surviving overlay), [`data_available`] (can a waiting query be
//!    planned at all) and [`degraded`] (did a re-costed deployment drift
//!    past its baseline).
//!
//! [`crate::adapt::AdaptiveRuntime`] (driven by [`crate::chaos`]) and the
//! planning service's `ServiceCore` are schedulers over those two halves:
//! the runtime replans on the spot through a caller-supplied closure, the
//! service queues the work for its next drain wave. Each mirrors the
//! outcome into its advert registry (`host_crashed` / `retire_query` /
//! `host_rejoined` / `register_deployment`) as it applies it.

use dsq_hierarchy::Hierarchy;
use dsq_net::NodeId;
use dsq_query::{Catalog, Deployment, Query, QueryId};

/// What a failure-recovery pass did.
#[derive(Clone, Debug, Default)]
pub struct FailureReport {
    /// Coordinator roles the failed node held (count of cluster levels it
    /// coordinated) — each was taken over by the cluster's re-elected
    /// coordinator.
    pub coordinator_roles_failed_over: usize,
    /// Queries redeployed because an operator ran on the failed node.
    pub redeployed: Vec<QueryId>,
    /// Queries lost because their sink was on the node, or forfeited
    /// because the overlay was at its floor. (A crashed source origin
    /// parks, see `source_parked`.)
    pub lost: Vec<QueryId>,
    /// Queries that touched the node but could not be replanned; they are
    /// *parked* in the runtime and retried on later membership changes.
    pub unplaced: Vec<QueryId>,
    /// Queries parked because a *source stream's origin* crashed: their
    /// data stops flowing, but resumes if the origin rejoins, so they wait
    /// in the parked pool (gated on data availability) instead of being
    /// forfeited like sink losses.
    pub source_parked: Vec<QueryId>,
    /// Standing cost before the failure was handled.
    pub cost_before: f64,
    /// Standing cost after recovery (lost queries excluded).
    pub cost_after: f64,
    /// Standing cost forfeited by the lost queries: the steady-state service
    /// they were receiving at failure time, now permanently gone.
    pub forfeited_cost: f64,
    /// Standing cost of the deployments torn down for parked queries; it
    /// comes back (possibly at a different level) when a retry places them.
    pub parked_cost: f64,
    /// `Σ (new − old)` over the redeployed queries' costs: the per-event
    /// recovery cost inflation.
    pub redeploy_cost_delta: f64,
    /// True when the overlay could not excise the node (it was at
    /// [`dsq_core::OVERLAY_FLOOR`]): every affected query was forfeited
    /// without replanning.
    pub last_member_forfeit: bool,
    /// Memoized subplans retired by this failure's hierarchy surgery —
    /// just the crashed node's dirty ancestor chain (the whole cache in
    /// the flush reference arm).
    pub cache_retired: u64,
}

/// What a node-recovery (rejoin) pass did.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Protocol messages the join routing exchanged (Section 2.1.1).
    pub join_messages: usize,
    /// Parked queries successfully placed after the rejoin.
    pub redeployed: Vec<QueryId>,
    /// Queries still parked after the retry pass.
    pub still_parked: usize,
    /// Memoized subplans retired because the rejoin changed cluster
    /// membership along the recovered node's ancestor chain.
    pub cache_retired: u64,
}

/// What the crash of one node means for one registered query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashAction {
    /// Untouched: keeps its deployment (or its place in the queue).
    Keep,
    /// The sink crashed: results are undeliverable, terminally.
    Lost,
    /// A source stream's origin crashed: the data stops flowing but resumes
    /// if the origin rejoins, so the query waits instead of being forfeited.
    Park,
    /// Only an operator ran on the node: the deployment is not safe to keep
    /// serving, but the query can be placed again on the surviving overlay.
    Replan,
}

/// Classify `query` — with its current deployment, if it has one — against
/// the crash of `node`. The single definition of the rule every scheduler
/// applies: the runtime replans the [`CrashAction::Replan`] class on the
/// spot, the service queues it for the next drain wave.
pub fn classify_crash(
    catalog: &Catalog,
    query: &Query,
    deployment: Option<&Deployment>,
    node: NodeId,
) -> CrashAction {
    if query.sink == node {
        CrashAction::Lost
    } else if query
        .sources
        .iter()
        .any(|&s| catalog.stream(s).node == node)
    {
        CrashAction::Park
    } else if deployment.is_some_and(|d| d.placement.contains(&node)) {
        CrashAction::Replan
    } else {
        CrashAction::Keep
    }
}

/// Is every node the query needs for *data* — each source stream's origin
/// and the result sink — an active overlay member? A waiting query failing
/// this check cannot be planned no matter what the optimizer does, so
/// retry passes skip it without an attempt.
pub fn data_available(hierarchy: &Hierarchy, catalog: &Catalog, query: &Query) -> bool {
    hierarchy.is_active(query.sink)
        && query
            .sources
            .iter()
            .all(|&s| hierarchy.is_active(catalog.stream(s).node))
}

/// Has a standing deployment's re-costed `cost` degraded past `threshold`
/// (relative, e.g. 0.2 = 20%) of the `baseline` it is judged against?
pub fn degraded(cost: f64, baseline: f64, threshold: f64) -> bool {
    cost > baseline * (1.0 + threshold) + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_net::{DistanceMatrix, LinkKind, Metric, Network};
    use dsq_query::{FlatPlan, JoinTree, Schema, StreamId};

    #[test]
    fn crash_classification_table() {
        // A line 0–1–2–3–4: streams A at 0 and B at 4 joined on node 1,
        // delivered to node 2; node 3 is on nobody's plan.
        let mut net = Network::new(5);
        for i in 0..4u32 {
            net.add_link(NodeId(i), NodeId(i + 1), 1.0, 1.0, LinkKind::Stub);
        }
        let dm = DistanceMatrix::build(&net, Metric::Cost);
        let mut catalog = Catalog::new();
        let a = catalog.add_stream("A", 10.0, NodeId(0), Schema::new(["x"]));
        let b = catalog.add_stream("B", 4.0, NodeId(4), Schema::new(["x"]));
        let query = Query::join(QueryId(0), [a, b], NodeId(2));
        let tree = JoinTree::join(JoinTree::base(StreamId(0)), JoinTree::base(StreamId(1)));
        let plan = FlatPlan::from_tree(&tree, &query, &catalog);
        let deployment = Deployment::evaluate(
            query.id,
            plan,
            vec![NodeId(0), NodeId(4), NodeId(1)],
            query.sink,
            &dm,
        );

        use CrashAction::*;
        // (crashed node, role, planned verdict, unplanned verdict)
        let table = [
            (NodeId(2), "sink", Lost, Lost),
            (NodeId(0), "source origin", Park, Park),
            (NodeId(4), "source origin", Park, Park),
            // An operator host only matters to a query that has operators.
            (NodeId(1), "operator", Replan, Keep),
            (NodeId(3), "untouched", Keep, Keep),
        ];
        for (node, role, planned, unplanned) in table {
            assert_eq!(
                classify_crash(&catalog, &query, Some(&deployment), node),
                planned,
                "planned query, {role} on {node:?}"
            );
            assert_eq!(
                classify_crash(&catalog, &query, None, node),
                unplanned,
                "unplanned query, {role} on {node:?}"
            );
        }
    }

    #[test]
    fn degradation_is_judged_relative_to_the_baseline() {
        assert!(!degraded(100.0, 100.0, 0.2));
        assert!(!degraded(120.0, 100.0, 0.2), "exactly at the threshold");
        assert!(degraded(120.001, 100.0, 0.2));
        assert!(!degraded(0.0, 0.0, 0.2), "free deployments never degrade");
    }
}
