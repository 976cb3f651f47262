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
//! The planning service's [`ServiceCore`](crate::ServiceCore) is the one
//! scheduler over those two halves: it queues the work each fault leaves
//! for its next drain wave and mirrors the outcome into its advert
//! registry (`host_crashed` / `retire_query` / `host_rejoined` /
//! `register_deployment`) as it applies it.

use dsq_hierarchy::Hierarchy;
use dsq_net::NodeId;
use dsq_query::{Catalog, Deployment, Query};

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
/// the crash of `node`. The service queues the [`CrashAction::Replan`]
/// class for its next drain wave; at the overlay floor, where the node
/// cannot be excised, it loses every class but [`CrashAction::Keep`].
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
    use dsq_query::{FlatPlan, JoinTree, QueryId, Schema, StreamId};

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
