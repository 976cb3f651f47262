//! Optimal placement of a *fixed* join tree.
//!
//! Unlike the joint search in `dsq-core`, the tree shape here is already
//! decided; only the operator → node assignment is optimized. For the
//! sum-of-edge-costs metric this placement subproblem *does* have optimal
//! substructure, so a per-node dynamic program over the plan tree is exact:
//! `g[v][m]` = cheapest way to run join `v` at node `m` with both inputs
//! delivered there.

use dsq_net::{DistanceMatrix, NodeId};
use dsq_query::{Catalog, Deployment, FlatNode, FlatPlan, Query};

/// Optimally place `plan`'s join operators on `candidates`, delivering the
/// result to `query.sink`. Returns the evaluated deployment.
pub fn optimal_placement(
    plan: FlatPlan,
    query: &Query,
    catalog: &Catalog,
    dm: &DistanceMatrix,
    candidates: &[NodeId],
) -> Deployment {
    assert!(!candidates.is_empty() || plan.join_indices().is_empty());
    let nodes = plan.nodes();
    let m = candidates.len();

    // Location of each leaf (base stream node or derived host).
    let leaf_loc: Vec<Option<NodeId>> = nodes
        .iter()
        .map(|n| match n {
            FlatNode::Leaf { source, .. } => Some(match source {
                dsq_query::LeafSource::Base(id) => catalog.stream(*id).node,
                dsq_query::LeafSource::Derived { host, .. } => *host,
            }),
            FlatNode::Join { .. } => None,
        })
        .collect();

    // g[v][mi]: join v at candidates[mi], inputs delivered; child_pick
    // records each join child's chosen placement index.
    let mut g = vec![f64::INFINITY; nodes.len() * m.max(1)];
    let mut child_pick = vec![(usize::MAX, usize::MAX); nodes.len() * m.max(1)];

    // deliver(child, target) = cost of getting child's output to `target`,
    // plus which placement index the child uses (usize::MAX for leaves).
    let deliver = |child: usize, target: NodeId, g: &[f64]| -> (f64, usize) {
        match &nodes[child] {
            FlatNode::Leaf { rate, .. } => {
                (rate * dm.get(leaf_loc[child].unwrap(), target), usize::MAX)
            }
            FlatNode::Join { .. } => {
                let rate = nodes[child].rate();
                let mut best = (f64::INFINITY, usize::MAX);
                for mj in 0..m {
                    let v = g[child * m + mj] + rate * dm.get(candidates[mj], target);
                    if v < best.0 {
                        best = (v, mj);
                    }
                }
                best
            }
        }
    };

    for (v, node) in nodes.iter().enumerate() {
        if let FlatNode::Join { left, right, .. } = node {
            for mi in 0..m {
                let target = candidates[mi];
                let (lc, lp) = deliver(*left, target, &g);
                let (rc, rp) = deliver(*right, target, &g);
                g[v * m + mi] = lc + rc;
                child_pick[v * m + mi] = (lp, rp);
            }
        }
    }

    // Root: add delivery to the sink.
    let root = plan.root();
    let root_pick = match &nodes[root] {
        FlatNode::Leaf { .. } => usize::MAX,
        FlatNode::Join { .. } => {
            let rate = nodes[root].rate();
            (0..m)
                .min_by(|&a, &b| {
                    let va = g[root * m + a] + rate * dm.get(candidates[a], query.sink);
                    let vb = g[root * m + b] + rate * dm.get(candidates[b], query.sink);
                    va.total_cmp(&vb)
                })
                .expect("non-empty candidates for join placement")
        }
    };

    // Extract placements.
    let mut placement: Vec<NodeId> = (0..nodes.len())
        .map(|v| leaf_loc[v].unwrap_or(NodeId(0)))
        .collect();
    fn assign(
        v: usize,
        mi: usize,
        nodes: &[FlatNode],
        m: usize,
        candidates: &[NodeId],
        child_pick: &[(usize, usize)],
        placement: &mut [NodeId],
    ) {
        if let FlatNode::Join { left, right, .. } = &nodes[v] {
            placement[v] = candidates[mi];
            let (lp, rp) = child_pick[v * m + mi];
            if lp != usize::MAX {
                assign(*left, lp, nodes, m, candidates, child_pick, placement);
            }
            if rp != usize::MAX {
                assign(*right, rp, nodes, m, candidates, child_pick, placement);
            }
        }
    }
    if root_pick != usize::MAX {
        assign(
            root,
            root_pick,
            nodes,
            m,
            candidates,
            &child_pick,
            &mut placement,
        );
    }

    Deployment::evaluate(query.id, plan, placement, query.sink, dm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_net::{LinkKind, Metric, Network};
    use dsq_query::{JoinTree, QueryId, ReuseRegistry, Schema, StreamId};

    fn setup() -> (Network, DistanceMatrix, Catalog, Query) {
        let mut net = Network::new(4);
        for i in 0..3u32 {
            net.add_link(NodeId(i), NodeId(i + 1), 1.0, 1.0, LinkKind::Stub);
        }
        let dm = DistanceMatrix::build(&net, Metric::Cost);
        let mut c = Catalog::new();
        let a = c.add_stream("A", 10.0, NodeId(0), Schema::default());
        let b = c.add_stream("B", 4.0, NodeId(3), Schema::default());
        c.set_selectivity(a, b, 0.1);
        let q = Query::join(QueryId(0), [a, b], NodeId(2));
        (net, dm, c, q)
    }

    #[test]
    fn fixed_tree_placement_matches_hand_optimum() {
        let (_, dm, c, q) = setup();
        let tree = JoinTree::join(JoinTree::base(StreamId(0)), JoinTree::base(StreamId(1)));
        let plan = dsq_query::FlatPlan::from_tree(&tree, &q, &c);
        let candidates: Vec<NodeId> = (0..4).map(NodeId).collect();
        let d = optimal_placement(plan, &q, &c, &dm, &candidates);
        // Hand enumeration (see engine tests): join at n0 costs 20.
        assert!((d.cost - 20.0).abs() < 1e-9, "got {}", d.cost);
    }

    #[test]
    fn placement_matches_joint_optimum_when_tree_agrees() {
        // On any instance, placing the rate-optimal tree optimally must
        // cost at least the joint optimum.
        use dsq_core::{Environment, Optimizer, SearchStats};
        let net = dsq_net::TransitStubConfig::paper_64().generate(3).network;
        let env = Environment::build(net, 16);
        let wl = dsq_workload::WorkloadGenerator::new(
            dsq_workload::WorkloadConfig {
                streams: 10,
                queries: 5,
                joins_per_query: 2..=3,
                ..Default::default()
            },
            8,
        )
        .generate(&env.network);
        let candidates: Vec<NodeId> = env.network.nodes().collect();
        for q in &wl.queries {
            let reg = ReuseRegistry::new();
            let (_, plan) = crate::logical::rate_optimal_tree(&wl.catalog, q, &reg);
            let fixed = optimal_placement(plan, q, &wl.catalog, &env.dm, &candidates);
            let reg2 = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            let joint = dsq_core::Optimal::new(&env)
                .optimize(&wl.catalog, q, &reg2, &mut stats)
                .unwrap();
            assert!(
                fixed.cost >= joint.cost - 1e-6,
                "fixed-tree {} below joint optimum {}",
                fixed.cost,
                joint.cost
            );
        }
    }

    #[test]
    fn single_leaf_plan_needs_no_candidates() {
        let (_, dm, c, _) = setup();
        let q = Query::join(QueryId(1), [StreamId(0)], NodeId(2));
        let tree = JoinTree::base(StreamId(0));
        let plan = dsq_query::FlatPlan::from_tree(&tree, &q, &c);
        let d = optimal_placement(plan, &q, &c, &dm, &[]);
        assert!((d.cost - 20.0).abs() < 1e-9);
    }
}
