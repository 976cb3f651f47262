//! Flow-level evaluation of deployments.
//!
//! Every deployed edge's data rate is routed along the network's
//! cheapest-cost path and charged to each link it crosses — exactly the
//! paper's cost definition ("the total data transferred along each link
//! times the link cost"), but with per-link visibility: utilization maps,
//! per-node processing load, and the most-loaded links.

use dsq_net::{DistanceMatrix, Metric, Network, NodeId, RouteTable};
use dsq_query::Deployment;
use std::collections::HashMap;

/// Per-link and per-node traffic report.
#[derive(Clone, Debug, Default)]
pub struct FlowReport {
    /// Total communication cost per unit time (Σ link flow × link cost).
    pub total_cost: f64,
    /// Data rate crossing each undirected link, keyed by `(min, max)` node.
    pub link_flow: HashMap<(NodeId, NodeId), f64>,
    /// Data rate entering each node for processing (join input rates).
    pub node_load: HashMap<NodeId, f64>,
}

/// Aggregate statistics of per-link traffic.
#[derive(Clone, Copy, Debug, Default)]
pub struct UtilizationSummary {
    /// Mean flow over *all* network links (idle links count as zero).
    pub mean_flow: f64,
    /// Largest per-link flow.
    pub max_flow: f64,
    /// 95th-percentile per-link flow.
    pub p95_flow: f64,
    /// Fraction of links carrying any traffic.
    pub active_fraction: f64,
    /// Jain fairness index over *all* network links, idle ones counted as
    /// zero flow (1.0 = perfectly even, `1/total_links` = one link carries
    /// everything; vacuously 1.0 when nothing flows at all).
    pub jain_fairness: f64,
}

impl FlowReport {
    /// The `k` most-loaded links, descending.
    pub fn hottest_links(&self, k: usize) -> Vec<((NodeId, NodeId), f64)> {
        let mut v: Vec<_> = self.link_flow.iter().map(|(l, f)| (*l, *f)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Summarize link utilization against the network's full link set.
    pub fn utilization(&self, network: &Network) -> UtilizationSummary {
        let total_links = network.link_count();
        if total_links == 0 {
            return UtilizationSummary::default();
        }
        let mut flows: Vec<f64> = self.link_flow.values().copied().collect();
        flows.sort_by(f64::total_cmp);
        let active = flows.len();
        let sum: f64 = flows.iter().sum();
        let sum_sq: f64 = flows.iter().map(|f| f * f).sum();
        let p95 = if flows.is_empty() {
            0.0
        } else {
            // Percentile over all links, idle ones included as zeros.
            let idx95 = (total_links as f64 * 0.95).ceil() as usize;
            let idle = total_links - active;
            if idx95 <= idle {
                0.0
            } else {
                flows[(idx95 - idle - 1).min(active - 1)]
            }
        };
        UtilizationSummary {
            mean_flow: sum / total_links as f64,
            max_flow: flows.last().copied().unwrap_or(0.0),
            p95_flow: p95,
            active_fraction: active as f64 / total_links as f64,
            jain_fairness: if sum_sq == 0.0 {
                // No traffic anywhere: fairness is vacuous.
                1.0
            } else {
                // Idle links enter the index as zeros, so a single hot link
                // in an n-link network scores 1/n, matching the field docs.
                sum * sum / (total_links as f64 * sum_sq)
            },
        }
    }
}

/// Routes deployment edges over the physical network.
#[derive(Debug)]
pub struct FlowSimulator<'a> {
    network: &'a Network,
    routes: RouteTable,
    dm: DistanceMatrix,
}

impl<'a> FlowSimulator<'a> {
    /// Build routing state for a network (cost metric). One fused APSP pass
    /// produces both the distance matrix and the route table.
    pub fn new(network: &'a Network) -> Self {
        let (dm, routes) = DistanceMatrix::build_with_routes(network, Metric::Cost);
        FlowSimulator {
            network,
            routes,
            dm,
        }
    }

    /// Evaluate a set of standing deployments.
    pub fn evaluate(&self, deployments: &[&Deployment]) -> FlowReport {
        let mut report = FlowReport::default();
        for d in deployments {
            for edge in &d.edges {
                // Processing load: the consumer node ingests the edge rate.
                *report.node_load.entry(edge.to).or_insert(0.0) += edge.rate;
                if edge.from == edge.to {
                    continue;
                }
                let route = self
                    .routes
                    .route(edge.from, edge.to)
                    .expect("deployments only reference connected nodes");
                for hop in route.windows(2) {
                    let (a, b) = (hop[0], hop[1]);
                    let link = self
                        .network
                        .find_link(a, b)
                        .expect("route follows existing links");
                    let key = (a.min(b), a.max(b));
                    *report.link_flow.entry(key).or_insert(0.0) += edge.rate;
                    report.total_cost += edge.rate * link.cost;
                }
            }
        }
        report
    }

    /// Shortest-path cost distances (for re-costing deployments).
    pub fn distances(&self) -> &DistanceMatrix {
        &self.dm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_core::{Environment, Optimizer, SearchStats, TopDown};
    use dsq_net::TransitStubConfig;
    use dsq_query::ReuseRegistry;
    use dsq_workload::{WorkloadConfig, WorkloadGenerator};

    fn deployments() -> (Environment, Vec<Deployment>) {
        let net = TransitStubConfig::paper_64().generate(11).network;
        let env = Environment::build(net, 16);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 12,
                queries: 6,
                joins_per_query: 2..=3,
                ..WorkloadConfig::default()
            },
            41,
        )
        .generate(&env.network);
        let reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        let td = TopDown::new(&env);
        let ds: Vec<Deployment> = wl
            .queries
            .iter()
            .map(|q| td.optimize(&wl.catalog, q, &reg, &mut stats).unwrap())
            .collect();
        (env, ds)
    }

    #[test]
    fn flow_cost_matches_analytic_cost() {
        let (env, ds) = deployments();
        let sim = FlowSimulator::new(&env.network);
        let refs: Vec<&Deployment> = ds.iter().collect();
        let report = sim.evaluate(&refs);
        let analytic: f64 = ds.iter().map(|d| d.cost).sum();
        assert!(
            (report.total_cost - analytic).abs() <= 1e-6 * analytic.max(1.0),
            "flow {} vs analytic {}",
            report.total_cost,
            analytic
        );
    }

    #[test]
    fn link_flows_and_loads_are_positive_and_bounded() {
        let (env, ds) = deployments();
        let sim = FlowSimulator::new(&env.network);
        let refs: Vec<&Deployment> = ds.iter().collect();
        let report = sim.evaluate(&refs);
        assert!(!report.link_flow.is_empty());
        for (&(a, b), &f) in &report.link_flow {
            assert!(f > 0.0);
            assert!(env.network.find_link(a, b).is_some());
        }
        let hottest = report.hottest_links(3);
        assert!(hottest.len() <= 3);
        if hottest.len() == 2 {
            assert!(hottest[0].1 >= hottest[1].1);
        }
    }

    #[test]
    fn utilization_summary_is_consistent() {
        let (env, ds) = deployments();
        let sim = FlowSimulator::new(&env.network);
        let refs: Vec<&Deployment> = ds.iter().collect();
        let report = sim.evaluate(&refs);
        let u = report.utilization(&env.network);
        assert!(u.max_flow >= u.p95_flow && u.p95_flow >= 0.0);
        assert!(u.mean_flow > 0.0 && u.mean_flow <= u.max_flow);
        assert!(u.active_fraction > 0.0 && u.active_fraction <= 1.0);
        assert!(u.jain_fairness > 0.0 && u.jain_fairness <= 1.0 + 1e-12);
        // Mean over all links equals total flow / total links.
        let total: f64 = report.link_flow.values().sum();
        assert!((u.mean_flow - total / env.network.link_count() as f64).abs() < 1e-9);
    }

    #[test]
    fn single_hot_link_has_minimal_fairness() {
        let (env, _) = deployments();
        let sim = FlowSimulator::new(&env.network);
        // One two-node deployment: a single stream crossing the network.
        let mut catalog = dsq_query::Catalog::new();
        let stubs = env.network.stub_nodes();
        let s = catalog.add_stream("S", 9.0, stubs[0], dsq_query::Schema::default());
        let q = dsq_query::Query::join(dsq_query::QueryId(0), [s], stubs[1]);
        let tree = dsq_query::JoinTree::base(s);
        let plan = dsq_query::FlatPlan::from_tree(&tree, &q, &catalog);
        let d = Deployment::evaluate(q.id, plan, vec![stubs[0]], stubs[1], sim.distances());
        let report = sim.evaluate(&[&d]);
        let u = report.utilization(&env.network);
        // Every active link carries the same 9.0 units, and idle links
        // count as zeros, so the index collapses to the active fraction —
        // and the fraction itself is tiny for a single path.
        assert!((u.jain_fairness - u.active_fraction).abs() < 1e-9);
        assert!(u.active_fraction < 0.2);
    }

    /// Two-node network: the one link carries everything, and since there
    /// are no idle links the index is exactly 1.0.
    #[test]
    fn single_link_network_is_perfectly_fair() {
        use dsq_net::{LinkKind, Network, NodeKind};
        let mut net = Network::new(0);
        let a = net.add_node(NodeKind::Stub);
        let b = net.add_node(NodeKind::Stub);
        net.add_link(a, b, 1.0, 1.0, LinkKind::Stub);
        let sim = FlowSimulator::new(&net);
        let mut catalog = dsq_query::Catalog::new();
        let s = catalog.add_stream("S", 4.0, a, dsq_query::Schema::default());
        let q = dsq_query::Query::join(dsq_query::QueryId(0), [s], b);
        let tree = dsq_query::JoinTree::base(s);
        let plan = dsq_query::FlatPlan::from_tree(&tree, &q, &catalog);
        let d = Deployment::evaluate(q.id, plan, vec![a], b, sim.distances());
        let u = sim.evaluate(&[&d]).utilization(&net);
        assert!((u.jain_fairness - 1.0).abs() < 1e-12);
        assert!((u.active_fraction - 1.0).abs() < 1e-12);
        assert!((u.max_flow - 4.0).abs() < 1e-12);
        assert!((u.p95_flow - 4.0).abs() < 1e-12);
    }

    /// No deployments at all: every link is idle. Fairness is vacuously
    /// 1.0 (not a divide-by-zero, not 0.0) and all flow stats are zero.
    #[test]
    fn all_idle_network_reports_vacuous_fairness() {
        let (env, _) = deployments();
        let sim = FlowSimulator::new(&env.network);
        let u = sim.evaluate(&[]).utilization(&env.network);
        assert_eq!(u.jain_fairness, 1.0);
        assert_eq!(u.active_fraction, 0.0);
        assert_eq!(u.mean_flow, 0.0);
        assert_eq!(u.max_flow, 0.0);
        assert_eq!(u.p95_flow, 0.0);
    }

    /// The p95 index clamp: with every link active, the 95th percentile
    /// must select an in-bounds element even when `ceil` lands on the
    /// last slot, and it can never exceed the maximum.
    #[test]
    fn p95_index_is_clamped_when_all_links_are_active() {
        use dsq_net::{LinkKind, Network, NodeKind};
        // A 3-node path; route both directions so both links are active.
        let mut net = Network::new(0);
        let a = net.add_node(NodeKind::Stub);
        let b = net.add_node(NodeKind::Stub);
        let c = net.add_node(NodeKind::Stub);
        net.add_link(a, b, 1.0, 1.0, LinkKind::Stub);
        net.add_link(b, c, 1.0, 1.0, LinkKind::Stub);
        let sim = FlowSimulator::new(&net);
        let mut catalog = dsq_query::Catalog::new();
        let s = catalog.add_stream("S", 2.0, a, dsq_query::Schema::default());
        let q = dsq_query::Query::join(dsq_query::QueryId(0), [s], c);
        let tree = dsq_query::JoinTree::base(s);
        let plan = dsq_query::FlatPlan::from_tree(&tree, &q, &catalog);
        let d = Deployment::evaluate(q.id, plan, vec![a], c, sim.distances());
        let u = sim.evaluate(&[&d]).utilization(&net);
        // ceil(2 * 0.95) = 2, idle = 0 → index 1 = last element.
        assert!((u.p95_flow - 2.0).abs() < 1e-12);
        assert!(u.p95_flow <= u.max_flow);
        assert!((u.jain_fairness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn co_located_edges_cost_nothing() {
        let (env, _) = deployments();
        let sim = FlowSimulator::new(&env.network);
        // A deployment with everything at one node has zero flow cost.
        let mut catalog = dsq_query::Catalog::new();
        let node = env.network.nodes().next().unwrap();
        let a = catalog.add_stream("A", 5.0, node, dsq_query::Schema::default());
        let b = catalog.add_stream("B", 5.0, node, dsq_query::Schema::default());
        let q = dsq_query::Query::join(dsq_query::QueryId(0), [a, b], node);
        let tree =
            dsq_query::JoinTree::join(dsq_query::JoinTree::base(a), dsq_query::JoinTree::base(b));
        let plan = dsq_query::FlatPlan::from_tree(&tree, &q, &catalog);
        let d = Deployment::evaluate(q.id, plan, vec![node, node, node], node, sim.distances());
        let report = sim.evaluate(&[&d]);
        assert_eq!(report.total_cost, 0.0);
        assert!(
            report.node_load[&node] > 0.0,
            "processing load still counted"
        );
    }
}
