//! End-to-end node-failure recovery: coordinator failover, operator
//! redeployment, and loss reporting for unrecoverable queries.

use dsq::prelude::*;
use dsq_core::Optimal;
use dsq_sim::AdaptiveRuntime;

fn runtime() -> (AdaptiveRuntime, Workload) {
    let net = TransitStubConfig::paper_64().generate(27).network;
    let env = Environment::build(net, 8);
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 15,
            queries: 10,
            joins_per_query: 2..=3,
            ..WorkloadConfig::default()
        },
        71,
    )
    .generate(&env.network);
    let mut rt = AdaptiveRuntime::new(env, 0.2);
    let reg = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    for q in &wl.queries {
        let d = TopDown::new(&rt.env)
            .optimize(&wl.catalog, q, &reg, &mut stats)
            .unwrap();
        rt.install(q.clone(), d);
    }
    (rt, wl)
}

#[test]
fn coordinator_failure_fails_over_and_redeploys() {
    let (mut rt, wl) = runtime();
    // Fail the top coordinator: the node holding the most roles.
    let top_coord = rt.env.hierarchy.cluster(rt.env.hierarchy.top()).coordinator;
    let roles_before = rt.env.hierarchy.coordinator_roles(top_coord).len();
    assert!(roles_before >= 1);

    let report = rt.handle_node_failure(&wl.catalog, top_coord, |env, q| {
        let reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        Optimal::new(env).optimize(&wl.catalog, q, &reg, &mut stats)
    });
    assert_eq!(report.coordinator_roles_failed_over, roles_before);
    assert!(!rt.env.hierarchy.is_active(top_coord));
    rt.env.hierarchy.check_invariants();
    assert_ne!(
        rt.env.hierarchy.cluster(rt.env.hierarchy.top()).coordinator,
        top_coord,
        "a new top coordinator must be elected"
    );
    // No surviving deployment may still reference the failed node as an
    // operator host.
    for d in rt.deployments() {
        assert!(!d.operator_nodes().contains(&top_coord));
    }
    // Accounting adds up: surviving deployments (kept + redeployed), the
    // parked pool (unplaced plus source-outage waits) and the lost cover
    // every installed query.
    assert_eq!(
        rt.deployments().len() + rt.parked().len() + report.lost.len(),
        wl.queries.len(),
    );
    assert_eq!(
        rt.parked().len(),
        report.unplaced.len() + report.source_parked.len()
    );
}

#[test]
fn source_node_failure_loses_the_dependent_queries() {
    let (mut rt, wl) = runtime();
    // Fail a node hosting a stream used by at least one query.
    let victim_stream = wl.queries[0].sources[0];
    let victim_node = wl.catalog.stream(victim_stream).node;
    let dependent: Vec<_> = wl
        .queries
        .iter()
        .filter(|q| {
            q.sources
                .iter()
                .any(|&s| wl.catalog.stream(s).node == victim_node)
                || q.sink == victim_node
        })
        .map(|q| q.id)
        .collect();
    assert!(!dependent.is_empty());

    let report = rt.handle_node_failure(&wl.catalog, victim_node, |env, q| {
        let reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        Optimal::new(env).optimize(&wl.catalog, q, &reg, &mut stats)
    });
    for qid in &report.lost {
        assert!(dependent.contains(qid), "{qid} lost but not dependent");
    }
    // Source-outage parking only applies to queries that depended on the
    // node; sink-on-node losses stay losses.
    for qid in &report.source_parked {
        assert!(dependent.contains(qid), "{qid} parked but not dependent");
    }
    assert!(
        !report.lost.is_empty() || !report.source_parked.is_empty(),
        "killing a source origin must cost somebody their data"
    );
    rt.env.hierarchy.check_invariants();
}

#[test]
fn backup_coordinator_is_a_sensible_member() {
    let (rt, _) = runtime();
    let h = &rt.env.hierarchy;
    for level in 1..=h.height() {
        for (i, c) in h.level(level).iter().enumerate() {
            let id = dsq_hierarchy::ClusterId { level, index: i };
            match h.backup_coordinator(id, &rt.env.dm) {
                Some(b) => {
                    assert!(c.members.contains(&b));
                    assert_ne!(b, c.coordinator);
                }
                None => assert_eq!(c.members.len(), 1),
            }
        }
    }
}

#[test]
fn unrelated_failure_leaves_deployments_untouched() {
    let (mut rt, wl) = runtime();
    // Find a node no deployment references.
    let used: Vec<NodeId> = rt
        .deployments()
        .iter()
        .flat_map(|d| d.placement.iter().copied().chain([d.sink]))
        .collect();
    let idle = rt
        .env
        .network
        .nodes()
        .find(|n| !used.contains(n))
        .expect("some idle node exists");
    let before = rt.total_cost();
    let n_before = rt.deployments().len();
    let report = rt.handle_node_failure(&wl.catalog, idle, |_, _| None);
    assert!(report.redeployed.is_empty());
    assert!(report.lost.is_empty());
    assert_eq!(rt.deployments().len(), n_before);
    assert!((rt.total_cost() - before).abs() < 1e-9);
}
