//! Cross-crate optimizer invariants: every algorithm produces structurally
//! valid deployments that are never cheaper than the exact optimum, and
//! degenerate hierarchies collapse the hierarchical algorithms onto it.

use dsq::prelude::*;
use dsq_baselines::{InNetwork, InNetworkRunner, PlanThenDeploy, RandomPlace, Relaxation};
use dsq_core::{Optimal, Optimizer};
use dsq_query::{FlatNode, LeafSource, StreamSet};

fn setup(max_cs: usize, seed: u64) -> (Environment, Workload) {
    let net = TransitStubConfig::paper_64().generate(seed).network;
    let env = Environment::build(net, max_cs);
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 20,
            queries: 10,
            joins_per_query: 2..=4,
            ..WorkloadConfig::default()
        },
        seed,
    )
    .generate(&env.network);
    (env, wl)
}

/// Structural validity of a deployment for its query.
fn check_structure(d: &Deployment, q: &Query, catalog: &dsq_query::Catalog) {
    // Exactly 2k−1 plan nodes unless reuse collapsed subtrees.
    assert!(d.plan.nodes().len() < 2 * q.sources.len());
    // The root covers exactly the query's source set.
    assert_eq!(
        d.plan.nodes()[d.plan.root()].covered(),
        &q.source_set(),
        "root must cover the query"
    );
    // Every base leaf sits at its stream's node; every derived leaf at its
    // advertised host; covered sets of join children are disjoint.
    for (i, node) in d.plan.nodes().iter().enumerate() {
        match node {
            FlatNode::Leaf { source, .. } => match source {
                LeafSource::Base(id) => {
                    assert_eq!(d.placement[i], catalog.stream(*id).node)
                }
                LeafSource::Derived { host, .. } => assert_eq!(d.placement[i], *host),
            },
            FlatNode::Join { left, right, .. } => {
                let lc = d.plan.nodes()[*left].covered();
                let rc = d.plan.nodes()[*right].covered();
                assert!(lc.is_disjoint_from(rc));
            }
        }
    }
    // No leaf covers streams outside the query.
    for node in d.plan.nodes() {
        assert!(node.covered().is_subset_of(&q.source_set()));
    }
    assert_eq!(d.sink, q.sink);
    assert!(d.cost.is_finite() && d.cost >= 0.0);
}

#[test]
fn all_algorithms_produce_valid_deployments_no_cheaper_than_optimal() {
    let (env, wl) = setup(16, 3);
    let zones = InNetwork::new(&env, 5);
    let algorithms: Vec<(&str, Box<dyn Optimizer>)> = vec![
        ("top-down", Box::new(TopDown::new(&env))),
        ("bottom-up", Box::new(BottomUp::new(&env))),
        (
            "bottom-up/members",
            Box::new(BottomUp::with_placement(
                &env,
                dsq_core::BottomUpPlacement::MembersOnly,
            )),
        ),
        (
            "bottom-up/coloc",
            Box::new(BottomUp::with_input_colocation(&env)),
        ),
        ("plan-then-deploy", Box::new(PlanThenDeploy::new(&env))),
        ("relaxation", Box::new(Relaxation::new(&env))),
        (
            "in-network",
            Box::new(InNetworkRunner {
                zones: &zones,
                env: &env,
            }),
        ),
        ("random", Box::new(RandomPlace::new(&env, 4))),
    ];
    for q in &wl.queries {
        let reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        let opt = Optimal::new(&env)
            .optimize(&wl.catalog, q, &reg, &mut stats)
            .unwrap();
        check_structure(&opt, q, &wl.catalog);
        for (name, alg) in &algorithms {
            let reg = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            let d = alg
                .optimize(&wl.catalog, q, &reg, &mut stats)
                .unwrap_or_else(|| panic!("{name} failed on {:?}", q.id));
            check_structure(&d, q, &wl.catalog);
            assert!(
                d.cost >= opt.cost - 1e-6,
                "{name} cost {} below optimal {}",
                d.cost,
                opt.cost
            );
        }
    }
}

#[test]
fn flat_hierarchy_collapses_hierarchical_algorithms_to_optimal() {
    let (env, wl) = setup(64, 5); // one cluster = whole network
    assert_eq!(env.hierarchy.height(), 1);
    for q in &wl.queries {
        let mut stats = SearchStats::new();
        let opt = Optimal::new(&env)
            .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut stats)
            .unwrap();
        for alg in [&TopDown::new(&env) as &dyn Optimizer, &BottomUp::new(&env)] {
            let d = alg
                .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut stats)
                .unwrap();
            assert!(
                (d.cost - opt.cost).abs() < 1e-6,
                "{} should equal optimal on a flat hierarchy: {} vs {}",
                alg.name(),
                d.cost,
                opt.cost
            );
        }
    }
}

#[test]
fn deployments_are_deterministic() {
    let (env, wl) = setup(8, 7);
    for alg in [
        &TopDown::new(&env) as &dyn Optimizer,
        &BottomUp::new(&env),
        &Optimal::new(&env),
    ] {
        for q in &wl.queries.iter().take(4).collect::<Vec<_>>() {
            let mut s = SearchStats::new();
            let a = alg
                .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut s)
                .unwrap();
            let b = alg
                .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut s)
                .unwrap();
            assert_eq!(a.cost, b.cost, "{} must be deterministic", alg.name());
            assert_eq!(a.placement, b.placement);
        }
    }
}

#[test]
fn derived_only_plan_when_full_result_already_deployed() {
    // Once a query's exact result is advertised, a repeat query reduces to
    // a single delivery edge from the derived host.
    let (env, wl) = setup(16, 9);
    let q0 = &wl.queries[0];
    let mut reg = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    let d0 = Optimal::new(&env)
        .optimize(&wl.catalog, q0, &reg, &mut stats)
        .unwrap();
    reg.register_deployment(q0, &d0);

    let stubs = env.network.stub_nodes();
    let q1 = Query::join(dsq_query::QueryId(900), q0.sources.clone(), stubs[7]);
    let d1 = Optimal::new(&env)
        .optimize(&wl.catalog, &q1, &reg, &mut stats)
        .unwrap();
    // The whole covered set should come from one derived leaf.
    let derived_full = d1.plan.nodes().iter().any(|n| {
        matches!(n, FlatNode::Leaf { source: LeafSource::Derived { covered, .. }, .. }
            if *covered == StreamSet::from_iter(q0.sources.iter().copied()))
    });
    assert!(
        derived_full,
        "expected full-result reuse:\n{}",
        d1.describe(&wl.catalog)
    );
    // Cost is exactly rate × distance(host, new sink).
    assert!(d1.plan.nodes().len() <= 3);
}
