//! Load-aware planning: "node N2 may be overloaded … network conditions
//! dictate a more efficient join ordering" (Section 1.1). With a
//! [`LoadModel`] attached to the environment, optimizers price overload
//! into placement and spread operators across nodes.

use dsq::prelude::*;
use dsq_core::{LoadModel, Optimal};
use std::collections::HashMap;

fn setup() -> (Environment, Workload) {
    let net = TransitStubConfig::paper_64().generate(8).network;
    let env = Environment::build(net, 16);
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 12,
            queries: 10,
            joins_per_query: 2..=3,
            ..WorkloadConfig::default()
        },
        44,
    )
    .generate(&env.network);
    (env, wl)
}

#[test]
fn overloaded_node_is_avoided() {
    let (mut env, wl) = setup();
    let q = &wl.queries[0];
    // Where does the unloaded optimum place its joins?
    let mut stats = SearchStats::new();
    let free = Optimal::new(&env)
        .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut stats)
        .unwrap();
    let hot = free.operator_nodes()[0];

    // Zero capacity for the hot node forces any added processing there to
    // be priced dearly; the rest have headroom.
    let mut caps = vec![1e6; env.network.len()];
    caps[hot.index()] = 0.0;
    env.enable_load_model(LoadModel::with_capacities(caps, 50.0));

    let loaded = Optimal::new(&env)
        .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut stats)
        .unwrap();
    assert!(
        !loaded.operator_nodes().contains(&hot),
        "planner must avoid the saturated node {hot}: {:?}",
        loaded.operator_nodes()
    );
    // Avoiding the hot node can only increase pure communication cost.
    assert!(loaded.cost >= free.cost - 1e-9);
}

#[test]
fn committed_load_spreads_a_batch() {
    let (mut env, wl) = setup();
    // Tight capacities: each node can host roughly one operator's input.
    env.enable_load_model(LoadModel::uniform(env.network.len(), 120.0, 100.0));

    let mut spread_nodes: HashMap<NodeId, usize> = HashMap::new();
    let reg = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    for q in &wl.queries {
        let d = Optimal::new(&env)
            .optimize(&wl.catalog, q, &reg, &mut stats)
            .unwrap();
        env.commit_load(&d);
        for n in d.operator_nodes() {
            *spread_nodes.entry(n).or_insert(0) += 1;
        }
    }
    // Without a load model the same central nodes get reused; with it, the
    // operators must spread. Compare against the unloaded run.
    let env_free = {
        let net = TransitStubConfig::paper_64().generate(8).network;
        Environment::build(net, 16)
    };
    let mut free_nodes: HashMap<NodeId, usize> = HashMap::new();
    let reg2 = ReuseRegistry::new();
    for q in &wl.queries {
        let d = Optimal::new(&env_free)
            .optimize(&wl.catalog, q, &reg2, &mut stats)
            .unwrap();
        for n in d.operator_nodes() {
            *free_nodes.entry(n).or_insert(0) += 1;
        }
    }
    let max_loaded = spread_nodes.values().copied().max().unwrap_or(0);
    let max_free = free_nodes.values().copied().max().unwrap_or(0);
    assert!(
        max_loaded <= max_free,
        "load-aware batch must not concentrate more than the free one \
         (loaded max {max_loaded}, free max {max_free})"
    );
    // The standing overload should be small relative to naive stacking.
    let overload = env.load_snapshot().unwrap().overload_cost();
    assert!(overload.is_finite());
}

#[test]
fn release_load_supports_migration() {
    let (mut env, wl) = setup();
    env.enable_load_model(LoadModel::uniform(env.network.len(), 100.0, 10.0));
    let q = &wl.queries[0];
    let mut stats = SearchStats::new();
    let d = Optimal::new(&env)
        .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut stats)
        .unwrap();
    env.commit_load(&d);
    let after_commit = env.load_snapshot().unwrap();
    let hosting = d.operator_nodes()[0];
    assert!(after_commit.load(hosting) > 0.0);
    env.release_load(&d);
    let after_release = env.load_snapshot().unwrap();
    assert_eq!(after_release.load(hosting), 0.0);
}

#[test]
fn hierarchical_optimizers_respect_load_too() {
    let (mut env, wl) = setup();
    let q = &wl.queries[1];
    let mut stats = SearchStats::new();
    let free = TopDown::new(&env)
        .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut stats)
        .unwrap();
    let hot = free.operator_nodes()[0];
    let mut caps = vec![1e6; env.network.len()];
    caps[hot.index()] = 0.0;
    env.enable_load_model(LoadModel::with_capacities(caps, 50.0));

    for alg in [
        &TopDown::new(&env) as &dyn dsq_core::Optimizer,
        &BottomUp::new(&env),
    ] {
        let d = alg
            .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut stats)
            .unwrap();
        assert!(
            !d.operator_nodes().contains(&hot),
            "{} must avoid the saturated node",
            alg.name()
        );
    }
}
