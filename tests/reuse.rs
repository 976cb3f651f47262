//! Cross-crate integration tests for operator reuse (Section 2.1.2 and the
//! Figure 7 experiment regime): on workloads with realistic source overlap,
//! every optimizer must find and profit from derived streams.

use dsq::prelude::*;
use dsq_core::{consolidate, Optimal, Optimizer};
use dsq_hierarchy::membership::{add_node, remove_node};
use dsq_net::NodeId;
use dsq_query::{DerivedId, FlatNode, LeafSource, ReuseRegistry};

fn skewed_workload(env: &Environment, seed: u64, queries: usize) -> Workload {
    WorkloadGenerator::new(
        WorkloadConfig {
            streams: 100,
            queries,
            joins_per_query: 2..=5,
            source_skew: Some(1.0),
            ..WorkloadConfig::default()
        },
        seed,
    )
    .generate(&env.network)
}

fn count_reused(deployments: &[Option<Deployment>]) -> usize {
    deployments
        .iter()
        .flatten()
        .flat_map(|d| d.plan.nodes())
        .filter(|n| {
            matches!(
                n,
                FlatNode::Leaf {
                    source: LeafSource::Derived { .. },
                    ..
                }
            )
        })
        .count()
}

#[test]
fn skew_creates_reuse_opportunities_that_optimizers_take() {
    let net = TransitStubConfig::paper_128().generate(1).network;
    let env = Environment::build(net, 32);
    let wl = skewed_workload(&env, 2, 20);

    let mut reg = ReuseRegistry::new();
    let out = consolidate::deploy_all(
        &Optimal::new(&env),
        &wl.catalog,
        &wl.queries,
        &mut reg,
        true,
    );
    assert!(
        count_reused(&out.deployments) >= 2,
        "skewed workload must produce actual reuse (got {})",
        count_reused(&out.deployments)
    );
    assert!(reg.stats().published > 0);
}

#[test]
fn reuse_lowers_cumulative_cost_for_every_algorithm() {
    let net = TransitStubConfig::paper_128().generate(3).network;
    let env = Environment::build(net, 32);
    let wl = skewed_workload(&env, 4, 15);

    let algs: Vec<(&str, Box<dyn Optimizer>)> = vec![
        ("top-down", Box::new(TopDown::new(&env))),
        ("bottom-up", Box::new(BottomUp::new(&env))),
        ("optimal", Box::new(Optimal::new(&env))),
    ];
    for (name, alg) in &algs {
        let mut with_reg = ReuseRegistry::new();
        let with =
            consolidate::deploy_all(alg.as_ref(), &wl.catalog, &wl.queries, &mut with_reg, true);
        let mut without_reg = ReuseRegistry::new();
        let without = consolidate::deploy_all(
            alg.as_ref(),
            &wl.catalog,
            &wl.queries,
            &mut without_reg,
            false,
        );
        assert!(
            with.total_cost() <= without.total_cost() + 1e-6,
            "{name}: with reuse {} vs without {}",
            with.total_cost(),
            without.total_cost()
        );
    }
}

#[test]
fn derived_streams_survive_registration_round_trip() {
    let net = TransitStubConfig::paper_64().generate(5).network;
    let env = Environment::build(net, 16);
    let wl = skewed_workload(&env, 6, 10);
    let mut reg = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    let td = TopDown::new(&env);
    for q in &wl.queries {
        let d = td.optimize(&wl.catalog, q, &reg, &mut stats).unwrap();
        reg.register_deployment(q, &d);
    }
    // Registry contents must be internally consistent.
    for d in reg.deriveds() {
        assert!(d.covered.len() >= 2);
        assert!(d.rate > 0.0);
        assert!((d.host.index()) < env.network.len());
    }
    // Duplicate suppression kicks in when re-registering.
    let before = reg.len();
    let q = &wl.queries[0];
    let d = td.optimize(&wl.catalog, q, &reg, &mut stats).unwrap();
    reg.register_deployment(q, &d);
    let after = reg.len();
    assert!(after >= before, "registry never shrinks");
}

/// Ids served to `q` under the hierarchy's current liveness view.
fn served(reg: &ReuseRegistry, q: &Query, env: &Environment) -> Vec<DerivedId> {
    reg.clone()
        .usable_for_live(q, |n: NodeId| env.hierarchy.is_active(n))
        .into_iter()
        .filter_map(|l| match l {
            LeafSource::Derived { id, .. } => Some(id),
            LeafSource::Base(_) => None,
        })
        .collect()
}

#[test]
fn crashed_advert_host_stops_serving_until_rejoin() {
    // The liveness regression this PR fixes: crash a node hosting a
    // published advert out of the overlay. The probe must stop serving that
    // advert, a fresh planning pass must not put a derived leaf on the dead
    // host, and rejoining the host must restore the exact candidate set.
    let net = TransitStubConfig::paper_64().generate(9).network;
    let mut env = Environment::build(net, 16);
    env.isolate_cache(false);
    let wl = skewed_workload(&env, 10, 12);

    let mut reg = ReuseRegistry::new();
    consolidate::deploy_all(
        &TopDown::new(&env),
        &wl.catalog,
        &wl.queries,
        &mut reg,
        true,
    );

    // A consumer query that the probe actually serves, and an advert host
    // we can crash without touching stream origins or sinks.
    let protected: Vec<NodeId> = wl
        .catalog
        .streams()
        .iter()
        .map(|s| s.node)
        .chain(wl.queries.iter().map(|q| q.sink))
        .collect();
    let (consumer, victim) = wl
        .queries
        .iter()
        .find_map(|q| {
            served(&reg, q, &env).into_iter().find_map(|id| {
                let host = reg.derived(id).expect("served advert resolves").host;
                (!protected.contains(&host)).then_some((q.clone(), host))
            })
        })
        .expect("skewed workload must publish a crashable advert");
    let before = served(&reg, &consumer, &env);

    remove_node(&mut env.hierarchy, &env.dm, victim).expect("victim is removable");
    for id in served(&reg, &consumer, &env) {
        assert_ne!(
            reg.derived(id).unwrap().host,
            victim,
            "probe served an advert hosted on the crashed node"
        );
    }
    if let Some(d) = TopDown::new(&env).optimize(
        &wl.catalog,
        &consumer,
        &reg.clone(),
        &mut SearchStats::new(),
    ) {
        for node in d.plan.nodes() {
            if let FlatNode::Leaf {
                source: LeafSource::Derived { host, .. },
                ..
            } = node
            {
                assert!(
                    env.hierarchy.is_active(*host),
                    "replanned query consumed a derived stream on inactive {host}"
                );
            }
        }
    }

    let via = *env
        .hierarchy
        .active_nodes()
        .iter()
        .min_by(|&&a, &&b| {
            env.dm
                .get(a, victim)
                .total_cmp(&env.dm.get(b, victim))
                .then(a.0.cmp(&b.0))
        })
        .expect("overlay is never empty");
    add_node(&mut env.hierarchy, &env.dm, victim, via);
    assert_eq!(
        served(&reg, &consumer, &env),
        before,
        "rejoin must restore the pre-crash candidate set"
    );
}
