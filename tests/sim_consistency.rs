//! Simulator ↔ cost-model consistency across crates: the flow simulator
//! reproduces analytic costs exactly, the tuple simulator statistically,
//! and the Emulab timing model orders algorithms as the paper measures.

use dsq::prelude::*;
use dsq::server::chaos::install;
use dsq::server::{FaultReq, JournalEntry, ServiceConfig, ServiceCore};
use dsq_core::{Optimal, Optimizer};
use dsq_sim::EmulabModel;

fn setup() -> (Environment, Workload) {
    let net = TransitStubConfig::paper_64().generate(23).network;
    let env = Environment::build(net, 16);
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 15,
            queries: 8,
            joins_per_query: 2..=3,
            rate_range: (5.0, 20.0),
            ..WorkloadConfig::default()
        },
        17,
    )
    .generate(&env.network);
    (env, wl)
}

#[test]
fn flow_simulator_reproduces_every_algorithms_costs() {
    let (env, wl) = setup();
    let sim = FlowSimulator::new(&env.network);
    for alg in [
        &TopDown::new(&env) as &dyn Optimizer,
        &BottomUp::new(&env),
        &Optimal::new(&env),
    ] {
        let reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        let ds: Vec<Deployment> = wl
            .queries
            .iter()
            .map(|q| alg.optimize(&wl.catalog, q, &reg, &mut stats).unwrap())
            .collect();
        let refs: Vec<&Deployment> = ds.iter().collect();
        let flow = sim.evaluate(&refs).total_cost;
        let analytic: f64 = ds.iter().map(|d| d.cost).sum();
        assert!(
            (flow - analytic).abs() <= 1e-6 * analytic.max(1.0),
            "{}: flow {flow} vs analytic {analytic}",
            alg.name()
        );
    }
}

#[test]
fn tuple_simulator_tracks_analytic_costs_within_tolerance() {
    let (env, wl) = setup();
    let sim = TupleSimulator::new(&env.network);
    let reg = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    let mut checked = 0;
    for q in wl.queries.iter().filter(|q| q.sources.len() <= 3).take(3) {
        let d = TopDown::new(&env)
            .optimize(&wl.catalog, q, &reg, &mut stats)
            .unwrap();
        let r = sim.run(
            &wl.catalog,
            q,
            &d,
            TupleSimConfig {
                duration: 300.0,
                warmup: 30.0,
                ..TupleSimConfig::default()
            },
        );
        let rel = (r.measured_cost_per_time - r.predicted_cost_per_time).abs()
            / r.predicted_cost_per_time.max(1e-9);
        assert!(
            rel < 0.35,
            "{}: measured {} vs predicted {}",
            q.id,
            r.measured_cost_per_time,
            r.predicted_cost_per_time
        );
        checked += 1;
    }
    assert!(checked > 0);
}

#[test]
fn emulab_model_is_additive_and_positive() {
    let (env, wl) = setup();
    let model = EmulabModel::new(&env.network);
    let q = &wl.queries[0];
    let reg = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    let d = TopDown::new(&env)
        .optimize(&wl.catalog, q, &reg, &mut stats)
        .unwrap();
    let t = model.deployment_time(q.sink, &stats, &d);
    assert!(t.messaging_ms > 0.0 && t.planning_ms > 0.0);
    assert!((t.total_ms() - t.messaging_ms - t.planning_ms).abs() < 1e-12);
    // Planning time scales linearly with per-plan cost.
    let mut model2 = model.clone();
    model2.per_plan_us *= 2.0;
    let t2 = model2.deployment_time(q.sink, &stats, &d);
    assert!((t2.planning_ms - 2.0 * t.planning_ms).abs() < 1e-9);
    assert!((t2.messaging_ms - t.messaging_ms).abs() < 1e-9);
}

#[test]
fn adaptivity_round_trip_with_flow_detection() {
    // End-to-end loop: deploy → the flow simulator finds the loaded links
    // and join hosts → congest them → the service replans the degraded
    // queries and migrates one only when that beats doing nothing.
    let (env, wl) = setup();
    let installed = || {
        let cfg = ServiceConfig {
            threshold_milli: 150,
            ..ServiceConfig::default()
        };
        let mut core = ServiceCore::over(cfg, env.clone(), wl.catalog.clone());
        install(&mut core, &wl.queries);
        core
    };
    let standing: Vec<Deployment> = installed()
        .slots
        .values()
        .filter_map(|s| s.deployment.clone())
        .collect();
    let refs: Vec<&Deployment> = standing.iter().collect();
    let flow = FlowSimulator::new(&env.network).evaluate(&refs);

    // Congest `links` 40x in a fresh service; returns how many queries it
    // replanned and how many it migrated.
    let congest = |links: Vec<(NodeId, NodeId)>| {
        let mut core = installed();
        let batch: Vec<JournalEntry> = links
            .into_iter()
            .map(|(a, b)| JournalEntry::Fault {
                fault: FaultReq::Degrade {
                    a: a.0,
                    b: b.0,
                    factor_milli: 40_000,
                },
                at_ms: 10,
            })
            .collect();
        let summary = core.drain(&batch, 20);
        // Doing nothing: the standing deployments, re-costed after the change.
        let recosted: Vec<Deployment> = standing
            .iter()
            .map(|d| {
                let mut d = d.clone();
                d.recompute_cost(&core.env.dm);
                d
            })
            .collect();
        let cost_before: f64 = recosted.iter().map(|d| d.cost).sum();
        assert!(summary.total_cost <= cost_before);
        if !summary.adopted.is_empty() {
            assert!(
                summary.total_cost < cost_before,
                "a migration gained nothing"
            );
        }
        for (old, slot) in recosted.iter().zip(core.slots.values()) {
            let d = slot.deployment.as_ref().expect("congestion loses no query");
            // Deployments remain structurally sound, and none got worse
            // than its re-costed standing plan.
            assert!(d.cost.is_finite());
            assert!(
                d.cost <= old.cost,
                "query {:?} adopted a costlier plan",
                d.query
            );
        }
        (summary.replanned, summary.adopted.len())
    };

    // The three hottest links: on this instance every route crosses them,
    // so Top-Down, the service's planner, keeps the degraded queries'
    // placements.
    let links = flow.hottest_links(3).into_iter().map(|(l, _)| l).collect();
    let (replanned, _) = congest(links);
    assert!(replanned > 0, "congestion must re-trigger planning");

    // Each loaded host in turn, busiest first, with all its links
    // congested: some host's congestion must make the service migrate a
    // query.
    let mut hosts: Vec<(NodeId, f64)> = flow.node_load.iter().map(|(&n, &l)| (n, l)).collect();
    hosts.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let migrated: usize = hosts
        .iter()
        .map(|&(h, _)| congest(env.network.neighbors(h).iter().map(|l| (h, l.to)).collect()).1)
        .sum();
    assert!(
        migrated > 0,
        "no congestion made the service migrate a query"
    );
}
