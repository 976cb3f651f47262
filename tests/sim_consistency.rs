//! Simulator ↔ cost-model consistency across crates: the flow simulator
//! reproduces analytic costs exactly, the tuple simulator statistically,
//! and the Emulab timing model orders algorithms as the paper measures.

use dsq::prelude::*;
use dsq_core::{Optimal, Optimizer};
use dsq_sim::{AdaptiveRuntime, EmulabModel, LinkChange};

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
    // End-to-end loop: deploy → detect hot links with the flow simulator →
    // congest them → middleware migrates → standing cost improves over
    // doing nothing.
    let (env, wl) = setup();
    let mut rt = AdaptiveRuntime::new(env, 0.15);
    let reg = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    for q in &wl.queries {
        let d = TopDown::new(&rt.env)
            .optimize(&wl.catalog, q, &reg, &mut stats)
            .unwrap();
        rt.install(q.clone(), d);
    }
    let flow = FlowSimulator::new(&rt.env.network);
    let refs: Vec<&Deployment> = rt.deployments().iter().collect();
    let changes: Vec<LinkChange> = flow
        .evaluate(&refs)
        .hottest_links(3)
        .into_iter()
        .map(|((a, b), _)| LinkChange {
            a,
            b,
            new_cost: rt.env.network.find_link(a, b).unwrap().cost * 40.0,
        })
        .collect();
    let report = rt.handle_changes(&changes, |env, q| {
        let reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        Optimal::new(env).optimize(&wl.catalog, q, &reg, &mut stats)
    });
    assert!(report.cost_after <= report.cost_before);
    assert!(!report.migrated.is_empty());
    // Deployments remain structurally sound after migration.
    for d in rt.deployments() {
        assert!(d.cost.is_finite());
    }
}
