//! Long-running adaptivity scenario: 12 queries live through a 15-step
//! rate trace with surges; the middleware re-estimates, replans on
//! degradation and gates migrations on the break-even horizon. Asserts the
//! closed-loop system stays coherent and that adaptation beats doing
//! nothing.

use dsq::prelude::*;
use dsq_core::Optimal;
use dsq_sim::AdaptiveRuntime;
use dsq_workload::{RateTrace, RateTraceConfig};

#[test]
fn middleware_tracks_a_rate_trace() {
    let net = TransitStubConfig::paper_64().generate(33).network;
    let env = Environment::build(net, 16);
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 20,
            queries: 12,
            joins_per_query: 2..=3,
            ..WorkloadConfig::default()
        },
        81,
    )
    .generate(&env.network);
    let mut catalog = wl.catalog.clone();

    // Initial deployment; keep a frozen copy for the do-nothing shadow.
    let mut rt = AdaptiveRuntime::new(env, 0.25).with_migration_horizon(50.0);
    let reg = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    let mut initial: Vec<Deployment> = Vec::new();
    for q in &wl.queries {
        let d = TopDown::new(&rt.env)
            .optimize(&catalog, q, &reg, &mut stats)
            .unwrap();
        initial.push(d.clone());
        rt.install(q.clone(), d);
    }

    // A surging trace.
    let trace = RateTrace::generate(
        &catalog,
        &RateTraceConfig {
            steps: 15,
            drift: 0.05,
            surge_prob: 0.03,
            surge_factor: 10.0,
            ..RateTraceConfig::default()
        },
    );
    assert!(!trace.surges.is_empty(), "the trace must contain surges");

    let mut total_migrations = 0usize;
    let mut adapted_cost_integral = 0.0;
    let mut static_cost_integral = 0.0;

    for step in 0..trace.len() {
        trace.apply(&mut catalog, step);
        let report = rt.handle_data_changes(&catalog, |env, q| {
            let reg = ReuseRegistry::new();
            let mut st = SearchStats::new();
            Optimal::new(env).optimize(&catalog, q, &reg, &mut st)
        });
        total_migrations += report.migrated.len();
        adapted_cost_integral += rt.total_cost();

        // Shadow: the initial deployments, re-estimated but never replanned.
        let static_cost: f64 = initial
            .iter()
            .zip(&wl.queries)
            .map(|(d0, q)| d0.reestimate(q, &catalog, &rt.env.dm).cost)
            .sum();
        static_cost_integral += static_cost;

        // Closed-loop consistency: every standing deployment's cost matches
        // a fresh re-estimate under the current catalog.
        for d in rt.deployments() {
            let q = wl.queries.iter().find(|q| q.id == d.query).unwrap();
            let fresh = d.reestimate(q, &catalog, &rt.env.dm);
            assert!((fresh.cost - d.cost).abs() < 1e-9);
        }
    }

    assert!(
        total_migrations > 0,
        "10× surges across 15 steps must trigger at least one migration"
    );
    assert!(
        adapted_cost_integral <= static_cost_integral + 1e-6,
        "adaptation must not lose to doing nothing: \
         {adapted_cost_integral} vs {static_cost_integral}"
    );
    println!(
        "adaptation: {} migrations; cost integral {:.0} vs static {:.0} ({:.1}% saved)",
        total_migrations,
        adapted_cost_integral,
        static_cost_integral,
        (1.0 - adapted_cost_integral / static_cost_integral) * 100.0
    );
}
