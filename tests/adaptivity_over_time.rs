//! Long-running adaptivity scenario: 12 queries live through a 15-step
//! rate trace with surges; each step's rates reach the planning service as
//! `observe` requests, and the service re-estimates, replans on
//! degradation and adopts only cheaper plans. Asserts the closed-loop
//! system stays coherent and that adaptation beats doing nothing.

use dsq::prelude::*;
use dsq::server::chaos::install;
use dsq::server::{JournalEntry, ServiceConfig, ServiceCore};
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

    // Initial deployment; keep a frozen copy for the do-nothing shadow.
    let cfg = ServiceConfig {
        threshold_milli: 250,
        ..ServiceConfig::default()
    };
    let mut core = ServiceCore::over(cfg, env, wl.catalog.clone());
    install(&mut core, &wl.queries);
    let initial: Vec<(Query, Deployment)> = core
        .slots
        .values()
        .map(|s| (s.query.clone(), s.deployment.clone().expect("deployable")))
        .collect();
    assert_eq!(initial.len(), wl.queries.len());

    // A surging trace.
    let trace = RateTrace::generate(
        &wl.catalog,
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

    for (step, rates) in trace.steps.iter().enumerate() {
        let at_ms = step as u64 * 10;
        let observations: Vec<JournalEntry> = rates
            .iter()
            .map(|&(stream, rate)| JournalEntry::Observe {
                stream: stream.0,
                rate_milli: ((rate * 1000.0).round() as u64).max(1),
                at_ms,
            })
            .collect();
        let summary = core.drain(&observations, at_ms + 5);
        total_migrations += summary.adopted.len();
        adapted_cost_integral += summary.total_cost;

        // Shadow: the initial deployments, re-estimated but never replanned.
        let static_cost: f64 = initial
            .iter()
            .map(|(q, d0)| d0.reestimate(q, &core.catalog, &core.env.dm).cost)
            .sum();
        static_cost_integral += static_cost;

        // Closed-loop consistency: every standing deployment's cost matches
        // a fresh re-estimate under the current catalog.
        for slot in core.slots.values() {
            let d = slot
                .deployment
                .as_ref()
                .expect("rate changes lose no query");
            let fresh = d.reestimate(&slot.query, &core.catalog, &core.env.dm);
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
