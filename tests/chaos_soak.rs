//! Chaos soak: a seeded 200-event fault schedule — independent crashes,
//! correlated (whole-leaf-cluster) failures, recoveries rejoining through
//! the membership protocol and link degradations — driven through the
//! planning service's core over a lossy deployment protocol. The runner
//! asserts the structural and cost-accounting invariants after every event;
//! this test checks the end-to-end outcome and the determinism guarantee.

use dsq::prelude::*;
use dsq::server::chaos::{Fault, FaultConfig, FaultSchedule};
use dsq::server::ChaosRunner;
use dsq::sim::emulab::RetryPolicy;

fn soak_setup() -> (Environment, Workload, FaultSchedule) {
    let net = TransitStubConfig::paper_64().generate(41).network;
    let env = Environment::build(net, 16);
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 10,
            queries: 8,
            joins_per_query: 2..=3,
            ..WorkloadConfig::default()
        },
        19,
    )
    .generate(&env.network);
    // Rejoin-favoring mix: with the default crash-heavy weights the 64-node
    // population bleeds out (every query's source origin eventually dies
    // and stays dead), and a soak with nothing left standing stops
    // exercising steady-state adaptation. Matching rejoins to crashes
    // keeps queries cycling through park → data-available → replan, which
    // is the regime the incremental-replanning assertions below measure.
    let cfg = FaultConfig {
        events: 200,
        mean_gap_ms: 2_000.0,
        crash_weight: 0.25,
        correlated_weight: 0.05,
        rejoin_weight: 0.50,
        degrade_weight: 0.20,
        ..FaultConfig::default()
    };
    let schedule = FaultSchedule::generate(&env, &cfg, 2024);
    (env, wl, schedule)
}

#[test]
fn two_hundred_event_soak_survives_with_invariants() {
    let (env, wl, schedule) = soak_setup();

    // The schedule must exercise every fault class, including correlated
    // multi-node failures and rejoins.
    let count =
        |pred: &dyn Fn(&Fault) -> bool| schedule.faults.iter().filter(|f| pred(&f.fault)).count();
    assert_eq!(schedule.faults.len(), 200);
    assert!(
        count(&|f| matches!(f, Fault::Crash(_))) > 0,
        "no crashes scheduled"
    );
    assert!(
        count(&|f| matches!(f, Fault::CrashCluster(_))) > 0,
        "no correlated failures scheduled"
    );
    assert!(
        count(&|f| matches!(f, Fault::Rejoin(_))) > 0,
        "no rejoins scheduled"
    );
    assert!(
        count(&|f| matches!(f, Fault::DegradeLink { .. })) > 0,
        "no link degradations scheduled"
    );

    let runner = ChaosRunner {
        policy: RetryPolicy::lossy(0.1),
        protocol_seed: 7,
        ..ChaosRunner::default()
    };
    // The runner panics on any post-event invariant violation (hierarchy
    // structure, deployments referencing inactive nodes, cost accounting).
    let report = runner.run(env, &wl.catalog, &wl.queries, &schedule);

    assert_eq!(report.applied + report.skipped, 200);
    assert_eq!(
        report.invariant_checks, 201,
        "one invariant suite per event plus the final sweep"
    );
    assert!(report.availability > 0.0, "some service must survive");
    assert!(report.availability <= 1.0 + 1e-12);
    assert!(report.installed_initially == 8);
    // Conservation at the population level: everything installed is now
    // live, parked or lost (redeployments move queries between the first
    // two pots, never mint new ones).
    assert_eq!(
        report.final_installed + report.final_parked + report.lost.len(),
        report.installed_initially
    );
    assert!(report.duration_ms > 0.0);

    // Incremental-replanning economics over the soak. Scoped invalidation
    // (the runner's default) must let memoized subplans survive across
    // adaptations — the cache keeps hitting through 200 faults — while the
    // dirty-set selection keeps replanning work proportional to what the
    // faults actually touched, not to the standing population.
    assert!(
        report.cache_hits > 0,
        "scoped invalidation must preserve cache hits across the soak"
    );
    assert!(
        report.cache_retired > 0,
        "200 faults must retire at least one memoized subplan"
    );
    let replan_ratio = report.queries_replanned as f64
        / (report.applied as f64 * report.installed_initially as f64);
    assert!(
        replan_ratio < 0.5,
        "incremental replanning must not approach replan-everything-per-event \
         (got {:.3}: {} replans over {} applied events x {} queries)",
        replan_ratio,
        report.queries_replanned,
        report.applied,
        report.installed_initially
    );
}

#[test]
fn soak_report_is_deterministic_for_a_fixed_seed() {
    let (env, wl, schedule) = soak_setup();
    let runner = ChaosRunner {
        policy: RetryPolicy::lossy(0.1),
        protocol_seed: 7,
        ..ChaosRunner::default()
    };
    let first = runner.run(env.clone(), &wl.catalog, &wl.queries, &schedule);
    let second = runner.run(env, &wl.catalog, &wl.queries, &schedule);
    assert_eq!(
        format!("{first:?}"),
        format!("{second:?}"),
        "identical seeds must reproduce the identical report"
    );
}
