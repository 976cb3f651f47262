//! Byte-identity of the parallel multi-query planning driver.
//!
//! `optimize_all` must produce *exactly* the same results with fan-out on
//! or off — same deployments, same costs down to the bit, same search
//! accounting, and the same virtual-clock JSONL trace — and the shared
//! subplan cache must never change an answer, only the time it takes to
//! produce it (including across adaptation epochs).

use dsq::obs;
use dsq::prelude::*;

/// Force a real multi-thread pool for this whole test binary, so the
/// "parallel" runs below genuinely cross threads. `build_global` is
/// process-wide; doing it in every test keeps them order-independent (the
/// shim reconfigures; with upstream rayon later calls would just error —
/// either way the pool exists).
fn ensure_pool() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build_global();
}

fn workload(env: &Environment) -> Workload {
    WorkloadGenerator::new(
        WorkloadConfig {
            streams: 16,
            queries: 14,
            joins_per_query: 2..=4,
            source_skew: Some(1.0), // shared hot streams => overlapping subplans
            ..WorkloadConfig::default()
        },
        5,
    )
    .generate(&env.network)
}

fn fresh_env(seed: u64) -> Environment {
    let net = TransitStubConfig::sized(64).generate(seed).network;
    Environment::build(net, 16)
}

/// One full `optimize_all` run under a scoped virtual-clock sink.
fn run(cache: bool, parallel: bool) -> (MultiQueryOutcome, String, u64) {
    ensure_pool();
    let env = fresh_env(9);
    env.plan_cache.set_enabled(cache);
    let wl = workload(&env);
    let sink = obs::Sink::new(obs::ClockMode::Virtual);
    let out = {
        let _scope = obs::scoped(sink.clone());
        let td = TopDown::new(&env);
        let cfg = ParallelConfig {
            parallel,
            ..ParallelConfig::default()
        };
        optimize_all(
            &env,
            &td,
            &wl.catalog,
            &wl.queries,
            &ReuseRegistry::new(),
            &cfg,
        )
    };
    (out, sink.to_jsonl(), env.plan_cache.hits())
}

fn assert_outcomes_identical(a: &MultiQueryOutcome, b: &MultiQueryOutcome) {
    assert_eq!(a.deployments.len(), b.deployments.len());
    for (x, y) in a.deployments.iter().zip(&b.deployments) {
        match (x, y) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.cost.to_bits(), y.cost.to_bits(), "cost bits differ");
                assert_eq!(x.placement, y.placement, "placement differs");
                assert_eq!(x.sink, y.sink);
            }
            _ => panic!("feasibility differs between runs"),
        }
    }
    assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
    assert_eq!(a.stats, b.stats, "search accounting differs");
}

#[test]
fn parallel_equals_serial_including_traces() {
    let (serial, serial_trace, _) = run(true, false);
    let (parallel, parallel_trace, _) = run(true, true);
    assert!(serial.planned() > 0);
    assert_outcomes_identical(&serial, &parallel);
    assert!(!serial_trace.is_empty());
    assert_eq!(
        serial_trace, parallel_trace,
        "virtual-clock traces must be byte-identical across thread counts"
    );
}

#[test]
fn cache_never_changes_answers() {
    let (cached, _, hits) = run(true, true);
    let (uncached, _, misses_only) = run(false, true);
    assert_outcomes_identical(&cached, &uncached);
    assert!(
        hits > 0,
        "the skewed workload shares subplans, so the cache must hit"
    );
    assert_eq!(misses_only, 0, "disabled cache must never record a hit");
}

#[test]
fn epoch_bump_keeps_replanning_correct() {
    ensure_pool();
    // Plan, warm the cache, then change the world (link costs) the way
    // the cache's `InvalidationMode::Flush` reference does — rebuild
    // distances and bump the epoch. Replanning
    // against the warmed-but-invalidated cache must match a cold planner
    // over the same mutated environment.
    let wl_env = fresh_env(9);
    let wl = workload(&wl_env);
    let cfg = ParallelConfig::default();

    let mut env = fresh_env(9);
    env.plan_cache.set_enabled(true);
    {
        let td = TopDown::new(&env);
        let warm = optimize_all(
            &env,
            &td,
            &wl.catalog,
            &wl.queries,
            &ReuseRegistry::new(),
            &cfg,
        );
        assert!(warm.planned() > 0);
    }
    assert!(!env.plan_cache.is_empty(), "first pass populates the cache");

    // Mutate: make one existing link dramatically more expensive.
    let (a, b) = {
        let u = env.network.nodes().next().unwrap();
        let l = env.network.neighbors(u).first().unwrap();
        (u, l.to)
    };
    assert!(env.network.set_link_cost(a, b, 500.0));
    env.dm = DistanceMatrix::build(&env.network, Metric::Cost);
    env.hierarchy.refresh_statistics(&env.dm);
    let epoch_before = env.plan_cache.epoch();
    env.plan_cache.invalidate();
    assert_eq!(env.plan_cache.epoch(), epoch_before + 1);
    assert!(env.plan_cache.is_empty(), "invalidation clears entries");

    let replanned = {
        let td = TopDown::new(&env);
        optimize_all(
            &env,
            &td,
            &wl.catalog,
            &wl.queries,
            &ReuseRegistry::new(),
            &cfg,
        )
    };

    // Reference: a never-cached environment with the same mutation.
    let reference_env = {
        let mut e = fresh_env(9);
        assert!(e.network.set_link_cost(a, b, 500.0));
        e.dm = DistanceMatrix::build(&e.network, Metric::Cost);
        e.hierarchy.refresh_statistics(&e.dm);
        e
    };
    let reference = {
        let td = TopDown::new(&reference_env);
        optimize_all(
            &reference_env,
            &td,
            &wl.catalog,
            &wl.queries,
            &ReuseRegistry::new(),
            &cfg,
        )
    };
    assert_outcomes_identical(&replanned, &reference);
}

#[test]
fn scoped_retirement_keeps_replanning_correct() {
    ensure_pool();
    // Same shape as the epoch-bump test, but instead of flushing the warm
    // cache we retire only the entries whose DP consulted a drifted
    // distance (`metric_dirty_nodes` + `retire_metric`). Replanning over
    // the partially retained cache must still match a cold planner over
    // the same mutated environment — the surviving entries are exactly the
    // ones the change could not have touched.
    use dsq::core::metric_dirty_nodes;
    let wl_env = fresh_env(9);
    let wl = workload(&wl_env);
    let cfg = ParallelConfig::default();

    let mut env = fresh_env(9);
    env.plan_cache.set_enabled(true);
    {
        let td = TopDown::new(&env);
        let warm = optimize_all(
            &env,
            &td,
            &wl.catalog,
            &wl.queries,
            &ReuseRegistry::new(),
            &cfg,
        );
        assert!(warm.planned() > 0);
    }
    let entries_before = env.plan_cache.len();
    assert!(entries_before > 0);

    let (a, b) = {
        let u = env.network.nodes().next().unwrap();
        let l = env.network.neighbors(u).first().unwrap();
        (u, l.to)
    };
    assert!(env.network.set_link_cost(a, b, 500.0));
    let new_dm = DistanceMatrix::build(&env.network, Metric::Cost);
    let dirty = metric_dirty_nodes(&env.dm, &new_dm);
    assert!(!dirty.is_empty());
    let retired = env.plan_cache.retire_metric(&env.dm, &new_dm);
    env.dm = new_dm;
    env.hierarchy.refresh_statistics(&env.dm);
    assert!(retired > 0, "the drift must retire something");
    assert_eq!(
        env.plan_cache.epoch(),
        0,
        "scoped retirement must not bump the epoch"
    );

    let replanned = {
        let td = TopDown::new(&env);
        optimize_all(
            &env,
            &td,
            &wl.catalog,
            &wl.queries,
            &ReuseRegistry::new(),
            &cfg,
        )
    };

    let reference_env = {
        let mut e = fresh_env(9);
        assert!(e.network.set_link_cost(a, b, 500.0));
        e.dm = DistanceMatrix::build(&e.network, Metric::Cost);
        e.hierarchy.refresh_statistics(&e.dm);
        e
    };
    let reference = {
        let td = TopDown::new(&reference_env);
        optimize_all(
            &reference_env,
            &td,
            &wl.catalog,
            &wl.queries,
            &ReuseRegistry::new(),
            &cfg,
        )
    };
    assert_outcomes_identical(&replanned, &reference);
}
