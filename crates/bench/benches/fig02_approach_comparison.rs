//! Figure 2 — "Comparison with typical approaches".
//!
//! "The graph shows the total communication cost incurred by 100 queries
//! over 5 stream sources each, on a 64-node network. … Our approach that
//! considers query plans and deployments simultaneously reduces the cost by
//! more than 50% [vs. plan-then-deploy] as it was able to exploit
//! optimization opportunities such as operator reuse even during planning."
//!
//! Expected shape: our joint approach (Top-Down) clearly cheapest;
//! plan-then-deploy (optimal placement of a network-oblivious plan) in the
//! middle; Relaxation worst.

use criterion::{criterion_group, criterion_main, Criterion};
use dsq_baselines::{PlanThenDeploy, Relaxation};
use dsq_bench::{quick_mode, run_batch, small_env, Table};
use dsq_core::{optimize_all, Optimizer, ParallelConfig, SearchStats, TopDown};
use dsq_query::ReuseRegistry;
use dsq_workload::{WorkloadConfig, WorkloadGenerator};

/// Wall-clock of the multi-query planning driver on a fig09-style sweep
/// (~1024 nodes full mode, ~128 quick): serial without the subplan cache,
/// parallel (4-thread pool) with a cold cache, a warm-cache replanning
/// pass, and an adaptation-after-change pair — full replan (flush) vs
/// incremental (scoped retirement + `optimize_dirty`) after a localized
/// link-cost drift. Returns `(name, ms)` rows plus the cache-hit count for
/// `BENCH_plan.json`.
fn driver_experiment() -> (Vec<(&'static str, f64)>, u64) {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build_global();
    let size = if quick_mode() { 128 } else { 1024 };
    let net = dsq_net::TransitStubConfig::sized(size).generate(9).network;
    let env = dsq_core::Environment::build(net, 32);
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 100,
            queries: if quick_mode() { 10 } else { 40 },
            joins_per_query: 4..=4, // 5 stream sources each, as in fig02
            source_skew: Some(1.0), // shared hot streams => shared subplans
            ..WorkloadConfig::default()
        },
        33,
    )
    .generate(&env.network);
    let td = TopDown::new(&env);
    let timed = |cfg: &ParallelConfig| {
        let t0 = std::time::Instant::now();
        let out = optimize_all(
            &env,
            &td,
            &wl.catalog,
            &wl.queries,
            &ReuseRegistry::new(),
            cfg,
        );
        assert!(out.planned() > 0);
        t0.elapsed().as_secs_f64() * 1e3
    };

    env.plan_cache.set_enabled(false);
    let serial_ms = timed(&ParallelConfig::serial());
    env.plan_cache.set_enabled(true);
    let parallel_ms = timed(&ParallelConfig::default());
    // Second pass over the warmed cache: what a replan after an adaptation
    // check (no epoch bump) costs.
    let replanning_ms = timed(&ParallelConfig::default());

    // Adaptation-after-change scenario: one stub access link drifts 40x,
    // as a `Degrade` fault report to the service would. Full replan
    // flushes the cache and replans every query; incremental replanning
    // retires only the entries whose DP consulted a drifted distance
    // (`retire_metric`) and replans only the queries whose standing
    // deployment touches the dirty set (`optimize_dirty`).
    let drift = dsq_bench::localized_drift(&env);
    let cfg = ParallelConfig::default();

    let mut full_env = env.clone();
    full_env.isolate_cache(true); // flush semantics: enabled but empty
    assert!(full_env
        .network
        .set_link_cost(drift.a, drift.b, drift.new_cost));
    full_env.dm = drift.new_dm.clone();
    full_env.hierarchy.refresh_statistics(&full_env.dm);
    let (full_ms, full_out) = {
        let td = TopDown::new(&full_env);
        let t0 = std::time::Instant::now();
        let out = optimize_all(
            &full_env,
            &td,
            &wl.catalog,
            &wl.queries,
            &ReuseRegistry::new(),
            &cfg,
        );
        (t0.elapsed().as_secs_f64() * 1e3, out)
    };

    // Standing deployments for the incremental arm (pure warm hits, untimed).
    let warm = optimize_all(
        &env,
        &td,
        &wl.catalog,
        &wl.queries,
        &ReuseRegistry::new(),
        &cfg,
    );
    let mut inc_env = env.clone(); // shares the warmed cache
    assert!(inc_env
        .network
        .set_link_cost(drift.a, drift.b, drift.new_cost));
    let dirty = drift.dirty;
    inc_env.dm = drift.new_dm;
    inc_env.hierarchy.refresh_statistics(&inc_env.dm);
    let (incremental_ms, inc_out, retired) = {
        let td = TopDown::new(&inc_env);
        let t0 = std::time::Instant::now();
        let retired = inc_env.plan_cache.retire_metric(&env.dm, &inc_env.dm);
        let out = dsq_core::optimize_dirty(
            &inc_env,
            &td,
            &wl.catalog,
            &wl.queries,
            &warm.deployments,
            &dirty,
            &ReuseRegistry::new(),
            &cfg,
        );
        (t0.elapsed().as_secs_f64() * 1e3, out, retired)
    };
    assert!(
        retired > 0,
        "the drift must retire memoized subplans (emits planner.cache_retired)"
    );
    assert_eq!(
        inc_out.total_cost.to_bits(),
        full_out.total_cost.to_bits(),
        "incremental replanning diverged from the full replan"
    );

    let rows = vec![
        ("planning-serial", serial_ms),
        ("planning-parallel-4t", parallel_ms),
        ("replanning-parallel-4t", replanning_ms),
        ("planning-speedup-x", serial_ms / replanning_ms.max(1e-9)),
        ("replanning-full-after-change", full_ms),
        ("planning-replanning-incremental", incremental_ms),
        (
            "replanning-incremental-speedup-x",
            full_ms / incremental_ms.max(1e-9),
        ),
    ];
    (rows, env.plan_cache.hits())
}

/// Per-approach rows of `(name, total cost, wall ms)` plus the shared case.
fn experiment() -> (Vec<(&'static str, f64, f64)>, dsq_bench::BenchCase) {
    let env = small_env(16, 2);
    let queries = if quick_mode() { 25 } else { 100 };
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 40,
            queries,
            joins_per_query: 4..=4, // 5 stream sources each
            source_skew: Some(1.0), // shared hot streams => reuse matters
            ..WorkloadConfig::default()
        },
        7,
    )
    .generate(&env.network);

    let td = TopDown::new(&env);
    let ptd = PlanThenDeploy::new(&env);
    let rel = Relaxation::new(&env);
    let timed = |name: &'static str, alg: &dyn Optimizer| {
        let t0 = std::time::Instant::now();
        let cost = run_batch(alg, &wl, true).0.last().copied().unwrap();
        (name, cost, t0.elapsed().as_secs_f64() * 1e3)
    };
    let rows = vec![
        timed("our-approach (top-down)", &td),
        timed("plan-then-deploy", &ptd),
        timed("relaxation", &rel),
    ];
    (rows, dsq_bench::BenchCase { env, wl })
}

fn bench(c: &mut Criterion) {
    // Capture planner counters for the whole experiment and emit them with
    // the per-approach wall times as BENCH_plan.json (CI uploads it).
    let sink = dsq_obs::Sink::new(dsq_obs::ClockMode::Monotonic);
    let (rows, case, driver_rows, cache_hits) = {
        let _scope = dsq_obs::scoped(sink.clone());
        let (rows, case) = experiment();
        let (driver_rows, cache_hits) = driver_experiment();
        (rows, case, driver_rows, cache_hits)
    };
    let mut wall_rows: Vec<(&str, f64)> = rows.iter().map(|&(name, _, ms)| (name, ms)).collect();
    wall_rows.extend_from_slice(&driver_rows);
    dsq_bench::emit_bench_json("plan", &wall_rows, &sink.snapshot());
    println!(
        "multi-query driver: serial {:.0} ms, parallel-4t cold {:.0} ms, warm replan {:.0} ms \
         (speedup {:.1}x, cache hits {cache_hits})",
        driver_rows[0].1, driver_rows[1].1, driver_rows[2].1, driver_rows[3].1,
    );
    println!(
        "after a 40x link drift: full replan {:.1} ms, incremental (scoped retire + dirty-set \
         replan) {:.1} ms ({:.1}x)",
        driver_rows[4].1, driver_rows[5].1, driver_rows[6].1,
    );
    let ours = rows[0].1;
    println!("\n=== fig02 — total cost of 100 5-source queries, 64-node network ===");
    for (name, cost, wall_ms) in &rows {
        println!(
            "{name:>26}: {cost:>12.1}  ({:+.1}% vs ours, {wall_ms:.0} ms)",
            (cost / ours - 1.0) * 100.0
        );
    }
    let ptd = rows[1].1;
    println!(
        "joint planning saves {:.1}% vs plan-then-deploy (paper: > 50%)",
        (1.0 - ours / ptd) * 100.0
    );
    Table {
        name: "fig02",
        caption:
            "total cost per unit time by approach (row order: ours, plan-then-deploy, relaxation)",
        x_label: "approach_idx",
        x: (0..rows.len()).map(|i| i as f64).collect(),
        series: vec![("total_cost".into(), rows.iter().map(|r| r.1).collect())],
    }
    .emit();

    // Criterion measurement: single-query optimization latency per approach.
    let q = &case.wl.queries[0];
    let mut group = c.benchmark_group("fig02_single_query");
    group.sample_size(10);
    group.bench_function("top-down", |b| {
        b.iter(|| {
            let reg = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            TopDown::new(&case.env)
                .optimize(&case.wl.catalog, q, &reg, &mut stats)
                .unwrap()
                .cost
        })
    });
    group.bench_function("plan-then-deploy", |b| {
        b.iter(|| {
            let reg = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            PlanThenDeploy::new(&case.env)
                .optimize(&case.wl.catalog, q, &reg, &mut stats)
                .unwrap()
                .cost
        })
    });
    group.bench_function("relaxation", |b| {
        b.iter(|| {
            let reg = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            Relaxation::new(&case.env)
                .optimize(&case.wl.catalog, q, &reg, &mut stats)
                .unwrap()
                .cost
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
