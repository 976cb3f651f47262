//! Figure 9 — "Scalability with Network Size": plan/deployment combinations
//! considered per query (log scale) on transit-stub networks of ~64, ~128,
//! ~512 and ~1024 nodes, for Top-Down and Bottom-Up (`max_cs = 32`,
//! 10 queries each joining 4 of 100 streams), compared with the exhaustive
//! search-space size (Lemma 1) and the analytical worst-case bounds
//! (Theorems 2 and 4).
//!
//! Expected shape (paper): both algorithms cut the space by ≥ 99%;
//! Bottom-Up's per-query space is ~45% below Top-Down's; the analytical
//! bounds are nearly flat across network sizes (the growth of
//! `O_exhaustive` is offset by the shrinking β).

use criterion::{criterion_group, criterion_main, Criterion};
use dsq_bench::{quick_mode, Table};
use dsq_core::{bounds, BottomUp, BottomUpPlacement, Environment, Optimizer, SearchStats, TopDown};
use dsq_net::TransitStubConfig;
use dsq_query::ReuseRegistry;
use dsq_workload::{WorkloadConfig, WorkloadGenerator};

fn bench(c: &mut Criterion) {
    let sizes = if quick_mode() {
        vec![64usize, 128]
    } else {
        vec![64, 128, 512, 1024]
    };
    const K: usize = 4; // streams per query
    let mut x = Vec::new();
    let (mut td_s, mut bu_s, mut bum_s, mut exh_s, mut bound_s) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut envs = Vec::new();

    for &target in &sizes {
        let cfg = TransitStubConfig::sized(target);
        let net = cfg.generate(9).network;
        let n = net.len();
        let env = Environment::build(net, 32);
        let h = env.hierarchy.height();
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 100,
                queries: 10,
                joins_per_query: (K - 1)..=(K - 1),
                ..WorkloadConfig::default()
            },
            33,
        )
        .generate(&env.network);

        let mut td_plans = 0u128;
        let mut bu_plans = 0u128;
        let mut bum_plans = 0u128;
        for q in &wl.queries {
            let reg = ReuseRegistry::new();
            let mut s = SearchStats::new();
            TopDown::new(&env)
                .optimize(&wl.catalog, q, &reg, &mut s)
                .unwrap();
            td_plans += s.plans_considered;
            let reg = ReuseRegistry::new();
            let mut s = SearchStats::new();
            BottomUp::new(&env)
                .optimize(&wl.catalog, q, &reg, &mut s)
                .unwrap();
            bu_plans += s.plans_considered;
            let reg = ReuseRegistry::new();
            let mut s = SearchStats::new();
            BottomUp::with_placement(&env, BottomUpPlacement::MembersOnly)
                .optimize(&wl.catalog, q, &reg, &mut s)
                .unwrap();
            bum_plans += s.plans_considered;
        }
        let per_query_td = td_plans as f64 / wl.queries.len() as f64;
        let per_query_bu = bu_plans as f64 / wl.queries.len() as f64;
        let per_query_bum = bum_plans as f64 / wl.queries.len() as f64;
        let exhaustive = bounds::lemma1_space_f64(K, n);
        let analytic = bounds::hierarchical_space_bound(K, n, 32, h);

        println!(
            "n = {n:>5} (h = {h}): top-down {per_query_td:.3e}, bottom-up {per_query_bu:.3e}, \
             bottom-up/members-only {per_query_bum:.3e}, exhaustive {exhaustive:.3e}, \
             bound {analytic:.3e} | reduction: td {:.3}%, bu {:.3}% of exhaustive",
            per_query_td / exhaustive * 100.0,
            per_query_bu / exhaustive * 100.0,
        );
        x.push(n as f64);
        td_s.push(per_query_td);
        bu_s.push(per_query_bu);
        bum_s.push(per_query_bum);
        exh_s.push(exhaustive);
        bound_s.push(analytic);
        envs.push((env, wl));
    }

    // Headlines from the paper's text.
    let avg_bu_vs_td: f64 =
        td_s.iter().zip(&bu_s).map(|(t, b)| b / t).sum::<f64>() / td_s.len() as f64;
    let big = x.iter().position(|&n| n >= 128.0).unwrap_or(0);
    println!(
        "\nfig09 headlines: at n ≥ 128 both algorithms are ≥99% below exhaustive: {}",
        td_s[big..]
            .iter()
            .zip(&exh_s[big..])
            .all(|(t, e)| t / e < 0.01)
            && bu_s[big..]
                .iter()
                .zip(&exh_s[big..])
                .all(|(b, e)| b / e < 0.01)
    );
    let avg_bum_vs_td: f64 =
        td_s.iter().zip(&bum_s).map(|(t, b)| b / t).sum::<f64>() / td_s.len() as f64;
    println!(
        "  bottom-up examines {:.0}% fewer plans than top-down on average (paper: ~45%); \
         the members-only placement reading examines {:.0}% fewer",
        (1.0 - avg_bu_vs_td) * 100.0,
        (1.0 - avg_bum_vs_td) * 100.0
    );

    Table {
        name: "fig09",
        caption: "plans considered per 4-stream query vs network size (log scale)",
        x_label: "network size",
        x,
        series: vec![
            ("top-down".into(), td_s),
            ("bottom-up".into(), bu_s),
            ("bottom-up members-only".into(), bum_s),
            ("exhaustive (Lemma 1)".into(), exh_s),
            ("analytical bound".into(), bound_s),
        ],
    }
    .emit();

    // Multi-query driver wall time at the largest size: serial one-at-a-time
    // vs the parallel driver with the shared subplan cache, plus a
    // warm-cache replanning pass (the adaptation path).
    let (env, wl) = envs.last().unwrap();
    let obs_sink = dsq_obs::Sink::new(dsq_obs::ClockMode::Monotonic);
    {
        let _obs_scope = dsq_obs::scoped(obs_sink.clone());
        use dsq_core::{optimize_all, ParallelConfig};
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build_global();
        let td = TopDown::new(env);
        let timed = |cfg: &ParallelConfig| {
            let t0 = std::time::Instant::now();
            let out = optimize_all(
                env,
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
        let replan_ms = timed(&ParallelConfig::default());
        println!(
            "  multi-query planning wall time at n = {}: serial {serial_ms:.1} ms, \
             parallel-4t cold {parallel_ms:.1} ms, warm replan {replan_ms:.1} ms \
             ({:.1}x, {} cache hits)",
            env.network.len(),
            serial_ms / replan_ms.max(1e-9),
            env.plan_cache.hits(),
        );

        // Incremental replanning after a localized link-cost drift: scoped
        // retirement + dirty-set replan against the warmed cache vs a full
        // (flush-style) replan of every query over a cold cache.
        let warm = optimize_all(
            env,
            &td,
            &wl.catalog,
            &wl.queries,
            &ReuseRegistry::new(),
            &ParallelConfig::default(),
        );
        let drift = dsq_bench::localized_drift(env);
        let mut full_env = env.clone();
        full_env.isolate_cache(true);
        assert!(full_env
            .network
            .set_link_cost(drift.a, drift.b, drift.new_cost));
        full_env.dm = drift.new_dm.clone();
        full_env.hierarchy.refresh_statistics(&full_env.dm);
        let t0 = std::time::Instant::now();
        let full = optimize_all(
            &full_env,
            &TopDown::new(&full_env),
            &wl.catalog,
            &wl.queries,
            &ReuseRegistry::new(),
            &ParallelConfig::default(),
        );
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut inc_env = env.clone(); // shares the warmed cache
        assert!(inc_env
            .network
            .set_link_cost(drift.a, drift.b, drift.new_cost));
        let dirty = drift.dirty;
        inc_env.dm = drift.new_dm;
        inc_env.hierarchy.refresh_statistics(&inc_env.dm);
        let t0 = std::time::Instant::now();
        let retired = inc_env.plan_cache.retire_metric(&env.dm, &inc_env.dm);
        let inc = dsq_core::optimize_dirty(
            &inc_env,
            &TopDown::new(&inc_env),
            &wl.catalog,
            &wl.queries,
            &warm.deployments,
            &dirty,
            &ReuseRegistry::new(),
            &ParallelConfig::default(),
        );
        let inc_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            inc.total_cost.to_bits(),
            full.total_cost.to_bits(),
            "incremental replanning diverged from the full replan"
        );
        println!(
            "  after a 40x link drift at n = {}: full replan {full_ms:.1} ms, incremental \
             {inc_ms:.1} ms ({:.1}x; {} dirty nodes, {retired} subplans retired)",
            env.network.len(),
            full_ms / inc_ms.max(1e-9),
            dirty.len(),
        );

        // fig02 writes the same summary file; the `fig09.` prefix keeps the
        // row namespaces disjoint so the key-wise merge preserves both.
        dsq_bench::emit_bench_json(
            "plan",
            &[
                ("fig09.serial", serial_ms),
                ("fig09.parallel_cold", parallel_ms),
                ("fig09.warm_replan", replan_ms),
                ("fig09.full_replan", full_ms),
                ("fig09.incremental", inc_ms),
            ],
            &obs_sink.snapshot(),
        );
    }

    // ROADMAP item 3 — an order of magnitude past the paper: wall time to
    // plan a Q-query batch on transit-stub networks up to ~10k nodes with
    // the bitset/arena engine. Rows land in BENCH_plan.json under
    // `fig09.scale.n<N>_q<Q>` (N = target node count), so CI can assert the
    // sweep ran and gate the paper-scale point against a committed baseline.
    {
        use dsq_core::{optimize_all, ParallelConfig};
        let points: &[(usize, usize)] = if quick_mode() {
            &[(256, 50), (512, 100)]
        } else {
            &[(1024, 100), (2560, 250), (5120, 500), (10240, 1000)]
        };
        let scale_sink = dsq_obs::Sink::new(dsq_obs::ClockMode::Monotonic);
        let _obs_scope = dsq_obs::scoped(scale_sink.clone());
        let mut rows: Vec<(String, f64)> = Vec::new();
        let (mut sx, mut env_ms_s, mut plan_ms_s, mut per_q_s) = (vec![], vec![], vec![], vec![]);
        for &(target, queries) in points {
            let net = TransitStubConfig::sized(target).generate(9).network;
            let n = net.len();
            let t0 = std::time::Instant::now();
            let env = Environment::build(net, 32);
            let env_ms = t0.elapsed().as_secs_f64() * 1e3;
            let wl = WorkloadGenerator::new(
                WorkloadConfig {
                    streams: 100,
                    queries,
                    joins_per_query: 2..=5,
                    ..WorkloadConfig::default()
                },
                33,
            )
            .generate(&env.network);
            let td = TopDown::new(&env);
            let t0 = std::time::Instant::now();
            let out = optimize_all(
                &env,
                &td,
                &wl.catalog,
                &wl.queries,
                &ReuseRegistry::new(),
                &ParallelConfig::default(),
            );
            let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                out.planned(),
                wl.queries.len(),
                "every query must plan at n = {n}"
            );
            println!(
                "fig09 scale: n = {n:>5}, {queries:>4} queries: env build {env_ms:.0} ms, \
                 plan {plan_ms:.0} ms ({:.2} ms/query)",
                plan_ms / queries as f64
            );
            rows.push((format!("fig09.scale.n{target}_q{queries}"), plan_ms));
            // Environment construction (APSP + embedding + hierarchy) under
            // the *actual* generated node count, so the CSR/pivot/incremental
            // work shows up in the perf trajectory and CI can gate it.
            rows.push((format!("fig09.scale.env_ms.n{n}"), env_ms));
            sx.push(n as f64);
            env_ms_s.push(env_ms);
            plan_ms_s.push(plan_ms);
            per_q_s.push(plan_ms / queries as f64);
        }
        Table {
            name: "fig09_scale",
            caption: "batch planning wall time, an order of magnitude past the paper",
            x_label: "network size",
            x: sx,
            series: vec![
                ("env build (ms)".into(), env_ms_s),
                ("plan batch (ms)".into(), plan_ms_s),
                ("per query (ms)".into(), per_q_s),
            ],
        }
        .emit();
        let row_refs: Vec<(&str, f64)> = rows.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        dsq_bench::emit_bench_json("plan", &row_refs, &scale_sink.snapshot());
    }

    // Criterion: per-query optimization latency at the largest size.
    let q = &wl.queries[0];
    let mut group = c.benchmark_group("fig09_largest_network");
    group.sample_size(10);
    group.bench_function("top-down", |b| {
        b.iter(|| {
            let reg = ReuseRegistry::new();
            let mut s = SearchStats::new();
            TopDown::new(env)
                .optimize(&wl.catalog, q, &reg, &mut s)
                .unwrap()
                .cost
        })
    });
    group.bench_function("bottom-up", |b| {
        b.iter(|| {
            let reg = ReuseRegistry::new();
            let mut s = SearchStats::new();
            BottomUp::new(env)
                .optimize(&wl.catalog, q, &reg, &mut s)
                .unwrap()
                .cost
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
