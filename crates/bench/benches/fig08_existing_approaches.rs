//! Figure 8 — "Comparison with other approaches": cumulative cost of
//! Top-Down and Bottom-Up (with reuse) vs. the exhaustive optimum, the
//! Relaxation algorithm and the In-network algorithm (5 zones), all with
//! reuse enabled, at `max_cs = 32`.
//!
//! Expected shape (paper): Top-Down ≈ 40% cheaper than In-network and
//! ≈ 59% cheaper than Relaxation; Bottom-Up ≈ 27% and ≈ 49%; both close to
//! the exhaustive optimum from above.

use criterion::{criterion_group, criterion_main, Criterion};
use dsq_baselines::{InNetwork, InNetworkRunner, Relaxation};
use dsq_bench::{mean_curve, paper_env, paper_workload, run_batch, workload_repeats, Table};
use dsq_core::{BottomUp, Optimal, Optimizer, SearchStats, TopDown};
use dsq_query::ReuseRegistry;

fn bench(c: &mut Criterion) {
    let env = paper_env(32, 1);
    let zones = InNetwork::new(&env, 5);
    let names = [
        "top-down+reuse",
        "bottom-up+reuse",
        "exhaustive",
        "relaxation+reuse",
        "in-network+reuse",
    ];
    let build = |name: &str| -> Box<dyn Optimizer + '_> {
        match name {
            "top-down+reuse" => Box::new(TopDown::new(&env)),
            "bottom-up+reuse" => Box::new(BottomUp::new(&env)),
            "exhaustive" => Box::new(Optimal::new(&env)),
            "relaxation+reuse" => Box::new(Relaxation::new(&env)),
            _ => Box::new(InNetworkRunner {
                zones: &zones,
                env: &env,
            }),
        }
    };

    let mut curves: Vec<Vec<Vec<f64>>> = vec![Vec::new(); names.len()];
    let mut plans: Vec<u128> = vec![0; names.len()];
    for w in 0..workload_repeats() {
        let wl = paper_workload(&env, 300 + w as u64, Some(1.6));
        for (i, name) in names.iter().enumerate() {
            let alg = build(name);
            let (curve, stats) = run_batch(alg.as_ref(), &wl, true);
            plans[i] += stats.plans_considered;
            curves[i].push(curve);
        }
    }
    let means: Vec<Vec<f64>> = curves.iter().map(|c| mean_curve(c)).collect();
    let last = means[0].len() - 1;
    let by = |n: &str| means[names.iter().position(|x| x == &n).unwrap()][last];

    println!("\nfig08 headlines (paper values in parentheses):");
    println!(
        "  top-down vs in-network: {:.1}% cheaper (40%); vs relaxation: {:.1}% (59%)",
        (1.0 - by("top-down+reuse") / by("in-network+reuse")) * 100.0,
        (1.0 - by("top-down+reuse") / by("relaxation+reuse")) * 100.0,
    );
    println!(
        "  bottom-up vs in-network: {:.1}% cheaper (27%); vs relaxation: {:.1}% (49%)",
        (1.0 - by("bottom-up+reuse") / by("in-network+reuse")) * 100.0,
        (1.0 - by("bottom-up+reuse") / by("relaxation+reuse")) * 100.0,
    );
    // Search-space comparison the paper makes in the same section. Our
    // In-network implementation is the greedy two-phase walk, whose
    // examined candidate count is far below the exhaustive-style space the
    // paper quotes (70% of Top-Down's / 200% of Bottom-Up's under an
    // unspecified counting) — see EXPERIMENTS.md.
    let p = |n: &str| plans[names.iter().position(|x| x == &n).unwrap()] as f64;
    println!(
        "  in-network (greedy) examined candidates: {:.4}% of top-down's space, {:.4}% of \
         bottom-up's (the paper's exhaustive-style counting gives 70% / 200%)",
        p("in-network+reuse") / p("top-down+reuse") * 100.0,
        p("in-network+reuse") / p("bottom-up+reuse") * 100.0,
    );

    Table {
        name: "fig08",
        caption: "cumulative cost vs existing approaches (all with reuse, max_cs = 32, 5 zones)",
        x_label: "queries",
        x: (1..=means[0].len()).map(|i| i as f64).collect(),
        series: names
            .iter()
            .zip(&means)
            .map(|(n, m)| (n.to_string(), m.clone()))
            .collect(),
    }
    .emit();

    // Criterion: single-query latency of the two baselines.
    let wl = paper_workload(&env, 999, Some(1.6));
    let q = &wl.queries[0];
    let mut group = c.benchmark_group("fig08_single_query");
    group.sample_size(10);
    group.bench_function("relaxation", |b| {
        b.iter(|| {
            let reg = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            Relaxation::new(&env)
                .optimize(&wl.catalog, q, &reg, &mut stats)
                .unwrap()
                .cost
        })
    });
    group.bench_function("in-network", |b| {
        b.iter(|| {
            let reg = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            InNetworkRunner {
                zones: &zones,
                env: &env,
            }
            .optimize(&wl.catalog, q, &reg, &mut stats)
            .unwrap()
            .cost
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
