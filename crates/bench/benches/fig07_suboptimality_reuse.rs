//! Figure 7 — "Sub-optimality": cumulative cost of the optimal (DP)
//! deployment vs. Top-Down and Bottom-Up, each with and without operator
//! reuse, at `max_cs = 32`.
//!
//! Expected shape (paper): reuse saves ~27% (Top-Down) and ~30% (Bottom-Up)
//! per unit time; with reuse, Top-Down ends ~10% above optimal, Bottom-Up
//! ~34%; Top-Down ≈ 19% better than Bottom-Up.
//!
//! Reuse only materializes when queries share source subsets; the workload
//! uses the Zipf(1.6) source draw (see EXPERIMENTS.md for why).

use criterion::{criterion_group, criterion_main, Criterion};
use dsq_bench::{mean_curve, paper_env, paper_workload, run_batch, workload_repeats, Table};
use dsq_core::{BottomUp, Optimal, Optimizer, SearchStats, TopDown};
use dsq_query::ReuseRegistry;

fn bench(c: &mut Criterion) {
    let env = paper_env(32, 1);
    let arms: Vec<(&str, bool)> = vec![
        ("top-down", false),
        ("top-down+reuse", true),
        ("bottom-up", false),
        ("bottom-up+reuse", true),
        ("optimal", true),
    ];
    let mut curves: Vec<Vec<Vec<f64>>> = vec![Vec::new(); arms.len()];
    for w in 0..workload_repeats() {
        let wl = paper_workload(&env, 300 + w as u64, Some(1.6));
        for (i, (name, reuse)) in arms.iter().enumerate() {
            let alg: Box<dyn Optimizer> = match *name {
                n if n.starts_with("top-down") => Box::new(TopDown::new(&env)),
                n if n.starts_with("bottom-up") => Box::new(BottomUp::new(&env)),
                _ => Box::new(Optimal::new(&env)),
            };
            let (curve, _) = run_batch(alg.as_ref(), &wl, *reuse);
            curves[i].push(curve);
        }
    }
    let means: Vec<Vec<f64>> = curves.iter().map(|c| mean_curve(c)).collect();
    let last = means[0].len() - 1;
    let by_name = |n: &str| -> f64 { means[arms.iter().position(|(a, _)| *a == n).unwrap()][last] };

    println!("\nfig07 headlines (paper values in parentheses):");
    println!(
        "  reuse saves {:.1}% for top-down (27%), {:.1}% for bottom-up (30%)",
        (1.0 - by_name("top-down+reuse") / by_name("top-down")) * 100.0,
        (1.0 - by_name("bottom-up+reuse") / by_name("bottom-up")) * 100.0,
    );
    println!(
        "  vs optimal: top-down+reuse {:+.1}% (10%), bottom-up+reuse {:+.1}% (34%)",
        (by_name("top-down+reuse") / by_name("optimal") - 1.0) * 100.0,
        (by_name("bottom-up+reuse") / by_name("optimal") - 1.0) * 100.0,
    );
    println!(
        "  top-down+reuse is {:.1}% cheaper than bottom-up+reuse (19%)",
        (1.0 - by_name("top-down+reuse") / by_name("bottom-up+reuse")) * 100.0,
    );

    Table {
        name: "fig07",
        caption: "cumulative cost: optimal vs hierarchical algorithms ± reuse (max_cs = 32)",
        x_label: "queries",
        x: (1..=means[0].len()).map(|i| i as f64).collect(),
        series: arms
            .iter()
            .zip(&means)
            .map(|((n, _), m)| (n.to_string(), m.clone()))
            .collect(),
    }
    .emit();

    // Criterion: single-query latency of the three algorithms.
    let wl = paper_workload(&env, 999, Some(1.6));
    let q = &wl.queries[0];
    let mut group = c.benchmark_group("fig07_single_query");
    group.sample_size(10);
    for (name, alg) in [
        (
            "top-down",
            Box::new(TopDown::new(&env)) as Box<dyn Optimizer>,
        ),
        ("bottom-up", Box::new(BottomUp::new(&env))),
        ("optimal", Box::new(Optimal::new(&env))),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let reg = ReuseRegistry::new();
                let mut stats = SearchStats::new();
                alg.optimize(&wl.catalog, q, &reg, &mut stats).unwrap().cost
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
