//! Ablation — analytical bounds vs. measured behaviour:
//!
//! * Theorem 1: the distance-estimate error at each hierarchy level vs. the
//!   `Σ 2·d_i` slack (how loose is the bound in practice?).
//! * Theorem 3: Top-Down's actual sub-optimality vs. its per-query bound.
//!
//! The paper proves the bounds; this bench measures how much head-room they
//! leave on the evaluation topology, which justifies using Top-Down even
//! when the worst case looks scary.

use criterion::{criterion_group, criterion_main, Criterion};
use dsq_bench::{paper_env, paper_workload, Table};
use dsq_core::{bounds, Optimal, Optimizer, SearchStats, TopDown};
use dsq_query::ReuseRegistry;

fn bench(c: &mut Criterion) {
    let env = paper_env(8, 1);
    let h = &env.hierarchy;

    // Theorem 1: measured max/mean estimate error per level vs slack.
    let nodes = h.active_nodes();
    let mut x = Vec::new();
    let (mut slack_s, mut max_err_s, mut mean_err_s) = (vec![], vec![], vec![]);
    for level in 1..=h.height() {
        let slack = h.theorem1_slack(level);
        let mut max_err = 0.0f64;
        let mut sum_err = 0.0;
        let mut count = 0usize;
        for (i, &a) in nodes.iter().enumerate().step_by(3) {
            for &b in nodes.iter().skip(i + 1).step_by(3) {
                let err = (env.dm.get(a, b) - h.estimated_cost(&env.dm, a, b, level)).abs();
                max_err = max_err.max(err);
                sum_err += err;
                count += 1;
            }
        }
        assert!(max_err <= slack + 1e-9, "Theorem 1 violated");
        x.push(level as f64);
        slack_s.push(slack);
        max_err_s.push(max_err);
        mean_err_s.push(sum_err / count as f64);
        println!(
            "level {level}: slack {slack:>8.1}, measured max error {max_err:>8.1}, mean {:>8.2}",
            sum_err / count as f64
        );
    }
    Table {
        name: "ablation_bounds_thm1",
        caption: "Theorem 1 slack vs measured estimate error by level (max_cs = 8)",
        x_label: "level",
        x,
        series: vec![
            ("slack".into(), slack_s),
            ("max_error".into(), max_err_s),
            ("mean_error".into(), mean_err_s),
        ],
    }
    .emit();

    // Theorem 3: per-query Top-Down gap vs bound.
    let wl = paper_workload(&env, 42, None);
    let mut gaps = Vec::new();
    let mut bounds_v = Vec::new();
    for q in &wl.queries {
        let r1 = ReuseRegistry::new();
        let r2 = ReuseRegistry::new();
        let mut s = SearchStats::new();
        let td = TopDown::new(&env)
            .optimize(&wl.catalog, q, &r1, &mut s)
            .unwrap();
        let opt = Optimal::new(&env)
            .optimize(&wl.catalog, q, &r2, &mut s)
            .unwrap();
        let gap = td.cost - opt.cost;
        let bound = bounds::theorem3_bound(&td, &env.hierarchy);
        assert!(
            gap <= bound + 1e-6,
            "Theorem 3 violated: gap {gap} bound {bound}"
        );
        gaps.push(gap);
        bounds_v.push(bound);
    }
    let tightness: f64 = gaps
        .iter()
        .zip(&bounds_v)
        .map(|(g, b)| if *b > 0.0 { g / b } else { 0.0 })
        .sum::<f64>()
        / gaps.len() as f64;
    println!(
        "\nTheorem 3: mean measured-gap / bound = {:.3} (bound holds on all {} queries; \
         small ratio = bound is conservative, as expected of a worst case)",
        tightness,
        gaps.len()
    );
    Table {
        name: "ablation_bounds_thm3",
        caption: "Theorem 3 bound vs measured top-down gap per query (max_cs = 8)",
        x_label: "query",
        x: (1..=gaps.len()).map(|i| i as f64).collect(),
        series: vec![("gap".into(), gaps), ("bound".into(), bounds_v)],
    }
    .emit();

    // Criterion: bound computations are cheap (they run inside planners).
    let wl2 = paper_workload(&env, 43, None);
    let q = &wl2.queries[0];
    let r = ReuseRegistry::new();
    let mut s = SearchStats::new();
    let d = TopDown::new(&env)
        .optimize(&wl2.catalog, q, &r, &mut s)
        .unwrap();
    c.bench_function("ablation_bounds_theorem3_eval", |b| {
        b.iter(|| bounds::theorem3_bound(&d, &env.hierarchy))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
