//! Ablation — Bottom-Up placement candidates: cluster members only (the
//! paper-faithful reading of "an exhaustive search, only within its
//! underlying cluster", whose per-level placement space Theorem 4 caps at
//! `max_cs^(α−1)`) vs. members **plus the inputs' advertised host nodes**
//! (in-network co-location).
//!
//! Members-only Bottom-Up pays full stream rate to drag every base stream
//! to a coordinator machine; co-location removes that leg and recovers most
//! of the gap to Top-Down, isolating how much of Bottom-Up's sub-optimality
//! is *placement* vs. its local-first join *order*.

use criterion::{criterion_group, criterion_main, Criterion};
use dsq_bench::{paper_env, paper_workload, workload_repeats, Table};
use dsq_core::{BottomUp, BottomUpPlacement, Optimal, Optimizer, SearchStats, TopDown};
use dsq_query::ReuseRegistry;

fn bench(c: &mut Criterion) {
    let env = paper_env(32, 1);
    let (mut bud, mut bum, mut buc, mut td, mut opt) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    for w in 0..workload_repeats() {
        let wl = paper_workload(&env, 800 + w as u64, None);
        for q in &wl.queries {
            let mut s = SearchStats::new();
            bud += BottomUp::with_placement(&env, BottomUpPlacement::Descend)
                .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut s)
                .unwrap()
                .cost;
            bum += BottomUp::with_placement(&env, BottomUpPlacement::MembersOnly)
                .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut s)
                .unwrap()
                .cost;
            buc += BottomUp::with_input_colocation(&env)
                .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut s)
                .unwrap()
                .cost;
            td += TopDown::new(&env)
                .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut s)
                .unwrap()
                .cost;
            opt += Optimal::new(&env)
                .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut s)
                .unwrap()
                .cost;
        }
    }
    println!("\nablation_colocation (sub-optimality vs exact optimum):");
    println!(
        "  bottom-up descend (default): {:+.1}%",
        (bud / opt - 1.0) * 100.0
    );
    println!(
        "  bottom-up members-only:      {:+.1}%",
        (bum / opt - 1.0) * 100.0
    );
    println!(
        "  bottom-up + co-location:     {:+.1}%",
        (buc / opt - 1.0) * 100.0
    );
    println!(
        "  top-down (for reference):    {:+.1}%",
        (td / opt - 1.0) * 100.0
    );
    println!(
        "  co-location closes {:.0}% of the members-only gap to optimal",
        (bum - buc) / (bum - opt) * 100.0
    );
    assert!(
        buc <= bum + 1e-6,
        "a superset of candidates cannot cost more"
    );
    assert!(
        bud <= bum * 1.05,
        "descending placement should not lose to members-only in aggregate"
    );

    Table {
        name: "ablation_colocation",
        caption: "Bottom-Up placement-mode ablation (total batch cost: descend, members-only, co-location, top-down, optimal)",
        x_label: "variant_idx",
        x: vec![0.0, 1.0, 2.0, 3.0, 4.0],
        series: vec![(
            "total_cost".into(),
            vec![bud, bum, buc, td, opt],
        )],
    }
    .emit();

    // Criterion: per-query latency of the two Bottom-Up variants.
    let wl = paper_workload(&env, 900, None);
    let q = &wl.queries[0];
    let mut group = c.benchmark_group("ablation_colocation");
    group.bench_function("members-only", |b| {
        b.iter(|| {
            let mut s = SearchStats::new();
            BottomUp::new(&env)
                .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut s)
                .unwrap()
                .cost
        })
    });
    group.bench_function("with-colocation", |b| {
        b.iter(|| {
            let mut s = SearchStats::new();
            BottomUp::with_input_colocation(&env)
                .optimize(&wl.catalog, q, &ReuseRegistry::new(), &mut s)
                .unwrap()
                .cost
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
