//! Ablation — reuse matching rule: exact selection-signature matching vs.
//! predicate-subsumption matching (the rule of Section 1.1's "reuse may
//! require additional columns to be projected", generalized to residual
//! predicates).
//!
//! On a workload where queries filter their sources by timestamp windows
//! drawn from a shared set, the subsumption matcher can reuse an operator
//! whose filter is *weaker* than the consumer's (applying the residual on
//! top), so it finds strictly more candidates and cheaper batches.

use criterion::{criterion_group, criterion_main, Criterion};
use dsq_bench::{paper_env, Table};
use dsq_core::{Optimal, Optimizer, SearchStats};
use dsq_query::{Deployment, LeafSource, Query, ReuseRegistry};
use dsq_workload::{WorkloadConfig, WorkloadGenerator};

/// Deploy queries incrementally, matching deriveds with either rule.
fn run(
    env: &dsq_core::Environment,
    catalog: &dsq_query::Catalog,
    queries: &[Query],
    exact_only: bool,
) -> (f64, usize) {
    let mut registry = ReuseRegistry::new();
    let mut total = 0.0;
    let mut candidates_seen = 0usize;
    for q in queries {
        // Pre-flight: count what each rule would offer.
        let offers: Vec<LeafSource> = if exact_only {
            registry.usable_for_exact(q)
        } else {
            registry.usable_for(q)
        };
        candidates_seen += offers.len();
        // For exact-only mode, strip the subsumption-only candidates by
        // running the optimizer against a registry filtered to the exact
        // matches: easiest faithful emulation is a throwaway registry
        // seeded with just those derived streams.
        let d: Deployment = if exact_only {
            let mut filtered = ReuseRegistry::new();
            for leaf in &offers {
                if let LeafSource::Derived {
                    covered,
                    rate,
                    host,
                    ..
                } = leaf
                {
                    filtered.advertise(covered.clone(), restrict(q, covered), *rate, *host, q.id);
                }
            }
            let mut stats = SearchStats::new();
            Optimal::new(env)
                .optimize(catalog, q, &filtered, &mut stats)
                .unwrap()
        } else {
            let mut stats = SearchStats::new();
            Optimal::new(env)
                .optimize(catalog, q, &registry, &mut stats)
                .unwrap()
        };
        total += d.cost;
        registry.register_deployment(q, &d);
    }
    (total, candidates_seen)
}

fn restrict(q: &Query, covered: &dsq_query::StreamSet) -> Vec<dsq_query::SelectionPredicate> {
    q.selections
        .iter()
        .filter(|s| covered.contains(s.stream))
        .cloned()
        .collect()
}

fn bench(c: &mut Criterion) {
    let env = paper_env(32, 1);
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 40,
            queries: 25,
            joins_per_query: 2..=4,
            source_skew: Some(1.0),
            selection_prob: 0.6,
            ..WorkloadConfig::default()
        },
        21,
    )
    .generate(&env.network);

    let (cost_subs, cand_subs) = run(&env, &wl.catalog, &wl.queries, false);
    let (cost_exact, cand_exact) = run(&env, &wl.catalog, &wl.queries, true);
    println!("\nablation_reuse_matching:");
    println!("  subsumption matching: batch cost {cost_subs:.1}, {cand_subs} candidates offered");
    println!("  exact-only matching:  batch cost {cost_exact:.1}, {cand_exact} candidates offered");
    println!(
        "  subsumption offers {:+} more candidates and changes cost by {:+.2}%",
        cand_subs as i64 - cand_exact as i64,
        (cost_subs / cost_exact - 1.0) * 100.0
    );
    assert!(
        cand_subs >= cand_exact,
        "subsumption candidates are a superset"
    );

    Table {
        name: "ablation_reuse_matching",
        caption: "reuse matching rule (rows: subsumption, exact-only)",
        x_label: "rule_idx",
        x: vec![0.0, 1.0],
        series: vec![
            ("batch_cost".into(), vec![cost_subs, cost_exact]),
            (
                "candidates".into(),
                vec![cand_subs as f64, cand_exact as f64],
            ),
        ],
    }
    .emit();

    let mut group = c.benchmark_group("ablation_reuse_matching");
    group.sample_size(10);
    group.bench_function("subsumption", |b| {
        b.iter(|| run(&env, &wl.catalog, &wl.queries, false).0)
    });
    group.bench_function("exact-only", |b| {
        b.iter(|| run(&env, &wl.catalog, &wl.queries, true).0)
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
