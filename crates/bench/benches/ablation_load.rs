//! Ablation — the load model's communication/processing trade-off: as the
//! overload price rises, the optimizer spreads operators across more nodes,
//! paying more transport to buy less overload. Quantifies the Pareto front
//! the paper's "node N2 may be overloaded" example gestures at.

use criterion::{criterion_group, criterion_main, Criterion};
use dsq_bench::{paper_env, paper_workload, Table};
use dsq_core::{LoadModel, Optimal, Optimizer, SearchStats};
use dsq_query::ReuseRegistry;
use std::collections::HashMap;

fn run_with_penalty(penalty: f64) -> (f64, f64, usize) {
    let mut env = paper_env(32, 1);
    let wl = paper_workload(&env, 600, None);
    // Capacity ≈ one operator's input volume, so stacking is punished.
    env.enable_load_model(LoadModel::uniform(env.network.len(), 150.0, penalty));
    let registry = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    let mut comm = 0.0;
    let mut spread: HashMap<dsq_net::NodeId, usize> = HashMap::new();
    for q in &wl.queries {
        let d = Optimal::new(&env)
            .optimize(&wl.catalog, q, &registry, &mut stats)
            .unwrap();
        env.commit_load(&d);
        comm += d.cost;
        for n in d.operator_nodes() {
            *spread.entry(n).or_insert(0) += 1;
        }
    }
    let overload = env.load_snapshot().unwrap().overload_units();
    (comm, overload, spread.len())
}

fn bench(c: &mut Criterion) {
    let penalties = [0.0f64, 0.5, 2.0, 10.0];
    let mut comm_s = Vec::new();
    let mut over_s = Vec::new();
    let mut nodes_s = Vec::new();
    println!("\nablation_load (capacity 150/node, 20-query batch):");
    println!(
        "{:>10} {:>14} {:>16} {:>14}",
        "penalty", "comm cost", "overload units", "nodes used"
    );
    for &p in &penalties {
        let (comm, overload_units, nodes) = run_with_penalty(p);
        println!("{p:>10.1} {comm:>14.1} {overload_units:>16.1} {nodes:>14}");
        comm_s.push(comm);
        over_s.push(overload_units);
        nodes_s.push(nodes as f64);
    }
    // The trade-off must actually trade: communication cost is weakly
    // increasing and overload weakly decreasing in the penalty.
    assert!(
        comm_s.windows(2).all(|w| w[1] >= w[0] - 1e-6),
        "transport should rise with the overload price: {comm_s:?}"
    );
    assert!(
        over_s.first() >= over_s.last(),
        "overload should fall with the price: {over_s:?}"
    );
    Table {
        name: "ablation_load",
        caption: "load-model trade-off: overload price vs transport cost / overload / spread",
        x_label: "penalty",
        x: penalties.to_vec(),
        series: vec![
            ("comm_cost".into(), comm_s),
            ("overload_units".into(), over_s),
            ("nodes_used".into(), nodes_s),
        ],
    }
    .emit();

    let mut group = c.benchmark_group("ablation_load");
    group.sample_size(10);
    group.bench_function("penalty=0", |b| b.iter(|| run_with_penalty(0.0).0));
    group.bench_function("penalty=10", |b| b.iter(|| run_with_penalty(10.0).0));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
