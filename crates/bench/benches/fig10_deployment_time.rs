//! Figure 10 — "Query deployment time" (Emulab prototype, Section 3.5.1):
//! average deployment time vs. query size (number of streams) for Bottom-Up
//! and Top-Down at cluster sizes 4 and 8, on the 32-node testbed (25
//! queries over 8 streams, 1–4 joins, 1–6 ms link delays).
//!
//! Expected shape (paper): Bottom-Up ≈ 70% faster than Top-Down (smaller
//! per-level searches, and it stops climbing once all sources are covered);
//! Top-Down gets *faster* with larger max_cs (fewer levels to traverse).

use criterion::{criterion_group, criterion_main, Criterion};
use dsq_bench::Table;
use dsq_core::{BottomUp, BottomUpPlacement, Environment, Optimizer, SearchStats, TopDown};
use dsq_net::TransitStubConfig;
use dsq_query::ReuseRegistry;
use dsq_sim::EmulabModel;
use dsq_workload::{WorkloadConfig, WorkloadGenerator};

struct Cell {
    total_ms: f64,
    count: usize,
}

fn bench(c: &mut Criterion) {
    let net = TransitStubConfig::emulab_32().generate(4).network;
    let model = EmulabModel::new(&net);
    let sizes = [4usize, 8];
    let envs: Vec<Environment> = sizes
        .iter()
        .map(|&cs| Environment::build(net.clone(), cs))
        .collect();
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 8,
            queries: 25,
            joins_per_query: 1..=4,
            ..WorkloadConfig::default()
        },
        12,
    )
    .generate(&net);

    // rows: query size 2..=5 streams; series: {bu, td} × {4, 8}.
    let query_sizes: Vec<usize> = (2..=5).collect();
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    let mut totals = Vec::new();
    for (ei, &cs) in sizes.iter().enumerate() {
        for (label, variant) in [
            ("bottom-up", 0usize),
            ("bottom-up/members", 1),
            ("top-down", 2),
        ] {
            let mut cells: Vec<Cell> = (0..8)
                .map(|_| Cell {
                    total_ms: 0.0,
                    count: 0,
                })
                .collect();
            let reg = ReuseRegistry::new();
            let mut grand = 0.0;
            for q in &wl.queries {
                let mut stats = SearchStats::new();
                let d = match variant {
                    0 => BottomUp::new(&envs[ei]).optimize(&wl.catalog, q, &reg, &mut stats),
                    1 => BottomUp::with_placement(&envs[ei], BottomUpPlacement::MembersOnly)
                        .optimize(&wl.catalog, q, &reg, &mut stats),
                    _ => TopDown::new(&envs[ei]).optimize(&wl.catalog, q, &reg, &mut stats),
                }
                .expect("deployable");
                let t = model.deployment_time(q.sink, &stats, &d).total_ms();
                let k = q.sources.len();
                cells[k].total_ms += t;
                cells[k].count += 1;
                grand += t;
            }
            let ys: Vec<f64> = query_sizes
                .iter()
                .map(|&k| {
                    if cells[k].count > 0 {
                        cells[k].total_ms / cells[k].count as f64 / 1000.0 // seconds
                    } else {
                        f64::NAN
                    }
                })
                .collect();
            series.push((format!("{label} (cs={cs})"), ys));
            totals.push((format!("{label} (cs={cs})"), grand));
        }
    }

    let total = |n: &str| totals.iter().find(|(a, _)| a == n).unwrap().1;
    println!(
        "\nfig10 headlines: bottom-up total deploy time is {:.0}% below top-down at cs=4 \
         ({:.0}% for the members-only placement reading; paper: ~70%); \
         top-down cs=8 is {:.0}% faster than cs=4 (paper: faster with larger max_cs)",
        (1.0 - total("bottom-up (cs=4)") / total("top-down (cs=4)")) * 100.0,
        (1.0 - total("bottom-up/members (cs=4)") / total("top-down (cs=4)")) * 100.0,
        (1.0 - total("top-down (cs=8)") / total("top-down (cs=4)")) * 100.0,
    );

    Table {
        name: "fig10",
        caption: "average deployment time (s) vs query size (streams), Emulab model",
        x_label: "query size",
        x: query_sizes.iter().map(|&k| k as f64).collect(),
        series,
    }
    .emit();

    // Criterion: actual wall-clock optimization latency on this testbed,
    // the computational part of deployment time.
    let q = wl.queries.iter().find(|q| q.sources.len() == 4).unwrap();
    let mut group = c.benchmark_group("fig10_wallclock");
    group.sample_size(20);
    for (ei, &cs) in sizes.iter().enumerate() {
        group.bench_function(format!("top-down cs={cs}"), |b| {
            b.iter(|| {
                let reg = ReuseRegistry::new();
                let mut stats = SearchStats::new();
                TopDown::new(&envs[ei])
                    .optimize(&wl.catalog, q, &reg, &mut stats)
                    .unwrap()
                    .cost
            })
        });
        group.bench_function(format!("bottom-up cs={cs}"), |b| {
            b.iter(|| {
                let reg = ReuseRegistry::new();
                let mut stats = SearchStats::new();
                BottomUp::new(&envs[ei])
                    .optimize(&wl.catalog, q, &reg, &mut stats)
                    .unwrap()
                    .cost
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
