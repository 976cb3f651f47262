//! Ablation — fault dose × retry policy for the chaos harness:
//!
//! * availability and MTTR as the fault dose grows (10 → 60 injected
//!   events over the same mean pacing, i.e. an ever-longer exposure);
//! * the same sweep under three deployment protocols: reliable (no loss),
//!   lossy 10% and lossy 30% message drop with exponential-backoff retry.
//!
//! The interesting read-out: availability is governed almost entirely by
//! the fault rate (lost sources cannot be replanned around), while MTTR
//! and protocol overhead are governed by the drop probability — losses
//! slow recovery down but rarely prevent it while the retry cap holds.

use criterion::{criterion_group, criterion_main, Criterion};
use dsq_bench::{small_env, Table};
use dsq_server::chaos::{FaultConfig, FaultSchedule};
use dsq_server::ChaosRunner;
use dsq_sim::emulab::RetryPolicy;
use dsq_workload::{WorkloadConfig, WorkloadGenerator};

fn bench(c: &mut Criterion) {
    let env = small_env(16, 1);
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 12,
            queries: 8,
            joins_per_query: 2..=3,
            ..WorkloadConfig::default()
        },
        5,
    )
    .generate(&env.network);

    let doses = [10usize, 25, 40, 60];
    let policies: [(&str, RetryPolicy); 3] = [
        ("reliable", RetryPolicy::reliable()),
        ("lossy-10", RetryPolicy::lossy(0.1)),
        ("lossy-30", RetryPolicy::lossy(0.3)),
    ];

    let mut x = Vec::new();
    let mut availability: Vec<(String, Vec<f64>)> = policies
        .iter()
        .map(|(name, _)| (format!("avail_{name}"), Vec::new()))
        .collect();
    let mut mttr: Vec<(String, Vec<f64>)> = policies
        .iter()
        .map(|(name, _)| (format!("mttr_{name}"), Vec::new()))
        .collect();

    for &dose in &doses {
        x.push(dose as f64);
        let cfg = FaultConfig {
            events: dose,
            mean_gap_ms: 2_500.0,
            ..FaultConfig::default()
        };
        let schedule = FaultSchedule::generate(&env, &cfg, 21);
        for (i, (name, policy)) in policies.iter().enumerate() {
            let runner = ChaosRunner {
                policy: *policy,
                protocol_seed: 9,
                ..ChaosRunner::default()
            };
            let r = runner.run(env.clone(), &wl.catalog, &wl.queries, &schedule);
            availability[i].1.push(r.availability);
            mttr[i].1.push(r.mttr_ms);
            println!(
                "{dose:>3} events, {name:<9}: availability {:.4}, MTTR {:>7.1} ms, \
                 {} redeploys, {} instantiation failures, {:.0} ms in timeouts",
                r.availability,
                r.mttr_ms,
                r.redeployments,
                r.instantiation_failures,
                r.protocol_retry_ms
            );
        }
    }

    Table {
        name: "ablation_chaos_availability",
        caption: "Availability vs fault dose under three retry policies (64 nodes, 8 queries)",
        x_label: "events",
        x: x.clone(),
        series: availability,
    }
    .emit();
    Table {
        name: "ablation_chaos_mttr",
        caption: "Mean time to repair vs fault dose under three retry policies",
        x_label: "events",
        x,
        series: mttr,
    }
    .emit();

    // Criterion: one mid-intensity lossy cell, end to end.
    let cfg = FaultConfig {
        events: 20,
        mean_gap_ms: 2_500.0,
        ..FaultConfig::default()
    };
    let schedule = FaultSchedule::generate(&env, &cfg, 33);
    let runner = ChaosRunner {
        policy: RetryPolicy::lossy(0.1),
        protocol_seed: 3,
        ..ChaosRunner::default()
    };
    c.bench_function("ablation_chaos_run_20_events", |b| {
        b.iter(|| runner.run(env.clone(), &wl.catalog, &wl.queries, &schedule))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
