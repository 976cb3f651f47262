//! Runtime adaptivity: congestion hits the deployed queries' hot links and
//! the middleware re-triggers optimization (the IFLOW loop of Figure 1(b)).
//!
//! ```text
//! cargo run --release --example adaptive_redeployment
//! ```

use dsq::prelude::*;
use dsq_core::{Optimal, Optimizer};
use dsq_sim::{AdaptiveRuntime, LinkChange};

fn main() {
    let ts = TransitStubConfig::paper_64().generate(99);
    let env = Environment::build(ts.network.clone(), 16);
    let mut gen = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 30,
            queries: 10,
            joins_per_query: 2..=4,
            ..WorkloadConfig::default()
        },
        3,
    );
    let wl = gen.generate(&env.network);

    // Deploy everything with Top-Down and install into the runtime.
    let mut runtime = AdaptiveRuntime::new(env, 0.2);
    let mut registry = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    for q in &wl.queries {
        let d = TopDown::new(&runtime.env)
            .optimize(&wl.catalog, q, &registry, &mut stats)
            .expect("deployable");
        registry.register_deployment(q, &d);
        runtime.install(q.clone(), d);
    }
    println!(
        "installed {} queries, standing cost {:.1}",
        runtime.deployments().len(),
        runtime.total_cost()
    );

    // Congest the two hottest links by 25x.
    let flow = FlowSimulator::new(&runtime.env.network);
    let refs: Vec<&Deployment> = runtime.deployments().iter().collect();
    let hot = flow.evaluate(&refs).hottest_links(2);
    let changes: Vec<LinkChange> = hot
        .iter()
        .map(|&((a, b), rate)| {
            let old = runtime.env.network.find_link(a, b).unwrap().cost;
            println!(
                "congesting {a} <-> {b} (carrying {rate:.1}): cost {old:.1} -> {:.1}",
                old * 25.0
            );
            LinkChange {
                a,
                b,
                new_cost: old * 25.0,
            }
        })
        .collect();

    // The middleware re-costs everything and re-plans the degraded queries.
    let report = runtime.handle_changes(&changes, |env, q| {
        let reg = ReuseRegistry::new();
        let mut st = SearchStats::new();
        Optimal::new(env).optimize(&wl.catalog, q, &reg, &mut st)
    });
    println!(
        "\nafter congestion: standing cost ballooned to {:.1}",
        report.cost_before
    );
    println!(
        "middleware migrated {} queries: {:?}",
        report.migrated.len(),
        report.migrated
    );
    println!(
        "standing cost after migration: {:.1} ({:.1}% of the congested cost)",
        report.cost_after,
        report.cost_after / report.cost_before * 100.0
    );
}
