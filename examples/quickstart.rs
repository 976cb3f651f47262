//! Quickstart: build a network, register a query, optimize it three ways.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dsq::prelude::*;
use dsq_core::Optimal;

fn main() {
    // 1. A ~64-node GT-ITM style transit-stub network (the paper's
    //    Figure 2 setting) and an optimization environment with a
    //    max_cs = 16 clustering hierarchy.
    let ts = TransitStubConfig::paper_64().generate(42);
    let env = Environment::build(ts.network.clone(), 16);
    println!(
        "network: {} nodes, {} links, hierarchy height {}",
        env.network.len(),
        env.network.link_count(),
        env.hierarchy.height()
    );

    // 2. A random workload: 10 streams and one 4-way join query.
    let mut gen = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 10,
            queries: 1,
            joins_per_query: 3..=3,
            ..WorkloadConfig::default()
        },
        7,
    );
    let wl = gen.generate(&env.network);
    let query = &wl.queries[0];
    println!(
        "query {}: join of {:?}, sink {}",
        query.id, query.sources, query.sink
    );

    // 3. Optimize jointly with Top-Down, Bottom-Up and the exact DP.
    for (name, deployment) in [
        ("top-down", run(&TopDown::new(&env), &wl)),
        ("bottom-up", run(&BottomUp::new(&env), &wl)),
        ("optimal", run(&Optimal::new(&env), &wl)),
    ] {
        println!("\n--- {name} ---");
        print!("{}", deployment.describe(&wl.catalog));
    }
}

fn run(optimizer: &dyn dsq_core::Optimizer, wl: &Workload) -> Deployment {
    let registry = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    let d = optimizer
        .optimize(&wl.catalog, &wl.queries[0], &registry, &mut stats)
        .expect("the query is deployable");
    println!(
        "[{}] plans considered: {}, cost: {:.2}",
        optimizer.name(),
        stats.plans_considered,
        d.cost
    );
    d
}
