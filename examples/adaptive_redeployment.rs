//! Runtime adaptivity: congestion hits the deployed queries' hot links and
//! the planning service re-triggers optimization (the IFLOW loop of
//! Figure 1(b)).
//!
//! ```text
//! cargo run --release --example adaptive_redeployment
//! ```

use dsq::prelude::*;
use dsq::server::chaos::install;
use dsq::server::{FaultReq, JournalEntry, ServiceConfig, ServiceCore};

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

    // Register everything with the service; its first drain plans it all
    // with Top-Down.
    let mut core = ServiceCore::over(ServiceConfig::default(), env, wl.catalog.clone());
    let installed = install(&mut core, &wl.queries);
    println!(
        "installed {} queries, standing cost {:.1}",
        installed.planned, installed.total_cost
    );

    // Congest the two hottest links by 25x.
    let standing: Vec<Deployment> = core
        .slots
        .values()
        .filter_map(|s| s.deployment.clone())
        .collect();
    let flow = FlowSimulator::new(&core.env.network);
    let refs: Vec<&Deployment> = standing.iter().collect();
    let hot = flow.evaluate(&refs).hottest_links(2);
    let faults: Vec<JournalEntry> = hot
        .iter()
        .map(|&((a, b), rate)| {
            let old = core.env.network.find_link(a, b).unwrap().cost;
            println!(
                "congesting {a} <-> {b} (carrying {rate:.1}): cost {old:.1} -> {:.1}",
                old * 25.0
            );
            JournalEntry::Fault {
                fault: FaultReq::Degrade {
                    a: a.0,
                    b: b.0,
                    factor_milli: 25_000,
                },
                at_ms: 10,
            }
        })
        .collect();

    // The next drain re-costs everything and re-plans the degraded queries,
    // adopting a replacement only when it is cheaper.
    let summary = core.drain(&faults, 20);
    let congested: f64 = standing
        .into_iter()
        .map(|mut d| {
            d.recompute_cost(&core.env.dm);
            d.cost
        })
        .sum();
    println!("\nafter congestion: standing cost ballooned to {congested:.1}");
    let migrated: Vec<u32> = summary.adopted.iter().map(|(id, _)| *id).collect();
    println!(
        "the service replanned {} queries and migrated {}: {:?}",
        summary.replanned,
        migrated.len(),
        migrated
    );
    println!(
        "standing cost after migration: {:.1} ({:.1}% of the congested cost)",
        summary.total_cost,
        summary.total_cost / congested * 100.0
    );
}
