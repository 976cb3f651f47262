//! The paper's motivating scenario (Section 1.1): Delta's Operational
//! Information System over the example network of Figure 3.
//!
//! Q2 (FLIGHTS ⋈ CHECK-INS for Atlanta departures) is deployed first; Q1
//! additionally joins WEATHER. A joint planner that knows about Q2's
//! deployed operator picks the (FLIGHTS ⋈ CHECK-INS) ⋈ WEATHER ordering so
//! it can reuse it — even though the network-oblivious rate-optimal
//! ordering may differ — and the comparison below quantifies the savings.
//!
//! ```text
//! cargo run --example airline_ois
//! ```

use dsq::prelude::*;
use dsq_core::{Optimal, Optimizer};
use dsq_workload::airline_scenario;

fn main() {
    let scenario = airline_scenario();
    let env = Environment::build(scenario.network.clone(), 4);
    let catalog = &scenario.catalog;
    let (q2, q1) = (&scenario.queries[0], &scenario.queries[1]);

    println!("== The airline OIS network ==");
    println!(
        "{} nodes, {} links; hierarchy height {}",
        env.network.len(),
        env.network.link_count(),
        env.hierarchy.height()
    );

    // Deploy Q2 first and advertise its operators.
    let mut registry = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    let optimizer = TopDown::new(&env);
    let d2 = optimizer
        .optimize(catalog, q2, &registry, &mut stats)
        .expect("Q2 deploys");
    println!("\n== Q2: FLIGHTS ⋈ CHECK-INS -> Sink3 ==");
    print!("{}", d2.describe(catalog));
    let published = registry.register_deployment(q2, &d2);
    println!(
        "advertised {} derived stream(s): {:?}",
        published.len(),
        published
    );

    // Q1 with reuse: the planner can tap Q2's join.
    let d1_reuse = optimizer
        .optimize(catalog, q1, &registry, &mut stats)
        .expect("Q1 deploys");
    println!("\n== Q1 (with reuse of Q2's operator) ==");
    print!("{}", d1_reuse.describe(catalog));

    // Q1 without reuse: plan from base streams only.
    let empty = ReuseRegistry::new();
    let d1_fresh = optimizer
        .optimize(catalog, q1, &empty, &mut stats)
        .expect("Q1 deploys");
    println!("\n== Q1 (from scratch, no reuse) ==");
    print!("{}", d1_fresh.describe(catalog));

    println!(
        "\nreuse saves {:.1}% of Q1's cost ({:.2} -> {:.2})",
        (1.0 - d1_reuse.cost / d1_fresh.cost) * 100.0,
        d1_fresh.cost,
        d1_reuse.cost
    );

    // Sanity: the joint optimum agrees that reuse is the right call here.
    let mut reg2 = ReuseRegistry::new();
    reg2.register_deployment(q2, &d2);
    let opt = Optimal::new(&env)
        .optimize(catalog, q1, &reg2, &mut stats)
        .unwrap();
    println!(
        "optimal Q1 (reuse allowed) costs {:.2}; top-down is within {:.1}%",
        opt.cost,
        (d1_reuse.cost / opt.cost - 1.0) * 100.0
    );
}
