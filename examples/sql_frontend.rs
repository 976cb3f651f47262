//! Registering continuous queries in SQL, the way the paper writes them
//! (Section 1.1), and watching the joint optimizer handle them.
//!
//! ```text
//! cargo run --example sql_frontend
//! ```

use dsq::prelude::*;
use dsq_query::QueryId;
use dsq_workload::airline_scenario;

fn main() {
    // The airline catalog gives us named streams with schemas.
    let scenario = airline_scenario();
    let env = Environment::build(scenario.network.clone(), 4);
    let catalog = &scenario.catalog;
    let hints = SelectivityHints::default()
        .with("DEPARTING", 0.2)
        .with("DP-TIME", 0.5);

    let q2_sql = "SELECT FLIGHTS.STATUS, CHECK-INS.STATUS \
                  FROM FLIGHTS, CHECK-INS \
                  WHERE FLIGHTS.DEPARTING = 'ATLANTA' \
                    AND FLIGHTS.NUM = CHECK-INS.FLNUM \
                    AND FLIGHTS.DP-TIME < 12";
    let q1_sql = "SELECT FLIGHTS.STATUS, WEATHER.FORECAST, CHECK-INS.STATUS \
                  FROM FLIGHTS, WEATHER, CHECK-INS \
                  WHERE FLIGHTS.DEPARTING = 'ATLANTA' \
                    AND FLIGHTS.DESTN = WEATHER.CITY \
                    AND FLIGHTS.NUM = CHECK-INS.FLNUM \
                    AND FLIGHTS.DP-TIME < 12";

    let q2 =
        parse_query(q2_sql, catalog, QueryId(0), scenario.nodes.sink3, &hints).expect("Q2 parses");
    let q1 =
        parse_query(q1_sql, catalog, QueryId(1), scenario.nodes.sink4, &hints).expect("Q1 parses");
    println!(
        "parsed Q2: {} sources, {} selections, {} join predicates",
        q2.sources.len(),
        q2.selections.len(),
        q2.join_predicates.len()
    );
    println!(
        "parsed Q1: {} sources, {} selections, {} join predicates",
        q1.sources.len(),
        q1.selections.len(),
        q1.join_predicates.len()
    );

    let mut registry = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    let optimizer = TopDown::new(&env);

    let d2 = optimizer
        .optimize(catalog, &q2, &registry, &mut stats)
        .expect("Q2 deploys");
    registry.register_deployment(&q2, &d2);
    println!("\nQ2 deployed:\n{}", d2.describe(catalog));

    let d1 = optimizer
        .optimize(catalog, &q1, &registry, &mut stats)
        .expect("Q1 deploys");
    println!(
        "Q1 deployed (reusing Q2 where profitable):\n{}",
        d1.describe(catalog)
    );
    println!(
        "search examined {} plan/deployment combinations across both queries",
        stats.plans_considered
    );
}
