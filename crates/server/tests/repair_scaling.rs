//! A link repricing costs what it touched — not the matrix.
//!
//! Checked on a count, not a clock: the repair reports how many nodes its
//! restricted Dijkstra runs settled (`net.repair.nodes_settled`, an
//! obs-only counter), which a given topology and link fix exactly.

use dsq_net::{LinkKind, NodeId};
use dsq_obs::{scoped, ClockMode, Sink};
use dsq_server::{FaultReq, JournalEntry, ServiceConfig, ServiceCore};

#[test]
fn one_gateway_degrade_settles_a_sliver_of_the_matrix() {
    // The performance ledger's `churn` topology: 32 transit nodes, 128 stub
    // domains of 8, each behind one gateway link.
    let mut core = ServiceCore::new(ServiceConfig {
        transit_domains: 4,
        transit_nodes_per_domain: 8,
        stub_domains_per_transit_node: 4,
        stub_nodes_per_domain: 8,
        ..ServiceConfig::default()
    });
    let net = &core.env.network;
    let n = net.len();
    assert_eq!(n, 1056);
    let (a, b) = (0..n as u32)
        .flat_map(|u| net.neighbors(NodeId(u)).iter().map(move |l| (u, l)))
        .find(|(_, l)| l.kind == LinkKind::Gateway)
        .map(|(u, l)| (u, l.to.0))
        .expect("a transit-stub topology has gateway links");
    let fault = JournalEntry::Fault {
        fault: FaultReq::Degrade {
            a,
            b,
            factor_milli: 4000,
        },
        at_ms: 10,
    };
    let sink = Sink::new(ClockMode::Virtual);
    {
        let _g = scoped(sink.clone());
        core.drain(std::slice::from_ref(&fault), 10);
    }
    let counters = sink.snapshot().counters;

    let settled = counters["net.repair.nodes_settled"] as usize;
    assert!(
        settled < n * n / 16,
        "one gateway degrade settled {settled} of {} entries",
        n * n
    );
    // Every source outside the stub domain re-derives the domain's 8 nodes;
    // the domain's own 8 sources re-derive everything beyond the gateway.
    assert_eq!(settled, 2 * 8 * (n - 8), "topology and link fix the count");
    // The service-level counters keep their meaning: rows the link was
    // tight from, and full rebuilds paid.
    assert_eq!(counters["server.degrade_rows_repaired"], n as u64);
    assert_eq!(counters.get("server.degrade_rebuilds"), None);
}
