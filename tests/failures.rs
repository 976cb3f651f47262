//! End-to-end node-failure recovery through the planning service's core:
//! coordinator failover, operator redeployment, and loss reporting for
//! unrecoverable queries.

use dsq::prelude::*;
use dsq::query::QueryId;
use dsq::server::chaos::install;
use dsq::server::{DrainSummary, FaultReq, JournalEntry, ServiceConfig, ServiceCore, SlotStatus};

fn service() -> (ServiceCore, Workload) {
    let net = TransitStubConfig::paper_64().generate(27).network;
    let env = Environment::build(net, 8);
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 15,
            queries: 10,
            joins_per_query: 2..=3,
            ..WorkloadConfig::default()
        },
        71,
    )
    .generate(&env.network);
    let mut core = ServiceCore::over(ServiceConfig::default(), env, wl.catalog.clone());
    assert_eq!(install(&mut core, &wl.queries).planned, wl.queries.len());
    (core, wl)
}

fn crash(core: &mut ServiceCore, node: NodeId) -> DrainSummary {
    let fault = JournalEntry::Fault {
        fault: FaultReq::Crash(node.0),
        at_ms: 10,
    };
    core.drain(&[fault], 20)
}

/// Ids of the slots in `status`.
fn in_status(core: &ServiceCore, status: SlotStatus) -> Vec<QueryId> {
    core.slots
        .iter()
        .filter(|(_, s)| s.status == status)
        .map(|(&id, _)| QueryId(id))
        .collect()
}

#[test]
fn coordinator_failure_fails_over_and_redeploys() {
    let (mut core, wl) = service();
    // Fail the top coordinator: the node holding the most roles.
    let top_coord = core
        .env
        .hierarchy
        .cluster(core.env.hierarchy.top())
        .coordinator;
    let roles_before = core.env.hierarchy.coordinator_roles(top_coord).len();
    assert!(roles_before >= 1);

    crash(&mut core, top_coord);
    assert!(!core.env.hierarchy.is_active(top_coord));
    assert!(
        core.env.hierarchy.coordinator_roles(top_coord).is_empty(),
        "every role the node held was failed over"
    );
    core.env.hierarchy.check_invariants();
    assert_ne!(
        core.env
            .hierarchy
            .cluster(core.env.hierarchy.top())
            .coordinator,
        top_coord,
        "a new top coordinator must be elected"
    );
    // No surviving deployment may still reference the failed node as an
    // operator host.
    for d in core.slots.values().filter_map(|s| s.deployment.as_ref()) {
        assert!(!d.operator_nodes().contains(&top_coord));
    }
    // Accounting adds up: planned (kept + redeployed), parked and lost
    // slots cover every installed query, and only the node's own queries
    // left the planned pot.
    let (planned, parked, lost) = (
        in_status(&core, SlotStatus::Planned),
        in_status(&core, SlotStatus::Parked),
        in_status(&core, SlotStatus::Lost),
    );
    assert_eq!(planned.len() + parked.len() + lost.len(), wl.queries.len());
    for id in lost {
        assert_eq!(core.slots[&id.0].query.sink, top_coord, "{id} lost");
    }
    for id in parked {
        let q = &core.slots[&id.0].query;
        assert!(
            q.sources
                .iter()
                .any(|&s| wl.catalog.stream(s).node == top_coord),
            "{id} parked without a source on the crashed node"
        );
    }
}

#[test]
fn source_node_failure_loses_the_dependent_queries() {
    let (mut core, wl) = service();
    // Fail a node hosting a stream used by at least one query.
    let victim_stream = wl.queries[0].sources[0];
    let victim_node = wl.catalog.stream(victim_stream).node;
    let dependent: Vec<_> = wl
        .queries
        .iter()
        .filter(|q| {
            q.sources
                .iter()
                .any(|&s| wl.catalog.stream(s).node == victim_node)
                || q.sink == victim_node
        })
        .map(|q| q.id)
        .collect();
    assert!(!dependent.is_empty());

    crash(&mut core, victim_node);
    let lost = in_status(&core, SlotStatus::Lost);
    let parked = in_status(&core, SlotStatus::Parked);
    for qid in &lost {
        assert!(dependent.contains(qid), "{qid} lost but not dependent");
    }
    // Source-outage parking only applies to queries that depended on the
    // node; sink-on-node losses stay losses.
    for qid in &parked {
        assert!(dependent.contains(qid), "{qid} parked but not dependent");
    }
    assert!(
        !lost.is_empty() || !parked.is_empty(),
        "killing a source origin must cost somebody their data"
    );
    core.env.hierarchy.check_invariants();
}

#[test]
fn backup_coordinator_is_a_sensible_member() {
    let (core, _) = service();
    let h = &core.env.hierarchy;
    for level in 1..=h.height() {
        for (i, c) in h.level(level).iter().enumerate() {
            let id = dsq_hierarchy::ClusterId { level, index: i };
            match h.backup_coordinator(id, &core.env.dm) {
                Some(b) => {
                    assert!(c.members.contains(&b));
                    assert_ne!(b, c.coordinator);
                }
                None => assert_eq!(c.members.len(), 1),
            }
        }
    }
}

#[test]
fn unrelated_failure_leaves_deployments_untouched() {
    let (mut core, _) = service();
    // Find a node no deployment references.
    let used: Vec<NodeId> = core
        .slots
        .values()
        .filter_map(|s| s.deployment.as_ref())
        .flat_map(|d| d.placement.iter().copied().chain([d.sink]))
        .collect();
    let idle = core
        .env
        .network
        .nodes()
        .find(|n| !used.contains(n))
        .expect("some idle node exists");
    let fingerprint = |core: &ServiceCore| -> Vec<(u32, u64, Vec<NodeId>)> {
        core.slots
            .iter()
            .filter_map(|(&id, s)| {
                let d = s.deployment.as_ref()?;
                Some((id, d.cost.to_bits(), d.placement.clone()))
            })
            .collect()
    };
    let before = fingerprint(&core);
    let s = crash(&mut core, idle);
    assert_eq!((s.planned, s.replanned, s.parked, s.lost), (0, 0, 0, 0));
    assert_eq!(fingerprint(&core), before);
}
