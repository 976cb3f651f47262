//! Churn-then-plan regression tests for restricted placement.
//!
//! Pins the fixes for two bugs found during the fuzzer's planted-bug
//! validation (see `tests/regressions/README.md`): `Optimal::restricted`
//! used to plan against whatever candidate slice it was handed — empty or
//! full of departed nodes — and the In-network zone baseline kept placing
//! joins inside zones whose members had all left the overlay.

use dsq_baselines::{InNetwork, InNetworkRunner};
use dsq_core::{Environment, Optimal, Optimizer, PlacementError, SearchStats};
use dsq_hierarchy::membership::remove_node;
use dsq_net::{NodeId, TransitStubConfig};
use dsq_query::ReuseRegistry;
use dsq_workload::{Workload, WorkloadConfig, WorkloadGenerator};

fn setup() -> (Environment, Workload) {
    let net = TransitStubConfig::paper_64().generate(5).network;
    let env = Environment::build(net, 16);
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 10,
            queries: 4,
            joins_per_query: 2..=3,
            ..WorkloadConfig::default()
        },
        17,
    )
    .generate(&env.network);
    (env, wl)
}

/// Deactivate up to `want` nodes that host no stream and serve as no sink,
/// so the probe queries stay placeable afterwards.
fn churn(env: &mut Environment, wl: &Workload, want: usize) -> Vec<NodeId> {
    let protected: Vec<NodeId> = wl
        .catalog
        .streams()
        .iter()
        .map(|s| s.node)
        .chain(wl.queries.iter().map(|q| q.sink))
        .collect();
    let mut removed = Vec::new();
    for n in env.network.nodes() {
        if removed.len() >= want {
            break;
        }
        if protected.contains(&n) {
            continue;
        }
        if remove_node(&mut env.hierarchy, &env.dm, n).is_ok() {
            removed.push(n);
        }
    }
    assert!(!removed.is_empty(), "churn found no removable node");
    removed
}

#[test]
fn empty_candidate_set_is_a_typed_error() {
    let (env, wl) = setup();
    let err = Optimal::restricted(&env, &[])
        .try_optimize(
            &wl.catalog,
            &wl.queries[0],
            &ReuseRegistry::new(),
            &mut SearchStats::new(),
        )
        .expect_err("empty candidate set must not produce a deployment");
    assert_eq!(err, PlacementError::NoCandidates);
}

#[test]
fn fully_churned_candidate_set_is_rejected() {
    let (mut env, wl) = setup();
    env.isolate_cache(false);
    let removed = churn(&mut env, &wl, 4);
    let err = Optimal::restricted(&env, &removed)
        .try_optimize(
            &wl.catalog,
            &wl.queries[0],
            &ReuseRegistry::new(),
            &mut SearchStats::new(),
        )
        .expect_err("all-inactive candidate set must not produce a deployment");
    assert_eq!(err, PlacementError::NoActiveCandidates);
}

#[test]
fn mixed_candidate_set_only_uses_survivors() {
    let (mut env, wl) = setup();
    env.isolate_cache(false);
    let removed = churn(&mut env, &wl, 4);
    let mut mixed = removed.clone();
    mixed.extend(env.hierarchy.active_nodes());
    for q in &wl.queries {
        let d = Optimal::restricted(&env, &mixed)
            .try_optimize(
                &wl.catalog,
                q,
                &ReuseRegistry::new(),
                &mut SearchStats::new(),
            )
            .expect("active members remain, so the query must stay placeable");
        for ji in d.plan.join_indices() {
            assert!(
                !removed.contains(&d.placement[ji]),
                "join placed on churned-out node {}",
                d.placement[ji]
            );
        }
    }
}

#[test]
fn innetwork_zone_search_skips_dead_zones() {
    let (mut env, wl) = setup();
    env.isolate_cache(false);
    // Zones are computed before the churn, exactly the stale-structure
    // scenario the fix guards: entire zones may lose all members.
    let zones = InNetwork::new(&env, 5);
    churn(&mut env, &wl, 12);
    let runner = InNetworkRunner {
        zones: &zones,
        env: &env,
    };
    for q in &wl.queries {
        let Some(d) = runner.optimize(
            &wl.catalog,
            q,
            &ReuseRegistry::new(),
            &mut SearchStats::new(),
        ) else {
            continue; // no active zone reachable is an acceptable refusal
        };
        for ji in d.plan.join_indices() {
            assert!(
                env.hierarchy.is_active(d.placement[ji]),
                "in-network placed a join on inactive {}",
                d.placement[ji]
            );
        }
    }
}
