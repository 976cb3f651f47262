//! The self-adaptivity loop as the service runs it.
//!
//! "Self-adaptivity is incorporated into the system through the Middleware
//! Layer which re-triggers the query optimization algorithm when the
//! changes in network, load or data conditions demand recomputing of query
//! plans and deployments." [`ServiceCore`] is that middleware: a link
//! degradation re-costs the standing deployments, an `observe` request
//! re-estimates them against fresh stream rates, and the next drain
//! replans the ones that degraded past the threshold, adopting a
//! replacement only when it is cheaper. These tests drive the loop.

use dsq_core::{Environment, Optimizer, SearchStats, TopDown};
use dsq_net::{NodeId, TransitStubConfig};
use dsq_query::{Deployment, ReuseRegistry, StreamId};
use dsq_server::chaos::install;
use dsq_server::{FaultReq, JournalEntry, ServiceConfig, ServiceCore, SlotStatus};
use dsq_sim::FlowSimulator;

fn workload(env: &Environment) -> dsq_workload::Workload {
    dsq_workload::WorkloadGenerator::new(
        dsq_workload::WorkloadConfig {
            streams: 12,
            queries: 6,
            joins_per_query: 2..=3,
            ..dsq_workload::WorkloadConfig::default()
        },
        61,
    )
    .generate(&env.network)
}

fn service() -> (ServiceCore, dsq_workload::Workload) {
    let net = TransitStubConfig::paper_64().generate(17).network;
    let env = Environment::build(net, 16);
    let wl = workload(&env);
    let mut core = ServiceCore::over(ServiceConfig::default(), env, wl.catalog.clone());
    assert_eq!(install(&mut core, &wl.queries).planned, wl.queries.len());
    (core, wl)
}

fn deployments(core: &ServiceCore) -> Vec<Deployment> {
    core.slots
        .values()
        .filter_map(|s| s.deployment.clone())
        .collect()
}

fn total_cost(core: &ServiceCore) -> f64 {
    deployments(core).iter().map(|d| d.cost).sum()
}

fn degrade(a: NodeId, b: NodeId, factor_milli: u64) -> JournalEntry {
    JournalEntry::Fault {
        fault: FaultReq::Degrade {
            a: a.0,
            b: b.0,
            factor_milli,
        },
        at_ms: 10,
    }
}

fn observe(stream: StreamId, rate: f64) -> JournalEntry {
    JournalEntry::Observe {
        stream: stream.0,
        rate_milli: (rate * 1000.0).round() as u64,
        at_ms: 10,
    }
}

/// Links crossing the deployments' hot paths, made 50× more expensive.
fn congestion(core: &ServiceCore) -> Vec<JournalEntry> {
    let sim = FlowSimulator::new(&core.env.network);
    let standing = deployments(core);
    let refs: Vec<&Deployment> = standing.iter().collect();
    sim.evaluate(&refs)
        .hottest_links(4)
        .into_iter()
        .map(|((a, b), _)| degrade(a, b, 50_000))
        .collect()
}

#[test]
fn congestion_triggers_migration_and_reduces_cost() {
    let (mut core, _) = service();
    let standing = deployments(&core);
    let s = core.drain(&congestion(&core), 20);
    assert!(
        !s.adopted.is_empty(),
        "50× congestion on hot links must trigger migrations"
    );
    let cost_before: f64 = standing
        .into_iter()
        .map(|mut d| {
            d.recompute_cost(&core.env.dm);
            d.cost
        })
        .sum();
    assert!(
        s.total_cost <= cost_before,
        "migration must not increase cost: {cost_before} -> {}",
        s.total_cost
    );
}

#[test]
fn small_changes_do_not_trigger() {
    let (mut core, _) = service();
    let a = core.env.network.nodes().next().unwrap();
    let b = core.env.network.neighbors(a)[0].to;
    let s = core.drain(&[degrade(a, b, 1010)], 20);
    assert_eq!(s.replanned, 0);
    assert!(s.adopted.is_empty());
}

#[test]
fn data_rate_surge_triggers_replanning() {
    let (mut core, wl) = service();
    // Surge the rates of the first query's sources 20×: its plan's
    // transport volumes balloon and a different placement (or ordering)
    // may win.
    let victim = &wl.queries[0];
    let before = total_cost(&core);
    let surge: Vec<JournalEntry> = victim
        .sources
        .iter()
        .map(|&s| observe(s, core.catalog.stream(s).rate * 20.0))
        .collect();
    let s = core.drain(&surge, 20);
    assert!(s.replanned > 0, "the surge degrades the victim");
    assert!(
        s.total_cost > before,
        "re-estimated costs reflect the surge"
    );
    // Re-estimated standing costs must match a from-scratch evaluation.
    for slot in core.slots.values() {
        let d = slot.deployment.as_ref().unwrap();
        let fresh = d.reestimate(&slot.query, &core.catalog, &core.env.dm);
        assert!((fresh.cost - d.cost).abs() < 1e-9);
    }
}

#[test]
fn improving_data_changes_do_not_churn() {
    let (mut core, _) = service();
    // All rates drop: every deployment gets cheaper, nothing replans.
    let before = total_cost(&core);
    let calm: Vec<JournalEntry> = core
        .catalog
        .streams()
        .iter()
        .map(|s| observe(s.id, s.rate * 0.5))
        .collect();
    let s = core.drain(&calm, 20);
    assert_eq!(s.replanned, 0, "must not replan");
    assert!(s.adopted.is_empty());
    assert!(s.total_cost < before);
    for slot in core.slots.values() {
        let cost = slot.deployment.as_ref().unwrap().cost;
        assert_eq!(slot.baseline_cost.to_bits(), cost.to_bits(), "re-baselined");
    }
}

#[test]
fn link_change_keeps_a_latency_environment_on_delay_distances() {
    // Regression: link changes used to rebuild distances with a
    // hard-coded `Metric::Cost`, silently switching a response-time
    // environment to cost distances after its first link change.
    let net = TransitStubConfig::paper_64().generate(17).network;
    let env = Environment::build_latency(net, 16);
    let catalog = workload(&env).catalog;
    let mut core = ServiceCore::over(ServiceConfig::default(), env, catalog);
    let a = core.env.network.nodes().next().unwrap();
    let b = core.env.network.neighbors(a)[0].to;
    core.drain(&[degrade(a, b, 3000)], 20);
    assert_eq!(core.env.dm.metric(), dsq_net::Metric::DelayMs);
    let fresh = dsq_net::DistanceMatrix::build(&core.env.network, dsq_net::Metric::DelayMs);
    for u in core.env.network.nodes() {
        for v in core.env.network.nodes() {
            assert_eq!(
                core.env.dm.get(u, v).to_bits(),
                fresh.get(u, v).to_bits(),
                "distance ({u:?},{v:?}) left the delay metric"
            );
        }
    }
}

#[test]
fn a_cost_change_costs_a_latency_environment_nothing() {
    // Regression: a cost re-pricing leaves every delay weight as it
    // was, yet the link-change path used to clone the whole matrix and
    // scan all n²/2 pairs to retire nothing.
    let net = TransitStubConfig::paper_64().generate(17).network;
    let mut env = Environment::build_latency(net, 16);
    env.isolate_cache(true);
    let wl = workload(&env);
    let reg = ReuseRegistry::new();
    for q in &wl.queries {
        TopDown::new(&env)
            .optimize(&wl.catalog, q, &reg, &mut SearchStats::new())
            .unwrap();
    }
    let warm = env.plan_cache.len();
    assert!(warm > 0, "planning warmed the cache");
    let dm_before = env.dm.clone();
    let d_of = |env: &Environment| -> Vec<u64> {
        (1..=env.hierarchy.height())
            .map(|l| env.hierarchy.d_at(l).to_bits())
            .collect()
    };
    let d_before = d_of(&env);

    let a = env.network.nodes().next().unwrap();
    let b = env.network.neighbors(a)[0].to;
    let old = env.network.find_link(a, b).unwrap().cost;
    let sink = dsq_obs::Sink::new(dsq_obs::ClockMode::Virtual);
    let repair = {
        let _g = dsq_obs::scoped(sink.clone());
        env.reprice_link(a, b, old * 3.0)
    };

    let (repair, changed) = repair.expect("a real link");
    assert_eq!(repair, dsq_net::LinkRepair::Incremental { rows: 0 });
    assert!(changed.is_empty() && changed.cover().is_empty());
    assert_eq!(
        sink.snapshot().counters.get("net.repair.nodes_settled"),
        Some(&0),
        "a weight no-op settles no node"
    );
    assert_eq!(env.network.find_link(a, b).unwrap().cost, old * 3.0);
    assert_eq!(env.plan_cache.len(), warm);
    assert_eq!(env.plan_cache.retired(), 0);
    assert_eq!(d_of(&env), d_before);
    for u in env.network.nodes() {
        for v in env.network.nodes() {
            assert_eq!(
                env.dm.get(u, v).to_bits(),
                dm_before.get(u, v).to_bits(),
                "distance ({u:?},{v:?}) moved"
            );
        }
    }
}

#[test]
fn adaptation_is_idempotent_when_nothing_changes() {
    let (mut core, _) = service();
    let before = total_cost(&core);
    let s = core.drain(&[], 20);
    assert!(s.adopted.is_empty());
    assert_eq!(s.replanned, 0);
    assert!(core.slots.values().all(|s| s.status == SlotStatus::Planned));
    assert!((total_cost(&core) - before).abs() < 1e-9);
}
