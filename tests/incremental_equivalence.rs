//! Differential proof that scoped cache invalidation and incremental
//! replanning are equivalent to the always-sound reference path.
//!
//! Two arms run the *same* seeded fault timelines through the planning
//! service's core: one with [`InvalidationMode::Scoped`] (dirty-set
//! retirement, the default) and one with [`InvalidationMode::Flush`] (drop
//! everything before every drain). After every single event the standing
//! deployments, their cost bits, the parked set and the total cost must be
//! byte-identical — scoped retirement may only ever change *how fast* an
//! answer is produced, never the answer. A final from-scratch replan over
//! both arms' post-schedule environments (cache off, virtual clock) must
//! produce byte-identical JSONL traces, proving the two environments
//! converged bit-for-bit.
//!
//! A second family of tests pins `optimize_dirty`: after a localized
//! metric drift, replanning only the queries whose deployments intersect
//! the dirty node set must reproduce the full from-scratch replan exactly.

use dsq::core::{metric_dirty_nodes, optimize_dirty, InvalidationMode};
use dsq::obs;
use dsq::prelude::*;
use dsq::server::chaos::{fault_reports, install, Fault, FaultConfig, FaultSchedule};
use dsq::server::{FaultReq, JournalEntry, ServiceConfig, ServiceCore, SlotStatus};
use std::collections::HashSet;

fn build_env(seed: u64) -> Environment {
    let net = TransitStubConfig::paper_64().generate(seed).network;
    Environment::build(net, 16)
}

fn build_workload(env: &Environment, seed: u64) -> Workload {
    WorkloadGenerator::new(
        WorkloadConfig {
            streams: 12,
            queries: 8,
            joins_per_query: 2..=3,
            source_skew: Some(1.0), // shared hot streams => overlapping subplans
            ..WorkloadConfig::default()
        },
        seed,
    )
    .generate(&env.network)
}

/// Plan one query with Top-Down against `env` (goes through the
/// environment's subplan cache when enabled).
fn replan(env: &Environment, catalog: &Catalog, q: &Query) -> Option<Deployment> {
    let reg = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    TopDown::new(env).optimize(catalog, q, &reg, &mut stats)
}

/// Byte-level fingerprint of a core's standing state.
#[derive(PartialEq, Debug)]
struct StateFp {
    deployments: Vec<(u32, u64, Vec<NodeId>, NodeId)>,
    parked: Vec<u32>,
    total_cost_bits: u64,
}

fn fingerprint(core: &ServiceCore) -> StateFp {
    let deployments: Vec<&Deployment> = core
        .slots
        .values()
        .filter_map(|s| s.deployment.as_ref())
        .collect();
    StateFp {
        deployments: deployments
            .iter()
            .map(|d| (d.query.0, d.cost.to_bits(), d.placement.clone(), d.sink))
            .collect(),
        parked: core
            .slots
            .iter()
            .filter(|(_, s)| s.status == SlotStatus::Parked)
            .map(|(&id, _)| id)
            .collect(),
        total_cost_bits: deployments.iter().map(|d| d.cost).sum::<f64>().to_bits(),
    }
}

/// One fault as the service takes it: its fault reports and one drain
/// (the chaos runner's dispatch, without the lossy protocol). The flush
/// arm first drops everything in the cache, so every one of its drains,
/// the first included, replans on an empty cache.
fn apply_fault(core: &mut ServiceCore, fault: &Fault, mode: InvalidationMode) {
    if mode == InvalidationMode::Flush {
        core.env.plan_cache.invalidate();
    }
    let at_ms = core.now_ms + 1;
    let batch: Vec<JournalEntry> = fault_reports(fault)
        .into_iter()
        .map(|fault| JournalEntry::Fault { fault, at_ms })
        .collect();
    core.drain(&batch, at_ms);
}

/// Build a core over a fresh enabled cache, install the whole workload,
/// and return it.
fn installed_core(env: &Environment, wl: &Workload) -> ServiceCore {
    let mut env = env.clone();
    env.isolate_cache(true);
    let mut core = ServiceCore::over(ServiceConfig::default(), env, wl.catalog.clone());
    install(&mut core, &wl.queries);
    core
}

/// Drive both invalidation arms through `schedule`, asserting byte-equal
/// state after every event; returns the two runtimes for post-mortems.
fn drive_differential(
    env: &Environment,
    wl: &Workload,
    schedule: &FaultSchedule,
) -> (ServiceCore, ServiceCore) {
    let mut scoped = installed_core(env, wl);
    let mut flush = installed_core(env, wl);
    assert!(
        !fingerprint(&scoped).deployments.is_empty(),
        "workload must install"
    );
    assert_eq!(fingerprint(&scoped), fingerprint(&flush));

    for (i, tf) in schedule.faults.iter().enumerate() {
        apply_fault(&mut scoped, &tf.fault, InvalidationMode::Scoped);
        apply_fault(&mut flush, &tf.fault, InvalidationMode::Flush);
        assert_eq!(
            fingerprint(&scoped),
            fingerprint(&flush),
            "scoped and flush invalidation diverged after event {i}: {:?}",
            tf.fault
        );
    }
    (scoped, flush)
}

/// From-scratch serial replan of the whole workload over `env` with the
/// cache disabled, under a virtual-clock sink. Returns (outcome, JSONL).
fn from_scratch_trace(env: &Environment, wl: &Workload) -> (MultiQueryOutcome, String) {
    let mut env = env.clone();
    env.isolate_cache(false);
    // Only the queries whose data still exists: a schedule may leave a
    // source origin or sink permanently crashed, and a from-scratch plan of
    // such a query is undefined over the surviving overlay. Both arms see
    // the identical active set, so the filter cannot mask a divergence.
    let queries: Vec<Query> = wl
        .queries
        .iter()
        .filter(|q| {
            env.hierarchy.is_active(q.sink)
                && q.sources
                    .iter()
                    .all(|&s| env.hierarchy.is_active(wl.catalog.stream(s).node))
        })
        .cloned()
        .collect();
    let sink = obs::Sink::new(obs::ClockMode::Virtual);
    let out = {
        let _scope = obs::scoped(sink.clone());
        let td = TopDown::new(&env);
        optimize_all(
            &env,
            &td,
            &wl.catalog,
            &queries,
            &ReuseRegistry::new(),
            &ParallelConfig::serial(),
        )
    };
    (out, sink.to_jsonl())
}

fn assert_deployments_identical(a: &MultiQueryOutcome, b: &MultiQueryOutcome) {
    assert_eq!(a.deployments.len(), b.deployments.len());
    for (i, (x, y)) in a.deployments.iter().zip(&b.deployments).enumerate() {
        match (x, y) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(
                    x.cost.to_bits(),
                    y.cost.to_bits(),
                    "cost bits differ for query {i}"
                );
                assert_eq!(x.placement, y.placement, "placement differs for query {i}");
                assert_eq!(x.sink, y.sink);
            }
            _ => panic!("feasibility differs for query {i}"),
        }
    }
    assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
}

/// One differential run per fault class the issue calls out: independent
/// crash, rejoin, correlated leaf failure, and metric drift — plus a mixed
/// 60-event schedule.
#[test]
fn scoped_invalidation_matches_flush_for_every_fault_class() {
    let env = build_env(31);
    let wl = build_workload(&env, 17);
    let mixes: &[(&str, FaultConfig)] = &[
        (
            "crash-heavy",
            FaultConfig {
                events: 40,
                crash_weight: 0.5,
                correlated_weight: 0.0,
                rejoin_weight: 0.4,
                degrade_weight: 0.1,
                ..FaultConfig::default()
            },
        ),
        (
            "correlated-leaf",
            FaultConfig {
                events: 30,
                crash_weight: 0.0,
                correlated_weight: 0.45,
                rejoin_weight: 0.45,
                degrade_weight: 0.1,
                ..FaultConfig::default()
            },
        ),
        (
            "metric-drift",
            FaultConfig {
                events: 20,
                crash_weight: 0.0,
                correlated_weight: 0.0,
                rejoin_weight: 0.0,
                degrade_weight: 1.0,
                ..FaultConfig::default()
            },
        ),
        (
            "mixed",
            FaultConfig {
                events: 60,
                ..FaultConfig::default()
            },
        ),
    ];
    for (name, cfg) in mixes {
        let schedule = FaultSchedule::generate(&env, cfg, 77);
        let (scoped, flush) = drive_differential(&env, &wl, &schedule);

        // Scoped mode keeps a superset of the flush arm's entries at every
        // point, so it can only hit more — and it must hit at all for the
        // optimization to mean anything.
        assert!(
            scoped.env.plan_cache.hits() >= flush.env.plan_cache.hits(),
            "[{name}] scoped retained fewer hits than flushing"
        );
        assert!(
            scoped.env.plan_cache.hits() > 0,
            "[{name}] scoped invalidation never hit the cache"
        );

        // Both arms' environments must have converged bit-for-bit: a cold,
        // cache-less, serial from-scratch replan over each produces the
        // same deployments and the same virtual-clock JSONL trace byte for
        // byte.
        let (out_s, trace_s) = from_scratch_trace(&scoped.env, &wl);
        let (out_f, trace_f) = from_scratch_trace(&flush.env, &wl);
        assert_deployments_identical(&out_s, &out_f);
        assert!(!trace_s.is_empty());
        assert_eq!(
            trace_s, trace_f,
            "[{name}] post-schedule environments diverged"
        );
    }
}

/// The scoped arm itself is deterministic: driving the identical schedule
/// twice produces identical final state and an identical obs trace.
#[test]
fn scoped_arm_is_deterministic_including_traces() {
    let env = build_env(31);
    let wl = build_workload(&env, 17);
    let cfg = FaultConfig {
        events: 40,
        ..FaultConfig::default()
    };
    let schedule = FaultSchedule::generate(&env, &cfg, 5);
    let run = || {
        let sink = obs::Sink::new(obs::ClockMode::Virtual);
        let core = {
            let _scope = obs::scoped(sink.clone());
            let mut core = installed_core(&env, &wl);
            for tf in &schedule.faults {
                apply_fault(&mut core, &tf.fault, InvalidationMode::Scoped);
            }
            core
        };
        (fingerprint(&core), sink.to_jsonl())
    };
    let (fp1, trace1) = run();
    let (fp2, trace2) = run();
    assert_eq!(fp1, fp2);
    assert!(!trace1.is_empty());
    assert_eq!(
        trace1, trace2,
        "virtual-clock traces must be byte-identical"
    );
}

/// `optimize_dirty` after a localized metric drift: replanning only the
/// touched queries reproduces the full from-scratch replan byte for byte,
/// while genuinely skipping work.
#[test]
fn incremental_replan_matches_full_replan_after_metric_drift() {
    let mut env = build_env(31);
    env.isolate_cache(true);
    let wl = build_workload(&env, 17);
    let cfg = ParallelConfig::serial();
    let warm = {
        let td = TopDown::new(&env);
        optimize_all(
            &env,
            &td,
            &wl.catalog,
            &wl.queries,
            &ReuseRegistry::new(),
            &cfg,
        )
    };
    assert!(warm.planned() > 0);
    assert!(!env.plan_cache.is_empty());

    // Localized drift on a link the planner actually consulted: degrade a
    // link incident to an operator host from the warm pass, picking one
    // whose fallout stays short of the whole network — pair-aware
    // retirement then has stale entries to find while most of the cache
    // survives.
    let (a, b) = {
        let mut choice = None;
        'outer: for d in warm.deployments.iter().flatten() {
            for &u in d.placement.iter().chain(std::iter::once(&d.sink)) {
                for l in env.network.neighbors(u) {
                    let mut net = env.network.clone();
                    assert!(net.set_link_cost(u, l.to, l.cost * 40.0));
                    let dm = DistanceMatrix::build(&net, Metric::Cost);
                    let dirty = metric_dirty_nodes(&env.dm, &dm);
                    if !dirty.is_empty() && dirty.len() < env.network.len() {
                        choice = Some((u, l.to));
                        break 'outer;
                    }
                }
            }
        }
        choice.expect("some host link drifts without dirtying the whole network")
    };
    let old_cost = env.network.find_link(a, b).unwrap().cost;
    assert!(env.network.set_link_cost(a, b, old_cost * 40.0));
    let new_dm = DistanceMatrix::build(&env.network, Metric::Cost);
    let dirty = metric_dirty_nodes(&env.dm, &new_dm);
    assert!(!dirty.is_empty(), "a 40x link change must move distances");
    assert!(
        dirty.len() < env.network.len(),
        "the drift must stay localized for the test to be meaningful"
    );
    let retired = env.plan_cache.retire_metric(&env.dm, &new_dm);
    env.dm = new_dm;
    env.hierarchy.refresh_statistics(&env.dm);
    assert!(retired > 0, "the drift must retire some memoized subplans");
    assert!(
        !env.plan_cache.is_empty(),
        "scoped retirement must keep the untouched entries"
    );

    let hits_before = env.plan_cache.hits();
    let incremental = {
        let td = TopDown::new(&env);
        optimize_dirty(
            &env,
            &td,
            &wl.catalog,
            &wl.queries,
            &warm.deployments,
            &dirty,
            &ReuseRegistry::new(),
            &cfg,
        )
    };
    assert!(
        env.plan_cache.hits() > hits_before,
        "replanned queries must reuse surviving subplans"
    );

    // Reference: a from-scratch, cache-less replan of everything over an
    // identically mutated fresh environment.
    let ref_env = {
        let mut e = build_env(31);
        e.isolate_cache(false);
        assert!(e.network.set_link_cost(a, b, old_cost * 40.0));
        e.dm = DistanceMatrix::build(&e.network, Metric::Cost);
        e.hierarchy.refresh_statistics(&e.dm);
        e
    };
    let reference = {
        let td = TopDown::new(&ref_env);
        optimize_all(
            &ref_env,
            &td,
            &wl.catalog,
            &wl.queries,
            &ReuseRegistry::new(),
            &cfg,
        )
    };
    assert_deployments_identical(&incremental, &reference);
}

/// A no-op metric refresh (monitor round that observes identical
/// distances) must not retire a single cache entry: planning work after
/// two idle rounds still hits the warm cache.
#[test]
fn noop_metric_refresh_preserves_cache_entries() {
    let env = build_env(31);
    let wl = build_workload(&env, 17);
    let mut core = installed_core(&env, &wl);
    let entries = core.env.plan_cache.len();
    assert!(entries > 0, "installation must warm the cache");

    // Two identical monitor rounds: rewrite an existing link to its
    // current cost. The rebuilt distance matrix is bit-identical, the
    // dirty set empty, and nothing may be retired.
    let (a, b) = {
        let u = core.env.network.nodes().next().unwrap();
        let l = core.env.network.neighbors(u).first().unwrap();
        (u, l.to)
    };
    for round in 0..2 {
        let sink = obs::Sink::new(obs::ClockMode::Virtual);
        {
            let _scope = obs::scoped(sink.clone());
            let same_cost = JournalEntry::Fault {
                fault: FaultReq::Degrade {
                    a: a.0,
                    b: b.0,
                    factor_milli: 1000,
                },
                at_ms: round,
            };
            let summary = core.drain(&[same_cost], round);
            assert!(summary.adopted.is_empty(), "round {round}: nothing changed");
            // Replan the workload against the (unchanged) environment: the
            // warm cache must keep answering.
            let td = TopDown::new(&core.env);
            optimize_all(
                &core.env,
                &td,
                &wl.catalog,
                &wl.queries,
                &ReuseRegistry::new(),
                &ParallelConfig::serial(),
            );
        }
        assert_eq!(
            core.env.plan_cache.len(),
            entries,
            "round {round}: a no-op refresh must not shrink the cache"
        );
        assert_eq!(
            core.env.plan_cache.retired(),
            0,
            "round {round}: a no-op refresh must not retire entries"
        );
        let snap = sink.snapshot();
        let hits = snap
            .counters
            .get("planner.cache_hits")
            .copied()
            .unwrap_or(0);
        assert!(
            hits > 0,
            "round {round}: planning across an idle monitor round must hit \
             the preserved cache (counters: {:?})",
            snap.counters
        );
    }
}

/// `deployment_touches` is the dirty test `optimize_dirty` uses; pin its
/// semantics: sink or any placement node in the dirty set.
#[test]
fn deployment_touches_matches_placement_and_sink() {
    use dsq::core::deployment_touches;
    let env = build_env(31);
    let wl = build_workload(&env, 17);
    let d = replan(&env, &wl.catalog, &wl.queries[0]).expect("feasible");
    let mut dirty: HashSet<NodeId> = HashSet::new();
    assert!(!deployment_touches(&d, &dirty));
    dirty.insert(d.sink);
    assert!(deployment_touches(&d, &dirty));
    dirty.clear();
    dirty.insert(d.placement[0]);
    assert!(deployment_touches(&d, &dirty));
    dirty.clear();
    // A node the deployment never references.
    let unused = env
        .network
        .nodes()
        .find(|n| *n != d.sink && !d.placement.contains(n))
        .unwrap();
    dirty.insert(unused);
    assert!(!deployment_touches(&d, &dirty));
}
