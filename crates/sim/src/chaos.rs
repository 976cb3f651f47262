//! Chaos harness: seeded fault schedules for the adaptive runtime.
//!
//! The paper argues the virtual hierarchy "is robust enough to adapt as
//! necessary" under node churn (Section 2.1.1) — this module turns that
//! claim into a repeatable experiment. A seeded [`FaultSchedule`] produces
//! a timeline of independent crashes, *correlated* failures (an entire
//! level-1 cluster — the overlay image of a stub domain — going dark at
//! once), node recoveries that rejoin through the membership protocol, and
//! link-cost degradations. A [`ChaosRunner`] drives an
//! [`AdaptiveRuntime`] through the timeline with every replacement
//! deployment instantiated over the lossy protocol of
//! [`crate::emulab::LossyProtocol`], checks structural and accounting
//! invariants after every event, and reports availability, repair times
//! and recovery cost inflation in a deterministic [`ChaosReport`].

use crate::adapt::{AdaptiveRuntime, LinkChange};
use crate::emulab::{EmulabModel, LossyProtocol, RetryPolicy};
use dsq_core::{Environment, InvalidationMode, Optimizer, SearchStats, TopDown, OVERLAY_FLOOR};
use dsq_net::NodeId;
use dsq_query::{Catalog, Deployment, Query, QueryId, ReuseRegistry};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One injected fault.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Independent crash of a single node.
    Crash(NodeId),
    /// Correlated failure: every listed node (a level-1 cluster of the
    /// initial hierarchy, i.e. roughly one stub domain) crashes at once.
    CrashCluster(Vec<NodeId>),
    /// A previously crashed node recovers and rejoins the overlay.
    Rejoin(NodeId),
    /// A physical link's cost degrades by `factor` (congestion / rerouting
    /// around damage); fed to [`AdaptiveRuntime::handle_changes`].
    DegradeLink {
        /// Link endpoint.
        a: NodeId,
        /// Link endpoint.
        b: NodeId,
        /// Multiplier applied to the link's current cost (> 1 degrades).
        factor: f64,
    },
}

/// A fault stamped with its (simulated) injection time.
#[derive(Clone, Debug)]
pub struct TimedFault {
    /// Injection time in simulated milliseconds from the start of the run.
    pub at_ms: f64,
    /// The fault itself.
    pub fault: Fault,
}

/// Knobs of the schedule generator: event mix, count and pacing.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Number of events to generate.
    pub events: usize,
    /// Relative weight of independent node crashes.
    pub crash_weight: f64,
    /// Relative weight of correlated cluster failures.
    pub correlated_weight: f64,
    /// Relative weight of node recoveries.
    pub rejoin_weight: f64,
    /// Relative weight of link degradations.
    pub degrade_weight: f64,
    /// Mean inter-event gap in milliseconds (exponentially distributed).
    pub mean_gap_ms: f64,
    /// Range the link-degradation factor is drawn from.
    pub degrade_factor: std::ops::Range<f64>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            events: 50,
            crash_weight: 0.35,
            correlated_weight: 0.10,
            rejoin_weight: 0.35,
            degrade_weight: 0.20,
            mean_gap_ms: 5_000.0,
            degrade_factor: 2.0..20.0,
        }
    }
}

/// A fully materialized, seeded fault timeline.
#[derive(Clone, Debug)]
pub struct FaultSchedule {
    /// Events in injection order (non-decreasing `at_ms`).
    pub faults: Vec<TimedFault>,
}

impl FaultSchedule {
    /// Generate a schedule against the *initial* environment. The generator
    /// tracks which nodes it has taken down so rejoins target genuinely
    /// crashed nodes and the overlay is never scheduled below two members;
    /// the runner re-validates every event anyway, because adaptation can
    /// diverge from the generator's bookkeeping (e.g. a correlated fault
    /// truncated to protect the minimum population).
    pub fn generate(env: &Environment, cfg: &FaultConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut up: Vec<NodeId> = env.hierarchy.active_nodes();
        let mut down: Vec<NodeId> = Vec::new();
        // Stub-domain proxies for correlated faults: the initial leaf
        // clusters, largest first so early correlated events bite.
        let domains: Vec<Vec<NodeId>> = env
            .hierarchy
            .level(1)
            .iter()
            .map(|c| c.members.clone())
            .collect();
        let links: Vec<(NodeId, NodeId)> = env
            .network
            .nodes()
            .flat_map(|u| {
                env.network
                    .neighbors(u)
                    .iter()
                    .filter(move |l| u < l.to)
                    .map(move |l| (u, l.to))
            })
            .collect();
        let total_weight =
            cfg.crash_weight + cfg.correlated_weight + cfg.rejoin_weight + cfg.degrade_weight;
        assert!(total_weight > 0.0, "at least one fault class must be on");

        let mut faults = Vec::with_capacity(cfg.events);
        let mut t = 0.0;
        for _ in 0..cfg.events {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -cfg.mean_gap_ms * (1.0 - u).ln();
            let mut pick = rng.gen_range(0.0..total_weight);
            let mut take = |weight: f64| {
                let hit = pick < weight;
                pick -= weight;
                hit
            };
            let fault = if take(cfg.crash_weight) {
                Self::gen_crash(&mut rng, &mut up, &mut down)
            } else if take(cfg.correlated_weight) {
                Self::gen_correlated(&mut rng, &domains, &mut up, &mut down)
            } else if take(cfg.rejoin_weight) {
                Self::gen_rejoin(&mut rng, &mut up, &mut down)
            } else {
                let &(a, b) = links.choose(&mut rng).expect("networks have links");
                Some(Fault::DegradeLink {
                    a,
                    b,
                    factor: rng.gen_range(cfg.degrade_factor.clone()),
                })
            };
            // A class that is not currently applicable (no one to rejoin,
            // too few nodes to crash) degrades to a link fault so the
            // schedule keeps its length.
            let fault = fault.unwrap_or_else(|| {
                let &(a, b) = links.choose(&mut rng).expect("networks have links");
                Fault::DegradeLink {
                    a,
                    b,
                    factor: rng.gen_range(cfg.degrade_factor.clone()),
                }
            });
            faults.push(TimedFault { at_ms: t, fault });
        }
        FaultSchedule { faults }
    }

    fn gen_crash(
        rng: &mut ChaCha8Rng,
        up: &mut Vec<NodeId>,
        down: &mut Vec<NodeId>,
    ) -> Option<Fault> {
        if up.len() <= OVERLAY_FLOOR {
            return None;
        }
        let &n = up.choose(rng).unwrap();
        up.retain(|&m| m != n);
        down.push(n);
        Some(Fault::Crash(n))
    }

    fn gen_correlated(
        rng: &mut ChaCha8Rng,
        domains: &[Vec<NodeId>],
        up: &mut Vec<NodeId>,
        down: &mut Vec<NodeId>,
    ) -> Option<Fault> {
        let domain = domains.choose(rng)?;
        // Only members still up can crash, and the overlay floor must
        // survive the whole event.
        let mut victims: Vec<NodeId> = domain.iter().copied().filter(|n| up.contains(n)).collect();
        let spare = up.len().saturating_sub(OVERLAY_FLOOR);
        victims.truncate(spare);
        if victims.is_empty() {
            return None;
        }
        up.retain(|m| !victims.contains(m));
        down.extend(victims.iter().copied());
        Some(Fault::CrashCluster(victims))
    }

    fn gen_rejoin(
        rng: &mut ChaCha8Rng,
        up: &mut Vec<NodeId>,
        down: &mut Vec<NodeId>,
    ) -> Option<Fault> {
        if down.is_empty() {
            return None;
        }
        let i = rng.gen_range(0..down.len());
        let n = down.swap_remove(i);
        up.push(n);
        Some(Fault::Rejoin(n))
    }
}

/// What one applied fault did to the runtime.
#[derive(Clone, Debug, Default)]
pub struct EventOutcome {
    /// Injection time of the fault.
    pub at_ms: f64,
    /// Short class tag: `crash`, `crash-cluster`, `rejoin`, `degrade-link`,
    /// `forfeited` (a crash hit the overlay's two-member floor, so the
    /// victim's queries were given up without hierarchy surgery) or
    /// `skipped`.
    pub kind: &'static str,
    /// Queries lost to this event (source/sink on a dead node).
    pub lost: usize,
    /// Queries successfully redeployed by this event (failure repairs and
    /// parked queries placed after a rejoin).
    pub redeployed: usize,
    /// Queries newly parked by this event (no feasible placement, or the
    /// lossy protocol gave up instantiating the replacement).
    pub parked: usize,
    /// `Σ (new − old)` cost over this event's redeployments: how much more
    /// expensive the emergency placements are than what they replace.
    pub recovery_cost_delta: f64,
    /// Protocol time spent instantiating this event's replacement
    /// deployments (transit + planning + timeout waits), in simulated ms.
    pub repair_ms: f64,
}

/// Aggregate result of a chaos run. Fully determined by the schedule seed,
/// the protocol seed and the workload — two runs with identical inputs
/// produce identical reports.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Per-event outcomes, in schedule order (skipped events included).
    pub events: Vec<EventOutcome>,
    /// Events that changed runtime state.
    pub applied: usize,
    /// Events skipped as inapplicable (already-dead node, overlay at the
    /// two-member floor, unknown link).
    pub skipped: usize,
    /// Queries installed when the run started.
    pub installed_initially: usize,
    /// Queries lost over the whole run.
    pub lost: Vec<QueryId>,
    /// Successful redeployments over the whole run (repairs + un-parkings).
    pub redeployments: usize,
    /// Replacement deployments the lossy protocol failed to instantiate
    /// (the query was parked, not dropped).
    pub instantiation_failures: usize,
    /// Queries forfeited because a crash hit the overlay's two-member
    /// floor ([`OVERLAY_FLOOR`]): the node's machine is gone but its
    /// membership slot cannot be excised, so its queries are recorded as
    /// lost without replanning.
    pub forfeited: usize,
    /// Queries still installed when the run ended.
    pub final_installed: usize,
    /// Queries still parked when the run ended.
    pub final_parked: usize,
    /// Time-weighted fraction of the initial query population that was
    /// live over the run (1.0 = no query ever down).
    pub availability: f64,
    /// Mean protocol time to re-instantiate service after a fault, over
    /// all successful redeployments, in simulated ms.
    pub mttr_ms: f64,
    /// Total protocol retransmissions across the run.
    pub protocol_retries: usize,
    /// Total timeout time burned by the lossy protocol, in simulated ms.
    pub protocol_retry_ms: f64,
    /// Invariant suites evaluated (one per event, plus one final).
    pub invariant_checks: usize,
    /// Subplan-cache hits across the whole run (initial install + every
    /// recovery replan). Zero when the runner's cache is off.
    pub cache_hits: u64,
    /// Subplan-cache misses across the whole run.
    pub cache_misses: u64,
    /// Memoized subplans retired by adaptation over the run — scoped dirty
    /// sets under [`InvalidationMode::Scoped`], whole-cache flushes under
    /// [`InvalidationMode::Flush`].
    pub cache_retired: u64,
    /// Replanning invocations the runtime issued over the run (repairs,
    /// parked retries, degradation re-optimizations).
    pub queries_replanned: u64,
    /// Standing cost when the run started.
    pub cost_initial: f64,
    /// Standing cost when the run ended.
    pub cost_final: f64,
    /// Simulated duration (time of the last event).
    pub duration_ms: f64,
}

/// Drives an [`AdaptiveRuntime`] through a [`FaultSchedule`], replanning
/// with Top-Down and instantiating every replacement deployment over the
/// lossy protocol.
#[derive(Clone, Debug)]
pub struct ChaosRunner {
    /// Retry policy of the deployment protocol used during recovery.
    pub policy: RetryPolicy,
    /// Seed of the protocol's loss process.
    pub protocol_seed: u64,
    /// Adaptation threshold handed to the runtime (see
    /// [`AdaptiveRuntime::threshold`]).
    pub threshold: f64,
    /// Run with the memoized subplan cache enabled. The runner always
    /// swaps a *fresh private* cache into the environment at run start
    /// ([`Environment::isolate_cache`]) so reports stay deterministic even
    /// when the caller's environment clones share a warmed cache.
    pub cache: bool,
    /// How adaptation retires memoized subplans (see
    /// [`AdaptiveRuntime::invalidation`]).
    pub invalidation: InvalidationMode,
}

impl Default for ChaosRunner {
    fn default() -> Self {
        ChaosRunner {
            policy: RetryPolicy::lossy(0.1),
            protocol_seed: 1,
            threshold: 0.2,
            cache: true,
            invalidation: InvalidationMode::Scoped,
        }
    }
}

/// Plan one query with Top-Down against the current environment.
fn plan(env: &Environment, catalog: &Catalog, q: &Query) -> Option<(Deployment, SearchStats)> {
    let reg = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    let d = TopDown::new(env).optimize(catalog, q, &reg, &mut stats)?;
    Some((d, stats))
}

impl ChaosRunner {
    /// Install `queries` into a fresh runtime over `env` and run the whole
    /// schedule, checking invariants after every event. Panics (with the
    /// offending event in the message) on any invariant violation — this
    /// is a test harness, not production error handling.
    pub fn run(
        &self,
        mut env: Environment,
        catalog: &Catalog,
        queries: &[Query],
        schedule: &FaultSchedule,
    ) -> ChaosReport {
        env.isolate_cache(self.cache);
        let model = EmulabModel::new(&env.network);
        let mut protocol = LossyProtocol::new(model, self.policy, self.protocol_seed);
        let mut rt = AdaptiveRuntime::new(env, self.threshold);
        rt.invalidation = self.invalidation;
        for q in queries {
            if let Some((d, _)) = plan(&rt.env, catalog, q) {
                rt.install(q.clone(), d);
            }
        }
        let mut report = ChaosReport {
            installed_initially: rt.deployments().len(),
            cost_initial: rt.total_cost(),
            ..Default::default()
        };
        assert!(
            report.installed_initially > 0,
            "chaos run needs at least one installed query"
        );

        let mut live_time = 0.0; // ∫ live(t) dt
        let mut prev_t = 0.0;
        for tf in &schedule.faults {
            live_time += rt.deployments().len() as f64 * (tf.at_ms - prev_t);
            prev_t = tf.at_ms;
            let outcome = self.apply(&mut rt, &mut protocol, catalog, tf, &mut report);
            if dsq_obs::enabled() {
                dsq_obs::counter(&format!("chaos.event.{}", outcome.kind), 1);
            }
            if outcome.kind == "skipped" {
                report.skipped += 1;
            } else {
                report.applied += 1;
            }
            report.events.push(outcome);
            check_invariants(&rt, tf);
            report.invariant_checks += 1;
        }
        check_invariants_final(&rt);
        report.invariant_checks += 1;

        report.duration_ms = prev_t;
        report.availability = if prev_t > 0.0 {
            live_time / (prev_t * report.installed_initially as f64)
        } else {
            rt.deployments().len() as f64 / report.installed_initially as f64
        };
        report.final_installed = rt.deployments().len();
        report.final_parked = rt.parked().len();
        report.cost_final = rt.total_cost();
        report.cache_hits = rt.env.plan_cache.hits();
        report.cache_misses = rt.env.plan_cache.misses();
        report.cache_retired = rt.cache_retired();
        report.queries_replanned = rt.queries_replanned();
        let repairs: Vec<f64> = report
            .events
            .iter()
            .filter(|e| e.redeployed > 0)
            .map(|e| e.repair_ms / e.redeployed as f64)
            .collect();
        report.mttr_ms = if repairs.is_empty() {
            0.0
        } else {
            repairs.iter().sum::<f64>() / repairs.len() as f64
        };
        report
    }

    /// Apply one fault; returns its outcome (kind `"skipped"` when it was
    /// inapplicable to the current state).
    fn apply(
        &self,
        rt: &mut AdaptiveRuntime,
        protocol: &mut LossyProtocol,
        catalog: &Catalog,
        tf: &TimedFault,
        report: &mut ChaosReport,
    ) -> EventOutcome {
        let mut out = EventOutcome {
            at_ms: tf.at_ms,
            kind: "skipped",
            ..Default::default()
        };
        match &tf.fault {
            Fault::Crash(n) => match self.crash_one(rt, protocol, catalog, *n, &mut out, report) {
                CrashEffect::Skipped => {}
                CrashEffect::Applied => out.kind = "crash",
                CrashEffect::Forfeited => out.kind = "forfeited",
            },
            Fault::CrashCluster(members) => {
                let mut repaired = false;
                let mut forfeited = false;
                for &n in members {
                    match self.crash_one(rt, protocol, catalog, n, &mut out, report) {
                        CrashEffect::Skipped => {}
                        CrashEffect::Applied => repaired = true,
                        CrashEffect::Forfeited => forfeited = true,
                    }
                }
                if repaired {
                    out.kind = "crash-cluster";
                } else if forfeited {
                    out.kind = "forfeited";
                }
            }
            Fault::Rejoin(n) => {
                if rt.env.hierarchy.is_active(*n) {
                    return out;
                }
                out.kind = "rejoin";
                let mut repair = RepairTally::default();
                let recovery = rt.handle_node_recovery(catalog, *n, |env, q| {
                    instantiate(env, catalog, q, protocol, &mut repair)
                });
                out.redeployed = recovery.redeployed.len();
                out.repair_ms = repair.time_ms;
                out.parked = repair.instantiation_failures;
                report.redeployments += recovery.redeployed.len();
                report.instantiation_failures += repair.instantiation_failures;
                report.protocol_retries += repair.retries;
                report.protocol_retry_ms += repair.retry_ms;
            }
            Fault::DegradeLink { a, b, factor } => {
                let Some(link) = rt.env.network.find_link(*a, *b) else {
                    return out;
                };
                out.kind = "degrade-link";
                let change = LinkChange {
                    a: *a,
                    b: *b,
                    new_cost: link.cost * factor,
                };
                rt.handle_changes(&[change], |env, q| plan(env, catalog, q).map(|(d, _)| d));
            }
        }
        out
    }

    /// Crash one node through the failure path; [`CrashEffect::Skipped`]
    /// when inapplicable (already dead), [`CrashEffect::Forfeited`] when the
    /// overlay sits at its floor and the node's queries were given up
    /// instead of the run aborting on an irreparable hierarchy. Generated
    /// schedules never cross the floor, but handcrafted ones can (e.g.
    /// crash-everything).
    fn crash_one(
        &self,
        rt: &mut AdaptiveRuntime,
        protocol: &mut LossyProtocol,
        catalog: &Catalog,
        n: NodeId,
        out: &mut EventOutcome,
        report: &mut ChaosReport,
    ) -> CrashEffect {
        if !rt.env.hierarchy.is_active(n) {
            return CrashEffect::Skipped;
        }
        let mut repair = RepairTally::default();
        let fr = rt.handle_node_failure(catalog, n, |env, q| {
            instantiate(env, catalog, q, protocol, &mut repair)
        });
        // Cost-accounting conservation: the standing cost after recovery
        // must equal the cost before, minus what the lost and parked
        // queries were consuming, plus the redeployment inflation.
        let expected = fr.cost_before - fr.forfeited_cost - fr.parked_cost + fr.redeploy_cost_delta;
        assert!(
            (fr.cost_after - expected).abs() <= 1e-6 * fr.cost_before.max(1.0),
            "cost accounting violated at crash of {n:?}: after {} vs expected {expected}",
            fr.cost_after
        );
        out.lost += fr.lost.len();
        out.redeployed += fr.redeployed.len();
        out.parked += fr.unplaced.len() + fr.source_parked.len();
        out.recovery_cost_delta += fr.redeploy_cost_delta;
        out.repair_ms += repair.time_ms;
        report.redeployments += fr.redeployed.len();
        report.instantiation_failures += repair.instantiation_failures;
        report.protocol_retries += repair.retries;
        report.protocol_retry_ms += repair.retry_ms;
        let effect = if fr.last_member_forfeit {
            report.forfeited += fr.lost.len();
            dsq_obs::counter("chaos.forfeited", 1);
            CrashEffect::Forfeited
        } else {
            CrashEffect::Applied
        };
        report.lost.extend(fr.lost);
        effect
    }
}

/// What [`ChaosRunner::crash_one`] did with a crash.
enum CrashEffect {
    /// Node already dead — nothing to do.
    Skipped,
    /// Normal path: hierarchy repaired, queries replanned.
    Applied,
    /// Overlay at its floor: queries forfeited, structure kept.
    Forfeited,
}

/// Protocol-side bookkeeping for one recovery pass.
#[derive(Default)]
struct RepairTally {
    time_ms: f64,
    retries: usize,
    retry_ms: f64,
    instantiation_failures: usize,
}

/// Replan `q` and push the replacement through the lossy protocol; `None`
/// parks the query (either no feasible placement or the protocol exhausted
/// its retry budget mid-instantiation).
fn instantiate(
    env: &Environment,
    catalog: &Catalog,
    q: &Query,
    protocol: &mut LossyProtocol,
    tally: &mut RepairTally,
) -> Option<Deployment> {
    let (d, stats) = plan(env, catalog, q)?;
    let (t, delivered) = protocol.deployment_time(q.sink, &stats, &d);
    tally.retries += t.retries;
    tally.retry_ms += t.retry_ms;
    if delivered {
        tally.time_ms += t.total_ms();
        Some(d)
    } else {
        tally.instantiation_failures += 1;
        None
    }
}

/// Structural invariants that must hold after every event.
fn check_invariants(rt: &AdaptiveRuntime, tf: &TimedFault) {
    rt.env.hierarchy.check_invariants();
    for d in rt.deployments() {
        for &n in d.placement.iter().chain(std::iter::once(&d.sink)) {
            assert!(
                rt.env.hierarchy.is_active(n),
                "deployment of {:?} references inactive node {n:?} after {tf:?}",
                d.query
            );
        }
    }
}

/// End-of-run sanity on the final state.
fn check_invariants_final(rt: &AdaptiveRuntime) {
    rt.env.hierarchy.check_invariants();
    assert!(
        rt.env.hierarchy.active_nodes().len() >= OVERLAY_FLOOR,
        "overlay dropped below its floor"
    );
    let standing: f64 = rt.deployments().iter().map(|d| d.cost).sum();
    assert!(
        (standing - rt.total_cost()).abs() < 1e-9,
        "total_cost out of sync with deployments"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_net::TransitStubConfig;
    use dsq_workload::{WorkloadConfig, WorkloadGenerator};

    fn setup() -> (Environment, dsq_workload::Workload) {
        let net = TransitStubConfig::paper_64().generate(23).network;
        let env = Environment::build(net, 16);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 10,
                queries: 6,
                joins_per_query: 2..=3,
                ..WorkloadConfig::default()
            },
            71,
        )
        .generate(&env.network);
        (env, wl)
    }

    #[test]
    fn schedule_is_deterministic_and_keeps_two_nodes_up() {
        let (env, _) = setup();
        let cfg = FaultConfig {
            events: 60,
            ..FaultConfig::default()
        };
        let s1 = FaultSchedule::generate(&env, &cfg, 5);
        let s2 = FaultSchedule::generate(&env, &cfg, 5);
        assert_eq!(format!("{s1:?}"), format!("{s2:?}"));
        assert_eq!(s1.faults.len(), 60);
        // Replay the generator's bookkeeping: the scheduled crash set can
        // never take the population below 2.
        let mut population = env.hierarchy.active_nodes().len();
        for tf in &s1.faults {
            match &tf.fault {
                Fault::Crash(_) => population -= 1,
                Fault::CrashCluster(m) => population -= m.len(),
                Fault::Rejoin(_) => population += 1,
                Fault::DegradeLink { .. } => {}
            }
            assert!(population >= 2, "schedule underflows the overlay");
        }
    }

    #[test]
    fn schedule_mixes_fault_classes() {
        let (env, _) = setup();
        let cfg = FaultConfig {
            events: 80,
            ..FaultConfig::default()
        };
        let s = FaultSchedule::generate(&env, &cfg, 11);
        let crashes = s
            .faults
            .iter()
            .filter(|f| matches!(f.fault, Fault::Crash(_)))
            .count();
        let rejoins = s
            .faults
            .iter()
            .filter(|f| matches!(f.fault, Fault::Rejoin(_)))
            .count();
        let degrades = s
            .faults
            .iter()
            .filter(|f| matches!(f.fault, Fault::DegradeLink { .. }))
            .count();
        assert!(crashes > 0 && rejoins > 0 && degrades > 0);
        let times: Vec<f64> = s.faults.iter().map(|f| f.at_ms).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "times sorted");
    }

    #[test]
    fn chaos_run_reports_consistent_totals() {
        let (env, wl) = setup();
        let cfg = FaultConfig {
            events: 40,
            mean_gap_ms: 1_000.0,
            ..FaultConfig::default()
        };
        let schedule = FaultSchedule::generate(&env, &cfg, 3);
        let runner = ChaosRunner::default();
        let report = runner.run(env, &wl.catalog, &wl.queries, &schedule);
        assert_eq!(report.applied + report.skipped, 40);
        assert!(report.availability > 0.0 && report.availability <= 1.0 + 1e-12);
        assert_eq!(report.invariant_checks, 41);
        assert!(
            report.final_installed + report.final_parked + report.lost.len()
                <= report.installed_initially + report.redeployments
        );
    }

    #[test]
    fn chaos_report_is_deterministic() {
        let (env, wl) = setup();
        let cfg = FaultConfig {
            events: 30,
            ..FaultConfig::default()
        };
        let schedule = FaultSchedule::generate(&env, &cfg, 9);
        let runner = ChaosRunner {
            policy: RetryPolicy::lossy(0.15),
            protocol_seed: 4,
            ..ChaosRunner::default()
        };
        let r1 = runner.run(env.clone(), &wl.catalog, &wl.queries, &schedule);
        let r2 = runner.run(env, &wl.catalog, &wl.queries, &schedule);
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    }

    #[test]
    fn crashing_every_member_forfeits_instead_of_aborting() {
        // Handcrafted worst case the generator never emits: a schedule that
        // crashes every single overlay member. The runner must complete —
        // crashes at the two-member floor are recorded as `forfeited`
        // (`Environment::crash_node` refuses the removal) — rather than
        // panicking mid-run.
        let (env, wl) = setup();
        let all = env.hierarchy.active_nodes();
        let population = all.len();
        let faults = all
            .into_iter()
            .enumerate()
            .map(|(i, n)| TimedFault {
                at_ms: (i as f64 + 1.0) * 100.0,
                fault: Fault::Crash(n),
            })
            .collect();
        let schedule = FaultSchedule { faults };
        let runner = ChaosRunner::default();
        let report = runner.run(env, &wl.catalog, &wl.queries, &schedule);
        assert_eq!(report.applied + report.skipped, population);
        assert_eq!(
            report
                .events
                .iter()
                .filter(|e| e.kind == "forfeited")
                .count(),
            2,
            "the last two crashes hit the floor and must be forfeited"
        );
        // Every query ended somewhere: nothing standing (every sink died at
        // some point), so the population splits exactly into lost + parked.
        assert_eq!(report.final_installed, 0);
        assert_eq!(
            report.lost.len() + report.final_parked,
            report.installed_initially
        );
    }

    #[test]
    fn cache_and_invalidation_mode_do_not_change_outcomes() {
        // The memoized subplan cache (and how it is retired) is a pure
        // performance artifact: a run with the cache off, one with scoped
        // retirement and one with full flushes must agree on every event
        // outcome, every cost bit and every protocol timing.
        let (env, wl) = setup();
        let cfg = FaultConfig {
            events: 30,
            mean_gap_ms: 1_000.0,
            ..FaultConfig::default()
        };
        let schedule = FaultSchedule::generate(&env, &cfg, 9);
        let run = |cache: bool, invalidation: InvalidationMode| {
            let runner = ChaosRunner {
                cache,
                invalidation,
                ..ChaosRunner::default()
            };
            let mut r = runner.run(env.clone(), &wl.catalog, &wl.queries, &schedule);
            // Cache accounting legitimately differs across the arms.
            r.cache_hits = 0;
            r.cache_misses = 0;
            r.cache_retired = 0;
            r
        };
        let off = run(false, InvalidationMode::Scoped);
        let scoped = run(true, InvalidationMode::Scoped);
        let flush = run(true, InvalidationMode::Flush);
        assert_eq!(format!("{off:?}"), format!("{scoped:?}"));
        assert_eq!(format!("{off:?}"), format!("{flush:?}"));
    }

    #[test]
    fn reliable_protocol_never_fails_instantiation() {
        let (env, wl) = setup();
        let cfg = FaultConfig {
            events: 30,
            degrade_weight: 0.0,
            ..FaultConfig::default()
        };
        let schedule = FaultSchedule::generate(&env, &cfg, 13);
        let runner = ChaosRunner {
            policy: RetryPolicy::reliable(),
            protocol_seed: 2,
            ..ChaosRunner::default()
        };
        let report = runner.run(env, &wl.catalog, &wl.queries, &schedule);
        assert_eq!(report.instantiation_failures, 0);
        assert_eq!(report.protocol_retries, 0);
        assert_eq!(report.protocol_retry_ms, 0.0);
    }
}
