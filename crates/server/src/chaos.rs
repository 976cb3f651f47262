//! Service-level fault injection: seeded request scripts with interleaved
//! faults, seeded kill-and-recover schedules that crash the service at
//! chosen journal lengths and restart it through recovery, and the chaos
//! runner.
//!
//! The paper argues the virtual hierarchy "is robust enough to adapt as
//! necessary" under node churn (Section 2.1.1) — this module turns that
//! claim into a repeatable experiment. A seeded [`FaultSchedule`] produces
//! a timeline of independent crashes, *correlated* failures (an entire
//! level-1 cluster — the overlay image of a stub domain — going dark at
//! once), node recoveries that rejoin through the membership protocol, and
//! link-cost degradations. Each scheduled fault maps to protocol fault
//! reports once
//! ([`fault_reports`]), for the scripts and the runner alike. Everything is
//! a pure function of the seeds: the same config produces the same script,
//! the same kill points and (the property `tests/recovery.rs` drives) the
//! same final service state whether or not the process died along the way.
//!
//! [`ChaosRunner`] replays a schedule against an in-memory
//! [`ServiceCore`] built over the caller's environment and catalog: each
//! timed fault becomes its fault reports and one drain, every deployment
//! the drain adopts is instantiated over the lossy protocol of
//! [`dsq_sim::emulab::LossyProtocol`] (a failed instantiation parks the
//! slot for the next drain), structural invariants are checked after every
//! event, and availability, repair times and recovery cost inflation are
//! reported in a deterministic [`ChaosReport`].

use std::collections::BTreeMap;
use std::path::Path;

use dsq_core::{Environment, InvalidationMode, OVERLAY_FLOOR};
use dsq_net::NodeId;
use dsq_query::{Catalog, Deployment, Query, QueryId};
use dsq_sim::emulab::{EmulabModel, LossyProtocol, RetryPolicy};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::config::ServiceConfig;
use crate::journal::JournalEntry;
use crate::protocol::FaultReq;
use crate::service::PlanningService;
use crate::state::{DrainSummary, ServiceCore, SlotStatus};

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
    /// around damage).
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
    /// consumers re-validate every event anyway, because the service can
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

/// Decorrelates the script RNG from the fault-schedule RNG (the same
/// constant `dsq-fuzz` uses for its schedule stream).
const SCRIPT_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Knobs for [`generate_script`].
#[derive(Clone, Debug)]
pub struct ScriptConfig {
    /// Seed for the script and the fault schedule.
    pub seed: u64,
    /// Queries registered over the run.
    pub queries: usize,
    /// Streams joined per query (2..=cap, clamped to the catalog).
    pub max_sources: usize,
    /// Forced replans sprinkled over registered queries.
    pub replans: usize,
    /// Unregistrations sprinkled over registered queries.
    pub unregisters: usize,
    /// Mutating requests per drain wave.
    pub batch: usize,
    /// Read-only probes (`query` / every fourth a `stats`) sprinkled over
    /// the timeline. Reads are never journaled, so they do not shift crash
    /// schedules; they pin response-level state (slot status, epochs,
    /// counters) across recovery. 0 (the default) consumes no RNG draws,
    /// keeping scripts from older configs byte-identical.
    pub reads: usize,
    /// Fault-timeline knobs (the same schedule generator the chaos runner
    /// replays).
    pub faults: FaultConfig,
}

impl Default for ScriptConfig {
    fn default() -> Self {
        ScriptConfig {
            seed: 42,
            queries: 6,
            max_sources: 3,
            replans: 3,
            unregisters: 1,
            batch: 4,
            reads: 0,
            faults: FaultConfig {
                events: 6,
                mean_gap_ms: 500.0,
                ..FaultConfig::default()
            },
        }
    }
}

/// Generate a deterministic JSONL request script: registrations, replans
/// and unregistrations interleaved by virtual time with the seeded fault
/// timeline, a drain after every `batch` mutations, and a final drain.
pub fn generate_script(cfg: &ServiceConfig, script: &ScriptConfig) -> Vec<String> {
    let (env, catalog) = cfg.build();
    let schedule = FaultSchedule::generate(&env, &script.faults, script.seed);
    let mut rng = ChaCha8Rng::seed_from_u64(script.seed ^ SCRIPT_STREAM);
    let horizon = schedule
        .faults
        .last()
        .map(|f| f.at_ms.ceil() as u64 + 1)
        .max(Some(1_000))
        .unwrap();

    // (time, sequence, request-JSON) — sequence keeps ties stable.
    let mut timeline: Vec<(u64, usize, String)> = Vec::new();
    let mut seq = 0usize;
    let mut push = |timeline: &mut Vec<(u64, usize, String)>, t: u64, line: String| {
        timeline.push((t, seq, line));
        seq += 1;
    };

    let mut ids: Vec<u32> = Vec::new();
    for q in 0..script.queries {
        let id = q as u32 + 1;
        let t = rng.gen_range(0..horizon);
        let n_src = rng
            .gen_range(2..=script.max_sources.max(2))
            .min(catalog.len());
        let mut sources: Vec<u32> = Vec::new();
        while sources.len() < n_src {
            let s = rng.gen_range(0..catalog.len() as u32);
            if !sources.contains(&s) {
                sources.push(s);
            }
        }
        let sink = rng.gen_range(0..env.network.len() as u32);
        let src_list: Vec<String> = sources.iter().map(u32::to_string).collect();
        push(
            &mut timeline,
            t,
            format!(
                r#"{{"op":"register","id":{id},"sources":[{}],"sink":{sink},"at_ms":{t}}}"#,
                src_list.join(",")
            ),
        );
        ids.push(id);
    }
    for _ in 0..script.replans {
        let id = ids[rng.gen_range(0..ids.len())];
        let t = rng.gen_range(horizon / 2..horizon);
        push(
            &mut timeline,
            t,
            format!(r#"{{"op":"replan","id":{id},"at_ms":{t}}}"#),
        );
    }
    for _ in 0..script.unregisters.min(ids.len()) {
        let id = ids[rng.gen_range(0..ids.len())];
        let t = rng.gen_range(horizon / 2..horizon);
        push(
            &mut timeline,
            t,
            format!(r#"{{"op":"unregister","id":{id},"at_ms":{t}}}"#),
        );
    }
    for r in 0..script.reads {
        let t = rng.gen_range(0..horizon);
        if r % 4 == 3 || ids.is_empty() {
            push(&mut timeline, t, r#"{"op":"stats"}"#.to_string());
        } else {
            let id = ids[rng.gen_range(0..ids.len())];
            push(&mut timeline, t, format!(r#"{{"op":"query","id":{id}}}"#));
        }
    }
    for tf in &schedule.faults {
        let t = tf.at_ms.ceil() as u64;
        for fault in fault_reports(&tf.fault) {
            push(&mut timeline, t, fault_line(&fault, t));
        }
    }

    timeline.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.cmp(&y.1)));
    let mut lines = Vec::new();
    let mut since_drain = 0usize;
    let mut last_t = 0u64;
    for (t, _, line) in timeline {
        lines.push(line);
        last_t = last_t.max(t);
        since_drain += 1;
        if since_drain >= script.batch.max(1) {
            last_t += 1;
            lines.push(format!(r#"{{"op":"drain","at_ms":{last_t}}}"#));
            since_drain = 0;
        }
    }
    last_t += 1;
    lines.push(format!(r#"{{"op":"drain","at_ms":{last_t}}}"#));
    lines
}

/// The fault reports one scheduled fault becomes: one crash per member of
/// a correlated failure, and a link factor in thousandths (at least 1).
pub fn fault_reports(fault: &Fault) -> Vec<FaultReq> {
    match fault {
        Fault::Crash(n) => vec![FaultReq::Crash(n.0)],
        Fault::CrashCluster(nodes) => nodes.iter().map(|n| FaultReq::Crash(n.0)).collect(),
        Fault::Rejoin(n) => vec![FaultReq::Rejoin(n.0)],
        Fault::DegradeLink { a, b, factor } => vec![FaultReq::Degrade {
            a: a.0,
            b: b.0,
            factor_milli: ((factor * 1000.0).round() as u64).max(1),
        }],
    }
}

/// One fault report as a protocol request line.
fn fault_line(fault: &FaultReq, t: u64) -> String {
    let body = match fault {
        FaultReq::Crash(n) => format!(r#""kind":"crash","node":{n}"#),
        FaultReq::Rejoin(n) => format!(r#""kind":"rejoin","node":{n}"#),
        FaultReq::Degrade { a, b, factor_milli } => {
            format!(r#""kind":"degrade","a":{a},"b":{b},"factor_milli":{factor_milli}"#)
        }
    };
    format!(r#"{{"op":"fault",{body},"at_ms":{t}}}"#)
}

/// A seeded crash/restart schedule: after which journal lengths to kill
/// the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashSchedule {
    /// Kill points, as journal entry counts, strictly increasing.
    pub kill_at: Vec<usize>,
}

impl CrashSchedule {
    /// Pick `kills` distinct kill points within a journal of
    /// `journal_len` entries.
    pub fn generate(seed: u64, journal_len: usize, kills: usize) -> CrashSchedule {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut kill_at: Vec<usize> = Vec::new();
        let mut attempts = 0;
        while kill_at.len() < kills && attempts < kills * 20 && journal_len > 0 {
            let k = rng.gen_range(1..=journal_len);
            if !kill_at.contains(&k) {
                kill_at.push(k);
            }
            attempts += 1;
        }
        kill_at.sort_unstable();
        CrashSchedule { kill_at }
    }

    /// Every possible kill point (exhaustive crash-recovery sweeps).
    pub fn exhaustive(journal_len: usize) -> CrashSchedule {
        CrashSchedule {
            kill_at: (1..=journal_len).collect(),
        }
    }
}

/// What a chaos run produced.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// One response line per request line.
    pub responses: Vec<String>,
    /// Kill-and-recover cycles actually executed.
    pub kills: usize,
    /// Final plan epoch.
    pub final_epoch: u64,
    /// Final state fingerprint ([`crate::state::ServiceCore::fingerprint`]).
    pub fingerprint: String,
}

/// Run a script against an in-memory service (the uncrashed reference).
pub fn run_plain(cfg: &ServiceConfig, lines: &[String]) -> std::io::Result<ChaosOutcome> {
    let mut svc = PlanningService::new(cfg.clone(), None)?;
    let responses = lines.iter().map(|l| svc.submit_line(l)).collect();
    Ok(ChaosOutcome {
        responses,
        kills: 0,
        final_epoch: svc.core().epoch,
        fingerprint: svc.fingerprint(),
    })
}

/// Run a script against a journaled service, killing the process state and
/// recovering from disk every time the journal reaches the next kill
/// point. The outcome's fingerprint must equal the uncrashed run's — that
/// is the crash-recovery contract.
pub fn run_with_crashes(
    cfg: &ServiceConfig,
    lines: &[String],
    schedule: &CrashSchedule,
    journal_path: &Path,
) -> Result<ChaosOutcome, String> {
    let mut svc = PlanningService::new(cfg.clone(), Some(journal_path))
        .map_err(|e| format!("cannot start journaled service: {e}"))?;
    let mut kill_iter = schedule.kill_at.iter().copied().peekable();
    let mut kills = 0usize;
    let mut responses = Vec::with_capacity(lines.len());
    for line in lines {
        responses.push(svc.submit_line(line));
        while kill_iter.peek().is_some_and(|&k| svc.journal_len() >= k) {
            kill_iter.next();
            drop(svc); // the "crash": all in-memory state is gone
            svc = PlanningService::recover_from_path(journal_path)?;
            kills += 1;
        }
    }
    Ok(ChaosOutcome {
        responses,
        kills,
        final_epoch: svc.core().epoch,
        fingerprint: svc.fingerprint(),
    })
}

/// Register `queries` (plain joins: the journal carries sources and sink
/// only) and plan them in one drain at time 0.
pub fn install(core: &mut ServiceCore, queries: &[Query]) -> DrainSummary {
    let batch: Vec<JournalEntry> = queries
        .iter()
        .map(|q| {
            assert!(
                q.selections.is_empty(),
                "a service registration carries no selections"
            );
            JournalEntry::Register {
                id: q.id.0,
                sources: q.sources.iter().map(|s| s.0).collect(),
                sink: q.sink.0,
                deadline_ms: None,
                at_ms: 0,
            }
        })
        .collect();
    core.drain(&batch, 0)
}

/// What one applied fault did to the service.
#[derive(Clone, Debug, Default)]
pub struct EventOutcome {
    /// Injection time of the fault.
    pub at_ms: f64,
    /// Short class tag: `crash`, `crash-cluster`, `rejoin`, `degrade-link`,
    /// `forfeited` (a crash hit the overlay's two-member floor, so the
    /// victim's queries were given up without hierarchy surgery) or
    /// `skipped`.
    pub kind: &'static str,
    /// Queries lost to this event (sink on a dead node, or forfeited).
    pub lost: usize,
    /// Queries this event's drain gave a new deployment that the lossy
    /// protocol instantiated (repairs, un-parkings and cheaper replans).
    pub redeployed: usize,
    /// Queries newly parked by this event (a source origin went down, no
    /// feasible placement, or the lossy protocol gave up instantiating the
    /// replacement).
    pub parked: usize,
    /// `Σ (new − old)` cost over this event's redeployments of queries that
    /// were planned before it, the old deployment re-costed over the
    /// event's distances: how much more expensive the replacements are
    /// than what they replace.
    pub recovery_cost_delta: f64,
    /// Protocol time spent instantiating this event's redeployments
    /// (transit + planning + timeout waits), in simulated ms.
    pub repair_ms: f64,
}

/// Aggregate result of a chaos run. Fully determined by the schedule seed,
/// the protocol seed and the workload — two runs with identical inputs
/// produce identical reports.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Per-event outcomes, in schedule order (skipped events included).
    pub events: Vec<EventOutcome>,
    /// Events that changed service state.
    pub applied: usize,
    /// Events skipped as inapplicable (already-dead node, live node
    /// rejoining, unknown link).
    pub skipped: usize,
    /// Queries planned when the run started.
    pub installed_initially: usize,
    /// Queries lost over the whole run, in the order they were lost.
    pub lost: Vec<QueryId>,
    /// Successful redeployments over the whole run.
    pub redeployments: usize,
    /// New deployments the lossy protocol failed to instantiate (the query
    /// was parked, not dropped).
    pub instantiation_failures: usize,
    /// Queries forfeited because a crash hit the overlay's two-member
    /// floor ([`OVERLAY_FLOOR`]): the node's machine is gone but its
    /// membership slot cannot be excised, so its queries are lost without
    /// replanning.
    pub forfeited: usize,
    /// Queries planned when the run ended.
    pub final_installed: usize,
    /// Queries parked when the run ended.
    pub final_parked: usize,
    /// Time-weighted fraction of the initial query population that was
    /// planned over the run (1.0 = no query ever down).
    pub availability: f64,
    /// Mean protocol time to re-instantiate service after a fault, over
    /// the events that redeployed, in simulated ms.
    pub mttr_ms: f64,
    /// Total protocol retransmissions across the run.
    pub protocol_retries: usize,
    /// Total timeout time burned by the lossy protocol, in simulated ms.
    pub protocol_retry_ms: f64,
    /// Invariant suites evaluated (one per event, plus one final).
    pub invariant_checks: usize,
    /// Subplan-cache hits across the whole run (initial install + every
    /// drain). Zero when the service's cache is off.
    pub cache_hits: u64,
    /// Subplan-cache misses across the whole run.
    pub cache_misses: u64,
    /// Memoized subplans retired over the run — scoped dirty sets under
    /// [`InvalidationMode::Scoped`], whole-cache flushes as well under
    /// [`InvalidationMode::Flush`].
    pub cache_retired: u64,
    /// Queries the fault drains (re)planned: first plans after a repair or
    /// an un-parking, and replans of planned queries.
    pub queries_replanned: u64,
    /// Standing cost when the run started.
    pub cost_initial: f64,
    /// Standing cost when the run ended.
    pub cost_final: f64,
    /// Simulated duration (time of the last event).
    pub duration_ms: f64,
}

/// Drives an in-memory [`ServiceCore`] through a [`FaultSchedule`]: each
/// timed fault becomes its fault reports and one drain, and every
/// deployment a drain adopts is instantiated over the lossy protocol.
#[derive(Clone, Debug)]
pub struct ChaosRunner {
    /// Retry policy of the deployment protocol.
    pub policy: RetryPolicy,
    /// Seed of the protocol's loss process.
    pub protocol_seed: u64,
    /// The service's lifecycle knobs (degradation threshold, cache, replan
    /// and advert budgets); every other field must keep its default, since
    /// the caller supplies the world ([`ServiceCore::over`] panics
    /// otherwise). The runner always swaps a fresh private cache
    /// into the environment ([`Environment::isolate_cache`]), so reports
    /// stay deterministic even when the caller's environment clones share
    /// a warmed one.
    pub service: ServiceConfig,
    /// [`InvalidationMode::Flush`] drops the whole subplan cache after
    /// every event: the always-sound reference arm the differential checks
    /// compare scoped retirement against.
    pub invalidation: InvalidationMode,
}

impl Default for ChaosRunner {
    fn default() -> Self {
        ChaosRunner {
            policy: RetryPolicy::lossy(0.1),
            protocol_seed: 1,
            service: ServiceConfig::default(),
            invalidation: InvalidationMode::Scoped,
        }
    }
}

/// Number of planned slots.
fn planned(core: &ServiceCore) -> usize {
    core.slots
        .values()
        .filter(|s| s.status == SlotStatus::Planned)
        .count()
}

/// Sum of the planned slots' costs.
fn standing_cost(core: &ServiceCore) -> f64 {
    core.slots
        .values()
        .filter_map(|s| s.deployment.as_ref())
        .map(|d| d.cost)
        .sum()
}

impl ChaosRunner {
    /// Install `queries` into a fresh service over `env` and `catalog`
    /// and run the whole schedule, checking invariants after every event.
    /// Panics (with the offending event in the message) on any invariant
    /// violation — this is a test harness, not production error handling.
    pub fn run(
        &self,
        mut env: Environment,
        catalog: &Catalog,
        queries: &[Query],
        schedule: &FaultSchedule,
    ) -> ChaosReport {
        env.isolate_cache(self.service.cache);
        let model = EmulabModel::new(&env.network);
        let mut protocol = LossyProtocol::new(model, self.policy, self.protocol_seed);
        let mut core = ServiceCore::over(self.service.clone(), env, catalog.clone());
        install(&mut core, queries);
        self.flush_if_reference_arm(&core);
        let mut report = ChaosReport {
            installed_initially: planned(&core),
            cost_initial: standing_cost(&core),
            ..Default::default()
        };
        assert!(
            report.installed_initially > 0,
            "chaos run needs at least one installed query"
        );

        let mut live_time = 0.0; // ∫ live(t) dt
        let mut prev_t = 0.0;
        for tf in &schedule.faults {
            live_time += planned(&core) as f64 * (tf.at_ms - prev_t);
            prev_t = tf.at_ms;
            let outcome = self.apply(&mut core, &mut protocol, tf, &mut report);
            self.flush_if_reference_arm(&core);
            if dsq_obs::enabled() {
                dsq_obs::counter(&format!("chaos.event.{}", outcome.kind), 1);
            }
            if outcome.kind == "skipped" {
                report.skipped += 1;
            } else {
                report.applied += 1;
            }
            report.events.push(outcome);
            check_invariants(&core, tf);
            report.invariant_checks += 1;
        }
        check_invariants_final(&core);
        report.invariant_checks += 1;

        report.duration_ms = prev_t;
        report.availability = if prev_t > 0.0 {
            live_time / (prev_t * report.installed_initially as f64)
        } else {
            planned(&core) as f64 / report.installed_initially as f64
        };
        report.final_installed = planned(&core);
        report.final_parked = core
            .slots
            .values()
            .filter(|s| s.status == SlotStatus::Parked)
            .count();
        report.cost_final = standing_cost(&core);
        report.cache_hits = core.env.plan_cache.hits();
        report.cache_misses = core.env.plan_cache.misses();
        report.cache_retired = core.env.plan_cache.retired();
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

    /// The reference arm's one difference: after every event, drop
    /// whatever the scoped retirement left in the cache.
    fn flush_if_reference_arm(&self, core: &ServiceCore) {
        if self.invalidation == InvalidationMode::Flush {
            core.env.plan_cache.invalidate();
        }
    }

    /// Apply one fault as its fault reports plus one drain, then push every
    /// deployment the drain adopted through the lossy protocol.
    fn apply(
        &self,
        core: &mut ServiceCore,
        protocol: &mut LossyProtocol,
        tf: &TimedFault,
        report: &mut ChaosReport,
    ) -> EventOutcome {
        let mut out = EventOutcome {
            at_ms: tf.at_ms,
            kind: "skipped",
            ..Default::default()
        };
        let active = |core: &ServiceCore, n: NodeId| core.env.hierarchy.is_active(n);
        let victims: Vec<NodeId> = match &tf.fault {
            Fault::Crash(n) => std::slice::from_ref(n),
            Fault::CrashCluster(members) => members.as_slice(),
            _ => &[],
        }
        .iter()
        .copied()
        .filter(|&n| active(core, n))
        .collect();
        let applicable = match &tf.fault {
            Fault::Crash(_) | Fault::CrashCluster(_) => !victims.is_empty(),
            Fault::Rejoin(n) => !active(core, *n),
            Fault::DegradeLink { a, b, .. } => core.env.network.find_link(*a, *b).is_some(),
        };
        let before: BTreeMap<u32, (SlotStatus, Option<Deployment>)> = core
            .slots
            .iter()
            .map(|(&id, s)| (id, (s.status, s.deployment.clone())))
            .collect();

        let t = tf.at_ms.ceil() as u64;
        let batch: Vec<JournalEntry> = fault_reports(&tf.fault)
            .into_iter()
            .map(|fault| JournalEntry::Fault { fault, at_ms: t })
            .collect();
        let summary = core.drain(&batch, t);
        report.queries_replanned += (summary.planned + summary.replanned) as u64;

        let adopted: Vec<u32> = summary.adopted.iter().map(|(id, _)| *id).collect();
        let mut taken_down = 0.0;
        for (id, stats) in summary.adopted {
            let slot = &core.slots[&id];
            let d = slot
                .deployment
                .as_ref()
                .expect("an adopted slot is planned");
            let (time, delivered) = protocol.deployment_time(slot.query.sink, &stats, d);
            report.protocol_retries += time.retries;
            report.protocol_retry_ms += time.retry_ms;
            if delivered {
                out.redeployed += 1;
                out.repair_ms += time.total_ms();
                if let Some(old) = &before[&id].1 {
                    let mut replaced = old.clone();
                    replaced.recompute_cost(&core.env.dm);
                    out.recovery_cost_delta += d.cost - replaced.cost;
                }
            } else {
                report.instantiation_failures += 1;
                taken_down += d.cost;
                park(core, id);
            }
        }
        report.redeployments += out.redeployed;

        // Cost accounting: the standing cost is the drain's total less what
        // failed instantiations took down, and every plan the drain kept is
        // its old plan re-costed over the event's distances.
        let standing = standing_cost(core);
        let expected = summary.total_cost - taken_down;
        assert!(
            (standing - expected).abs() <= 1e-9 * summary.total_cost.abs().max(1.0),
            "cost accounting violated after {tf:?}: standing {standing} vs expected {expected}"
        );
        for (id, slot) in &core.slots {
            let (Some(d), Some(old)) = (&slot.deployment, &before[id].1) else {
                continue;
            };
            if !adopted.contains(id) {
                let mut kept = old.clone();
                kept.recompute_cost(&core.env.dm);
                assert!(
                    d.placement == kept.placement && d.cost.to_bits() == kept.cost.to_bits(),
                    "slot {id} changed its plan without adopting one after {tf:?}"
                );
            }
        }

        let mut forfeited = 0;
        for (&id, slot) in &core.slots {
            let was = before[&id].0;
            if slot.status == SlotStatus::Lost && was != SlotStatus::Lost {
                out.lost += 1;
                report.lost.push(QueryId(id));
                // A sink that is still a member was not excised: the query
                // was forfeited at the overlay floor.
                if active(core, slot.query.sink) {
                    forfeited += 1;
                }
            }
            if slot.status == SlotStatus::Parked && was != SlotStatus::Parked {
                out.parked += 1;
            }
        }
        report.forfeited += forfeited;
        if !applicable {
            return out;
        }
        out.kind = match &tf.fault {
            Fault::Crash(_) | Fault::CrashCluster(_) => {
                let excised = victims.iter().any(|&n| !active(core, n));
                if !excised {
                    dsq_obs::counter("chaos.forfeited", 1);
                    "forfeited"
                } else if matches!(tf.fault, Fault::Crash(_)) {
                    "crash"
                } else {
                    "crash-cluster"
                }
            }
            Fault::Rejoin(_) => "rejoin",
            Fault::DegradeLink { .. } => "degrade-link",
        };
        out
    }
}

/// Park a planned slot whose new deployment failed to instantiate: it
/// serves nothing, its adverts retire, and the next drain retries it.
fn park(core: &mut ServiceCore, id: u32) {
    core.unplace(id);
    let slot = core.slots.get_mut(&id).expect("a drained slot");
    slot.status = SlotStatus::Parked;
    slot.baseline_cost = 0.0;
    core.registry.retire_query(QueryId(id));
}

/// Structural invariants that must hold after every event.
fn check_invariants(core: &ServiceCore, tf: &TimedFault) {
    core.env.hierarchy.check_invariants();
    for (id, slot) in &core.slots {
        assert_eq!(
            slot.deployment.is_some(),
            slot.status == SlotStatus::Planned,
            "slot {id} is {:?} with deployment {:?} after {tf:?}",
            slot.status,
            slot.deployment.as_ref().map(|d| d.cost)
        );
        assert!(
            !slot.dirty || slot.status != SlotStatus::Planned || slot.stale,
            "slot {id} was left dirty by an unbudgeted drain after {tf:?}"
        );
        if let Some(d) = &slot.deployment {
            for &n in d.placement.iter().chain(std::iter::once(&d.sink)) {
                assert!(
                    core.env.hierarchy.is_active(n),
                    "deployment of {:?} references inactive node {n:?} after {tf:?}",
                    d.query
                );
            }
        }
    }
}

/// End-of-run sanity on the final state.
fn check_invariants_final(core: &ServiceCore) {
    core.env.hierarchy.check_invariants();
    assert!(
        core.env.hierarchy.active_nodes().len() >= OVERLAY_FLOOR,
        "overlay dropped below its floor"
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
    fn scripts_are_deterministic_and_parse() {
        let cfg = ServiceConfig::default();
        let script = ScriptConfig::default();
        let a = generate_script(&cfg, &script);
        let b = generate_script(&cfg, &script);
        assert_eq!(a, b);
        assert!(a.len() > script.queries);
        for line in &a {
            crate::protocol::Request::parse(line).unwrap();
        }
        assert!(a.last().unwrap().contains("\"op\":\"drain\""));
    }

    #[test]
    fn crash_schedules_are_seeded_and_bounded() {
        let s = CrashSchedule::generate(7, 20, 4);
        assert_eq!(s, CrashSchedule::generate(7, 20, 4));
        assert!(s.kill_at.len() <= 4);
        assert!(s.kill_at.windows(2).all(|w| w[0] < w[1]));
        assert!(s.kill_at.iter().all(|&k| (1..=20).contains(&k)));
        assert_eq!(CrashSchedule::exhaustive(3).kill_at, vec![1, 2, 3]);
    }

    #[test]
    fn killed_and_recovered_run_matches_the_uncrashed_run() {
        let cfg = ServiceConfig::default();
        let script = ScriptConfig {
            queries: 4,
            faults: FaultConfig {
                events: 4,
                mean_gap_ms: 300.0,
                ..FaultConfig::default()
            },
            ..ScriptConfig::default()
        };
        let lines = generate_script(&cfg, &script);
        let reference = run_plain(&cfg, &lines).unwrap();
        let dir = std::env::temp_dir().join(format!("dsq-chaos-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chaos.journal");
        let schedule = CrashSchedule::generate(9, lines.len(), 3);
        let crashed = run_with_crashes(&cfg, &lines, &schedule, &path).unwrap();
        assert!(crashed.kills > 0);
        assert_eq!(crashed.fingerprint, reference.fingerprint);
        assert_eq!(crashed.final_epoch, reference.final_epoch);
        assert_eq!(crashed.responses, reference.responses);
        std::fs::remove_dir_all(&dir).ok();
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
                service: ServiceConfig {
                    cache,
                    ..ServiceConfig::default()
                },
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
}
