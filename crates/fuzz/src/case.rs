//! A fuzz case: the complete, self-contained recipe for one random
//! instance — topology shape, hierarchy granularity, workload mix and
//! fault schedule — plus the shrinker's keep-masks.
//!
//! A case is pure data. [`FuzzCase::build`] materializes it into an
//! [`Instance`] deterministically (everything downstream is seeded), so a
//! case file alone reproduces a failure bit-for-bit. The text form is a
//! [`dsq_obs::kv`] document, the one definition of the `key = value`
//! format, stable enough to check into `tests/regressions/`.

use dsq_core::Environment;
use dsq_net::TransitStubConfig;
use dsq_obs::kv::{self, Field};
use dsq_server::chaos::{FaultConfig, FaultSchedule};
use dsq_workload::{Workload, WorkloadConfig, WorkloadGenerator};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// One self-contained fuzz instance recipe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzCase {
    /// Seed driving topology, workload and schedule generation.
    pub seed: u64,
    /// Transit domains of the transit-stub topology.
    pub transit_domains: usize,
    /// Transit nodes per transit domain.
    pub transit_nodes_per_domain: usize,
    /// Stub domains per transit node.
    pub stub_domains_per_transit_node: usize,
    /// Nodes per stub domain.
    pub stub_nodes_per_domain: usize,
    /// Hierarchy cluster-size cap.
    pub max_cs: usize,
    /// Base streams in the catalog.
    pub streams: usize,
    /// Queries generated (before the keep-mask).
    pub queries: usize,
    /// Minimum joins per query.
    pub joins_lo: usize,
    /// Maximum joins per query.
    pub joins_hi: usize,
    /// Zipf skew of the source draw, in thousandths (0 = uniform).
    pub skew_milli: u64,
    /// Fault-schedule events generated (before the keep-mask).
    pub events: usize,
    /// Deployment-protocol drop probability, in thousandths.
    pub drop_milli: u64,
    /// Reuse-registry advert budget the reuse oracle runs its bounded arm
    /// under (`0` = use the oracle's default small budget). Also forwarded
    /// to the service configuration of service-mode cases.
    pub advert_budget: usize,
    /// Query indexes kept by the shrinker (`None` = all).
    pub keep_queries: Option<Vec<usize>>,
    /// Fault-event indexes kept by the shrinker (`None` = all).
    pub keep_events: Option<Vec<usize>>,
    /// Canonicalize the generated statistics: round every stream rate and
    /// pairwise selectivity to one significant digit after generation.
    /// Set by the shrinker so minimized repros carry round numbers; the
    /// oracle re-check keeps the substitution sound.
    pub round_stats: bool,
    /// Service mode: the case additionally generates a request script plus
    /// a crash schedule and runs the `CheckId::Service` differential
    /// (uncrashed vs crashed-and-recovered vs journal-only replay). All
    /// `svc_*` fields below are meaningful only when this is set; a case
    /// with `service` off is byte-identical to a pre-service case.
    pub service: bool,
    /// Queries registered by the service script.
    pub svc_queries: usize,
    /// Forced replans in the script.
    pub svc_replans: usize,
    /// Unregistrations in the script.
    pub svc_unregisters: usize,
    /// Mutating requests per drain wave.
    pub svc_batch: usize,
    /// Read-only probes (`query`/`stats`) in the script.
    pub svc_reads: usize,
    /// Fault events on the script's fault timeline.
    pub svc_events: usize,
    /// Admission bound on queued mutating requests (small values force
    /// shedding, which is exactly the accounting the oracle checks).
    pub svc_max_queue: usize,
    /// Replans per drain wave before stale serving (0 = unbounded).
    pub svc_replan_budget: usize,
    /// Default per-request deadline at drain time (0 = none).
    pub svc_deadline_ms: u64,
    /// Snapshot every N drains in the crashed arm (0 = never).
    pub svc_snapshot_every: usize,
    /// Crash points drawn for the crash schedule.
    pub svc_kills: usize,
    /// Script line indexes kept by the shrinker (`None` = all).
    pub keep_requests: Option<Vec<usize>>,
    /// Crash-point indexes kept by the shrinker (`None` = all).
    pub keep_kills: Option<Vec<usize>>,
}

/// A materialized case: environment, workload and fault schedule.
pub struct Instance {
    /// Fresh environment (private cache, all nodes active).
    pub env: Environment,
    /// Catalog plus the (keep-masked) query batch.
    pub workload: Workload,
    /// The (keep-masked) fault timeline.
    pub schedule: FaultSchedule,
}

impl Default for FuzzCase {
    /// The parse-time defaults: the smallest valid planner case, service
    /// mode off, service knobs at the values a hand-written service case
    /// most likely wants.
    fn default() -> FuzzCase {
        FuzzCase {
            seed: 0,
            transit_domains: 1,
            transit_nodes_per_domain: 1,
            stub_domains_per_transit_node: 1,
            stub_nodes_per_domain: 2,
            max_cs: 4,
            streams: 4,
            queries: 1,
            joins_lo: 1,
            joins_hi: 2,
            skew_milli: 0,
            events: 0,
            drop_milli: 0,
            advert_budget: 0,
            keep_queries: None,
            keep_events: None,
            round_stats: false,
            service: false,
            svc_queries: 4,
            svc_replans: 2,
            svc_unregisters: 1,
            svc_batch: 4,
            svc_reads: 0,
            svc_events: 4,
            svc_max_queue: 4,
            svc_replan_budget: 0,
            svc_deadline_ms: 0,
            svc_snapshot_every: 0,
            svc_kills: 2,
            keep_requests: None,
            keep_kills: None,
        }
    }
}

impl FuzzCase {
    /// Like [`FuzzCase::sample`], but with probability `wide_milli`/1000
    /// the case instead draws a **wide** universe — queries joining 33+
    /// streams, past any one-word bitmask — exercising the engine's sparse
    /// reachable-set path and its typed `UniverseTooLarge` refusal — and
    /// with probability `service_milli`/1000 a **service** case carrying a
    /// request script and crash schedule. With both knobs 0 this is
    /// byte-identical to `sample` (the RNG is not consulted for either
    /// draw).
    pub fn sample_with(
        rng: &mut ChaCha8Rng,
        max_nodes: usize,
        wide_milli: u64,
        service_milli: u64,
    ) -> FuzzCase {
        if service_milli > 0 && rng.gen_bool((service_milli as f64 / 1000.0).min(1.0)) {
            return Self::sample_service(rng, max_nodes);
        }
        if wide_milli > 0 && rng.gen_bool((wide_milli as f64 / 1000.0).min(1.0)) {
            return Self::sample_wide(rng, max_nodes);
        }
        Self::sample(rng, max_nodes)
    }

    /// A service-mode case: a modest topology and planner workload (the
    /// planner checks still run, fast) plus a request script, admission
    /// knobs drawn small enough that shedding and budget-stale serving
    /// actually happen, and a seeded crash schedule.
    fn sample_service(rng: &mut ChaCha8Rng, max_nodes: usize) -> FuzzCase {
        loop {
            let joins_lo = rng.gen_range(1..=2);
            let joins_hi = rng.gen_range(joins_lo..=3);
            let case = FuzzCase {
                seed: rng.gen_range(0..u64::MAX),
                transit_domains: 1,
                transit_nodes_per_domain: rng.gen_range(1..=2),
                stub_domains_per_transit_node: rng.gen_range(1..=3),
                stub_nodes_per_domain: rng.gen_range(2..=5),
                max_cs: rng.gen_range(2..=8),
                streams: rng.gen_range(joins_hi + 2..=10),
                queries: rng.gen_range(1..=2),
                joins_lo,
                joins_hi,
                skew_milli: 0,
                events: rng.gen_range(0..=4),
                drop_milli: 0,
                service: true,
                svc_queries: rng.gen_range(1..=6),
                svc_replans: rng.gen_range(0..=3),
                svc_unregisters: rng.gen_range(0..=2),
                svc_batch: rng.gen_range(1..=5),
                svc_reads: rng.gen_range(0..=4),
                svc_events: rng.gen_range(0..=6),
                svc_max_queue: rng.gen_range(1..=8),
                svc_replan_budget: rng.gen_range(0..=3),
                svc_deadline_ms: if rng.gen_bool(0.5) {
                    0
                } else {
                    rng.gen_range(100..=2_000)
                },
                svc_snapshot_every: rng.gen_range(0..=3),
                svc_kills: rng.gen_range(0..=4),
                ..FuzzCase::default()
            };
            if case.total_nodes() <= max_nodes && case.total_nodes() >= 4 {
                return case;
            }
        }
    }

    /// A >32-atom universe case: one or two queries joining 33–40 streams.
    /// Kept lean elsewhere (no skew, no drops, few faults) so oracle time
    /// goes into the planning width, which is the point.
    fn sample_wide(rng: &mut ChaCha8Rng, max_nodes: usize) -> FuzzCase {
        loop {
            let joins_lo = rng.gen_range(32..=35);
            let joins_hi = rng.gen_range(joins_lo..=39);
            let case = FuzzCase {
                seed: rng.gen_range(0..u64::MAX),
                transit_domains: 1,
                transit_nodes_per_domain: rng.gen_range(1..=2),
                stub_domains_per_transit_node: rng.gen_range(1..=3),
                stub_nodes_per_domain: rng.gen_range(2..=6),
                max_cs: rng.gen_range(2..=6),
                streams: rng.gen_range(joins_hi + 1..=joins_hi + 8),
                queries: rng.gen_range(1..=2),
                joins_lo,
                joins_hi,
                skew_milli: 0,
                events: rng.gen_range(0..=6),
                drop_milli: 0,
                ..FuzzCase::default()
            };
            if case.total_nodes() <= max_nodes && case.total_nodes() >= 4 {
                return case;
            }
        }
    }

    /// Draw a random case from the generator ranges, keeping the topology
    /// under `max_nodes` total nodes.
    pub fn sample(rng: &mut ChaCha8Rng, max_nodes: usize) -> FuzzCase {
        loop {
            let joins_lo = rng.gen_range(1..=2);
            let joins_hi = rng.gen_range(joins_lo..=4);
            let case = FuzzCase {
                seed: rng.gen_range(0..u64::MAX),
                transit_domains: rng.gen_range(1..=2),
                transit_nodes_per_domain: rng.gen_range(1..=3),
                stub_domains_per_transit_node: rng.gen_range(1..=3),
                stub_nodes_per_domain: rng.gen_range(2..=6),
                max_cs: rng.gen_range(2..=12),
                streams: rng.gen_range(joins_hi + 2..=12),
                queries: rng.gen_range(1..=6),
                joins_lo,
                joins_hi,
                skew_milli: if rng.gen_bool(0.5) {
                    0
                } else {
                    rng.gen_range(500..=1500)
                },
                events: rng.gen_range(0..=12),
                drop_milli: if rng.gen_bool(0.5) {
                    0
                } else {
                    rng.gen_range(50..=200)
                },
                ..FuzzCase::default()
            };
            if case.total_nodes() <= max_nodes && case.total_nodes() >= 4 {
                return case;
            }
        }
    }

    /// Total node count of the case's topology.
    pub fn total_nodes(&self) -> usize {
        self.topology_config().total_nodes()
    }

    fn topology_config(&self) -> TransitStubConfig {
        TransitStubConfig {
            transit_domains: self.transit_domains,
            transit_nodes_per_domain: self.transit_nodes_per_domain,
            stub_domains_per_transit_node: self.stub_domains_per_transit_node,
            stub_nodes_per_domain: self.stub_nodes_per_domain,
            ..TransitStubConfig::default()
        }
    }

    /// Number of queries surviving the keep-mask.
    pub fn live_queries(&self) -> usize {
        self.keep_queries.as_ref().map_or(self.queries, |k| k.len())
    }

    /// Number of fault events surviving the keep-mask.
    pub fn live_events(&self) -> usize {
        self.keep_events.as_ref().map_or(self.events, |k| k.len())
    }

    /// Materialize the case. Deterministic: two builds of the same case
    /// produce identical networks, workloads and schedules.
    pub fn build(&self) -> Instance {
        let net = self.topology_config().generate(self.seed).network;
        let env = Environment::build(net, self.max_cs);
        let mut workload = WorkloadGenerator::new(
            WorkloadConfig {
                streams: self.streams,
                queries: self.queries,
                joins_per_query: self.joins_lo..=self.joins_hi,
                source_skew: if self.skew_milli == 0 {
                    None
                } else {
                    Some(self.skew_milli as f64 / 1000.0)
                },
                ..WorkloadConfig::default()
            },
            self.seed,
        )
        .generate(&env.network);
        if let Some(keep) = &self.keep_queries {
            workload.queries = keep
                .iter()
                .filter_map(|&i| workload.queries.get(i).cloned())
                .collect();
        }
        if self.round_stats {
            canonicalize_statistics(&mut workload.catalog);
        }
        let mut schedule = FaultSchedule::generate(
            &env,
            &FaultConfig {
                events: self.events,
                mean_gap_ms: 1_000.0,
                ..FaultConfig::default()
            },
            // Decorrelate the schedule stream from topology/workload while
            // staying a pure function of the case seed.
            self.seed ^ 0x9E37_79B9_7F4A_7C15,
        );
        if let Some(keep) = &self.keep_events {
            schedule.faults = keep
                .iter()
                .filter_map(|&i| schedule.faults.get(i).cloned())
                .collect();
        }
        Instance {
            env,
            workload,
            schedule,
        }
    }

    /// Serialize to the `.case` text form (round-trips via [`parse`]).
    ///
    /// [`parse`]: FuzzCase::parse
    pub fn to_text(&self, comment: &str) -> String {
        let mut out = String::from("# dsq-fuzz case v1\n");
        for line in comment.lines() {
            out.push_str(&format!("# {line}\n"));
        }
        kv::write_fields(&mut out, "", self);
        out
    }

    /// Parse the `.case` text form written by [`to_text`].
    ///
    /// [`to_text`]: FuzzCase::to_text
    pub fn parse(text: &str) -> Result<FuzzCase, String> {
        let mut case = FuzzCase::default();
        for line in kv::lines(text) {
            line?.set_in("", &mut case)?;
        }
        if case.transit_domains == 0
            || case.transit_nodes_per_domain == 0
            || case.stub_nodes_per_domain == 0
        {
            return Err("topology shape must be nonzero".into());
        }
        if case.joins_lo == 0 || case.joins_hi < case.joins_lo {
            return Err("joins range must satisfy 1 <= joins_lo <= joins_hi".into());
        }
        if case.streams <= case.joins_hi {
            return Err("need at least joins_hi + 1 streams".into());
        }
        if case.max_cs < 2 {
            return Err("max_cs must be at least 2".into());
        }
        if case.service {
            if case.svc_queries == 0 {
                return Err("service cases need svc_queries >= 1".into());
            }
            if case.svc_batch == 0 {
                return Err("service cases need svc_batch >= 1".into());
            }
            if case.svc_max_queue == 0 {
                return Err("service cases need svc_max_queue >= 1".into());
            }
        }
        Ok(case)
    }

    /// The service configuration a service-mode case runs under, sharing
    /// the case's topology/catalog shape with the planner checks.
    pub fn service_config(&self) -> dsq_server::ServiceConfig {
        dsq_server::ServiceConfig {
            seed: self.seed,
            transit_domains: self.transit_domains,
            transit_nodes_per_domain: self.transit_nodes_per_domain,
            stub_domains_per_transit_node: self.stub_domains_per_transit_node,
            stub_nodes_per_domain: self.stub_nodes_per_domain,
            max_cs: self.max_cs,
            streams: self.streams,
            max_queue: self.svc_max_queue,
            default_deadline_ms: self.svc_deadline_ms,
            replan_budget: self.svc_replan_budget,
            snapshot_every: self.svc_snapshot_every,
            advert_budget: self.advert_budget,
            ..dsq_server::ServiceConfig::default()
        }
    }

    /// The (keep-masked) request script of a service-mode case. The mask
    /// indexes the *generated* lines, so dropping any subset — drains
    /// included — still yields a protocol-valid script.
    pub fn service_script(&self) -> Vec<String> {
        let script = dsq_server::chaos::ScriptConfig {
            seed: self.seed,
            queries: self.svc_queries,
            replans: self.svc_replans,
            unregisters: self.svc_unregisters,
            batch: self.svc_batch,
            reads: self.svc_reads,
            faults: FaultConfig {
                events: self.svc_events,
                mean_gap_ms: 500.0,
                ..FaultConfig::default()
            },
            ..dsq_server::chaos::ScriptConfig::default()
        };
        let lines = dsq_server::generate_script(&self.service_config(), &script);
        match &self.keep_requests {
            Some(keep) => keep.iter().filter_map(|&i| lines.get(i).cloned()).collect(),
            None => lines,
        }
    }

    /// The (keep-masked) crash schedule for `lines`, whose kill points are
    /// journal lengths — drawn against the script's *journaled* line count
    /// (mutating requests and drains; reads never touch the journal).
    pub fn service_crashes(&self, lines: &[String]) -> dsq_server::CrashSchedule {
        let journaled = lines
            .iter()
            .filter(|l| {
                dsq_server::Request::parse(l).is_ok_and(|r| {
                    !matches!(
                        r,
                        dsq_server::Request::Query { .. } | dsq_server::Request::Stats
                    )
                })
            })
            .count();
        let schedule = dsq_server::CrashSchedule::generate(
            // Decorrelated from the script stream, pure in the case seed.
            self.seed ^ 0x5EED_C4A5,
            journaled,
            self.svc_kills,
        );
        match &self.keep_kills {
            Some(keep) => dsq_server::CrashSchedule {
                kill_at: keep
                    .iter()
                    .filter_map(|&i| schedule.kill_at.get(i).copied())
                    .collect(),
            },
            None => schedule,
        }
    }
}

/// Round a positive value to one significant digit (`0.0347 -> 0.03`,
/// `73.4 -> 70`). The result stays positive and finite.
fn round_sig(v: f64) -> f64 {
    if !v.is_finite() || v <= 0.0 {
        return v;
    }
    let mag = 10f64.powf(v.abs().log10().floor());
    let rounded = (v / mag).round().max(1.0) * mag;
    if rounded > 0.0 && rounded.is_finite() {
        rounded
    } else {
        v
    }
}

/// Canonicalize the catalog's statistics: every stream rate and every
/// registered pairwise selectivity is rounded to one significant digit.
/// Only already-registered selectivities are touched (unregistered pairs
/// stay at the implicit 1.0, so the workload's join structure is
/// preserved).
fn canonicalize_statistics(catalog: &mut dsq_query::Catalog) {
    use dsq_query::StreamId;
    let n = catalog.len() as u32;
    for id in 0..n {
        let rate = catalog.stream(StreamId(id)).rate;
        catalog.set_rate(StreamId(id), round_sig(rate));
    }
    for a in 0..n {
        for b in (a + 1)..n {
            let sigma = catalog.selectivity(StreamId(a), StreamId(b));
            if sigma != 1.0 {
                catalog.set_selectivity(StreamId(a), StreamId(b), round_sig(sigma));
            }
        }
    }
}

/// The `.case` keys. Optional parts are written only when they say
/// something: the advert budget when set, keep-masks when present, flags
/// when on, and the `svc_*` block only for service cases.
impl kv::Fields for FuzzCase {
    fn fields_mut(&mut self) -> Vec<Field<'_>> {
        let (budget, round, svc) = (self.advert_budget > 0, self.round_stats, self.service);
        vec![
            Field::new("seed", &mut self.seed),
            Field::new("transit_domains", &mut self.transit_domains),
            Field::new(
                "transit_nodes_per_domain",
                &mut self.transit_nodes_per_domain,
            ),
            Field::new(
                "stub_domains_per_transit_node",
                &mut self.stub_domains_per_transit_node,
            ),
            Field::new("stub_nodes_per_domain", &mut self.stub_nodes_per_domain),
            Field::new("max_cs", &mut self.max_cs),
            Field::new("streams", &mut self.streams),
            Field::new("queries", &mut self.queries),
            Field::new("joins_lo", &mut self.joins_lo),
            Field::new("joins_hi", &mut self.joins_hi),
            Field::new("skew_milli", &mut self.skew_milli),
            Field::new("events", &mut self.events),
            Field::new("drop_milli", &mut self.drop_milli),
            Field::new("advert_budget", &mut self.advert_budget).written_if(budget),
            Field::new("keep_queries", &mut self.keep_queries),
            Field::new("keep_events", &mut self.keep_events),
            Field::new("round_stats", &mut self.round_stats).written_if(round),
            Field::new("service", &mut self.service).written_if(svc),
            Field::new("svc_queries", &mut self.svc_queries).written_if(svc),
            Field::new("svc_replans", &mut self.svc_replans).written_if(svc),
            Field::new("svc_unregisters", &mut self.svc_unregisters).written_if(svc),
            Field::new("svc_batch", &mut self.svc_batch).written_if(svc),
            Field::new("svc_reads", &mut self.svc_reads).written_if(svc),
            Field::new("svc_events", &mut self.svc_events).written_if(svc),
            Field::new("svc_max_queue", &mut self.svc_max_queue).written_if(svc),
            Field::new("svc_replan_budget", &mut self.svc_replan_budget).written_if(svc),
            Field::new("svc_deadline_ms", &mut self.svc_deadline_ms).written_if(svc),
            Field::new("svc_snapshot_every", &mut self.svc_snapshot_every).written_if(svc),
            Field::new("svc_kills", &mut self.svc_kills).written_if(svc),
            Field::new("keep_requests", &mut self.keep_requests).written_if(svc),
            Field::new("keep_kills", &mut self.keep_kills).written_if(svc),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn case_text_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..50 {
            let mut case = FuzzCase::sample(&mut rng, 48);
            if rng.gen_bool(0.5) {
                case.keep_queries = Some(vec![0, 2]);
                case.keep_events = Some(vec![]);
            }
            let text = case.to_text("round trip");
            let back = FuzzCase::parse(&text).expect("parse back");
            assert_eq!(case, back);
        }
    }

    #[test]
    fn build_is_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let case = FuzzCase::sample(&mut rng, 40);
        let a = case.build();
        let b = case.build();
        assert_eq!(a.env.network.len(), b.env.network.len());
        assert_eq!(a.workload.queries.len(), b.workload.queries.len());
        assert_eq!(a.schedule.faults.len(), b.schedule.faults.len());
        for (qa, qb) in a.workload.queries.iter().zip(&b.workload.queries) {
            assert_eq!(qa.sources, qb.sources);
            assert_eq!(qa.sink, qb.sink);
        }
    }

    #[test]
    fn keep_masks_filter_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut case = FuzzCase::sample(&mut rng, 40);
        case.queries = 4;
        case.events = 6;
        case.keep_queries = Some(vec![1, 3]);
        case.keep_events = Some(vec![0, 5]);
        let inst = case.build();
        assert_eq!(inst.workload.queries.len(), 2);
        assert_eq!(inst.schedule.faults.len(), 2);
        let full = FuzzCase {
            keep_queries: None,
            keep_events: None,
            ..case.clone()
        }
        .build();
        assert_eq!(
            inst.workload.queries[0].sources,
            full.workload.queries[1].sources
        );
        assert_eq!(inst.schedule.faults[1].at_ms, full.schedule.faults[5].at_ms);
    }

    #[test]
    fn rejects_malformed_cases() {
        assert!(FuzzCase::parse("seed = x").is_err());
        assert!(FuzzCase::parse("nonsense").is_err());
        assert!(FuzzCase::parse("unknown_key = 3").is_err());
        assert!(FuzzCase::parse("streams = 2\njoins_hi = 4").is_err());
        assert!(FuzzCase::parse("service = 1\nsvc_queries = 0").is_err());
        assert!(FuzzCase::parse("service = 1\nsvc_batch = 0").is_err());
        assert!(FuzzCase::parse("service = 1\nsvc_max_queue = 0").is_err());
    }

    #[test]
    fn service_case_text_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        for _ in 0..25 {
            let mut case = FuzzCase::sample_with(&mut rng, 48, 0, 1000);
            assert!(case.service);
            if rng.gen_bool(0.5) {
                case.keep_requests = Some(vec![0, 3, 4]);
                case.keep_kills = Some(vec![0]);
            }
            let text = case.to_text("service round trip");
            let back = FuzzCase::parse(&text).expect("parse back");
            assert_eq!(case, back);
        }
    }

    #[test]
    fn sampling_without_service_milli_is_unchanged() {
        // The service draw must not consume RNG state when disabled:
        // campaigns from before service mode keep their exact cases.
        let a = FuzzCase::sample_with(&mut ChaCha8Rng::seed_from_u64(5), 48, 50, 0);
        let b = {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            if 50 > 0 && rng.gen_bool(0.05) {
                unreachable!("seed 5 does not draw wide");
            }
            FuzzCase::sample(&mut rng, 48)
        };
        assert_eq!(a, b);
    }

    #[test]
    fn service_script_is_deterministic_and_keep_masked() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let case = FuzzCase::sample_with(&mut rng, 48, 0, 1000);
        let a = case.service_script();
        let b = case.service_script();
        assert_eq!(a, b, "script generation must be pure in the case");
        assert!(!a.is_empty());
        let masked = FuzzCase {
            keep_requests: Some(vec![0, 2]),
            ..case.clone()
        };
        let m = masked.service_script();
        assert_eq!(m.len(), 2.min(a.len()));
        assert_eq!(m[0], a[0]);
        let crashes = case.service_crashes(&a);
        assert_eq!(crashes, case.service_crashes(&a));
        let kill_masked = FuzzCase {
            keep_kills: Some(vec![]),
            ..case.clone()
        };
        assert!(kill_masked.service_crashes(&a).kill_at.is_empty());
    }
}
