//! Per-layer metrics of the traced pass.
//!
//! Each layer is measured from outside, by timing its public calls on the
//! inputs the workload generated: set-up is driven stage by stage, and the
//! calls that cannot be separated inside a live service (journal append,
//! snapshot, fault surgery, the planner entry points, advert probes) are
//! timed on a twin — the service that was just crashed, which holds the
//! state the recovered one was rebuilt to. Inputs and results go through
//! `black_box`. Nothing here feeds an end-to-end metric.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dsq_core::{optimize_all, optimize_dirty, Optimizer, ParallelConfig, SearchStats, TopDown};
use dsq_hierarchy::{membership, Hierarchy, HierarchyConfig};
use dsq_net::{CostSpace, DistanceMatrix, Metric as NetMetric, NodeId, TransitStubConfig};
use dsq_query::{Deployment, Query, QueryId, ReuseRegistry, StreamId};
use dsq_server::journal::Journal;
use dsq_server::protocol::{FaultReq, Request};
use dsq_server::state::apply_fault_surgery;
use dsq_server::{snapshot, PlanningService};
use dsq_workload::{WorkloadConfig, WorkloadGenerator};

use crate::calm::CpuClock;
use crate::run::{Metric, Session};
use crate::spans::{rollup, Tracer};
use crate::stats::{median, percentile, sorted, supported_tail};
use crate::workloads::{Workload, MAX_CS, STEADY_SWAP};

/// Queries planned directly for `core.parallel.optimize_all_ms`.
const PLAN_SAMPLE: usize = 256;
/// Samples of a cheap call (parse, probe, publish, append).
const CHEAP_SAMPLES: usize = 500;
/// Embedding sweeps `Environment::build` uses.
const EMBED_ITERS: usize = 40;

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e6
}

fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e3
}

fn timed(name: &str, samples: &[f64], unit: &str) -> Metric {
    let value = if samples.is_empty() {
        f64::NAN
    } else {
        median(samples)
    };
    Metric::timed(name, value, unit, samples.len())
}

/// Set-up, stage by stage, under a `setup` span: what `ServiceConfig::build`
/// does in one call. The result is dropped; the service under test was
/// built by `PlanningService::new`.
pub fn setup_stages(w: &Workload, tracer: &mut Tracer) -> Vec<Metric> {
    let cfg = w.config();
    let outer = tracer.enter("setup", 0);
    let mut out = Vec::new();

    let net = stage(tracer, "net.topology.generate", &mut out, || {
        TransitStubConfig {
            transit_domains: cfg.transit_domains,
            transit_nodes_per_domain: cfg.transit_nodes_per_domain,
            stub_domains_per_transit_node: cfg.stub_domains_per_transit_node,
            stub_nodes_per_domain: cfg.stub_nodes_per_domain,
            ..TransitStubConfig::default()
        }
        .generate(black_box(cfg.seed))
        .network
    });
    let dm = stage(tracer, "net.paths.apsp", &mut out, || {
        DistanceMatrix::build(black_box(&net), NetMetric::Cost)
    });
    out.push(Metric::exact(
        "net.paths.matrix_mb",
        (dm.len() * dm.len() * std::mem::size_of::<f64>()) as f64 / 1e6,
        "MB",
    ));
    let hcfg = HierarchyConfig::new(MAX_CS);
    let space = stage(tracer, "net.embedding.embed", &mut out, || {
        CostSpace::embed(black_box(&dm), hcfg.seed ^ net.len() as u64, EMBED_ITERS)
    });
    let hierarchy = stage(tracer, "hierarchy.build", &mut out, || {
        let active: Vec<NodeId> = net.nodes().collect();
        Hierarchy::build(black_box(&active), &dm, &space, hcfg)
    });
    let catalog = stage(tracer, "workload.catalog", &mut out, || {
        let shape = WorkloadConfig {
            streams: cfg.streams,
            queries: 0,
            joins_per_query: 1..=1,
            ..WorkloadConfig::default()
        };
        WorkloadGenerator::new(shape, black_box(cfg.seed))
            .generate(&net)
            .catalog
    });
    black_box((hierarchy, catalog));
    tracer.exit(outer);
    out
}

/// One set-up stage: a span named `span` and a metric `<span>_ms`, on the
/// CPU clock like `setup_s`, whose parts the stages are.
fn stage<T>(
    tracer: &mut Tracer,
    span: &'static str,
    out: &mut Vec<Metric>,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = CpuClock::now();
    let value = tracer.span(span, 0, f);
    out.push(Metric::timed(
        &format!("{span}_ms"),
        t0.elapsed_ms(),
        "ms",
        1,
    ));
    value
}

/// The queries a cloned script would register next, as planner inputs.
fn next_queries(s: &Session, count: usize) -> (Vec<String>, Vec<Query>) {
    let mut gen = s.gen.clone();
    let mut lines = Vec::with_capacity(count);
    let mut queries = Vec::with_capacity(count);
    for _ in 0..count {
        let line = gen.register();
        if let Ok(Request::Register {
            id, sources, sink, ..
        }) = Request::parse(&line)
        {
            queries.push(Query::join(
                QueryId(id),
                sources.into_iter().map(StreamId),
                NodeId(sink),
            ));
        }
        lines.push(line);
    }
    (lines, queries)
}

/// Everything timed on the twin: the crashed service, whose state the
/// recovered service reproduces bit for bit. `counters` are the obs
/// sink's totals up to the crash.
pub fn at_crash_point(
    s: &Session,
    twin: &PlanningService,
    counters: &BTreeMap<String, u64>,
    scratch: &Path,
) -> Vec<Metric> {
    let core = twin.core();
    let mut out = Vec::new();
    // On 2,112 nodes one degrade surgery copies 36 MB and takes a third
    // of a second: take few samples of the calls that scale with the matrix.
    let heavy = if s.w.nodes() > 2000 { 2 } else { 8 };

    // -- counts, all taken in the count-boxed part of the run -----------
    let cache = &core.env.plan_cache;
    let (hits, misses) = (cache.hits(), cache.misses());
    out.push(Metric::exact("core.cache.hits", hits as f64, "count"));
    out.push(Metric::exact("core.cache.misses", misses as f64, "count"));
    out.push(Metric::exact(
        "core.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    ));
    out.push(Metric::exact(
        "core.cache.retired",
        cache.retired() as f64,
        "count",
    ));
    out.push(Metric::exact(
        "query.advert.live",
        core.registry.stats().live as f64,
        "count",
    ));
    for (metric, counter) in [
        ("core.engine.plans", "engine.plan_invocations"),
        ("core.engine.dp_states", "engine.dp_states"),
        ("core.topdown.cells_opened", "topdown.cells_opened"),
        ("server.state.faults_applied", "server.faults_applied"),
    ] {
        let v = counters.get(counter).copied().unwrap_or(0);
        out.push(Metric::exact(metric, v as f64, "count"));
    }

    let queries: Vec<Query> = core.slots.values().map(|x| x.query.clone()).collect();
    let deployments: Vec<Option<Deployment>> =
        core.slots.values().map(|x| x.deployment.clone()).collect();
    let serial = ParallelConfig::serial();

    // -- core: the planner entry points, no service around them ----------
    {
        let mut cold = core.env.clone();
        cold.isolate_cache(core.cfg.cache);
        let sample = &queries[..queries.len().min(PLAN_SAMPLE)];
        let t0 = Instant::now();
        black_box(optimize_all(
            &cold,
            &TopDown::new(&cold),
            &core.catalog,
            black_box(sample),
            &ReuseRegistry::new(),
            &serial,
        ));
        out.push(Metric::timed(
            "core.parallel.optimize_all_ms",
            ms_since(t0),
            "ms",
            sample.len(),
        ));

        cold.isolate_cache(core.cfg.cache);
        let optimizer = TopDown::new(&cold);
        let per_query: Vec<f64> = sample
            .iter()
            .take(64)
            .map(|q| {
                let t0 = Instant::now();
                black_box(optimizer.optimize(
                    &core.catalog,
                    black_box(q),
                    &mut ReuseRegistry::new(),
                    &mut SearchStats::new(),
                ));
                us_since(t0)
            })
            .collect();
        out.push(timed("core.topdown.optimize_us", &per_query, "us"));
    }
    let (new_lines, new_queries) = next_queries(s, 3 * STEADY_SWAP);
    let dirty_ms: Vec<f64> = new_queries
        .chunks(STEADY_SWAP)
        .map(|fresh| {
            // What a steady drain hands the planner: every standing query
            // with its deployment kept, plus the newly registered ones.
            let mut all = queries.clone();
            let mut prior = deployments.clone();
            all.extend_from_slice(fresh);
            prior.resize(all.len(), None);
            let t0 = Instant::now();
            black_box(optimize_dirty(
                &core.env,
                &TopDown::new(&core.env),
                &core.catalog,
                black_box(&all),
                &prior,
                &HashSet::new(),
                &ReuseRegistry::new(),
                &serial,
            ));
            ms_since(t0)
        })
        .collect();
    out.push(timed("core.parallel.optimize_dirty_ms", &dirty_ms, "ms"));

    // -- query: advert probe and publish ---------------------------------
    {
        let mut registry = core.registry.clone();
        let hierarchy = &core.env.hierarchy;
        let probe: Vec<f64> = queries
            .iter()
            .take(CHEAP_SAMPLES)
            .map(|q| {
                let t0 = Instant::now();
                black_box(registry.usable_for_live(black_box(q), |n| hierarchy.is_active(n)));
                us_since(t0)
            })
            .collect();
        out.push(timed("query.advert.probe_us", &probe, "us"));
        let mut fresh = ReuseRegistry::with_budget(core.cfg.advert_budget);
        let publish: Vec<f64> = core
            .slots
            .values()
            .take(CHEAP_SAMPLES)
            .filter_map(|x| x.deployment.as_ref().map(|d| (&x.query, d)))
            .map(|(q, d)| {
                let t0 = Instant::now();
                black_box(fresh.register_deployment(black_box(q), d));
                us_since(t0)
            })
            .collect();
        out.push(timed("query.advert.publish_us", &publish, "us"));
    }

    // -- server: protocol, journal, snapshot ----------------------------
    let parse: Vec<f64> = new_lines
        .iter()
        .cycle()
        .take(CHEAP_SAMPLES)
        .map(|line| {
            let t0 = Instant::now();
            black_box(Request::parse(black_box(line))).ok();
            us_since(t0)
        })
        .collect();
    out.push(timed("server.protocol.parse_us", &parse, "us"));
    {
        // The same entries, appended to a journal of the workload's kind.
        let entries: Vec<_> = new_lines
            .iter()
            .filter_map(|l| Request::parse(l).ok())
            .filter_map(|r| dsq_server::JournalEntry::from_request(&r))
            .collect();
        let probe_path = scratch.join("probe.journal");
        let path = s.w.journal_on_disk.then_some(probe_path.as_path());
        let mut journal = Journal::create(core.cfg.clone(), path).expect("probe journal");
        let append: Vec<f64> = entries
            .iter()
            .cycle()
            .take(CHEAP_SAMPLES)
            .map(|e| {
                let e = e.clone();
                let t0 = Instant::now();
                journal.append(black_box(e)).expect("probe append");
                us_since(t0)
            })
            .collect();
        out.push(timed("server.journal.append_us", &append, "us"));
    }
    {
        let t0 = Instant::now();
        let text = snapshot::write(black_box(core));
        out.push(Metric::timed(
            "server.snapshot.write_ms",
            ms_since(t0),
            "ms",
            1,
        ));
        out.push(Metric::exact(
            "server.snapshot.bytes",
            text.len() as f64,
            "count",
        ));
        let t0 = Instant::now();
        let restored = snapshot::restore(black_box(&text));
        out.push(Metric::timed(
            "server.snapshot.restore_ms",
            ms_since(t0),
            "ms",
            1,
        ));
        black_box(restored).ok();
    }

    // -- fault surgery on a copy of the twin's environment ---------------
    // The copy shares the twin's plan cache, which nothing reads again.
    let mut env = core.env.clone();
    let live_sinks: BTreeSet<u32> = core.slots.values().map(|x| x.query.sink.0).collect();
    let mut victims: Vec<u32> = Vec::new();
    for d in deployments.iter().flatten() {
        for n in &d.placement {
            if !s.origins.contains(&n.0) && !live_sinks.contains(&n.0) && !victims.contains(&n.0) {
                victims.push(n.0);
            }
        }
        if victims.len() >= 2 * heavy {
            break;
        }
    }
    // Too few operator hosts qualify (tiny populations): any other node
    // that is neither an origin nor a sink will do.
    for n in 0..s.w.nodes() as u32 {
        if victims.len() >= 2 * heavy {
            break;
        }
        if !s.origins.contains(&n) && !live_sinks.contains(&n) && !victims.contains(&n) {
            victims.push(n);
        }
    }
    let (mut remove_us, mut add_us, mut retire_membership_ms) = (vec![], vec![], vec![]);
    let (mut surgery_crash, mut surgery_rejoin) = (vec![], vec![]);
    for (i, &v) in victims.iter().enumerate() {
        let node = NodeId(v);
        if i % 2 == 0 {
            // The whole surgery, as the drain applies it.
            let t0 = Instant::now();
            black_box(apply_fault_surgery(&mut env, &FaultReq::Crash(v)));
            surgery_crash.push(ms_since(t0));
            let t0 = Instant::now();
            black_box(apply_fault_surgery(&mut env, &FaultReq::Rejoin(v)));
            surgery_rejoin.push(ms_since(t0));
        } else {
            // Its parts: membership change, then cache retirement.
            let before = env.hierarchy.snapshot();
            let t0 = Instant::now();
            membership::remove_node(&mut env.hierarchy, &env.dm, black_box(node))
                .expect("victim is active");
            remove_us.push(us_since(t0));
            let delta = before.diff(&env.hierarchy.snapshot());
            let t0 = Instant::now();
            black_box(env.plan_cache.retire_membership(&env.hierarchy, &delta));
            retire_membership_ms.push(ms_since(t0));
            let via = *env
                .hierarchy
                .active_nodes()
                .iter()
                .min_by(|&&a, &&b| env.dm.get(a, node).total_cmp(&env.dm.get(b, node)))
                .expect("overlay is never empty");
            let t0 = Instant::now();
            black_box(membership::add_node(
                &mut env.hierarchy,
                &env.dm,
                black_box(node),
                via,
            ));
            add_us.push(us_since(t0));
        }
    }
    out.push(timed(
        "server.state.fault_surgery_crash_ms",
        &surgery_crash,
        "ms",
    ));
    out.push(timed(
        "server.state.fault_surgery_rejoin_ms",
        &surgery_rejoin,
        "ms",
    ));
    out.push(timed("hierarchy.membership.remove_us", &remove_us, "us"));
    out.push(timed("hierarchy.membership.add_us", &add_us, "us"));
    out.push(timed(
        "core.cache.retire_membership_ms",
        &retire_membership_ms,
        "ms",
    ));

    let mut gen = s.gen.clone();
    let (mut repair_ms, mut repair_rows, mut retire_metric_ms, mut surgery_degrade) =
        (vec![], vec![], vec![], vec![]);
    for i in 0..heavy {
        let line = gen.degrade(&s.gateways);
        let Ok(Request::Fault { fault, .. }) = Request::parse(&line) else {
            continue;
        };
        let FaultReq::Degrade { a, b, factor_milli } = fault else {
            continue;
        };
        if i % 2 == 0 {
            let t0 = Instant::now();
            black_box(apply_fault_surgery(&mut env, &fault));
            surgery_degrade.push(ms_since(t0));
        } else {
            let (a, b) = (NodeId(a), NodeId(b));
            let link = env.network.find_link(a, b).expect("a real link");
            let old_w = env.metric.weight(link);
            let new_cost = link.cost * factor_milli as f64 / 1000.0;
            env.network.set_link_cost(a, b, new_cost);
            let t0 = Instant::now();
            let (new_dm, outcome) =
                env.dm
                    .repaired_after_link_change(black_box(&env.network), a, b, old_w);
            repair_ms.push(ms_since(t0));
            if let dsq_net::LinkRepair::Incremental { rows } = outcome {
                repair_rows.push(rows as f64);
            }
            let t0 = Instant::now();
            black_box(env.plan_cache.retire_metric(&env.dm, &new_dm));
            retire_metric_ms.push(ms_since(t0));
            env.dm = new_dm;
            env.hierarchy.refresh_statistics(&env.dm);
        }
    }
    out.push(timed(
        "server.state.fault_surgery_degrade_ms",
        &surgery_degrade,
        "ms",
    ));
    out.push(timed("net.paths.repair_ms", &repair_ms, "ms"));
    out.push(timed("net.paths.repair_rows", &repair_rows, "count"));
    out.push(timed(
        "core.cache.retire_metric_ms",
        &retire_metric_ms,
        "ms",
    ));
    out
}

/// The per-layer metrics that are statistics of the run's own samples,
/// and the self-time rollup of its spans.
pub fn from_samples(s: &Session, so_far: &[Metric]) -> Vec<Metric> {
    let x = &s.samples;
    let (drain, crash) = (x.drain.all(), x.crash.all());
    let dirty_ms = so_far
        .iter()
        .find(|m| m.name == "core.parallel.optimize_dirty_ms")
        .map_or(f64::NAN, |m| m.value);
    let mut out = vec![
        // What a drain costs beyond the planner call it makes on the same
        // inputs: applying the batch and re-submitting every standing query.
        Metric::timed(
            "server.state.drain_overhead_ms",
            median(&drain) - dirty_ms,
            "ms",
            drain.len(),
        ),
        Metric::exact("server.journal.bytes", x.journal_bytes as f64, "count"),
        timed("core.optimal.optimize_ms", &x.optimal_ms, "ms"),
        timed(
            "server.service.submit_register_us",
            &x.submit_register_us,
            "us",
        ),
        timed("server.service.submit_query_us", &x.submit_query_us, "us"),
        timed("server.state.drain_ms", &drain, "ms"),
        // The medians whose end-to-end metrics are a decile and a minimum.
        timed("server.state.crash_repair_ms", &crash, "ms"),
        timed("server.state.degrade_repair_ms", &x.degrade, "ms"),
        timed("server.state.rejoin_repair_ms", &x.rejoin, "ms"),
        Metric::timed(
            "server.service.recover_ms",
            median(&x.recovery_s) * 1e3,
            "ms",
            x.recovery_s.len(),
        ),
        Metric::exact("server.service.replayed", x.replayed as f64, "count"),
        Metric::timed("sim.flow.build_ms", x.flow_build_ms, "ms", 1),
        Metric::timed("sim.flow.evaluate_ms", x.flow_evaluate_ms, "ms", 1),
        Metric::timed(
            "obs.trace_overhead_ratio",
            median(&drain) / median(&x.drain_untraced),
            "ratio",
            drain.len().min(x.drain_untraced.len()),
        ),
        Metric::timed(
            "server.net.rtt_overhead_ms",
            median(&x.wire_query) - median(&x.local_query),
            "ms",
            x.local_query.len(),
        ),
    ];
    // The tails that only their own workloads give enough samples for,
    // at the highest percentile the sample supports.
    for (name, samples) in [
        ("server.state.drain_tail_ms", &drain),
        ("server.state.crash_repair_tail_ms", &crash),
        ("server.state.degrade_repair_tail_ms", &x.degrade),
        ("server.net.rtt_tail_ms", &x.wire_query),
    ] {
        let pct = supported_tail(samples.len()).unwrap_or(50);
        out.push(Metric::timed(
            name,
            percentile(&sorted(samples), pct),
            "ms",
            samples.len(),
        ));
        out.push(Metric::exact(
            &name.replace("_ms", "_pct"),
            f64::from(pct),
            "%",
        ));
    }
    for (span, (self_us, count)) in rollup(s.tracer.spans()) {
        out.push(Metric::timed(
            &format!("layer.{span}.self_ms"),
            self_us / 1e3,
            "ms",
            count as usize,
        ));
        out.push(Metric::timed(
            &format!("layer.{span}.count"),
            count as f64,
            "count",
            count as usize,
        ));
    }
    out
}
