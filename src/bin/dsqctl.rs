//! `dsqctl` — command-line driver for the distributed stream query
//! optimizer.
//!
//! ```text
//! dsqctl topology [--size N] [--seed S] [--dot]            topology stats / DOT
//! dsqctl hierarchy [--size N] [--max-cs M] [--dot]         clustering hierarchy
//! dsqctl optimize [--size N] [--streams K] [--queries Q]   compare algorithms
//!                 [--max-cs M] [--skew Z] [--seed S]
//! dsqctl plan [--size N] [--streams K] [--queries Q]       parallel multi-query
//!             [--threads T] [--no-parallel] [--no-cache]   planning driver
//! dsqctl simulate [--size N] [--duration T] [--seed S]     tuple-level validation
//! dsqctl sql "<SELECT …>" [--sink NODE]                    parse & deploy on the
//!                                                          airline scenario
//! dsqctl chaos [--events N] [--drop P] [--seed S]          seeded fault-injection
//!                                                          soak of the service
//! dsqctl trace [--size N] [--streams K] [--queries Q]      JSONL event trace of a
//!                                                          full planning run
//! dsqctl stats [--size N] [--streams K] [--queries Q]      counter/histogram
//!                                                          summary of the same run
//! dsqctl fuzz [--seed S] [--iters N] [--max-nodes M]       differential planner
//!             [--out DIR]                                   fuzzing campaign
//! dsqctl fuzz FILE.case [--check SLUG]                      replay one repro
//!                                                          against the oracle
//! dsqctl serve [--journal FILE] [--recover] [--script F]   resident planning
//!              [--listen ADDR] [--selftest] [--max-queue N] service (JSONL over
//!              [--budget N] [--deadline MS]                 stdin, a script file
//!              [--snapshot-every N]                         or TCP)
//! ```
//!
//! All arguments are optional; defaults reproduce the paper's ~128-node
//! evaluation setting.

use dsq::prelude::*;
use dsq_baselines::{InNetwork, InNetworkRunner, PlanThenDeploy, Relaxation};
use dsq_core::{consolidate, Optimal, Optimizer};
use dsq_query::QueryId;
use dsq_workload::airline_scenario;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match args.first().map(String::as_str) {
        Some(c) => c,
        None => {
            eprintln!("{}", USAGE);
            return ExitCode::FAILURE;
        }
    };
    let opts = Opts::parse(&args[1..]);
    match cmd {
        "topology" => topology(&opts),
        "hierarchy" => hierarchy(&opts),
        "optimize" => optimize(&opts),
        "plan" => plan(&opts),
        "simulate" => simulate(&opts),
        "sql" => sql(&opts),
        "chaos" => chaos(&opts),
        "trace" => trace(&opts),
        "stats" => stats(&opts),
        "fuzz" => fuzz(&opts),
        "serve" => serve(&opts),
        "help" | "--help" | "-h" => {
            println!("{}", USAGE);
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other:?}\n{}", USAGE);
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str =
    "dsqctl <topology|hierarchy|optimize|plan|simulate|sql|chaos|trace|stats|fuzz|serve|help> [options]
  --size N       target network size (default 128)
  --seed S       RNG seed (default 1)
  --max-cs M     cluster size cap (default 32)
  --streams K    number of streams (default 100)
  --queries Q    number of queries (default 20)
  --skew Z       Zipf skew for source popularity (default: uniform)
  --duration T   tuple-simulation duration (default 200)
  --sink NODE    sink node id for `sql` (default: scenario Sink4)
  --events N     fault events for `chaos` (default 60)
  --drop P       message drop probability for `chaos` (default 0.1)
  --threads T    worker threads for `plan` (default: all cores)
  --no-parallel  plan queries one at a time (results are bit-identical)
  --no-cache     disable the shared subplan cache
  --iters N      fuzz iterations (default 200)
  --max-nodes M  fuzz topology size ceiling (default 48)
  --wide-milli P per-mille chance a fuzz case samples a >32-stream (wide)
                 query universe (default 50; 0 disables)
  --service-milli P
                 per-mille chance a fuzz case samples service mode (request
                 script + crash schedule through the resident service's
                 three-way differential; default 100; 0 disables)
  --shrink-budget N
                 oracle-invocation budget per fuzz shrink (default 150;
                 soak campaigns raise this for deeper minimization)
  --out DIR      write minimized fuzz repros to DIR (default target/fuzz)
  --check SLUG   when replaying a .case file, report only this oracle
                 check's violations (e.g. protocol, reuse, chaos)
  --journal FILE write-ahead journal for `serve` (enables crash recovery)
  --recover      recover `serve` state from --journal instead of starting fresh
  --script FILE  run `serve` against a JSONL request script, then exit
  --listen ADDR  serve the JSONL protocol over TCP (e.g. 127.0.0.1:7070)
  --selftest     `serve` smoke test: scripted run, seeded crashes, recovery
  --max-queue N  admission bound on queued mutating requests (default 64)
  --budget N     replans per drain wave before degrading to stale plans
                 (default 0 = unbounded)
  --deadline MS  default per-request deadline at drain time (default 0 = none)
  --snapshot-every N
                 write a recovery snapshot every N drains (default 0 = never)
  --advert-budget N
                 reuse-registry advert budget: publishing past N live adverts
                 evicts the coldest; probes matching an evicted advert queue
                 re-derivation (default 0 = unbounded). Applies to `serve`
                 and `fuzz`
  --save FILE    write the generated topology to FILE (text format)
  --load FILE    read the topology from FILE instead of generating one
  --dot          emit Graphviz DOT instead of a summary";

/// Hand-rolled flag parsing (no CLI dependency needed for five commands).
#[derive(Debug)]
struct Opts {
    size: usize,
    seed: u64,
    max_cs: usize,
    streams: usize,
    queries: usize,
    skew: Option<f64>,
    duration: f64,
    events: usize,
    drop: f64,
    sink: Option<u32>,
    threads: Option<usize>,
    no_parallel: bool,
    no_cache: bool,
    iters: usize,
    max_nodes: usize,
    wide_milli: u64,
    service_milli: u64,
    shrink_budget: usize,
    out: Option<String>,
    check: Option<String>,
    journal: Option<String>,
    recover: bool,
    script: Option<String>,
    listen: Option<String>,
    selftest: bool,
    max_queue: Option<usize>,
    budget: Option<usize>,
    deadline: Option<u64>,
    snapshot_every: Option<usize>,
    advert_budget: Option<usize>,
    save: Option<String>,
    load: Option<String>,
    dot: bool,
    positional: Vec<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Self {
        let mut o = Opts {
            size: 128,
            seed: 1,
            max_cs: 32,
            streams: 100,
            queries: 20,
            skew: None,
            duration: 200.0,
            events: 60,
            drop: 0.1,
            sink: None,
            threads: None,
            no_parallel: false,
            no_cache: false,
            iters: 200,
            max_nodes: 48,
            wide_milli: 50,
            service_milli: 100,
            shrink_budget: 150,
            out: None,
            check: None,
            journal: None,
            recover: false,
            script: None,
            listen: None,
            selftest: false,
            max_queue: None,
            budget: None,
            deadline: None,
            snapshot_every: None,
            advert_budget: None,
            save: None,
            load: None,
            dot: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = |name: &str| -> String {
                it.next()
                    .unwrap_or_else(|| {
                        eprintln!("{name} needs a value");
                        std::process::exit(2);
                    })
                    .clone()
            };
            match a.as_str() {
                "--size" => o.size = value("--size").parse().expect("--size: integer"),
                "--seed" => o.seed = value("--seed").parse().expect("--seed: integer"),
                "--max-cs" => o.max_cs = value("--max-cs").parse().expect("--max-cs: integer"),
                "--streams" => o.streams = value("--streams").parse().expect("--streams: integer"),
                "--queries" => o.queries = value("--queries").parse().expect("--queries: integer"),
                "--skew" => o.skew = Some(value("--skew").parse().expect("--skew: float")),
                "--duration" => {
                    o.duration = value("--duration").parse().expect("--duration: float")
                }
                "--events" => o.events = value("--events").parse().expect("--events: integer"),
                "--drop" => o.drop = value("--drop").parse().expect("--drop: float"),
                "--sink" => o.sink = Some(value("--sink").parse().expect("--sink: node id")),
                "--threads" => {
                    o.threads = Some(value("--threads").parse().expect("--threads: integer"))
                }
                "--no-parallel" => o.no_parallel = true,
                "--no-cache" => o.no_cache = true,
                "--iters" => o.iters = value("--iters").parse().expect("--iters: integer"),
                "--max-nodes" => {
                    o.max_nodes = value("--max-nodes").parse().expect("--max-nodes: integer")
                }
                "--wide-milli" => {
                    o.wide_milli = value("--wide-milli")
                        .parse()
                        .expect("--wide-milli: integer")
                }
                "--service-milli" => {
                    o.service_milli = value("--service-milli")
                        .parse()
                        .expect("--service-milli: integer")
                }
                "--shrink-budget" => {
                    o.shrink_budget = value("--shrink-budget")
                        .parse()
                        .expect("--shrink-budget: integer")
                }
                "--out" => o.out = Some(value("--out")),
                "--check" => o.check = Some(value("--check")),
                "--journal" => o.journal = Some(value("--journal")),
                "--recover" => o.recover = true,
                "--script" => o.script = Some(value("--script")),
                "--listen" => o.listen = Some(value("--listen")),
                "--selftest" => o.selftest = true,
                "--max-queue" => {
                    o.max_queue = Some(value("--max-queue").parse().expect("--max-queue: integer"))
                }
                "--budget" => {
                    o.budget = Some(value("--budget").parse().expect("--budget: integer"))
                }
                "--deadline" => {
                    o.deadline = Some(value("--deadline").parse().expect("--deadline: integer ms"))
                }
                "--snapshot-every" => {
                    o.snapshot_every = Some(
                        value("--snapshot-every")
                            .parse()
                            .expect("--snapshot-every: integer"),
                    )
                }
                "--advert-budget" => {
                    o.advert_budget = Some(
                        value("--advert-budget")
                            .parse()
                            .expect("--advert-budget: integer"),
                    )
                }
                "--save" => o.save = Some(value("--save")),
                "--load" => o.load = Some(value("--load")),
                "--dot" => o.dot = true,
                other => o.positional.push(other.to_string()),
            }
        }
        o
    }

    fn network(&self) -> Network {
        let net = match &self.load {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
                dsq_net::parse_topology(&text)
                    .unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
            }
            None => {
                TransitStubConfig::sized(self.size)
                    .generate(self.seed)
                    .network
            }
        };
        if let Some(path) = &self.save {
            std::fs::write(path, dsq_net::write_topology(&net))
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("[topology written to {path}]");
        }
        net
    }

    fn workload(&self, net: &Network) -> Workload {
        WorkloadGenerator::new(
            WorkloadConfig {
                streams: self.streams,
                queries: self.queries,
                joins_per_query: 2..=5,
                source_skew: self.skew,
                ..WorkloadConfig::default()
            },
            self.seed,
        )
        .generate(net)
    }
}

fn topology(o: &Opts) -> ExitCode {
    let net = &o.network();
    if o.dot {
        // Plain physical-graph DOT.
        println!("graph topology {{");
        println!("  node [shape=point];");
        for u in net.nodes() {
            for l in net.neighbors(u) {
                if u < l.to {
                    println!("  {u} -- {} [label=\"{:.1}\"];", l.to, l.cost);
                }
            }
        }
        println!("}}");
        return ExitCode::SUCCESS;
    }
    println!(
        "transit-stub topology: {} nodes ({} transit, {} stub), {} links",
        net.len(),
        net.len() - net.stub_nodes().len(),
        net.stub_nodes().len(),
        net.link_count()
    );
    let dm = DistanceMatrix::build(net, Metric::Cost);
    match dm.diameter() {
        Some(d) => println!("cost diameter: {d:.1}"),
        None => println!("cost diameter: n/a (no connected pair)"),
    }
    ExitCode::SUCCESS
}

fn hierarchy(o: &Opts) -> ExitCode {
    let env = Environment::build(o.network(), o.max_cs);
    let h = &env.hierarchy;
    if o.dot {
        print!("{}", h.to_dot());
        return ExitCode::SUCCESS;
    }
    println!(
        "hierarchy over {} nodes, max_cs {}:",
        env.network.len(),
        o.max_cs
    );
    for level in 1..=h.height() {
        let sizes: Vec<usize> = h.level(level).iter().map(|c| c.members.len()).collect();
        println!(
            "  level {level}: {} clusters, sizes {:?}, d_{level} = {:.1}",
            h.level(level).len(),
            sizes,
            h.d_at(level)
        );
    }
    println!(
        "Theorem 1 slack at the top: {:.1}",
        h.theorem1_slack(h.height())
    );
    ExitCode::SUCCESS
}

fn optimize(o: &Opts) -> ExitCode {
    let env = Environment::build(o.network(), o.max_cs);
    let wl = o.workload(&env.network);
    println!(
        "{} nodes (h = {}), {} streams, {} queries; reuse on\n",
        env.network.len(),
        env.hierarchy.height(),
        wl.catalog.len(),
        wl.queries.len()
    );
    let zones = InNetwork::new(&env, 5);
    let algs: Vec<(&str, Box<dyn Optimizer>)> = vec![
        ("top-down", Box::new(TopDown::new(&env))),
        ("bottom-up", Box::new(BottomUp::new(&env))),
        ("optimal", Box::new(Optimal::new(&env))),
        ("plan-then-deploy", Box::new(PlanThenDeploy::new(&env))),
        ("relaxation", Box::new(Relaxation::new(&env))),
        (
            "in-network",
            Box::new(InNetworkRunner {
                zones: &zones,
                env: &env,
            }),
        ),
    ];
    println!(
        "{:<18} {:>14} {:>18} {:>12}",
        "algorithm", "total cost", "plans considered", "infeasible"
    );
    for (name, alg) in &algs {
        let mut registry = ReuseRegistry::new();
        let out =
            consolidate::deploy_all(alg.as_ref(), &wl.catalog, &wl.queries, &mut registry, true);
        let infeasible = out.deployments.iter().filter(|d| d.is_none()).count();
        println!(
            "{:<18} {:>14.1} {:>18} {:>12}",
            name,
            out.total_cost(),
            out.stats.plans_considered,
            infeasible
        );
    }
    ExitCode::SUCCESS
}

fn plan(o: &Opts) -> ExitCode {
    use dsq::prelude::{optimize_all, ParallelConfig};
    if let Some(t) = o.threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build_global()
            .expect("configure worker pool");
    }
    let env = Environment::build(o.network(), o.max_cs);
    let wl = o.workload(&env.network);
    env.plan_cache.set_enabled(!o.no_cache);
    let cfg = ParallelConfig {
        parallel: !o.no_parallel,
        ..ParallelConfig::default()
    };
    println!(
        "{} nodes (h = {}), {} streams, {} queries; {} threads, parallel {}, cache {}\n",
        env.network.len(),
        env.hierarchy.height(),
        wl.catalog.len(),
        wl.queries.len(),
        rayon::current_num_threads(),
        if cfg.parallel { "on" } else { "off" },
        if o.no_cache { "off" } else { "on" },
    );
    let td = TopDown::new(&env);
    let start = std::time::Instant::now();
    let out = optimize_all(
        &env,
        &td,
        &wl.catalog,
        &wl.queries,
        &ReuseRegistry::new(),
        &cfg,
    );
    let wall = start.elapsed();
    let infeasible = out.deployments.len() - out.planned();
    println!("planned           {:>12} queries", out.planned());
    println!("infeasible        {:>12}", infeasible);
    println!("total cost        {:>12.1}", out.total_cost);
    println!("plans considered  {:>12}", out.stats.plans_considered);
    println!("cache hits        {:>12}", env.plan_cache.hits());
    println!("cache misses      {:>12}", env.plan_cache.misses());
    println!("wall time         {:>12.1} ms", wall.as_secs_f64() * 1e3);
    ExitCode::SUCCESS
}

fn simulate(o: &Opts) -> ExitCode {
    let env = Environment::build(o.network(), o.max_cs);
    let wl = o.workload(&env.network);
    let sim = TupleSimulator::new(&env.network);
    let mut registry = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    println!(
        "{:<8} {:>8} {:>12} {:>12} {:>10} {:>12}",
        "query", "streams", "predicted", "measured", "results", "latency(ms)"
    );
    for q in wl.queries.iter().take(5) {
        let d = match TopDown::new(&env).optimize(&wl.catalog, q, &registry, &mut stats) {
            Some(d) => d,
            None => continue,
        };
        let r = sim.run(
            &wl.catalog,
            q,
            &d,
            TupleSimConfig {
                duration: o.duration,
                warmup: o.duration * 0.1,
                ..TupleSimConfig::default()
            },
        );
        println!(
            "{:<8} {:>8} {:>12.1} {:>12.1} {:>10} {:>12.1}",
            q.id.to_string(),
            q.sources.len(),
            r.predicted_cost_per_time,
            r.measured_cost_per_time,
            r.results_delivered,
            r.mean_latency_ms
        );
        registry.register_deployment(q, &d);
    }
    ExitCode::SUCCESS
}

fn chaos(o: &Opts) -> ExitCode {
    use dsq::server::chaos::{FaultConfig, FaultSchedule};
    use dsq::server::{ChaosRunner, ServiceConfig};
    use dsq::sim::emulab::RetryPolicy;
    let env = Environment::build(o.network(), o.max_cs);
    let wl = o.workload(&env.network);
    let cfg = FaultConfig {
        events: o.events,
        ..FaultConfig::default()
    };
    let schedule = FaultSchedule::generate(&env, &cfg, o.seed);
    let runner = ChaosRunner {
        policy: if o.drop > 0.0 {
            RetryPolicy::lossy(o.drop)
        } else {
            RetryPolicy::reliable()
        },
        protocol_seed: o.seed,
        service: ServiceConfig {
            cache: !o.no_cache,
            ..ServiceConfig::default()
        },
        ..ChaosRunner::default()
    };
    println!(
        "chaos: {} nodes, {} queries, {} events, drop probability {}, cache {}\n",
        env.network.len(),
        wl.queries.len(),
        o.events,
        o.drop,
        if o.no_cache { "off" } else { "on" },
    );
    let r = runner.run(env, &wl.catalog, &wl.queries, &schedule);
    println!(
        "events            {:>8} applied, {} skipped over {:.1} s simulated",
        r.applied,
        r.skipped,
        r.duration_ms / 1000.0
    );
    println!(
        "queries           {:>8} installed -> {} live, {} parked, {} lost",
        r.installed_initially,
        r.final_installed,
        r.final_parked,
        r.lost.len()
    );
    println!(
        "redeployments     {:>8} ({} instantiation failures parked for retry)",
        r.redeployments, r.instantiation_failures
    );
    println!("availability      {:>8.4}", r.availability);
    println!(
        "MTTR              {:>8.1} ms (simulated protocol time)",
        r.mttr_ms
    );
    println!(
        "protocol          {:>8} retransmissions, {:.1} ms in timeouts",
        r.protocol_retries, r.protocol_retry_ms
    );
    println!(
        "standing cost     {:>8.1} -> {:.1}",
        r.cost_initial, r.cost_final
    );
    println!(
        "subplan cache     {:>8} hits, {} misses, {} retired",
        r.cache_hits, r.cache_misses, r.cache_retired
    );
    println!("replan calls      {:>8}", r.queries_replanned);
    println!("invariant checks  {:>8} (all passed)", r.invariant_checks);
    ExitCode::SUCCESS
}

/// Run the canonical planning workload (top-down then bottom-up over the
/// generated query batch, reuse on) under a scoped virtual-clock sink and
/// return the captured trace.
///
/// The virtual clock makes timestamps deterministic event ordinals, so the
/// same seed always produces a byte-identical trace — that property is
/// pinned by `tests/observability.rs`.
fn traced_run(o: &Opts) -> std::sync::Arc<dsq::obs::Sink> {
    let sink = dsq::obs::Sink::new(dsq::obs::ClockMode::Virtual);
    {
        let _scope = dsq::obs::scoped(sink.clone());
        let env = Environment::build(o.network(), o.max_cs);
        let wl = o.workload(&env.network);
        let algs: Vec<(&str, Box<dyn Optimizer>)> = vec![
            ("top-down", Box::new(TopDown::new(&env))),
            ("bottom-up", Box::new(BottomUp::new(&env))),
        ];
        for (_, alg) in &algs {
            let mut registry = ReuseRegistry::new();
            consolidate::deploy_all(alg.as_ref(), &wl.catalog, &wl.queries, &mut registry, true);
        }
    }
    sink
}

fn trace(o: &Opts) -> ExitCode {
    let sink = traced_run(o);
    print!("{}", sink.to_jsonl());
    ExitCode::SUCCESS
}

fn stats(o: &Opts) -> ExitCode {
    let sink = traced_run(o);
    let snap = sink.snapshot();
    println!(
        "observability summary ({} events, size {}, seed {}, {} streams, {} queries)\n",
        sink.event_count(),
        o.size,
        o.seed,
        o.streams,
        o.queries
    );
    println!("{:<36} {:>12}", "counter", "value");
    for (name, value) in &snap.counters {
        println!("{name:<36} {value:>12}");
    }
    if !snap.histograms.is_empty() {
        println!(
            "\n{:<36} {:>8} {:>10} {:>10} {:>10}",
            "histogram", "count", "mean", "min", "max"
        );
        for (name, h) in &snap.histograms {
            println!(
                "{name:<36} {:>8} {:>10.2} {:>10.2} {:>10.2}",
                h.count,
                h.mean(),
                h.min,
                h.max
            );
        }
    }
    ExitCode::SUCCESS
}

fn fuzz(o: &Opts) -> ExitCode {
    use dsq_fuzz::{run_campaign, silence_panics, CampaignConfig};
    // The oracle converts internal panics into violations; the default
    // hook's backtraces would drown the campaign log.
    silence_panics();
    // Replay mode: a positional .case file runs the oracle once instead of
    // a campaign; --check narrows the report to one invariant.
    if let Some(path) = o.positional.first() {
        return fuzz_replay(path, o.check.as_deref());
    }
    if let Some(slug) = &o.check {
        eprintln!("fuzz: --check {slug} needs a .case file to replay");
        return ExitCode::FAILURE;
    }
    let out_dir = o.out.clone().unwrap_or_else(|| "target/fuzz".to_string());
    let cfg = CampaignConfig {
        seed: o.seed,
        iters: o.iters,
        max_nodes: o.max_nodes,
        wide_milli: o.wide_milli,
        service_milli: o.service_milli,
        advert_budget: o.advert_budget.unwrap_or(0),
        shrink_budget: o.shrink_budget,
        out_dir: Some(out_dir.clone().into()),
    };
    println!(
        "fuzz: seed {}, {} iterations, topologies ≤ {} nodes, repros -> {}\n",
        cfg.seed, cfg.iters, cfg.max_nodes, out_dir
    );
    let start = std::time::Instant::now();
    let outcome = match run_campaign(&cfg, |i, found| {
        if (i + 1) % 25 == 0 {
            println!("  [{:>4}/{}] {} finding(s)", i + 1, cfg.iters, found);
        }
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fuzz: cannot write repros: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "\n{} case(s), {} oracle run(s), {:.1} s wall",
        outcome.iterations,
        outcome.oracle_runs,
        start.elapsed().as_secs_f64()
    );
    if outcome.clean() {
        println!("no invariant violations");
        return ExitCode::SUCCESS;
    }
    for f in &outcome.findings {
        println!(
            "\nviolation [{}] at iteration {}:\n  {}",
            f.violation.check.slug(),
            f.iteration,
            f.violation.detail.replace('\n', "\n  ")
        );
        if let Some(path) = &f.written {
            println!("  minimized repro: {}", path.display());
        }
    }
    eprintln!("\n{} finding(s) — see repros above", outcome.findings.len());
    ExitCode::FAILURE
}

/// `dsqctl fuzz FILE.case [--check SLUG]`: replay one repro against the
/// whole oracle and report (optionally only one check's) violations.
fn fuzz_replay(path: &str, check: Option<&str>) -> ExitCode {
    use dsq_fuzz::CheckId;
    let filter = match check {
        None => None,
        Some(slug) => match CheckId::from_slug(slug) {
            Some(c) => Some(c),
            None => {
                let known: Vec<&str> = CheckId::ALL.iter().map(|c| c.slug()).collect();
                eprintln!("fuzz: unknown check {slug:?}; one of: {}", known.join(", "));
                return ExitCode::FAILURE;
            }
        },
    };
    let violations = match dsq_fuzz::verify_case_file(std::path::Path::new(path), filter) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scope = match filter {
        Some(c) => format!("check '{}'", c.slug()),
        None => "the full oracle".to_string(),
    };
    if violations.is_empty() {
        println!("{path}: passes {scope}");
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        println!(
            "violation [{}]:\n  {}",
            v.check.slug(),
            v.detail.replace('\n', "\n  ")
        );
    }
    eprintln!("{path}: {} violation(s) against {scope}", violations.len());
    ExitCode::FAILURE
}

/// `dsqctl serve`: the resident planning service, fed from a script file,
/// stdin, or a TCP socket — plus the `--selftest` crash-recovery smoke run.
fn serve(o: &Opts) -> ExitCode {
    use dsq_server::{PlanningService, ServiceConfig};
    use std::path::Path;

    if o.selftest {
        return serve_selftest(o);
    }

    let mut cfg = ServiceConfig {
        seed: o.seed,
        ..ServiceConfig::default()
    };
    if let Some(n) = o.max_queue {
        cfg.max_queue = n;
    }
    if let Some(n) = o.budget {
        cfg.replan_budget = n;
    }
    if let Some(ms) = o.deadline {
        cfg.default_deadline_ms = ms;
    }
    if let Some(n) = o.snapshot_every {
        cfg.snapshot_every = n;
    }
    if let Some(n) = o.advert_budget {
        cfg.advert_budget = n;
    }

    let journal_path = o.journal.as_deref().map(Path::new);
    let mut svc = if o.recover {
        let Some(path) = journal_path else {
            eprintln!("serve: --recover needs --journal FILE");
            return ExitCode::FAILURE;
        };
        match PlanningService::recover_from_path(path) {
            Ok(s) => {
                eprintln!(
                    "[recovered epoch {} from {} ({} journal entries)]",
                    s.core().epoch,
                    path.display(),
                    s.journal_len()
                );
                s
            }
            Err(e) => {
                eprintln!("serve: recovery failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match PlanningService::new(cfg, journal_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve: cannot start: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let result = if let Some(script) = &o.script {
        let text = match std::fs::read_to_string(script) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("serve: cannot read {script}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut stdout = std::io::stdout().lock();
        dsq_server::net::serve_lines(&mut svc, text.as_bytes(), &mut stdout).map(|_| ())
    } else if let Some(addr) = &o.listen {
        let mut status = std::io::stderr().lock();
        dsq_server::net::serve_tcp(&mut svc, addr, &mut status)
    } else {
        let stdin = std::io::stdin().lock();
        let mut stdout = std::io::stdout().lock();
        dsq_server::net::serve_lines(&mut svc, stdin, &mut stdout).map(|_| ())
    };
    match result {
        Ok(()) => {
            eprintln!(
                "[served to epoch {}, {} queries planned]",
                svc.core().epoch,
                svc.core()
                    .slots
                    .values()
                    .filter(|s| s.deployment.is_some())
                    .count()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dsqctl serve --selftest`: generate a seeded request script, run it
/// uncrashed, then re-run it against a journaled service that is killed and
/// recovered at seeded points — the two runs must agree response-for-
/// response, and the epoch must survive every crash.
fn serve_selftest(o: &Opts) -> ExitCode {
    use dsq_server::{generate_script, run_plain, run_with_crashes, CrashSchedule};
    use dsq_server::{ScriptConfig, ServiceConfig};

    let mut cfg = ServiceConfig {
        seed: o.seed,
        ..ServiceConfig::default()
    };
    if let Some(n) = o.max_queue {
        cfg.max_queue = n;
    }
    if let Some(n) = o.budget {
        cfg.replan_budget = n;
    }
    if let Some(n) = o.snapshot_every {
        cfg.snapshot_every = n;
    }
    if let Some(n) = o.advert_budget {
        cfg.advert_budget = n;
    }
    let script = ScriptConfig {
        seed: o.seed,
        ..ScriptConfig::default()
    };
    let lines = generate_script(&cfg, &script);
    println!(
        "selftest: {} scripted requests (seed {})",
        lines.len(),
        o.seed
    );

    let reference = match run_plain(&cfg, &lines) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("selftest: uncrashed run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "selftest: uncrashed run reached epoch {}",
        reference.final_epoch
    );

    let dir = std::env::temp_dir().join(format!("dsqctl-selftest-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("selftest: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let journal = dir.join("selftest.journal");
    let schedule = CrashSchedule::generate(o.seed ^ 0xC4A5, lines.len(), 3);
    let crashed = match run_with_crashes(&cfg, &lines, &schedule, &journal) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("selftest: crashed run failed: {e}");
            std::fs::remove_dir_all(&dir).ok();
            return ExitCode::FAILURE;
        }
    };
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "selftest: {} kill-and-recover cycles, final epoch {}",
        crashed.kills, crashed.final_epoch
    );

    let mut ok = true;
    if crashed.kills == 0 {
        println!("FAIL: crash schedule produced no kills");
        ok = false;
    }
    if crashed.final_epoch != reference.final_epoch {
        println!(
            "FAIL: epoch diverged: {} crashed vs {} reference",
            crashed.final_epoch, reference.final_epoch
        );
        ok = false;
    }
    if crashed.fingerprint != reference.fingerprint {
        println!(
            "FAIL: state fingerprint diverged\nreference:\n{}\ncrashed:\n{}",
            reference.fingerprint, crashed.fingerprint
        );
        ok = false;
    }
    if crashed.responses != reference.responses {
        let diverged = crashed
            .responses
            .iter()
            .zip(&reference.responses)
            .position(|(a, b)| a != b);
        println!("FAIL: responses diverged (first at index {diverged:?})");
        ok = false;
    }
    if ok {
        println!(
            "selftest: OK — recovery is exact across {} crashes",
            crashed.kills
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn sql(o: &Opts) -> ExitCode {
    let stmt = match o.positional.first() {
        Some(s) => s.clone(),
        None => {
            eprintln!("sql: missing statement argument");
            return ExitCode::FAILURE;
        }
    };
    let scenario = airline_scenario();
    let env = Environment::build(scenario.network.clone(), 4);
    let sink = o.sink.map(NodeId).unwrap_or(scenario.nodes.sink4);
    let query = match dsq_query::parse_query(
        &stmt,
        &scenario.catalog,
        QueryId(0),
        sink,
        &SelectivityHints::default(),
    ) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let registry = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    match TopDown::new(&env).optimize(&scenario.catalog, &query, &registry, &mut stats) {
        Some(d) => {
            print!("{}", d.describe(&scenario.catalog));
            if o.dot {
                print!("{}", dsq_query::deployment_to_dot(&d, &scenario.catalog));
            }
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("query could not be deployed");
            ExitCode::FAILURE
        }
    }
}
