//! One run of one workload: the service lifecycle, lap after lap.
//!
//! Load model: the service's clients wait for each reply and `serve_tcp`
//! serves one connection at a time, so every phase is a closed loop with
//! one client (in process: one harness thread; wire: one server thread and
//! one client thread).
//!
//! A run is a number of **laps**. A lap is one life of the service, the
//! same script of other seeded requests every time:
//!
//! 1. **set-up** — `PlanningService::new` (`setup_s`);
//! 2. **bulk** — registrations in batches, each drained (`plan_qps`), then
//!    the lap's plan-quality sample (`cost_vs_optimal`, over all laps);
//! 3. **steady cycles** at the population the bulk phase left
//!    (`drain_p50_ms`), **crash cycles** (`crash_repair_p10_ms`) and
//!    **degrade cycles** (`degrade_repair_min_ms`);
//! 4. **crash + recovery** — drop the service and rebuild it from its
//!    journal (`recovery_s`); require equal fingerprints. Everything up to
//!    here is count-boxed, so every count and cost repeats exactly for a
//!    seed;
//! 5. **wire cycles**, time-boxed, on the recovered service (`wire_*`);
//! 6. on the last lap: peak RSS is read, then the correctness gate runs,
//!    untimed. The service is dropped.
//!
//! A latency is the time one request blocked the client; harness work
//! (generating lines, checking responses) is outside every timing.
//!
//! **Why laps.** The service slows down as it ages — the advert registry
//! keeps every advert ever published and walks them all on every probe,
//! publish and retirement, so at a constant population a drain takes 1.7x
//! longer after 4,000 registrations than after 800 — and then no two
//! stretches of one long life measure the same thing. Laps are lives of
//! equal age, seconds apart, and each yields one value of every metric.
//!
//! **What a run reports.** The host is shared (see [`crate::calm`]): its
//! neighbours take the cores away and slow the memory system, for seconds
//! at a time, and never make anything faster. A median over the run reads
//! whichever held the host for longer, the program or its neighbours; a
//! run instead reports the program while the host left it alone. Requests
//! served in process, set-up and recovery are timed on the process's CPU
//! clock; only the wire cycles, where the client waits for another thread
//! and the kernel, are on the wall clock. Drains and crash repairs
//! (thousands of short requests) report a percentile over the samples
//! beside which the harness's probe of the memory system read lowest.
//! What repeats the same work — set-up, the bulk batches, recovery, a
//! degrade repair, the wire figures — reports the best value seen.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dsq_core::{Optimal, SearchStats};
use dsq_net::LinkKind;
use dsq_obs::mini_json::Json;
use dsq_obs::{ClockMode, Sink};
use dsq_query::{Deployment, ReuseRegistry};
use dsq_server::journal::{Journal, JournalEntry};
use dsq_server::protocol::{resp_error, Request};
use dsq_server::{PlanningService, SlotStatus};
use dsq_sim::FlowSimulator;

use crate::calm::{calmest, CpuClock, Probe};
use crate::layers;
use crate::metrics::{self, Better};
use crate::script::{number, placement_of, Expect, Gate, ScriptGen};
use crate::spans::{Span, Tracer};
use crate::stats::{median, min_max, percentile, sorted};
use crate::workloads::{Workload, BATCH, STEADY_SWAP, WIRE_QUERIES, WIRE_SWAP};

/// Most `query` lines the traced pass repeats in process after the wire
/// cycles.
const LOCAL_REPLAY: usize = 2000;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind the value (1 for a single reading or a count).
    pub n: usize,
    /// Repeats exactly for a seed: a cost or count taken in the
    /// count-boxed part of the run.
    pub exact: bool,
}

impl Metric {
    pub fn timed(name: &str, value: f64, unit: &str, n: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            n,
            exact: false,
        }
    }

    pub fn exact(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            n: 1,
            exact: true,
        }
    }
}

#[derive(Debug)]
pub struct RunResult {
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    /// FNV-1a of the service fingerprint when it was crashed.
    pub state_hash: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub spans: Vec<Span>,
}

/// Latency samples of one kind in the order taken, each with the probe's
/// reading of the host around it (see [`crate::calm`]).
#[derive(Debug, Default)]
pub struct Gated(Vec<(f64, f64)>);

impl Gated {
    pub fn all(&self) -> Vec<f64> {
        self.0.iter().map(|&(sample, _)| sample).collect()
    }

    /// The `pct`-th percentile of the samples taken while the host was
    /// calmest: of the `1 / share` of them with the lowest probe readings.
    pub fn calm_percentile(&self, share: usize, pct: u32) -> f64 {
        percentile(&sorted(&calmest(&self.0, share)), pct)
    }
}

/// Latency samples of one run, in milliseconds unless named otherwise.
#[derive(Debug, Default)]
pub struct Samples {
    /// One build per lap.
    pub setup_s: Vec<f64>,
    /// How long each batch of the bulk phase (its admission and its drain)
    /// held the client, one list per lap.
    pub bulk_batches: Vec<Vec<f64>>,
    pub optimal_ms: Vec<f64>,
    /// Over every lap's quality sample: what the service's plans cost, and
    /// what the exact optimum's would.
    pub served_cost: f64,
    pub optimal_cost: f64,
    pub drain: Gated,
    /// Traced pass only: the steady cycles run with recording off.
    pub drain_untraced: Vec<f64>,
    pub crash: Gated,
    pub rejoin: Vec<f64>,
    pub degrade: Vec<f64>,
    /// One recovery per lap.
    pub recovery_s: Vec<f64>,
    /// Of the first lap.
    pub replayed: usize,
    pub journal_bytes: u64,
    pub wire_query: Vec<f64>,
    /// The median `query` round trip and the requests completed per
    /// second, one value of each per lap's wire cycles.
    pub wire_rtt_p50: Vec<f64>,
    pub wire_ops_per_s: Vec<f64>,
    pub flow_build_ms: f64,
    pub flow_evaluate_ms: f64,
    /// Traced pass only.
    pub local_query: Vec<f64>,
    pub submit_register_us: Vec<f64>,
    pub submit_query_us: Vec<f64>,
}

/// The closed-loop client: one service, one script, one gate.
pub struct Session<'a> {
    pub w: &'a Workload,
    svc: Option<PlanningService>,
    pub gen: ScriptGen,
    pub gate: Gate,
    pub tracer: Tracer,
    /// The traced pass's sink for the program's existing counters.
    sink: Option<Arc<Sink>>,
    req: u64,
    scratch: PathBuf,
    /// This lap's journal file (a name per lap: a snapshot left beside an
    /// earlier lap's journal must not meet this one's).
    journal_path: PathBuf,
    /// Until the lap's recovery, every mutating line sent to a service
    /// whose journal lives in memory only: recovery replays a journal
    /// rebuilt from them.
    mirror: Option<Vec<String>>,
    pub origins: BTreeSet<u32>,
    /// The links degrade reports name: the gateway links, which every path
    /// into or out of a stub domain crosses, so each report repairs every
    /// row of the distance matrix. A stub link is on all shortest paths or
    /// on none (tree edge or chord); drawn uniformly, the repair latency is
    /// bimodal (120 ms or 1.3 s on 4,224 nodes) and its median a coin flip.
    pub gateways: Vec<(u32, u32)>,
    last_total_cost: f64,
    probe: Probe,
    pub samples: Samples,
}

fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

impl<'a> Session<'a> {
    pub fn svc(&self) -> &PlanningService {
        self.svc.as_ref().expect("service is up")
    }

    /// Send one line in process; returns the checked response and how long
    /// the service held the client, in ms on the CPU clock (see
    /// [`crate::calm`]).
    fn send(&mut self, line: &str, expect: Expect) -> (Option<Json>, f64) {
        self.req += 1;
        let svc = self.svc.as_mut().expect("service is up");
        let (resp, took) = if self.tracer.is_on() {
            // What `submit_line` does, split so that parse and submit are
            // sibling spans of one request.
            let outer = self.tracer.enter("request", self.req);
            let t0 = CpuClock::now();
            let p = self.tracer.enter("server.protocol.parse", self.req);
            let parsed = Request::parse(black_box(line));
            self.tracer.exit(p);
            let resp = match parsed {
                Ok(req) => {
                    let s = self.tracer.enter("server.service.submit", self.req);
                    let t1 = Instant::now();
                    let resp = svc.submit(&req);
                    let us = t1.elapsed().as_nanos() as f64 / 1e3;
                    self.tracer.exit(s);
                    match req {
                        Request::Register { .. } => self.samples.submit_register_us.push(us),
                        Request::Query { .. } => self.samples.submit_query_us.push(us),
                        _ => {}
                    }
                    resp
                }
                Err(e) => resp_error("parse", None, &e),
            };
            let took = t0.elapsed_ms();
            self.tracer.exit(outer);
            (resp, took)
        } else {
            let t0 = CpuClock::now();
            let resp = svc.submit_line(black_box(line));
            (resp, t0.elapsed_ms())
        };
        if let Some(mirror) = &mut self.mirror {
            if !matches!(expect, Expect::Planned) {
                mirror.push(line.to_string());
            }
        }
        let parsed = self.gate.check(line, black_box(&resp), expect);
        if let (Expect::Drain { .. }, Some(j)) = (expect, &parsed) {
            self.last_total_cost = number(j, "total_cost").unwrap_or(f64::NAN);
        }
        (parsed, took)
    }

    fn new(w: &'a Workload, seed: u64, trace: bool, scratch: &Path) -> Session<'a> {
        Session {
            w,
            svc: None,
            gen: ScriptGen::new(w, seed),
            gate: Gate::default(),
            tracer: Tracer::new(trace),
            sink: None,
            req: 0,
            scratch: scratch.to_path_buf(),
            journal_path: PathBuf::new(),
            mirror: None,
            origins: BTreeSet::new(),
            gateways: Vec::new(),
            last_total_cost: 0.0,
            probe: Probe::new(),
            samples: Samples::default(),
        }
    }

    /// Phase 1: a new life. Builds the service, timed, and forgets the
    /// population of the life before.
    fn boot(&mut self) {
        let lap = self.samples.setup_s.len();
        self.journal_path = self.scratch.join(format!("journal-{lap}"));
        let path = self
            .w
            .journal_on_disk
            .then_some(self.journal_path.as_path());
        let token = self.tracer.enter("server.service.new", 0);
        let t0 = CpuClock::now();
        let built = PlanningService::new(black_box(self.w.config()), path);
        self.samples.setup_s.push(t0.elapsed_ms() / 1e3);
        self.tracer.exit(token);
        let svc = built.expect("journal file is creatable");
        if self.gateways.is_empty() {
            // The environment is the same in every lap.
            let core = svc.core();
            self.origins = core.catalog.streams().iter().map(|s| s.node.0).collect();
            for a in core.env.network.nodes() {
                for l in core.env.network.neighbors(a) {
                    if l.kind == LinkKind::Gateway && a.0 < l.to.0 {
                        self.gateways.push((a.0, l.to.0));
                    }
                }
            }
        }
        self.svc = Some(svc);
        self.gen.forget_population();
        self.mirror = (!self.w.journal_on_disk).then(Vec::new);
    }

    /// `timed` with the probe read before and after it: its time and the
    /// mean of the two readings.
    fn probed(&mut self, timed: impl FnOnce(&mut Self) -> f64) -> (f64, f64) {
        let before = self.probe.read();
        let took = timed(self);
        (took, (before + self.probe.read()) / 2.0)
    }

    /// Phase 2: `bulk` registrations in batches of [`BATCH`], each batch
    /// drained. Returns the deployed cost after the last drain.
    fn bulk(&mut self) -> f64 {
        let mut pending = 0;
        let mut held_ms = 0.0;
        let mut batches = Vec::new();
        for i in 0..self.w.bulk {
            let line = self.gen.register();
            held_ms += self.send(&line, Expect::Ok("register")).1;
            pending += 1;
            if pending == BATCH || i + 1 == self.w.bulk {
                let line = self.gen.drain();
                let want = Expect::Drain {
                    applied: pending,
                    planned: Some(pending),
                };
                held_ms += self.send(&line, want).1;
                batches.push(std::mem::take(&mut held_ms));
                pending = 0;
            }
        }
        self.samples.bulk_batches.push(batches);
        self.last_total_cost
    }

    /// The lap's plan-quality sample: the served cost (from `query`
    /// responses) and the exact optimum's cost of its oldest few queries,
    /// added to the run's sums.
    fn sample_quality(&mut self) {
        let (sample, max_sources) = self.w.quality;
        let ids: Vec<u32> = (0..self.gen.live_len())
            .map(|i| self.gen.live_id(i))
            .filter(|id| self.svc().core().slots[id].query.sources.len() <= max_sources)
            .take(sample)
            .collect();
        for id in ids {
            let (resp, _) = self.send(&ScriptGen::query(id), Expect::Planned);
            let Some(served) = resp.as_ref().and_then(|j| number(j, "cost")) else {
                continue;
            };
            let core = self.svc().core();
            let t0 = Instant::now();
            let best = Optimal::new(&core.env).try_optimize(
                &core.catalog,
                black_box(&core.slots[&id].query),
                &mut ReuseRegistry::new(),
                &mut SearchStats::new(),
            );
            let took = ms(t0.elapsed());
            self.samples.optimal_ms.push(took);
            self.gate.attempted += 1;
            match best {
                Ok(d) => {
                    self.samples.served_cost += served;
                    self.samples.optimal_cost += black_box(d.cost);
                }
                Err(e) => self
                    .gate
                    .fail(format!("Optimal found no plan for query {id}: {e}")),
            }
        }
    }

    /// The nodes the crash cycles take down: `count` nodes that host an
    /// operator of a live query and are neither a stream origin nor a live
    /// sink, drawn evenly from all such nodes (`query` responses over the
    /// whole population say which they are).
    ///
    /// Evenly, because what a crash costs to repair is what replanning the
    /// queries the node served costs: 2 ms for a node that served one small
    /// join, 25 ms for a hub that served several six-way ones. A node found
    /// through a random query is found in proportion to how many queries it
    /// serves, so such victims are mostly hubs, their repair times spread
    /// 15-fold, and the median moves by a tenth with the luck of the draw.
    fn pick_victims(&mut self, count: usize) -> Vec<u32> {
        let mut hosts: BTreeSet<u32> = BTreeSet::new();
        for i in 0..self.gen.live_len() {
            let line = ScriptGen::query(self.gen.live_id(i));
            let (resp, _) = self.send(&line, Expect::Planned);
            hosts.extend(resp.as_ref().map(placement_of).unwrap_or_default());
        }
        hosts.retain(|n| !self.origins.contains(n) && !self.gen.is_sink(*n));
        if hosts.is_empty() {
            // No operator host qualifies (tiny populations): any node that
            // is neither an origin nor a sink will do.
            return (0..count)
                .map(|_| self.gen.fallback_victim(&self.origins))
                .collect();
        }
        let mut shuffled: Vec<(u64, u32)> = hosts
            .into_iter()
            .map(|n| (self.gen.fault_draw(), n))
            .collect();
        shuffled.sort_unstable();
        shuffled
            .iter()
            .map(|&(_, n)| n)
            .cycle()
            .take(count)
            .collect()
    }

    /// A fault report and the drain that repairs it, as one latency.
    fn fault_and_drain(&mut self, fault: String) -> f64 {
        let a = self.send(&fault, Expect::Ok("fault")).1;
        let drain = self.gen.drain();
        let want = Expect::Drain {
            applied: 1,
            planned: None,
        };
        a + self.send(&drain, want).1
    }

    /// Crash an operator host, repair; let it rejoin, repair.
    fn crash_cycle(&mut self, victim: u32) {
        let crash = self.gen.crash(victim);
        let t = self.probed(|s| s.fault_and_drain(crash));
        self.samples.crash.0.push(t);
        let rejoin = self.gen.rejoin(victim);
        let t = self.fault_and_drain(rejoin);
        self.samples.rejoin.push(t);
    }

    fn degrade_cycle(&mut self) {
        let degrade = self.gen.degrade(&self.gateways);
        let t = self.fault_and_drain(degrade);
        self.samples.degrade.push(t);
    }

    /// Phase 4: crash the service and rebuild it from its journal, timed;
    /// the lap carries on with the rebuilt service. Returns the crashed
    /// service's fingerprint, hashed, and the crashed service itself when
    /// `keep_twin` (the traced pass times layers on it).
    fn crash_and_recover(&mut self, keep_twin: bool) -> (u64, Option<PlanningService>) {
        let old = self.svc.take().expect("service is up");
        let live_print = old.fingerprint();
        // What the in-memory journal held, rebuilt from the lines sent.
        let journal = self.mirror.take().map(|lines| {
            let mut j = Journal::create(old.core().cfg.clone(), None).expect("in-memory journal");
            j.entries.extend(lines.iter().map(|line| {
                let req = Request::parse(line).expect("sent lines parse");
                JournalEntry::from_request(&req).expect("mirror holds mutating lines")
            }));
            j
        });
        if self.samples.recovery_s.is_empty() {
            self.samples.replayed = journal
                .as_ref()
                .map_or(old.journal_len(), |j| j.entries.len());
            self.samples.journal_bytes = match &journal {
                Some(j) => j.to_text().len() as u64,
                None => std::fs::metadata(&self.journal_path).map_or(0, |m| m.len()),
            };
        }
        let twin = keep_twin.then_some(old);
        let token = self.tracer.enter("server.service.recover", 0);
        let t0 = CpuClock::now();
        let recovered = match journal {
            Some(j) => PlanningService::recover(black_box(j)),
            None => PlanningService::recover_from_path(black_box(&self.journal_path)),
        };
        self.samples.recovery_s.push(t0.elapsed_ms() / 1e3);
        self.tracer.exit(token);
        self.gate.attempted += 1;
        match recovered {
            Ok(svc) => {
                let same = svc.fingerprint() == live_print;
                self.gate.require(same, || {
                    "recovered fingerprint differs from the live one".into()
                });
                self.svc = Some(svc);
            }
            Err(e) => {
                self.gate.fail(format!("recovery failed: {e}"));
                // Carry on with a fresh service so that the run still
                // reports; the gate has already failed it.
                let path = self
                    .w
                    .journal_on_disk
                    .then_some(self.journal_path.as_path());
                self.svc = PlanningService::new(self.w.config(), path).ok();
            }
        }
        (fnv1a(live_print.as_bytes()), twin)
    }

    fn steady_cycle(&mut self) -> (f64, f64) {
        for _ in 0..STEADY_SWAP {
            let line = self.gen.unregister_oldest();
            self.send(&line, Expect::Ok("unregister"));
        }
        for _ in 0..STEADY_SWAP {
            let line = self.gen.register();
            self.send(&line, Expect::Ok("register"));
        }
        let line = self.gen.drain();
        let want = Expect::Drain {
            applied: 2 * STEADY_SWAP,
            planned: Some(STEADY_SWAP),
        };
        self.probed(|s| s.send(&line, want).1)
    }

    /// Phase 3's steady cycles. In the traced pass every other cycle runs
    /// with span recording and the obs sink off, which gives the pass its
    /// own overhead ratio on identical work.
    fn steady_cycles(&mut self, cycles: usize) {
        for _ in 0..cycles {
            let done = self.samples.drain.0.len() + self.samples.drain_untraced.len();
            if self.sink.is_some() && done % 2 == 1 {
                self.tracer.set_on(false);
                let (t, _) = self.steady_cycle();
                self.samples.drain_untraced.push(t);
                self.tracer.set_on(true);
            } else {
                let _guard = self.sink.clone().map(dsq_obs::scoped);
                let t = self.steady_cycle();
                self.samples.drain.0.push(t);
            }
        }
    }

    /// Phase 5: the service behind `serve_tcp` on a loopback port, one
    /// client connection with `TCP_NODELAY`. At least `min_cycles`, then as
    /// many more as fit in `budget`.
    fn wire_cycles(&mut self, min_cycles: usize, budget: Duration) {
        let mut svc = self.svc.take().expect("service is up");
        self.gen.set_on_wire(true);
        let (addr_tx, addr_rx) = mpsc::channel();
        let server_sink = self.sink.clone();
        let server = std::thread::spawn(move || {
            let _guard = server_sink.map(dsq_obs::scoped);
            let mut tap = AddrTap {
                seen: Vec::new(),
                to_client: addr_tx,
            };
            let served = dsq_server::net::serve_tcp(&mut svc, "127.0.0.1:0", &mut tap);
            (svc, served)
        });
        // The sender drops when `serve_tcp` returns, so a failed bind ends
        // this wait at once.
        let outcome = match addr_rx.recv() {
            Ok(addr) => self.wire_client(&addr, min_cycles, budget),
            Err(_) => Err(std::io::Error::other("serve_tcp never listened")),
        };
        let (svc, served) = server.join().expect("server thread does not panic");
        self.svc = Some(svc);
        self.gen.set_on_wire(false);
        self.gate.attempted += 1;
        if let Err(e) = outcome.and(served) {
            self.gate
                .fail(format!("transport error in the wire cycles: {e}"));
        }
    }

    fn wire_cycle(&mut self) -> Vec<(String, Expect)> {
        let mut lines = Vec::with_capacity(2 * WIRE_SWAP + WIRE_QUERIES + 2);
        for _ in 0..WIRE_SWAP {
            lines.push((self.gen.unregister_oldest(), Expect::Ok("unregister")));
        }
        for _ in 0..WIRE_SWAP {
            lines.push((self.gen.register(), Expect::Ok("register")));
        }
        let want = Expect::Drain {
            applied: 2 * WIRE_SWAP,
            planned: Some(WIRE_SWAP),
        };
        lines.push((self.gen.drain(), want));
        for _ in 0..WIRE_QUERIES {
            lines.push((self.gen.query_random_live(), Expect::Planned));
        }
        lines.push((ScriptGen::stats(), Expect::Ok("stats")));
        lines
    }

    fn wire_client(
        &mut self,
        addr: &str,
        min_cycles: usize,
        budget: Duration,
    ) -> std::io::Result<()> {
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut reader = BufReader::new(conn.try_clone()?);
        let mut resp = String::new();
        let start = Instant::now();
        let mut cycles = 0;
        let mut last_cycle = Duration::ZERO;
        let (mut ops, mut ops_ms) = (0, 0.0);
        let first_query = self.samples.wire_query.len();
        let mut result = Ok(());
        // Past the minimum, a cycle starts only if one as long as the last
        // would still end inside the budget.
        'cycles: while cycles < min_cycles || start.elapsed() + last_cycle < budget {
            let cycle_start = Instant::now();
            for (line, expect) in self.wire_cycle() {
                self.req += 1;
                let framed = format!("{line}\n");
                let outer = self.tracer.enter("request", self.req);
                let inner = self.tracer.enter("server.net.roundtrip", self.req);
                let t0 = Instant::now();
                let io = conn.write_all(framed.as_bytes()).and_then(|()| {
                    resp.clear();
                    reader.read_line(&mut resp)
                });
                let took = ms(t0.elapsed());
                self.tracer.exit(inner);
                self.tracer.exit(outer);
                match io {
                    Ok(n) if n > 0 => {}
                    Ok(_) => {
                        result = Err(std::io::Error::other("server closed the connection"));
                        break 'cycles;
                    }
                    Err(e) => {
                        result = Err(e);
                        break 'cycles;
                    }
                }
                let parsed = self.gate.check(&line, resp.trim_end(), expect);
                ops += 1;
                ops_ms += took;
                if expect == Expect::Planned {
                    self.samples.wire_query.push(took);
                } else if let (Expect::Drain { .. }, Some(j)) = (expect, &parsed) {
                    self.last_total_cost = number(j, "total_cost").unwrap_or(f64::NAN);
                }
            }
            cycles += 1;
            last_cycle = cycle_start.elapsed();
        }
        if ops > 0 {
            self.samples.wire_ops_per_s.push(ops as f64 / ops_ms * 1e3);
        }
        if let Some(queries) = self.samples.wire_query.get(first_query..) {
            if !queries.is_empty() {
                self.samples.wire_rtt_p50.push(median(queries));
            }
        }
        // On a transport error the server is still reading: close it too.
        let bye = conn.write_all(b"shutdown\n");
        result.and(bye)
    }

    /// Traced pass: as many `query` lines as the wire cycles sent, of the
    /// same form, in process: what is left of a round trip without the
    /// transport. Read-only, so the service's state is untouched.
    fn queries_without_the_wire(&mut self) {
        self.tracer.set_on(false);
        for _ in 0..self.samples.wire_query.len().min(LOCAL_REPLAY) {
            let line = self.gen.query_random_live();
            let t = self.send(&line, Expect::Planned).1;
            self.samples.local_query.push(t);
        }
        self.tracer.set_on(true);
    }

    /// Phase 6: the correctness gate over the last lap's final state.
    fn verify_final_state(&mut self) {
        let svc = self.svc.take().expect("service is up");
        let core = svc.core();
        let sinks = self.gen.live_sinks();
        let mut deployments: Vec<&Deployment> = Vec::new();
        for (id, slot) in &core.slots {
            self.gate.attempted += 1;
            let Some(d) = slot
                .deployment
                .as_ref()
                .filter(|_| slot.status == SlotStatus::Planned)
            else {
                self.gate
                    .fail(format!("query {id} is {} at the end", slot.status.name()));
                continue;
            };
            let active = d.placement.iter().all(|&n| core.env.hierarchy.is_active(n));
            self.gate.require(active, || {
                format!(
                    "query {id} is placed on an inactive node: {:?}",
                    d.placement
                )
            });
            self.gate.require(sinks.get(id) == Some(&d.sink.0), || {
                format!(
                    "query {id} delivers to {} not its registered sink",
                    d.sink.0
                )
            });
            deployments.push(d);
        }
        self.gate.attempted += 1;
        self.gate.require(core.slots.len() == sinks.len(), || {
            format!(
                "{} queries live, {} registered",
                core.slots.len(),
                sinks.len()
            )
        });

        // An independent costing: route every deployed edge over the final
        // network (which carries the degraded link costs).
        let t0 = Instant::now();
        let sim = FlowSimulator::new(black_box(&core.env.network));
        self.samples.flow_build_ms = ms(t0.elapsed());
        let t0 = Instant::now();
        let flow_cost = black_box(sim.evaluate(black_box(&deployments))).total_cost;
        self.samples.flow_evaluate_ms = ms(t0.elapsed());
        drop(sim);
        let drained = self.last_total_cost;
        self.gate.attempted += 1;
        self.gate
            .require((flow_cost - drained).abs() <= 1e-9 * drained.abs(), || {
                format!("flow simulation costs {flow_cost}, the last drain reported {drained}")
            });

        // Replays what the last snapshot does not cover; without snapshots
        // it would replay the whole run, which the mid-run recovery covers.
        if self.w.journal_on_disk && self.w.snapshot_every > 0 {
            let live_print = svc.fingerprint();
            drop(svc);
            self.gate.attempted += 1;
            match PlanningService::recover_from_path(&self.journal_path) {
                Ok(r) => self.gate.require(r.fingerprint() == live_print, || {
                    "final fingerprint differs after recovery from the journal".into()
                }),
                Err(e) => self.gate.fail(format!("final recovery failed: {e}")),
            }
        }
    }
}

/// Hands `serve_tcp`'s "listening on <addr>" status line to the client.
/// `writeln!` may deliver the line in pieces, so it is buffered to the
/// newline.
struct AddrTap {
    seen: Vec<u8>,
    to_client: mpsc::Sender<String>,
}

impl Write for AddrTap {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.seen.extend_from_slice(buf);
        if self.seen.ends_with(b"\n") {
            let text = String::from_utf8_lossy(&self.seen);
            if let Some(addr) = text.trim().strip_prefix("listening on ") {
                let _ = self.to_client.send(addr.to_string());
            }
            self.seen.clear();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The bulk phase at its best: every lap admits the same number of
/// registrations in the same batches at the same populations, so the k-th
/// batch of one lap does the k-th batch of another's work, and the lowest
/// time each batch took in any lap adds up to a bulk phase none of whose
/// batches met a busy host — which on a bad day no single lap manages.
fn best_bulk_ms(laps: &[Vec<f64>]) -> f64 {
    let batches = laps.first().map_or(0, Vec::len);
    (0..batches)
        .map(|k| min_max(&laps.iter().map(|lap| lap[k]).collect::<Vec<_>>()).0)
        .sum()
}

/// Run `w` once. `scratch` holds the journals and is the caller's to
/// remove.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool, scratch: &Path) -> RunResult {
    let sink = trace.then(|| Sink::new(ClockMode::Monotonic));
    let scoped = || sink.clone().map(dsq_obs::scoped);
    let mut per_layer = Vec::new();
    let mut s = Session::new(w, seed, trace, scratch);
    s.sink = sink.clone();

    let laps = w.scaled(w.laps, seconds);
    let wire_laps = w.wire_laps.min(laps);
    let wire_budget = Duration::from_secs_f64(seconds * w.wire_share / wire_laps as f64);
    let (mut state_hash, mut peak_rss) = (0, f64::NAN);
    for lap in 0..laps {
        let first = lap == 0;
        let guard = scoped();
        s.boot();
        if trace && first {
            per_layer.extend(layers::setup_stages(w, &mut s.tracer));
        }
        let total_cost = s.bulk();
        s.sample_quality();
        drop(guard);
        // Scopes the sink itself, cycle by cycle.
        s.steady_cycles(w.steady_cycles);
        let guard = scoped();
        for victim in s.pick_victims(w.crash_cycles) {
            s.crash_cycle(victim);
        }
        for _ in 0..w.degrade_cycles {
            s.degrade_cycle();
        }
        let counters = sink.as_ref().map(|k| k.snapshot().counters);
        let (hash, twin) = s.crash_and_recover(trace && first);
        if first {
            state_hash = hash;
        }
        if let (Some(twin), Some(counters)) = (twin, counters) {
            per_layer.push(Metric::exact("core.deployed_cost", total_cost, "cost"));
            per_layer.extend(layers::at_crash_point(&s, &twin, &counters, scratch));
        }
        if lap < wire_laps {
            s.wire_cycles(w.wire_cycles, wire_budget);
        }
        drop(guard);
        if lap + 1 == laps {
            // Less the harness's own probe buffer, touched in full.
            peak_rss = peak_rss_mb() - s.probe.resident_mb();
            if trace {
                s.queries_without_the_wire();
            }
            s.verify_final_state();
        }
        s.svc = None;
    }

    let x = &s.samples;
    let best = |name: &str, unit: &str, laps: &[f64], n: usize| {
        let (lo, hi) = min_max(laps);
        let higher = metrics::find(name).is_some_and(|m| m.better == Better::Higher);
        Metric::timed(name, if higher { hi } else { lo }, unit, n)
    };
    let calm = |name: &str, g: &Gated, share: usize, pct: u32| {
        Metric::timed(name, g.calm_percentile(share, pct), "ms", g.0.len())
    };
    let end_to_end = vec![
        best("setup_s", "s", &x.setup_s, x.setup_s.len()),
        Metric::timed("peak_rss_mb", peak_rss, "MB", 1),
        Metric::timed(
            "plan_qps",
            w.bulk as f64 / best_bulk_ms(&x.bulk_batches) * 1e3,
            "1/s",
            x.bulk_batches.len() * w.bulk,
        ),
        calm("drain_p50_ms", &x.drain, 4, 50),
        // What a crash costs to repair is what replanning the queries the
        // node served costs, on top of a fixed part (surgery, membership,
        // retirement): 2 ms to 25 ms from one victim to the next. The
        // median of that follows the seed (2.0-3.0 ms over ten seeds of
        // 300 crashes each on a quiet host); the lower decile is the fixed
        // part plus one small replan, and repeats within 6 %.
        calm("crash_repair_p10_ms", &x.crash, 2, 10),
        best("degrade_repair_min_ms", "ms", &x.degrade, x.degrade.len()),
        best("recovery_s", "s", &x.recovery_s, x.recovery_s.len()),
        best("wire_rtt_p50_ms", "ms", &x.wire_rtt_p50, x.wire_query.len()),
        best(
            "wire_ops_per_s",
            "1/s",
            &x.wire_ops_per_s,
            x.wire_ops_per_s.len(),
        ),
        Metric::exact("cost_vs_optimal", x.served_cost / x.optimal_cost, "ratio"),
    ];
    if trace {
        let more = layers::from_samples(&s, &per_layer);
        per_layer.extend(more);
    }
    RunResult {
        end_to_end,
        per_layer,
        state_hash,
        attempted: s.gate.attempted,
        failed: s.gate.failed,
        first_failure: s.gate.first_failure.take(),
        spans: s.tracer.spans().to_vec(),
    }
}
