//! Request-line generation and the expectation each response is held to.
//!
//! The service sees only the lines produced here. Query and fault choices
//! come from separate generator streams, and the time-boxed wire cycles
//! draw from streams of their own, so the count-boxed script of a seed is
//! the same in every lap however many wire cycles fit.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dsq_obs::mini_json::{self, Json};

use crate::rng::{SplitMix64, Zipf};
use crate::workloads::Workload;

/// Link cost multiplier of a degrade report, in thousandths (x4).
const DEGRADE_FACTOR_MILLI: u64 = 4000;

/// The generator streams of one part of the script.
#[derive(Clone, Debug)]
struct Draws {
    queries: SplitMix64,
    faults: SplitMix64,
    /// Source counts still to deal before the next shuffle.
    sizes: Vec<usize>,
}

#[derive(Clone, Debug)]
pub struct ScriptGen {
    /// What the count-boxed phases draw from, and what the wire cycles do.
    draws: [Draws; 2],
    on_wire: bool,
    zipf: Zipf,
    nodes: usize,
    sources: (usize, usize),
    next_id: u32,
    at_ms: u64,
    /// Registered queries, oldest first, with their sink.
    live: VecDeque<(u32, u32)>,
    /// Live queries per sink node (a crash there would lose them).
    sinks: BTreeMap<u32, usize>,
}

impl ScriptGen {
    pub fn new(w: &Workload, seed: u64) -> Self {
        let base = SplitMix64::new(seed);
        let draws = |tag| Draws {
            queries: base.fork(tag),
            faults: base.fork(tag + 1),
            sizes: Vec::new(),
        };
        ScriptGen {
            draws: [draws(1), draws(3)],
            on_wire: false,
            zipf: Zipf::new(w.streams, w.zipf_s),
            nodes: w.nodes(),
            sources: w.sources,
            next_id: 1,
            at_ms: 0,
            live: VecDeque::new(),
            sinks: BTreeMap::new(),
        }
    }

    /// Whether the lines that follow belong to the wire cycles.
    pub fn set_on_wire(&mut self, on_wire: bool) {
        self.on_wire = on_wire;
    }

    fn draws(&mut self) -> &mut Draws {
        &mut self.draws[usize::from(self.on_wire)]
    }

    fn tick(&mut self) -> u64 {
        self.at_ms += 1;
        self.at_ms
    }

    /// The service was replaced by a new, empty one.
    pub fn forget_population(&mut self) {
        self.live.clear();
        self.sinks.clear();
    }

    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    pub fn live_id(&self, index: usize) -> u32 {
        self.live[index].0
    }

    /// Registered sink of every live query, by id.
    pub fn live_sinks(&self) -> BTreeMap<u32, u32> {
        self.live.iter().copied().collect()
    }

    pub fn is_sink(&self, node: u32) -> bool {
        self.sinks.contains_key(&node)
    }

    /// How many sources the next query joins. Dealt, not drawn: every
    /// source count of the workload's range once, in a seeded order, then
    /// again. A query's planning cost grows as 3^sources, so with drawn
    /// counts the work of a batch (and of a whole seed) would follow how
    /// many large joins it happened to hold; dealt, every run of five
    /// registrations holds the same mix and the seed decides the rest.
    fn next_size(&mut self) -> usize {
        let (lo, hi) = self.sources;
        let d = self.draws();
        if d.sizes.is_empty() {
            d.sizes.extend(lo..=hi);
            for i in (1..d.sizes.len()).rev() {
                let j = d.queries.below(i + 1);
                d.sizes.swap(i, j);
            }
        }
        d.sizes.pop().expect("just refilled")
    }

    pub fn register(&mut self) -> String {
        let k = self.next_size();
        let lane = usize::from(self.on_wire);
        let sources = self.zipf.sample_distinct(&mut self.draws[lane].queries, k);
        let sink = self.draws[lane].queries.below(self.nodes) as u32;
        let id = self.next_id;
        self.next_id += 1;
        self.live.push_back((id, sink));
        *self.sinks.entry(sink).or_insert(0) += 1;
        let list: Vec<String> = sources.iter().map(u32::to_string).collect();
        format!(
            "{{\"op\":\"register\",\"id\":{id},\"sources\":[{}],\"sink\":{sink},\"at_ms\":{}}}",
            list.join(","),
            self.tick()
        )
    }

    pub fn unregister_oldest(&mut self) -> String {
        let (id, sink) = self.live.pop_front().expect("a live query to retire");
        let count = self.sinks.get_mut(&sink).expect("sink was counted");
        *count -= 1;
        if *count == 0 {
            self.sinks.remove(&sink);
        }
        format!(
            "{{\"op\":\"unregister\",\"id\":{id},\"at_ms\":{}}}",
            self.tick()
        )
    }

    pub fn drain(&mut self) -> String {
        format!("{{\"op\":\"drain\",\"at_ms\":{}}}", self.tick())
    }

    pub fn query(id: u32) -> String {
        format!("{{\"op\":\"query\",\"id\":{id}}}")
    }

    /// A `query` for a live id chosen by the fault stream.
    pub fn query_random_live(&mut self) -> String {
        let live = self.live.len();
        let i = self.draws().faults.below(live);
        Self::query(self.live[i].0)
    }

    pub fn stats() -> String {
        "{\"op\":\"stats\"}".to_string()
    }

    pub fn crash(&mut self, node: u32) -> String {
        format!(
            "{{\"op\":\"fault\",\"kind\":\"crash\",\"node\":{node},\"at_ms\":{}}}",
            self.tick()
        )
    }

    pub fn rejoin(&mut self, node: u32) -> String {
        format!(
            "{{\"op\":\"fault\",\"kind\":\"rejoin\",\"node\":{node},\"at_ms\":{}}}",
            self.tick()
        )
    }

    /// Degrade a link drawn from `links` (the network's real links).
    pub fn degrade(&mut self, links: &[(u32, u32)]) -> String {
        let (a, b) = links[self.draws().faults.below(links.len())];
        format!(
            "{{\"op\":\"fault\",\"kind\":\"degrade\",\"a\":{a},\"b\":{b},\"factor_milli\":{DEGRADE_FACTOR_MILLI},\"at_ms\":{}}}",
            self.tick()
        )
    }

    /// A draw of the fault stream, for the harness's own choices.
    pub fn fault_draw(&mut self) -> u64 {
        self.draws().faults.next_u64()
    }

    /// A node to crash when no operator host qualifies: any node that is
    /// neither a stream origin nor a live sink.
    pub fn fallback_victim(&mut self, origins: &BTreeSet<u32>) -> u32 {
        loop {
            let nodes = self.nodes;
            let n = self.draws().faults.below(nodes) as u32;
            if !origins.contains(&n) && !self.is_sink(n) {
                return n;
            }
        }
    }
}

/// The registration and steady-cycle lines of a seed, without a service:
/// what the determinism tests compare.
#[cfg(test)]
pub fn preview(w: &Workload, seed: u64, registrations: usize, steady_cycles: usize) -> Vec<String> {
    let mut g = ScriptGen::new(w, seed);
    let mut out = Vec::new();
    for i in 0..registrations {
        out.push(g.register());
        if (i + 1) % crate::workloads::BATCH == 0 {
            out.push(g.drain());
        }
    }
    for _ in 0..steady_cycles {
        for _ in 0..crate::workloads::STEADY_SWAP.min(g.live_len()) {
            out.push(g.unregister_oldest());
        }
        for _ in 0..crate::workloads::STEADY_SWAP {
            out.push(g.register());
        }
        out.push(g.drain());
    }
    out
}

/// What a response must look like for the request to count as served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `ok:true` and the op echoed.
    Ok(&'static str),
    /// A drain that applied `applied` entries, first-planned `planned`
    /// queries (when stated), and left nothing parked, lost, deferred,
    /// timed out or stale.
    Drain {
        applied: usize,
        planned: Option<usize>,
    },
    /// A `query` answered with a current plan.
    Planned,
}

/// Counts requests and failures, and keeps the first offending exchange.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

/// A numeric field of a parsed response.
pub fn number(j: &Json, key: &str) -> Option<f64> {
    match j.get(key) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

impl Gate {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what);
        }
    }

    /// A non-request check (fingerprints, placements, flow cost).
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Hold one response to its expectation; returns the parsed response
    /// when it passed.
    pub fn check(&mut self, request: &str, response: &str, expect: Expect) -> Option<Json> {
        self.attempted += 1;
        match verdict(response, expect) {
            Ok(j) => Some(j),
            Err(why) => {
                self.fail(format!("{why}: request {request} -> response {response}"));
                None
            }
        }
    }
}

fn verdict(response: &str, expect: Expect) -> Result<Json, String> {
    let j = mini_json::parse(response).map_err(|e| format!("unparsable response ({e})"))?;
    if j.get("ok") != Some(&Json::Bool(true)) {
        return Err("expected ok:true".into());
    }
    let op = match expect {
        Expect::Ok(op) => op,
        Expect::Drain { .. } => "drain",
        Expect::Planned => "query",
    };
    if j.get("op") != Some(&Json::Str(op.to_string())) {
        return Err(format!("expected op {op:?}"));
    }
    match expect {
        Expect::Ok(_) => {}
        Expect::Drain { applied, planned } => {
            if number(&j, "applied") != Some(applied as f64) {
                return Err(format!("expected applied={applied}"));
            }
            if let Some(p) = planned {
                if number(&j, "planned") != Some(p as f64) {
                    return Err(format!("expected planned={p}"));
                }
            }
            for key in ["parked", "lost", "deferred", "timed_out", "stale"] {
                if number(&j, key) != Some(0.0) {
                    return Err(format!("expected {key}=0"));
                }
            }
        }
        Expect::Planned => {
            if j.get("status") != Some(&Json::Str("planned".into()))
                || j.get("stale") != Some(&Json::Bool(false))
            {
                return Err("expected a current plan".into());
            }
        }
    }
    Ok(j)
}

/// `placement` of a passed `query` response.
pub fn placement_of(j: &Json) -> Vec<u32> {
    match j.get("placement") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|n| match n {
                Json::Num(v) => Some(*v as u32),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        for w in &WORKLOADS {
            let a = preview(w, 1, 120, 5);
            let b = preview(w, 1, 120, 5);
            let c = preview(w, 2, 120, 5);
            assert_eq!(a.join("\n").as_bytes(), b.join("\n").as_bytes());
            assert_ne!(a, c, "{}", w.name);
        }
    }

    #[test]
    fn source_counts_are_dealt_evenly() {
        let w = &WORKLOADS[1];
        let mut g = ScriptGen::new(w, 9);
        let (lo, hi) = w.sources;
        for _ in 0..20 {
            let mut deal: Vec<usize> = (lo..=hi).map(|_| g.next_size()).collect();
            deal.sort_unstable();
            assert_eq!(deal, (lo..=hi).collect::<Vec<_>>());
        }
    }

    #[test]
    fn wire_cycles_do_not_shift_the_count_boxed_script() {
        let w = &WORKLOADS[4];
        let mut plain = ScriptGen::new(w, 5);
        let mut mixed = ScriptGen::new(w, 5);
        mixed.register();
        plain.register();
        mixed.set_on_wire(true);
        let on_wire = mixed.register();
        mixed.query_random_live();
        mixed.set_on_wire(false);
        let cut = |s: String| {
            let from = s.find("\"sources\"").unwrap();
            s[from..s.find("\"at_ms\"").unwrap()].to_string()
        };
        let next = cut(plain.register());
        assert_ne!(cut(on_wire), next);
        assert_eq!(cut(mixed.register()), next);
    }

    #[test]
    fn fault_draws_do_not_shift_the_registration_script() {
        let w = &WORKLOADS[3];
        let mut plain = ScriptGen::new(w, 5);
        let mut mixed = ScriptGen::new(w, 5);
        let first = plain.register();
        assert_eq!(first, mixed.register());
        mixed.query_random_live();
        mixed.fallback_victim(&BTreeSet::new());
        // at_ms advances per line, so compare everything before it.
        let cut = |s: String| s[..s.find("\"at_ms\"").unwrap()].to_string();
        assert_eq!(cut(plain.register()), cut(mixed.register()));
    }

    #[test]
    fn gate_accepts_and_rejects() {
        let mut g = Gate::default();
        let drain = r#"{"ok":true,"op":"drain","epoch":1,"applied":2,"planned":2,"replanned":0,"deferred":0,"timed_out":0,"stale":0,"parked":0,"lost":0,"total_cost":12.5}"#;
        let want = Expect::Drain {
            applied: 2,
            planned: Some(2),
        };
        assert!(g.check("d", drain, want).is_some());
        assert!(g
            .check("d", &drain.replace("\"parked\":0", "\"parked\":1"), want)
            .is_none());
        assert!(g
            .check(
                "r",
                r#"{"ok":false,"op":"register","error":"overloaded"}"#,
                Expect::Ok("register")
            )
            .is_none());
        assert!(g.check("q", "garbage", Expect::Planned).is_none());
        assert_eq!((g.attempted, g.failed), (4, 3));
        assert!(g
            .first_failure
            .as_deref()
            .unwrap()
            .contains("expected parked=0"));
        let q = mini_json::parse(r#"{"ok":true,"placement":[3,4,4],"cost":1.5}"#).unwrap();
        assert_eq!(placement_of(&q), vec![3, 4, 4]);
        assert_eq!(number(&q, "cost"), Some(1.5));
    }
}
