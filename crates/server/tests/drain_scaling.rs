//! A drain costs its wave — not the standing population, and not the
//! service's age — and a crash or a link degrade costs what it touched,
//! not the population.
//!
//! All are checked on counts, not clocks: the registry reports how many
//! advert slots its operations looked at (`advert.slots_visited`, an
//! obs-only counter), the planner's span reports how many queries it was
//! handed, crash handling counts the cache entries it tested
//! (`planner.cache_membership_visited`) and the slots it classified
//! (`server.crash_slots_classified`), and a degrade counts the cache
//! entries it tested (`planner.cache_metric_visited`), the slots it
//! re-costed (`server.degrade_slots_recosted`) and the clusters whose
//! diameter it measured again (`hierarchy.clusters_remeasured`).

use dsq_core::Environment;
use dsq_hierarchy::membership;
use dsq_net::{NodeId, TransitStubConfig};
use dsq_obs::{scoped, ClockMode, Sink};
use dsq_query::{Catalog, Schema};
use dsq_server::{
    FaultReq, Journal, JournalEntry, PlanningService, ServiceConfig, ServiceCore, SlotStatus,
};

/// Distinct (sources, sink) shapes a query id can take. The standing
/// population and the cycle size are multiples of it, so every window of
/// consecutive ids holds the same multiset of queries and the population
/// is the same at every age, not just the same size.
const SHAPES: u32 = 4;

fn register(svc: &mut PlanningService, id: u32) {
    let shape = id % SHAPES;
    let (a, b, c) = (shape, shape + 1, (shape + 3) % 8);
    let sources = if shape.is_multiple_of(2) {
        format!("{a},{b}")
    } else {
        format!("{a},{b},{c}")
    };
    let line = format!(
        r#"{{"op":"register","id":{id},"sources":[{sources}],"sink":{},"at_ms":{id}}}"#,
        4 + shape
    );
    let resp = svc.submit_line(&line);
    assert!(resp.contains("\"ok\":true"), "{resp}");
}

fn unregister(svc: &mut PlanningService, id: u32) {
    let resp = svc.submit_line(&format!(r#"{{"op":"unregister","id":{id},"at_ms":{id}}}"#));
    assert!(resp.contains("\"ok\":true"), "{resp}");
}

fn drain(svc: &mut PlanningService) {
    let resp = svc.submit_line(r#"{"op":"drain","at_ms":1000000}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
}

fn slots_visited(sink: &Sink) -> u64 {
    sink.snapshot()
        .counters
        .get("advert.slots_visited")
        .copied()
        .unwrap_or(0)
}

#[test]
fn a_steady_drain_visits_as_many_advert_slots_at_ten_times_the_age() {
    const POPULATION: u32 = 24;
    const K: u32 = SHAPES;
    const WINDOW: u32 = 6;
    let sink = Sink::new(ClockMode::Virtual);
    let _g = scoped(sink.clone());
    let mut svc = PlanningService::new(ServiceConfig::default(), None).unwrap();
    for id in 0..POPULATION {
        register(&mut svc, id);
    }
    drain(&mut svc);

    // `n` steady cycles — the K oldest queries leave, K new ones arrive,
    // drain — returning the advert slots they visited.
    let mut next = POPULATION;
    let mut cycles = |svc: &mut PlanningService, n: u32| {
        let before = slots_visited(&sink);
        for _ in 0..n {
            for id in next - POPULATION..next - POPULATION + K {
                unregister(svc, id);
            }
            for id in next..next + K {
                register(svc, id);
            }
            next += K;
            drain(svc);
        }
        slots_visited(&sink) - before
    };

    // Age 1x: the first population turnover.
    let young = cycles(&mut svc, WINDOW);
    let published_young = svc.core().registry.len();
    // Let the service age to ten turnovers' worth of retired adverts.
    cycles(&mut svc, 8 * WINDOW);
    let old = cycles(&mut svc, WINDOW);
    let published_old = svc.core().registry.len();

    assert_eq!(svc.core().slots.len(), POPULATION as usize);
    assert!(
        svc.core()
            .slots
            .values()
            .all(|s| s.status == SlotStatus::Planned),
        "every standing query is planned"
    );
    assert!(young > 0, "steady drains probe and publish adverts");
    assert!(
        published_old >= 5 * published_young,
        "the registry aged: {published_young} -> {published_old} slots ever published"
    );
    // The population repeats exactly (see `SHAPES`), so the buckets a
    // drain walks hold the same adverts at both ages and the bound is zero.
    // A registry that scanned its slot vector would visit the ~10x more
    // slots ever published on every probe, publish and retirement.
    assert_eq!(
        old, young,
        "advert slots visited over {WINDOW} steady drains changed with the service's age"
    );
}

#[test]
fn a_drain_hands_the_planner_its_wave_and_leaves_standing_plans_alone() {
    const STANDING: u32 = 12;
    const WAVE: u32 = 3;
    let dir = std::env::temp_dir().join(format!("dsq-drain-scaling-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wave.journal");

    let sink = Sink::new(ClockMode::Virtual);
    let _g = scoped(sink.clone());
    let mut svc = PlanningService::new(ServiceConfig::default(), Some(&path)).unwrap();
    for id in 0..STANDING {
        register(&mut svc, id);
    }
    drain(&mut svc);
    // Cost and baseline as bits; the rest of a deployment (plan, placement,
    // edges) through its exact `Debug` rendering.
    let standing = |svc: &PlanningService| -> Vec<(u32, String, u64, u64, u64)> {
        (0..STANDING)
            .map(|id| {
                let slot = &svc.core().slots[&id];
                let d = slot.deployment.as_ref().expect("standing query is planned");
                (
                    id,
                    format!("{d:?}"),
                    d.cost.to_bits(),
                    slot.planned_epoch,
                    slot.baseline_cost.to_bits(),
                )
            })
            .collect()
    };
    let before = standing(&svc);
    let events_before = sink.event_count();

    for id in STANDING..STANDING + WAVE {
        register(&mut svc, id);
    }
    drain(&mut svc);

    let trace = sink.to_jsonl();
    let planner_calls: Vec<&str> = trace
        .lines()
        .skip(events_before)
        .filter(|l| l.contains("\"event\":\"planner.optimize_"))
        .collect();
    assert_eq!(planner_calls.len(), 1, "one planner call per drain");
    assert!(
        planner_calls[0].contains("\"event\":\"planner.optimize_all\"")
            && planner_calls[0].contains(&format!("\"queries\":{WAVE},")),
        "the planner sees the wave only: {}",
        planner_calls[0]
    );
    assert_eq!(standing(&svc), before, "standing slots were touched");
    assert_eq!(svc.core().slots[&STANDING].planned_epoch, 2);

    // Journal-only replay goes through the same drain.
    let live = svc.fingerprint();
    drop(svc);
    let recovered = PlanningService::recover(Journal::load(&path).unwrap()).unwrap();
    assert_eq!(recovered.fingerprint(), live);
    std::fs::remove_dir_all(&dir).ok();
}

/// What crashing `victim` cost: cache entries tested and slots classified.
fn crash_cost(core: &mut ServiceCore, victim: NodeId) -> (u64, u64) {
    let sink = Sink::new(ClockMode::Virtual);
    let _g = scoped(sink.clone());
    let crash = JournalEntry::Fault {
        fault: FaultReq::Crash(victim.0),
        at_ms: 2,
    };
    core.drain(&[crash], 2);
    let counters = sink.snapshot().counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    (
        count("planner.cache_membership_visited"),
        count("server.crash_slots_classified"),
    )
}

/// Two transit domains with the streams and sinks of a few queries in
/// domain A and of three times as many in domain B: what a fault in
/// domain A costs must not depend on the queries living in domain B.
struct TwoDomains {
    env: Environment,
    catalog: Catalog,
    a_nodes: Vec<NodeId>,
    a_streams: Vec<u32>,
    b_nodes: Vec<NodeId>,
    b_streams: Vec<u32>,
    /// Domain A's transit and stub nodes.
    a_side: Vec<NodeId>,
    /// Domain A's stub domains, each with its gateway link.
    a_stubs: Vec<((NodeId, NodeId), Vec<NodeId>)>,
}

const QUERIES: u32 = 6;

impl TwoDomains {
    fn new() -> Self {
        let ts = TransitStubConfig {
            transit_domains: 2,
            transit_nodes_per_domain: 2,
            stub_domains_per_transit_node: 2,
            stub_nodes_per_domain: 6,
            ..TransitStubConfig::default()
        }
        .generate(11);
        let stubs_of = |domain: usize| -> Vec<NodeId> {
            ts.stub_domains
                .iter()
                .filter(|(gateway, _)| ts.transit_domains[domain].contains(gateway))
                .flat_map(|(_, nodes)| nodes.iter().copied())
                .collect()
        };
        let (a_nodes, b_nodes) = (stubs_of(0), stubs_of(1));
        let a_stubs = ts
            .stub_domains
            .iter()
            .filter(|(gateway, _)| ts.transit_domains[0].contains(gateway))
            .map(|(gateway, nodes)| {
                let inside = ts
                    .network
                    .neighbors(*gateway)
                    .iter()
                    .map(|l| l.to)
                    .find(|n| nodes.contains(n))
                    .expect("a gateway links into its stub domain");
                ((*gateway, inside), nodes.clone())
            })
            .collect();
        let mut a_side = ts.transit_domains[0].clone();
        a_side.extend(&a_nodes);
        let mut env = Environment::build(ts.network.clone(), 4);
        env.isolate_cache(true);
        let mut catalog = Catalog::new();
        for (i, &n) in a_nodes.iter().chain(&b_nodes).step_by(3).enumerate() {
            catalog.add_stream(format!("S{i}"), 1.0 + i as f64, n, Schema::default());
        }
        let in_a = |s: u32| a_nodes.contains(&catalog.stream(dsq_query::StreamId(s)).node);
        let (a_streams, b_streams): (Vec<u32>, Vec<u32>) =
            (0..catalog.len() as u32).partition(|&s| in_a(s));
        TwoDomains {
            env,
            catalog,
            a_nodes,
            a_streams,
            b_nodes,
            b_streams,
            a_side,
            a_stubs,
        }
    }

    /// The registrations: `QUERIES` over domain A's streams with sinks
    /// drawn from `a_sinks`, then, with `extra`, `2 * QUERIES` more over
    /// domain B's.
    fn registrations(&self, a_sinks: &[NodeId], extra: bool) -> Vec<JournalEntry> {
        let register = |id: u32, streams: &[u32], sinks: &[NodeId]| JournalEntry::Register {
            id,
            sources: (0..3)
                .map(|k| streams[(id as usize + k) % streams.len()])
                .collect(),
            sink: sinks[id as usize * 5 % sinks.len()].0,
            deadline_ms: None,
            at_ms: 1,
        };
        let mut batch: Vec<JournalEntry> = (0..QUERIES)
            .map(|id| register(id, &self.a_streams, a_sinks))
            .collect();
        if extra {
            batch.extend(
                (QUERIES..4 * QUERIES).map(|id| register(id, &self.b_streams, &self.b_nodes)),
            );
        }
        batch
    }

    /// A core with `batch` drained and every query planned.
    fn planned(&self, batch: &[JournalEntry]) -> ServiceCore {
        let mut core = ServiceCore::over(
            ServiceConfig::default(),
            self.env.clone(),
            self.catalog.clone(),
        );
        core.drain(batch, 1);
        assert!(
            core.slots.values().all(|s| s.status == SlotStatus::Planned),
            "every query is planned before the fault"
        );
        core
    }
}

#[test]
fn a_crash_visits_what_it_touched_whatever_lives_in_another_domain() {
    let world = TwoDomains::new();
    let env = &world.env;
    let a_nodes = &world.a_nodes;

    // The victim: a domain-A node that coordinates nothing, whose leaf
    // cluster holds only domain-A nodes, and whose departure changes that
    // leaf alone.
    let h = &env.hierarchy;
    let victim = a_nodes
        .iter()
        .copied()
        .find(|&n| {
            let leaf = h.leaf_cluster(n);
            let mut trial = h.clone();
            h.coordinator_roles(n).is_empty()
                && h.cluster(leaf).members.iter().all(|m| a_nodes.contains(m))
                && membership::remove_node(&mut trial, &env.dm, n)
                    .is_ok_and(|d| !d.full && d.dirty.len() == 1 && d.dirty.contains(&leaf))
        })
        .expect("some domain-A node leaves only its leaf changed");

    // The victim is the sink of the first domain-A query.
    let mut a_sinks = vec![victim];
    a_sinks.extend(a_nodes.iter().copied().filter(|&n| n != victim));
    let run = |extra: bool| {
        let mut core = world.planned(&world.registrations(&a_sinks, extra));
        let entries = core.env.plan_cache.len();
        (crash_cost(&mut core, victim), entries)
    };
    let ((visited, classified), entries) = run(false);
    let ((visited_3x, classified_3x), entries_3x) = run(true);

    assert!(entries_3x > entries, "the extra queries filled the cache");
    assert!(
        visited > 0 && classified > 0,
        "the crash reached its own queries"
    );
    assert_eq!(
        (visited_3x, classified_3x),
        (visited, classified),
        "entries visited and slots classified by the crash changed with the population of another domain"
    );
}

/// What degrading link `a`–`b` fourfold cost: cache entries tested, slots
/// re-costed and clusters measured again.
fn degrade_cost(core: &mut ServiceCore, (a, b): (NodeId, NodeId)) -> (u64, u64, u64) {
    let sink = Sink::new(ClockMode::Virtual);
    let _g = scoped(sink.clone());
    let degrade = JournalEntry::Fault {
        fault: FaultReq::Degrade {
            a: a.0,
            b: b.0,
            factor_milli: 4000,
        },
        at_ms: 2,
    };
    core.drain(&[degrade], 2);
    let counters = sink.snapshot().counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    (
        count("planner.cache_metric_visited"),
        count("server.degrade_slots_recosted"),
        count("hierarchy.clusters_remeasured"),
    )
}

#[test]
fn a_gateway_degrade_visits_what_it_touched_whatever_lives_in_another_domain() {
    let world = TwoDomains::new();
    let h = &world.env.hierarchy;
    // The link: the gateway of a domain-A stub domain every cluster of
    // whose nodes holds domain-A nodes alone below it, so domain B's plans never consult
    // a distance into it. The domain's nodes host the domain-A sinks.
    let ((a, b), stub) = world
        .a_stubs
        .iter()
        .find(|(_, nodes)| {
            nodes.iter().all(|&n| {
                h.member_clusters(n)
                    .iter()
                    .all(|&c| h.subtree_nodes(c).iter().all(|m| world.a_side.contains(m)))
            })
        })
        .expect("some domain-A stub domain clusters with domain A alone");
    let run = |extra: bool| {
        let mut core = world.planned(&world.registrations(stub, extra));
        let entries = core.env.plan_cache.len();
        (degrade_cost(&mut core, (*a, *b)), entries)
    };
    let (cost, entries) = run(false);
    let (cost_3x, entries_3x) = run(true);

    assert!(entries_3x > entries, "the extra queries filled the cache");
    let (visited, recosted, remeasured) = cost;
    assert!(
        visited > 0 && recosted > 0 && remeasured > 0,
        "the degrade reached its own queries: {cost:?}"
    );
    assert!(
        (visited as usize) < entries,
        "the degrade tested every cache entry"
    );
    assert_eq!(
        cost_3x, cost,
        "entries visited, slots re-costed and clusters measured by the degrade \
         changed with the population of another domain"
    );
}
