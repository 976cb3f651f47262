//! A drain costs its wave — not the standing population, and not the
//! service's age.
//!
//! Both halves are checked on counts, not clocks: the registry reports how
//! many advert slots its operations looked at (`advert.slots_visited`, an
//! obs-only counter), and the planner's span reports how many queries it
//! was handed.

use dsq_obs::{scoped, ClockMode, Sink};
use dsq_server::{Journal, PlanningService, ServiceConfig, SlotStatus};

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
