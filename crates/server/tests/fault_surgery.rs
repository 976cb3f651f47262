//! Fault surgery at scale: the incremental-repair Degrade path must be
//! indistinguishable from rebuilding the distance matrix from scratch. A
//! `ServiceCore` fed a seeded Degrade/Crash/Rejoin schedule must hold, after
//! every applied fault, a distance matrix bit-equal to a fresh
//! `DistanceMatrix::build` of its current network under its metric, while
//! paying a full APSP only on the documented weight-decrease fallback.

use dsq_net::{DistanceMatrix, NodeId};
use dsq_obs::{scoped, ClockMode, Sink};
use dsq_server::{FaultReq, JournalEntry, ServiceConfig, ServiceCore};

/// Deterministic xorshift step driving the schedule.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// All undirected links of the core's network as (a, b) pairs, a < b.
fn links_of(core: &ServiceCore) -> Vec<(u32, u32)> {
    let net = &core.env.network;
    let mut links = Vec::new();
    for u in 0..net.len() as u32 {
        for l in net.neighbors(NodeId(u)) {
            if u < l.to.0 {
                links.push((u, l.to.0));
            }
        }
    }
    links
}

/// A core with a few registered-and-planned queries, so fault surgery has
/// plans to dirty, park and retire.
fn seeded_core() -> ServiceCore {
    let cfg = ServiceConfig {
        // A larger topology than the default so degrade repair has real
        // rows to skip: 2×2 transit, 3 stubs of 4 → ~52 nodes.
        transit_domains: 2,
        transit_nodes_per_domain: 2,
        stub_domains_per_transit_node: 3,
        stub_nodes_per_domain: 4,
        streams: 12,
        ..ServiceConfig::default()
    };
    let mut core = ServiceCore::new(cfg);
    let sinks: Vec<u32> = core
        .env
        .hierarchy
        .active_nodes()
        .iter()
        .map(|n| n.0)
        .collect();
    let batch: Vec<JournalEntry> = (0..6u32)
        .map(|id| JournalEntry::Register {
            id,
            sources: vec![id % 12, (id + 5) % 12],
            sink: sinks[(3 * id as usize + 1) % sinks.len()],
            deadline_ms: None,
            at_ms: 0,
        })
        .collect();
    core.drain(&batch, 10);
    core
}

/// Build the seeded fault schedule: `waves` drain batches, each carrying a
/// mix of degrades (mostly increases), crashes and rejoins.
fn schedule(
    core: &ServiceCore,
    seed: u64,
    waves: usize,
    decreases: bool,
) -> Vec<Vec<JournalEntry>> {
    let links = links_of(core);
    let n = core.env.network.len() as u32;
    let mut state = seed | 1;
    let mut crashed: Vec<u32> = Vec::new();
    let mut out = Vec::with_capacity(waves);
    for w in 0..waves {
        let at_ms = 20 + 10 * w as u64;
        let mut batch = Vec::new();
        for _ in 0..3 {
            let fault = match next(&mut state) % 4 {
                0 | 1 => {
                    let (a, b) = links[next(&mut state) as usize % links.len()];
                    // Increases by default; the decrease menu entry is only
                    // offered when the caller wants the fallback exercised.
                    let menu: &[u64] = if decreases {
                        &[1500, 3000, 700]
                    } else {
                        &[1500, 3000, 9000]
                    };
                    let factor_milli = menu[next(&mut state) as usize % menu.len()];
                    FaultReq::Degrade { a, b, factor_milli }
                }
                2 => {
                    let node = next(&mut state) as u32 % n;
                    crashed.push(node);
                    FaultReq::Crash(node)
                }
                _ => match crashed.pop() {
                    Some(node) => FaultReq::Rejoin(node),
                    None => FaultReq::Rejoin(next(&mut state) as u32 % n),
                },
            };
            batch.push(JournalEntry::Fault { fault, at_ms });
        }
        out.push(batch);
    }
    out
}

/// Drive a core through the schedule one fault per drain, asserting after
/// every fault that its repaired matrix equals a from-scratch rebuild.
/// Returns the obs JSONL trace.
fn run_against_rebuild(seed: u64, waves: usize, decreases: bool) -> String {
    let mut core = seeded_core();
    let batches = schedule(&core, seed, waves, decreases);

    let sink = Sink::new(ClockMode::Virtual);
    for (w, batch) in batches.iter().enumerate() {
        let at_ms = 20 + 10 * w as u64;
        for fault in batch {
            {
                let _g = scoped(sink.clone());
                core.drain(std::slice::from_ref(fault), at_ms);
            }
            let fresh = DistanceMatrix::build(&core.env.network, core.env.metric);
            let n = core.env.dm.len();
            assert_eq!(n, fresh.len());
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    assert_eq!(
                        core.env.dm.get(NodeId(a), NodeId(b)).to_bits(),
                        fresh.get(NodeId(a), NodeId(b)).to_bits(),
                        "seed {seed} wave {w} after {fault:?}: dm bits diverged at ({a},{b})"
                    );
                }
            }
        }
    }
    sink.to_jsonl()
}

fn count_counter(trace: &str, name: &str) -> usize {
    trace.lines().filter(|l| l.contains(name)).count()
}

#[test]
fn incremental_repair_is_bit_identical_to_a_full_rebuild() {
    for seed in [11u64, 47] {
        let trace = run_against_rebuild(seed, 8, false);
        // The increase-only schedule must never trip the fallback: the
        // service pays zero full rebuilds.
        assert_eq!(
            count_counter(&trace, "server.degrade_rebuilds"),
            0,
            "seed {seed}: paid a full rebuild on an increase"
        );
        assert!(
            count_counter(&trace, "server.degrade_rows_repaired") > 0,
            "seed {seed}: schedule never exercised incremental repair"
        );
    }
}

#[test]
fn weight_decreases_take_the_documented_fallback() {
    let trace = run_against_rebuild(23, 8, true);
    // With decreases in the menu the fallback must fire at least once —
    // and the equivalence assertions inside run_against_rebuild prove the
    // fallback path also lands on the from-scratch matrix.
    assert!(
        count_counter(&trace, "server.degrade_rebuilds") > 0,
        "decrease schedule never hit the fallback rebuild"
    );
    assert!(
        count_counter(&trace, "server.degrade_rows_repaired") > 0,
        "decrease schedule never repaired incrementally"
    );
}
