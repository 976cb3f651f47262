//! Differential suite for incremental degrade repair: over seeded degrade
//! schedules on generated topologies — weight increases, no-ops, decreases
//! (the documented full-rebuild fallback) and disconnected components —
//! `DistanceMatrix::repaired_after_link_change` must agree bit-for-bit
//! with a from-scratch `DistanceMatrix::build` after *every* event, and the
//! in-place `repair_link_change` must report exactly the entries whose bits
//! the event changed.
//!
//! CI runs this suite in `--release` so the schedules are long enough to
//! exercise real topologies, not toys.

use dsq_net::{
    ChangedEntries, DistanceMatrix, LinkKind, LinkRepair, Metric, Network, NodeId,
    TransitStubConfig,
};

/// Deterministic xorshift step — the schedule driver's only randomness.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// All undirected links as (a, b) with a < b, in adjacency order.
fn collect_links(net: &Network) -> Vec<(NodeId, NodeId)> {
    let mut links = Vec::new();
    for u in 0..net.len() as u32 {
        for l in net.neighbors(NodeId(u)) {
            if u < l.to.0 {
                links.push((NodeId(u), l.to));
            }
        }
    }
    links
}

/// Assert the repaired matrix equals a from-scratch rebuild, bit-for-bit.
fn assert_bits_equal(repaired: &DistanceMatrix, rebuilt: &DistanceMatrix, label: &str) {
    let n = repaired.len();
    assert_eq!(n, rebuilt.len(), "{label}: size mismatch");
    for a in 0..n as u32 {
        for b in 0..n as u32 {
            let x = repaired.get(NodeId(a), NodeId(b));
            let y = rebuilt.get(NodeId(a), NodeId(b));
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: d({a},{b}) diverged: {x} vs {y}"
            );
        }
    }
}

/// Every `(a, b)` whose distance bits differ between two matrices, in
/// row-major order.
fn bit_diff(before: &DistanceMatrix, after: &DistanceMatrix) -> Vec<(NodeId, NodeId)> {
    let n = before.len() as u32;
    let mut out = Vec::new();
    for a in (0..n).map(NodeId) {
        for b in (0..n).map(NodeId) {
            if before.get(a, b).to_bits() != after.get(a, b).to_bits() {
                out.push((a, b));
            }
        }
    }
    out
}

/// Factor menu: increases (the common congestion case), an exact no-op,
/// and decreases (the documented fallback-to-rebuild case).
const FACTORS: [f64; 6] = [1.5, 3.0, 10.0, 1.0, 0.7, 0.25];

/// Scale the cost of link `a`–`b`, the only weight `Network` lets a
/// caller change in place.
fn scale_cost(net: &mut Network, a: NodeId, b: NodeId, factor: f64) {
    let cost = net.find_link(a, b).expect("picked from adjacency").cost;
    net.set_link_cost(a, b, cost * factor);
}

/// Scale the *delay* of link `a`–`b` by re-adding every link to a fresh
/// network (distances do not depend on adjacency order).
fn scale_delay(net: &mut Network, a: NodeId, b: NodeId, factor: f64) {
    let mut out = Network::new(net.len());
    for (u, v) in collect_links(net) {
        let l = net.find_link(u, v).expect("collected from adjacency");
        let scaled = (u, v) == (a.min(b), a.max(b));
        let delay = l.delay_ms * if scaled { factor } else { 1.0 };
        out.add_link(u, v, l.cost, delay, l.kind);
    }
    *net = out;
}

/// Run `events` degrade events on `net`, repairing incrementally and
/// checking against a full rebuild after each one. Returns how many events
/// took each repair path.
fn run_schedule(
    net: &mut Network,
    metric: Metric,
    seed: u64,
    events: usize,
) -> (usize, usize, usize) {
    let links = collect_links(net);
    run_schedule_over(net, metric, seed, events, &links, &FACTORS, scale_cost)
}

/// [`run_schedule`] over a fixed link set and factor menu, changing a link
/// through `scale` (cost or delay).
fn run_schedule_over(
    net: &mut Network,
    metric: Metric,
    seed: u64,
    events: usize,
    links: &[(NodeId, NodeId)],
    factors: &[f64],
    scale: fn(&mut Network, NodeId, NodeId, f64),
) -> (usize, usize, usize) {
    let mut dm = DistanceMatrix::build(net, metric);
    let mut state = seed | 1;
    let (mut incremental, mut noop, mut rebuilt) = (0usize, 0usize, 0usize);
    for ev in 0..events {
        let (a, b) = links[next(&mut state) as usize % links.len()];
        let factor = factors[next(&mut state) as usize % factors.len()];
        let old_w = metric.weight(net.find_link(a, b).expect("picked from adjacency"));
        scale(net, a, b, factor);

        let (repaired, outcome) = dm.repaired_after_link_change(net, a, b, old_w);
        let full = DistanceMatrix::build(net, metric);
        assert_bits_equal(&repaired, &full, &format!("seed {seed} event {ev}"));

        // The in-place repair lands on the same matrix and reports exactly
        // the entries the event changed: none missing, none spurious.
        let mut in_place = dm.clone();
        let (same_outcome, changed) = in_place.repair_link_change(net, a, b, old_w);
        assert_eq!(same_outcome, outcome, "seed {seed} event {ev}");
        assert_bits_equal(
            &in_place,
            &full,
            &format!("seed {seed} event {ev} in place"),
        );
        let expected = bit_diff(&dm, &full);
        assert_eq!(changed.len(), expected.len(), "seed {seed} event {ev}");
        assert!(
            changed.iter().eq(expected.iter().copied()),
            "seed {seed} event {ev}: changed-entry record is not the bit diff"
        );
        for &(x, y) in &expected {
            assert!(changed.row(x).binary_search(&y.0).is_ok());
        }
        // The cover holds an endpoint of every changed entry, and the
        // record is what diffing the two matrices gives.
        let cover = changed.cover();
        for &(x, y) in &expected {
            assert!(
                cover.binary_search(&x).is_ok() || cover.binary_search(&y).is_ok(),
                "seed {seed} event {ev}: ({x:?},{y:?}) has no endpoint in the cover"
            );
        }
        assert!(cover.len() <= changed.len());
        assert!(ChangedEntries::between(&dm, &full)
            .iter()
            .eq(changed.iter()));

        // The repair path taken must match the weight delta: only a strict
        // weight decrease (or a vanished link) may pay a full rebuild.
        let new_w = metric.weight(net.find_link(a, b).unwrap());
        match outcome {
            LinkRepair::Rebuilt => {
                assert!(
                    new_w < old_w,
                    "seed {seed} event {ev}: rebuilt without a weight decrease \
                     (old {old_w}, new {new_w})"
                );
                rebuilt += 1;
            }
            LinkRepair::Incremental { rows } => {
                assert!(
                    new_w >= old_w,
                    "seed {seed} event {ev}: incremental repair on a decrease"
                );
                if new_w.to_bits() == old_w.to_bits() {
                    assert_eq!(rows, 0, "seed {seed} event {ev}: no-op touched rows");
                    noop += 1;
                } else {
                    incremental += 1;
                }
            }
        }
        dm = repaired;
    }
    (incremental, noop, rebuilt)
}

#[test]
fn seeded_degrade_schedules_match_full_rebuild() {
    for seed in [3u64, 17, 91] {
        let mut net = TransitStubConfig::default().generate(seed).network;
        let (incremental, noop, rebuilt) = run_schedule(&mut net, Metric::Cost, seed, 40);
        // The factor menu guarantees all three paths fire over 40 events.
        assert!(incremental > 0, "seed {seed}: no incremental repairs");
        assert!(noop > 0, "seed {seed}: no exact no-ops");
        assert!(rebuilt > 0, "seed {seed}: no fallback rebuilds");
    }
}

#[test]
fn delay_metric_schedule_matches_full_rebuild() {
    // `set_link_cost` leaves delay untouched, so on the DelayMs matrix
    // every cost degrade is an exact weight no-op — the repair must detect
    // that and clone without touching a row.
    let mut net = TransitStubConfig::default().generate(7).network;
    let (incremental, noop, rebuilt) = run_schedule(&mut net, Metric::DelayMs, 7, 12);
    assert_eq!(incremental, 0);
    assert_eq!(rebuilt, 0);
    assert_eq!(noop, 12, "every cost change is a delay-weight no-op");
}

#[test]
fn disconnected_component_schedule_matches_full_rebuild() {
    // Two islands: a 4-cycle with a chord and a 3-path, plus one isolated
    // node. Cross-island distances are INF throughout; degrade events in
    // either island must repair without ever looking at the other.
    let mut net = Network::new(8);
    let n = |i: u32| NodeId(i);
    // Island A: 0-1-2-3-0 cycle with chord 0-2.
    net.add_link(n(0), n(1), 4.0, 1.0, LinkKind::Stub);
    net.add_link(n(1), n(2), 2.0, 1.0, LinkKind::Stub);
    net.add_link(n(2), n(3), 5.0, 1.0, LinkKind::Stub);
    net.add_link(n(3), n(0), 3.0, 1.0, LinkKind::Stub);
    net.add_link(n(0), n(2), 1.0, 1.0, LinkKind::Stub);
    // Island B: 4-5-6 path.
    net.add_link(n(4), n(5), 2.5, 1.0, LinkKind::Stub);
    net.add_link(n(5), n(6), 1.5, 1.0, LinkKind::Stub);
    // Node 7 stays isolated.
    let (incremental, _noop, rebuilt) = run_schedule(&mut net, Metric::Cost, 29, 30);
    assert!(incremental > 0);
    assert!(rebuilt > 0, "decreases must still fall back");
}

#[test]
fn gateway_schedules_on_the_benchmark_topology_match_full_rebuild() {
    // The performance ledger's `churn` shape: 4 transit domains of 8, 4
    // stub domains of 8 per transit node (1,056 nodes), degrading the
    // gateway links every cross-domain path runs through.
    let cfg = TransitStubConfig {
        transit_domains: 4,
        transit_nodes_per_domain: 8,
        stub_domains_per_transit_node: 4,
        stub_nodes_per_domain: 8,
        ..TransitStubConfig::default()
    };
    type Scale = fn(&mut Network, NodeId, NodeId, f64);
    let arms: [(Metric, Scale); 2] = [(Metric::Cost, scale_cost), (Metric::DelayMs, scale_delay)];
    for (metric, scale) in arms {
        let mut net = cfg.generate(1).network;
        assert_eq!(net.len(), 1056);
        let gateways: Vec<(NodeId, NodeId)> = collect_links(&net)
            .into_iter()
            .filter(|&(a, b)| net.find_link(a, b).unwrap().kind == LinkKind::Gateway)
            .collect();
        assert_eq!(gateways.len(), 128, "one gateway per stub domain");
        // x4 is the ledger's degrade factor; one decrease keeps the fallback
        // (and its record) in the schedule.
        let factors = [4.0, 4.0, 1.5, 0.5];
        let (incremental, _noop, rebuilt) =
            run_schedule_over(&mut net, metric, 5, 6, &gateways, &factors, scale);
        assert!(incremental > 0, "{metric:?}: no incremental repairs");
        assert!(rebuilt > 0, "{metric:?}: no fallback rebuilds");
    }
}

#[test]
fn tied_paths_and_an_off_path_chord() {
    // A unit square 0-1-2-3-0: opposite corners are joined by two tied
    // shortest paths. The chord 1-3 costs more than the way round, so it is
    // on no shortest path from anywhere.
    let n = |i: u32| NodeId(i);
    let mut net = Network::new(4);
    net.add_link(n(0), n(1), 1.0, 1.0, LinkKind::Stub);
    net.add_link(n(1), n(2), 1.0, 1.0, LinkKind::Stub);
    net.add_link(n(2), n(3), 1.0, 1.0, LinkKind::Stub);
    net.add_link(n(3), n(0), 1.0, 1.0, LinkKind::Stub);
    net.add_link(n(1), n(3), 10.0, 1.0, LinkKind::Stub);
    let before = DistanceMatrix::build(&net, Metric::Cost);

    // Degrading the chord touches no row and settles nothing.
    let mut chord = net.clone();
    chord.set_link_cost(n(1), n(3), 40.0);
    let mut dm = before.clone();
    let (outcome, changed) = dm.repair_link_change(&chord, n(1), n(3), 10.0);
    assert_eq!(outcome, LinkRepair::Incremental { rows: 0 });
    assert!(changed.is_empty());
    assert_eq!(changed.nodes_settled(), 0);
    assert_bits_equal(&dm, &before, "off-path chord");

    // Degrading a side re-derives the subtree behind it, but the far corner
    // keeps its distance through the tied path: the record names the moved
    // entries only.
    net.set_link_cost(n(0), n(1), 1.5);
    let mut dm = before.clone();
    let (outcome, changed) = dm.repair_link_change(&net, n(0), n(1), 1.0);
    let full = DistanceMatrix::build(&net, Metric::Cost);
    assert_bits_equal(&dm, &full, "tied side");
    assert_eq!(outcome, LinkRepair::Incremental { rows: 4 });
    assert_eq!(
        changed.iter().collect::<Vec<_>>(),
        vec![(n(0), n(1)), (n(1), n(0))],
        "the tied corners (0,2) and (1,3) did not move"
    );
    assert_eq!(changed.iter().collect::<Vec<_>>(), bit_diff(&before, &full));
    assert!(changed.nodes_settled() > changed.len() as u64);
}
