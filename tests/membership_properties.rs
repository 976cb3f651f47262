//! Property tests for runtime hierarchy membership: arbitrary join/leave
//! sequences must preserve every structural invariant, keep the active set
//! correct, and keep Theorem 1 valid on the evolved hierarchy. A join or
//! leave re-elects only the clusters it touched, yet must leave the
//! hierarchy exactly as re-electing every cluster would, and must report
//! exactly the delta a snapshot diff finds.

use dsq::prelude::*;
use dsq_hierarchy::membership::{add_node, join_route, remove_node};
use proptest::prelude::*;

fn build_base(
    seed: u64,
    max_cs: usize,
) -> (
    dsq_hierarchy::Hierarchy,
    DistanceMatrix,
    Vec<NodeId>,
    Vec<NodeId>,
) {
    let (h, dm, _, active, inactive) = build_with_network(seed, max_cs);
    (h, dm, active, inactive)
}

fn build_with_network(
    seed: u64,
    max_cs: usize,
) -> (
    dsq_hierarchy::Hierarchy,
    DistanceMatrix,
    Network,
    Vec<NodeId>,
    Vec<NodeId>,
) {
    let ts = TransitStubConfig::paper_64().generate(seed);
    let dm = DistanceMatrix::build(&ts.network, Metric::Cost);
    let cs = CostSpace::embed(&dm, seed, 40);
    let all: Vec<NodeId> = ts.network.nodes().collect();
    let active: Vec<NodeId> = all.iter().copied().filter(|n| n.0 % 2 == 0).collect();
    let inactive: Vec<NodeId> = all.iter().copied().filter(|n| n.0 % 2 == 1).collect();
    let h = dsq_hierarchy::Hierarchy::build(
        &active,
        &dm,
        &cs,
        dsq_hierarchy::HierarchyConfig::new(max_cs),
    );
    (h, dm, ts.network, active, inactive)
}

fn max_pairwise(members: &[NodeId], dm: &DistanceMatrix) -> f64 {
    let mut max = 0.0f64;
    for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            max = max.max(dm.get(a, b));
        }
    }
    max
}

/// The hierarchy as re-electing every cluster against `dm` would leave it,
/// given its structure (leaf members, child lists): each level bottom-up,
/// a cluster above level 1 takes its children's coordinators as members,
/// its medoid is its coordinator, and `d_i` is the widest cluster of level
/// `i`. Returns the differences from `h`, empty when they agree bit for
/// bit.
fn differs_from_full_refresh(h: &Hierarchy, dm: &DistanceMatrix) -> Vec<String> {
    let mut out = Vec::new();
    let mut coords: Vec<Vec<NodeId>> = Vec::new();
    for level in 1..=h.height() {
        let mut level_coords = Vec::new();
        let mut d = 0.0f64;
        for (i, c) in h.level(level).iter().enumerate() {
            let members: Vec<NodeId> = if level == 1 {
                c.members.clone()
            } else {
                c.children.iter().map(|&k| coords[level - 2][k]).collect()
            };
            let coordinator = dm.medoid(&members, &members).unwrap();
            if members != c.members || coordinator != c.coordinator {
                out.push(format!(
                    "cluster ({level}, {i}): {:?} led by {:?}, a full refresh gives {members:?} led by {coordinator:?}",
                    c.members, c.coordinator
                ));
            }
            d = d.max(max_pairwise(&members, dm));
            level_coords.push(coordinator);
        }
        if d.to_bits() != h.d_at(level).to_bits() {
            out.push(format!(
                "d_{level} = {}, a full refresh gives {d}",
                h.d_at(level)
            ));
        }
        coords.push(level_coords);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary churn sequences keep the hierarchy valid, the active set
    /// exact, and Theorem 1 intact.
    #[test]
    fn churn_preserves_invariants(
        seed in 0u64..20,
        max_cs in 3usize..10,
        ops in proptest::collection::vec((proptest::bool::ANY, 0usize..1000), 1..40),
    ) {
        let (mut h, dm, active, inactive) = build_base(seed, max_cs);
        let mut in_overlay: Vec<NodeId> = active.clone();
        let mut out_of_overlay: Vec<NodeId> = inactive.clone();

        for (is_join, pick) in ops {
            if (is_join && !out_of_overlay.is_empty()) || in_overlay.len() <= 2 {
                if out_of_overlay.is_empty() {
                    continue;
                }
                let node = out_of_overlay.remove(pick % out_of_overlay.len());
                let via = in_overlay[pick % in_overlay.len()];
                let (outcome, _) = add_node(&mut h, &dm, node, via);
                prop_assert_eq!(outcome.leaf.level, 1);
                in_overlay.push(node);
            } else {
                let node = in_overlay.remove(pick % in_overlay.len());
                remove_node(&mut h, &dm, node).unwrap();
                out_of_overlay.push(node);
            }
            h.check_invariants();

            // Exact active set.
            let mut got = h.active_nodes();
            got.sort_unstable();
            let mut want = in_overlay.clone();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        // Theorem 1 on the churned hierarchy.
        let nodes = h.active_nodes();
        let top = h.height();
        let slack = h.theorem1_slack(top);
        for (i, &a) in nodes.iter().enumerate().step_by(5) {
            for &b in nodes.iter().skip(i + 1).step_by(5) {
                let act = dm.get(a, b);
                let est = h.estimated_cost(&dm, a, b, top);
                prop_assert!((act - est).abs() <= slack + 1e-9);
            }
        }
    }

    /// The join route always terminates at a leaf cluster whose coordinator
    /// chain reaches the top, and message counts are bounded by twice the
    /// height plus one.
    #[test]
    fn join_routes_are_well_formed(seed in 0u64..20, pick in 0usize..1000) {
        let (h, dm, active, inactive) = build_base(seed, 6);
        let node = inactive[pick % inactive.len()];
        let via = active[pick % active.len()];
        let out = join_route(&h, &dm, node, via);
        prop_assert_eq!(out.leaf.level, 1);
        prop_assert!(out.messages <= 2 * h.height() + 1);
        prop_assert!(out.messages >= h.height());
        // Every routed coordinator is a real overlay member.
        for c in &out.route {
            prop_assert!(h.is_active(*c));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Joins and leaves interleaved with link repricings: after every
    /// membership operation the touched-chain election must leave exactly
    /// what re-electing every cluster would (coordinators, member lists in
    /// order, `d_i` bits) — including after a repricing, when the next
    /// operation must re-elect everything against the new distances — and
    /// the delta it returns must be the snapshot diff.
    #[test]
    fn chain_local_election_matches_a_full_refresh(
        seed in 0u64..20,
        max_cs in 2usize..8,
        ops in proptest::collection::vec((0u8..8, 0usize..1000, 0usize..1000), 1..60),
    ) {
        let (mut h, mut dm, mut net, active, inactive) = build_with_network(seed, max_cs);
        let mut in_overlay: Vec<NodeId> = active;
        let mut out_of_overlay: Vec<NodeId> = inactive;
        for (step, (kind, pick, other)) in ops.into_iter().enumerate() {
            if kind == 0 {
                // Reprice a link: the distances move under the standing
                // coordinators, as `Environment::reprice_link` leaves them.
                let a = NodeId((pick % net.len()) as u32);
                let links = net.neighbors(a);
                let b = links[other % links.len()].to;
                let link = net.find_link(a, b).unwrap();
                let (old_w, cost) = (Metric::Cost.weight(link), link.cost);
                let factor = [0.25, 0.5, 2.0, 5.0][other % 4];
                net.set_link_cost(a, b, cost * factor);
                dm.repair_link_change(&net, a, b, old_w);
                h.refresh_statistics(&dm);
                continue;
            }
            let before = h.snapshot();
            let delta = if (kind % 2 == 1 && !out_of_overlay.is_empty()) || in_overlay.len() <= 2 {
                if out_of_overlay.is_empty() {
                    continue;
                }
                let node = out_of_overlay.remove(pick % out_of_overlay.len());
                let via = in_overlay[other % in_overlay.len()];
                in_overlay.push(node);
                add_node(&mut h, &dm, node, via).1
            } else {
                let node = in_overlay.remove(pick % in_overlay.len());
                out_of_overlay.push(node);
                remove_node(&mut h, &dm, node).unwrap()
            };
            h.check_invariants();
            let diffs = differs_from_full_refresh(&h, &dm);
            prop_assert!(diffs.is_empty(), "step {}: {}", step, diffs.join("; "));
            let want = before.diff(&h.snapshot());
            prop_assert!(
                delta == want,
                "step {}: the operation reported {:?}, the snapshot diff finds {:?}",
                step, delta, want
            );
        }
    }
}
