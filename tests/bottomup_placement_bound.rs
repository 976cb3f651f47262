//! The extended version's Bottom-Up claim: although its *join ordering* can
//! be arbitrarily bad, its *placement* of the chosen ordering is within a
//! bounded distance of the optimal placement of that same ordering — which
//! "proves that Bottom-Up can offer better bounds than a random placement
//! of the same query tree".

use dsq::prelude::*;
use dsq_baselines::optimal_placement;
use dsq_core::bounds;

fn setup(max_cs: usize) -> (Environment, Workload) {
    let net = TransitStubConfig::paper_128().generate(5).network;
    let env = Environment::build(net, max_cs);
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 30,
            queries: 12,
            joins_per_query: 2..=4,
            ..WorkloadConfig::default()
        },
        51,
    )
    .generate(&env.network);
    (env, wl)
}

#[test]
fn bottomup_placement_is_within_bound_of_same_tree_optimum() {
    let (env, wl) = setup(32);
    let candidates: Vec<NodeId> = env.network.nodes().collect();
    for q in &wl.queries {
        let reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        let bu = BottomUp::new(&env)
            .optimize(&wl.catalog, q, &reg, &mut stats)
            .unwrap();
        // Optimal placement of the very same plan (tree shape fixed).
        let fixed = optimal_placement(bu.plan.clone(), q, &wl.catalog, &env.dm, &candidates);
        assert!(
            bu.cost >= fixed.cost - 1e-6,
            "fixed-tree optimum is a floor"
        );
        let bound = bounds::placement_bound(&bu, &env.hierarchy);
        assert!(
            bu.cost - fixed.cost <= bound + 1e-6,
            "{}: placement gap {} exceeds bound {}",
            q.id,
            bu.cost - fixed.cost,
            bound
        );
    }
}

#[test]
fn bottomup_beats_random_placement_of_its_own_tree() {
    // The comparison the extended version motivates: Bottom-Up vs a random
    // placement of the same query tree.
    use rand::{Rng, SeedableRng};
    let (env, wl) = setup(32);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let n = env.network.len() as u32;
    let (mut bu_total, mut rand_total) = (0.0, 0.0);
    for q in &wl.queries {
        let reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        let bu = BottomUp::new(&env)
            .optimize(&wl.catalog, q, &reg, &mut stats)
            .unwrap();
        bu_total += bu.cost;
        // Random placement of the identical plan.
        let mut placement = bu.placement.clone();
        for ji in bu.plan.join_indices() {
            placement[ji] = NodeId(rng.gen_range(0..n));
        }
        let random = Deployment::evaluate(q.id, bu.plan.clone(), placement, q.sink, &env.dm);
        rand_total += random.cost;
    }
    assert!(
        bu_total < rand_total,
        "bottom-up {bu_total} must beat random placement {rand_total} of its own trees"
    );
}

#[test]
fn members_only_variant_also_respects_the_placement_bound() {
    let (env, wl) = setup(16);
    let candidates: Vec<NodeId> = env.network.nodes().collect();
    for q in wl.queries.iter().take(6) {
        let reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        let bu = BottomUp::with_placement(&env, BottomUpPlacement::MembersOnly)
            .optimize(&wl.catalog, q, &reg, &mut stats)
            .unwrap();
        let fixed = optimal_placement(bu.plan.clone(), q, &wl.catalog, &env.dm, &candidates);
        let bound = bounds::placement_bound(&bu, &env.hierarchy);
        assert!(
            bu.cost - fixed.cost <= bound + 1e-6,
            "{}: members-only gap {} exceeds bound {}",
            q.id,
            bu.cost - fixed.cost,
            bound
        );
    }
}
