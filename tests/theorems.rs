//! Property-based verification of the paper's analytical results over
//! randomized topologies, hierarchies and workloads.

use dsq::prelude::*;
use dsq_core::{bounds, Optimal, Optimizer};
use dsq_net::TransitStubConfig;
use proptest::prelude::*;

/// A random small transit-stub configuration.
fn arb_topology() -> impl Strategy<Value = (TransitStubConfig, u64)> {
    (
        1usize..=2, // transit domains
        2usize..=4, // transit nodes per domain
        1usize..=3, // stub domains per transit node
        3usize..=6, // stub nodes per domain
        0u64..1000, // seed
    )
        .prop_map(|(td, tn, sd, sn, seed)| {
            (
                TransitStubConfig {
                    transit_domains: td,
                    transit_nodes_per_domain: tn,
                    stub_domains_per_transit_node: sd,
                    stub_nodes_per_domain: sn,
                    ..TransitStubConfig::default()
                },
                seed,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1: for every pair of nodes and every level,
    /// `|c_act − c_est^l| ≤ Σ_{i<l} 2·d_i`.
    #[test]
    fn theorem1_holds_on_random_topologies((cfg, seed) in arb_topology(), max_cs in 2usize..=12) {
        let net = cfg.generate(seed).network;
        let env = Environment::build(net, max_cs);
        let h = &env.hierarchy;
        let nodes = h.active_nodes();
        for level in 1..=h.height() {
            let slack = h.theorem1_slack(level);
            for (i, &a) in nodes.iter().enumerate() {
                for &b in nodes.iter().skip(i + 1) {
                    let act = env.dm.get(a, b);
                    let est = h.estimated_cost(&env.dm, a, b, level);
                    prop_assert!(
                        (act - est).abs() <= slack + 1e-9,
                        "level {level}: act {act} est {est} slack {slack}"
                    );
                }
            }
        }
    }

    /// Theorem 3: Top-Down's gap to the optimum never exceeds
    /// `Σ_k s_k · Σ_i 2·d_i` for the chosen plan's edges.
    #[test]
    fn theorem3_holds_on_random_instances((cfg, seed) in arb_topology(), wl_seed in 0u64..500) {
        let net = cfg.generate(seed).network;
        if net.len() < 8 {
            return Ok(());
        }
        let env = Environment::build(net, 6);
        let mut gen = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 8,
                queries: 3,
                joins_per_query: 2..=3,
                ..WorkloadConfig::default()
            },
            wl_seed,
        );
        let wl = gen.generate(&env.network);
        for q in &wl.queries {
            let r1 = ReuseRegistry::new();
            let r2 = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            let td = TopDown::new(&env).optimize(&wl.catalog, q, &r1, &mut stats).unwrap();
            let opt = Optimal::new(&env).optimize(&wl.catalog, q, &r2, &mut stats).unwrap();
            let bound = bounds::theorem3_bound(&td, &env.hierarchy);
            prop_assert!(td.cost + 1e-9 >= opt.cost, "td below optimal");
            prop_assert!(
                td.cost - opt.cost <= bound + 1e-6,
                "gap {} > bound {bound}",
                td.cost - opt.cost
            );
        }
    }

    /// Theorems 2 and 4: the experimentally examined search space never
    /// exceeds the β-scaled exhaustive bound.
    #[test]
    fn theorems_2_and_4_bound_examined_plans((cfg, seed) in arb_topology(), wl_seed in 0u64..500) {
        let net = cfg.generate(seed).network;
        if net.len() < 12 {
            return Ok(());
        }
        let n = net.len();
        let env = Environment::build(net, 6);
        let h_height = env.hierarchy.height();
        let mut gen = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 8,
                queries: 3,
                joins_per_query: 2..=3,
                ..WorkloadConfig::default()
            },
            wl_seed,
        );
        let wl = gen.generate(&env.network);
        for q in &wl.queries {
            let k = q.sources.len();
            let bound = bounds::hierarchical_space_bound(k, n, 6, h_height)
                .max(bounds::lemma1_space_f64(k, 6) * h_height as f64);
            for alg in [&TopDown::new(&env) as &dyn dsq_core::Optimizer, &BottomUp::new(&env)] {
                let reg = ReuseRegistry::new();
                let mut stats = SearchStats::new();
                alg.optimize(&wl.catalog, q, &reg, &mut stats).unwrap();
                prop_assert!(
                    (stats.plans_considered as f64) <= bound * 4.0,
                    "{}: {} plans vs bound {bound}",
                    alg.name(),
                    stats.plans_considered
                );
            }
        }
    }

    /// Lemma 1 sanity: the formula is monotone in both k and n.
    #[test]
    fn lemma1_monotone(k in 2usize..=6, n in 2usize..=512) {
        prop_assert!(bounds::lemma1_space(k, n) <= bounds::lemma1_space(k + 1, n));
        prop_assert!(bounds::lemma1_space(k, n) <= bounds::lemma1_space(k, n + 1));
    }

    /// β sanity: β < 1 whenever max_cs < n and k ≥ 2 with shallow
    /// hierarchies, and β shrinks when max_cs/n shrinks.
    #[test]
    fn beta_behaves(k in 2usize..=6, n in 64usize..=1024) {
        let b_small = bounds::beta(k, n, 8, 3);
        let b_large = bounds::beta(k, n, 32, 3);
        prop_assert!(b_small <= b_large + 1e-12);
        prop_assert!(bounds::beta(k, n, n, 1) >= 1.0 - 1e-12);
    }
}
