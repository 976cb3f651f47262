//! Miniature end-to-end versions of the paper's experiments, kept fast
//! enough for `cargo test`: each asserts the *shape* the corresponding
//! figure reports (who wins, direction of trends), not absolute numbers.

use dsq::prelude::*;
use dsq_baselines::{InNetwork, InNetworkRunner, PlanThenDeploy, Relaxation};
use dsq_core::{consolidate, Optimal, Optimizer};

fn workload(env: &Environment, seed: u64, queries: usize, skew: Option<f64>) -> Workload {
    WorkloadGenerator::new(
        WorkloadConfig {
            streams: 40,
            queries,
            joins_per_query: 2..=4,
            source_skew: skew,
            ..WorkloadConfig::default()
        },
        seed,
    )
    .generate(&env.network)
}

fn batch_cost(alg: &dyn Optimizer, wl: &Workload, reuse: bool) -> f64 {
    let mut reg = ReuseRegistry::new();
    consolidate::deploy_all(alg, &wl.catalog, &wl.queries, &mut reg, reuse).total_cost()
}

/// Figure 2's shape: joint planning beats plan-then-deploy beats Relaxation.
#[test]
fn fig2_shape_joint_beats_phased_beats_relaxation() {
    let env = Environment::build(TransitStubConfig::paper_64().generate(2).network, 16);
    let mut totals = [0.0f64; 3];
    for seed in 0..3 {
        let wl = workload(&env, 10 + seed, 12, Some(1.0));
        totals[0] += batch_cost(&TopDown::new(&env), &wl, true);
        totals[1] += batch_cost(&PlanThenDeploy::new(&env), &wl, true);
        totals[2] += batch_cost(&Relaxation::new(&env), &wl, true);
    }
    assert!(totals[0] < totals[1], "joint {:?} must beat phased", totals);
    assert!(totals[1] < totals[2], "optimal placement beats relaxation");
}

/// Figure 7's shape: reuse lowers cost; optimal ≤ top-down ≤ bottom-up.
#[test]
fn fig7_shape_reuse_and_suboptimality_ordering() {
    let env = Environment::build(TransitStubConfig::paper_128().generate(1).network, 32);
    let (mut td_r, mut td, mut bu_r, mut bu, mut opt) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for seed in 0..3 {
        let wl = workload(&env, 20 + seed, 15, Some(1.6));
        td_r += batch_cost(&TopDown::new(&env), &wl, true);
        td += batch_cost(&TopDown::new(&env), &wl, false);
        bu_r += batch_cost(&BottomUp::new(&env), &wl, true);
        bu += batch_cost(&BottomUp::new(&env), &wl, false);
        opt += batch_cost(&Optimal::new(&env), &wl, true);
    }
    assert!(td_r < td, "reuse must help top-down: {td_r} vs {td}");
    assert!(bu_r < bu, "reuse must help bottom-up: {bu_r} vs {bu}");
    assert!(opt <= td_r + 1e-6, "optimal is the floor");
    assert!(
        td_r <= bu_r * 1.02,
        "top-down ≲ bottom-up: {td_r} vs {bu_r}"
    );
}

/// Figure 8's shape: hierarchical algorithms beat both published baselines.
#[test]
fn fig8_shape_hierarchical_beats_baselines() {
    let env = Environment::build(TransitStubConfig::paper_128().generate(1).network, 32);
    let zones = InNetwork::new(&env, 5);
    let inw = InNetworkRunner {
        zones: &zones,
        env: &env,
    };
    let (mut td, mut bu, mut rel, mut inn) = (0.0, 0.0, 0.0, 0.0);
    for seed in 0..3 {
        let wl = workload(&env, 30 + seed, 12, Some(1.6));
        td += batch_cost(&TopDown::new(&env), &wl, true);
        bu += batch_cost(&BottomUp::new(&env), &wl, true);
        rel += batch_cost(&Relaxation::new(&env), &wl, true);
        inn += batch_cost(&inw, &wl, true);
    }
    assert!(td < inn && td < rel, "top-down beats both baselines");
    assert!(bu < inn && bu < rel, "bottom-up beats both baselines");
}

/// Figure 9's shape: examined plans are a vanishing fraction of Lemma 1's
/// exhaustive space as the network grows.
#[test]
fn fig9_shape_search_space_reduction() {
    for target in [64usize, 256] {
        let cfg = TransitStubConfig::sized(target);
        let net = cfg.generate(9).network;
        let n = net.len();
        let env = Environment::build(net, 32);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 30,
                queries: 5,
                joins_per_query: 3..=3,
                ..WorkloadConfig::default()
            },
            33,
        )
        .generate(&env.network);
        for alg in [&TopDown::new(&env) as &dyn Optimizer, &BottomUp::new(&env)] {
            let mut total = 0u128;
            for q in &wl.queries {
                let reg = ReuseRegistry::new();
                let mut stats = SearchStats::new();
                alg.optimize(&wl.catalog, q, &reg, &mut stats).unwrap();
                total += stats.plans_considered;
            }
            let per_query = total as f64 / wl.queries.len() as f64;
            let exhaustive = dsq_core::bounds::lemma1_space_f64(4, n);
            assert!(
                per_query < exhaustive * 0.05,
                "{} on n={n}: {per_query} vs exhaustive {exhaustive}",
                alg.name()
            );
        }
    }
}

/// Figures 10/11's shape on the Emulab testbed model: Top-Down deploys
/// cheaper, members-only Bottom-Up deploys faster.
#[test]
fn fig10_11_shape_emulab_tradeoff() {
    let net = TransitStubConfig::emulab_32().generate(4).network;
    let env = Environment::build(net.clone(), 4);
    let model = dsq_sim::EmulabModel::new(&net);
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 8,
            queries: 15,
            joins_per_query: 1..=4,
            ..WorkloadConfig::default()
        },
        12,
    )
    .generate(&net);
    let (mut td_cost, mut bu_cost) = (0.0, 0.0);
    let (mut td_ms, mut bum_ms) = (0.0, 0.0);
    let reg_td = ReuseRegistry::new();
    let reg_bu = ReuseRegistry::new();
    let reg_bum = ReuseRegistry::new();
    for q in &wl.queries {
        let mut s_td = SearchStats::new();
        let d_td = TopDown::new(&env)
            .optimize(&wl.catalog, q, &reg_td, &mut s_td)
            .unwrap();
        td_ms += model.deployment_time(q.sink, &s_td, &d_td).total_ms();
        td_cost += d_td.cost;
        let mut s = SearchStats::new();
        bu_cost += BottomUp::new(&env)
            .optimize(&wl.catalog, q, &reg_bu, &mut s)
            .unwrap()
            .cost;
        let mut s_bum = SearchStats::new();
        let d_bum = BottomUp::with_placement(&env, BottomUpPlacement::MembersOnly)
            .optimize(&wl.catalog, q, &reg_bum, &mut s_bum)
            .unwrap();
        bum_ms += model.deployment_time(q.sink, &s_bum, &d_bum).total_ms();
    }
    assert!(td_cost <= bu_cost * 1.05, "fig11: top-down deploys cheaper");
    assert!(bum_ms < td_ms, "fig10: bottom-up deploys faster");
}
