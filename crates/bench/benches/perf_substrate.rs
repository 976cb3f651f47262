//! Substrate micro-benchmarks: the building blocks every experiment leans
//! on. Not a paper figure — this is the performance budget of the library
//! itself (APSP construction, cost-space embedding, hierarchy build, and
//! the within-cluster planning engine's scaling in atoms × candidates).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsq_core::{ClusterPlanner, Environment, PlannerInput, SearchStats};
use dsq_net::{CostSpace, DistanceMatrix, Metric, NodeId, TransitStubConfig};
use dsq_workload::{WorkloadConfig, WorkloadGenerator};

fn bench(c: &mut Criterion) {
    // APSP: sequential (below threshold) and parallel (above) paths, and
    // the ledger's 1,056-node operating point.
    let mut group = c.benchmark_group("apsp_build");
    group.sample_size(10);
    for size in [64usize, 512, 1056] {
        let net = TransitStubConfig::sized(size).generate(1).network;
        group.bench_with_input(BenchmarkId::from_parameter(net.len()), &net, |b, net| {
            b.iter(|| DistanceMatrix::build(net, Metric::Cost).diameter())
        });
    }
    group.finish();

    // Cost-space embedding sweeps, up to the ledger's 1,056 nodes.
    let mut group = c.benchmark_group("embedding");
    group.sample_size(10);
    for size in [64usize, 128, 1056] {
        let net = TransitStubConfig::sized(size).generate(1).network;
        let dm = DistanceMatrix::build(&net, Metric::Cost);
        group.bench_with_input(BenchmarkId::from_parameter(net.len()), &dm, |b, dm| {
            b.iter(|| CostSpace::embed(dm, 1, 40).len())
        });
    }
    group.finish();

    // Full environment build (APSP + embedding + K-Means hierarchy).
    let mut group = c.benchmark_group("environment_build");
    group.sample_size(10);
    for size in [64usize, 128] {
        let net = TransitStubConfig::sized(size).generate(1).network;
        group.bench_with_input(BenchmarkId::from_parameter(net.len()), &net, |b, net| {
            b.iter(|| Environment::build(net.clone(), 32).hierarchy.height())
        });
    }
    group.finish();

    // Engine scaling: DP over k atoms × m candidates.
    let net = TransitStubConfig::paper_128().generate(1).network;
    let env = Environment::build(net, 32);
    let mut group = c.benchmark_group("engine_dp");
    group.sample_size(20);
    for k in [3usize, 5, 6] {
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 20,
                queries: 1,
                joins_per_query: (k - 1)..=(k - 1),
                ..WorkloadConfig::default()
            },
            9,
        )
        .generate(&env.network);
        let q = wl.queries[0].clone();
        let catalog = wl.catalog.clone();
        let inputs: Vec<PlannerInput> = q
            .sources
            .iter()
            .map(|&s| PlannerInput::base(&catalog, s))
            .collect();
        let candidates: Vec<NodeId> = env.network.nodes().collect();
        group.bench_function(BenchmarkId::new("atoms", k), |b| {
            b.iter(|| {
                let planner = ClusterPlanner::new(&catalog, &q);
                let mut stats = SearchStats::new();
                planner
                    .plan(
                        &inputs,
                        &candidates,
                        &env.dm,
                        Some(q.sink),
                        None,
                        &mut stats,
                    )
                    .unwrap()
                    .unwrap()
                    .est_cost
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
