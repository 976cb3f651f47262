//! Tuple-level discrete-event simulation of a deployed query.
//!
//! Sources emit Poisson tuple streams at their catalog rates; each deployed
//! join runs a windowed symmetric-hash join ("doubly-pipelined operators
//! and windows", Section 2): an arriving tuple probes the opposite window
//! and matches each resident tuple independently with the pair's
//! selectivity. Tuples ride the shortest-cost routes of the physical
//! network, paying link cost per data unit and accumulating link delays, so
//! the report contains both the *measured* communication cost per unit time
//! (which converges to the analytic estimate the optimizers plan with) and
//! end-to-end result latencies (which the analytic model cannot see).
//!
//! The default window of 0.5 time units makes the expected join output rate
//! `2·σ·λ_L·λ_R·W = σ·λ_L·λ_R`, matching the catalog's rate estimator.

use dsq_net::{DistanceMatrix, Metric, Network, NodeId};
use dsq_query::{Catalog, Deployment, FlatNode, Query};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Tuple simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct TupleSimConfig {
    /// Simulated duration in abstract time units.
    pub duration: f64,
    /// Measurements before this time are discarded (window fill-up).
    pub warmup: f64,
    /// Join window length; 0.5 aligns measured and estimated rates.
    pub window: f64,
    /// Per-tuple processing (service) time at an operator's node, in time
    /// units. Each node is a single FIFO server shared by every operator
    /// placed on it, so co-located operators contend — the queueing-delay
    /// face of the [`LoadModel`](dsq_core::LoadModel)'s overload penalty.
    /// `0.0` models infinitely fast processors (pure network study).
    pub service_time: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TupleSimConfig {
    fn default() -> Self {
        TupleSimConfig {
            duration: 200.0,
            warmup: 20.0,
            window: 0.5,
            service_time: 0.0,
            seed: 7,
        }
    }
}

/// Simulation measurements.
#[derive(Clone, Copy, Debug, Default)]
pub struct TupleSimReport {
    /// Measured communication cost per unit time (post-warmup).
    pub measured_cost_per_time: f64,
    /// The analytic cost the optimizer predicted (for comparison).
    pub predicted_cost_per_time: f64,
    /// Source tuples generated.
    pub tuples_generated: u64,
    /// Result tuples delivered to the sink.
    pub results_delivered: u64,
    /// Mean end-to-end latency (ms) of delivered results.
    pub mean_latency_ms: f64,
    /// Largest fraction of simulated time any node spent busy processing
    /// (1.0 = a saturated node; queues grow without bound beyond that).
    pub max_node_utilization: f64,
}

#[derive(Clone, Copy, Debug)]
enum EventKind {
    /// A leaf emits its next tuple.
    Emit { leaf: usize },
    /// A tuple arrives at a consumer (`usize::MAX` = the sink).
    Arrive {
        consumer: usize,
        from: usize,
        birth: f64,
    },
    /// A tuple finishes processing at a join (post-queueing).
    Process {
        consumer: usize,
        from: usize,
        birth: f64,
    },
}

#[derive(Clone, Copy, Debug)]
struct Event {
    time: f64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.total_cmp(&other.time)
    }
}

/// Discrete-event tuple simulator over a physical network.
#[derive(Debug)]
pub struct TupleSimulator<'a> {
    #[allow(dead_code)]
    network: &'a Network,
    cost: DistanceMatrix,
    delay: DistanceMatrix,
}

impl<'a> TupleSimulator<'a> {
    /// Prepare routing matrices for a network.
    pub fn new(network: &'a Network) -> Self {
        TupleSimulator {
            network,
            cost: DistanceMatrix::build(network, Metric::Cost),
            delay: DistanceMatrix::build(network, Metric::DelayMs),
        }
    }

    /// Simulate one deployed query. The deployment's plan already embeds
    /// the query's selection effects in its leaf rates, so only the catalog
    /// (selectivities) is consulted at join time; `_query` is kept in the
    /// signature for future per-query instrumentation.
    pub fn run(
        &self,
        catalog: &Catalog,
        _query: &Query,
        deployment: &Deployment,
        cfg: TupleSimConfig,
    ) -> TupleSimReport {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let nodes = deployment.plan.nodes();
        let n = nodes.len();

        // Consumer (parent join, or sink) of every plan node, and per-join
        // structural info.
        let mut consumer = vec![usize::MAX; n]; // MAX = sink
        let mut sigma = vec![0.0; n];
        let mut left_child = vec![usize::MAX; n];
        for (i, node) in nodes.iter().enumerate() {
            if let FlatNode::Join { left, right, .. } = node {
                consumer[*left] = i;
                consumer[*right] = i;
                left_child[i] = *left;
                sigma[i] = catalog.cross_selectivity(
                    nodes[*left].covered().as_slice(),
                    nodes[*right].covered().as_slice(),
                );
            }
        }
        // Edge geometry: cost and delay from producer node to consumer node.
        let place = |i: usize| -> NodeId {
            if i == usize::MAX {
                deployment.sink
            } else {
                deployment.placement[i]
            }
        };
        // Per-join windows: arrival timestamps per side.
        let mut windows: Vec<(VecDeque<f64>, VecDeque<f64>)> =
            vec![(VecDeque::new(), VecDeque::new()); n];

        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut leaf_rate = vec![0.0; n];
        for (i, node) in nodes.iter().enumerate() {
            if let FlatNode::Leaf { rate, .. } = node {
                leaf_rate[i] = *rate;
                let dt = exp_sample(&mut rng, *rate);
                heap.push(Reverse(Event {
                    time: dt,
                    kind: EventKind::Emit { leaf: i },
                }));
            }
        }

        let mut report = TupleSimReport {
            predicted_cost_per_time: deployment.cost,
            ..Default::default()
        };
        let mut cost_accum = 0.0;
        let mut latency_accum = 0.0;
        // Per-node FIFO server state (only exercised when service_time > 0).
        let mut busy_until = vec![0.0f64; self.cost.len()];
        let mut busy_accum = vec![0.0f64; self.cost.len()];
        let measure_span = cfg.duration - cfg.warmup;
        assert!(measure_span > 0.0, "duration must exceed warmup");

        let send = |time: f64,
                    from: usize,
                    birth: f64,
                    cost_accum: &mut f64,
                    heap: &mut BinaryHeap<Reverse<Event>>| {
            let to = consumer[from];
            let (from_node, to_node) = (place(from), place(to));
            if time >= cfg.warmup {
                *cost_accum += self.cost.get(from_node, to_node);
            }
            heap.push(Reverse(Event {
                time: time + self.delay.get(from_node, to_node) / 1000.0,
                kind: EventKind::Arrive {
                    consumer: to,
                    from,
                    birth,
                },
            }));
        };

        while let Some(Reverse(ev)) = heap.pop() {
            if ev.time > cfg.duration {
                break;
            }
            match ev.kind {
                EventKind::Emit { leaf } => {
                    report.tuples_generated += 1;
                    send(ev.time, leaf, ev.time, &mut cost_accum, &mut heap);
                    let dt = exp_sample(&mut rng, leaf_rate[leaf]);
                    heap.push(Reverse(Event {
                        time: ev.time + dt,
                        kind: EventKind::Emit { leaf },
                    }));
                }
                EventKind::Arrive {
                    consumer: c,
                    from,
                    birth,
                }
                | EventKind::Process {
                    consumer: c,
                    from,
                    birth,
                } => {
                    if c == usize::MAX {
                        // Delivered to the sink.
                        if ev.time >= cfg.warmup {
                            report.results_delivered += 1;
                            latency_accum += (ev.time - birth) * 1000.0;
                        }
                        continue;
                    }
                    let is_arrival = matches!(ev.kind, EventKind::Arrive { .. });
                    if cfg.service_time > 0.0 && is_arrival {
                        // Queue at the node's single FIFO server; the join
                        // executes when processing completes.
                        let node = place(c).index();
                        let start = busy_until[node].max(ev.time);
                        let done = start + cfg.service_time;
                        busy_until[node] = done;
                        busy_accum[node] += cfg.service_time;
                        heap.push(Reverse(Event {
                            time: done,
                            kind: EventKind::Process {
                                consumer: c,
                                from,
                                birth,
                            },
                        }));
                        continue;
                    }
                    let is_left = from == left_child[c];
                    let (own, other) = {
                        let (l, r) = &mut windows[c];
                        if is_left {
                            (l, r)
                        } else {
                            (r, l)
                        }
                    };
                    // Prune expired tuples from the opposite window.
                    while other.front().is_some_and(|&t| t < ev.time - cfg.window) {
                        other.pop_front();
                    }
                    // Probe: each resident matches independently.
                    let mut matches = 0usize;
                    for _ in 0..other.len() {
                        if rng.gen_bool(sigma[c].min(1.0)) {
                            matches += 1;
                        }
                    }
                    own.push_back(ev.time);
                    // Each match emits an output tuple toward the consumer
                    // (the parent join, or the sink when `c` is the root).
                    for _ in 0..matches {
                        send(ev.time, c, birth, &mut cost_accum, &mut heap);
                    }
                }
            }
        }

        report.measured_cost_per_time = cost_accum / measure_span;
        report.mean_latency_ms = if report.results_delivered > 0 {
            latency_accum / report.results_delivered as f64
        } else {
            0.0
        };
        report.max_node_utilization = busy_accum
            .iter()
            .map(|b| b / cfg.duration)
            .fold(0.0, f64::max);
        report
    }
}

fn exp_sample(rng: &mut ChaCha8Rng, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    let u: f64 = rng.gen_range(0.0f64..1.0).max(1e-12);
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_core::{Environment, Optimizer, SearchStats, TopDown};
    use dsq_net::TransitStubConfig;
    use dsq_query::ReuseRegistry;
    use dsq_workload::{WorkloadConfig, WorkloadGenerator};

    fn simulated_case(seed: u64) -> (Environment, dsq_workload::Workload, Deployment) {
        let net = TransitStubConfig::paper_64().generate(31).network;
        let env = Environment::build(net, 16);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 8,
                queries: 1,
                joins_per_query: 2..=2,
                rate_range: (5.0, 15.0),
                selectivity_range: (0.02, 0.05),
                ..WorkloadConfig::default()
            },
            seed,
        )
        .generate(&env.network);
        let reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        let d = TopDown::new(&env)
            .optimize(&wl.catalog, &wl.queries[0], &reg, &mut stats)
            .unwrap();
        (env, wl, d)
    }

    #[test]
    fn measured_cost_converges_to_predicted() {
        let (env, wl, d) = simulated_case(2);
        let sim = TupleSimulator::new(&env.network);
        let report = sim.run(
            &wl.catalog,
            &wl.queries[0],
            &d,
            TupleSimConfig {
                duration: 400.0,
                warmup: 50.0,
                ..Default::default()
            },
        );
        assert!(report.tuples_generated > 1000);
        let rel = (report.measured_cost_per_time - report.predicted_cost_per_time).abs()
            / report.predicted_cost_per_time.max(1e-9);
        assert!(
            rel < 0.30,
            "measured {} vs predicted {} (rel {rel})",
            report.measured_cost_per_time,
            report.predicted_cost_per_time
        );
    }

    #[test]
    fn results_are_delivered_with_latency() {
        let (env, wl, d) = simulated_case(3);
        let sim = TupleSimulator::new(&env.network);
        let report = sim.run(&wl.catalog, &wl.queries[0], &d, TupleSimConfig::default());
        assert!(report.results_delivered > 0, "joins must produce results");
        assert!(report.mean_latency_ms >= 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let (env, wl, d) = simulated_case(4);
        let sim = TupleSimulator::new(&env.network);
        let a = sim.run(&wl.catalog, &wl.queries[0], &d, TupleSimConfig::default());
        let b = sim.run(&wl.catalog, &wl.queries[0], &d, TupleSimConfig::default());
        assert_eq!(a.tuples_generated, b.tuples_generated);
        assert_eq!(a.results_delivered, b.results_delivered);
        assert_eq!(a.measured_cost_per_time, b.measured_cost_per_time);
    }

    #[test]
    fn processing_contention_raises_latency() {
        let (env, wl, d) = simulated_case(6);
        let sim = TupleSimulator::new(&env.network);
        let fast = sim.run(
            &wl.catalog,
            &wl.queries[0],
            &d,
            TupleSimConfig {
                service_time: 0.0,
                ..TupleSimConfig::default()
            },
        );
        // Service time near the per-node arrival period: queues form.
        let slow = sim.run(
            &wl.catalog,
            &wl.queries[0],
            &d,
            TupleSimConfig {
                service_time: 0.02,
                ..TupleSimConfig::default()
            },
        );
        assert_eq!(fast.max_node_utilization, 0.0);
        assert!(slow.max_node_utilization > 0.0);
        assert!(
            slow.mean_latency_ms >= fast.mean_latency_ms,
            "queueing cannot reduce latency: {} vs {}",
            slow.mean_latency_ms,
            fast.mean_latency_ms
        );
        // Source throughput is statistically unchanged (the shared RNG's
        // draw order shifts with event interleaving, so only approximate
        // equality holds).
        let ratio = slow.tuples_generated as f64 / fast.tuples_generated as f64;
        assert!((0.95..=1.05).contains(&ratio), "throughput ratio {ratio}");
    }

    #[test]
    fn saturated_node_shows_high_utilization() {
        let (env, wl, d) = simulated_case(7);
        let sim = TupleSimulator::new(&env.network);
        // Service time far above the arrival period: the hosting node pins
        // at ~100% utilization.
        let r = sim.run(
            &wl.catalog,
            &wl.queries[0],
            &d,
            TupleSimConfig {
                service_time: 0.5,
                duration: 100.0,
                warmup: 10.0,
                ..TupleSimConfig::default()
            },
        );
        assert!(
            r.max_node_utilization > 0.8,
            "expected saturation, got {}",
            r.max_node_utilization
        );
    }

    #[test]
    fn cheaper_deployments_measure_cheaper() {
        // The tuple simulator must preserve the cost ordering between a
        // good and a bad placement of the same plan.
        let (env, wl, good) = simulated_case(5);
        let q = &wl.queries[0];
        let sim = TupleSimulator::new(&env.network);
        // Degrade: move all joins to the node farthest from the sink.
        let far = env
            .network
            .nodes()
            .max_by(|&a, &b| env.dm.get(a, q.sink).total_cmp(&env.dm.get(b, q.sink)))
            .unwrap();
        let mut placement = good.placement.clone();
        for ji in good.plan.join_indices() {
            placement[ji] = far;
        }
        let bad = Deployment::evaluate(q.id, good.plan.clone(), placement, q.sink, &env.dm);
        if bad.cost <= good.cost * 1.5 {
            return; // degenerate topology draw; nothing to compare
        }
        let cfg = TupleSimConfig {
            duration: 300.0,
            ..Default::default()
        };
        let rg = sim.run(&wl.catalog, q, &good, cfg);
        let rb = sim.run(&wl.catalog, q, &bad, cfg);
        assert!(
            rg.measured_cost_per_time < rb.measured_cost_per_time,
            "good {} vs bad {}",
            rg.measured_cost_per_time,
            rb.measured_cost_per_time
        );
    }
}
