//! Emulab-style deployment-time model (Section 3.5).
//!
//! The paper's prototype experiments measure how long each algorithm takes
//! to deploy a query on a 32-node testbed with 1–6 ms link delays. Two
//! components dominate, both reproducible from our optimizers' execution
//! traces:
//!
//! 1. **Protocol messaging** — the query travels from its submission point
//!    through the coordinators that plan it (down the hierarchy for
//!    Top-Down, up the ancestor chain for Bottom-Up), and the chosen
//!    operators are then instantiated with one round trip each. Every hop
//!    pays the shortest-path link delay.
//! 2. **Search work** — each coordinator examines `plans` plan/deployment
//!    combinations ([`PlanEvent`]); each examination
//!    costs [`EmulabModel::per_plan_us`] microseconds. This is why
//!    Bottom-Up, whose per-level searches are smaller, deploys ~70% faster
//!    (Figure 10), and why small `max_cs` values slow Top-Down down (more
//!    levels to traverse).

use dsq_core::{PlanEvent, SearchStats};
use dsq_net::{DistanceMatrix, Metric, Network, NodeId};
use dsq_query::Deployment;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Deployment-time breakdown in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeploymentTime {
    /// Coordinator-to-coordinator and instantiation messaging.
    pub messaging_ms: f64,
    /// Plan-search work at the coordinators.
    pub planning_ms: f64,
    /// Time spent waiting out timeouts of dropped messages (zero on the
    /// reliable model).
    pub retry_ms: f64,
    /// Messages that had to be re-sent after a timeout.
    pub retries: usize,
}

impl DeploymentTime {
    /// Total deployment time.
    pub fn total_ms(&self) -> f64 {
        self.messaging_ms + self.planning_ms + self.retry_ms
    }
}

/// The testbed model: delay matrix plus calibrated per-plan search cost and
/// per-message software overhead.
#[derive(Clone, Debug)]
pub struct EmulabModel {
    delays: DistanceMatrix,
    /// Microseconds per plan/deployment combination examined (in-memory
    /// search; small next to messaging, as on the real testbed).
    pub per_plan_us: f64,
    /// Fixed software-stack overhead per protocol message (serialization,
    /// dispatch, middleware hops). This dominates the measured deployment
    /// times — which is why the paper sees Top-Down get *faster* with
    /// larger `max_cs` (fewer levels to traverse) even though each level's
    /// search is bigger.
    pub per_message_overhead_ms: f64,
}

impl EmulabModel {
    /// Build the model for a network (delay metric), calibrated so that
    /// 2–5-stream queries deploy in the sub-second-to-seconds range of the
    /// paper's Figure 10.
    pub fn new(network: &Network) -> Self {
        EmulabModel {
            delays: DistanceMatrix::build(network, Metric::DelayMs),
            per_plan_us: 2.0,
            per_message_overhead_ms: 25.0,
        }
    }

    /// Deployment time for one optimized query: `submit` is where the query
    /// was registered (its sink), `stats` the optimizer's planning trace,
    /// `deployment` the final placement (instantiation messages).
    pub fn deployment_time(
        &self,
        submit: NodeId,
        stats: &SearchStats,
        deployment: &Deployment,
    ) -> DeploymentTime {
        let mut t = DeploymentTime::default();
        // Query routing between planning sites, starting from the sink.
        let mut at = submit;
        for ev in &stats.events {
            t.messaging_ms += self.delays.get(at, ev.coordinator) + self.per_message_overhead_ms;
            at = ev.coordinator;
            t.planning_ms += self.planning_ms(ev);
        }
        // Operator instantiation: one round trip from the last planning
        // site to each operator node, plus result wiring to the sink.
        for &op in &deployment.operator_nodes() {
            t.messaging_ms += 2.0 * (self.delays.get(at, op) + self.per_message_overhead_ms);
        }
        t.messaging_ms += self.delays.get(at, deployment.sink) + self.per_message_overhead_ms;
        t
    }

    /// Search time one planning event costs.
    pub fn planning_ms(&self, ev: &PlanEvent) -> f64 {
        ev.plans as f64 * self.per_plan_us / 1000.0
    }
}

/// Retry policy of the lossy deployment protocol: per-message drop
/// probability, initial retransmission timeout, exponential backoff and a
/// retry cap after which the message (and the deployment it carries) is
/// given up on.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Probability that any single protocol message is lost in flight.
    pub drop_probability: f64,
    /// Initial retransmission timeout in milliseconds. Calibrated to 100 ms
    /// — ~4× the worst-case round trip on the 1–6 ms testbed links plus the
    /// 25 ms software overhead ([`EmulabModel::per_message_overhead_ms`]).
    pub timeout_ms: f64,
    /// Multiplier applied to the timeout after every loss (classic
    /// exponential backoff; 2.0 doubles the wait each attempt).
    pub backoff: f64,
    /// Maximum number of retransmissions per message before the protocol
    /// declares the send failed.
    pub max_retries: usize,
}

impl RetryPolicy {
    /// The reliable protocol: no losses, so no retries ever happen and
    /// deployment times match [`EmulabModel::deployment_time`] exactly.
    pub fn reliable() -> Self {
        RetryPolicy {
            drop_probability: 0.0,
            timeout_ms: 100.0,
            backoff: 2.0,
            max_retries: 0,
        }
    }

    /// A lossy protocol with the calibrated timeout/backoff constants and
    /// the given drop probability.
    pub fn lossy(drop_probability: f64) -> Self {
        assert!((0.0..=1.0).contains(&drop_probability));
        RetryPolicy {
            drop_probability,
            timeout_ms: 100.0,
            backoff: 2.0,
            max_retries: 5,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::reliable()
    }
}

/// Outcome of pushing one message through the lossy protocol.
#[derive(Clone, Copy, Debug)]
pub struct SendOutcome {
    /// Link latency + software overhead actually paid (per attempt that
    /// made it onto the wire and was not dropped; zero when every attempt
    /// was lost).
    pub transit_ms: f64,
    /// Timeout time burned on dropped attempts.
    pub wait_ms: f64,
    /// Retransmissions performed.
    pub retries: usize,
    /// Whether the message was eventually delivered.
    pub delivered: bool,
}

/// The lossy deployment-protocol model: an [`EmulabModel`] whose protocol
/// messages can be dropped, retried with exponential backoff, and — past
/// the retry cap — fail the deployment they carry.
///
/// With `policy.drop_probability == 0.0` the model reproduces
/// [`EmulabModel::deployment_time`] exactly (the RNG is never consulted),
/// which keeps the Figure 10 calibration intact.
#[derive(Clone, Debug)]
pub struct LossyProtocol {
    /// The underlying delay/search-cost model.
    pub model: EmulabModel,
    /// Drop/timeout/backoff/cap parameters.
    pub policy: RetryPolicy,
    rng: ChaCha8Rng,
}

impl LossyProtocol {
    /// Wrap `model` with `policy`, seeding the loss process.
    pub fn new(model: EmulabModel, policy: RetryPolicy, seed: u64) -> Self {
        LossyProtocol {
            model,
            policy,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Send one protocol message from `from` to `to`, retrying on loss.
    pub fn send(&mut self, from: NodeId, to: NodeId) -> SendOutcome {
        let one_way = self.model.delays.get(from, to) + self.model.per_message_overhead_ms;
        let mut outcome = SendOutcome {
            transit_ms: 0.0,
            wait_ms: 0.0,
            retries: 0,
            delivered: false,
        };
        let mut timeout = self.policy.timeout_ms;
        for attempt in 0..=self.policy.max_retries {
            let dropped = self.policy.drop_probability > 0.0
                && self.rng.gen_bool(self.policy.drop_probability);
            if !dropped {
                outcome.transit_ms = one_way;
                outcome.retries = attempt;
                outcome.delivered = true;
                break;
            }
            // The sender only learns about the loss by timing out.
            outcome.wait_ms += timeout;
            timeout *= self.policy.backoff;
        }
        if !outcome.delivered {
            outcome.retries = self.policy.max_retries;
            dsq_obs::counter("protocol.sends_failed", 1);
        }
        if outcome.retries > 0 {
            dsq_obs::counter("protocol.retries", outcome.retries as u64);
            dsq_obs::observe("protocol.backoff_wait_ms", outcome.wait_ms);
        }
        outcome
    }

    /// Deployment time for one optimized query under the lossy protocol:
    /// the same message walk as [`EmulabModel::deployment_time`], but every
    /// hop can be dropped and retried. Returns `None` when any message
    /// exhausts its retry budget — the deployment failed to instantiate and
    /// the accumulated time (routing, search, timeouts) is reported
    /// alongside so callers can charge it before parking the query.
    pub fn deployment_time(
        &mut self,
        submit: NodeId,
        stats: &SearchStats,
        deployment: &Deployment,
    ) -> (DeploymentTime, bool) {
        let mut t = DeploymentTime::default();
        let mut at = submit;
        for ev in &stats.events {
            if !self.hop(&mut t, at, ev.coordinator) {
                return (t, false);
            }
            at = ev.coordinator;
            t.planning_ms += self.model.planning_ms(ev);
        }
        for &op in &deployment.operator_nodes() {
            // Instantiation round trip: request out, acknowledgment back.
            // Delays are symmetric, so the two delivered legs are charged
            // as one doubled term — the same expression the reliable model
            // uses, keeping the zero-drop calibration bit-exact.
            let request = self.send(at, op);
            t.retry_ms += request.wait_ms;
            t.retries += request.retries;
            if !request.delivered {
                return (t, false);
            }
            let ack = self.send(op, at);
            t.retry_ms += ack.wait_ms;
            t.retries += ack.retries;
            if !ack.delivered {
                t.messaging_ms += request.transit_ms;
                return (t, false);
            }
            t.messaging_ms += 2.0 * request.transit_ms;
        }
        if !self.hop(&mut t, at, deployment.sink) {
            return (t, false);
        }
        (t, true)
    }

    /// Charge one message to `t`; `false` when it was never delivered.
    fn hop(&mut self, t: &mut DeploymentTime, from: NodeId, to: NodeId) -> bool {
        let s = self.send(from, to);
        t.messaging_ms += s.transit_ms;
        t.retry_ms += s.wait_ms;
        t.retries += s.retries;
        s.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_core::{BottomUp, Environment, Optimizer, TopDown};
    use dsq_net::TransitStubConfig;
    use dsq_query::ReuseRegistry;
    use dsq_workload::{WorkloadConfig, WorkloadGenerator};

    fn testbed() -> (Environment, dsq_workload::Workload) {
        let net = TransitStubConfig::emulab_32().generate(9).network;
        let env = Environment::build(net, 8);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 8,
                queries: 10,
                joins_per_query: 1..=4,
                ..WorkloadConfig::default()
            },
            55,
        )
        .generate(&env.network);
        (env, wl)
    }

    #[test]
    fn bottomup_deploys_faster_than_topdown() {
        let (env, wl) = testbed();
        let model = EmulabModel::new(&env.network);
        let (mut bu_ms, mut bum_ms, mut td_ms) = (0.0, 0.0, 0.0);
        for q in &wl.queries {
            let mut s_bu = SearchStats::new();
            let mut s_bum = SearchStats::new();
            let mut s_td = SearchStats::new();
            let r1 = ReuseRegistry::new();
            let r2 = ReuseRegistry::new();
            let r3 = ReuseRegistry::new();
            let d_bu = BottomUp::new(&env)
                .optimize(&wl.catalog, q, &r1, &mut s_bu)
                .unwrap();
            let d_bum = BottomUp::with_placement(&env, dsq_core::BottomUpPlacement::MembersOnly)
                .optimize(&wl.catalog, q, &r3, &mut s_bum)
                .unwrap();
            let d_td = TopDown::new(&env)
                .optimize(&wl.catalog, q, &r2, &mut s_td)
                .unwrap();
            bu_ms += model.deployment_time(q.sink, &s_bu, &d_bu).total_ms();
            bum_ms += model.deployment_time(q.sink, &s_bum, &d_bum).total_ms();
            td_ms += model.deployment_time(q.sink, &s_td, &d_td).total_ms();
        }
        // The members-only placement reading is decisively faster (the
        // paper's ~70% at max_cs = 4; this testbed uses max_cs = 8 where
        // the hierarchy is flatter and the saving smaller); the default
        // descending Bottom-Up must still not be slower than Top-Down (it
        // stops climbing once sources are covered).
        assert!(
            bum_ms < td_ms,
            "members-only bottom-up {bum_ms} ms vs top-down {td_ms} ms"
        );
        assert!(
            bu_ms <= td_ms * 1.10,
            "descending bottom-up {bu_ms} ms vs top-down {td_ms} ms"
        );
    }

    #[test]
    fn larger_queries_take_longer() {
        let (env, wl) = testbed();
        let model = EmulabModel::new(&env.network);
        let mut by_size: Vec<(usize, f64, usize)> = vec![(0, 0.0, 0); 8];
        for q in &wl.queries {
            let mut s = SearchStats::new();
            let r = ReuseRegistry::new();
            let d = TopDown::new(&env)
                .optimize(&wl.catalog, q, &r, &mut s)
                .unwrap();
            let t = model.deployment_time(q.sink, &s, &d).total_ms();
            let k = q.sources.len();
            by_size[k].0 = k;
            by_size[k].1 += t;
            by_size[k].2 += 1;
        }
        let sized: Vec<(usize, f64)> = by_size
            .iter()
            .filter(|(_, _, c)| *c > 0)
            .map(|(k, t, c)| (*k, t / *c as f64))
            .collect();
        if sized.len() >= 2 {
            assert!(
                sized.last().unwrap().1 > sized.first().unwrap().1,
                "deployment time should grow with query size: {sized:?}"
            );
        }
    }

    #[test]
    fn time_components_are_nonnegative() {
        let (env, wl) = testbed();
        let model = EmulabModel::new(&env.network);
        let q = &wl.queries[0];
        let mut s = SearchStats::new();
        let r = ReuseRegistry::new();
        let d = TopDown::new(&env)
            .optimize(&wl.catalog, q, &r, &mut s)
            .unwrap();
        let t = model.deployment_time(q.sink, &s, &d);
        assert!(t.messaging_ms > 0.0);
        assert!(t.planning_ms > 0.0);
        assert!(t.total_ms() >= t.messaging_ms.max(t.planning_ms));
    }

    /// Per-query optimizer outputs for the protocol tests.
    fn planned(
        env: &Environment,
        wl: &dsq_workload::Workload,
    ) -> Vec<(dsq_net::NodeId, SearchStats, Deployment)> {
        wl.queries
            .iter()
            .map(|q| {
                let mut s = SearchStats::new();
                let r = ReuseRegistry::new();
                let d = TopDown::new(env)
                    .optimize(&wl.catalog, q, &r, &mut s)
                    .unwrap();
                (q.sink, s, d)
            })
            .collect()
    }

    #[test]
    fn zero_drop_protocol_matches_reliable_model_exactly() {
        let (env, wl) = testbed();
        let model = EmulabModel::new(&env.network);
        let mut lossless = LossyProtocol::new(model.clone(), RetryPolicy::reliable(), 3);
        for (sink, stats, d) in planned(&env, &wl) {
            let reliable = model.deployment_time(sink, &stats, &d);
            let (lossy, delivered) = lossless.deployment_time(sink, &stats, &d);
            assert!(delivered);
            assert_eq!(lossy.retries, 0);
            assert_eq!(lossy.retry_ms, 0.0);
            assert_eq!(lossy.messaging_ms, reliable.messaging_ms, "bit-exact");
            assert_eq!(lossy.planning_ms, reliable.planning_ms, "bit-exact");
            assert_eq!(lossy.total_ms(), reliable.total_ms(), "bit-exact");
        }
    }

    #[test]
    fn losses_add_retry_time_and_count() {
        let (env, wl) = testbed();
        let model = EmulabModel::new(&env.network);
        let mut proto = LossyProtocol::new(model.clone(), RetryPolicy::lossy(0.3), 7);
        let (mut retries, mut retry_ms, mut delivered_all) = (0usize, 0.0, 0usize);
        for (sink, stats, d) in planned(&env, &wl) {
            let (t, delivered) = proto.deployment_time(sink, &stats, &d);
            retries += t.retries;
            retry_ms += t.retry_ms;
            delivered_all += usize::from(delivered);
            let reliable = model.deployment_time(sink, &stats, &d);
            assert!(
                t.total_ms() >= reliable.total_ms() - 1e-9 || !delivered,
                "losses can only slow a delivered deployment down"
            );
        }
        assert!(retries > 0, "30% drop over dozens of messages must retry");
        assert!(retry_ms > 0.0);
        assert!(delivered_all > 0, "most deployments still make it through");
    }

    #[test]
    fn certain_loss_exhausts_the_retry_budget() {
        let (env, wl) = testbed();
        let policy = RetryPolicy {
            drop_probability: 1.0,
            ..RetryPolicy::lossy(1.0)
        };
        let mut proto = LossyProtocol::new(EmulabModel::new(&env.network), policy, 5);
        let (sink, stats, d) = planned(&env, &wl).remove(0);
        let (t, delivered) = proto.deployment_time(sink, &stats, &d);
        assert!(!delivered, "nothing gets through at p = 1");
        assert_eq!(t.messaging_ms, 0.0, "no message ever transited");
        // First message: initial timeout plus max_retries backed-off waits.
        let expected: f64 = (0..=proto.policy.max_retries)
            .map(|i| proto.policy.timeout_ms * proto.policy.backoff.powi(i as i32))
            .sum();
        assert!((t.retry_ms - expected).abs() < 1e-9);
    }

    #[test]
    fn backoff_grows_waits_exponentially() {
        let net = TransitStubConfig::emulab_32().generate(9).network;
        let policy = RetryPolicy {
            drop_probability: 1.0,
            timeout_ms: 10.0,
            backoff: 3.0,
            max_retries: 3,
        };
        let mut proto = LossyProtocol::new(EmulabModel::new(&net), policy, 1);
        let a = net.nodes().next().unwrap();
        let b = net.nodes().nth(1).unwrap();
        let out = proto.send(a, b);
        assert!(!out.delivered);
        assert_eq!(out.retries, 3);
        // 10 + 30 + 90 + 270.
        assert!((out.wait_ms - 400.0).abs() < 1e-9);
    }
}
