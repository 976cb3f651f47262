//! Seeded fault schedules.
//!
//! The paper argues the virtual hierarchy "is robust enough to adapt as
//! necessary" under node churn (Section 2.1.1) — this module turns that
//! claim into a repeatable experiment. A seeded [`FaultSchedule`] produces
//! a timeline of independent crashes, *correlated* failures (an entire
//! level-1 cluster — the overlay image of a stub domain — going dark at
//! once), node recoveries that rejoin through the membership protocol, and
//! link-cost degradations. The planning service's chaos runner
//! (`dsq_server::chaos::ChaosRunner`) and its request-script generator
//! replay these timelines against the service.

use dsq_core::{Environment, OVERLAY_FLOOR};
use dsq_net::NodeId;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One injected fault.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Independent crash of a single node.
    Crash(NodeId),
    /// Correlated failure: every listed node (a level-1 cluster of the
    /// initial hierarchy, i.e. roughly one stub domain) crashes at once.
    CrashCluster(Vec<NodeId>),
    /// A previously crashed node recovers and rejoins the overlay.
    Rejoin(NodeId),
    /// A physical link's cost degrades by `factor` (congestion / rerouting
    /// around damage).
    DegradeLink {
        /// Link endpoint.
        a: NodeId,
        /// Link endpoint.
        b: NodeId,
        /// Multiplier applied to the link's current cost (> 1 degrades).
        factor: f64,
    },
}

/// A fault stamped with its (simulated) injection time.
#[derive(Clone, Debug)]
pub struct TimedFault {
    /// Injection time in simulated milliseconds from the start of the run.
    pub at_ms: f64,
    /// The fault itself.
    pub fault: Fault,
}

/// Knobs of the schedule generator: event mix, count and pacing.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Number of events to generate.
    pub events: usize,
    /// Relative weight of independent node crashes.
    pub crash_weight: f64,
    /// Relative weight of correlated cluster failures.
    pub correlated_weight: f64,
    /// Relative weight of node recoveries.
    pub rejoin_weight: f64,
    /// Relative weight of link degradations.
    pub degrade_weight: f64,
    /// Mean inter-event gap in milliseconds (exponentially distributed).
    pub mean_gap_ms: f64,
    /// Range the link-degradation factor is drawn from.
    pub degrade_factor: std::ops::Range<f64>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            events: 50,
            crash_weight: 0.35,
            correlated_weight: 0.10,
            rejoin_weight: 0.35,
            degrade_weight: 0.20,
            mean_gap_ms: 5_000.0,
            degrade_factor: 2.0..20.0,
        }
    }
}

/// A fully materialized, seeded fault timeline.
#[derive(Clone, Debug)]
pub struct FaultSchedule {
    /// Events in injection order (non-decreasing `at_ms`).
    pub faults: Vec<TimedFault>,
}

impl FaultSchedule {
    /// Generate a schedule against the *initial* environment. The generator
    /// tracks which nodes it has taken down so rejoins target genuinely
    /// crashed nodes and the overlay is never scheduled below two members;
    /// consumers re-validate every event anyway, because the service can
    /// diverge from the generator's bookkeeping (e.g. a correlated fault
    /// truncated to protect the minimum population).
    pub fn generate(env: &Environment, cfg: &FaultConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut up: Vec<NodeId> = env.hierarchy.active_nodes();
        let mut down: Vec<NodeId> = Vec::new();
        // Stub-domain proxies for correlated faults: the initial leaf
        // clusters, largest first so early correlated events bite.
        let domains: Vec<Vec<NodeId>> = env
            .hierarchy
            .level(1)
            .iter()
            .map(|c| c.members.clone())
            .collect();
        let links: Vec<(NodeId, NodeId)> = env
            .network
            .nodes()
            .flat_map(|u| {
                env.network
                    .neighbors(u)
                    .iter()
                    .filter(move |l| u < l.to)
                    .map(move |l| (u, l.to))
            })
            .collect();
        let total_weight =
            cfg.crash_weight + cfg.correlated_weight + cfg.rejoin_weight + cfg.degrade_weight;
        assert!(total_weight > 0.0, "at least one fault class must be on");

        let mut faults = Vec::with_capacity(cfg.events);
        let mut t = 0.0;
        for _ in 0..cfg.events {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -cfg.mean_gap_ms * (1.0 - u).ln();
            let mut pick = rng.gen_range(0.0..total_weight);
            let mut take = |weight: f64| {
                let hit = pick < weight;
                pick -= weight;
                hit
            };
            let fault = if take(cfg.crash_weight) {
                Self::gen_crash(&mut rng, &mut up, &mut down)
            } else if take(cfg.correlated_weight) {
                Self::gen_correlated(&mut rng, &domains, &mut up, &mut down)
            } else if take(cfg.rejoin_weight) {
                Self::gen_rejoin(&mut rng, &mut up, &mut down)
            } else {
                let &(a, b) = links.choose(&mut rng).expect("networks have links");
                Some(Fault::DegradeLink {
                    a,
                    b,
                    factor: rng.gen_range(cfg.degrade_factor.clone()),
                })
            };
            // A class that is not currently applicable (no one to rejoin,
            // too few nodes to crash) degrades to a link fault so the
            // schedule keeps its length.
            let fault = fault.unwrap_or_else(|| {
                let &(a, b) = links.choose(&mut rng).expect("networks have links");
                Fault::DegradeLink {
                    a,
                    b,
                    factor: rng.gen_range(cfg.degrade_factor.clone()),
                }
            });
            faults.push(TimedFault { at_ms: t, fault });
        }
        FaultSchedule { faults }
    }

    fn gen_crash(
        rng: &mut ChaCha8Rng,
        up: &mut Vec<NodeId>,
        down: &mut Vec<NodeId>,
    ) -> Option<Fault> {
        if up.len() <= OVERLAY_FLOOR {
            return None;
        }
        let &n = up.choose(rng).unwrap();
        up.retain(|&m| m != n);
        down.push(n);
        Some(Fault::Crash(n))
    }

    fn gen_correlated(
        rng: &mut ChaCha8Rng,
        domains: &[Vec<NodeId>],
        up: &mut Vec<NodeId>,
        down: &mut Vec<NodeId>,
    ) -> Option<Fault> {
        let domain = domains.choose(rng)?;
        // Only members still up can crash, and the overlay floor must
        // survive the whole event.
        let mut victims: Vec<NodeId> = domain.iter().copied().filter(|n| up.contains(n)).collect();
        let spare = up.len().saturating_sub(OVERLAY_FLOOR);
        victims.truncate(spare);
        if victims.is_empty() {
            return None;
        }
        up.retain(|m| !victims.contains(m));
        down.extend(victims.iter().copied());
        Some(Fault::CrashCluster(victims))
    }

    fn gen_rejoin(
        rng: &mut ChaCha8Rng,
        up: &mut Vec<NodeId>,
        down: &mut Vec<NodeId>,
    ) -> Option<Fault> {
        if down.is_empty() {
            return None;
        }
        let i = rng.gen_range(0..down.len());
        let n = down.swap_remove(i);
        up.push(n);
        Some(Fault::Rejoin(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_net::TransitStubConfig;
    use dsq_workload::{WorkloadConfig, WorkloadGenerator};

    fn setup() -> (Environment, dsq_workload::Workload) {
        let net = TransitStubConfig::paper_64().generate(23).network;
        let env = Environment::build(net, 16);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 10,
                queries: 6,
                joins_per_query: 2..=3,
                ..WorkloadConfig::default()
            },
            71,
        )
        .generate(&env.network);
        (env, wl)
    }

    #[test]
    fn schedule_is_deterministic_and_keeps_two_nodes_up() {
        let (env, _) = setup();
        let cfg = FaultConfig {
            events: 60,
            ..FaultConfig::default()
        };
        let s1 = FaultSchedule::generate(&env, &cfg, 5);
        let s2 = FaultSchedule::generate(&env, &cfg, 5);
        assert_eq!(format!("{s1:?}"), format!("{s2:?}"));
        assert_eq!(s1.faults.len(), 60);
        // Replay the generator's bookkeeping: the scheduled crash set can
        // never take the population below 2.
        let mut population = env.hierarchy.active_nodes().len();
        for tf in &s1.faults {
            match &tf.fault {
                Fault::Crash(_) => population -= 1,
                Fault::CrashCluster(m) => population -= m.len(),
                Fault::Rejoin(_) => population += 1,
                Fault::DegradeLink { .. } => {}
            }
            assert!(population >= 2, "schedule underflows the overlay");
        }
    }

    #[test]
    fn schedule_mixes_fault_classes() {
        let (env, _) = setup();
        let cfg = FaultConfig {
            events: 80,
            ..FaultConfig::default()
        };
        let s = FaultSchedule::generate(&env, &cfg, 11);
        let crashes = s
            .faults
            .iter()
            .filter(|f| matches!(f.fault, Fault::Crash(_)))
            .count();
        let rejoins = s
            .faults
            .iter()
            .filter(|f| matches!(f.fault, Fault::Rejoin(_)))
            .count();
        let degrades = s
            .faults
            .iter()
            .filter(|f| matches!(f.fault, Fault::DegradeLink { .. }))
            .count();
        assert!(crashes > 0 && rejoins > 0 && degrades > 0);
        let times: Vec<f64> = s.faults.iter().map(|f| f.at_ms).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "times sorted");
    }
}
