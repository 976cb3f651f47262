//! Advertisement-protocol overhead accounting.
//!
//! "Operator reuse was implemented through stream-advertisements. The
//! communication cost of advertisements was negligible compared to the data
//! streams themselves" (Section 3.2) — because "the advertisements are
//! one-time messages exchanged only at the initial time of operator
//! instantiation and deployment" while data streams flow continuously.
//!
//! This module makes that claim measurable: each advertisement climbs the
//! hierarchy once (host's leaf coordinator → … → top), so a batch's total
//! advertisement traffic is a fixed, one-time volume, while the deployed
//! streams transfer data every time unit.

use dsq_core::Environment;
use dsq_net::{DistanceMatrix, Metric};
use dsq_query::{Deployment, ReuseRegistry};

/// Size of one advertisement message in data units (stream id, covered
/// set, host, rate — tiny next to tuple traffic).
pub const ADVERT_MESSAGE_UNITS: f64 = 1.0;

/// One-time advertisement traffic vs. continuous stream traffic.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdvertTraffic {
    /// Advertisement messages exchanged (one per derived stream per
    /// hierarchy level climbed).
    pub messages: u64,
    /// Total one-time cost of those messages (units × path cost climbed).
    pub one_time_cost: f64,
    /// Continuous data-stream cost per unit time of the deployments.
    pub stream_cost_per_time: f64,
}

impl AdvertTraffic {
    /// Advertisement cost as a fraction of the stream data transferred over
    /// `horizon` time units — the number the paper calls negligible.
    pub fn overhead_fraction(&self, horizon: f64) -> f64 {
        let stream_total = self.stream_cost_per_time * horizon;
        if stream_total > 0.0 {
            self.one_time_cost / stream_total
        } else if self.one_time_cost > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

/// Account the advertisement traffic of everything in `registry` against
/// the continuous cost of `deployments`.
pub fn advertisement_traffic(
    env: &Environment,
    registry: &ReuseRegistry,
    deployments: &[&Deployment],
) -> AdvertTraffic {
    let h = &env.hierarchy;
    // Advertisements ride the delay/cost paths between the coordinator
    // chain; cost them on the cost metric for comparability with streams.
    let dm: &DistanceMatrix = &env.dm;
    debug_assert_eq!(dm.metric(), Metric::Cost);

    let mut messages = 0u64;
    let mut one_time = 0.0;
    // Only live adverts have a running operator behind them; retired and
    // evicted slots generate no advertisement traffic.
    for d in registry.live_deriveds() {
        // The host publishes to its leaf coordinator; each coordinator
        // forwards to the next level's coordinator.
        let mut at = d.host;
        for level in 1..=h.height() {
            let coord = h.cluster(h.ancestor(d.host, level)).coordinator;
            messages += 1;
            one_time += ADVERT_MESSAGE_UNITS * dm.get(at, coord);
            at = coord;
        }
    }
    AdvertTraffic {
        messages,
        one_time_cost: one_time,
        stream_cost_per_time: deployments.iter().map(|d| d.cost).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_core::{consolidate, Optimizer, TopDown};
    use dsq_net::TransitStubConfig;
    use dsq_workload::{WorkloadConfig, WorkloadGenerator};

    #[test]
    fn advertisements_are_negligible_next_to_streams() {
        let net = TransitStubConfig::paper_128().generate(3).network;
        let env = Environment::build(net, 32);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 100,
                queries: 20,
                joins_per_query: 2..=5,
                source_skew: Some(1.0),
                ..WorkloadConfig::default()
            },
            13,
        )
        .generate(&env.network);
        let mut registry = ReuseRegistry::new();
        let td = TopDown::new(&env);
        let out = consolidate::deploy_all(&td, &wl.catalog, &wl.queries, &mut registry, true);
        let ds: Vec<&dsq_query::Deployment> = out.deployments.iter().flatten().collect();
        let traffic = advertisement_traffic(&env, &registry, &ds);
        assert!(traffic.messages > 0, "operators were advertised");
        assert!(traffic.stream_cost_per_time > 0.0);
        // Over any realistic lifetime (say 100 time units) the overhead is
        // a fraction of a percent — the paper's "negligible".
        let fraction = traffic.overhead_fraction(100.0);
        assert!(
            fraction < 0.01,
            "advert overhead {fraction} should be ≪ 1% of stream traffic"
        );
    }

    #[test]
    fn message_count_is_deriveds_times_height() {
        let net = TransitStubConfig::paper_64().generate(2).network;
        let env = Environment::build(net, 8);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 12,
                queries: 4,
                joins_per_query: 2..=2,
                ..WorkloadConfig::default()
            },
            5,
        )
        .generate(&env.network);
        let mut registry = ReuseRegistry::new();
        let td = TopDown::new(&env);
        for q in &wl.queries {
            let mut stats = dsq_core::SearchStats::new();
            let d = td.optimize(&wl.catalog, q, &registry, &mut stats).unwrap();
            registry.register_deployment(q, &d);
        }
        let traffic = advertisement_traffic(&env, &registry, &[]);
        assert_eq!(
            traffic.messages,
            (registry.live_len() * env.hierarchy.height()) as u64
        );
        assert_eq!(traffic.overhead_fraction(10.0), f64::INFINITY);
        let empty = advertisement_traffic(&env, &ReuseRegistry::new(), &[]);
        assert_eq!(empty.overhead_fraction(10.0), 0.0);
    }

    #[test]
    fn retired_adverts_generate_no_traffic() {
        let net = TransitStubConfig::paper_64().generate(2).network;
        let env = Environment::build(net, 8);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 12,
                queries: 4,
                joins_per_query: 2..=2,
                ..WorkloadConfig::default()
            },
            5,
        )
        .generate(&env.network);
        let mut registry = ReuseRegistry::new();
        let td = TopDown::new(&env);
        for q in &wl.queries {
            let mut stats = dsq_core::SearchStats::new();
            let d = td.optimize(&wl.catalog, q, &registry, &mut stats).unwrap();
            registry.register_deployment(q, &d);
        }
        let before = advertisement_traffic(&env, &registry, &[]);
        registry.retire_query(wl.queries[0].id);
        let after = advertisement_traffic(&env, &registry, &[]);
        assert!(
            after.messages < before.messages,
            "retiring a query's adverts must shrink the advertised set"
        );
        assert_eq!(
            after.messages,
            (registry.live_len() * env.hierarchy.height()) as u64
        );
    }
}
