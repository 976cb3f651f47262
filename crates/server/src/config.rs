//! Service configuration: the seeded world the service plans in, plus the
//! admission-control and degradation knobs.
//!
//! The configuration is the first thing written to a journal (as
//! `config.<key> = <value>` lines of [`dsq_obs::kv`], the one definition of
//! the format), so a journal file alone reconstructs the service
//! bit-for-bit: topology, hierarchy and catalog are pure functions of these
//! fields.

use dsq_core::Environment;
use dsq_net::TransitStubConfig;
use dsq_obs::kv::{self, Field};
use dsq_query::Catalog;
use dsq_workload::{WorkloadConfig, WorkloadGenerator};

/// Complete recipe for a service instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Seed driving topology generation and the catalog's rates and
    /// selectivities.
    pub seed: u64,
    /// Transit domains of the transit-stub topology.
    pub transit_domains: usize,
    /// Transit nodes per transit domain.
    pub transit_nodes_per_domain: usize,
    /// Stub domains per transit node.
    pub stub_domains_per_transit_node: usize,
    /// Nodes per stub domain.
    pub stub_nodes_per_domain: usize,
    /// Hierarchy cluster-size cap.
    pub max_cs: usize,
    /// Base streams in the catalog (registrations reference these by id).
    pub streams: usize,
    /// Memoized subplan cache on/off.
    pub cache: bool,
    /// Bound on queued state-mutating requests. At the bound, new
    /// registrations are shed; every mutating request is shed at twice the
    /// bound (registrations go first — replans and fault reports keep
    /// flowing while the service degrades).
    pub max_queue: usize,
    /// Default per-request deadline: a queued register/replan older than
    /// this at drain time is dropped with a typed timeout error. `0`
    /// disables the default (requests can still carry their own).
    pub default_deadline_ms: u64,
    /// Maximum queries (re)planned per drain wave; `0` = unbounded. When a
    /// drain exceeds the budget, dirty-but-still-valid queries keep serving
    /// their last valid epoch's plan, flagged stale.
    pub replan_budget: usize,
    /// Degradation threshold: a planned query whose re-costed deployment
    /// exceeds its baseline by this fraction (in thousandths) is marked for
    /// replanning after a link change or a rate observation.
    pub threshold_milli: u64,
    /// Write a snapshot every this many drains (`0` = never). Recovery from
    /// a snapshot replays only the journal suffix.
    pub snapshot_every: usize,
    /// Maximum live adverts in the reuse registry (`0` = unbounded).
    /// Publishing past the budget evicts the coldest advert; a probe that
    /// would have matched an evicted advert triggers re-derivation at the
    /// next drain.
    pub advert_budget: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            seed: 42,
            transit_domains: 1,
            transit_nodes_per_domain: 2,
            stub_domains_per_transit_node: 2,
            stub_nodes_per_domain: 4,
            max_cs: 4,
            streams: 8,
            cache: true,
            max_queue: 64,
            default_deadline_ms: 0,
            replan_budget: 0,
            threshold_milli: 200,
            snapshot_every: 0,
            advert_budget: 0,
        }
    }
}

impl ServiceConfig {
    /// Materialize the environment this configuration describes: topology,
    /// hierarchy and an (initially query-free) catalog. Deterministic — two
    /// builds of the same config are bit-identical.
    pub fn build(&self) -> (Environment, Catalog) {
        let net = TransitStubConfig {
            transit_domains: self.transit_domains,
            transit_nodes_per_domain: self.transit_nodes_per_domain,
            stub_domains_per_transit_node: self.stub_domains_per_transit_node,
            stub_nodes_per_domain: self.stub_nodes_per_domain,
            ..TransitStubConfig::default()
        }
        .generate(self.seed)
        .network;
        let mut env = Environment::build(net, self.max_cs);
        env.isolate_cache(self.cache);
        let workload = WorkloadGenerator::new(
            WorkloadConfig {
                streams: self.streams,
                queries: 0,
                joins_per_query: 1..=1,
                ..WorkloadConfig::default()
            },
            self.seed,
        )
        .generate(&env.network);
        (env, workload.catalog)
    }

    /// The key prefix of the configuration's lines in journals and
    /// snapshots.
    pub(crate) const PREFIX: &'static str = "config.";

    /// Serialize as `config.<key> = <value>` lines (one per field).
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        kv::write_fields(&mut out, Self::PREFIX, self);
        out
    }

    /// Apply one `config.<key> = <value>` line (key passed without the
    /// `config.` prefix).
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        kv::set_field(self, key, value)
    }

    /// Validate the shape (mirrors the `.case` floor checks).
    pub fn validate(&self) -> Result<(), String> {
        if self.transit_domains == 0
            || self.transit_nodes_per_domain == 0
            || self.stub_nodes_per_domain == 0
        {
            return Err("topology shape must be nonzero".into());
        }
        if self.streams < 2 {
            return Err("need at least 2 streams".into());
        }
        if self.max_cs < 2 {
            return Err("max_cs must be at least 2".into());
        }
        if self.max_queue == 0 {
            return Err("max_queue must be at least 1".into());
        }
        Ok(())
    }
}

impl kv::Fields for ServiceConfig {
    fn fields_mut(&mut self) -> Vec<Field<'_>> {
        vec![
            Field::new("seed", &mut self.seed),
            Field::new("transit_domains", &mut self.transit_domains),
            Field::new(
                "transit_nodes_per_domain",
                &mut self.transit_nodes_per_domain,
            ),
            Field::new(
                "stub_domains_per_transit_node",
                &mut self.stub_domains_per_transit_node,
            ),
            Field::new("stub_nodes_per_domain", &mut self.stub_nodes_per_domain),
            Field::new("max_cs", &mut self.max_cs),
            Field::new("streams", &mut self.streams),
            Field::new("cache", &mut self.cache),
            Field::new("max_queue", &mut self.max_queue),
            Field::new("default_deadline_ms", &mut self.default_deadline_ms),
            Field::new("replan_budget", &mut self.replan_budget),
            Field::new("threshold_milli", &mut self.threshold_milli),
            Field::new("snapshot_every", &mut self.snapshot_every),
            Field::new("advert_budget", &mut self.advert_budget),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_lines_round_trip() {
        let cfg = ServiceConfig {
            seed: 7,
            max_queue: 3,
            replan_budget: 2,
            default_deadline_ms: 250,
            snapshot_every: 4,
            advert_budget: 5,
            ..ServiceConfig::default()
        };
        let mut back = ServiceConfig::default();
        for line in cfg.to_lines().lines() {
            let (k, v) = line.split_once('=').unwrap();
            let k = k.trim().strip_prefix("config.").unwrap();
            back.set(k, v.trim()).unwrap();
        }
        assert_eq!(cfg, back);
    }

    #[test]
    fn build_is_deterministic() {
        let cfg = ServiceConfig::default();
        let (a, ca) = cfg.build();
        let (b, cb) = cfg.build();
        assert_eq!(a.network.len(), b.network.len());
        assert_eq!(ca.len(), cb.len());
        for (sa, sb) in ca.streams().iter().zip(cb.streams()) {
            assert_eq!(sa.rate.to_bits(), sb.rate.to_bits());
            assert_eq!(sa.node, sb.node);
        }
    }
}
