//! The five workloads. Names and the property each one varies are fixed;
//! every one drives the same service lifecycle (see `run.rs`) at a
//! different operating point, so every end-to-end metric is defined on
//! every workload and a change that helps one point at the cost of another
//! shows as a split between rows.
//!
//! Lap counts and sizes are set for two shared cores so that a run takes
//! 13-26 s (the driver makes 114 of them in 57 minutes, and the host at
//! times runs 1.6x slower): as many laps as fit, each long enough for the
//! medians it yields.

use dsq_server::ServiceConfig;

/// `--seconds` at which the cycle counts below apply; another value scales
/// them in proportion.
pub const RUN_SECONDS: u64 = 15;

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this operating point is in the ledger.
    pub why: &'static str,
    /// Transit domains of 8 transit nodes, each with 4 stub domains of 8:
    /// 264 nodes per transit domain.
    pub transit_domains: usize,
    pub streams: usize,
    /// Zipf exponent of the per-query source draw; 0 = uniform.
    pub zipf_s: f64,
    /// Sources per query, inclusive.
    pub sources: (usize, usize),
    /// Journal on disk (`false`: in memory only, nothing written).
    pub journal_on_disk: bool,
    pub snapshot_every: usize,
    /// Lives of the service per run at [`RUN_SECONDS`]; `--seconds` scales
    /// them. Every per-lap count below is the same in every lap.
    pub laps: usize,
    /// Registrations of the bulk phase, in batches of [`BATCH`].
    pub bulk: usize,
    /// Plan-quality sample of a lap: its oldest `.0` queries with at most
    /// `.1` sources are also planned by `Optimal`, whose cost grows as
    /// 2^sources x nodes^2 (1.7 s for six sources on 4,224 nodes).
    pub quality: (usize, usize),
    /// Cycles per lap.
    pub steady_cycles: usize,
    pub crash_cycles: usize,
    pub degrade_cycles: usize,
    /// The first `wire_laps` laps end on the wire: together for this share
    /// of `--seconds`, each for at least `wire_cycles`. Time-boxed because
    /// a round trip is 44 ms today and should be ~1,000x less after a
    /// transport fix; the population is stationary, so per-request work
    /// does not depend on how many cycles fit.
    pub wire_share: f64,
    pub wire_laps: usize,
    pub wire_cycles: usize,
}

/// Registrations per admission batch: below `max_queue` (64), so nothing
/// is ever shed.
pub const BATCH: usize = 50;
/// Queries swapped per steady cycle.
pub const STEADY_SWAP: usize = 10;
/// Queries swapped, and `query` reads, per wire cycle.
pub const WIRE_SWAP: usize = 2;
pub const WIRE_QUERIES: usize = 12;
pub const MAX_CS: usize = 32;
/// Seed of every workload's topology and catalog.
pub const ENV_SEED: u64 = 42;

impl Workload {
    pub fn nodes(&self) -> usize {
        self.transit_domains * 8 * (1 + 4 * 8)
    }

    /// Every knob not named here stays at the service's default
    /// (`max_queue` 64, `replan_budget` 0, `cache` on). The environment
    /// (topology, catalog) is the same for every `--seed`: the seed draws
    /// the requests. Across ten topologies the deployed cost of one
    /// workload spreads by 12-40 % and every latency with it, which would
    /// drown the bounds the metrics are held to.
    pub fn config(&self) -> ServiceConfig {
        ServiceConfig {
            seed: ENV_SEED,
            transit_domains: self.transit_domains,
            transit_nodes_per_domain: 8,
            stub_domains_per_transit_node: 4,
            stub_nodes_per_domain: 8,
            max_cs: MAX_CS,
            streams: self.streams,
            snapshot_every: self.snapshot_every,
            ..ServiceConfig::default()
        }
    }

    /// A lap count at `seconds` (the table holds them at [`RUN_SECONDS`]):
    /// in proportion, and at least one.
    pub fn scaled(&self, laps: usize, seconds: f64) -> usize {
        let scaled = (laps as f64 * seconds / RUN_SECONDS as f64).round() as usize;
        scaled.max(1)
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "env-build",
        why: "2,112 nodes, 500 queries: net and hierarchy (APSP, embedding, k-means) do the work and core almost none, so set-up time and the dense matrix's memory show here",
        transit_domains: 8,
        streams: 100,
        zipf_s: 0.8,
        sources: (2, 6),
        journal_on_disk: false,
        snapshot_every: 0,
        laps: 6,
        bulk: 500,
        quality: (6, 2),
        steady_cycles: 30,
        crash_cycles: 60,
        degrade_cycles: 1,
        wire_share: 0.1,
        wire_laps: 2,
        wire_cycles: 1,
    },
    Workload {
        name: "plan-disjoint",
        why: "1,056 nodes, sources uniform over 200 streams: core::engine and core::topdown plan every query from scratch while cache and adverts are bypassed; no journal on disk",
        transit_domains: 4,
        streams: 200,
        zipf_s: 0.0,
        sources: (2, 6),
        journal_on_disk: false,
        snapshot_every: 0,
        laps: 5,
        bulk: 800,
        quality: (16, 4),
        steady_cycles: 30,
        crash_cycles: 60,
        degrade_cycles: 2,
        wire_share: 0.1,
        wire_laps: 2,
        wire_cycles: 1,
    },
    Workload {
        name: "plan-shared",
        why: "plan-disjoint with Zipf(1.2) sources: the same layers, but core::cache hits and advert probes carry the run, so a gain for shared plans that costs unshared ones splits the two rows",
        transit_domains: 4,
        streams: 200,
        zipf_s: 1.2,
        sources: (2, 6),
        journal_on_disk: false,
        snapshot_every: 0,
        laps: 7,
        bulk: 800,
        quality: (16, 4),
        steady_cycles: 30,
        crash_cycles: 60,
        degrade_cycles: 2,
        wire_share: 0.1,
        wire_laps: 2,
        wire_cycles: 1,
    },
    Workload {
        name: "churn",
        why: "1,056 nodes, 1,500 queries, journal on disk: crash, rejoin and link-degrade repairs exercise fault surgery, membership, cache retirement and matrix repair, and recovery replays them",
        transit_domains: 4,
        streams: 100,
        zipf_s: 0.8,
        sources: (2, 6),
        journal_on_disk: true,
        snapshot_every: 0,
        laps: 6,
        bulk: 1500,
        quality: (16, 4),
        steady_cycles: 30,
        crash_cycles: 60,
        degrade_cycles: 2,
        wire_share: 0.1,
        wire_laps: 2,
        wire_cycles: 1,
    },
    Workload {
        name: "wire",
        why: "264 nodes, 64 queries, journal and snapshots on disk, 10 s over loopback TCP: planning is negligible, so transport, protocol, journal and snapshot are the whole cost",
        transit_domains: 1,
        streams: 24,
        zipf_s: 0.8,
        sources: (2, 4),
        journal_on_disk: true,
        snapshot_every: 8,
        laps: 13,
        bulk: 64,
        quality: (32, 4),
        steady_cycles: 30,
        crash_cycles: 60,
        degrade_cycles: 10,
        wire_share: 0.7,
        wire_laps: 13,
        wire_cycles: 1,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
