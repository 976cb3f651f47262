//! # dsq — Distributed Stream Query optimization
//!
//! Facade crate for the workspace reproducing *"Optimizing Multiple
//! Distributed Stream Queries Using Hierarchical Network Partitions"*
//! (Seshadri, Kumar, Cooper, Liu — IPDPS 2007).
//!
//! The crates re-exported here cover the whole system:
//!
//! * [`net`] — weighted network graphs, GT-ITM style transit-stub topology
//!   generation, shortest paths and the 3-d cost-space embedding.
//! * [`hierarchy`] — the paper's hierarchical network partitions: capped
//!   K-Means clustering, coordinator election, multi-level distance
//!   estimates (Theorem 1) and runtime membership changes.
//! * [`query`] — streams, SPJ queries (including a SQL-ish parser), join
//!   tree plans, rate estimation, stream advertisements and the
//!   operator-reuse registry.
//! * [`core`] — the optimizers: **Top-Down**, **Bottom-Up**, the optimal
//!   joint plan+placement DP, search-space accounting and the analytical
//!   bounds (Lemma 1, β, Theorems 2–4).
//! * [`baselines`] — Relaxation (ICDE'06), In-network (VLDB'04),
//!   plan-then-deploy and random placement comparators.
//! * [`sim`] — flow-level and tuple-level simulators and the Emulab-style
//!   deployment-time model.
//! * [`obs`] — zero-dependency structured observability: event traces,
//!   counters and histograms behind a no-op default (see `dsqctl trace`).
//! * [`workload`] — the seeded uniformly-random workload generator and the
//!   airline OIS scenario from the paper's Section 1.1.
//! * [`server`] — the resident planning service (`dsqctl serve`): JSONL
//!   request protocol, write-ahead journal with snapshot + replay crash
//!   recovery, admission control and stale-serve degradation. Its
//!   `ServiceCore` is the self-adaptivity middleware: it applies the
//!   query-lifecycle rules and replans what a fault or a rate change
//!   degraded.
//!
//! ## Quickstart
//!
//! ```
//! use dsq::prelude::*;
//!
//! // A ~64-node transit-stub network, as in the paper's Figure 2.
//! let ts = TransitStubConfig::paper_64().generate(42);
//! let env = Environment::build(ts.network.clone(), 32);
//!
//! // A random workload: 10 streams, one query joining 3 of them.
//! let mut gen = WorkloadGenerator::new(WorkloadConfig {
//!     streams: 10,
//!     queries: 1,
//!     joins_per_query: 2..=2,
//!     ..WorkloadConfig::default()
//! }, 7);
//! let wl = gen.generate(&env.network);
//!
//! // Jointly plan and deploy with the Top-Down algorithm.
//! let registry = ReuseRegistry::new();
//! let mut stats = SearchStats::default();
//! let deployment = TopDown::new(&env)
//!     .optimize(&wl.catalog, &wl.queries[0], &registry, &mut stats)
//!     .expect("deployable");
//! assert!(deployment.cost > 0.0);
//! ```

pub use dsq_baselines as baselines;
pub use dsq_core as core;
pub use dsq_hierarchy as hierarchy;
pub use dsq_net as net;
pub use dsq_obs as obs;
pub use dsq_query as query;
pub use dsq_server as server;
pub use dsq_sim as sim;
pub use dsq_workload as workload;

/// Commonly used items across the workspace.
pub mod prelude {
    pub use dsq_core::{
        bounds, optimize_all, BottomUp, BottomUpPlacement, Environment, MultiQueryOutcome,
        Optimizer, ParallelConfig, SearchStats, TopDown,
    };
    pub use dsq_hierarchy::{Hierarchy, HierarchyConfig};
    pub use dsq_net::{CostSpace, DistanceMatrix, Metric, Network, NodeId, TransitStubConfig};
    pub use dsq_query::{
        parse_query, Catalog, Deployment, JoinTree, Query, ReuseRegistry, SelectivityHints,
        StreamId,
    };
    pub use dsq_sim::{FlowSimulator, TupleSimConfig, TupleSimulator};
    pub use dsq_workload::{Workload, WorkloadConfig, WorkloadGenerator};
}
