//! The paper's primary contribution: joint query planning and deployment
//! over hierarchical network partitions.
//!
//! Three optimizers share one within-cluster planning engine:
//!
//! * [`Optimal`] — exact joint plan + placement for a single query over the
//!   *whole* network (the paper's "optimal deployment computed using dynamic
//!   programming"), used as the sub-optimality yardstick.
//! * [`TopDown`] — Section 2.2: the query enters at the top of the
//!   hierarchy; each coordinator exhaustively plans over its ≤ `max_cs`
//!   members, partitioning the query into views that are recursively
//!   re-planned one level down until operators land on physical nodes.
//! * [`BottomUp`] — Section 2.3: the query starts at its sink's leaf
//!   cluster and climbs; each coordinator plans and deploys the locally
//!   available view (`V_local`), advertises it, and forwards the rewritten
//!   remainder upward.
//!
//! All three consult the [`ReuseRegistry`], so
//! derived streams advertised by earlier deployments participate in
//! planning exactly like base streams (operator reuse, Section 2.1.2).
//!
//! [`bounds`] implements the paper's analytical results: Lemma 1 (exhaustive
//! search-space size), the β ratio and Theorems 2/4 (search-space bounds for
//! Top-Down/Bottom-Up), and Theorem 3 (Top-Down sub-optimality bound).
//! [`SearchStats`] records the search-space actually examined, which
//! Figure 9 compares against those bounds.
//!
//! ```
//! use dsq_core::{Environment, Optimizer, SearchStats, TopDown, bounds};
//! use dsq_net::{NodeId, TransitStubConfig};
//! use dsq_query::{Catalog, Query, QueryId, ReuseRegistry, Schema};
//!
//! let net = TransitStubConfig::paper_64().generate(1).network;
//! let env = Environment::build(net, 16);
//!
//! let mut catalog = Catalog::new();
//! let stubs = env.network.stub_nodes();
//! let a = catalog.add_stream("A", 30.0, stubs[0], Schema::default());
//! let b = catalog.add_stream("B", 20.0, stubs[30], Schema::default());
//! catalog.set_selectivity(a, b, 0.01);
//! let q = Query::join(QueryId(0), [a, b], stubs[50]);
//!
//! let registry = ReuseRegistry::new();
//! let mut stats = SearchStats::new();
//! let d = TopDown::new(&env)
//!     .optimize(&catalog, &q, &registry, &mut stats)
//!     .expect("deployable");
//! assert!(d.cost > 0.0);
//!
//! // The examined search space is a tiny fraction of Lemma 1's exhaustive
//! // size, and the deployment respects Theorem 3's sub-optimality bound.
//! assert!(stats.plans_considered < bounds::lemma1_space(2, env.network.len()));
//! assert!(bounds::theorem3_bound(&d, &env.hierarchy) >= 0.0);
//! ```

pub mod bottomup;
pub mod bounds;
pub mod cache;
pub mod consolidate;
pub mod engine;
pub mod env;
pub mod load;
pub mod optimal;
pub mod parallel;
pub mod placed;
pub mod stats;
pub mod topdown;

pub use bottomup::{BottomUp, BottomUpPlacement};
pub use cache::{
    catalog_dirty_streams, metric_dirty_nodes, EntryDeps, InvalidationMode, PlanCache, PlanKey,
};
pub use engine::{ClusterPlanner, InputKind, PlannerInput, PlannerOutput};
pub use env::{Environment, OVERLAY_FLOOR};
pub use load::LoadModel;
pub use optimal::{Optimal, PlacementError};
pub use parallel::{
    deployment_touches, optimize_all, optimize_dirty, MultiQueryOutcome, ParallelConfig,
};
pub use placed::PlacedTree;
pub use stats::{PlanEvent, SearchStats};
pub use topdown::TopDown;

use dsq_net::NodeId;
use dsq_query::{Catalog, Deployment, Query, ReuseRegistry};

/// A joint plan + placement optimizer for continuous stream queries.
pub trait Optimizer {
    /// Short display name ("top-down", "bottom-up", "optimal", …).
    fn name(&self) -> &'static str;

    /// Plan and place `query`, reading `registry` for reusable derived
    /// streams (pass an empty registry to disable reuse). Returns `None`
    /// when no feasible deployment exists. The returned deployment's cost
    /// is always evaluated against *actual* shortest-path distances.
    ///
    /// The registry is only read ([`ReuseRegistry::peek_usable`] under
    /// [`Self::is_live`]). The caller decides whether to commit the
    /// deployment; a committer records the probe with
    /// [`ReuseRegistry::usable_for_live`] under the same liveness view and
    /// then registers the deployment's operators with
    /// [`ReuseRegistry::register_deployment`].
    fn optimize(
        &self,
        catalog: &Catalog,
        query: &Query,
        registry: &ReuseRegistry,
        stats: &mut SearchStats,
    ) -> Option<Deployment>;

    /// The liveness view reuse probes are filtered through: adverts hosted
    /// on a node this rejects are never served. Every host is live unless
    /// the optimizer plans over a hierarchy, whose active-node set it then
    /// answers with.
    fn is_live(&self, _host: NodeId) -> bool {
        true
    }
}
