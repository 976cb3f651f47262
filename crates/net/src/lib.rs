//! Network substrate for distributed stream query optimization.
//!
//! This crate provides everything the optimizers need to know about the
//! physical network:
//!
//! * [`Network`] — an undirected weighted graph of processing nodes, where
//!   each link carries a *cost* (price of moving one unit of data across it,
//!   as in the paper's communication-cost metric) and a *delay* (milliseconds,
//!   used by the Emulab-style deployment-time experiments).
//! * [`topology`] — a GT-ITM style transit-stub topology generator. The
//!   paper generates all of its evaluation networks with GT-ITM; the defining
//!   properties reproduced here are the two-tier transit/stub structure and
//!   cheap intra-stub vs. expensive transit links.
//! * [`paths`] — Dijkstra / all-pairs shortest paths over either metric, plus
//!   route extraction for per-link flow accounting.
//! * [`embedding`] — a 3-dimensional *cost space* embedding of the network
//!   (spring/stress model). It is shared by the K-Means hierarchy builder and
//!   by the Relaxation baseline, which the paper runs in a 3-d cost space.
//!
//! ```
//! use dsq_net::{DistanceMatrix, Metric, TransitStubConfig};
//!
//! // The paper's ~128-node evaluation network.
//! let ts = TransitStubConfig::paper_128().generate(1);
//! assert_eq!(ts.network.len(), 132);
//! assert!(ts.network.is_connected());
//!
//! // Shortest-path costs: stub-local paths are far cheaper than
//! // cross-domain ones.
//! let dm = DistanceMatrix::build(&ts.network, Metric::Cost);
//! let (_, d0) = &ts.stub_domains[0];
//! let (_, d9) = &ts.stub_domains[9];
//! assert!(dm.get(d0[0], d0[1]) < dm.get(d0[0], d9[0]));
//! ```

pub mod csr;
pub mod embedding;
pub mod graph;
pub mod io;
pub mod paths;
pub mod topology;

pub use csr::CsrGraph;
pub use embedding::CostSpace;
pub use graph::{Link, LinkKind, Network, NodeId, NodeKind};
pub use io::{parse_topology, write_topology, TopologyParseError};
pub use paths::{ChangedEntries, DistanceMatrix, LinkRepair, Metric, RouteTable};
pub use topology::{TransitStubConfig, TransitStubNetwork};
