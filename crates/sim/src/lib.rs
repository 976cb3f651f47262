//! Runtime simulation: the workspace's stand-in for the IFLOW prototype and
//! the Emulab testbed of Section 3.5.
//!
//! * [`flow`] — flow-level evaluation: routes every deployed data-flow edge
//!   over the network's shortest paths and accounts per-link traffic and
//!   cost. Validates (and generalizes to link utilization) the analytic
//!   cost model the optimizers plan against.
//! * [`tuple_sim`] — a tuple-level discrete-event simulator: sources emit
//!   Poisson tuple streams, operators run windowed symmetric-hash joins
//!   with probabilistic matching, tuples ride the physical routes with
//!   their link delays. Measured cost per unit time converges to the
//!   analytic estimate, and per-tuple result latencies become observable.
//! * [`emulab`] — the deployment-*time* model standing in for the paper's
//!   32-node Emulab testbed: protocol messages traverse the hierarchy over
//!   1–6 ms links and every coordinator pays search time proportional to
//!   the plans it examines (replayed from
//!   [`SearchStats`](dsq_core::SearchStats) events).
//!
//! The crate is the evaluation substrate only. The self-adaptivity loop —
//! the query-lifecycle rules, the seeded fault schedules and `ServiceCore`,
//! their one scheduler — lives in `dsq-server`.

pub mod emulab;
pub mod flow;
pub mod tuple_sim;

pub use emulab::{DeploymentTime, EmulabModel, LossyProtocol, RetryPolicy};
pub use flow::{FlowReport, FlowSimulator, UtilizationSummary};
pub use tuple_sim::{TupleSimConfig, TupleSimReport, TupleSimulator};
