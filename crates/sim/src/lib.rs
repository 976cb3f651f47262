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
//! * [`adapt`] — the self-adaptivity middleware: watches link-cost changes,
//!   re-costs standing deployments and re-triggers optimization for those
//!   whose cost degraded beyond a threshold (the Middleware Layer of
//!   IFLOW \[13\]).
//! * [`failures`] — the query-lifecycle core: what a crash, a rejoin or a
//!   degradation means for one registered query. [`adapt`], [`chaos`] and
//!   the planning service schedule work over these rules and over the
//!   environment surgery on [`dsq_core::Environment`].

pub mod adapt;
pub mod adverts;
pub mod chaos;
pub mod emulab;
pub mod exec;
pub mod failures;
pub mod flow;
pub mod migrate;
pub mod monitor;
pub mod tuple_sim;

pub use adapt::{AdaptiveRuntime, LinkChange, MigrationReport};
pub use adverts::{advertisement_traffic, AdvertTraffic};
pub use chaos::{ChaosReport, ChaosRunner, Fault, FaultConfig, FaultSchedule, TimedFault};
pub use emulab::{DeploymentTime, EmulabModel, LossyProtocol, RetryPolicy};
pub use exec::{execute_deployment, generate_tables, reference_result, same_result, Row, Tables};
pub use failures::FailureReport;
pub use flow::{FlowReport, FlowSimulator, UtilizationSummary};
pub use migrate::{plan_migration, MigrationPlan, OperatorMove};
pub use monitor::{RateEstimator, SelectivityEstimator, StatsMonitor};
pub use tuple_sim::{TupleSimConfig, TupleSimReport, TupleSimulator};
