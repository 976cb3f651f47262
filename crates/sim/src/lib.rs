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
//! * [`failures`] — the query-lifecycle rules: what a crash, a rejoin or a
//!   degradation means for one registered query. The planning service
//!   (`dsq-server`'s `ServiceCore`) is the one scheduler of the lifecycle:
//!   it applies these rules over the environment surgery on
//!   [`dsq_core::Environment`], and re-triggers optimization when network
//!   or data conditions change (the Middleware Layer of IFLOW \[13\]).
//! * [`chaos`] — seeded fault schedules, which the service's chaos runner
//!   replays.

pub mod adverts;
pub mod chaos;
pub mod emulab;
pub mod exec;
pub mod failures;
pub mod flow;
pub mod migrate;
pub mod monitor;
pub mod tuple_sim;

pub use adverts::{advertisement_traffic, AdvertTraffic};
pub use chaos::{Fault, FaultConfig, FaultSchedule, TimedFault};
pub use emulab::{DeploymentTime, EmulabModel, LossyProtocol, RetryPolicy};
pub use exec::{execute_deployment, generate_tables, reference_result, same_result, Row, Tables};
pub use flow::{FlowReport, FlowSimulator, UtilizationSummary};
pub use migrate::{plan_migration, MigrationPlan, OperatorMove};
pub use monitor::{RateEstimator, SelectivityEstimator, StatsMonitor};
pub use tuple_sim::{TupleSimConfig, TupleSimReport, TupleSimulator};
