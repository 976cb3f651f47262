//! # dsq-server — the fault-tolerant resident planning service
//!
//! A long-lived front-end over the multi-query planner (`dsqctl serve`):
//! clients register, unregister and replan standing queries and report
//! node/link faults over a JSONL protocol ([`protocol`]); the service
//! batches admission bursts and applies each batch as a single
//! [`dsq_core::optimize_all`] planning wave over the queries that need a
//! plan — standing queries are not handed to the planner — handing plans
//! off under a monotone epoch number.
//!
//! Robustness is the point of the crate:
//!
//! * **Write-ahead journal** ([`journal`]) — every admitted mutating
//!   request is journaled (in the `.case` text idiom from `dsq-fuzz`)
//!   before it is applied. The service is a deterministic state machine
//!   over journal entries, so replaying the journal reconstructs a crashed
//!   service *bit-for-bit* — deployments, cost bits, counters and the
//!   virtual-clock obs trace (`tests/recovery.rs` proves this at every
//!   possible crash point).
//! * **Snapshots** ([`snapshot`]) — periodic textual checkpoints that let
//!   recovery replay only the journal suffix; deployments are re-derived
//!   from their join-tree shape and verified against recorded cost bits.
//! * **Admission control** ([`service`]) — bounded request queues with
//!   typed `overloaded` errors: new registrations shed first, replans and
//!   fault reports later, drains never. Per-request deadlines drop overdue
//!   queued work with `timed_out` accounting.
//! * **Graceful degradation** ([`state`]) — when a drain wave exceeds the
//!   replan budget, still-valid queries keep serving their last valid
//!   epoch's plan, flagged `stale` in responses, and catch up once the
//!   storm passes. Plans invalidated by a crash are *never* served stale.
//! * **Query lifecycle** ([`failures`]) — the per-query rules for a fault:
//!   a crashed sink loses the query, a crashed source origin parks it, a
//!   crashed operator host replans it, and a re-costed deployment that
//!   drifts past its baseline is replanned. [`ServiceCore`] is their one
//!   scheduler.
//! * **Fault injection** ([`chaos`]) — seeded fault timelines
//!   ([`chaos::FaultSchedule`]), request scripts built on them, seeded
//!   crash/restart schedules that kill the service mid-run and recover it
//!   through the journal, and the chaos runner, which replays a fault
//!   schedule against an in-memory core with every new deployment
//!   instantiated over a lossy protocol.
//!
//! Observability: the service emits `server.*` counters
//! (`requests_admitted` / `requests_shed` / `requests_timed_out`,
//! `stale_served`, `faults_applied` / `faults_skipped`,
//! `recovery_replayed`) and a `server.drain` span per wave, all on the
//! deterministic virtual clock of [`dsq_obs`].

pub mod chaos;
pub mod config;
pub mod failures;
pub mod journal;
pub mod net;
pub mod protocol;
pub mod service;
pub mod snapshot;
pub mod state;

pub use chaos::{
    generate_script, run_plain, run_with_crashes, ChaosOutcome, ChaosReport, ChaosRunner,
    CrashSchedule, ScriptConfig,
};
pub use config::ServiceConfig;
pub use journal::{Journal, JournalEntry};
pub use protocol::{FaultReq, Request};
pub use service::PlanningService;
pub use state::{DrainSummary, ServiceCore, ServiceCounters, SlotStatus};
