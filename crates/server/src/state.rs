//! The service's deterministic core: registered queries, their current
//! plans, and the batched drain wave that (re)plans them.
//!
//! [`ServiceCore`] is a pure state machine over journal entries: feed the
//! same entries in the same order and every bit of state — deployments,
//! costs, epochs, counters, the obs trace — comes out identical. That is
//! the whole crash-recovery story (see `tests/recovery.rs`); nothing here
//! reads a clock or an RNG.
//!
//! It is also the one scheduler of the query lifecycle — the paper's
//! middleware, which "re-triggers the query optimization algorithm when
//! the changes in network, load or data conditions demand recomputing of
//! query plans and deployments". Faults and rate observations mark slots
//! for the next drain; the drain replans them and adopts a replacement for
//! a planned slot only when it is strictly cheaper than the standing plan
//! re-costed now. After every plan, and after a kept replan, a slot's
//! baseline is the cost it serves.

use std::collections::{BTreeMap, HashSet};
use std::str::FromStr;

use dsq_core::{
    catalog_dirty_streams, optimize_all, Environment, ParallelConfig, SearchStats, TopDown,
};
use dsq_net::{ChangedEntries, LinkRepair, NodeId};
use dsq_obs::kv::{self, Bits, Field, Flag, List, RecordWriter};
use dsq_obs::Value;
use dsq_query::{Catalog, Deployment, Query, QueryId, ReuseRegistry, StreamId};

use crate::config::ServiceConfig;
use crate::failures::{classify_crash, data_available, degraded, CrashAction};
use crate::journal::JournalEntry;
use crate::protocol::FaultReq;

/// Lifecycle of a registered query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotStatus {
    /// Registered, not yet planned (awaiting the next drain wave).
    Pending,
    /// Carrying a valid deployment.
    Planned,
    /// Cannot currently be planned (a source's origin node is down, or the
    /// optimizer found no feasible deployment); retried when possible.
    Parked,
    /// Terminally unservable (its sink node crashed). The client must
    /// re-register under a fresh id.
    Lost,
}

impl SlotStatus {
    /// Lowercase protocol name.
    pub fn name(self) -> &'static str {
        match self {
            SlotStatus::Pending => "pending",
            SlotStatus::Planned => "planned",
            SlotStatus::Parked => "parked",
            SlotStatus::Lost => "lost",
        }
    }
}

/// Reads [`SlotStatus::name`] back.
impl FromStr for SlotStatus {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        use SlotStatus::*;
        [Pending, Planned, Parked, Lost]
            .into_iter()
            .find(|status| status.name() == s)
            .ok_or_else(|| format!("unknown status {s:?}"))
    }
}

/// One registered query and its plan hand-off state.
#[derive(Clone, Debug)]
pub struct QuerySlot {
    /// The standing query.
    pub query: Query,
    /// Current deployment (`Some` iff status is [`SlotStatus::Planned`]).
    pub deployment: Option<Deployment>,
    /// Lifecycle state.
    pub status: SlotStatus,
    /// Epoch of the drain wave that produced the current deployment.
    pub planned_epoch: u64,
    /// The deployment is from a pre-fault epoch and known degraded or
    /// budget-deferred: still served (stale-but-safe), flagged in responses.
    pub stale: bool,
    /// Needs (re)planning at the next drain wave.
    pub dirty: bool,
    /// The cost served when the slot was last planned, kept or
    /// re-estimated; degradation is judged against this.
    pub baseline_cost: f64,
}

/// Deterministic service counters (also mirrored to obs counters under
/// `server.*` so they land in traces and bench snapshots).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Mutating requests admitted (journaled).
    pub admitted: u64,
    /// Requests rejected by admission control.
    pub shed: u64,
    /// Queued requests dropped at drain because their deadline passed.
    pub timed_out: u64,
    /// Queries left serving a stale plan by a budget-limited drain.
    pub stale_served: u64,
    /// Drain waves run.
    pub drains: u64,
    /// Fault reports applied to the environment.
    pub faults_applied: u64,
    /// Fault reports skipped (inactive node, overlay floor, missing link).
    pub faults_skipped: u64,
    /// Journal entries replayed by crash recovery.
    pub recovery_replayed: u64,
}

impl ServiceCounters {
    /// The one counter recovery itself moves, so fingerprints leave it out.
    pub(crate) const REPLAYED: &'static str = "recovery_replayed";

    /// `(name, value)` pairs in serialization order.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        kv::u64_fields(self)
    }
}

/// The snapshot's `counter.*` lines.
impl kv::Fields for ServiceCounters {
    fn fields_mut(&mut self) -> Vec<Field<'_>> {
        vec![
            Field::new("admitted", &mut self.admitted),
            Field::new("shed", &mut self.shed),
            Field::new("timed_out", &mut self.timed_out),
            Field::new("stale_served", &mut self.stale_served),
            Field::new("drains", &mut self.drains),
            Field::new("faults_applied", &mut self.faults_applied),
            Field::new("faults_skipped", &mut self.faults_skipped),
            Field::new(Self::REPLAYED, &mut self.recovery_replayed),
        ]
    }
}

/// What one drain wave did (rendered into the drain response).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DrainSummary {
    /// Epoch this wave established.
    pub epoch: u64,
    /// Journal entries applied (batch size, drain marker excluded).
    pub applied: usize,
    /// Queries planned for the first time (or un-parked).
    pub planned: usize,
    /// Dirty queries replanned.
    pub replanned: usize,
    /// New/parked queries deferred past the budget (still pending).
    pub deferred: usize,
    /// Queued requests dropped on deadline.
    pub timed_out: usize,
    /// Planned queries left serving their previous epoch's plan, flagged
    /// stale, because the replan budget ran out.
    pub stale: usize,
    /// Queries parked after the wave.
    pub parked: usize,
    /// Queries lost after the wave.
    pub lost: usize,
    /// Sum of planned deployment costs.
    pub total_cost: f64,
    /// Slots this wave gave a new deployment, in id order, each with the
    /// search statistics of the plan it adopted (what a deployment-time
    /// model replays). A replan the slot declined is not listed.
    pub adopted: Vec<(u32, SearchStats)>,
}

/// What a fault report did to the environment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Surgery {
    /// Nothing (inactive node crash, active node rejoin, unknown link,
    /// overlay floor, zero factor). A crash refused at the overlay floor
    /// still forfeits the node's queries (see [`ServiceCore::drain`]).
    Skipped,
    /// Node removed from the overlay.
    Crashed(NodeId),
    /// Node re-added to the overlay.
    Rejoined(NodeId),
    /// Link cost changed, distance matrix repaired; the entries the repair
    /// changed.
    Degraded(ChangedEntries),
}

/// Apply one fault report to the environment only (no query bookkeeping):
/// bounds-check the wire-supplied node ids, then hand over to the shared
/// surgery on [`Environment`]. Used by the live drain path and by snapshot
/// reconstruction, which re-applies the fault history to a freshly built
/// environment — so this must stay a pure function of `(env, fault)`.
pub fn apply_fault_surgery(env: &mut Environment, fault: &FaultReq) -> Surgery {
    let nodes = env.network.len();
    let known = |n: u32| (n as usize) < nodes;
    match *fault {
        FaultReq::Crash(n) if known(n) && env.crash_node(NodeId(n)) => {
            return Surgery::Crashed(NodeId(n));
        }
        FaultReq::Rejoin(n) if known(n) && env.rejoin_node(NodeId(n)).is_some() => {
            return Surgery::Rejoined(NodeId(n));
        }
        FaultReq::Degrade { a, b, factor_milli } if factor_milli != 0 && known(a) && known(b) => {
            let (a, b) = (NodeId(a), NodeId(b));
            if let Some(link) = env.network.find_link(a, b) {
                let new_cost = link.cost * (factor_milli as f64 / 1000.0);
                // Obs-only accounting (not `ServiceCounters`): the matrix
                // is repaired incrementally, and pays a full APSP only when
                // the weight decreased past its alternatives.
                let (repair, changed) = env.reprice_link(a, b, new_cost).expect("link found above");
                match repair {
                    LinkRepair::Incremental { rows } => {
                        dsq_obs::counter("server.degrade_rows_repaired", rows as u64);
                    }
                    LinkRepair::Rebuilt => dsq_obs::counter("server.degrade_rebuilds", 1),
                }
                return Surgery::Degraded(changed);
            }
        }
        _ => {}
    }
    Surgery::Skipped
}

/// Set `stream`'s rate from an observation in thousandths — the one
/// conversion the live drain and snapshot reconstruction share.
pub(crate) fn set_rate(catalog: &mut Catalog, stream: u32, rate_milli: u64) {
    catalog.set_rate(StreamId(stream), rate_milli as f64 / 1000.0);
}

/// The deterministic service state machine.
#[derive(Debug)]
pub struct ServiceCore {
    /// The immutable configuration.
    pub cfg: ServiceConfig,
    /// Planning environment (mutated by fault surgery).
    pub env: Environment,
    /// Base-stream catalog.
    pub catalog: Catalog,
    /// Registered queries by id (BTreeMap: every iteration is id-ordered,
    /// which is what makes waves deterministic).
    pub slots: BTreeMap<u32, QuerySlot>,
    /// Plan epoch: increments once per drain wave; every response carries
    /// it, so clients observe a monotone hand-off sequence.
    pub epoch: u64,
    /// Virtual service time (max of drain times seen).
    pub now_ms: u64,
    /// Deterministic counters.
    pub counters: ServiceCounters,
    /// Fault entries applied so far, in order — the part of the journal a
    /// snapshot cannot summarize (the environment is path-dependent), so
    /// snapshots carry it verbatim for replay.
    pub fault_log: Vec<JournalEntry>,
    /// The last observed rate of every stream an observation touched, in
    /// thousandths. The catalog depends on nothing else observations did,
    /// so snapshots carry this map, not the observations.
    pub rates: BTreeMap<u32, u64>,
    /// Journal entries fully applied (through drain markers).
    pub entries_applied: usize,
    /// Shed entries journaled since the last drain marker. Shed requests
    /// never enter a drain batch, but they occupy journal indexes, so the
    /// next drain folds them into [`ServiceCore::entries_applied`] to keep
    /// snapshot compaction index-consistent. Always 0 right after a drain
    /// (the only moment snapshots are written), so it is never serialized.
    pub pending_shed: usize,
    /// Lifecycle-managed advert store mirroring the served deployments:
    /// planned slots publish, unregister/crash/forfeit retire, rejoins
    /// reinstate, and the configured budget evicts cold adverts (probes
    /// that miss an evicted advert queue re-derivation for the next
    /// drain). Pure function of the journal, like everything else here —
    /// its fingerprint is part of [`ServiceCore::fingerprint`].
    pub registry: ReuseRegistry,
    /// Which slots touch each node. The methods that insert a slot or
    /// change its deployment (`insert_slot`, `place`, `unplace`) and
    /// unregistration keep it in step with `slots`; code outside this
    /// module changes slots only through them.
    node_slots: NodeSlots,
}

/// For each node, the slots that reference it — as the sink, as a source
/// stream's origin, or as a host in the standing deployment: exactly the
/// slots [`classify_crash`] can move when the node crashes. Each list holds
/// a slot once, in no order; a slot's nodes come in two disjoint parts
/// ([`query_nodes`], [`host_nodes`]) so a new deployment touches only its
/// own hosts.
#[derive(Debug, Default)]
struct NodeSlots(Vec<Vec<u32>>);

impl NodeSlots {
    fn add(&mut self, id: u32, nodes: &[NodeId]) {
        for n in nodes {
            if self.0.len() <= n.index() {
                self.0.resize_with(n.index() + 1, Vec::new);
            }
            self.0[n.index()].push(id);
        }
    }

    fn remove(&mut self, id: u32, nodes: &[NodeId]) {
        for n in nodes {
            let at = &mut self.0[n.index()];
            let i = at
                .iter()
                .position(|&x| x == id)
                .expect("slot indexed under the node");
            at.swap_remove(i);
        }
    }

    /// The slots referencing `node`, in id order.
    fn on(&self, node: NodeId) -> Vec<u32> {
        let mut ids = self.0.get(node.index()).cloned().unwrap_or_default();
        ids.sort_unstable();
        ids
    }

    fn add_slot(&mut self, id: u32, catalog: &Catalog, slot: &QuerySlot) {
        let query = query_nodes(catalog, &slot.query);
        self.add(id, &query);
        if let Some(d) = &slot.deployment {
            self.add(id, &host_nodes(&query, d));
        }
    }

    fn remove_slot(&mut self, id: u32, catalog: &Catalog, slot: &QuerySlot) {
        let query = query_nodes(catalog, &slot.query);
        self.remove(id, &query);
        if let Some(d) = &slot.deployment {
            self.remove(id, &host_nodes(&query, d));
        }
    }
}

/// The nodes a query needs whatever its plan — its sink and its source
/// streams' origins — sorted, each once.
fn query_nodes(catalog: &Catalog, query: &Query) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = std::iter::once(query.sink)
        .chain(query.sources.iter().map(|&s| catalog.stream(s).node))
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// The hosts of `d` outside `query` (a [`query_nodes`] list), each once.
fn host_nodes(query: &[NodeId], d: &Deployment) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = d
        .placement
        .iter()
        .copied()
        .filter(|n| query.binary_search(n).is_err())
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

impl ServiceCore {
    /// Fresh core from a configuration.
    pub fn new(cfg: ServiceConfig) -> ServiceCore {
        let (env, catalog) = cfg.build();
        Self::in_world(cfg, env, catalog)
    }

    /// Fresh core planning in a world the caller built. `cfg` may set only
    /// the lifecycle knobs — the degradation threshold, the cache flag, the
    /// default deadline and the replan and advert budgets; every other
    /// field must keep its default, or this panics. Those fields describe
    /// a world and a journal this core does not have, so it is never
    /// journaled or snapshotted. The chaos runner and the tests drive
    /// cores this way.
    pub fn over(cfg: ServiceConfig, env: Environment, catalog: Catalog) -> ServiceCore {
        let lifecycle = ServiceConfig {
            cache: cfg.cache,
            default_deadline_ms: cfg.default_deadline_ms,
            replan_budget: cfg.replan_budget,
            threshold_milli: cfg.threshold_milli,
            advert_budget: cfg.advert_budget,
            ..ServiceConfig::default()
        };
        assert_eq!(
            cfg, lifecycle,
            "a core over a caller's world takes lifecycle knobs only"
        );
        Self::in_world(cfg, env, catalog)
    }

    /// The one constructor: an empty core with `cfg` over `env` and
    /// `catalog`.
    fn in_world(cfg: ServiceConfig, env: Environment, catalog: Catalog) -> ServiceCore {
        let registry = ReuseRegistry::with_budget(cfg.advert_budget);
        ServiceCore {
            cfg,
            env,
            catalog,
            registry,
            slots: BTreeMap::new(),
            node_slots: NodeSlots::default(),
            epoch: 0,
            now_ms: 0,
            counters: ServiceCounters::default(),
            fault_log: Vec::new(),
            rates: BTreeMap::new(),
            entries_applied: 0,
            pending_shed: 0,
        }
    }

    /// Account one shed (admission-rejected) request. Called by the live
    /// admission path *and* by journal replay when it meets a
    /// [`JournalEntry::Shed`] — the same code path on both sides is what
    /// keeps the `shed` counter (and therefore the fingerprint) identical
    /// across a crash.
    pub fn note_shed(&mut self) {
        self.counters.shed += 1;
        self.pending_shed += 1;
        dsq_obs::counter("server.requests_shed", 1);
    }

    /// Validate a registration against the catalog/topology (admission-time
    /// check; journaled registers are valid by construction).
    pub fn validate_register(&self, id: u32, sources: &[u32], sink: u32) -> Result<(), String> {
        if self.slots.contains_key(&id) {
            return Err(format!("query id {id} already registered"));
        }
        if sources.is_empty() {
            return Err("sources must be non-empty".into());
        }
        let mut seen = HashSet::new();
        for &s in sources {
            if s as usize >= self.catalog.len() {
                return Err(format!("unknown stream {s}"));
            }
            if !seen.insert(s) {
                return Err(format!("duplicate stream {s}"));
            }
        }
        if sink as usize >= self.env.network.len() {
            return Err(format!("unknown sink node {sink}"));
        }
        Ok(())
    }

    /// Validate a rate observation (admission-time check, like
    /// [`Self::validate_register`]).
    pub fn validate_observe(&self, stream: u32, rate_milli: u64) -> Result<(), String> {
        if stream as usize >= self.catalog.len() {
            return Err(format!("unknown stream {stream}"));
        }
        if rate_milli == 0 {
            return Err("rate_milli must be positive".into());
        }
        Ok(())
    }

    /// The relative degradation that marks a planned slot for replanning.
    fn threshold(&self) -> f64 {
        self.cfg.threshold_milli as f64 / 1000.0
    }

    /// Effective deadline for a queued request, if any.
    fn deadline(&self, explicit: Option<u64>) -> Option<u64> {
        explicit
            .or_else(|| (self.cfg.default_deadline_ms > 0).then_some(self.cfg.default_deadline_ms))
    }

    /// Apply one batch of journal entries and run one planning wave. The
    /// batch is everything admitted since the previous drain, in admission
    /// order; `at_ms` is the drain marker's time.
    pub fn drain(&mut self, batch: &[JournalEntry], at_ms: u64) -> DrainSummary {
        self.epoch += 1;
        self.now_ms = self.now_ms.max(at_ms);
        let _span = dsq_obs::span("server.drain", || {
            vec![
                ("epoch", Value::U64(self.epoch)),
                ("batch", Value::U64(batch.len() as u64)),
            ]
        });
        let mut summary = DrainSummary {
            epoch: self.epoch,
            applied: batch.len(),
            ..DrainSummary::default()
        };

        // 1. Apply the batch in admission order.
        for entry in batch {
            match entry {
                JournalEntry::Register {
                    id,
                    sources,
                    sink,
                    deadline_ms,
                    at_ms,
                } => {
                    if let Some(d) = self.deadline(*deadline_ms) {
                        if self.now_ms > at_ms.saturating_add(d) {
                            summary.timed_out += 1;
                            continue;
                        }
                    }
                    if self.validate_register(*id, sources, *sink).is_err() {
                        continue; // defensive: journaled registers are pre-validated
                    }
                    let query = Query::join(
                        QueryId(*id),
                        sources.iter().map(|&s| StreamId(s)),
                        NodeId(*sink),
                    );
                    self.insert_slot(
                        *id,
                        QuerySlot {
                            query,
                            deployment: None,
                            status: SlotStatus::Pending,
                            planned_epoch: 0,
                            stale: false,
                            dirty: true,
                            baseline_cost: 0.0,
                        },
                    );
                }
                JournalEntry::Unregister { id, .. } => {
                    if let Some(slot) = self.slots.remove(id) {
                        self.node_slots.remove_slot(*id, &self.catalog, &slot);
                        // The departing query's operators are torn down, so
                        // its adverts must stop being served (terminally —
                        // a re-registration publishes fresh ones).
                        self.registry.retire_query(QueryId(*id));
                    }
                }
                JournalEntry::Replan {
                    id,
                    deadline_ms,
                    at_ms,
                } => {
                    if let Some(d) = self.deadline(*deadline_ms) {
                        if self.now_ms > at_ms.saturating_add(d) {
                            summary.timed_out += 1;
                            continue;
                        }
                    }
                    if let Some(slot) = self.slots.get_mut(id) {
                        if slot.status == SlotStatus::Planned {
                            slot.dirty = true;
                        }
                    }
                }
                JournalEntry::Fault { fault, .. } => self.apply_fault(fault),
                JournalEntry::Observe {
                    stream, rate_milli, ..
                } => self.apply_observe(*stream, *rate_milli),
                JournalEntry::Drain { .. } => {} // markers separate batches
                JournalEntry::Shed { .. } => {}  // shed entries never reach a batch
            }
        }
        // Batch + this drain marker + any shed entries journaled since the
        // previous marker (they hold journal indexes without being queued).
        self.entries_applied += batch.len() + 1 + std::mem::take(&mut self.pending_shed);

        // 2. Pick the wave under the replan budget: queries with no plan at
        //    all first, then dirty replans — so under pressure the service
        //    degrades replans (stale-but-safe) before it starves new work.
        let budget = if self.cfg.replan_budget == 0 {
            usize::MAX
        } else {
            self.cfg.replan_budget
        };
        let mut selected: Vec<u32> = Vec::new();
        let mut park: Vec<u32> = Vec::new();
        let mut stale_now: Vec<u32> = Vec::new();
        for (&id, slot) in &self.slots {
            if !matches!(slot.status, SlotStatus::Pending | SlotStatus::Parked) {
                continue;
            }
            if !data_available(&self.env.hierarchy, &self.catalog, &slot.query) {
                if slot.status == SlotStatus::Pending {
                    park.push(id);
                }
                continue;
            }
            if selected.len() < budget {
                selected.push(id);
            } else {
                summary.deferred += 1;
            }
        }
        for (&id, slot) in &self.slots {
            if slot.status == SlotStatus::Planned && slot.dirty {
                if selected.len() < budget {
                    selected.push(id);
                } else {
                    stale_now.push(id);
                }
            }
        }
        for id in park {
            self.slots.get_mut(&id).unwrap().status = SlotStatus::Parked;
        }
        for id in &stale_now {
            let slot = self.slots.get_mut(id).unwrap();
            if !slot.stale {
                slot.stale = true;
            }
            self.counters.stale_served += 1;
            summary.stale += 1;
        }
        dsq_obs::counter("server.stale_served", stale_now.len() as u64);

        // 3. One planner call over the wave alone, in id order. Standing
        //    slots are neither read nor written: a drain costs its wave,
        //    whatever the population behind it.
        selected.sort_unstable();
        if !selected.is_empty() {
            let queries: Vec<Query> = selected
                .iter()
                .map(|id| self.slots[id].query.clone())
                .collect();
            let optimizer = TopDown::new(&self.env);
            let outcome = optimize_all(
                &self.env,
                &optimizer,
                &self.catalog,
                &queries,
                &ReuseRegistry::new(),
                &ParallelConfig::serial(),
            );
            let results = outcome.deployments.into_iter().zip(outcome.query_stats);
            for ((&id, query), (deployment, stats)) in selected.iter().zip(&queries).zip(results) {
                let slot = self.slots.get_mut(&id).unwrap();
                // A planned slot keeps serving its standing plan unless the
                // replacement is strictly cheaper than that plan re-costed
                // now; either way its baseline becomes what it serves.
                if let Some(standing) = slot.deployment.as_ref().map(|d| d.cost) {
                    summary.replanned += 1;
                    if deployment.as_ref().is_none_or(|d| d.cost >= standing) {
                        slot.baseline_cost = standing;
                        slot.stale = false;
                        slot.dirty = false;
                        continue;
                    }
                } else if deployment.is_some() {
                    summary.planned += 1;
                }
                slot.stale = false;
                slot.dirty = false;
                // Advert lifecycle mirror, in id order (deterministic): the
                // slot's previous operators are torn down, so its old
                // adverts retire; a new plan then probes the registry
                // (recency + re-derivation demand accounting — the planning
                // wave itself ran on base leaves) and publishes its
                // operators.
                self.registry.retire_query(QueryId(id));
                match deployment {
                    Some(d) => {
                        let hierarchy = &self.env.hierarchy;
                        let _ = self
                            .registry
                            .usable_for_live(query, |n| hierarchy.is_active(n));
                        self.registry.register_deployment(query, &d);
                        slot.baseline_cost = d.cost;
                        slot.status = SlotStatus::Planned;
                        slot.planned_epoch = self.epoch;
                        summary.adopted.push((id, stats));
                        self.place(id, d);
                    }
                    None => {
                        slot.status = SlotStatus::Parked;
                        slot.baseline_cost = 0.0;
                    }
                }
            }
        }

        // Re-derivation drain: probes above (and in earlier epochs) recorded
        // demand for evicted adverts; re-publish each from its owning
        // deployment — still possible only while the owner is Planned and
        // the advert's host is an active member.
        for id in self.registry.drain_rederive_requests() {
            let Some(adv) = self.registry.derived(id) else {
                continue;
            };
            let (origin, host) = (adv.origin.0, adv.host);
            let owner_serving = self
                .slots
                .get(&origin)
                .is_some_and(|s| s.status == SlotStatus::Planned);
            if owner_serving && self.env.hierarchy.is_active(host) {
                self.registry.rederive(id);
            }
        }

        self.counters.drains += 1;
        self.counters.timed_out += summary.timed_out as u64;
        dsq_obs::counter("server.requests_timed_out", summary.timed_out as u64);
        for slot in self.slots.values() {
            match slot.status {
                SlotStatus::Planned => {
                    summary.total_cost += slot.deployment.as_ref().map_or(0.0, |d| d.cost)
                }
                SlotStatus::Parked => summary.parked += 1,
                SlotStatus::Lost => summary.lost += 1,
                SlotStatus::Pending => {}
            }
        }
        summary
    }

    /// Apply one fault report: environment surgery, then reclassify slots.
    fn apply_fault(&mut self, fault: &FaultReq) {
        let surgery = apply_fault_surgery(&mut self.env, fault);
        self.fault_log.push(JournalEntry::Fault {
            fault: fault.clone(),
            at_ms: self.now_ms,
        });
        if surgery == Surgery::Skipped {
            self.counters.faults_skipped += 1;
            dsq_obs::counter("server.faults_skipped", 1);
            // A crash refused at the overlay floor: the machine is gone but
            // its membership slot must survive, so nothing touching it can
            // be repaired — every such query is forfeited.
            if let FaultReq::Crash(n) = *fault {
                let node = NodeId(n);
                if (n as usize) < self.env.network.len() && self.env.hierarchy.is_active(node) {
                    self.reclassify_crash(node, true);
                }
            }
            return;
        }
        self.counters.faults_applied += 1;
        dsq_obs::counter("server.faults_applied", 1);
        match surgery {
            Surgery::Crashed(node) => {
                // Adverts hosted on the dead node stop being served until
                // it rejoins.
                self.registry.host_crashed(node);
                self.reclassify_crash(node, false);
            }
            Surgery::Rejoined(node) => {
                // Parked slots are re-examined by the wave's
                // data-availability check; planned slots keep their
                // baselines. Adverts hosted on the rejoined node are
                // servable again.
                self.registry.host_rejoined(node);
            }
            Surgery::Degraded(changed) => {
                // A slot with no changed edge would re-cost to the bits it
                // holds (`recompute_cost` sums the edges in the order
                // `Deployment::evaluate` did), so its verdict cannot move.
                let threshold = self.threshold();
                let ids = self.slots_on_changed_edges(&changed);
                dsq_obs::counter("server.degrade_slots_recosted", ids.len() as u64);
                for id in ids {
                    let slot = self.slots.get_mut(&id).expect("indexed slots exist");
                    let d = slot.deployment.as_mut().expect("only planned slots");
                    d.recompute_cost(&self.env.dm);
                    if degraded(d.cost, slot.baseline_cost, threshold) {
                        slot.dirty = true;
                    }
                }
            }
            Surgery::Skipped => unreachable!("returned above"),
        }
    }

    /// Put `slot` under `id`, replacing any slot there, and index the
    /// nodes it references.
    pub(crate) fn insert_slot(&mut self, id: u32, slot: QuerySlot) {
        self.node_slots.add_slot(id, &self.catalog, &slot);
        if let Some(old) = self.slots.insert(id, slot) {
            self.node_slots.remove_slot(id, &self.catalog, &old);
        }
    }

    /// Make `d` slot `id`'s deployment, replacing any it had (the caller
    /// sets its status).
    fn place(&mut self, id: u32, d: Deployment) {
        self.unplace(id);
        let slot = self.slots.get_mut(&id).expect("a registered slot");
        let hosts = host_nodes(&query_nodes(&self.catalog, &slot.query), &d);
        self.node_slots.add(id, &hosts);
        slot.deployment = Some(d);
    }

    /// Take slot `id`'s deployment away (the caller sets its status).
    pub(crate) fn unplace(&mut self, id: u32) {
        let slot = self.slots.get_mut(&id).expect("a registered slot");
        if let Some(d) = slot.deployment.take() {
            let hosts = host_nodes(&query_nodes(&self.catalog, &slot.query), &d);
            self.node_slots.remove(id, &hosts);
        }
    }

    /// Panics unless the node → slot index is what rebuilding it from
    /// `slots` gives.
    pub fn check_slot_index(&self) {
        let mut rebuilt = NodeSlots::default();
        for (&id, slot) in &self.slots {
            rebuilt.add_slot(id, &self.catalog, slot);
        }
        let lists = |index: &NodeSlots| -> Vec<Vec<u32>> {
            let mut v: Vec<Vec<u32>> = (0..index.0.len())
                .map(|n| index.on(NodeId(n as u32)))
                .collect();
            while v.last().is_some_and(Vec::is_empty) {
                v.pop();
            }
            v
        };
        assert!(
            lists(&self.node_slots) == lists(&rebuilt),
            "node → slot index differs from the slots"
        );
    }

    /// The slots whose deployment has an edge over a changed distance
    /// pair, in id order: each such edge has an endpoint in the record's
    /// cover, and the node → slot index lists the slot on every endpoint,
    /// so only the slots on cover nodes are examined. Debug builds check
    /// the answer against a walk over every slot.
    fn slots_on_changed_edges(&self, changed: &ChangedEntries) -> Vec<u32> {
        let moved = |slot: &QuerySlot| {
            slot.deployment
                .as_ref()
                .is_some_and(|d| d.edges.iter().any(|e| changed.pair_changed(e.from, e.to)))
        };
        let mut ids: Vec<u32> = changed
            .cover()
            .iter()
            .flat_map(|&n| self.node_slots.on(n))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.retain(|id| moved(&self.slots[id]));
        #[cfg(debug_assertions)]
        {
            self.check_slot_index();
            let walked: Vec<u32> = self
                .slots
                .iter()
                .filter(|(_, slot)| moved(slot))
                .map(|(&id, _)| id)
                .collect();
            assert_eq!(ids, walked, "the cover missed a slot with a changed edge");
        }
        ids
    }

    /// Apply [`classify_crash`] for the crash of `node` to every slot not
    /// already lost that references the node (the others keep, whatever
    /// their status); with `forfeit` (the overlay floor) every touched slot
    /// is lost. A slot losing its deployment has its adverts retired
    /// outright: its surviving operators are torn down too. The candidates
    /// come from the node → slot index in id order, so registry calls run
    /// in the order a walk over every slot would make them.
    fn reclassify_crash(&mut self, node: NodeId, forfeit: bool) {
        #[cfg(debug_assertions)]
        self.check_slot_index();
        let mut classified = 0;
        for id in self.node_slots.on(node) {
            let slot = &self.slots[&id];
            if slot.status == SlotStatus::Lost {
                continue;
            }
            classified += 1;
            let action =
                match classify_crash(&self.catalog, &slot.query, slot.deployment.as_ref(), node) {
                    CrashAction::Keep => continue,
                    _ if forfeit => CrashAction::Lost,
                    action => action,
                };
            let status = match action {
                CrashAction::Keep => unreachable!("kept above"),
                CrashAction::Lost => SlotStatus::Lost,
                CrashAction::Park => SlotStatus::Parked,
                // Never served stale: back to the queue, replanned by the
                // next drain wave.
                CrashAction::Replan => SlotStatus::Pending,
            };
            self.unplace(id);
            let slot = self.slots.get_mut(&id).expect("indexed slots exist");
            slot.status = status;
            slot.stale = false;
            slot.dirty = action == CrashAction::Replan;
            self.registry.retire_query(QueryId(id));
        }
        dsq_obs::counter("server.crash_slots_classified", classified);
    }

    /// Apply one rate observation: set the stream's rate, retire the
    /// subplans whose statistics moved, and re-estimate every planned slot
    /// (same plan and placement, fresh rates). A slot that degraded past
    /// the threshold is marked for replanning; the rest adopt their
    /// re-estimated cost as the new baseline, since data changes move what
    /// a query *should* cost. Invalid observations are ignored
    /// (defensively: journaled ones are pre-validated).
    fn apply_observe(&mut self, stream: u32, rate_milli: u64) {
        if self.validate_observe(stream, rate_milli).is_err() {
            return;
        }
        self.rates.insert(stream, rate_milli);
        let old = self.catalog.clone();
        set_rate(&mut self.catalog, stream, rate_milli);
        self.env
            .plan_cache
            .retire_catalog(&catalog_dirty_streams(&old, &self.catalog));
        let threshold = self.threshold();
        for slot in self.slots.values_mut() {
            if let Some(d) = slot.deployment.as_mut() {
                *d = d.reestimate(&slot.query, &self.catalog, &self.env.dm);
                if degraded(d.cost, slot.baseline_cost, threshold) {
                    slot.dirty = true;
                } else {
                    slot.baseline_cost = d.cost;
                }
            }
        }
    }

    /// Deterministic state fingerprint: epoch, time, counters and every
    /// slot's exact plan (cost as raw bits). Two cores with equal
    /// fingerprints hold bit-identical servable state — the equality the
    /// crash-recovery differential asserts.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        kv::put(&mut out, "epoch", self.epoch);
        kv::put(&mut out, "now_ms", self.now_ms);
        for (k, v) in self.counters.fields() {
            // Recovery itself increments `recovery_replayed`; every other
            // counter must match bit-for-bit across a crash.
            if k != ServiceCounters::REPLAYED {
                kv::put(&mut out, &format!("counter.{k}"), v);
            }
        }
        for (id, slot) in &self.slots {
            out.push_str("slot = ");
            let mut r = RecordWriter::new(&mut out, "")
                .put("id", id)
                .put("status", slot.status.name())
                .put("epoch", slot.planned_epoch)
                .put("stale", Flag(slot.stale))
                .put("dirty", Flag(slot.dirty));
            if let Some(d) = &slot.deployment {
                r = r
                    .put("cost", Bits(d.cost))
                    .put("sink", d.sink.0)
                    .put("placement", List(d.placement.iter().map(|n| n.0)));
            }
            out.push('\n');
        }
        // The advert mirror is journal-derived state like everything above:
        // recovery must reproduce it exactly.
        kv::put(&mut out, "registry", self.registry.fingerprint());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_core::OVERLAY_FLOOR;

    fn register(id: u32, sources: &[u32], sink: u32, at_ms: u64) -> JournalEntry {
        JournalEntry::Register {
            id,
            sources: sources.to_vec(),
            sink,
            deadline_ms: None,
            at_ms,
        }
    }

    #[test]
    fn drain_plans_registered_queries() {
        let mut core = ServiceCore::new(ServiceConfig::default());
        let batch = vec![register(1, &[0, 1], 3, 10), register(2, &[2, 3, 4], 5, 11)];
        let s = core.drain(&batch, 20);
        assert_eq!(s.epoch, 1);
        assert_eq!(s.planned, 2);
        assert_eq!(core.slots[&1].status, SlotStatus::Planned);
        assert!(s.total_cost > 0.0);
        // Unregister removes; replan marks dirty and replans.
        let s = core.drain(
            &[
                JournalEntry::Unregister { id: 2, at_ms: 30 },
                JournalEntry::Replan {
                    id: 1,
                    deadline_ms: None,
                    at_ms: 31,
                },
            ],
            40,
        );
        assert_eq!(s.replanned, 1);
        assert_eq!(core.slots.len(), 1);
        // Nothing changed, so the replan finds no cheaper plan: the slot
        // keeps the plan its first wave produced.
        assert_eq!(core.slots[&1].planned_epoch, 1);
        assert!(s.adopted.is_empty());
    }

    fn replan(id: u32, at_ms: u64) -> JournalEntry {
        JournalEntry::Replan {
            id,
            deadline_ms: None,
            at_ms,
        }
    }

    fn crash(node: u32, at_ms: u64) -> JournalEntry {
        JournalEntry::Fault {
            fault: FaultReq::Crash(node),
            at_ms,
        }
    }

    /// A deployment of `query` no planner chose: the plan joins the
    /// sources left-deep in id order and hosts every join at the sink.
    fn joins_at_sink(core: &ServiceCore, query: &Query) -> Deployment {
        use dsq_query::{FlatNode, FlatPlan, JoinTree, LeafSource};
        let mut sources = query.sources.iter().map(|&s| JoinTree::base(s));
        let first = sources.next().unwrap();
        let tree = sources.fold(first, JoinTree::join);
        let plan = FlatPlan::from_tree(&tree, query, &core.catalog);
        let placement = plan
            .nodes()
            .iter()
            .map(|n| match n {
                FlatNode::Leaf {
                    source: LeafSource::Base(s),
                    ..
                } => core.catalog.stream(*s).node,
                _ => query.sink,
            })
            .collect();
        Deployment::evaluate(query.id, plan, placement, query.sink, &core.env.dm)
    }

    /// Install `d` as slot `id`'s standing plan, as a drain would have.
    fn stand(core: &mut ServiceCore, id: u32, d: Deployment) {
        let slot = core.slots.get_mut(&id).unwrap();
        slot.baseline_cost = d.cost;
        slot.status = SlotStatus::Planned;
        core.place(id, d);
    }

    #[test]
    fn a_costlier_replan_is_declined() {
        use dsq_core::{Optimal, Optimizer};
        // Find a registration Top-Down plans worse than the exact optimum,
        // stand the optimum in its slot, and force a replan: Top-Down's
        // costlier answer must not replace it.
        let mut core = ServiceCore::new(ServiceConfig::default());
        let streams = core.catalog.len() as u32;
        let nodes = core.env.network.len() as u32;
        let mut found = None;
        'search: for a in 0..streams {
            for b in a + 1..streams {
                for c in b + 1..streams {
                    for sink in 0..nodes {
                        let query = Query::join(
                            QueryId(1),
                            [StreamId(a), StreamId(b), StreamId(c)],
                            NodeId(sink),
                        );
                        let reg = ReuseRegistry::new();
                        let mut stats = SearchStats::new();
                        let td = TopDown::new(&core.env).optimize(
                            &core.catalog,
                            &query,
                            &reg,
                            &mut stats,
                        );
                        let opt = Optimal::new(&core.env).optimize(
                            &core.catalog,
                            &query,
                            &reg,
                            &mut stats,
                        );
                        if let (Some(td), Some(opt)) = (td, opt) {
                            if opt.cost < td.cost {
                                found = Some(([a, b, c], sink, opt));
                                break 'search;
                            }
                        }
                    }
                }
            }
        }
        let (sources, sink, optimum) = found.expect("Top-Down is suboptimal somewhere");
        core.drain(&[register(1, &sources, sink, 10)], 20);
        stand(&mut core, 1, optimum.clone());
        let adverts = core.registry.fingerprint();

        let s = core.drain(&[replan(1, 30)], 40);
        assert_eq!(s.replanned, 1);
        assert!(s.adopted.is_empty());
        let slot = &core.slots[&1];
        let kept = slot.deployment.as_ref().unwrap();
        assert_eq!(kept.cost.to_bits(), optimum.cost.to_bits());
        assert_eq!(kept.placement, optimum.placement);
        assert_eq!(
            (slot.planned_epoch, slot.dirty, slot.stale),
            (1, false, false)
        );
        assert_eq!(slot.baseline_cost.to_bits(), optimum.cost.to_bits());
        assert_eq!(
            core.registry.fingerprint(),
            adverts,
            "a kept slot's adverts stay"
        );
    }

    #[test]
    fn a_replan_that_finds_no_plan_keeps_the_standing_one() {
        // Thirty singleton inputs overflow the planner's state budget, so
        // Top-Down returns no plan for this query at all.
        let cfg = ServiceConfig {
            streams: 30,
            ..ServiceConfig::default()
        };
        let mut core = ServiceCore::new(cfg);
        let sources: Vec<u32> = (0..30).collect();
        let s = core.drain(&[register(1, &sources, 3, 10)], 20);
        assert_eq!((s.planned, s.parked), (0, 1), "Top-Down cannot plan it");
        let d = joins_at_sink(&core, &core.slots[&1].query);
        stand(&mut core, 1, d.clone());

        let s = core.drain(&[replan(1, 30)], 40);
        assert_eq!((s.replanned, s.parked), (1, 0));
        let slot = &core.slots[&1];
        assert_eq!(slot.status, SlotStatus::Planned);
        assert_eq!(
            slot.deployment.as_ref().unwrap().cost.to_bits(),
            d.cost.to_bits()
        );
        assert!(!slot.dirty);
    }

    #[test]
    fn a_crash_at_the_overlay_floor_loses_its_sinks_queries() {
        let mut core = ServiceCore::new(ServiceConfig::default());
        // A query whose data and sink live on two nodes: crash every other
        // node, and the overlay is at its floor with the query still
        // planned.
        let origin = |core: &ServiceCore, s: u32| core.catalog.stream(StreamId(s)).node.0;
        let (a, b) = (0..core.catalog.len() as u32)
            .flat_map(|a| (a + 1..core.catalog.len() as u32).map(move |b| (a, b)))
            .find(|&(a, b)| origin(&core, a) != origin(&core, b))
            .unwrap();
        let (sink, other) = (origin(&core, a), origin(&core, b));
        core.drain(&[register(1, &[a, b], sink, 10)], 20);
        let rest: Vec<JournalEntry> = (0..core.env.network.len() as u32)
            .filter(|&n| n != sink && n != other)
            .map(|n| crash(n, 30))
            .collect();
        core.drain(&rest, 40);
        assert_eq!(core.env.hierarchy.active_nodes().len(), OVERLAY_FLOOR);
        assert_eq!(core.slots[&1].status, SlotStatus::Planned);
        assert!(core.registry.stats().live > 0);

        // The sink crashes at the floor: it cannot be excised, so the query
        // is forfeited and its adverts retired.
        let applied = core.counters.faults_applied;
        let s = core.drain(&[crash(sink, 50)], 60);
        assert!(
            core.env.hierarchy.is_active(NodeId(sink)),
            "the floor holds"
        );
        assert_eq!(core.counters.faults_applied, applied);
        assert_eq!(s.lost, 1);
        let slot = &core.slots[&1];
        assert_eq!(slot.status, SlotStatus::Lost);
        assert!(slot.deployment.is_none());
        assert_eq!(core.registry.stats().live, 0);
    }

    #[test]
    fn an_observation_reestimates_dirties_and_rebaselines() {
        let mut core = ServiceCore::new(ServiceConfig::default());
        core.drain(
            &[register(1, &[0, 1], 3, 10), register(2, &[2, 3], 5, 11)],
            20,
        );
        let before: Vec<Deployment> = [1, 2]
            .map(|id| core.slots[&id].deployment.clone().unwrap())
            .into();
        // Stream 0 surges twentyfold (query 1 degrades past the threshold);
        // stream 2 halves (query 2 gets cheaper and is re-baselined).
        let milli = |core: &ServiceCore, s: u32, factor: f64| {
            (core.catalog.stream(StreamId(s)).rate * factor * 1000.0).round() as u64
        };
        let (surge, calm) = (milli(&core, 0, 20.0), milli(&core, 2, 0.5));
        let observe = |stream, rate_milli| JournalEntry::Observe {
            stream,
            rate_milli,
            at_ms: 30,
        };
        let s = core.drain(&[observe(0, surge), observe(2, calm)], 40);
        assert_eq!(
            core.catalog.stream(StreamId(0)).rate.to_bits(),
            (surge as f64 / 1000.0).to_bits()
        );
        assert_eq!(s.replanned, 1, "only the degraded slot is replanned");

        let q1 = &core.slots[&1];
        let recosted = before[0].reestimate(&q1.query, &core.catalog, &core.env.dm);
        assert!(recosted.cost > before[0].cost * 1.2, "query 1 degraded");
        let served = q1.deployment.as_ref().unwrap().cost;
        assert!(served <= recosted.cost);
        assert_eq!(q1.baseline_cost.to_bits(), served.to_bits());

        let q2 = &core.slots[&2];
        let d2 = q2.deployment.as_ref().unwrap();
        let recosted = before[1].reestimate(&q2.query, &core.catalog, &core.env.dm);
        assert_eq!(d2.cost.to_bits(), recosted.cost.to_bits());
        assert_eq!(d2.placement, before[1].placement);
        assert!(d2.cost < before[1].cost);
        assert_eq!(q2.baseline_cost.to_bits(), d2.cost.to_bits());
        assert_eq!(q2.planned_epoch, 1);
    }

    #[test]
    #[should_panic(expected = "lifecycle knobs only")]
    fn a_core_over_a_callers_world_refuses_world_fields() {
        let (env, catalog) = ServiceConfig::default().build();
        let cfg = ServiceConfig {
            snapshot_every: 4,
            ..ServiceConfig::default()
        };
        ServiceCore::over(cfg, env, catalog);
    }

    #[test]
    fn drains_are_deterministic() {
        let run = || {
            let mut core = ServiceCore::new(ServiceConfig::default());
            core.drain(&[register(1, &[0, 1], 3, 10)], 20);
            core.drain(
                &[JournalEntry::Fault {
                    fault: FaultReq::Degrade {
                        a: 0,
                        b: 1,
                        factor_milli: 9000,
                    },
                    at_ms: 25,
                }],
                30,
            );
            core.fingerprint()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sink_crash_loses_the_query_and_source_crash_parks_it() {
        let mut core = ServiceCore::new(ServiceConfig::default());
        // Pick sinks that are not also stream origins, so the crashes below
        // hit exactly the role the test means them to.
        let src_node = core.catalog.stream(StreamId(0)).node;
        let other_src = core.catalog.stream(StreamId(1)).node;
        let mut sinks =
            (0..core.env.network.len() as u32).filter(|&n| n != src_node.0 && n != other_src.0);
        let sink1 = sinks.next().unwrap();
        let sink2 = sinks.next().unwrap();
        core.drain(&[register(1, &[0, 1], sink1, 10)], 20);
        // Crash the sink: lost, terminally.
        core.drain(
            &[JournalEntry::Fault {
                fault: FaultReq::Crash(sink1),
                at_ms: 30,
            }],
            40,
        );
        assert_eq!(core.slots[&1].status, SlotStatus::Lost);
        // A second query whose source origin crashes parks, then recovers
        // when the origin rejoins.
        core.drain(&[register(2, &[0, 1], sink2, 50)], 60);
        core.drain(
            &[JournalEntry::Fault {
                fault: FaultReq::Crash(src_node.0),
                at_ms: 70,
            }],
            80,
        );
        assert_eq!(core.slots[&2].status, SlotStatus::Parked);
        core.drain(
            &[JournalEntry::Fault {
                fault: FaultReq::Rejoin(src_node.0),
                at_ms: 90,
            }],
            100,
        );
        assert_eq!(core.slots[&2].status, SlotStatus::Planned);
        assert_eq!(core.counters.faults_applied, 3);
    }

    #[test]
    fn replan_budget_serves_stale_plans() {
        let cfg = ServiceConfig {
            replan_budget: 1,
            ..ServiceConfig::default()
        };
        let mut core = ServiceCore::new(cfg);
        core.drain(&[register(1, &[0, 1], 3, 10)], 20);
        let s = core.drain(&[register(2, &[2, 3], 5, 25)], 30);
        assert_eq!(s.planned, 1);
        // Now dirty both; budget 1 → one replans, one serves stale.
        let s = core.drain(
            &[
                JournalEntry::Replan {
                    id: 1,
                    deadline_ms: None,
                    at_ms: 35,
                },
                JournalEntry::Replan {
                    id: 2,
                    deadline_ms: None,
                    at_ms: 36,
                },
            ],
            40,
        );
        assert_eq!(s.replanned + s.stale, 2);
        assert_eq!(s.stale, 1);
        let stale_slot = core.slots.values().find(|s| s.stale).unwrap();
        assert_eq!(stale_slot.status, SlotStatus::Planned);
        assert!(stale_slot.deployment.is_some(), "stale is still served");
        assert_eq!(core.counters.stale_served, 1);
        // Storm passes: next drain catches up and clears the flag.
        let s = core.drain(&[], 50);
        assert_eq!(s.replanned, 1);
        assert!(core.slots.values().all(|s| !s.stale));
    }

    #[test]
    fn deadlines_drop_overdue_requests() {
        let mut core = ServiceCore::new(ServiceConfig::default());
        let s = core.drain(
            &[JournalEntry::Register {
                id: 1,
                sources: vec![0, 1],
                sink: 3,
                deadline_ms: Some(5),
                at_ms: 10,
            }],
            100, // drained 90ms after arrival, deadline was 5ms
        );
        assert_eq!(s.timed_out, 1);
        assert!(core.slots.is_empty());
        assert_eq!(core.counters.timed_out, 1);
    }
}
