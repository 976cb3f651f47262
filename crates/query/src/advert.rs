//! Stream advertisements and the operator-reuse registry.
//!
//! "We observe that each sink and deployed operator is a new stream source
//! for the data computed by its underlying query or sub-query. We refer to
//! these stream sources as derived stream sources" (Section 2.1.2). The
//! [`ReuseRegistry`] collects those derived streams as deployments are
//! registered and matches them against later queries, so an optimizer can
//! treat a compatible deployed operator as a free-upstream leaf.
//!
//! ## Advert lifecycle
//!
//! Adverts are not append-only: an advertisement is only worth matching
//! while the operator behind it is still running somewhere reachable. Each
//! advert therefore moves through an explicit state machine:
//!
//! ```text
//!            publish                    evict (budget)
//!   (new) ────────────► Live ────────────────────────► Evicted
//!                        ▲  │                             │
//!            host_rejoin │  │ host_crash / retire_query   │ re-derive
//!                        │  ▼                             │ ("upquery")
//!                      Retired ◄──────────────────────────┘
//!                                  host_crash / retire_query
//! ```
//!
//! * **Live** — served by [`ReuseRegistry::peek_usable`].
//! * **Retired** — the origin query unregistered ([`ReuseRegistry::retire_query`],
//!   terminal) or the host node crashed ([`ReuseRegistry::host_crashed`],
//!   reversed by [`ReuseRegistry::host_rejoined`]). Never served.
//! * **Evicted** — dropped by the advert-memory budget (Noria-style partial
//!   state: the *slot* survives with a stable [`DerivedId`], the
//!   materialized stream does not). A probe that would have matched an
//!   evicted advert records a re-derivation request instead of serving it;
//!   [`ReuseRegistry::rederive`] (driven from the owning deployment at the
//!   next drain) re-publishes the stream in place.
//!
//! With an unbounded budget (the default) and no retirement calls, every
//! advert stays Live and the registry behaves exactly like the historical
//! append-only list — planner output is bit-identical.
//!
//! ## Readers and the one writer per plan
//!
//! Optimizers only read the registry: they take `&ReuseRegistry` and ask
//! [`ReuseRegistry::peek_usable`] for their reuse leaves, so any number of
//! queries can plan against one registry at once. A probe's bookkeeping —
//! the LRU touch of each served advert, the re-derivation request for each
//! matching evicted one, the served-candidate count and the `advert.*`
//! counters — is recorded by the caller that commits the plan, which calls
//! [`ReuseRegistry::usable_for_live`] with the planner's liveness view just
//! before [`ReuseRegistry::register_deployment`]: `deploy_all` in
//! `dsq_core::consolidate` and the planning service's drain. Both probes
//! share one matching loop, and nothing writes the registry between the
//! read and the record, so the committer records exactly what the planner
//! read.
//!
//! Join compatibility note: join selectivities (and thus join semantics) are
//! global per stream pair in the [`Catalog`](crate::Catalog), so two join
//! results over the same covered set under compatible selections are
//! interchangeable; selection compatibility is checked with predicate
//! subsumption ([`crate::predicate::selections_compatible`]).

use std::collections::{BTreeSet, HashMap};

use crate::inputset::InputSet;
use crate::plan::{Deployment, LeafSource, OperatorId};
use crate::predicate::{residual_selections, selections_compatible, SelectionPredicate};
use crate::query::{Query, QueryId, StreamSet};
use dsq_net::NodeId;
use dsq_obs::kv;
use serde::{Deserialize, Serialize};

/// Identifier of an advertised derived stream. Stable for the lifetime of
/// the registry: eviction and retirement never renumber ids.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct DerivedId(pub u32);

/// An advertised derived stream: the output of a deployed operator.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DerivedStream {
    /// Advertisement id.
    pub id: DerivedId,
    /// Deployed operator instance producing this stream.
    pub operator: OperatorId,
    /// Base streams whose join this stream carries.
    pub covered: StreamSet,
    /// Selection predicates already applied upstream.
    pub selections: Vec<SelectionPredicate>,
    /// Output rate.
    pub rate: f64,
    /// Node the stream is produced at.
    pub host: NodeId,
    /// Query whose deployment created the operator.
    pub origin: QueryId,
}

/// Lifecycle state of one advert (see the module-level diagram).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AdvertState {
    /// Operator running, host reachable: served to optimizers.
    Live,
    /// Origin query gone or host crashed: never served. Terminal when the
    /// origin unregistered; reversed on host rejoin otherwise.
    Retired,
    /// Dropped by the advert budget; a matching probe records a
    /// re-derivation request instead of a candidate.
    Evicted,
}

/// Bookkeeping counters for the advertisement protocol. Advertisements are
/// "one-time messages exchanged only at the initial time of operator
/// instantiation" — these counters let experiments report that overhead.
/// `live`, `retired` and `evicted` are current bucket populations, so
/// `published == live + retired + evicted` holds at every instant (see
/// [`AdvertStats::conserved`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdvertStats {
    /// Advertisements published (new derived streams).
    pub published: u64,
    /// Duplicate advertisements suppressed (same signature and host).
    pub suppressed: u64,
    /// Successful reuse matches handed to optimizers.
    pub reuse_candidates_served: u64,
    /// Adverts currently live.
    pub live: u64,
    /// Adverts currently retired (origin gone or host down).
    pub retired: u64,
    /// Adverts currently evicted by the budget.
    pub evicted: u64,
    /// Probes that would have matched an evicted advert (re-derivation
    /// demand; the upquery trigger).
    pub rederive_requested: u64,
    /// Evicted adverts re-published from their owning deployment.
    pub rederived: u64,
}

impl AdvertStats {
    /// The lifecycle conservation law: every advert ever published is in
    /// exactly one bucket.
    pub fn conserved(&self) -> bool {
        self.published == self.live + self.retired + self.evicted
    }

    /// `(name, value)` pairs in serialization order.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        kv::u64_fields(self)
    }
}

/// The snapshot's `advert_stat.*` lines.
impl kv::Fields for AdvertStats {
    fn fields_mut(&mut self) -> Vec<kv::Field<'_>> {
        vec![
            kv::Field::new("published", &mut self.published),
            kv::Field::new("suppressed", &mut self.suppressed),
            kv::Field::new("reuse_candidates_served", &mut self.reuse_candidates_served),
            kv::Field::new("live", &mut self.live),
            kv::Field::new("retired", &mut self.retired),
            kv::Field::new("evicted", &mut self.evicted),
            kv::Field::new("rederive_requested", &mut self.rederive_requested),
            kv::Field::new("rederived", &mut self.rederived),
        ]
    }
}

/// One advert slot: the stream plus its lifecycle flags. The slot (and its
/// id) survives eviction and retirement; only the Live set is budgeted.
#[derive(Clone, Debug)]
struct AdvertSlot {
    stream: DerivedStream,
    /// Word-bitset of the covered streams: the subset probe every
    /// `usable_for` call runs per advert is word-parallel instead of a
    /// sorted-id-vector walk.
    bits: InputSet,
    /// Origin query unregistered — terminal.
    gone: bool,
    /// Host node currently out of the overlay; cleared on rejoin.
    host_down: bool,
    /// Dropped by the advert budget; cleared by re-derivation.
    evicted: bool,
    /// LRU clock value of the last publish or served probe hit.
    last_used: u64,
}

impl AdvertSlot {
    /// Smallest covered stream (adverts cover at least two): the slot's
    /// `by_stream` bucket key.
    fn first_stream(&self) -> u32 {
        self.stream.covered.as_slice()[0].0
    }

    fn state(&self) -> AdvertState {
        if self.gone || self.host_down {
            AdvertState::Retired
        } else if self.evicted {
            AdvertState::Evicted
        } else {
            AdvertState::Live
        }
    }
}

/// Registry of every deployed operator and its advertised derived stream,
/// with lifecycle management and a bounded Live set (see the module docs).
///
/// Slots are never dropped (ids are stable), so every operation that acts
/// on *some* adverts finds them through an index instead of walking the
/// slot vector. Each bucket lists slot indices in ascending order and is
/// walked in that order — the order the historical full scan visited them
/// — so candidate order, recency bumps and the choice among duplicate
/// signatures do not depend on the indexing.
#[derive(Clone, Debug, Default)]
pub struct ReuseRegistry {
    slots: Vec<AdvertSlot>,
    next_operator: u64,
    /// Maximum Live adverts (`0` = unbounded). Publishing past the budget
    /// evicts the coldest Live advert.
    budget: usize,
    /// Monotone recency clock, bumped on every publish and served probe.
    clock: u64,
    stats: AdvertStats,
    /// Evicted adverts a probe would have matched, awaiting re-derivation.
    rederive_wanted: BTreeSet<DerivedId>,
    /// Not-yet-`gone` slots of each origin query. Retirement is terminal,
    /// so a retiring query takes its bucket with it.
    by_origin: HashMap<QueryId, Vec<u32>>,
    /// Every slot hosted on each node, keyed by node id. `gone` slots stay:
    /// a crash or rejoin still flips their `host_down` flag, which the
    /// fingerprint and snapshots record.
    by_host: Vec<Vec<u32>>,
    /// Not-yet-`gone` slots keyed by their smallest covered stream. An
    /// advert a query can use covers a subset of its sources, so it sits in
    /// the bucket of one of them; `gone` slots are inert to probes and to
    /// duplicate suppression and drop out.
    by_stream: Vec<Vec<u32>>,
    /// The Live slots as `(last_used, slot index)`: the first element is
    /// the eviction victim.
    live_lru: BTreeSet<(u64, u32)>,
}

/// The bucket of a dense `id -> slot indices` table, empty when the table
/// never grew that far.
fn bucket(table: &[Vec<u32>], key: u32) -> &[u32] {
    table.get(key as usize).map_or(&[], Vec::as_slice)
}

/// Append `idx` to `key`'s bucket, growing the table to reach it.
fn bucket_push(table: &mut Vec<Vec<u32>>, key: u32, idx: u32) {
    let key = key as usize;
    if table.len() <= key {
        table.resize_with(key + 1, Vec::new);
    }
    table[key].push(idx);
}

/// What one probe matched: the served slots with their plan leaves, in
/// candidate order, and the evicted slots it wanted re-derived.
#[derive(Default)]
struct Probe {
    served: Vec<usize>,
    leaves: Vec<LeafSource>,
    wanted: Vec<usize>,
    visited: usize,
}

impl ReuseRegistry {
    /// An empty, unbounded registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry keeping at most `budget` live adverts
    /// (`0` = unbounded).
    pub fn with_budget(budget: usize) -> Self {
        ReuseRegistry {
            budget,
            ..Self::default()
        }
    }

    /// Current advert budget (`0` = unbounded).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Change the advert budget, evicting cold adverts if the live set now
    /// exceeds it.
    pub fn set_budget(&mut self, budget: usize) {
        self.budget = budget;
        self.enforce_budget();
    }

    /// Every advert ever published, regardless of lifecycle state.
    pub fn deriveds(&self) -> impl Iterator<Item = &DerivedStream> {
        self.slots.iter().map(|s| &s.stream)
    }

    /// The currently live adverts (the only ones an operator is actually
    /// producing — e.g. what the advertisement-traffic accounting counts).
    pub fn live_deriveds(&self) -> impl Iterator<Item = &DerivedStream> {
        self.slots
            .iter()
            .filter(|s| s.state() == AdvertState::Live)
            .map(|s| &s.stream)
    }

    /// Advertisement protocol counters.
    pub fn stats(&self) -> AdvertStats {
        self.stats
    }

    /// Allocate a fresh operator instance id.
    pub fn allocate_operator(&mut self) -> OperatorId {
        let id = OperatorId(self.next_operator);
        self.next_operator += 1;
        id
    }

    /// Register a finished deployment: every join operator (and the sink
    /// output, hosted at the sink) is advertised as a derived stream.
    /// Returns the ids of the newly published advertisements.
    pub fn register_deployment(
        &mut self,
        query: &Query,
        deployment: &Deployment,
    ) -> Vec<DerivedId> {
        let mut published = Vec::new();
        for i in deployment.plan.join_indices() {
            let node = &deployment.plan.nodes()[i];
            let covered = node.covered().clone();
            let selections = restrict_selections(&query.selections, &covered);
            if let Some(id) = self.advertise(
                covered,
                selections,
                node.rate(),
                deployment.placement[i],
                query.id,
            ) {
                published.push(id);
            }
        }
        // The sink's delivered result is also a derived stream, hosted at
        // the sink node.
        let root = &deployment.plan.nodes()[deployment.plan.root()];
        if root.is_join() {
            let covered = root.covered().clone();
            let selections = restrict_selections(&query.selections, &covered);
            if let Some(id) =
                self.advertise(covered, selections, root.rate(), deployment.sink, query.id)
            {
                published.push(id);
            }
        }
        published
    }

    /// Advertise one derived stream. Exact duplicates of a *live* advert
    /// (same covered set, selection signature and host) are suppressed; an
    /// exact duplicate of an *evicted* advert re-derives it in place (the
    /// original id comes back live). Returns the advert's id, or `None`
    /// when suppressed or rejected.
    pub fn advertise(
        &mut self,
        covered: StreamSet,
        selections: Vec<SelectionPredicate>,
        rate: f64,
        host: NodeId,
        origin: QueryId,
    ) -> Option<DerivedId> {
        if covered.len() < 2 {
            // Single-stream "deriveds" are just (filtered) base streams; the
            // base advertisement already covers them.
            return None;
        }
        // A twin — same signature and host — can only sit in the bucket of
        // the smallest covered stream. Retired twins are dead history: a new
        // operator with their signature gets a fresh advert below.
        let mut visited = 0u64;
        let twin = bucket(&self.by_stream, covered.as_slice()[0].0)
            .iter()
            .map(|&i| i as usize)
            .find(|&i| {
                visited += 1;
                let s = &self.slots[i];
                s.stream.host == host
                    && s.stream.covered == covered
                    && same_selection_set(&s.stream.selections, &selections)
                    && s.state() != AdvertState::Retired
            });
        dsq_obs::counter("advert.slots_visited", visited);
        if let Some(i) = twin {
            if self.slots[i].state() == AdvertState::Live {
                self.stats.suppressed += 1;
                dsq_obs::counter("advert.suppressed", 1);
                return None;
            }
            // The same stream is being materialized again: the evicted slot
            // comes back under its original id instead of leaking a
            // duplicate.
            let id = self.slots[i].stream.id;
            self.rederive(id);
            return Some(id);
        }
        let id = DerivedId(self.slots.len() as u32);
        let operator = self.allocate_operator();
        self.clock += 1;
        let slot = AdvertSlot {
            bits: InputSet::from_stream_set(&covered),
            stream: DerivedStream {
                id,
                operator,
                covered,
                selections,
                rate,
                host,
                origin,
            },
            gone: false,
            host_down: false,
            evicted: false,
            last_used: self.clock,
        };
        self.push_slot(slot);
        self.stats.published += 1;
        self.stats.live += 1;
        dsq_obs::counter("advert.published", 1);
        self.enforce_budget();
        Some(id)
    }

    /// Append a slot and enter it into the indices — the one place slots
    /// are created, for fresh adverts and snapshot restores alike.
    fn push_slot(&mut self, slot: AdvertSlot) {
        let idx = self.slots.len() as u32;
        bucket_push(&mut self.by_host, slot.stream.host.0, idx);
        if !slot.gone {
            self.by_origin
                .entry(slot.stream.origin)
                .or_default()
                .push(idx);
            bucket_push(&mut self.by_stream, slot.first_stream(), idx);
        }
        if slot.state() == AdvertState::Live {
            self.live_lru.insert((slot.last_used, idx));
        }
        self.slots.push(slot);
    }

    /// Evict the coldest live adverts until the live set fits the budget.
    fn enforce_budget(&mut self) {
        if self.budget == 0 {
            return;
        }
        while self.stats.live as usize > self.budget {
            let &(_, coldest) = self.live_lru.first().expect("live count > 0");
            self.transition(coldest as usize, |s| s.evicted = true);
            dsq_obs::counter("advert.evicted", 1);
        }
    }

    /// Apply a lifecycle-flag change to one slot, keeping the bucket gauges
    /// conserved and the Live ordering current across the state transition.
    fn transition(&mut self, idx: usize, f: impl FnOnce(&mut AdvertSlot)) {
        let before = self.slots[idx].state();
        f(&mut self.slots[idx]);
        let after = self.slots[idx].state();
        if before == after {
            return;
        }
        let key = (self.slots[idx].last_used, idx as u32);
        match before {
            AdvertState::Live => {
                self.stats.live -= 1;
                self.live_lru.remove(&key);
            }
            AdvertState::Retired => self.stats.retired -= 1,
            AdvertState::Evicted => self.stats.evicted -= 1,
        }
        match after {
            AdvertState::Live => {
                self.stats.live += 1;
                self.live_lru.insert(key);
            }
            AdvertState::Retired => self.stats.retired += 1,
            AdvertState::Evicted => self.stats.evicted += 1,
        }
        debug_assert!(self.stats.conserved());
    }

    /// Stamp a Live slot with a fresh recency clock value (publish,
    /// served probe hit, re-derivation).
    fn touch(&mut self, idx: usize) {
        self.clock += 1;
        let slot = &mut self.slots[idx];
        debug_assert_eq!(slot.state(), AdvertState::Live);
        self.live_lru.remove(&(slot.last_used, idx as u32));
        slot.last_used = self.clock;
        self.live_lru.insert((slot.last_used, idx as u32));
    }

    /// Retire every advert published by `origin`'s deployments (the query
    /// unregistered, forfeited, or is being replanned — its operators are
    /// torn down). Terminal: a later deployment of the same query publishes
    /// fresh adverts. Returns how many adverts changed state.
    pub fn retire_query(&mut self, origin: QueryId) -> usize {
        let Some(owned) = self.by_origin.remove(&origin) else {
            return 0;
        };
        dsq_obs::counter("advert.slots_visited", owned.len() as u64);
        let mut changed = 0;
        for idx in owned {
            let i = idx as usize;
            let before = self.slots[i].state();
            self.transition(i, |s| s.gone = true);
            self.rederive_wanted.remove(&self.slots[i].stream.id);
            let peers = &mut self.by_stream[self.slots[i].first_stream() as usize];
            if let Ok(at) = peers.binary_search(&idx) {
                peers.remove(at);
            }
            if before != AdvertState::Retired {
                changed += 1;
            }
        }
        if changed > 0 {
            dsq_obs::counter("advert.retired", changed as u64);
        }
        changed
    }

    /// Retire every advert hosted on `node` (it crashed out of the
    /// overlay). Reversed by [`Self::host_rejoined`] unless the origin
    /// query also went away. Returns how many adverts changed state.
    pub fn host_crashed(&mut self, node: NodeId) -> usize {
        let hosted = bucket(&self.by_host, node.0).len();
        dsq_obs::counter("advert.slots_visited", hosted as u64);
        let mut changed = 0;
        for k in 0..hosted {
            let i = self.by_host[node.0 as usize][k] as usize;
            if self.slots[i].host_down {
                continue;
            }
            let before = self.slots[i].state();
            self.transition(i, |s| s.host_down = true);
            self.rederive_wanted.remove(&self.slots[i].stream.id);
            if before != AdvertState::Retired {
                changed += 1;
            }
        }
        if changed > 0 {
            dsq_obs::counter("advert.retired", changed as u64);
        }
        changed
    }

    /// Reinstate the adverts hosted on `node` after it rejoined the
    /// overlay (unless their origin query is gone — that retirement is
    /// terminal). Returns how many adverts changed state.
    pub fn host_rejoined(&mut self, node: NodeId) -> usize {
        let hosted = bucket(&self.by_host, node.0).len();
        dsq_obs::counter("advert.slots_visited", hosted as u64);
        let mut changed = 0;
        for k in 0..hosted {
            let i = self.by_host[node.0 as usize][k] as usize;
            if !self.slots[i].host_down {
                continue;
            }
            let before = self.slots[i].state();
            self.transition(i, |s| s.host_down = false);
            if self.slots[i].state() != before {
                changed += 1;
            }
        }
        if changed > 0 {
            dsq_obs::counter("advert.reinstated", changed as u64);
        }
        changed
    }

    /// The slots whose covered streams are a subset of `query`'s sources,
    /// ascending, and how many slots were looked at to find them. Only the
    /// `by_stream` buckets of those sources are looked at: a subset's
    /// smallest stream is one of them.
    fn probe_candidates(&self, query: &Query) -> (Vec<usize>, usize) {
        let source_bits = InputSet::from_bits(query.sources.iter().map(|s| s.0 as usize));
        let mut visited = 0;
        let mut out = Vec::new();
        for s in &query.sources {
            let under = bucket(&self.by_stream, s.0);
            visited += under.len();
            out.extend(
                under
                    .iter()
                    .map(|&i| i as usize)
                    .filter(|&i| self.slots[i].bits.is_subset_of(&source_bits)),
            );
        }
        // Buckets are ascending and disjoint; their union is not (and a
        // malformed query may name a source twice).
        out.sort_unstable();
        out.dedup();
        (out, visited)
    }

    /// The one matching loop behind [`Self::peek_usable`] and
    /// [`Self::usable_for_live`]: what a probe serves and what it wants
    /// re-derived, with nothing written.
    fn probe(&self, query: &Query, is_active: impl Fn(NodeId) -> bool) -> Probe {
        let (candidates, visited) = self.probe_candidates(query);
        let mut probe = Probe {
            visited,
            ..Probe::default()
        };
        for i in candidates {
            let s = &self.slots[i];
            let required = restrict_selections(&query.selections, &s.stream.covered);
            if !selections_compatible(&s.stream.selections, &required) {
                continue;
            }
            match s.state() {
                AdvertState::Retired => continue,
                AdvertState::Live if !is_active(s.stream.host) => continue,
                AdvertState::Evicted => {
                    if is_active(s.stream.host) {
                        probe.wanted.push(i);
                    }
                    continue;
                }
                AdvertState::Live => {}
            }
            let residual = residual_selections(&s.stream.selections, &required);
            let rate = residual
                .iter()
                .fold(s.stream.rate, |r, p| r * p.selectivity);
            probe.served.push(i);
            probe.leaves.push(LeafSource::Derived {
                id: s.stream.id,
                covered: s.stream.covered.clone(),
                rate,
                host: s.stream.host,
            });
        }
        probe
    }

    /// Derived streams usable for `query` under the caller's liveness view
    /// (typically the hierarchy's active-node set), already converted into
    /// plan leaves with residual-selection-adjusted rates. A pure read: the
    /// planners call this, and the caller that commits the plan records
    /// the same probe with [`Self::usable_for_live`].
    ///
    /// A derived stream is usable when it is live, hosted on a node
    /// `is_active` accepts, covers a subset (≥ 2) of the query's sources and
    /// every selection it applied is implied by the query's selections.
    /// Residual selections the query still requires are folded into the
    /// leaf's rate. Adverts on hosts `is_active` rejects are not served, so
    /// planning under churn never consumes a derived stream hosted on a
    /// dead node even before the registry hears about the crash.
    pub fn peek_usable(
        &self,
        query: &Query,
        is_active: impl Fn(NodeId) -> bool,
    ) -> Vec<LeafSource> {
        self.probe(query, is_active).leaves
    }

    /// [`Self::usable_for_live`] with every host live.
    pub fn usable_for(&mut self, query: &Query) -> Vec<LeafSource> {
        self.usable_for_live(query, |_| true)
    }

    /// The recording probe: the leaves [`Self::peek_usable`] returns, plus
    /// the probe's bookkeeping. Served adverts have their recency bumped in
    /// candidate order (the eviction policy's LRU signal); each matching
    /// *evicted* advert on a live host records a re-derivation request
    /// instead of a candidate. Called once per query by whoever commits
    /// the plan.
    pub fn usable_for_live(
        &mut self,
        query: &Query,
        is_active: impl Fn(NodeId) -> bool,
    ) -> Vec<LeafSource> {
        let probe = self.probe(query, is_active);
        dsq_obs::counter("advert.slots_visited", probe.visited as u64);
        for i in probe.wanted {
            self.note_rederive_wanted(i);
        }
        for i in probe.served {
            self.touch(i);
        }
        let out = probe.leaves;
        self.stats.reuse_candidates_served += out.len() as u64;
        dsq_obs::counter("advert.reuse_candidates_served", out.len() as u64);
        out
    }

    /// Like [`Self::usable_for`], but requiring the derived stream's
    /// selections to match the query's (restricted to the covered streams)
    /// *exactly*, with no subsumption reasoning and no residual predicates.
    /// This is the naive matching rule the reuse-matching ablation compares
    /// against.
    pub fn usable_for_exact(&mut self, query: &Query) -> Vec<LeafSource> {
        let (candidates, visited) = self.probe_candidates(query);
        dsq_obs::counter("advert.slots_visited", visited as u64);
        let mut out = Vec::new();
        for i in candidates {
            let s = &self.slots[i];
            let required = restrict_selections(&query.selections, &s.stream.covered);
            if !same_selection_set(&s.stream.selections, &required) {
                continue;
            }
            match s.state() {
                AdvertState::Retired => continue,
                AdvertState::Evicted => {
                    self.note_rederive_wanted(i);
                    continue;
                }
                AdvertState::Live => {}
            }
            out.push(LeafSource::Derived {
                id: s.stream.id,
                covered: s.stream.covered.clone(),
                rate: s.stream.rate,
                host: s.stream.host,
            });
            self.touch(i);
        }
        self.stats.reuse_candidates_served += out.len() as u64;
        out
    }

    fn note_rederive_wanted(&mut self, idx: usize) {
        self.stats.rederive_requested += 1;
        dsq_obs::counter("advert.rederive_requested", 1);
        self.rederive_wanted.insert(self.slots[idx].stream.id);
    }

    /// Take (and clear) the evicted adverts that probes wanted since the
    /// last drain, in id order. The caller re-publishes each from its
    /// owning deployment via [`Self::rederive`] — or drops the request if
    /// the owner is gone.
    pub fn drain_rederive_requests(&mut self) -> Vec<DerivedId> {
        std::mem::take(&mut self.rederive_wanted)
            .into_iter()
            .collect()
    }

    /// Re-publish an evicted advert in place (the "upquery": its owning
    /// deployment still runs the operator, so the stream can be
    /// re-materialized on demand). Returns false unless `id` names an
    /// evicted advert.
    pub fn rederive(&mut self, id: DerivedId) -> bool {
        let Some(idx) = self.slot_index(id) else {
            return false;
        };
        if self.slots[idx].state() != AdvertState::Evicted {
            return false;
        }
        self.transition(idx, |s| s.evicted = false);
        self.touch(idx);
        self.rederive_wanted.remove(&id);
        self.stats.rederived += 1;
        dsq_obs::counter("advert.rederived", 1);
        // Re-materializing one advert can push another past the budget.
        self.enforce_budget();
        true
    }

    fn slot_index(&self, id: DerivedId) -> Option<usize> {
        let idx = id.0 as usize;
        (idx < self.slots.len()).then_some(idx)
    }

    /// Look up an advertisement. `None` when `id` was never issued by this
    /// registry (the slot map keeps evicted and retired adverts
    /// addressable, so a once-valid id always resolves).
    pub fn derived(&self, id: DerivedId) -> Option<&DerivedStream> {
        self.slot_index(id).map(|i| &self.slots[i].stream)
    }

    /// Lifecycle state of an advertisement, if `id` was ever issued.
    pub fn state(&self, id: DerivedId) -> Option<AdvertState> {
        self.slot_index(id).map(|i| self.slots[i].state())
    }

    /// Number of advert slots ever published (evicted and retired
    /// included — ids are stable, so slots are never dropped).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently live adverts.
    pub fn live_len(&self) -> usize {
        self.stats.live as usize
    }

    /// True when nothing has been advertised.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Deterministic fingerprint of the full registry state: every slot's
    /// identity, flags and recency plus the protocol counters. Two
    /// registries with equal fingerprints hold identical advert state —
    /// what the service's crash-recovery differential asserts.
    pub fn fingerprint(&self) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            hash ^= v;
            hash = hash.wrapping_mul(0x1_0000_01b3);
        };
        for s in &self.slots {
            mix(u64::from(s.stream.id.0));
            mix(s.stream.operator.0);
            mix(u64::from(s.stream.host.0));
            mix(u64::from(s.stream.origin.0));
            mix(s.stream.rate.to_bits());
            for st in s.stream.covered.iter() {
                mix(u64::from(st.0));
            }
            mix(u64::from(s.gone) | u64::from(s.host_down) << 1 | u64::from(s.evicted) << 2);
            mix(s.last_used);
        }
        for (_, v) in self.stats.fields() {
            mix(v);
        }
        format!(
            "published={} live={} retired={} evicted={} rederived={} hash={hash:016x}",
            self.stats.published,
            self.stats.live,
            self.stats.retired,
            self.stats.evicted,
            self.stats.rederived,
        )
    }

    /// Reinsert a fully specified advert slot (snapshot restore). Slots
    /// must arrive in id order; bucket gauges are recomputed by
    /// [`Self::restore_finish`].
    pub fn restore_slot(
        &mut self,
        stream: DerivedStream,
        gone: bool,
        host_down: bool,
        evicted: bool,
        last_used: u64,
    ) -> Result<(), String> {
        if stream.id.0 as usize != self.slots.len() {
            return Err(format!(
                "advert slots must restore in id order: got {} at position {}",
                stream.id.0,
                self.slots.len()
            ));
        }
        if stream.covered.len() < 2 {
            return Err(format!(
                "advert {} covers fewer than two streams",
                stream.id.0
            ));
        }
        self.push_slot(AdvertSlot {
            bits: InputSet::from_stream_set(&stream.covered),
            stream,
            gone,
            host_down,
            evicted,
            last_used,
        });
        Ok(())
    }

    /// Finish a snapshot restore: install the recorded scalars and
    /// counters, then cross-check the recorded bucket gauges against the
    /// restored slots — a mismatch means the snapshot was tampered with or
    /// the slot lines diverged from the counters, so refuse to load.
    pub fn restore_finish(
        &mut self,
        clock: u64,
        next_operator: u64,
        stats: AdvertStats,
    ) -> Result<(), String> {
        let mut live = 0u64;
        let mut retired = 0u64;
        let mut evicted = 0u64;
        for s in &self.slots {
            match s.state() {
                AdvertState::Live => live += 1,
                AdvertState::Retired => retired += 1,
                AdvertState::Evicted => evicted += 1,
            }
        }
        if (live, retired, evicted) != (stats.live, stats.retired, stats.evicted) {
            return Err(format!(
                "advert gauges diverge from restored slots: slots say \
                 live={live} retired={retired} evicted={evicted}, counters say \
                 live={} retired={} evicted={}",
                stats.live, stats.retired, stats.evicted
            ));
        }
        if !stats.conserved() {
            return Err(format!(
                "advert stats violate conservation: published={} != live+retired+evicted={}",
                stats.published,
                stats.live + stats.retired + stats.evicted
            ));
        }
        self.clock = clock;
        self.next_operator = next_operator;
        self.stats = stats;
        Ok(())
    }

    /// The recency clock (snapshot serialization).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The next operator id to be allocated (snapshot serialization).
    pub fn next_operator(&self) -> u64 {
        self.next_operator
    }

    /// Lifecycle flags of one slot, `(gone, host_down, evicted, last_used)`
    /// (snapshot serialization).
    pub fn slot_flags(&self, id: DerivedId) -> Option<(bool, bool, bool, u64)> {
        self.slot_index(id).map(|i| {
            let s = &self.slots[i];
            (s.gone, s.host_down, s.evicted, s.last_used)
        })
    }
}

/// The subset of `selections` that applies to streams in `covered`.
fn restrict_selections(
    selections: &[SelectionPredicate],
    covered: &StreamSet,
) -> Vec<SelectionPredicate> {
    selections
        .iter()
        .filter(|s| covered.contains(s.stream))
        .cloned()
        .collect()
}

/// Set equality of selection lists (order-insensitive, exact filters).
fn same_selection_set(a: &[SelectionPredicate], b: &[SelectionPredicate]) -> bool {
    a.len() == b.len()
        && a.iter().all(|x| b.iter().any(|y| x.same_filter(y)))
        && b.iter().all(|y| a.iter().any(|x| y.same_filter(x)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FlatPlan, JoinTree};
    use crate::predicate::CmpOp;
    use crate::stream::{Catalog, Schema, StreamId};
    use dsq_net::{DistanceMatrix, LinkKind, Metric, Network};

    fn setup() -> (Catalog, DistanceMatrix) {
        let mut net = Network::new(4);
        for i in 0..3u32 {
            net.add_link(NodeId(i), NodeId(i + 1), 1.0, 1.0, LinkKind::Stub);
        }
        let dm = DistanceMatrix::build(&net, Metric::Cost);
        let mut c = Catalog::new();
        let a = c.add_stream("A", 10.0, NodeId(0), Schema::new(["x"]));
        let b = c.add_stream("B", 4.0, NodeId(3), Schema::new(["x"]));
        c.add_stream("C", 7.0, NodeId(1), Schema::new(["x"]));
        c.set_selectivity(a, b, 0.1);
        (c, dm)
    }

    fn deploy_ab(c: &Catalog, dm: &DistanceMatrix) -> (Query, Deployment) {
        let q = Query::join(QueryId(0), [StreamId(0), StreamId(1)], NodeId(2));
        let tree = JoinTree::join(JoinTree::base(StreamId(0)), JoinTree::base(StreamId(1)));
        let plan = FlatPlan::from_tree(&tree, &q, c);
        let d = Deployment::evaluate(
            QueryId(0),
            plan,
            vec![NodeId(0), NodeId(3), NodeId(1)],
            NodeId(2),
            dm,
        );
        (q, d)
    }

    #[test]
    fn register_publishes_operator_and_sink_streams() {
        let (c, dm) = setup();
        let (q, d) = deploy_ab(&c, &dm);
        let mut reg = ReuseRegistry::new();
        let published = reg.register_deployment(&q, &d);
        // One join operator at n1 and the sink copy at n2.
        assert_eq!(published.len(), 2);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.stats().published, 2);
        assert_eq!(reg.derived(published[0]).unwrap().host, NodeId(1));
        assert_eq!(reg.derived(published[1]).unwrap().host, NodeId(2));
        assert!(reg.stats().conserved());
    }

    #[test]
    fn duplicate_advertisements_are_suppressed() {
        let (c, dm) = setup();
        let (q, d) = deploy_ab(&c, &dm);
        let mut reg = ReuseRegistry::new();
        reg.register_deployment(&q, &d);
        let again = reg.register_deployment(&q, &d);
        assert!(again.is_empty());
        assert_eq!(reg.stats().suppressed, 2);
    }

    #[test]
    fn usable_for_matches_subset_queries_only() {
        let (c, dm) = setup();
        let (q, d) = deploy_ab(&c, &dm);
        let mut reg = ReuseRegistry::new();
        reg.register_deployment(&q, &d);

        // Query over {A, B, C} can reuse the {A, B} operator.
        let q2 = Query::join(
            QueryId(1),
            [StreamId(0), StreamId(1), StreamId(2)],
            NodeId(0),
        );
        let leaves = reg.usable_for(&q2);
        assert_eq!(leaves.len(), 2, "operator copy and sink copy both usable");

        // Query over {A, C} cannot.
        let q3 = Query::join(QueryId(2), [StreamId(0), StreamId(2)], NodeId(0));
        assert!(reg.usable_for(&q3).is_empty());
    }

    #[test]
    fn selection_subsumption_gates_reuse_and_adjusts_rate() {
        let (c, dm) = setup();
        // Deployed operator applied x < 12 on stream A.
        let mut q = Query::join(QueryId(0), [StreamId(0), StreamId(1)], NodeId(2));
        q.selections.push(SelectionPredicate::new(
            StreamId(0),
            "x",
            CmpOp::Lt,
            12.0,
            0.5,
        ));
        let tree = JoinTree::join(JoinTree::base(StreamId(0)), JoinTree::base(StreamId(1)));
        let plan = FlatPlan::from_tree(&tree, &q, &c);
        let rate_ab = plan.output_rate();
        let d = Deployment::evaluate(
            QueryId(0),
            plan,
            vec![NodeId(0), NodeId(3), NodeId(1)],
            NodeId(2),
            &dm,
        );
        let mut reg = ReuseRegistry::new();
        reg.register_deployment(&q, &d);

        // A consumer requiring the same filter plus a *stricter* one reuses
        // with a rate scaled by the residual predicate.
        let mut strict = Query::join(QueryId(1), [StreamId(0), StreamId(1)], NodeId(0));
        strict.selections.push(SelectionPredicate::new(
            StreamId(0),
            "x",
            CmpOp::Lt,
            12.0,
            0.5,
        ));
        strict.selections.push(SelectionPredicate::new(
            StreamId(1),
            "x",
            CmpOp::Eq,
            1.0,
            0.2,
        ));
        let leaves = reg.usable_for(&strict);
        assert!(!leaves.is_empty());
        match &leaves[0] {
            LeafSource::Derived { rate, .. } => {
                assert!((rate - rate_ab * 0.2).abs() < 1e-9, "residual Eq folded in")
            }
            _ => panic!("expected derived leaf"),
        }

        // A consumer requiring a *weaker* filter (x < 20) cannot reuse: the
        // deployed operator already dropped tuples in [12, 20).
        let mut weak = Query::join(QueryId(2), [StreamId(0), StreamId(1)], NodeId(0));
        weak.selections.push(SelectionPredicate::new(
            StreamId(0),
            "x",
            CmpOp::Lt,
            20.0,
            0.7,
        ));
        assert!(reg.usable_for(&weak).is_empty());
    }

    #[test]
    fn single_stream_adverts_rejected() {
        let mut reg = ReuseRegistry::new();
        let out = reg.advertise(
            StreamSet::singleton(StreamId(0)),
            vec![],
            1.0,
            NodeId(0),
            QueryId(0),
        );
        assert!(out.is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn derived_lookup_is_fallible_not_panicking() {
        let mut reg = ReuseRegistry::new();
        assert!(reg.derived(DerivedId(0)).is_none());
        assert!(reg.state(DerivedId(7)).is_none());
        let (c, dm) = setup();
        let (q, d) = deploy_ab(&c, &dm);
        let ids = reg.register_deployment(&q, &d);
        assert!(reg.derived(ids[0]).is_some());
        assert!(reg.derived(DerivedId(ids.len() as u32 + 5)).is_none());
    }

    #[test]
    fn crash_retires_and_rejoin_reinstates() {
        let (c, dm) = setup();
        let (q, d) = deploy_ab(&c, &dm);
        let mut reg = ReuseRegistry::new();
        let ids = reg.register_deployment(&q, &d);
        let probe = Query::join(
            QueryId(1),
            [StreamId(0), StreamId(1), StreamId(2)],
            NodeId(0),
        );
        assert_eq!(reg.usable_for(&probe).len(), 2);

        // Host of the operator copy crashes: only the sink copy is served.
        let host = reg.derived(ids[0]).unwrap().host;
        assert_eq!(reg.host_crashed(host), 1);
        assert_eq!(reg.state(ids[0]), Some(AdvertState::Retired));
        assert_eq!(reg.usable_for(&probe).len(), 1);
        assert!(reg.stats().conserved());

        // Rejoin brings it back.
        assert_eq!(reg.host_rejoined(host), 1);
        assert_eq!(reg.state(ids[0]), Some(AdvertState::Live));
        assert_eq!(reg.usable_for(&probe).len(), 2);
        assert!(reg.stats().conserved());
    }

    #[test]
    fn liveness_view_filters_without_registry_surgery() {
        let (c, dm) = setup();
        let (q, d) = deploy_ab(&c, &dm);
        let mut reg = ReuseRegistry::new();
        let ids = reg.register_deployment(&q, &d);
        let down = reg.derived(ids[0]).unwrap().host;
        let probe = Query::join(
            QueryId(1),
            [StreamId(0), StreamId(1), StreamId(2)],
            NodeId(0),
        );
        // The probe's own view of the overlay filters the dead host even
        // though the registry has not heard about the crash.
        let leaves = reg.usable_for_live(&probe, |n| n != down);
        assert_eq!(leaves.len(), 1);
        assert!(leaves
            .iter()
            .all(|l| !matches!(l, LeafSource::Derived { host, .. } if *host == down)));
        assert_eq!(reg.state(ids[0]), Some(AdvertState::Live));
    }

    #[test]
    fn query_retirement_is_terminal() {
        let (c, dm) = setup();
        let (q, d) = deploy_ab(&c, &dm);
        let mut reg = ReuseRegistry::new();
        let ids = reg.register_deployment(&q, &d);
        assert_eq!(reg.retire_query(q.id), 2);
        let probe = Query::join(
            QueryId(1),
            [StreamId(0), StreamId(1), StreamId(2)],
            NodeId(0),
        );
        assert!(reg.usable_for(&probe).is_empty());
        // Rejoining the host does not resurrect a gone query's adverts.
        let host = reg.derived(ids[0]).unwrap().host;
        reg.host_crashed(host);
        reg.host_rejoined(host);
        assert_eq!(reg.state(ids[0]), Some(AdvertState::Retired));
        assert!(reg.stats().conserved());
        // Retiring again is a no-op.
        assert_eq!(reg.retire_query(q.id), 0);
    }

    #[test]
    fn budget_evicts_coldest_and_rederive_restores() {
        let mut reg = ReuseRegistry::with_budget(2);
        let mk = |reg: &mut ReuseRegistry, a: u32, b: u32, host: u32, origin: u32| {
            reg.advertise(
                StreamSet::from_iter([StreamId(a), StreamId(b)]),
                vec![],
                1.0,
                NodeId(host),
                QueryId(origin),
            )
            .unwrap()
        };
        let id0 = mk(&mut reg, 0, 1, 0, 0);
        let id1 = mk(&mut reg, 1, 2, 1, 1);
        // Touch id0 so id1 is the coldest when the budget overflows.
        let probe = Query::join(QueryId(9), [StreamId(0), StreamId(1)], NodeId(3));
        assert_eq!(reg.usable_for(&probe).len(), 1);
        let id2 = mk(&mut reg, 2, 3, 2, 2);
        assert_eq!(reg.live_len(), 2);
        assert_eq!(reg.state(id1), Some(AdvertState::Evicted));
        assert_eq!(reg.state(id0), Some(AdvertState::Live));
        assert_eq!(reg.state(id2), Some(AdvertState::Live));
        assert!(reg.stats().conserved());

        // A probe that would have matched the evicted advert records a
        // re-derivation request instead of serving it.
        let probe1 = Query::join(QueryId(10), [StreamId(1), StreamId(2)], NodeId(3));
        assert!(reg.usable_for(&probe1).is_empty());
        assert_eq!(reg.drain_rederive_requests(), vec![id1]);
        assert_eq!(reg.stats().rederive_requested, 1);

        // Re-deriving it re-publishes in place (stable id) and pushes the
        // new coldest advert out.
        assert!(reg.rederive(id1));
        assert_eq!(reg.state(id1), Some(AdvertState::Live));
        assert_eq!(reg.live_len(), 2);
        assert_eq!(reg.stats().rederived, 1);
        assert_eq!(reg.usable_for(&probe1).len(), 1);
        assert!(reg.stats().conserved());
        // The drained request list was cleared.
        assert!(reg.drain_rederive_requests().is_empty());
    }

    #[test]
    fn peeking_records_nothing_and_serves_what_the_recording_probe_serves() {
        let mut reg = ReuseRegistry::with_budget(2);
        for (a, b, host) in [(0, 1, 0), (1, 2, 1), (0, 2, 2)] {
            reg.advertise(
                StreamSet::from_iter([StreamId(a), StreamId(b)]),
                vec![],
                1.0,
                NodeId(host),
                QueryId(host),
            );
        }
        assert_eq!(reg.stats().evicted, 1);
        let probe = Query::join(
            QueryId(9),
            [StreamId(0), StreamId(1), StreamId(2)],
            NodeId(3),
        );
        for view in [|_: NodeId| true, |n: NodeId| n != NodeId(2)] {
            let before = reg.fingerprint();
            let peeked = reg.peek_usable(&probe, view);
            assert_eq!(reg.fingerprint(), before, "a peek writes nothing");
            assert!(reg.drain_rederive_requests().is_empty());
            assert_eq!(reg.usable_for_live(&probe, view), peeked);
            assert_ne!(reg.fingerprint(), before, "the recording probe writes");
            assert_eq!(reg.drain_rederive_requests().len(), 1);
        }
    }

    #[test]
    fn readvertising_an_evicted_signature_reinstates_the_slot() {
        let mut reg = ReuseRegistry::with_budget(1);
        let a = reg
            .advertise(
                StreamSet::from_iter([StreamId(0), StreamId(1)]),
                vec![],
                1.0,
                NodeId(0),
                QueryId(0),
            )
            .unwrap();
        let b = reg
            .advertise(
                StreamSet::from_iter([StreamId(1), StreamId(2)]),
                vec![],
                1.0,
                NodeId(1),
                QueryId(1),
            )
            .unwrap();
        assert_eq!(reg.state(a), Some(AdvertState::Evicted));
        // Advertising the same signature again re-derives the original slot
        // instead of minting a duplicate id.
        let again = reg
            .advertise(
                StreamSet::from_iter([StreamId(0), StreamId(1)]),
                vec![],
                1.0,
                NodeId(0),
                QueryId(0),
            )
            .unwrap();
        assert_eq!(again, a);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.state(a), Some(AdvertState::Live));
        assert_eq!(reg.state(b), Some(AdvertState::Evicted));
        assert_eq!(reg.stats().published, 2);
        assert_eq!(reg.stats().rederived, 1);
        assert!(reg.stats().conserved());
    }

    #[test]
    fn unbounded_budget_never_evicts() {
        let mut reg = ReuseRegistry::new();
        for i in 0..64u32 {
            reg.advertise(
                StreamSet::from_iter([StreamId(i), StreamId(i + 1)]),
                vec![],
                1.0,
                NodeId(0),
                QueryId(i),
            );
        }
        assert_eq!(reg.live_len(), 64);
        assert_eq!(reg.stats().evicted, 0);
        assert!(reg.stats().conserved());
    }

    #[test]
    fn restore_rejects_an_advert_that_could_not_have_been_published() {
        // Adverts cover at least two streams (`advertise` refuses fewer);
        // the stream index relies on it, so a snapshot line claiming
        // otherwise is refused instead of indexed.
        let mut reg = ReuseRegistry::new();
        let stream = DerivedStream {
            id: DerivedId(0),
            operator: OperatorId(0),
            covered: StreamSet::singleton(StreamId(3)),
            selections: vec![],
            rate: 1.0,
            host: NodeId(0),
            origin: QueryId(0),
        };
        let err = reg
            .restore_slot(stream, false, false, false, 1)
            .unwrap_err();
        assert!(err.contains("fewer than two streams"), "{err}");
        assert!(reg.is_empty());
    }

    #[test]
    fn fingerprint_tracks_lifecycle_state() {
        let (c, dm) = setup();
        let (q, d) = deploy_ab(&c, &dm);
        let mut a = ReuseRegistry::new();
        let mut b = ReuseRegistry::new();
        a.register_deployment(&q, &d);
        b.register_deployment(&q, &d);
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.retire_query(q.id);
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.retire_query(q.id);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
