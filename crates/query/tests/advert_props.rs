//! Property tests for the reuse registry's advert lifecycle: the
//! publish → hit → evict → re-derive round trip, conservation of the
//! `AdvertStats` buckets under arbitrary lifecycle interleavings,
//! bit-exactness of an effectively-unbounded budget against the
//! budget-free registry, and equivalence of the indexed registry with a
//! full-scan model ([`scan_model`]) over arbitrary operation sequences.

use dsq_net::{DistanceMatrix, LinkKind, Metric, Network, NodeId};
use dsq_query::{
    AdvertState, Catalog, CmpOp, Deployment, DerivedId, FlatPlan, JoinTree, Query, QueryId,
    ReuseRegistry, Schema, SelectionPredicate, StreamId, StreamSet,
};
use proptest::{prop_assert, prop_assert_eq, proptest};

/// Streams the generated adverts draw their covered sets from.
const UNIVERSE: u32 = 8;

/// A query whose source set is the whole universe — every advert is
/// containment-compatible with it, so probes exercise lifecycle filtering
/// and nothing else.
fn omnivore() -> Query {
    Query::join(QueryId(1_000), (0..UNIVERSE).map(StreamId), NodeId(0))
}

/// Decode one generated op: a covered pair (distinct streams), a host and
/// an origin query, all folded down from three raw draws.
fn decode(a: usize, b: usize, c: usize) -> (StreamSet, NodeId, QueryId) {
    let s1 = (a % UNIVERSE as usize) as u32;
    let s2_raw = (b % (UNIVERSE as usize - 1)) as u32;
    let s2 = if s2_raw >= s1 { s2_raw + 1 } else { s2_raw };
    let covered = StreamSet::from_iter([StreamId(s1), StreamId(s2)]);
    (covered, NodeId((c % 5) as u32), QueryId((c % 3) as u32))
}

/// Recompute the bucket gauges from slot states and demand they agree with
/// the running `AdvertStats`.
fn assert_gauges(reg: &ReuseRegistry) {
    let stats = reg.stats();
    assert!(
        stats.conserved(),
        "published != live+retired+evicted: {stats:?}"
    );
    let mut live = 0u64;
    let mut retired = 0u64;
    let mut evicted = 0u64;
    for i in 0..reg.len() {
        match reg.state(DerivedId(i as u32)).expect("dense ids") {
            AdvertState::Live => live += 1,
            AdvertState::Retired => retired += 1,
            AdvertState::Evicted => evicted += 1,
        }
    }
    assert_eq!(stats.live, live);
    assert_eq!(stats.retired, retired);
    assert_eq!(stats.evicted, evicted);
    assert_eq!(stats.published as usize, reg.len());
}

proptest! {
    /// Publishing past the budget evicts; a probe that would have matched
    /// the evicted advert queues a re-derivation request; `rederive` brings
    /// the advert back Live under its original id and the probe serves it.
    #[test]
    fn publish_hit_evict_rederive_round_trip(
        ops in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64), 2..24),
        budget in 1usize..4,
    ) {
        let mut reg = ReuseRegistry::with_budget(budget);
        let mut issued: Vec<DerivedId> = Vec::new();
        for &(a, b, c) in &ops {
            let (covered, host, origin) = decode(a, b, c);
            if let Some(id) = reg.advertise(covered, Vec::new(), 10.0, host, origin) {
                if !issued.contains(&id) {
                    issued.push(id);
                }
            }
            prop_assert!(reg.live_len() <= budget);
            assert_gauges(&reg);
        }

        // Probe: only live adverts are served, every evicted advert whose
        // covered set matches is queued for re-derivation.
        let q = omnivore();
        let served: Vec<DerivedId> = reg
            .usable_for_live(&q, |_| true)
            .into_iter()
            .filter_map(|l| match l {
                dsq_query::LeafSource::Derived { id, .. } => Some(id),
                dsq_query::LeafSource::Base(_) => None,
            })
            .collect();
        for &id in &served {
            prop_assert_eq!(reg.state(id), Some(AdvertState::Live));
        }
        let evicted: Vec<DerivedId> = issued
            .iter()
            .copied()
            .filter(|&id| reg.state(id) == Some(AdvertState::Evicted))
            .collect();
        let wanted = reg.drain_rederive_requests();
        for id in &evicted {
            prop_assert!(
                wanted.contains(id),
                "probe missed evicted advert {:?}", id
            );
        }

        // Re-derive everything the probe asked for: each request comes back
        // Live under its original id (re-derivation warms the slot, so the
        // budget evicts some *other*, colder advert if it overflows).
        for id in wanted {
            prop_assert!(reg.rederive(id));
            prop_assert_eq!(reg.state(id), Some(AdvertState::Live));
            prop_assert!(reg.live_len() <= budget);
            assert_gauges(&reg);
        }
        prop_assert!(reg.drain_rederive_requests().is_empty());
    }

    /// `published == live + retired + evicted` (and the per-bucket gauges
    /// match a recount from slot states) after every operation of an
    /// arbitrary lifecycle interleaving.
    #[test]
    fn advert_stats_conserve_under_lifecycle_churn(
        ops in proptest::collection::vec((0usize..6, 0usize..64, 0usize..64), 1..48),
    ) {
        let mut reg = ReuseRegistry::with_budget(2);
        let q = omnivore();
        for &(kind, a, b) in &ops {
            let (covered, host, origin) = decode(a, b, a ^ b);
            match kind {
                0 | 1 => {
                    reg.advertise(covered, Vec::new(), 5.0, host, origin);
                }
                2 => {
                    reg.retire_query(origin);
                }
                3 => {
                    reg.host_crashed(host);
                }
                4 => {
                    reg.host_rejoined(host);
                }
                _ => {
                    let _ = reg.usable_for_live(&q, |n| n.0 % 2 == 0);
                    for id in reg.drain_rederive_requests() {
                        reg.rederive(id);
                    }
                }
            }
            assert_gauges(&reg);
        }
    }

    /// An effectively-unbounded budget is bit-identical to the budget-free
    /// registry: same ids issued, same probe results, same fingerprint.
    #[test]
    fn unbounded_budget_is_bit_exact(
        ops in proptest::collection::vec((0usize..3, 0usize..64, 0usize..64), 1..32),
    ) {
        let mut free = ReuseRegistry::new();
        let mut huge = ReuseRegistry::with_budget(usize::MAX);
        let q = omnivore();
        for &(kind, a, b) in &ops {
            let (covered, host, origin) = decode(a, b, a.wrapping_mul(31) ^ b);
            match kind {
                0 | 1 => {
                    let i1 = free.advertise(covered.clone(), Vec::new(), 7.0, host, origin);
                    let i2 = huge.advertise(covered, Vec::new(), 7.0, host, origin);
                    prop_assert_eq!(i1, i2);
                }
                _ => {
                    let s1 = free.usable_for(&q);
                    let s2 = huge.usable_for(&q);
                    prop_assert_eq!(s1.len(), s2.len());
                }
            }
            prop_assert_eq!(free.fingerprint(), huge.fingerprint());
            prop_assert_eq!(free.live_len(), free.len());
        }
    }

    /// The indexed registry is observably the full-scan registry it
    /// replaced: over arbitrary interleavings of every mutating entry
    /// point — including snapshot-style rebuilds through `restore_slot` —
    /// each call returns what the scan returns (probe candidates in the
    /// same order) and leaves the same counters and the same fingerprint.
    #[test]
    fn indexed_registry_matches_the_full_scan_model(
        ops in proptest::collection::vec((0usize..12, 0usize..4096, 0usize..4096), 1..64),
        budget in 0usize..4,
    ) {
        let fx = Fixture::new();
        let mut reg = ReuseRegistry::with_budget(budget);
        let mut model = scan_model::ScanRegistry::with_budget(budget);
        for &(kind, a, b) in &ops {
            match kind {
                0..=2 => {
                    let (q, d) = fx.deployment(a, b);
                    prop_assert_eq!(
                        reg.register_deployment(&q, &d),
                        model.register_deployment(&q, &d)
                    );
                }
                3 | 4 => {
                    let q = fx.query(a, b);
                    let up = |n: NodeId| b >> n.0 & 1 == 0;
                    prop_assert_eq!(reg.usable_for_live(&q, up), model.usable_for_live(&q, up));
                }
                5 => {
                    let q = fx.query(a, b);
                    prop_assert_eq!(reg.usable_for_exact(&q), model.usable_for_exact(&q));
                }
                6 => {
                    let origin = QueryId((a % ORIGINS) as u32);
                    prop_assert_eq!(reg.retire_query(origin), model.retire_query(origin));
                }
                7 => {
                    let node = NodeId((a % NODES) as u32);
                    prop_assert_eq!(reg.host_crashed(node), model.host_crashed(node));
                }
                8 => {
                    let node = NodeId((a % NODES) as u32);
                    prop_assert_eq!(reg.host_rejoined(node), model.host_rejoined(node));
                }
                9 => {
                    reg.set_budget(a % 4);
                    model.set_budget(a % 4);
                }
                10 => {
                    let wanted = reg.drain_rederive_requests();
                    prop_assert_eq!(&wanted, &model.drain_rederive_requests());
                    for id in wanted {
                        prop_assert_eq!(reg.rederive(id), model.rederive(id));
                    }
                }
                _ => {
                    // What a snapshot does: pending re-derivation demand is
                    // not part of it (the service drains it every wave).
                    prop_assert_eq!(
                        reg.drain_rederive_requests(),
                        model.drain_rederive_requests()
                    );
                    let mut restored = ReuseRegistry::with_budget(reg.budget());
                    for adv in reg.deriveds() {
                        let (gone, down, evicted, used) = reg.slot_flags(adv.id).unwrap();
                        restored
                            .restore_slot(adv.clone(), gone, down, evicted, used)
                            .unwrap();
                    }
                    restored
                        .restore_finish(reg.clock(), reg.next_operator(), reg.stats())
                        .unwrap();
                    reg = restored;
                }
            }
            prop_assert_eq!(reg.stats(), model.stats());
            prop_assert_eq!(reg.fingerprint(), model.fingerprint());
        }
    }
}

const NODES: usize = 6;
const ORIGINS: usize = 5;

/// A six-node line network with one stream per node: enough to cost real
/// deployments for `register_deployment`.
struct Fixture {
    catalog: Catalog,
    dm: DistanceMatrix,
}

impl Fixture {
    fn new() -> Self {
        let mut net = Network::new(NODES);
        for i in 0..NODES as u32 - 1 {
            net.add_link(NodeId(i), NodeId(i + 1), 1.0, 1.0, LinkKind::Stub);
        }
        let mut catalog = Catalog::new();
        for i in 0..NODES as u32 {
            catalog.add_stream(
                format!("S{i}"),
                5.0 + f64::from(i),
                NodeId(i),
                Schema::new(["x"]),
            );
        }
        Fixture {
            catalog,
            dm: DistanceMatrix::build(&net, Metric::Cost),
        }
    }

    /// A query over 2–4 distinct streams drawn from `a`, optionally
    /// filtering its first source (`b` picks one of three nested ranges, so
    /// subsumption, residuals and exact matches all occur).
    fn query(&self, a: usize, b: usize) -> Query {
        let mut pool: Vec<u32> = (0..NODES as u32).collect();
        let mut draw = a;
        let sources: Vec<StreamId> = (0..2 + a % 3)
            .map(|_| {
                let at = draw % pool.len();
                draw /= pool.len();
                StreamId(pool.remove(at))
            })
            .collect();
        let id = QueryId((b % ORIGINS) as u32);
        let mut q = Query::join(id, sources.iter().copied(), NodeId((b / 8 % NODES) as u32));
        let strictness = b % 4;
        if strictness > 0 {
            q.selections.push(SelectionPredicate::new(
                sources[0],
                "x",
                CmpOp::Lt,
                10.0 * strictness as f64,
                0.25 * strictness as f64,
            ));
        }
        q
    }

    /// That query deployed as a left-deep join with operators on hosts
    /// drawn from `b`.
    fn deployment(&self, a: usize, b: usize) -> (Query, Deployment) {
        let q = self.query(a, b);
        let tree = q.sources[1..]
            .iter()
            .fold(JoinTree::base(q.sources[0]), |t, &s| {
                JoinTree::join(t, JoinTree::base(s))
            });
        let plan = FlatPlan::from_tree(&tree, &q, &self.catalog);
        let mut draw = b / 64;
        let placement: Vec<NodeId> = plan
            .nodes()
            .iter()
            .map(|n| match n.covered().as_slice() {
                [only] => self.catalog.stream(*only).node,
                _ => {
                    draw /= 2;
                    NodeId((draw % NODES) as u32)
                }
            })
            .collect();
        let d = Deployment::evaluate(q.id, plan, placement, q.sink, &self.dm);
        (q, d)
    }
}

/// The registry as it was before it was indexed: every operation walks
/// every slot ever published. Kept as the reference the indexed registry
/// is diffed against — the scans are the deleted code, verbatim.
mod scan_model {
    use std::collections::BTreeSet;

    use dsq_net::NodeId;
    use dsq_query::predicate::{residual_selections, selections_compatible};
    use dsq_query::{
        AdvertState, AdvertStats, Deployment, DerivedId, DerivedStream, InputSet, LeafSource,
        OperatorId, Query, QueryId, SelectionPredicate, StreamSet,
    };

    struct Slot {
        stream: DerivedStream,
        bits: InputSet,
        gone: bool,
        host_down: bool,
        evicted: bool,
        last_used: u64,
    }

    impl Slot {
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

    #[derive(Default)]
    pub struct ScanRegistry {
        slots: Vec<Slot>,
        next_operator: u64,
        budget: usize,
        clock: u64,
        stats: AdvertStats,
        rederive_wanted: BTreeSet<DerivedId>,
    }

    impl ScanRegistry {
        pub fn with_budget(budget: usize) -> Self {
            ScanRegistry {
                budget,
                ..Self::default()
            }
        }

        pub fn set_budget(&mut self, budget: usize) {
            self.budget = budget;
            self.enforce_budget();
        }

        pub fn stats(&self) -> AdvertStats {
            self.stats
        }

        pub fn register_deployment(&mut self, query: &Query, d: &Deployment) -> Vec<DerivedId> {
            let mut published = Vec::new();
            for i in d.plan.join_indices() {
                let node = &d.plan.nodes()[i];
                let covered = node.covered().clone();
                let selections = restrict_selections(&query.selections, &covered);
                published.extend(self.advertise(
                    covered,
                    selections,
                    node.rate(),
                    d.placement[i],
                    query.id,
                ));
            }
            let root = &d.plan.nodes()[d.plan.root()];
            if root.is_join() {
                let covered = root.covered().clone();
                let selections = restrict_selections(&query.selections, &covered);
                published.extend(self.advertise(
                    covered,
                    selections,
                    root.rate(),
                    d.sink,
                    query.id,
                ));
            }
            published
        }

        fn advertise(
            &mut self,
            covered: StreamSet,
            selections: Vec<SelectionPredicate>,
            rate: f64,
            host: NodeId,
            origin: QueryId,
        ) -> Option<DerivedId> {
            if covered.len() < 2 {
                return None;
            }
            let mut reinstate: Option<usize> = None;
            for (i, s) in self.slots.iter().enumerate() {
                if s.stream.host != host
                    || s.stream.covered != covered
                    || !same_selection_set(&s.stream.selections, &selections)
                {
                    continue;
                }
                match s.state() {
                    AdvertState::Live => {
                        self.stats.suppressed += 1;
                        return None;
                    }
                    AdvertState::Evicted => {
                        reinstate = Some(i);
                        break;
                    }
                    AdvertState::Retired => {}
                }
            }
            if let Some(i) = reinstate {
                let id = self.slots[i].stream.id;
                self.rederive(id);
                return Some(id);
            }
            let id = DerivedId(self.slots.len() as u32);
            let operator = OperatorId(self.next_operator);
            self.next_operator += 1;
            self.clock += 1;
            self.slots.push(Slot {
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
            });
            self.stats.published += 1;
            self.stats.live += 1;
            self.enforce_budget();
            Some(id)
        }

        fn enforce_budget(&mut self) {
            if self.budget == 0 {
                return;
            }
            while self.stats.live as usize > self.budget {
                let coldest = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.state() == AdvertState::Live)
                    .min_by_key(|(i, s)| (s.last_used, *i))
                    .map(|(i, _)| i)
                    .expect("live count > 0");
                self.transition(coldest, |s| s.evicted = true);
            }
        }

        fn transition(&mut self, idx: usize, f: impl FnOnce(&mut Slot)) {
            let before = self.slots[idx].state();
            f(&mut self.slots[idx]);
            let after = self.slots[idx].state();
            if before == after {
                return;
            }
            match before {
                AdvertState::Live => self.stats.live -= 1,
                AdvertState::Retired => self.stats.retired -= 1,
                AdvertState::Evicted => self.stats.evicted -= 1,
            }
            match after {
                AdvertState::Live => self.stats.live += 1,
                AdvertState::Retired => self.stats.retired += 1,
                AdvertState::Evicted => self.stats.evicted += 1,
            }
        }

        pub fn retire_query(&mut self, origin: QueryId) -> usize {
            let mut changed = 0;
            for i in 0..self.slots.len() {
                if self.slots[i].stream.origin == origin && !self.slots[i].gone {
                    let before = self.slots[i].state();
                    self.transition(i, |s| s.gone = true);
                    self.rederive_wanted.remove(&self.slots[i].stream.id);
                    if before != AdvertState::Retired {
                        changed += 1;
                    }
                }
            }
            changed
        }

        pub fn host_crashed(&mut self, node: NodeId) -> usize {
            let mut changed = 0;
            for i in 0..self.slots.len() {
                if self.slots[i].stream.host == node && !self.slots[i].host_down {
                    let before = self.slots[i].state();
                    self.transition(i, |s| s.host_down = true);
                    self.rederive_wanted.remove(&self.slots[i].stream.id);
                    if before != AdvertState::Retired {
                        changed += 1;
                    }
                }
            }
            changed
        }

        pub fn host_rejoined(&mut self, node: NodeId) -> usize {
            let mut changed = 0;
            for i in 0..self.slots.len() {
                if self.slots[i].stream.host == node && self.slots[i].host_down {
                    let before = self.slots[i].state();
                    self.transition(i, |s| s.host_down = false);
                    if self.slots[i].state() != before {
                        changed += 1;
                    }
                }
            }
            changed
        }

        pub fn usable_for_live(
            &mut self,
            query: &Query,
            is_active: impl Fn(NodeId) -> bool,
        ) -> Vec<LeafSource> {
            let source_bits = InputSet::from_bits(query.sources.iter().map(|s| s.0 as usize));
            let mut out = Vec::new();
            for i in 0..self.slots.len() {
                let s = &self.slots[i];
                if !s.bits.is_subset_of(&source_bits) {
                    continue;
                }
                let required = restrict_selections(&query.selections, &s.stream.covered);
                if !selections_compatible(&s.stream.selections, &required) {
                    continue;
                }
                match s.state() {
                    AdvertState::Retired => continue,
                    AdvertState::Live if !is_active(s.stream.host) => continue,
                    AdvertState::Evicted => {
                        if is_active(s.stream.host) {
                            self.note_rederive_wanted(i);
                        }
                        continue;
                    }
                    AdvertState::Live => {}
                }
                let residual = residual_selections(&s.stream.selections, &required);
                let rate = residual
                    .iter()
                    .fold(s.stream.rate, |r, p| r * p.selectivity);
                out.push(LeafSource::Derived {
                    id: s.stream.id,
                    covered: s.stream.covered.clone(),
                    rate,
                    host: s.stream.host,
                });
                self.clock += 1;
                self.slots[i].last_used = self.clock;
            }
            self.stats.reuse_candidates_served += out.len() as u64;
            out
        }

        pub fn usable_for_exact(&mut self, query: &Query) -> Vec<LeafSource> {
            let source_bits = InputSet::from_bits(query.sources.iter().map(|s| s.0 as usize));
            let mut out = Vec::new();
            for i in 0..self.slots.len() {
                let s = &self.slots[i];
                if !s.bits.is_subset_of(&source_bits) {
                    continue;
                }
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
                self.clock += 1;
                self.slots[i].last_used = self.clock;
            }
            self.stats.reuse_candidates_served += out.len() as u64;
            out
        }

        fn note_rederive_wanted(&mut self, idx: usize) {
            self.stats.rederive_requested += 1;
            self.rederive_wanted.insert(self.slots[idx].stream.id);
        }

        pub fn drain_rederive_requests(&mut self) -> Vec<DerivedId> {
            std::mem::take(&mut self.rederive_wanted)
                .into_iter()
                .collect()
        }

        pub fn rederive(&mut self, id: DerivedId) -> bool {
            let idx = id.0 as usize;
            if idx >= self.slots.len() || self.slots[idx].state() != AdvertState::Evicted {
                return false;
            }
            self.transition(idx, |s| s.evicted = false);
            self.clock += 1;
            self.slots[idx].last_used = self.clock;
            self.rederive_wanted.remove(&id);
            self.stats.rederived += 1;
            self.enforce_budget();
            true
        }

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
    }

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

    fn same_selection_set(a: &[SelectionPredicate], b: &[SelectionPredicate]) -> bool {
        a.len() == b.len()
            && a.iter().all(|x| b.iter().any(|y| x.same_filter(y)))
            && b.iter().all(|y| a.iter().any(|x| y.same_filter(x)))
    }
}
