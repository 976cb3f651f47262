//! Shared memoized subplan cache (multi-query planning).
//!
//! Hierarchical planning decomposes every query into within-cluster DP
//! invocations ([`crate::topdown::TopDown::plan_in_cluster`]). Across a
//! workload those invocations repeat heavily: queries that share source
//! streams resolve to the *same* (cluster, inputs, destination) subproblem
//! again and again — the common case with operator reuse and overlapping
//! adverts. The [`PlanCache`] memoizes those invocations so coordinators
//! recompute each distinct subproblem once.
//!
//! ## Determinism: frozen reads, staged commits
//!
//! The parallel driver ([`crate::parallel`]) must produce byte-identical
//! results to the serial path, so cache *visibility* cannot depend on thread
//! scheduling. The cache therefore distinguishes:
//!
//! * [`lookup`](PlanCache::lookup) — reads the **committed** map only;
//! * [`stage`](PlanCache::stage) — misses park their results in a staging
//!   area that lookups cannot see;
//! * [`commit`](PlanCache::commit) — promotes staged entries, called only at
//!   structural barriers (end of a query wave, end of a standalone
//!   `optimize`), which fall at identical points in the serial and parallel
//!   schedules.
//!
//! Within a parallel region the committed map is frozen, so every task sees
//! the same hits regardless of interleaving; first-staged-wins resolution at
//! commit time is order-independent because two stages under the same key
//! hold identical payloads (the planner is deterministic).
//!
//! ## Keying and safety
//!
//! Keys capture everything the DP outcome depends on: the epoch (bumped by
//! adaptation whenever distances, the hierarchy, or the catalog change), the
//! cluster, the destination, and the canonical input list including each
//! input's *effective rate* bits (selection predicates make the same stream
//! arrive at different rates for different queries).
//!
//! [`InputKind::External`] inputs are keyed by what the DP actually
//! consumes — covered streams, production site, and per-stream effective
//! rates. Their *tags* are mere reconstruction labels scoped to one
//! refinement, so the entry records the original invocation's tags and a
//! hit [re-tags](retag) the stored tree into the caller's namespace.
//!
//! Planning under a [`LoadModel`](crate::load::LoadModel) bypasses the
//! cache entirely: standing load mutates between queries, so equal keys
//! would not mean equal penalties.

use crate::engine::{ClusterPlanner, InputKind, PlannerInput, PlannerOutput};
use crate::placed::PlacedTree;
use crate::stats::SearchStats;
use dsq_hierarchy::{ClusterId, Hierarchy, HierarchyDelta};
use dsq_net::{ChangedEntries, DistanceMatrix, NodeId};
use dsq_query::{Catalog, DerivedId, InputSet, LeafSource, StreamId};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How adaptation retires memoized subplans when the world changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InvalidationMode {
    /// Retire only the entries the change could have affected (dirty
    /// clusters / drifted distances / touched streams); everything else
    /// keeps hitting across the adaptation.
    #[default]
    Scoped,
    /// Drop every entry on every change — the original global epoch bump.
    /// Kept as the always-sound reference the differential harness
    /// (`tests/incremental_equivalence.rs`) compares [`Scoped`] against.
    ///
    /// [`Scoped`]: InvalidationMode::Scoped
    Flush,
}

/// Committed entries are capped; beyond this the cache stops accepting new
/// stages (existing entries keep hitting).
const MAX_ENTRIES: usize = 1 << 18;

/// Canonical form of one planner input, as it affects the DP outcome.
///
/// `seen` locations are *not* part of the key: `plan_in_cluster` derives
/// them from the input's true location and the hierarchy, both covered by
/// the epoch.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum InputKey {
    /// A base stream: location comes from the catalog (epoch-covered), the
    /// effective rate folds in this query's selection predicates.
    Base { stream: StreamId, rate_bits: u64 },
    /// A reused derived stream: every field that feeds costing. Covered
    /// streams are keyed as canonical word bitsets, so hashing and equality
    /// are word comparisons rather than sorted-id-vector walks.
    Derived {
        id: DerivedId,
        covered: InputSet,
        rate_bits: u64,
        host: NodeId,
    },
    /// Another fragment's output. The tag is *not* keyed (it is a
    /// reconstruction label, remapped on hit); the DP sees only the covered
    /// streams, where they are produced, and their effective rates.
    External {
        covered: InputSet,
        location: NodeId,
        rate_bits: Vec<u64>,
    },
}

/// Cache key for one `plan_in_cluster` invocation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PlanKey {
    epoch: u64,
    cluster: ClusterId,
    dest: NodeId,
    inputs: Vec<InputKey>,
}

impl PlanKey {
    /// The cluster the invocation planned in.
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }
}

/// Memoized result of one invocation: the planner's output (possibly
/// infeasible) plus the [`SearchStats`] delta it recorded, replayed verbatim
/// on every hit so accounting stays bit-identical to recomputation.
pub struct CacheEntry {
    /// The planner's result (`None` = infeasible, cached too).
    pub output: Option<PlannerOutput>,
    /// Stats recorded by the original invocation.
    pub stats: SearchStats,
    /// Tags of the original invocation's `External` inputs, in input
    /// order. A hit whose own tags differ re-tags the stored tree
    /// positionally (the key guarantees the input lists line up).
    pub ext_tags: Vec<usize>,
    /// What the invocation depended on, for scoped retirement.
    pub deps: EntryDeps,
}

/// Everything a memoized `plan_in_cluster` outcome depends on beyond its
/// key, recorded at stage time so adaptation can retire exactly the entries
/// a change could have affected (see the `retire_*` methods).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EntryDeps {
    /// Nodes whose pairwise distances the DP consulted: the cluster's
    /// members, every input's *seen* (representative) location, and the seen
    /// destination. Sorted and deduplicated. A distance change between any
    /// two nodes outside this set cannot move the cached outcome.
    pub metric_nodes: Vec<NodeId>,
    /// The [`metric_nodes`](Self::metric_nodes) that are not members of
    /// the entry's cluster: representatives of inputs and of the
    /// destination seen from outside it. Sorted and deduplicated. The
    /// dependency index posts only these; the members are reached through
    /// the cluster the entry is keyed at.
    pub outside: Vec<NodeId>,
    /// Raw (pre-representative) locations the invocation referenced: input
    /// production sites plus the actual destination. Membership surgery
    /// invalidates the entry iff one of these went inactive or has a dirty
    /// cluster on its ancestor chain (the representatives may have moved).
    pub locations: Vec<NodeId>,
    /// Base streams covered by the inputs. Catalog changes (rates, origin
    /// nodes, pairwise selectivities) retire entries covering a touched
    /// stream — selectivities are *not* part of the key, so such entries
    /// would otherwise keep hitting with stale costs.
    pub streams: Vec<StreamId>,
}

/// Tags of the `External` inputs, in input order.
pub fn external_tags(inputs: &[PlannerInput]) -> Vec<usize> {
    inputs
        .iter()
        .filter_map(|i| match &i.kind {
            InputKind::External { tag } => Some(*tag),
            InputKind::Leaf(_) => None,
        })
        .collect()
}

/// Rewrite a cached tree's `External` tags into the hitting caller's
/// namespace: `from[i]` (the entry's original tag at position `i`) becomes
/// `to[i]`. Leaves and join placements are untouched — the tag is the only
/// caller-scoped bit of a [`PlacedTree`].
///
/// Tag labels need not be unique: when `from` contains the same label at
/// several positions (two externals with identical or merely same-labeled
/// content), occurrences are matched *in traversal order* — the k-th
/// `External` node carrying that label maps to the k-th position holding
/// it. This is exactly input order, because planner trees reference their
/// external inputs in the same left-to-right walk that
/// [`external_tags`] / `collect_inputs` use. A first-match rewrite would
/// instead collapse every duplicate onto `to[first]`, silently dropping
/// the caller's other fragment.
pub fn retag(tree: &PlacedTree, from: &[usize], to: &[usize]) -> PlacedTree {
    debug_assert_eq!(from.len(), to.len());
    let mut positions: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, &t) in from.iter().enumerate() {
        positions.entry(t).or_default().push(i);
    }
    fn go(
        tree: &PlacedTree,
        positions: &HashMap<usize, Vec<usize>>,
        cursor: &mut HashMap<usize, usize>,
        to: &[usize],
    ) -> PlacedTree {
        match tree {
            PlacedTree::Leaf(l) => PlacedTree::Leaf(l.clone()),
            PlacedTree::External {
                tag,
                covered,
                location,
            } => {
                let occ = positions
                    .get(tag)
                    .expect("cached tree only references its own external inputs");
                let c = cursor.entry(*tag).or_insert(0);
                // A planner tree consumes each input once; a tree that
                // references a label more often than it has positions (only
                // possible for a unique label) keeps mapping to the last
                // position, matching the old behavior for unique tags.
                let i = occ[(*c).min(occ.len() - 1)];
                *c += 1;
                PlacedTree::External {
                    tag: to[i],
                    covered: covered.clone(),
                    location: *location,
                }
            }
            PlacedTree::Join { left, right, node } => PlacedTree::Join {
                left: Box::new(go(left, positions, cursor, to)),
                right: Box::new(go(right, positions, cursor, to)),
                node: *node,
            },
        }
    }
    go(tree, &positions, &mut HashMap::new(), to)
}

#[derive(Default)]
struct CacheInner {
    /// Keys are shared with [`DepIndex`]'s handles, never cloned for it.
    committed: HashMap<Arc<PlanKey>, Arc<CacheEntry>>,
    staged: Vec<(PlanKey, Arc<CacheEntry>)>,
    deps: DepIndex,
}

impl CacheInner {
    /// Drop the committed entry under `key`, keeping the index in step.
    fn remove(&mut self, key: &PlanKey) {
        if let Some((key, entry)) = self.committed.remove_entry(key) {
            self.deps.remove(&key, &entry.deps);
        }
    }
}

/// A committed key as the dependency index holds it: the committed map's
/// own `Arc`, hashed and compared by address, so a posting costs a pointer.
#[derive(Clone)]
struct Handle(Arc<PlanKey>);

impl PartialEq for Handle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Handle {}

impl Hash for Handle {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(Arc::as_ptr(&self.0) as usize);
    }
}

/// Hashes a [`Handle`]'s address with one multiply (Fibonacci hashing):
/// addresses are distinct and the high bits of the product spread them.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_usize(&mut self, n: usize) {
        self.0 = (n as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(32);
    }
}

type Postings = HashSet<Handle, BuildHasherDefault<AddrHasher>>;

/// Which committed entries a membership or distance change can reach,
/// posted from each entry's key, [`EntryDeps::locations`] and
/// [`EntryDeps::outside`] and emptied as entries leave, whichever path
/// retires them. Staged entries are not indexed: they are few, and the
/// indexed retirements scan them.
#[derive(Default)]
struct DepIndex {
    /// By node id: the entries that reference the node as a raw location.
    by_location: Vec<Postings>,
    /// By node id: the entries that consulted the node's distances from
    /// outside their cluster. With `by_cluster` (the members' side) this
    /// names every entry with the node among its metric nodes, at
    /// O(inputs) postings an entry rather than O(members).
    by_outside: Vec<Postings>,
    /// The entries keyed at each cluster.
    by_cluster: HashMap<ClusterId, Postings>,
    /// Changes not applied to the postings yet, oldest first: `true` to
    /// post an entry, `false` to drop its postings. Commits and scanning
    /// retirements only append here, and the index's readers, membership
    /// and changed-entry retirement, apply them first — so planning pays a
    /// push per entry rather than a handful of scattered hash updates.
    /// Applied early once it outgrows the committed map.
    pending: Vec<(bool, Handle, Arc<CacheEntry>)>,
}

/// Post `h` under each node of `nodes` in a by-node index.
fn post(index: &mut Vec<Postings>, nodes: &[NodeId], h: &Handle) {
    for n in nodes {
        if index.len() <= n.index() {
            index.resize_with(n.index() + 1, Postings::default);
        }
        index[n.index()].insert(h.clone());
    }
}

/// Drop `h` from under each node of `nodes` in a by-node index.
fn unpost(index: &mut [Postings], nodes: &[NodeId], h: &Handle) {
    for n in nodes {
        index[n.index()].remove(h);
    }
}

impl DepIndex {
    /// Apply every pending change, in order.
    fn catch_up(&mut self) {
        for (post, Handle(key), entry) in std::mem::take(&mut self.pending) {
            if post {
                self.insert(&key, &entry.deps);
            } else {
                self.remove(&key, &entry.deps);
            }
        }
    }

    /// Apply the pending changes if they outnumber `live` entries.
    fn bound(&mut self, live: usize) {
        if self.pending.len() > live {
            self.catch_up();
        }
    }

    fn insert(&mut self, key: &Arc<PlanKey>, deps: &EntryDeps) {
        let h = Handle(Arc::clone(key));
        post(&mut self.by_location, &deps.locations, &h);
        post(&mut self.by_outside, &deps.outside, &h);
        self.by_cluster.entry(key.cluster).or_default().insert(h);
    }

    fn remove(&mut self, key: &Arc<PlanKey>, deps: &EntryDeps) {
        let h = Handle(Arc::clone(key));
        unpost(&mut self.by_location, &deps.locations, &h);
        unpost(&mut self.by_outside, &deps.outside, &h);
        if let Entry::Occupied(mut at) = self.by_cluster.entry(key.cluster) {
            at.get_mut().remove(&h);
            if at.get().is_empty() {
                at.remove();
            }
        }
    }

    /// Every committed entry [`membership_stale`] can hold stale after
    /// `delta` (non-full) left `hierarchy`: the entries keyed at a dirty
    /// cluster, those referencing an inactive node, and those with a
    /// location under a dirty cluster that is planned at or above that
    /// cluster's level — the only levels whose ancestor chain reaches it.
    fn membership_candidates(&self, hierarchy: &Hierarchy, delta: &HierarchyDelta) -> Postings {
        let mut out = Postings::default();
        for id in &delta.dirty {
            if let Some(at) = self.by_cluster.get(id) {
                out.extend(at.iter().cloned());
            }
        }
        for (n, at) in self.by_location.iter().enumerate() {
            if !at.is_empty() && !hierarchy.is_active(NodeId(n as u32)) {
                out.extend(at.iter().cloned());
            }
        }
        for id in &delta.dirty {
            let exists =
                id.level <= hierarchy.height() && id.index < hierarchy.level(id.level).len();
            if !exists {
                continue;
            }
            for node in hierarchy.subtree_nodes(*id) {
                let Some(at) = self.by_location.get(node.index()) else {
                    continue;
                };
                out.extend(at.iter().filter(|h| h.0.cluster.level >= id.level).cloned());
            }
        }
        out
    }

    /// Every committed entry with a metric node in `cover`: those that
    /// consulted a cover node from outside their cluster, and those keyed
    /// at a cluster the node is a member of. An entry's cluster has the
    /// members it was planned with — membership retirement drops an entry
    /// once its cluster changes — so the current hierarchy names them.
    fn metric_candidates(&self, hierarchy: &Hierarchy, cover: &[NodeId]) -> Postings {
        let mut out = Postings::default();
        for &node in cover {
            if let Some(at) = self.by_outside.get(node.index()) {
                out.extend(at.iter().cloned());
            }
            for id in hierarchy.member_clusters(node) {
                if let Some(at) = self.by_cluster.get(&id) {
                    out.extend(at.iter().cloned());
                }
            }
        }
        out
    }
}

/// Whether membership surgery that left `hierarchy` with `delta` (non-full)
/// reached the entry under `key`; see [`PlanCache::retire_membership`].
fn membership_stale(
    hierarchy: &Hierarchy,
    delta: &HierarchyDelta,
    key: &PlanKey,
    entry: &CacheEntry,
) -> bool {
    delta.dirty.contains(&key.cluster)
        || entry.deps.locations.iter().any(|&loc| {
            !hierarchy.is_active(loc)
                || hierarchy
                    .ancestor_chain(loc, key.cluster.level)
                    .iter()
                    .any(|c| delta.dirty.contains(c))
        })
}

/// A shared, epoch-versioned subplan cache. Disabled by default; enable via
/// [`set_enabled`](PlanCache::set_enabled) (the `dsqctl` flags and the
/// parallel driver do this).
pub struct PlanCache {
    enabled: AtomicBool,
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    retired: AtomicU64,
    holds: AtomicU64,
    inner: Mutex<CacheInner>,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("enabled", &self.is_enabled())
            .field("epoch", &self.epoch())
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("retired", &self.retired())
            .finish()
    }
}

impl PlanCache {
    /// A fresh, disabled cache at epoch 0.
    pub fn new() -> Self {
        PlanCache {
            enabled: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            holds: AtomicU64::new(0),
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// A fresh cache with the given enablement (used when re-deriving an
    /// environment, so the operator's choice survives reclustering).
    pub fn new_with_enabled(enabled: bool) -> Self {
        let c = Self::new();
        c.set_enabled(enabled);
        c
    }

    /// Whether lookups and stages are active.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn the cache on or off (off also means `key_for` returns `None`,
    /// so planning takes the exact pre-cache path).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Current epoch (bumped by [`invalidate`](PlanCache::invalidate)).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Lifetime hit count (out-of-band; the deterministic per-run counters
    /// are the `planner.cache_hits/misses` dsq-obs counters).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count (cacheable invocations that recomputed).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime count of entries dropped by invalidation or scoped
    /// retirement (out-of-band, like [`hits`](PlanCache::hits)).
    pub fn retired(&self) -> u64 {
        self.retired.load(Ordering::Relaxed)
    }

    /// Number of committed entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().committed.len()
    }

    /// True when no entries are committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The committed keys, in no particular order.
    pub fn keys(&self) -> Vec<PlanKey> {
        let inner = self.inner.lock().unwrap();
        inner.committed.keys().map(|k| PlanKey::clone(k)).collect()
    }

    /// The committed entries with their keys, in no particular order.
    pub fn entries(&self) -> Vec<(PlanKey, Arc<CacheEntry>)> {
        let inner = self.inner.lock().unwrap();
        inner
            .committed
            .iter()
            .map(|(k, e)| (PlanKey::clone(k), Arc::clone(e)))
            .collect()
    }

    /// Panics unless the dependency index holds exactly what rebuilding it
    /// from the committed entries gives — no posting missing, none left
    /// behind by a retired entry.
    pub fn check_index(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.deps.catch_up();
        let mut rebuilt = DepIndex::default();
        for (key, entry) in &inner.committed {
            rebuilt.insert(key, &entry.deps);
        }
        let held = &inner.deps;
        let nonempty = |by_node: &[Postings]| -> Vec<(usize, Postings)> {
            by_node
                .iter()
                .enumerate()
                .filter(|(_, at)| !at.is_empty())
                .map(|(n, at)| (n, at.clone()))
                .collect()
        };
        assert!(
            nonempty(&held.by_location) == nonempty(&rebuilt.by_location),
            "location index differs from the committed entries"
        );
        assert!(
            nonempty(&held.by_outside) == nonempty(&rebuilt.by_outside),
            "outside-node index differs from the committed entries"
        );
        assert!(
            held.by_cluster == rebuilt.by_cluster,
            "cluster index differs from the committed entries"
        );
    }

    /// Drop every entry (committed and staged) and advance the epoch, so
    /// keys built before the invalidation can never match again. Called on
    /// every adaptation that changes distances, the hierarchy, or the
    /// catalog.
    pub fn invalidate(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        let dropped = (inner.committed.len() + inner.staged.len()) as u64;
        self.retired.fetch_add(dropped, Ordering::Relaxed);
        inner.committed.clear();
        inner.staged.clear();
        inner.deps = DepIndex::default();
        dsq_obs::counter("planner.cache_invalidations", 1);
    }

    /// Drop exactly the entries matching `stale`, committed and staged,
    /// without touching the epoch (surviving keys keep matching). Returns
    /// the number retired and emits it on the `planner.cache_retired`
    /// counter. Call only at adaptation points — never while planning tasks
    /// are in flight.
    fn retire_where(&self, stale: impl Fn(&PlanKey, &CacheEntry) -> bool) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let before = inner.committed.len() + inner.staged.len();
        let CacheInner {
            committed,
            staged,
            deps,
        } = &mut *inner;
        committed.retain(|k, e| {
            let gone = stale(k, e);
            if gone {
                deps.pending
                    .push((false, Handle(Arc::clone(k)), Arc::clone(e)));
            }
            !gone
        });
        deps.bound(committed.len());
        staged.retain(|(k, e)| !stale(k, e));
        let retired = (before - inner.committed.len() - inner.staged.len()) as u64;
        self.count_retired(retired)
    }

    /// Account `retired` entries as dropped; returns it.
    fn count_retired(&self, retired: u64) -> u64 {
        self.retired.fetch_add(retired, Ordering::Relaxed);
        if retired > 0 {
            dsq_obs::counter("planner.cache_retired", retired);
        }
        retired
    }

    /// Scoped retirement after hierarchy membership surgery (crash /
    /// rejoin). `delta` is the fingerprint diff across the surgery
    /// ([`dsq_hierarchy::HierarchySnapshot::diff`]); `hierarchy` is the
    /// *post-surgery* structure. An entry is stale iff
    ///
    /// * its own cluster is dirty (members/coordinator changed, or the id
    ///   was remapped by a swap-remove), or
    /// * a referenced raw location went inactive, or
    /// * a referenced raw location has a dirty cluster on its ancestor chain
    ///   up to the entry's level — `seen_in` derives representatives from
    ///   the coordinators along exactly that chain, so an unchanged chain
    ///   (content-identical clusters at the same ids) reproduces the same
    ///   representatives the entry was planned with.
    ///
    /// The dependency index first catches up with the commits and
    /// retirements since the last call; then only the committed entries it
    /// names as candidates
    /// are tested (their count goes to the `planner.cache_membership_visited`
    /// counter), so a change costs the entries it could reach, not the
    /// cache. Returns the number of entries retired.
    pub fn retire_membership(&self, hierarchy: &Hierarchy, delta: &HierarchyDelta) -> u64 {
        if delta.is_empty() {
            return 0;
        }
        if delta.full {
            // Height changed: ClusterId levels shifted meaning entirely.
            let n = {
                let inner = self.inner.lock().unwrap();
                (inner.committed.len() + inner.staged.len()) as u64
            };
            self.invalidate();
            if n > 0 {
                dsq_obs::counter("planner.cache_retired", n);
            }
            return n;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.deps.catch_up();
        let candidates = inner.deps.membership_candidates(hierarchy, delta);
        dsq_obs::counter("planner.cache_membership_visited", candidates.len() as u64);
        let before = inner.committed.len() + inner.staged.len();
        for Handle(key) in candidates {
            if membership_stale(hierarchy, delta, &key, &inner.committed[&key]) {
                inner.remove(&key);
            }
        }
        inner
            .staged
            .retain(|(k, e)| !membership_stale(hierarchy, delta, k, e));
        let retired = (before - inner.committed.len() - inner.staged.len()) as u64;
        drop(inner);
        self.count_retired(retired)
    }

    /// Scoped retirement after a distance change: drop entries whose DP
    /// consulted a *pair* of nodes whose distance moved between `old` and
    /// `new` (compared bit-exactly, in either direction). The check is
    /// pair-wise within each entry's [`EntryDeps::metric_nodes`], not
    /// node-wise: degrading a degree-one node's only link changes its
    /// distance to *every* other node — so every node is an endpoint of
    /// some changed pair — yet an entry that never consulted a distance
    /// involving that node saw only unchanged values and keeps hitting. Two
    /// identical matrices retire nothing — a monitor round that rebuilt the
    /// matrix to the same values keeps the whole cache. Returns the number
    /// of entries retired.
    ///
    /// This arm diffs both matrices and tests every entry, so it costs n²
    /// whatever changed; fault surgery retires through
    /// [`retire_changed`](Self::retire_changed) instead, and
    /// `tests/cache_props.rs` holds the two to the same keys.
    pub fn retire_metric(&self, old: &DistanceMatrix, new: &DistanceMatrix) -> u64 {
        let changed = ChangedEntries::between(old, new);
        if changed.is_empty() {
            return 0;
        }
        self.retire_where(|_, entry| changed.touches_pair(&entry.deps.metric_nodes))
    }

    /// [`retire_metric`](Self::retire_metric) driven by the repair's own
    /// record of the entries it changed instead of a scan of two matrices:
    /// the same rule — an entry goes iff two of its
    /// [`EntryDeps::metric_nodes`] form a changed pair
    /// ([`ChangedEntries::pair_changed`]) — at a cost sized by the change.
    /// Every changed pair has an endpoint in the record's
    /// [cover](ChangedEntries::cover), so the dependency index (caught up
    /// first) names the only candidates: the entries with a metric node in
    /// the cover, found through `hierarchy`, the structure the entries were
    /// planned against. Their count goes to the
    /// `planner.cache_metric_visited` counter. Returns the number of
    /// entries retired.
    pub fn retire_changed(&self, hierarchy: &Hierarchy, changed: &ChangedEntries) -> u64 {
        if changed.is_empty() {
            return 0;
        }
        let stale = |entry: &CacheEntry| changed.touches_pair(&entry.deps.metric_nodes);
        let mut inner = self.inner.lock().unwrap();
        inner.deps.catch_up();
        let candidates = inner.deps.metric_candidates(hierarchy, changed.cover());
        dsq_obs::counter("planner.cache_metric_visited", candidates.len() as u64);
        let before = inner.committed.len() + inner.staged.len();
        for Handle(key) in candidates {
            if stale(&inner.committed[&key]) {
                inner.remove(&key);
            }
        }
        inner.staged.retain(|(_, e)| !stale(e));
        let retired = (before - inner.committed.len() - inner.staged.len()) as u64;
        drop(inner);
        self.count_retired(retired)
    }

    /// Scoped retirement after a catalog change: drop entries covering a
    /// touched stream (see [`catalog_dirty_streams`]). Returns the number of
    /// entries retired.
    pub fn retire_catalog(&self, dirty: &HashSet<StreamId>) -> u64 {
        if dirty.is_empty() {
            return 0;
        }
        self.retire_where(|_, entry| entry.deps.streams.iter().any(|s| dirty.contains(s)))
    }

    /// Build the cache key for an invocation, or `None` when the invocation
    /// must bypass the cache (cache disabled or load model attached).
    pub fn key_for(
        &self,
        planner: &ClusterPlanner<'_>,
        cluster: ClusterId,
        inputs: &[PlannerInput],
        dest: NodeId,
    ) -> Option<PlanKey> {
        if !self.is_enabled() || planner.has_load() {
            return None;
        }
        let mut keys = Vec::with_capacity(inputs.len());
        for input in inputs {
            match &input.kind {
                InputKind::Leaf(LeafSource::Base(id)) => keys.push(InputKey::Base {
                    stream: *id,
                    rate_bits: planner
                        .query()
                        .effective_rate(planner.catalog(), *id)
                        .to_bits(),
                }),
                InputKind::Leaf(LeafSource::Derived {
                    id,
                    covered,
                    rate,
                    host,
                }) => keys.push(InputKey::Derived {
                    id: *id,
                    covered: InputSet::from_stream_set(covered),
                    rate_bits: rate.to_bits(),
                    host: *host,
                }),
                InputKind::External { .. } => keys.push(InputKey::External {
                    covered: InputSet::from_stream_set(&input.covered),
                    location: input.location,
                    rate_bits: input
                        .covered
                        .iter()
                        .map(|s| {
                            planner
                                .query()
                                .effective_rate(planner.catalog(), s)
                                .to_bits()
                        })
                        .collect(),
                }),
            }
        }
        Some(PlanKey {
            epoch: self.epoch(),
            cluster,
            dest,
            inputs: keys,
        })
    }

    /// Look `key` up in the **committed** map (staged entries are
    /// invisible, by design — see the module docs).
    pub fn lookup(&self, key: &PlanKey) -> Option<Arc<CacheEntry>> {
        let hit = self.inner.lock().unwrap().committed.get(key).cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Park a freshly computed entry for the next [`commit`](PlanCache::commit).
    /// Entries staged under a pre-invalidation epoch are discarded at commit
    /// time (their key epoch no longer matches lookups).
    pub fn stage(&self, key: PlanKey, entry: Arc<CacheEntry>) {
        let mut inner = self.inner.lock().unwrap();
        if inner.committed.len() + inner.staged.len() < MAX_ENTRIES {
            inner.staged.push((key, entry));
        }
    }

    /// Promote staged entries into the committed map (first stage of a key
    /// wins; duplicates carry identical payloads). Call only at structural
    /// barriers — never while planning tasks are in flight. No-op while a
    /// [`hold`](PlanCache::hold) is live (the multi-query driver suspends
    /// the per-query commits inside its waves and commits at wave barriers
    /// itself, via [`barrier_commit`](PlanCache::barrier_commit)).
    pub fn commit(&self) {
        if self.holds.load(Ordering::Relaxed) > 0 {
            return;
        }
        self.barrier_commit();
    }

    /// Promote staged entries unconditionally — the caller asserts no
    /// planning task is in flight (a wave barrier).
    pub fn barrier_commit(&self) {
        let epoch = self.epoch();
        let mut inner = self.inner.lock().unwrap();
        let CacheInner {
            committed,
            staged,
            deps,
        } = &mut *inner;
        for (key, entry) in std::mem::take(staged) {
            if key.epoch == epoch {
                if let Entry::Vacant(at) = committed.entry(Arc::new(key)) {
                    deps.pending
                        .push((true, Handle(Arc::clone(at.key())), Arc::clone(&entry)));
                    at.insert(entry);
                }
            }
        }
        deps.bound(committed.len());
    }

    /// Suspend [`commit`](PlanCache::commit) until the guard drops. Taken
    /// by the multi-query driver around its waves so that per-query commit
    /// points inside a wave (which would race with concurrently planning
    /// queries) become no-ops.
    pub fn hold(&self) -> CommitHold<'_> {
        self.holds.fetch_add(1, Ordering::Relaxed);
        CommitHold { cache: self }
    }
}

/// RAII guard returned by [`PlanCache::hold`].
pub struct CommitHold<'a> {
    cache: &'a PlanCache,
}

impl Drop for CommitHold<'_> {
    fn drop(&mut self) {
        self.cache.holds.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Nodes involved in at least one changed pairwise distance between two
/// matrices (compared bit-exactly, in either direction). By construction,
/// the distance between two nodes *outside* the returned set is unchanged —
/// which is what makes deployment-intersection a sound dirty test: an
/// untouched deployment's edges all run between clean nodes, so its cost is
/// bit-identical too.
pub fn metric_dirty_nodes(old: &DistanceMatrix, new: &DistanceMatrix) -> HashSet<NodeId> {
    let mut dirty = HashSet::new();
    for (a, b) in ChangedEntries::between(old, new).iter() {
        dirty.insert(a);
        dirty.insert(b);
    }
    dirty
}

/// Streams whose planning-relevant statistics differ between two catalog
/// versions: a changed rate or origin node dirties the stream; a changed
/// pairwise join selectivity dirties both endpoints (selectivities are not
/// part of the cache key, so entries covering either stream must go). A
/// changed stream count dirties everything.
pub fn catalog_dirty_streams(old: &Catalog, new: &Catalog) -> HashSet<StreamId> {
    let mut dirty = HashSet::new();
    if old.len() != new.len() {
        for i in 0..old.len().max(new.len()) {
            dirty.insert(StreamId(i as u32));
        }
        return dirty;
    }
    for (o, n) in old.streams().iter().zip(new.streams()) {
        if o.rate.to_bits() != n.rate.to_bits() || o.node != n.node {
            dirty.insert(o.id);
        }
    }
    for i in 0..old.len() {
        let a = StreamId(i as u32);
        for j in (i + 1)..old.len() {
            let b = StreamId(j as u32);
            if old.selectivity(a, b).to_bits() != new.selectivity(a, b).to_bits() {
                dirty.insert(a);
                dirty.insert(b);
            }
        }
    }
    dirty
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_query::{Catalog, Query, QueryId, Schema, StreamSet};

    fn setup() -> (Catalog, Query) {
        let mut c = Catalog::new();
        let a = c.add_stream("A", 10.0, NodeId(0), Schema::default());
        let b = c.add_stream("B", 4.0, NodeId(3), Schema::default());
        c.set_selectivity(a, b, 0.1);
        let q = Query::join(QueryId(0), [a, b], NodeId(2));
        (c, q)
    }

    fn cluster() -> ClusterId {
        ClusterId { level: 2, index: 0 }
    }

    #[test]
    fn a_changed_selectivity_dirties_both_endpoints_only() {
        let mut old = Catalog::new();
        for i in 0..6 {
            old.add_stream(format!("S{i}"), 2.0, NodeId(0), Schema::default());
        }
        old.set_selectivity(StreamId(1), StreamId(4), 0.3);
        assert!(catalog_dirty_streams(&old, &old.clone()).is_empty());
        let mut new = old.clone();
        new.set_selectivity(StreamId(4), StreamId(1), 0.2);
        new.set_selectivity(StreamId(5), StreamId(0), 0.5);
        let want: HashSet<StreamId> = [0, 1, 4, 5].into_iter().map(StreamId).collect();
        assert_eq!(catalog_dirty_streams(&old, &new), want);
    }

    #[test]
    fn an_entry_whose_only_changed_pair_runs_backwards_is_retired() {
        let net = dsq_net::TransitStubConfig::paper_64().generate(7).network;
        let mut env = crate::Environment::build(net, 8);
        env.isolate_cache(true);
        let wl = dsq_workload::WorkloadGenerator::new(
            dsq_workload::WorkloadConfig {
                streams: 12,
                queries: 6,
                joins_per_query: 2..=3,
                ..dsq_workload::WorkloadConfig::default()
            },
            3,
        )
        .generate(&env.network);
        crate::optimize_all(
            &env,
            &crate::TopDown::new(&env),
            &wl.catalog,
            &wl.queries,
            &dsq_query::ReuseRegistry::new(),
            &crate::ParallelConfig::serial(),
        );
        let entries = env.plan_cache.entries();
        let (key, entry) = entries
            .iter()
            .find(|(_, e)| e.deps.metric_nodes.len() >= 2)
            .expect("planning cached a multi-node cell");
        let m = &entry.deps.metric_nodes;
        let (u, v) = (m[0], m[m.len() - 1]);
        // Only the entry (v, u) moved, v > u: the row of the smaller node,
        // which a test of `u < v` pairs reads, holds nothing.
        let changed: ChangedEntries = [(v, u)].into_iter().collect();
        assert!(u < v && changed.row(u).is_empty());
        let both =
            |e: &CacheEntry| e.deps.metric_nodes.contains(&u) && e.deps.metric_nodes.contains(&v);
        let want = entries.iter().filter(|(_, e)| both(e)).count() as u64;
        assert_eq!(
            env.plan_cache.retire_changed(&env.hierarchy, &changed),
            want
        );
        assert!(!env.plan_cache.keys().contains(key), "the entry survived");
        assert_eq!(env.plan_cache.len() as u64, entries.len() as u64 - want);
        env.plan_cache.check_index();
    }

    #[test]
    fn disabled_cache_yields_no_keys() {
        let (c, q) = setup();
        let planner = ClusterPlanner::new(&c, &q);
        let cache = PlanCache::new();
        let inputs = vec![PlannerInput::base(&c, StreamId(0))];
        assert!(cache
            .key_for(&planner, cluster(), &inputs, NodeId(2))
            .is_none());
        cache.set_enabled(true);
        assert!(cache
            .key_for(&planner, cluster(), &inputs, NodeId(2))
            .is_some());
    }

    #[test]
    fn external_inputs_are_keyed_by_content_not_tag() {
        let (c, q) = setup();
        let planner = ClusterPlanner::new(&c, &q);
        let cache = PlanCache::new_with_enabled(true);
        let with_tag = |tag: usize, loc: NodeId| {
            vec![
                PlannerInput::base(&c, StreamId(0)),
                PlannerInput::external(tag, StreamSet::singleton(StreamId(1)), loc),
            ]
        };
        let k7 = cache
            .key_for(&planner, cluster(), &with_tag(7, NodeId(1)), NodeId(2))
            .unwrap();
        let k9 = cache
            .key_for(&planner, cluster(), &with_tag(9, NodeId(1)), NodeId(2))
            .unwrap();
        assert_eq!(k7, k9, "tags are labels, not key material");
        let moved = cache
            .key_for(&planner, cluster(), &with_tag(7, NodeId(3)), NodeId(2))
            .unwrap();
        assert_ne!(k7, moved, "production site is key material");
    }

    #[test]
    fn retag_rewrites_only_external_tags() {
        let tree = PlacedTree::Join {
            left: Box::new(PlacedTree::Leaf(dsq_query::LeafSource::Base(StreamId(0)))),
            right: Box::new(PlacedTree::External {
                tag: 7,
                covered: StreamSet::singleton(StreamId(1)),
                location: NodeId(1),
            }),
            node: NodeId(2),
        };
        let out = retag(&tree, &[7], &[42]);
        match out {
            PlacedTree::Join { left, right, node } => {
                assert_eq!(node, NodeId(2));
                assert!(matches!(*left, PlacedTree::Leaf(_)));
                match *right {
                    PlacedTree::External { tag, location, .. } => {
                        assert_eq!(tag, 42);
                        assert_eq!(location, NodeId(1));
                    }
                    other => panic!("expected External, got {other:?}"),
                }
            }
            other => panic!("expected Join, got {other:?}"),
        }
    }

    #[test]
    fn retag_maps_duplicate_labels_by_occurrence() {
        // Two external inputs share the label 7 (content-keyed duplicates):
        // the first occurrence in traversal order must take the caller's
        // first tag, the second the caller's second — not both the first.
        let ext = |tag: usize, s: u32, n: u32| PlacedTree::External {
            tag,
            covered: StreamSet::singleton(StreamId(s)),
            location: NodeId(n),
        };
        let tree = PlacedTree::Join {
            left: Box::new(ext(7, 0, 1)),
            right: Box::new(ext(7, 1, 4)),
            node: NodeId(2),
        };
        let out = retag(&tree, &[7, 7], &[40, 41]);
        match out {
            PlacedTree::Join { left, right, .. } => match (*left, *right) {
                (PlacedTree::External { tag: lt, .. }, PlacedTree::External { tag: rt, .. }) => {
                    assert_eq!((lt, rt), (40, 41));
                }
                other => panic!("expected two Externals, got {other:?}"),
            },
            other => panic!("expected Join, got {other:?}"),
        }
    }

    #[test]
    fn staged_entries_are_invisible_until_commit() {
        let (c, q) = setup();
        let planner = ClusterPlanner::new(&c, &q);
        let cache = PlanCache::new_with_enabled(true);
        let inputs = vec![PlannerInput::base(&c, StreamId(0))];
        let key = cache
            .key_for(&planner, cluster(), &inputs, NodeId(2))
            .unwrap();
        cache.stage(
            key.clone(),
            Arc::new(CacheEntry {
                output: None,
                stats: SearchStats::new(),
                ext_tags: Vec::new(),
                deps: EntryDeps::default(),
            }),
        );
        assert!(cache.lookup(&key).is_none());
        cache.commit();
        assert!(cache.lookup(&key).is_some());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn invalidation_bumps_epoch_and_rejects_stale_keys() {
        let (c, q) = setup();
        let planner = ClusterPlanner::new(&c, &q);
        let cache = PlanCache::new_with_enabled(true);
        let inputs = vec![PlannerInput::base(&c, StreamId(0))];
        let old_key = cache
            .key_for(&planner, cluster(), &inputs, NodeId(2))
            .unwrap();
        cache.stage(
            old_key.clone(),
            Arc::new(CacheEntry {
                output: None,
                stats: SearchStats::new(),
                ext_tags: Vec::new(),
                deps: EntryDeps::default(),
            }),
        );
        cache.invalidate();
        cache.commit(); // stale staged entry must be discarded
        assert!(cache.is_empty());
        assert!(cache.lookup(&old_key).is_none());
        let new_key = cache
            .key_for(&planner, cluster(), &inputs, NodeId(2))
            .unwrap();
        assert_ne!(old_key, new_key, "epoch is part of the key");
    }

    #[test]
    fn rate_bits_distinguish_predicated_queries() {
        let (c, q_plain) = setup();
        // Same sources, but a selection predicate halves A's rate.
        let mut q_sel = Query::join(QueryId(1), q_plain.sources.clone(), NodeId(2));
        q_sel.selections.push(dsq_query::SelectionPredicate {
            stream: StreamId(0),
            attr: "x".into(),
            op: dsq_query::CmpOp::Lt,
            value: 1.0,
            selectivity: 0.5,
        });
        let cache = PlanCache::new_with_enabled(true);
        let inputs = vec![PlannerInput::base(&c, StreamId(0))];
        let k_plain = cache
            .key_for(
                &ClusterPlanner::new(&c, &q_plain),
                cluster(),
                &inputs,
                NodeId(2),
            )
            .unwrap();
        let k_sel = cache
            .key_for(
                &ClusterPlanner::new(&c, &q_sel),
                cluster(),
                &inputs,
                NodeId(2),
            )
            .unwrap();
        assert_ne!(k_plain, k_sel);
    }
}
