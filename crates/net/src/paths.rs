//! Shortest paths: single-source Dijkstra, all-pairs matrices and route
//! extraction.
//!
//! The optimizers consume a [`DistanceMatrix`] (shortest-path *cost* between
//! every pair of nodes — the `c_act` of the paper's Theorem 1), while the
//! flow simulator additionally needs the concrete routes to attribute traffic
//! to individual links, which the [`RouteTable`] provides.
//!
//! All-pairs construction runs over the flat [`CsrGraph`]
//! layout ([`crate::csr::sssp_into`]), whose packed-key queue pops in the
//! same `(dist, node id)` order as the adjacency-list [`dijkstra`] kept here
//! as the independent reference, so the two are bit-identical. The in-place
//! link repair settles its subtrees through that same queue.

use crate::csr::{sssp_into, CsrGraph, SsspScratch};
use crate::graph::{Network, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which link weight a shortest-path computation minimizes.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Metric {
    /// Per-unit-data transfer cost (the paper's communication-cost metric).
    Cost,
    /// Propagation delay in milliseconds (the response-time metric and the
    /// Emulab deployment-time experiments).
    DelayMs,
}

impl Metric {
    /// The link weight this metric minimizes.
    #[inline]
    pub fn weight(self, link: &crate::graph::Link) -> f64 {
        match self {
            Metric::Cost => link.cost,
            Metric::DelayMs => link.delay_ms,
        }
    }
}

#[derive(Copy, Clone, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want the min distance.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source Dijkstra over the adjacency-list layout. Returns per-node
/// distance and predecessor (`u32::MAX` where unreachable or for the source
/// itself).
///
/// This is the *reference* implementation: the all-pairs builders below run
/// the CSR kernel ([`crate::csr::sssp_into`]) instead, which is proven
/// bit-identical to this function by differential tests. It keeps its own
/// comparator heap so that it shares no queue code with what it checks.
pub fn dijkstra(net: &Network, source: NodeId, metric: Metric) -> (Vec<f64>, Vec<u32>) {
    let n = net.len();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred = vec![u32::MAX; n];
    let mut heap = BinaryHeap::with_capacity(n);
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u.index()] {
            continue; // stale entry
        }
        for link in net.neighbors(u) {
            let nd = d + metric.weight(link);
            if nd < dist[link.to.index()] {
                dist[link.to.index()] = nd;
                pred[link.to.index()] = u.0;
                heap.push(HeapEntry {
                    dist: nd,
                    node: link.to,
                });
            }
        }
    }
    (dist, pred)
}

/// Dense all-pairs shortest-path distances under one [`Metric`].
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    n: usize,
    dist: Vec<f64>,
    metric: Metric,
    version: u64,
}

/// Source of [`DistanceMatrix::version`]s: process-wide, so two matrices
/// share a version only when one is an unchanged copy of the other.
static NEXT_VERSION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn next_version() -> u64 {
    NEXT_VERSION.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Node count at or above which the all-pairs builders fan the per-source
/// Dijkstra runs out over the Rayon thread pool. Below it the fork/join
/// overhead outweighs the win (the Figure 9 sweep builds 1000-node
/// matrices; the dsqctl default of 128 stays sequential).
pub const PARALLEL_THRESHOLD: usize = 192;

/// How [`DistanceMatrix::repair_link_change`] serviced a single-link weight
/// change.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LinkRepair {
    /// Only the rows whose shortest-path tree could have used the changed
    /// link were repaired, each over the subtree hanging off the link; all
    /// other entries were left untouched.
    Incremental {
        /// Number of source rows repaired.
        rows: usize,
    },
    /// The full matrix was rebuilt: the link's weight *decreased* (or the
    /// link vanished), so previously non-tight paths through it may now win
    /// and the cheap tightness test cannot bound the affected rows.
    Rebuilt,
}

/// The `(row, column)` entries whose bits one
/// [`DistanceMatrix::repair_link_change`] changed — no entry missing, none
/// spurious — so what a repair costs downstream (subplan retirement,
/// cluster diameters, deployment costs) is sized by the change, not by n².
///
/// The matrix is symmetric in value but not in bits (`(u, v)` and `(v, u)`
/// are summed along different paths), and readers consult both
/// directions, so a pair counts as changed when either of its entries did
/// ([`pair_changed`](Self::pair_changed)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChangedEntries {
    /// `ends[r]` is where row `r`'s run in `cols` ends (it starts where row
    /// `r - 1`'s ends); rows past `ends.len()` changed nothing.
    ends: Vec<usize>,
    /// Changed columns, ascending within each row's run.
    cols: Vec<u32>,
    settled: u64,
    /// Ascending nodes holding an endpoint of every changed entry.
    cover: Vec<NodeId>,
}

impl FromIterator<(NodeId, NodeId)> for ChangedEntries {
    /// A record of the given `(row, column)` entries, in any order.
    fn from_iter<I: IntoIterator<Item = (NodeId, NodeId)>>(entries: I) -> Self {
        let mut entries: Vec<(NodeId, NodeId)> = entries.into_iter().collect();
        entries.sort_unstable();
        entries.dedup();
        let mut out = ChangedEntries::default();
        let mut at = 0;
        while at < entries.len() {
            let row = entries[at].0;
            let start = out.cols.len();
            while at < entries.len() && entries[at].0 == row {
                out.cols.push(entries[at].1 .0);
                at += 1;
            }
            out.close_row(row.index(), start);
        }
        out.finish();
        out
    }
}

impl ChangedEntries {
    /// The entries whose bits differ between two matrices over the same
    /// nodes, found by comparing every entry.
    pub fn between(old: &DistanceMatrix, new: &DistanceMatrix) -> Self {
        assert_eq!(old.len(), new.len(), "matrices must cover the same network");
        let n = old.len().max(1);
        let mut out = ChangedEntries::default();
        for (s, (o, w)) in old.dist.chunks(n).zip(new.dist.chunks(n)).enumerate() {
            out.record_row_diff(s, o, w);
        }
        out.finish();
        out
    }

    /// True when the repair left every distance bit as it was.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Number of changed `(row, column)` entries.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// The changed columns of `row`, ascending (empty when none changed).
    pub fn row(&self, row: NodeId) -> &[u32] {
        let r = row.index();
        match self.ends.get(r) {
            Some(&end) => &self.cols[if r == 0 { 0 } else { self.ends[r - 1] }..end],
            None => &[],
        }
    }

    /// Every changed entry as `(row, column)`, in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.ends.len() as u32).flat_map(move |r| {
            let row = NodeId(r);
            self.row(row).iter().map(move |&c| (row, NodeId(c)))
        })
    }

    /// Work the repair did, in distance entries re-derived: one per node a
    /// restricted Dijkstra settled, a full row for every row that fell back
    /// to a whole single-source run, n² for a rebuild.
    pub fn nodes_settled(&self) -> u64 {
        self.settled
    }

    /// Whether the distance between `u` and `v` changed, read either way.
    /// The one changed-pair test: subplan retirement, the diameter refresh
    /// and deployment re-costing all decide through it, and the
    /// [`cover`](Self::cover) holds an endpoint of every pair it accepts.
    pub fn pair_changed(&self, u: NodeId, v: NodeId) -> bool {
        self.row(u).binary_search(&v.0).is_ok() || self.row(v).binary_search(&u.0).is_ok()
    }

    /// Whether two distinct nodes of the ascending list `nodes` form a
    /// changed pair ([`pair_changed`](Self::pair_changed)), found by
    /// intersecting each node's changed row with the list.
    pub fn touches_pair(&self, nodes: &[NodeId]) -> bool {
        nodes
            .iter()
            .any(|&u| intersects_except(nodes, self.row(u), u))
    }

    /// Ascending nodes holding an endpoint of every changed entry, so a
    /// changed pair always has one in the cover: a reader of distances
    /// between nodes outside it only read values that did not change. Picked
    /// greedily, rows with the most changed entries first; a link repair's
    /// cover is typically the few nodes on the link's far side.
    pub fn cover(&self) -> &[NodeId] {
        &self.cover
    }

    /// Pick [`cover`](Self::cover): visit the rows with the most changed
    /// entries first, and take a row into the cover unless every column it
    /// changed already is. O(entries) after sorting the rows.
    fn finish(&mut self) {
        let mut rows: Vec<(usize, u32)> = (0..self.ends.len() as u32)
            .map(|r| (self.row(NodeId(r)).len(), r))
            .filter(|&(len, _)| len > 0)
            .collect();
        rows.sort_unstable_by_key(|&(len, r)| (std::cmp::Reverse(len), r));
        // Only rows enter the cover, so a column past the rows is outside.
        let mut taken = vec![false; self.ends.len()];
        for (_, r) in rows {
            let row = self.row(NodeId(r));
            if row
                .iter()
                .any(|&c| !taken.get(c as usize).copied().unwrap_or(false))
            {
                taken[r as usize] = true;
            }
        }
        self.cover = (0..taken.len() as u32)
            .filter(|&r| taken[r as usize])
            .map(NodeId)
            .collect();
    }

    /// Close row `s`, whose changed columns are `cols[start..]` in any order.
    /// Rows close in ascending order; the ones skipped changed nothing.
    fn close_row(&mut self, s: usize, start: usize) {
        if self.cols.len() > start {
            self.cols[start..].sort_unstable();
            self.ends.resize(s, start);
            self.ends.push(self.cols.len());
        }
    }

    /// Record row `s` as the columns where `old` and `new` differ in bits.
    fn record_row_diff(&mut self, s: usize, old: &[f64], new: &[f64]) {
        let start = self.cols.len();
        for (c, (o, w)) in old.iter().zip(new).enumerate() {
            if o.to_bits() != w.to_bits() {
                self.cols.push(c as u32);
            }
        }
        self.close_row(s, start);
    }
}

/// Whether two ascending id lists share an element other than `skip`.
/// Leapfrogs: each side binary-searches past the run the other cannot
/// match, so lists over disjoint id ranges — a cluster's nodes against the
/// one stub domain a repair moved — part in a step or two.
fn intersects_except(mut nodes: &[NodeId], mut cols: &[u32], skip: NodeId) -> bool {
    while let (Some(&x), Some(&y)) = (nodes.first(), cols.first()) {
        match x.0.cmp(&y) {
            Ordering::Equal if x == skip => {
                nodes = &nodes[1..];
                cols = &cols[1..];
            }
            Ordering::Equal => return true,
            Ordering::Less => nodes = &nodes[nodes.partition_point(|v| v.0 < y)..],
            Ordering::Greater => cols = &cols[cols.partition_point(|&c| c < x.0)..],
        }
    }
    false
}

/// Per-row scratch of [`DistanceMatrix::repair_link_change`], reused across
/// the rows of one repair.
struct RepairScratch {
    /// Node already collected into `affected` (cleared after each row).
    seen: Vec<bool>,
    stack: Vec<u32>,
    /// The affected nodes of the current row with their pre-repair distance.
    affected: Vec<(u32, f64)>,
    queue: SsspScratch,
}

/// Repair one tight row in place after the weight of link `near`–`far` rose
/// from `old_w`; `far` is the endpoint the row reached *through* the link
/// (`row[near] + old_w == row[far]`, and not the mirror). `net` carries the
/// new weights. Appends the columns whose bits changed to `changed_cols`
/// and returns the number of nodes settled.
///
/// Only the tight-edge descendants of `far` — edge `v→x` is tight iff
/// `row[v] + w == row[x]` under the old weights — can have relied on the
/// link: every other node keeps an all-tight path from the source that
/// avoids it (its Dijkstra predecessor chain), which costs what it did, and
/// no path got cheaper. The descendants are reset, seeded from their
/// neighbours at the new weights and settled by a Dijkstra that never leaves
/// the set (a relaxation out of it cannot beat an already-final distance).
/// Distances are the minimum over paths of the left-to-right `d + w` sum,
/// whichever order nodes settle in, so the row comes out bit-identical to a
/// fresh single-source run. The settling runs on [`sssp_into`]'s queue.
fn resettle_descendants(
    net: &Network,
    metric: Metric,
    row: &mut [f64],
    (near, far, old_w): (NodeId, NodeId, f64),
    scratch: &mut RepairScratch,
    changed_cols: &mut Vec<u32>,
) -> u64 {
    let RepairScratch {
        seen,
        stack,
        affected,
        queue,
    } = scratch;
    seen[far.index()] = true;
    stack.push(far.0);
    while let Some(v) = stack.pop() {
        let dv = row[v as usize];
        affected.push((v, dv));
        for link in net.neighbors(NodeId(v)) {
            let x = link.to.index();
            if seen[x] {
                continue;
            }
            // The changed link is judged at the weight the row was built
            // with (`net` already carries the new one).
            let w = if v == far.0 && link.to == near {
                old_w
            } else {
                metric.weight(link)
            };
            if dv + w == row[x] {
                seen[x] = true;
                stack.push(x as u32);
            }
        }
    }
    for &(v, _) in affected.iter() {
        row[v as usize] = f64::INFINITY;
    }
    for &(v, _) in affected.iter() {
        // Neighbours inside the set are infinite or already carry the value
        // of a real path; either way the minimum is a valid first label.
        let best = net
            .neighbors(NodeId(v))
            .iter()
            .map(|l| row[l.to.index()] + metric.weight(l))
            .fold(f64::INFINITY, f64::min);
        if best < row[v as usize] {
            row[v as usize] = best;
            queue.push(best, v);
        }
    }
    let mut settled = 0;
    while let Some((d, u)) = queue.pop() {
        if d > row[u as usize] {
            continue; // stale entry
        }
        settled += 1;
        for link in net.neighbors(NodeId(u)) {
            let nd = d + metric.weight(link);
            if nd < row[link.to.index()] {
                row[link.to.index()] = nd;
                queue.push(nd, link.to.0);
            }
        }
    }
    for (v, old) in affected.drain(..) {
        seen[v as usize] = false;
        if row[v as usize].to_bits() != old.to_bits() {
            changed_cols.push(v);
        }
    }
    settled
}

/// Unsafe-but-disjoint row writer: hands out `&mut` rows of one flat array to
/// parallel per-source tasks. Sound because every source index is processed
/// by exactly one task (the rows partition the array).
struct RowWriter {
    base: *mut u32,
    n: usize,
}

unsafe impl Sync for RowWriter {}

impl RowWriter {
    /// SAFETY: callers must write each `s` from at most one thread.
    #[allow(clippy::mut_from_ref)]
    unsafe fn row(&self, s: usize) -> &mut [u32] {
        std::slice::from_raw_parts_mut(self.base.add(s * self.n), self.n)
    }
}

impl DistanceMatrix {
    /// Compute all-pairs shortest paths by running Dijkstra from every node.
    ///
    /// The per-source runs are independent, so they are distributed over
    /// the Rayon thread pool for networks of at least
    /// [`PARALLEL_THRESHOLD`] nodes. Each source's row is written whole by
    /// exactly one task, so the parallel and sequential paths are
    /// bit-identical (see `threshold_does_not_change_bits`).
    pub fn build(net: &Network, metric: Metric) -> Self {
        Self::build_with_parallel_threshold(net, metric, PARALLEL_THRESHOLD)
    }

    /// [`build`](Self::build) with an explicit parallelism cut-over, for
    /// tests that must force one path or the other.
    pub fn build_with_parallel_threshold(net: &Network, metric: Metric, threshold: usize) -> Self {
        use rayon::prelude::*;
        let n = net.len();
        let csr = CsrGraph::from_network(net);
        let mut dist = vec![f64::INFINITY; n * n];
        if n >= threshold {
            dist.par_chunks_mut(n.max(1)).enumerate().for_each_init(
                || (SsspScratch::new(n), vec![u32::MAX; n]),
                |(scratch, pred), (s, row_out)| {
                    sssp_into(&csr, metric, NodeId(s as u32), row_out, pred, scratch);
                },
            );
        } else {
            let mut scratch = SsspScratch::new(n);
            let mut pred = vec![u32::MAX; n];
            for (s, row_out) in dist.chunks_mut(n.max(1)).enumerate() {
                sssp_into(
                    &csr,
                    metric,
                    NodeId(s as u32),
                    row_out,
                    &mut pred,
                    &mut scratch,
                );
            }
        }
        DistanceMatrix {
            n,
            dist,
            metric,
            version: next_version(),
        }
    }

    /// Compute the distance matrix *and* the route table from one all-pairs
    /// pass.
    ///
    /// Each per-source Dijkstra already produces both the distance and the
    /// predecessor row; building the two structures separately (as `sim` and
    /// bench callers used to) pays the full APSP cost twice for the same
    /// metric. The fused build writes both rows from the single kernel run
    /// and is bit-identical to the separate builders (pinned by
    /// `fused_build_matches_separate_builds`).
    pub fn build_with_routes(net: &Network, metric: Metric) -> (Self, RouteTable) {
        Self::build_with_routes_with_parallel_threshold(net, metric, PARALLEL_THRESHOLD)
    }

    /// [`build_with_routes`](Self::build_with_routes) with an explicit
    /// parallelism cut-over, for tests that must force one path or the other.
    pub fn build_with_routes_with_parallel_threshold(
        net: &Network,
        metric: Metric,
        threshold: usize,
    ) -> (Self, RouteTable) {
        use rayon::prelude::*;
        let n = net.len();
        let csr = CsrGraph::from_network(net);
        let mut dist = vec![f64::INFINITY; n * n];
        let mut pred = vec![u32::MAX; n * n];
        if n >= threshold {
            let writer = RowWriter {
                base: pred.as_mut_ptr(),
                n,
            };
            dist.par_chunks_mut(n.max(1)).enumerate().for_each_init(
                || SsspScratch::new(n),
                |scratch, (s, row_out)| {
                    // SAFETY: `par_chunks_mut` hands each source row to
                    // exactly one task, so pred row `s` has one writer.
                    let pred_row = unsafe { writer.row(s) };
                    sssp_into(&csr, metric, NodeId(s as u32), row_out, pred_row, scratch);
                },
            );
        } else {
            let mut scratch = SsspScratch::new(n);
            for (s, (row_out, pred_row)) in dist
                .chunks_mut(n.max(1))
                .zip(pred.chunks_mut(n.max(1)))
                .enumerate()
            {
                sssp_into(
                    &csr,
                    metric,
                    NodeId(s as u32),
                    row_out,
                    pred_row,
                    &mut scratch,
                );
            }
        }
        let dm = DistanceMatrix {
            n,
            dist,
            metric,
            version: next_version(),
        };
        (dm, RouteTable { n, pred })
    }

    /// Shortest-path distance between two nodes.
    #[inline]
    pub fn get(&self, a: NodeId, b: NodeId) -> f64 {
        self.dist[a.index() * self.n + b.index()]
    }

    /// The full distance row of source `a` (length [`len`](Self::len)).
    #[inline]
    pub fn row(&self, a: NodeId) -> &[f64] {
        &self.dist[a.index() * self.n..(a.index() + 1) * self.n]
    }

    /// Number of nodes the matrix covers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Metric this matrix was built under.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Identity of this matrix's distances. Every build takes a fresh
    /// version and every repair that changes an entry takes another; a
    /// clone keeps its original's. Equal versions therefore mean equal
    /// distances, which is how a structure derived from the matrix (the
    /// hierarchy's coordinator elections) tells whether it is still current.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Largest finite distance between *distinct* nodes (the network
    /// "diameter" under the metric). `None` when no finite pair of distinct
    /// nodes exists — empty, single-node, or fully-disconnected networks —
    /// which the old `0.0` sentinel could not distinguish from a genuinely
    /// zero-cost pair.
    ///
    /// The diameter *is* the maximum over the upper triangle (`a < b`), by
    /// definition: the cost-space embedding scales its initial layout by it,
    /// so a different scan would move the embedding's bits. The matrix is
    /// symmetric in value (undirected links) but not always in bits — row
    /// `b`'s `(b, a)` sums the path's weights in the other order, and
    /// `(0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1` — so the lower triangle can
    /// differ in the last place. `diameter_upper_triangle_matches_double_scan`
    /// pins that on the seeded test topologies the two scans agree.
    pub fn diameter(&self) -> Option<f64> {
        let mut best: Option<f64> = None;
        for a in 0..self.n {
            for b in (a + 1)..self.n {
                let d = self.dist[a * self.n + b];
                if d.is_finite() {
                    best = Some(best.map_or(d, |m| m.max(d)));
                }
            }
        }
        best
    }

    /// The node of `candidates` minimizing the summed distance to all
    /// `members` — the *medoid*, used for coordinator election. `None`
    /// when there are no candidates (an empty electorate is a caller-level
    /// condition — e.g. a cluster with no eligible backup — not a panic).
    pub fn medoid(&self, candidates: &[NodeId], members: &[NodeId]) -> Option<NodeId> {
        candidates
            .iter()
            .min_by(|&&a, &&b| {
                let sa: f64 = members.iter().map(|&m| self.get(a, m)).sum();
                let sb: f64 = members.iter().map(|&m| self.get(b, m)).sum();
                sa.total_cmp(&sb).then(a.0.cmp(&b.0))
            })
            .copied()
    }

    /// Service a single-link weight change in place, without rebuilding the
    /// world.
    ///
    /// `self` must be the matrix of the network *before* the change; `net`
    /// is the network *after* it; `old_w` is the changed link's previous
    /// weight under [`self.metric()`](Self::metric). Afterwards `self` is
    /// the matrix of `net` — bit-identical to
    /// `DistanceMatrix::build(net, self.metric())` (pinned by the
    /// `repair_equivalence` differential suite). Returns how it got there
    /// and exactly which entries changed bits:
    ///
    /// * Weight unchanged under this metric (e.g. a *cost* degrade seen by a
    ///   *delay* matrix): nothing is read or written
    ///   ([`LinkRepair::Incremental`] with zero rows).
    /// * Weight increased (degrade): only rows whose Dijkstra run could have
    ///   used the link are repaired. Row `s` is affected iff the link was
    ///   *tight* from `s` — `dist(s,a) + old_w == dist(s,b)` or the mirror,
    ///   compared exactly as Dijkstra computed the sum. Non-tight rows keep
    ///   every distance bit: no old shortest path used the link, and after
    ///   an increase paths through it lose by a strictly wider margin. A
    ///   tight row re-derives only the subtree hanging off the link's far
    ///   endpoint (see `resettle_descendants`); a row tight in *both*
    ///   directions (a zero-weight link, or a weight the distance absorbs)
    ///   has no far endpoint and re-runs its single-source pass whole.
    /// * Weight decreased or link gone: falls back to a full rebuild
    ///   ([`LinkRepair::Rebuilt`]) — a cheaper path through the link may now
    ///   beat rows the tightness test on *old* distances cannot identify.
    pub fn repair_link_change(
        &mut self,
        net: &Network,
        a: NodeId,
        b: NodeId,
        old_w: f64,
    ) -> (LinkRepair, ChangedEntries) {
        assert_eq!(net.len(), self.n, "network/matrix size mismatch");
        let n = self.n;
        let metric = self.metric;
        let mut changed = ChangedEntries::default();
        let new_w = net.find_link(a, b).map(|l| metric.weight(l));
        if new_w.map(f64::to_bits) == Some(old_w.to_bits()) {
            return (LinkRepair::Incremental { rows: 0 }, changed);
        }
        if new_w.is_none_or(|w| w < old_w) {
            let rebuilt = Self::build(net, metric);
            let rows = self
                .dist
                .chunks(n.max(1))
                .zip(rebuilt.dist.chunks(n.max(1)));
            for (s, (old, new)) in rows.enumerate() {
                changed.record_row_diff(s, old, new);
            }
            changed.settled = (n * n) as u64;
            changed.finish();
            *self = rebuilt;
            return (LinkRepair::Rebuilt, changed);
        }
        let mut scratch = RepairScratch {
            seen: vec![false; n],
            stack: Vec::new(),
            affected: Vec::new(),
            queue: SsspScratch::new(0),
        };
        // What a whole-row re-run needs, built on the first row that asks.
        let mut whole_row = None;
        let mut rows = 0;
        for (s, row) in self.dist.chunks_mut(n.max(1)).enumerate() {
            let (da, db) = (row[a.index()], row[b.index()]);
            if !da.is_finite() && !db.is_finite() {
                // s reaches neither endpoint; the link is invisible from s.
                continue;
            }
            // Exactly the sums Dijkstra compared when it built row s: the
            // link was on a shortest path from s iff one of them is tight.
            let (near, far) = match (da + old_w == db, db + old_w == da) {
                (false, false) => continue,
                (true, false) => (a, b),
                (false, true) => (b, a),
                (true, true) => {
                    let (csr, sssp, pred, old) = whole_row.get_or_insert_with(|| {
                        (
                            CsrGraph::from_network(net),
                            SsspScratch::new(n),
                            vec![u32::MAX; n],
                            vec![0.0; n],
                        )
                    });
                    old.copy_from_slice(row);
                    sssp_into(csr, metric, NodeId(s as u32), row, pred, sssp);
                    changed.record_row_diff(s, old, row);
                    changed.settled += n as u64;
                    rows += 1;
                    continue;
                }
            };
            let start = changed.cols.len();
            changed.settled += resettle_descendants(
                net,
                metric,
                row,
                (near, far, old_w),
                &mut scratch,
                &mut changed.cols,
            );
            changed.close_row(s, start);
            rows += 1;
        }
        if !changed.is_empty() {
            self.version = next_version();
        }
        changed.finish();
        (LinkRepair::Incremental { rows }, changed)
    }

    /// [`repair_link_change`](Self::repair_link_change) on a copy: the
    /// matrix of `net`, leaving `self` as the matrix before the change.
    pub fn repaired_after_link_change(
        &self,
        net: &Network,
        a: NodeId,
        b: NodeId,
        old_w: f64,
    ) -> (Self, LinkRepair) {
        let mut out = self.clone();
        let (repair, _) = out.repair_link_change(net, a, b, old_w);
        (out, repair)
    }
}

/// All-pairs predecessor table for concrete route extraction.
#[derive(Clone, Debug)]
pub struct RouteTable {
    n: usize,
    pred: Vec<u32>,
}

impl RouteTable {
    /// Build the table by running Dijkstra from every node (parallel for
    /// networks of at least [`PARALLEL_THRESHOLD`] nodes, like
    /// [`DistanceMatrix::build`]).
    pub fn build(net: &Network, metric: Metric) -> Self {
        Self::build_with_parallel_threshold(net, metric, PARALLEL_THRESHOLD)
    }

    /// [`build`](Self::build) with an explicit parallelism cut-over, for
    /// tests that must force one path or the other.
    pub fn build_with_parallel_threshold(net: &Network, metric: Metric, threshold: usize) -> Self {
        use rayon::prelude::*;
        let n = net.len();
        let csr = CsrGraph::from_network(net);
        let mut pred = vec![u32::MAX; n * n];
        if n >= threshold {
            pred.par_chunks_mut(n.max(1)).enumerate().for_each_init(
                || (SsspScratch::new(n), vec![f64::INFINITY; n]),
                |(scratch, dist), (s, row_out)| {
                    sssp_into(&csr, metric, NodeId(s as u32), dist, row_out, scratch);
                },
            );
        } else {
            let mut scratch = SsspScratch::new(n);
            let mut dist = vec![f64::INFINITY; n];
            for (s, row_out) in pred.chunks_mut(n.max(1)).enumerate() {
                sssp_into(
                    &csr,
                    metric,
                    NodeId(s as u32),
                    &mut dist,
                    row_out,
                    &mut scratch,
                );
            }
        }
        RouteTable { n, pred }
    }

    /// The node sequence of the shortest route from `a` to `b`, inclusive of
    /// both endpoints. Returns `None` when `b` is unreachable from `a` or
    /// when either endpoint is out of range for this table (the old code
    /// "routed" any out-of-range id to itself).
    pub fn route(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        if a.index() >= self.n || b.index() >= self.n {
            return None;
        }
        if a == b {
            return Some(vec![a]);
        }
        let row = &self.pred[a.index() * self.n..(a.index() + 1) * self.n];
        let mut path = vec![b];
        let mut cur = b;
        while cur != a {
            let p = row[cur.index()];
            if p == u32::MAX {
                return None;
            }
            cur = NodeId(p);
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkKind, Network};

    /// 0 -1- 1 -1- 2, plus a direct expensive 0-2 link.
    fn line_with_shortcut() -> Network {
        let mut n = Network::new(3);
        n.add_link(NodeId(0), NodeId(1), 1.0, 10.0, LinkKind::Stub);
        n.add_link(NodeId(1), NodeId(2), 1.0, 10.0, LinkKind::Stub);
        n.add_link(NodeId(0), NodeId(2), 5.0, 1.0, LinkKind::Stub);
        n
    }

    #[test]
    fn dijkstra_prefers_cheap_path() {
        let net = line_with_shortcut();
        let (d, _) = dijkstra(&net, NodeId(0), Metric::Cost);
        assert_eq!(d[2], 2.0, "two cheap hops beat the direct link");
        let (d, _) = dijkstra(&net, NodeId(0), Metric::DelayMs);
        assert_eq!(d[2], 1.0, "direct link wins on delay");
    }

    #[test]
    fn matrix_matches_dijkstra_and_is_symmetric() {
        let net = line_with_shortcut();
        let m = DistanceMatrix::build(&net, Metric::Cost);
        for a in net.nodes() {
            let (d, _) = dijkstra(&net, a, Metric::Cost);
            for b in net.nodes() {
                assert_eq!(m.get(a, b), d[b.index()]);
                assert_eq!(m.get(a, b), m.get(b, a));
            }
            assert_eq!(m.row(a), &d[..]);
        }
        assert_eq!(m.diameter(), Some(2.0));
    }

    #[test]
    fn triangle_inequality_holds() {
        let net = line_with_shortcut();
        let m = DistanceMatrix::build(&net, Metric::Cost);
        for a in net.nodes() {
            for b in net.nodes() {
                for c in net.nodes() {
                    assert!(m.get(a, c) <= m.get(a, b) + m.get(b, c) + 1e-12);
                }
            }
        }
    }

    #[test]
    fn route_extraction() {
        let net = line_with_shortcut();
        let rt = RouteTable::build(&net, Metric::Cost);
        assert_eq!(
            rt.route(NodeId(0), NodeId(2)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        assert_eq!(rt.route(NodeId(1), NodeId(1)).unwrap(), vec![NodeId(1)]);
    }

    #[test]
    fn route_rejects_out_of_range_ids() {
        // Regression: `route(a, a)` returned `Some(vec![a])` before any
        // bounds check, so an out-of-range NodeId silently "routed".
        let net = line_with_shortcut();
        let rt = RouteTable::build(&net, Metric::Cost);
        assert_eq!(rt.route(NodeId(3), NodeId(3)), None);
        assert_eq!(rt.route(NodeId(99), NodeId(99)), None);
        assert_eq!(rt.route(NodeId(0), NodeId(3)), None);
        assert_eq!(rt.route(NodeId(3), NodeId(0)), None);
        // In-range self-routes still work.
        assert_eq!(rt.route(NodeId(2), NodeId(2)).unwrap(), vec![NodeId(2)]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut net = Network::new(2);
        let extra = net.add_node(crate::graph::NodeKind::Stub);
        net.add_link(NodeId(0), NodeId(1), 1.0, 1.0, LinkKind::Stub);
        let m = DistanceMatrix::build(&net, Metric::Cost);
        assert!(m.get(NodeId(0), extra).is_infinite());
        let rt = RouteTable::build(&net, Metric::Cost);
        assert!(rt.route(NodeId(0), extra).is_none());
    }

    #[test]
    fn diameter_distinguishes_disconnection_from_degeneracy() {
        // Fully disconnected: every distinct pair is infinite — no diameter,
        // not 0.0 (which a single zero-cost link could legitimately produce).
        let net = Network::new(3);
        let m = DistanceMatrix::build(&net, Metric::Cost);
        assert_eq!(m.diameter(), None);
        // Single node and empty networks have no distinct pair either.
        let single = DistanceMatrix::build(&Network::new(1), Metric::Cost);
        assert_eq!(single.diameter(), None);
        let empty = DistanceMatrix::build(&Network::new(0), Metric::Cost);
        assert_eq!(empty.diameter(), None);
        // Partially connected: the finite component still reports a diameter.
        let mut part = Network::new(3);
        part.add_link(NodeId(0), NodeId(1), 3.0, 1.0, LinkKind::Stub);
        let pm = DistanceMatrix::build(&part, Metric::Cost);
        assert_eq!(pm.diameter(), Some(3.0));
    }

    #[test]
    fn diameter_upper_triangle_matches_double_scan() {
        // The upper-triangle scan must return exactly what the old
        // both-ordered-pairs scan returned, on seeded transit-stub
        // topologies under both metrics (the matrix is symmetric:
        // undirected links).
        for seed in [3, 7, 11] {
            let ts = crate::topology::TransitStubConfig::sized(256).generate(seed);
            for metric in [Metric::Cost, Metric::DelayMs] {
                let m = DistanceMatrix::build(&ts.network, metric);
                let mut reference: Option<f64> = None;
                for a in ts.network.nodes() {
                    for b in ts.network.nodes() {
                        if a == b {
                            continue;
                        }
                        let d = m.get(a, b);
                        if d.is_finite() {
                            reference = Some(reference.map_or(d, |r| r.max(d)));
                        }
                    }
                }
                assert_eq!(
                    m.diameter().map(f64::to_bits),
                    reference.map(f64::to_bits),
                    "seed {seed} metric {metric:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_and_sequential_builds_agree() {
        // A network above the parallel threshold must produce the exact
        // same matrix as per-source sequential Dijkstra.
        let ts = crate::topology::TransitStubConfig::sized(512).generate(7);
        let net = &ts.network;
        assert!(net.len() >= 192, "exercises the parallel path");
        let par = DistanceMatrix::build(net, Metric::Cost);
        // Sequential reference.
        for s in net.nodes().take(12) {
            let (row, _) = dijkstra(net, s, Metric::Cost);
            for t in net.nodes() {
                assert_eq!(par.get(s, t), row[t.index()]);
            }
        }
        let rt = RouteTable::build(net, Metric::Cost);
        let some = net.nodes().next().unwrap();
        let far = net.nodes().last().unwrap();
        let route = rt.route(some, far).unwrap();
        assert_eq!(route.first(), Some(&some));
        assert_eq!(route.last(), Some(&far));
    }

    #[test]
    fn threshold_does_not_change_bits() {
        // The `n >= PARALLEL_THRESHOLD` cut-over must be a pure scheduling
        // decision: forcing the parallel path (threshold 0), forcing the
        // sequential path (threshold usize::MAX), and the default must all
        // produce bit-identical matrices and route tables, under both
        // metrics, on a topology straddling the real threshold.
        let ts = crate::topology::TransitStubConfig::sized(512).generate(11);
        let net = &ts.network;
        assert!(
            net.len() >= PARALLEL_THRESHOLD,
            "topology must exercise the default parallel path"
        );
        for metric in [Metric::Cost, Metric::DelayMs] {
            let forced_par = DistanceMatrix::build_with_parallel_threshold(net, metric, 0);
            let forced_seq = DistanceMatrix::build_with_parallel_threshold(net, metric, usize::MAX);
            let auto = DistanceMatrix::build(net, metric);
            for a in net.nodes() {
                for b in net.nodes() {
                    let bits = forced_seq.get(a, b).to_bits();
                    assert_eq!(forced_par.get(a, b).to_bits(), bits);
                    assert_eq!(auto.get(a, b).to_bits(), bits);
                }
            }
            let rt_par = RouteTable::build_with_parallel_threshold(net, metric, 0);
            let rt_seq = RouteTable::build_with_parallel_threshold(net, metric, usize::MAX);
            for a in net.nodes().step_by(17) {
                for b in net.nodes() {
                    assert_eq!(rt_par.route(a, b), rt_seq.route(a, b));
                }
            }
        }
    }

    #[test]
    fn fused_build_matches_separate_builds() {
        // One APSP pass must yield the same bits as two: every distance and
        // every predecessor, under both metrics and both scheduling paths.
        let ts = crate::topology::TransitStubConfig::sized(512).generate(11);
        let net = &ts.network;
        for metric in [Metric::Cost, Metric::DelayMs] {
            let dm_ref = DistanceMatrix::build(net, metric);
            let rt_ref = RouteTable::build(net, metric);
            for threshold in [0, usize::MAX] {
                let (dm, rt) = DistanceMatrix::build_with_routes_with_parallel_threshold(
                    net, metric, threshold,
                );
                assert_eq!(dm.metric(), metric);
                for a in net.nodes() {
                    for b in net.nodes() {
                        assert_eq!(dm.get(a, b).to_bits(), dm_ref.get(a, b).to_bits());
                    }
                }
                assert_eq!(rt.pred, rt_ref.pred, "threshold {threshold}");
            }
        }
    }

    #[test]
    fn incremental_repair_matches_rebuild_on_degrade() {
        // Degrading one link: the repaired matrix must equal a from-scratch
        // rebuild bit for bit, with only the tight rows re-run.
        let ts = crate::topology::TransitStubConfig::sized(256).generate(9);
        let mut net = ts.network.clone();
        let before = DistanceMatrix::build(&net, Metric::Cost);
        let (a, b, old_cost, old_delay) = {
            let u = net.nodes().find(|&u| net.degree(u) > 0).unwrap();
            let l = net.neighbors(u)[0];
            (u, l.to, l.cost, l.delay_ms)
        };
        net.set_link_cost(a, b, old_cost * 4.0);
        let (repaired, how) = before.repaired_after_link_change(&net, a, b, old_cost);
        assert!(
            matches!(how, LinkRepair::Incremental { .. }),
            "degrade must not rebuild"
        );
        let rebuilt = DistanceMatrix::build(&net, Metric::Cost);
        for x in net.nodes() {
            for y in net.nodes() {
                assert_eq!(repaired.get(x, y).to_bits(), rebuilt.get(x, y).to_bits());
            }
        }
        // A delay matrix sees a cost change as a no-op: zero rows repaired
        // (the link's delay — the weight under *this* metric — is unchanged).
        let delay_before = DistanceMatrix::build(&ts.network, Metric::DelayMs);
        let (delay_after, how) = delay_before.repaired_after_link_change(&net, a, b, old_delay);
        assert_eq!(how, LinkRepair::Incremental { rows: 0 });
        for x in net.nodes() {
            for y in net.nodes() {
                assert_eq!(
                    delay_after.get(x, y).to_bits(),
                    delay_before.get(x, y).to_bits()
                );
            }
        }
    }

    #[test]
    fn cost_decrease_falls_back_to_rebuild() {
        let ts = crate::topology::TransitStubConfig::sized(128).generate(2);
        let mut net = ts.network.clone();
        let before = DistanceMatrix::build(&net, Metric::Cost);
        let (a, b, old_cost) = {
            let u = net.nodes().find(|&u| net.degree(u) > 0).unwrap();
            let l = net.neighbors(u)[0];
            (u, l.to, l.cost)
        };
        net.set_link_cost(a, b, old_cost * 0.25);
        let (repaired, how) = before.repaired_after_link_change(&net, a, b, old_cost);
        assert_eq!(how, LinkRepair::Rebuilt, "decrease must take the fallback");
        let rebuilt = DistanceMatrix::build(&net, Metric::Cost);
        for x in net.nodes() {
            for y in net.nodes() {
                assert_eq!(repaired.get(x, y).to_bits(), rebuilt.get(x, y).to_bits());
            }
        }
    }

    #[test]
    fn incremental_repair_with_disconnected_component() {
        // A component that cannot see the degraded link must be carried over
        // untouched (its rows are all-infinite at both endpoints), and the
        // result must still equal the full rebuild.
        let mut net = Network::new(6);
        net.add_link(NodeId(0), NodeId(1), 1.0, 1.0, LinkKind::Stub);
        net.add_link(NodeId(1), NodeId(2), 2.0, 1.0, LinkKind::Stub);
        net.add_link(NodeId(0), NodeId(2), 4.0, 1.0, LinkKind::Stub);
        net.add_link(NodeId(3), NodeId(4), 1.5, 1.0, LinkKind::Stub);
        // Node 5 stays isolated.
        let before = DistanceMatrix::build(&net, Metric::Cost);
        net.set_link_cost(NodeId(0), NodeId(1), 10.0);
        let (repaired, how) = before.repaired_after_link_change(&net, NodeId(0), NodeId(1), 1.0);
        let LinkRepair::Incremental { rows } = how else {
            panic!("degrade must repair incrementally");
        };
        assert!(rows <= 3, "only the connected component's rows may re-run");
        let rebuilt = DistanceMatrix::build(&net, Metric::Cost);
        for x in net.nodes() {
            for y in net.nodes() {
                assert_eq!(repaired.get(x, y).to_bits(), rebuilt.get(x, y).to_bits());
            }
        }
    }

    #[test]
    fn zero_weight_link_reruns_its_rows_whole() {
        // Across a zero-delay link both endpoints sit at the same distance
        // from every source, so each row is tight in both directions and no
        // endpoint is the far one: such rows re-run their whole pass.
        let ring = |delay_12: f64| {
            let mut net = Network::new(4);
            net.add_link(NodeId(0), NodeId(1), 1.0, 1.0, LinkKind::Stub);
            net.add_link(NodeId(1), NodeId(2), 1.0, delay_12, LinkKind::Stub);
            net.add_link(NodeId(2), NodeId(3), 1.0, 1.0, LinkKind::Stub);
            net.add_link(NodeId(3), NodeId(0), 1.0, 1.5, LinkKind::Stub);
            net
        };
        let before = DistanceMatrix::build(&ring(0.0), Metric::DelayMs);
        let after = ring(5.0);
        let mut dm = before.clone();
        let (how, changed) = dm.repair_link_change(&after, NodeId(1), NodeId(2), 0.0);
        assert_eq!(how, LinkRepair::Incremental { rows: 4 });
        assert_eq!(changed.nodes_settled(), 16, "four whole rows of four");
        let rebuilt = DistanceMatrix::build(&after, Metric::DelayMs);
        let mut moved = Vec::new();
        for x in after.nodes() {
            for y in after.nodes() {
                assert_eq!(dm.get(x, y).to_bits(), rebuilt.get(x, y).to_bits());
                if before.get(x, y).to_bits() != rebuilt.get(x, y).to_bits() {
                    moved.push((x, y));
                }
            }
        }
        assert!(!moved.is_empty());
        assert_eq!(changed.iter().collect::<Vec<_>>(), moved);
    }

    #[test]
    fn a_pair_changed_in_one_direction_counts_both_ways() {
        let (u, v, w) = (NodeId(1), NodeId(4), NodeId(6));
        // Only the entry (v, u) moved, as when the two directions of a
        // distance are summed along different paths.
        let changed: ChangedEntries = [(v, u)].into_iter().collect();
        assert!(changed.row(u).is_empty());
        assert!(changed.pair_changed(u, v) && changed.pair_changed(v, u));
        assert!(!changed.pair_changed(u, w));
        assert!(changed.touches_pair(&[u, v]));
        assert!(changed.touches_pair(&[NodeId(0), u, v, w]));
        assert!(!changed.touches_pair(&[u, w]) && !changed.touches_pair(&[v]));
        assert_eq!(changed.cover(), &[v]);
    }

    #[test]
    fn the_cover_takes_the_widest_rows_and_covers_every_entry() {
        // A star of changes around 2 and 5 (rows of five and four), plus
        // the rows of their leaves pointing back at them.
        let mut entries = Vec::new();
        for c in [0, 1, 3, 4, 7] {
            entries.push((NodeId(2), NodeId(c)));
            entries.push((NodeId(c), NodeId(2)));
        }
        for c in [0, 6, 8, 9] {
            entries.push((NodeId(5), NodeId(c)));
        }
        let changed: ChangedEntries = entries.iter().copied().collect();
        assert_eq!(changed.len(), entries.len());
        assert_eq!(changed.cover(), &[NodeId(2), NodeId(5)]);
        for (x, y) in changed.iter() {
            assert!(changed.cover().contains(&x) || changed.cover().contains(&y));
        }
        assert!(ChangedEntries::default().cover().is_empty());
    }

    #[test]
    fn medoid_picks_center() {
        let net = line_with_shortcut();
        let m = DistanceMatrix::build(&net, Metric::Cost);
        let all = [NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(m.medoid(&all, &all), Some(NodeId(1)));
    }

    #[test]
    fn medoid_of_empty_candidates_is_none() {
        let net = line_with_shortcut();
        let m = DistanceMatrix::build(&net, Metric::Cost);
        assert_eq!(m.medoid(&[], &[NodeId(0), NodeId(1)]), None);
    }
}
