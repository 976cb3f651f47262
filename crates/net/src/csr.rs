//! Compressed sparse row (CSR) view of a [`Network`] and the Dijkstra kernel
//! that runs over it.
//!
//! [`Network`] stores adjacency as `Vec<Vec<Link>>` — one heap allocation per
//! node, 32-byte `Link` entries, and a pointer chase per neighbor list. That
//! layout is fine for mutation but dominates all-pairs shortest-path time at
//! scale: the 10k-node Figure 9 sweep spends most of its environment-build
//! wall time cache-missing through it. [`CsrGraph`] flattens the same
//! adjacency into four parallel arrays (`row_offsets`, `targets`, and one
//! flat weight array per [`Metric`]) so a Dijkstra sweep touches contiguous
//! memory only.
//!
//! Bit-exactness contract: [`CsrGraph::from_network`] preserves the per-node
//! neighbor *order* of the source adjacency lists, and [`sssp_into`] settles
//! nodes in exactly the order the binary-heap Dijkstra in
//! [`crate::paths::dijkstra`] settles them (ascending `(dist, node id)` under
//! `f64::total_cmp`, relaxations applied in neighbor order at settle time).
//! Both facts together make the distance *and* predecessor outputs
//! bit-identical to the reference implementation — see the
//! `csr_matches_reference_dijkstra_bits` and
//! `integer_grid_ties_match_reference_dijkstra_bits` tests.
//!
//! The settle order comes from the queue, [`SsspScratch`]: a min-heap of
//! single `u128` entries, `order_key(dist) << 32 | node`. `order_key` maps
//! an `f64`'s bits to a `u64` whose unsigned order is `f64::total_cmp`'s
//! order, so integer order on the packed entry is exactly the reference
//! heap's `(dist, node id)` order — for every weight sign, with no
//! comparator and no second queue.

use crate::graph::{Network, NodeId};
use crate::paths::Metric;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Flat compressed-sparse-row adjacency with per-metric weight arrays.
///
/// Directed half-links of node `u` occupy
/// `row_offsets[u] .. row_offsets[u + 1]` in `targets` / `cost` / `delay_ms`,
/// in the same order [`Network::neighbors`] yields them.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    n: usize,
    row_offsets: Vec<u32>,
    targets: Vec<u32>,
    cost: Vec<f64>,
    delay_ms: Vec<f64>,
}

impl CsrGraph {
    /// Flatten a [`Network`]'s adjacency lists, preserving neighbor order.
    pub fn from_network(net: &Network) -> Self {
        let n = net.len();
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut half_links = 0u32;
        row_offsets.push(0);
        for u in net.nodes() {
            half_links += net.degree(u) as u32;
            row_offsets.push(half_links);
        }
        let mut targets = Vec::with_capacity(half_links as usize);
        let mut cost = Vec::with_capacity(half_links as usize);
        let mut delay_ms = Vec::with_capacity(half_links as usize);
        for u in net.nodes() {
            for link in net.neighbors(u) {
                targets.push(link.to.0);
                cost.push(link.cost);
                delay_ms.push(link.delay_ms);
            }
        }
        CsrGraph {
            n,
            row_offsets,
            targets,
            cost,
            delay_ms,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The flat weight array for `metric`, parallel to `targets`.
    #[inline]
    pub fn weights(&self, metric: Metric) -> &[f64] {
        match metric {
            Metric::Cost => &self.cost,
            Metric::DelayMs => &self.delay_ms,
        }
    }

    /// Index range of node `u`'s half-links in [`targets`](Self::targets) /
    /// [`weights`](Self::weights).
    #[inline]
    pub fn row_range(&self, u: NodeId) -> std::ops::Range<usize> {
        self.row_offsets[u.index()] as usize..self.row_offsets[u.index() + 1] as usize
    }

    /// Flat half-link target array, indexed by [`row_range`](Self::row_range).
    #[inline]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }
}

/// `x`'s bits remapped so that unsigned `u64` order is `f64::total_cmp`
/// order: a sign-clear float gets its sign bit set (above every negative),
/// a sign-set float has every bit flipped (larger magnitudes sort lower).
#[inline]
fn order_key(x: f64) -> u64 {
    let b = x.to_bits();
    b ^ (((b as i64 >> 63) as u64) | 1 << 63)
}

/// The float [`order_key`] was computed from, bit for bit.
#[inline]
fn from_order_key(k: u64) -> f64 {
    f64::from_bits(k ^ (!((k as i64 >> 63) as u64) | 1 << 63))
}

/// Dijkstra's lazy-deletion queue, reused across sources so an all-pairs
/// sweep does not reallocate per row: a min-heap popping ascending
/// `(dist, node id)` under `f64::total_cmp`, the order of the reference
/// heap in [`crate::paths::dijkstra`].
pub struct SsspScratch {
    heap: BinaryHeap<Reverse<u128>>,
}

impl SsspScratch {
    /// Scratch sized for an `n`-node graph.
    pub fn new(n: usize) -> Self {
        SsspScratch {
            heap: BinaryHeap::with_capacity(n),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, dist: f64, node: u32) {
        let entry = u128::from(order_key(dist)) << 32 | u128::from(node);
        self.heap.push(Reverse(entry));
    }

    /// The smallest `(dist, node)` entry.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(f64, u32)> {
        let Reverse(entry) = self.heap.pop()?;
        Some((from_order_key((entry >> 32) as u64), entry as u32))
    }

    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }
}

/// Single-source Dijkstra over the CSR layout, writing distance and
/// predecessor rows in place.
///
/// `dist` is overwritten with per-node shortest-path distance
/// (`f64::INFINITY` where unreachable), `pred` with the predecessor node id
/// on the winning path (`u32::MAX` for the source and unreachable nodes) —
/// bit-identical to [`crate::paths::dijkstra`] (see module docs).
pub fn sssp_into(
    csr: &CsrGraph,
    metric: Metric,
    source: NodeId,
    dist: &mut [f64],
    pred: &mut [u32],
    queue: &mut SsspScratch,
) {
    assert_eq!(dist.len(), csr.n);
    assert_eq!(pred.len(), csr.n);
    let weights = csr.weights(metric);
    dist.fill(f64::INFINITY);
    pred.fill(u32::MAX);
    dist[source.index()] = 0.0;
    // Once every node has settled, whatever remains in the queue is stale;
    // draining it pop-by-pop would be pure heap churn with no writes, so
    // count settles and break early. With non-negative weights each node
    // passes the stale check exactly once (pushes for one node carry
    // strictly decreasing keys), so the count is exact and the outputs are
    // unchanged.
    let mut settled = 0usize;
    queue.clear();
    queue.push(0.0, source.0);
    while let Some((d, u)) = queue.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        settled += 1;
        let row = csr.row_offsets[u as usize] as usize..csr.row_offsets[u as usize + 1] as usize;
        for idx in row {
            // SAFETY: `idx` lies in `u`'s row (bounded by the final
            // row_offset == targets.len() == weights.len()), every target id
            // is < n by Network construction, and dist/pred lengths are
            // asserted == n above. Elides the per-edge bounds checks in the
            // hottest loop of the APSP sweep.
            unsafe {
                let v = *csr.targets.get_unchecked(idx) as usize;
                let nd = d + *weights.get_unchecked(idx);
                let dv = dist.get_unchecked_mut(v);
                if nd < *dv {
                    *dv = nd;
                    *pred.get_unchecked_mut(v) = u;
                    queue.push(nd, v as u32);
                }
            }
        }
        if settled == csr.n {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::dijkstra;
    use crate::topology::TransitStubConfig;

    #[test]
    fn csr_preserves_adjacency_order_and_weights() {
        let ts = TransitStubConfig::sized(128).generate(3);
        let net = &ts.network;
        let csr = CsrGraph::from_network(net);
        assert_eq!(csr.len(), net.len());
        for u in net.nodes() {
            let start = csr.row_offsets[u.index()] as usize;
            let end = csr.row_offsets[u.index() + 1] as usize;
            let links = net.neighbors(u);
            assert_eq!(end - start, links.len());
            for (k, link) in links.iter().enumerate() {
                assert_eq!(csr.targets[start + k], link.to.0);
                assert_eq!(csr.cost[start + k].to_bits(), link.cost.to_bits());
                assert_eq!(csr.delay_ms[start + k].to_bits(), link.delay_ms.to_bits());
            }
        }
    }

    /// Every source of `net` under both metrics: the CSR kernel's distance
    /// bits and predecessors against the adjacency-list reference.
    fn assert_matches_reference(net: &Network) {
        let csr = CsrGraph::from_network(net);
        let mut queue = SsspScratch::new(net.len());
        let mut dist = vec![0.0; net.len()];
        let mut pred = vec![0u32; net.len()];
        for metric in [Metric::Cost, Metric::DelayMs] {
            for s in net.nodes() {
                let (rd, rp) = dijkstra(net, s, metric);
                sssp_into(&csr, metric, s, &mut dist, &mut pred, &mut queue);
                for v in 0..net.len() {
                    assert_eq!(
                        dist[v].to_bits(),
                        rd[v].to_bits(),
                        "{metric:?}: dist mismatch source {s} node {v}"
                    );
                    assert_eq!(
                        pred[v], rp[v],
                        "{metric:?}: pred mismatch source {s} node {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn csr_matches_reference_dijkstra_bits() {
        // The CSR kernel must reproduce the adjacency-list Dijkstra exactly:
        // same distance bits AND same predecessors, under both metrics. The
        // generated costs are continuous draws, so exact ties are rare here;
        // `integer_grid_ties_match_reference_dijkstra_bits` covers them.
        let ts = TransitStubConfig::sized(256).generate(5);
        assert_matches_reference(&ts.network);
    }

    #[test]
    fn integer_grid_ties_match_reference_dijkstra_bits() {
        // A 12×12 grid with small integer weights: almost every node is
        // reached at a distance it shares with others, and many along
        // several equal-cost paths, so the settle order (ties broken by
        // node id) decides every predecessor.
        use crate::graph::LinkKind;
        let side = 12u32;
        let mut net = Network::new((side * side) as usize);
        let id = |r: u32, c: u32| NodeId(r * side + c);
        for r in 0..side {
            for c in 0..side {
                let delay = f64::from(1 + (r + 2 * c) % 3);
                if c + 1 < side {
                    net.add_link(id(r, c), id(r, c + 1), 1.0, delay, LinkKind::Stub);
                }
                if r + 1 < side {
                    net.add_link(id(r, c), id(r + 1, c), 1.0, 4.0 - delay, LinkKind::Stub);
                }
            }
        }
        assert_matches_reference(&net);
    }

    #[test]
    fn queue_key_orders_like_total_cmp() {
        let tiny = f64::from_bits(1); // the smallest subnormal
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -tiny,
            -0.0,
            0.0,
            tiny,
            f64::from_bits(0x000f_ffff_ffff_ffff), // the largest subnormal
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            2.5,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        for a in values {
            assert_eq!(from_order_key(order_key(a)).to_bits(), a.to_bits(), "{a:e}");
            for b in values {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a:e} vs {b:e}"
                );
            }
        }
        // The queue pops ascending `(dist, node id)`, stale duplicates
        // included, whatever order the entries went in.
        let mut entries: Vec<(f64, u32)> = values
            .iter()
            .enumerate()
            .flat_map(|(i, &d)| [(d, 7 - i as u32 % 3), (d, u32::MAX), (d, 0), (d, 0)])
            .collect();
        entries.reverse();
        entries.rotate_left(5);
        let mut queue = SsspScratch::new(0);
        for &(d, v) in &entries {
            queue.push(d, v);
        }
        entries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (d, v) in entries {
            let (qd, qv) = queue.pop().unwrap();
            assert_eq!((qd.to_bits(), qv), (d.to_bits(), v));
        }
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn csr_handles_disconnected_components() {
        use crate::graph::{LinkKind, Network};
        // Two components plus an isolated node.
        let mut net = Network::new(5);
        net.add_link(NodeId(0), NodeId(1), 1.0, 1.0, LinkKind::Stub);
        net.add_link(NodeId(2), NodeId(3), 2.0, 1.0, LinkKind::Stub);
        let csr = CsrGraph::from_network(&net);
        let mut scratch = SsspScratch::new(5);
        let mut dist = vec![0.0; 5];
        let mut pred = vec![0u32; 5];
        sssp_into(
            &csr,
            Metric::Cost,
            NodeId(0),
            &mut dist,
            &mut pred,
            &mut scratch,
        );
        assert_eq!(dist[1], 1.0);
        assert!(dist[2].is_infinite() && dist[3].is_infinite() && dist[4].is_infinite());
        assert_eq!(pred[4], u32::MAX);
        // Scratch reuse across sources must not leak state.
        sssp_into(
            &csr,
            Metric::Cost,
            NodeId(2),
            &mut dist,
            &mut pred,
            &mut scratch,
        );
        assert_eq!(dist[3], 2.0);
        assert!(dist[0].is_infinite());
    }
}
