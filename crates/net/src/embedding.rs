//! Euclidean *cost space* embedding of the network.
//!
//! Two consumers, both taken from the paper:
//!
//! * the hierarchy builder runs K-Means over these coordinates to form
//!   network partitions whose members are close in traversal cost, and
//! * the Relaxation baseline [Pietzuch et al., ICDE'06] places operators by
//!   spring relaxation "using a 3-dimensional cost space" (Section 3.3).
//!
//! The embedding minimizes stress against the shortest-path distance matrix
//! with a simple deterministic majorization loop (a seeded, offline analogue
//! of the Vivaldi-style network coordinates those systems use online).
//!
//! The sweeps are *Jacobi-style*: every node's new position is computed from
//! the previous sweep's coordinates only (`relax_node`: the mean over the
//! other nodes `j`, in ascending id order, of the point at the target
//! distance from `j` along the current direction).
//!
//! Up to [`PIVOT_THRESHOLD`] nodes a sweep visits every unordered pair once
//! (`triangle_sweep`). For the pair `i < j` it computes the distance and
//! the three direction quotients once, then adds node `i`'s term toward `j`
//! (target `dm[i][j]`) and node `j`'s term toward `i` with the negated
//! direction, the same `[1, 0, 0]` kick and target `dm[j][i]` — the matrix
//! is symmetric in value but not always in bits, so each side reads its
//! own row. Rows run in ascending `i`, so node `x` receives its `j < x`
//! terms first, then its `j > x` terms in `j` order: `relax_node`'s order,
//! term for term. A negated quotient differs from the recomputed one only
//! in the sign of an exact zero, which cannot change a sum into an
//! accumulator that starts at `+0.0` (it is never `-0.0`). The triangle
//! sweep is serial; it does half the arithmetic of the per-node sweep.
//!
//! Past [`PIVOT_THRESHOLD`] nodes every node relaxes against a pivot set of
//! [`PIVOT_COUNT`] landmarks chosen by deterministic farthest-point
//! traversal instead, dropping a sweep from O(n²) to O(n·P). Those updates
//! are independent per node, so the pivot sweep fans out over Rayon and is
//! bit-identical to its serial run.
//!
//! On x86-64 hosts with AVX2 (detected once per [`CostSpace::embed`]) both
//! sweeps run four `f64` lanes over four consecutive rows `i` against the
//! shared loop over `j`; tails and every other host run the scalar code.
//! Each lane performs the scalar update's exact operation sequence — the
//! same subtractions, the same left-to-right `(dx² + dy²) + dz²` sum, a
//! correctly rounded `sqrt` and division (no fused multiply-add, no
//! reciprocal, no reassociation) — and a skipped pair (`i == j`, or an
//! unreachable target) adds `+0.0` to an accumulator that can never be
//! `-0.0`. The lanes therefore reproduce the scalar coordinates bit for
//! bit, which the kernel-equivalence tests below pin against the scalar
//! per-node sweep.

use crate::graph::NodeId;
use crate::paths::{DistanceMatrix, PARALLEL_THRESHOLD};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Number of embedding dimensions; the paper's Relaxation experiments use a
/// 3-dimensional cost space.
pub const DIMS: usize = 3;

/// Networks larger than this embed against a pivot/landmark set instead of
/// all pairs. Every topology the quality tests pin is far below this bound,
/// so the exact sweep is preserved where it is cheap.
pub const PIVOT_THRESHOLD: usize = 2048;

/// Number of farthest-point pivots used past [`PIVOT_THRESHOLD`].
pub const PIVOT_COUNT: usize = 128;

/// A point in the cost space.
pub type Point = [f64; DIMS];

/// Nodes relaxed together by one block of a sweep (one AVX2 register of
/// `f64` lanes).
const LANES: usize = 4;

/// Euclidean embedding of every network node into [`DIMS`]-dimensional space.
#[derive(Clone, Debug)]
pub struct CostSpace {
    coords: Vec<Point>,
}

/// Euclidean distance between two points.
pub fn euclid(a: &Point, b: &Point) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// One Jacobi update for node `i`: average of the positions the nodes in
/// `others` "want" it at (target distance preserved along the current
/// direction), reading only the previous sweep's `coords`.
fn relax_node(i: usize, coords: &[Point], targets: &[f64], others: &[u32]) -> Point {
    let mut acc = [0.0; DIMS];
    let mut count = 0.0;
    for &j in others {
        let j = j as usize;
        let t = targets[j];
        if i == j || !t.is_finite() {
            continue;
        }
        let cur = euclid(&coords[i], &coords[j]);
        // Unit direction from j to i; fixed kick when coincident.
        let dir: Point = if cur > 1e-9 {
            let mut d = [0.0; DIMS];
            for k in 0..DIMS {
                d[k] = (coords[i][k] - coords[j][k]) / cur;
            }
            d
        } else {
            let mut d = [0.0; DIMS];
            d[0] = 1.0;
            d
        };
        for k in 0..DIMS {
            acc[k] += coords[j][k] + dir[k] * t;
        }
        count += 1.0;
    }
    if count > 0.0 {
        let mut p = [0.0; DIMS];
        for k in 0..DIMS {
            p[k] = acc[k] / count;
        }
        p
    } else {
        coords[i]
    }
}

/// The kernel that relaxes a block of [`LANES`] nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// [`relax_node`] once per node, or [`relax_pair`] once per pair.
    Scalar,
    /// [`relax_block_avx2`] or [`triangle_block_avx2`]; only ever
    /// constructed by [`Kernel::detect`] once the host has reported AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// The fastest kernel this host supports.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Scalar
    }
}

/// Relax the nodes `i0..i0 + out.len()` into `out`. Full blocks go to the
/// AVX2 kernel when `kernel` says so; everything else runs [`relax_node`].
fn relax_block(
    i0: usize,
    out: &mut [Point],
    coords: &[Point],
    dm: &DistanceMatrix,
    others: &[u32],
    kernel: Kernel,
) {
    let row = |i: usize| dm.row(NodeId(i as u32));
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if out.len() == LANES => {
            let rows = std::array::from_fn(|l| row(i0 + l));
            // SAFETY: `Kernel::Avx2` is constructed only by `Kernel::detect`
            // after `is_x86_feature_detected!("avx2")` returned true.
            let block = unsafe { relax_block_avx2(i0, coords, rows, others) };
            out.copy_from_slice(&block);
        }
        _ => {
            for (l, p) in out.iter_mut().enumerate() {
                *p = relax_node(i0 + l, coords, row(i0 + l), others);
            }
        }
    }
}

/// [`relax_node`] for the four nodes `i0..i0 + 4` at once, one `f64` lane
/// per node; `rows[l]` is node `i0 + l`'s distance row. Every lane performs
/// `relax_node`'s operations in its order, so the result is bit-identical.
///
/// # Safety
///
/// The running CPU must support AVX2; [`relax_block`] calls this only for
/// [`Kernel::Avx2`], which [`Kernel::detect`] returns only after checking.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn relax_block_avx2(
    i0: usize,
    coords: &[Point],
    rows: [&[f64]; LANES],
    others: &[u32],
) -> [Point; LANES] {
    use std::arch::x86_64::*;

    let [c0, c1, c2, c3] = [0, 1, 2, 3].map(|l| coords[i0 + l]);
    let ci: [__m256d; DIMS] = std::array::from_fn(|k| _mm256_set_pd(c3[k], c2[k], c1[k], c0[k]));
    let ids = _mm256_set_pd((i0 + 3) as f64, (i0 + 2) as f64, (i0 + 1) as f64, i0 as f64);
    let [r0, r1, r2, r3] = rows;
    let magnitude = _mm256_set1_pd(f64::from_bits(!(1u64 << 63)));
    let inf = _mm256_set1_pd(f64::INFINITY);
    let tiny = _mm256_set1_pd(1e-9);
    let one = _mm256_set1_pd(1.0);
    let mut acc = [_mm256_setzero_pd(); DIMS];
    let mut count = _mm256_setzero_pd();
    for &j in others {
        let j = j as usize;
        let t = _mm256_set_pd(r3[j], r2[j], r1[j], r0[j]);
        // `i != j` and `t` finite (NaN compares false).
        let live = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_NEQ_UQ>(ids, _mm256_set1_pd(j as f64)),
            _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_and_pd(t, magnitude), inf),
        );
        let cj = coords[j].map(|c| _mm256_set1_pd(c));
        let diff: [__m256d; DIMS] = std::array::from_fn(|k| _mm256_sub_pd(ci[k], cj[k]));
        let sq = diff.map(|d| _mm256_mul_pd(d, d));
        let cur = _mm256_sqrt_pd(_mm256_add_pd(_mm256_add_pd(sq[0], sq[1]), sq[2]));
        // Unit direction from j to i; the `[1, 0, 0]` kick when coincident
        // (or when `cur` is NaN, as `cur > 1e-9` is then false).
        let far = _mm256_cmp_pd::<_CMP_GT_OQ>(cur, tiny);
        for k in 0..DIMS {
            let d = _mm256_div_pd(diff[k], cur);
            let dir = if k == 0 {
                _mm256_blendv_pd(one, d, far)
            } else {
                _mm256_and_pd(d, far)
            };
            let step = _mm256_add_pd(cj[k], _mm256_mul_pd(dir, t));
            acc[k] = _mm256_add_pd(acc[k], _mm256_and_pd(step, live));
        }
        count = _mm256_add_pd(count, _mm256_and_pd(one, live));
    }

    let spill = |v: __m256d| {
        let mut out = [0.0; LANES];
        // SAFETY: `out` is four writable `f64`s; `storeu` has no alignment
        // requirement.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), v) };
        out
    };
    let acc = acc.map(spill);
    let count = spill(count);
    std::array::from_fn(|l| {
        if count[l] > 0.0 {
            std::array::from_fn(|k| acc[k][l] / count[l])
        } else {
            coords[i0 + l]
        }
    })
}

/// One Jacobi sweep: relax every node against `others`, reading `coords`
/// and writing `next`, in blocks of [`LANES`] nodes. `embed` runs it
/// against the pivots; against every node it is the per-node reference
/// [`triangle_sweep`] is tested against.
fn sweep(
    coords: &[Point],
    next: &mut [Point],
    dm: &DistanceMatrix,
    others: &[u32],
    parallel: bool,
    kernel: Kernel,
) {
    if parallel {
        next.par_chunks_mut(LANES)
            .enumerate()
            .for_each(|(b, out)| relax_block(b * LANES, out, coords, dm, others, kernel));
    } else {
        for (b, out) in next.chunks_mut(LANES).enumerate() {
            relax_block(b * LANES, out, coords, dm, others, kernel);
        }
    }
}

/// One node's running sums in a [`triangle_sweep`]: [`relax_node`]'s `acc`
/// in the first [`DIMS`] slots and its `count` in the last, filled pair by
/// pair (one AVX2 register).
type Sums = [f64; DIMS + 1];

/// One [`relax_node`] term: `acc += c + dir · t` per dimension, `count += 1`.
#[inline]
fn add_term(sums: &mut Sums, c: &Point, dir: &Point, t: f64) {
    for k in 0..DIMS {
        sums[k] += c[k] + dir[k] * t;
    }
    sums[DIMS] += 1.0;
}

/// The pair `i < j`: the distance and quotients once, then node `i`'s term
/// toward `j` (target `ti = dm[i][j]`) and node `j`'s term toward `i`
/// (target `tj = dm[j][i]`), each the term [`relax_node`] adds for it.
#[inline]
fn relax_pair(i: usize, j: usize, coords: &[Point], (ti, tj): (f64, f64), sums: &mut [Sums]) {
    let cur = euclid(&coords[i], &coords[j]);
    let [di, dj]: [Point; 2] = if cur > 1e-9 {
        let d: Point = std::array::from_fn(|k| (coords[i][k] - coords[j][k]) / cur);
        [d, d.map(|x| -x)]
    } else {
        [[1.0, 0.0, 0.0]; 2]
    };
    if ti.is_finite() {
        add_term(&mut sums[i], &coords[j], &di, ti);
    }
    if tj.is_finite() {
        add_term(&mut sums[j], &coords[i], &dj, tj);
    }
}

/// One all-pairs Jacobi sweep that visits each unordered pair once (see the
/// module docs): bit-identical to [`sweep`] against every node.
fn triangle_sweep(
    coords: &[Point],
    next: &mut [Point],
    dm: &DistanceMatrix,
    kernel: Kernel,
    sums: &mut Vec<Sums>,
) {
    let n = coords.len();
    sums.clear();
    sums.resize(n, [0.0; DIMS + 1]);
    let row = |i: usize| dm.row(NodeId(i as u32));
    let mut i = 0;
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => {
            while i + LANES <= n {
                // SAFETY: `Kernel::Avx2` is constructed only by
                // `Kernel::detect` after `is_x86_feature_detected!("avx2")`
                // returned true.
                unsafe { triangle_block_avx2(i, coords, dm, sums) };
                i += LANES;
            }
        }
        Kernel::Scalar => {}
    }
    for i in i..n {
        for (j, &t) in row(i).iter().enumerate().skip(i + 1) {
            relax_pair(i, j, coords, (t, row(j)[i]), sums);
        }
    }
    for ((p, s), c) in next.iter_mut().zip(sums.iter()).zip(coords) {
        let count = s[DIMS];
        *p = if count > 0.0 {
            std::array::from_fn(|k| s[k] / count)
        } else {
            *c
        };
    }
}

/// The rows `i0..i0 + 4` of a [`triangle_sweep`]: the six pairs inside the
/// block through [`relax_pair`], then one `f64` lane per row against every
/// `j ≥ i0 + 4`. Lane `l` adds node `i0 + l`'s term toward `j` to a register
/// accumulator. Node `j`'s four terms toward the block (targets
/// `dm[j][i0..i0 + 4]`, one load) are transposed into four `[x, y, z, 1]`
/// registers and added to `j`'s sums in lane order, which is ascending
/// partner id.
///
/// # Safety
///
/// The running CPU must support AVX2; [`triangle_sweep`] calls this only
/// for [`Kernel::Avx2`], which [`Kernel::detect`] returns only after
/// checking.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn triangle_block_avx2(i0: usize, coords: &[Point], dm: &DistanceMatrix, sums: &mut [Sums]) {
    use std::arch::x86_64::*;
    type Sums4 = [__m256d; DIMS + 1];

    let rows: [&[f64]; LANES] = std::array::from_fn(|l| dm.row(NodeId((i0 + l) as u32)));
    for a in 0..LANES {
        for b in a + 1..LANES {
            let t = (rows[a][i0 + b], rows[b][i0 + a]);
            relax_pair(i0 + a, i0 + b, coords, t, sums);
        }
    }

    let lanes = |v: [f64; LANES]| _mm256_set_pd(v[3], v[2], v[1], v[0]);
    let ci: [__m256d; DIMS] =
        std::array::from_fn(|k| lanes([0, 1, 2, 3].map(|l| coords[i0 + l][k])));
    let n = coords.len();
    let [r0, r1, r2, r3] = rows.map(|r| &r[..n]);
    let magnitude = _mm256_set1_pd(f64::from_bits(!(1u64 << 63)));
    let sign = _mm256_set1_pd(-0.0);
    let inf = _mm256_set1_pd(f64::INFINITY);
    let tiny = _mm256_set1_pd(1e-9);
    let one = _mm256_set1_pd(1.0);
    let finite = |t: __m256d| _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_and_pd(t, magnitude), inf);
    // `acc[k]` holds slot `k` of the four rows' sums, one row per lane.
    let mut acc: Sums4 = std::array::from_fn(|k| lanes([0, 1, 2, 3].map(|l| sums[i0 + l][k])));
    for j in i0 + LANES..n {
        let t = _mm256_set_pd(r3[j], r2[j], r1[j], r0[j]);
        let tj = &dm.row(NodeId(j as u32))[i0..i0 + LANES];
        // SAFETY: `tj` is four readable `f64`s; `loadu` has no alignment
        // requirement.
        let tj = unsafe { _mm256_loadu_pd(tj.as_ptr()) };
        let (live, live_j) = (finite(t), finite(tj));
        let cj = coords[j].map(|c| _mm256_set1_pd(c));
        let diff: [__m256d; DIMS] = std::array::from_fn(|k| _mm256_sub_pd(ci[k], cj[k]));
        let sq = diff.map(|d| _mm256_mul_pd(d, d));
        let cur = _mm256_sqrt_pd(_mm256_add_pd(_mm256_add_pd(sq[0], sq[1]), sq[2]));
        // Unit direction from j to i; the `[1, 0, 0]` kick when coincident
        // (or when `cur` is NaN, as `cur > 1e-9` is then false).
        let far = _mm256_cmp_pd::<_CMP_GT_OQ>(cur, tiny);
        // Node j's direction is the lane's, negated where `far` and the
        // same kick where not.
        let flip = _mm256_and_pd(sign, far);
        let mut terms_j: Sums4 = [_mm256_and_pd(one, live_j); DIMS + 1];
        for k in 0..DIMS {
            let d = _mm256_div_pd(diff[k], cur);
            let dir = if k == 0 {
                _mm256_blendv_pd(one, d, far)
            } else {
                _mm256_and_pd(d, far)
            };
            let dir_j = _mm256_xor_pd(dir, flip);
            let step = _mm256_add_pd(cj[k], _mm256_mul_pd(dir, t));
            acc[k] = _mm256_add_pd(acc[k], _mm256_and_pd(step, live));
            let step_j = _mm256_add_pd(ci[k], _mm256_mul_pd(dir_j, tj));
            terms_j[k] = _mm256_and_pd(step_j, live_j);
        }
        acc[DIMS] = _mm256_add_pd(acc[DIMS], _mm256_and_pd(one, live));
        // Transpose: term `l` is node j's `[x, y, z, 1]` toward node i0 + l.
        let [x, y, z, c] = terms_j;
        let (xy02, xy13) = (_mm256_unpacklo_pd(x, y), _mm256_unpackhi_pd(x, y));
        let (zc02, zc13) = (_mm256_unpacklo_pd(z, c), _mm256_unpackhi_pd(z, c));
        let terms = [
            _mm256_permute2f128_pd::<0x20>(xy02, zc02),
            _mm256_permute2f128_pd::<0x20>(xy13, zc13),
            _mm256_permute2f128_pd::<0x31>(xy02, zc02),
            _mm256_permute2f128_pd::<0x31>(xy13, zc13),
        ];
        let sums_j = sums[j].as_mut_ptr();
        // SAFETY: `sums[j]` is four contiguous `f64`s; `loadu` / `storeu`
        // have no alignment requirement.
        unsafe {
            let mut acc_j = _mm256_loadu_pd(sums_j);
            for term in terms {
                acc_j = _mm256_add_pd(acc_j, term);
            }
            _mm256_storeu_pd(sums_j, acc_j);
        }
    }

    for (k, v) in acc.into_iter().enumerate() {
        let mut out = [0.0; LANES];
        // SAFETY: `out` is four writable `f64`s; `storeu` has no alignment
        // requirement.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), v) };
        for (l, x) in out.into_iter().enumerate() {
            sums[i0 + l][k] = x;
        }
    }
}

/// Deterministic farthest-point (maxmin) pivot selection. The first pivot is
/// node 0; each subsequent pivot maximizes its distance to the chosen set
/// (ties broken by smaller id). Unreached nodes compare as `INFINITY`, so
/// disconnected components are covered first.
fn choose_pivots(dm: &DistanceMatrix, count: usize) -> Vec<u32> {
    let n = dm.len();
    let count = count.min(n);
    let mut pivots = Vec::with_capacity(count);
    if count == 0 {
        return pivots;
    }
    pivots.push(0u32);
    let mut mind: Vec<f64> = dm.row(NodeId(0)).to_vec();
    while pivots.len() < count {
        let mut best = 0usize;
        for (x, &d) in mind.iter().enumerate() {
            if d.total_cmp(&mind[best]).is_gt() {
                best = x;
            }
        }
        pivots.push(best as u32);
        for (m, &d) in mind.iter_mut().zip(dm.row(NodeId(best as u32))) {
            if d < *m {
                *m = d;
            }
        }
    }
    pivots.sort_unstable();
    pivots
}

impl CostSpace {
    /// Embed the network whose pairwise distances are `dm`.
    ///
    /// `iterations` majorization sweeps are performed (40 is plenty for the
    /// topologies in this workspace); the result is deterministic in `seed`
    /// and identical between the serial and Rayon-parallel pivot sweeps.
    pub fn embed(dm: &DistanceMatrix, seed: u64, iterations: usize) -> Self {
        Self::embed_with_parallel_threshold(dm, seed, iterations, PARALLEL_THRESHOLD)
    }

    /// [`CostSpace::embed`] with an explicit node-count threshold for the
    /// Rayon path of the pivot sweep (tests pin serial vs parallel bits by
    /// forcing each side); the all-pairs sweep is serial at any threshold.
    pub fn embed_with_parallel_threshold(
        dm: &DistanceMatrix,
        seed: u64,
        iterations: usize,
        parallel_threshold: usize,
    ) -> Self {
        Self::embed_with_kernel(dm, seed, iterations, parallel_threshold, Kernel::detect())
    }

    fn embed_with_kernel(
        dm: &DistanceMatrix,
        seed: u64,
        iterations: usize,
        parallel_threshold: usize,
        kernel: Kernel,
    ) -> Self {
        let n = dm.len();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // The initial layout spans the diameter, so scaling every link
        // cost by a power of two scales the embedding by the same factor,
        // bit for bit. A disconnected (or degenerate) network has no
        // positive diameter; any positive scale spreads the initial
        // coordinates equally well. The initial coordinates are drawn for
        // every node up front, in node order, so the pivot and exact paths
        // start from the same layout.
        let scale = dm.diameter().filter(|d| *d > 0.0).unwrap_or(1.0);
        let mut coords: Vec<Point> = (0..n)
            .map(|_| {
                let mut p = [0.0; DIMS];
                for c in &mut p {
                    *c = rng.gen_range(0.0..scale);
                }
                p
            })
            .collect();

        let pivots = (n > PIVOT_THRESHOLD).then(|| choose_pivots(dm, PIVOT_COUNT));
        let mut next = coords.clone();
        let mut sums = Vec::new();
        let parallel = n >= parallel_threshold;
        for _ in 0..iterations {
            match &pivots {
                Some(pivots) => sweep(&coords, &mut next, dm, pivots, parallel, kernel),
                None => triangle_sweep(&coords, &mut next, dm, kernel, &mut sums),
            }
            std::mem::swap(&mut coords, &mut next);
        }
        CostSpace { coords }
    }

    /// Coordinates of a node.
    #[inline]
    pub fn coord(&self, node: NodeId) -> Point {
        self.coords[node.index()]
    }

    /// Number of embedded nodes.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when the embedding is empty.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Euclidean distance between two embedded nodes.
    pub fn dist(&self, a: NodeId, b: NodeId) -> f64 {
        euclid(&self.coords[a.index()], &self.coords[b.index()])
    }

    /// The embedded node nearest to an arbitrary point, optionally restricted
    /// to a candidate set. Ties broken by node id for determinism.
    pub fn nearest(&self, p: &Point, candidates: Option<&[NodeId]>) -> NodeId {
        let best = |ids: &mut dyn Iterator<Item = NodeId>| -> NodeId {
            ids.min_by(|a, b| {
                euclid(&self.coords[a.index()], p)
                    .total_cmp(&euclid(&self.coords[b.index()], p))
                    .then(a.0.cmp(&b.0))
            })
            .expect("nearest() on empty candidate set")
        };
        match candidates {
            Some(c) => best(&mut c.iter().copied()),
            None => best(&mut (0..self.coords.len() as u32).map(NodeId)),
        }
    }

    /// Normalized stress: sqrt( Σ (emb − target)² / Σ target² ) over all
    /// finite pairs. Lower is better; useful for embedding-quality tests.
    pub fn stress(&self, dm: &DistanceMatrix) -> f64 {
        let n = self.coords.len();
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let t = dm.get(NodeId(i as u32), NodeId(j as u32));
                if !t.is_finite() {
                    continue;
                }
                let e = euclid(&self.coords[i], &self.coords[j]);
                num += (e - t) * (e - t);
                den += t * t;
            }
        }
        if den == 0.0 {
            0.0
        } else {
            (num / den).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::Metric;
    use crate::topology::TransitStubConfig;

    #[test]
    fn embedding_has_low_stress_on_paper_topology() {
        let ts = TransitStubConfig::paper_64().generate(1);
        let dm = DistanceMatrix::build(&ts.network, Metric::Cost);
        let cs = CostSpace::embed(&dm, 1, 40);
        let s = cs.stress(&dm);
        assert!(s < 0.35, "stress too high: {s}");
    }

    #[test]
    fn embedding_is_deterministic() {
        let ts = TransitStubConfig::paper_64().generate(2);
        let dm = DistanceMatrix::build(&ts.network, Metric::Cost);
        let a = CostSpace::embed(&dm, 9, 10);
        let b = CostSpace::embed(&dm, 9, 10);
        for n in ts.network.nodes() {
            assert_eq!(a.coord(n), b.coord(n));
        }
    }

    #[test]
    fn embedding_scales_with_link_costs_bit_for_bit() {
        // A power-of-two factor is exact in f64, and the embedding has no
        // unit of its own: a network whose diameter falls below one cost
        // unit must embed as the scaled original, not from a layout floored
        // at one unit.
        let net = TransitStubConfig::paper_64().generate(3).network;
        let factor = (-10f64).exp2();
        let mut scaled = net.clone();
        for a in net.nodes() {
            for l in net.neighbors(a).iter().filter(|l| a < l.to) {
                scaled.set_link_cost(a, l.to, l.cost * factor);
            }
        }
        let dm = DistanceMatrix::build(&net, Metric::Cost);
        let scaled_dm = DistanceMatrix::build(&scaled, Metric::Cost);
        assert!(scaled_dm.diameter().unwrap() < 1.0, "below the old floor");
        let want = CostSpace::embed(&dm, 5, 20);
        let got = CostSpace::embed(&scaled_dm, 5, 20);
        for n in net.nodes() {
            assert_eq!(
                got.coord(n).map(f64::to_bits),
                want.coord(n).map(|c| (c * factor).to_bits()),
                "{n}"
            );
        }
    }

    /// Every kernel this host can run, the scalar reference first. (On a
    /// host without AVX2 the block kernel is never chosen, so there is
    /// nothing to compare and the kernel tests check the scalar sweep only.)
    fn kernels() -> Vec<Kernel> {
        let mut ks = vec![Kernel::Scalar];
        if Kernel::detect() != Kernel::Scalar {
            ks.push(Kernel::detect());
        }
        ks
    }

    fn assert_bits_eq(want: &[Point], got: &[Point], what: &str) {
        assert_eq!(want.len(), got.len(), "{what}");
        for (i, (a, b)) in want.iter().zip(got).enumerate() {
            for k in 0..DIMS {
                assert_eq!(a[k].to_bits(), b[k].to_bits(), "{what}: node {i} dim {k}");
            }
        }
    }

    /// The seeded initial layout `embed` starts its sweeps from.
    fn start_layout(dm: &DistanceMatrix, seed: u64) -> Vec<Point> {
        CostSpace::embed_with_kernel(dm, seed, 0, usize::MAX, Kernel::Scalar).coords
    }

    type Sweep<'a> = &'a dyn Fn(&[Point], &mut [Point]);

    /// `iterations` sweeps of `step` from `start`.
    fn run(start: &[Point], iterations: usize, step: Sweep) -> Vec<Point> {
        let (mut coords, mut next) = (start.to_vec(), start.to_vec());
        for _ in 0..iterations {
            step(&coords, &mut next);
            std::mem::swap(&mut coords, &mut next);
        }
        coords
    }

    fn triangle(dm: &DistanceMatrix, kernel: Kernel) -> impl Fn(&[Point], &mut [Point]) + '_ {
        move |coords, next| {
            triangle_sweep(coords, next, dm, kernel, &mut Vec::new());
        }
    }

    /// Runs `iterations` sweeps from `start` under every kernel, serial and
    /// parallel — and, when `others` is every node, the triangle sweep under
    /// every kernel — and checks each against the scalar serial per-node
    /// sweep bit for bit.
    fn assert_sweeps_agree(
        dm: &DistanceMatrix,
        start: &[Point],
        others: &[u32],
        iterations: usize,
    ) {
        let per_node = |parallel, kernel| {
            move |c: &[Point], n: &mut [Point]| sweep(c, n, dm, others, parallel, kernel)
        };
        let reference = run(start, iterations, &per_node(false, Kernel::Scalar));
        let all_pairs = others.iter().copied().eq(0..dm.len() as u32);
        for kernel in kernels() {
            for parallel in [false, true] {
                let what = format!("{kernel:?}, parallel {parallel}, n {}", dm.len());
                let got = run(start, iterations, &per_node(parallel, kernel));
                assert_bits_eq(&reference, &got, &what);
            }
            if all_pairs {
                let what = format!("{kernel:?} triangle, n {}", dm.len());
                let got = run(start, iterations, &triangle(dm, kernel));
                assert_bits_eq(&reference, &got, &what);
            }
        }
    }

    fn all_nodes(dm: &DistanceMatrix) -> Vec<u32> {
        (0..dm.len() as u32).collect()
    }

    #[test]
    fn parallel_embed_matches_serial_bits() {
        // The parallel threshold schedules only the pivot sweep, so it must
        // not move the all-pairs embedding's bits — and every lane of the
        // block kernel must reproduce the scalar update. (The Rayon pivot
        // sweep is checked against its serial run by the kernel tests.)
        let ts = TransitStubConfig::paper_128().generate(6);
        let dm = DistanceMatrix::build(&ts.network, Metric::Cost);
        let reference = CostSpace::embed_with_kernel(&dm, 6, 25, usize::MAX, Kernel::Scalar);
        for kernel in kernels() {
            for threshold in [usize::MAX, 0] {
                let got = CostSpace::embed_with_kernel(&dm, 6, 25, threshold, kernel);
                let what = format!("{kernel:?}, parallel threshold {threshold}");
                assert_bits_eq(&reference.coords, &got.coords, &what);
            }
        }
        let detected = CostSpace::embed(&dm, 6, 25);
        assert_bits_eq(&reference.coords, &detected.coords, "embed");
    }

    #[test]
    fn block_kernel_matches_scalar_on_ledger_topology() {
        let ts = TransitStubConfig {
            transit_domains: 4,
            transit_nodes_per_domain: 8,
            stub_domains_per_transit_node: 4,
            stub_nodes_per_domain: 8,
            ..TransitStubConfig::default()
        }
        .generate(42);
        let dm = DistanceMatrix::build(&ts.network, Metric::Cost);
        assert_eq!(dm.len(), 1056);
        assert_sweeps_agree(&dm, &start_layout(&dm, 42), &all_nodes(&dm), 3);
    }

    #[test]
    fn triangle_sweep_matches_jacobi_on_ledger_topology_over_40_sweeps() {
        // `embed`'s full run on the ledger's 1,056 nodes. The per-node
        // reference runs on Rayon, which the test above shows is its serial
        // run bit for bit. CI runs this crate's tests optimized; an
        // unoptimized build checks the first four sweeps only, to keep the
        // debug suite's wall time.
        let ts = TransitStubConfig {
            transit_domains: 4,
            transit_nodes_per_domain: 8,
            stub_domains_per_transit_node: 4,
            stub_nodes_per_domain: 8,
            ..TransitStubConfig::default()
        }
        .generate(42);
        let dm = DistanceMatrix::build(&ts.network, Metric::Cost);
        let start = start_layout(&dm, 42);
        let all = all_nodes(&dm);
        let sweeps = if cfg!(debug_assertions) { 4 } else { 40 };
        let reference = run(&start, sweeps, &|c, n| {
            sweep(c, n, &dm, &all, true, Kernel::Scalar)
        });
        for kernel in kernels() {
            let got = run(&start, sweeps, &triangle(&dm, kernel));
            assert_bits_eq(&reference, &got, &format!("{kernel:?} triangle"));
        }
        let embedded = CostSpace::embed(&dm, 42, sweeps);
        assert_bits_eq(&reference, &embedded.coords, "embed");
    }

    #[test]
    fn triangle_sweep_reads_each_sides_own_row() {
        use crate::graph::{LinkKind, Network};
        // On the path 0 -0.1- 1 -0.2- 2 -0.3- 3 the matrix is not symmetric
        // in bits: row 0 sums (0.1 + 0.2) + 0.3, row 3 sums (0.3 + 0.2) + 0.1.
        // So node 3's term toward 0 must use dm[3][0], not dm[0][3]. Nine
        // nodes (the weights repeated) put such pairs across AVX2 blocks too.
        for n in [4u32, 9] {
            let mut net = Network::new(n as usize);
            for a in 1..n {
                let w = [0.1, 0.2, 0.3][(a as usize - 1) % 3];
                net.add_link(NodeId(a - 1), NodeId(a), w, 1.0, LinkKind::Stub);
            }
            let dm = DistanceMatrix::build(&net, Metric::Cost);
            let bits = |a, b| dm.get(NodeId(a), NodeId(b)).to_bits();
            assert_ne!(bits(0, 3), bits(3, 0));
            assert!(n == 4 || bits(1, 4) != bits(4, 1));
            assert_sweeps_agree(&dm, &start_layout(&dm, 4), &all_nodes(&dm), 10);
        }
    }

    #[test]
    fn block_kernel_matches_scalar_against_pivots() {
        let ts = TransitStubConfig::paper_128().generate(8);
        let dm = DistanceMatrix::build(&ts.network, Metric::Cost);
        let pivots = choose_pivots(&dm, 16);
        assert_sweeps_agree(&dm, &start_layout(&dm, 8), &pivots, 20);
    }

    #[test]
    fn block_kernel_masks_unreachable_targets() {
        use crate::graph::{LinkKind, Network};
        // A 5-node path, a 3-node triangle and an isolated node: most rows
        // hold `+∞`, and node 8 has no finite target at all.
        let mut net = Network::new(9);
        for a in 0..4 {
            net.add_link(
                NodeId(a),
                NodeId(a + 1),
                1.0 + a as f64,
                1.0,
                LinkKind::Stub,
            );
        }
        net.add_link(NodeId(5), NodeId(6), 2.0, 1.0, LinkKind::Stub);
        net.add_link(NodeId(6), NodeId(7), 3.0, 1.0, LinkKind::Stub);
        net.add_link(NodeId(5), NodeId(7), 4.0, 1.0, LinkKind::Stub);
        let dm = DistanceMatrix::build(&net, Metric::Cost);
        let start = start_layout(&dm, 5);
        assert_sweeps_agree(&dm, &start, &all_nodes(&dm), 30);
        assert_sweeps_agree(&dm, &start, &choose_pivots(&dm, 4), 30);
    }

    #[test]
    fn block_kernel_takes_the_kick_on_coincident_points() {
        let ts = TransitStubConfig::paper_64().generate(3);
        let dm = DistanceMatrix::build(&ts.network, Metric::Cost);
        // Every node at one point, then pairs of nodes sharing a point.
        let same = vec![[1.5, -2.0, 0.25]; dm.len()];
        assert_sweeps_agree(&dm, &same, &all_nodes(&dm), 5);
        let mut pairs = start_layout(&dm, 3);
        for i in (1..pairs.len()).step_by(2) {
            pairs[i] = pairs[i - 1];
        }
        assert_sweeps_agree(&dm, &pairs, &all_nodes(&dm), 5);
    }

    #[test]
    fn block_kernel_matches_scalar_on_tail_blocks() {
        use crate::graph::{LinkKind, Network};
        for n in [1u32, 2, 3, 5, 7] {
            let mut net = Network::new(n as usize);
            for a in 1..n {
                net.add_link(NodeId(a - 1), NodeId(a), a as f64, 1.0, LinkKind::Stub);
            }
            let dm = DistanceMatrix::build(&net, Metric::Cost);
            assert_sweeps_agree(&dm, &start_layout(&dm, n as u64), &all_nodes(&dm), 10);
        }
    }

    #[test]
    fn pivot_selection_is_deterministic_and_covers_components() {
        use crate::graph::{LinkKind, Network};
        // Two components: a triangle and a pair, plus an isolated node.
        let mut net = Network::new(6);
        net.add_link(NodeId(0), NodeId(1), 1.0, 1.0, LinkKind::Stub);
        net.add_link(NodeId(1), NodeId(2), 1.0, 1.0, LinkKind::Stub);
        net.add_link(NodeId(0), NodeId(2), 1.0, 1.0, LinkKind::Stub);
        net.add_link(NodeId(3), NodeId(4), 1.0, 1.0, LinkKind::Stub);
        let dm = DistanceMatrix::build(&net, Metric::Cost);
        let p1 = choose_pivots(&dm, 3);
        let p2 = choose_pivots(&dm, 3);
        assert_eq!(p1, p2);
        // Unreached nodes compare as INFINITY, so after node 0 the next two
        // pivots must come from the other components before any triangle
        // node is repeated.
        assert!(p1.contains(&0));
        assert!(p1.iter().any(|&p| p == 3 || p == 4));
        assert!(p1.contains(&5));
    }

    #[test]
    fn nearest_respects_candidate_restriction() {
        let ts = TransitStubConfig::emulab_32().generate(3);
        let dm = DistanceMatrix::build(&ts.network, Metric::Cost);
        let cs = CostSpace::embed(&dm, 3, 20);
        let p = cs.coord(NodeId(0));
        assert_eq!(cs.nearest(&p, None), NodeId(0));
        let candidates = [NodeId(5), NodeId(9)];
        let picked = cs.nearest(&p, Some(&candidates));
        assert!(candidates.contains(&picked));
    }

    #[test]
    fn nearby_nodes_embed_nearby() {
        // Nodes in the same stub domain should usually be embedded closer to
        // each other than to nodes in a remote domain.
        let ts = TransitStubConfig::paper_128().generate(4);
        let dm = DistanceMatrix::build(&ts.network, Metric::Cost);
        let cs = CostSpace::embed(&dm, 4, 40);
        let (_, d0) = &ts.stub_domains[0];
        let (_, d9) = &ts.stub_domains[9];
        let intra = cs.dist(d0[0], d0[1]);
        let cross = cs.dist(d0[0], d9[0]);
        assert!(intra < cross, "intra {intra} vs cross {cross}");
    }
}
