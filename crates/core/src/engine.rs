//! The within-cluster planning engine shared by every optimizer.
//!
//! Each coordinator in the paper "exhaustively constructs the possible query
//! trees … and for each such tree constructs a set of all possible node
//! assignments within its current cluster", picking the cheapest. This
//! module implements that search as one recurrence fed by two enumerations,
//! plus one reference search:
//!
//! * [`ClusterPlanner::plan`] — a subset/placement dynamic program that
//!   returns the *same optimum* as literal enumeration for the sum-of-edge
//!   costs metric, instead of `O((2A−3)!!·M^(A−1))` (A = atoms, M =
//!   candidate nodes). Only *reachable* states — disjoint unions of input
//!   coverages — are solved: with R of them and P splits of one into two
//!   reachable halves, the fill costs `O(P·M + R·M²)` (at most
//!   `O(3^A·M + 2^A·M²)`, all-singleton inputs), each state's `deliv` row
//!   read source by source along the distance matrix's rows. The
//!   recurrence — the `prod`/`deliv` tables, the final selection and the
//!   tree reconstruction — exists once, over numbered *states*; what a
//!   state is and how it splits comes from an enumeration chosen by
//!   universe width. Up to `DENSE_MAX_ATOMS` atoms a state is a one-word
//!   mask: an `O(2^A · inputs)` pass marks the reachable ones, and a
//!   reachable mask splits by a sub-mask walk that skips unreachable
//!   halves (the tables keep `2^A` rows; unreachable ones stay `+∞`). Wider
//!   universes number the reachable sets only (as word-array bitsets) and
//!   find a set's splits by scanning them, so there is no 32-atom overflow
//!   cliff — only a typed
//!   [`PlacementError::UniverseTooLarge`] budget. The scan is what keeps
//!   the sparse enumeration off narrow universes: over all-singleton
//!   inputs it is several times slower at 6 atoms and tens of times by 12
//!   (measured in DESIGN.md row 27);
//! * [`ClusterPlanner::plan_exhaustive`] — the literal enumerate-everything
//!   search, kept for validation and ablation.
//!
//! The *search-space size* an invocation conceptually covers is accounted
//! separately by [`SearchStats`] with the paper's own
//! Lemma 1 formula, so Figure 9's counts are not affected by which engine
//! computes the optimum.
//!
//! Inputs may *overlap*: a reusable derived stream covering `{A, B}`
//! competes with the base streams `A` and `B`, and the search picks
//! whichever mix is cheapest — this is how operator reuse is "automatically
//! considered in the planning process". Under the catalog's independence
//! model the output rate of any subset of atoms is well-defined regardless
//! of which providers produce it, which is what makes the dynamic program
//! exact.

use crate::optimal::PlacementError;
use crate::placed::PlacedTree;
use crate::stats::SearchStats;
use dsq_net::{DistanceMatrix, NodeId};
use dsq_query::{Catalog, InputSet, LeafSource, Query, StreamId, StreamSet};
use std::collections::HashMap;

/// Widest atom universe the dense enumeration allocates full `2^a · m`
/// tables for; beyond this the sparse reachable-set enumeration takes over.
/// The dense sweep walks every reachable mask's sub-masks — `O(3^a)` work
/// when every mask is reachable (all-singleton inputs) — so 14 keeps the
/// worst case under ~5M partition visits; past that the
/// sparse enumeration is exact and either cheaper (coarse inputs) or a
/// fast typed refusal (fine-grained ones).
const DENSE_MAX_ATOMS: usize = 14;

/// Cap on distinct reachable input unions the sparse enumeration tracks before
/// returning [`PlacementError::UniverseTooLarge`]. A universe of many
/// fine-grained inputs (e.g. 30 singletons) blows past this immediately;
/// wide universes tiled by a handful of coarse inputs stay far under it.
const SPARSE_STATE_BUDGET: usize = 4096;

/// Atom cap for the literal exhaustive search (validation/ablation only).
const EXHAUSTIVE_MAX_ATOMS: usize = 5;

/// All-ones mask for an `a`-atom universe, handling the `a == 64` word
/// boundary uniformly (the analog of the old `a == 32` special case that
/// `plan_exhaustive` was missing).
fn mask_full(a: usize) -> u64 {
    debug_assert!(a <= 64, "dense masks cap at one word");
    if a == 64 {
        u64::MAX
    } else {
        (1u64 << a) - 1
    }
}

/// What a planning input is, for tree reconstruction.
#[derive(Clone, Debug)]
pub enum InputKind {
    /// A base or reused derived stream.
    Leaf(LeafSource),
    /// The output of another fragment (Top-Down refinement), identified by
    /// a caller-scoped tag.
    External {
        /// Caller-scoped fragment tag.
        tag: usize,
    },
}

/// One stream available to a planning step.
#[derive(Clone, Debug)]
pub struct PlannerInput {
    /// Reconstruction payload.
    pub kind: InputKind,
    /// Base streams this input covers (disjointness with co-selected
    /// inputs is enforced by the search).
    pub covered: StreamSet,
    /// Node the input is actually produced at (recorded in the tree).
    pub location: NodeId,
    /// Node used for *distances* during this planning step — the input's
    /// representative at the planning level (equals `location` when planning
    /// with full knowledge).
    pub seen: NodeId,
}

impl PlannerInput {
    /// Input for a base stream of the query, seen at its true node.
    pub fn base(catalog: &Catalog, id: StreamId) -> Self {
        let node = catalog.stream(id).node;
        PlannerInput {
            kind: InputKind::Leaf(LeafSource::Base(id)),
            covered: StreamSet::singleton(id),
            location: node,
            seen: node,
        }
    }

    /// Input for a reusable derived stream (as returned by
    /// [`dsq_query::ReuseRegistry::usable_for`]).
    pub fn derived(leaf: LeafSource) -> Self {
        match &leaf {
            LeafSource::Derived { covered, host, .. } => PlannerInput {
                covered: covered.clone(),
                location: *host,
                seen: *host,
                kind: InputKind::Leaf(leaf),
            },
            LeafSource::Base(_) => panic!("use PlannerInput::base for base streams"),
        }
    }

    /// Input standing for another fragment's output.
    pub fn external(tag: usize, covered: StreamSet, location: NodeId) -> Self {
        PlannerInput {
            kind: InputKind::External { tag },
            covered,
            location,
            seen: location,
        }
    }

    /// The same input, seen at a representative node for planning.
    pub fn seen_at(mut self, seen: NodeId) -> Self {
        self.seen = seen;
        self
    }

    fn tree(&self) -> PlacedTree {
        match &self.kind {
            InputKind::Leaf(l) => PlacedTree::Leaf(l.clone()),
            InputKind::External { tag } => PlacedTree::External {
                tag: *tag,
                covered: self.covered.clone(),
                location: self.location,
            },
        }
    }
}

/// Result of a planning step.
#[derive(Clone, Debug)]
pub struct PlannerOutput {
    /// The chosen tree, joins assigned to candidate nodes.
    pub tree: PlacedTree,
    /// Cost under the planning-level distance view (actual deployed cost is
    /// evaluated later against true distances).
    pub est_cost: f64,
}

/// Planning context: the catalog (rates, selectivities), the query
/// (selection predicates folded into effective rates), and optionally a
/// [`LoadModel`](crate::load::LoadModel) whose overload penalties are added
/// to every candidate operator placement.
#[derive(Clone, Copy, Debug)]
pub struct ClusterPlanner<'a> {
    catalog: &'a Catalog,
    query: &'a Query,
    load: Option<&'a crate::load::LoadModel>,
    dense_limit: usize,
}

#[derive(Clone, Copy, Debug)]
enum DelivBack {
    None,
    Input(usize),
    From(usize),
}

/// The arguments of one [`ClusterPlanner::plan`] call.
#[derive(Clone, Copy)]
struct Step<'s> {
    inputs: &'s [PlannerInput],
    candidates: &'s [NodeId],
    dm: &'s DistanceMatrix,
    dest: Option<NodeId>,
    anchor: Option<NodeId>,
}

/// A step's universe as an enumeration numbered it: a *state* is an index
/// standing for one set of atoms.
#[derive(Clone, Copy)]
struct States<'s> {
    /// Width of the atom universe.
    atoms: usize,
    /// Output rate of each state; as long as the tables are high.
    rate: &'s [f64],
    /// The state each input's coverage is.
    input_state: &'s [usize],
    /// The state covering the whole universe.
    full: usize,
}

impl<'a> ClusterPlanner<'a> {
    /// Create a planner for one query.
    pub fn new(catalog: &'a Catalog, query: &'a Query) -> Self {
        ClusterPlanner {
            catalog,
            query,
            load: None,
            dense_limit: DENSE_MAX_ATOMS,
        }
    }

    /// Lower the dense-DP width cutoff so small universes exercise the
    /// sparse reachable-set path (testing only).
    #[cfg(test)]
    fn with_dense_limit(mut self, limit: usize) -> Self {
        self.dense_limit = limit;
        self
    }

    /// Attach a load model: candidate placements pay its marginal overload
    /// penalty on top of transport cost.
    pub fn with_load(mut self, load: Option<&'a crate::load::LoadModel>) -> Self {
        self.load = load;
        self
    }

    #[inline]
    fn placement_penalty(&self, node: NodeId, input_rate: f64) -> f64 {
        self.load.map_or(0.0, |l| l.penalty(node, input_rate))
    }

    /// The stream catalog this planner estimates rates from.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// Whether a load model is attached (placements pay overload penalties;
    /// such invocations must bypass the subplan cache).
    pub fn has_load(&self) -> bool {
        self.load.is_some()
    }

    /// The query being planned.
    pub fn query(&self) -> &'a Query {
        self.query
    }

    /// Plan the join of every atom covered by `inputs`, placing operators on
    /// `candidates`.
    ///
    /// * `dest: Some(d)` — include delivery of the result to `d` in the
    ///   objective (`d` given in the planning-level view).
    /// * `dest: None` — intermediate deployment (Bottom-Up): the result
    ///   stays at the chosen root operator; ties broken toward `anchor`.
    ///
    /// Returns `Ok(None)` when the atoms cannot be covered (e.g. no
    /// candidates but joins required), and
    /// `Err(PlacementError::UniverseTooLarge)` when the universe is too
    /// wide even for the sparse enumeration — never a shift overflow.
    ///
    /// Either way the recurrence runs over the *reachable* sets only
    /// (disjoint unions of input coverages). Universes up to
    /// `DENSE_MAX_ATOMS` (14) atoms find them in a table over every
    /// one-word mask; wider ones enumerate them as [`InputSet`] bitsets,
    /// which handles e.g. a 40-atom universe tiled by 8 coarse derived
    /// inputs exactly.
    pub fn plan(
        &self,
        inputs: &[PlannerInput],
        candidates: &[NodeId],
        dm: &DistanceMatrix,
        dest: Option<NodeId>,
        anchor: Option<NodeId>,
        stats: &mut SearchStats,
    ) -> Result<Option<PlannerOutput>, PlacementError> {
        let atoms = atom_universe(inputs);
        if atoms.is_empty() {
            return Ok(None);
        }
        let step = Step {
            inputs,
            candidates,
            dm,
            dest,
            anchor,
        };
        if atoms.len() <= self.dense_limit {
            Ok(self.plan_dense(&step, &atoms, stats))
        } else {
            self.plan_sparse(&step, &atoms, stats)
        }
    }

    /// Dense enumeration: a state is a one-word atom mask, and the
    /// reachable ones are visited in ascending order (a sub-mask is
    /// numerically smaller than its mask, so it is final before any
    /// partition reads it); a mask's partitions are its proper sub-masks
    /// holding the lowest atom, walked downwards, whose two halves are
    /// both reachable.
    fn plan_dense(
        &self,
        step: &Step<'_>,
        atoms: &[StreamId],
        stats: &mut SearchStats,
    ) -> Option<PlannerOutput> {
        let full = mask_full(atoms.len()) as usize;
        let rate = self.rate_table(atoms);
        let input_state: Vec<usize> = step
            .inputs
            .iter()
            .map(|i| mask_of(&i.covered, atoms) as usize)
            .collect();
        let states = States {
            atoms: atoms.len(),
            rate: &rate,
            input_state: &input_state,
            full,
        };
        // A mask is reachable iff it is a disjoint union of input coverages:
        // some coverage holds its lowest atom, lies inside it, and leaves a
        // reachable rest. An unreachable mask's cells stay `+∞` (no input
        // is it, and every partition of it has an unreachable half), so
        // skipping those masks and those partitions changes no cell.
        let mut reach = vec![false; full + 1];
        reach[0] = true;
        for mask in 1..=full {
            let low = mask & mask.wrapping_neg();
            reach[mask] = input_state
                .iter()
                .any(|&c| c & low != 0 && c & !mask == 0 && reach[mask ^ c]);
        }
        let reach = &reach;
        let order = (1..=full).filter(|&mask| reach[mask]);
        self.solve("engine.plan", step, &states, stats, order, |mask| {
            let low = mask & mask.wrapping_neg();
            let below = move |s: usize| Some((s - 1) & mask).filter(|&t| t > 0);
            std::iter::successors(below(mask), move |&s| below(s))
                .filter(move |&s| s & low != 0 && reach[s] && reach[mask ^ s])
                .map(move |s| (s, mask ^ s))
        })
    }

    /// Sparse enumeration, for universes wider than one dense table can
    /// hold: the states are the *reachable* sets only — disjoint unions of
    /// input coverages, found breadth-first.
    ///
    /// Invariant making this exact: `deliv`/`prod` are finite only for
    /// disjoint unions of input coverages, so restricting the recurrence
    /// to those sets loses nothing. Sets are visited popcount-ascending
    /// (every proper subset of a set has strictly smaller popcount), which
    /// finalizes subset rows before any superset's partitions read them; a
    /// set's partitions are found by one scan over the reachable sets.
    fn plan_sparse(
        &self,
        step: &Step<'_>,
        atoms: &[StreamId],
        stats: &mut SearchStats,
    ) -> Result<Option<PlannerOutput>, PlacementError> {
        let a = atoms.len();
        let cov: Vec<InputSet> = step
            .inputs
            .iter()
            .map(|i| atom_bits(&i.covered, atoms))
            .collect();

        // Enumerate reachable sets breadth-first, one input at a time:
        // every disjoint union {i1 < … < ik} is built in input order, and
        // each (set, input) pair is examined once.
        let mut sets: Vec<InputSet> = vec![InputSet::new()];
        let mut index: HashMap<InputSet, usize> = HashMap::new();
        index.insert(InputSet::new(), 0);
        for c in &cov {
            let frontier = sets.len();
            for si in 0..frontier {
                if sets[si].is_disjoint_from(c) {
                    let u = sets[si].union(c);
                    if !index.contains_key(&u) {
                        if sets.len() >= SPARSE_STATE_BUDGET {
                            return Err(PlacementError::UniverseTooLarge { atoms: a });
                        }
                        index.insert(u.clone(), sets.len());
                        sets.push(u);
                    }
                }
            }
        }
        let Some(&full) = index.get(&InputSet::from_bits(0..a)) else {
            return Ok(None); // the inputs cannot tile the universe
        };

        let mut order: Vec<usize> = (1..sets.len()).collect();
        order.sort_unstable_by(|&x, &y| {
            sets[x]
                .len()
                .cmp(&sets[y].len())
                .then_with(|| sets[x].cmp(&sets[y]))
        });

        let input_state: Vec<usize> = cov.iter().map(|c| index[c]).collect();
        let eff: Vec<f64> = atoms
            .iter()
            .map(|&s| self.query.effective_rate(self.catalog, s))
            .collect();
        let rate: Vec<f64> = sets
            .iter()
            .map(|s| self.sparse_rate(s, atoms, &eff))
            .collect();

        let states = States {
            atoms: a,
            rate: &rate,
            input_state: &input_state,
            full,
        };
        // Partitions of a set: reachable proper subsets holding its lowest
        // atom whose complement is reachable too.
        let (sets, index) = (&sets, &index);
        let partitions = |si: usize| {
            let set = &sets[si];
            let lowatom = set.min_bit().expect("non-empty set");
            sets.iter().enumerate().skip(1).filter_map(move |(sj, s)| {
                if s.len() < set.len() && s.contains(lowatom) && s.is_subset_of(set) {
                    index.get(&set.difference(s)).map(|&cj| (sj, cj))
                } else {
                    None
                }
            })
        };
        let order = order.iter().copied();
        Ok(self.solve(
            "engine.plan_sparse",
            step,
            &states,
            stats,
            order,
            partitions,
        ))
    }

    /// The recurrence both enumerations feed. `order` lists the states so
    /// that every part of a state's partitions comes before it, and
    /// `partitions(state)` yields its two-way splits as `(part, rest)`
    /// state pairs; a strictly cheaper candidate replaces the incumbent, so
    /// the enumeration's own order decides ties.
    fn solve<P, I>(
        &self,
        span: &'static str,
        step: &Step<'_>,
        states: &States<'_>,
        stats: &mut SearchStats,
        order: impl Iterator<Item = usize>,
        partitions: P,
    ) -> Option<PlannerOutput>
    where
        P: Fn(usize) -> I,
        I: Iterator<Item = (usize, usize)>,
    {
        let Step {
            inputs,
            candidates,
            dm,
            dest,
            anchor,
        } = *step;
        let States {
            atoms,
            rate,
            input_state,
            full,
        } = *states;
        let m = candidates.len();
        // Two tables of one cell per (state, candidate).
        let cells = rate.len() * m.max(1);
        let dp_states = cells as u64 * 2;
        stats.record_dp_states(dp_states);
        let _span = dsq_obs::span(span, || {
            vec![
                ("atoms", atoms.into()),
                ("inputs", inputs.len().into()),
                ("candidates", m.into()),
                ("dp_states", dp_states.into()),
            ]
        });
        dsq_obs::counter("engine.plan_invocations", 1);
        dsq_obs::counter("engine.dp_states", dp_states);

        debug_assert!(rate.len() <= u32::MAX as usize, "back-pointers are u32");
        let idx = |state: usize, mi: usize| state * m + mi;
        let mut deliv = vec![f64::INFINITY; cells];
        let mut deliv_back = vec![DelivBack::None; deliv.len()];
        let mut prod = vec![f64::INFINITY; deliv.len()];
        let mut prod_back = vec![[0u32; 2]; deliv.len()];

        // Cheapest way to have `state`'s result at each of `targets`, into
        // `best`/`back` (which start at `+∞`/`None`): an input streamed
        // there directly, or the result produced at some candidate and
        // shipped over. Sources go in a fixed order — the state's own
        // inputs by index, then producing candidates ascending — each
        // reading its one distance row across all targets; a strictly
        // cheaper source replaces the incumbent, so the earlier one keeps
        // a tie.
        let deliver = |prod_row: &[f64],
                       state: usize,
                       targets: &[NodeId],
                       best: &mut [f64],
                       back: &mut [DelivBack]| {
            let r = rate[state];
            for (ii, input) in inputs.iter().enumerate() {
                if input_state[ii] == state {
                    let from = dm.row(input.seen);
                    relax(targets, best, back, DelivBack::Input(ii), |t| r * from[t]);
                }
            }
            for (mj, &p) in prod_row.iter().enumerate() {
                if p.is_finite() {
                    let from = dm.row(candidates[mj]);
                    relax(targets, best, back, DelivBack::From(mj), |t| {
                        p + r * from[t]
                    });
                }
            }
        };

        let mut solved = 0u64;
        for state in order {
            // prod[state][mi]: a join at candidate mi combines a partition
            // of `state`, each side delivered to mi. A single-atom state
            // has no partition and stays unproducible. The partitions are
            // enumerated once per state (the sparse scan is the costly
            // part), each updating the whole candidate row.
            if m > 0 {
                let best = &mut prod[idx(state, 0)..][..m];
                let back = &mut prod_back[idx(state, 0)..][..m];
                for (s, c) in partitions(state) {
                    let (ds, dc) = (&deliv[idx(s, 0)..][..m], &deliv[idx(c, 0)..][..m]);
                    let joined = rate[s] + rate[c];
                    for mi in 0..m {
                        // Transport of both inputs plus the processing
                        // overload penalty at this candidate.
                        let v = ds[mi] + dc[mi] + self.placement_penalty(candidates[mi], joined);
                        if v < best[mi] {
                            best[mi] = v;
                            back[mi] = [s as u32, c as u32];
                        }
                    }
                }
            }
            deliver(
                &prod[idx(state, 0)..][..m],
                state,
                candidates,
                &mut deliv[idx(state, 0)..][..m],
                &mut deliv_back[idx(state, 0)..][..m],
            );
            solved += 1;
        }
        dsq_obs::counter("engine.states_solved", solved);

        // Final selection.
        let rec = Reconstructor {
            inputs,
            candidates,
            deliv_back: &deliv_back,
            prod_back: &prod_back,
            m,
        };
        match dest {
            // Delivery to the destination is one more `deliv` cell; only
            // the winning tree is ever reconstructed.
            Some(d) => {
                let (mut est_cost, mut back) = ([f64::INFINITY], [DelivBack::None]);
                deliver(
                    &prod[idx(full, 0)..][..m],
                    full,
                    &[d],
                    &mut est_cost,
                    &mut back,
                );
                match back {
                    [DelivBack::None] => None,
                    [back] => Some(PlannerOutput {
                        tree: rec.follow(back, full),
                        est_cost: est_cost[0],
                    }),
                }
            }
            None => {
                // Result stays at the producing operator (or input).
                if let Some(ii) = (0..inputs.len()).find(|&ii| input_state[ii] == full) {
                    return Some(PlannerOutput {
                        tree: inputs[ii].tree(),
                        est_cost: 0.0,
                    });
                }
                let mut best: Option<(f64, usize)> = None;
                for mi in 0..m {
                    let p = prod[idx(full, mi)];
                    let better = p.is_finite()
                        && best.is_none_or(|(cost, prev)| {
                            p < cost - 1e-12
                                || (p <= cost + 1e-12
                                    && anchor.is_some_and(|anc| {
                                        dm.get(candidates[mi], anc) < dm.get(candidates[prev], anc)
                                    }))
                        });
                    if better {
                        best = Some((p, mi));
                    }
                }
                best.map(|(est_cost, mi)| PlannerOutput {
                    tree: rec.produce(full, mi),
                    est_cost,
                })
            }
        }
    }

    /// Output rate of one reachable set, multiplying in the exact order of
    /// [`Self::rate_table`]'s recurrence so sparse and dense costs are
    /// bit-identical on the same instance.
    fn sparse_rate(&self, set: &InputSet, atoms: &[StreamId], eff: &[f64]) -> f64 {
        let bits: Vec<usize> = set.iter().collect();
        let mut f = 1.0f64;
        for i in (0..bits.len()).rev() {
            f *= eff[bits[i]];
            for j in (i + 1)..bits.len() {
                f *= self.catalog.selectivity(atoms[bits[i]], atoms[bits[j]]);
            }
        }
        f
    }

    /// Literal exhaustive search: every disjoint input cover, every tree
    /// shape, every operator placement. Same contract as [`Self::plan`];
    /// kept for validation and the engine ablation. Guarded to small
    /// instances.
    pub fn plan_exhaustive(
        &self,
        inputs: &[PlannerInput],
        candidates: &[NodeId],
        dm: &DistanceMatrix,
        dest: Option<NodeId>,
        anchor: Option<NodeId>,
        stats: &mut SearchStats,
    ) -> Result<Option<PlannerOutput>, PlacementError> {
        let atoms = atom_universe(inputs);
        let a = atoms.len();
        if a == 0 {
            return Ok(None);
        }
        if a > EXHAUSTIVE_MAX_ATOMS {
            return Err(PlacementError::UniverseTooLarge { atoms: a });
        }
        assert!(
            candidates.len() <= 10,
            "exhaustive engine guard: {} candidates",
            candidates.len()
        );
        let full: u64 = mask_full(a);
        let rate = self.rate_table(&atoms);
        let input_mask: Vec<u64> = inputs.iter().map(|i| mask_of(&i.covered, &atoms)).collect();

        // Enumerate disjoint covers of the atom universe.
        let mut covers = Vec::new();
        enumerate_covers(full, &input_mask, 0, &mut Vec::new(), &mut covers);

        // Candidate trees are scored in a flat index-linked arena; only an
        // improving tree is materialized into boxed `PlacedTree` nodes.
        let mut arena = PlanArena::default();
        let mut best: Option<(f64, PlacedTree)> = None;
        let mut consider = |cost: f64, loc: NodeId, make: &mut dyn FnMut() -> PlacedTree| {
            let better = match &best {
                None => true,
                Some((c, t)) => {
                    cost < c - 1e-12
                        || (dest.is_none()
                            && cost <= c + 1e-12
                            && anchor.is_some_and(|anc| {
                                dm.get(loc, anc) < dm.get(t.output_location(self.catalog), anc)
                            }))
                }
            };
            if better {
                best = Some((cost, make()));
            }
        };

        for cover in &covers {
            stats.record_dp_states(1);
            if cover.len() == 1 {
                let ii = cover[0];
                let cost = match dest {
                    Some(d) => rate[full as usize] * dm.get(inputs[ii].seen, d),
                    None => 0.0,
                };
                consider(cost, inputs[ii].location, &mut || inputs[ii].tree());
                continue;
            }
            if candidates.is_empty() {
                continue;
            }
            for shape in enumerate_shapes(cover) {
                let joins = shape.join_count();
                let mut placement = vec![0usize; joins];
                loop {
                    arena.clear();
                    let (cost, out_seen, root, _) = self.eval_shape(
                        &shape,
                        &placement,
                        &mut 0,
                        inputs,
                        candidates,
                        &rate,
                        &input_mask,
                        dm,
                        &mut arena,
                    );
                    let total = match dest {
                        Some(d) => cost + rate[full as usize] * dm.get(out_seen, d),
                        None => cost,
                    };
                    consider(total, out_seen, &mut || arena.materialize(root, inputs));
                    // Next placement (mixed-radix counter).
                    let mut i = 0;
                    loop {
                        if i == joins {
                            break;
                        }
                        placement[i] += 1;
                        if placement[i] < candidates.len() {
                            break;
                        }
                        placement[i] = 0;
                        i += 1;
                    }
                    if i == joins {
                        break;
                    }
                }
            }
        }
        Ok(best.map(|(est_cost, tree)| PlannerOutput { tree, est_cost }))
    }

    /// Per-mask output rates over the atom universe: the product of the
    /// atoms' effective (post-selection) rates and all pairwise
    /// selectivities inside the mask.
    fn rate_table(&self, atoms: &[StreamId]) -> Vec<f64> {
        let a = atoms.len();
        let eff: Vec<f64> = atoms
            .iter()
            .map(|&s| self.query.effective_rate(self.catalog, s))
            .collect();
        let mut rate = vec![1.0f64; 1 << a];
        for mask in 1u64..(1u64 << a) {
            let low_idx = mask.trailing_zeros() as usize;
            let rest = mask & (mask - 1);
            let mut r = rate[rest as usize] * eff[low_idx];
            let mut rm = rest;
            while rm > 0 {
                let j = rm.trailing_zeros() as usize;
                r *= self.catalog.selectivity(atoms[low_idx], atoms[j]);
                rm &= rm - 1;
            }
            rate[mask as usize] = r;
        }
        rate
    }

    /// Evaluate one shape + placement combination; returns (cost without
    /// final delivery, output seen-location, arena root, covered mask).
    #[allow(clippy::too_many_arguments)]
    fn eval_shape(
        &self,
        shape: &Shape,
        placement: &[usize],
        next_join: &mut usize,
        inputs: &[PlannerInput],
        candidates: &[NodeId],
        rate: &[f64],
        input_mask: &[u64],
        dm: &DistanceMatrix,
        arena: &mut PlanArena,
    ) -> (f64, NodeId, u32, u64) {
        match shape {
            Shape::Leaf(ii) => {
                let root = arena.push(ArenaNode::Input(*ii));
                (0.0, inputs[*ii].seen, root, input_mask[*ii])
            }
            Shape::Join(l, r) => {
                let (lc, lo, li, lmask) = self.eval_shape(
                    l, placement, next_join, inputs, candidates, rate, input_mask, dm, arena,
                );
                let (rc, ro, ri, rmask) = self.eval_shape(
                    r, placement, next_join, inputs, candidates, rate, input_mask, dm, arena,
                );
                let node = candidates[placement[*next_join]];
                *next_join += 1;
                let cost = lc
                    + rc
                    + rate[lmask as usize] * dm.get(lo, node)
                    + rate[rmask as usize] * dm.get(ro, node)
                    + self.placement_penalty(node, rate[lmask as usize] + rate[rmask as usize]);
                let root = arena.push(ArenaNode::Join {
                    left: li,
                    right: ri,
                    node,
                });
                (cost, node, root, lmask | rmask)
            }
        }
    }
}

/// Flat arena the exhaustive search scores candidate trees in. Nodes link
/// by index; no allocation happens per evaluated (shape × placement)
/// combination — the vector is reused across iterations and only the
/// winning tree is materialized into boxed [`PlacedTree`] nodes.
#[derive(Default)]
struct PlanArena {
    nodes: Vec<ArenaNode>,
}

enum ArenaNode {
    /// A planner input, referenced by index (no leaf payload clone).
    Input(usize),
    Join {
        left: u32,
        right: u32,
        node: NodeId,
    },
}

impl PlanArena {
    fn clear(&mut self) {
        self.nodes.clear();
    }

    fn push(&mut self, n: ArenaNode) -> u32 {
        self.nodes.push(n);
        (self.nodes.len() - 1) as u32
    }

    fn materialize(&self, root: u32, inputs: &[PlannerInput]) -> PlacedTree {
        match &self.nodes[root as usize] {
            ArenaNode::Input(ii) => inputs[*ii].tree(),
            ArenaNode::Join { left, right, node } => PlacedTree::Join {
                left: Box::new(self.materialize(*left, inputs)),
                right: Box::new(self.materialize(*right, inputs)),
                node: *node,
            },
        }
    }
}

/// Offer one delivery source to every target: `cost(t)` is its price at
/// target column `t`, and it replaces the incumbent where strictly cheaper.
#[inline]
fn relax(
    targets: &[NodeId],
    best: &mut [f64],
    back: &mut [DelivBack],
    how: DelivBack,
    cost: impl Fn(usize) -> f64,
) {
    for (t, target) in targets.iter().enumerate() {
        let v = cost(target.index());
        if v < best[t] {
            best[t] = v;
            back[t] = how;
        }
    }
}

/// Backtracker over the solved tables: states are indices (dense: the
/// mask itself; sparse: the reachable set's number), and a production step
/// records both halves of its winning partition.
struct Reconstructor<'a> {
    inputs: &'a [PlannerInput],
    candidates: &'a [NodeId],
    deliv_back: &'a [DelivBack],
    prod_back: &'a [[u32; 2]],
    m: usize,
}

impl Reconstructor<'_> {
    fn produce(&self, state: usize, mi: usize) -> PlacedTree {
        let [s, c] = self.prod_back[state * self.m + mi];
        debug_assert!(s != 0, "produce on state without a partition");
        let delivered = |part: u32| {
            let part = part as usize;
            Box::new(self.follow(self.deliv_back[part * self.m + mi], part))
        };
        PlacedTree::Join {
            left: delivered(s),
            right: delivered(c),
            node: self.candidates[mi],
        }
    }

    /// The tree behind one delivery back-pointer of `state`.
    fn follow(&self, back: DelivBack, state: usize) -> PlacedTree {
        match back {
            DelivBack::Input(ii) => self.inputs[ii].tree(),
            DelivBack::From(mj) => self.produce(state, mj),
            DelivBack::None => unreachable!("deliver on unreachable state"),
        }
    }
}

/// The `K` of Lemma 1's search-space formula for a planning step.
///
/// Two considerations bound it:
/// * an input standing for a multi-stream view (external fragment, derived
///   stream) is a *single leaf* of the join-order enumeration, so the count
///   is the number of distinct coverage groups, not the number of atoms;
/// * a join tree never has more leaves than the atoms it covers, so
///   alternative providers (reuse candidates overlapping the base streams)
///   cannot push the order count past the atom count — which keeps the
///   accounting aligned with the paper's formula, where `K` is always the
///   query's source count.
pub fn universe_size(inputs: &[PlannerInput]) -> usize {
    let atoms = atom_universe(inputs).len();
    let mut coverages: Vec<&StreamSet> = inputs.iter().map(|i| &i.covered).collect();
    coverages.sort();
    coverages.dedup();
    coverages.len().min(atoms)
}

/// Sorted universe of atoms covered by the inputs.
fn atom_universe(inputs: &[PlannerInput]) -> Vec<StreamId> {
    let mut atoms: Vec<StreamId> = inputs.iter().flat_map(|i| i.covered.iter()).collect();
    atoms.sort_unstable();
    atoms.dedup();
    atoms
}

/// One-word atom mask of `covered`. Callers guarantee the universe fits a
/// word ([`DENSE_MAX_ATOMS`] / [`EXHAUSTIVE_MAX_ATOMS`]); wider universes
/// go through [`atom_bits`] instead.
fn mask_of(covered: &StreamSet, atoms: &[StreamId]) -> u64 {
    debug_assert!(atoms.len() <= 64, "one-word mask over a wide universe");
    let mut mask = 0u64;
    for s in covered.iter() {
        let bit = atoms
            .binary_search(&s)
            .expect("input covers a stream outside the universe");
        mask |= 1u64 << bit;
    }
    mask
}

/// Atom-index bitset of `covered`, for universes of any width.
fn atom_bits(covered: &StreamSet, atoms: &[StreamId]) -> InputSet {
    InputSet::from_bits(covered.iter().map(|s| {
        atoms
            .binary_search(&s)
            .expect("input covers a stream outside the universe")
    }))
}

/// Enumerate sets of pairwise-disjoint inputs whose masks union to `full`.
fn enumerate_covers(
    full: u64,
    input_mask: &[u64],
    covered: u64,
    chosen: &mut Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    if covered == full {
        out.push(chosen.clone());
        return;
    }
    // Branch on the lowest uncovered atom to avoid permuted duplicates.
    let low = (!covered & full) & (!covered & full).wrapping_neg();
    for (ii, &mask) in input_mask.iter().enumerate() {
        if mask & low != 0 && mask & covered == 0 {
            chosen.push(ii);
            enumerate_covers(full, input_mask, covered | mask, chosen, out);
            chosen.pop();
        }
    }
}

/// Unordered binary tree shapes over a list of input indices.
enum Shape {
    Leaf(usize),
    Join(Box<Shape>, Box<Shape>),
}

impl Shape {
    fn join_count(&self) -> usize {
        match self {
            Shape::Leaf(_) => 0,
            Shape::Join(l, r) => 1 + l.join_count() + r.join_count(),
        }
    }
}

fn enumerate_shapes(items: &[usize]) -> Vec<Shape> {
    if items.len() == 1 {
        return vec![Shape::Leaf(items[0])];
    }
    let mut out = Vec::new();
    let rest = &items[1..];
    for mask in 0..(1u32 << rest.len()) {
        let mut left = vec![items[0]];
        let mut right = Vec::new();
        for (bit, &x) in rest.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                left.push(x);
            } else {
                right.push(x);
            }
        }
        if right.is_empty() {
            continue;
        }
        for lt in enumerate_shapes(&left) {
            for rt in enumerate_shapes(&right) {
                out.push(Shape::Join(
                    Box::new(clone_shape(&lt)),
                    Box::new(clone_shape(&rt)),
                ));
            }
        }
    }
    out
}

fn clone_shape(s: &Shape) -> Shape {
    match s {
        Shape::Leaf(i) => Shape::Leaf(*i),
        Shape::Join(l, r) => Shape::Join(Box::new(clone_shape(l)), Box::new(clone_shape(r))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_net::{LinkKind, Metric, Network};
    use dsq_query::{DerivedId, QueryId, Schema};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Line network n0-n1-n2-n3 with unit costs.
    fn line(n: u32) -> (Network, DistanceMatrix) {
        let mut net = Network::new(n as usize);
        for i in 0..n - 1 {
            net.add_link(NodeId(i), NodeId(i + 1), 1.0, 1.0, LinkKind::Stub);
        }
        let dm = DistanceMatrix::build(&net, Metric::Cost);
        (net, dm)
    }

    fn two_stream_setup() -> (Catalog, Query, DistanceMatrix) {
        let (_, dm) = line(4);
        let mut c = Catalog::new();
        let a = c.add_stream("A", 10.0, NodeId(0), Schema::default());
        let b = c.add_stream("B", 4.0, NodeId(3), Schema::default());
        c.set_selectivity(a, b, 0.1);
        let q = Query::join(QueryId(0), [a, b], NodeId(2));
        (c, q, dm)
    }

    #[test]
    fn two_stream_optimum_on_line() {
        let (c, q, dm) = two_stream_setup();
        let planner = ClusterPlanner::new(&c, &q);
        let inputs = vec![
            PlannerInput::base(&c, StreamId(0)),
            PlannerInput::base(&c, StreamId(1)),
        ];
        let candidates: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut stats = SearchStats::new();
        let out = planner
            .plan(&inputs, &candidates, &dm, Some(NodeId(2)), None, &mut stats)
            .unwrap()
            .unwrap();
        // Join at n2 (the sink): A pays 10·2, B pays 4·1, output 4·0 = 24.
        // Join at n3: 30+0+4 = 34; at n1: 10+8+4 = 22; at n0: 0+12+8 = 20.
        // Optimum: join at n0 costs 0 + 4·3 + 4·2 = wait B to n0 = 4·3 = 12,
        // output 4·2 = 8 ⇒ 20.
        assert!((out.est_cost - 20.0).abs() < 1e-9, "got {}", out.est_cost);
        match &out.tree {
            PlacedTree::Join { node, .. } => assert_eq!(*node, NodeId(0)),
            _ => panic!("expected a join"),
        }
        assert!(stats.dp_states > 0);
    }

    #[test]
    fn derived_input_wins_when_cheap() {
        let (c, q, dm) = two_stream_setup();
        let planner = ClusterPlanner::new(&c, &q);
        let derived = LeafSource::Derived {
            id: DerivedId(0),
            covered: StreamSet::from_iter([StreamId(0), StreamId(1)]),
            rate: 4.0,
            host: NodeId(2),
        };
        let inputs = vec![
            PlannerInput::base(&c, StreamId(0)),
            PlannerInput::base(&c, StreamId(1)),
            PlannerInput::derived(derived),
        ];
        let candidates: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut stats = SearchStats::new();
        let out = planner
            .plan(&inputs, &candidates, &dm, Some(NodeId(2)), None, &mut stats)
            .unwrap()
            .unwrap();
        assert_eq!(out.est_cost, 0.0, "derived sits at the sink already");
        assert!(out.tree.uses_derived());
    }

    #[test]
    fn no_dest_keeps_result_at_root_operator() {
        let (c, q, dm) = two_stream_setup();
        let planner = ClusterPlanner::new(&c, &q);
        let inputs = vec![
            PlannerInput::base(&c, StreamId(0)),
            PlannerInput::base(&c, StreamId(1)),
        ];
        let candidates: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut stats = SearchStats::new();
        let out = planner
            .plan(&inputs, &candidates, &dm, None, Some(NodeId(3)), &mut stats)
            .unwrap()
            .unwrap();
        // Without delivery the cheapest is joining at A's node n0, shipping
        // only the low-rate stream B over (4·3 = 12).
        assert!((out.est_cost - 12.0).abs() < 1e-9, "got {}", out.est_cost);
        assert_eq!(out.tree.output_location(&c), NodeId(0));
    }

    #[test]
    fn single_input_universe() {
        let (c, q, dm) = two_stream_setup();
        let planner = ClusterPlanner::new(&c, &q);
        let inputs = vec![PlannerInput::base(&c, StreamId(0))];
        let mut stats = SearchStats::new();
        let out = planner
            .plan(&inputs, &[], &dm, Some(NodeId(2)), None, &mut stats)
            .unwrap()
            .unwrap();
        assert!((out.est_cost - 20.0).abs() < 1e-9, "10·dist(0,2) = 20");
        let out2 = planner
            .plan(&inputs, &[], &dm, None, None, &mut stats)
            .unwrap()
            .unwrap();
        assert_eq!(out2.est_cost, 0.0);
    }

    #[test]
    fn dp_matches_exhaustive_on_random_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        for case in 0..40 {
            let n = rng.gen_range(4..8) as u32;
            let (mut net, _) = line(n);
            // Sprinkle extra random links for non-trivial metrics.
            for _ in 0..3 {
                let a = NodeId(rng.gen_range(0..n));
                let b = NodeId(rng.gen_range(0..n));
                if a != b && net.find_link(a, b).is_none() {
                    net.add_link(a, b, rng.gen_range(0.5..4.0), 1.0, LinkKind::Stub);
                }
            }
            let dm = DistanceMatrix::build(&net, Metric::Cost);
            let k = rng.gen_range(2..=4usize);
            let mut c = Catalog::new();
            let ids: Vec<StreamId> = (0..k)
                .map(|i| {
                    c.add_stream(
                        format!("S{i}"),
                        rng.gen_range(1.0..20.0),
                        NodeId(rng.gen_range(0..n)),
                        Schema::default(),
                    )
                })
                .collect();
            for i in 0..k {
                for j in (i + 1)..k {
                    c.set_selectivity(ids[i], ids[j], rng.gen_range(0.01..0.5));
                }
            }
            let sink = NodeId(rng.gen_range(0..n));
            let q = Query::join(QueryId(case), ids.clone(), sink);
            let planner = ClusterPlanner::new(&c, &q);
            let mut inputs: Vec<PlannerInput> =
                ids.iter().map(|&id| PlannerInput::base(&c, id)).collect();
            // Sometimes offer an overlapping derived covering the first two.
            if k >= 3 && rng.gen_bool(0.5) {
                let covered = StreamSet::from_iter([ids[0], ids[1]]);
                let rate = q.effective_rate(&c, ids[0])
                    * q.effective_rate(&c, ids[1])
                    * c.selectivity(ids[0], ids[1]);
                inputs.push(PlannerInput::derived(LeafSource::Derived {
                    id: DerivedId(9),
                    covered,
                    rate,
                    host: NodeId(rng.gen_range(0..n)),
                }));
            }
            let candidates: Vec<NodeId> = (0..n).map(NodeId).collect();
            let mut s1 = SearchStats::new();
            let mut s2 = SearchStats::new();
            let dp = planner.plan(&inputs, &candidates, &dm, Some(sink), None, &mut s1);
            let ex = planner.plan_exhaustive(&inputs, &candidates, &dm, Some(sink), None, &mut s2);
            let (dp, ex) = (dp.unwrap().unwrap(), ex.unwrap().unwrap());
            assert!(
                (dp.est_cost - ex.est_cost).abs() < 1e-6,
                "case {case}: dp {} vs exhaustive {}",
                dp.est_cost,
                ex.est_cost
            );
        }
    }

    #[test]
    fn infeasible_without_candidates() {
        let (c, q, dm) = two_stream_setup();
        let planner = ClusterPlanner::new(&c, &q);
        let inputs = vec![
            PlannerInput::base(&c, StreamId(0)),
            PlannerInput::base(&c, StreamId(1)),
        ];
        let mut stats = SearchStats::new();
        assert!(planner
            .plan(&inputs, &[], &dm, Some(NodeId(2)), None, &mut stats)
            .unwrap()
            .is_none());
    }

    #[test]
    fn seen_location_changes_planning_but_not_tree_locations() {
        let (c, q, dm) = two_stream_setup();
        let planner = ClusterPlanner::new(&c, &q);
        // Stream B is seen at n0 (a wildly wrong representative): the
        // planner now believes co-locating at n0 is free.
        let inputs = vec![
            PlannerInput::base(&c, StreamId(0)),
            PlannerInput::base(&c, StreamId(1)).seen_at(NodeId(0)),
        ];
        let candidates: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut stats = SearchStats::new();
        let out = planner
            .plan(&inputs, &candidates, &dm, Some(NodeId(0)), None, &mut stats)
            .unwrap()
            .unwrap();
        assert_eq!(out.est_cost, 0.0, "estimated under the distorted view");
        // The tree still records B's true location for deployment.
        fn find_base_location(t: &PlacedTree, id: StreamId, c: &Catalog) -> Option<NodeId> {
            match t {
                PlacedTree::Leaf(LeafSource::Base(b)) if *b == id => Some(c.stream(id).node),
                PlacedTree::Join { left, right, .. } => {
                    find_base_location(left, id, c).or_else(|| find_base_location(right, id, c))
                }
                _ => None,
            }
        }
        assert_eq!(
            find_base_location(&out.tree, StreamId(1), &c),
            Some(NodeId(3))
        );
    }

    #[test]
    fn sparse_path_matches_dense_on_random_instances() {
        // Same harness as dp_matches_exhaustive, but the oracle is the
        // dense enumeration and the subject is the sparse reachable-set
        // one, forced on by a dense-limit of 1. Both minimise over the same
        // multiset of values, so the costs agree to the bit.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for case in 0..60 {
            let n = rng.gen_range(4..8) as u32;
            let (mut net, _) = line(n);
            for _ in 0..3 {
                let a = NodeId(rng.gen_range(0..n));
                let b = NodeId(rng.gen_range(0..n));
                if a != b && net.find_link(a, b).is_none() {
                    net.add_link(a, b, rng.gen_range(0.5..4.0), 1.0, LinkKind::Stub);
                }
            }
            let dm = DistanceMatrix::build(&net, Metric::Cost);
            let k = rng.gen_range(2..=4usize);
            let mut c = Catalog::new();
            let ids: Vec<StreamId> = (0..k)
                .map(|i| {
                    c.add_stream(
                        format!("S{i}"),
                        rng.gen_range(1.0..20.0),
                        NodeId(rng.gen_range(0..n)),
                        Schema::default(),
                    )
                })
                .collect();
            for i in 0..k {
                for j in (i + 1)..k {
                    c.set_selectivity(ids[i], ids[j], rng.gen_range(0.01..0.5));
                }
            }
            let sink = NodeId(rng.gen_range(0..n));
            let q = Query::join(QueryId(case), ids.clone(), sink);
            let planner = ClusterPlanner::new(&c, &q);
            let mut inputs: Vec<PlannerInput> =
                ids.iter().map(|&id| PlannerInput::base(&c, id)).collect();
            if k >= 3 && rng.gen_bool(0.5) {
                let covered = StreamSet::from_iter([ids[0], ids[1]]);
                let rate = q.effective_rate(&c, ids[0])
                    * q.effective_rate(&c, ids[1])
                    * c.selectivity(ids[0], ids[1]);
                inputs.push(PlannerInput::derived(LeafSource::Derived {
                    id: DerivedId(9),
                    covered,
                    rate,
                    host: NodeId(rng.gen_range(0..n)),
                }));
            }
            let candidates: Vec<NodeId> = (0..n).map(NodeId).collect();
            // The same instance with its last two streams arriving as one
            // coarse fragment output (Top-Down refinement's shape), so the
            // masks holding only one of them are unreachable.
            let mut variants = vec![inputs];
            if k >= 3 {
                let fragment = StreamSet::from_iter(ids[k - 2..].iter().copied());
                let mut coarse: Vec<PlannerInput> = variants[0]
                    .iter()
                    .filter(|i| !i.covered.is_subset_of(&fragment))
                    .cloned()
                    .collect();
                let at = c.stream(ids[k - 1]).node;
                coarse.push(PlannerInput::external(3, fragment, at));
                variants.push(coarse);
            }
            for (inputs, (dest, anchor)) in variants
                .iter()
                .flat_map(|v| [(v, (Some(sink), None)), (v, (None, Some(sink)))])
            {
                let mut s1 = SearchStats::new();
                let mut s2 = SearchStats::new();
                let dense = planner
                    .plan(inputs, &candidates, &dm, dest, anchor, &mut s1)
                    .unwrap()
                    .unwrap();
                let sparse = planner
                    .with_dense_limit(1)
                    .plan(inputs, &candidates, &dm, dest, anchor, &mut s2)
                    .unwrap()
                    .unwrap();
                assert_eq!(
                    dense.est_cost.to_bits(),
                    sparse.est_cost.to_bits(),
                    "case {case} inputs {} dest {dest:?}: dense {} vs sparse {}",
                    inputs.len(),
                    dense.est_cost,
                    sparse.est_cost
                );
                assert_eq!(dense.tree.covered(), sparse.tree.covered());
            }
        }
    }

    #[test]
    fn coarse_external_beside_singletons_plans_alike_through_both_enumerations() {
        // The shape Top-Down refinement hands a child cluster: a sibling
        // fragment's output covering several atoms, as one `External`
        // input, next to a few base streams. Ten atoms, four inputs: the
        // dense tables hold 2^10 masks of which the inputs reach 2^4.
        let (_, dm) = line(6);
        let mut c = Catalog::new();
        let ids: Vec<StreamId> = (0..10u32)
            .map(|i| {
                c.add_stream(
                    format!("S{i}"),
                    2.0 + f64::from(i),
                    NodeId(i % 6),
                    Schema::default(),
                )
            })
            .collect();
        for i in 0..10 {
            for j in (i + 1)..10 {
                c.set_selectivity(ids[i], ids[j], 0.2 + 0.01 * (i + j) as f64);
            }
        }
        let q = Query::join(QueryId(0), ids.clone(), NodeId(4));
        let planner = ClusterPlanner::new(&c, &q);
        let mut inputs: Vec<PlannerInput> = ids[..3]
            .iter()
            .map(|&id| PlannerInput::base(&c, id))
            .collect();
        let fragment = StreamSet::from_iter(ids[3..].iter().copied());
        inputs.push(PlannerInput::external(17, fragment, NodeId(5)));
        let candidates: Vec<NodeId> = (0..6).map(NodeId).collect();
        for (dest, anchor) in [(Some(NodeId(4)), None), (None, Some(NodeId(4)))] {
            let mut s1 = SearchStats::new();
            let mut s2 = SearchStats::new();
            let sink = dsq_obs::Sink::new(dsq_obs::ClockMode::Virtual);
            let dense = {
                let _scope = dsq_obs::scoped(sink.clone());
                planner
                    .plan(&inputs, &candidates, &dm, dest, anchor, &mut s1)
                    .unwrap()
                    .unwrap()
            };
            // The dense fill visits only the fifteen non-empty reachable
            // masks, not all 1,023.
            let solved = sink
                .snapshot()
                .counters
                .get("engine.states_solved")
                .copied();
            assert_eq!(solved, Some(15));
            let sparse = planner
                .with_dense_limit(1)
                .plan(&inputs, &candidates, &dm, dest, anchor, &mut s2)
                .unwrap()
                .unwrap();
            assert_eq!(dense.est_cost.to_bits(), sparse.est_cost.to_bits());
            assert!(dense.est_cost.is_finite() && dense.est_cost > 0.0);
            for tree in [&dense.tree, &sparse.tree] {
                assert_eq!(tree.covered(), q.source_set());
                assert_eq!(tree.join_count(), 3, "four inputs, three joins");
            }
            // Same recurrence, different table heights: every mask against
            // the sixteen reachable unions.
            assert_eq!(s1.dp_states, (1 << 10) * 6 * 2);
            assert_eq!(s2.dp_states, (1 << 4) * 6 * 2);
        }
    }

    /// `tree`'s result delivered to `to`, priced with the recurrence's own
    /// association: an input pays `rate · d(seen, to)`, a join's result
    /// `prod + rate · d(node, to)` (no load model, so no penalty term).
    fn recost_deliv(
        tree: &PlacedTree,
        to: NodeId,
        rate: &[f64],
        atoms: &[StreamId],
        c: &Catalog,
        dm: &DistanceMatrix,
    ) -> f64 {
        let r = rate[mask_of(&tree.covered(), atoms) as usize];
        let from = tree.output_location(c);
        match tree {
            PlacedTree::Join { .. } => recost_prod(tree, rate, atoms, c, dm) + r * dm.get(from, to),
            _ => r * dm.get(from, to),
        }
    }

    /// A join's `prod`: both halves delivered to its node, left first.
    fn recost_prod(
        tree: &PlacedTree,
        rate: &[f64],
        atoms: &[StreamId],
        c: &Catalog,
        dm: &DistanceMatrix,
    ) -> f64 {
        let PlacedTree::Join { left, right, node } = tree else {
            panic!("prod of an input");
        };
        recost_deliv(left, *node, rate, atoms, c, dm)
            + recost_deliv(right, *node, rate, atoms, c, dm)
    }

    #[test]
    fn est_cost_is_the_exact_recost_of_the_tree_on_an_asymmetric_matrix() {
        // The matrix is symmetric in value but not in bits: a path's cost
        // summed from either end rounds differently. So a delivery that
        // read `d(target, source)` instead of `d(source, target)` prices
        // the same tree a few ulps off, and only an exact re-cost of the
        // returned tree in the true direction can see it.
        let mut rng = ChaCha8Rng::seed_from_u64(49);
        let mut asymmetric_reads = 0usize;
        for case in 0..40 {
            let n = rng.gen_range(30..40u32);
            let mut net = Network::new(n as usize);
            for i in 0..n - 1 {
                let cost = rng.gen_range(0.1..3.0);
                net.add_link(NodeId(i), NodeId(i + 1), cost, 1.0, LinkKind::Stub);
            }
            for _ in 0..n {
                let a = NodeId(rng.gen_range(0..n));
                let b = NodeId(rng.gen_range(0..n));
                if a != b && net.find_link(a, b).is_none() {
                    net.add_link(a, b, rng.gen_range(0.1..6.0), 1.0, LinkKind::Stub);
                }
            }
            let dm = DistanceMatrix::build(&net, Metric::Cost);
            let k = rng.gen_range(3..=5usize);
            let mut c = Catalog::new();
            let ids: Vec<StreamId> = (0..k)
                .map(|i| {
                    let node = NodeId(rng.gen_range(0..n));
                    c.add_stream(
                        format!("S{i}"),
                        rng.gen_range(1.0..20.0),
                        node,
                        Schema::default(),
                    )
                })
                .collect();
            for i in 0..k {
                for j in (i + 1)..k {
                    c.set_selectivity(ids[i], ids[j], rng.gen_range(0.01..0.5));
                }
            }
            let sink = NodeId(rng.gen_range(0..n));
            let q = Query::join(QueryId(case), ids.clone(), sink);
            let planner = ClusterPlanner::new(&c, &q);
            let mut inputs: Vec<PlannerInput> =
                ids.iter().map(|&id| PlannerInput::base(&c, id)).collect();
            if rng.gen_bool(0.5) {
                inputs.push(PlannerInput::derived(LeafSource::Derived {
                    id: DerivedId(9),
                    covered: StreamSet::from_iter([ids[0], ids[1]]),
                    rate: 1.0,
                    host: NodeId(rng.gen_range(0..n)),
                }));
            }
            let candidates: Vec<NodeId> = (0..n).map(NodeId).collect();
            let atoms = atom_universe(&inputs);
            let rate = planner.rate_table(&atoms);
            asymmetric_reads += inputs
                .iter()
                .map(|i| i.seen)
                .chain(candidates.iter().copied())
                .flat_map(|a| candidates.iter().map(move |&b| (a, b)))
                .filter(|&(a, b)| dm.get(a, b).to_bits() != dm.get(b, a).to_bits())
                .count();
            for limit in [DENSE_MAX_ATOMS, 1] {
                for (dest, anchor) in [(Some(sink), None), (None, Some(sink))] {
                    let out = planner
                        .with_dense_limit(limit)
                        .plan(
                            &inputs,
                            &candidates,
                            &dm,
                            dest,
                            anchor,
                            &mut SearchStats::new(),
                        )
                        .unwrap()
                        .unwrap();
                    let recost = match (dest, &out.tree) {
                        (Some(d), tree) => recost_deliv(tree, d, &rate, &atoms, &c, &dm),
                        (None, tree @ PlacedTree::Join { .. }) => {
                            recost_prod(tree, &rate, &atoms, &c, &dm)
                        }
                        (None, _) => 0.0,
                    };
                    assert_eq!(
                        out.est_cost.to_bits(),
                        recost.to_bits(),
                        "case {case}, dense limit {limit}, dest {dest:?}: planned {} vs re-cost {recost}",
                        out.est_cost
                    );
                }
            }
        }
        assert!(
            asymmetric_reads > 0,
            "no pair the planner read is asymmetric in bits"
        );
    }

    #[test]
    fn universe_past_32_atoms_plans_via_coarse_inputs() {
        // 40 atoms, tiled by 8 disjoint derived inputs of 5 atoms each —
        // the exact shape whose mask computation overflowed u32 before the
        // bitset engine (debug panic; silently wrong plans in release).
        let (_, dm) = line(4);
        let mut c = Catalog::new();
        let ids: Vec<StreamId> = (0..40)
            .map(|i| c.add_stream(format!("S{i}"), 2.0, NodeId(0), Schema::default()))
            .collect();
        let q = Query::join(QueryId(0), ids.clone(), NodeId(2));
        let planner = ClusterPlanner::new(&c, &q);
        let inputs: Vec<PlannerInput> = ids
            .chunks(5)
            .enumerate()
            .map(|(g, chunk)| {
                PlannerInput::derived(LeafSource::Derived {
                    id: DerivedId(g as u32),
                    covered: StreamSet::from_iter(chunk.iter().copied()),
                    rate: 2.0_f64.powi(5),
                    host: NodeId((g % 4) as u32),
                })
            })
            .collect();
        let candidates: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut stats = SearchStats::new();
        let out = planner
            .plan(&inputs, &candidates, &dm, Some(NodeId(2)), None, &mut stats)
            .unwrap()
            .expect("a 40-atom universe of coarse inputs plans fine");
        assert!(out.est_cost.is_finite());
        assert_eq!(out.tree.covered(), q.source_set());
        assert_eq!(out.tree.join_count(), 7, "all eight inputs joined");
    }

    #[test]
    fn oversized_universes_yield_typed_errors_not_panics() {
        let (_, dm) = line(4);
        let mut c = Catalog::new();
        let ids: Vec<StreamId> = (0..40)
            .map(|i| c.add_stream(format!("S{i}"), 2.0, NodeId(0), Schema::default()))
            .collect();
        let q = Query::join(QueryId(0), ids.clone(), NodeId(2));
        let planner = ClusterPlanner::new(&c, &q);
        // 40 singleton inputs: the reachable-set budget trips (the old
        // engine asserted in debug and shift-wrapped in release).
        let inputs: Vec<PlannerInput> = ids.iter().map(|&id| PlannerInput::base(&c, id)).collect();
        let candidates: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut stats = SearchStats::new();
        assert_eq!(
            planner
                .plan(&inputs, &candidates, &dm, Some(NodeId(2)), None, &mut stats)
                .unwrap_err(),
            crate::optimal::PlacementError::UniverseTooLarge { atoms: 40 }
        );
        // The exhaustive engine refuses wide universes the same way
        // instead of tripping its old `assert!`.
        assert_eq!(
            planner
                .plan_exhaustive(
                    &inputs[..6],
                    &candidates,
                    &dm,
                    Some(NodeId(2)),
                    None,
                    &mut stats
                )
                .unwrap_err(),
            crate::optimal::PlacementError::UniverseTooLarge { atoms: 6 }
        );
    }
}
