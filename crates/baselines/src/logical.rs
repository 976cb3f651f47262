//! Network-oblivious logical planning: pick the join tree minimizing the
//! total size of intermediate results.
//!
//! "Based purely on the size of intermediate results, we may normally
//! choose the join order (FLIGHTS ⋈ WEATHER) ⋈ CHECK-INS" (Section 1.1) —
//! this module is that conventional optimizer. It enumerates every disjoint
//! cover of the query's sources by the available leaves (base streams, plus
//! reusable derived streams when a populated registry is supplied) and
//! every bushy tree over each cover, scoring by the sum of intermediate
//! output rates.

use dsq_query::{
    enumerate_trees, Catalog, FlatPlan, JoinTree, LeafSource, Query, ReuseRegistry, StreamSet,
};

/// The rate-optimal join tree for `query`.
///
/// Leaves are the query's base streams plus any compatible derived streams
/// from `registry`; a derived leaf counts as "free" upstream (its cost was
/// paid by the original query), which the intermediate-rate objective
/// reflects naturally since reusing it removes join steps.
///
/// Returns the tree together with its flattened, rate-annotated plan.
pub fn rate_optimal_tree(
    catalog: &Catalog,
    query: &Query,
    registry: &ReuseRegistry,
) -> (JoinTree, FlatPlan) {
    let mut leaves: Vec<LeafSource> = query.sources.iter().map(|&s| LeafSource::Base(s)).collect();
    leaves.extend(registry.peek_usable(query, |_| true));

    let sources = query.source_set();
    let mut covers = Vec::new();
    enumerate_covers(
        &leaves,
        &sources,
        &StreamSet::new(),
        &mut Vec::new(),
        &mut covers,
    );
    assert!(!covers.is_empty(), "base streams always cover the query");

    let mut best: Option<(f64, JoinTree, FlatPlan)> = None;
    for cover in &covers {
        let leaf_trees: Vec<JoinTree> = cover
            .iter()
            .map(|&i| JoinTree::Leaf(leaves[i].clone()))
            .collect();
        let candidates = if leaf_trees.len() <= EXHAUSTIVE_MAX_LEAVES {
            enumerate_trees(&leaf_trees)
        } else {
            vec![greedy_tree(leaf_trees, query, catalog)]
        };
        for tree in candidates {
            let plan = FlatPlan::from_tree(&tree, query, catalog);
            let score = plan.intermediate_rate_sum();
            if best.as_ref().is_none_or(|(b, _, _)| score < *b) {
                best = Some((score, tree, plan));
            }
        }
    }
    let (_, tree, plan) = best.expect("at least the all-bases cover exists");
    (tree, plan)
}

/// Widest cover the exhaustive bushy enumeration handles: the tree count is
/// `(2k-3)!!`, so 8 leaves already means 135,135 candidate trees. Nothing in
/// the paper's workloads exceeds 6; past the cap the greedy agglomerative
/// fallback keeps the baseline total instead of tripping the enumeration
/// guard's panic on wide (>32-stream) queries.
const EXHAUSTIVE_MAX_LEAVES: usize = 8;

/// Greedy agglomerative join ordering for covers too wide to enumerate:
/// repeatedly merge the pair of subtrees whose join has the smallest output
/// rate — the same `σ_cross · r_left · r_right` model `FlatPlan` uses, so
/// the returned tree's flattened rates agree with the selection objective.
/// Ties break on the lowest pair indices, keeping the result deterministic.
fn greedy_tree(leaf_trees: Vec<JoinTree>, query: &Query, catalog: &Catalog) -> JoinTree {
    let mut forest: Vec<(JoinTree, StreamSet, f64)> = leaf_trees
        .into_iter()
        .map(|t| {
            let covered = t.covered();
            let rate = match &t {
                JoinTree::Leaf(LeafSource::Base(id)) => query.effective_rate(catalog, *id),
                JoinTree::Leaf(LeafSource::Derived { rate, .. }) => *rate,
                JoinTree::Join(..) => unreachable!("greedy forest starts from leaves"),
            };
            (t, covered, rate)
        })
        .collect();
    while forest.len() > 1 {
        let mut best = (f64::INFINITY, 0usize, 1usize);
        for i in 0..forest.len() {
            for j in (i + 1)..forest.len() {
                let sigma =
                    catalog.cross_selectivity(forest[i].1.as_slice(), forest[j].1.as_slice());
                let rate = sigma * forest[i].2 * forest[j].2;
                if rate < best.0 {
                    best = (rate, i, j);
                }
            }
        }
        let (rate, i, j) = best;
        let (right, rc, _) = forest.swap_remove(j);
        let (left, lc, _) = forest.swap_remove(i);
        forest.push((
            JoinTree::Join(Box::new(left), Box::new(right)),
            lc.union(&rc),
            rate,
        ));
    }
    forest.pop().expect("covers are never empty").0
}

/// Enumerate index sets of `leaves` that cover `sources` disjointly.
fn enumerate_covers(
    leaves: &[LeafSource],
    sources: &StreamSet,
    covered: &StreamSet,
    chosen: &mut Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    let outstanding = sources.difference(covered);
    let lowest = outstanding.iter().next();
    match lowest {
        None => out.push(chosen.clone()),
        Some(lowest) => {
            for (i, leaf) in leaves.iter().enumerate() {
                let c = leaf.covered();
                if c.contains(lowest) && c.is_disjoint_from(covered) && c.is_subset_of(sources) {
                    chosen.push(i);
                    enumerate_covers(leaves, sources, &covered.union(&c), chosen, out);
                    chosen.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_net::NodeId;
    use dsq_query::{QueryId, Schema, StreamId};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let a = c.add_stream("A", 100.0, NodeId(0), Schema::default());
        let b = c.add_stream("B", 100.0, NodeId(1), Schema::default());
        let d = c.add_stream("C", 100.0, NodeId(2), Schema::default());
        // A⋈B is very selective; B⋈C explodes.
        c.set_selectivity(a, b, 0.0001);
        c.set_selectivity(b, d, 0.9);
        c.set_selectivity(a, d, 0.5);
        c
    }

    #[test]
    fn picks_the_selective_join_first() {
        let c = catalog();
        let q = Query::join(
            QueryId(0),
            [StreamId(0), StreamId(1), StreamId(2)],
            NodeId(0),
        );
        let reg = ReuseRegistry::new();
        let (tree, plan) = rate_optimal_tree(&c, &q, &reg);
        // Best: (A⋈B) first (rate 1), then join C.
        match &tree {
            JoinTree::Join(l, _) => {
                let lc = l.covered();
                assert!(
                    lc == StreamSet::from_iter([StreamId(0), StreamId(1)])
                        || tree.canonical().contains("(s0*s1)"),
                    "expected A⋈B inside, got {}",
                    tree.canonical()
                );
            }
            _ => panic!("expected join"),
        }
        assert!(plan.intermediate_rate_sum() < 1000.0);
    }

    #[test]
    fn derived_leaf_participates() {
        let c = catalog();
        let q = Query::join(
            QueryId(1),
            [StreamId(0), StreamId(1), StreamId(2)],
            NodeId(0),
        );
        let mut reg = ReuseRegistry::new();
        reg.advertise(
            StreamSet::from_iter([StreamId(0), StreamId(1)]),
            vec![],
            1.0,
            NodeId(1),
            QueryId(0),
        );
        let (tree, _) = rate_optimal_tree(&c, &q, &reg);
        // With the derived {A,B} available at rate 1, the plan should use
        // it: fewer joins and the same (or better) intermediate volume.
        let uses_derived = tree
            .leaves()
            .iter()
            .any(|l| matches!(l, LeafSource::Derived { .. }));
        assert!(uses_derived, "got {}", tree.canonical());
        assert_eq!(tree.join_count(), 1);
    }

    #[test]
    fn wide_query_falls_back_to_greedy() {
        let mut c = Catalog::new();
        let n = EXHAUSTIVE_MAX_LEAVES + 3;
        let ids: Vec<StreamId> = (0..n)
            .map(|i| {
                c.add_stream(
                    format!("S{i}"),
                    50.0 + i as f64,
                    NodeId(0),
                    Schema::default(),
                )
            })
            .collect();
        let q = Query::join(QueryId(0), ids.iter().copied(), NodeId(0));
        let reg = ReuseRegistry::new();
        // Past the enumeration cap this must not panic, and the greedy tree
        // must still be a valid disjoint cover of every source.
        let (tree, plan) = rate_optimal_tree(&c, &q, &reg);
        assert_eq!(tree.covered(), q.source_set());
        assert_eq!(tree.join_count(), n - 1);
        assert!(plan.intermediate_rate_sum().is_finite());
    }

    #[test]
    fn two_source_query_has_single_shape() {
        let c = catalog();
        let q = Query::join(QueryId(2), [StreamId(0), StreamId(2)], NodeId(0));
        let reg = ReuseRegistry::new();
        let (tree, _) = rate_optimal_tree(&c, &q, &reg);
        assert_eq!(tree.join_count(), 1);
        assert_eq!(
            tree.covered(),
            StreamSet::from_iter([StreamId(0), StreamId(2)])
        );
    }
}
