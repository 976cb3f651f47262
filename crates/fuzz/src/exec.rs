//! Value-level plan execution: do deployed plans compute the *right
//! answers*?
//!
//! `dsq-sim`'s statistical simulators validate costs and rates; this
//! module validates semantics. It materializes bounded batches of concrete
//! tuples for each base stream, pushes them through a deployment's operator
//! tree — selections at the leaves, symmetric hash joins at the operators,
//! derived leaves re-derived from their covered tables — and compares the
//! delivered multiset against a reference evaluation of the query (a
//! straightforward fold over the sources). Any plan an optimizer can produce (bushy shapes,
//! reused operators, arbitrary placements) must match the reference
//! exactly.
//!
//! Batches model one window's worth of data; windowing over time is the
//! statistical simulator's department.
//!
//! No oracle check runs it yet: its tests execute the optimizers' plans
//! against the reference directly.

use dsq_query::{
    Catalog, CmpOp, Deployment, FlatNode, JoinPredicate, LeafSource, Query, SelectionPredicate,
    StreamId, StreamSet,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap};

/// One tuple: attribute values keyed by `(stream, attribute)` so joined
/// rows concatenate without collision.
pub type Row = BTreeMap<(StreamId, String), i64>;

/// Concrete batch tables per stream.
pub type Tables = HashMap<StreamId, Vec<Row>>;

/// Generate `rows_per_stream` tuples for every catalog stream. Attribute
/// values are drawn uniformly from `0..key_domain`, so equi-joins on shared
/// domains produce matches with selectivity ≈ `1/key_domain`.
pub fn generate_tables(
    catalog: &Catalog,
    rows_per_stream: usize,
    key_domain: i64,
    seed: u64,
) -> Tables {
    assert!(key_domain > 0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut tables = Tables::new();
    for s in catalog.streams() {
        let mut rows = Vec::with_capacity(rows_per_stream);
        for _ in 0..rows_per_stream {
            let mut row = Row::new();
            if s.schema.attributes.is_empty() {
                row.insert((s.id, "value".to_string()), rng.gen_range(0..key_domain));
            }
            for attr in &s.schema.attributes {
                row.insert((s.id, attr.clone()), rng.gen_range(0..key_domain));
            }
            rows.push(row);
        }
        tables.insert(s.id, rows);
    }
    tables
}

fn selection_passes(row: &Row, sel: &SelectionPredicate) -> bool {
    let key = (sel.stream, sel.attr.clone());
    let v = match row.get(&key) {
        Some(v) => *v as f64,
        None => return true, // attribute not materialized: pass-through
    };
    match sel.op {
        CmpOp::Eq => v == sel.value,
        CmpOp::Lt => v < sel.value,
        CmpOp::Le => v <= sel.value,
        CmpOp::Gt => v > sel.value,
        CmpOp::Ge => v >= sel.value,
    }
}

/// The join predicates crossing a (left, right) coverage cut.
fn cut_predicates<'q>(
    preds: &'q [JoinPredicate],
    left: &StreamSet,
    right: &StreamSet,
) -> Vec<&'q JoinPredicate> {
    preds
        .iter()
        .filter(|p| {
            (left.contains(p.left) && right.contains(p.right))
                || (left.contains(p.right) && right.contains(p.left))
        })
        .collect()
}

/// Symmetric hash join of two row sets under the query's predicates across
/// the cut (cross product when none apply — mirroring the estimator's
/// σ = 1.0 default).
fn join_rows(
    left: &[Row],
    right: &[Row],
    left_cov: &StreamSet,
    right_cov: &StreamSet,
    preds: &[JoinPredicate],
) -> Vec<Row> {
    let cut = cut_predicates(preds, left_cov, right_cov);
    // Hash the right side by its key vector across the cut predicates.
    let right_key = |row: &Row| -> Option<Vec<i64>> {
        cut.iter()
            .map(|p| {
                let (s, a) = if right_cov.contains(p.left) {
                    (p.left, &p.left_attr)
                } else {
                    (p.right, &p.right_attr)
                };
                row.get(&(s, a.clone())).copied()
            })
            .collect()
    };
    let left_key = |row: &Row| -> Option<Vec<i64>> {
        cut.iter()
            .map(|p| {
                let (s, a) = if left_cov.contains(p.left) {
                    (p.left, &p.left_attr)
                } else {
                    (p.right, &p.right_attr)
                };
                row.get(&(s, a.clone())).copied()
            })
            .collect()
    };
    let mut index: HashMap<Vec<i64>, Vec<&Row>> = HashMap::new();
    for r in right {
        if let Some(k) = right_key(r) {
            index.entry(k).or_default().push(r);
        }
    }
    let mut out = Vec::new();
    for l in left {
        let Some(k) = left_key(l) else { continue };
        if let Some(matches) = index.get(&k) {
            for r in matches {
                let mut combined = l.clone();
                combined.extend((*r).clone());
                out.push(combined);
            }
        }
    }
    out
}

/// Filtered base table of one stream under the query's selections.
fn scan(tables: &Tables, query: &Query, stream: StreamId) -> Vec<Row> {
    tables[&stream]
        .iter()
        .filter(|row| {
            query
                .selections
                .iter()
                .filter(|s| s.stream == stream)
                .all(|s| selection_passes(row, s))
        })
        .cloned()
        .collect()
}

/// Join of an arbitrary covered set, built left-to-right — used both as the
/// reference evaluation and to materialize reused derived leaves (whose
/// content is, by definition, the join of their covered base streams under
/// the same predicates).
fn join_covered(tables: &Tables, query: &Query, covered: &StreamSet) -> Vec<Row> {
    let mut iter = covered.iter();
    let first = iter.next().expect("non-empty covered set");
    let mut acc = scan(tables, query, first);
    let mut acc_cov = StreamSet::singleton(first);
    for s in iter {
        let right = scan(tables, query, s);
        let right_cov = StreamSet::singleton(s);
        acc = join_rows(&acc, &right, &acc_cov, &right_cov, &query.join_predicates);
        acc_cov = acc_cov.union(&right_cov);
    }
    acc
}

/// Reference evaluation: the query's full join, independent of any plan.
pub fn reference_result(tables: &Tables, query: &Query) -> Vec<Row> {
    join_covered(tables, query, &query.source_set())
}

/// Execute a deployment's plan tree over the batch tables.
pub fn execute_deployment(tables: &Tables, query: &Query, d: &Deployment) -> Vec<Row> {
    fn eval(tables: &Tables, query: &Query, d: &Deployment, i: usize) -> Vec<Row> {
        match &d.plan.nodes()[i] {
            FlatNode::Leaf { source, .. } => match source {
                LeafSource::Base(id) => scan(tables, query, *id),
                LeafSource::Derived { covered, .. } => join_covered(tables, query, covered),
            },
            FlatNode::Join { left, right, .. } => {
                let l = eval(tables, query, d, *left);
                let r = eval(tables, query, d, *right);
                join_rows(
                    &l,
                    &r,
                    d.plan.nodes()[*left].covered(),
                    d.plan.nodes()[*right].covered(),
                    &query.join_predicates,
                )
            }
        }
    }
    eval(tables, query, d, d.plan.root())
}

/// Compare two result multisets (order-insensitive).
pub fn same_result(a: &[Row], b: &[Row]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let canon = |rows: &[Row]| -> Vec<String> {
        let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        v.sort();
        v
    };
    canon(a) == canon(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_core::{BottomUp, Environment, Optimal, Optimizer, SearchStats, TopDown};
    use dsq_net::{NodeId, TransitStubConfig};
    use dsq_query::{QueryId, ReuseRegistry, Schema};
    use dsq_workload::airline_scenario;

    #[test]
    fn airline_q1_and_q2_compute_correct_answers_with_reuse() {
        let sc = airline_scenario();
        let env = Environment::build(sc.network.clone(), 4);
        let tables = generate_tables(&sc.catalog, 60, 6, 1);
        let mut registry = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        let td = TopDown::new(&env);

        for q in &sc.queries {
            // Value-domain note: the scenario's predicates use hashed
            // string codes far outside 0..6; drop the Eq-on-code filter so
            // the batch produces data, keep the numeric window.
            let mut q = q.clone();
            q.selections.retain(|s| s.value < 1000.0);
            let d = td.optimize(&sc.catalog, &q, &registry, &mut stats).unwrap();
            let got = execute_deployment(&tables, &q, &d);
            let want = reference_result(&tables, &q);
            assert!(
                same_result(&got, &want),
                "{}: deployed plan produced {} rows, reference {}",
                q.id,
                got.len(),
                want.len()
            );
            assert!(!want.is_empty(), "the batch should produce joins");
            registry.register_deployment(&q, &d);
        }
        // The second query reused the first's operator and still matched.
        assert!(!registry.is_empty());
    }

    /// Random join-graph queries: every optimizer's plan must equal the
    /// reference on every instance.
    #[test]
    fn random_plans_compute_reference_results() {
        let net = TransitStubConfig::paper_64().generate(4).network;
        let env = Environment::build(net, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for case in 0..10u32 {
            // 3–4 streams chained by equi-joins on a shared "k" attribute.
            let k = 3 + (case % 2) as usize;
            let stubs = env.network.stub_nodes();
            let mut catalog = Catalog::new();
            let ids: Vec<StreamId> = (0..k)
                .map(|i| {
                    catalog.add_stream(
                        format!("S{i}"),
                        rng.gen_range(5.0..20.0),
                        stubs[rng.gen_range(0..stubs.len())],
                        Schema::new([format!("k{i}"), format!("v{i}")]),
                    )
                })
                .collect();
            for w in ids.windows(2) {
                catalog.set_selectivity(w[0], w[1], 0.2);
            }
            let mut q = Query::join(QueryId(case), ids.clone(), stubs[0]);
            for (i, w) in ids.windows(2).enumerate() {
                q.join_predicates.push(JoinPredicate::new(
                    w[0],
                    format!("k{i}"),
                    w[1],
                    format!("k{}", i + 1),
                ));
            }
            // One numeric selection.
            q.selections
                .push(SelectionPredicate::new(ids[0], "v0", CmpOp::Lt, 3.0, 0.6));
            q.validate();

            let tables = generate_tables(&catalog, 40, 5, case as u64);
            let want = reference_result(&tables, &q);
            for alg in [
                &TopDown::new(&env) as &dyn Optimizer,
                &BottomUp::new(&env),
                &Optimal::new(&env),
            ] {
                let reg = ReuseRegistry::new();
                let mut stats = SearchStats::new();
                let d = alg.optimize(&catalog, &q, &reg, &mut stats).unwrap();
                let got = execute_deployment(&tables, &q, &d);
                assert!(
                    same_result(&got, &want),
                    "case {case} {}: {} rows vs reference {}",
                    alg.name(),
                    got.len(),
                    want.len()
                );
            }
        }
    }

    #[test]
    fn selections_filter_rows() {
        let mut catalog = Catalog::new();
        let s = catalog.add_stream("S", 10.0, NodeId(0), Schema::new(["x"]));
        let mut q = Query::join(QueryId(0), [s], NodeId(0));
        q.selections
            .push(SelectionPredicate::new(s, "x", CmpOp::Lt, 2.0, 0.4));
        let tables = generate_tables(&catalog, 100, 5, 3);
        let filtered = scan(&tables, &q, s);
        assert!(!filtered.is_empty() && filtered.len() < 100);
        for row in &filtered {
            assert!(row[&(s, "x".to_string())] < 2);
        }
    }

    #[test]
    fn cross_product_when_no_predicates_apply() {
        let mut catalog = Catalog::new();
        let a = catalog.add_stream("A", 10.0, NodeId(0), Schema::new(["x"]));
        let b = catalog.add_stream("B", 10.0, NodeId(0), Schema::new(["y"]));
        let q = Query::join(QueryId(0), [a, b], NodeId(0));
        let tables = generate_tables(&catalog, 7, 5, 4);
        let result = reference_result(&tables, &q);
        assert_eq!(result.len(), 49, "no predicates ⇒ cross product");
    }

    #[test]
    fn same_result_detects_differences() {
        let mut r1 = Row::new();
        r1.insert((StreamId(0), "x".into()), 1);
        let mut r2 = Row::new();
        r2.insert((StreamId(0), "x".into()), 2);
        assert!(same_result(&[r1.clone()], &[r1.clone()]));
        assert!(!same_result(&[r1.clone()], &[r2.clone()]));
        assert!(!same_result(&[r1.clone()], &[r1.clone(), r2]));
        // Multiset semantics: duplicates matter.
        assert!(same_result(&[r1.clone(), r1.clone()], &[r1.clone(), r1]));
    }
}
