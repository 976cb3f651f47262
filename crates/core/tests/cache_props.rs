//! Property tests for the subplan cache's canonicalization machinery:
//! positional tag remapping must be a lossless round trip, cache keys must
//! ignore tag labels (and nothing else), and a cache hit whose tags are
//! remapped must rebuild the same deployment a cold miss computes. And the
//! retirement a link repair drives from its own changed-entry record must
//! match the matrix-diffing reference, key for key, and both retirements
//! through the dependency index — membership and changed-entry — must
//! match a scan of every entry.

use dsq_core::cache::{external_tags, retag, CacheEntry, PlanCache, PlanKey};
use dsq_core::engine::{ClusterPlanner, PlannerInput};
use dsq_core::placed::PlacedTree;
use dsq_core::{optimize_all, Environment, ParallelConfig};
use dsq_hierarchy::{ClusterId, Hierarchy, HierarchyDelta};
use dsq_net::{DistanceMatrix, LinkRepair, NodeId, TransitStubConfig};
use dsq_query::{Catalog, Query, QueryId, ReuseRegistry, Schema, StreamId, StreamSet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// A random `PlacedTree` whose `External` leaves use exactly `tags` (each
/// once), mixed with base-stream leaves, joined in random shape.
fn random_tree(rng: &mut ChaCha8Rng, tags: &[usize]) -> PlacedTree {
    let mut leaves: Vec<PlacedTree> = tags
        .iter()
        .map(|&t| PlacedTree::External {
            tag: t,
            covered: StreamSet::singleton(StreamId(rng.gen_range(0..8))),
            location: NodeId(rng.gen_range(0..16)),
        })
        .collect();
    for _ in 0..rng.gen_range(0..3) {
        leaves.push(PlacedTree::Leaf(dsq_query::LeafSource::Base(StreamId(
            rng.gen_range(0..8),
        ))));
    }
    while leaves.len() > 1 {
        let l = leaves.remove(rng.gen_range(0..leaves.len()));
        let r = leaves.remove(rng.gen_range(0..leaves.len()));
        leaves.push(PlacedTree::Join {
            left: Box::new(l),
            right: Box::new(r),
            node: NodeId(rng.gen_range(0..16)),
        });
    }
    leaves.pop().unwrap()
}

/// Distinct random tags (labels can be any usize; the cache only needs
/// positional correspondence).
fn random_tags(rng: &mut ChaCha8Rng, n: usize) -> Vec<usize> {
    let mut tags: Vec<usize> = Vec::with_capacity(n);
    while tags.len() < n {
        let t = rng.gen_range(0..1000usize);
        if !tags.contains(&t) {
            tags.push(t);
        }
    }
    tags
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

    /// `retag(from -> to)` then `retag(to -> from)` reproduces the
    /// original tree exactly, whatever the tree shape and label values.
    #[test]
    fn retag_round_trips(seed in 0u64..500, n in 1usize..=4) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let from = random_tags(&mut rng, n);
        let to = random_tags(&mut rng, n);
        let tree = random_tree(&mut rng, &from);
        let there = retag(&tree, &from, &to);
        let back = retag(&there, &to, &from);
        proptest::prop_assert_eq!(
            format!("{tree:?}"),
            format!("{back:?}"),
            "retag must be a lossless positional round trip"
        );
    }

    /// Duplicate tag labels (content-keyed duplicate externals) must remap
    /// by occurrence, not first match: a tree referencing each input once
    /// in input order comes back carrying exactly the caller's tags, and
    /// the rewrite round-trips losslessly.
    #[test]
    fn retag_survives_duplicate_labels(seed in 0u64..500, n in 2usize..=5) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // `from` deliberately collides labels (drawn from a tiny alphabet);
        // `to` is distinct, like a real hitting caller's TagAlloc output.
        let from: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3usize)).collect();
        let to = random_tags(&mut rng, n);

        // Left-deep tree referencing input 0, 1, … in traversal order —
        // the order `collect_inputs`/`external_tags` record them in.
        let ext = |i: usize, tag: usize| PlacedTree::External {
            tag,
            covered: StreamSet::singleton(StreamId(i as u32)),
            location: NodeId(i as u32),
        };
        let mut tree = ext(0, from[0]);
        for (i, &t) in from.iter().enumerate().skip(1) {
            tree = PlacedTree::Join {
                left: Box::new(tree),
                right: Box::new(ext(i, t)),
                node: NodeId(15),
            };
        }

        let there = retag(&tree, &from, &to);
        // Collect external tags of the rewritten tree in traversal order.
        fn tags_of(t: &PlacedTree, out: &mut Vec<usize>) {
            match t {
                PlacedTree::External { tag, .. } => out.push(*tag),
                PlacedTree::Join { left, right, .. } => {
                    tags_of(left, out);
                    tags_of(right, out);
                }
                PlacedTree::Leaf(_) => {}
            }
        }
        let mut got = Vec::new();
        tags_of(&there, &mut got);
        proptest::prop_assert_eq!(
            &got, &to,
            "occurrence k of a duplicated label must take the caller's k-th tag"
        );

        let back = retag(&there, &to, &from);
        proptest::prop_assert_eq!(
            format!("{tree:?}"),
            format!("{back:?}"),
            "duplicate-label retag must round-trip"
        );
    }

    /// Cache keys are canonical: relabeling `External` tags never changes
    /// the key, while moving an external's production site always does.
    #[test]
    fn keys_ignore_tags_but_not_content(seed in 0u64..500) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut catalog = Catalog::new();
        let a = catalog.add_stream("A", 10.0, NodeId(0), Schema::default());
        let b = catalog.add_stream("B", 4.0, NodeId(3), Schema::default());
        let query = Query::join(QueryId(0), [a, b], NodeId(2));
        let planner = ClusterPlanner::new(&catalog, &query);
        let cache = PlanCache::new_with_enabled(true);
        let cluster = ClusterId { level: 2, index: 0 };

        let loc = NodeId(rng.gen_range(0..8));
        let covered = StreamSet::singleton(b);
        let inputs = |tag: usize, loc: NodeId| {
            vec![
                PlannerInput::base(&catalog, a),
                PlannerInput::external(tag, covered.clone(), loc),
            ]
        };
        let t1 = rng.gen_range(0..1000usize);
        let t2 = rng.gen_range(0..1000usize);
        let k1 = cache.key_for(&planner, cluster, &inputs(t1, loc), NodeId(2)).unwrap();
        let k2 = cache.key_for(&planner, cluster, &inputs(t2, loc), NodeId(2)).unwrap();
        proptest::prop_assert_eq!(&k1, &k2, "tags are labels, not key material");

        let moved = NodeId(loc.0 + 8); // any different node
        let k3 = cache.key_for(&planner, cluster, &inputs(t1, moved), NodeId(2)).unwrap();
        proptest::prop_assert!(k1 != k3, "production site must be key material");

        // The positional tag record used on hits follows input order.
        proptest::prop_assert_eq!(external_tags(&inputs(t1, loc)), vec![t1]);
    }

    /// End to end over random workloads: planning with the cache on (hits
    /// served via positional retag) is bit-identical to planning with the
    /// cache off — warm replays included.
    #[test]
    fn cache_hits_rebuild_cold_miss_deployments(seed in 0u64..64) {
        let net = TransitStubConfig::sized(48).generate(seed + 1).network;
        let env = Environment::build(net, 8);
        let wl = dsq_workload::WorkloadGenerator::new(
            dsq_workload::WorkloadConfig {
                streams: 8,
                queries: 6,
                joins_per_query: 2..=3,
                source_skew: Some(1.0), // overlap => external-input reuse
                ..dsq_workload::WorkloadConfig::default()
            },
            seed,
        )
        .generate(&env.network);
        let run = |enabled: bool, passes: usize| {
            let mut env = env.clone();
            env.isolate_cache(enabled);
            let td = dsq_core::TopDown::new(&env);
            let mut last = None;
            for _ in 0..passes {
                last = Some(optimize_all(
                    &env,
                    &td,
                    &wl.catalog,
                    &wl.queries,
                    &ReuseRegistry::new(),
                    &ParallelConfig::serial(),
                ));
            }
            (last.unwrap(), env.plan_cache.hits())
        };
        let (cold, no_hits) = run(false, 1);
        let (warm, hits) = run(true, 2); // second pass replays pure hits
        proptest::prop_assert_eq!(no_hits, 0);
        proptest::prop_assert!(hits > 0, "two passes over a skewed workload must hit");
        proptest::prop_assert_eq!(
            cold.total_cost.to_bits(),
            warm.total_cost.to_bits(),
            "cached replay diverged from cold planning"
        );
        for (c, w) in cold.deployments.iter().zip(&warm.deployments) {
            match (c, w) {
                (None, None) => {}
                (Some(c), Some(w)) => {
                    proptest::prop_assert_eq!(c.cost.to_bits(), w.cost.to_bits());
                    proptest::prop_assert_eq!(&c.placement, &w.placement);
                    proptest::prop_assert_eq!(c.plan.nodes().len(), w.plan.nodes().len());
                }
                _ => proptest::prop_assert!(false, "feasibility differs"),
            }
        }
    }
}

/// `Environment::reprice_link` retires from the repair's changed-entry
/// record; `retire_metric(&old, &new)` — which diffs the two matrices pair
/// by pair — is the reference arm. Over seeded degrades on warm twin caches
/// both must leave exactly the same keys and the same retired count.
#[test]
fn record_driven_retirement_matches_the_matrix_diff() {
    let net = TransitStubConfig::paper_128().generate(9).network;
    let mut base = Environment::build(net, 16);
    let wl = dsq_workload::WorkloadGenerator::new(
        dsq_workload::WorkloadConfig {
            streams: 24,
            queries: 40,
            joins_per_query: 2..=3,
            source_skew: Some(1.0),
            ..dsq_workload::WorkloadConfig::default()
        },
        9,
    )
    .generate(&base.network);
    base.isolate_cache(true);
    let mut twin = base.clone();
    twin.isolate_cache(true);
    let warm = |env: &Environment| {
        optimize_all(
            env,
            &dsq_core::TopDown::new(env),
            &wl.catalog,
            &wl.queries,
            &ReuseRegistry::new(),
            &ParallelConfig::serial(),
        );
    };
    let keys = |env: &Environment| {
        env.plan_cache
            .keys()
            .into_iter()
            .collect::<HashSet<PlanKey>>()
    };

    let mut rng = ChaCha8Rng::seed_from_u64(0xD15C);
    let (mut kept_some, mut spared_all) = (0, 0);
    for step in 0..20 {
        warm(&base);
        warm(&twin);
        let before = keys(&base);
        assert!(!before.is_empty(), "step {step}: planning warmed the cache");
        assert_eq!(before, keys(&twin), "step {step}: twins warmed alike");

        let a = NodeId(rng.gen_range(0..base.network.len() as u32));
        let b = base.network.neighbors(a)[rng.gen_range(0..base.network.degree(a))].to;
        // Mostly increases (the in-place repair), some decreases (the rebuild
        // fallback, whose record is the full diff).
        let factor = [1.5, 4.0, 10.0, 0.5][rng.gen_range(0..4usize)];
        let new_cost = base.network.find_link(a, b).unwrap().cost * factor;

        base.reprice_link(a, b, new_cost).expect("a real link");

        let old_w = twin.metric.weight(twin.network.find_link(a, b).unwrap());
        twin.network.set_link_cost(a, b, new_cost);
        let (new_dm, _) = twin
            .dm
            .repaired_after_link_change(&twin.network, a, b, old_w);
        twin.plan_cache.retire_metric(&twin.dm, &new_dm);
        twin.dm = new_dm;
        twin.hierarchy.refresh_statistics(&twin.dm);

        let after = keys(&base);
        assert_eq!(after, keys(&twin), "step {step}: surviving keys differ");
        assert_eq!(
            base.plan_cache.retired(),
            twin.plan_cache.retired(),
            "step {step}: retired counts differ"
        );
        kept_some += usize::from(!after.is_empty() && after.len() < before.len());
        spared_all += usize::from(after.len() == before.len());
    }
    assert!(base.plan_cache.retired() > 0);
    assert!(kept_some > 0, "no degrade retired only part of the cache");
    assert!(spared_all < 20, "every degrade missed the cache");
}

/// The membership rule as a scan over every entry would apply it: an entry
/// is stale iff its cluster is dirty, or one of its raw locations went
/// inactive or has a dirty cluster on its ancestor chain up to the entry's
/// level. A full delta (the height changed) retires everything.
fn scan_stale(h: &Hierarchy, delta: &HierarchyDelta, key: &PlanKey, entry: &CacheEntry) -> bool {
    delta.full
        || delta.dirty.contains(&key.cluster())
        || entry.deps.locations.iter().any(|&loc| {
            !h.is_active(loc)
                || h.ancestor_chain(loc, key.cluster().level)
                    .iter()
                    .any(|c| delta.dirty.contains(c))
        })
}

/// Crashes and rejoins, with link repricings and re-planning between them:
/// membership retirement, which tests only the candidates its dependency
/// index names, must keep exactly the entries a scan of every entry keeps,
/// and every retirement path must leave the index equal to a rebuild from
/// the committed entries.
#[test]
fn indexed_membership_retirement_matches_a_scan() {
    for seed in 0..4u64 {
        let net = TransitStubConfig::paper_128().generate(seed + 3).network;
        let mut env = Environment::build(net, 6);
        let wl = dsq_workload::WorkloadGenerator::new(
            dsq_workload::WorkloadConfig {
                streams: 16,
                queries: 24,
                joins_per_query: 2..=3,
                source_skew: Some(1.0),
                ..dsq_workload::WorkloadConfig::default()
            },
            seed,
        )
        .generate(&env.network);
        env.isolate_cache(true);
        let mut rng = ChaCha8Rng::seed_from_u64(0x1DE7 + seed);
        let mut down: Vec<NodeId> = Vec::new();
        let (mut partial, mut retired_some) = (0, 0);
        for step in 0..24 {
            // Only queries whose sink and origins are up can be planned.
            let h = &env.hierarchy;
            let servable: Vec<Query> = wl
                .queries
                .iter()
                .filter(|q| {
                    h.is_active(q.sink)
                        && q.sources
                            .iter()
                            .all(|&s| h.is_active(wl.catalog.stream(s).node))
                })
                .cloned()
                .collect();
            optimize_all(
                &env,
                &dsq_core::TopDown::new(&env),
                &wl.catalog,
                &servable,
                &ReuseRegistry::new(),
                &ParallelConfig::serial(),
            );
            env.plan_cache.check_index();
            let entries = env.plan_cache.entries();
            assert!(
                !entries.is_empty(),
                "seed {seed} step {step}: planning warmed the cache"
            );

            if step % 5 == 4 {
                // A repricing retires through the scan arm; the index must
                // follow it.
                let a = NodeId(rng.gen_range(0..env.network.len() as u32));
                let b = env.network.neighbors(a)[rng.gen_range(0..env.network.degree(a))].to;
                let cost = env.network.find_link(a, b).unwrap().cost * 3.0;
                env.reprice_link(a, b, cost).expect("a real link");
                env.plan_cache.check_index();
                continue;
            }

            let before = env.hierarchy.snapshot();
            let rejoin = !down.is_empty() && rng.gen_bool(0.4);
            if rejoin {
                let n = down.swap_remove(rng.gen_range(0..down.len()));
                assert!(env.rejoin_node(n).is_some());
            } else {
                let active = env.hierarchy.active_nodes();
                let n = active[rng.gen_range(0..active.len())];
                if !env.crash_node(n) {
                    continue;
                }
                down.push(n);
            }
            let delta = before.diff(&env.hierarchy.snapshot());
            let want: HashSet<PlanKey> = entries
                .iter()
                .filter(|(k, e)| !scan_stale(&env.hierarchy, &delta, k, e))
                .map(|(k, _)| k.clone())
                .collect();
            let got: HashSet<PlanKey> = env.plan_cache.keys().into_iter().collect();
            assert_eq!(
                got.len(),
                want.len(),
                "seed {seed} step {step}: survivors differ from the scan's"
            );
            assert!(
                got == want,
                "seed {seed} step {step}: survivors differ from the scan's"
            );
            env.plan_cache.check_index();
            partial += usize::from(!want.is_empty() && want.len() < entries.len());
            retired_some += usize::from(want.len() < entries.len());
        }
        env.plan_cache.invalidate();
        env.plan_cache.check_index();
        assert!(
            partial > 0,
            "seed {seed}: no membership change kept part of the cache"
        );
        assert!(
            retired_some > 0,
            "seed {seed}: no membership change retired anything"
        );
    }
}

/// Whether two distinct nodes of `nodes` have a distance that differs
/// between `old` and `new` in its bits, read either way — the changed-pair
/// rule, applied by comparing the matrices.
fn scan_changed(old: &DistanceMatrix, new: &DistanceMatrix, nodes: &[NodeId]) -> bool {
    let moved = |u: NodeId, v: NodeId| old.get(u, v).to_bits() != new.get(u, v).to_bits();
    nodes
        .iter()
        .enumerate()
        .any(|(i, &u)| nodes[i + 1..].iter().any(|&v| moved(u, v) || moved(v, u)))
}

/// Link repricings — increases (the in-place repair), decreases (the
/// rebuild) and factors that change nothing — interleaved with crashes and
/// rejoins and re-planning: the retirement a repricing drives through the
/// cover of its changed entries, which tests only the entries the
/// dependency index names, must keep exactly the entries a scan of every
/// entry against the two matrices keeps, and the index must stay equal to
/// a rebuild after every step.
#[test]
fn cover_driven_metric_retirement_matches_a_scan() {
    for seed in 0..4u64 {
        let net = TransitStubConfig::paper_128().generate(seed + 21).network;
        let mut env = Environment::build(net, 6);
        let wl = dsq_workload::WorkloadGenerator::new(
            dsq_workload::WorkloadConfig {
                streams: 16,
                queries: 24,
                joins_per_query: 2..=3,
                source_skew: Some(1.0),
                ..dsq_workload::WorkloadConfig::default()
            },
            seed,
        )
        .generate(&env.network);
        env.isolate_cache(true);
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0BE + seed);
        let mut down: Vec<NodeId> = Vec::new();
        let (mut partial, mut rebuilt, mut unchanged) = (0, 0, 0);
        for step in 0..32 {
            // Plan what can be planned; Top-Down declines the rest.
            optimize_all(
                &env,
                &dsq_core::TopDown::new(&env),
                &wl.catalog,
                &wl.queries,
                &ReuseRegistry::new(),
                &ParallelConfig::serial(),
            );
            env.plan_cache.check_index();
            let entries = env.plan_cache.entries();
            assert!(
                !entries.is_empty(),
                "seed {seed} step {step}: planning warmed the cache"
            );

            if step % 4 == 3 {
                let rejoin = !down.is_empty() && rng.gen_bool(0.5);
                if rejoin {
                    let n = down.swap_remove(rng.gen_range(0..down.len()));
                    assert!(env.rejoin_node(n).is_some());
                } else {
                    let active = env.hierarchy.active_nodes();
                    let n = active[rng.gen_range(0..active.len())];
                    if env.crash_node(n) {
                        down.push(n);
                    }
                }
                env.plan_cache.check_index();
                continue;
            }

            let a = NodeId(rng.gen_range(0..env.network.len() as u32));
            let b = env.network.neighbors(a)[rng.gen_range(0..env.network.degree(a))].to;
            let factor = [1.5, 4.0, 10.0, 0.5, 1.0][rng.gen_range(0..5usize)];
            let cost = env.network.find_link(a, b).unwrap().cost * factor;
            let old_dm = env.dm.clone();
            let (repair, changed) = env.reprice_link(a, b, cost).expect("a real link");
            let want: HashSet<PlanKey> = entries
                .iter()
                .filter(|(_, e)| !scan_changed(&old_dm, &env.dm, &e.deps.metric_nodes))
                .map(|(k, _)| k.clone())
                .collect();
            let got: HashSet<PlanKey> = env.plan_cache.keys().into_iter().collect();
            assert_eq!(
                got.len(),
                want.len(),
                "seed {seed} step {step}: survivors differ from the scan's"
            );
            assert!(
                got == want,
                "seed {seed} step {step}: survivors differ from the scan's"
            );
            env.plan_cache.check_index();
            partial += usize::from(!want.is_empty() && want.len() < entries.len());
            rebuilt += usize::from(repair == LinkRepair::Rebuilt);
            unchanged += usize::from(changed.is_empty());
        }
        assert!(
            partial > 0,
            "seed {seed}: no repricing kept part of the cache"
        );
        assert!(rebuilt > 0, "seed {seed}: no repricing rebuilt the matrix");
        assert!(
            unchanged > 0,
            "seed {seed}: every repricing moved a distance"
        );
    }
}
