//! The reuse check: containment-based operator reuse and the advert
//! lifecycle.

use super::planner::churn_out;
use super::Ctx;
use dsq_core::consolidate::{deploy_all, BatchOutcome};
use dsq_core::{BottomUp, Optimal, Optimizer, PlacementError, SearchStats, TopDown};
use dsq_net::NodeId;
use dsq_query::{AdvertState, DerivedId, FlatNode, LeafSource, Query, ReuseRegistry};

/// Ids of the adverts the probe serves for `query` under a liveness view
/// (in id order, as the probe emits them).
fn served_ids(
    reg: &mut ReuseRegistry,
    query: &Query,
    is_active: impl Fn(NodeId) -> bool,
) -> Vec<DerivedId> {
    reg.usable_for_live(query, is_active)
        .into_iter()
        .map(|l| match l {
            LeafSource::Derived { id, .. } => id,
            LeafSource::Base(_) => unreachable!("reuse probes only yield derived leaves"),
        })
        .collect()
}

/// Containment-based reuse plus the advert lifecycle invariants.
///
/// Every derived-stream leaf a planner consumes must be backed by a *live*
/// advertisement whose covered set is contained in the consuming query's
/// own source set (and covers at least two streams, hosted where it was
/// advertised, on a currently active node) — the paper's
/// reuse-compatibility rule under the registry's lifecycle. Under churn,
/// neither the probe nor a full planning pass may serve an advert hosted
/// on a removed node, and rejoin restores exactly the pre-churn candidate
/// set. A budgeted registry must keep its live set within the budget with
/// conserved `AdvertStats`, and an effectively-unbounded budget must leave
/// planner output bit-identical to the budget-free registry. Against the
/// exact yardstick, planning with the advertisement registry can never
/// cost more than planning without it: reuse only ever *adds* planner
/// inputs, so disabling it must not lower cost.
pub(super) fn reuse(ctx: &Ctx) -> Vec<String> {
    let (env, catalog, queries) = (ctx.env(), ctx.catalog(), ctx.queries());
    let mut out = Vec::new();
    let td = TopDown::new(env);
    let (td_batch, td_reg) = ctx.td_batch();

    // Containment, across every optimizer arm that can consume adverts.
    // Each query plans against the registry state its predecessors left,
    // exactly as the incremental-batch experiments deploy.
    containment(ctx, "top-down", td_batch, td_reg, &mut out);
    let bu = BottomUp::new(env);
    let opt = Optimal::new(env);
    let mut arms: Vec<(&str, &dyn Optimizer)> = vec![("bottom-up", &bu)];
    if ctx.small() {
        arms.push(("optimal", &opt));
    }
    for (name, optimizer) in arms {
        let mut reg = ReuseRegistry::new();
        let batch = deploy_all(optimizer, catalog, queries, &mut reg, true);
        containment(ctx, name, &batch, &reg, &mut out);
    }

    // Lifecycle under churn: crash a couple of advert hosts out of the
    // overlay, then (a) the probe must stop serving their adverts, (b) a
    // full planning pass on the churned overlay must not consume a derived
    // stream hosted on an inactive node, and (c) rejoining the hosts must
    // restore exactly the pre-churn candidate set.
    let hosts: std::collections::BTreeSet<NodeId> = td_reg.deriveds().map(|d| d.host).collect();
    let before: Vec<Vec<DerivedId>> = queries
        .iter()
        .map(|q| served_ids(&mut td_reg.clone(), q, |_| true))
        .collect();
    let (mut churned, removed) = churn_out(ctx, hosts, 2);
    if !removed.is_empty() {
        for (i, q) in queries.iter().enumerate() {
            let mut probe = td_reg.clone();
            let live_view = |n: NodeId| churned.hierarchy.is_active(n);
            for id in served_ids(&mut probe, q, live_view) {
                let host = probe.derived(id).expect("served advert resolves").host;
                if removed.contains(&host) {
                    out.push(format!(
                        "q{i}: usable_for served advert {id:?} hosted on churned-out {host}"
                    ));
                }
            }
        }
        let td_churned = TopDown::new(&churned);
        for (i, q) in queries.iter().enumerate() {
            let r = td_reg.clone();
            let Some(d) = td_churned.optimize(catalog, q, &r, &mut SearchStats::new()) else {
                continue;
            };
            for node in d.plan.nodes() {
                if let FlatNode::Leaf {
                    source: LeafSource::Derived { host, .. },
                    ..
                } = node
                {
                    if !churned.hierarchy.is_active(*host) {
                        out.push(format!(
                            "q{i}: churned top-down consumed a derived stream hosted on \
                             inactive node {host}"
                        ));
                    }
                }
            }
        }
        // Rejoin every removed host (via its nearest active member) and
        // demand the candidate set is exactly what it was before churn.
        for &n in &removed {
            let via = *churned
                .hierarchy
                .active_nodes()
                .iter()
                .min_by(|&&a, &&b| {
                    churned
                        .dm
                        .get(a, n)
                        .total_cmp(&churned.dm.get(b, n))
                        .then(a.0.cmp(&b.0))
                })
                .expect("overlay is never empty");
            dsq_hierarchy::membership::add_node(&mut churned.hierarchy, &churned.dm, n, via);
        }
        for (i, q) in queries.iter().enumerate() {
            let mut probe = td_reg.clone();
            let live_view = |n: NodeId| churned.hierarchy.is_active(n);
            let after = served_ids(&mut probe, q, live_view);
            if after != before[i] {
                out.push(format!(
                    "q{i}: rejoin did not restore the candidate set: {before:?} before \
                     churn, {after:?} after rejoin",
                    before = before[i]
                ));
            }
        }
    }

    // Budgeted registry: the live set respects the budget, the lifecycle
    // counters conserve, and every consumed derived leaf still resolves
    // (stable ids survive eviction).
    let budget = if ctx.case.advert_budget > 0 {
        ctx.case.advert_budget
    } else {
        2
    };
    let mut breg = ReuseRegistry::with_budget(budget);
    let batch = deploy_all(&td, catalog, queries, &mut breg, true);
    if breg.live_len() > budget {
        out.push(format!(
            "budget {budget}: live advert count {} exceeds it",
            breg.live_len()
        ));
    }
    let s = breg.stats();
    if !s.conserved() {
        out.push(format!(
            "budget {budget}: advert stats violate conservation: published={} \
             live={} retired={} evicted={}",
            s.published, s.live, s.retired, s.evicted
        ));
    }
    for d in batch.deployments.iter().flatten() {
        for node in d.plan.nodes() {
            if let FlatNode::Leaf {
                source: LeafSource::Derived { id, .. },
                ..
            } = node
            {
                if breg.derived(*id).is_none() {
                    out.push(format!(
                        "budget {budget}: consumed advert {id:?} no longer resolves"
                    ));
                }
            }
        }
    }

    // An effectively-unbounded budget must be indistinguishable from the
    // budget-free registry: bit-identical costs and placements.
    let mut huge = ReuseRegistry::with_budget(usize::MAX);
    let bounded = deploy_all(&td, catalog, queries, &mut huge, true);
    for (i, (d1, d2)) in td_batch
        .deployments
        .iter()
        .zip(&bounded.deployments)
        .enumerate()
    {
        let same = match (d1, d2) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.cost.to_bits() == b.cost.to_bits() && a.placement == b.placement
            }
            _ => false,
        };
        if !same {
            out.push(format!(
                "q{i}: huge advert budget changed planner output vs unbounded registry"
            ));
        }
    }

    // Cost invariant, exact yardstick only: heuristics give no ordering
    // guarantee under a changed input set, the DP does.
    if !ctx.small() {
        return out;
    }
    let mut reg = ReuseRegistry::new();
    let mut stats = SearchStats::new();
    for ((i, q), without) in queries.iter().enumerate().zip(ctx.exact()) {
        let with = Optimal::new(env).try_optimize(catalog, q, &reg, &mut stats);
        // Adverts add planner inputs, so the with-reuse universe can blow
        // the DP's width budget where the base-only one does not. A typed
        // width refusal on either side means "no yardstick here".
        if matches!(with, Err(PlacementError::UniverseTooLarge { .. }))
            || matches!(without, Err(PlacementError::UniverseTooLarge { .. }))
        {
            if let Ok(d) = with {
                reg.register_deployment(q, &d);
            }
            continue;
        }
        match (with, without) {
            (Ok(w), Ok(wo)) => {
                let eps = 1e-6 * wo.cost.abs().max(1.0);
                if w.cost > wo.cost + eps {
                    out.push(format!(
                        "q{i}: reuse raised the optimal cost: {} with adverts vs {} without",
                        w.cost, wo.cost
                    ));
                }
                reg.register_deployment(q, &w);
            }
            (Err(e), Ok(_)) => {
                out.push(format!(
                    "q{i}: infeasible with adverts but feasible without ({e:?})"
                ));
            }
            // Reuse may make a base-infeasible query plannable (an advert
            // shrinks the universe); the converse is checked above.
            (Ok(w), Err(_)) => {
                reg.register_deployment(q, &w);
            }
            (Err(_), Err(_)) => {}
        }
    }
    out
}

/// Every derived leaf of `batch` must be backed by a live advertisement in
/// `reg` whose covered set is contained in the consuming query's sources.
fn containment(
    ctx: &Ctx,
    name: &str,
    batch: &BatchOutcome,
    reg: &ReuseRegistry,
    out: &mut Vec<String>,
) {
    for (i, d) in batch.deployments.iter().enumerate() {
        let Some(d) = d else { continue };
        let sources = ctx.queries()[i].source_set();
        for (ni, node) in d.plan.nodes().iter().enumerate() {
            let FlatNode::Leaf {
                source:
                    LeafSource::Derived {
                        id, covered, host, ..
                    },
                ..
            } = node
            else {
                continue;
            };
            if covered.len() < 2 {
                out.push(format!(
                    "{name} q{i}: derived leaf {ni} covers fewer than 2 streams"
                ));
            }
            if !covered.is_subset_of(&sources) {
                out.push(format!(
                    "{name} q{i}: derived leaf {ni} covers {covered:?}, which is not \
                     contained in the query's sources {sources:?}"
                ));
            }
            match reg.derived(*id) {
                None => out.push(format!(
                    "{name} q{i}: derived leaf {ni} references advert {id:?} the \
                     registry never issued"
                )),
                Some(adv) => {
                    if adv.covered != *covered || adv.host != *host {
                        out.push(format!(
                            "{name} q{i}: derived leaf {ni} disagrees with its advertisement \
                             (leaf {covered:?}@{host}, advert {:?}@{})",
                            adv.covered, adv.host
                        ));
                    }
                    if reg.state(*id) != Some(AdvertState::Live) {
                        out.push(format!(
                            "{name} q{i}: derived leaf {ni} consumes advert {id:?} in state \
                             {:?}, not Live",
                            reg.state(*id)
                        ));
                    }
                    if !ctx.env().hierarchy.is_active(*host) {
                        out.push(format!(
                            "{name} q{i}: derived leaf {ni} consumes a derived stream \
                             hosted on inactive node {host}"
                        ));
                    }
                }
            }
        }
    }
}
