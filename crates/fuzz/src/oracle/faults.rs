//! Checks that apply faults to the case's environment: incremental
//! replanning after a link drift and the chaos runner's arms over the
//! fault schedule.

use super::planner::fingerprint_deployments;
use super::Ctx;
use dsq_core::{
    metric_dirty_nodes, optimize_all, optimize_dirty, Environment, InvalidationMode,
    ParallelConfig, TopDown, OVERLAY_FLOOR,
};
use dsq_hierarchy::{membership, HierarchyDelta};
use dsq_net::{DistanceMatrix, NodeId};
use dsq_query::ReuseRegistry;
use dsq_server::chaos::Fault;
use dsq_server::{ChaosReport, ChaosRunner, ServiceConfig};
use dsq_sim::emulab::RetryPolicy;

/// Multiply the cost of one physical link — the `pick`-th in node order,
/// modulo the link count — by 8 through [`Environment::reprice_link`], the
/// path a service `Degrade` fault takes: in-place matrix repair, subplan
/// retirement from the repair's changed-entry record, statistics refresh.
/// `None` (environment untouched) on a network without links.
fn drift_link(env: &mut Environment, pick: u64) -> Option<(NodeId, NodeId)> {
    let links: Vec<(NodeId, NodeId)> = env
        .network
        .nodes()
        .flat_map(|u| {
            env.network
                .neighbors(u)
                .iter()
                .filter(move |l| u < l.to)
                .map(move |l| (u, l.to))
        })
        .collect();
    if links.is_empty() {
        return None;
    }
    let (a, b) = links[(pick as usize) % links.len()];
    let cost = env
        .network
        .find_link(a, b)
        .expect("an enumerated link")
        .cost;
    env.reprice_link(a, b, cost * 8.0);
    Some((a, b))
}

/// Incremental-vs-full equivalence after one seeded link-cost drift, and
/// the membership deltas scoped retirement trusts (see
/// [`membership_deltas`]).
pub(super) fn incremental(ctx: &Ctx) -> Vec<String> {
    let mut out = membership_deltas(ctx);
    out.extend(drift_equivalence(ctx));
    out
}

/// The case's fault schedule, in order, on a copy of its environment:
/// degrades through [`Environment::reprice_link`], and every crash and
/// rejoin through the membership operation the fault surgery runs. Each
/// operation returns the clusters it changed, and the plan cache retires
/// from that delta alone, so it must be exactly what diffing hierarchy
/// snapshots taken around the operation finds.
fn membership_deltas(ctx: &Ctx) -> Vec<String> {
    let mut env = ctx.env().clone();
    let mut out = Vec::new();
    for (idx, tf) in ctx.inst().schedule.faults.iter().enumerate() {
        let (nodes, rejoin) = match &tf.fault {
            Fault::Crash(n) => (vec![*n], false),
            Fault::CrashCluster(ns) => (ns.clone(), false),
            Fault::Rejoin(n) => (vec![*n], true),
            Fault::DegradeLink { a, b, factor } => {
                if let Some(link) = env.network.find_link(*a, *b) {
                    env.reprice_link(*a, *b, link.cost * factor);
                }
                continue;
            }
        };
        for node in nodes {
            let h = &env.hierarchy;
            let before = h.snapshot();
            let delta = if rejoin {
                if h.is_active(node) {
                    continue;
                }
                let via = env.rejoin_contact(node);
                membership::add_node(&mut env.hierarchy, &env.dm, node, via).1
            } else {
                if !h.is_active(node) || h.active_count() <= OVERLAY_FLOOR {
                    continue;
                }
                membership::remove_node(&mut env.hierarchy, &env.dm, node)
                    .expect("guarded: node active, above floor")
            };
            let want = before.diff(&env.hierarchy.snapshot());
            if delta != want {
                let ids = |d: &HierarchyDelta| {
                    let mut ids: Vec<(usize, usize)> =
                        d.dirty.iter().map(|c| (c.level, c.index)).collect();
                    ids.sort_unstable();
                    format!("full {} dirty {ids:?}", d.full)
                };
                let op = if rejoin { "rejoin" } else { "crash" };
                out.push(format!(
                    "fault event {idx}: the {op} of {node} reported {}, the snapshot diff finds {}",
                    ids(&delta),
                    ids(&want)
                ));
            }
        }
    }
    out
}

/// Incremental-vs-full equivalence after one seeded link-cost drift.
fn drift_equivalence(ctx: &Ctx) -> Vec<String> {
    let (catalog, queries) = (ctx.catalog(), ctx.queries());
    // Warm a private cache with the standing deployments.
    let mut warm_env = ctx.env().clone();
    warm_env.isolate_cache(true);
    let cfg = ParallelConfig::serial();
    let td = TopDown::new(&warm_env);
    let warm = optimize_all(
        &warm_env,
        &td,
        catalog,
        queries,
        &ReuseRegistry::new(),
        &cfg,
    );
    if warm.planned() == 0 {
        return Vec::new();
    }

    // Incremental arm: the drift retires subplans from the warmed cache
    // (shared with `inc_env`), then only the dirty set replans over it.
    let mut inc_env = warm_env.clone();
    let Some((a, b)) = drift_link(&mut inc_env, ctx.case.seed) else {
        return Vec::new();
    };
    let dirty = metric_dirty_nodes(&warm_env.dm, &inc_env.dm);
    let td_inc = TopDown::new(&inc_env);
    let inc = optimize_dirty(
        &inc_env,
        &td_inc,
        catalog,
        queries,
        &warm.deployments,
        &dirty,
        &ReuseRegistry::new(),
        &cfg,
    );

    // Full arm: same drifted world, fresh cache, replan everything.
    let mut full_env = inc_env.clone();
    full_env.isolate_cache(true);
    let td_full = TopDown::new(&full_env);
    let full = optimize_all(
        &full_env,
        &td_full,
        catalog,
        queries,
        &ReuseRegistry::new(),
        &cfg,
    );

    let fp_inc = fingerprint_deployments(&inc);
    let fp_full = fingerprint_deployments(&full);
    if fp_inc != fp_full {
        return vec![format!(
            "drift on link {a}-{b} (x8): incremental diverged from full replan\nfull:\n{fp_full}\nincremental:\n{fp_inc}"
        )];
    }
    Vec::new()
}

/// Chaos arms over the fault schedule: every degrade event repairs
/// identically to a full rebuild, and the scoped, flush and cache-off arms
/// agree on every schedule-determined report field.
pub(super) fn chaos(ctx: &Ctx) -> Vec<String> {
    let mut out = degrade_repair(ctx);
    let case = ctx.case;
    let arm = |cache: bool, invalidation: InvalidationMode| {
        let runner = ChaosRunner {
            policy: if case.drop_milli == 0 {
                RetryPolicy::reliable()
            } else {
                RetryPolicy::lossy(case.drop_milli as f64 / 1000.0)
            },
            protocol_seed: case.seed,
            service: ServiceConfig {
                threshold_milli: 200,
                cache,
                ..ServiceConfig::default()
            },
            invalidation,
        };
        let schedule = &ctx.inst().schedule;
        runner.run(ctx.env().clone(), ctx.catalog(), ctx.queries(), schedule)
    };
    let scoped = arm(true, InvalidationMode::Scoped);
    let flush = arm(true, InvalidationMode::Flush);
    let nocache = arm(false, InvalidationMode::Scoped);
    for (other, what) in [
        (&flush, "scoped vs flush"),
        (&nocache, "scoped vs cache-off"),
    ] {
        out.extend(diff_chaos(&scoped, other, what));
    }
    // Conservation: the scoped arm's cache traffic must account for at
    // least one miss per planning invocation that produced the initial
    // installs, and retirement only happens with faults.
    if scoped.cache_hits + scoped.cache_misses == 0 {
        out.push("scoped chaos arm recorded no cache traffic".into());
    }
    out
}

/// Per degrade event in the schedule, the in-place single-link repair
/// `Environment::reprice_link` runs (`DistanceMatrix::repair_link_change`)
/// must reproduce a from-scratch rebuild bit for bit, and the
/// `ChangedEntries` it returns must list exactly the entries whose bits
/// moved: `PlanCache::retire_changed` retires from that record alone.
fn degrade_repair(ctx: &Ctx) -> Vec<String> {
    let mut out = Vec::new();
    let mut net = ctx.env().network.clone();
    let mut dm = ctx.env().dm.clone();
    for (idx, tf) in ctx.inst().schedule.faults.iter().enumerate() {
        let Fault::DegradeLink { a, b, factor } = &tf.fault else {
            continue;
        };
        let Some(link) = net.find_link(*a, *b) else {
            continue;
        };
        let old_w = dm.metric().weight(link);
        net.set_link_cost(*a, *b, link.cost * factor);
        let before = dm.clone();
        let (_, changed) = dm.repair_link_change(&net, *a, *b, old_w);
        let full = DistanceMatrix::build(&net, dm.metric());
        let n = net.len() as u32;
        let entries = (0..n).flat_map(|i| (0..n).map(move |j| (NodeId(i), NodeId(j))));
        let differ = |m: &DistanceMatrix, (x, y): (NodeId, NodeId)| {
            m.get(x, y).to_bits() != full.get(x, y).to_bits()
        };
        let event = format!("degrade event {idx} ({a}-{b} x{factor})");
        if let Some((x, y)) = entries.clone().find(|&e| differ(&dm, e)) {
            out.push(format!(
                "{event}: incremental repair diverged from rebuild at ({},{}): {} vs {}",
                x.index(),
                y.index(),
                dm.get(x, y),
                full.get(x, y)
            ));
        }
        let moved: Vec<(NodeId, NodeId)> = entries.filter(|&e| differ(&before, e)).collect();
        let recorded: Vec<(NodeId, NodeId)> = changed.iter().collect();
        if recorded != moved {
            let at = recorded
                .iter()
                .zip(&moved)
                .take_while(|(r, m)| r == m)
                .count();
            out.push(format!(
                "{event}: the repair recorded {} changed entries, the rebuild moved {}; \
                 first disagreement at position {at}: recorded {:?}, moved {:?}",
                recorded.len(),
                moved.len(),
                recorded.get(at).map(|(x, y)| (x.index(), y.index())),
                moved.get(at).map(|(x, y)| (x.index(), y.index()))
            ));
        }
        dm = full;
    }
    out
}

/// Compare two chaos reports on every schedule-determined field.
fn diff_chaos(a: &ChaosReport, b: &ChaosReport, what: &str) -> Option<String> {
    let mut diffs = Vec::new();
    if a.cost_final.to_bits() != b.cost_final.to_bits() {
        diffs.push(format!("cost_final {} vs {}", a.cost_final, b.cost_final));
    }
    if a.cost_initial.to_bits() != b.cost_initial.to_bits() {
        diffs.push(format!(
            "cost_initial {} vs {}",
            a.cost_initial, b.cost_initial
        ));
    }
    if a.final_installed != b.final_installed {
        diffs.push(format!(
            "final_installed {} vs {}",
            a.final_installed, b.final_installed
        ));
    }
    if a.final_parked != b.final_parked {
        diffs.push(format!(
            "final_parked {} vs {}",
            a.final_parked, b.final_parked
        ));
    }
    if a.lost != b.lost {
        diffs.push(format!("lost {:?} vs {:?}", a.lost, b.lost));
    }
    if a.applied != b.applied || a.skipped != b.skipped {
        diffs.push(format!(
            "applied/skipped {}/{} vs {}/{}",
            a.applied, a.skipped, b.applied, b.skipped
        ));
    }
    if a.redeployments != b.redeployments {
        diffs.push(format!(
            "redeployments {} vs {}",
            a.redeployments, b.redeployments
        ));
    }
    if a.availability.to_bits() != b.availability.to_bits() {
        diffs.push(format!(
            "availability {} vs {}",
            a.availability, b.availability
        ));
    }
    if diffs.is_empty() {
        None
    } else {
        Some(format!("{what}: {}", diffs.join("; ")))
    }
}
