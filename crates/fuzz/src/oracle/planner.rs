//! Checks that drive the planner arms over the case's batch: hierarchy,
//! cross-arm equivalence, cache accounting, deployment validity, cost
//! bounds, Theorem 1 and restricted placement.

use super::Ctx;
use dsq_core::{
    bounds, optimize_all, BottomUp, Environment, MultiQueryOutcome, Optimal, Optimizer,
    ParallelConfig, PlacementError, SearchStats, TopDown,
};
use dsq_net::NodeId;
use dsq_query::{Deployment, FlatNode, LeafSource, ReuseRegistry};

/// A deterministic digest of a multi-query outcome: total cost bits,
/// search-space accounting and per-deployment structure. Two arms are
/// bit-identical iff their fingerprints are equal.
fn fingerprint(out: &MultiQueryOutcome) -> String {
    let mut s = format!(
        "total={:016x} considered={}",
        out.total_cost.to_bits(),
        out.stats.plans_considered
    );
    s.push_str(&fingerprint_deployments(out));
    s
}

/// Like [`fingerprint`], but without the search-space accounting: the
/// incremental arm *by design* examines fewer plans than a full replan
/// (untouched queries keep their deployments without replanning), so its
/// equivalence contract covers deployments and costs only — matching the
/// repo's differential harness (`tests/incremental_equivalence.rs`).
pub(super) fn fingerprint_deployments(out: &MultiQueryOutcome) -> String {
    let mut s = format!("total={:016x}", out.total_cost.to_bits());
    for (i, d) in out.deployments.iter().enumerate() {
        match d {
            None => s.push_str(&format!("\nq{i}: infeasible")),
            Some(d) => {
                s.push_str(&format!(
                    "\nq{i}: cost={:016x} sink={} placement={:?}",
                    d.cost.to_bits(),
                    d.sink,
                    d.placement
                ));
            }
        }
    }
    s
}

/// Plan the batch `passes` times under one arm configuration over a
/// private cache: the last pass's outcome, and the cache's
/// `[hits, misses, retired]` after each pass.
pub(super) fn run_arm(
    ctx: &Ctx,
    parallel: bool,
    cache: bool,
    passes: usize,
) -> (MultiQueryOutcome, Vec<[u64; 3]>) {
    let mut env = ctx.env().clone();
    env.isolate_cache(cache);
    let td = TopDown::new(&env);
    let cfg = if parallel {
        ParallelConfig::default()
    } else {
        ParallelConfig::serial()
    };
    let mut last = None;
    let mut counters = Vec::new();
    for _ in 0..passes {
        last = Some(optimize_all(
            &env,
            &td,
            ctx.catalog(),
            ctx.queries(),
            &ReuseRegistry::new(),
            &cfg,
        ));
        let c = &env.plan_cache;
        counters.push([c.hits(), c.misses(), c.retired()]);
    }
    (last.expect("at least one pass"), counters)
}

pub(super) fn hierarchy(ctx: &Ctx) -> Vec<String> {
    ctx.env().hierarchy.check_invariants();
    Vec::new()
}

/// Every other arm must reproduce the serial, cache-off reference bit for
/// bit.
pub(super) fn cross_arm(ctx: &Ctx) -> Vec<String> {
    let ref_fp = fingerprint(ctx.reference());
    let mut out = Vec::new();
    let mut compare = |name: &str, got: &MultiQueryOutcome| {
        let fp = fingerprint(got);
        if fp != ref_fp {
            out.push(format!(
                "{name} diverged from serial/no-cache\nreference:\n{ref_fp}\n{name}:\n{fp}"
            ));
        }
    };
    for (name, parallel, cache) in [
        ("serial/cache", false, true),
        ("parallel/cache", true, true),
        ("parallel/no-cache", true, false),
    ] {
        compare(name, &run_arm(ctx, parallel, cache, 1).0);
    }
    compare("serial/warm-replay", &ctx.warm_replay().0);
    out
}

/// The warm replay plans twice over an unchanged environment: every
/// second-pass invocation must be served from the cache, so the second
/// pass adds hits but not a single new miss.
pub(super) fn cache_accounting(ctx: &Ctx) -> Vec<String> {
    let counters = &ctx.warm_replay().1;
    let ([h1, m1, r1], [h2, m2, r2]) = (counters[0], counters[1]);
    let mut out = Vec::new();
    if m2 != m1 {
        out.push(format!(
            "no-change replay added misses: {m1} -> {m2} (hits {h1} -> {h2})"
        ));
    } else if h2 < h1 || r2 != r1 {
        out.push(format!(
            "counters regressed on replay: hits {h1} -> {h2}, retired {r1} -> {r2}"
        ));
    }
    if h2 == 0 && m2 == 0 {
        out.push("warm replay recorded no cache traffic at all".into());
    }
    out
}

/// Every deployment of the reference batch is physically realizable.
pub(super) fn validity(ctx: &Ctx) -> Vec<String> {
    let mut out = Vec::new();
    for (i, d) in ctx.reference().deployments.iter().enumerate() {
        if let Some(d) = d {
            check_deployment(&format!("q{i}"), d, ctx, &mut out);
        }
    }
    out
}

/// Validate one deployment's physical realizability.
fn check_deployment(label: &str, d: &Deployment, ctx: &Ctx, out: &mut Vec<String>) {
    let env = ctx.env();
    let mut fail = |detail: String| out.push(format!("{label}: {detail}"));
    if d.placement.len() != d.plan.nodes().len() {
        fail(format!(
            "placement arity {} != plan arity {}",
            d.placement.len(),
            d.plan.nodes().len()
        ));
        return;
    }
    if !env.hierarchy.is_active(d.sink) {
        fail(format!("sink {} is inactive", d.sink));
    }
    for (i, node) in d.plan.nodes().iter().enumerate() {
        let at = d.placement[i];
        if !env.hierarchy.is_active(at) {
            fail(format!("plan node {i} placed on inactive node {at}"));
        }
        if let FlatNode::Leaf { source, .. } = node {
            let origin = match source {
                LeafSource::Base(id) => ctx.catalog().stream(*id).node,
                LeafSource::Derived { host, .. } => *host,
            };
            if at != origin {
                fail(format!(
                    "leaf {i} placed at {at}, its stream originates at {origin}"
                ));
            }
        }
    }
    let mut recomputed = 0.0;
    for e in &d.edges {
        let dist = env.dm.get(e.from, e.to);
        if !dist.is_finite() {
            fail(format!(
                "edge {} -> {} is unroutable (infinite distance)",
                e.from, e.to
            ));
            return;
        }
        recomputed += e.rate * dist;
    }
    let tol = 1e-9 * d.cost.abs().max(1.0);
    if (recomputed - d.cost).abs() > tol {
        fail(format!("stored cost {} != recomputed {recomputed}", d.cost));
    }
}

/// Cost bounds against the exact optimum.
pub(super) fn cost_bound(ctx: &Ctx) -> Vec<String> {
    let (env, catalog) = (ctx.env(), ctx.catalog());
    let mut out = Vec::new();
    for ((i, q), exact) in ctx.queries().iter().enumerate().zip(ctx.exact()) {
        let opt = match exact {
            Ok(d) => Some(d),
            // The flat yardstick plans over singleton inputs, so its
            // reachable-set budget caps out far below the hierarchical
            // optimizers (which merge through coarse fragment inputs). A
            // typed width refusal means "no yardstick here", not
            // "infeasible" — the heuristics may still legitimately plan
            // the query.
            Err(PlacementError::UniverseTooLarge { .. }) => continue,
            Err(_) => None,
        };
        let mut stats = SearchStats::new();
        let td = TopDown::new(env).optimize(catalog, q, &ReuseRegistry::new(), &mut stats);
        let bu = BottomUp::new(env).optimize(catalog, q, &ReuseRegistry::new(), &mut stats);
        let Some(opt) = opt else {
            if td.is_some() || bu.is_some() {
                out.push(format!(
                    "q{i}: optimal infeasible but a heuristic found a deployment"
                ));
            }
            continue;
        };
        let eps = 1e-6 * opt.cost.max(1.0);
        if let Some(td) = &td {
            if td.cost < opt.cost - eps {
                out.push(format!(
                    "q{i}: top-down {} beat optimal {}",
                    td.cost, opt.cost
                ));
            }
            let gap_bound = bounds::theorem3_bound(td, &env.hierarchy);
            if td.cost - opt.cost > gap_bound + eps {
                out.push(format!(
                    "q{i}: top-down gap {} exceeds Theorem-3 bound {gap_bound}",
                    td.cost - opt.cost
                ));
            }
        }
        if let Some(bu) = &bu {
            if bu.cost < opt.cost - eps {
                out.push(format!(
                    "q{i}: bottom-up {} beat optimal {}",
                    bu.cost, opt.cost
                ));
            }
        }
        // The zone baseline must stay feasible and suboptimal too.
        let zones = dsq_baselines::InNetwork::new(env, 3.min(env.network.len()));
        let runner = dsq_baselines::InNetworkRunner { zones: &zones, env };
        if let Some(inw) = runner.optimize(catalog, q, &ReuseRegistry::new(), &mut stats) {
            if inw.cost < opt.cost - eps {
                out.push(format!(
                    "q{i}: in-network {} beat optimal {}",
                    inw.cost, opt.cost
                ));
            }
        }
    }
    out
}

/// Theorem 1: level-k estimates bound true distances (first miss only).
pub(super) fn theorem1(ctx: &Ctx) -> Vec<String> {
    let env = ctx.env();
    let h = &env.hierarchy;
    let nodes = h.active_nodes();
    for level in 1..=h.height() {
        let slack = h.theorem1_slack(level);
        for (i, &a) in nodes.iter().enumerate() {
            for &b in nodes.iter().skip(i + 1) {
                let act = env.dm.get(a, b);
                let est = h.estimated_cost(&env.dm, a, b, level);
                if (act - est).abs() > slack + 1e-9 {
                    return vec![format!(
                        "level {level}: |{act} - {est}| > slack {slack} for {a},{b}"
                    )];
                }
            }
        }
    }
    Vec::new()
}

/// Crash up to `max` of `candidates`, in order, out of a private copy of
/// the overlay (cache off), never a stream origin or a query sink — so
/// every query stays placeable — and stopping once three members remain.
/// Returns the churned environment and the nodes removed.
pub(super) fn churn_out(
    ctx: &Ctx,
    candidates: impl IntoIterator<Item = NodeId>,
    max: usize,
) -> (Environment, Vec<NodeId>) {
    let mut churned = ctx.env().clone();
    churned.isolate_cache(false);
    let protected: Vec<NodeId> = ctx
        .catalog()
        .streams()
        .iter()
        .map(|s| s.node)
        .chain(ctx.queries().iter().map(|q| q.sink))
        .collect();
    let mut removed = Vec::new();
    for n in candidates {
        if removed.len() >= max || churned.hierarchy.active_nodes().len() <= 3 {
            break;
        }
        if protected.contains(&n) {
            continue;
        }
        if dsq_hierarchy::membership::remove_node(&mut churned.hierarchy, &churned.dm, n).is_ok() {
            removed.push(n);
        }
    }
    (churned, removed)
}

/// Restricted-placement checks: candidate-set containment, empty and
/// fully-inactive candidate sets, and planning after membership churn.
pub(super) fn restricted(ctx: &Ctx) -> Vec<String> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let (env, catalog) = (ctx.env(), ctx.catalog());
    let mut out = Vec::new();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(ctx.case.seed ^ 0x5EED_F00D);
    let q = &ctx.queries()[0];

    // Empty candidate set: must be a typed error, not an arbitrary plan.
    match Optimal::restricted(env, &[]).try_optimize(
        catalog,
        q,
        &ReuseRegistry::new(),
        &mut SearchStats::new(),
    ) {
        Err(PlacementError::NoCandidates) => {}
        Err(e) => out.push(format!("empty candidate set: unexpected error {e:?}")),
        Ok(_) => out.push("empty candidate set produced a deployment".into()),
    }

    // Random subset: any deployment's join operators stay inside it.
    let mut nodes = env.hierarchy.active_nodes();
    nodes.shuffle(&mut rng);
    let subset: Vec<NodeId> = nodes
        .iter()
        .copied()
        .take((nodes.len() / 3).max(1))
        .collect();
    if let Some(d) = Optimal::restricted(env, &subset).optimize(
        catalog,
        q,
        &ReuseRegistry::new(),
        &mut SearchStats::new(),
    ) {
        for &ji in &d.plan.join_indices() {
            let at = d.placement[ji];
            if !subset.contains(&at) {
                out.push(format!(
                    "restricted plan placed a join at {at}, outside the candidate set"
                ));
            }
        }
    }

    // Churn: deactivate a few nodes, then demand that a candidate set made
    // entirely of the churned-out nodes is rejected and that planning over
    // them is refused rather than stale.
    let (churned, removed) = churn_out(ctx, nodes, 3);
    if !removed.is_empty() {
        match Optimal::restricted(&churned, &removed).try_optimize(
            catalog,
            q,
            &ReuseRegistry::new(),
            &mut SearchStats::new(),
        ) {
            Err(PlacementError::NoActiveCandidates) => {}
            Err(e) => out.push(format!(
                "fully-inactive candidate set: unexpected error {e:?}"
            )),
            Ok(_) => out.push("planned against a fully-inactive candidate set".into()),
        }
        // A mixed set must only ever use the still-active members.
        let mut mixed = removed.clone();
        mixed.extend(churned.hierarchy.active_nodes());
        if let Some(d) = Optimal::restricted(&churned, &mixed).optimize(
            catalog,
            q,
            &ReuseRegistry::new(),
            &mut SearchStats::new(),
        ) {
            for &ji in &d.plan.join_indices() {
                let at = d.placement[ji];
                if removed.contains(&at) {
                    out.push(format!("churned node {at} still hosts a join operator"));
                }
            }
        }
        // The zone baseline must survive churn without touching dead nodes.
        let zones = dsq_baselines::InNetwork::new(&churned, 3.min(churned.network.len()));
        let runner = dsq_baselines::InNetworkRunner {
            zones: &zones,
            env: &churned,
        };
        if let Some(d) = runner.optimize(catalog, q, &ReuseRegistry::new(), &mut SearchStats::new())
        {
            for &ji in &d.plan.join_indices() {
                let at = d.placement[ji];
                if !churned.hierarchy.is_active(at) {
                    out.push(format!(
                        "in-network zone search placed a join on inactive {at}"
                    ));
                }
            }
        }
    }
    out
}
