//! The protocol check: lossy deployment-protocol retry accounting.

use super::Ctx;
use dsq_sim::emulab::{EmulabModel, LossyProtocol, RetryPolicy};

/// Lossy-protocol retry accounting: a zero-drop protocol reproduces the
/// reliable model bit-for-bit regardless of seed, every send's timeout wait
/// is exactly the exponential-backoff series for its observed retry count,
/// and certain loss exhausts the whole retry budget without delivering.
pub(super) fn protocol(ctx: &Ctx) -> Vec<String> {
    let (case, env, reference) = (ctx.case, ctx.env(), ctx.reference());
    let mut out = Vec::new();
    let Some(d) = reference.deployments.iter().flatten().next() else {
        return out;
    };
    let model = EmulabModel::new(&env.network);
    let stats = &reference.stats;
    let submit = d.sink;

    // The reliable model never retries and never waits out a timeout.
    let reliable = model.deployment_time(submit, stats, d);
    if reliable.retries != 0 || reliable.retry_ms != 0.0 {
        out.push(format!(
            "reliable model charged retries: {} retries, {} retry_ms",
            reliable.retries, reliable.retry_ms
        ));
    }

    // Zero drop is bit-exact against the reliable model — the RNG must
    // never be consulted, so two different seeds have to agree too.
    for seed in [case.seed, case.seed ^ 0xDEAD_BEEF] {
        let mut zero = LossyProtocol::new(model.clone(), RetryPolicy::lossy(0.0), seed);
        let (t, delivered) = zero.deployment_time(submit, stats, d);
        if !delivered {
            out.push(format!(
                "zero-drop protocol failed a deployment (seed {seed})"
            ));
        }
        if t.messaging_ms.to_bits() != reliable.messaging_ms.to_bits()
            || t.planning_ms.to_bits() != reliable.planning_ms.to_bits()
            || t.retry_ms != 0.0
            || t.retries != 0
        {
            out.push(format!(
                "zero-drop diverged from reliable (seed {seed}): messaging {} vs {}, \
                 planning {} vs {}, retry_ms {}, retries {}",
                t.messaging_ms,
                reliable.messaging_ms,
                t.planning_ms,
                reliable.planning_ms,
                t.retry_ms,
                t.retries
            ));
        }
    }

    let nodes = env.hierarchy.active_nodes();
    if nodes.len() < 2 {
        return out;
    }

    // Seeded mid-range drop rate: per-send wait accounting. A send that
    // succeeded after r retries timed out exactly r times; one that gave up
    // timed out max_retries + 1 times (the initial attempt plus every
    // retry). Either way the wait is the backoff series over the drops.
    let milli = match case.drop_milli {
        0 => 500,
        m if m >= 1000 => 875,
        m => m,
    };
    let policy = RetryPolicy::lossy(milli as f64 / 1000.0);
    let backoff_series = |drops: usize| -> f64 {
        (0..drops)
            .map(|i| policy.timeout_ms * policy.backoff.powi(i as i32))
            .sum()
    };
    let mut lossy = LossyProtocol::new(model.clone(), policy, case.seed);
    for s in 0..24usize {
        let from = nodes[s % nodes.len()];
        let to = nodes[(s + 1) % nodes.len()];
        let got = lossy.send(from, to);
        let drops = if got.delivered {
            got.retries
        } else {
            got.retries + 1
        };
        let want = backoff_series(drops);
        if (got.wait_ms - want).abs() > 1e-9 * want.max(1.0) {
            out.push(format!(
                "send {from}->{to}: wait {} ms inconsistent with {} retries \
                 (delivered {}, backoff series says {want})",
                got.wait_ms, got.retries, got.delivered
            ));
        }
        if got.delivered {
            if got.retries > policy.max_retries {
                out.push(format!(
                    "send {from}->{to}: delivered after {} retries, cap is {}",
                    got.retries, policy.max_retries
                ));
            }
            if got.transit_ms <= 0.0 {
                out.push(format!(
                    "send {from}->{to}: delivered but paid no transit time"
                ));
            }
        } else {
            if got.retries != policy.max_retries {
                out.push(format!(
                    "send {from}->{to}: gave up after {} retries, budget is {}",
                    got.retries, policy.max_retries
                ));
            }
            if got.transit_ms != 0.0 {
                out.push(format!(
                    "send {from}->{to}: undelivered send charged {} ms transit",
                    got.transit_ms
                ));
            }
        }
    }

    // Certain loss: the whole budget is burned, nothing is delivered,
    // nothing transits.
    let certain = RetryPolicy::lossy(1.0);
    let mut doomed = LossyProtocol::new(model, certain, case.seed);
    let got = doomed.send(nodes[0], nodes[1]);
    let want: f64 = (0..=certain.max_retries)
        .map(|i| certain.timeout_ms * certain.backoff.powi(i as i32))
        .sum();
    if got.delivered || got.transit_ms != 0.0 || got.retries != certain.max_retries {
        out.push(format!(
            "certain loss: delivered {}, transit {} ms, retries {} (cap {})",
            got.delivered, got.transit_ms, got.retries, certain.max_retries
        ));
    }
    if (got.wait_ms - want).abs() > 1e-9 * want {
        out.push(format!(
            "certain loss burned {} ms of timeouts, want the full budget {want}",
            got.wait_ms
        ));
    }
    out
}
