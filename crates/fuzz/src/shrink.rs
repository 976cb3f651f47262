//! Greedy violation shrinker: reduce a failing case to a minimal repro
//! while it keeps failing the *same* check.
//!
//! Reduction order follows the blast radius of each knob:
//!
//! 0. **Drop service script lines, then crash points** (service-mode cases
//!    only) — the request script is a service bug's blast radius, so it
//!    shrinks before anything else. The keep masks index the *generated*
//!    lines and kill points, so any subset still replays deterministically.
//! 1. **Drop queries** — one at a time until no single removal preserves
//!    the failure.
//! 2. **Drop fault events** — likewise.
//! 3. **Shrink the topology and workload** — stepwise reductions of the
//!    stub/transit shape, stream count, join width and `max_cs` (plus the
//!    service script knobs on service-mode cases).
//! 4. **Canonicalize** — not smaller, but rounder: round the generated
//!    rates and selectivities to one significant digit (`round_stats`),
//!    drive the seed toward small round values, and snap `skew_milli` /
//!    `drop_milli` onto round ladders. Minimized repros end up with
//!    numbers a human can reason about.
//!
//! Every candidate re-runs the full oracle, so a reduction is accepted only
//! when the minimized case still trips the original check — semantic drift
//! from regenerating a smaller instance is fine, soundness comes from the
//! re-check. A budget caps total oracle invocations so shrinking stays
//! bounded even on slow cases.

use crate::case::FuzzCase;
use crate::oracle::{run_oracle, CheckId};

/// Outcome of a shrink run.
#[derive(Clone, Debug)]
pub struct ShrinkReport {
    /// The minimized case (still failing `check`).
    pub case: FuzzCase,
    /// Oracle invocations spent.
    pub oracle_runs: usize,
    /// Whether the budget ran out before reaching a fixpoint.
    pub budget_exhausted: bool,
}

/// Does `case` still fail `check`, according to `oracle`?
fn fails(
    oracle: &dyn Fn(&FuzzCase) -> Vec<CheckId>,
    case: &FuzzCase,
    check: CheckId,
    runs: &mut usize,
) -> bool {
    *runs += 1;
    oracle(case).contains(&check)
}

/// Shrink `case` against the real oracle (see [`shrink_with`]).
pub fn shrink(case: &FuzzCase, check: CheckId, budget: usize) -> ShrinkReport {
    shrink_with(
        &|c| run_oracle(c).into_iter().map(|v| v.check).collect(),
        case,
        check,
        budget,
    )
}

/// Shrink `case` until no single reduction keeps `oracle` reporting
/// `check`, spending at most `budget` oracle invocations. The oracle is
/// injected so the shrinker itself can be validated against synthetic
/// (planted) defects.
pub fn shrink_with(
    oracle: &dyn Fn(&FuzzCase) -> Vec<CheckId>,
    case: &FuzzCase,
    check: CheckId,
    budget: usize,
) -> ShrinkReport {
    let mut best = case.clone();
    let mut runs = 0usize;
    let out_of_budget = |runs: &usize| *runs >= budget;

    // Phase 0 (service cases): drop request-script lines, then crash
    // points. Dropping a line shifts later journal indexes (and therefore
    // the regenerated crash schedule) — soundness comes from the re-check,
    // exactly as with every other regenerating reduction.
    if best.service {
        let mut keep_req: Vec<usize> = best.keep_requests.clone().unwrap_or_else(|| {
            let unmasked = FuzzCase {
                keep_requests: None,
                ..best.clone()
            };
            (0..unmasked.service_script().len()).collect()
        });
        'requests: loop {
            if out_of_budget(&runs) || keep_req.is_empty() {
                break;
            }
            for i in 0..keep_req.len() {
                let mut cand_keep = keep_req.clone();
                cand_keep.remove(i);
                let cand = FuzzCase {
                    keep_requests: Some(cand_keep.clone()),
                    ..best.clone()
                };
                if fails(oracle, &cand, check, &mut runs) {
                    keep_req = cand_keep;
                    best = cand;
                    continue 'requests;
                }
                if out_of_budget(&runs) {
                    break 'requests;
                }
            }
            break;
        }

        // Crash points: all at once first (many script bugs need no crash
        // at all), then one at a time.
        let mut keep_kill: Vec<usize> = best.keep_kills.clone().unwrap_or_else(|| {
            let unmasked = FuzzCase {
                keep_kills: None,
                ..best.clone()
            };
            let lines = unmasked.service_script();
            (0..unmasked.service_crashes(&lines).kill_at.len()).collect()
        });
        if !keep_kill.is_empty() && !out_of_budget(&runs) {
            let cand = FuzzCase {
                keep_kills: Some(Vec::new()),
                ..best.clone()
            };
            if fails(oracle, &cand, check, &mut runs) {
                keep_kill = Vec::new();
                best = cand;
            }
        }
        'kills: loop {
            if out_of_budget(&runs) || keep_kill.is_empty() {
                break;
            }
            for i in 0..keep_kill.len() {
                let mut cand_keep = keep_kill.clone();
                cand_keep.remove(i);
                let cand = FuzzCase {
                    keep_kills: Some(cand_keep.clone()),
                    ..best.clone()
                };
                if fails(oracle, &cand, check, &mut runs) {
                    keep_kill = cand_keep;
                    best = cand;
                    continue 'kills;
                }
                if out_of_budget(&runs) {
                    break 'kills;
                }
            }
            break;
        }
    }

    // Phase 1: drop queries one at a time (restart the scan after every
    // accepted removal so earlier indexes get another chance).
    let mut keep: Vec<usize> = best
        .keep_queries
        .clone()
        .unwrap_or_else(|| (0..best.queries).collect());
    'queries: loop {
        if out_of_budget(&runs) {
            break;
        }
        for i in 0..keep.len() {
            if keep.len() <= 1 {
                break 'queries;
            }
            let mut cand_keep = keep.clone();
            cand_keep.remove(i);
            let cand = FuzzCase {
                keep_queries: Some(cand_keep.clone()),
                ..best.clone()
            };
            if fails(oracle, &cand, check, &mut runs) {
                keep = cand_keep;
                best = cand;
                continue 'queries;
            }
            if out_of_budget(&runs) {
                break 'queries;
            }
        }
        break;
    }

    // Phase 2: drop fault events the same way (also try dropping them all
    // at once first — many failures do not need the schedule at all).
    let mut keep_ev: Vec<usize> = best
        .keep_events
        .clone()
        .unwrap_or_else(|| (0..best.events).collect());
    if !keep_ev.is_empty() && !out_of_budget(&runs) {
        let cand = FuzzCase {
            keep_events: Some(Vec::new()),
            ..best.clone()
        };
        if fails(oracle, &cand, check, &mut runs) {
            keep_ev = Vec::new();
            best = cand;
        }
    }
    'events: loop {
        if out_of_budget(&runs) || keep_ev.is_empty() {
            break;
        }
        for i in 0..keep_ev.len() {
            let mut cand_keep = keep_ev.clone();
            cand_keep.remove(i);
            let cand = FuzzCase {
                keep_events: Some(cand_keep.clone()),
                ..best.clone()
            };
            if fails(oracle, &cand, check, &mut runs) {
                keep_ev = cand_keep;
                best = cand;
                continue 'events;
            }
            if out_of_budget(&runs) {
                break 'events;
            }
        }
        break;
    }

    // Phase 3: shrink topology/workload knobs to their floors.
    loop {
        if out_of_budget(&runs) {
            break;
        }
        let mut improved = false;
        let mut reductions: Vec<FuzzCase> = Vec::new();
        if best.stub_nodes_per_domain > 1 {
            reductions.push(FuzzCase {
                stub_nodes_per_domain: best.stub_nodes_per_domain - 1,
                ..best.clone()
            });
        }
        if best.stub_domains_per_transit_node > 1 {
            reductions.push(FuzzCase {
                stub_domains_per_transit_node: best.stub_domains_per_transit_node - 1,
                ..best.clone()
            });
        }
        if best.transit_nodes_per_domain > 1 {
            reductions.push(FuzzCase {
                transit_nodes_per_domain: best.transit_nodes_per_domain - 1,
                ..best.clone()
            });
        }
        if best.transit_domains > 1 {
            reductions.push(FuzzCase {
                transit_domains: best.transit_domains - 1,
                ..best.clone()
            });
        }
        if best.streams > best.joins_hi + 2 {
            reductions.push(FuzzCase {
                streams: best.streams - 1,
                ..best.clone()
            });
        }
        if best.joins_hi > best.joins_lo {
            reductions.push(FuzzCase {
                joins_hi: best.joins_hi - 1,
                ..best.clone()
            });
        }
        if best.max_cs > 2 {
            reductions.push(FuzzCase {
                max_cs: best.max_cs - 1,
                ..best.clone()
            });
        }
        if best.skew_milli > 0 {
            reductions.push(FuzzCase {
                skew_milli: 0,
                ..best.clone()
            });
        }
        if best.drop_milli > 0 {
            reductions.push(FuzzCase {
                drop_milli: 0,
                ..best.clone()
            });
        }
        if best.service {
            // Script-generation knobs: regenerating a leaner script may
            // invalidate the keep masks' indexes, but the re-check keeps
            // only reductions that still reproduce the failure.
            if best.svc_events > 0 {
                reductions.push(FuzzCase {
                    svc_events: 0,
                    ..best.clone()
                });
            }
            if best.svc_reads > 0 {
                reductions.push(FuzzCase {
                    svc_reads: 0,
                    ..best.clone()
                });
            }
            if best.svc_replans > 0 {
                reductions.push(FuzzCase {
                    svc_replans: best.svc_replans - 1,
                    ..best.clone()
                });
            }
            if best.svc_unregisters > 0 {
                reductions.push(FuzzCase {
                    svc_unregisters: best.svc_unregisters - 1,
                    ..best.clone()
                });
            }
            if best.svc_queries > 1 {
                reductions.push(FuzzCase {
                    svc_queries: best.svc_queries - 1,
                    ..best.clone()
                });
            }
            if best.svc_snapshot_every > 0 {
                reductions.push(FuzzCase {
                    svc_snapshot_every: 0,
                    ..best.clone()
                });
            }
        }
        for cand in reductions {
            if fails(oracle, &cand, check, &mut runs) {
                best = cand;
                improved = true;
                break;
            }
            if out_of_budget(&runs) {
                break;
            }
        }
        if !improved {
            break;
        }
    }

    // Phase 4: canonicalize values. Every accepted move is strictly
    // "rounder" — round_stats only flips off->on, the seed strictly
    // decreases, and the milli knobs only move toward the front of a fixed
    // preference ladder — so the phase terminates without a budget.
    const SKEW_LADDER: [u64; 4] = [1000, 500, 1500, 750];
    const DROP_LADDER: [u64; 4] = [100, 50, 200, 150];
    let ladder_pos = |ladder: &[u64], v: u64| -> usize {
        ladder.iter().position(|&x| x == v).unwrap_or(ladder.len())
    };
    loop {
        if out_of_budget(&runs) {
            break;
        }
        let mut improved = false;

        if !best.round_stats {
            let cand = FuzzCase {
                round_stats: true,
                ..best.clone()
            };
            if fails(oracle, &cand, check, &mut runs) {
                best = cand;
                improved = true;
            }
        }
        if !improved && best.seed != 0 && !out_of_budget(&runs) {
            let mut seeds: Vec<u64> = vec![0, 1, 2, 3, 5, 10, 42, 100, 1000];
            seeds.extend([best.seed % 10, best.seed % 100, best.seed % 1000]);
            seeds.retain(|&s| s < best.seed);
            seeds.dedup();
            for seed in seeds {
                let cand = FuzzCase {
                    seed,
                    ..best.clone()
                };
                if fails(oracle, &cand, check, &mut runs) {
                    best = cand;
                    improved = true;
                    break;
                }
                if out_of_budget(&runs) {
                    break;
                }
            }
        }
        for (ladder, get, set) in [
            (
                &SKEW_LADDER,
                (|c: &FuzzCase| c.skew_milli) as fn(&FuzzCase) -> u64,
                (|c: &mut FuzzCase, v| c.skew_milli = v) as fn(&mut FuzzCase, u64),
            ),
            (
                &DROP_LADDER,
                |c: &FuzzCase| c.drop_milli,
                |c: &mut FuzzCase, v| c.drop_milli = v,
            ),
        ] {
            if improved || out_of_budget(&runs) {
                break;
            }
            let cur = get(&best);
            if cur == 0 {
                continue; // already minimized away by phase 3
            }
            for &v in ladder.iter() {
                if ladder_pos(ladder, v) >= ladder_pos(ladder, cur) {
                    continue;
                }
                let mut cand = best.clone();
                set(&mut cand, v);
                if fails(oracle, &cand, check, &mut runs) {
                    best = cand;
                    improved = true;
                    break;
                }
                if out_of_budget(&runs) {
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }

    ShrinkReport {
        budget_exhausted: out_of_budget(&runs),
        case: best,
        oracle_runs: runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A planted defect: "fires whenever at least 2 queries and at least 1
    /// fault event survive the masks". The shrinker must find the 2-query,
    /// 1-event floor and drive the topology to its minimum.
    fn planted(case: &FuzzCase) -> Vec<CheckId> {
        if case.live_queries() >= 2 && case.live_events() >= 1 {
            vec![CheckId::CrossArm]
        } else {
            Vec::new()
        }
    }

    #[test]
    fn shrinker_reaches_the_planted_floor() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut case = FuzzCase::sample(&mut rng, 48);
        case.queries = 6;
        case.events = 10;
        assert!(planted(&case).contains(&CheckId::CrossArm));
        let report = shrink_with(&planted, &case, CheckId::CrossArm, 500);
        assert!(!report.budget_exhausted);
        assert_eq!(report.case.live_queries(), 2);
        assert_eq!(report.case.live_events(), 1);
        // Topology knobs bottom out (the planted bug ignores them).
        assert_eq!(report.case.transit_domains, 1);
        assert_eq!(report.case.transit_nodes_per_domain, 1);
        assert_eq!(report.case.stub_domains_per_transit_node, 1);
        assert_eq!(report.case.stub_nodes_per_domain, 1);
        assert_eq!(report.case.max_cs, 2);
        assert!(planted(&report.case).contains(&CheckId::CrossArm));
    }

    #[test]
    fn shrinker_keeps_the_failing_check() {
        // A defect that needs a specific query index to survive: dropping
        // the wrong ones must be rejected.
        let needs_q3 = |case: &FuzzCase| -> Vec<CheckId> {
            let live = case
                .keep_queries
                .clone()
                .unwrap_or_else(|| (0..case.queries).collect());
            if live.contains(&3) {
                vec![CheckId::Validity]
            } else {
                Vec::new()
            }
        };
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut case = FuzzCase::sample(&mut rng, 32);
        case.queries = 6;
        case.events = 0;
        let report = shrink_with(&needs_q3, &case, CheckId::Validity, 300);
        assert_eq!(report.case.keep_queries, Some(vec![3]));
        assert!(needs_q3(&report.case).contains(&CheckId::Validity));
    }

    #[test]
    fn shrinker_canonicalizes_toward_round_numbers() {
        // A defect that survives only while skew and drop stay nonzero —
        // phase 3 cannot zero them, phase 4 must snap them onto the round
        // ladders, drive the seed to 0 and turn on statistic rounding.
        let needs_knobs = |case: &FuzzCase| -> Vec<CheckId> {
            if case.skew_milli > 0 && case.drop_milli > 0 {
                vec![CheckId::Protocol]
            } else {
                Vec::new()
            }
        };
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let mut case = FuzzCase::sample(&mut rng, 48);
        case.seed = 123_456_789;
        case.skew_milli = 730;
        case.drop_milli = 170;
        case.queries = 2;
        case.events = 1;
        let report = shrink_with(&needs_knobs, &case, CheckId::Protocol, 1_000);
        assert!(!report.budget_exhausted);
        assert_eq!(report.case.seed, 0);
        assert_eq!(report.case.skew_milli, 1000);
        assert_eq!(report.case.drop_milli, 100);
        assert!(report.case.round_stats);
        assert!(needs_knobs(&report.case).contains(&CheckId::Protocol));
        // The canonical form round-trips through the .case text.
        let parsed = FuzzCase::parse(&report.case.to_text("canon")).unwrap();
        assert_eq!(parsed, report.case);
    }

    #[test]
    fn shrinker_drops_service_requests_and_crash_points() {
        // Planted service defect: fires while at least 3 script lines and
        // at least 1 crash point survive the keep masks. Phase 0 must find
        // the 3-line, 1-kill floor.
        let planted = |case: &FuzzCase| -> Vec<CheckId> {
            let lines = case.service_script();
            let kills = case.service_crashes(&lines).kill_at.len();
            if lines.len() >= 3 && kills >= 1 {
                vec![CheckId::Service]
            } else {
                Vec::new()
            }
        };
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let case = loop {
            let c = FuzzCase::sample_with(&mut rng, 48, 0, 1000);
            if c.service && planted(&c).contains(&CheckId::Service) {
                break c;
            }
        };
        let report = shrink_with(&planted, &case, CheckId::Service, 2_000);
        assert!(!report.budget_exhausted);
        let lines = report.case.service_script();
        assert_eq!(lines.len(), 3, "script floor not reached: {lines:?}");
        assert_eq!(report.case.service_crashes(&lines).kill_at.len(), 1);
        assert!(planted(&report.case).contains(&CheckId::Service));
        // The minimized masks round-trip through the .case text.
        let parsed = FuzzCase::parse(&report.case.to_text("svc")).unwrap();
        assert_eq!(parsed, report.case);
    }

    #[test]
    fn round_stats_rounds_the_generated_catalog() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut case = FuzzCase::sample(&mut rng, 32);
        case.round_stats = true;
        let inst = case.build();
        let one_sig = |v: f64| -> bool {
            let mag = 10f64.powf(v.abs().log10().floor());
            (v / mag - (v / mag).round()).abs() < 1e-9
        };
        for s in inst.workload.catalog.streams() {
            assert!(s.rate > 0.0 && one_sig(s.rate), "rate {} not round", s.rate);
        }
        // Build is still deterministic under rounding.
        let again = case.build();
        for (a, b) in inst
            .workload
            .catalog
            .streams()
            .iter()
            .zip(again.workload.catalog.streams())
        {
            assert_eq!(a.rate.to_bits(), b.rate.to_bits());
        }
    }

    #[test]
    fn budget_is_respected() {
        let always = |_: &FuzzCase| vec![CheckId::Chaos];
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut case = FuzzCase::sample(&mut rng, 48);
        case.queries = 6;
        case.events = 12;
        let report = shrink_with(&always, &case, CheckId::Chaos, 10);
        assert!(report.budget_exhausted);
        assert!(report.oracle_runs <= 11);
    }
}
