//! The service check: the resident planning service's three-way
//! differential over a service-mode case's request script.

use super::Ctx;
use dsq_net::NodeId;
use dsq_obs::mini_json::{self, Json};
use dsq_obs::{scoped, ClockMode, Sink};
use dsq_query::{Deployment, Query};
use dsq_server::failures::{classify_crash, CrashAction};
use dsq_server::{
    run_with_crashes, FaultReq, JournalEntry, PlanningService, Request, ServiceConfig, ServiceCore,
};

/// Stats responses embed the `recovery_replayed` counter, which
/// legitimately differs between an uncrashed run and one that crashed and
/// recovered; mask the field before comparing arms (the service
/// fingerprint excludes it for the same reason).
fn mask_recovery(resp: &str) -> String {
    match resp.find(",\"recovery_replayed\":") {
        Some(start) => {
            let tail = &resp[start + 1..];
            let end = tail
                .find([',', '}'])
                .map(|e| start + 1 + e)
                .unwrap_or(resp.len());
            format!("{}{}", &resp[..start], &resp[end..])
        }
        None => resp.to_string(),
    }
}

/// The planned slots' standing plans, read just before a drain.
fn standing_plans(core: &ServiceCore) -> Vec<(u32, Query, Deployment)> {
    core.slots
        .iter()
        .filter_map(|(&id, s)| Some((id, s.query.clone(), s.deployment.clone()?)))
        .collect()
}

/// The adoption rule, checked across one drain: a slot whose standing plan
/// no crash of the batch touched still serves a plan after the drain, and
/// never one costlier than the standing plan re-costed in the post-drain
/// world (its distances and rates).
fn check_adoption(
    before: &[(u32, Query, Deployment)],
    crashed: &[u32],
    core: &ServiceCore,
    epoch: u64,
) -> Vec<String> {
    let mut out = Vec::new();
    for (id, query, old) in before {
        let touched = crashed.iter().any(|&n| {
            classify_crash(&core.catalog, query, Some(old), NodeId(n)) != CrashAction::Keep
        });
        let Some(slot) = core.slots.get(id) else {
            continue; // unregistered in this batch
        };
        if touched || slot.query.sources != query.sources || slot.query.sink != query.sink {
            continue;
        }
        let recosted = old.reestimate(query, &core.catalog, &core.env.dm).cost;
        match &slot.deployment {
            None => out.push(format!(
                "drain {epoch}: slot {id} dropped its valid plan (cost {recosted}) and is {}",
                slot.status.name()
            )),
            Some(d) if d.cost > recosted * (1.0 + 1e-9) + 1e-9 => out.push(format!(
                "drain {epoch}: slot {id} adopted a plan costing {} over its re-costed \
                 standing plan {recosted}",
                d.cost
            )),
            Some(_) => {}
        }
    }
    out
}

/// Arrival order: with an empty registry, one drain's plans do not depend
/// on the order its registrations arrived in. The script's registrations
/// (first of each id) are drained into a fresh core forwards and reversed.
fn check_arrival_order(cfg: &ServiceConfig, lines: &[String]) -> Option<String> {
    let mut regs: Vec<JournalEntry> = Vec::new();
    for line in lines {
        if let Ok(req @ Request::Register { id, .. }) = Request::parse(line) {
            let fresh = !regs
                .iter()
                .any(|e| matches!(e, JournalEntry::Register { id: seen, .. } if *seen == id));
            if fresh {
                regs.extend(JournalEntry::from_request(&req));
            }
        }
    }
    if regs.len() < 2 {
        return None;
    }
    let plan = |batch: &[JournalEntry]| {
        let mut core = ServiceCore::new(cfg.clone());
        core.drain(batch, 0);
        core.fingerprint()
    };
    let forwards = plan(&regs);
    regs.reverse();
    let reversed = plan(&regs);
    (forwards != reversed).then(|| {
        format!(
            "one drain of {} registrations planned differently in reverse arrival order\n\
             forwards:\n{forwards}\nreversed:\n{reversed}",
            regs.len()
        )
    })
}

/// Three-way service differential over the case's generated request script
/// and crash schedule:
///
/// * **uncrashed** — journaled, snapshots forced off (so the journal stays
///   complete for the replay arm), under a virtual-clock obs sink;
/// * **crashed** — [`dsq_server::run_with_crashes`] with the case's own
///   snapshot cadence, killed at every scheduled journal index;
/// * **replay** — [`dsq_server::PlanningService::recover_from_path`] over
///   the uncrashed run's journal, under a second virtual-clock sink.
///
/// All three must agree on responses, fingerprints and epochs. On top of
/// the differential, the uncrashed run's responses must conserve the
/// admission counters (admitted + shed + rejected = mutating requests),
/// drain epochs must strictly increase, stale answers must point at
/// strictly older epochs (and never appear under an unbounded replan
/// budget), the journal must account for every entry, and the replay's obs
/// trace must be byte-identical to the live one. Every drain of the
/// uncrashed run must keep the adoption rule ([`check_adoption`]), and the
/// script's registrations must plan alike in either arrival order
/// ([`check_arrival_order`]).
pub(super) fn service(ctx: &Ctx) -> Vec<String> {
    let case = ctx.case;
    let mut out = Vec::new();
    let lines = case.service_script();
    if lines.is_empty() {
        return out;
    }
    let cfg = case.service_config();

    let dir = match ScratchDir::create("dsq-fuzz-service") {
        Ok(dir) => dir,
        Err(e) => return vec![format!("cannot create scratch dir: {e}")],
    };

    // --- Arm 1: journaled, uncrashed, snapshots off. ---------------------
    let live_path = dir.path().join("live.journal");
    let nosnap = ServiceConfig {
        snapshot_every: 0,
        ..cfg.clone()
    };
    let live_sink = Sink::new(ClockMode::Virtual);
    let live = {
        let _g = scoped(live_sink.clone());
        match PlanningService::new(nosnap, Some(&live_path)) {
            Ok(mut svc) => {
                let mut responses = Vec::with_capacity(lines.len());
                // Crash reports admitted since the last drain.
                let mut crashed: Vec<u32> = Vec::new();
                for line in &lines {
                    let req = Request::parse(line);
                    let before = matches!(req, Ok(Request::Drain { .. }))
                        .then(|| standing_plans(svc.core()));
                    let resp = svc.submit_line(line);
                    if let Some(before) = before {
                        let epoch = svc.core().epoch;
                        out.extend(check_adoption(&before, &crashed, svc.core(), epoch));
                        crashed.clear();
                    } else if let Ok(Request::Fault {
                        fault: FaultReq::Crash(n),
                        ..
                    }) = req
                    {
                        if resp.starts_with("{\"ok\":true") {
                            crashed.push(n);
                        }
                    }
                    responses.push(resp);
                }
                Ok((responses, svc))
            }
            Err(e) => Err(format!("cannot start journaled service: {e}")),
        }
    };
    let (responses, live_svc) = match live {
        Ok(v) => v,
        Err(e) => return vec![e],
    };
    let live_trace = live_sink.to_jsonl();
    let live_fp = live_svc.fingerprint();
    let live_epoch = live_svc.core().epoch;
    let live_len = live_svc.journal_len();
    let counters = live_svc.core().counters.clone();

    // Journal conservation: every journaled entry is either applied by a
    // drain, still queued, or a shed marker awaiting the next drain's fold.
    let accounted =
        live_svc.core().entries_applied + live_svc.queue_len() + live_svc.core().pending_shed;
    if accounted != live_len {
        out.push(format!(
            "journal accounting leak: applied {} + queued {} + pending shed {} != journaled {live_len}",
            live_svc.core().entries_applied,
            live_svc.queue_len(),
            live_svc.core().pending_shed,
        ));
    }

    // --- Response-level invariants on the uncrashed run. -----------------
    let mut admitted_acks = 0u64;
    let mut shed_acks = 0u64;
    let mut rejected_acks = 0u64;
    let mut mutating = 0u64;
    let mut drain_count = 0u64;
    let mut timed_out_sum = 0u64;
    let mut last_drain_epoch = None::<u64>;
    for (line, resp) in lines.iter().zip(&responses) {
        let req = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => {
                out.push(format!(
                    "generated script line failed to parse: {e} ({line})"
                ));
                continue;
            }
        };
        let Ok(json) = mini_json::parse(resp) else {
            out.push(format!("unparseable response {resp:?}"));
            continue;
        };
        let ok = matches!(json.get("ok"), Some(Json::Bool(true)));
        let num = |key: &str| match json.get(key) {
            Some(Json::Num(n)) => Some(*n as u64),
            _ => None,
        };
        match &req {
            Request::Drain { .. } => {
                if !ok {
                    out.push(format!("drain rejected: {resp}"));
                    continue;
                }
                drain_count += 1;
                timed_out_sum += num("timed_out").unwrap_or(0);
                let epoch = num("epoch").unwrap_or(0);
                if let Some(prev) = last_drain_epoch {
                    if epoch <= prev {
                        out.push(format!(
                            "drain epochs not strictly increasing: {prev} then {epoch}"
                        ));
                    }
                }
                last_drain_epoch = Some(epoch);
            }
            Request::Query { .. } => {
                // Unknown ids (shed or never-registered) answer with a
                // typed error; successful answers keep the staleness
                // contract: a stale plan comes from a strictly older epoch.
                if ok {
                    let stale = matches!(json.get("stale"), Some(Json::Bool(true)));
                    let epoch = num("epoch").unwrap_or(0);
                    let planned = num("planned_epoch").unwrap_or(0);
                    if stale && planned >= epoch {
                        out.push(format!(
                            "stale plan from a non-older epoch: planned {planned}, \
                             current {epoch} ({resp})"
                        ));
                    }
                    if stale && cfg.replan_budget == 0 {
                        out.push(format!(
                            "stale plan served under an unbounded replan budget ({resp})"
                        ));
                    }
                }
            }
            Request::Stats => {}
            _ => {
                mutating += 1;
                if ok {
                    admitted_acks += 1;
                } else if resp.contains("overloaded") {
                    shed_acks += 1;
                } else {
                    rejected_acks += 1;
                }
            }
        }
    }
    if counters.admitted != admitted_acks {
        out.push(format!(
            "admitted counter {} != ok-acked mutating requests {admitted_acks}",
            counters.admitted
        ));
    }
    if counters.shed != shed_acks {
        out.push(format!(
            "shed counter {} != overloaded responses {shed_acks}",
            counters.shed
        ));
    }
    if admitted_acks + shed_acks + rejected_acks != mutating {
        out.push(format!(
            "admission accounting leak: {admitted_acks} admitted + {shed_acks} shed \
             + {rejected_acks} rejected != {mutating} mutating requests"
        ));
    }
    if counters.drains != drain_count {
        out.push(format!(
            "drain counter {} != drain requests {drain_count}",
            counters.drains
        ));
    }
    if counters.timed_out != timed_out_sum {
        out.push(format!(
            "timed_out counter {} != sum of drain timeouts {timed_out_sum}",
            counters.timed_out
        ));
    }
    if cfg.replan_budget == 0 && counters.stale_served != 0 {
        out.push(format!(
            "stale_served counter {} under an unbounded replan budget",
            counters.stale_served
        ));
    }

    // --- Arm 2: crashed-and-recovered, with the case's snapshot cadence. -
    let schedule = case.service_crashes(&lines);
    let crash_path = dir.path().join("crash.journal");
    match run_with_crashes(&cfg, &lines, &schedule, &crash_path) {
        Ok(crashed) => {
            // Kill points beyond the final journal length can never fire
            // (validation rejections journal nothing); every reachable one
            // must.
            let reachable = schedule.kill_at.iter().filter(|&&k| k <= live_len).count();
            if crashed.kills != reachable {
                out.push(format!(
                    "crash arm executed {} kills, schedule has {reachable} reachable points",
                    crashed.kills
                ));
            }
            let masked: Vec<String> = responses.iter().map(|r| mask_recovery(r)).collect();
            let crashed_masked: Vec<String> =
                crashed.responses.iter().map(|r| mask_recovery(r)).collect();
            if crashed_masked != masked {
                let at = crashed_masked.iter().zip(&masked).position(|(a, b)| a != b);
                let detail = at
                    .map(|i| {
                        format!(
                            "index {i} ({}): {} vs {}",
                            lines[i], responses[i], crashed.responses[i]
                        )
                    })
                    .unwrap_or_else(|| "length mismatch".into());
                out.push(format!(
                    "crashed run's responses diverged from uncrashed at {detail}"
                ));
            }
            if crashed.fingerprint != live_fp {
                out.push(format!(
                    "crashed run's fingerprint diverged\nuncrashed:\n{live_fp}\ncrashed:\n{}",
                    crashed.fingerprint
                ));
            }
            if crashed.final_epoch != live_epoch {
                out.push(format!(
                    "crashed run's epoch {} != uncrashed {live_epoch}",
                    crashed.final_epoch
                ));
            }
        }
        Err(e) => out.push(format!("crash arm failed: {e}")),
    }

    // --- Arm 3: pure journal replay of the uncrashed run's journal. ------
    drop(live_svc); // release the journal file before re-opening it
    let replay_sink = Sink::new(ClockMode::Virtual);
    let replayed = {
        let _g = scoped(replay_sink.clone());
        PlanningService::recover_from_path(&live_path)
    };
    match replayed {
        Ok(svc) => {
            if svc.fingerprint() != live_fp {
                out.push(format!(
                    "journal replay diverged\nlive:\n{live_fp}\nreplayed:\n{}",
                    svc.fingerprint()
                ));
            }
            // Replay re-drives every entry through the live code path, so
            // its trace is the live trace plus recovery accounting lines.
            let replay_trace: String = replay_sink
                .to_jsonl()
                .lines()
                .filter(|l| !l.contains("server.recovery_replay"))
                .map(|l| format!("{l}\n"))
                .collect();
            if replay_trace != live_trace {
                let diverged = replay_trace
                    .lines()
                    .zip(live_trace.lines())
                    .find(|(a, b)| a != b)
                    .map(|(a, b)| format!("replay {a:?} vs live {b:?}"))
                    .unwrap_or_else(|| "trace length mismatch".into());
                out.push(format!(
                    "replay obs trace is not byte-identical to the live trace: {diverged}"
                ));
            }
        }
        Err(e) => out.push(format!("journal replay failed: {e}")),
    }

    out.extend(check_arrival_order(&cfg, &lines));
    out
}

/// A scratch directory of its own, removed when dropped — on every return
/// path, and when a check panics part-way and the oracle's guard catches
/// it. Campaigns and shrink loops run the oracle thousands of times in one
/// process, so each directory is unique to its process and call.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn create(prefix: &str) -> std::io::Result<ScratchDir> {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{prefix}-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::ScratchDir;

    #[test]
    fn a_scratch_dir_is_removed_when_its_check_panics() {
        let mut seen = None;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dir = ScratchDir::create("dsq-fuzz-scratch-test").unwrap();
            std::fs::write(dir.path().join("live.journal"), "entry\n").unwrap();
            seen = Some(dir.path().to_path_buf());
            panic!("a check failed part-way");
        }));
        assert!(caught.is_err());
        let dir = seen.expect("the directory was created");
        assert!(!dir.exists(), "{} outlived the panic", dir.display());
    }
}
