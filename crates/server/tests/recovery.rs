//! Crash-recovery differentials: the service killed at *every possible
//! journal index* must recover to exactly the state the uncrashed run
//! reaches — same fingerprint (plans, cost bits, counters), same epoch,
//! same responses — and a pure journal replay must reproduce the original
//! run's virtual-clock observability trace byte-for-byte.

use std::path::{Path, PathBuf};

use dsq_obs::{scoped, ClockMode, Sink};
use dsq_server::chaos::FaultConfig;
use dsq_server::{
    generate_script, run_plain, run_with_crashes, CrashSchedule, PlanningService, ScriptConfig,
    ServiceConfig,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsq-recovery-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Journal length the script produces (every scripted line is mutating or
/// a drain, so each is journaled).
fn journal_len_of(cfg: &ServiceConfig, lines: &[String], dir: &Path) -> usize {
    let path = dir.join("probe.journal");
    let mut svc = PlanningService::new(cfg.clone(), Some(&path)).unwrap();
    for l in lines {
        svc.submit_line(l);
    }
    svc.journal_len()
}

fn small_script() -> ScriptConfig {
    ScriptConfig {
        queries: 4,
        replans: 2,
        unregisters: 1,
        faults: FaultConfig {
            events: 4,
            mean_gap_ms: 300.0,
            ..FaultConfig::default()
        },
        ..ScriptConfig::default()
    }
}

#[test]
fn kill_at_every_journal_index_recovers_exactly() {
    let cfg = ServiceConfig::default();
    let lines = generate_script(&cfg, &small_script());
    let reference = run_plain(&cfg, &lines).unwrap();
    let dir = temp_dir("sweep");
    let len = journal_len_of(&cfg, &lines, &dir);
    assert_eq!(len, lines.len(), "every scripted request is journaled");

    for k in 1..=len {
        let path = dir.join(format!("kill-{k}.journal"));
        let schedule = CrashSchedule { kill_at: vec![k] };
        let crashed = run_with_crashes(&cfg, &lines, &schedule, &path).unwrap();
        assert_eq!(crashed.kills, 1, "kill point {k} never triggered");
        assert_eq!(
            crashed.fingerprint, reference.fingerprint,
            "state diverged after a crash at journal index {k}"
        );
        assert_eq!(crashed.final_epoch, reference.final_epoch, "kill point {k}");
        assert_eq!(
            crashed.responses, reference.responses,
            "responses diverged after a crash at journal index {k}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn surviving_a_crash_after_every_single_entry_in_one_run() {
    let cfg = ServiceConfig::default();
    let lines = generate_script(&cfg, &small_script());
    let reference = run_plain(&cfg, &lines).unwrap();
    let dir = temp_dir("exhaustive");
    let path = dir.join("exhaustive.journal");
    let schedule = CrashSchedule::exhaustive(lines.len());
    let crashed = run_with_crashes(&cfg, &lines, &schedule, &path).unwrap();
    assert_eq!(crashed.kills, lines.len(), "one crash per journal entry");
    assert_eq!(crashed.fingerprint, reference.fingerprint);
    assert_eq!(crashed.final_epoch, reference.final_epoch);
    assert_eq!(crashed.responses, reference.responses);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_replay_trace_is_bit_identical() {
    // Journal-only recovery (no snapshot) re-drives every entry through the
    // same code path as live traffic, so the recovered run's virtual-clock
    // JSONL trace must equal the original's — the only additions are the
    // recovery accounting lines themselves.
    let cfg = ServiceConfig::default();
    let lines = generate_script(&cfg, &ScriptConfig::default());
    let dir = temp_dir("trace");
    let path = dir.join("trace.journal");

    let live = Sink::new(ClockMode::Virtual);
    {
        let _g = scoped(live.clone());
        let mut svc = PlanningService::new(cfg.clone(), Some(&path)).unwrap();
        for l in &lines {
            svc.submit_line(l);
        }
    }
    let live_trace = live.to_jsonl();
    assert!(
        live_trace.contains("server.drain"),
        "live run recorded drain spans"
    );

    let replay = Sink::new(ClockMode::Virtual);
    {
        let _g = scoped(replay.clone());
        PlanningService::recover_from_path(&path).unwrap();
    }
    let replay_trace: String = replay
        .to_jsonl()
        .lines()
        .filter(|l| !l.contains("server.recovery_replay"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        replay_trace, live_trace,
        "journal replay must reproduce the live obs trace byte-for-byte"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compacted_and_uncompacted_replays_are_fingerprint_identical() {
    // One service snapshots (and therefore compacts its journal) after
    // every drain; the other never does. Fed the same script, both their
    // live states and their recovered states must match bit-for-bit —
    // compaction changes only what is *stored*, never what is *replayed*.
    let compacting = ServiceConfig {
        snapshot_every: 1,
        ..ServiceConfig::default()
    };
    let plain = ServiceConfig::default();
    let lines = generate_script(&plain, &small_script());
    let dir = temp_dir("compaction");
    let cpath = dir.join("compacting.journal");
    let upath = dir.join("uncompacted.journal");

    let mut c = PlanningService::new(compacting, Some(&cpath)).unwrap();
    let mut u = PlanningService::new(plain, Some(&upath)).unwrap();
    for l in &lines {
        c.submit_line(l);
        u.submit_line(l);
    }
    assert!(
        c.journal_retained() < c.journal_len(),
        "snapshot_every=1 must actually truncate the replayed prefix \
         (retained {}, absolute {})",
        c.journal_retained(),
        c.journal_len()
    );
    assert_eq!(
        c.journal_len(),
        u.journal_len(),
        "absolute journal accounting is compaction-invariant"
    );
    assert_eq!(c.fingerprint(), u.fingerprint(), "live states diverged");

    let rc = PlanningService::recover_from_path(&cpath).unwrap();
    let ru = PlanningService::recover_from_path(&upath).unwrap();
    assert_eq!(
        rc.fingerprint(),
        ru.fingerprint(),
        "compacted recovery diverged from full replay"
    );
    assert_eq!(rc.fingerprint(), c.fingerprint(), "recovery lost state");
    assert_eq!(rc.queue_len(), u.queue_len());

    // A compacted journal without its snapshot is typed-unrecoverable:
    // the prefix is gone, so silently replaying the suffix would be wrong.
    let snap = PathBuf::from(format!("{}.snap", cpath.display()));
    std::fs::remove_file(&snap).unwrap();
    let err = PlanningService::recover_from_path(&cpath).unwrap_err();
    assert!(err.contains("compacted"), "unexpected error: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unreadable_snapshot_falls_back_to_full_replay_on_an_uncompacted_journal() {
    // The journal was never compacted, so it still holds every entry: a
    // snapshot that does not parse, or that belongs to another config, must
    // not stop recovery — the service replays the whole journal instead.
    let cfg = ServiceConfig::default();
    let lines = generate_script(&cfg, &small_script());
    let dir = temp_dir("snapshot-fallback");
    let path = dir.join("uncompacted.journal");
    let snap = PathBuf::from(format!("{}.snap", path.display()));

    let mut svc = PlanningService::new(cfg.clone(), Some(&path)).unwrap();
    for l in &lines {
        svc.submit_line(l);
    }
    assert_eq!(svc.journal_retained(), svc.journal_len(), "never compacted");
    let live = svc.fingerprint();
    let whole = dsq_server::snapshot::write(svc.core());
    drop(svc);

    let garbled = whole.replace(" = ", " ? ");
    let cut = whole.find("slot = ").expect("the script plans queries") + 12;
    let truncated = whole[..cut].to_string();
    let halved = whole[..whole.len() / 2].to_string();
    let mut other = PlanningService::new(
        ServiceConfig {
            max_queue: cfg.max_queue + 1,
            ..cfg
        },
        None,
    )
    .unwrap();
    for l in &lines {
        other.submit_line(l);
    }
    let mismatched = dsq_server::snapshot::write(other.core());
    for (what, text) in [
        ("garbled", garbled),
        ("truncated", truncated),
        ("halved", halved),
        ("mismatched config", mismatched),
    ] {
        std::fs::write(&snap, &text).unwrap();
        let sink = Sink::new(ClockMode::Virtual);
        let recovered = {
            let _g = scoped(sink.clone());
            PlanningService::recover_from_path(&path)
                .unwrap_or_else(|e| panic!("{what} snapshot aborted recovery: {e}"))
        };
        assert_eq!(recovered.fingerprint(), live, "{what} snapshot");
        let counters = sink.snapshot().counters;
        assert_eq!(
            counters.get("server.snapshot.fallback"),
            Some(&1),
            "{what} snapshot"
        );
        assert_eq!(
            counters.get("server.recovery_replayed"),
            Some(&(lines.len() as u64)),
            "{what} snapshot: the whole journal is replayed"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unreadable_snapshot_still_errors_on_a_compacted_journal() {
    // Compaction dropped the prefix the snapshot covered; without a
    // readable snapshot nothing can rebuild it, so recovery must refuse.
    let cfg = ServiceConfig {
        snapshot_every: 1,
        ..ServiceConfig::default()
    };
    let lines = generate_script(&cfg, &small_script());
    let dir = temp_dir("snapshot-no-fallback");
    let path = dir.join("compacted.journal");
    let snap = PathBuf::from(format!("{}.snap", path.display()));
    let mut svc = PlanningService::new(cfg, Some(&path)).unwrap();
    for l in &lines {
        svc.submit_line(l);
    }
    assert!(svc.journal_retained() < svc.journal_len(), "compacted");
    drop(svc);
    let whole = std::fs::read_to_string(&snap).unwrap();
    let cut = whole.find("slot = ").expect("the script plans queries") + 12;
    for text in [whole.replace(" = ", " ? "), whole[..cut].to_string()] {
        std::fs::write(&snap, text).unwrap();
        assert!(PlanningService::recover_from_path(&path).is_err());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_half_length_snapshot_of_a_compacted_journal_is_refused() {
    // The first half of a whole snapshot, what a write cut short leaves.
    // A snapshot's last lines are optional scalars, so the cut document
    // still parses, and without the trailer it recovered `Ok` with a
    // fingerprint that differs from the live one. The journal is compacted
    // behind the snapshot, so no replay can stand in for it: recovery must
    // fail, and say why.
    let cfg = ServiceConfig {
        snapshot_every: 1,
        ..ServiceConfig::default()
    };
    let lines = generate_script(&cfg, &small_script());
    let dir = temp_dir("half-snapshot");
    let path = dir.join("compacted.journal");
    let snap = PathBuf::from(format!("{}.snap", path.display()));
    let mut svc = PlanningService::new(cfg, Some(&path)).unwrap();
    for l in &lines {
        svc.submit_line(l);
    }
    assert!(svc.journal_retained() < svc.journal_len(), "compacted");
    drop(svc);
    let whole = std::fs::read_to_string(&snap).unwrap();
    std::fs::write(&snap, &whole[..whole.len() / 2]).unwrap();
    let err = PlanningService::recover_from_path(&path).unwrap_err();
    assert!(err.contains("trailer"), "unexpected error: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_fast_forward_recovery_matches_full_replay() {
    let cfg = ServiceConfig {
        snapshot_every: 2,
        ..ServiceConfig::default()
    };
    let lines = generate_script(&cfg, &small_script());
    let reference = run_plain(&cfg, &lines).unwrap();
    let dir = temp_dir("snapshot");
    let path = dir.join("snap.journal");
    let schedule = CrashSchedule::generate(3, lines.len(), 4);
    let crashed = run_with_crashes(&cfg, &lines, &schedule, &path).unwrap();
    assert!(crashed.kills > 0);
    let snap_path = PathBuf::from(format!("{}.snap", path.display()));
    assert!(
        snap_path.exists(),
        "snapshots were configured but never written"
    );
    assert_eq!(crashed.fingerprint, reference.fingerprint);
    assert_eq!(crashed.final_epoch, reference.final_epoch);
    assert_eq!(crashed.responses, reference.responses);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_snapshot_temp_file_is_ignored_and_then_replaced() {
    // What a kill inside a snapshot write leaves behind: a truncated
    // `<journal>.snap.tmp` beside the previous, whole `.snap` and the
    // journal compacted up to it. Recovery must read the whole one; the
    // recovered service's next snapshot then replaces the leftover.
    let cfg = ServiceConfig {
        snapshot_every: 1,
        ..ServiceConfig::default()
    };
    let lines = generate_script(&cfg, &small_script());
    let dir = temp_dir("torn-snapshot");
    let path = dir.join("torn.journal");
    let snap = PathBuf::from(format!("{}.snap", path.display()));
    let tmp = PathBuf::from(format!("{}.snap.tmp", path.display()));

    let mut svc = PlanningService::new(cfg, Some(&path)).unwrap();
    for l in &lines {
        svc.submit_line(l);
    }
    assert!(
        svc.journal_retained() < svc.journal_len(),
        "the journal was compacted behind the snapshot"
    );
    assert!(
        !tmp.exists(),
        "a finished snapshot write leaves no temp file"
    );
    let live = svc.fingerprint();
    drop(svc);
    let whole = std::fs::read(&snap).unwrap();
    std::fs::write(&tmp, &whole[..whole.len() / 2]).unwrap();

    let mut recovered = PlanningService::recover_from_path(&path).unwrap();
    assert_eq!(recovered.fingerprint(), live);

    recovered.submit_line(r#"{"op":"replan","id":0,"at_ms":900000}"#);
    recovered.submit_line(r#"{"op":"drain","at_ms":900001}"#);
    assert!(!tmp.exists(), "the next snapshot renames over the leftover");
    let live = recovered.fingerprint();
    drop(recovered);
    let again = PlanningService::recover_from_path(&path).unwrap();
    assert_eq!(again.fingerprint(), live);
    std::fs::remove_dir_all(&dir).ok();
}

/// `small_script` with a stream-rate observation after every third
/// request: lulls and surges over the catalog's streams.
fn observing_script(cfg: &ServiceConfig) -> Vec<String> {
    let mut lines = Vec::new();
    for (i, line) in generate_script(cfg, &small_script())
        .into_iter()
        .enumerate()
    {
        lines.push(line);
        if i % 3 == 2 {
            let stream = i % cfg.streams;
            let rate_milli = [250, 4_000, 30_000][i / 3 % 3];
            lines.push(format!(
                r#"{{"op":"observe","stream":{stream},"rate_milli":{rate_milli},"at_ms":{i}}}"#
            ));
        }
    }
    lines
}

#[test]
fn observations_recover_exactly_at_every_journal_index() {
    // With and without snapshots: a snapshot must carry the observations
    // behind it, a replay must re-apply the ones after it.
    for snapshot_every in [0, 2] {
        let cfg = ServiceConfig {
            snapshot_every,
            ..ServiceConfig::default()
        };
        let lines = observing_script(&cfg);
        let reference = run_plain(&cfg, &lines).unwrap();
        let unobserved = run_plain(&cfg, &generate_script(&cfg, &small_script())).unwrap();
        assert_ne!(
            reference.fingerprint, unobserved.fingerprint,
            "the observations moved some plan"
        );
        let dir = temp_dir(&format!("observe-{snapshot_every}"));
        let len = journal_len_of(&cfg, &lines, &dir);
        assert_eq!(len, lines.len(), "every observation is journaled");
        for k in 1..=len {
            let path = dir.join(format!("kill-{k}.journal"));
            let schedule = CrashSchedule { kill_at: vec![k] };
            let crashed = run_with_crashes(&cfg, &lines, &schedule, &path).unwrap();
            assert_eq!(crashed.kills, 1, "kill point {k} never triggered");
            assert_eq!(
                crashed.fingerprint, reference.fingerprint,
                "state diverged after a crash at journal index {k} (snapshot_every {snapshot_every})"
            );
            assert_eq!(crashed.responses, reference.responses, "kill point {k}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
