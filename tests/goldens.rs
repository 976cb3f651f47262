//! Cross-commit goldens for the fault path.
//!
//! Every other differential in this repo compares two arms built from the
//! *same* commit, so a refactor that shifts both arms together passes them
//! all. These digests pin the service's final fingerprint after a seeded
//! churn script, and the chaos runner's full [`ChaosReport`] after a
//! seeded fault schedule — every event outcome, cost bit, protocol timing
//! and cache counter. A change that means to move one re-pins it in a
//! commit of its own that names every changed field and its cause.
//!
//! The on-disk text formats are pinned the same way, byte for byte: the
//! journal and snapshot files a journaled service leaves behind, the
//! `config.*` header lines, and `.case` files. A codec refactor must leave
//! every one of these digests where it is.
//!
//! The inputs go through `f64::ln` (exponential inter-fault gaps), so the
//! digests are pinned for the x86-64 Linux toolchain CI builds with. A
//! mismatch prints the whole digested text; compare it against a checkout
//! of the previous commit to see what moved.

use dsq::core::consolidate;
use dsq::obs::fnv64;
use dsq::prelude::*;
use dsq::server::chaos::{run_plain, Fault, FaultConfig, FaultSchedule, TimedFault};
use dsq::server::{generate_script, ChaosRunner, PlanningService, ScriptConfig, ServiceConfig};
use dsq_fuzz::FuzzCase;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn assert_golden(what: &str, text: &str, expected: u64) {
    let got = fnv64(text.as_bytes());
    assert_eq!(
        got, expected,
        "{what} moved: digest {got:#018x}, golden {expected:#018x}\n{text}"
    );
}

/// The soak test's fault mix: with the default crash-heavy weights the
/// population bleeds out and the tail of the run pins nothing.
fn rejoin_favoring() -> FaultConfig {
    FaultConfig {
        crash_weight: 0.25,
        correlated_weight: 0.05,
        rejoin_weight: 0.50,
        degrade_weight: 0.20,
        ..FaultConfig::default()
    }
}

fn service_fingerprint(script: &ScriptConfig) -> String {
    let cfg = ServiceConfig::default();
    let lines = generate_script(&cfg, script);
    run_plain(&cfg, &lines).unwrap().fingerprint
}

#[test]
fn service_fingerprint_after_the_default_script_is_pinned() {
    assert_golden(
        "default-script service fingerprint",
        &service_fingerprint(&ScriptConfig::default()),
        0x3d7e_aec4_fd36_b006,
    );
}

#[test]
fn service_fingerprint_after_a_churn_heavy_script_is_pinned() {
    // Enough faults over enough queries that crashes lose, park and
    // re-queue slots, rejoins un-park them and degrades dirty them.
    let script = ScriptConfig {
        seed: 7,
        queries: 12,
        replans: 4,
        unregisters: 2,
        faults: FaultConfig {
            events: 40,
            mean_gap_ms: 200.0,
            ..rejoin_favoring()
        },
        ..ScriptConfig::default()
    };
    assert_golden(
        "churn-script service fingerprint",
        &service_fingerprint(&script),
        0x7207_a18f_e7b8_fb43,
    );
}

/// Run the default script through a service journaled to disk and return
/// the journal file and the snapshot file (empty when none was written).
fn service_files(snapshot_every: usize) -> (String, String) {
    let cfg = ServiceConfig {
        snapshot_every,
        ..ServiceConfig::default()
    };
    let dir = std::env::temp_dir().join(format!(
        "dsq-goldens-files-{}-{snapshot_every}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.journal");
    let mut svc = PlanningService::new(cfg.clone(), Some(&path)).unwrap();
    for line in generate_script(&cfg, &ScriptConfig::default()) {
        svc.submit_line(&line);
    }
    let journal = std::fs::read_to_string(&path).unwrap();
    let snapshot = std::fs::read_to_string(svc.snapshot_path().unwrap()).unwrap_or_default();
    std::fs::remove_dir_all(&dir).ok();
    (journal, snapshot)
}

#[test]
fn journal_and_snapshot_files_are_pinned() {
    // Snapshotting every second drain: the journal is compacted behind
    // each snapshot, so the file ends as header, marker and suffix.
    let (journal, snapshot) = service_files(2);
    assert_golden("compacted journal file", &journal, 0x4e24_a7b8_694e_e1f9);
    // Snapshot v2: the v1 bytes (golden 0x01e9_a37d_b422_7765) with the
    // header's version bumped and the `end` trailer appended. Re-pinned
    // from 0xa0ad_c062_4174_774e when drains began keeping equal-cost
    // replans: the same lines, with two slot epochs and the advert records
    // of the plans no longer re-published.
    assert_golden("snapshot file", &snapshot, 0xe663_683d_a89f_cbd6);
    // Without snapshots the journal keeps every entry the script admitted.
    let (journal, snapshot) = service_files(0);
    assert!(snapshot.is_empty());
    assert_golden("full journal file", &journal, 0x2f55_0048_b450_ab9c);
}

#[test]
fn config_lines_are_pinned() {
    // Every field off its default, so no key can fall out of the header
    // unnoticed.
    let cfg = ServiceConfig {
        seed: 9,
        transit_domains: 2,
        transit_nodes_per_domain: 3,
        stub_domains_per_transit_node: 1,
        stub_nodes_per_domain: 5,
        max_cs: 6,
        streams: 11,
        cache: false,
        max_queue: 17,
        default_deadline_ms: 250,
        replan_budget: 3,
        threshold_milli: 450,
        snapshot_every: 8,
        advert_budget: 12,
    };
    assert_ne!(cfg, ServiceConfig::default());
    assert_golden("config lines", &cfg.to_lines(), 0x11b6_a83c_c71b_fb93);
}

#[test]
fn case_files_are_pinned() {
    let mut planner = FuzzCase::sample(&mut ChaCha8Rng::seed_from_u64(31), 48);
    planner.keep_queries = Some(vec![0, 2]);
    planner.keep_events = Some(vec![]);
    planner.advert_budget = 3;
    planner.round_stats = true;
    assert_golden(
        "planner case",
        &planner.to_text("golden\nplanner"),
        0x04ea_a503_70b0_22b1,
    );

    let mut service = FuzzCase::sample_with(&mut ChaCha8Rng::seed_from_u64(37), 48, 0, 1000);
    assert!(service.service);
    service.keep_queries = Some(vec![1]);
    service.keep_requests = Some(vec![0, 3, 4]);
    service.keep_kills = Some(vec![]);
    assert_golden(
        "service case",
        &service.to_text("golden service"),
        0x14ef_4913_0d74_a67a,
    );
}

fn chaos_setup() -> (Environment, Workload) {
    let net = TransitStubConfig::paper_64().generate(23).network;
    let env = Environment::build(net, 16);
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 10,
            queries: 8,
            joins_per_query: 2..=3,
            ..WorkloadConfig::default()
        },
        71,
    )
    .generate(&env.network);
    (env, wl)
}

#[test]
fn chaos_report_on_paper_64_is_pinned() {
    let (env, wl) = chaos_setup();
    let cfg = FaultConfig {
        events: 120,
        mean_gap_ms: 1_000.0,
        ..rejoin_favoring()
    };
    let schedule = FaultSchedule::generate(&env, &cfg, 9);
    let report = ChaosRunner::default().run(env, &wl.catalog, &wl.queries, &schedule);
    assert_golden(
        "paper_64 ChaosReport",
        &format!("{report:#?}"),
        0x42e0_b6c4_16cb_3630,
    );
}

#[test]
fn chaos_report_crashing_every_member_is_pinned() {
    // The handcrafted schedule that reaches the overlay floor: the last
    // two crashes are forfeited, not excised.
    let (env, wl) = chaos_setup();
    let faults = env
        .hierarchy
        .active_nodes()
        .into_iter()
        .enumerate()
        .map(|(i, n)| TimedFault {
            at_ms: (i as f64 + 1.0) * 100.0,
            fault: Fault::Crash(n),
        })
        .collect();
    let schedule = FaultSchedule { faults };
    let report = ChaosRunner::default().run(env, &wl.catalog, &wl.queries, &schedule);
    assert_golden(
        "crash-everything ChaosReport",
        &format!("{report:#?}"),
        0x5d5f_cfb3_73b2_5c20,
    );
}

/// The advert bookkeeping a budgeted Top-Down batch leaves behind: every
/// LRU touch, re-derivation request and served-candidate count lands in
/// the registry fingerprint, its stats and the drained requests, so the
/// digest pins that `deploy_all` records exactly the probe the planner
/// read. One advert host crashes in the environment only — the registry
/// still calls its adverts Live, so only the optimizer's liveness view
/// keeps them out — and another crashes in both.
#[test]
fn a_budgeted_reuse_batch_is_pinned() {
    let net = TransitStubConfig::paper_64().generate(29).network;
    let env = Environment::build(net, 16);
    let wl = WorkloadGenerator::new(
        WorkloadConfig {
            streams: 24,
            queries: 24,
            joins_per_query: 2..=4,
            source_skew: Some(1.2),
            ..WorkloadConfig::default()
        },
        31,
    )
    .generate(&env.network);
    let mut reg = ReuseRegistry::with_budget(3);
    let first = consolidate::deploy_all(
        &TopDown::new(&env),
        &wl.catalog,
        &wl.queries,
        &mut reg,
        true,
    );

    let protected: Vec<NodeId> = wl
        .catalog
        .streams()
        .iter()
        .map(|s| s.node)
        .chain(wl.queries.iter().map(|q| q.sink))
        .collect();
    let hosts: std::collections::BTreeSet<NodeId> = reg.deriveds().map(|d| d.host).collect();
    let mut churned = env.clone();
    churned.isolate_cache(false);
    let mut crashed = Vec::new();
    for host in hosts {
        if crashed.len() == 2 {
            break;
        }
        if !protected.contains(&host) && churned.crash_node(host) {
            crashed.push(host);
        }
    }
    assert_eq!(crashed.len(), 2, "two unprotected advert hosts");
    reg.host_crashed(crashed[1]);
    let second = consolidate::deploy_all(
        &TopDown::new(&churned),
        &wl.catalog,
        &wl.queries,
        &mut reg,
        true,
    );

    let mut text = format!("crashed {crashed:?}\n{}\n", reg.fingerprint());
    for (name, v) in reg.stats().fields() {
        text += &format!("{name} = {v}\n");
    }
    for (pass, out) in [("first", &first), ("second", &second)] {
        for d in &out.deployments {
            match d {
                Some(d) => {
                    text += &format!(
                        "{pass} {:?} {:#018x} {:?}\n",
                        d.query,
                        d.cost.to_bits(),
                        d.placement
                    )
                }
                None => text += &format!("{pass} none\n"),
            }
        }
    }
    text += &format!("rederive {:?}\n", reg.drain_rederive_requests());
    assert_golden("budgeted reuse batch", &text, 0xd44f_b2a6_30c2_257e);
}
