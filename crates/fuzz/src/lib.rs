//! `dsq-fuzz` — deterministic differential fuzzer for the planner stack.
//!
//! Three pieces, composed by [`run_campaign`], plus a value-level
//! executor ([`exec`]) that checks what deployed plans compute:
//!
//! * [`case`] — seeded, self-contained instance recipes ([`FuzzCase`]):
//!   transit-stub topologies across parameter ranges, hierarchies at
//!   varying `max_cs`, multi-query SPJ batches with overlapping streams,
//!   and chaos fault schedules. A case serializes to a `.case` text file
//!   that alone reproduces the instance bit-for-bit.
//! * [`oracle`] — one invariant oracle ([`run_oracle`]) through which every
//!   planner arm runs: Top-Down / Bottom-Up / Optimal, serial / parallel,
//!   cache on / off, scoped / flush invalidation, incremental / full, plus
//!   the service and protocol differentials. Each of the thirteen
//!   [`CheckId`]s is one function of a per-case context, run in
//!   [`CheckId::ALL`] order by one loop.
//! * [`shrink`](mod@shrink) — a greedy minimizer ([`shrink`](shrink::shrink)) that
//!   reduces any violation to a minimal repro (drop queries → drop fault
//!   events → shrink topology) suitable for `tests/regressions/`.
//!
//! The whole pipeline is a pure function of the campaign seed; re-running
//! with the same seed reproduces the same findings in the same order.

pub mod case;
pub mod exec;
pub mod oracle;
pub mod shrink;

pub use case::{FuzzCase, Instance};
pub use oracle::{run_oracle, CheckId, Violation};
pub use shrink::{shrink, shrink_with, ShrinkReport};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};

/// Campaign knobs (the `dsqctl fuzz` flags).
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Seed of the case stream.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub iters: usize,
    /// Ceiling on generated topology size.
    pub max_nodes: usize,
    /// Oracle-invocation budget per shrink.
    pub shrink_budget: usize,
    /// Where minimized repros are written (`None` = don't write).
    pub out_dir: Option<PathBuf>,
    /// Probability, in thousandths, that a case samples a >32-atom (wide)
    /// universe — the regime where one-word bitmask arithmetic used to
    /// overflow. `0` disables wide sampling entirely.
    pub wide_milli: u64,
    /// Probability, in thousandths, that a case samples **service mode** —
    /// a request script plus crash schedule driven through the resident
    /// planning service's three-way differential (`CheckId::Service`).
    /// `0` disables service sampling entirely (and consumes no RNG draws,
    /// so older campaigns replay unchanged).
    pub service_milli: u64,
    /// Reuse-registry advert budget forced on every sampled case (`0` =
    /// leave each case at its own default, where the reuse oracle picks a
    /// small budget for its bounded arm).
    pub advert_budget: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0,
            iters: 200,
            max_nodes: 48,
            shrink_budget: 150,
            out_dir: None,
            wide_milli: 50,
            service_milli: 100,
            advert_budget: 0,
        }
    }
}

/// One campaign finding: the original failing case, its minimized form and
/// the violation that defines it.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Iteration index the case came from.
    pub iteration: usize,
    /// The case as generated.
    pub original: FuzzCase,
    /// The case after shrinking (still failing the same check).
    pub minimized: FuzzCase,
    /// The violation observed on the *minimized* case.
    pub violation: Violation,
    /// Repro file path, when `out_dir` was set.
    pub written: Option<PathBuf>,
}

/// Aggregate campaign result.
#[derive(Debug, Default)]
pub struct CampaignOutcome {
    /// Cases generated and checked.
    pub iterations: usize,
    /// Every violation, minimized.
    pub findings: Vec<Finding>,
    /// Total oracle invocations (campaign + shrinking).
    pub oracle_runs: usize,
}

impl CampaignOutcome {
    /// Did every case survive the oracle?
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Install a quiet panic hook once: oracle arms convert panics into
/// violations, so the default hook's backtrace spam would drown the
/// campaign log. Call before [`run_campaign`] in CLI contexts.
pub fn silence_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::panic::set_hook(Box::new(|_| {}));
    });
}

/// Run a fuzz campaign: sample `iters` cases, run each through the oracle,
/// shrink every violation and (optionally) write the minimized repro as a
/// self-contained `.case` file. `progress` is called once per iteration
/// with `(index, violations_so_far)`.
pub fn run_campaign(
    cfg: &CampaignConfig,
    mut progress: impl FnMut(usize, usize),
) -> std::io::Result<CampaignOutcome> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut outcome = CampaignOutcome::default();
    if let Some(dir) = &cfg.out_dir {
        std::fs::create_dir_all(dir)?;
    }
    for i in 0..cfg.iters {
        let mut case =
            FuzzCase::sample_with(&mut rng, cfg.max_nodes, cfg.wide_milli, cfg.service_milli);
        if cfg.advert_budget > 0 {
            case.advert_budget = cfg.advert_budget;
        }
        outcome.iterations += 1;
        outcome.oracle_runs += 1;
        let violations = run_oracle(&case);
        // One finding per distinct check: the same root cause commonly
        // trips several assertions at once.
        let mut seen = std::collections::HashSet::new();
        for v in violations {
            if !seen.insert(v.check) {
                continue;
            }
            let report = shrink::shrink(&case, v.check, cfg.shrink_budget);
            outcome.oracle_runs += report.oracle_runs;
            let minimized = report.case;
            let violation = run_oracle(&minimized)
                .into_iter()
                .find(|m| m.check == v.check)
                .unwrap_or(v);
            outcome.oracle_runs += 1;
            let written = match &cfg.out_dir {
                Some(dir) => Some(write_repro(dir, &minimized, &violation, cfg.seed, i)?),
                None => None,
            };
            outcome.findings.push(Finding {
                iteration: i,
                original: case.clone(),
                minimized,
                violation,
                written,
            });
        }
        progress(i, outcome.findings.len());
    }
    Ok(outcome)
}

/// Write one minimized repro as `<dir>/<check>-<campaign seed>-<iter>.case`
/// with the violation summary inlined as comments.
fn write_repro(
    dir: &Path,
    case: &FuzzCase,
    violation: &Violation,
    campaign_seed: u64,
    iteration: usize,
) -> std::io::Result<PathBuf> {
    let name = format!(
        "{}-{campaign_seed}-{iteration}.case",
        violation.check.slug()
    );
    let path = dir.join(name);
    let comment = format!(
        "minimized repro (campaign seed {campaign_seed}, iteration {iteration})\ncheck: {}\n{}",
        violation.check.slug(),
        violation.detail
    );
    std::fs::write(&path, case.to_text(&comment))?;
    Ok(path)
}

/// Load and verify one `.case` file against the full oracle, optionally
/// keeping only one check's violations — the whole oracle still runs (a
/// repro can shift category as the library evolves, and cross-check panics
/// must not be masked), the filter only narrows what is *reported*. Used by
/// the `tests/regressions/` corpus runner and `dsqctl fuzz [--check]`.
/// Returns the violations (empty = pass).
pub fn verify_case_file(path: &Path, check: Option<CheckId>) -> Result<Vec<Violation>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let case =
        FuzzCase::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let mut violations = run_oracle(&case);
    if let Some(check) = check {
        violations.retain(|v| v.check == check);
    }
    Ok(violations)
}
