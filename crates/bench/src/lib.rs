//! Shared experiment drivers for the figure-regeneration benchmarks.
//!
//! Every bench target under `benches/` reproduces one figure of the paper's
//! evaluation (see EXPERIMENTS.md for the full index). The heavy lifting —
//! environments, averaged workloads, algorithm registry, CSV output — lives
//! here so each bench file reads like the experiment description.
//!
//! Scale control: benches run at the paper's parameters by default; set
//! `DSQ_BENCH_QUICK=1` to shrink workload counts for smoke runs.
//!
//! [`adverts`] accounts the advertisement protocol's traffic, the number
//! behind the paper's "negligible" claim of Section 3.2.

use dsq_baselines::{InNetwork, InNetworkRunner, PlanThenDeploy, RandomPlace, Relaxation};
use dsq_core::{consolidate, BottomUp, Environment, Optimal, Optimizer, SearchStats, TopDown};
use dsq_net::TransitStubConfig;
use dsq_query::ReuseRegistry;
use dsq_workload::{Workload, WorkloadConfig, WorkloadGenerator};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

pub mod adverts;

pub use dsq_obs::mini_json;

/// True when quick (smoke) mode is requested.
pub fn quick_mode() -> bool {
    std::env::var("DSQ_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Number of independent workloads to average over (the paper averages
/// over 10).
pub fn workload_repeats() -> usize {
    if quick_mode() {
        2
    } else {
        10
    }
}

/// The ~128-node evaluation environment of Sections 3.1–3.4.
pub fn paper_env(max_cs: usize, seed: u64) -> Environment {
    let net = TransitStubConfig::paper_128().generate(seed).network;
    Environment::build(net, max_cs)
}

/// The ~64-node environment of Figure 2.
pub fn small_env(max_cs: usize, seed: u64) -> Environment {
    let net = TransitStubConfig::paper_64().generate(seed).network;
    Environment::build(net, max_cs)
}

/// The Section 3 workload: 100 streams, 20 queries with 2–5 joins. The
/// reuse experiments (Figures 7–8) use the skewed draw; see EXPERIMENTS.md.
pub fn paper_workload(env: &Environment, seed: u64, skew: Option<f64>) -> Workload {
    WorkloadGenerator::new(
        WorkloadConfig {
            streams: 100,
            queries: if quick_mode() { 8 } else { 20 },
            joins_per_query: 2..=5,
            source_skew: skew,
            ..WorkloadConfig::default()
        },
        seed,
    )
    .generate(&env.network)
}

/// Deploy a workload incrementally and return the cumulative-cost curve.
pub fn run_batch(alg: &dyn Optimizer, wl: &Workload, reuse: bool) -> (Vec<f64>, SearchStats) {
    let mut registry = ReuseRegistry::new();
    let out = consolidate::deploy_all(alg, &wl.catalog, &wl.queries, &mut registry, reuse);
    (out.cumulative_cost, out.stats)
}

/// Element-wise mean of equal-length curves.
pub fn mean_curve(curves: &[Vec<f64>]) -> Vec<f64> {
    assert!(!curves.is_empty());
    let len = curves.iter().map(Vec::len).min().unwrap();
    (0..len)
        .map(|i| curves.iter().map(|c| c[i]).sum::<f64>() / curves.len() as f64)
        .collect()
}

/// A printable, CSV-exportable result table (x column + named series).
pub struct Table {
    /// Figure identifier, e.g. `fig05`.
    pub name: &'static str,
    /// Caption printed above the table.
    pub caption: &'static str,
    /// X-axis label.
    pub x_label: &'static str,
    /// X values.
    pub x: Vec<f64>,
    /// Named Y series.
    pub series: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// Print the table and write `target/figures/<name>.csv`.
    pub fn emit(&self) {
        let mut out = String::new();
        let _ = writeln!(out, "\n=== {} — {} ===", self.name, self.caption);
        let _ = write!(out, "{:>16}", self.x_label);
        for (name, _) in &self.series {
            let _ = write!(out, " {name:>18}");
        }
        let _ = writeln!(out);
        for (i, x) in self.x.iter().enumerate() {
            let _ = write!(out, "{x:>16.1}");
            for (_, ys) in &self.series {
                match ys.get(i) {
                    Some(y) if y.abs() >= 1e6 => {
                        let _ = write!(out, " {:>18.3e}", y);
                    }
                    Some(y) => {
                        let _ = write!(out, " {y:>18.1}");
                    }
                    None => {
                        let _ = write!(out, " {:>18}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        println!("{out}");

        let dir = figures_dir();
        let _ = fs::create_dir_all(&dir);
        let mut csv = String::new();
        let _ = write!(csv, "{}", self.x_label.replace(' ', "_"));
        for (name, _) in &self.series {
            let _ = write!(csv, ",{}", name.replace(' ', "_"));
        }
        let _ = writeln!(csv);
        for (i, x) in self.x.iter().enumerate() {
            let _ = write!(csv, "{x}");
            for (_, ys) in &self.series {
                match ys.get(i) {
                    Some(y) => {
                        let _ = write!(csv, ",{y}");
                    }
                    None => {
                        let _ = write!(csv, ",");
                    }
                }
            }
            let _ = writeln!(csv);
        }
        let path = dir.join(format!("{}.csv", self.name));
        if let Err(e) = fs::write(&path, csv) {
            eprintln!("could not write {}: {e}", path.display());
        } else {
            println!("[written {}]", path.display());
        }
    }
}

/// Which hierarchical algorithm a shared experiment driver runs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Hierarchical {
    /// The Top-Down algorithm (Section 2.2).
    TopDown,
    /// The Bottom-Up algorithm (Section 2.3).
    BottomUp,
}

impl Hierarchical {
    /// Instantiate the optimizer over an environment.
    pub fn build<'a>(self, env: &'a Environment) -> Box<dyn Optimizer + 'a> {
        match self {
            Hierarchical::TopDown => Box::new(TopDown::new(env)),
            Hierarchical::BottomUp => Box::new(BottomUp::new(env)),
        }
    }
}

/// The cluster-size sweep of Figures 5 and 6: cumulative deployed cost of
/// the Section 3 workload for `max_cs ∈ {2, 4, 8, 16, 32, 64}`, averaged
/// over independent workloads (which run in parallel — each batch is
/// self-contained, so the Rayon fan-out is race-free by construction).
pub fn cluster_size_sweep(alg: Hierarchical, name: &'static str, caption: &'static str) -> Table {
    use rayon::prelude::*;
    let base = paper_env(64, 1);
    let sizes = [2usize, 4, 8, 16, 32, 64];
    let mut series = Vec::new();
    let mut x: Vec<f64> = Vec::new();
    for &max_cs in &sizes {
        let env = base.reclustered(max_cs);
        let curves: Vec<Vec<f64>> = (0..workload_repeats())
            .into_par_iter()
            .map(|w| {
                let wl = paper_workload(&env, 100 + w as u64, None);
                let opt = alg.build(&env);
                run_batch(opt.as_ref(), &wl, true).0
            })
            .collect();
        let mean = mean_curve(&curves);
        if x.is_empty() {
            x = (1..=mean.len()).map(|i| i as f64).collect();
        }
        series.push((format!("max_cs={max_cs}"), mean));
    }
    Table {
        name,
        caption,
        x_label: "queries",
        x,
        series,
    }
}

/// An environment + workload pair shared between a table computation and
/// the Criterion timing section of a bench.
pub struct BenchCase {
    /// Optimization environment.
    pub env: Environment,
    /// Workload deployed in the experiment.
    pub wl: Workload,
}

/// Directory figure CSVs are written to.
pub fn figures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures")
}

/// Workspace root, where `BENCH_*.json` summaries land (CI uploads them as
/// artifacts; `.gitignore` keeps them out of the tree).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Write `BENCH_<name>.json` at the workspace root: per-series wall times
/// plus the counters and histograms captured by an observability sink
/// during the run.
///
/// Several bench targets share one summary (fig02 and fig09 both report
/// planning wall times under `BENCH_plan.json`), so an existing file is
/// *merged into*, not clobbered: wall-time rows, counters, and histograms
/// union key-wise with the latest run winning on collisions. A file that
/// fails to parse (corrupt or hand-edited) is replaced outright with a
/// warning. The JSON is hand-assembled via [`mini_json`] / [`dsq_obs::json`]
/// so the bench harness stays dependency-free like the rest of the
/// workspace.
pub fn emit_bench_json(name: &str, wall_ms: &[(&str, f64)], snapshot: &dsq_obs::Snapshot) {
    use mini_json::Json;
    let fresh = Json::Obj(vec![
        ("bench".into(), Json::Str(name.to_string())),
        (
            "wall_ms".into(),
            Json::Obj(
                wall_ms
                    .iter()
                    .map(|(series, ms)| (series.to_string(), Json::Num(*ms)))
                    .collect(),
            ),
        ),
        (
            "observability".into(),
            mini_json::parse(&snapshot.to_json()).expect("Snapshot::to_json emits valid JSON"),
        ),
    ]);
    let path = workspace_root().join(format!("BENCH_{name}.json"));
    let merged = match fs::read_to_string(&path) {
        Ok(existing) => match mini_json::parse(existing.trim()) {
            Ok(prior) => mini_json::merge(&prior, &fresh),
            Err(e) => {
                eprintln!("replacing unparseable {}: {e}", path.display());
                fresh
            }
        },
        Err(_) => fresh,
    };
    let mut out = merged.to_string();
    out.push('\n');
    if let Err(e) = fs::write(&path, out) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("[written {}]", path.display());
    }
}

/// A localized metric drift for the incremental-replanning measurements:
/// a link whose 40x cost increase moves only a small set of shortest-path
/// distances, so the dirty set (`metric_dirty_nodes`) stays a fraction of
/// the network.
pub struct DriftScenario {
    /// Drifted link endpoints.
    pub a: dsq_net::NodeId,
    /// Drifted link endpoints.
    pub b: dsq_net::NodeId,
    /// The link's post-drift cost.
    pub new_cost: f64,
    /// Distance matrix rebuilt over the drifted network.
    pub new_dm: dsq_net::DistanceMatrix,
    /// Nodes with at least one changed shortest-path distance.
    pub dirty: std::collections::HashSet<dsq_net::NodeId>,
}

/// Search the network (stub side first) for a [`DriftScenario`]. Links
/// without path redundancy are poor candidates — drifting a degree-1
/// leaf's access link changes that leaf's distance to *every* node, which
/// dirties the whole network and turns incremental replanning into a full
/// replan. The search keeps the candidate with the smallest nonempty dirty
/// set, returning early once the set is under 1/8 of the network.
pub fn localized_drift(env: &Environment) -> DriftScenario {
    let n = env.network.len();
    let mut best: Option<DriftScenario> = None;
    let mut tried = 0usize;
    'outer: for i in (0..n).rev() {
        let u = dsq_net::NodeId(i as u32);
        for l in env.network.neighbors(u) {
            if tried >= 24 {
                break 'outer;
            }
            tried += 1;
            let mut net = env.network.clone();
            assert!(net.set_link_cost(u, l.to, l.cost * 40.0));
            let dm = dsq_net::DistanceMatrix::build(&net, dsq_net::Metric::Cost);
            let dirty = dsq_core::metric_dirty_nodes(&env.dm, &dm);
            if dirty.is_empty() {
                continue; // link carries no unique shortest path
            }
            if best.as_ref().is_none_or(|b| dirty.len() < b.dirty.len()) {
                best = Some(DriftScenario {
                    a: u,
                    b: l.to,
                    new_cost: l.cost * 40.0,
                    new_dm: dm,
                    dirty,
                });
            }
            if best.as_ref().unwrap().dirty.len() <= n / 8 {
                break 'outer;
            }
        }
    }
    best.expect("some link drift must change a distance")
}

/// Named algorithm set for comparison tables. Zones for In-network follow
/// the paper's 5-zone setup.
pub struct AlgorithmSet<'a> {
    /// In-network zone structure (owned here so the runner can borrow it).
    pub zones: InNetwork,
    env: &'a Environment,
}

impl<'a> AlgorithmSet<'a> {
    /// Build the comparison set over an environment.
    pub fn new(env: &'a Environment) -> Self {
        AlgorithmSet {
            zones: InNetwork::new(env, 5),
            env,
        }
    }

    /// `(name, optimizer)` pairs: both hierarchical algorithms, the exact
    /// optimizer and the three baselines.
    pub fn all(&'a self) -> Vec<(&'static str, Box<dyn Optimizer + 'a>)> {
        vec![
            ("top-down", Box::new(TopDown::new(self.env))),
            ("bottom-up", Box::new(BottomUp::new(self.env))),
            ("optimal", Box::new(Optimal::new(self.env))),
            ("plan-then-deploy", Box::new(PlanThenDeploy::new(self.env))),
            ("relaxation", Box::new(Relaxation::new(self.env))),
            (
                "in-network",
                Box::new(InNetworkRunner {
                    zones: &self.zones,
                    env: self.env,
                }),
            ),
            ("random", Box::new(RandomPlace::new(self.env, 0xBAD))),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_print_and_write() {
        let t = Table {
            name: "test_table",
            caption: "self check",
            x_label: "x",
            x: vec![1.0, 2.0],
            series: vec![("a".into(), vec![10.0, 20.0]), ("b".into(), vec![1e9, 2e9])],
        };
        t.emit();
        let path = figures_dir().join("test_table.csv");
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("x,a,b"));
    }

    #[test]
    fn bench_json_is_valid_and_complete() {
        let sink = dsq_obs::Sink::new(dsq_obs::ClockMode::Virtual);
        {
            let _scope = dsq_obs::scoped(sink.clone());
            dsq_obs::counter("selftest.counter", 3);
            dsq_obs::observe("selftest.hist", 1.5);
        }
        emit_bench_json(
            "selftest",
            &[("series-a", 12.5), ("series-b", 0.25)],
            &sink.snapshot(),
        );
        let path = workspace_root().join("BENCH_selftest.json");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"bench\":\"selftest\""));
        assert!(content.contains("\"series-a\":12.5"));
        assert!(content.contains("\"selftest.counter\":3"));
        assert!(content.contains("\"selftest.hist\""));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bench_json_merges_rows_across_runs() {
        let path = workspace_root().join("BENCH_mergetest.json");
        let _ = std::fs::remove_file(&path);
        // First writer (fig02's role): two rows + a counter.
        let sink1 = dsq_obs::Sink::new(dsq_obs::ClockMode::Virtual);
        {
            let _scope = dsq_obs::scoped(sink1.clone());
            dsq_obs::counter("mergetest.first", 1);
        }
        emit_bench_json(
            "mergetest",
            &[("serial", 10.0), ("shared", 1.0)],
            &sink1.snapshot(),
        );
        // Second writer (fig09's role): disjoint row, one colliding row,
        // its own counter. Nothing from the first run may be lost.
        let sink2 = dsq_obs::Sink::new(dsq_obs::ClockMode::Virtual);
        {
            let _scope = dsq_obs::scoped(sink2.clone());
            dsq_obs::counter("mergetest.second", 2);
        }
        emit_bench_json(
            "mergetest",
            &[("scaling", 20.0), ("shared", 2.0)],
            &sink2.snapshot(),
        );
        let merged = mini_json::parse(std::fs::read_to_string(&path).unwrap().trim()).unwrap();
        let wall = merged.get("wall_ms").unwrap();
        assert_eq!(wall.get("serial"), Some(&mini_json::Json::Num(10.0)));
        assert_eq!(wall.get("scaling"), Some(&mini_json::Json::Num(20.0)));
        assert_eq!(
            wall.get("shared"),
            Some(&mini_json::Json::Num(2.0)),
            "latest run wins on collisions"
        );
        let counters = merged
            .get("observability")
            .and_then(|o| o.get("counters"))
            .unwrap();
        assert_eq!(
            counters.get("mergetest.first"),
            Some(&mini_json::Json::Num(1.0)),
            "first run's counters must survive the second write"
        );
        assert_eq!(
            counters.get("mergetest.second"),
            Some(&mini_json::Json::Num(2.0))
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn batch_runner_smoke() {
        let env = small_env(16, 1);
        let wl = WorkloadGenerator::new(
            WorkloadConfig {
                streams: 10,
                queries: 3,
                joins_per_query: 2..=2,
                ..WorkloadConfig::default()
            },
            1,
        )
        .generate(&env.network);
        let (curve, stats) = run_batch(&TopDown::new(&env), &wl, true);
        assert_eq!(curve.len(), 3);
        assert!(stats.plans_considered > 0);
        let m = mean_curve(&[curve.clone(), curve]);
        assert_eq!(m.len(), 3);
    }
}
