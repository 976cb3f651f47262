//! `dsq-benchmark` — the repository's performance ledger.
//!
//! ```text
//! dsq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last line of standard output is the result as JSON
//! dsq-benchmark [--seed <n>] [--reps <r>] [--seconds <s>]
//!     every workload <r> times, each in a fresh process, then one traced
//!     pass per workload; writes out/results.json and out/trace-*.jsonl
//! dsq-benchmark --compare A.json B.json
//! dsq-benchmark --selfcheck        the suite twice, run by run in turn, compared
//! ```
//!
//! See README.md for what each workload and metric is for.

mod calm;
mod layers;
mod metrics;
mod report;
mod rng;
mod run;
mod script;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::{Record, Suite, Verdict, WorkloadRuns};
use workloads::{Workload, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage: dsq-benchmark [--workload <name> --trace <0|1> [--record <file>]] \
[--seed <n>] [--seconds <s>] [--reps <r>] [--out <dir>] | --compare A.json B.json | --selfcheck";

#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: usize,
    out: PathBuf,
    record: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        reps: 3,
        out: PathBuf::from("benchmark/out"),
        record: None,
        compare: None,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |what: &str| format!("{flag}: {what}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--reps" => {
                a.reps = value()?.parse().map_err(|_| bad("not a whole number"))?;
                if a.reps == 0 {
                    return Err(bad("must be at least 1"));
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--record" => a.record = Some(PathBuf::from(value()?)),
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--selfcheck" => a.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A run's private directory for journals, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out: &Path) -> std::io::Result<Scratch> {
        let dir = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn print_metrics(workload: &str, metrics: &[run::Metric]) {
    for m in metrics {
        println!("{workload} {} {} {} n={}", m.name, m.value, m.unit, m.n);
    }
}

/// One run in this process. The last line printed is the contract's.
fn single(a: &Args, w: &'static Workload) -> Result<ExitCode, String> {
    println!(
        "# dsq-benchmark workload={} seed={} seconds={} trace={} available_parallelism={}",
        w.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        parallelism()
    );
    println!("# {}", w.why);
    let scratch = Scratch::new(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let t0 = Instant::now();
    let result = run::run(w, a.seed, a.seconds, a.trace, &scratch.0);
    let record = Record {
        workload: w.name.to_string(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        attempted: result.attempted,
        failed: result.failed,
        first_failure: result.first_failure,
        state_hash: format!("{:016x}", result.state_hash),
        wall_s: t0.elapsed().as_secs_f64(),
        end_to_end: result.end_to_end,
        per_layer: result.per_layer,
    };
    drop(scratch);
    if a.trace {
        let path = a.out.join(format!("trace-{}.jsonl", w.name));
        std::fs::write(&path, spans::to_jsonl(&result.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &a.record {
        std::fs::write(path, report::record_json(&record))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print_metrics(w.name, &record.end_to_end);
    print_metrics(w.name, &record.per_layer);
    println!(
        "{} failed_share {} ratio n={}",
        w.name,
        record.failed as f64 / record.attempted.max(1) as f64,
        record.attempted
    );
    if let Some(why) = &record.first_failure {
        eprintln!("{}: first failure: {why}", w.name);
    }
    println!("{}", report::contract_line(&record));
    Ok(ExitCode::SUCCESS)
}

/// One run in a fresh child process of this binary, so that its peak RSS
/// is its own.
fn child(a: &Args, w: &Workload, trace: bool, tag: &str) -> Result<Record, String> {
    let record = a.out.join(format!("run-{}-{tag}.json", w.name));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out)
        .arg("--record")
        .arg(&record)
        .output()
        .map_err(|e| format!("cannot start a run of {}: {e}", w.name))?;
    if !output.status.success() {
        return Err(format!(
            "run {tag} of {} exited with {}: {}",
            w.name,
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let text =
        std::fs::read_to_string(&record).map_err(|e| format!("{}: {e}", record.display()))?;
    report::parse_record(&text).map_err(|e| format!("{}: {e}", record.display()))
}

/// Every workload `reps` times, then once traced, for each of `sides`
/// (output directories). With two sides the runs alternate, side by side,
/// so that a slow spell of the host falls on both alike. Returns each
/// side's suite, and every failed check.
fn suites(a: &Args, sides: &[PathBuf]) -> Result<(Vec<Suite>, Vec<String>), String> {
    println!(
        "# dsq-benchmark suite seed={} seconds={} reps={} available_parallelism={}",
        a.seed,
        a.seconds,
        a.reps,
        parallelism()
    );
    let sides: Vec<Args> = sides
        .iter()
        .map(|out| Args {
            out: out.clone(),
            ..a.clone()
        })
        .collect();
    for side in &sides {
        std::fs::create_dir_all(&side.out).map_err(|e| format!("{}: {e}", side.out.display()))?;
    }
    let t0 = Instant::now();
    let mut failures = Vec::new();
    let mut groups: Vec<Vec<WorkloadRuns>> = vec![Vec::new(); sides.len()];
    for w in &WORKLOADS {
        let mut records: Vec<Vec<Record>> = vec![Vec::new(); sides.len()];
        for rep in 0..=a.reps {
            // The last pass is the traced one.
            let (trace, tag) = (rep == a.reps, format!("rep{rep}"));
            for (side, runs) in sides.iter().zip(&mut records) {
                let r = child(side, w, trace, if trace { "traced" } else { &tag })?;
                eprintln!(
                    "{} {} {}: {:.1} s",
                    side.out.display(),
                    w.name,
                    if trace { "traced" } else { &tag },
                    r.wall_s
                );
                if let Some(why) = &r.first_failure {
                    failures.push(format!(
                        "{}: {} of {} checks failed, first: {why}",
                        w.name, r.failed, r.attempted
                    ));
                }
                runs.push(r);
            }
        }
        for (mut runs, side_groups) in records.into_iter().zip(&mut groups) {
            let group = WorkloadRuns {
                name: w.name.to_string(),
                traced: runs.pop(),
                runs,
            };
            failures.extend(group.determinism_failures());
            print_group(&group);
            side_groups.push(group);
        }
    }
    let mut out = Vec::new();
    for (side, workloads) in sides.iter().zip(groups) {
        let s = Suite {
            seed: a.seed,
            seconds: a.seconds,
            reps: a.reps,
            parallelism: parallelism(),
            wall_s: t0.elapsed().as_secs_f64(),
            workloads,
        };
        let path = side.out.join("results.json");
        std::fs::write(&path, report::suite_json(&s))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# wrote {} after {:.0} s", path.display(), s.wall_s);
        out.push(s);
    }
    Ok((out, failures))
}

/// `workload metric value unit n=<samples>`: the median over repetitions,
/// with their minimum and maximum beside it.
fn print_group(g: &WorkloadRuns) {
    let Some(first) = g.runs.first() else { return };
    for m in &first.end_to_end {
        let values = g.values(&m.name);
        let (lo, hi) = stats::min_max(&values);
        println!(
            "{} {} {} {} n={} reps={} min={} max={}",
            g.name,
            m.name,
            stats::median(&values),
            m.unit,
            m.n,
            values.len(),
            lo,
            hi
        );
    }
    let failed: u64 = g.runs.iter().map(|r| r.failed).sum();
    let attempted: u64 = g.runs.iter().map(|r| r.attempted).sum();
    println!(
        "{} failed_share {} ratio n={attempted}",
        g.name,
        failed as f64 / attempted.max(1) as f64
    );
    if let Some(t) = &g.traced {
        print_metrics(&g.name, &t.per_layer);
    }
}

fn load_suite(path: &Path) -> Result<Suite, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    report::parse_suite(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare(base: &Suite, other: &Suite) -> ExitCode {
    let rows = report::compare(base, other);
    report::print_rows(&rows);
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "# {} rows: {} improved, {} unchanged, {} unresolved, {} regressed",
        rows.len(),
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        count(Verdict::Unresolved),
        count(Verdict::Regressed)
    );
    if count(Verdict::Regressed) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn report_failures(failures: &[String]) -> ExitCode {
    for f in failures {
        eprintln!("FAILED {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn dispatch(a: Args) -> Result<ExitCode, String> {
    if let Some((base, other)) = &a.compare {
        return Ok(compare(&load_suite(base)?, &load_suite(other)?));
    }
    if let Some(name) = &a.workload {
        let w = workloads::find(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; one of {}", names.join(", "))
        })?;
        return single(&a, w);
    }
    if a.selfcheck {
        let sides = [a.out.join("selfcheck-a"), a.out.join("selfcheck-b")];
        let (both, failures) = suites(&a, &sides)?;
        let verdict = compare(&both[0], &both[1]);
        let checks = report_failures(&failures);
        return Ok(if verdict == ExitCode::SUCCESS {
            checks
        } else {
            verdict
        });
    }
    let (_, failures) = suites(&a, std::slice::from_ref(&a.out))?;
    Ok(report_failures(&failures))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(dispatch) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dsq-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_obs::mini_json::{self, Json};

    fn scratch(tag: &str) -> Scratch {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let dir = out.join(format!("test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    /// Every workload, at a tenth of the usual cycle counts.
    #[test]
    fn seed_2_passes_the_whole_correctness_gate() {
        for w in &WORKLOADS {
            let dir = scratch(w.name);
            let r = run::run(w, 2, 1.5, false, &dir.0);
            assert_eq!(r.failed, 0, "{}: {:?}", w.name, r.first_failure);
            assert!(r.attempted > w.bulk as u64, "{}", w.name);
            let names: Vec<&str> = r.end_to_end.iter().map(|m| m.name.as_str()).collect();
            let catalog: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, catalog, "{}", w.name);
            for m in &r.end_to_end {
                assert!(m.value.is_finite() && m.value > 0.0, "{} {m:?}", w.name);
            }
            assert!(r.per_layer.is_empty() && r.spans.is_empty());
        }
    }

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        mini_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn listed(j: &Json, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        let Some(Json::Arr(items)) = j.get(key) else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|item| {
                fields
                    .iter()
                    .map(|f| match item.get(f) {
                        Some(Json::Str(s)) => s.clone(),
                        Some(Json::Num(n)) => n.to_string(),
                        other => panic!("{key}.{f}: {other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_states_this_catalog() {
        let j = benchmark_json();
        assert_eq!(j.get("run_seconds"), Some(&Json::Num(RUN_SECONDS as f64)));
        let workloads: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect();
        assert_eq!(listed(&j, "workloads", &["name", "why"]), workloads);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        let end_to_end: Vec<Vec<String>> = metrics::END_TO_END
            .iter()
            .map(|m| {
                vec![
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    m.bound.to_string(),
                ]
            })
            .collect();
        assert_eq!(
            listed(&j, "end_to_end", &["name", "unit", "better", "bound"]),
            end_to_end
        );
        assert!(metrics::END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// The traced pass emits exactly the per-layer metrics BENCHMARK.json
    /// lists, with their units, and a span tree that closes.
    #[test]
    fn traced_pass_emits_the_listed_layers() {
        let w = workloads::find("wire").unwrap();
        let dir = scratch("traced");
        let r = run::run(w, 2, 1.5, true, &dir.0);
        assert_eq!(r.failed, 0, "{:?}", r.first_failure);
        let emitted: Vec<Vec<String>> = r
            .per_layer
            .iter()
            .map(|m| vec![m.name.clone(), m.unit.clone()])
            .collect();
        assert_eq!(
            emitted,
            listed(&benchmark_json(), "per_layer", &["name", "unit"])
        );
        for m in &r.per_layer {
            assert!(m.value.is_finite(), "{m:?}");
        }
        for s in &r.spans {
            assert!(s.end_us >= s.start_us);
            if let Some(p) = s.parent {
                let parent = &r.spans[p as usize];
                assert!(parent.start_us <= s.start_us && s.end_us <= parent.end_us);
                assert_eq!(parent.req, s.req);
            }
        }
        let rolled = spans::rollup(&r.spans);
        assert!(rolled["server.protocol.parse"].1 == rolled["server.service.submit"].1);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload wire --seed 7 --seconds 15 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.trace),
            (Some("wire"), 7, true)
        );
        assert_eq!(a.seconds, 15.0);
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.seed, d.reps, d.trace, d.workload), (1, 3, false, None));
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
        let c = parse_args(&argv("--compare a.json b.json")).unwrap();
        assert_eq!(
            c.compare,
            Some((PathBuf::from("a.json"), PathBuf::from("b.json")))
        );
    }
}
