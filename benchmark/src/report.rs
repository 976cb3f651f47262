//! Result records: what one run writes, what the suite collects into
//! `results.json`, and the comparison of two such files.

use dsq_obs::mini_json::{self, Json};

use crate::metrics::{self, EndToEnd};
use crate::run::Metric;
use crate::stats::{median, min_max};

/// One run, as written to `--record` and kept in `results.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub state_hash: String,
    pub wall_s: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// A JSON number; a value that is not finite has no JSON form and would
/// mean a phase took no samples, so it is written as `null` and fails the
/// reader.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::new();
    dsq_obs::json::push_str(&mut out, s);
    out
}

/// The driver's contract: the last line of a run's standard output.
pub fn contract_line(r: &Record) -> String {
    let shown = if r.trace { &r.per_layer } else { &r.end_to_end };
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quoted(&m.name),
                num(m.value),
                quoted(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

fn metrics_json(ms: &[Metric]) -> String {
    let items: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":{},\"value\":{},\"unit\":{},\"n\":{},\"exact\":{}}}",
                quoted(&m.name),
                num(m.value),
                quoted(&m.unit),
                m.n,
                m.exact
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

pub fn record_json(r: &Record) -> String {
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"attempted\":{},\"failed\":{},\"first_failure\":{},\"state_hash\":{},\"wall_s\":{},\"end_to_end\":{},\"per_layer\":{}}}",
        quoted(&r.workload),
        r.seed,
        num(r.seconds),
        r.trace,
        r.attempted,
        r.failed,
        r.first_failure.as_deref().map_or("null".to_string(), quoted),
        quoted(&r.state_hash),
        num(r.wall_s),
        metrics_json(&r.end_to_end),
        metrics_json(&r.per_layer),
    )
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn as_f64(j: &Json, key: &str) -> Result<f64, String> {
    match field(j, key)? {
        Json::Num(n) => Ok(*n),
        _ => Err(format!("{key} is not a number")),
    }
}

fn as_str(j: &Json, key: &str) -> Result<String, String> {
    match field(j, key)? {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(format!("{key} is not a string")),
    }
}

fn as_bool(j: &Json, key: &str) -> Result<bool, String> {
    match field(j, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("{key} is not a boolean")),
    }
}

fn as_arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match field(j, key)? {
        Json::Arr(items) => Ok(items),
        _ => Err(format!("{key} is not an array")),
    }
}

fn metrics_from(j: &Json, key: &str) -> Result<Vec<Metric>, String> {
    as_arr(j, key)?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: as_str(m, "name")?,
                value: as_f64(m, "value")?,
                unit: as_str(m, "unit")?,
                n: as_f64(m, "n")? as usize,
                exact: as_bool(m, "exact")?,
            })
        })
        .collect()
}

pub fn record_from(j: &Json) -> Result<Record, String> {
    Ok(Record {
        workload: as_str(j, "workload")?,
        seed: as_f64(j, "seed")? as u64,
        seconds: as_f64(j, "seconds")?,
        trace: as_bool(j, "trace")?,
        attempted: as_f64(j, "attempted")? as u64,
        failed: as_f64(j, "failed")? as u64,
        first_failure: match field(j, "first_failure")? {
            Json::Str(s) => Some(s.clone()),
            _ => None,
        },
        state_hash: as_str(j, "state_hash")?,
        wall_s: as_f64(j, "wall_s")?,
        end_to_end: metrics_from(j, "end_to_end")?,
        per_layer: metrics_from(j, "per_layer")?,
    })
}

pub fn parse_record(text: &str) -> Result<Record, String> {
    record_from(&mini_json::parse(text)?)
}

/// One workload of a suite: its untraced repetitions and its traced pass.
#[derive(Clone, Debug)]
pub struct WorkloadRuns {
    pub name: String,
    pub runs: Vec<Record>,
    pub traced: Option<Record>,
}

impl WorkloadRuns {
    /// An end-to-end metric's value in each repetition.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.end_to_end.iter().find(|m| m.name == metric))
            .map(|m| m.value)
            .collect()
    }

    /// What must repeat exactly across the repetitions of one seed and
    /// does not: exact metrics and the state hash.
    pub fn determinism_failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        let Some(first) = self.runs.first() else {
            return out;
        };
        for r in &self.runs[1..] {
            if r.state_hash != first.state_hash {
                out.push(format!(
                    "{}: state hash {} vs {}",
                    self.name, r.state_hash, first.state_hash
                ));
            }
            for (a, b) in first.end_to_end.iter().zip(&r.end_to_end) {
                if a.exact && a.value.to_bits() != b.value.to_bits() {
                    out.push(format!(
                        "{}: {} = {} vs {}",
                        self.name, a.name, b.value, a.value
                    ));
                }
            }
        }
        out
    }
}

#[derive(Clone, Debug)]
pub struct Suite {
    pub seed: u64,
    pub seconds: f64,
    pub reps: usize,
    pub parallelism: usize,
    pub wall_s: f64,
    pub workloads: Vec<WorkloadRuns>,
}

pub fn suite_json(s: &Suite) -> String {
    let workloads: Vec<String> = s
        .workloads
        .iter()
        .map(|w| {
            let runs: Vec<String> = w.runs.iter().map(record_json).collect();
            format!(
                "{{\"name\":{},\"runs\":[{}],\"traced\":{}}}",
                quoted(&w.name),
                runs.join(","),
                w.traced.as_ref().map_or("null".to_string(), record_json)
            )
        })
        .collect();
    format!(
        "{{\"seed\":{},\"seconds\":{},\"reps\":{},\"parallelism\":{},\"wall_s\":{},\"workloads\":[\n{}\n]}}\n",
        s.seed,
        num(s.seconds),
        s.reps,
        s.parallelism,
        num(s.wall_s),
        workloads.join(",\n")
    )
}

pub fn parse_suite(text: &str) -> Result<Suite, String> {
    let j = mini_json::parse(text)?;
    let workloads = as_arr(&j, "workloads")?
        .iter()
        .map(|w| {
            Ok(WorkloadRuns {
                name: as_str(w, "name")?,
                runs: as_arr(w, "runs")?
                    .iter()
                    .map(record_from)
                    .collect::<Result<_, String>>()?,
                traced: match field(w, "traced")? {
                    Json::Null => None,
                    t => Some(record_from(t)?),
                },
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Suite {
        seed: as_f64(&j, "seed")? as u64,
        seconds: as_f64(&j, "seconds")?,
        reps: as_f64(&j, "reps")? as usize,
        parallelism: as_f64(&j, "parallelism")? as usize,
        wall_s: as_f64(&j, "wall_s")?,
        workloads,
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// The runs of the two sides interleave and their spread exceeds the
    /// bound: more runs are needed before anything can be said.
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static EndToEnd,
    pub base: f64,
    pub other: f64,
    /// (max - min) / median over each side's repetitions.
    pub base_spread: f64,
    pub other_spread: f64,
    pub verdict: Verdict,
}

fn spread(values: &[f64]) -> f64 {
    let (lo, hi) = min_max(values);
    (hi - lo) / median(values)
}

pub fn judge(metric: &EndToEnd, base: &[f64], other: &[f64]) -> Verdict {
    if base.len() == other.len()
        && base
            .iter()
            .zip(other)
            .all(|(a, b)| a.to_bits() == b.to_bits())
    {
        return Verdict::Unchanged;
    }
    let ((alo, ahi), (blo, bhi)) = (min_max(base), min_max(other));
    let interleave = alo <= bhi && blo <= ahi;
    if interleave && spread(base).max(spread(other)) > metric.bound {
        return Verdict::Unresolved;
    }
    let worse = metric.worsening(median(base), median(other));
    if worse > metric.bound {
        Verdict::Regressed
    } else if worse < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One row per (workload, end-to-end metric) present on both sides.
pub fn compare(base: &Suite, other: &Suite) -> Vec<Row> {
    let mut rows = Vec::new();
    for a in &base.workloads {
        let Some(b) = other.workloads.iter().find(|w| w.name == a.name) else {
            continue;
        };
        for metric in &metrics::END_TO_END {
            let (va, vb) = (a.values(metric.name), b.values(metric.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            rows.push(Row {
                workload: a.name.clone(),
                metric,
                base: median(&va),
                other: median(&vb),
                base_spread: spread(&va),
                other_spread: spread(&vb),
                verdict: judge(metric, &va, &vb),
            });
        }
    }
    rows
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<14} {:<22} {:<6} {:>12} {:>7} {:>12} {:>7} {:>16} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "A sprd",
        "B median",
        "B sprd",
        "(B-A)/A",
        "bound"
    );
    for r in rows {
        println!(
            "{:<14} {:<22} {:<6} {:>12.4} {:>6.1}% {:>12.4} {:>6.1}% {:>+10.2}% of A {:>5.1}%  {}",
            r.workload,
            r.metric.name,
            r.metric.unit,
            r.base,
            r.base_spread * 100.0,
            r.other,
            r.other_spread * 100.0,
            (r.other - r.base) / r.base * 100.0,
            r.metric.bound * 100.0,
            r.verdict.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(value: f64) -> Record {
        Record {
            workload: "wire".into(),
            seed: 3,
            seconds: 15.0,
            trace: false,
            attempted: 10,
            failed: 0,
            first_failure: None,
            state_hash: "00ff".into(),
            wall_s: 1.25,
            end_to_end: vec![
                Metric::timed("drain_p50_ms", value, "ms", 200),
                Metric::exact("total_cost", 325366.9626020228, "cost"),
            ],
            per_layer: vec![Metric::exact("core.cache.hits", 14.0, "count")],
        }
    }

    #[test]
    fn records_round_trip_with_every_digit() {
        let r = record(1.2034567891234567);
        assert_eq!(parse_record(&record_json(&r)).unwrap(), r);
        let line = contract_line(&r);
        let j = mini_json::parse(&line).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let m = j.get("metrics").unwrap();
        assert!(m.get("drain_p50_ms").is_some() && m.get("core.cache.hits").is_none());
        let mut traced = r.clone();
        traced.trace = true;
        traced.failed = 1;
        traced.first_failure = Some("a \"quoted\" failure".into());
        let j = mini_json::parse(&contract_line(&traced)).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        assert!(j.get("metrics").unwrap().get("core.cache.hits").is_some());
        assert_eq!(parse_record(&record_json(&traced)).unwrap(), traced);
    }

    #[test]
    fn suites_round_trip_and_flag_nondeterminism() {
        let mut other = record(2.0);
        // One unit in the last place apart.
        other.end_to_end[1].value = f64::from_bits(other.end_to_end[1].value.to_bits() + 1);
        let s = Suite {
            seed: 3,
            seconds: 15.0,
            reps: 2,
            parallelism: 2,
            wall_s: 9.5,
            workloads: vec![WorkloadRuns {
                name: "wire".into(),
                runs: vec![record(1.0), other],
                traced: Some(record(1.5)),
            }],
        };
        let back = parse_suite(&suite_json(&s)).unwrap();
        assert_eq!(back.workloads[0].runs, s.workloads[0].runs);
        assert_eq!(back.workloads[0].traced, s.workloads[0].traced);
        assert_eq!(back.workloads[0].values("drain_p50_ms"), vec![1.0, 2.0]);
        let bad = back.workloads[0].determinism_failures();
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("total_cost"));
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let m = metrics::find("drain_p50_ms").unwrap(); // lower is better, 25 %
        assert_eq!(
            judge(m, &[10.0, 10.1, 9.9], &[10.0, 10.1, 9.9]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(m, &[10.0, 10.1, 9.9], &[11.5, 11.6, 11.4]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(m, &[10.0, 10.1, 9.9], &[13.0, 13.1, 12.9]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(m, &[10.0, 10.1, 9.9], &[7.0, 7.1, 6.9]),
            Verdict::Improved
        );
        // Wide and interleaved: nothing can be said.
        assert_eq!(
            judge(m, &[10.0, 14.0, 9.0], &[12.5, 9.5, 13.0]),
            Verdict::Unresolved
        );
        // Wide but every run of B is worse than every run of A.
        assert_eq!(
            judge(m, &[10.0, 12.0, 9.0], &[15.0, 19.0, 14.0]),
            Verdict::Regressed
        );
        let q = metrics::find("plan_qps").unwrap(); // higher is better
        assert_eq!(judge(q, &[100.0, 101.0], &[70.0, 71.0]), Verdict::Regressed);
        assert_eq!(
            judge(q, &[100.0, 101.0], &[140.0, 141.0]),
            Verdict::Improved
        );
    }
}
