//! The service's JSONL request protocol.
//!
//! One request per line, one JSON object per request, one JSON response
//! line per request. Parsing uses [`dsq_obs::mini_json`] (the offline
//! workspace has no serde implementation) and response building uses the
//! same escaping as [`dsq_obs::json`], so transcripts are byte-deterministic.
//!
//! Requests:
//!
//! ```json
//! {"op":"register","id":3,"sources":[0,2,5],"sink":7,"at_ms":120,"deadline_ms":500}
//! {"op":"unregister","id":3,"at_ms":900}
//! {"op":"replan","id":3,"at_ms":950}
//! {"op":"fault","kind":"crash","node":5,"at_ms":1200}
//! {"op":"fault","kind":"rejoin","node":5,"at_ms":1300}
//! {"op":"fault","kind":"degrade","a":1,"b":2,"factor_milli":8000,"at_ms":1400}
//! {"op":"observe","stream":2,"rate_milli":45000,"at_ms":1450}
//! {"op":"drain","at_ms":1500}
//! {"op":"query","id":3}
//! {"op":"stats"}
//! ```
//!
//! `at_ms` is the request's *virtual* arrival time: the service is a
//! deterministic state machine over its input, so clients (and the journal)
//! carry time explicitly rather than reading a wall clock. Deadlines are
//! evaluated against the drain's `at_ms`.

use dsq_obs::mini_json::{self, Json};

/// A node-level fault report delivered to the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultReq {
    /// A physical node crashed.
    Crash(u32),
    /// A previously crashed node rejoined.
    Rejoin(u32),
    /// A link's cost was multiplied by `factor_milli / 1000`.
    Degrade {
        /// Link endpoint.
        a: u32,
        /// Link endpoint.
        b: u32,
        /// Cost multiplier in thousandths (8000 = 8×).
        factor_milli: u64,
    },
}

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Register a new standing query over catalog streams.
    Register {
        /// Client-chosen query id (must be unused).
        id: u32,
        /// Catalog stream ids the query joins.
        sources: Vec<u32>,
        /// Node results are delivered to.
        sink: u32,
        /// Per-request deadline override (`None` = config default).
        deadline_ms: Option<u64>,
        /// Virtual arrival time.
        at_ms: u64,
    },
    /// Remove a standing query.
    Unregister {
        /// Query id.
        id: u32,
        /// Virtual arrival time.
        at_ms: u64,
    },
    /// Force a replan of a standing query at the next drain.
    Replan {
        /// Query id.
        id: u32,
        /// Per-request deadline override.
        deadline_ms: Option<u64>,
        /// Virtual arrival time.
        at_ms: u64,
    },
    /// Report a node-level fault.
    Fault {
        /// The fault.
        fault: FaultReq,
        /// Virtual arrival time.
        at_ms: u64,
    },
    /// Report a stream's measured rate (a data-condition change): standing
    /// plans are re-estimated and the degraded ones replanned.
    Observe {
        /// Catalog stream id.
        stream: u32,
        /// Measured rate in thousandths of a tuple per time unit (nonzero).
        rate_milli: u64,
        /// Virtual arrival time.
        at_ms: u64,
    },
    /// Flush the queue: apply every queued request and run one planning
    /// wave.
    Drain {
        /// Virtual drain time (deadlines are evaluated against this).
        at_ms: u64,
    },
    /// Read-only: current plan hand-off for one query.
    Query {
        /// Query id.
        id: u32,
    },
    /// Read-only: service counters and epoch.
    Stats,
}

impl Request {
    /// Does this request mutate service state (and therefore get journaled
    /// and queued)?
    pub fn is_mutating(&self) -> bool {
        !matches!(self, Request::Query { .. } | Request::Stats)
    }

    /// Is this a new-query registration (shed first under overload)?
    pub fn is_register(&self) -> bool {
        matches!(self, Request::Register { .. })
    }

    /// The protocol op name (echoed in responses).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Register { .. } => "register",
            Request::Unregister { .. } => "unregister",
            Request::Replan { .. } => "replan",
            Request::Fault { .. } => "fault",
            Request::Observe { .. } => "observe",
            Request::Drain { .. } => "drain",
            Request::Query { .. } => "query",
            Request::Stats => "stats",
        }
    }

    /// The query id the request targets, if any.
    pub fn id(&self) -> Option<u32> {
        match self {
            Request::Register { id, .. }
            | Request::Unregister { id, .. }
            | Request::Replan { id, .. }
            | Request::Query { id } => Some(*id),
            _ => None,
        }
    }

    /// Parse one JSONL request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let j = mini_json::parse(line)?;
        let op = str_field(&j, "op")?;
        // `at_ms` may be left out (arrival at time 0), but not malformed.
        let at = |j: &Json| opt_u64_field(j, "at_ms").map(|at| at.unwrap_or(0));
        match op.as_str() {
            "register" => Ok(Request::Register {
                id: u32_field(&j, "id")?,
                sources: u32_list(&j, "sources")?,
                sink: u32_field(&j, "sink")?,
                deadline_ms: opt_u64_field(&j, "deadline_ms")?,
                at_ms: at(&j)?,
            }),
            "unregister" => Ok(Request::Unregister {
                id: u32_field(&j, "id")?,
                at_ms: at(&j)?,
            }),
            "replan" => Ok(Request::Replan {
                id: u32_field(&j, "id")?,
                deadline_ms: opt_u64_field(&j, "deadline_ms")?,
                at_ms: at(&j)?,
            }),
            "fault" => {
                let kind = str_field(&j, "kind")?;
                let fault = match kind.as_str() {
                    "crash" => FaultReq::Crash(u32_field(&j, "node")?),
                    "rejoin" => FaultReq::Rejoin(u32_field(&j, "node")?),
                    "degrade" => FaultReq::Degrade {
                        a: u32_field(&j, "a")?,
                        b: u32_field(&j, "b")?,
                        factor_milli: u64_field(&j, "factor_milli")?,
                    },
                    other => return Err(format!("unknown fault kind {other:?}")),
                };
                Ok(Request::Fault {
                    fault,
                    at_ms: at(&j)?,
                })
            }
            "observe" => Ok(Request::Observe {
                stream: u32_field(&j, "stream")?,
                rate_milli: u64_field(&j, "rate_milli")?,
                at_ms: at(&j)?,
            }),
            "drain" => Ok(Request::Drain { at_ms: at(&j)? }),
            "query" => Ok(Request::Query {
                id: u32_field(&j, "id")?,
            }),
            "stats" => Ok(Request::Stats),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

fn str_field(j: &Json, key: &str) -> Result<String, String> {
    match j.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("{key} must be a string")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn num_field(j: &Json, key: &str) -> Result<f64, String> {
    match j.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        Some(_) => Err(format!("{key} must be a number")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn u64_field(j: &Json, key: &str) -> Result<u64, String> {
    let n = num_field(j, key)?;
    if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
        return Err(format!("{key} must be a nonnegative integer"));
    }
    Ok(n as u64)
}

fn u32_field(j: &Json, key: &str) -> Result<u32, String> {
    let n = u64_field(j, key)?;
    u32::try_from(n).map_err(|_| format!("{key} out of range"))
}

/// An optional integer: absent or `null` is `None`, anything else must be
/// a valid nonnegative integer.
fn opt_u64_field(j: &Json, key: &str) -> Result<Option<u64>, String> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(_) => u64_field(j, key).map(Some),
    }
}

fn u32_list(j: &Json, key: &str) -> Result<Vec<u32>, String> {
    match j.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|it| match it {
                Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                    Ok(*n as u32)
                }
                _ => Err(format!("{key} must be an array of stream ids")),
            })
            .collect(),
        Some(_) => Err(format!("{key} must be an array")),
        None => Err(format!("missing field {key:?}")),
    }
}

/// Build an error response line.
pub fn resp_error(op: &str, id: Option<u32>, error: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"op\":");
    dsq_obs::json::push_str(&mut out, op);
    if let Some(id) = id {
        out.push_str(&format!(",\"id\":{id}"));
    }
    out.push_str(",\"error\":");
    dsq_obs::json::push_str(&mut out, error);
    out.push('}');
    out
}

/// Build a success response line from pre-rendered `"key":value` pairs.
pub fn resp_ok(op: &str, fields: &[(&str, String)]) -> String {
    let mut out = String::from("{\"ok\":true,\"op\":");
    dsq_obs::json::push_str(&mut out, op);
    for (k, v) in fields {
        out.push(',');
        dsq_obs::json::push_str(&mut out, k);
        out.push(':');
        out.push_str(v);
    }
    out.push('}');
    out
}

/// Render an `f64` exactly as the obs JSON writer would (deterministic).
pub fn render_f64(v: f64) -> String {
    let mut s = String::new();
    dsq_obs::json::push_f64(&mut s, v);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_requests() {
        let r = Request::parse(
            r#"{"op":"register","id":3,"sources":[0,2,5],"sink":7,"at_ms":120,"deadline_ms":500}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Register {
                id: 3,
                sources: vec![0, 2, 5],
                sink: 7,
                deadline_ms: Some(500),
                at_ms: 120
            }
        );
        assert!(Request::parse(r#"{"op":"stats"}"#).unwrap() == Request::Stats);
        let o = Request::parse(r#"{"op":"observe","stream":2,"rate_milli":45000,"at_ms":7}"#);
        assert_eq!(
            o.unwrap(),
            Request::Observe {
                stream: 2,
                rate_milli: 45000,
                at_ms: 7
            }
        );
        let f = Request::parse(
            r#"{"op":"fault","kind":"degrade","a":1,"b":2,"factor_milli":8000,"at_ms":9}"#,
        )
        .unwrap();
        assert_eq!(
            f,
            Request::Fault {
                fault: FaultReq::Degrade {
                    a: 1,
                    b: 2,
                    factor_milli: 8000
                },
                at_ms: 9
            }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"op":"register","id":-1}"#).is_err());
        assert!(Request::parse(r#"{"op":"warp"}"#).is_err());
        assert!(Request::parse(r#"{"op":"fault","kind":"meteor"}"#).is_err());
        assert!(Request::parse(r#"{"op":"observe","stream":1,"rate_milli":-2}"#).is_err());
        assert!(Request::parse(r#"{"op":"observe","rate_milli":2}"#).is_err());
        // Optional fields may be absent or null, never malformed.
        let register = |extra: &str| {
            Request::parse(&format!(
                r#"{{"op":"register","id":1,"sources":[0,1],"sink":2{extra}}}"#
            ))
        };
        assert!(register("").is_ok());
        assert!(register(r#","deadline_ms":null,"at_ms":null"#).is_ok());
        assert!(register(r#","deadline_ms":"500""#).is_err());
        assert!(register(r#","deadline_ms":-5"#).is_err());
        assert!(register(r#","deadline_ms":1.5"#).is_err());
        assert!(register(r#","at_ms":"10""#).is_err());
        assert!(register(r#","at_ms":-1"#).is_err());
        assert!(Request::parse(r#"{"op":"replan","id":1,"deadline_ms":true}"#).is_err());
        assert!(Request::parse(r#"{"op":"drain","at_ms":"soon"}"#).is_err());
    }

    #[test]
    fn responses_are_well_formed_json() {
        let ok = resp_ok("drain", &[("epoch", "3".into()), ("planned", "2".into())]);
        let parsed = mini_json::parse(&ok).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("epoch"), Some(&Json::Num(3.0)));
        let err = resp_error("register", Some(7), "overloaded");
        let parsed = mini_json::parse(&err).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("error"), Some(&Json::Str("overloaded".into())));
    }
}
