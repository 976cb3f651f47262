//! Harness-side span recording for the traced pass.
//!
//! Spans are taken around each call into a layer, from the benchmark's own
//! files; nothing is added to any crate under test. They are held in memory
//! and written when the run ends. Untraced runs carry a disabled recorder,
//! which costs one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Request id shared by every span of one request (0 = set-up work).
    pub req: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle for an open span; `None` when recording is off.
pub type Token = Option<u32>;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Pause or resume recording (the traced pass alternates traced and
    /// untraced cycles to measure its own overhead).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggle only between spans");
        self.on = on;
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / 1e3
    }

    pub fn enter(&mut self, name: &'static str, req: u64) -> Token {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let now = self.now_us();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            req,
            name,
            start_us: now,
            end_us: now,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn exit(&mut self, token: Token) {
        let Some(id) = token else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_us = self.now_us();
    }

    /// Time one call as a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let token = self.enter(name, req);
        let out = f();
        self.exit(token);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span name: self time (duration minus the part its children cover)
/// in microseconds, and how many spans carried the name.
pub fn rollup(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p as usize] += s.end_us - s.start_us;
        }
    }
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0.0, 0));
        e.0 += (s.end_us - s.start_us) - child_us[s.id as usize];
        e.1 += 1;
    }
    out
}

pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}\n",
            s.id, parent, s.req, s.name, s.start_us, s.end_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // request [0,100] > parse [5,15], submit [20,90] > drain [30,80]
        let tree = vec![
            span(0, None, "request", 0.0, 100.0),
            span(1, Some(0), "parse", 5.0, 15.0),
            span(2, Some(0), "submit", 20.0, 90.0),
            span(3, Some(2), "drain", 30.0, 80.0),
            span(4, None, "request", 200.0, 210.0),
        ];
        let r = rollup(&tree);
        assert_eq!(r["request"], (20.0 + 10.0, 2));
        assert_eq!(r["parse"], (10.0, 1));
        assert_eq!(r["submit"], (20.0, 1));
        assert_eq!(r["drain"], (50.0, 1));
        let total: f64 = r.values().map(|v| v.0).sum();
        assert_eq!(total, 110.0, "self times partition the root durations");
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("request", 7);
        t.span("parse", 7, || ());
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_us >= t.spans()[1].end_us);
        assert!(to_jsonl(t.spans()).lines().count() == 2);

        let mut off = Tracer::new(false);
        let tok = off.enter("request", 1);
        off.exit(tok);
        assert!(off.spans().is_empty());
    }
}
