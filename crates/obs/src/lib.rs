//! # dsq-obs — structured observability for the dsq workspace
//!
//! A zero-dependency event sink in the spirit of the `compat/*` shims: it
//! builds with nothing but the standard library, so instrumentation can be
//! compiled into every crate without dragging a tracing framework into the
//! offline workspace.
//!
//! ## Model
//!
//! A [`Sink`] collects three kinds of data:
//!
//! * **events** — timestamped structured records (`name` plus typed fields),
//!   optionally carrying a duration when emitted by a [`SpanGuard`];
//! * **counters** — monotonically increasing `u64` totals keyed by name;
//! * **histograms** — `count/sum/min/max` aggregates of observed `f64`s.
//!
//! Timestamps come from an injectable clock ([`ClockMode`]): the *virtual*
//! clock is a deterministic tick counter (one tick per timestamp request), so
//! two runs of the same seeded workload produce **byte-identical** JSONL
//! traces; the *monotonic* clock reports real elapsed microseconds.
//!
//! ## Resolution
//!
//! Instrumented code calls the free functions ([`counter`], [`observe`],
//! [`event`], [`span`]). They resolve the destination sink as:
//!
//! 1. the innermost sink scoped to the current thread via [`scoped`], else
//! 2. the process-wide sink installed with [`set_global`], else
//! 3. a no-op — the default. The disabled fast path is a single relaxed
//!    atomic load, so instrumentation left in hot code costs effectively
//!    nothing when no sink is active.
//!
//! Tests should use [`scoped`] (thread-local) rather than [`set_global`]:
//! `cargo test` runs tests on concurrent threads and a global sink would
//! interleave their events.

pub mod kv;
pub mod mini_json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Which clock stamps events recorded by a [`Sink`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockMode {
    /// Real elapsed microseconds since the sink was created.
    Monotonic,
    /// A deterministic logical clock: every timestamp request returns the
    /// next tick (0, 1, 2, …). Use this wherever byte-identical traces are
    /// required — simulations, `dsqctl trace`, and tests.
    Virtual,
}

enum Clock {
    Monotonic(Instant),
    Virtual(AtomicU64),
}

impl Clock {
    fn now_us(&self) -> u64 {
        match self {
            Clock::Monotonic(start) => start.elapsed().as_micros() as u64,
            Clock::Virtual(ticks) => ticks.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// A typed field value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer field.
    U64(u64),
    /// Floating-point field (serialized with Rust's shortest-roundtrip
    /// `Display`, so it is deterministic; non-finite values become `null`).
    F64(f64),
    /// String field.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One structured trace record.
#[derive(Clone, Debug)]
pub struct Event {
    /// Timestamp in clock units (microseconds or virtual ticks).
    pub ts_us: u64,
    /// Event name, dot-separated by convention (`"topdown.cell"`).
    pub name: String,
    /// Duration in clock units when the event closes a span.
    pub dur_us: Option<u64>,
    /// Ordered typed fields.
    pub fields: Vec<(&'static str, Value)>,
}

/// `count/sum/min/max` aggregate of the values fed to [`observe`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl Histogram {
    fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Arithmetic mean of the observations, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Fold another histogram's aggregate into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[derive(Default)]
struct Inner {
    events: Vec<Event>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A thread-safe collector of events, counters and histograms.
pub struct Sink {
    clock: Clock,
    inner: Mutex<Inner>,
}

impl Sink {
    /// Create a sink stamping events with the given clock.
    pub fn new(mode: ClockMode) -> Arc<Sink> {
        let clock = match mode {
            ClockMode::Monotonic => Clock::Monotonic(Instant::now()),
            ClockMode::Virtual => Clock::Virtual(AtomicU64::new(0)),
        };
        Arc::new(Sink {
            clock,
            inner: Mutex::new(Inner::default()),
        })
    }

    /// Current timestamp in clock units (advances the virtual clock).
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// The clock mode this sink stamps events with (lets parallel regions
    /// create sub-sinks that tick the same way as their parent).
    pub fn clock_mode(&self) -> ClockMode {
        match self.clock {
            Clock::Monotonic(_) => ClockMode::Monotonic,
            Clock::Virtual(_) => ClockMode::Virtual,
        }
    }

    /// Record a structured event.
    pub fn event(&self, name: &str, fields: Vec<(&'static str, Value)>) {
        let ts_us = self.clock.now_us();
        self.push(Event {
            ts_us,
            name: name.to_string(),
            dur_us: None,
            fields,
        });
    }

    fn push(&self, ev: Event) {
        self.inner.lock().unwrap().events.push(ev);
    }

    /// Add `delta` to the named counter.
    pub fn counter(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        match inner.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Feed one value into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(h) = inner.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::default();
            h.record(value);
            inner.histograms.insert(name.to_string(), h);
        }
    }

    /// Copy out the aggregate state (counters and histograms).
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            counters: inner.counters.clone(),
            histograms: inner.histograms.clone(),
        }
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// Fold another sink's recorded data into this one, in a deterministic
    /// order: events are appended in `sub`'s recording order with their
    /// timestamps **re-stamped** from this sink's clock (one tick per event
    /// under the virtual clock, durations preserved as recorded), then
    /// counters and histograms are merged by name.
    ///
    /// This is the reduction step for parallel instrumentation: give each
    /// worker its own virtual-clock sub-sink, then absorb the sub-sinks in a
    /// fixed order. The merged trace is byte-identical regardless of how the
    /// workers were scheduled — or whether they ran on threads at all.
    pub fn absorb(&self, sub: &Sink) {
        if std::ptr::eq(self, sub) {
            return;
        }
        // Copy out of `sub` before touching our own lock (no nested locks).
        let (events, counters, histograms) = {
            let inner = sub.inner.lock().unwrap();
            (
                inner.events.clone(),
                inner.counters.clone(),
                inner.histograms.clone(),
            )
        };
        for mut ev in events {
            ev.ts_us = self.clock.now_us();
            self.push(ev);
        }
        let mut inner = self.inner.lock().unwrap();
        for (name, delta) in counters {
            *inner.counters.entry(name).or_insert(0) += delta;
        }
        for (name, h) in histograms {
            inner.histograms.entry(name).or_default().merge(&h);
        }
    }

    /// Serialize the full sink as JSON Lines.
    ///
    /// Events come first in recording order, then one `{"counter": ...}` line
    /// per counter and one `{"hist": ...}` line per histogram, each in
    /// lexicographic name order. The output ends with a newline (when
    /// non-empty) and is byte-deterministic for a given recorded sequence.
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        for ev in &inner.events {
            out.push_str("{\"ts_us\":");
            let _ = write!(out, "{}", ev.ts_us);
            out.push_str(",\"event\":");
            json::push_str(&mut out, &ev.name);
            if let Some(dur) = ev.dur_us {
                let _ = write!(out, ",\"dur_us\":{dur}");
            }
            for (key, value) in &ev.fields {
                out.push(',');
                json::push_str(&mut out, key);
                out.push(':');
                json::push_value(&mut out, value);
            }
            out.push_str("}\n");
        }
        for (name, value) in &inner.counters {
            out.push_str("{\"counter\":");
            json::push_str(&mut out, name);
            let _ = write!(out, ",\"value\":{value}}}");
            out.push('\n');
        }
        for (name, h) in &inner.histograms {
            out.push_str("{\"hist\":");
            json::push_str(&mut out, name);
            let _ = write!(out, ",\"count\":{}", h.count);
            out.push_str(",\"sum\":");
            json::push_f64(&mut out, h.sum);
            out.push_str(",\"min\":");
            json::push_f64(&mut out, h.min);
            out.push_str(",\"max\":");
            json::push_f64(&mut out, h.max);
            out.push_str("}\n");
        }
        out
    }
}

/// 64-bit FNV-1a of `bytes`: the workspace's one content hash (snapshot
/// trailers, SQL string codes, golden digests). Stable across platforms
/// and releases, unlike `std`'s hashers.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Aggregate state copied out of a [`Sink`] by [`Sink::snapshot`].
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter totals, keyed by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram aggregates, keyed by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// Serialize as a single JSON object:
    /// `{"counters":{...},"histograms":{name:{"count":..,"sum":..,"min":..,"max":..},..}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            let _ = write!(out, ":{{\"count\":{}", h.count);
            out.push_str(",\"sum\":");
            json::push_f64(&mut out, h.sum);
            out.push_str(",\"min\":");
            json::push_f64(&mut out, h.min);
            out.push_str(",\"max\":");
            json::push_f64(&mut out, h.max);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// Minimal deterministic JSON encoding helpers (no serializer in the offline
/// workspace — the `serde` shim only provides no-op derives).
pub mod json {
    use super::Value;
    use std::fmt::Write as _;

    /// Append `s` as a JSON string literal (quoted, escaped).
    pub fn push_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Append `v` as a JSON number using Rust's shortest-roundtrip `Display`
    /// (deterministic); non-finite values become `null`.
    pub fn push_f64(out: &mut String, v: f64) {
        if v.is_finite() {
            let _ = write!(out, "{v}");
        } else {
            out.push_str("null");
        }
    }

    /// Append a typed field [`Value`].
    pub fn push_value(out: &mut String, v: &Value) {
        match v {
            Value::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Value::F64(x) => push_f64(out, *x),
            Value::Str(s) => push_str(out, s),
        }
    }
}

// --- current-sink resolution -------------------------------------------------

/// Count of live scoped guards plus installed globals; the disabled fast path
/// checks this single atomic and bails.
static ACTIVE_SINKS: AtomicUsize = AtomicUsize::new(0);
static GLOBAL: OnceLock<Arc<Sink>> = OnceLock::new();

thread_local! {
    static SCOPE_STACK: RefCell<Vec<Arc<Sink>>> = const { RefCell::new(Vec::new()) };
}

/// True when some sink (scoped on this thread or global) would receive data.
///
/// Use to guard instrumentation whose *inputs* are costly to compute; the
/// recording functions already check this themselves.
#[inline]
pub fn enabled() -> bool {
    current().is_some()
}

#[inline]
fn current() -> Option<Arc<Sink>> {
    if ACTIVE_SINKS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    SCOPE_STACK
        .with(|s| s.borrow().last().cloned())
        .or_else(|| GLOBAL.get().cloned())
}

/// Routes this thread's instrumentation to a sink until dropped.
///
/// Guards nest (innermost wins) and must be dropped on the thread that
/// created them — the type is `!Send` to enforce this.
pub struct ScopeGuard {
    _not_send: PhantomData<*const ()>,
}

/// Make `sink` the current sink for this thread for the guard's lifetime.
pub fn scoped(sink: Arc<Sink>) -> ScopeGuard {
    SCOPE_STACK.with(|s| s.borrow_mut().push(sink));
    ACTIVE_SINKS.fetch_add(1, Ordering::Relaxed);
    ScopeGuard {
        _not_send: PhantomData,
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE_STACK.with(|s| s.borrow_mut().pop());
        ACTIVE_SINKS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Install a process-wide fallback sink (used when no scoped sink is active
/// on the calling thread). Returns `false` if a global was already installed;
/// the global cannot be replaced. Prefer [`scoped`] in tests.
pub fn set_global(sink: Arc<Sink>) -> bool {
    let installed = GLOBAL.set(sink).is_ok();
    if installed {
        ACTIVE_SINKS.fetch_add(1, Ordering::Relaxed);
    }
    installed
}

/// A cloneable, `Send` handle to the sink that was current when it was
/// captured — the bridge that carries [`scoped`] instrumentation across
/// thread boundaries.
///
/// [`scoped`] sinks live in a thread-local stack, so code running inside a
/// rayon worker (or any spawned thread) silently loses its events: the
/// worker's stack is empty and, absent a global sink, everything emitted
/// there is dropped. Capture a handle *before* fanning out and
/// [`install`](SinkHandle::install) it inside each task:
///
/// ```
/// use dsq_obs::{scoped, ClockMode, Sink, SinkHandle};
///
/// let sink = Sink::new(ClockMode::Virtual);
/// let guard = scoped(sink.clone());
/// let handle = SinkHandle::capture();
/// std::thread::scope(|s| {
///     s.spawn(|| {
///         let _g = handle.install();
///         dsq_obs::counter("worker.items", 1); // reaches `sink`
///     });
/// });
/// drop(guard);
/// assert_eq!(sink.snapshot().counters["worker.items"], 1);
/// ```
///
/// A handle captured with no current sink installs nothing (instrumentation
/// inside the task falls back to the global sink, matching the behaviour on
/// the capturing thread).
#[derive(Clone, Default)]
pub struct SinkHandle {
    sink: Option<Arc<Sink>>,
}

impl SinkHandle {
    /// Capture the calling thread's current sink (scoped innermost, else
    /// global, else none).
    pub fn capture() -> SinkHandle {
        SinkHandle { sink: current() }
    }

    /// A handle that installs nothing (instrumentation falls through to the
    /// installing thread's own resolution).
    pub fn inactive() -> SinkHandle {
        SinkHandle { sink: None }
    }

    /// True when a sink was captured and `install` would route to it.
    pub fn is_active(&self) -> bool {
        self.sink.is_some()
    }

    /// The captured sink, if any.
    pub fn sink(&self) -> Option<&Arc<Sink>> {
        self.sink.as_ref()
    }

    /// Make the captured sink current on *this* thread until the returned
    /// guard drops. With no captured sink this is a no-op guard.
    pub fn install(&self) -> HandleGuard {
        HandleGuard {
            _guard: self.sink.clone().map(scoped),
        }
    }
}

/// RAII guard returned by [`SinkHandle::install`]; like [`ScopeGuard`] it
/// must be dropped on the thread that created it.
pub struct HandleGuard {
    _guard: Option<ScopeGuard>,
}

// --- free recording functions ------------------------------------------------

/// Add `delta` to the named counter on the current sink (no-op when none).
#[inline]
pub fn counter(name: &str, delta: u64) {
    if let Some(sink) = current() {
        sink.counter(name, delta);
    }
}

/// Feed one value into the named histogram on the current sink.
#[inline]
pub fn observe(name: &str, value: f64) {
    if let Some(sink) = current() {
        sink.observe(name, value);
    }
}

/// Record a structured event on the current sink. The field vector is built
/// lazily, so a disabled call never allocates.
#[inline]
pub fn event<F>(name: &str, fields: F)
where
    F: FnOnce() -> Vec<(&'static str, Value)>,
{
    if let Some(sink) = current() {
        sink.event(name, fields());
    }
}

/// Open a span: on drop, records `name` with a `dur_us` of the clock units
/// elapsed since the call. Fields are built lazily at open time.
///
/// Under the virtual clock a span costs two ticks (open + close), so its
/// duration reflects the number of timestamps drawn while it was live —
/// deterministic, not wall time.
#[inline]
pub fn span<F>(name: &'static str, fields: F) -> SpanGuard
where
    F: FnOnce() -> Vec<(&'static str, Value)>,
{
    match current() {
        Some(sink) => {
            let start = sink.now_us();
            SpanGuard {
                active: Some(OpenSpan {
                    sink,
                    name,
                    start,
                    fields: fields(),
                }),
            }
        }
        None => SpanGuard { active: None },
    }
}

/// In-flight span state held by a [`SpanGuard`] while a sink is active.
struct OpenSpan {
    sink: Arc<Sink>,
    name: &'static str,
    start: u64,
    fields: Vec<(&'static str, Value)>,
}

/// RAII guard returned by [`span`]; records the closing event on drop.
pub struct SpanGuard {
    active: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(OpenSpan {
            sink,
            name,
            start,
            fields,
        }) = self.active.take()
        {
            let end = sink.now_us();
            sink.push(Event {
                ts_us: start,
                name: name.to_string(),
                dur_us: Some(end.saturating_sub(start)),
                fields,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_ticks_deterministically() {
        let sink = Sink::new(ClockMode::Virtual);
        assert_eq!(sink.now_us(), 0);
        assert_eq!(sink.now_us(), 1);
        sink.event("a", vec![]);
        let jsonl = sink.to_jsonl();
        assert!(jsonl.contains("{\"ts_us\":2,\"event\":\"a\"}"), "{jsonl}");
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let sink = Sink::new(ClockMode::Virtual);
        sink.counter("x", 2);
        sink.counter("x", 3);
        sink.observe("h", 1.0);
        sink.observe("h", 3.0);
        let snap = sink.snapshot();
        assert_eq!(snap.counters["x"], 5);
        let h = snap.histograms["h"];
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 4.0, 1.0, 3.0));
        assert_eq!(h.mean(), 2.0);
    }

    #[test]
    fn jsonl_is_byte_deterministic_for_same_sequence() {
        let run = || {
            let sink = Sink::new(ClockMode::Virtual);
            sink.event("plan", vec![("level", 2u64.into()), ("slack", 1.5.into())]);
            sink.counter("b", 1);
            sink.counter("a", 7);
            sink.observe("lat", 2.25);
            sink.to_jsonl()
        };
        let a = run();
        assert_eq!(a, run());
        // Counters serialize in name order regardless of insertion order.
        let b_pos = a.find("\"counter\":\"b\"").unwrap();
        let a_pos = a.find("\"counter\":\"a\"").unwrap();
        assert!(a_pos < b_pos, "{a}");
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        json::push_str(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
        let mut nan = String::new();
        json::push_f64(&mut nan, f64::NAN);
        assert_eq!(nan, "null");
    }

    #[test]
    fn free_functions_are_noops_without_a_sink() {
        // No scoped sink on this thread; must not panic or record anywhere.
        counter("nothing", 1);
        observe("nothing", 1.0);
        event("nothing", Vec::new);
        drop(span("nothing", Vec::new));
    }

    #[test]
    fn scoped_sink_captures_and_nests() {
        let outer = Sink::new(ClockMode::Virtual);
        let inner = Sink::new(ClockMode::Virtual);
        let _g1 = scoped(outer.clone());
        counter("depth", 1);
        {
            let _g2 = scoped(inner.clone());
            counter("depth", 10);
            let s = span("work", || vec![("k", "v".into())]);
            drop(s);
        }
        counter("depth", 1);
        assert_eq!(outer.snapshot().counters["depth"], 2);
        assert_eq!(inner.snapshot().counters["depth"], 10);
        let jsonl = inner.to_jsonl();
        assert!(
            jsonl.contains("\"event\":\"work\",\"dur_us\":1,\"k\":\"v\""),
            "{jsonl}"
        );
    }

    #[test]
    fn span_durations_use_virtual_ticks() {
        let sink = Sink::new(ClockMode::Virtual);
        let _g = scoped(sink.clone());
        {
            let _s = span("outer", Vec::new);
            sink.now_us(); // one tick inside the span
        }
        let jsonl = sink.to_jsonl();
        assert!(jsonl.contains("\"dur_us\":2"), "{jsonl}");
    }

    #[test]
    fn scoped_sink_does_not_reach_spawned_threads_without_a_handle() {
        // The latent bug SinkHandle exists to fix: a scoped sink is
        // thread-local, so a bare spawned thread drops everything.
        let sink = Sink::new(ClockMode::Virtual);
        let _g = scoped(sink.clone());
        std::thread::scope(|s| {
            s.spawn(|| counter("lost", 1));
        });
        assert!(!sink.snapshot().counters.contains_key("lost"));
    }

    #[test]
    fn sink_handle_carries_scoped_sink_into_threads() {
        let sink = Sink::new(ClockMode::Virtual);
        let guard = scoped(sink.clone());
        let handle = SinkHandle::capture();
        assert!(handle.is_active());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let handle = handle.clone();
                s.spawn(move || {
                    let _g = handle.install();
                    counter("worker.items", 1);
                    observe("worker.load", 2.0);
                });
            }
        });
        drop(guard);
        let snap = sink.snapshot();
        assert_eq!(snap.counters["worker.items"], 4);
        assert_eq!(snap.histograms["worker.load"].count, 4);
    }

    #[test]
    fn inactive_handle_installs_nothing() {
        let handle = SinkHandle::capture(); // no sink current
        assert!(!handle.is_active());
        let _g = handle.install();
        counter("nowhere", 1); // must not panic
    }

    #[test]
    fn absorb_restamps_events_and_merges_aggregates() {
        let parent = Sink::new(ClockMode::Virtual);
        parent.event("before", vec![]); // tick 0
        let sub = Sink::new(ClockMode::Virtual);
        sub.event("sub.a", vec![]);
        sub.counter("c", 3);
        sub.observe("h", 1.0);
        {
            let _g = scoped(sub.clone());
            let s = span("sub.work", Vec::new);
            drop(s);
        }
        parent.absorb(&sub);
        parent.counter("c", 2);
        let jsonl = parent.to_jsonl();
        // Absorbed events are re-stamped with consecutive parent ticks, in
        // the sub-sink's recording order, durations preserved.
        assert!(
            jsonl.contains("{\"ts_us\":0,\"event\":\"before\"}"),
            "{jsonl}"
        );
        assert!(
            jsonl.contains("{\"ts_us\":1,\"event\":\"sub.a\"}"),
            "{jsonl}"
        );
        assert!(
            jsonl.contains("{\"ts_us\":2,\"event\":\"sub.work\",\"dur_us\":1}"),
            "{jsonl}"
        );
        let snap = parent.snapshot();
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.histograms["h"].count, 1);
    }

    #[test]
    fn absorb_merge_is_schedule_independent() {
        // Two sub-sinks filled "concurrently" merge to the same bytes as
        // when filled serially, because absorption order is fixed.
        let fill = |sink: &Sink, tag: u64| {
            sink.event("unit", vec![("tag", tag.into())]);
            sink.counter("n", tag);
        };
        let merged = |order: &[u64]| {
            let parent = Sink::new(ClockMode::Virtual);
            let subs: Vec<_> = (0..2).map(|_| Sink::new(ClockMode::Virtual)).collect();
            for &i in order {
                fill(&subs[i as usize], i + 1);
            }
            for sub in &subs {
                parent.absorb(sub);
            }
            parent.to_jsonl()
        };
        assert_eq!(merged(&[0, 1]), merged(&[1, 0]));
    }

    #[test]
    fn histogram_merge_handles_empties() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        b.record(2.0);
        b.record(6.0);
        a.merge(&b);
        assert_eq!((a.count, a.sum, a.min, a.max), (2, 8.0, 2.0, 6.0));
        a.merge(&Histogram::default());
        assert_eq!(a.count, 2);
    }

    #[test]
    fn fnv64_matches_the_published_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn snapshot_to_json_is_valid_shape() {
        let sink = Sink::new(ClockMode::Virtual);
        sink.counter("c", 1);
        sink.observe("h", 0.5);
        let json = sink.snapshot().to_json();
        assert!(json.starts_with("{\"counters\":{\"c\":1},\"histograms\":{\"h\":"));
        assert!(json.ends_with("}}"));
    }
}
