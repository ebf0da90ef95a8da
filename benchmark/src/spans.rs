//! The benchmark's own tracing: spans recorded around calls into the
//! product crates, kept in memory and written out when the run ends.
//!
//! Everything here runs on the benchmark's main thread, so a span's
//! children never overlap and self time is duration minus the summed
//! durations of direct children.

use s2e_obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Which exploration the span belongs to (set-up spans carry the
    /// id of the exploration they precede).
    pub exploration: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; `None` while tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Span recorder. Disabled (the untraced pass) it never reads the clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    exploration: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            exploration: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between explorations (the traced
    /// pass alternates the two to measure its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(
            self.stack.is_empty(),
            "toggling the tracer inside an open span"
        );
        self.enabled = enabled;
    }

    /// Spans recorded from here on belong to exploration `id`.
    pub fn set_exploration(&mut self, id: u32) {
        self.exploration = id;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            exploration: self.exploration,
        });
        self.stack.push(index);
        SpanId(Some(index))
    }

    /// Ends the span, and with it any span still open inside it: a
    /// panic caught further up (a failed exploration) unwinds past
    /// their exits.
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == index {
                return;
            }
        }
        panic!("exit of a span that is not open");
    }

    /// Records `f` as one span. For calls that open no spans of their own.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Aggregate of every span sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by direct children.
    pub self_ns: u64,
}

/// Per-name totals with self time (span minus children).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Durations of every span named `name`, in recording order.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// The trace file: the per-name summary over every traced exploration,
/// plus the individual spans of the first `keep_explorations` (a
/// 30 000-step exploration is 30 000 step spans; one is enough to read
/// a timeline from, the summary covers the rest).
pub fn trace_json(workload: &str, spans: &[Span], keep_explorations: u32) -> Json {
    let summary: Vec<Json> = self_times(spans)
        .into_iter()
        .map(|(name, t)| {
            Json::obj()
                .set("name", name)
                .set("count", t.count)
                .set("total_ns", t.total_ns)
                .set("self_ns", t.self_ns)
        })
        .collect();
    // Parent indices refer to the full recording; remap them to the
    // positions of the spans that are kept.
    let mut position = vec![None; spans.len()];
    let mut kept = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.exploration < keep_explorations {
            position[i] = Some(kept.len() as u64);
            kept.push(s);
        }
    }
    let rows: Vec<Json> = kept
        .iter()
        .map(|s| {
            let parent = s
                .parent
                .and_then(|p| position[p])
                .map_or(Json::Null, Json::from);
            Json::obj()
                .set("name", s.name)
                .set("start_ns", s.start_ns)
                .set("end_ns", s.end_ns)
                .set("parent", parent)
                .set("exploration", s.exploration)
        })
        .collect();
    Json::obj()
        .set("workload", workload)
        .set("spans_recorded", spans.len())
        .set("explorations_listed", keep_explorations)
        .set("summary", Json::Arr(summary))
        .set("spans", Json::Arr(rows))
}
