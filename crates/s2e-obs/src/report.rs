//! The unified end-of-run report.

use crate::counters::{prefixed, Counters};
use crate::json::{parse, Json, ParseError};
use crate::phase::{Phase, PhaseTotals};
use crate::ring::{Event, EventKind, WorkerTimeline};

/// Schema tag stamped into every serialized report.
pub const SCHEMA: &str = "s2e-run-report-v1";

/// One named group of counters snapshotted from a subsystem's stats
/// (`EngineStats`, `SolverStats`, block-cache, cache hierarchy, ...).
///
/// Counters are `(name, value)` pairs in insertion order; values are
/// f64 so one section type carries counts, ratios, and seconds alike.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricSection {
    /// Section name, e.g. `"engine"`, `"solver"`, `"dbt"`.
    pub name: String,
    /// Counters in insertion order.
    pub counters: Vec<(String, f64)>,
}

impl MetricSection {
    /// An empty section.
    pub fn new(name: &str) -> MetricSection {
        MetricSection {
            name: name.to_string(),
            counters: Vec::new(),
        }
    }

    /// The section of a `counters!` table: every row, in field order.
    pub fn of<T: Counters>(stats: &T) -> MetricSection {
        MetricSection::new(T::SECTION).table(stats, "")
    }

    /// Appends a counter (builder-style).
    pub fn counter(mut self, name: &str, value: impl Into<f64>) -> MetricSection {
        self.counters.push((name.to_string(), value.into()));
        self
    }

    /// Appends every row of a `counters!` table, keyed `prefix.key`
    /// (plain `key` when `prefix` is empty).
    pub fn table<T: Counters>(mut self, stats: &T, prefix: &str) -> MetricSection {
        stats.visit(&mut |row, value| {
            self.counters.push((prefixed(prefix, row.key), value as f64));
        });
        self
    }

    /// Looks a counter up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// Everything one run produced: wall clock, merged Fig.-9-style phase
/// totals, per-worker timelines, and named metric sections.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// End-to-end wall-clock time of the run, in nanoseconds.
    pub wall_ns: u64,
    /// Phase totals summed over all workers.
    pub phases: PhaseTotals,
    /// Per-worker recordings, ordered by worker index.
    pub workers: Vec<WorkerTimeline>,
    /// Snapshotted subsystem counters.
    pub sections: Vec<MetricSection>,
}

impl RunReport {
    /// An empty report for a run that took `wall_ns`.
    pub fn new(wall_ns: u64) -> RunReport {
        RunReport {
            wall_ns,
            ..RunReport::default()
        }
    }

    /// Adds one worker's timeline, folding its totals into the
    /// report-wide phase totals and keeping `workers` sorted.
    pub fn add_worker(&mut self, timeline: WorkerTimeline) {
        self.phases.merge(&timeline.totals);
        let at = self
            .workers
            .partition_point(|t| t.worker <= timeline.worker);
        self.workers.insert(at, timeline);
    }

    /// Adds a metric section.
    pub fn add_section(&mut self, section: MetricSection) {
        self.sections.push(section);
    }

    /// Looks a section up by name.
    pub fn section(&self, name: &str) -> Option<&MetricSection> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Serializes to the in-repo JSON harness.
    pub fn to_json(&self) -> Json {
        let mut workers = Vec::with_capacity(self.workers.len());
        for t in &self.workers {
            let mut events = Vec::with_capacity(t.events.len());
            for e in &t.events {
                events.push(event_to_json(e));
            }
            workers.push(
                Json::obj()
                    .set("worker", t.worker)
                    .set("dropped", t.dropped)
                    .set("phases", totals_to_json(&t.totals))
                    .set("events", Json::Arr(events)),
            );
        }
        let mut metrics = Vec::with_capacity(self.sections.len());
        for s in &self.sections {
            let mut counters = Json::obj();
            for (k, v) in &s.counters {
                counters = counters.set(k, *v);
            }
            metrics.push(Json::obj().set("name", s.name.as_str()).set("counters", counters));
        }
        Json::obj()
            .set("schema", SCHEMA)
            .set("wall_ns", self.wall_ns)
            .set("phases", totals_to_json(&self.phases))
            .set("workers", Json::Arr(workers))
            .set("metrics", Json::Arr(metrics))
    }

    /// Renders [`RunReport::to_json`] to text.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parses a serialized report back. Inverse of [`RunReport::render`].
    pub fn from_json(text: &str) -> Result<RunReport, ParseError> {
        let j = parse(text)?;
        let fail = |message: &str| ParseError {
            offset: 0,
            message: message.to_string(),
        };
        match j.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(fail(&format!("unknown schema '{other}'"))),
            None => return Err(fail("missing schema tag")),
        }
        let wall_ns = j
            .get("wall_ns")
            .and_then(Json::as_u64)
            .ok_or_else(|| fail("missing wall_ns"))?;
        let phases = totals_from_json(
            j.get("phases").ok_or_else(|| fail("missing phases"))?,
        )
        .ok_or_else(|| fail("malformed phases"))?;
        let mut workers = Vec::new();
        for w in j
            .get("workers")
            .and_then(Json::as_arr)
            .ok_or_else(|| fail("missing workers"))?
        {
            let worker = w
                .get("worker")
                .and_then(Json::as_u64)
                .ok_or_else(|| fail("worker missing index"))? as usize;
            let dropped = w.get("dropped").and_then(Json::as_u64).unwrap_or(0);
            let totals = w
                .get("phases")
                .and_then(totals_from_json)
                .ok_or_else(|| fail("worker missing phases"))?;
            let mut events = Vec::new();
            for e in w.get("events").and_then(Json::as_arr).unwrap_or(&[]) {
                events.push(event_from_json(e).ok_or_else(|| fail("malformed event"))?);
            }
            workers.push(WorkerTimeline {
                worker,
                totals,
                events,
                dropped,
            });
        }
        let mut sections = Vec::new();
        for s in j.get("metrics").and_then(Json::as_arr).unwrap_or(&[]) {
            let name = s
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| fail("metric section missing name"))?;
            let mut section = MetricSection::new(name);
            for (k, v) in s
                .get("counters")
                .and_then(Json::as_obj)
                .unwrap_or(&[])
            {
                let v = v.as_f64().ok_or_else(|| fail("non-numeric counter"))?;
                section.counters.push((k.clone(), v));
            }
            sections.push(section);
        }
        Ok(RunReport {
            wall_ns,
            phases,
            workers,
            sections,
        })
    }
}

fn totals_to_json(t: &PhaseTotals) -> Json {
    let mut obj = Json::obj();
    for p in Phase::ALL {
        obj = obj.set(
            p.name(),
            Json::obj()
                .set("ns", t.nanos[p.index()])
                .set("spans", t.spans[p.index()]),
        );
    }
    obj
}

fn totals_from_json(j: &Json) -> Option<PhaseTotals> {
    let mut t = PhaseTotals::default();
    for p in Phase::ALL {
        let entry = j.get(p.name())?;
        t.nanos[p.index()] = entry.get("ns")?.as_u64()?;
        t.spans[p.index()] = entry.get("spans")?.as_u64()?;
    }
    Some(t)
}

fn event_to_json(e: &Event) -> Json {
    let base = Json::obj()
        .set("seq", e.seq)
        .set("ts_ns", e.ts_ns)
        .set("kind", e.kind.name());
    match e.kind {
        EventKind::Span { phase, dur_ns } => {
            base.set("phase", phase.name()).set("dur_ns", dur_ns)
        }
        EventKind::Fork { parent, child } => base.set("parent", parent).set("child", child),
        EventKind::PathEnd { state } => base.set("state", state),
        EventKind::QueueDepth { depth } => base.set("depth", depth),
        EventKind::Steal { state } => base.set("state", state),
        EventKind::Export { count } => base.set("count", count),
        EventKind::ExportDecision {
            keep,
            idle_pressure,
            hungry,
        } => base
            .set("keep", keep)
            .set("idle_pressure", idle_pressure)
            .set("hungry", hungry),
        EventKind::CacheSnapshot {
            tb_hits,
            tb_translations,
            query_cache_hits,
            queries,
        } => base
            .set("tb_hits", tb_hits)
            .set("tb_translations", tb_translations)
            .set("query_cache_hits", query_cache_hits)
            .set("queries", queries),
        EventKind::Evict {
            state,
            journal_bytes,
        } => base.set("state", state).set("journal_bytes", journal_bytes),
        EventKind::Rehydrate {
            state,
            replayed_blocks,
        } => base
            .set("state", state)
            .set("replayed_blocks", replayed_blocks),
    }
}

fn event_from_json(j: &Json) -> Option<Event> {
    let seq = j.get("seq")?.as_u64()?;
    let ts_ns = j.get("ts_ns")?.as_u64()?;
    let field = |name: &str| j.get(name).and_then(Json::as_u64);
    let kind = match j.get("kind")?.as_str()? {
        "span" => EventKind::Span {
            phase: Phase::from_name(j.get("phase")?.as_str()?)?,
            dur_ns: field("dur_ns")?,
        },
        "fork" => EventKind::Fork {
            parent: field("parent")?,
            child: field("child")?,
        },
        "path_end" => EventKind::PathEnd {
            state: field("state")?,
        },
        "queue_depth" => EventKind::QueueDepth {
            depth: field("depth")? as u32,
        },
        "steal" => EventKind::Steal {
            state: field("state")?,
        },
        "export" => EventKind::Export {
            count: field("count")? as u32,
        },
        "export_decision" => EventKind::ExportDecision {
            keep: field("keep")? as u32,
            idle_pressure: field("idle_pressure")? as u32,
            hungry: field("hungry")? as u32,
        },
        "cache_snapshot" => EventKind::CacheSnapshot {
            tb_hits: field("tb_hits")?,
            tb_translations: field("tb_translations")?,
            query_cache_hits: field("query_cache_hits")?,
            queries: field("queries")?,
        },
        "evict" => EventKind::Evict {
            state: field("state")?,
            journal_bytes: field("journal_bytes")?,
        },
        "rehydrate" => EventKind::Rehydrate {
            state: field("state")?,
            replayed_blocks: field("replayed_blocks")?,
        },
        _ => return None,
    };
    Some(Event { seq, ts_ns, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut t0 = WorkerTimeline::empty(0);
        t0.totals.add_span(Phase::Concrete, 1_000);
        t0.totals.add_span(Phase::Solve, 250);
        t0.events = vec![
            Event {
                seq: 0,
                ts_ns: 10,
                kind: EventKind::Span {
                    phase: Phase::Concrete,
                    dur_ns: 1_000,
                },
            },
            Event {
                seq: 1,
                ts_ns: 1_020,
                kind: EventKind::Fork {
                    parent: 0,
                    child: 1,
                },
            },
        ];
        let mut t1 = WorkerTimeline::empty(1);
        t1.totals.add_span(Phase::Idle, 5_000);
        t1.dropped = 2;
        t1.events = vec![
            Event {
                seq: 7,
                ts_ns: 3,
                kind: EventKind::CacheSnapshot {
                    tb_hits: 10,
                    tb_translations: 2,
                    query_cache_hits: 4,
                    queries: 9,
                },
            },
            Event {
                seq: 8,
                ts_ns: 5,
                kind: EventKind::ExportDecision {
                    keep: 4,
                    idle_pressure: 512,
                    hungry: 1,
                },
            },
        ];
        let mut r = RunReport::new(123_456);
        // Out of order on purpose: add_worker keeps them sorted.
        r.add_worker(t1);
        r.add_worker(t0);
        r.add_section(
            MetricSection::new("engine")
                .counter("paths_completed", 33u32)
                .counter("cpu_seconds", 0.125),
        );
        r
    }

    #[test]
    fn add_worker_merges_totals_and_sorts() {
        let r = sample_report();
        assert_eq!(r.workers[0].worker, 0);
        assert_eq!(r.workers[1].worker, 1);
        assert_eq!(r.phases.nanos[Phase::Concrete.index()], 1_000);
        assert_eq!(r.phases.nanos[Phase::Idle.index()], 5_000);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let r = sample_report();
        let text = r.render();
        assert!(text.contains(SCHEMA));
        let back = RunReport::from_json(&text).expect("parse back");
        assert_eq!(back, r);
    }

    #[test]
    fn section_lookup() {
        let r = sample_report();
        let engine = r.section("engine").expect("engine section");
        assert_eq!(engine.get("paths_completed"), Some(33.0));
        assert_eq!(engine.get("cpu_seconds"), Some(0.125));
        assert!(r.section("nope").is_none());
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        assert!(RunReport::from_json("{\"schema\": \"v999\"}").is_err());
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("not json").is_err());
    }
}
