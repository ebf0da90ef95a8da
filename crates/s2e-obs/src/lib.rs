//! Engine self-observability (DESIGN.md §11).
//!
//! The paper's performance envelope (§6.2, Fig. 9) explains S2E's cost by
//! breaking a run down into where time actually goes — translation,
//! concrete execution, symbolic interpretation, constraint solving — and
//! none of the remaining performance work on this reproduction can be
//! attributed without the same breakdown. This crate provides the three
//! pieces the rest of the workspace instruments itself with:
//!
//! - **[`Recorder`]** — hierarchical phase timers (span enter/exit on a
//!   monotonic clock) over the [`Phase`] taxonomy, plus a bounded
//!   per-worker [`EventRing`] of span / fork / kill / queue-depth /
//!   cache-snapshot events. A disabled recorder is a near-no-op: every
//!   entry point checks one boolean and returns without reading the
//!   clock, so the default (observability off) configuration costs a
//!   handful of predictable branches per *block*, never per instruction.
//! - **[`WorkerTimeline`]** — one worker's finished recording, merged
//!   deterministically across workers by [`merge_timelines`] (ordered by
//!   `(worker, seq)`, never by wall-clock timestamps, so the merged
//!   stream does not depend on the thread schedule).
//! - **[`RunReport`]** — the unified end-of-run artifact: wall clock,
//!   Fig.-9-style phase totals, per-worker timelines, and a registry of
//!   named metric sections snapshotting engine / solver / cache counters.
//!   Serializes to the in-repo [`json`] harness (which this crate hosts,
//!   including the parser) and to the Chrome trace-event format
//!   ([`chrome_trace`]) for external viewers.
//!
//! PR 9 adds the *live* half (DESIGN.md §16): a lock-free,
//! per-worker-sharded [`MetricsRegistry`] of counters, gauges, and
//! log2-bucketed latency [`hist`]ograms merged on read; a [`Sampler`]
//! thread streaming periodic delta snapshots as `s2e-live-v1` JSONL; a
//! std-only TCP [`TelemetryServer`] exposing `/metrics` (Prometheus
//! text) and `/report` (JSON snapshot); and the [`LiveTelemetry`]
//! lifecycle wrapper tying the three together.
//!
//! Both halves read the engine's stats structs, which their home crates
//! declare through [`counters!`]: one table row per counter generates
//! the struct field, its `merge`, its report key and its live counter.
//!
//! The crate is std-only and dependency-free by policy (DESIGN.md §7);
//! `s2e-core`, `s2e-solver`, `s2e-dbt`, `s2e-tools`, and `bench` build on it.

pub mod chrome;
pub mod counters;
pub mod hist;
pub mod json;
pub mod live;
pub mod metrics;
pub mod phase;
pub mod recorder;
pub mod report;
pub mod ring;
pub mod sampler;
pub mod serve;

pub use chrome::{chrome_trace, chrome_trace_report};
pub use counters::{CounterRow, CounterSchema, Counters};
pub use hist::{
    bucket_hi, bucket_index, bucket_lo, bucket_mid, AtomicHistogram, HistogramSnapshot,
    HIST_BUCKETS,
};
pub use live::{LiveConfig, LiveSummary, LiveTelemetry};
pub use metrics::{
    runreport_twins, Counter, Gauge, Hist, MergeKind, MetricsRegistry, MetricsSnapshot,
    TelemetryHandle,
};
pub use phase::{Phase, PhaseTotals};
pub use recorder::{ObsConfig, Recorder};
pub use report::{MetricSection, RunReport};
pub use ring::{merge_timelines, Event, EventKind, EventRing, MergedEvent, WorkerTimeline};
pub use sampler::{snapshot_line, Sampler, SamplerSummary, LIVE_SCHEMA};
pub use serve::{http_get, TelemetryServer};
