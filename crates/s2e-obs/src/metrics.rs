//! Lock-free, per-worker-sharded live metrics registry (DESIGN.md §16).
//!
//! One [`MetricsRegistry`] per run holds one shard per worker; each
//! worker writes only its own shard through a cloned
//! [`TelemetryHandle`], so the hot path never takes a lock and never
//! shares a cache line with another writer's counters. Readers (the
//! sampler thread, the TCP endpoint) merge all shards on demand into a
//! plain [`MetricsSnapshot`].
//!
//! Writers come in two shapes:
//!
//! * **Published counters** — the engine already maintains plain
//!   (non-atomic) `EngineStats`/`SolverStats`/`DbtStats` structs on its
//!   hot path. At batch boundaries the worker *publishes* the current
//!   cumulative values into its shard with relaxed atomic stores. The
//!   per-event cost is zero; freshness is one batch. Those structs are
//!   [`counters!`](crate::counters!) tables, so their slots, names and
//!   merge kinds come from the [`CounterSchema`] the registry is built
//!   with; the few counters with no struct behind them are [`Counter`]s.
//! * **Histogram samples** — rare, latency-bearing events (solver
//!   queries, translations, steals, parks, replays) record directly:
//!   one relaxed `fetch_add` per sample into a log2 bucket.
//!
//! Merge rules per metric, applied on read:
//!
//! * [`MergeKind::Sum`] — per-worker quantities; the merged value is
//!   the sum of the shards' last-published values. Exact at any
//!   instant for whatever each worker last published.
//! * [`MergeKind::Max`] — mirrors of *global monotonic* values (the
//!   shared TB cache, the cross-worker query cache) that every worker
//!   re-publishes. The max across shards is the most recent read, and
//!   after the last worker's final flush it equals the global final
//!   value exactly.
//! * [`MergeKind::Latest`] — non-monotonic globals (queue depth).
//!   Every store is stamped from a registry-wide sequence; the merged
//!   value is the one with the highest stamp.
//!
//! Counter names are `section.key`, matching the end-of-run
//! [`crate::RunReport`] sections byte-for-byte wherever a counter has
//! an exact report twin ([`runreport_twins`]); the
//! `telemetry_overhead` bench asserts that equality at run end.

use crate::counters::{CounterSchema, Counters};
use crate::hist::{bucket_hi, AtomicHistogram, HistogramSnapshot};
use crate::json::Json;
use crate::report::RunReport;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a metric's per-shard values combine into one merged value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeKind {
    /// Sum across shards (per-worker quantities).
    Sum,
    /// Max across shards (mirrors of global monotonic values).
    Max,
    /// Value with the highest publish stamp (non-monotonic globals).
    Latest,
}

macro_rules! define_metric_enum {
    ($enum_name:ident, $count_const:ident, $( $variant:ident => ($name:literal, $merge:ident) ),* $(,)?) => {
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum $enum_name {
            $($variant),*
        }

        impl $enum_name {
            pub const ALL: &'static [$enum_name] = &[$($enum_name::$variant),*];

            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            pub fn name(self) -> &'static str {
                match self {
                    $($enum_name::$variant => $name),*
                }
            }

            pub fn merge(self) -> MergeKind {
                match self {
                    $($enum_name::$variant => MergeKind::$merge),*
                }
            }
        }

        pub const $count_const: usize = $enum_name::ALL.len();
    };
}

define_metric_enum!(
    Counter,
    COUNTER_COUNT,
    // Counters with no stats-struct field of their own; every other
    // counter comes from a `counters!` table through the schema.
    // Sum of per-worker coverage-set sizes: an upper bound on the true
    // block-set union (blocks seen by several workers count once per
    // worker). No exact RunReport twin.
    EngineSeenBlocks => ("engine.seen_blocks", Sum),
    // The two sources of the report's `dbt.hits`: this worker's own
    // (L1 and private) hits, summed, and its read of the shared
    // translation cache's hits, max-merged. No exact RunReport twin.
    DbtLocalHits => ("dbt.local_hits", Sum),
    DbtSharedHits => ("dbt.shared_hits", Max),
    // Scheduler — per-worker loop counters.
    ParallelSteals => ("parallel.steals", Sum),
    ParallelReclaims => ("parallel.reclaims", Sum),
    ParallelExports => ("parallel.exports", Sum),
);

define_metric_enum!(
    Gauge,
    GAUGE_COUNT,
    // Instantaneous values; Sum gauges are per-worker, Latest gauges
    // mirror one global (stamped, newest store wins).
    GaugeLiveStates => ("live_states", Sum),
    GaugeQueueDepth => ("queue_depth", Latest),
    GaugeQueueBytes => ("queue_bytes", Latest),
    GaugeIdlePressure => ("idle_pressure", Latest),
    GaugeHungryWorkers => ("hungry_workers", Latest),
    GaugeSharedCacheEntries => ("shared_cache.entries", Latest),
);

define_metric_enum!(
    Hist,
    HIST_COUNT,
    // Latency histograms, all in nanoseconds. Merge kind is nominal —
    // histograms always merge by bucket-wise addition.
    HistSolveFeasibility => ("latency.solve_feasibility", Sum),
    HistSolveConcretize => ("latency.solve_concretize", Sum),
    HistSolveOther => ("latency.solve_other", Sum),
    HistTranslate => ("latency.translate", Sum),
    HistSteal => ("latency.steal", Sum),
    HistPark => ("latency.park", Sum),
    HistReplay => ("latency.replay", Sum),
);

impl Hist {
    /// Histogram for a solver query kind, by `QueryKind::index()`
    /// (0 = feasibility, 1 = concretize, 2 = other).
    pub fn solve_kind(index: usize) -> Hist {
        match index {
            0 => Hist::HistSolveFeasibility,
            1 => Hist::HistSolveConcretize,
            _ => Hist::HistSolveOther,
        }
    }
}

/// One worker's private slice of the registry.
#[derive(Debug)]
pub struct MetricsShard {
    counters: Box<[AtomicU64]>,
    gauges: Box<[AtomicU64]>,
    gauge_stamps: Box<[AtomicU64]>,
    hists: Box<[AtomicHistogram]>,
}

fn atomic_slice(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl MetricsShard {
    fn new(counters: usize) -> Self {
        MetricsShard {
            counters: atomic_slice(counters),
            gauges: atomic_slice(GAUGE_COUNT),
            gauge_stamps: atomic_slice(GAUGE_COUNT),
            hists: (0..HIST_COUNT).map(|_| AtomicHistogram::new()).collect(),
        }
    }
}

/// The per-run registry: one shard per worker, merged on read.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Counter slots: the [`Counter`]s, then the schema's table rows.
    names: Arc<[String]>,
    merges: Box<[MergeKind]>,
    schema: CounterSchema,
    shards: Box<[MetricsShard]>,
    stamp: AtomicU64,
}

impl MetricsRegistry {
    /// Creates a registry with `shards` independent writer slots
    /// (typically one per worker; a sequential engine uses shard 0)
    /// holding the [`Counter`]s plus one slot per live row of every
    /// table in `schema`.
    pub fn new(shards: usize, schema: &CounterSchema) -> Arc<MetricsRegistry> {
        let fixed = Counter::ALL.iter().map(|c| (c.name().to_string(), c.merge()));
        let (names, merges): (Vec<String>, Vec<MergeKind>) =
            fixed.chain(schema.slots().iter().cloned()).unzip();
        let names: Arc<[String]> = names.into();
        let shards = shards.max(1);
        Arc::new(MetricsRegistry {
            shards: (0..shards).map(|_| MetricsShard::new(names.len())).collect(),
            names,
            merges: merges.into(),
            schema: schema.clone(),
            stamp: AtomicU64::new(0),
        })
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Writer handle for shard `shard`. Panics on out-of-range.
    pub fn handle(self: &Arc<MetricsRegistry>, shard: usize) -> TelemetryHandle {
        assert!(shard < self.shards.len(), "telemetry shard out of range");
        TelemetryHandle { registry: Arc::clone(self), shard }
    }

    /// Merges all shards into a plain snapshot (see [`MergeKind`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .merges
            .iter()
            .enumerate()
            .map(|(i, merge)| {
                let values = self.shards.iter().map(|s| s.counters[i].load(Ordering::Relaxed));
                match merge {
                    MergeKind::Sum => values.sum(),
                    MergeKind::Max | MergeKind::Latest => values.max().unwrap_or(0),
                }
            })
            .collect();
        let mut gauges = vec![0u64; GAUGE_COUNT];
        for &g in Gauge::ALL {
            let i = g.index();
            match g.merge() {
                MergeKind::Sum => {
                    gauges[i] = self
                        .shards
                        .iter()
                        .map(|s| s.gauges[i].load(Ordering::Relaxed))
                        .sum();
                }
                MergeKind::Max => {
                    gauges[i] = self
                        .shards
                        .iter()
                        .map(|s| s.gauges[i].load(Ordering::Relaxed))
                        .max()
                        .unwrap_or(0);
                }
                MergeKind::Latest => {
                    let mut best_stamp = 0u64;
                    let mut best = 0u64;
                    for shard in self.shards.iter() {
                        let stamp = shard.gauge_stamps[i].load(Ordering::Acquire);
                        if stamp >= best_stamp {
                            best_stamp = stamp;
                            best = shard.gauges[i].load(Ordering::Relaxed);
                        }
                    }
                    gauges[i] = best;
                }
            }
        }
        let mut hists = vec![HistogramSnapshot::default(); HIST_COUNT];
        for &h in Hist::ALL {
            let i = h.index();
            for shard in self.shards.iter() {
                hists[i].merge(&shard.hists[i].snapshot());
            }
        }
        MetricsSnapshot { names: Arc::clone(&self.names), counters, gauges, hists }
    }
}

/// Cloneable writer handle bound to one shard. All writes are relaxed
/// atomics on that shard only; clones share the shard (the engine and
/// its solver both write worker `w`'s shard).
#[derive(Clone, Debug)]
pub struct TelemetryHandle {
    registry: Arc<MetricsRegistry>,
    shard: usize,
}

impl TelemetryHandle {
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Publishes a cumulative counter value (relaxed store).
    #[inline]
    pub fn set_counter(&self, c: Counter, value: u64) {
        self.registry.shards[self.shard].counters[c.index()].store(value, Ordering::Relaxed);
    }

    /// Publishes every live row of a `counters!` table as cumulative
    /// relaxed stores. Panics if the registry's schema lacks the table.
    pub fn publish<T: Counters>(&self, stats: &T) {
        self.publish_prefixed(stats, "");
    }

    /// [`TelemetryHandle::publish`] for the table instance the schema
    /// added under `prefix` ([`CounterSchema::table_prefixed`]).
    pub fn publish_prefixed<T: Counters>(&self, stats: &T, prefix: &str) {
        let registry = &self.registry;
        let first = registry.schema.block(T::SECTION, prefix).unwrap_or_else(|| {
            panic!("counter table {}/{prefix} is not in this registry's schema", T::SECTION)
        });
        let mut slots = registry.shards[self.shard].counters[COUNTER_COUNT + first..].iter();
        stats.visit(&mut |row, value| {
            if row.live {
                slots.next().expect("slot per live row").store(value, Ordering::Relaxed);
            }
        });
    }

    /// Publishes a gauge. `Latest` gauges take a registry-wide stamp so
    /// the merge can pick the newest store.
    #[inline]
    pub fn set_gauge(&self, g: Gauge, value: u64) {
        let shard = &self.registry.shards[self.shard];
        shard.gauges[g.index()].store(value, Ordering::Relaxed);
        if g.merge() == MergeKind::Latest {
            let stamp = self.registry.stamp.fetch_add(1, Ordering::Relaxed) + 1;
            shard.gauge_stamps[g.index()].store(stamp, Ordering::Release);
        }
    }

    /// Records one histogram sample — a single relaxed `fetch_add`.
    #[inline]
    pub fn observe(&self, h: Hist, value: u64) {
        self.registry.shards[self.shard].hists[h.index()].record(value);
    }

    /// Records a duration sample in nanoseconds.
    #[inline]
    pub fn observe_duration(&self, h: Hist, d: Duration) {
        self.observe(h, d.as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// Plain merged view of the registry at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter names, slot for slot with `counters`.
    pub names: Arc<[String]>,
    pub counters: Vec<u64>,
    pub gauges: Vec<u64>,
    pub hists: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// A counter by its `section.key` name; `None` if the registry's
    /// schema has no such counter.
    pub fn counter_named(&self, name: &str) -> Option<u64> {
        self.names.iter().position(|n| n == name).map(|i| self.counters[i])
    }

    /// Every counter as `(name, value)`, in slot order.
    pub fn named_counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.names.iter().map(String::as_str).zip(self.counters.iter().copied())
    }

    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g.index()]
    }

    pub fn hist(&self, h: Hist) -> &HistogramSnapshot {
        &self.hists[h.index()]
    }

    /// JSON object with `counters`, `gauges`, and `hists` sub-objects;
    /// histogram buckets are emitted sparsely as `[index, count]`
    /// pairs. Served by `/report` and embedded in the JSONL stream.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, value) in self.named_counters() {
            counters = counters.set(name, value);
        }
        let mut gauges = Json::obj();
        for &g in Gauge::ALL {
            gauges = gauges.set(g.name(), self.gauge(g));
        }
        let mut hists = Json::obj();
        for &h in Hist::ALL {
            let s = self.hist(h);
            let mut buckets = Vec::new();
            for (i, &n) in s.buckets.iter().enumerate() {
                if n > 0 {
                    buckets.push(Json::Arr(vec![Json::from(i), Json::from(n)]));
                }
            }
            let mut entry = Json::obj()
                .set("count", s.count())
                .set("buckets", Json::Arr(buckets));
            if let Some(p50) = s.quantile(0.5) {
                entry = entry
                    .set("p50", p50)
                    .set("p90", s.quantile(0.9).unwrap())
                    .set("p99", s.quantile(0.99).unwrap());
            }
            hists = hists.set(h.name(), entry);
        }
        Json::obj()
            .set("counters", counters)
            .set("gauges", gauges)
            .set("hists", hists)
    }

    /// Prometheus text exposition of the snapshot: every counter and
    /// gauge as a single sample, every histogram in cumulative
    /// `_bucket{le=...}` form with `_sum`/`_count` (the sum is the
    /// bucket-midpoint approximation — exact time totals live in the
    /// `*_time_ns` counters).
    pub fn prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 4);
            out.push_str("s2e_");
            for ch in name.chars() {
                out.push(if ch == '.' { '_' } else { ch });
            }
            out
        }
        let mut out = String::new();
        for (name, value) in self.named_counters() {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for &g in Gauge::ALL {
            let name = sanitize(g.name());
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", self.gauge(g)));
        }
        for &h in Hist::ALL {
            let name = sanitize(h.name());
            let s = self.hist(h);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            let last = s
                .buckets
                .iter()
                .rposition(|&n| n > 0)
                .unwrap_or(0);
            for (i, &n) in s.buckets.iter().enumerate().take(last + 1) {
                cum += n;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cum}\n",
                    bucket_hi(i)
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", s.count()));
            out.push_str(&format!("{name}_sum {}\n", s.approx_sum()));
            out.push_str(&format!("{name}_count {}\n", s.count()));
        }
        out
    }
}

/// The end-of-run exact-equality contract: every counter of `snap` whose
/// `section.key` name `report` also carries, as `(name, live value,
/// report value)`. Derived by name, never listed.
pub fn runreport_twins<'a>(
    snap: &'a MetricsSnapshot,
    report: &RunReport,
) -> Vec<(&'a str, u64, f64)> {
    snap.named_counters()
        .filter_map(|(name, live)| {
            let (section, key) = name.split_once('.')?;
            Some((name, live, report.section(section)?.get(key)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(shards: usize) -> Arc<MetricsRegistry> {
        MetricsRegistry::new(shards, &CounterSchema::default())
    }

    #[test]
    fn names_are_unique_and_indexed() {
        let mut seen = std::collections::HashSet::new();
        for &c in Counter::ALL {
            assert!(seen.insert(c.name()), "duplicate counter {}", c.name());
        }
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, &g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        for (i, &h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
    }

    #[test]
    fn sum_and_max_merge() {
        let reg = registry(3);
        reg.handle(0).set_counter(Counter::ParallelSteals, 5);
        reg.handle(2).set_counter(Counter::ParallelSteals, 7);
        reg.handle(0).set_counter(Counter::DbtSharedHits, 100);
        reg.handle(1).set_counter(Counter::DbtSharedHits, 140);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::ParallelSteals), 12);
        assert_eq!(snap.counter(Counter::DbtSharedHits), 140);
        assert_eq!(snap.counter_named("dbt.shared_hits"), Some(140));
        assert_eq!(snap.counter_named("no.such_counter"), None);
    }

    #[test]
    fn latest_gauge_wins_by_stamp() {
        let reg = registry(2);
        reg.handle(0).set_gauge(Gauge::GaugeQueueDepth, 9);
        reg.handle(1).set_gauge(Gauge::GaugeQueueDepth, 2);
        assert_eq!(reg.snapshot().gauge(Gauge::GaugeQueueDepth), 2);
        reg.handle(0).set_gauge(Gauge::GaugeQueueDepth, 4);
        assert_eq!(reg.snapshot().gauge(Gauge::GaugeQueueDepth), 4);
        // Sum gauges add across shards.
        reg.handle(0).set_gauge(Gauge::GaugeLiveStates, 3);
        reg.handle(1).set_gauge(Gauge::GaugeLiveStates, 4);
        assert_eq!(reg.snapshot().gauge(Gauge::GaugeLiveStates), 7);
    }

    #[test]
    fn histograms_merge_across_shards() {
        let reg = registry(2);
        reg.handle(0).observe(Hist::HistSteal, 1000);
        reg.handle(1).observe(Hist::HistSteal, 1000);
        reg.handle(1).observe_duration(Hist::HistSteal, Duration::from_nanos(3));
        let snap = reg.snapshot();
        assert_eq!(snap.hist(Hist::HistSteal).count(), 3);
    }

    #[test]
    fn json_and_prometheus_render() {
        let reg = registry(1);
        let h = reg.handle(0);
        h.set_counter(Counter::ParallelExports, 42);
        h.set_gauge(Gauge::GaugeLiveStates, 3);
        h.observe(Hist::HistSolveFeasibility, 512);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert_eq!(
            json.get("counters").and_then(|c| c.get("parallel.exports")).and_then(|v| v.as_u64()),
            Some(42)
        );
        let hist = json.get("hists").and_then(|h| h.get("latency.solve_feasibility")).unwrap();
        assert_eq!(hist.get("count").and_then(|v| v.as_u64()), Some(1));
        let text = snap.prometheus();
        assert!(text.contains("s2e_parallel_exports 42"));
        assert!(text.contains("# TYPE s2e_live_states gauge"));
        assert!(text.contains("s2e_latency_solve_feasibility_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("s2e_latency_solve_feasibility_count 1"));
    }
}
