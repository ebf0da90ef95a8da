//! Publishing engine state into the live metrics registry
//! (DESIGN.md §16).
//!
//! The engine's hot path keeps its *plain* stat structs — zero atomics
//! per block. At batch boundaries (and once more at worker exit) the
//! worker *publishes* their cumulative values into its private
//! [`TelemetryHandle`] shard with relaxed stores; readers merge shards.
//! Each struct is a `counters!` table, so [`counter_schema`] and
//! `TelemetryHandle::publish` take the live counters from the rows that
//! also build the `RunReport` sections. A `Sum` row is a per-worker
//! value; a `Max` row mirrors a monotonic global (the shared TB cache,
//! the cross-worker query cache), whose last worker's final flush pins
//! the exact end-of-run value.
//!
//! What no row can say is published by hand: `engine.seen_blocks` and
//! the `live_states` gauge (no struct field), the `dbt.local_hits`/
//! `dbt.shared_hits` split of `DbtStats::hits` (two sources), the
//! stamped `shared_cache.entries` gauge (not monotonic), and the
//! `parallel.*` loop counters.

use crate::stats::EngineStats;
use s2e_dbt::DbtStats;
use s2e_obs::{Counter, CounterSchema, TelemetryHandle};
use s2e_solver::{KindStats, QueryKind, SharedCacheStats, SolverStats};

/// The table-backed counters of every engine-side registry: one block
/// per stats table, and one `KindStats` block per query kind.
pub fn counter_schema() -> CounterSchema {
    let schema = CounterSchema::default().table::<EngineStats>().table::<SolverStats>();
    QueryKind::ALL
        .iter()
        .fold(schema, |schema, kind| schema.table_prefixed::<KindStats>(kind.name()))
        .table::<DbtStats>()
        .table::<SharedCacheStats>()
}

/// Publishes the solver table and its per-kind slices.
pub(crate) fn publish_solver(t: &TelemetryHandle, s: &SolverStats) {
    t.publish(s);
    for kind in QueryKind::ALL {
        t.publish_prefixed(s.kind(kind), kind.name());
    }
}

/// Publishes the translator counters from this worker's L1-local stats
/// and its latest read of the backing cache's global ones. Their merge
/// is what the `DbtStats` rows describe (`Sum` rows carry the L1
/// counters, `Max` rows the cache's); the hit count, kept on both
/// sides, is published as its two components.
pub(crate) fn publish_dbt_stats(t: &TelemetryHandle, local: &DbtStats, shared: &DbtStats) {
    let mut merged = *shared;
    merged.merge(local);
    t.publish(&merged);
    t.set_counter(Counter::DbtLocalHits, local.hits);
    t.set_counter(Counter::DbtSharedHits, shared.hits);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::build_run_report;
    use crate::observe::tests::empty_report;
    use s2e_obs::{runreport_twins, snapshot_line, MetricsRegistry};
    use std::collections::BTreeSet;
    use std::time::Duration;

    #[test]
    fn live_counters_without_a_report_twin_are_the_documented_ones() {
        let snap = MetricsRegistry::new(1, &counter_schema()).snapshot();
        let report = build_run_report(&empty_report(), None);
        let twins: BTreeSet<&str> =
            runreport_twins(&snap, &report).into_iter().map(|(name, _, _)| name).collect();
        let live_only: BTreeSet<&str> =
            snap.named_counters().map(|(name, _)| name).filter(|n| !twins.contains(n)).collect();
        assert_eq!(
            live_only,
            BTreeSet::from(["engine.seen_blocks", "dbt.local_hits", "dbt.shared_hits"])
        );
        // The other way round: every table-built report key is live,
        // except the two rows published by hand.
        let table_sections = ["engine", "solver", "solver_by_kind", "dbt", "shared_cache"];
        let report_only: BTreeSet<String> = report
            .sections
            .iter()
            .filter(|s| table_sections.contains(&s.name.as_str()))
            .flat_map(|s| s.counters.iter().map(move |(key, _)| format!("{}.{key}", s.name)))
            .filter(|name| !twins.contains(name.as_str()))
            .collect();
        let hand_published = ["dbt.hits".to_string(), "shared_cache.entries".to_string()];
        assert_eq!(report_only, BTreeSet::from(hand_published));
    }

    #[test]
    fn publish_is_cumulative_stores() {
        let reg = MetricsRegistry::new(1, &counter_schema());
        let t = reg.handle(0);
        let cpu_time = Duration::from_micros(3);
        let mut s = EngineStats { forks: 9, cpu_time, ..EngineStats::default() };
        t.publish(&s);
        s.forks = 12;
        t.publish(&s);
        let mut solver = SolverStats::default();
        solver.by_kind[QueryKind::Concretize.index()].unsat = 4;
        publish_solver(&t, &solver);
        let shared = DbtStats { hits: 5, translations: 2, ..DbtStats::default() };
        let local = DbtStats { hits: 3, l1_hits: 3, ..DbtStats::default() };
        publish_dbt_stats(&t, &local, &shared);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_named("engine.forks"), Some(12));
        let line = snapshot_line(0, 1_000, 1, &snap, None, true);
        let forks_per_s = line.get("derived").and_then(|d| d.get("forks_per_s"));
        assert_eq!(forks_per_s.and_then(|v| v.as_f64()), Some(12e6), "12 forks in 1 µs");
        assert_eq!(snap.counter_named("engine.cpu_time_ns"), Some(3_000));
        assert_eq!(snap.counter_named("solver_by_kind.concretize.unsat"), Some(4));
        assert_eq!(snap.counter_named("dbt.translations"), Some(2));
        assert_eq!(snap.counter_named("dbt.l1_hits"), Some(3));
        assert_eq!(snap.counter(Counter::DbtLocalHits), 3);
        assert_eq!(snap.counter(Counter::DbtSharedHits), 5);
    }
}
