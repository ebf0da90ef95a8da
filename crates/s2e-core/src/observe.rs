//! Snapshotting engine state into a unified [`RunReport`].
//!
//! One call — [`build_run_report`] — folds everything a parallel run
//! produced into the `s2e-run-report-v1` schema: merged phase totals and
//! per-worker timelines from the recorders, plus named metric sections
//! snapshotting the `counters!` tables — [`crate::EngineStats`],
//! `SolverStats` (with one `KindStats` slice per query kind), the shared
//! solver cache, the translation-block cache — then the scheduler, and
//! optionally a [`HierarchyStats`] cache profile. The report renders to
//! JSON via [`RunReport::render`] and to a Chrome trace via
//! [`s2e_obs::chrome_trace`].

use crate::parallel::ParallelReport;
use s2e_cache::HierarchyStats;
use s2e_obs::{Counters, MetricSection, RunReport};
use s2e_solver::{KindStats, QueryKind};

/// Builds the unified run report for a completed parallel exploration.
/// `hierarchy` attaches a merged cache profile when a
/// [`crate::analyzers::PerformanceProfile`] ran.
pub fn build_run_report(report: &ParallelReport, hierarchy: Option<&HierarchyStats>) -> RunReport {
    let mut out = RunReport::new(report.wall_time.as_nanos() as u64);
    for w in &report.workers {
        out.add_worker(w.timeline.clone());
    }
    out.add_section(MetricSection::of(&report.stats));
    out.add_section(MetricSection::of(&report.solver));
    let by_kind = MetricSection::new(KindStats::SECTION);
    out.add_section(QueryKind::ALL.iter().fold(by_kind, |section, &kind| {
        section.table(report.solver.kind(kind), kind.name())
    }));
    out.add_section(MetricSection::of(&report.shared_cache));
    out.add_section(MetricSection::of(&report.dbt));
    out.add_section(parallel_section(report));
    if let Some(h) = hierarchy {
        out.add_section(hierarchy_section(h));
    }
    out
}

fn parallel_section(r: &ParallelReport) -> MetricSection {
    MetricSection::new("parallel")
        .counter("workers", r.workers.len() as f64)
        .counter("total_paths", r.total_paths as f64)
        .counter("bugs", r.bugs.len() as f64)
        .counter("covered_blocks", r.covered_blocks.len() as f64)
        .counter("steals", r.steals as f64)
        .counter("reclaims", r.reclaims as f64)
        .counter("exports", r.exports as f64)
        .counter("queue_leftover", r.queue_leftover as f64)
        .counter("evicted_leftover", r.evicted_leftover as f64)
        .counter("queue_bytes_peak", r.queue_bytes_peak as f64)
        .counter("wall_time_ns", r.wall_time.as_nanos() as f64)
}

fn hierarchy_section(h: &HierarchyStats) -> MetricSection {
    let mut section = MetricSection::new("hierarchy")
        .counter("i1.hits", h.i1.hits as f64)
        .counter("i1.misses", h.i1.misses as f64)
        .counter("d1.hits", h.d1.hits as f64)
        .counter("d1.misses", h.d1.misses as f64);
    for (i, level) in h.lower.iter().enumerate() {
        let name = format!("l{}", i + 2);
        section = section
            .counter(&format!("{name}.hits"), level.hits as f64)
            .counter(&format!("{name}.misses"), level.misses as f64);
    }
    section
        .counter("tlb_misses", h.tlb_misses as f64)
        .counter("page_faults", h.page_faults as f64)
        .counter("instructions", h.instructions as f64)
        .counter("data_accesses", h.data_accesses as f64)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::stats::EngineStats;
    use s2e_dbt::DbtStats;
    use s2e_solver::{SharedCacheStats, SolverStats};
    use std::collections::HashSet;
    use std::time::Duration;

    pub(crate) fn empty_report() -> ParallelReport {
        ParallelReport {
            workers: Vec::new(),
            stats: EngineStats::default(),
            bugs: Vec::new(),
            covered_blocks: HashSet::new(),
            total_paths: 0,
            path_digests: Vec::new(),
            steals: 0,
            reclaims: 0,
            exports: 0,
            queue_leftover: 0,
            evicted_leftover: 0,
            queue_bytes_peak: 0,
            shared_cache: SharedCacheStats::default(),
            dbt: DbtStats::default(),
            solver: SolverStats::default(),
            wall_time: Duration::from_millis(5),
        }
    }

    #[test]
    fn report_has_all_sections() {
        let mut r = empty_report();
        r.stats.forks = 3;
        r.solver.queries = 7;
        r.total_paths = 4;
        let report = build_run_report(&r, None);
        assert_eq!(report.wall_ns, 5_000_000);
        assert_eq!(report.section("engine").unwrap().get("forks"), Some(3.0));
        assert_eq!(report.section("solver").unwrap().get("queries"), Some(7.0));
        assert_eq!(report.section("parallel").unwrap().get("total_paths"), Some(4.0));
        assert!(report.section("solver_by_kind").unwrap().get("feasibility.queries").is_some());
        assert!(report.section("shared_cache").is_some());
        assert!(report.section("dbt").is_some());
        assert!(report.section("hierarchy").is_none());
    }

    #[test]
    fn hierarchy_section_is_optional_and_per_level() {
        let r = empty_report();
        let mut h = HierarchyStats::default();
        h.i1.hits = 10;
        h.lower.push(s2e_cache::CacheStats { hits: 2, misses: 1 });
        let report = build_run_report(&r, Some(&h));
        let section = report.section("hierarchy").unwrap();
        assert_eq!(section.get("i1.hits"), Some(10.0));
        assert_eq!(section.get("l2.misses"), Some(1.0));
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = empty_report();
        r.stats.blocks_executed = 11;
        let report = build_run_report(&r, None);
        let text = report.render();
        let back = RunReport::from_json(&text).unwrap();
        assert_eq!(back, report);
    }
}
