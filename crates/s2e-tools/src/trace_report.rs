//! Plain-text rendering of a [`RunReport`] — the `trace-report` view.
//!
//! Turns the JSON run report emitted by an instrumented exploration
//! (DESIGN.md §11) into the two tables an operator actually reads: where
//! the time went (top-N phases by merged self-time, Fig.-9 style) and
//! how evenly the workers were loaded (per-worker busy/idle split).

use s2e_obs::{Phase, RunReport};
use std::fmt::Write as _;

/// Renders the phase table (top `top` phases by self-time) and the
/// per-worker utilization table.
pub fn render(report: &RunReport, top: usize) -> String {
    let mut out = String::new();
    let busy = report.phases.busy().as_nanos() as u64;
    let idle = report.phases.idle().as_nanos() as u64;

    writeln!(out, "run report: wall {}", fmt_ns(report.wall_ns)).unwrap();
    let mut headline = format!("workers {}", report.workers.len());
    if let Some(paths) = report.section("parallel").and_then(|s| s.get("total_paths")) {
        write!(headline, ", paths {}", paths as u64).unwrap();
    }
    if let Some(queries) = report.section("solver").and_then(|s| s.get("queries")) {
        write!(headline, ", solver queries {}", queries as u64).unwrap();
    }
    writeln!(out, "{headline}").unwrap();
    if let Some(dbt) = report.section("dbt") {
        let c = |key: &str| dbt.get(key).unwrap_or(0.0) as u64;
        writeln!(
            out,
            "dbt: hits {} (l1 {}), translations {}, chains {} (entries {}, exits {}), \
             invalidations {}, unlinks {}",
            c("hits"),
            c("l1_hits"),
            c("translations"),
            c("chains_formed"),
            c("chain_entries"),
            c("chain_exits"),
            c("invalidations"),
            c("unlinks"),
        )
        .unwrap();
    }
    writeln!(out).unwrap();

    // Phase table: non-idle phases by descending self-time, percentages
    // against total busy time.
    let mut phases: Vec<Phase> =
        Phase::ALL.into_iter().filter(|p| *p != Phase::Idle).collect();
    phases.sort_by_key(|p| std::cmp::Reverse(report.phases.nanos[p.index()]));
    writeln!(out, "{:<10} {:>12} {:>7} {:>8}", "phase", "self-time", "busy%", "spans").unwrap();
    for phase in phases.into_iter().take(top) {
        let ns = report.phases.nanos[phase.index()];
        writeln!(
            out,
            "{:<10} {:>12} {:>6.1}% {:>8}",
            phase.name(),
            fmt_ns(ns),
            percent(ns, busy),
            report.phases.spans[phase.index()],
        )
        .unwrap();
    }
    writeln!(out, "{:<10} {:>12}", "idle", fmt_ns(idle)).unwrap();
    writeln!(out).unwrap();

    writeln!(
        out,
        "{:<7} {:>12} {:>12} {:>6} {:>7} {:>8}",
        "worker", "busy", "idle", "util%", "events", "dropped"
    )
    .unwrap();
    for w in &report.workers {
        let busy = w.totals.busy().as_nanos() as u64;
        let total = busy + w.totals.idle().as_nanos() as u64;
        writeln!(
            out,
            "{:<7} {:>12} {:>12} {:>5.1}% {:>7} {:>8}",
            w.worker,
            fmt_ns(busy),
            fmt_ns(w.totals.idle().as_nanos() as u64),
            percent(busy, total),
            w.events.len(),
            w.dropped,
        )
        .unwrap();
    }

    // Full counter dump: every metric section, every key, no
    // abridging — so a new `counters!` row appears here as soon as it
    // reaches the report.
    if !report.sections.is_empty() {
        writeln!(out).unwrap();
        writeln!(out, "counters").unwrap();
        for section in &report.sections {
            for (key, value) in &section.counters {
                writeln!(out, "  {}.{} {}", section.name, key, fmt_counter(*value)).unwrap();
            }
        }
    }
    out
}

/// Parses a run-report JSON file and renders it; the error is the parse
/// or schema failure message.
pub fn render_json_text(text: &str, top: usize) -> Result<String, String> {
    let report = RunReport::from_json(text).map_err(|e| e.to_string())?;
    Ok(render(&report, top))
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

/// Counter values are f64 in the report schema but almost always whole
/// numbers; print those without the trailing `.0`.
fn fmt_counter(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Nanoseconds as a human-scaled duration: ns, µs, ms, or s.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns} ns"),
        1_000..=999_999 => format!("{:.1} µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2} ms", ns as f64 / 1e6),
        _ => format!("{:.3} s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2e_obs::{MetricSection, WorkerTimeline};

    fn canned() -> RunReport {
        let mut report = RunReport::new(2_000_000);
        let mut w0 = WorkerTimeline::default();
        w0.totals.add_span(Phase::Concrete, 1_000_000);
        w0.totals.add_span(Phase::Solve, 500_000);
        report.add_worker(w0);
        let mut w1 = WorkerTimeline::default();
        w1.worker = 1;
        w1.totals.add_span(Phase::Solve, 1_100_000);
        w1.totals.add_span(Phase::Idle, 900_000);
        report.add_worker(w1);
        report.add_section(
            MetricSection::new("parallel").counter("total_paths", 33.0),
        );
        report.add_section(MetricSection::new("solver").counter("queries", 64.0));
        report
    }

    #[test]
    fn renders_phases_sorted_and_utilization() {
        let text = render(&canned(), 3);
        // Solve (1.6 ms merged) outranks Concrete (1.0 ms).
        let solve = text.find("solve").unwrap();
        let concrete = text.find("concrete").unwrap();
        assert!(solve < concrete, "{text}");
        assert!(text.contains("paths 33"), "{text}");
        assert!(text.contains("solver queries 64"), "{text}");
        // Worker 1 parked 900 µs of its 2 ms: utilization 55%.
        assert!(text.contains("55.0%"), "{text}");
        // Worker 0 never went idle.
        assert!(text.contains("100.0%"), "{text}");
    }

    #[test]
    fn counter_dump_lists_every_section_key() {
        let text = render(&canned(), 3);
        assert!(text.contains("counters"), "{text}");
        assert!(text.contains("  parallel.total_paths 33"), "{text}");
        assert!(text.contains("  solver.queries 64"), "{text}");
    }

    #[test]
    fn top_limits_the_phase_table() {
        let text = render(&canned(), 1);
        assert!(text.contains("solve"), "{text}");
        assert!(!text.contains("translate"), "{text}");
    }

    #[test]
    fn json_round_trip_renders() {
        let report = canned();
        let rendered = render_json_text(&report.render(), 7).unwrap();
        assert_eq!(rendered, render(&report, 7));
        assert!(render_json_text("{}", 7).is_err());
    }
}
