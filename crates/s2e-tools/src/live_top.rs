//! Terminal rendering of the live telemetry stream — the `live-top`
//! view (DESIGN.md §16).
//!
//! Consumes either an `s2e-live-v1` JSONL line (as streamed to
//! `results/run_live.jsonl` by the sampler) or a bare registry snapshot
//! (as served by the `/report` endpoint) and renders the one screen an
//! operator watches during a run: headline rates, liveness gauges, the
//! biggest counter movers of the last tick, and p50/p90/p99 for every
//! latency histogram. All functions are pure text-in/text-out; the
//! `live-top` binary adds only file tailing and endpoint polling.

use s2e_obs::json::{parse, Json};
use std::fmt::Write as _;

/// Renders the last line of an `s2e-live-v1` JSONL stream.
pub fn render_latest(jsonl_text: &str) -> Result<String, String> {
    let line = jsonl_text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| "empty live stream".to_string())?;
    let json = parse(line).map_err(|e| format!("bad live line: {e}"))?;
    render_line(&json)
}

/// Renders one parsed `s2e-live-v1` line.
pub fn render_line(line: &Json) -> Result<String, String> {
    let schema = line.get("schema").and_then(Json::as_str);
    if schema != Some(s2e_obs::LIVE_SCHEMA) {
        return Err(format!(
            "unsupported live schema {:?} (want {})",
            schema,
            s2e_obs::LIVE_SCHEMA
        ));
    }
    let mut out = String::new();
    let seq = line.get("seq").and_then(Json::as_u64).unwrap_or(0);
    let wall = line.get("wall_ns").and_then(Json::as_u64).unwrap_or(0);
    let workers = line.get("workers").and_then(Json::as_u64).unwrap_or(0);
    let done = line.get("final").and_then(Json::as_bool).unwrap_or(false);
    writeln!(
        out,
        "s2e live-top — seq {seq}, wall {}, workers {workers}{}",
        fmt_ns(wall),
        if done { " [final]" } else { "" }
    )
    .unwrap();

    if let Some(derived) = line.get("derived") {
        let f = |key: &str| derived.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        writeln!(
            out,
            "rates: paths/s {:.1}, forks/s {:.1}, blocks/s {:.0}, queries/s {:.1}, \
             solver share {:.1}%",
            f("paths_per_s"),
            f("forks_per_s"),
            f("blocks_per_s"),
            f("queries_per_s"),
            f("solver_share") * 100.0,
        )
        .unwrap();
        writeln!(
            out,
            "now: live states {}, queue depth {}, covered blocks <= {}",
            f("live_states") as u64,
            f("queue_depth") as u64,
            f("covered_blocks_ub") as u64,
        )
        .unwrap();
    }

    // Biggest counter movers of the tick, largest delta first.
    if let Some(deltas) = line
        .get("delta")
        .and_then(|d| d.get("counters"))
        .and_then(Json::as_obj)
    {
        let mut movers: Vec<(&str, u64)> = deltas
            .iter()
            .filter_map(|(k, v)| v.as_u64().map(|n| (k.as_str(), n)))
            .collect();
        movers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        if !movers.is_empty() {
            writeln!(out, "top movers this tick:").unwrap();
            for (name, delta) in movers.iter().take(MOVERS_SHOWN) {
                let total = line
                    .get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                writeln!(out, "  {name:<40} +{delta:<12} total {total}").unwrap();
            }
        }
    }

    if let Some(hists) = line.get("hists") {
        out.push_str(&render_hists(hists));
    }
    Ok(out)
}

/// Renders a bare `/report` snapshot (counters/gauges/hists, no
/// seq/delta envelope).
pub fn render_report(text: &str) -> Result<String, String> {
    let json = parse(text).map_err(|e| format!("bad report: {e}"))?;
    let mut out = String::new();
    writeln!(out, "s2e live-top — /report snapshot").unwrap();
    if let Some(gauges) = json.get("gauges").and_then(Json::as_obj) {
        let g = |key: &str| {
            gauges
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_u64())
                .unwrap_or(0)
        };
        writeln!(
            out,
            "now: live states {}, queue depth {}, queue bytes {}, hungry workers {}",
            g("live_states"),
            g("queue_depth"),
            g("queue_bytes"),
            g("hungry_workers"),
        )
        .unwrap();
    }
    if let Some(counters) = json.get("counters").and_then(Json::as_obj) {
        let mut biggest: Vec<(&str, u64)> = counters
            .iter()
            .filter_map(|(k, v)| v.as_u64().map(|n| (k.as_str(), n)))
            .filter(|&(_, n)| n > 0)
            .collect();
        biggest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        if !biggest.is_empty() {
            writeln!(out, "largest counters:").unwrap();
            for (name, value) in biggest.iter().take(MOVERS_SHOWN) {
                writeln!(out, "  {name:<40} {value}").unwrap();
            }
        }
    }
    if let Some(hists) = json.get("hists") {
        out.push_str(&render_hists(hists));
    }
    Ok(out)
}

/// Rows shown in the top-movers / largest-counters tables.
const MOVERS_SHOWN: usize = 10;

fn render_hists(hists: &Json) -> String {
    let mut out = String::new();
    let Some(entries) = hists.as_obj() else {
        return out;
    };
    let populated: Vec<(&str, &Json)> = entries
        .iter()
        .filter(|(_, v)| v.get("count").and_then(Json::as_u64).unwrap_or(0) > 0)
        .map(|(k, v)| (k.as_str(), v))
        .collect();
    if populated.is_empty() {
        return out;
    }
    writeln!(out, "latency p50 / p90 / p99:").unwrap();
    for (name, h) in populated {
        let q = |key: &str| h.get(key).and_then(Json::as_u64).unwrap_or(0);
        writeln!(
            out,
            "  {:<28} {:>10} {:>10} {:>10}   n {}",
            name,
            fmt_ns(q("p50")),
            fmt_ns(q("p90")),
            fmt_ns(q("p99")),
            q("count"),
        )
        .unwrap();
    }
    out
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
    use s2e_core::{counter_schema, EngineStats};
    use s2e_obs::{snapshot_line, Hist, MetricsRegistry};
    use s2e_solver::SolverStats;

    fn canned_line(is_final: bool) -> Json {
        let reg = MetricsRegistry::new(2, &counter_schema());
        let t = reg.handle(0);
        t.publish(&EngineStats { blocks_executed: 5_000, forks: 40, ..EngineStats::default() });
        t.publish(&SolverStats { queries: 17, ..SolverStats::default() });
        t.observe(Hist::HistSolveFeasibility, 12_000);
        t.observe(Hist::HistSolveFeasibility, 90_000);
        let snap = reg.snapshot();
        snapshot_line(3, 2_000_000_000, 2, &snap, None, is_final)
    }

    #[test]
    fn renders_headline_movers_and_hists() {
        let text = render_line(&canned_line(false)).unwrap();
        assert!(text.contains("seq 3"), "{text}");
        assert!(text.contains("workers 2"), "{text}");
        assert!(!text.contains("[final]"), "{text}");
        // Largest delta first.
        let blocks = text.find("engine.blocks_executed").unwrap();
        let forks = text.find("engine.forks").unwrap();
        assert!(blocks < forks, "{text}");
        assert!(text.contains("latency p50 / p90 / p99:"), "{text}");
        assert!(text.contains("latency.solve_feasibility"), "{text}");
    }

    #[test]
    fn final_line_is_marked() {
        let text = render_line(&canned_line(true)).unwrap();
        assert!(text.contains("[final]"), "{text}");
    }

    #[test]
    fn latest_takes_the_last_nonempty_line() {
        let first = canned_line(false).render_compact();
        let last = canned_line(true).render_compact();
        let stream = format!("{first}\n{last}\n\n");
        let text = render_latest(&stream).unwrap();
        assert!(text.contains("[final]"), "{text}");
        assert!(render_latest("  \n").is_err());
        assert!(render_latest("{}").is_err());
    }

    #[test]
    fn report_snapshot_renders_without_envelope() {
        let reg = MetricsRegistry::new(1, &counter_schema());
        reg.handle(0).publish(&SolverStats { queries: 9, ..SolverStats::default() });
        reg.handle(0).observe(Hist::HistPark, 1_500);
        let text = render_report(&reg.snapshot().to_json().render()).unwrap();
        assert!(text.contains("/report snapshot"), "{text}");
        assert!(text.contains("solver.queries"), "{text}");
        assert!(text.contains("latency.park"), "{text}");
        assert!(render_report("not json").is_err());
    }
}
