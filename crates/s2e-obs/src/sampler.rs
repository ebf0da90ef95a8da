//! Periodic delta snapshots of a [`MetricsRegistry`], streamed as
//! JSONL (`s2e-live-v1`) — the Fig 6–9 axes over wall time, live.
//!
//! A [`Sampler`] owns one background thread. Every `interval` it merges
//! the registry's shards and appends one line to the configured file:
//! cumulative counters/gauges/histograms, the delta since the previous
//! line, and derived rates (paths/s, forks/s, solver share). On
//! [`Sampler::finish`] the thread is woken, takes one last snapshot —
//! by then every worker has done its final flush, so the line's
//! cumulative values equal the end-of-run `RunReport` exactly for every
//! counter with a report twin — marks it `"final": true`, and exits.
//!
//! Line schema (`s2e-live-v1`): `seq` (monotonic line number),
//! `wall_ns` (since sampler start), `final`, `workers` (shard count),
//! `counters`/`gauges`/`hists` (cumulative, as in
//! [`MetricsSnapshot::to_json`]), `delta` (wall window + per-counter
//! and per-histogram-count increments, nonzero entries only), and
//! `derived` rates computed over the delta window.

use crate::json::Json;
use crate::metrics::{Counter, Gauge, Hist, MetricsRegistry, MetricsSnapshot};
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Schema tag stamped on every JSONL line.
pub const LIVE_SCHEMA: &str = "s2e-live-v1";

/// Builds one `s2e-live-v1` line. Pure — the unit tests and `live-top`
/// rendering both lean on this being deterministic in its inputs.
/// `prev` is the previous tick's cumulative snapshot and wall clock
/// (zeros for the first line).
pub fn snapshot_line(
    seq: u64,
    wall_ns: u64,
    workers: usize,
    snap: &MetricsSnapshot,
    prev: Option<(&MetricsSnapshot, u64)>,
    is_final: bool,
) -> Json {
    let (prev_counters, prev_hists, prev_wall): (Option<&MetricsSnapshot>, _, u64) = match prev {
        Some((p, w)) => (Some(p), Some(p), w),
        None => (None, None, 0),
    };
    let dt_ns = wall_ns.saturating_sub(prev_wall);

    let mut delta_counters = Json::obj();
    // Both snapshots come from one registry, so their slots line up.
    for (i, (name, value)) in snap.named_counters().enumerate() {
        let dv = value.saturating_sub(prev_counters.map_or(0, |p| p.counters[i]));
        if dv > 0 {
            delta_counters = delta_counters.set(name, dv);
        }
    }
    let mut delta_hists = Json::obj();
    for &h in Hist::ALL {
        let before = prev_hists.map_or(0, |p: &MetricsSnapshot| p.hist(h).count());
        let dv = snap.hist(h).count().saturating_sub(before);
        if dv > 0 {
            delta_hists = delta_hists.set(h.name(), dv);
        }
    }
    let delta = Json::obj()
        .set("wall_ns", dt_ns)
        .set("counters", delta_counters)
        .set("hists", delta_hists);

    let dt_s = (dt_ns as f64 / 1e9).max(1e-12);
    let d = |name: &str| -> u64 {
        let before = prev_counters.and_then(|p| p.counter_named(name)).unwrap_or(0);
        snap.counter_named(name).unwrap_or(0).saturating_sub(before)
    };
    let rate = |name: &str| -> f64 { d(name) as f64 / dt_s };
    let derived = Json::obj()
        .set("paths_per_s", rate("engine.states_terminated"))
        .set("forks_per_s", rate("engine.forks"))
        .set("blocks_per_s", rate("engine.blocks_executed"))
        .set("queries_per_s", rate("solver.queries"))
        // Fraction of total worker-time the window spent inside the
        // solver (Fig 9's y-axis, live).
        .set(
            "solver_share",
            d("solver.total_time_ns") as f64 / (dt_ns.max(1) as f64 * workers.max(1) as f64),
        )
        // Upper bound: sum of per-worker coverage sets, not their union.
        .set("covered_blocks_ub", snap.counter(Counter::EngineSeenBlocks))
        .set("live_states", snap.gauge(Gauge::GaugeLiveStates))
        .set("queue_depth", snap.gauge(Gauge::GaugeQueueDepth));

    let snapshot_json = snap.to_json();
    let mut line = Json::obj()
        .set("schema", LIVE_SCHEMA)
        .set("seq", seq)
        .set("wall_ns", wall_ns)
        .set("final", is_final)
        .set("workers", workers);
    for key in ["counters", "gauges", "hists"] {
        line = line.set(key, snapshot_json.get(key).cloned().unwrap_or(Json::Null));
    }
    line.set("delta", delta).set("derived", derived)
}

/// Everything the sampler leaves behind after [`Sampler::finish`].
#[derive(Debug)]
pub struct SamplerSummary {
    /// Merged snapshot the `"final": true` line was rendered from.
    pub final_snapshot: MetricsSnapshot,
    /// Total lines written, including the final one.
    pub lines: u64,
    /// The JSONL file the stream went to.
    pub path: PathBuf,
}

struct StopFlag {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// Background snapshot thread appending `s2e-live-v1` JSONL.
pub struct Sampler {
    flag: Arc<StopFlag>,
    thread: Option<JoinHandle<io::Result<SamplerSummary>>>,
}

impl Sampler {
    /// Starts sampling `registry` every `interval`, truncating and then
    /// appending to the file at `path` (parent directories are
    /// created). The first line is written after one full interval.
    pub fn start(
        registry: Arc<MetricsRegistry>,
        path: &Path,
        interval: Duration,
    ) -> io::Result<Sampler> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        let path = path.to_path_buf();
        let flag = Arc::new(StopFlag { stopped: Mutex::new(false), cv: Condvar::new() });
        let thread_flag = Arc::clone(&flag);
        let interval = interval.max(Duration::from_millis(1));
        let thread = std::thread::Builder::new()
            .name("s2e-telemetry-sampler".into())
            .spawn(move || -> io::Result<SamplerSummary> {
                let mut out = BufWriter::new(file);
                let start = Instant::now();
                let workers = registry.shard_count();
                let mut seq = 0u64;
                let mut prev: Option<(MetricsSnapshot, u64)> = None;
                loop {
                    let stopped = {
                        let guard = thread_flag.stopped.lock().unwrap();
                        let (guard, _) = thread_flag.cv.wait_timeout(guard, interval).unwrap();
                        *guard
                    };
                    let wall_ns = start.elapsed().as_nanos() as u64;
                    let snap = registry.snapshot();
                    let line = snapshot_line(
                        seq,
                        wall_ns,
                        workers,
                        &snap,
                        prev.as_ref().map(|(s, w)| (s, *w)),
                        stopped,
                    );
                    out.write_all(line.render_compact().as_bytes())?;
                    out.write_all(b"\n")?;
                    out.flush()?;
                    seq += 1;
                    if stopped {
                        return Ok(SamplerSummary { final_snapshot: snap, lines: seq, path });
                    }
                    prev = Some((snap, wall_ns));
                }
            })?;
        Ok(Sampler { flag, thread: Some(thread) })
    }

    /// Stops the thread, which writes one last `"final": true` line
    /// from a snapshot taken *after* this call — callers must have
    /// flushed all worker telemetry first for end-of-run exactness.
    pub fn finish(mut self) -> io::Result<SamplerSummary> {
        self.signal_stop();
        let thread = self.thread.take().expect("sampler already finished");
        thread
            .join()
            .map_err(|_| io::Error::new(io::ErrorKind::Other, "sampler thread panicked"))?
    }

    fn signal_stop(&self) {
        *self.flag.stopped.lock().unwrap() = true;
        self.flag.cv.notify_all();
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.signal_stop();
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterSchema;
    use crate::json;

    #[test]
    fn line_shape_and_deltas() {
        let reg = MetricsRegistry::new(2, &CounterSchema::default());
        reg.handle(0).set_counter(Counter::ParallelSteals, 10);
        let first = reg.snapshot();
        let line = snapshot_line(0, 1_000, 2, &first, None, false);
        assert_eq!(line.get("schema").and_then(|v| v.as_str()), Some(LIVE_SCHEMA));
        assert_eq!(
            line.get("delta")
                .and_then(|d| d.get("counters"))
                .and_then(|c| c.get("parallel.steals"))
                .and_then(|v| v.as_u64()),
            Some(10)
        );
        reg.handle(1).set_counter(Counter::ParallelSteals, 5);
        reg.handle(0).observe(Hist::HistPark, 800);
        let second = reg.snapshot();
        let line2 = snapshot_line(1, 2_000, 2, &second, Some((&first, 1_000)), true);
        assert_eq!(line2.get("final").and_then(|v| v.as_bool()), Some(true));
        let delta = line2.get("delta").unwrap();
        assert_eq!(
            delta.get("counters").and_then(|c| c.get("parallel.steals")).and_then(|v| v.as_u64()),
            Some(5)
        );
        assert_eq!(
            delta.get("hists").and_then(|h| h.get("latency.park")).and_then(|v| v.as_u64()),
            Some(1)
        );
        // A rendered line parses back.
        let parsed = json::parse(&line2.render()).unwrap();
        assert_eq!(parsed.get("seq").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn sampler_writes_final_line_with_flushed_values() {
        let dir = std::env::temp_dir().join("s2e-obs-sampler-test");
        let path = dir.join("run_live.jsonl");
        let reg = MetricsRegistry::new(1, &CounterSchema::default());
        let sampler =
            Sampler::start(Arc::clone(&reg), &path, Duration::from_millis(5)).unwrap();
        reg.handle(0).set_counter(Counter::ParallelExports, 33);
        std::thread::sleep(Duration::from_millis(20));
        reg.handle(0).set_counter(Counter::ParallelExports, 77);
        let summary = sampler.finish().unwrap();
        assert!(summary.lines >= 1);
        assert_eq!(summary.final_snapshot.counter(Counter::ParallelExports), 77);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, summary.lines);
        let last = json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("final").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(
            last.get("counters").and_then(|c| c.get("parallel.exports")).and_then(|v| v.as_u64()),
            Some(77)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
