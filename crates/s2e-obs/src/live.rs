//! One-stop lifecycle for live telemetry: registry + sampler thread +
//! scrape endpoint (DESIGN.md §16).
//!
//! ```text
//! let live = LiveTelemetry::start(LiveConfig {
//!     workers,
//!     jsonl_path: Some("results/run_live.jsonl".into()),
//!     serve_addr: Some("127.0.0.1:0".into()),
//!     ..LiveConfig::default()
//! }, &schema)?;
//! // ... run, handing live.handle(w) to each worker ...
//! let summary = live.finish()?; // final flush line + joined threads
//! ```
//!
//! `finish` must be called after the run completes (workers flushed);
//! the sampler's final JSONL line is taken after that point, which is
//! what makes its cumulative values exactly equal the end-of-run
//! `RunReport` twins.

use crate::counters::CounterSchema;
use crate::metrics::{MetricsRegistry, MetricsSnapshot, TelemetryHandle};
use crate::sampler::{Sampler, SamplerSummary};
use crate::serve::TelemetryServer;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Configuration for [`LiveTelemetry::start`].
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Writer shards — one per worker (min 1).
    pub workers: usize,
    /// Delta-snapshot cadence for the JSONL stream.
    pub sample_interval: Duration,
    /// JSONL sink; `None` runs without a sampler thread.
    pub jsonl_path: Option<PathBuf>,
    /// Scrape endpoint bind address (e.g. `127.0.0.1:0`); `None` runs
    /// without the endpoint.
    pub serve_addr: Option<String>,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            workers: 1,
            sample_interval: Duration::from_millis(50),
            jsonl_path: None,
            serve_addr: None,
        }
    }
}

/// Result of [`LiveTelemetry::finish`].
#[derive(Debug)]
pub struct LiveSummary {
    /// Merged registry state after the final flush.
    pub final_snapshot: MetricsSnapshot,
    /// JSONL lines written (0 when no sampler ran).
    pub lines: u64,
    /// The JSONL file, when a sampler ran.
    pub jsonl_path: Option<PathBuf>,
}

/// A running telemetry stack. Threads stop on `finish` (or drop).
pub struct LiveTelemetry {
    registry: Arc<MetricsRegistry>,
    sampler: Option<Sampler>,
    server: Option<TelemetryServer>,
}

impl LiveTelemetry {
    /// Starts a registry laid out by `schema`, plus whichever of the
    /// sampler and endpoint `cfg` asks for.
    pub fn start(cfg: LiveConfig, schema: &CounterSchema) -> io::Result<LiveTelemetry> {
        let registry = MetricsRegistry::new(cfg.workers, schema);
        let sampler = match &cfg.jsonl_path {
            Some(path) => {
                Some(Sampler::start(Arc::clone(&registry), path, cfg.sample_interval)?)
            }
            None => None,
        };
        let server = match &cfg.serve_addr {
            Some(addr) => Some(TelemetryServer::start(Arc::clone(&registry), addr)?),
            None => None,
        };
        Ok(LiveTelemetry { registry, sampler, server })
    }

    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Writer handle for worker `shard`.
    pub fn handle(&self, shard: usize) -> TelemetryHandle {
        self.registry.handle(shard)
    }

    /// Bound endpoint address, when serving.
    pub fn serve_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(|s| s.addr())
    }

    /// Current merged snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Stops the sampler (writing its final line) and the endpoint.
    pub fn finish(self) -> io::Result<LiveSummary> {
        let LiveTelemetry { registry, sampler, server } = self;
        let summary = match sampler {
            Some(s) => {
                let SamplerSummary { final_snapshot, lines, path } = s.finish()?;
                LiveSummary { final_snapshot, lines, jsonl_path: Some(path) }
            }
            None => LiveSummary {
                final_snapshot: registry.snapshot(),
                lines: 0,
                jsonl_path: None,
            },
        };
        if let Some(server) = server {
            server.stop();
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Counter;

    #[test]
    fn bare_registry_lifecycle() {
        let live = LiveTelemetry::start(
            LiveConfig { workers: 2, ..Default::default() },
            &CounterSchema::default(),
        )
        .unwrap();
        live.handle(1).set_counter(Counter::ParallelSteals, 4);
        assert!(live.serve_addr().is_none());
        let summary = live.finish().unwrap();
        assert_eq!(summary.lines, 0);
        assert_eq!(summary.final_snapshot.counter(Counter::ParallelSteals), 4);
    }
}
