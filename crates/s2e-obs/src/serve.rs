//! Std-only TCP endpoint over a live [`MetricsRegistry`]
//! (DESIGN.md §16): `GET /metrics` serves the Prometheus text
//! exposition, `GET /report` the current merged snapshot as JSON. One
//! accept thread, nonblocking listener polled every few milliseconds,
//! each connection handled on a bounded short-lived thread — a scrape
//! endpoint, not a web server. This is the substrate the distributed
//! tier's job API streams `RunReport` snapshots over (DESIGN.md §17).

use crate::metrics::MetricsRegistry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps between nonblocking polls.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Per-connection read/write deadline.
const CONN_TIMEOUT: Duration = Duration::from_millis(500);
/// Largest request we bother reading.
const MAX_REQUEST: usize = 4096;
/// Connection threads allowed in flight at once. Past this the accept
/// loop joins the oldest before taking another connection, so a burst
/// of wedged scrapers degrades to the old serialized behavior instead
/// of unbounded thread growth.
const MAX_INFLIGHT: usize = 8;

/// Background scrape endpoint. Dropping (or [`TelemetryServer::stop`])
/// shuts the accept thread down; in-flight connections finish first.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral port) and
    /// starts serving snapshots of `registry`.
    pub fn start(registry: Arc<MetricsRegistry>, addr: &str) -> io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("s2e-telemetry-serve".into())
            .spawn(move || {
                // One short-lived thread per connection: a scraper that
                // stalls inside its CONN_TIMEOUT window must not block
                // other scrapes (or stop() latency) behind it.
                let mut inflight: Vec<JoinHandle<()>> = Vec::new();
                while !thread_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            inflight.retain(|h| !h.is_finished());
                            while inflight.len() >= MAX_INFLIGHT {
                                let _ = inflight.remove(0).join();
                            }
                            let registry = Arc::clone(&registry);
                            let conn = std::thread::Builder::new()
                                .name("s2e-telemetry-conn".into())
                                .spawn(move || {
                                    // Scrape errors (slow clients,
                                    // resets) are the client's problem,
                                    // never the run's.
                                    let _ = handle_connection(stream, &registry);
                                });
                            match conn {
                                Ok(h) => inflight.push(h),
                                Err(_) => {} // spawn failure drops the connection
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => std::thread::sleep(ACCEPT_POLL),
                    }
                }
                for h in inflight {
                    let _ = h.join();
                }
            })?;
        Ok(TelemetryServer { addr: local, stop, thread: Some(thread) })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept thread and waits for it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(mut stream: TcpStream, registry: &MetricsRegistry) -> io::Result<()> {
    // On BSD-lineage platforms an accepted stream inherits the
    // listener's nonblocking mode (Rust does not normalize this), which
    // would turn the blocking read loop below into a spurious-WouldBlock
    // generator. Force blocking mode before arming the timeouts.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(CONN_TIMEOUT))?;
    stream.set_write_timeout(Some(CONN_TIMEOUT))?;
    let mut request = Vec::new();
    let mut chunk = [0u8; 512];
    while !request.windows(4).any(|w| w == b"\r\n\r\n") && request.len() < MAX_REQUEST {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => request.extend_from_slice(&chunk[..n]),
            // A read deadline expiring (surfaced as TimedOut, or as
            // WouldBlock on platforms where the timeout reuses the
            // nonblocking machinery) means the client has sent all it
            // is going to: answer what we have rather than hard-fail.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&request);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain", "only GET is supported\n".to_string())
    } else {
        match path {
            "/metrics" => {
                ("200 OK", "text/plain; version=0.0.4", registry.snapshot().prometheus())
            }
            "/report" => {
                let mut body = registry.snapshot().to_json().render();
                body.push('\n');
                ("200 OK", "application/json", body)
            }
            _ => ("404 Not Found", "text/plain", "try /metrics or /report\n".to_string()),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Minimal HTTP/1.1 GET against a telemetry endpoint; returns the body.
/// Used by `live-top --url` and the endpoint tests.
pub fn http_get(addr: &str, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let Some(split) = raw.find("\r\n\r\n") else {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"));
    };
    let status = raw.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(io::Error::new(
            io::ErrorKind::Other,
            format!("endpoint returned: {status}"),
        ));
    }
    Ok(raw[split + 4..].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::counters::CounterSchema;
    use crate::metrics::Counter;

    #[test]
    fn serves_metrics_and_report() {
        let reg = MetricsRegistry::new(1, &CounterSchema::default());
        reg.handle(0).set_counter(Counter::ParallelSteals, 21);
        let server = TelemetryServer::start(Arc::clone(&reg), "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        let metrics = http_get(&addr, "/metrics").unwrap();
        assert!(metrics.contains("s2e_parallel_steals 21"));
        let report = http_get(&addr, "/report").unwrap();
        let parsed = json::parse(report.trim()).unwrap();
        assert_eq!(
            parsed.get("counters").and_then(|c| c.get("parallel.steals")).and_then(|v| v.as_u64()),
            Some(21)
        );
        assert!(http_get(&addr, "/nope").is_err());
        server.stop();
    }

    #[test]
    fn stalled_scraper_does_not_serialize_endpoint() {
        let reg = MetricsRegistry::new(1, &CounterSchema::default());
        reg.handle(0).set_counter(Counter::ParallelSteals, 7);
        let server = TelemetryServer::start(Arc::clone(&reg), "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        // A client that connects and then goes silent pins its
        // connection thread for the full CONN_TIMEOUT...
        let stalled = TcpStream::connect(&addr).unwrap();
        std::thread::sleep(ACCEPT_POLL * 4); // let the accept loop take it
        // ...while a well-behaved scrape still completes promptly.
        let started = std::time::Instant::now();
        let metrics = http_get(&addr, "/metrics").unwrap();
        assert!(metrics.contains("s2e_parallel_steals 7"));
        assert!(
            started.elapsed() < CONN_TIMEOUT,
            "scrape serialized behind a stalled client: {:?}",
            started.elapsed()
        );
        drop(stalled);
        server.stop();
    }
}
