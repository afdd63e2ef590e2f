//! `mab-monitor`: the in-process live monitoring plane.
//!
//! Every other observability surface in this workspace (telemetry JSONL,
//! decision traces, span profiles, the run ledger) is post-hoc — nothing is
//! visible until the run finishes and files land on disk. This crate adds
//! the live side: a dependency-free, std-only HTTP server that runs inside
//! an experiment binary (enabled with `--monitor ADDR` / `MAB_MONITOR`) and
//! exposes
//!
//! - `GET /metrics` — Prometheus text exposition rendered from live
//!   snapshots of the telemetry counter/histogram registry plus sweep-level
//!   gauges (arms completed/total, ETA, per-worker utilization, ring drop
//!   counts);
//! - `GET /status` — a JSON document with the run identity (experiment,
//!   ledger config digest, code version), live sweep figures, and the
//!   per-arm state table fed by `mab-runner`'s observer hooks;
//! - `GET /events` — a Server-Sent-Events stream of sweep/arm lifecycle
//!   events with heartbeats and slow-client drop accounting.
//!
//! # Invariants
//!
//! The monitor is **read-only over snapshots**: scrapes read the sharded
//! counters with relaxed loads, the sweep-progress cell through its seqlock,
//! and the arm table under a short mutex that only the arm-granularity
//! observer ever writes — no lock is taken on any per-cycle simulation
//! path, and nothing is written to stdout, so experiment output stays
//! byte-identical with monitoring on or off at any `--jobs` setting.
//!
//! By default the server binds `127.0.0.1` (loopback only); binding a
//! routable address is an explicit opt-in and exposes run metadata to the
//! network — see DESIGN.md's security note.
//!
//! This crate is the substrate ROADMAP item 1 (`mab-serve`) mounts its job
//! API onto: the accept loop, bounded connections, and snapshot discipline
//! are exactly the serving constraints that API needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod metrics;
pub mod sse;
pub mod state;
pub mod status;

pub use http::{HttpConfig, HttpStats, IO_TIMEOUT, MAX_CONNECTIONS};
pub use state::{ArmPhase, ArmState, EventRing, MonitorState, RunInfo};

use mab_runner::ObserverId;
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Default bind address: loopback, ephemeral port.
pub const DEFAULT_ADDR: &str = "127.0.0.1:0";

/// A running monitor: HTTP server plus the runner observer feeding it.
///
/// Dropping (or [`Monitor::shutdown`]) deregisters the observer and stops
/// the server.
pub struct Monitor {
    state: Arc<MonitorState>,
    server: http::ServerHandle,
    observer: Option<ObserverId>,
}

impl Monitor {
    /// Binds `addr` (`host:port`; port `0` picks an ephemeral port) and
    /// starts monitoring `run`. Registers a `mab-runner` event observer so
    /// sweeps feed the live endpoints from this call on.
    ///
    /// # Errors
    ///
    /// Returns the bind error when `addr` is unavailable or malformed.
    pub fn start(addr: &str, run: RunInfo) -> std::io::Result<Monitor> {
        let state = Arc::new(MonitorState::new(run));
        let stop = Arc::new(AtomicBool::new(false));
        let route_state = Arc::clone(&state);
        let handler: http::Handler = Arc::new(move |req, conn| route(&route_state, req, conn));
        let server = http::serve_with(
            addr,
            http::HttpConfig::from_env("mab-monitor"),
            Arc::clone(&state.http),
            stop,
            handler,
        )?;
        let observer_state = Arc::clone(&state);
        let observer = mab_runner::add_observer(Arc::new(move |event| {
            observer_state.observe(event);
        }));
        Ok(Monitor {
            state,
            server,
            observer: Some(observer),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The server's base URL, e.g. `http://127.0.0.1:9464`.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr())
    }

    /// The shared state (tests and embedders read it directly).
    pub fn state(&self) -> &Arc<MonitorState> {
        &self.state
    }

    /// Total `/metrics` + `/status` scrapes served so far.
    pub fn scrape_count(&self) -> u64 {
        self.state.scrape_count()
    }

    /// Deregisters the observer and stops the server, returning the final
    /// scrape count for ledger recording.
    pub fn shutdown(mut self) -> u64 {
        self.stop();
        self.state.scrape_count()
    }

    fn stop(&mut self) {
        if let Some(id) = self.observer.take() {
            mab_runner::remove_observer(id);
        }
        self.server.shutdown();
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Routes one request to the monitor's read-only endpoints.
fn route(state: &MonitorState, req: &http::Request, conn: &mut http::Conn) {
    use std::sync::atomic::Ordering;
    if req.method != "GET" {
        let _ = conn.respond(
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
        return;
    }
    match req.path.as_str() {
        "/metrics" => {
            state.metrics_scrapes.fetch_add(1, Ordering::Relaxed);
            let _ = conn.respond(
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &metrics::render(state),
            );
        }
        "/status" => {
            state.status_scrapes.fetch_add(1, Ordering::Relaxed);
            let mut body = status::render(state);
            body.push('\n');
            let _ = conn.respond("200 OK", "application/json", &body);
        }
        "/events" => sse::stream(conn, state),
        "/" | "/healthz" => {
            let _ = conn.respond("200 OK", "text/plain; charset=utf-8", "ok\n");
        }
        _ => {
            let _ = conn.respond(
                "404 Not Found",
                "text/plain; charset=utf-8",
                "unknown path; try /metrics, /status or /events\n",
            );
        }
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("addr", &self.addr())
            .field("scrapes", &self.scrape_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn monitor_serves_all_endpoints() {
        let monitor = Monitor::start(
            DEFAULT_ADDR,
            RunInfo {
                experiment: "unit".to_string(),
                digest: "abcd".to_string(),
                code: "0.1.0+test".to_string(),
                jobs: 1,
                started_unix: 0,
            },
        )
        .unwrap();
        let timeout = Duration::from_secs(5);
        let url = monitor.url();

        let health = client::get(&format!("{url}/healthz"), timeout).unwrap();
        assert_eq!(health.status, 200);

        let metrics = client::get(&format!("{url}/metrics"), timeout).unwrap();
        assert_eq!(metrics.status, 200);
        assert!(metrics.body.contains("mab_run_info"), "{}", metrics.body);

        let status = client::get(&format!("{url}/status"), timeout).unwrap();
        assert_eq!(status.status, 200);
        let doc = mab_telemetry::json::parse(status.body.trim()).unwrap();
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("unit"));

        let missing = client::get(&format!("{url}/nope"), timeout).unwrap();
        assert_eq!(missing.status, 404);

        // Scrape accounting: one /metrics + one /status counted.
        assert_eq!(monitor.scrape_count(), 2);
        assert_eq!(monitor.shutdown(), 2);
    }

    #[test]
    fn sse_stream_delivers_events_and_heartbeats() {
        let monitor = Monitor::start(DEFAULT_ADDR, RunInfo::default()).unwrap();
        let timeout = Duration::from_secs(5);
        let mut sub =
            client::SseClient::connect(&format!("{}/events", monitor.url()), timeout).unwrap();
        monitor.state().events.publish(
            "arm_start",
            "{\"sweep\":0,\"index\":1,\"seed\":2,\"worker\":0}".to_string(),
        );

        let mut saw_event = false;
        let mut saw_heartbeat = false;
        for _ in 0..10 {
            match sub.next_frame() {
                Ok(Some(frame)) => {
                    if frame.event == "arm_start" {
                        assert!(frame.data.contains("\"index\":1"), "{frame:?}");
                        assert!(frame.id.is_some(), "{frame:?}");
                        saw_event = true;
                    }
                    if frame.event == "comment" && frame.data == "heartbeat" {
                        saw_heartbeat = true;
                    }
                    if saw_event && saw_heartbeat {
                        break;
                    }
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
        assert!(saw_event, "never saw the published arm_start");
        assert!(saw_heartbeat, "never saw a heartbeat comment");
        drop(sub);
        monitor.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_and_port_is_released() {
        let monitor = Monitor::start(DEFAULT_ADDR, RunInfo::default()).unwrap();
        let addr = monitor.addr();
        monitor.shutdown();
        // The port can be rebound immediately after shutdown.
        let rebound = std::net::TcpListener::bind(addr);
        assert!(rebound.is_ok(), "{rebound:?}");
    }
}
