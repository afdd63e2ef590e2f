//! `mab-inspect watch`: a live terminal view of a monitored run.
//!
//! Connects to a `mab-monitor` endpoint (an experiment started with
//! `--monitor ADDR`), tails its `/events` SSE stream, and re-polls
//! `/status` to render a per-arm state table. When the endpoint has no
//! `/status` it falls back to a `mab-serve` daemon's `/queue`, rendering
//! the scheduler/cache view instead — both planes share the same SSE
//! machinery, so the event loop works unchanged. The rendering is pure
//! over the parsed documents so tests can exercise it without a server;
//! the `mab-inspect` binary owns the socket loop.

use mab_monitor::client::{self, SseClient};
use mab_telemetry::json::JsonValue;
use mab_telemetry::live;
use std::fmt::Write as _;
use std::io::ErrorKind;
use std::time::{Duration, Instant};

/// How many arm rows the table shows (newest last).
const ARM_ROWS: usize = 12;

/// Renders one status snapshot as the watch screen: run identity, sweep
/// progress, per-worker line, and the tail of the arm table.
#[must_use]
pub fn render_status(doc: &JsonValue) -> String {
    let mut out = String::new();
    let str_of = |key: &str| doc.get(key).and_then(JsonValue::as_str).unwrap_or("?");
    let _ = writeln!(
        out,
        "{} (digest {}, code {}) --jobs {}",
        str_of("experiment"),
        str_of("digest"),
        str_of("code"),
        doc.get("jobs").and_then(JsonValue::as_u64).unwrap_or(0),
    );

    match doc.get("sweep") {
        Some(sweep) if sweep.get("total").is_some() => {
            let field = |key: &str| sweep.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
            let (done, total) = (field("done"), field("total"));
            let rate = sweep
                .get("rate_per_sec")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            let eta = sweep.get("eta_secs").and_then(JsonValue::as_f64);
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * done as f64 / total as f64
            };
            let _ = writeln!(
                out,
                "sweep: {done}/{total} arms ({pct:.1}%)  {}  ETA {}",
                live::format_rate(rate),
                live::format_eta(eta),
            );
        }
        _ => {
            let _ = writeln!(out, "sweep: idle (no sweep in flight)");
        }
    }

    if let Some(workers) = doc.get("workers").and_then(JsonValue::as_arr) {
        if !workers.is_empty() {
            out.push_str("workers:");
            for w in workers {
                let field = |key: &str| w.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
                let busy = field("busy_ns") as f64 / 1e9;
                let running = match w.get("running") {
                    Some(r) if r.get("index").is_some() => format!(
                        " on #{}",
                        r.get("index").and_then(JsonValue::as_u64).unwrap_or(0)
                    ),
                    _ => String::new(),
                };
                let _ = write!(
                    out,
                    "  [{}] {} arms {:.2}s busy{}",
                    field("worker"),
                    field("arms"),
                    busy,
                    running
                );
            }
            out.push('\n');
        }
    }

    if let Some(arms) = doc.get("arms").and_then(JsonValue::as_arr) {
        if !arms.is_empty() {
            let _ = writeln!(
                out,
                "{:>6} {:>6} {:>20} {:>7}  {:<8} {:>10}",
                "sweep", "index", "seed", "worker", "state", "wall"
            );
            let skip = arms.len().saturating_sub(ARM_ROWS);
            if skip > 0 {
                let _ = writeln!(out, "  ... {skip} earlier arm(s)");
            }
            for arm in &arms[skip..] {
                let field = |key: &str| arm.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
                let wall_ns = field("wall_ns");
                let wall = if wall_ns == 0 {
                    "-".to_string()
                } else {
                    format!("{:.2}ms", wall_ns as f64 / 1e6)
                };
                let _ = writeln!(
                    out,
                    "{:>6} {:>6} {:>20} {:>7}  {:<8} {:>10}",
                    field("sweep"),
                    field("index"),
                    field("seed"),
                    field("worker"),
                    arm.get("state").and_then(JsonValue::as_str).unwrap_or("?"),
                    wall
                );
            }
        }
    }
    out
}

/// Renders a `mab-serve` `/queue` snapshot: daemon totals, per-client
/// queue depths, and the job table.
#[must_use]
pub fn render_queue(doc: &JsonValue) -> String {
    let mut out = String::new();
    let num = |key: &str| doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    let _ = writeln!(
        out,
        "mab-serve (code {}) {} workers, queue {}/{}{}",
        doc.get("code").and_then(JsonValue::as_str).unwrap_or("?"),
        num("workers"),
        num("open_arms"),
        num("queue_cap"),
        if doc.get("draining").and_then(JsonValue::as_bool) == Some(true) {
            "  DRAINING"
        } else {
            ""
        },
    );
    let _ = writeln!(
        out,
        "arms: {} executed, {} cache-served; {} cache entries, {} in flight",
        num("arms_executed"),
        num("arms_cached"),
        num("cache_entries"),
        num("inflight"),
    );
    if let Some(JsonValue::Obj(queued)) = doc.get("queued") {
        if !queued.is_empty() {
            out.push_str("queued:");
            for (client, depth) in queued {
                let _ = write!(out, "  {client}={}", depth.as_u64().unwrap_or(0));
            }
            out.push('\n');
        }
    }
    if let Some(jobs) = doc.get("jobs").and_then(JsonValue::as_arr) {
        if !jobs.is_empty() {
            let _ = writeln!(
                out,
                "{:>5} {:<12} {:<22} {:<8} {:>10} {:>6}",
                "job", "client", "experiment", "status", "arms", "hits"
            );
            for job in jobs {
                let field = |key: &str| job.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
                let text = |key: &str| job.get(key).and_then(JsonValue::as_str).unwrap_or("?");
                let _ = writeln!(
                    out,
                    "{:>5} {:<12} {:<22} {:<8} {:>10} {:>6}",
                    field("id"),
                    text("client"),
                    text("experiment"),
                    text("status"),
                    format!("{}/{}", field("arms_finished"), field("arms_total")),
                    field("cache_hits"),
                );
            }
        }
    }
    out
}

/// Fetches `/status` from `base` and renders it; an endpoint without
/// `/status` is treated as a `mab-serve` daemon and rendered from
/// `/queue`.
fn fetch_and_render(base: &str, timeout: Duration) -> Result<String, String> {
    let status_url = format!("{base}/status");
    let status_problem = match client::get(&status_url, timeout) {
        Ok(resp) if resp.status == 200 => {
            let doc = mab_telemetry::json::parse(resp.body.trim())
                .map_err(|e| format!("{status_url} returned unparsable JSON: {e}"))?;
            return Ok(render_status(&doc));
        }
        Ok(resp) => format!("{status_url} returned HTTP {}", resp.status),
        Err(e) => format!("cannot fetch {status_url}: {e}"),
    };
    let queue_url = format!("{base}/queue");
    let resp = client::get(&queue_url, timeout)
        .map_err(|e| format!("{status_problem}; cannot fetch {queue_url}: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "{status_problem}; {queue_url} returned HTTP {}",
            resp.status
        ));
    }
    let doc = mab_telemetry::json::parse(resp.body.trim())
        .map_err(|e| format!("{queue_url} returned unparsable JSON: {e}"))?;
    Ok(render_queue(&doc))
}

/// Normalizes the positional URL: adds the scheme, strips a trailing `/`.
#[must_use]
pub fn normalize_url(url: &str) -> String {
    let with_scheme = if url.starts_with("http://") {
        url.to_string()
    } else {
        format!("http://{url}")
    };
    with_scheme.trim_end_matches('/').to_string()
}

/// Reconnect attempts after an SSE drop before concluding the server is
/// gone for good. The first attempt is immediate, so an orderly shutdown
/// (connection refused) still ends the watch promptly.
const RECONNECT_ATTEMPTS: u32 = 3;

/// Backoff used when the server never sent a `retry:` hint.
const DEFAULT_BACKOFF: Duration = Duration::from_millis(250);

/// Ceiling for the exponential reconnect backoff.
const MAX_BACKOFF: Duration = Duration::from_secs(30);

/// Watches a monitor endpoint until its SSE stream closes for good or,
/// with `once`, after a single status snapshot.
///
/// A dropped stream does not end the watch: the loop reconnects with
/// exponential backoff — seeded by the server's `retry:` hint, doubling
/// per attempt, capped at [`MAX_BACKOFF`] — so a monitor restart or a
/// transient network cut only costs a gap in the event log. Only when
/// [`RECONNECT_ATTEMPTS`] consecutive attempts fail (the run finished and
/// the server is gone) does the watch end.
///
/// # Errors
///
/// Returns a message when the endpoint is unreachable or malformed at
/// startup (before the first stream is established).
pub fn watch(url: &str, interval: Duration, once: bool) -> Result<(), String> {
    let base = normalize_url(url);
    let timeout = interval.max(Duration::from_secs(2)) + Duration::from_secs(1);
    print!("{}", fetch_and_render(&base, timeout)?);
    if once {
        return Ok(());
    }

    let events_url = format!("{base}/events");
    let mut events = SseClient::connect(&events_url, timeout)
        .map_err(|e| format!("cannot subscribe to {events_url}: {e}"))?;
    let mut last_render = Instant::now();
    // The server's `retry:` hint (milliseconds) seeds the backoff.
    let mut retry_hint: Option<Duration> = None;
    'stream: loop {
        // Heartbeats arrive every second, so this wakes at least that
        // often; a timeout just means a slow stream, not a dead server.
        let frame = match events.next_frame() {
            Ok(Some(frame)) => Some(frame),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => None,
            Ok(None) | Err(_) => {
                // Dropped stream (EOF or socket error): reconnect with
                // capped exponential backoff instead of giving up — the
                // monitor may just be restarting.
                let mut backoff = retry_hint.unwrap_or(DEFAULT_BACKOFF).min(MAX_BACKOFF);
                for attempt in 1..=RECONNECT_ATTEMPTS {
                    if attempt > 1 {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(MAX_BACKOFF);
                    }
                    if let Ok(client) = SseClient::connect(&events_url, timeout) {
                        events = client;
                        println!("-- reconnected to {events_url} (attempt {attempt})");
                        continue 'stream;
                    }
                }
                break 'stream;
            }
        };
        if let Some(f) = &frame {
            if let Some(ms) = f.retry_ms {
                retry_hint = Some(Duration::from_millis(ms));
            }
            if matches!(
                f.event.as_str(),
                "sweep_begin" | "sweep_end" | "job_submitted" | "job_done" | "arm_crash"
            ) {
                println!("-- {}: {}", f.event, f.data);
            }
        }
        if last_render.elapsed() >= interval {
            if let Ok(text) = fetch_and_render(&base, timeout) {
                print!("\n{text}");
            }
            // A failed poll is not fatal: the SSE loop above decides
            // whether the server is really gone.
            last_render = Instant::now();
        }
    }
    println!("monitor stream closed — run finished or monitor shut down");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = r#"{"experiment":"fig10","digest":"feedface","code":"0.1.0+abc","jobs":2,
        "started_unix":0,
        "sweep":{"active":1,"done":3,"total":24,"elapsed_secs":1.5,"rate_per_sec":2.0,
                 "eta_secs":10.5,"eta":"10s"},
        "scrapes":{"metrics":1,"status":2,"sse_clients":0,"sse_dropped":0,"rejected_conns":0},
        "arms_started":4,"arms_finished":3,"arm_rows_evicted":0,
        "workers":[{"worker":0,"busy_ns":1500000000,"arms":2,"running":null},
                   {"worker":1,"busy_ns":900000000,"arms":1,"running":{"sweep":0,"index":3}}],
        "arms":[{"sweep":0,"index":0,"seed":11,"worker":0,"state":"done","wall_ns":2000000},
                {"sweep":0,"index":3,"seed":14,"worker":1,"state":"running","wall_ns":0}]}"#;

    #[test]
    fn render_status_shows_progress_workers_and_arms() {
        let doc = mab_telemetry::json::parse(STATUS).unwrap();
        let text = render_status(&doc);
        assert!(
            text.contains("fig10 (digest feedface, code 0.1.0+abc) --jobs 2"),
            "{text}"
        );
        assert!(text.contains("sweep: 3/24 arms (12.5%)"), "{text}");
        assert!(text.contains("[1] 1 arms 0.90s busy on #3"), "{text}");
        assert!(text.contains("running"), "{text}");
        assert!(text.contains("2.00ms"), "{text}");
    }

    #[test]
    fn render_status_handles_idle_and_empty_documents() {
        let doc = mab_telemetry::json::parse(r#"{"experiment":"x","sweep":null}"#).unwrap();
        let text = render_status(&doc);
        assert!(text.contains("sweep: idle"), "{text}");
        assert!(!text.contains("workers:"), "{text}");
    }

    #[test]
    fn render_queue_shows_daemon_totals_and_jobs() {
        let doc = mab_telemetry::json::parse(
            r#"{"code":"0.1.0+abc","workers":4,"queue_cap":256,"draining":false,
                "open_arms":3,"inflight":1,"arms_executed":10,"arms_cached":7,
                "cache_entries":9,"queued":{"alice":2,"bob":1},
                "jobs":[{"id":0,"client":"alice","experiment":"fig08_singlecore",
                         "status":"running","arms_total":4,"arms_finished":2,"cache_hits":1}]}"#,
        )
        .unwrap();
        let text = render_queue(&doc);
        assert!(
            text.contains("mab-serve (code 0.1.0+abc) 4 workers"),
            "{text}"
        );
        assert!(text.contains("queue 3/256"), "{text}");
        assert!(text.contains("10 executed, 7 cache-served"), "{text}");
        assert!(text.contains("alice=2"), "{text}");
        assert!(text.contains("fig08_singlecore"), "{text}");
        assert!(text.contains("2/4"), "{text}");
        assert!(!text.contains("DRAINING"), "{text}");
    }

    #[test]
    fn normalize_url_adds_scheme_and_strips_slash() {
        assert_eq!(normalize_url("127.0.0.1:9464/"), "http://127.0.0.1:9464");
        assert_eq!(
            normalize_url("http://127.0.0.1:9464"),
            "http://127.0.0.1:9464"
        );
    }

    /// A hand-rolled SSE server that cuts the stream after one event:
    /// `watch` must reconnect (honoring the tiny `retry:` hint) instead of
    /// treating the first drop as the end of the run.
    #[test]
    fn watch_reconnects_with_backoff_after_stream_drops() {
        use std::io::{Read as _, Write as _};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let events_conns = Arc::new(AtomicUsize::new(0));
        let conns = Arc::clone(&events_conns);
        let server = std::thread::spawn(move || {
            // Serve until two /events streams have been cut; then stop
            // listening so the watch's reconnect attempts are refused.
            let mut streams_dropped = 0;
            while streams_dropped < 2 {
                let (mut sock, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let n = sock.read(&mut buf).unwrap_or(0);
                let req = String::from_utf8_lossy(&buf[..n]).to_string();
                if req.starts_with("GET /events") {
                    conns.fetch_add(1, Ordering::SeqCst);
                    streams_dropped += 1;
                    let _ = sock.write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\r\n\
                          retry: 40\n\nevent: sweep_begin\ndata: {}\n\n",
                    );
                    // Dropping the socket here cuts the stream mid-run.
                } else {
                    let body = r#"{"experiment":"reconnect_unit","sweep":null}"#;
                    let _ = sock.write_all(
                        format!(
                            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                            body.len()
                        )
                        .as_bytes(),
                    );
                }
            }
        });
        // Long interval: no mid-loop /status polls to interleave with the
        // scripted connections above.
        watch(&addr, Duration::from_secs(30), false).unwrap();
        server.join().unwrap();
        assert!(
            events_conns.load(Ordering::SeqCst) >= 2,
            "watch must reconnect after the stream drops"
        );
    }

    #[test]
    fn watch_against_a_live_monitor_renders_and_exits_on_shutdown() {
        let monitor = mab_monitor::Monitor::start(
            mab_monitor::DEFAULT_ADDR,
            mab_monitor::RunInfo {
                experiment: "watch_unit".to_string(),
                ..mab_monitor::RunInfo::default()
            },
        )
        .unwrap();
        let addr = monitor.addr().to_string();

        // --once path: one snapshot, no SSE subscription.
        watch(&addr, Duration::from_millis(100), true).unwrap();

        // Full path: shut the monitor down from another thread; the SSE
        // stream EOF must end the loop.
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            monitor.shutdown();
        });
        watch(&addr, Duration::from_millis(100), false).unwrap();
        handle.join().unwrap();
    }
}
