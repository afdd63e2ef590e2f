//! HTTP routing for the serve daemon.
//!
//! | Method | Path                    | Reply |
//! |--------|-------------------------|-------|
//! | POST   | `/jobs`                 | submit a sweep; job document, or `400`/`429`/`503` |
//! | GET    | `/jobs/:id`             | job status document |
//! | GET    | `/jobs/:id/artifact`    | the finished job's report (`?arm=N` selects one arm) |
//! | GET    | `/jobs/:id/events`      | per-job SSE progress stream |
//! | GET    | `/events`               | global SSE progress stream |
//! | GET    | `/queue`                | scheduler/cache snapshot |
//! | GET    | `/crashes`              | `.mabcrash` reports with job attribution |
//! | GET    | `/metrics`              | Prometheus text exposition |
//! | GET    | `/experiments`          | the experiment registry with defaults |
//! | GET    | `/` or `/healthz`       | `ok` |
//!
//! Runs on `mab-monitor`'s shared std-only HTTP core; SSE streams use the
//! same ring/heartbeat machinery as the monitor's `/events`.

use crate::job::parse_job;
use crate::state::{ArtifactError, ServeState, SubmitError};
use mab_monitor::http::{Conn, Request};
use mab_monitor::sse;
use std::sync::Arc;

/// Routes one request against the daemon state. Plugged into
/// [`mab_monitor::http::serve_with`] by the `mab-serve` binary.
pub fn route(state: &Arc<ServeState>, req: &Request, conn: &mut Conn) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => submit(state, req, conn),
        ("GET", "/") | ("GET", "/healthz") => {
            let _ = conn.respond("200 OK", "text/plain", "ok\n");
        }
        ("GET", "/queue") => {
            let mut body = state.queue_json();
            body.push('\n');
            let _ = conn.respond("200 OK", "application/json", &body);
        }
        ("GET", "/crashes") => {
            let mut body = state.crashes_json();
            body.push('\n');
            let _ = conn.respond("200 OK", "application/json", &body);
        }
        ("GET", "/metrics") => {
            let _ = conn.respond("200 OK", "text/plain; version=0.0.4", &state.metrics_page());
        }
        ("GET", "/experiments") => {
            let _ = conn.respond("200 OK", "application/json", &experiments_json());
        }
        ("GET", "/events") => {
            sse::stream_ring(conn, &state.events, &state.sse_clients, &state.sse_dropped);
        }
        ("GET", path) => job_routes(state, path, req, conn),
        _ => {
            let _ = conn.respond("405 Method Not Allowed", "text/plain", "GET or POST only\n");
        }
    }
}

fn submit(state: &Arc<ServeState>, req: &Request, conn: &mut Conn) {
    let spec = match parse_job(&req.body) {
        Ok(spec) => spec,
        Err(message) => {
            let _ = conn.respond("400 Bad Request", "text/plain", &format!("{message}\n"));
            return;
        }
    };
    match state.submit(spec) {
        Ok(id) => {
            let mut body = state.job_json(id).unwrap_or_default();
            body.push('\n');
            let _ = conn.respond("200 OK", "application/json", &body);
        }
        Err(SubmitError::QueueFull) => {
            let _ = conn.respond(
                "429 Too Many Requests",
                "text/plain",
                "queue full; retry after in-flight arms finish\n",
            );
        }
        Err(SubmitError::Draining) => {
            let _ = conn.respond(
                "503 Service Unavailable",
                "text/plain",
                "daemon is draining for shutdown\n",
            );
        }
    }
}

/// Handles `/jobs/:id`, `/jobs/:id/artifact` and `/jobs/:id/events`.
fn job_routes(state: &Arc<ServeState>, path: &str, req: &Request, conn: &mut Conn) {
    let Some(rest) = path.strip_prefix("/jobs/") else {
        let _ = conn.respond("404 Not Found", "text/plain", "not found\n");
        return;
    };
    let (id_text, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        let _ = conn.respond("404 Not Found", "text/plain", "bad job id\n");
        return;
    };
    match tail {
        None => match state.job_json(id) {
            Some(mut body) => {
                body.push('\n');
                let _ = conn.respond("200 OK", "application/json", &body);
            }
            None => {
                let _ = conn.respond("404 Not Found", "text/plain", "no such job\n");
            }
        },
        Some("artifact") => {
            let arm = req.query_param("arm").and_then(|v| v.parse::<usize>().ok());
            match state.artifact(id, arm) {
                Ok(report) => {
                    let _ = conn.respond("200 OK", "text/plain", &report);
                }
                Err(ArtifactError::NoSuchJob) => {
                    let _ = conn.respond("404 Not Found", "text/plain", "no such job\n");
                }
                Err(ArtifactError::NoSuchArm) => {
                    let _ = conn.respond("404 Not Found", "text/plain", "no such arm\n");
                }
                Err(ArtifactError::NotFinished(status)) => {
                    let _ = conn.respond(
                        "409 Conflict",
                        "text/plain",
                        &format!("job is {status}; artifact not ready\n"),
                    );
                }
                Err(ArtifactError::CacheMiss(digest)) => {
                    let _ = conn.respond(
                        "503 Service Unavailable",
                        "text/plain",
                        &format!(
                            "cache entry {digest} is gone or corrupt; resubmit to recompute\n"
                        ),
                    );
                }
            }
        }
        Some("events") => match state.job_events(id) {
            Some(ring) => {
                sse::stream_ring(conn, &ring, &state.sse_clients, &state.sse_dropped);
            }
            None => {
                let _ = conn.respond("404 Not Found", "text/plain", "no such job\n");
            }
        },
        Some(_) => {
            let _ = conn.respond("404 Not Found", "text/plain", "not found\n");
        }
    }
}

/// Renders the experiment registry (name + resolved defaults) so clients
/// can discover what `POST /jobs` accepts.
fn experiments_json() -> String {
    let mut out = String::from("{\"experiments\":[");
    for (i, def) in mab_experiments::spec::EXPERIMENTS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"experiment\":\"{}\",\"instructions\":{},\"mixes\":{}}}",
            def.name, def.default_instructions, def.default_mixes
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_json_lists_the_registry() {
        let doc = mab_telemetry::json::parse(experiments_json().trim()).unwrap();
        let list = doc.get("experiments").unwrap().as_arr().unwrap();
        assert_eq!(list.len(), mab_experiments::spec::EXPERIMENTS.len());
        assert!(list
            .iter()
            .any(|e| { e.get("experiment").and_then(|v| v.as_str()) == Some("fig08_singlecore") }));
    }
}
