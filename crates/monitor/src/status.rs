//! JSON rendering for `GET /status`.
//!
//! One flat document: run identity (experiment, ledger digest, code
//! version), the live sweep figures (from the same
//! [`mab_telemetry::live`] helpers as `/metrics` and the progress line),
//! per-worker accounting, scrape counters, and the per-arm state table
//! (most recent [`crate::state::ARM_TABLE_CAP`] arms). Strings are escaped
//! with `mab_telemetry::json::escape`, so the output parses with the
//! workspace's own JSON parser — which is exactly what `mab-inspect watch`
//! and the smoke tests do.

use crate::state::{ArmPhase, MonitorState};
use mab_telemetry::json;
use mab_telemetry::live;
use std::sync::atomic::Ordering;

/// Renders the status document (single line, no trailing newline).
pub fn render(state: &MonitorState) -> String {
    let mut out = String::with_capacity(2048);
    out.push('{');
    out.push_str(&format!(
        "\"experiment\":\"{}\",\"digest\":\"{}\",\"code\":\"{}\",\"jobs\":{},\"started_unix\":{}",
        json::escape(&state.run.experiment),
        json::escape(&state.run.digest),
        json::escape(&state.run.code),
        state.run.jobs,
        state.run.started_unix,
    ));

    out.push_str(",\"sweep\":");
    match live::sweep_snapshot() {
        Some(snap) => {
            let elapsed = snap.elapsed_secs();
            let rate = live::rate_per_sec(snap.done, elapsed);
            let eta = live::eta_seconds(snap.done, snap.total, elapsed);
            out.push_str(&format!(
                "{{\"active\":{},\"done\":{},\"total\":{},\"elapsed_secs\":{},\"rate_per_sec\":{},\"eta_secs\":{},\"eta\":\"{}\"}}",
                snap.active,
                snap.done,
                snap.total,
                json::fmt_f64(elapsed),
                json::fmt_f64(rate),
                eta.map_or("null".to_string(), json::fmt_f64),
                live::format_eta(eta),
            ));
        }
        None => out.push_str("null"),
    }

    out.push_str(&format!(
        ",\"scrapes\":{{\"metrics\":{},\"status\":{},\"sse_clients\":{},\"sse_dropped\":{},\"rejected_conns\":{}}}",
        state.metrics_scrapes.load(Ordering::Relaxed),
        state.status_scrapes.load(Ordering::Relaxed),
        state.sse_clients.load(Ordering::Relaxed),
        state.sse_dropped.load(Ordering::Relaxed),
        state.http.rejected_conns.load(Ordering::Relaxed),
    ));

    let table = state.table.lock().unwrap();
    out.push_str(&format!(
        ",\"arms_started\":{},\"arms_finished\":{},\"arm_rows_evicted\":{}",
        table.started,
        table.finished,
        table.arms.dropped()
    ));
    out.push_str(",\"workers\":[");
    for (worker, w) in table.workers.iter().enumerate() {
        if worker > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"worker\":{worker},\"busy_ns\":{},\"arms\":{},\"running\":",
            w.busy_ns, w.arms_finished
        ));
        match w.running {
            Some((sweep, index)) => {
                out.push_str(&format!("{{\"sweep\":{sweep},\"index\":{index}}}"));
            }
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push(']');
    out.push_str(",\"arms\":[");
    for (i, arm) in table.arms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"sweep\":{},\"index\":{},\"seed\":{},\"worker\":{},\"state\":\"{}\",\"wall_ns\":{}}}",
            arm.sweep,
            arm.index,
            arm.seed,
            arm.worker,
            match arm.phase {
                ArmPhase::Running => "running",
                ArmPhase::Done => "done",
            },
            arm.wall_ns,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::RunInfo;
    use mab_runner::{ArmEvent, ArmObservation};

    #[test]
    fn status_parses_with_the_workspace_json_parser() {
        let state = MonitorState::new(RunInfo {
            experiment: "fig10 \"odd\"".to_string(),
            digest: "feedfacecafebeef".to_string(),
            code: "0.1.0+1234567".to_string(),
            jobs: 4,
            started_unix: 1_754_000_000,
        });
        state.observe(&ArmEvent::SweepBegin {
            sweep: 0,
            total: 2,
            jobs: 2,
        });
        state.observe(&ArmEvent::ArmStart {
            sweep: 0,
            index: 0,
            seed: u64::MAX,
            worker: 1,
        });
        state.observe(&ArmEvent::ArmFinish(ArmObservation {
            sweep: 0,
            index: 0,
            seed: u64::MAX,
            wall_ns: 1234,
            worker: 1,
        }));
        let doc = render(&state);
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("fig10 \"odd\""));
        assert_eq!(v.get("jobs").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("arms_finished").unwrap().as_u64(), Some(1));
        let arms = v.get("arms").unwrap().as_arr().unwrap();
        assert_eq!(arms.len(), 1);
        // Full 64-bit seeds survive (the parser holds integers exactly).
        assert_eq!(arms[0].get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(arms[0].get("state").unwrap().as_str(), Some("done"));
        let workers = v.get("workers").unwrap().as_arr().unwrap();
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[1].get("busy_ns").unwrap().as_u64(), Some(1234));
    }
}
