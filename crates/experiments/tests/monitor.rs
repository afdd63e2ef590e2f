//! The live monitoring plane must be invisible in the results: `--monitor`
//! may never change experiment stdout, at any `--jobs` setting, because the
//! server only reads snapshots and all of its own chatter goes to stderr.
//!
//! The live test drives a real experiment binary, discovers the ephemeral
//! monitor port from the stderr announcement, scrapes `/metrics` and
//! `/status` mid-run, and then checks the run's ledger record picked up the
//! monitor endpoint and scrape count as circumstance fields — the full
//! `--monitor` story end to end.
//!
//! Like `ledger_jobs.rs`, this lives in its own integration-test binary:
//! it spawns processes and reads a private ledger directory.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Runs an experiment binary and returns its stdout; panics loudly on a
/// non-zero exit so CI logs show the failing invocation.
fn stdout_of(exe: &str, args: &[&str]) -> String {
    let output = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        output.status.success(),
        "{exe} {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("experiment output is UTF-8")
}

#[test]
fn stdout_is_byte_identical_with_monitor_on_or_off_at_any_job_count() {
    let exe = env!("CARGO_BIN_EXE_fig13_smt_scurve");
    let base = ["--instructions", "3000", "--mixes", "3"];
    let mut reports = Vec::new();
    for jobs in ["1", "8"] {
        for monitor in [None, Some("127.0.0.1:0")] {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--jobs", jobs]);
            if let Some(addr) = monitor {
                args.extend(["--monitor", addr]);
            }
            reports.push((jobs, monitor, stdout_of(exe, &args)));
        }
    }
    let (_, _, reference) = &reports[0];
    assert!(
        reference.contains("gmean speedup vs Choi"),
        "fig13 produced no report:\n{reference}"
    );
    for (jobs, monitor, report) in &reports[1..] {
        assert_eq!(
            report, reference,
            "stdout diverged at --jobs {jobs} with monitor {monitor:?}"
        );
    }
}

#[test]
fn live_endpoints_serve_mid_run_and_land_in_the_ledger() {
    let dir = std::env::temp_dir().join(format!("mab-monitor-it-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let exe = env!("CARGO_BIN_EXE_fig13_smt_scurve");
    let mut child = Command::new(exe)
        .args([
            "--instructions",
            "20000",
            "--mixes",
            "4",
            "--jobs",
            "2",
            "--monitor",
            "127.0.0.1:0",
            "--ledger",
            dir.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fig13");

    // The session announces the bound address on stderr before any sweep
    // starts; everything after the URL is drained in the background so the
    // child never blocks on a full pipe.
    let stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut lines = stderr.lines();
    let url = loop {
        let line = lines
            .next()
            .expect("stderr closed before the monitor announcement")
            .expect("stderr is UTF-8");
        if let Some((_, url)) = line.split_once("monitor listening on ") {
            break url.trim().to_string();
        }
    };
    let drain = std::thread::spawn(move || for _ in lines {});

    let timeout = std::time::Duration::from_secs(5);
    let metrics = mab_monitor::client::get(&format!("{url}/metrics"), timeout)
        .expect("mid-run /metrics scrape");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("mab_run_info"), "{}", metrics.body);
    let status =
        mab_monitor::client::get(&format!("{url}/status"), timeout).expect("mid-run /status poll");
    assert_eq!(status.status, 200);
    let doc = mab_telemetry::json::parse(status.body.trim()).expect("status parses");
    assert_eq!(
        doc.get("experiment").unwrap().as_str(),
        Some("fig13_smt_scurve")
    );

    let code = child.wait().expect("child runs");
    drain.join().unwrap();
    assert!(code.success(), "fig13 exited with {code:?}");

    // The ledger record carries the monitor circumstance, and the history
    // renderer surfaces it.
    let out = mab_ledger::Ledger::open(&dir).unwrap().read_all().unwrap();
    assert!(out.warnings.is_empty(), "{:?}", out.warnings);
    let record = out.records.last().expect("one run recorded");
    let endpoint = record
        .monitor
        .as_deref()
        .expect("monitor endpoint recorded");
    assert_eq!(format!("http://{endpoint}"), url);
    assert!(
        record.monitor_scrapes >= 2,
        "expected at least our two scrapes, saw {}",
        record.monitor_scrapes
    );
    let rows = vec![record];
    let table = mab_inspect::history::render_history(&rows);
    assert!(table.contains("[monitored "), "{table}");

    std::fs::remove_dir_all(&dir).ok();
}
