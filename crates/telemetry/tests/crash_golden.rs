//! Golden-fixture test pinning the `.mabcrash` report format.
//!
//! `tests/data/golden.mabcrash` is a committed report written by the flight
//! recorder before it shared the workspace's CRC32 and JSON reader, with the
//! host-dependent fields (`time_unix`, `cpus`, `hostname`) pinned and the
//! body re-framed. It covers every line kind — a signal crash header,
//! escaped config values, host, sweep, arm, span frames, two thread rings —
//! and every event type. Its host line still carries the retired
//! `kernel_mode` key, which the reader now ignores. `read_report` must keep
//! reading such reports to the same fields, and must keep rejecting a
//! damaged one.

use mab_telemetry::blackbox::{read_report, CrashEvent};
use std::path::{Path, PathBuf};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden.mabcrash")
}

#[test]
fn golden_report_parses_to_the_recorded_fields() {
    let report = read_report(&fixture()).expect("golden report must parse");
    assert_eq!(report.cause, "signal");
    assert_eq!(report.message, "fatal signal SIGSEGV (11)");
    assert_eq!(report.signal, Some(11));
    assert_eq!(report.thread, "main");
    assert_eq!(report.time_unix, 1_760_000_000);
    assert_eq!(report.experiment, "fig08_singlecore");
    assert_eq!(report.digest, "0123abcd4567ef89");
    let config: Vec<(&str, &str)> = report
        .config
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    assert_eq!(
        config,
        [
            ("instructions", "200000"),
            ("seed", "7"),
            ("note", "a \"quoted\" value\twith é ✓ and \\ slash"),
        ]
    );
    assert_eq!(report.cpus, 2);
    assert_eq!(report.hostname, "fixture-host");
    assert_eq!(report.sweep, Some((3, 8, true)));
    assert_eq!(report.arm, Some((5, 0xDEAD_BEEF)));
    assert_eq!(report.span_stack, ["run:fig08:mcf", "bandit_select"]);

    assert_eq!(report.threads.len(), 2);
    let main = &report.threads[0];
    assert_eq!(
        (main.name.as_str(), main.current, main.dropped),
        ("main", true, 0)
    );
    assert_eq!(main.events.len(), 18);
    let worker = &report.threads[1];
    assert_eq!((worker.name.as_str(), worker.current), ("worker-1", false));
    let types: Vec<&str> = worker.events.iter().map(|e| e.etype.as_str()).collect();
    assert_eq!(types, ["arm_start", "decision", "arm_finish"]);
    assert_eq!(worker.events[0].int("seed"), 1004);
    assert!(worker.events[1].flag("explore"));

    let decisions = report.last_decisions();
    assert_eq!(decisions.len(), 10);
    let seqs: Vec<u64> = decisions.iter().map(|d| d.seq).collect();
    assert_eq!(seqs, (6..16).collect::<Vec<u64>>());
    let last = decisions.last().unwrap();
    assert_eq!(
        (last.int("agent"), last.int("step"), last.int("arm")),
        (7, 9, 0)
    );
    assert_eq!((last.num("q"), last.num("bound")), (0.6125, 0.81));
    assert!(!last.flag("explore"));

    let by_type = |t: &str| -> &CrashEvent { main.events.iter().find(|e| e.etype == t).unwrap() };
    assert_eq!(by_type("note").text("text"), "run started");
    assert_eq!(by_type("sweep_begin").int("total"), 8);
    assert_eq!(by_type("arm_start").int("seed"), 0xDEAD_BEEF);
    let epoch = by_type("epoch");
    assert_eq!(
        (
            epoch.text("sim"),
            epoch.int("id"),
            epoch.int("cycle"),
            epoch.num("value")
        ),
        ("mem", 3, 120_000, 1.25)
    );
    let job = by_type("job");
    assert_eq!(
        (job.int("job"), job.text("what"), job.text("detail")),
        (3, "queued", "client \"ci\"\nsecond line")
    );
    assert_eq!(by_type("sweep_end").int("done"), 3);
    let notes: Vec<&str> = main
        .events
        .iter()
        .filter(|e| e.etype == "note")
        .map(|e| e.text("text"))
        .collect();
    assert_eq!(notes, ["run started", "tab\there é ✓"]);
}

#[test]
fn one_flipped_byte_is_a_crc_mismatch() {
    let bytes = std::fs::read(fixture()).unwrap();
    let body_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let dir = std::env::temp_dir().join(format!("mab-crash-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Flip one bit at several body offsets: first, middle and last byte.
    for offset in [body_start, (body_start + bytes.len()) / 2, bytes.len() - 2] {
        let mut damaged = bytes.clone();
        damaged[offset] ^= 0x01;
        let path = dir.join("damaged.mabcrash");
        std::fs::write(&path, &damaged).unwrap();
        let err = read_report(&path).expect_err("damaged report must be rejected");
        assert!(err.contains("CRC mismatch"), "offset {offset}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
