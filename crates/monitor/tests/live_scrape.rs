//! End-to-end: scrape every endpoint while a real `mab-runner` sweep is in
//! flight, and confirm the SSE stream carries the full arm lifecycle.

use mab_monitor::{client, Monitor, RunInfo, DEFAULT_ADDR};
use mab_runner::{sweep, SweepOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

#[test]
fn endpoints_respond_during_a_live_sweep() {
    let monitor = Monitor::start(
        DEFAULT_ADDR,
        RunInfo {
            experiment: "live_scrape".to_string(),
            digest: "feedc0de00000000".to_string(),
            code: "0.1.0+test".to_string(),
            jobs: 4,
            started_unix: 1,
        },
    )
    .unwrap();
    let url = monitor.url();

    // Subscribe to /events before the sweep starts so nothing is missed.
    let mut sub = client::SseClient::connect(&format!("{url}/events"), TIMEOUT).unwrap();

    let scraped_mid_sweep = AtomicBool::new(false);
    let specs: Vec<u64> = (0..24).collect();
    let results = sweep(&specs, SweepOptions::new(4, 99), |ctx, spec| {
        // Scrape from inside an arm: the sweep is provably live.
        if ctx.index == 4 {
            let metrics = client::get(&format!("{url}/metrics"), TIMEOUT).unwrap();
            assert_eq!(metrics.status, 200);
            assert!(
                metrics.body.contains("mab_sweep_arms_total 24"),
                "{}",
                metrics.body
            );
            assert!(
                metrics.body.contains("mab_sweep_active 1"),
                "{}",
                metrics.body
            );

            let status = client::get(&format!("{url}/status"), TIMEOUT).unwrap();
            assert_eq!(status.status, 200);
            let doc = mab_telemetry::json::parse(status.body.trim()).unwrap();
            assert_eq!(doc.get("experiment").unwrap().as_str(), Some("live_scrape"));
            let sweep_obj = doc.get("sweep").unwrap();
            assert_eq!(sweep_obj.get("total").unwrap().as_u64(), Some(24));
            assert_eq!(sweep_obj.get("active").unwrap().as_bool(), Some(true));
            assert!(!doc.get("arms").unwrap().as_arr().unwrap().is_empty());
            scraped_mid_sweep.store(true, Ordering::SeqCst);
        }
        std::thread::sleep(Duration::from_millis(2));
        *spec * 2
    })
    .unwrap();
    assert_eq!(results.len(), 24);
    assert!(scraped_mid_sweep.load(Ordering::SeqCst), "arm 4 never ran?");

    // The SSE stream saw the whole lifecycle for this sweep.
    let mut begins = 0;
    let mut starts = 0;
    let mut finishes = 0;
    let mut ends = 0;
    while finishes < 24 || ends == 0 {
        match sub.next_frame() {
            Ok(Some(frame)) => match frame.event.as_str() {
                "sweep_begin" => begins += 1,
                "arm_start" => starts += 1,
                "arm_finish" => finishes += 1,
                "sweep_end" => ends += 1,
                _ => {}
            },
            Ok(None) => break,
            Err(e) => panic!("sse stream died early: {e} (f={finishes} e={ends})"),
        }
    }
    assert_eq!(begins, 1);
    assert_eq!(starts, 24);
    assert_eq!(finishes, 24);
    assert_eq!(ends, 1);

    // Post-sweep: the cell reports inactive, counts stay readable.
    let metrics = client::get(&format!("{url}/metrics"), TIMEOUT).unwrap();
    assert!(
        metrics.body.contains("mab_sweep_active 0"),
        "{}",
        metrics.body
    );
    assert!(
        metrics.body.contains("mab_sweep_arms_completed 24"),
        "{}",
        metrics.body
    );
    assert!(monitor.scrape_count() >= 3);
    monitor.shutdown();
}
