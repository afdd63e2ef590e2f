//! `mab-serve` end-to-end throughput benchmark.
//!
//! Drives a real daemon — HTTP server, fair scheduler, worker pool,
//! content-addressed cache — with 8 concurrent clients, each submitting
//! its own sweep over HTTP and polling to completion. The arms run a
//! synthetic deterministic spin workload (calibrated to ~[`TARGET_ARM_MS`]
//! each) instead of real simulations, so the bench measures the serving
//! plane, not the simulator.
//!
//! Two gates, both written to BENCH_serve_throughput.json:
//!
//! - **Cache speedup**: after the cold pass, every client resubmits the
//!   identical sweep; the median submit→done latency must drop by at
//!   least [`MIN_SPEEDUP`]x, proving cached hits skip execution entirely.
//! - **Fairness**: within the cold pass all clients submit equal-sized
//!   sweeps at the same instant; the round-robin scheduler must keep the
//!   per-client completion-time spread (slowest/fastest) within
//!   [`MAX_SPREAD`]x. A FIFO scheduler would serialize whole sweeps and
//!   push the spread toward the client count.
//!
//! Run with: `cargo bench -p mab-bench --bench serve_throughput`

use mab_monitor::client;
use mab_monitor::http::{self, HttpConfig};
use mab_runner::CancelToken;
use mab_serve::{api, Executor, ServeConfig, ServeState};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent clients, per the serve acceptance gate.
const CLIENTS: usize = 8;

/// Arms per client sweep (distinct seeds per client: no cross-client
/// dedup in the cold pass).
const ARMS_PER_CLIENT: usize = 4;

/// Executor worker threads — fewer than the submitted parallelism so the
/// queue actually queues and the scheduler's fairness matters.
const WORKERS: usize = 4;

/// Calibrated cold cost of one arm, milliseconds.
const TARGET_ARM_MS: f64 = 25.0;

/// Gate: median cold latency over median cached latency.
const MIN_SPEEDUP: f64 = 10.0;

/// Gate: slowest/fastest per-client cold completion time.
const MAX_SPREAD: f64 = 2.0;

/// Deterministic spin executor: FNV-1a mixing for a calibrated iteration
/// count; the report depends only on the spec, so reruns are
/// byte-identical.
struct SpinExecutor {
    iters: u64,
}

fn fnv_mix(iters: u64, seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for i in 0..iters {
        h ^= i;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl Executor for SpinExecutor {
    fn run(
        &self,
        spec: &mab_experiments::spec::RunSpec,
        _cancel: &CancelToken,
        _crash_dir: Option<&std::path::Path>,
    ) -> Result<String, String> {
        let value = fnv_mix(self.iters, spec.seed);
        Ok(format!(
            "spin {} seed={} value={value:016x}\n",
            spec.experiment, spec.seed
        ))
    }
}

/// Picks an iteration count whose spin takes ~[`TARGET_ARM_MS`].
fn calibrate() -> u64 {
    let probe = 4_000_000u64;
    let start = Instant::now();
    std::hint::black_box(fnv_mix(probe, 1));
    let ns_per_iter = start.elapsed().as_nanos() as f64 / probe as f64;
    ((TARGET_ARM_MS * 1e6) / ns_per_iter) as u64
}

/// Submits one sweep for `client` and polls it to completion; returns the
/// submit→done wall time in milliseconds.
fn run_client(url: &str, client_id: usize, pass: &str) -> f64 {
    let seeds: Vec<String> = (0..ARMS_PER_CLIENT)
        .map(|a| (client_id * 100 + a + 1).to_string())
        .collect();
    let body = format!(
        "{{\"experiment\":\"fig08_singlecore\",\"client\":\"client-{client_id}\",\
         \"seeds\":[{}],\"quick\":true}}",
        seeds.join(",")
    );
    let timeout = Duration::from_secs(10);
    let start = Instant::now();
    let resp = client::post(&format!("{url}/jobs"), &body, timeout).expect("POST /jobs");
    assert_eq!(resp.status, 200, "{pass} submit failed: {}", resp.body);
    let id = mab_telemetry::json::parse(resp.body.trim())
        .expect("job json")
        .get("id")
        .and_then(|v| v.as_u64())
        .expect("job id");
    loop {
        let resp = client::get(&format!("{url}/jobs/{id}"), timeout).expect("GET /jobs/:id");
        let doc = mab_telemetry::json::parse(resp.body.trim()).expect("status json");
        match doc.get("status").and_then(|v| v.as_str()) {
            Some("done") => break,
            Some("failed") => panic!("{pass} job {id} failed: {}", resp.body),
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// One pass: all clients submit concurrently; returns per-client wall
/// times in client order.
fn run_pass(url: &str, pass: &str) -> Vec<f64> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || run_client(url, c, pass)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

fn main() {
    let iters = calibrate();
    let dir = std::env::temp_dir().join(format!("mab-serve-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServeConfig {
        workers: WORKERS,
        queue_cap: CLIENTS * ARMS_PER_CLIENT * 2,
        cache_dir: dir.join("cache"),
        ledger_dir: None,
        quiet: true,
    };
    let state = ServeState::start(config, Arc::new(SpinExecutor { iters })).expect("serve start");
    let handler_state = Arc::clone(&state);
    let mut server = http::serve_with(
        "127.0.0.1:0",
        HttpConfig::from_env("serve-bench"),
        Arc::clone(&state.http),
        Arc::new(AtomicBool::new(false)),
        Arc::new(move |req, conn| api::route(&handler_state, req, conn)),
    )
    .expect("http bind");
    let url = format!("http://{}", server.addr());
    println!(
        "{CLIENTS} clients x {ARMS_PER_CLIENT} arms on {WORKERS} workers; \
         ~{TARGET_ARM_MS:.0}ms/arm cold ({iters} spin iters)"
    );

    let cold = run_pass(&url, "cold");
    let cached = run_pass(&url, "cached");

    let cold_med = median(&cold);
    let cached_med = median(&cached);
    let speedup = cold_med / cached_med;
    let spread = cold.iter().cloned().fold(f64::MIN, f64::max)
        / cold.iter().cloned().fold(f64::MAX, f64::min);
    println!(
        "cold   median {cold_med:>8.1} ms/client (spread {spread:.2}x across clients)\n\
         cached median {cached_med:>8.1} ms/client -> {speedup:.1}x speedup"
    );

    state.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    let pass = speedup >= MIN_SPEEDUP && spread <= MAX_SPREAD;
    write_report(cold_med, cached_med, speedup, spread, pass);
    if pass {
        println!(
            "PASS: cache speedup {speedup:.1}x >= {MIN_SPEEDUP}x and \
             fairness spread {spread:.2}x <= {MAX_SPREAD}x"
        );
    } else {
        println!(
            "FAIL: need cache speedup >= {MIN_SPEEDUP}x (got {speedup:.1}x) and \
             spread <= {MAX_SPREAD}x (got {spread:.2}x)"
        );
        std::process::exit(1);
    }
}

/// Writes BENCH_serve_throughput.json at the repo root (ingest with
/// `mab-inspect ingest`, gate with `mab-inspect regress`).
fn write_report(cold_med: f64, cached_med: f64, speedup: f64, spread: f64, pass: bool) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_serve_throughput.json"
    );
    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"clients\": {CLIENTS},\n  \
         \"arms_per_client\": {ARMS_PER_CLIENT},\n  \"workers\": {WORKERS},\n  \
         \"cold_median_ms\": {cold_med:.1},\n  \"cached_median_ms\": {cached_med:.1},\n  \
         \"cache_speedup\": {speedup:.2},\n  \"cold_spread\": {spread:.3},\n  \
         \"min_speedup\": {MIN_SPEEDUP},\n  \"max_spread\": {MAX_SPREAD},\n  \
         \"pass\": {pass}\n}}\n"
    );
    print!("{json}");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
