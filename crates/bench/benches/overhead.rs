//! Overhead gates for every observability switch, in one paired harness.
//!
//! Each *subject* is one switch the simulators must not pay for: the
//! telemetry recorder, the span profiler, the live monitor and the
//! always-on flight recorder (black box). A subject supplies a toggle, the
//! workloads it is measured on and the BENCH file its result lands in; the
//! sampling loop, the <5% budget gate and the JSON writer below are shared.
//!
//! Sampling is `Criterion::bench_pair`: every round times the switch off
//! and then on, and the reported overhead is the median over rounds of the
//! per-round on/off ratio. Frequency and load drift slower than one round
//! cancel out of every ratio, which keeps a <5% gate stable on small or
//! busy hosts where spacing the two sides seconds apart would swamp a ~2%
//! effect in noise. The toggle runs outside the timed region of each
//! sample.
//!
//! Subjects and their files (`mab-inspect ingest`/`regress` and CI read
//! these keys, so they are part of the interface):
//!
//! - `telemetry` → BENCH_trace_overhead.json: recorder off vs recording,
//!   on a bandit memsim run and a bandit SMT run (gated) plus the bare
//!   agent loop, reported as absolute ns/step of probe cost (one agent step
//!   costs tens of ns and happens once per thousand simulated L2 accesses,
//!   so a relative bound on it would say nothing about simulator
//!   throughput).
//! - `profile` → BENCH_profile_overhead.json: span profiler off vs on, each
//!   run inside `profile::collect_run` exactly as `mab_runner::sweep` drives
//!   it; the recorder is installed but not recording.
//! - `monitor` → BENCH_monitor_overhead.json: full `mab_runner::sweep` runs
//!   with no monitor vs a live `mab-monitor` server with an SSE subscriber
//!   and a scraper fetching `/metrics` and `/status` every
//!   [`SCRAPE_INTERVAL`]. Server startup, client connects and shutdown all
//!   happen outside the timed regions.
//! - `blackbox` → BENCH_blackbox_overhead.json: flight recorder off vs on.
//!   The black box is compiled in regardless of features, so CI gates it in
//!   both build modes.
//!
//! Built without `--features telemetry`, the recorder's probes and the
//! profiler's spans compile away and those two subjects measure noise
//! around zero (the zero-cost check).
//!
//! Run with: `cargo bench -p mab-bench --bench overhead [--features
//! telemetry] [-- SUBJECT...]`; with no subject named, all four run. Exits
//! 1 when any selected subject exceeds its budget.

use criterion::Criterion;
use mab_core::{AlgorithmKind, BanditAgent, BanditConfig};
use mab_memsim::{config::SystemConfig, System};
use mab_monitor::{client, Monitor, RunInfo};
use mab_prefetch::BanditL2;
use mab_runner::{sweep, SweepOptions};
use mab_smtsim::pipeline::SmtPipeline;
use mab_telemetry::{blackbox, profile};
use mab_workloads::{smt, suites};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Every subject's gate: the switch may cost at most this much.
const BUDGET_PCT: f64 = 5.0;

const SIM_INSTRUCTIONS: u64 = 20_000;
const SMT_COMMITS: u64 = 10_000;

/// Agent steps per bare-loop batch (telemetry subject).
const AGENT_STEPS: u64 = 1_000;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// A short single-core simulation with the bandit prefetcher: exercises the
/// cache/prefetch probes and spans (the densest instrumentation in the
/// workspace), one flight-recorder decision per bandit step and one "mem"
/// summary per occupancy epoch.
fn memsim_batch() -> f64 {
    let app = suites::app_by_name("cactus").expect("catalog app");
    let mut system = System::single_core(SystemConfig::default());
    system.set_prefetcher(0, Box::new(BanditL2::paper_default(7)));
    system.run(&mut app.trace(7), SIM_INSTRUCTIONS).ipc()
}

/// A short two-thread SMT run under the bandit PG controller: exercises the
/// fetch-slot and epoch probes, the batched per-stage spans and the
/// policy-eval/bandit spans.
fn smtsim_batch() -> f64 {
    let specs = [
        smt::thread_by_name("gcc").expect("catalog thread"),
        smt::thread_by_name("lbm").expect("catalog thread"),
    ];
    let params = mab_experiments::smt_runs::scaled_params();
    let mut controller = mab_experiments::smt_runs::scaled_bandit(
        AlgorithmKind::Ducb {
            gamma: 0.975,
            c: 0.01,
        },
        7,
    );
    let mut pipe = SmtPipeline::new(params, specs, 7);
    pipe.run_with(&mut controller, SMT_COMMITS).sum_ipc()
}

fn memsim_profiled() -> f64 {
    profile::collect_run(memsim_batch)
}

fn smtsim_profiled() -> f64 {
    profile::collect_run(smtsim_batch)
}

/// One batch of bare bandit decisions: select, synthesize an arm-dependent
/// reward, observe.
fn agent_batch() -> f64 {
    let config = BanditConfig::builder(8)
        .algorithm(AlgorithmKind::Ducb {
            gamma: 0.999,
            c: 0.04,
        })
        .seed(7)
        .build()
        .expect("valid config");
    let mut agent = BanditAgent::new(config);
    let mut acc = 0.0;
    for step in 0..AGENT_STEPS {
        let arm = agent.select_arm();
        let reward = 0.5 + 0.1 * arm.index() as f64 + 0.01 * (step % 3) as f64;
        agent.observe_reward(reward);
        acc += reward;
    }
    acc
}

/// Arms per monitored sweep: enough that per-arm observer costs dominate
/// any per-sweep setup in the delta.
const SWEEP_ARMS: u64 = 16;

/// Workers per monitored sweep: the parallel path is the one the monitor
/// observes in production sweeps.
const SWEEP_JOBS: usize = 2;

/// One monitored unit: a parallel sweep of short bandit-prefetcher
/// simulations, exactly as the experiment binaries drive them. Arm length
/// keeps the event rate production-shaped: each arm fires two observer
/// events, and on a host with no spare core much shorter arms (2k
/// instructions, ~170µs) turn the bench into scheduler ping-pong between
/// the sweep workers and the SSE streamer (+10–14% measured) that no real
/// sweep sees — the smallest recorded config, fig05 at 50k instructions,
/// fires events 25x slower.
fn sweep_batch() -> f64 {
    let app = suites::app_by_name("cactus").expect("catalog app");
    let specs: Vec<u64> = (0..SWEEP_ARMS).collect();
    let results = sweep(&specs, SweepOptions::new(SWEEP_JOBS, 7), |ctx, _spec| {
        let mut system = System::single_core(SystemConfig::default());
        system.set_prefetcher(0, Box::new(BanditL2::paper_default(ctx.seed)));
        system.run(&mut app.trace(ctx.seed), SIM_INSTRUCTIONS).ipc()
    })
    .expect("sweep");
    results.iter().sum()
}

// ---------------------------------------------------------------------------
// The monitoring plane (the monitor subject's "on" side)
// ---------------------------------------------------------------------------

/// Pause between scrape rounds (one `/metrics` + one `/status` fetch):
/// 10x a 1s dev-dashboard cadence and 150x Prometheus's default 15s, but
/// bounded. An interval-free busy-poll on a small host measures the CPU a
/// spinning client steals (~40% on a single core), not the monitor.
const SCRAPE_INTERVAL: Duration = Duration::from_millis(100);

/// Server, SSE drain and scraper for one on-side sample.
struct Plane {
    monitor: Monitor,
    stop: Arc<AtomicBool>,
    scraper: std::thread::JoinHandle<()>,
    drain: std::thread::JoinHandle<()>,
}

/// Scrapes the client side saw succeed, across all on-side samples.
static SCRAPES: AtomicU64 = AtomicU64::new(0);
/// Scrapes the servers counted, across all on-side samples.
static SERVED: AtomicU64 = AtomicU64::new(0);
static PLANE: Mutex<Option<Plane>> = Mutex::new(None);

impl Plane {
    fn start() -> Plane {
        let monitor = Monitor::start(
            mab_monitor::DEFAULT_ADDR,
            RunInfo {
                experiment: "monitor_overhead".to_string(),
                jobs: SWEEP_JOBS as u64,
                ..RunInfo::default()
            },
        )
        .expect("monitor bind");
        let url = monitor.url();
        let timeout = Duration::from_secs(2);
        let mut subscriber =
            client::SseClient::connect(&format!("{url}/events"), timeout).expect("sse subscribe");
        // Drain the subscriber concurrently so the server never sees a
        // slow client; EOF arrives when the monitor shuts down.
        let drain = std::thread::spawn(move || while let Ok(Some(_)) = subscriber.next_frame() {});
        let stop = Arc::new(AtomicBool::new(false));
        let scraper = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let m = client::get(&format!("{url}/metrics"), timeout);
                    let s = client::get(&format!("{url}/status"), timeout);
                    if m.is_ok() && s.is_ok() {
                        SCRAPES.fetch_add(2, Ordering::Relaxed);
                    }
                    std::thread::sleep(SCRAPE_INTERVAL);
                }
            })
        };
        Plane {
            monitor,
            stop,
            scraper,
            drain,
        }
    }

    fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.scraper.join().expect("scraper join");
        SERVED.fetch_add(self.monitor.shutdown(), Ordering::Relaxed);
        self.drain.join().expect("sse drain join");
    }
}

/// The `--monitor` switch: on starts a fresh plane, off tears it down (no
/// observer is registered at all on the off side).
fn monitor_toggle(on: bool) {
    let mut plane = PLANE.lock().unwrap();
    if let Some(old) = plane.take() {
        old.shutdown();
    }
    if on {
        *plane = Some(Plane::start());
    }
}

// ---------------------------------------------------------------------------
// Subjects
// ---------------------------------------------------------------------------

/// A workload: name, run, and the JSON key of its gated overhead (`None`
/// for an informational workload).
type Workload = (&'static str, fn() -> f64, Option<&'static str>);

/// One workload's paired result: median off and on ns/iter, and the median
/// per-round overhead in percent.
struct Measured {
    off_ns: f64,
    on_ns: f64,
    overhead_pct: f64,
}

/// One observability switch under test.
struct Subject {
    /// Selector on the command line; the JSON `bench` field is
    /// `<name>_overhead`.
    name: &'static str,
    /// Output file at the repository root.
    file: &'static str,
    /// A/B rounds.
    pairs: usize,
    /// Minimum wall time per sample; iteration counts are calibrated to it.
    sample: Duration,
    /// Puts the process into the subject's baseline state.
    setup: fn(),
    /// Flips the switch; called before every sample, outside its timing.
    toggle: fn(bool),
    workloads: &'static [Workload],
    /// Subject-specific JSON fields, from the measurements in workload order.
    extra: fn(&[Measured]) -> Vec<(String, String)>,
}

const MEMSIM: Workload = ("memsim", memsim_batch, Some("memsim_overhead_pct"));
const SMTSIM: Workload = ("smtsim", smtsim_batch, Some("smtsim_overhead_pct"));

const SUBJECTS: &[Subject] = &[
    Subject {
        name: "telemetry",
        file: "BENCH_trace_overhead.json",
        pairs: 31,
        sample: Duration::from_millis(30),
        setup: || {},
        toggle: mab_telemetry::set_recording,
        workloads: &[("agent", agent_batch, None), MEMSIM, SMTSIM],
        extra: |m| {
            let per_step = (m[0].on_ns - m[0].off_ns) / AGENT_STEPS as f64;
            println!(
                "agent    bare decision loop: {per_step:+.1} ns/step probe cost (informational)"
            );
            vec![("agent_probe_ns_per_step".into(), format!("{per_step:.3}"))]
        },
    },
    Subject {
        name: "profile",
        file: "BENCH_profile_overhead.json",
        pairs: 31,
        sample: Duration::from_millis(30),
        // A recorder is installed (as in any --profile run) but not
        // recording: only the profiler differs between the two sides.
        setup: || mab_telemetry::set_recording(false),
        toggle: |on| {
            profile::set_enabled(on);
            // Clear the merge registry so it cannot grow across samples.
            profile::reset();
        },
        workloads: &[
            ("memsim", memsim_profiled, Some("memsim_overhead_pct")),
            ("smtsim", smtsim_profiled, Some("smtsim_overhead_pct")),
        ],
        extra: |_| Vec::new(),
    },
    Subject {
        name: "monitor",
        file: "BENCH_monitor_overhead.json",
        pairs: 15,
        // Long enough that every sample integrates several scrape rounds:
        // with samples shorter than the cadence, whether a round lands in
        // the timed region is a coin flip and the ratios go bimodal.
        sample: Duration::from_millis(250),
        // Recording, as in a telemetry-enabled run, on both sides.
        setup: || mab_telemetry::set_recording(true),
        toggle: monitor_toggle,
        workloads: &[("sweep", sweep_batch, Some("monitor_overhead_pct"))],
        extra: |_| {
            // The servers' own count includes a scrape a worker may have
            // had in flight at stop time; prefer it when larger.
            let served = SERVED
                .load(Ordering::Relaxed)
                .max(SCRAPES.load(Ordering::Relaxed));
            println!("{served} scrapes served during on-side runs");
            vec![("scrapes_served".into(), served.to_string())]
        },
    },
    Subject {
        name: "blackbox",
        file: "BENCH_blackbox_overhead.json",
        pairs: 31,
        sample: Duration::from_millis(30),
        setup: || mab_telemetry::set_recording(false),
        toggle: blackbox::set_enabled,
        workloads: &[MEMSIM, SMTSIM],
        extra: |_| Vec::new(),
    },
];

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Measures `subject` and writes its BENCH file; returns whether it passed.
fn run_subject(subject: &Subject) -> bool {
    let bench = format!("{}_overhead", subject.name);
    let feature = if mab_telemetry::STATIC_ENABLED {
        "ON"
    } else {
        "OFF"
    };
    println!("\n== {bench}: telemetry feature {feature} ==");
    (subject.setup)();
    let mut c = Criterion::default()
        .measurement_time(subject.sample)
        .sample_size(subject.pairs);
    let toggle = subject.toggle;
    let mut fields = vec![
        ("bench".to_string(), format!("\"{bench}\"")),
        (
            "telemetry_feature".to_string(),
            mab_telemetry::STATIC_ENABLED.to_string(),
        ),
    ];
    let mut worst = f64::NEG_INFINITY;
    let mut measured = Vec::new();
    for &(name, run, overhead_key) in subject.workloads {
        let (off_id, on_id) = (format!("{bench}/{name}/off"), format!("{bench}/{name}/on"));
        let on_off = |on| {
            move |b: &mut criterion::Bencher| {
                toggle(on);
                b.iter(run)
            }
        };
        let ratio = c.bench_pair(&off_id, &on_id, on_off(false), on_off(true));
        toggle(false);
        let m = Measured {
            off_ns: c.result_ns(&off_id).expect("bench result"),
            on_ns: c.result_ns(&on_id).expect("bench result"),
            overhead_pct: (ratio - 1.0) * 100.0,
        };
        println!(
            "{name:<8} off {:>12.1} ns/iter, on {:>12.1} ns/iter -> {:+.2}% \
             (median of {} paired rounds)",
            m.off_ns, m.on_ns, m.overhead_pct, subject.pairs
        );
        if let Some(key) = overhead_key {
            worst = worst.max(m.overhead_pct);
            fields.push((format!("{name}_off_ns"), format!("{:.1}", m.off_ns)));
            fields.push((format!("{name}_on_ns"), format!("{:.1}", m.on_ns)));
            fields.push((key.to_string(), format!("{:.3}", m.overhead_pct)));
        }
        measured.push(m);
    }
    fields.extend((subject.extra)(&measured));
    let pass = worst < BUDGET_PCT;
    fields.push(("budget_pct".to_string(), BUDGET_PCT.to_string()));
    fields.push(("pass".to_string(), pass.to_string()));

    // The file at the repository root is what `mab-inspect ingest` and
    // `regress` read; echoing it pins the numbers in CI logs.
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    print!("{json}");
    let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), subject.file);
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let verdict = if pass { "PASS" } else { "FAIL" };
    println!("{verdict}: worst-case {bench} {worst:+.2}% against the {BUDGET_PCT}% budget");
    pass
}

fn main() {
    // Cargo passes `--bench`; every other argument names a subject.
    let selected: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let names: Vec<&str> = SUBJECTS.iter().map(|s| s.name).collect();
    if let Some(unknown) = selected.iter().find(|s| !names.contains(&s.as_str())) {
        eprintln!("unknown subject {unknown:?}; expected one of {names:?}");
        std::process::exit(2);
    }
    // One recorder for the process; each subject sets its recording state.
    mab_telemetry::install(mab_telemetry::RecorderConfig::default());
    let failed: Vec<&str> = SUBJECTS
        .iter()
        .filter(|s| selected.is_empty() || selected.iter().any(|n| n == s.name))
        .filter(|s| !run_subject(s))
        .map(|s| s.name)
        .collect();
    if !failed.is_empty() {
        println!("\nFAIL: over budget: {failed:?}");
        std::process::exit(1);
    }
}
