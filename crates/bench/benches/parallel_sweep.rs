//! Parallel sweep engine scaling benchmark (`BENCH_parallel_sweep.json` at
//! the repo root).
//!
//! An 8-run bandit-prefetcher sweep dispatched through `mab_runner::sweep`
//! serially and at `--jobs` 2/4/8. The ≥3× speedup target at jobs=4 is only
//! meaningful on a machine that has 4 cores to give; the artifact records
//! `host_parallelism` and applies the gate only when it is ≥ 4, so a
//! smaller host reports its honest scaling without failing the build.
//!
//! Run with: `cargo bench -p mab-bench --bench parallel_sweep`

use criterion::{black_box, Criterion};
use mab_memsim::{config::SystemConfig, System};
use mab_prefetch::catalog;
use mab_workloads::suites;

/// Runs per sweep; enough work to amortize worker startup, small enough
/// that the bench stays in seconds.
const SWEEP_RUNS: u64 = 8;
/// Instructions per sweep run.
const SWEEP_INSTRUCTIONS: u64 = 40_000;

/// The workload behind the scaling measurement: one short bandit-prefetcher
/// run per spec, seeded from the spec itself so any schedule produces the
/// same result.
fn sweep_batch(jobs: usize) -> f64 {
    let specs: Vec<u64> = (0..SWEEP_RUNS).collect();
    let ipcs = mab_runner::sweep(
        &specs,
        mab_runner::SweepOptions::new(jobs, 7),
        |_ctx, &spec| {
            let app = suites::app_by_name("milc").expect("catalog app");
            let mut system = System::single_core(SystemConfig::default());
            system.set_prefetcher(0, catalog::build_l2("bandit", spec + 1));
            system
                .run(&mut app.trace(spec + 1), SWEEP_INSTRUCTIONS)
                .ipc()
        },
    )
    .expect("sweep runs do not panic");
    ipcs.iter().sum()
}

fn main() {
    let mut c = Criterion::default();
    let host_parallelism = mab_runner::available_jobs();

    for jobs in [1usize, 2, 4, 8] {
        c.bench_function(&format!("sweep/jobs{jobs}"), |b| {
            b.iter(|| black_box(sweep_batch(jobs)))
        });
    }

    let ns = |id: &str| c.result_ns(id).expect("bench result");
    let serial = ns("sweep/jobs1");
    let parallel: Vec<(usize, f64)> = [2usize, 4, 8]
        .iter()
        .map(|&j| (j, ns(&format!("sweep/jobs{j}"))))
        .collect();
    let speedup_j4 = serial / parallel[1].1;
    let gate_applicable = host_parallelism >= 4;
    let parallel_pass = !gate_applicable || speedup_j4 >= 3.0;

    println!();
    println!("host parallelism: {host_parallelism} (jobs=4 gate applicable: {gate_applicable})");
    println!("sweep serial      {serial:>14.1} ns/iter");
    for (j, t) in &parallel {
        println!("sweep jobs={j}      {t:>14.1} ns/iter ({:.2}x)", serial / t);
    }

    write_report(
        host_parallelism,
        gate_applicable,
        serial,
        &parallel,
        speedup_j4,
        parallel_pass,
    );

    if parallel_pass {
        if gate_applicable {
            println!("PASS: sweep speedup at jobs=4 is {speedup_j4:.2}x (>= 3x)");
        } else {
            println!(
                "SKIP: jobs=4 speedup gate needs >= 4 cores, host has {host_parallelism}; \
                 measured {speedup_j4:.2}x recorded for reference"
            );
        }
    } else {
        println!("FAIL: sweep speedup at jobs=4 is {speedup_j4:.2}x, below the 3x target");
        std::process::exit(1);
    }
}

fn write_report(
    host_parallelism: usize,
    gate_applicable: bool,
    serial: f64,
    parallel: &[(usize, f64)],
    speedup_j4: f64,
    parallel_pass: bool,
) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_parallel_sweep.json"
    );
    let mut json = String::from("{\n  \"bench\": \"parallel_sweep\",\n");
    json.push_str(&format!(
        "  \"host_parallelism\": {host_parallelism},\n  \
         \"sweep_runs\": {SWEEP_RUNS},\n  \
         \"sweep_serial_ns\": {serial:.1},\n"
    ));
    for (j, t) in parallel {
        json.push_str(&format!(
            "  \"sweep_jobs{j}_ns\": {t:.1},\n  \"sweep_jobs{j}_speedup\": {:.3},\n",
            serial / t
        ));
    }
    json.push_str(&format!(
        "  \"jobs4_speedup_gate\": 3.0,\n  \
         \"jobs4_gate_applicable\": {gate_applicable},\n  \
         \"jobs4_speedup\": {speedup_j4:.3},\n  \
         \"jobs4_pass\": {parallel_pass}\n}}\n"
    ));
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
