//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <prefetch_sweep|smt_sweep|fourcore_replay>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record-references
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics under `--trace 0` and the per-layer metrics under
//! `--trace 1`. Each result is also appended, with its provenance, to
//! `perfbench/results/<workload>.jsonl`.

use perfbench::digest::{self, References};
use perfbench::host::{self, Provenance};
use perfbench::report::{self, median, Recording, RunFacts};
use perfbench::workload::{group_seeds, Pass, Plan, Size, Workload, POOL};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 5;
/// The set-up warm-up pass runs every arm at this fraction of its length.
const WARM_UP_DIVISOR: u64 = 32;
/// Bandit steps timed for `core.select_ns` and `core.update_ns`.
const AGENT_STEPS: u64 = 50_000;
const REFERENCES: &str = "perfbench/references.txt";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_references: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <prefetch_sweep|smt_sweep|fourcore_replay> \
     --seed <n> --seconds <s> --trace <0|1> | --record-references"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        record_references: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-references" {
            args.record_references = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if args.workload.is_none() && !args.record_references {
        return Err(usage());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("the working directory is readable");
    if !root.join("perfbench").is_dir() {
        eprintln!("run perfbench from the repository root");
        return ExitCode::from(2);
    }
    // The parallel sweeps run at one worker per available core.
    let jobs = mab_runner::available_jobs();
    let work = root
        .join("perfbench")
        .join("work")
        .join(std::process::id().to_string());
    let code = if args.record_references {
        record_references(&root, &work, jobs)
    } else {
        let workload = args.workload.expect("checked by parse_args");
        run(&root, &work, workload, &args, jobs)
    };
    std::fs::remove_dir_all(&work).ok();
    code
}

/// Sets the workload up: builds the plan, records `fourcore_replay`'s input
/// files and warms up with every arm at 1/32 of its length.
fn set_up(workload: Workload, seeds: &[u64], jobs: usize, dir: &Path) -> (Plan, Recording) {
    std::fs::remove_dir_all(dir).ok();
    let plan = Plan::new(
        workload,
        Size::FULL,
        jobs,
        seeds.to_vec(),
        Some(dir.to_path_buf()),
    );
    let start = Instant::now();
    let (records, bytes) = plan.record_inputs();
    let recording = Recording {
        records,
        bytes,
        seconds: start.elapsed().as_secs_f64(),
    };
    plan.resized(Size::FULL.divided(WARM_UP_DIVISOR))
        .run_pass(false);
    (plan, recording)
}

fn run(root: &Path, work: &Path, workload: Workload, args: &Args, jobs: usize) -> ExitCode {
    let refs = match std::fs::read_to_string(root.join(REFERENCES))
        .map_err(|e| e.to_string())
        .and_then(|text| References::parse(&text))
    {
        Ok(refs) => refs,
        Err(e) => {
            eprintln!("cannot read {REFERENCES}: {e}");
            return ExitCode::from(1);
        }
    };
    let provenance = Provenance::collect(root, workload.name(), args.seed, jobs);
    println!("{{\"provenance\": {}}}", provenance.to_json());

    let seeds = group_seeds(workload, args.seed);
    let mut setups = Vec::new();
    let mut recordings = Vec::new();
    let mut plan = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let (p, recording) = set_up(workload, &seeds, jobs, &work.join("inputs"));
        setups.push(start.elapsed().as_secs_f64());
        recordings.push(recording);
        plan = Some(p);
    }
    let plan = plan.expect("at least one set-up");
    let recording = Recording {
        seconds: median(&recordings.iter().map(|r| r.seconds).collect::<Vec<_>>()),
        ..recordings[0]
    };

    // Untraced passes, or untraced and traced passes alternating, until the
    // next pass would overrun the measuring time.
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        passes.push(plan.run_pass(traced));
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        let minimum = if args.trace { 2 } else { 1 };
        if passes.len() >= minimum && elapsed + per_pass > args.seconds {
            break;
        }
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (i, pass) in passes.iter().enumerate() {
        let ok = report::verify(&plan, &refs, pass);
        attempted += ok.len() as u64;
        failed += ok.iter().filter(|&&o| !o).count() as u64;
        let digests: Vec<u64> = pass
            .arms
            .iter()
            .map(|a| a.out.map_or(0, |o| o.digest))
            .collect();
        println!(
            "pass {i}: {} arms, {} failed, {:.3} s, digest {:016x}{}",
            ok.len(),
            ok.iter().filter(|&&o| !o).count(),
            pass.wall_ns as f64 * 1e-9,
            digest::batch(&digests),
            if pass.traced { " (traced)" } else { "" }
        );
    }
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let metrics = if args.trace {
        let agent = report::agent_cost(workload, args.seed, AGENT_STEPS);
        let (metrics, table) = report::per_layer(&plan, &traced, &untraced, recording, agent);
        println!(
            "layer table ({}, traced passes, per pass):",
            workload.name()
        );
        println!("{:<36} {:>14} {:>8}", "layer", "ms", "share");
        for row in &table {
            println!(
                "{:<36} {:>14.3} {:>7.2}%",
                row.layer,
                row.ns * 1e-6,
                row.share * 100.0
            );
        }
        metrics
    } else {
        let facts = RunFacts {
            setup_s: median(&setups),
            peak_rss_mb: host::peak_rss_mb(),
            attempted,
            failed,
        };
        report::end_to_end(&plan, &untraced, facts)
    };
    let line = report::result_json(failed == 0, attempted, failed, &metrics);
    store_result(root, workload, &provenance, &line);
    println!("{line}");
    ExitCode::SUCCESS
}

/// Appends the result and its provenance to `perfbench/results/`.
fn store_result(root: &Path, workload: Workload, provenance: &Provenance, line: &str) {
    use std::io::Write;
    let dir = root.join("perfbench").join("results");
    let path = dir.join(format!("{}.jsonl", workload.name()));
    let record = format!(
        "{{\"provenance\": {}, \"result\": {line}}}\n",
        provenance.to_json()
    );
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?
            .write_all(record.as_bytes())
    });
    if let Err(e) = written {
        eprintln!("cannot store the result in {}: {e}", path.display());
    }
}

/// Regenerates the reference digests: every arm of every workload at every
/// input seed of the pool. For `fourcore_replay` it also checks that the
/// replayed arms equal the same arms fed from the generators.
fn record_references(root: &Path, work: &Path, jobs: usize) -> ExitCode {
    let mut refs = References::default();
    let mut status = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        for seed in 1..=POOL {
            let dir: PathBuf = work.join(format!("{}-{seed}", workload.name()));
            let seeds = vec![seed; group_seeds(workload, 0).len()];
            let plan = Plan::new(workload, Size::FULL, jobs, seeds, Some(dir.clone()));
            plan.record_inputs();
            let pass = plan.run_pass(false);
            let mut digests = Vec::new();
            for (arm, record) in plan.arms.iter().zip(&pass.arms) {
                let Some(out) = record.out else {
                    eprintln!(
                        "{} {} seed {seed}: arm panicked",
                        workload.name(),
                        arm.label
                    );
                    return ExitCode::from(1);
                };
                refs.insert(workload.name(), &arm.label, seed, out.digest);
                digests.push(out.digest);
            }
            let mut note = String::new();
            if workload == Workload::FourcoreReplay {
                let generated = plan.generated().run_pass(false);
                let same = generated
                    .arms
                    .iter()
                    .zip(&digests)
                    .all(|(g, &d)| g.out.map(|o| o.digest) == Some(d));
                note = format!(
                    ", generator-fed digests {}",
                    if same { "equal" } else { "DIFFER" }
                );
                if !same {
                    status = ExitCode::from(1);
                }
            }
            println!(
                "{} seed {seed}: {} arms, digest {:016x}{note}",
                workload.name(),
                digests.len(),
                digest::batch(&digests)
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    let header = "# Reference digests of every benchmark arm: <workload> <arm> <input seed> <digest>.\n\
                  # Regenerate with `perfbench --record-references` after a change to simulated results.\n";
    let path = root.join(REFERENCES);
    if let Err(e) = std::fs::write(&path, format!("{header}{}", refs.render())) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::from(1);
    }
    status
}
