//! The `mab-trace` binary: record, inspect, validate and import trace files.
//!
//! ```text
//! mab-trace record (--app NAME | --smt NAME) [--seed S] --records N <out.mabt>
//! mab-trace info <file.mabt> [--json]
//! mab-trace validate <file.mabt>...
//! mab-trace stats <file.mabt> [--top N] [--json]
//! mab-trace convert <champsim.bin | -> <out.mabt> [--provenance STR]
//! ```
//!
//! Exit codes: 0 on success, 1 when `validate` finds a bad file, 2 on usage
//! or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use mab_telemetry::json::escape;
use mab_traces::format::{peek_meta, PayloadKind, TraceMeta};
use mab_traces::{convert, record_app_to_file, record_smt_to_file, SmtTraceReader, TraceReader};
use mab_workloads::{smt, suites};

const USAGE: &str = "\
mab-trace — record, inspect, validate and import Micro-Armed Bandit trace files

USAGE:
    mab-trace record (--app NAME | --smt NAME) [--seed S] --records N <out.mabt>
        Records the first N instructions of a seeded workload generator.
        --app NAME    memory workload (see crates/workloads suites)
        --smt NAME    SMT thread workload
        --seed S      generator seed (default 1)

    mab-trace info <file.mabt> [--json]
        Prints the header: kind, record count, line size, seed, provenance,
        and whether the file carries an index footer. --json emits the same
        fields as one JSON object.

    mab-trace validate <file.mabt>...
        Fully decodes each file, verifying every block CRC. Prints one line
        per file; exits 1 if any file is truncated or corrupt.

    mab-trace stats <file.mabt> [--top N] [--json]
        Workload summary of a memory trace: load/store/branch mix, cache-line
        footprint, and per-PC stride profiles of the N hottest PCs
        (default 8). --json emits {\"meta\":…,\"stats\":…} as one object.

    mab-trace convert <champsim.bin | -> <out.mabt> [--provenance STR]
        Imports a raw (already decompressed) ChampSim 64-byte-record trace;
        '-' reads stdin, so compressed traces can be piped:
        xzcat trace.xz | mab-trace convert - trace.mabt
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => run_record(&args[1..]),
        Some("info") => run_info(&args[1..]),
        Some("validate") => run_validate(&args[1..]),
        Some("stats") => run_stats(&args[1..]),
        Some("convert") => run_convert(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => usage_error("expected a subcommand: record | info | validate | stats | convert"),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn run_record(args: &[String]) -> ExitCode {
    let mut app = None;
    let mut smt_thread = None;
    let mut seed = 1u64;
    let mut records = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--app" => match it.next() {
                Some(name) => app = Some(name.clone()),
                None => return usage_error("--app needs a workload name"),
            },
            "--smt" => match it.next() {
                Some(name) => smt_thread = Some(name.clone()),
                None => return usage_error("--smt needs a thread name"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage_error("--seed needs an integer"),
            },
            "--records" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => records = Some(n),
                _ => return usage_error("--records needs a positive integer"),
            },
            flag if flag.starts_with("--") => {
                return usage_error(&format!("unknown flag {flag}"));
            }
            path => out = Some(PathBuf::from(path)),
        }
    }
    let Some(n) = records else {
        return usage_error("record needs --records N");
    };
    let Some(out) = out else {
        return usage_error("record needs an output path");
    };
    let result = match (app, smt_thread) {
        (Some(name), None) => match suites::app_by_name(&name) {
            Some(spec) => record_app_to_file(&spec, seed, n, &out),
            None => return usage_error(&format!("unknown app '{name}'; known: {}", app_names())),
        },
        (None, Some(name)) => match smt::thread_by_name(&name) {
            Some(spec) => record_smt_to_file(&spec, seed, n, &out),
            None => {
                return usage_error(&format!("unknown thread '{name}'; known: {}", smt_names()))
            }
        },
        _ => return usage_error("record needs exactly one of --app or --smt"),
    };
    match result {
        Ok(meta) => {
            println!(
                "recorded {} {} records (seed {}) -> {}",
                meta.record_count,
                meta.kind.name(),
                meta.seed,
                out.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => usage_error(&format!("cannot record: {e}")),
    }
}

fn app_names() -> String {
    suites::all_apps()
        .iter()
        .map(|a| a.name.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn smt_names() -> String {
    smt::smt_apps()
        .iter()
        .map(|t| t.name.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// The header as a JSON object body (no trailing brace, so `info` can
/// append the index probe).
fn meta_json_fields(meta: &TraceMeta) -> String {
    format!(
        "\"kind\":\"{}\",\"records\":{},\"line_size\":{},\"block_len\":{},\
         \"seed\":{},\"provenance\":\"{}\"",
        meta.kind.name(),
        meta.record_count,
        meta.line_size,
        meta.block_len,
        meta.seed,
        escape(&meta.provenance),
    )
}

fn print_meta(meta: &TraceMeta) {
    println!("kind             {}", meta.kind.name());
    println!("records          {}", meta.record_count);
    println!("line size        {} bytes", meta.line_size);
    println!("block length     {} records", meta.block_len);
    println!("seed             {}", meta.seed);
    println!(
        "provenance       {}",
        if meta.provenance.is_empty() {
            "(none)"
        } else {
            &meta.provenance
        }
    );
}

fn run_info(args: &[String]) -> ExitCode {
    let (json, paths): (bool, Vec<&String>) = {
        let json = args.iter().any(|a| a == "--json");
        (json, args.iter().filter(|a| *a != "--json").collect())
    };
    let [path] = paths.as_slice() else {
        return usage_error("info needs exactly one trace path");
    };
    let meta = match peek_meta(path) {
        Ok(meta) => meta,
        Err(e) => return usage_error(&format!("cannot read {path}: {e}")),
    };
    // The index probe needs a typed reader; dispatch on the header's kind.
    let index = match meta.kind {
        PayloadKind::Mem => TraceReader::open(path).map(|r| r.indexed_blocks()),
        PayloadKind::Smt => SmtTraceReader::open(path).map(|r| r.indexed_blocks()),
    };
    let index = match index {
        Ok(index) => index,
        Err(e) => return usage_error(&format!("cannot read {path}: {e}")),
    };
    if json {
        let blocks = index.map_or("null".to_string(), |b| b.to_string());
        println!(
            "{{{},\"indexed_blocks\":{blocks}}}",
            meta_json_fields(&meta)
        );
    } else {
        print_meta(&meta);
        match index {
            Some(blocks) => println!("index            {blocks} blocks"),
            None => println!("index            absent (sequential reads only)"),
        }
    }
    ExitCode::SUCCESS
}

fn run_validate(args: &[String]) -> ExitCode {
    if args.is_empty() {
        return usage_error("validate needs at least one trace path");
    }
    let mut bad = 0usize;
    for path in args {
        let outcome = validate_one(path);
        match outcome {
            Ok(summary) => println!("{path}: ok ({summary})"),
            Err(e) => {
                println!("{path}: INVALID — {e}");
                bad += 1;
            }
        }
    }
    if bad > 0 {
        eprintln!("{bad} of {} file(s) failed validation", args.len());
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Decodes every record of `path`, checking every block CRC on the way.
fn validate_one(path: &str) -> mab_traces::Result<String> {
    let meta = peek_meta(path)?;
    let decoded = match meta.kind {
        PayloadKind::Mem => {
            let mut reader = TraceReader::open(path)?;
            let mut n = 0u64;
            while reader.next_record()?.is_some() {
                n += 1;
            }
            n
        }
        PayloadKind::Smt => {
            let mut reader = SmtTraceReader::open(path)?;
            let mut n = 0u64;
            while reader.next_record()?.is_some() {
                n += 1;
            }
            n
        }
    };
    Ok(format!("{} {} records", decoded, meta.kind.name()))
}

fn run_stats(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut top = 8usize;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => top = n,
                _ => return usage_error("--top needs a positive integer"),
            },
            "--json" => json = true,
            flag if flag.starts_with("--") => {
                return usage_error(&format!("unknown flag {flag}"));
            }
            p => path = Some(p.to_string()),
        }
    }
    let Some(path) = path else {
        return usage_error("stats needs a trace path");
    };
    let mut reader = match TraceReader::open(&path) {
        Ok(r) => r,
        Err(e) => return usage_error(&format!("cannot read {path}: {e}")),
    };
    let meta = reader.meta().clone();
    if !json {
        print_meta(&meta);
    }
    // Collect through the non-panicking API so corruption stays a clean
    // CLI error rather than a panic.
    let records = match reader.read_all() {
        Ok(records) => records,
        Err(e) => return usage_error(&format!("cannot read {path}: {e}")),
    };
    let stats = mab_traces::stats::analyze(records.into_iter(), top);
    if json {
        println!(
            "{{\"meta\":{{{}}},\"stats\":{}}}",
            meta_json_fields(&meta),
            stats.to_json()
        );
    } else {
        print!("{stats}");
    }
    ExitCode::SUCCESS
}

fn run_convert(args: &[String]) -> ExitCode {
    let mut provenance = None;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--provenance" => match it.next() {
                Some(p) => provenance = Some(p.clone()),
                None => return usage_error("--provenance needs a string"),
            },
            flag if flag.starts_with("--") && flag != "--" => {
                return usage_error(&format!("unknown flag {flag}"));
            }
            p => paths.push(p.to_string()),
        }
    }
    let [input, out] = paths.as_slice() else {
        return usage_error("convert needs an input path (or '-') and an output path");
    };
    let provenance = provenance.unwrap_or_else(|| {
        if input == "-" {
            "champsim:stdin".to_string()
        } else {
            format!("champsim:{input}")
        }
    });
    // Imports have no generator seed; 0 marks "external".
    let meta = TraceMeta::new(0, provenance);
    let result = if input == "-" {
        convert(std::io::stdin().lock(), out, meta)
    } else {
        match std::fs::File::open(input) {
            Ok(file) => convert(std::io::BufReader::new(file), out, meta),
            Err(e) => return usage_error(&format!("cannot open {input}: {e}")),
        }
    };
    match result {
        Ok((instrs, records)) => {
            println!("converted {instrs} ChampSim instructions -> {records} records in {out}");
            ExitCode::SUCCESS
        }
        Err(e) => usage_error(&format!("cannot convert: {e}")),
    }
}
