//! Process CPU time, peak memory and the provenance stored with a result.

use crate::digest::Fnv;
use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User plus system CPU time of the whole process, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark runs on), and the clock id
    // is a constant the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// Peak resident memory of this process in MB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and from what a result was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// `(key, value)` pairs, in print order.
    pub fields: Vec<(&'static str, String)>,
}

impl Provenance {
    /// Collects the host, the toolchain and the source identity. `root` is
    /// the repository checkout the benchmark was built from.
    pub fn collect(root: &Path, workload: &str, seed: u64, jobs: usize) -> Provenance {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown", |(_, m)| m.trim())
            .to_string();
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |k| k.trim().to_string());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let telemetry = if mab_telemetry::STATIC_ENABLED {
            "on"
        } else {
            "off"
        };
        Provenance {
            fields: vec![
                ("workload", workload.to_string()),
                ("seed", seed.to_string()),
                ("jobs", jobs.to_string()),
                ("nproc", nproc.to_string()),
                ("cpu", cpu),
                ("kernel", kernel),
                ("rustc", env!("PERFBENCH_RUSTC").to_string()),
                ("git_commit", git_commit(root)),
                ("source_digest", format!("{:016x}", source_digest(root))),
                ("profile", profile.to_string()),
                ("features", format!("default (telemetry {telemetry})")),
                ("rng", rng_identity()),
            ],
        }
    }

    /// The fields as one JSON object.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The RNG the simulators draw from: the vendored `rand` shim's generator,
/// identified by its first output for seed 0, so that results from
/// different generators are never compared.
pub fn rng_identity() -> String {
    use rand::{RngCore, SeedableRng};
    let first = rand::rngs::StdRng::seed_from_u64(0).next_u64();
    format!("rand shim StdRng (xoshiro256++), seed 0 -> {first:016x}")
}

/// The checked-out commit, read from `.git` without running git; "none"
/// outside a git checkout.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of the simulator sources (`crates/`, `shims/`, `Cargo.lock`), so
/// a result is tied to its code even outside a git checkout.
pub fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "shims"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h = Fnv::default();
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            let rel = file.strip_prefix(root).unwrap_or(&file);
            h.bytes(rel.to_string_lossy().as_bytes()).bytes(&bytes);
        }
    }
    h.finish()
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
