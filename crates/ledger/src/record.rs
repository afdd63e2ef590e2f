//! The ledger's unit of storage: one [`RunRecord`] per experiment
//! invocation (or ingested bench snapshot).
//!
//! A record separates three kinds of fields:
//!
//! - **identity** — experiment name, canonicalized config pairs and the code
//!   version. These (and only these) feed the content-address
//!   ([`RunRecord::digest`]), so a digest names "this experiment, with this
//!   configuration, built from this code" regardless of when, where, or at
//!   what `--jobs` setting it ran.
//! - **outcome** — key output metrics and the per-arm sweep log. Outcomes
//!   are deterministic functions of the identity (see `mab-runner`'s
//!   scheduling-invariance discipline), so two records with equal digests
//!   should agree here; [`RunRecord::same_outcome`] checks exactly that and
//!   backs the store's no-op re-record behaviour.
//! - **circumstance** — wall time, start timestamp, worker count and
//!   artifact paths. Never compared, never digested: reruns differ here by
//!   nature.

use mab_telemetry::json::{self, JsonValue};

/// One sweep-arm execution inside a run, as observed by `mab-runner`.
///
/// `sweep` and `index` follow the runner's ordered-slot discipline: `sweep`
/// counts the sweeps the run started (in program order) and `index` is the
/// arm's position in that sweep's spec queue — so the `(sweep, index, seed)`
/// triple is identical at any `--jobs` setting. `wall_ns` is circumstance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmRun {
    /// Sweep sequence number within the run (order of sweep starts).
    pub sweep: u32,
    /// Spec index within the sweep.
    pub index: u32,
    /// The arm's derived child seed.
    pub seed: u64,
    /// Arm wall time in nanoseconds (timing field, excluded from identity).
    pub wall_ns: u64,
}

/// One ledger entry: the identity, outcome and circumstances of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Experiment name (binary name, or `bench:<name>` for ingested
    /// benchmark snapshots).
    pub experiment: String,
    /// Code version: crate version plus short git revision, see
    /// [`code_version`].
    pub code: String,
    /// Canonicalized configuration pairs, sorted by key.
    pub config: Vec<(String, String)>,
    /// Worker threads the run used (circumstance: results are identical at
    /// any setting, so this never enters the digest).
    pub jobs: u64,
    /// Unix timestamp when the run started (circumstance).
    pub started_unix: u64,
    /// Run wall time in milliseconds (circumstance).
    pub wall_ms: f64,
    /// Key output stats: counter totals, histogram means, reported values.
    pub metrics: Vec<(String, f64)>,
    /// Per-arm sweep log, sorted by `(sweep, index)`.
    pub arms: Vec<ArmRun>,
    /// Pointers to the run's exported artifacts (telemetry, trace, profile),
    /// as `(kind, path)` pairs (circumstance).
    pub artifacts: Vec<(String, String)>,
    /// Live-monitor endpoint the run served (`--monitor`), if any
    /// (circumstance). Lets post-hoc queries cross-reference which runs
    /// were observed live.
    pub monitor: Option<String>,
    /// `/metrics` + `/status` scrapes the monitor served during the run
    /// (circumstance).
    pub monitor_scrapes: u64,
    /// `mab-serve` job that produced or served this result (`client:job-id`),
    /// if the run went through the sweep daemon (circumstance).
    pub served: Option<String>,
    /// True when the daemon answered this result from its content-addressed
    /// cache instead of executing the arm locally (circumstance). Only
    /// meaningful together with [`RunRecord::served`].
    pub cache_hit: bool,
    /// Logical CPUs on the host that ran this (circumstance; 0 = unknown).
    /// Makes cross-host `trend`/`regress` wall-time comparisons attributable.
    pub cpus: u64,
    /// Hot-loop kernel implementation the run used (`"simd"`, or `"scalar"`
    /// under `MAB_SCALAR_KERNELS=1`), if recorded (circumstance).
    pub kernel_mode: Option<String>,
    /// Hostname of the machine that ran this, if recorded (circumstance).
    pub host: Option<String>,
}

impl RunRecord {
    /// A record with the given identity and everything else empty.
    pub fn new(experiment: &str, code: &str) -> Self {
        RunRecord {
            experiment: experiment.to_string(),
            code: code.to_string(),
            config: Vec::new(),
            jobs: 1,
            started_unix: 0,
            wall_ms: 0.0,
            metrics: Vec::new(),
            arms: Vec::new(),
            artifacts: Vec::new(),
            monitor: None,
            monitor_scrapes: 0,
            served: None,
            cache_hit: false,
            cpus: 0,
            kernel_mode: None,
            host: None,
        }
    }

    /// Adds a config pair, keeping the list sorted by key.
    pub fn config_pair(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
        self.config.sort();
    }

    /// The record's content address: 16 lowercase hex digits of an FNV-1a
    /// hash over the canonicalized identity (experiment, sorted config
    /// pairs, code version). Stable across reruns, `--jobs` settings and
    /// field-order changes in the serialized form.
    pub fn digest(&self) -> String {
        config_digest(&self.experiment, &self.config, &self.code)
    }

    /// True when `other` describes the same run outcome: identical identity
    /// fields, metrics, and arm log modulo the timing fields (`wall_ms`,
    /// `started_unix`, per-arm `wall_ns`) and circumstances (`jobs`,
    /// artifact paths). The store skips appending an exact re-record.
    pub fn same_outcome(&self, other: &RunRecord) -> bool {
        self.experiment == other.experiment
            && self.code == other.code
            && self.config == other.config
            && self.metrics == other.metrics
            && self.arms.len() == other.arms.len()
            && self
                .arms
                .iter()
                .zip(&other.arms)
                .all(|(a, b)| (a.sweep, a.index, a.seed) == (b.sweep, b.index, b.seed))
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a config value by key.
    pub fn config_value(&self, key: &str) -> Option<&str> {
        self.config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Serializes the record as one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"v\":1");
        out.push_str(&format!(",\"digest\":\"{}\"", self.digest()));
        out.push_str(&format!(
            ",\"experiment\":\"{}\"",
            json::escape(&self.experiment)
        ));
        out.push_str(&format!(",\"code\":\"{}\"", json::escape(&self.code)));
        out.push_str(",\"config\":{");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":\"{}\"", json::escape(k), json::escape(v)));
        }
        out.push('}');
        out.push_str(&format!(",\"jobs\":{}", self.jobs));
        out.push_str(&format!(",\"started_unix\":{}", self.started_unix));
        out.push_str(&format!(",\"wall_ms\":{}", json::fmt_f64(self.wall_ms)));
        out.push_str(",\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json::escape(k), json::fmt_f64(*v)));
        }
        out.push('}');
        out.push_str(",\"arms\":[");
        for (i, arm) in self.arms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"sweep\":{},\"index\":{},\"seed\":{},\"wall_ns\":{}}}",
                arm.sweep, arm.index, arm.seed, arm.wall_ns
            ));
        }
        out.push(']');
        if let Some(endpoint) = &self.monitor {
            out.push_str(&format!(
                ",\"monitor\":\"{}\",\"monitor_scrapes\":{}",
                json::escape(endpoint),
                self.monitor_scrapes
            ));
        }
        if let Some(served) = &self.served {
            out.push_str(&format!(
                ",\"served\":\"{}\",\"cache_hit\":{}",
                json::escape(served),
                self.cache_hit
            ));
        }
        if self.cpus != 0 {
            out.push_str(&format!(",\"cpus\":{}", self.cpus));
        }
        if let Some(mode) = &self.kernel_mode {
            out.push_str(&format!(",\"kernel_mode\":\"{}\"", json::escape(mode)));
        }
        if let Some(host) = &self.host {
            out.push_str(&format!(",\"host\":\"{}\"", json::escape(host)));
        }
        out.push_str(",\"artifacts\":{");
        for (i, (k, v)) in self.artifacts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":\"{}\"", json::escape(k), json::escape(v)));
        }
        out.push_str("}}");
        out
    }

    /// Parses a record from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid JSON or lacks the
    /// required fields.
    pub fn from_json(text: &str) -> Result<RunRecord, String> {
        let v = json::parse(text)?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{key}'"))
        };
        let pairs = |key: &str| -> Result<Vec<(String, JsonValue)>, String> {
            match v.get(key) {
                Some(JsonValue::Obj(pairs)) => Ok(pairs.clone()),
                _ => Err(format!("missing object field '{key}'")),
            }
        };
        let mut record = RunRecord::new(&str_field("experiment")?, &str_field("code")?);
        for (k, val) in pairs("config")? {
            match val.as_str() {
                Some(s) => record.config.push((k, s.to_string())),
                None => return Err("non-string config value".to_string()),
            }
        }
        record.config.sort();
        record.jobs = v.get("jobs").and_then(JsonValue::as_u64).unwrap_or(1);
        record.started_unix = v
            .get("started_unix")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        record.wall_ms = v.get("wall_ms").and_then(JsonValue::as_f64).unwrap_or(0.0);
        for (k, val) in pairs("metrics")? {
            // NaN (emitted as null) survives the round trip.
            let num = val.as_f64().unwrap_or(f64::NAN);
            record.metrics.push((k, num));
        }
        if let Some(arms) = v.get("arms").and_then(JsonValue::as_arr) {
            for arm in arms {
                let field = |key: &str| arm.get(key).and_then(JsonValue::as_u64);
                record.arms.push(ArmRun {
                    sweep: field("sweep").ok_or("arm missing 'sweep'")? as u32,
                    index: field("index").ok_or("arm missing 'index'")? as u32,
                    seed: field("seed").ok_or("arm missing 'seed'")?,
                    wall_ns: field("wall_ns").unwrap_or(0),
                });
            }
        }
        record.monitor = v
            .get("monitor")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        record.monitor_scrapes = v
            .get("monitor_scrapes")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        record.served = v
            .get("served")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        record.cache_hit = v
            .get("cache_hit")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false);
        record.cpus = v.get("cpus").and_then(JsonValue::as_u64).unwrap_or(0);
        record.kernel_mode = v
            .get("kernel_mode")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        record.host = v
            .get("host")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        if let Some(JsonValue::Obj(arts)) = v.get("artifacts") {
            for (k, val) in arts {
                if let Some(s) = val.as_str() {
                    record.artifacts.push((k.clone(), s.to_string()));
                }
            }
        }
        Ok(record)
    }
}

/// The ledger's content address for a run identity: 16 lowercase hex digits
/// of an FNV-1a hash over the canonicalized `(experiment, sorted config
/// pairs, code version)` triple. This is the workspace-wide cache key —
/// `mab-serve` addresses its result cache with it — so any consumer that
/// needs "the digest this run would be recorded under" must call this (or
/// [`RunRecord::digest`], which delegates here) rather than reimplement it.
///
/// `config` must already be sorted by key (as [`RunRecord::config_pair`]
/// maintains); the canonical form is
/// `experiment '\n' (key '=' value '\n')* code`.
pub fn config_digest(experiment: &str, config: &[(String, String)], code: &str) -> String {
    let mut canon = String::new();
    canon.push_str(experiment);
    canon.push('\n');
    for (k, v) in config {
        canon.push_str(k);
        canon.push('=');
        canon.push_str(v);
        canon.push('\n');
    }
    canon.push_str(code);
    format!("{:016x}", fnv1a64(canon.as_bytes()))
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The running code's version string: `<crate version>+<short git rev>`,
/// with `unknown` when no `.git` is reachable from the working directory.
/// Part of every record's identity, so results from different code states
/// never collide under one digest.
pub fn code_version() -> String {
    format!(
        "{}+{}",
        env!("CARGO_PKG_VERSION"),
        git_rev().unwrap_or_else(|| "unknown".to_string())
    )
}

/// Reads the checked-out revision by following `.git/HEAD` upward from the
/// current directory — no `git` subprocess, so it works in minimal
/// containers and costs microseconds.
fn git_rev() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git").join("HEAD");
        if head.is_file() {
            let text = std::fs::read_to_string(&head).ok()?;
            let text = text.trim();
            let full = match text.strip_prefix("ref: ") {
                Some(r) => match std::fs::read_to_string(dir.join(".git").join(r)) {
                    Ok(s) => s.trim().to_string(),
                    // A just-packed ref lives in packed-refs instead.
                    Err(_) => {
                        let packed =
                            std::fs::read_to_string(dir.join(".git").join("packed-refs")).ok()?;
                        packed
                            .lines()
                            .find(|l| l.trim_end().ends_with(r))
                            .and_then(|l| l.split_whitespace().next())
                            .map(str::to_string)?
                    }
                },
                None => text.to_string(),
            };
            return (full.len() >= 7 && full.bytes().all(|b| b.is_ascii_hexdigit()))
                .then(|| full[..7].to_string());
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        let mut r = RunRecord::new("fig08_singlecore", "0.1.0+abc1234");
        r.config_pair("seed", 42);
        r.config_pair("instructions", 700_000);
        r.config_pair("quick", false);
        r.jobs = 8;
        r.started_unix = 1_754_000_000;
        r.wall_ms = 123.5;
        r.metrics = vec![
            ("arm_pulls".to_string(), 1234.0),
            ("hist:reward:mean".to_string(), 0.5125),
        ];
        r.arms = vec![
            ArmRun {
                sweep: 0,
                index: 0,
                seed: 7,
                wall_ns: 1000,
            },
            ArmRun {
                sweep: 0,
                index: 1,
                seed: 9,
                wall_ns: 1200,
            },
        ];
        r.artifacts = vec![("telemetry".to_string(), "results/x.jsonl".to_string())];
        r
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let r = sample();
        let parsed = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(r, parsed);
        assert_eq!(r.digest(), parsed.digest());
    }

    #[test]
    fn full_64_bit_seeds_round_trip_exactly() {
        // Derived child seeds use all 64 bits. If the JSON layer routed
        // them through f64, every stored arm seed would come back rounded
        // and `same_outcome` against a stored record could never hold —
        // which silently disables the store's re-record dedup.
        let mut r = sample();
        r.arms[0].seed = 13_679_457_532_755_275_413;
        r.arms[1].seed = u64::MAX;
        let parsed = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.arms[0].seed, 13_679_457_532_755_275_413);
        assert_eq!(parsed.arms[1].seed, u64::MAX);
        assert!(r.same_outcome(&parsed));
    }

    #[test]
    fn monitor_circumstance_round_trips() {
        let mut r = sample();
        r.monitor = Some("127.0.0.1:9464".to_string());
        r.monitor_scrapes = 17;
        let parsed = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.monitor.as_deref(), Some("127.0.0.1:9464"));
        assert_eq!(parsed.monitor_scrapes, 17);
        // Absent on unmonitored records (and in their JSON).
        let plain = sample();
        assert!(!plain.to_json().contains("monitor"), "{}", plain.to_json());
        assert_eq!(
            RunRecord::from_json(&plain.to_json()).unwrap().monitor,
            None
        );
    }

    #[test]
    fn serve_circumstance_round_trips() {
        let mut r = sample();
        r.served = Some("agent-7:12".to_string());
        r.cache_hit = true;
        let parsed = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.served.as_deref(), Some("agent-7:12"));
        assert!(parsed.cache_hit);
        assert!(r.same_outcome(&parsed));
        // Absent on direct runs (and in their JSON).
        let plain = sample();
        assert!(!plain.to_json().contains("served"), "{}", plain.to_json());
        assert!(!plain.to_json().contains("cache_hit"));
        let reparsed = RunRecord::from_json(&plain.to_json()).unwrap();
        assert_eq!(reparsed.served, None);
        assert!(!reparsed.cache_hit);
    }

    #[test]
    fn host_circumstance_round_trips() {
        let mut r = sample();
        r.cpus = 8;
        r.kernel_mode = Some("scalar".to_string());
        r.host = Some("ci-runner-3".to_string());
        let parsed = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.cpus, 8);
        assert_eq!(parsed.kernel_mode.as_deref(), Some("scalar"));
        assert_eq!(parsed.host.as_deref(), Some("ci-runner-3"));
        assert!(r.same_outcome(&parsed));
        // Absent when unrecorded (and in the JSON).
        let plain = sample();
        assert!(!plain.to_json().contains("kernel_mode"), "{}", plain.to_json());
        assert!(!plain.to_json().contains("\"host\""));
        assert!(!plain.to_json().contains("\"cpus\""));
        let reparsed = RunRecord::from_json(&plain.to_json()).unwrap();
        assert_eq!(reparsed.cpus, 0);
        assert_eq!(reparsed.kernel_mode, None);
        assert_eq!(reparsed.host, None);
    }

    #[test]
    fn config_digest_matches_record_digest() {
        let r = sample();
        assert_eq!(config_digest(&r.experiment, &r.config, &r.code), r.digest());
        // The helper is order-sensitive by contract: callers pass the
        // already-sorted pairs `config_pair` maintains.
        assert_eq!(config_digest("x", &[], "c").len(), 16);
        assert_ne!(config_digest("x", &[], "c"), config_digest("y", &[], "c"));
    }

    #[test]
    fn digest_ignores_circumstance_fields() {
        let mut a = sample();
        let mut b = sample();
        b.jobs = 1;
        b.wall_ms = 9.9;
        b.started_unix = 1;
        b.artifacts.clear();
        b.metrics.clear();
        b.monitor = Some("127.0.0.1:1".to_string());
        b.monitor_scrapes = 3;
        b.served = Some("ci:4".to_string());
        b.cache_hit = true;
        b.cpus = 128;
        b.kernel_mode = Some("scalar".to_string());
        b.host = Some("elsewhere".to_string());
        assert_eq!(a.digest(), b.digest());
        // …but any identity change produces a new digest.
        b.config_pair("mixes", 40);
        assert_ne!(a.digest(), b.digest());
        a.code = "0.1.0+fffffff".to_string();
        assert_ne!(a.digest(), sample().digest());
    }

    #[test]
    fn digest_is_insensitive_to_config_insertion_order() {
        let mut a = RunRecord::new("x", "c");
        a.config_pair("b", 2);
        a.config_pair("a", 1);
        let mut b = RunRecord::new("x", "c");
        b.config_pair("a", 1);
        b.config_pair("b", 2);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn same_outcome_ignores_timing_but_not_results() {
        let a = sample();
        let mut b = sample();
        b.wall_ms = 0.1;
        b.started_unix = 5;
        b.jobs = 1;
        b.arms[0].wall_ns = 999_999;
        b.artifacts.clear();
        assert!(a.same_outcome(&b));
        b.metrics[0].1 += 1.0;
        assert!(!a.same_outcome(&b));
        let mut c = sample();
        c.arms[1].seed = 1;
        assert!(!a.same_outcome(&c));
    }

    #[test]
    fn escaped_names_survive() {
        let mut r = RunRecord::new("odd \"name\"\n", "c\\v");
        r.config_pair("path", "a\tb");
        let parsed = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(r, parsed);
    }

    #[test]
    fn code_version_has_version_and_rev() {
        let code = code_version();
        assert!(code.starts_with(env!("CARGO_PKG_VERSION")), "{code}");
        assert!(code.contains('+'), "{code}");
    }

    #[test]
    fn metric_and_config_lookup() {
        let r = sample();
        assert_eq!(r.metric("arm_pulls"), Some(1234.0));
        assert_eq!(r.metric("missing"), None);
        assert_eq!(r.config_value("seed"), Some("42"));
        assert_eq!(r.config_value("nope"), None);
    }
}
