//! The on-disk run artifact model.
//!
//! Experiment binaries produce two JSONL artifacts: the telemetry export
//! (`--telemetry`: meta, counters, histograms, events) and the decision
//! trace (`--trace` with a `.jsonl` suffix: `trace_meta` + `decision`
//! lines). [`RunArtifact`] absorbs any mix of both — lines are dispatched by
//! their `"kind"` field, so a report can be built from one file or several.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use mab_telemetry::json::{self, JsonValue};

/// One bandit decision parsed back from a trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Global sequence number from the trace ring.
    pub seq: u64,
    /// Agent identity (the agent's RNG seed).
    pub agent: u64,
    /// Bandit step index at selection time.
    pub epoch: u64,
    /// Simulated-cycle timestamp.
    pub cycle: u64,
    /// Selected arm index.
    pub arm: usize,
    /// Whether the pick was exploratory.
    pub explore: bool,
    /// Agent phase (`round_robin`, `main`, `restart_sweep`).
    pub phase: String,
    /// Attributed step reward; `None` when the step never completed.
    pub reward: Option<f64>,
    /// Normalized attributed reward.
    pub normalized: Option<f64>,
    /// Per-arm Q-values at selection time.
    pub q: Vec<f64>,
    /// Per-arm selection bounds at selection time.
    pub bound: Vec<f64>,
    /// Per-arm pull counts at selection time.
    pub pulls: Vec<f64>,
}

/// A histogram summary line from the telemetry export.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramLine {
    /// Number of samples.
    pub count: u64,
    /// Mean in display units.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// One profiler span path, from a telemetry-export `span` line or a
/// collapsed-stack profile file (which carries only `self_ns`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanLine {
    /// Span entries (exact).
    pub count: u64,
    /// Entries that were wall-clock timed (sampling).
    pub timed: u64,
    /// Summed nanoseconds across the timed entries.
    pub total_ns: u64,
    /// Extrapolated total nanoseconds (`total_ns * count / timed`).
    pub est_ns: u64,
    /// Estimated nanoseconds minus direct children's estimates.
    pub self_ns: u64,
}

impl SpanLine {
    /// Accumulates another observation of the same path (multiple files).
    fn add(&mut self, other: SpanLine) {
        self.count += other.count;
        self.timed += other.timed;
        self.total_ns += other.total_ns;
        self.est_ns += other.est_ns;
        self.self_ns += other.self_ns;
    }
}

/// Ring accounting from a `trace_meta` line.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceMeta {
    /// Decisions present in the file.
    pub retained: u64,
    /// Decisions lost to ring wraparound.
    pub dropped: u64,
    /// Decisions ever recorded.
    pub total: u64,
    /// Rewards that arrived after their decision was evicted.
    pub unattributed: u64,
}

/// Everything parsed out of one or more JSONL artifacts.
#[derive(Debug, Default)]
pub struct RunArtifact {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → summary.
    pub histograms: BTreeMap<String, HistogramLine>,
    /// Histogram name → raw bucket counts, when the export carried them.
    pub histogram_buckets: BTreeMap<String, Vec<u64>>,
    /// Profiler span path → totals, from `span` JSONL lines and/or
    /// collapsed-stack profile files.
    pub spans: BTreeMap<String, SpanLine>,
    /// Event kind → occurrence count (events are summarized, not stored).
    pub event_counts: BTreeMap<String, u64>,
    /// Decisions, in file order (seq-ascending per source file).
    pub decisions: Vec<Decision>,
    /// Trace-ring accounting, when a trace file was loaded.
    pub trace_meta: Option<TraceMeta>,
    /// Event-ring accounting (`events_total`) from the telemetry meta line.
    pub events_total: Option<u64>,
    /// Events still in the ring at export time (telemetry meta line).
    pub events_retained: Option<u64>,
    /// Events lost to ring wraparound (telemetry meta line).
    pub events_dropped: Option<u64>,
    /// Lines that failed to parse or lacked a recognizable shape.
    pub skipped_lines: u64,
}

impl RunArtifact {
    /// An empty artifact; feed it with [`RunArtifact::load_file`].
    pub fn new() -> Self {
        RunArtifact::default()
    }

    /// Loads every line of a JSONL artifact into this collection.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be read;
    /// malformed lines are counted in `skipped_lines`, not fatal.
    pub fn load_file(&mut self, path: &Path) -> std::io::Result<()> {
        let reader = BufReader::new(File::open(path)?);
        for line in reader.lines() {
            self.absorb_line(&line?);
        }
        Ok(())
    }

    /// Convenience: a fresh artifact from a list of files.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O failure.
    pub fn load(paths: &[std::path::PathBuf]) -> std::io::Result<Self> {
        let mut artifact = RunArtifact::new();
        for path in paths {
            artifact.load_file(path)?;
        }
        Ok(artifact)
    }

    /// Parses one JSONL line and merges it in. Blank lines are ignored;
    /// unparsable ones bump `skipped_lines`.
    pub fn absorb_line(&mut self, line: &str) {
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        let Ok(value) = json::parse(line) else {
            // Not JSON: maybe a collapsed-stack profile line (`path self_ns`).
            match parse_collapsed(line) {
                Some((path, self_ns)) => {
                    let entry = self.spans.entry(path).or_default();
                    entry.self_ns += self_ns;
                }
                None => self.skipped_lines += 1,
            }
            return;
        };
        let Some(kind) = value.get("kind").and_then(JsonValue::as_str) else {
            self.skipped_lines += 1;
            return;
        };
        match kind {
            "meta" => {
                self.events_total = value.get("events_total").and_then(JsonValue::as_u64);
                self.events_retained = value.get("events_retained").and_then(JsonValue::as_u64);
                self.events_dropped = value.get("events_dropped").and_then(JsonValue::as_u64);
            }
            "counter" => {
                if let (Some(stat), Some(v)) = (
                    value.get("stat").and_then(JsonValue::as_str),
                    value.get("value").and_then(JsonValue::as_u64),
                ) {
                    *self.counters.entry(stat.to_string()).or_insert(0) += v;
                } else {
                    self.skipped_lines += 1;
                }
            }
            "histogram" => match parse_histogram(&value) {
                Some((name, hist)) => {
                    if let Some(buckets) = value.get("buckets").and_then(JsonValue::as_f64_vec) {
                        self.histogram_buckets
                            .insert(name.clone(), buckets.iter().map(|&b| b as u64).collect());
                    }
                    self.histograms.insert(name, hist);
                }
                None => self.skipped_lines += 1,
            },
            "span" => match parse_span(&value) {
                Some((path, span)) => self.spans.entry(path).or_default().add(span),
                None => self.skipped_lines += 1,
            },
            "trace_meta" => {
                self.trace_meta = Some(TraceMeta {
                    retained: u64_field(&value, "decisions_retained"),
                    dropped: u64_field(&value, "decisions_dropped"),
                    total: u64_field(&value, "decisions_total"),
                    unattributed: u64_field(&value, "rewards_unattributed"),
                });
            }
            "decision" => match parse_decision(&value) {
                Some(d) => self.decisions.push(d),
                None => self.skipped_lines += 1,
            },
            other => {
                // Any other kind is a telemetry event line; tally it.
                *self.event_counts.entry(other.to_string()).or_insert(0) += 1;
            }
        }
    }

    /// The number of arms seen across all decisions (from the widest
    /// per-arm vector, falling back to the highest chosen index).
    pub fn arm_count(&self) -> usize {
        self.decisions
            .iter()
            .map(|d| d.q.len().max(d.arm + 1))
            .max()
            .unwrap_or(0)
    }
}

fn u64_field(value: &JsonValue, key: &str) -> u64 {
    value.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn f64_field(value: &JsonValue, key: &str) -> Option<f64> {
    value.get(key).and_then(JsonValue::as_f64)
}

fn parse_histogram(value: &JsonValue) -> Option<(String, HistogramLine)> {
    Some((
        value.get("hist")?.as_str()?.to_string(),
        HistogramLine {
            count: value.get("count")?.as_u64()?,
            mean: f64_field(value, "mean")?,
            p50: f64_field(value, "p50")?,
            p90: f64_field(value, "p90")?,
            p99: f64_field(value, "p99")?,
        },
    ))
}

fn parse_span(value: &JsonValue) -> Option<(String, SpanLine)> {
    Some((
        value.get("path")?.as_str()?.to_string(),
        SpanLine {
            count: value.get("count")?.as_u64()?,
            timed: value.get("timed")?.as_u64()?,
            total_ns: value.get("total_ns")?.as_u64()?,
            est_ns: value.get("est_ns")?.as_u64()?,
            self_ns: value.get("self_ns")?.as_u64()?,
        },
    ))
}

/// Parses one collapsed-stack line: a frame path (no quotes, no spaces)
/// followed by a single integer self-time.
fn parse_collapsed(line: &str) -> Option<(String, u64)> {
    let (path, count) = line.rsplit_once(' ')?;
    let path = path.trim();
    if path.is_empty() || path.contains([' ', '"', '{']) {
        return None;
    }
    Some((path.to_string(), count.trim().parse().ok()?))
}

fn parse_decision(value: &JsonValue) -> Option<Decision> {
    // `reward: null` means "step never completed" and is a valid record.
    let optional = |key: &str| match value.get(key) {
        Some(JsonValue::Null) | None => Some(None),
        Some(v) => v.as_f64().map(Some),
    };
    Some(Decision {
        seq: value.get("seq")?.as_u64()?,
        agent: value.get("agent")?.as_u64()?,
        epoch: value.get("epoch")?.as_u64()?,
        cycle: value.get("cycle")?.as_u64()?,
        arm: value.get("arm")?.as_u64()? as usize,
        explore: value.get("explore")?.as_bool()?,
        phase: value.get("phase")?.as_str()?.to_string(),
        reward: optional("reward")?,
        normalized: optional("normalized")?,
        q: value.get("q")?.as_f64_vec()?,
        bound: value.get("bound")?.as_f64_vec()?,
        pulls: value.get("pulls")?.as_f64_vec()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatches_lines_by_kind() {
        let mut a = RunArtifact::new();
        a.absorb_line(
            "{\"kind\":\"meta\",\"events_retained\":2,\"events_dropped\":0,\"events_total\":2}",
        );
        a.absorb_line("{\"kind\":\"counter\",\"stat\":\"arm_pulls\",\"value\":42}");
        a.absorb_line(
            "{\"kind\":\"histogram\",\"hist\":\"reward\",\"count\":10,\"mean\":1.5,\
             \"p50\":1.4,\"p90\":2.0,\"p99\":2.2}",
        );
        a.absorb_line(
            "{\"kind\":\"trace_meta\",\"decisions_retained\":1,\"decisions_dropped\":0,\
             \"decisions_total\":1,\"rewards_unattributed\":0}",
        );
        a.absorb_line(
            "{\"kind\":\"decision\",\"seq\":0,\"agent\":1,\"epoch\":0,\"cycle\":500,\
             \"arm\":2,\"explore\":false,\"phase\":\"main\",\"reward\":1.25,\
             \"normalized\":0.8,\"q\":[0.1,0.2,0.9],\"bound\":[0.3,0.4,1.0],\
             \"pulls\":[1,1,5]}",
        );
        a.absorb_line("{\"kind\":\"arm_pulled\",\"seq\":9,\"agent\":1}");
        a.absorb_line("not json at all");
        a.absorb_line("");

        assert_eq!(a.events_total, Some(2));
        assert_eq!(a.counters["arm_pulls"], 42);
        assert_eq!(a.histograms["reward"].count, 10);
        assert_eq!(a.trace_meta.unwrap().total, 1);
        assert_eq!(a.event_counts["arm_pulled"], 1);
        assert_eq!(a.skipped_lines, 1);

        let d = &a.decisions[0];
        assert_eq!(d.arm, 2);
        assert_eq!(d.cycle, 500);
        assert_eq!(d.reward, Some(1.25));
        assert_eq!(d.q, vec![0.1, 0.2, 0.9]);
        assert_eq!(a.arm_count(), 3);
    }

    #[test]
    fn null_reward_is_unattributed() {
        let mut a = RunArtifact::new();
        a.absorb_line(
            "{\"kind\":\"decision\",\"seq\":0,\"agent\":1,\"epoch\":0,\"cycle\":0,\
             \"arm\":0,\"explore\":true,\"phase\":\"round_robin\",\"reward\":null,\
             \"normalized\":null,\"q\":[0],\"bound\":[0],\"pulls\":[0]}",
        );
        assert_eq!(a.decisions[0].reward, None);
        assert_eq!(a.decisions[0].normalized, None);
    }

    #[test]
    fn span_lines_are_parsed_and_merged_by_path() {
        let mut a = RunArtifact::new();
        a.absorb_line(
            "{\"kind\":\"span\",\"path\":\"run;cache_access\",\"count\":100,\"timed\":2,\
             \"total_ns\":50,\"est_ns\":2500,\"self_ns\":2000}",
        );
        a.absorb_line(
            "{\"kind\":\"span\",\"path\":\"run;cache_access\",\"count\":50,\"timed\":1,\
             \"total_ns\":25,\"est_ns\":1250,\"self_ns\":1000}",
        );
        let span = a.spans["run;cache_access"];
        assert_eq!(span.count, 150);
        assert_eq!(span.timed, 3);
        assert_eq!(span.est_ns, 3750);
        assert_eq!(span.self_ns, 3000);
        assert_eq!(a.skipped_lines, 0);
    }

    #[test]
    fn collapsed_stack_lines_are_absorbed() {
        let mut a = RunArtifact::new();
        a.absorb_line("run 5000");
        a.absorb_line("run;cache_access;mshr 1234");
        a.absorb_line("run;cache_access;mshr 766");
        assert_eq!(a.spans["run"].self_ns, 5000);
        assert_eq!(a.spans["run;cache_access;mshr"].self_ns, 2000);
        assert_eq!(a.skipped_lines, 0);
    }

    #[test]
    fn histogram_buckets_round_trip() {
        let mut a = RunArtifact::new();
        a.absorb_line(
            "{\"kind\":\"histogram\",\"hist\":\"reward\",\"count\":3,\"mean\":1.0,\
             \"p50\":1.0,\"p90\":1.0,\"p99\":1.0,\"buckets\":[0,2,1]}",
        );
        assert_eq!(a.histogram_buckets["reward"], vec![0, 2, 1]);
        assert_eq!(a.histograms["reward"].count, 3);
    }

    #[test]
    fn meta_line_carries_ring_drop_accounting() {
        let mut a = RunArtifact::new();
        a.absorb_line(
            "{\"kind\":\"meta\",\"events_retained\":10,\"events_dropped\":7,\
             \"events_total\":17}",
        );
        assert_eq!(a.events_retained, Some(10));
        assert_eq!(a.events_dropped, Some(7));
        assert_eq!(a.events_total, Some(17));
    }

    #[test]
    fn counters_accumulate_across_files() {
        let mut a = RunArtifact::new();
        a.absorb_line("{\"kind\":\"counter\",\"stat\":\"x\",\"value\":1}");
        a.absorb_line("{\"kind\":\"counter\",\"stat\":\"x\",\"value\":2}");
        assert_eq!(a.counters["x"], 3);
    }
}
