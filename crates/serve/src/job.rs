//! Job model and sweep-spec parsing for the serve API.
//!
//! A *job* is one client submission: an experiment plus a config grid
//! (lists of seeds / instruction budgets / mix caps, crossed) that expands
//! to one [`Arm`] per grid point. Each arm is an independent, fully
//! resolved [`RunSpec`] with its own content digest — the unit the
//! scheduler queues, the cache stores, and the ledger records.

use mab_experiments::spec::{self, RunSpec};
use mab_telemetry::json::{self, JsonValue};

/// Scheduling state of one arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmStatus {
    /// Waiting in its client's queue.
    Queued,
    /// Executing (or attached to an identical in-flight execution).
    Running,
    /// Finished; the artifact is in the cache.
    Done,
    /// Execution failed; see [`Arm::error`].
    Failed,
}

impl ArmStatus {
    /// Lower-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            ArmStatus::Queued => "queued",
            ArmStatus::Running => "running",
            ArmStatus::Done => "done",
            ArmStatus::Failed => "failed",
        }
    }

    /// True for states no transition leaves.
    pub fn is_terminal(self) -> bool {
        matches!(self, ArmStatus::Done | ArmStatus::Failed)
    }
}

/// One grid point of a job: a resolved spec plus its scheduling state.
#[derive(Debug, Clone)]
pub struct Arm {
    /// The fully resolved run identity.
    pub spec: RunSpec,
    /// Content digest (cache key / ledger address) under the serving code
    /// version.
    pub digest: String,
    /// Scheduling state.
    pub status: ArmStatus,
    /// True when the result came from the cache or an in-flight twin
    /// rather than a fresh execution.
    pub cache_hit: bool,
    /// Wall time until the arm completed, in milliseconds.
    pub wall_ms: f64,
    /// Failure message, when [`ArmStatus::Failed`].
    pub error: Option<String>,
    /// Path of the `.mabcrash` flight-recorder report the failed execution
    /// left behind, when one was found (see `GET /crashes` and
    /// `mab-inspect postmortem`).
    pub crash: Option<String>,
}

/// One client submission.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id.
    pub id: u64,
    /// Client identity (fair-scheduling key).
    pub client: String,
    /// The expanded grid.
    pub arms: Vec<Arm>,
    /// Submission time (seconds since the Unix epoch).
    pub submitted_unix: u64,
    /// Per-job progress stream (`GET /jobs/:id/events`).
    pub events: std::sync::Arc<mab_monitor::EventRing>,
}

impl Job {
    /// Aggregate state over the arms: `failed` dominates, then `running`
    /// while anything is unfinished, `done` only when every arm is done.
    pub fn status(&self) -> &'static str {
        if self.arms.iter().any(|a| a.status == ArmStatus::Failed) {
            "failed"
        } else if self.arms.iter().all(|a| a.status == ArmStatus::Done) {
            "done"
        } else if self.arms.iter().all(|a| a.status == ArmStatus::Queued) {
            "queued"
        } else {
            "running"
        }
    }

    /// Arms in a terminal state.
    pub fn finished(&self) -> usize {
        self.arms.iter().filter(|a| a.status.is_terminal()).count()
    }

    /// Arms that were served from cache (on-disk or in-flight dedup).
    pub fn cache_hits(&self) -> usize {
        self.arms
            .iter()
            .filter(|a| a.status.is_terminal() && a.cache_hit)
            .count()
    }

    /// Full status document for `GET /jobs/:id`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"id\":{},\"client\":\"{}\",\"experiment\":\"{}\",\"status\":\"{}\",\
             \"submitted_unix\":{},\"arms_total\":{},\"arms_finished\":{},\"cache_hits\":{},\"arms\":[",
            self.id,
            json::escape(&self.client),
            json::escape(
                self.arms
                    .first()
                    .map(|a| a.spec.experiment.as_str())
                    .unwrap_or("")
            ),
            self.status(),
            self.submitted_unix,
            self.arms.len(),
            self.finished(),
            self.cache_hits(),
        );
        for (i, arm) in self.arms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&arm_json(i, arm));
        }
        out.push_str("]}");
        out
    }

    /// One-line summary for `GET /queue`.
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"id\":{},\"client\":\"{}\",\"experiment\":\"{}\",\"status\":\"{}\",\
             \"arms_total\":{},\"arms_finished\":{},\"cache_hits\":{}}}",
            self.id,
            json::escape(&self.client),
            json::escape(
                self.arms
                    .first()
                    .map(|a| a.spec.experiment.as_str())
                    .unwrap_or("")
            ),
            self.status(),
            self.arms.len(),
            self.finished(),
            self.cache_hits(),
        )
    }
}

/// Renders one arm for the job document.
pub fn arm_json(index: usize, arm: &Arm) -> String {
    let mut out = format!(
        "{{\"index\":{index},\"digest\":\"{}\",\"status\":\"{}\",\"cache_hit\":{},\
         \"instructions\":{},\"seed\":{},\"mixes\":{},\"quick\":{},\"wall_ms\":{}",
        arm.digest,
        arm.status.name(),
        arm.cache_hit,
        arm.spec.instructions,
        arm.spec.seed,
        arm.spec.mixes,
        arm.spec.quick,
        json::fmt_f64(arm.wall_ms),
    );
    if let Some(error) = &arm.error {
        out.push_str(&format!(",\"error\":\"{}\"", json::escape(error)));
    }
    if let Some(crash) = &arm.crash {
        out.push_str(&format!(",\"crash\":\"{}\"", json::escape(crash)));
    }
    out.push('}');
    out
}

/// A parsed, expanded submission: the client id plus one resolved spec per
/// grid point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Client identity for fair scheduling (`"anon"` when absent).
    pub client: String,
    /// One resolved spec per grid point, in grid order
    /// (instructions × mixes × seeds, seeds fastest).
    pub specs: Vec<RunSpec>,
}

/// Parses a `POST /jobs` body:
///
/// ```json
/// {"experiment":"fig08_singlecore","client":"agent-1",
///  "seeds":[1,2,3],"instructions":200000,"mixes":[4,8],"quick":true}
/// ```
///
/// `experiment` is required and must be registered; `client` defaults to
/// `anon`; `seeds` (scalar or list) defaults to `[42]`; `instructions` and
/// `mixes` (scalar or list) default to the experiment's registry defaults
/// (scaled by `quick` when set), exactly as the binary CLI resolves them.
///
/// # Errors
///
/// Returns a message suitable for a `400` response.
pub fn parse_job(body: &str) -> Result<JobSpec, String> {
    let doc = json::parse(body.trim()).map_err(|e| format!("invalid JSON body: {e}"))?;
    let experiment = doc
        .get("experiment")
        .and_then(JsonValue::as_str)
        .ok_or("missing required string field 'experiment'")?;
    let def = spec::find(experiment)
        .ok_or_else(|| format!("unknown experiment {experiment:?}; see /experiments"))?;
    let client = doc
        .get("client")
        .and_then(JsonValue::as_str)
        .unwrap_or("anon")
        .to_string();
    let quick = doc
        .get("quick")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let seeds = u64_list(&doc, "seeds")?.unwrap_or_else(|| vec![42]);
    let instructions = u64_list(&doc, "instructions")?;
    let mixes = u64_list(&doc, "mixes")?;
    let instructions: Vec<Option<u64>> = match instructions {
        Some(list) => list.into_iter().map(Some).collect(),
        None => vec![None],
    };
    let mixes: Vec<Option<usize>> = match mixes {
        Some(list) => list.into_iter().map(|m| Some(m as usize)).collect(),
        None => vec![None],
    };
    let mut specs = Vec::new();
    for &i in &instructions {
        for &m in &mixes {
            for &seed in &seeds {
                specs.push(RunSpec::resolve(def, i, seed, m, quick));
            }
        }
    }
    if specs.is_empty() {
        return Err("empty config grid".to_string());
    }
    Ok(JobSpec { client, specs })
}

/// Reads `key` as either a scalar u64 or a list of them.
fn u64_list(doc: &JsonValue, key: &str) -> Result<Option<Vec<u64>>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(value) => {
            if let Some(n) = value.as_u64() {
                return Ok(Some(vec![n]));
            }
            let arr = value
                .as_arr()
                .ok_or_else(|| format!("field '{key}' must be a number or a list of numbers"))?;
            let mut out = Vec::with_capacity(arr.len());
            for item in arr {
                out.push(
                    item.as_u64()
                        .ok_or_else(|| format!("field '{key}' has a non-integer element"))?,
                );
            }
            if out.is_empty() {
                return Err(format!("field '{key}' must not be an empty list"));
            }
            Ok(Some(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_submission_uses_defaults() {
        let job = parse_job("{\"experiment\":\"fig08_singlecore\"}").unwrap();
        assert_eq!(job.client, "anon");
        assert_eq!(job.specs.len(), 1);
        let spec = &job.specs[0];
        assert_eq!(spec.experiment, "fig08_singlecore");
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.instructions, 2_000_000);
        assert!(!spec.quick);
    }

    #[test]
    fn grid_expands_as_a_cross_product() {
        let job = parse_job(
            "{\"experiment\":\"fig13_smt_scurve\",\"client\":\"a\",\
             \"seeds\":[1,2],\"instructions\":[1000,2000],\"mixes\":4,\"quick\":true}",
        )
        .unwrap();
        assert_eq!(job.specs.len(), 4);
        assert!(job.specs.iter().all(|s| s.mixes == 4 && s.quick));
        assert_eq!(job.specs[0].instructions, 1000);
        assert_eq!(job.specs[0].seed, 1);
        assert_eq!(job.specs[1].seed, 2);
        assert_eq!(job.specs[2].instructions, 2000);
        // Every grid point has a distinct digest.
        let mut digests: Vec<String> = job.specs.iter().map(|s| s.digest("c")).collect();
        digests.sort();
        digests.dedup();
        assert_eq!(digests.len(), 4);
    }

    #[test]
    fn quick_applies_registry_preset() {
        let job = parse_job("{\"experiment\":\"fig08_singlecore\",\"quick\":true}").unwrap();
        assert_eq!(job.specs[0].instructions, 200_000);
        assert!(job.specs[0].quick);
    }

    #[test]
    fn bad_submissions_are_rejected() {
        assert!(parse_job("not json").is_err());
        assert!(parse_job("{}").is_err());
        assert!(parse_job("{\"experiment\":\"nope\"}").is_err());
        assert!(parse_job("{\"experiment\":\"fig08_singlecore\",\"seeds\":[]}").is_err());
        assert!(parse_job("{\"experiment\":\"fig08_singlecore\",\"seeds\":\"x\"}").is_err());
    }

    #[test]
    fn job_status_aggregates_arms() {
        let spec = RunSpec::resolve(spec::find("fig08_singlecore").unwrap(), None, 1, None, true);
        let arm = |status, cache_hit| Arm {
            spec: spec.clone(),
            digest: spec.digest("c"),
            status,
            cache_hit,
            wall_ms: 1.0,
            error: None,
            crash: None,
        };
        let mut job = Job {
            id: 3,
            client: "a".to_string(),
            arms: vec![arm(ArmStatus::Done, true), arm(ArmStatus::Queued, false)],
            submitted_unix: 0,
            events: std::sync::Arc::new(mab_monitor::EventRing::default()),
        };
        assert_eq!(job.status(), "running");
        assert_eq!(job.finished(), 1);
        assert_eq!(job.cache_hits(), 1);
        job.arms[1].status = ArmStatus::Done;
        assert_eq!(job.status(), "done");
        let doc = mab_telemetry::json::parse(&job.to_json()).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(doc.get("cache_hits").unwrap().as_u64(), Some(1));
        job.arms[0].status = ArmStatus::Failed;
        assert_eq!(job.status(), "failed");
    }
}
