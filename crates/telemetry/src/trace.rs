//! Decision-provenance tracing.
//!
//! Aggregate counters answer "how often", but the paper's behavioural claims
//! — convergence to the best arm per program phase (Fig. 7), re-exploration
//! under drift — need "*why* did the agent pick arm 3 at epoch 41k?". Each
//! bandit decision is captured as a [`DecisionRecord`]: the full per-arm
//! state the algorithm saw (Q-values, selection bounds, pull counts), the
//! chosen arm, whether the pick was exploratory, and — once the bandit step
//! finishes — the delayed reward attributed back to the decision.
//!
//! Records live in a [`TraceRing`]: a [`Ring`] behind a short mutex
//! critical section (decisions are per bandit step, orders of magnitude
//! rarer than counter bumps), plus the delayed-reward attribution state.

use crate::json::{escape, fmt_f64, fmt_f64_array};
use crate::ring::Ring;
use std::sync::Mutex;

/// Per-arm agent state captured at decision time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmProbe {
    /// Empirical mean (normalized) reward `r_i` — the rTable entry.
    pub q: f64,
    /// The algorithm's selection potential for this arm: the UCB/DUCB upper
    /// confidence bound, SW-UCB's windowed bound, Thompson's one-sigma
    /// posterior quantile, or plain `q` for greedy selection.
    pub bound: f64,
    /// (Possibly discounted) selection count `n_i` — the nTable entry.
    pub pulls: f64,
}

/// One bandit decision with full provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Agent identity (its RNG seed — unique per agent in practice).
    pub agent: u64,
    /// Bandit step index at selection time (0-based; monotone per agent).
    pub epoch: u64,
    /// Simulated-cycle timestamp from the recorder clock (0 before any
    /// simulator published a cycle).
    pub cycle: u64,
    /// The selected arm index.
    pub chosen: usize,
    /// True when the pick was exploratory: the agent was in a round-robin
    /// sweep, or the algorithm chose an arm other than the current greedy
    /// (highest-`q`) one.
    pub explore: bool,
    /// Agent phase: `round_robin`, `main` or `restart_sweep`.
    pub phase: &'static str,
    /// Per-arm state at selection time, indexed by arm.
    pub arms: Vec<ArmProbe>,
    /// The raw step reward, attributed after the step completes
    /// (`NaN` until then — exported as `null`).
    pub reward: f64,
    /// The reward after normalization by the agent's running normalizer
    /// (`NaN` until attributed).
    pub normalized: f64,
}

/// A sequence-numbered decision as read out of the [`TraceRing`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeqDecision {
    /// Global sequence number (0-based, never reused).
    pub seq: u64,
    /// The decision payload.
    pub record: DecisionRecord,
}

struct TraceInner {
    ring: Ring<DecisionRecord>,
    /// Rewards whose decision was already evicted when attribution arrived.
    unattributed: u64,
}

/// Fixed-capacity, overwrite-oldest decision log with delayed-reward
/// attribution.
pub struct TraceRing(Mutex<TraceInner>);

impl TraceRing {
    /// A ring holding at most `capacity` decisions (minimum 1).
    pub fn new(capacity: usize) -> Self {
        TraceRing(Mutex::new(TraceInner {
            ring: Ring::new(capacity),
            unattributed: 0,
        }))
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, TraceInner> {
        self.0.lock().unwrap()
    }

    /// Appends a decision, evicting the oldest if the ring is full.
    pub fn push(&self, record: DecisionRecord) {
        self.inner().ring.push(record);
    }

    /// Attributes the delayed reward of step `epoch` of `agent` back to its
    /// decision record. Scans newest-first: the target is almost always the
    /// most recent record of that agent. Counts the attribution as lost when
    /// the decision has already been evicted.
    pub fn attribute(&self, agent: u64, epoch: u64, reward: f64, normalized: f64) {
        let mut inner = self.inner();
        for d in inner.ring.iter_mut().rev() {
            if d.agent == agent && d.epoch == epoch {
                d.reward = reward;
                d.normalized = normalized;
                return;
            }
        }
        inner.unattributed += 1;
    }

    /// Number of decisions currently retained.
    pub fn len(&self) -> usize {
        self.inner().ring.len()
    }

    /// True when no decisions are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of decisions lost to wraparound.
    pub fn dropped(&self) -> u64 {
        self.inner().ring.dropped()
    }

    /// Total decisions ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.inner().ring.pushed()
    }

    /// Rewards that arrived after their decision was evicted.
    pub fn unattributed(&self) -> u64 {
        self.inner().unattributed
    }

    /// The retained decisions, oldest first.
    pub fn decisions(&self) -> Vec<SeqDecision> {
        let inner = self.inner();
        inner
            .ring
            .iter_seq()
            .map(|(seq, record)| SeqDecision {
                seq,
                record: record.clone(),
            })
            .collect()
    }
}

/// One decision as a JSON object on a single line
/// (`kind == "decision"`; per-arm state as parallel arrays indexed by arm).
pub fn decision_to_json(d: &SeqDecision) -> String {
    let r = &d.record;
    format!(
        "{{\"kind\":\"decision\",\"seq\":{},\"agent\":{},\"epoch\":{},\"cycle\":{},\
         \"arm\":{},\"explore\":{},\"phase\":\"{}\",\"reward\":{},\"normalized\":{},\
         \"q\":{},\"bound\":{},\"pulls\":{}}}",
        d.seq,
        r.agent,
        r.epoch,
        r.cycle,
        r.chosen,
        r.explore,
        escape(r.phase),
        fmt_f64(r.reward),
        fmt_f64(r.normalized),
        fmt_f64_array(r.arms.iter().map(|a| a.q)),
        fmt_f64_array(r.arms.iter().map(|a| a.bound)),
        fmt_f64_array(r.arms.iter().map(|a| a.pulls)),
    )
}

/// Writes the trace ring as JSON lines: a `trace_meta` accounting line
/// followed by one `decision` line per retained record.
pub fn write_trace_jsonl<W: std::io::Write>(ring: &TraceRing, w: &mut W) -> std::io::Result<()> {
    writeln!(
        w,
        "{{\"kind\":\"trace_meta\",\"decisions_retained\":{},\"decisions_dropped\":{},\
         \"decisions_total\":{},\"rewards_unattributed\":{}}}",
        ring.len(),
        ring.dropped(),
        ring.total_pushed(),
        ring.unattributed()
    )?;
    for d in ring.decisions() {
        writeln!(w, "{}", decision_to_json(&d))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(agent: u64, epoch: u64) -> DecisionRecord {
        DecisionRecord {
            agent,
            epoch,
            cycle: epoch * 100,
            chosen: (epoch % 3) as usize,
            explore: epoch.is_multiple_of(2),
            phase: "main",
            arms: vec![
                ArmProbe {
                    q: 0.5,
                    bound: 0.7,
                    pulls: 2.0,
                },
                ArmProbe {
                    q: 0.9,
                    bound: 1.0,
                    pulls: 5.0,
                },
            ],
            reward: f64::NAN,
            normalized: f64::NAN,
        }
    }

    #[test]
    fn retains_in_order_with_sequence_numbers() {
        let ring = TraceRing::new(8);
        for e in 0..5 {
            ring.push(record(1, e));
        }
        let got = ring.decisions();
        assert_eq!(got.len(), 5);
        for (i, d) in got.iter().enumerate() {
            assert_eq!(d.seq, i as u64);
            assert_eq!(d.record.epoch, i as u64);
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn wraparound_counts_dropped_decisions() {
        let ring = TraceRing::new(3);
        for e in 0..10 {
            ring.push(record(1, e));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 7);
        assert_eq!(ring.total_pushed(), 10);
        let epochs: Vec<u64> = ring.decisions().iter().map(|d| d.record.epoch).collect();
        assert_eq!(epochs, vec![7, 8, 9]);
    }

    #[test]
    fn rewards_attribute_to_the_matching_decision() {
        let ring = TraceRing::new(8);
        ring.push(record(1, 0));
        ring.push(record(2, 0));
        ring.attribute(1, 0, 1.25, 0.625);
        let got = ring.decisions();
        assert_eq!(got[0].record.reward, 1.25);
        assert_eq!(got[0].record.normalized, 0.625);
        assert!(got[1].record.reward.is_nan());
        assert_eq!(ring.unattributed(), 0);
    }

    #[test]
    fn attribution_after_eviction_is_accounted() {
        let ring = TraceRing::new(1);
        ring.push(record(1, 0));
        ring.push(record(1, 1)); // evicts epoch 0
        ring.attribute(1, 0, 1.0, 1.0);
        assert_eq!(ring.unattributed(), 1);
    }

    #[test]
    fn decision_json_shape_is_stable() {
        let mut r = record(7, 3);
        r.reward = 1.5;
        r.normalized = 0.75;
        let line = decision_to_json(&SeqDecision { seq: 4, record: r });
        assert_eq!(
            line,
            "{\"kind\":\"decision\",\"seq\":4,\"agent\":7,\"epoch\":3,\"cycle\":300,\
             \"arm\":0,\"explore\":false,\"phase\":\"main\",\"reward\":1.5,\"normalized\":0.75,\
             \"q\":[0.5,0.9],\"bound\":[0.7,1],\"pulls\":[2,5]}"
        );
    }

    #[test]
    fn unattributed_reward_exports_as_null() {
        let line = decision_to_json(&SeqDecision {
            seq: 0,
            record: record(1, 0),
        });
        assert!(line.contains("\"reward\":null"), "{line}");
        assert!(line.contains("\"normalized\":null"), "{line}");
    }

    #[test]
    fn trace_jsonl_starts_with_meta() {
        let ring = TraceRing::new(4);
        ring.push(record(1, 0));
        let mut out = Vec::new();
        write_trace_jsonl(&ring, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let mut lines = text.lines();
        assert!(lines.next().unwrap().contains("\"kind\":\"trace_meta\""));
        assert!(lines.next().unwrap().contains("\"kind\":\"decision\""));
    }
}
