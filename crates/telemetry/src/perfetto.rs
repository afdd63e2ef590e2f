//! Chrome trace-event (Perfetto) exporter.
//!
//! Renders the recorder's decision trace and retained events as a
//! trace-event JSON document loadable in `ui.perfetto.dev` or
//! `chrome://tracing`:
//!
//! - **pid 1 `bandit`** — one thread per agent. Each decision becomes a
//!   complete ("X") slice named `arm N` lasting until the agent's next
//!   decision, with the full per-arm provenance in `args`; arm switches and
//!   §4.3 restart sweeps are instant ("i") markers; the attributed
//!   normalized reward is a counter ("C") track per agent.
//! - **pid 2 `memsim`** — [`Event::Occupancy`] samples (DRAM backlog, MSHR
//!   fill) as named counter tracks.
//! - **pid 3 `smtsim`** — fetch/thread occupancy tracks (per-thread fetch
//!   share, per-thread IPC) plus fetch-slot grant/gate instants when probe
//!   ring-logging was enabled.
//!
//! Timestamps are trace-event microseconds carrying simulated cycles 1:1 —
//! absolute durations read as "cycles", which is the unit that matters here.

use crate::event::Event;
use crate::json::{escape, fmt_f64, fmt_f64_array};
use crate::trace::SeqDecision;
use crate::Recorder;
use std::io::{self, Write};

const PID_BANDIT: u64 = 1;
const PID_MEMSIM: u64 = 2;
const PID_SMTSIM: u64 = 3;

/// Comma-separating JSON array item writer.
struct Items<'a, W: Write> {
    w: &'a mut W,
    first: bool,
}

impl<'a, W: Write> Items<'a, W> {
    fn new(w: &'a mut W) -> Self {
        Items { w, first: true }
    }

    fn item(&mut self, s: &str) -> io::Result<()> {
        if self.first {
            self.first = false;
            write!(self.w, "\n{s}")
        } else {
            write!(self.w, ",\n{s}")
        }
    }
}

fn meta_process(items: &mut Items<impl Write>, pid: u64, name: &str) -> io::Result<()> {
    items.item(&format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape(name)
    ))
}

fn meta_thread(items: &mut Items<impl Write>, pid: u64, tid: u64, name: &str) -> io::Result<()> {
    items.item(&format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape(name)
    ))
}

/// Occupancy tracks from the SMT pipeline render under the `smtsim`
/// process; everything else is a memory-system resource.
fn occupancy_pid(track: &str) -> u64 {
    if track.starts_with("fetch") || track.starts_with("thread") || track.starts_with("smt") {
        PID_SMTSIM
    } else {
        PID_MEMSIM
    }
}

fn decision_args(d: &SeqDecision) -> String {
    let r = &d.record;
    format!(
        "{{\"epoch\":{},\"phase\":\"{}\",\"explore\":{},\"reward\":{},\
         \"normalized\":{},\"q\":{},\"bound\":{},\"pulls\":{}}}",
        r.epoch,
        escape(r.phase),
        r.explore,
        fmt_f64(r.reward),
        fmt_f64(r.normalized),
        fmt_f64_array(r.arms.iter().map(|a| a.q)),
        fmt_f64_array(r.arms.iter().map(|a| a.bound)),
        fmt_f64_array(r.arms.iter().map(|a| a.pulls)),
    )
}

/// Writes the recorder's decision trace and retained events as a Chrome
/// trace-event JSON document.
pub fn write_trace_json<W: Write>(rec: &Recorder, w: &mut W) -> io::Result<()> {
    write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut items = Items::new(w);

    meta_process(&mut items, PID_BANDIT, "bandit")?;
    meta_process(&mut items, PID_MEMSIM, "memsim")?;
    meta_process(&mut items, PID_SMTSIM, "smtsim")?;

    // Assign one thread per agent, in order of first decision.
    let decisions = rec.trace().decisions();
    let mut agents: Vec<u64> = Vec::new();
    for d in &decisions {
        if !agents.contains(&d.record.agent) {
            agents.push(d.record.agent);
        }
    }
    for (i, agent) in agents.iter().enumerate() {
        meta_thread(
            &mut items,
            PID_BANDIT,
            i as u64 + 1,
            &format!("agent {agent:#x}"),
        )?;
    }
    let tid_of = |agent: u64| agents.iter().position(|&a| a == agent).unwrap() as u64 + 1;

    // Decision slices: each lasts until the same agent's next decision.
    for (i, d) in decisions.iter().enumerate() {
        let r = &d.record;
        let tid = tid_of(r.agent);
        let next_cycle = decisions[i + 1..]
            .iter()
            .find(|n| n.record.agent == r.agent)
            .map(|n| n.record.cycle);
        let dur = next_cycle
            .map(|c| c.saturating_sub(r.cycle))
            .unwrap_or(0)
            .max(1);
        items.item(&format!(
            "{{\"ph\":\"X\",\"pid\":{PID_BANDIT},\"tid\":{tid},\"ts\":{},\"dur\":{dur},\
             \"cat\":\"decision\",\"name\":\"arm {}\",\"args\":{}}}",
            r.cycle,
            r.chosen,
            decision_args(d)
        ))?;
        if r.reward.is_finite() {
            items.item(&format!(
                "{{\"ph\":\"C\",\"pid\":{PID_BANDIT},\"tid\":{tid},\"ts\":{},\
                 \"name\":\"reward (agent {:#x})\",\"args\":{{\"normalized\":{}}}}}",
                r.cycle,
                r.agent,
                fmt_f64(r.normalized)
            ))?;
        }
        let switched = decisions[..i]
            .iter()
            .rev()
            .find(|p| p.record.agent == r.agent)
            .is_some_and(|p| p.record.chosen != r.chosen);
        if switched {
            items.item(&format!(
                "{{\"ph\":\"i\",\"pid\":{PID_BANDIT},\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
                 \"cat\":\"switch\",\"name\":\"switch to arm {}\"}}",
                r.cycle, r.chosen
            ))?;
        }
    }

    // Ring events: occupancy counter tracks, restart-sweep + fetch instants.
    for e in rec.ring().events() {
        match e.event {
            Event::Occupancy {
                track,
                id,
                value,
                cycle,
            } => {
                items.item(&format!(
                    "{{\"ph\":\"C\",\"pid\":{},\"ts\":{cycle},\"name\":\"{}[{id}]\",\
                     \"args\":{{\"value\":{}}}}}",
                    occupancy_pid(track),
                    escape(track),
                    fmt_f64(value)
                ))?;
            }
            Event::EpochReset { agent, step } if agents.contains(&agent) => {
                items.item(&format!(
                    "{{\"ph\":\"i\",\"pid\":{PID_BANDIT},\"tid\":{},\"ts\":{},\"s\":\"t\",\
                     \"cat\":\"reset\",\"name\":\"restart sweep (step {step})\"}}",
                    tid_of(agent),
                    rec.clock()
                ))?;
            }
            Event::FetchSlotGrant { thread, cycle } => {
                items.item(&format!(
                    "{{\"ph\":\"i\",\"pid\":{PID_SMTSIM},\"tid\":{},\"ts\":{cycle},\"s\":\"t\",\
                     \"cat\":\"fetch\",\"name\":\"grant t{thread}\"}}",
                    thread as u64 + 1
                ))?;
            }
            Event::FetchGated { thread, cycle } => {
                items.item(&format!(
                    "{{\"ph\":\"i\",\"pid\":{PID_SMTSIM},\"tid\":{},\"ts\":{cycle},\"s\":\"t\",\
                     \"cat\":\"fetch\",\"name\":\"gate t{thread}\"}}",
                    thread as u64 + 1
                ))?;
            }
            _ => {}
        }
    }

    writeln!(w, "\n]}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ArmProbe, DecisionRecord};
    use crate::{Recorder, RecorderConfig};

    fn decision(agent: u64, epoch: u64, cycle: u64, chosen: usize) -> DecisionRecord {
        DecisionRecord {
            agent,
            epoch,
            cycle,
            chosen,
            explore: false,
            phase: "main",
            arms: vec![
                ArmProbe {
                    q: 0.1,
                    bound: 0.2,
                    pulls: 1.0,
                },
                ArmProbe {
                    q: 0.8,
                    bound: 0.9,
                    pulls: 3.0,
                },
            ],
            reward: 1.0,
            normalized: 0.5,
        }
    }

    fn sample_recorder() -> Recorder {
        let rec = Recorder::new(RecorderConfig::default());
        rec.trace().push(decision(7, 0, 100, 1));
        rec.trace().push(decision(7, 1, 200, 0));
        rec.emit(Event::Occupancy {
            track: "dram_backlog",
            id: 0,
            value: 12.5,
            cycle: 150,
        });
        rec.emit(Event::Occupancy {
            track: "fetch_share",
            id: 1,
            value: 0.25,
            cycle: 150,
        });
        rec
    }

    /// Minimal structural JSON check: balanced braces/brackets outside
    /// string literals, so a malformed document fails loudly.
    fn assert_balanced(text: &str) {
        let (mut depth, mut in_str, mut escaped) = (0i64, false, false);
        for c in text.chars() {
            if in_str {
                match (escaped, c) {
                    (true, _) => escaped = false,
                    (false, '\\') => escaped = true,
                    (false, '"') => in_str = false,
                    _ => {}
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' => depth -= 1,
                    _ => {}
                }
                assert!(depth >= 0, "unbalanced close in {text}");
            }
        }
        assert_eq!(depth, 0, "unbalanced JSON: {text}");
        assert!(!in_str, "unterminated string: {text}");
    }

    #[test]
    fn trace_json_is_structurally_valid() {
        let mut out = Vec::new();
        write_trace_json(&sample_recorder(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert_balanced(&text);
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn decision_slices_span_until_next_decision() {
        let mut out = Vec::new();
        write_trace_json(&sample_recorder(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":100,\"dur\":100"),
            "{text}"
        );
        assert!(text.contains("\"name\":\"arm 1\""), "{text}");
        assert!(text.contains("switch to arm 0"), "{text}");
    }

    #[test]
    fn occupancy_routes_to_the_owning_simulator() {
        let mut out = Vec::new();
        write_trace_json(&sample_recorder(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("\"pid\":2,\"ts\":150,\"name\":\"dram_backlog[0]\""),
            "{text}"
        );
        assert!(
            text.contains("\"pid\":3,\"ts\":150,\"name\":\"fetch_share[1]\""),
            "{text}"
        );
    }

    #[test]
    fn empty_recorder_still_produces_a_loadable_document() {
        let rec = Recorder::new(RecorderConfig::default());
        let mut out = Vec::new();
        write_trace_json(&rec, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_balanced(&text);
        assert!(text.contains("\"traceEvents\":["), "{text}");
    }
}
