//! JSON-lines and CSV exporters.
//!
//! serde is stubbed in this offline workspace, so serialization is
//! hand-rolled: each event is flattened into `(key, value)` fields shared by
//! both formats, and string values pass through explicit escaping.

use crate::counters::Stat;
use crate::event::Event;
use crate::hist::Hist;
use crate::json::{escape, fmt_f64};
use crate::ring::SeqEvent;
use crate::Recorder;
use std::io::{self, Write};

/// A flattened field value.
#[derive(Debug, Clone, Copy)]
pub enum Field {
    /// Unsigned integer.
    U64(u64),
    /// Floating point; non-finite values export as `null` / empty.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Static string.
    Str(&'static str),
}

/// Flattens an event into `(key, value)` pairs, in a stable order.
pub fn event_fields(event: &Event) -> Vec<(&'static str, Field)> {
    match *event {
        Event::ArmPulled {
            agent,
            step,
            arm,
            phase,
        } => vec![
            ("agent", Field::U64(agent)),
            ("step", Field::U64(step)),
            ("arm", Field::U64(arm as u64)),
            ("phase", Field::Str(phase)),
        ],
        Event::RewardObserved {
            agent,
            step,
            arm,
            reward,
            normalized,
        } => vec![
            ("agent", Field::U64(agent)),
            ("step", Field::U64(step)),
            ("arm", Field::U64(arm as u64)),
            ("reward", Field::F64(reward)),
            ("normalized", Field::F64(normalized)),
        ],
        Event::EpochReset { agent, step } => {
            vec![("agent", Field::U64(agent)), ("step", Field::U64(step))]
        }
        Event::QSnapshot {
            agent,
            step,
            best_arm,
            best_q,
            n_total,
        } => vec![
            ("agent", Field::U64(agent)),
            ("step", Field::U64(step)),
            ("best_arm", Field::U64(best_arm as u64)),
            ("best_q", Field::F64(best_q)),
            ("n_total", Field::F64(n_total)),
        ],
        Event::CacheAccess {
            level,
            core,
            line,
            hit,
            cycle,
        } => vec![
            ("level", Field::Str(level.name())),
            ("core", Field::U64(core as u64)),
            ("line", Field::U64(line)),
            ("hit", Field::Bool(hit)),
            ("cycle", Field::U64(cycle)),
        ],
        Event::CacheFill {
            level,
            core,
            line,
            prefetch,
        } => vec![
            ("level", Field::Str(level.name())),
            ("core", Field::U64(core as u64)),
            ("line", Field::U64(line)),
            ("prefetch", Field::Bool(prefetch)),
        ],
        Event::PrefetchIssued { core, line, cycle } => vec![
            ("core", Field::U64(core as u64)),
            ("line", Field::U64(line)),
            ("cycle", Field::U64(cycle)),
        ],
        Event::FetchSlotGrant { thread, cycle } => vec![
            ("thread", Field::U64(thread as u64)),
            ("cycle", Field::U64(cycle)),
        ],
        Event::FetchGated { thread, cycle } => vec![
            ("thread", Field::U64(thread as u64)),
            ("cycle", Field::U64(cycle)),
        ],
        Event::Occupancy {
            track,
            id,
            value,
            cycle,
        } => vec![
            ("track", Field::Str(track)),
            ("id", Field::U64(id as u64)),
            ("value", Field::F64(value)),
            ("cycle", Field::U64(cycle)),
        ],
    }
}

/// Escapes a field for CSV: quotes it when it contains a comma, quote or
/// newline, doubling embedded quotes.
pub fn escape_csv(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn json_value(f: Field) -> String {
    match f {
        Field::U64(v) => v.to_string(),
        Field::F64(v) => fmt_f64(v),
        Field::Bool(v) => v.to_string(),
        Field::Str(s) => format!("\"{}\"", escape(s)),
    }
}

fn csv_value(f: Field) -> String {
    match f {
        Field::U64(v) => v.to_string(),
        Field::F64(v) if v.is_finite() => format!("{v}"),
        Field::F64(_) => String::new(),
        Field::Bool(v) => v.to_string(),
        Field::Str(s) => escape_csv(s),
    }
}

/// One event as a JSON object on a single line.
pub fn event_to_json(e: &SeqEvent) -> String {
    let mut line = format!(
        "{{\"seq\":{},\"kind\":\"{}\"",
        e.seq,
        escape(e.event.kind())
    );
    for (key, value) in event_fields(&e.event) {
        line.push_str(&format!(",\"{}\":{}", escape(key), json_value(value)));
    }
    line.push('}');
    line
}

/// Every CSV column, in output order. Events leave inapplicable columns
/// empty, so heterogeneous kinds share one table.
pub const CSV_COLUMNS: [&str; 21] = [
    "seq",
    "kind",
    "agent",
    "step",
    "arm",
    "phase",
    "reward",
    "normalized",
    "best_arm",
    "best_q",
    "n_total",
    "level",
    "core",
    "thread",
    "line",
    "hit",
    "prefetch",
    "track",
    "id",
    "value",
    "cycle",
];

/// One event as a CSV row following [`CSV_COLUMNS`].
pub fn event_to_csv(e: &SeqEvent) -> String {
    let fields = event_fields(&e.event);
    let mut row = Vec::with_capacity(CSV_COLUMNS.len());
    for &col in &CSV_COLUMNS {
        match col {
            "seq" => row.push(e.seq.to_string()),
            "kind" => row.push(escape_csv(e.event.kind())),
            _ => row.push(
                fields
                    .iter()
                    .find(|(k, _)| *k == col)
                    .map(|&(_, v)| csv_value(v))
                    .unwrap_or_default(),
            ),
        }
    }
    row.join(",")
}

/// Writes the full recorder state as JSON lines: a meta line, one line per
/// non-zero counter, one per non-empty histogram, then every retained event.
pub fn write_jsonl<W: Write>(rec: &Recorder, w: &mut W) -> io::Result<()> {
    let ring = rec.ring();
    writeln!(
        w,
        "{{\"kind\":\"meta\",\"events_retained\":{},\"events_dropped\":{},\"events_total\":{}}}",
        ring.len(),
        ring.dropped(),
        ring.total_pushed()
    )?;
    for stat in Stat::ALL {
        let value = rec.counters().sum(stat);
        if value != 0 {
            writeln!(
                w,
                "{{\"kind\":\"counter\",\"stat\":\"{}\",\"value\":{}}}",
                escape(stat.name()),
                value
            )?;
        }
    }
    for h in Hist::ALL {
        let hist = rec.hist(h);
        if hist.count() != 0 {
            let buckets = hist
                .bucket_counts()
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",");
            writeln!(
                w,
                "{{\"kind\":\"histogram\",\"hist\":\"{}\",\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]}}",
                escape(h.name()),
                hist.count(),
                fmt_f64(rec.hist_display(h, hist.mean())),
                fmt_f64(rec.hist_display(h, hist.percentile(0.5) as f64)),
                fmt_f64(rec.hist_display(h, hist.percentile(0.9) as f64)),
                fmt_f64(rec.hist_display(h, hist.percentile(0.99) as f64)),
                buckets,
            )?;
        }
    }
    let prof = crate::profile::snapshot();
    let self_ns = prof.self_ns();
    for (path, totals) in &prof.spans {
        writeln!(
            w,
            "{{\"kind\":\"span\",\"path\":\"{}\",\"count\":{},\"timed\":{},\"total_ns\":{},\"est_ns\":{},\"self_ns\":{}}}",
            escape(path),
            totals.count,
            totals.timed,
            totals.total_ns,
            totals.estimated_ns(),
            self_ns.get(path).copied().unwrap_or(0),
        )?;
    }
    for e in ring.events() {
        writeln!(w, "{}", event_to_json(&e))?;
    }
    Ok(())
}

/// Writes the retained events as a CSV table ([`CSV_COLUMNS`] header first).
pub fn write_csv<W: Write>(rec: &Recorder, w: &mut W) -> io::Result<()> {
    writeln!(w, "{}", CSV_COLUMNS.join(","))?;
    for e in rec.ring().events() {
        writeln!(w, "{}", event_to_csv(&e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CacheLevel;

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn csv_escaping_quotes_when_needed() {
        assert_eq!(escape_csv("plain"), "plain");
        assert_eq!(escape_csv("a,b"), "\"a,b\"");
        assert_eq!(escape_csv("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(escape_csv("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn arm_pulled_round_trips_to_json() {
        let e = SeqEvent {
            seq: 7,
            event: Event::ArmPulled {
                agent: 3,
                step: 12,
                arm: 4,
                phase: "main",
            },
        };
        assert_eq!(
            event_to_json(&e),
            "{\"seq\":7,\"kind\":\"arm_pulled\",\"agent\":3,\"step\":12,\"arm\":4,\"phase\":\"main\"}"
        );
    }

    #[test]
    fn csv_rows_match_header_width() {
        let events = [
            Event::ArmPulled {
                agent: 1,
                step: 0,
                arm: 2,
                phase: "round_robin",
            },
            Event::RewardObserved {
                agent: 1,
                step: 1,
                arm: 2,
                reward: 1.25,
                normalized: 0.9,
            },
            Event::CacheAccess {
                level: CacheLevel::L2,
                core: 0,
                line: 42,
                hit: true,
                cycle: 99,
            },
            Event::Occupancy {
                track: "dram_backlog",
                id: 0,
                value: 3.5,
                cycle: 120,
            },
        ];
        for (seq, event) in events.into_iter().enumerate() {
            let row = event_to_csv(&SeqEvent {
                seq: seq as u64,
                event,
            });
            assert_eq!(row.split(',').count(), CSV_COLUMNS.len(), "{row}");
        }
    }

    #[test]
    fn non_finite_floats_export_as_null() {
        let e = SeqEvent {
            seq: 0,
            event: Event::RewardObserved {
                agent: 0,
                step: 0,
                arm: 0,
                reward: f64::NAN,
                normalized: f64::INFINITY,
            },
        };
        let json = event_to_json(&e);
        assert!(json.contains("\"reward\":null"), "{json}");
        assert!(json.contains("\"normalized\":null"), "{json}");
    }
}
