//! Text rendering for `mab-inspect report` and `mab-inspect diff`.
//!
//! Pure string builders so tests can assert on the output without spawning
//! the binary; the CLI just prints the returned strings.

use std::fmt::Write as _;

use crate::analysis;
use crate::artifact::RunArtifact;
use crate::diff::MetricDelta;

/// Renders the full report for an artifact: ring accounting, counters,
/// histograms, and — when decisions are present — the decision analyses.
/// `windows` controls the occupancy-timeline resolution.
pub fn render_report(run: &RunArtifact, windows: usize) -> String {
    let mut out = String::new();

    if let Some(total) = run.events_total {
        let _ = writeln!(out, "telemetry events: {total} recorded");
    }
    if let Some(dropped) = run.events_dropped.filter(|&d| d > 0) {
        let _ = writeln!(
            out,
            "WARNING: event ring dropped {dropped} of {} events — oldest events are \
             missing from this artifact; raise RecorderConfig::event_capacity to keep them",
            run.events_total.unwrap_or(dropped)
        );
    }
    if let Some(tm) = run.trace_meta {
        let _ = writeln!(
            out,
            "decision trace: {} retained, {} dropped, {} total, {} rewards unattributed",
            tm.retained, tm.dropped, tm.total, tm.unattributed
        );
        if tm.dropped > 0 {
            let _ = writeln!(
                out,
                "WARNING: trace ring dropped {} of {} decisions — the earliest decisions \
                 are missing; raise RecorderConfig::trace_capacity to keep them",
                tm.dropped, tm.total
            );
        }
    }
    if run.skipped_lines > 0 {
        let _ = writeln!(
            out,
            "warning: {} unparsable lines skipped",
            run.skipped_lines
        );
    }

    if !run.counters.is_empty() {
        let _ = writeln!(out, "\ncounters:");
        for (name, value) in &run.counters {
            let _ = writeln!(out, "  {name:<28} {value}");
        }
    }

    if !run.histograms.is_empty() {
        let _ = writeln!(out, "\nhistograms:");
        let _ = writeln!(
            out,
            "  {:<20} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "name", "count", "mean", "p50", "p90", "p99"
        );
        for (name, h) in &run.histograms {
            let _ = writeln!(
                out,
                "  {:<20} {:>10} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
                name, h.count, h.mean, h.p50, h.p90, h.p99
            );
        }
    }

    if !run.event_counts.is_empty() {
        let _ = writeln!(out, "\nevents by kind:");
        for (kind, count) in &run.event_counts {
            let _ = writeln!(out, "  {kind:<28} {count}");
        }
    }

    if !run.decisions.is_empty() {
        render_decisions(&mut out, run, windows);
    }
    out
}

fn render_decisions(out: &mut String, run: &RunArtifact, windows: usize) {
    let ds = &run.decisions;
    let arms = run.arm_count();
    let agents: std::collections::BTreeSet<u64> = ds.iter().map(|d| d.agent).collect();

    let _ = writeln!(
        out,
        "\ndecisions: {} across {} agent(s), {} arms, explore rate {:.1}%",
        ds.len(),
        agents.len(),
        arms,
        100.0 * analysis::explore_rate(ds)
    );

    match analysis::best_arm(ds, arms) {
        None => {
            let _ = writeln!(out, "no attributed rewards — regret analysis unavailable");
        }
        Some(best) => {
            let _ = writeln!(
                out,
                "post-hoc best arm: {} (mean reward {:.4} over {} attributed steps)",
                best.arm, best.mean_reward, best.samples
            );
            let means = analysis::arm_means(ds, arms);
            let _ = writeln!(out, "\nper-arm attributed reward:");
            let _ = writeln!(out, "  {:<5} {:>10} {:>12}", "arm", "steps", "mean");
            for (arm, (mean, n)) in means.iter().enumerate() {
                if *n > 0 {
                    let _ = writeln!(out, "  {arm:<5} {n:>10} {mean:>12.4}");
                }
            }
            let curve = analysis::regret_curve(ds, arms);
            if let Some(last) = curve.last() {
                let _ = writeln!(
                    out,
                    "\nregret vs post-hoc best arm: cumulative {:.4} over {} steps \
                     ({:.4}/step)",
                    last.cumulative,
                    curve.len(),
                    last.cumulative / curve.len() as f64
                );
                for (label, frac) in [("25%", 0.25), ("50%", 0.5), ("75%", 0.75), ("100%", 1.0)] {
                    let idx = ((curve.len() as f64 * frac) as usize).clamp(1, curve.len()) - 1;
                    let p = &curve[idx];
                    let _ = writeln!(
                        out,
                        "  at {label:>4} of run (epoch {:>8}): cumulative {:.4}",
                        p.epoch, p.cumulative
                    );
                }
            }
        }
    }

    let switches = analysis::arm_switches(ds);
    let _ = writeln!(out, "\narm switches: {}", switches.len());
    const SHOWN: usize = 20;
    for s in switches.iter().take(SHOWN) {
        let _ = writeln!(
            out,
            "  cycle {:>12} epoch {:>8} agent {:#x}: arm {} -> {}",
            s.cycle, s.epoch, s.agent, s.from, s.to
        );
    }
    if switches.len() > SHOWN {
        let _ = writeln!(out, "  ... {} more", switches.len() - SHOWN);
    }

    let phases = analysis::phase_occupancy(ds, arms);
    if !phases.is_empty() {
        let _ = writeln!(out, "\narm occupancy by phase:");
        for p in &phases {
            let total: u64 = p.counts.iter().sum();
            let _ = writeln!(
                out,
                "  {:<14} dominant arm {} ({}/{} decisions) counts {:?}",
                p.phase, p.dominant, p.counts[p.dominant], total, p.counts
            );
        }
    }

    let ws = analysis::windowed_occupancy(ds, arms, windows);
    if !ws.is_empty() {
        let _ = writeln!(out, "\ndominant arm timeline ({windows} windows):");
        for w in &ws {
            if w.total == 0 {
                let _ = writeln!(
                    out,
                    "  [{:>12} .. {:>12}) no decisions",
                    w.start_cycle, w.end_cycle
                );
            } else {
                let _ = writeln!(
                    out,
                    "  [{:>12} .. {:>12}) arm {:<3} ({:>5.1}% of {} decisions)",
                    w.start_cycle,
                    w.end_cycle,
                    w.dominant,
                    100.0 * w.counts[w.dominant] as f64 / w.total as f64,
                    w.total
                );
            }
        }
    }
}

/// Renders the profile self-time table for `mab-inspect profile`.
///
/// Rows come from the artifact's span paths sorted by self time; percent is
/// relative to the summed self time of every path (which equals the
/// extrapolated total of the root spans). When `sim_cycles` is known — from
/// a loaded telemetry export's `sim_cycles` counter or a `--cycles`
/// override — each row also shows the per-simulated-cycle cost.
pub fn render_profile(run: &RunArtifact, top: usize, cycles: Option<u64>) -> String {
    let mut out = String::new();
    if run.spans.is_empty() {
        let _ = writeln!(
            out,
            "no span data — run an experiment with --profile PATH (and the `telemetry` \
             cargo feature) to produce some"
        );
        return out;
    }
    let total_self: u64 = run.spans.values().map(|s| s.self_ns).sum();
    let cycles = cycles.or_else(|| run.counters.get("sim_cycles").copied());
    let mut rows: Vec<(&String, &crate::artifact::SpanLine)> = run.spans.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then_with(|| a.0.cmp(b.0)));

    let _ = writeln!(
        out,
        "profile: {} paths, {:.3} ms total self time{}",
        rows.len(),
        total_self as f64 / 1e6,
        match cycles {
            Some(c) => format!(", {c} simulated cycles"),
            None => ", simulated-cycle cost unavailable (no sim_cycles counter; pass --cycles N)"
                .to_string(),
        }
    );
    let _ = writeln!(
        out,
        "  {:<44} {:>12} {:>12} {:>7} {:>12}",
        "path (leaf frame)", "count", "self ms", "self %", "ns/cycle"
    );
    for (path, span) in rows.iter().take(top) {
        let pct = if total_self == 0 {
            0.0
        } else {
            100.0 * span.self_ns as f64 / total_self as f64
        };
        let per_cycle = cycles
            .filter(|&c| c > 0)
            .map(|c| format!("{:>12.4}", span.self_ns as f64 / c as f64))
            .unwrap_or_else(|| format!("{:>12}", "-"));
        let _ = writeln!(
            out,
            "  {:<44} {:>12} {:>12.3} {:>6.1}% {per_cycle}",
            ellipsize(path, 44),
            span.count,
            span.self_ns as f64 / 1e6,
            pct
        );
    }
    if rows.len() > top {
        let _ = writeln!(out, "  ... {} more paths (raise --top)", rows.len() - top);
    }
    out
}

/// Renders the profile as a JSON document for `mab-inspect profile --json`:
/// the same rows as [`render_profile`] (top-N by self time) plus the run
/// totals, machine-readable for dashboards and CI gates.
pub fn profile_json(run: &RunArtifact, top: usize, cycles: Option<u64>) -> String {
    use mab_telemetry::json::{escape, fmt_f64};
    let total_self: u64 = run.spans.values().map(|s| s.self_ns).sum();
    let cycles = cycles.or_else(|| run.counters.get("sim_cycles").copied());
    let mut rows: Vec<(&String, &crate::artifact::SpanLine)> = run.spans.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then_with(|| a.0.cmp(b.0)));

    let mut out = format!(
        "{{\"paths_total\":{},\"total_self_ns\":{total_self},\"sim_cycles\":{},\"paths\":[",
        rows.len(),
        cycles.map_or("null".to_string(), |c| c.to_string()),
    );
    for (i, (path, span)) in rows.iter().take(top).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let pct = if total_self == 0 {
            0.0
        } else {
            100.0 * span.self_ns as f64 / total_self as f64
        };
        out.push_str(&format!(
            "{{\"path\":\"{}\",\"count\":{},\"self_ns\":{},\"self_pct\":{}",
            escape(path),
            span.count,
            span.self_ns,
            fmt_f64(pct),
        ));
        if let Some(c) = cycles.filter(|&c| c > 0) {
            out.push_str(&format!(
                ",\"ns_per_cycle\":{}",
                fmt_f64(span.self_ns as f64 / c as f64)
            ));
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Shortens a span path to `width` characters, keeping the leaf frames —
/// the informative end of a collapsed stack.
fn ellipsize(path: &str, width: usize) -> String {
    if path.len() <= width {
        path.to_string()
    } else {
        let tail: String = path.chars().rev().take(width - 2).collect();
        format!("..{}", tail.chars().rev().collect::<String>())
    }
}

/// Renders the diff table; flagged rows carry a `REGRESSION` marker.
pub fn render_diff(deltas: &[MetricDelta], threshold: f64) -> String {
    let mut out = String::new();
    if deltas.is_empty() {
        let _ = writeln!(out, "no shared metrics to compare");
        return out;
    }
    let _ = writeln!(
        out,
        "{:<32} {:>14} {:>14} {:>10}  (threshold {:.2}%)",
        "metric",
        "baseline",
        "candidate",
        "delta",
        threshold * 100.0
    );
    for d in deltas {
        let _ = writeln!(
            out,
            "{:<32} {:>14.6} {:>14.6} {:>9.2}%  {}",
            d.metric,
            d.baseline,
            d.candidate,
            d.rel_delta * 100.0,
            if d.flagged { "REGRESSION" } else { "ok" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff_artifacts;

    fn sample_run() -> RunArtifact {
        let mut a = RunArtifact::new();
        a.absorb_line("{\"kind\":\"counter\",\"stat\":\"arm_pulls\",\"value\":6}");
        a.absorb_line(
            "{\"kind\":\"histogram\",\"hist\":\"reward\",\"count\":6,\"mean\":1.2,\
             \"p50\":1.1,\"p90\":1.9,\"p99\":2.0}",
        );
        a.absorb_line(
            "{\"kind\":\"trace_meta\",\"decisions_retained\":3,\"decisions_dropped\":0,\
             \"decisions_total\":3,\"rewards_unattributed\":0}",
        );
        for (epoch, arm, reward) in [(0u64, 0usize, 0.5), (1, 1, 2.0), (2, 1, 2.0)] {
            a.absorb_line(&format!(
                "{{\"kind\":\"decision\",\"seq\":{epoch},\"agent\":1,\"epoch\":{epoch},\
                 \"cycle\":{},\"arm\":{arm},\"explore\":false,\"phase\":\"main\",\
                 \"reward\":{reward},\"normalized\":{reward},\"q\":[0,0],\"bound\":[0,0],\
                 \"pulls\":[0,0]}}",
                epoch * 1000
            ));
        }
        a
    }

    #[test]
    fn report_names_the_dominant_arm_and_regret() {
        let text = render_report(&sample_run(), 4);
        assert!(text.contains("post-hoc best arm: 1"));
        assert!(text.contains("arm switches: 1"));
        assert!(text.contains("regret vs post-hoc best arm"));
        assert!(text.contains("dominant arm timeline"));
        assert!(text.contains("decision trace: 3 retained"));
    }

    #[test]
    fn report_warns_about_ring_drops() {
        let mut a = sample_run();
        a.absorb_line(
            "{\"kind\":\"meta\",\"events_retained\":4,\"events_dropped\":6,\"events_total\":10}",
        );
        a.absorb_line(
            "{\"kind\":\"trace_meta\",\"decisions_retained\":3,\"decisions_dropped\":2,\
             \"decisions_total\":5,\"rewards_unattributed\":0}",
        );
        let text = render_report(&a, 4);
        assert!(
            text.contains("WARNING: event ring dropped 6 of 10"),
            "{text}"
        );
        assert!(
            text.contains("WARNING: trace ring dropped 2 of 5"),
            "{text}"
        );
    }

    #[test]
    fn report_is_warning_free_without_drops() {
        let text = render_report(&sample_run(), 4);
        assert!(!text.contains("WARNING"), "{text}");
    }

    #[test]
    fn profile_table_ranks_by_self_time() {
        let mut a = RunArtifact::new();
        a.absorb_line("run 1000");
        a.absorb_line("run;cache_access 3000");
        a.absorb_line("run;cache_access;mshr 1000");
        a.absorb_line("{\"kind\":\"counter\",\"stat\":\"sim_cycles\",\"value\":500}");
        let text = render_profile(&a, 2, None);
        assert!(text.contains("500 simulated cycles"), "{text}");
        // cache_access leads with 60% of the 5000 ns total; only 2 rows shown.
        let cache_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("run;cache_access "))
            .unwrap();
        assert!(cache_line.contains("60.0%"), "{cache_line}");
        // 3000 ns over 500 cycles = 6 ns/cycle.
        assert!(cache_line.contains("6.0000"), "{cache_line}");
        assert!(text.contains("1 more paths"), "{text}");
    }

    #[test]
    fn profile_without_spans_says_so() {
        let text = render_profile(&RunArtifact::new(), 20, None);
        assert!(text.contains("no span data"), "{text}");
    }

    #[test]
    fn profile_json_parses_and_matches_the_table() {
        let mut a = RunArtifact::new();
        a.absorb_line("run 1000");
        a.absorb_line("run;cache_access 3000");
        a.absorb_line("run;cache_access;mshr 1000");
        a.absorb_line("{\"kind\":\"counter\",\"stat\":\"sim_cycles\",\"value\":500}");
        let doc = mab_telemetry::json::parse(profile_json(&a, 2, None).trim()).unwrap();
        assert_eq!(doc.get("paths_total").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("total_self_ns").unwrap().as_u64(), Some(5000));
        assert_eq!(doc.get("sim_cycles").unwrap().as_u64(), Some(500));
        let paths = doc.get("paths").unwrap().as_arr().unwrap();
        // --top 2 keeps the two largest rows, ranked by self time.
        assert_eq!(paths.len(), 2);
        assert_eq!(
            paths[0].get("path").unwrap().as_str(),
            Some("run;cache_access")
        );
        assert_eq!(paths[0].get("self_pct").unwrap().as_f64(), Some(60.0));
        assert_eq!(paths[0].get("ns_per_cycle").unwrap().as_f64(), Some(6.0));

        // Without a cycle denominator the per-cycle field is omitted.
        let no_cycles = {
            let mut b = RunArtifact::new();
            b.absorb_line("run 1000");
            profile_json(&b, 20, None)
        };
        assert!(!no_cycles.contains("ns_per_cycle"), "{no_cycles}");
        assert!(no_cycles.contains("\"sim_cycles\":null"), "{no_cycles}");
    }

    #[test]
    fn diff_render_marks_regressions() {
        let base = sample_run();
        let mut cand = sample_run();
        cand.histograms.get_mut("reward").unwrap().mean = 0.9;
        let deltas = diff_artifacts(&base, &cand, 0.02);
        let text = render_diff(&deltas, 0.02);
        assert!(text.contains("REGRESSION"));
        assert!(text.contains("hist:reward:mean"));
    }
}
