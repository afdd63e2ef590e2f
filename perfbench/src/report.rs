//! Metrics from measured passes: the end-to-end set, the per-layer set and
//! the layer table.

use crate::digest::References;
use crate::probe::timed_since;
use crate::workload::{ArmKind, Ctl, Pass, Plan, Workload, FOURCORE_LINEUP, LINEUP};
use mab_core::BanditAgent;
use std::collections::{BTreeMap, HashMap};
use std::thread::ThreadId;
use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// The median of `values`; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The nearest-rank `q` quantile of `values`; 0 for none.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Checks every arm of a pass against the stored references. Returns one
/// flag per arm: false when the arm panicked, has no reference, or its
/// digest differs.
pub fn verify(plan: &Plan, refs: &References, pass: &Pass) -> Vec<bool> {
    plan.arms
        .iter()
        .zip(&pass.arms)
        .map(|(arm, record)| {
            let seed = plan.seeds[arm.group];
            match (record.out, refs.get(plan.workload.name(), &arm.label, seed)) {
                (Some(out), Some(want)) => out.digest == want,
                _ => false,
            }
        })
        .collect()
}

/// What the trace write path cost during set-up.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Recording {
    /// Records written.
    pub records: u64,
    /// File bytes written.
    pub bytes: u64,
    /// Seconds spent recording (median over set-ups).
    pub seconds: f64,
}

/// Inputs to the end-to-end metrics that come from outside the passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunFacts {
    /// Median set-up time, in seconds.
    pub setup_s: f64,
    /// Peak resident memory, in MB.
    pub peak_rss_mb: f64,
    /// Arms attempted over all passes.
    pub attempted: u64,
    /// Arms failed over all passes.
    pub failed: u64,
}

fn instr_per_s(pass: &Pass) -> f64 {
    let instr: u64 = pass
        .arms
        .iter()
        .filter_map(|a| a.out)
        .map(|o| o.instr)
        .sum();
    ratio(instr as f64, pass.wall_ns as f64 * 1e-9)
}

/// The end-to-end metrics, from the untraced passes.
pub fn end_to_end(plan: &Plan, passes: &[&Pass], facts: RunFacts) -> Vec<Metric> {
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>());
    let arm_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.arms)
        .filter(|a| a.out.is_some())
        .map(|a| (a.end_ns - a.start_ns) as f64 * 1e-6)
        .collect();
    let cycles_per_s = |p: &Pass| {
        let cycles: u64 = p.arms.iter().filter_map(|a| a.out).map(|o| o.cycles).sum();
        ratio(cycles as f64, p.wall_ns as f64 * 1e-9)
    };
    vec![
        metric("sim_instr_per_s", "instr/s", per_pass(&instr_per_s)),
        metric("sim_cycles_per_s", "cycles/s", per_pass(&cycles_per_s)),
        metric("wall_s", "s", per_pass(&|p| p.wall_ns as f64 * 1e-9)),
        metric("cpu_s", "s", per_pass(&|p| p.cpu_ns as f64 * 1e-9)),
        metric("arm_ms_p50", "ms", percentile(&arm_ms, 0.5)),
        metric("arm_ms_p95", "ms", percentile(&arm_ms, 0.95)),
        metric("setup_s", "s", facts.setup_s),
        metric("peak_rss_mb", "MB", facts.peak_rss_mb),
        metric(
            "ok_frac",
            "ratio",
            1.0 - ratio(facts.failed as f64, facts.attempted as f64),
        ),
        metric(
            "bandit_speedup_gmean",
            "ratio",
            passes.first().map_or(0.0, |p| plan.bandit_speedup(&p.arms)),
        ),
    ]
}

/// Sums over the traced passes, per pass.
#[derive(Debug, Default)]
struct Totals {
    arm_ns: f64,
    run_ns: f64,
    open_ns: f64,
    mem_runs: f64,
    mem_instr: f64,
    mem_self_ns: f64,
    llc_misses: f64,
    dram_transfers: f64,
    dram_queue_cycles: f64,
    /// Per prefetcher: `[calls, est_ns, issued, timely]`.
    pf: BTreeMap<&'static str, [f64; 4]>,
    smt_runs: f64,
    smt_commits: f64,
    smt_self_ns: f64,
    rename_stalled: f64,
    rename_cycles: f64,
    ctl_epochs: f64,
    ctl_ns: f64,
    bandit_epochs: f64,
    bandit_ns: f64,
    bandit_steps: f64,
    gen_records: f64,
    gen_ns: f64,
    replay_records: f64,
    replay_ns: f64,
}

impl Totals {
    fn of(plan: &Plan, passes: &[&Pass]) -> Totals {
        let mut t = Totals::default();
        for pass in passes {
            for (arm, record) in plan.arms.iter().zip(&pass.arms) {
                let Some(out) = record.out else { continue };
                let Some(l) = out.layers else { continue };
                t.arm_ns += (record.end_ns - record.start_ns) as f64;
                t.run_ns += l.run_ns as f64;
                t.open_ns += l.open_ns as f64;
                t.bandit_steps += (l.pf.bandit_steps + l.ctl_bandit_steps) as f64;
                let m = out.model;
                match arm.kind {
                    ArmKind::Mem(pf) | ArmKind::Four(pf) => {
                        let pf_ns = l.pf.est_ns();
                        t.mem_runs += 1.0;
                        t.mem_instr += out.instr as f64;
                        t.mem_self_ns += (l.run_ns as f64 - pf_ns - l.input.ns as f64).max(0.0);
                        t.llc_misses += m.llc_misses as f64;
                        t.dram_transfers += m.dram_transfers as f64;
                        t.dram_queue_cycles += m.dram_queue_cycles;
                        if pf != "none" {
                            let e = t.pf.entry(pf).or_default();
                            e[0] += l.pf.calls as f64;
                            e[1] += pf_ns;
                            e[2] += m.pf_issued as f64;
                            e[3] += m.pf_timely as f64;
                        }
                        if matches!(arm.kind, ArmKind::Four(_)) {
                            t.replay_records += l.input.records as f64;
                            t.replay_ns += (l.input.ns + l.open_ns) as f64;
                        } else {
                            t.gen_records += l.input.records as f64;
                            t.gen_ns += l.input.ns as f64;
                        }
                    }
                    ArmKind::Smt(ctl) => {
                        t.smt_runs += 1.0;
                        t.smt_commits += out.instr as f64;
                        t.smt_self_ns +=
                            (l.run_ns as f64 - l.ctl_ns as f64 - l.input.ns as f64).max(0.0);
                        t.rename_stalled += m.rename_stalled as f64;
                        t.rename_cycles += m.rename_cycles as f64;
                        t.ctl_epochs += l.ctl_epochs as f64;
                        t.ctl_ns += l.ctl_ns as f64;
                        if matches!(ctl, Ctl::Bandit(_)) {
                            t.bandit_epochs += l.ctl_epochs as f64;
                            t.bandit_ns += l.ctl_ns as f64;
                        }
                        t.gen_records += l.input.records as f64;
                        t.gen_ns += l.input.ns as f64;
                    }
                }
            }
        }
        // Report counts and times per pass, so they do not depend on how
        // many passes fit in the run.
        let n = passes.len().max(1) as f64;
        for v in [
            &mut t.arm_ns,
            &mut t.run_ns,
            &mut t.open_ns,
            &mut t.mem_runs,
            &mut t.mem_instr,
            &mut t.mem_self_ns,
            &mut t.llc_misses,
            &mut t.dram_transfers,
            &mut t.dram_queue_cycles,
            &mut t.smt_runs,
            &mut t.smt_commits,
            &mut t.smt_self_ns,
            &mut t.rename_stalled,
            &mut t.rename_cycles,
            &mut t.ctl_epochs,
            &mut t.ctl_ns,
            &mut t.bandit_epochs,
            &mut t.bandit_ns,
            &mut t.bandit_steps,
            &mut t.gen_records,
            &mut t.gen_ns,
            &mut t.replay_records,
            &mut t.replay_ns,
        ] {
            *v /= n;
        }
        for e in t.pf.values_mut() {
            for v in e.iter_mut() {
                *v /= n;
            }
        }
        t
    }
}

/// Runner cost, per pass.
#[derive(Debug, Default)]
struct Runner {
    arms: f64,
    sweeps: f64,
    /// Time workers spent inside arms.
    busy_ns: f64,
    /// Workers × sweep wall time.
    capacity_ns: f64,
    /// Per sweep, from its first idle worker to its return.
    tail_ns: f64,
    /// Idle worker time between a sweep's call and each worker's last arm.
    gap_ns: f64,
}

impl Runner {
    fn of(passes: &[&Pass]) -> Runner {
        let mut r = Runner::default();
        for pass in passes {
            for sweep in &pass.sweeps {
                let arms = &pass.arms[sweep.arms.clone()];
                let busy: u64 = arms.iter().map(|a| a.end_ns - a.start_ns).sum();
                let mut last_end: HashMap<Option<ThreadId>, u64> = HashMap::new();
                for a in arms {
                    let e = last_end.entry(a.worker).or_insert(0);
                    *e = (*e).max(a.end_ns);
                }
                let first_idle = last_end.values().copied().min().unwrap_or(sweep.end_ns);
                let tail_idle: u64 = last_end
                    .values()
                    .map(|&end| sweep.end_ns.saturating_sub(end))
                    .sum();
                let capacity = sweep.workers as u64 * (sweep.end_ns - sweep.start_ns);
                r.arms += arms.len() as f64;
                r.sweeps += 1.0;
                r.busy_ns += busy as f64;
                r.capacity_ns += capacity as f64;
                r.tail_ns += sweep.end_ns.saturating_sub(first_idle) as f64;
                r.gap_ns += capacity.saturating_sub(busy + tail_idle) as f64;
            }
        }
        let n = passes.len().max(1) as f64;
        for v in [
            &mut r.arms,
            &mut r.sweeps,
            &mut r.busy_ns,
            &mut r.capacity_ns,
            &mut r.tail_ns,
            &mut r.gap_ns,
        ] {
            *v /= n;
        }
        r
    }
}

/// Mean host cost of one `select_arm` and one `observe_reward` call, in ns,
/// timed directly on an agent configured as the workload's Bandit is.
pub fn agent_cost(workload: Workload, seed: u64, steps: u64) -> (f64, f64) {
    let config = match workload {
        Workload::PrefetchSweep => mab_prefetch::BanditL2::paper_default(seed)
            .agent()
            .config()
            .clone(),
        Workload::FourcoreReplay => mab_prefetch::BanditL2::paper_multicore(seed)
            .agent()
            .config()
            .clone(),
        Workload::SmtSweep => {
            let ducb = crate::workload::SMT_BANDITS[2].1;
            mab_experiments::smt_runs::scaled_bandit(ducb, seed)
                .agent()
                .config()
                .clone()
        }
    };
    let mut agent = BanditAgent::new(config);
    let (mut select_ns, mut update_ns) = (0u64, 0u64);
    let mut noise = seed | 1;
    for _ in 0..steps {
        let start = Instant::now();
        let arm = std::hint::black_box(agent.select_arm());
        select_ns += timed_since(start);
        noise ^= noise << 13;
        noise ^= noise >> 7;
        noise ^= noise << 17;
        let reward = 1.0 + 0.02 * arm.index() as f64 + (noise % 1000) as f64 * 1e-4;
        let start = Instant::now();
        agent.observe_reward(std::hint::black_box(reward));
        update_ns += timed_since(start);
    }
    let n = steps.max(1) as f64;
    (select_ns as f64 / n, update_ns as f64 / n)
}

/// A row of the layer table: a layer's host time per pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Layer name.
    pub layer: String,
    /// Nanoseconds per pass.
    pub ns: f64,
    /// Share of worker time (workers × sweep wall time).
    pub share: f64,
}

/// The per-layer metrics and the layer table, from the traced passes.
/// `untraced` gives the tracing overhead.
pub fn per_layer(
    plan: &Plan,
    traced: &[&Pass],
    untraced: &[&Pass],
    recording: Recording,
    agent: (f64, f64),
) -> (Vec<Metric>, Vec<LayerRow>) {
    let t = Totals::of(plan, traced);
    let runner = Runner::of(traced);
    // Shares are of worker time, so that the layer table adds up to 100%.
    let worker_ns = runner.capacity_ns;
    let mut m = vec![
        metric("memsim.runs", "count", t.mem_runs),
        metric("memsim.instr", "count", t.mem_instr),
        metric(
            "memsim.self_ns_per_instr",
            "ns",
            ratio(t.mem_self_ns, t.mem_instr),
        ),
        metric("memsim.self_frac", "ratio", ratio(t.mem_self_ns, worker_ns)),
        metric(
            "memsim.llc_mpki",
            "miss/kinstr",
            ratio(t.llc_misses * 1e3, t.mem_instr),
        ),
        metric("memsim.dram_transfers", "count", t.dram_transfers),
        metric(
            "memsim.dram_queue_cycles_avg",
            "cycles",
            ratio(t.dram_queue_cycles, t.dram_transfers),
        ),
    ];
    let prefetchers = LINEUP
        .iter()
        .chain(&FOURCORE_LINEUP[5..])
        .filter(|&&p| p != "none");
    for &pf in prefetchers {
        let [calls, ns, issued, timely] = t.pf.get(pf).copied().unwrap_or_default();
        m.push(metric(format!("prefetch.{pf}.train_calls"), "count", calls));
        m.push(metric(
            format!("prefetch.{pf}.train_ns"),
            "ns",
            ratio(ns, calls),
        ));
        m.push(metric(
            format!("prefetch.{pf}.ns_per_issued"),
            "ns",
            ratio(ns, issued),
        ));
        m.push(metric(
            format!("prefetch.{pf}.accuracy"),
            "ratio",
            ratio(timely, issued),
        ));
    }
    let untraced_rate = median(&untraced.iter().map(|p| instr_per_s(p)).collect::<Vec<_>>());
    let traced_rate = median(&traced.iter().map(|p| instr_per_s(p)).collect::<Vec<_>>());
    m.extend([
        metric("smtsim.runs", "count", t.smt_runs),
        metric("smtsim.commits", "count", t.smt_commits),
        metric(
            "smtsim.self_ns_per_commit",
            "ns",
            ratio(t.smt_self_ns, t.smt_commits),
        ),
        metric("smtsim.self_frac", "ratio", ratio(t.smt_self_ns, worker_ns)),
        metric(
            "smtsim.rename_stall_frac",
            "ratio",
            ratio(t.rename_stalled, t.rename_cycles),
        ),
        metric(
            "smtsim.controller_ns_per_epoch",
            "ns",
            ratio(t.ctl_ns, t.ctl_epochs),
        ),
        metric(
            "core.bandit_epoch_ns",
            "ns",
            ratio(t.bandit_ns, t.bandit_epochs),
        ),
        metric("core.select_ns", "ns", agent.0),
        metric("core.update_ns", "ns", agent.1),
        metric("core.steps", "count", t.bandit_steps),
        metric("workloads.records", "count", t.gen_records),
        metric(
            "workloads.gen_ns_per_record",
            "ns",
            ratio(t.gen_ns, t.gen_records),
        ),
        metric("workloads.gen_frac", "ratio", ratio(t.gen_ns, worker_ns)),
        metric("traces.records", "count", t.replay_records),
        metric(
            "traces.replay_ns_per_record",
            "ns",
            ratio(t.replay_ns, t.replay_records),
        ),
        metric("traces.replay_frac", "ratio", ratio(t.replay_ns, worker_ns)),
        metric(
            "traces.encode_mb_per_s",
            "MB/s",
            ratio(recording.bytes as f64 / 1e6, recording.seconds),
        ),
        metric(
            "traces.bytes_per_record",
            "B",
            ratio(recording.bytes as f64, recording.records as f64),
        ),
        metric("runner.arms", "count", runner.arms),
        metric(
            "runner.busy_frac",
            "ratio",
            ratio(runner.busy_ns, runner.capacity_ns),
        ),
        metric(
            "runner.tail_ms",
            "ms",
            ratio(runner.tail_ns, runner.sweeps) * 1e-6,
        ),
        metric(
            "runner.overhead_us_per_arm",
            "us",
            ratio(runner.gap_ns, runner.arms) * 1e-3,
        ),
        metric(
            "bench.trace_overhead_pct",
            "%",
            100.0 * ratio(untraced_rate - traced_rate, untraced_rate),
        ),
    ]);

    let mut rows = vec![
        ("memsim (self)".to_string(), t.mem_self_ns),
        ("smtsim (self)".to_string(), t.smt_self_ns),
        (
            "smtsim controllers (not Bandit)".to_string(),
            t.ctl_ns - t.bandit_ns,
        ),
        ("core Bandit controller".to_string(), t.bandit_ns),
        ("workloads generation".to_string(), t.gen_ns),
        ("traces replay (decode + read)".to_string(), t.replay_ns),
        (
            "arm build and teardown".to_string(),
            t.arm_ns - t.run_ns - t.open_ns,
        ),
        (
            "runner idle (gaps + tails)".to_string(),
            runner.capacity_ns - runner.busy_ns,
        ),
    ];
    for (pf, e) in &t.pf {
        rows.push((format!("prefetch {pf} train"), e[1]));
    }
    let mut table: Vec<LayerRow> = rows
        .into_iter()
        .filter(|(_, ns)| *ns > 0.0)
        .map(|(layer, ns)| LayerRow {
            layer,
            ns,
            share: ratio(ns, worker_ns),
        })
        .collect();
    table.sort_by(|a, b| b.share.total_cmp(&a.share));
    (m, table)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                crate::host::json_string(&m.name),
                m.value,
                crate::host::json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
