//! The benchmark's own checks, at a tiny arm length.

use perfbench::digest::References;
use perfbench::report::{self, Recording, RunFacts};
use perfbench::workload::{group_seeds, Pass, Plan, Size, Workload};
use std::path::PathBuf;

const TINY: Size = Size {
    mem_instr: 3_000,
    smt_commits: 600,
    fourcore_instr: 1_000,
};

fn trace_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn plan(workload: Workload, jobs: usize, dir: &str) -> Plan {
    let plan = Plan::new(
        workload,
        TINY,
        jobs,
        group_seeds(workload, 7),
        Some(trace_dir(dir)),
    );
    plan.record_inputs();
    plan
}

fn digests(pass: &Pass) -> Vec<u64> {
    pass.arms
        .iter()
        .map(|a| a.out.expect("no arm panics").digest)
        .collect()
}

fn references(plan: &Plan, pass: &Pass) -> References {
    let mut refs = References::default();
    for (arm, d) in plan.arms.iter().zip(digests(pass)) {
        refs.insert(plan.workload.name(), &arm.label, plan.seeds[arm.group], d);
    }
    refs
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let values = |key: &str| -> Vec<String> {
        body.split(&format!("\"{key}\": \""))
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closed string")].to_string())
            .collect()
    };
    values("name").into_iter().zip(values("unit")).collect()
}

fn printed(metrics: &[report::Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn digests_agree_at_jobs_1_and_nproc_and_when_traced() {
    let nproc = mab_runner::available_jobs().max(2);
    for workload in Workload::ALL {
        let name = workload.name();
        let serial = digests(&plan(workload, 1, &format!("{name}-serial")).run_pass(false));
        let parallel_plan = plan(workload, nproc, &format!("{name}-parallel"));
        let parallel = digests(&parallel_plan.run_pass(false));
        let traced = digests(&parallel_plan.run_pass(true));
        assert_eq!(serial, parallel, "{name}: jobs 1 vs jobs {nproc}");
        assert_eq!(parallel, traced, "{name}: traced vs untraced");
        assert!(serial.len() >= 200, "{name}: {} arms", serial.len());
    }
}

#[test]
fn replayed_arms_equal_generator_fed_arms() {
    let plan = plan(Workload::FourcoreReplay, 1, "replay-vs-gen");
    let replayed = digests(&plan.run_pass(false));
    let generated = digests(&plan.generated().run_pass(false));
    assert_eq!(replayed, generated);
}

#[test]
fn every_listed_metric_is_printed_with_its_unit() {
    let plan = plan(Workload::FourcoreReplay, 2, "metrics");
    let untraced = plan.run_pass(false);
    let traced = plan.run_pass(true);
    let facts = RunFacts {
        setup_s: 0.5,
        peak_rss_mb: 10.0,
        attempted: 1,
        failed: 0,
    };
    let e2e = report::end_to_end(&plan, &[&untraced], facts);
    assert_eq!(printed(&e2e), listed("end_to_end"));
    let (layers, table) = report::per_layer(
        &plan,
        &[&traced],
        &[&untraced],
        Recording::default(),
        (1.0, 1.0),
    );
    assert_eq!(printed(&layers), listed("per_layer"));
    assert!(!table.is_empty());
    assert!(
        table.windows(2).all(|w| w[0].share >= w[1].share),
        "sorted by share"
    );
    let line = report::result_json(true, 1, 0, &e2e);
    for (name, unit) in listed("end_to_end") {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": "))
                && line.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} missing from {line}"
        );
    }
}

#[test]
fn an_injected_digest_mismatch_shows_up_as_a_failed_arm() {
    let plan = plan(Workload::PrefetchSweep, 2, "mismatch");
    let pass = plan.run_pass(false);
    let mut refs = references(&plan, &pass);
    assert!(report::verify(&plan, &refs, &pass).iter().all(|&ok| ok));

    let arm = &plan.arms[17];
    let seed = plan.seeds[arm.group];
    let good = refs.get(plan.workload.name(), &arm.label, seed).unwrap();
    refs.insert(plan.workload.name(), &arm.label, seed, good ^ 1);
    let ok = report::verify(&plan, &refs, &pass);
    let failed = ok.iter().filter(|&&o| !o).count() as u64;
    assert_eq!(failed, 1);
    assert!(!ok[17]);

    let facts = RunFacts {
        setup_s: 0.5,
        peak_rss_mb: 10.0,
        attempted: ok.len() as u64,
        failed,
    };
    let e2e = report::end_to_end(&plan, &[&pass], facts);
    let ok_frac = e2e.iter().find(|m| m.name == "ok_frac").unwrap().value;
    assert_eq!(ok_frac, 1.0 - 1.0 / ok.len() as f64);
}

#[test]
fn references_round_trip_through_their_file_format() {
    let mut refs = References::default();
    refs.insert("smt_sweep", "gcc+xz/ducb", 3, 0x0123_4567_89ab_cdef);
    let text = format!("# comment\n\n{}", refs.render());
    let parsed = References::parse(&text).unwrap();
    assert_eq!(
        parsed.get("smt_sweep", "gcc+xz/ducb", 3),
        Some(0x0123_4567_89ab_cdef)
    );
    assert!(References::parse("smt_sweep only-three 1\n").is_err());
}
