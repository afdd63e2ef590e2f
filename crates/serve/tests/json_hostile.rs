//! Hostile input for the workspace's one JSON reader.
//!
//! `mab_telemetry::json::parse` reads ledger lines, `/status` documents,
//! `.mabcrash` reports and — here in `mab-serve` — `POST /jobs` bodies of
//! up to 1 MiB from the network. Whatever the bytes, it must answer `Ok` or
//! `Err`: never panic, never overflow the stack, never hang. The documents
//! below come from the real writers, and every prefix of each is parsed,
//! as are random strings over JSON's structural alphabet and random
//! single-character corruptions of the real documents.

use mab_ledger::{ArmRun, RunRecord};
use mab_monitor::{MonitorState, RunInfo};
use mab_runner::{ArmEvent, ArmObservation};
use mab_telemetry::json;
use proptest::prelude::*;

/// Characters that steer the parser: structure, escapes, literal and
/// number starts, whitespace, and multi-byte UTF-8 that can land inside a
/// `\u` window.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', '\\', ':', ',', 'u', 'n', 't', 'f', 'e', 'E', '-', '+', '.', '0', '1',
    '9', 'a', 'F', ' ', '\n', '\t', 'é', '✓', '😀', '\u{1}',
];

fn ledger_line() -> String {
    let mut rec = RunRecord::new("fig08_singlecore", "0.1.0+abc123");
    rec.config_pair("instructions", 200_000);
    rec.config_pair("note", "tab\there \"quoted\" é");
    rec.metrics.push(("gmean_bandit".to_string(), 1.076));
    rec.metrics.push(("nan_metric".to_string(), f64::NAN));
    rec.arms.push(ArmRun {
        sweep: 0,
        index: 3,
        seed: 13_679_457_532_755_275_413,
        wall_ns: 1_234_567,
    });
    rec.host = Some("host-1".to_string());
    rec.to_json()
}

fn status_doc() -> String {
    let state = MonitorState::new(RunInfo {
        experiment: "fig13_smt_scurve".to_string(),
        digest: "0123abcd4567ef89".to_string(),
        code: "0.1.0+abc123".to_string(),
        jobs: 2,
        started_unix: 1_760_000_000,
    });
    state.observe(&ArmEvent::SweepBegin {
        sweep: 0,
        total: 2,
        jobs: 2,
    });
    state.observe(&ArmEvent::ArmStart {
        sweep: 0,
        index: 0,
        seed: 9,
        worker: 1,
    });
    state.observe(&ArmEvent::ArmFinish(ArmObservation {
        sweep: 0,
        index: 0,
        seed: 9,
        wall_ns: 5_000,
        worker: 1,
    }));
    mab_monitor::status::render(&state)
}

const JOB_SPEC: &str = r#"{"experiment":"fig08_singlecore","client":"agent-1","seeds":[1,2,3],"instructions":200000,"mixes":[4,8],"quick":true}"#;

/// Every line of the committed `.mabcrash` fixture after its header: one
/// line of each kind the flight recorder writes.
fn crash_lines() -> Vec<String> {
    include_str!("../../telemetry/tests/data/golden.mabcrash")
        .lines()
        .skip(1)
        .map(str::to_string)
        .collect()
}

fn documents() -> Vec<String> {
    let mut docs = vec![ledger_line(), status_doc(), JOB_SPEC.to_string()];
    docs.extend(crash_lines());
    docs
}

#[test]
fn real_documents_parse() {
    for doc in documents() {
        assert!(json::parse(&doc).is_ok(), "{doc}");
    }
    assert!(mab_serve::parse_job(JOB_SPEC).is_ok());
}

#[test]
fn every_truncation_of_a_real_document_is_answered() {
    for doc in documents() {
        for (cut, _) in doc.char_indices() {
            let prefix = &doc[..cut];
            // A strict prefix of an object or array is never complete.
            assert!(json::parse(prefix).is_err(), "accepted prefix {prefix:?}");
            assert!(mab_serve::parse_job(prefix).is_err());
        }
    }
}

#[test]
fn pathological_nesting_and_escapes_are_errors() {
    for hostile in [
        "[".repeat(1_000_000),
        "{\"a\":".repeat(200_000),
        "\"\\u123é\"".to_string(),
        format!("{{\"experiment\":{}", "[".repeat(500_000)),
    ] {
        assert!(json::parse(&hostile).is_err());
        assert!(mab_serve::parse_job(&hostile).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_strings_never_panic(picks in prop::collection::vec(0..ALPHABET.len(), 0..64)) {
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        let _ = json::parse(&text);
        let _ = mab_serve::parse_job(&text);
    }

    #[test]
    fn corrupted_real_documents_never_panic(
        which in 0usize..64,
        at in 0usize..4096,
        pick in 0..ALPHABET.len(),
    ) {
        let docs = documents();
        let doc = &docs[which % docs.len()];
        let cuts: Vec<usize> = doc.char_indices().map(|(i, _)| i).collect();
        let cut = cuts[at % cuts.len()];
        let ch = doc[cut..].chars().next().unwrap();
        let corrupted = format!("{}{}{}", &doc[..cut], ALPHABET[pick], &doc[cut + ch.len_utf8()..]);
        let _ = json::parse(&corrupted);
        let _ = mab_serve::parse_job(&corrupted);
    }
}
