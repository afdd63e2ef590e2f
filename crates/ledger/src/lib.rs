//! `mab-ledger`: an append-only, content-addressed run ledger.
//!
//! Every experiment invocation (and every ingested `BENCH_*.json`
//! snapshot) becomes a [`RunRecord`] addressed by a digest over its
//! *identity* — experiment name, canonicalized config, code version — and
//! carrying its *outcome* (key metrics, the per-arm sweep log) and
//! *circumstances* (wall time, worker count, artifact paths). Records live
//! in CRC-framed JSONL segments under `results/ledger/` with a digest
//! index for O(1) lookup ([`store`]).
//!
//! Three properties make the ledger the substrate for cross-run tooling
//! (`mab-inspect history`/`trend`/`regress`) and for `mab-serve`'s planned
//! result cache:
//!
//! - **content addressing** — the digest ignores scheduling and timing, so
//!   "has this exact (experiment, config, code) run before?" is one index
//!   probe;
//! - **idempotent re-records** — recording a run whose digest *and* outcome
//!   already exist is a no-op append, which determinism (see `mab-runner`)
//!   guarantees for honest reruns and which makes memoization sound;
//! - **corruption tolerance** — every line is CRC-framed; damaged or torn
//!   lines are skipped with warnings, never panics, so a shared
//!   append-only history degrades gracefully.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod record;
pub mod store;

pub use bench::{file_metrics, ingest_bench_file};
pub use record::{code_version, config_digest, ArmRun, RunRecord};
pub use store::{Append, Ledger, ReadOutcome};
