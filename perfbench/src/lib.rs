//! End-to-end and per-layer benchmark of the Micro-Armed Bandit simulators.
//!
//! A workload is a closed batch of arms, each one simulation run that
//! starts with empty modelled caches. A run sets the workload up several
//! times, then repeats untraced passes over the batch for a fixed time and
//! reports medians; with `--trace 1` it alternates untraced and traced
//! passes and reports the per-layer metrics of [`report::per_layer`]. Every
//! arm's simulated statistics are checked against stored reference digests.
//! The simulator model has not been validated against hardware, so the
//! benchmark reports no error figure.

pub mod digest;
pub mod host;
pub mod probe;
pub mod report;
pub mod workload;
