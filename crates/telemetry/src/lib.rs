//! `mab-telemetry`: zero-cost-when-off observability for the Micro-Armed
//! Bandit reproduction.
//!
//! # Architecture
//!
//! - [`Counters`](counters::Counters) — sharded lock-free counters, one
//!   [`Stat`] per probe point across the agent, both simulators and the
//!   prefetch subsystem.
//! - [`Histogram`](hist::Histogram) — lock-free log2-bucket histograms for
//!   reward, epoch-IPC and latency distributions.
//! - [`EventRing`](ring::EventRing) — fixed-capacity ring buffer of
//!   structured [`Event`]s with sequence numbers and drop accounting.
//! - [`export`] — hand-rolled JSON-lines and CSV exporters.
//! - The workspace's shared primitives, one of each: [`crc32`], [`json`]
//!   (escaper, float formatter and reader), the bounded [`Ring`] every
//!   event buffer is built on, and the [`signal`] binding.
//! - [`summary`] — the periodic-summary sink used by experiment binaries.
//! - [`live`] — the seqlock'd sweep-progress cell and the shared ETA/rate
//!   formatting consumed by both the stderr progress line and the
//!   `mab-monitor` live endpoints.
//! - [`span`] / [`profile`] — hierarchical span profiler: thread-local span
//!   stacks with sampled timing, run-scoped deterministic merging, and
//!   flamegraph-compatible collapsed-stack export.
//! - [`blackbox`] — the always-on (feature-independent) flight recorder:
//!   per-thread rings of recent decisions/epochs/arm events plus a
//!   panic-hook/fatal-signal crash dump to `.mabcrash` reports.
//!
//! # Gating
//!
//! Instrumented crates invoke the [`count!`], [`record!`], [`record_raw!`]
//! and [`emit!`] macros. Each expands to
//! `if mab_telemetry::STATIC_ENABLED { ... }`; [`STATIC_ENABLED`] is a
//! `const` that is `false` unless the `on` cargo feature is enabled, so with
//! the feature off the arguments are type-checked but the branch folds away
//! — zero runtime cost. With the feature on, the macros are additionally
//! gated at runtime on a recorder having been [`install`]ed.
//!
//! High-frequency simulator probe events (cache accesses, fetch slots) are
//! only pushed into the ring when [`RecorderConfig::sim_events`] is set;
//! their counters are always cheap and always on.

pub mod blackbox;
pub mod counters;
pub mod crc32;
pub mod event;
pub mod export;
pub mod hist;
pub mod hotpath;
pub mod json;
pub mod live;
pub mod perfetto;
pub mod profile;
pub mod ring;
pub mod signal;
pub mod span;
pub mod summary;
pub mod trace;

pub use counters::{Counters, Stat};
pub use event::{CacheLevel, Event};
pub use hist::{Hist, Histogram};
pub use profile::ProfileReport;
pub use ring::{EventRing, Ring, SeqEvent};
pub use span::{Category, SpanGuard, SpanTotals};
pub use summary::SummarySink;
pub use trace::{ArmProbe, DecisionRecord, SeqDecision, TraceRing};

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Compile-time master switch: `true` only when the `on` feature is enabled.
/// The instrumentation macros test this constant, so with the feature off
/// they compile to nothing.
pub const STATIC_ENABLED: bool = cfg!(feature = "on");

/// Configuration for a [`Recorder`].
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Maximum events retained in the ring (oldest evicted beyond this).
    pub ring_capacity: usize,
    /// Also push high-frequency simulator probe events into the ring.
    /// Off by default: per-access logging would dominate simulator runtime.
    pub sim_events: bool,
    /// Maximum decision records retained in the trace ring (oldest evicted
    /// beyond this).
    pub trace_capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            ring_capacity: 65_536,
            sim_events: false,
            trace_capacity: 65_536,
        }
    }
}

/// The telemetry registry: counters, histograms and the event ring.
pub struct Recorder {
    counters: Counters,
    hists: [Histogram; Hist::COUNT],
    ring: EventRing,
    trace: TraceRing,
    clock: AtomicU64,
    sim_events: bool,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new(config: RecorderConfig) -> Self {
        Recorder {
            counters: Counters::new(),
            hists: std::array::from_fn(|_| Histogram::new()),
            ring: EventRing::new(config.ring_capacity),
            trace: TraceRing::new(config.trace_capacity),
            clock: AtomicU64::new(0),
            sim_events: config.sim_events,
        }
    }

    /// The counter registry.
    #[inline]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The histogram for `h`.
    #[inline]
    pub fn hist(&self, h: Hist) -> &Histogram {
        &self.hists[h as usize]
    }

    /// The event ring.
    #[inline]
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// The decision-provenance trace ring.
    #[inline]
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Publishes the current simulated cycle. Simulators call this at bandit
    /// step / epoch boundaries so decision records and occupancy samples
    /// carry a timeline position.
    #[inline]
    pub fn set_clock(&self, cycle: u64) {
        self.clock.store(cycle, Ordering::Relaxed);
    }

    /// The last published simulated cycle (0 before any simulator reported).
    #[inline]
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Whether simulator probe events are ring-logged.
    #[inline]
    pub fn sim_events(&self) -> bool {
        self.sim_events
    }

    /// Pushes an event into the ring. Simulator probe events are dropped
    /// unless [`RecorderConfig::sim_events`] was set.
    #[inline]
    pub fn emit(&self, event: Event) {
        if !event.is_sim_probe() || self.sim_events {
            self.ring.push(event);
        }
    }

    /// Converts a stored histogram value into display units (micro-unit
    /// histograms are scaled back; cycle histograms pass through).
    pub fn hist_display(&self, h: Hist, stored: f64) -> f64 {
        match h {
            Hist::Reward | Hist::EpochIpc => stored / 1e6,
            Hist::MissLatency => stored,
        }
    }

    /// Writes the full recorder state as JSON lines.
    pub fn export_jsonl<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        export::write_jsonl(self, w)
    }

    /// Writes the retained events as CSV.
    pub fn export_csv<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        export::write_csv(self, w)
    }

    /// Exports to `path`, choosing the format from the extension
    /// (`.csv` → CSV, anything else → JSON lines).
    pub fn export_to_path(&self, path: &Path) -> io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        match path.extension().and_then(|e| e.to_str()) {
            Some("csv") => self.export_csv(&mut file),
            _ => self.export_jsonl(&mut file),
        }
    }

    /// Exports the decision trace to `path`, choosing the format from the
    /// extension (`.json` → Chrome trace-event JSON for Perfetto, anything
    /// else → decision JSON lines).
    pub fn export_trace_to_path(&self, path: &Path) -> io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => perfetto::write_trace_json(self, &mut file),
            _ => trace::write_trace_jsonl(&self.trace, &mut file),
        }
    }
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Installs the global recorder (idempotent: the first configuration wins)
/// and returns it.
pub fn install(config: RecorderConfig) -> &'static Recorder {
    let rec = RECORDER.get_or_init(|| Recorder::new(config));
    ACTIVE.store(true, Ordering::SeqCst);
    rec
}

/// Toggles the installed recorder's active flag: with `false`, every probe
/// behaves as if no recorder were installed until re-enabled. A no-op before
/// [`install`]. Intended for the overhead benchmark (interleaved on/off
/// sampling) and tests; not a synchronization point for readers.
pub fn set_recording(active: bool) {
    ACTIVE.store(active && RECORDER.get().is_some(), Ordering::SeqCst);
}

/// The global recorder, if one was installed.
#[inline]
pub fn recorder() -> Option<&'static Recorder> {
    if ACTIVE.load(Ordering::Relaxed) {
        RECORDER.get()
    } else {
        None
    }
}

/// True when instrumentation is compiled in *and* a recorder is installed.
#[inline]
pub fn enabled() -> bool {
    STATIC_ENABLED && ACTIVE.load(Ordering::Relaxed)
}

/// Bumps a [`Stat`] counter: `count!(ArmPulls)` or `count!(L2Fill, n)`.
#[macro_export]
macro_rules! count {
    ($stat:ident) => {
        $crate::count!($stat, 1u64)
    };
    ($stat:ident, $n:expr) => {
        if $crate::STATIC_ENABLED {
            if let Some(r) = $crate::recorder() {
                r.counters().add($crate::Stat::$stat, $n as u64);
            }
        }
    };
}

/// Records an f64 observation into a micro-unit histogram:
/// `record!(Reward, ipc)`.
#[macro_export]
macro_rules! record {
    ($hist:ident, $value:expr) => {
        if $crate::STATIC_ENABLED {
            if let Some(r) = $crate::recorder() {
                r.hist($crate::Hist::$hist).record_f64($value);
            }
        }
    };
}

/// Records an integer observation into a raw-unit histogram:
/// `record_raw!(MissLatency, cycles)`.
#[macro_export]
macro_rules! record_raw {
    ($hist:ident, $value:expr) => {
        if $crate::STATIC_ENABLED {
            if let Some(r) = $crate::recorder() {
                r.hist($crate::Hist::$hist).record($value as u64);
            }
        }
    };
}

/// Pushes a structured [`Event`] into the ring:
/// `emit!(ArmPulled { agent: seed, step, arm, phase: "main" })`.
#[macro_export]
macro_rules! emit {
    ($variant:ident { $($field:ident : $value:expr),* $(,)? }) => {
        if $crate::STATIC_ENABLED {
            if let Some(r) = $crate::recorder() {
                r.emit($crate::Event::$variant { $($field : $value),* });
            }
        }
    };
}

/// Publishes the simulated cycle to the recorder clock: `clock!(cycle)`.
/// Called by simulators at bandit step / epoch boundaries (not per cycle),
/// so decision records carry a timeline position.
#[macro_export]
macro_rules! clock {
    ($cycle:expr) => {
        if $crate::STATIC_ENABLED {
            if let Some(r) = $crate::recorder() {
                r.set_clock($cycle as u64);
            }
        }
    };
}

/// Like [`emit!`] but for high-frequency simulator probe events: checks
/// [`RecorderConfig::sim_events`] *before* constructing the event, so with
/// ring-logging of probes off (the default) the per-access/per-cycle cost is
/// one predictable branch.
#[macro_export]
macro_rules! emit_sim {
    ($variant:ident { $($field:ident : $value:expr),* $(,)? }) => {
        if $crate::STATIC_ENABLED {
            if let Some(r) = $crate::recorder() {
                if r.sim_events() {
                    r.emit($crate::Event::$variant { $($field : $value),* });
                }
            }
        }
    };
}

/// Opens a hierarchical profiling span covering the rest of the enclosing
/// scope: `span!(CacheAccess)`, or `span!(PrefetchTrain, label_id)` with a
/// label from [`span::intern`]. With the `on` feature off this folds to
/// nothing; with profiling disarmed at runtime it costs one relaxed load
/// and a branch.
#[macro_export]
macro_rules! span {
    ($cat:ident) => {
        let _span_guard = $crate::span::enter($crate::span::Category::$cat, 0);
    };
    ($cat:ident, $label:expr) => {
        let _span_guard = $crate::span::enter($crate::span::Category::$cat, $label);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_enabled_tracks_the_feature() {
        assert_eq!(STATIC_ENABLED, cfg!(feature = "on"));
    }

    #[test]
    fn recorder_routes_bandit_events_to_the_ring() {
        let rec = Recorder::new(RecorderConfig {
            ring_capacity: 8,
            sim_events: false,
            ..RecorderConfig::default()
        });
        rec.emit(Event::ArmPulled {
            agent: 1,
            step: 0,
            arm: 2,
            phase: "main",
        });
        rec.emit(Event::CacheAccess {
            level: CacheLevel::L1,
            core: 0,
            line: 1,
            hit: true,
            cycle: 5,
        });
        // The sim probe is dropped because sim_events is off.
        assert_eq!(rec.ring().len(), 1);
        assert_eq!(rec.ring().events()[0].event.kind(), "arm_pulled");
    }

    #[test]
    fn sim_events_opt_in_logs_probes() {
        let rec = Recorder::new(RecorderConfig {
            ring_capacity: 8,
            sim_events: true,
            ..RecorderConfig::default()
        });
        rec.emit(Event::FetchSlotGrant {
            thread: 1,
            cycle: 3,
        });
        assert_eq!(rec.ring().len(), 1);
    }

    #[test]
    fn export_to_writer_produces_parseable_lines() {
        let rec = Recorder::new(RecorderConfig::default());
        rec.counters().add(Stat::ArmPulls, 2);
        rec.hist(Hist::Reward).record_f64(1.5);
        rec.emit(Event::EpochReset { agent: 9, step: 44 });
        let mut out = Vec::new();
        rec.export_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.lines().count() >= 4, "{text}");
        assert!(text.contains("\"kind\":\"meta\""), "{text}");
        assert!(
            text.contains("\"stat\":\"arm_pulls\",\"value\":2"),
            "{text}"
        );
        assert!(text.contains("\"kind\":\"epoch_reset\""), "{text}");

        let mut csv = Vec::new();
        rec.export_csv(&mut csv).unwrap();
        let csv = String::from_utf8(csv).unwrap();
        assert!(csv.starts_with("seq,kind,"), "{csv}");
        assert_eq!(csv.lines().count(), 2, "{csv}");
    }
}
