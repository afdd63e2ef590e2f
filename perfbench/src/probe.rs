//! Timing decorators around the simulators' public extension points.
//!
//! The traced run wraps the calls the simulators make into replaceable
//! parts — the L2 prefetcher, the SMT fetch controller and the input
//! stream — and times them from outside. Nothing inside the program is
//! instrumented. Each wrapper keeps its tallies locally and adds them to a
//! shared [`Sink`] when dropped, because the simulators take ownership of
//! prefetchers and SMT streams.

use mab_memsim::{L2Access, PrefetchQueue, Prefetcher};
use mab_prefetch::BanditL2;
use mab_smtsim::controllers::{BanditController, EpochIpc, PgController};
use mab_smtsim::policies::PgPolicy;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Tallies shared between a wrapper and the arm that reads them afterwards.
pub type Sink<T> = Arc<Mutex<T>>;

/// Every Nth prefetcher `train` call is timed; the others are only counted.
/// Timing each call would cost about as much as a simple prefetcher's
/// training itself.
pub const TRAIN_SAMPLE_PERIOD: u64 = 8;

/// Records an input wrapper pulls from its inner stream per timed batch.
/// Both generators and trace replay are pure record streams, so reading
/// ahead changes no simulated result, and one clock pair per batch keeps
/// the wrapper's cost far below the per-record cost it measures.
pub const READ_AHEAD: usize = 256;

/// The cost of one `Instant::now()` call, measured once per process as the
/// median gap between back-to-back reads. It is subtracted from every
/// individually timed call.
pub fn timer_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut gaps: Vec<u64> = (0..4001)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                nanos(b - a)
            })
            .collect();
        gaps.sort_unstable();
        gaps[gaps.len() / 2]
    })
}

/// A duration in whole nanoseconds.
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds since `start`, less the timer's own cost.
pub fn timed_since(start: Instant) -> u64 {
    nanos(start.elapsed()).saturating_sub(timer_overhead_ns())
}

fn flush<T: Merge>(sink: &Sink<T>, local: &T) {
    // A poisoned sink only means another arm panicked; the tallies stay
    // valid, and that arm is already counted as failed.
    let mut shared = sink.lock().unwrap_or_else(|e| e.into_inner());
    shared.merge(local);
}

/// Tallies that add up across wrappers and arms.
pub trait Merge {
    /// Adds `other` into `self`.
    fn merge(&mut self, other: &Self);
}

/// Prefetcher training cost, from sampled `train` calls.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PfTally {
    /// `train` calls, all counted.
    pub calls: u64,
    /// Calls that were timed.
    pub timed_calls: u64,
    /// Nanoseconds spent in the timed calls.
    pub timed_ns: u64,
    /// Bandit steps taken, for the Bandit prefetchers.
    pub bandit_steps: u64,
}

impl PfTally {
    /// Estimated nanoseconds over all `train` calls.
    pub fn est_ns(&self) -> f64 {
        if self.timed_calls == 0 {
            0.0
        } else {
            self.timed_ns as f64 * self.calls as f64 / self.timed_calls as f64
        }
    }
}

impl Merge for PfTally {
    fn merge(&mut self, o: &Self) {
        self.calls += o.calls;
        self.timed_calls += o.timed_calls;
        self.timed_ns += o.timed_ns;
        self.bandit_steps += o.bandit_steps;
    }
}

/// An L2 prefetcher as the benchmark builds it. The Bandit is kept as its
/// concrete type so its step count can be read when the run ends.
pub enum Pf {
    /// `bandit` or `bandit-multicore`.
    Bandit(Box<BanditL2>),
    /// Any other catalog prefetcher.
    Other(Box<dyn Prefetcher + Send>),
}

impl Pf {
    /// Builds the prefetcher `mab_prefetch::catalog::build_l2(name, seed)`
    /// builds, keeping the Bandit variants concrete.
    pub fn build(name: &str, seed: u64) -> Pf {
        match name {
            "bandit" => Pf::Bandit(Box::new(BanditL2::paper_default(seed))),
            "bandit-multicore" => Pf::Bandit(Box::new(BanditL2::paper_multicore(seed))),
            other => Pf::Other(mab_prefetch::catalog::build_l2(other, seed)),
        }
    }

    fn get(&mut self) -> &mut dyn Prefetcher {
        match self {
            Pf::Bandit(b) => b.as_mut(),
            Pf::Other(p) => p.as_mut(),
        }
    }
}

/// Times a prefetcher's training; the `on_*` callbacks pass through untimed
/// and so stay in the memory simulator's self time.
pub struct TimedPf {
    inner: Pf,
    tally: PfTally,
    sink: Sink<PfTally>,
}

impl TimedPf {
    /// Wraps `inner`, adding its tallies to `sink` when dropped.
    pub fn new(inner: Pf, sink: Sink<PfTally>) -> Self {
        TimedPf {
            inner,
            tally: PfTally::default(),
            sink,
        }
    }
}

impl Prefetcher for TimedPf {
    fn name(&self) -> &str {
        match &self.inner {
            Pf::Bandit(b) => b.name(),
            Pf::Other(p) => p.name(),
        }
    }

    fn train(&mut self, access: &L2Access, queue: &mut PrefetchQueue) {
        self.tally.calls += 1;
        if !self.tally.calls.is_multiple_of(TRAIN_SAMPLE_PERIOD) {
            self.inner.get().train(access, queue);
            return;
        }
        let start = Instant::now();
        self.inner.get().train(access, queue);
        self.tally.timed_ns += timed_since(start);
        self.tally.timed_calls += 1;
    }

    fn on_prefetch_fill(&mut self, line: u64, cycle: u64) {
        self.inner.get().on_prefetch_fill(line, cycle);
    }

    fn on_prefetch_used(&mut self, line: u64, cycle: u64) {
        self.inner.get().on_prefetch_used(line, cycle);
    }

    fn on_prefetch_late(&mut self, line: u64, cycle: u64) {
        self.inner.get().on_prefetch_late(line, cycle);
    }

    fn on_prefetch_evicted_unused(&mut self, line: u64) {
        self.inner.get().on_prefetch_evicted_unused(line);
    }
}

impl Drop for TimedPf {
    fn drop(&mut self) {
        if let Pf::Bandit(b) = &self.inner {
            self.tally.bandit_steps = b.agent().steps();
        }
        flush(&self.sink, &self.tally);
    }
}

/// Records pulled from an input stream and the time spent producing them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InputTally {
    /// Records produced by the inner stream.
    pub records: u64,
    /// Nanoseconds spent in the inner stream.
    pub ns: u64,
}

impl Merge for InputTally {
    fn merge(&mut self, o: &Self) {
        self.records += o.records;
        self.ns += o.ns;
    }
}

/// Times an input stream (a workload generator or a trace replay) by
/// reading it ahead in batches of [`READ_AHEAD`] records.
pub struct TimedIter<I: Iterator> {
    inner: I,
    buf: Vec<I::Item>,
    pos: usize,
    tally: InputTally,
    sink: Sink<InputTally>,
}

impl<I: Iterator> TimedIter<I> {
    /// Wraps `inner`, adding its tallies to `sink` when dropped.
    pub fn new(inner: I, sink: Sink<InputTally>) -> Self {
        TimedIter {
            inner,
            buf: Vec::with_capacity(READ_AHEAD),
            pos: 0,
            tally: InputTally::default(),
            sink,
        }
    }
}

impl<I: Iterator> Iterator for TimedIter<I>
where
    I::Item: Copy,
{
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            let start = Instant::now();
            self.buf.extend(self.inner.by_ref().take(READ_AHEAD));
            self.tally.ns += timed_since(start);
            self.tally.records += self.buf.len() as u64;
        }
        let item = self.buf.get(self.pos).copied();
        self.pos += 1;
        item
    }
}

impl<I: Iterator> Drop for TimedIter<I> {
    fn drop(&mut self) {
        flush(&self.sink, &self.tally);
    }
}

/// Exposes a Bandit's step count through the controller wrapper.
pub trait BanditSteps {
    /// Bandit steps taken so far; 0 for controllers without a bandit.
    fn bandit_steps(&self) -> u64 {
        0
    }
}

impl BanditSteps for dyn PgController {}

impl BanditSteps for BanditController {
    fn bandit_steps(&self) -> u64 {
        self.agent().steps()
    }
}

/// Times an SMT fetch controller's per-epoch decision.
pub struct TimedCtl<C: ?Sized> {
    /// `on_epoch` calls.
    pub epochs: u64,
    /// Nanoseconds in `on_epoch`.
    pub ns: u64,
    /// The wrapped controller.
    pub inner: Box<C>,
}

impl<C: ?Sized> TimedCtl<C> {
    /// Wraps `inner`.
    pub fn new(inner: Box<C>) -> Self {
        TimedCtl {
            epochs: 0,
            ns: 0,
            inner,
        }
    }
}

impl<C: PgController + ?Sized> PgController for TimedCtl<C> {
    fn policy(&self) -> PgPolicy {
        self.inner.policy()
    }

    fn share(&self, thread: usize) -> f64 {
        self.inner.share(thread)
    }

    fn on_epoch(&mut self, epoch: EpochIpc) {
        let start = Instant::now();
        self.inner.on_epoch(epoch);
        self.ns += timed_since(start);
        self.epochs += 1;
    }
}
