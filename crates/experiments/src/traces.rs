//! Trace record/replay for experiment runs (`--trace-dir`).
//!
//! A [`TraceStore`] wraps an optional cache directory. When disabled (the
//! default), every run streams records straight from the seeded workload
//! generators, exactly as before. When enabled, the store records each
//! `(workload, seed)` stream to a `.mabt` file on first use and replays the
//! file on every later use — across arms of a sweep, across experiments
//! sharing the directory, and across processes (`scripts/` pass one
//! directory via `TRACE_DIR`).
//!
//! Replay is **byte-identical** to generation: a recorded file is a prefix
//! of the generator stream, the memory simulator consumes a fixed record
//! count, and the SMT replay stream chains back into the generator if the
//! pipeline fetches past the recorded prefix. Reports therefore match
//! generator-mode output bit for bit — asserted by
//! `tests/replay.rs` and the CI determinism job.
//!
//! # Concurrency
//!
//! Recording writes a process-unique temp file and atomically renames it
//! into place, so concurrent processes never observe a half-written trace.
//! Within one process, sweep-style runners pre-record their inputs
//! *serially* (see [`TraceStore::ensure_mem`]) before fanning out, so
//! parallel workers only ever open finished files read-only.

use mab_smtsim::pipeline::SmtStream;
use mab_traces::format::peek_meta;
use mab_traces::reader::Records;
use mab_traces::{SmtCodec, SmtTraceReader, TraceReader};
use mab_workloads::apps::{AppSpec, AppTrace};
use mab_workloads::smt::{SmtInstr, ThreadGen, ThreadSpec};
use mab_workloads::TraceRecord;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Records kept per committed instruction when recording SMT streams.
///
/// The SMT pipeline fetches more instructions than it commits (wrong-path
/// fetch after mispredicted branches, and a thread that reached its target
/// keeps running until its partner finishes), so files are sized with this
/// margin. Correctness never depends on it: if a run outreads the file, the
/// replay stream falls back to the generator mid-stream with no change in
/// the records produced.
pub const SMT_RECORD_MARGIN: u64 = 4;

/// Decoded memory traces the memo keeps: the most any one run holds alive
/// at once ([`crate::prefetch_runs::run_four_core_homogeneous`] replays
/// one file per core). A four-core run opens seeds `s..s+4` in turn, so
/// with fewer slots every open would evict the entry the next run needs.
const MEM_MEMO_SLOTS: usize = 4;

/// Optional on-disk trace cache for experiment runs.
#[derive(Debug, Clone, Default)]
pub struct TraceStore {
    dir: Option<PathBuf>,
    /// Memo of the last [`MEM_MEMO_SLOTS`] memory traces decoded by this
    /// store, least recently used first: sweeps replay the same
    /// `(app, seed)` files once per configuration, so repeat runs iterate
    /// the already-decoded records from memory instead of re-reading and
    /// re-decoding the files. Clones share the memo. A miss evicts before
    /// it decodes, so the memo and the decode in flight together hold at
    /// most [`MEM_MEMO_SLOTS`] traces, which one four-core run holds alive
    /// anyway. A
    /// cached prefix longer than requested is safe for the same reason a
    /// longer file is: every trace is a prefix of the deterministic
    /// generator stream.
    mem_memo: Arc<Mutex<Vec<MemMemo>>>,
}

/// A memo entry: the file a decode came from, and its first `n` records.
#[derive(Debug)]
struct MemMemo {
    path: PathBuf,
    records: Arc<Vec<TraceRecord>>,
}

impl TraceStore {
    /// A store that always streams from the generators.
    pub fn disabled() -> Self {
        TraceStore::default()
    }

    /// A store caching traces under `dir` (created if missing); `None`
    /// disables caching.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created — the experiment cannot
    /// honor `--trace-dir`, and silently falling back would break the
    /// "replay reproduces this run" contract.
    pub fn new(dir: Option<PathBuf>) -> Self {
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("cannot create trace dir {}: {e}", dir.display()));
        }
        TraceStore {
            dir,
            mem_memo: Arc::default(),
        }
    }

    /// Builds the store from parsed CLI options (`--trace-dir`).
    pub fn from_options(opts: &crate::cli::Options) -> Self {
        TraceStore::new(opts.trace_dir.clone())
    }

    /// Whether record/replay is active.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    fn mem_path(&self, app: &AppSpec, seed: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("mem-{}-s{seed}.mabt", app.name)))
    }

    fn smt_path(&self, spec: &ThreadSpec, seed: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("smt-{}-s{seed}.mabt", spec.name)))
    }

    /// Makes sure a memory trace for `(app, seed)` with at least `n`
    /// records exists. Call serially before dispatching a parallel sweep
    /// that replays it.
    pub fn ensure_mem(&self, app: &AppSpec, seed: u64, n: u64) {
        let Some(path) = self.mem_path(app, seed) else {
            return;
        };
        if usable(&path, n) {
            return;
        }
        record_atomically(&path, |tmp| {
            mab_traces::record_app_to_file(app, seed, n, tmp).map(|_| ())
        });
    }

    /// Makes sure an SMT trace for `(spec, seed)` sized for `commits`
    /// committed instructions exists. `seed` is the *effective* per-thread
    /// seed (thread 1 of a mix is decorrelated with
    /// [`mab_smtsim::pipeline::THREAD1_SEED_SALT`] before calling).
    pub fn ensure_smt(&self, spec: &ThreadSpec, seed: u64, commits: u64) {
        let Some(path) = self.smt_path(spec, seed) else {
            return;
        };
        let n = commits.saturating_mul(SMT_RECORD_MARGIN);
        if usable(&path, n) {
            return;
        }
        record_atomically(&path, |tmp| {
            mab_traces::record_smt_to_file(spec, seed, n, tmp).map(|_| ())
        });
    }

    /// Record source for one core of a memory run: the recorded file when
    /// the store is enabled, the generator otherwise. The file is recorded
    /// first if missing or shorter than `n`, decoded once, and memoized so
    /// the other arms of a sweep replay it from memory.
    pub fn mem_source(&self, app: &AppSpec, seed: u64, n: u64) -> MemSource {
        let Some(path) = self.mem_path(app, seed) else {
            return MemSource::Generated(app.trace(seed));
        };
        // A hit proves a file of at least `n` records existed, so only a
        // miss needs to look at (or record) the file.
        if let Some(records) = self.memo_lookup(&path, n) {
            return MemSource::Replay { records, cursor: 0 };
        }
        self.ensure_mem(app, seed, n);
        // The bulk replay decode; per-block `trace_decode` spans from the
        // reader nest under it.
        mab_telemetry::span!(TraceReplay);
        let reader = TraceReader::open(&path)
            .unwrap_or_else(|e| panic!("cannot replay {}: {e}", path.display()));
        let mut records = Vec::with_capacity(n.min(reader.meta().record_count) as usize);
        records.extend(reader.records().take(n as usize));
        let records = Arc::new(records);
        self.memoize(path, Arc::clone(&records));
        MemSource::Replay { records, cursor: 0 }
    }

    /// The memoized decode of `path`, when it covers at least `n` records;
    /// a hit becomes the most recently used entry. A miss makes room for
    /// the decode that follows: it drops a shorter entry for `path`, or
    /// else the least recently used one when the memo is full.
    fn memo_lookup(&self, path: &Path, n: u64) -> Option<Arc<Vec<TraceRecord>>> {
        let mut memo = self.mem_memo.lock().expect("trace memo lock");
        if let Some(i) = memo.iter().position(|m| m.path == *path) {
            let entry = memo.remove(i);
            if entry.records.len() as u64 >= n {
                let records = Arc::clone(&entry.records);
                memo.push(entry);
                return Some(records);
            }
        } else if memo.len() >= MEM_MEMO_SLOTS {
            memo.remove(0);
        }
        None
    }

    /// Adds a fresh decode of `path` as the most recently used entry,
    /// replacing any entry for the same file a concurrent miss added.
    fn memoize(&self, path: PathBuf, records: Arc<Vec<TraceRecord>>) {
        let mut memo = self.mem_memo.lock().expect("trace memo lock");
        memo.retain(|m| m.path != path);
        if memo.len() >= MEM_MEMO_SLOTS {
            memo.remove(0);
        }
        memo.push(MemMemo { path, records });
    }

    /// Instruction stream for one SMT hardware thread: the recorded file
    /// (chaining back into the generator if the pipeline reads past it)
    /// when the store is enabled, the generator otherwise. `seed` is the
    /// effective per-thread seed, as in [`TraceStore::ensure_smt`].
    pub fn smt_stream(&self, spec: &ThreadSpec, seed: u64, commits: u64) -> SmtStream {
        let Some(path) = self.smt_path(spec, seed) else {
            return SmtStream::Generated(spec.stream(seed));
        };
        self.ensure_smt(spec, seed, commits);
        let reader = SmtTraceReader::open(&path)
            .unwrap_or_else(|e| panic!("cannot replay {}: {e}", path.display()));
        SmtStream::Boxed(Box::new(SmtReplay {
            file: Some(reader.records()),
            spec: spec.clone(),
            seed,
            yielded: 0,
            generator: None,
        }))
    }
}

/// True when `path` holds a finalized trace with at least `n` records.
fn usable(path: &Path, n: u64) -> bool {
    peek_meta(path).is_ok_and(|meta| meta.record_count >= n)
}

/// Runs `record` against a process-unique temp path, then renames the
/// result over `path`. Concurrent processes may both record; whichever
/// rename lands last wins with a complete file either way.
fn record_atomically(path: &Path, record: impl FnOnce(&Path) -> mab_traces::Result<()>) {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let result = record(&tmp).and_then(|()| std::fs::rename(&tmp, path).map_err(Into::into));
    if let Err(e) = result {
        std::fs::remove_file(&tmp).ok();
        panic!("cannot record trace {}: {e}", path.display());
    }
}

/// Record source for a memory-simulator run.
///
/// The enum keeps generator mode on the exact pre-replay code path (the
/// simulators take `&mut dyn Iterator`, so this adds no second virtual
/// dispatch for generated runs).
pub enum MemSource {
    /// Seeded workload-model generator.
    Generated(AppTrace),
    /// Recorded trace, decoded once and shared across the runs that replay
    /// it (see [`TraceStore::mem_source`]).
    Replay {
        /// The decoded records, shared with the store's memo.
        records: Arc<Vec<TraceRecord>>,
        /// Next record to yield.
        cursor: usize,
    },
}

impl std::fmt::Debug for MemSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemSource::Generated(_) => f.write_str("MemSource::Generated"),
            MemSource::Replay { .. } => f.write_str("MemSource::Replay"),
        }
    }
}

impl Iterator for MemSource {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        match self {
            MemSource::Generated(g) => g.next(),
            MemSource::Replay { records, cursor } => {
                let record = records.get(*cursor).copied();
                *cursor += 1;
                record
            }
        }
    }
}

/// SMT replay stream: the recorded file first, then — only if the pipeline
/// fetches past the recorded prefix — the generator, skipped forward past
/// the records already replayed. Because the file is a byte-exact prefix of
/// the generator stream, the chained stream equals the pure generator
/// stream record for record, at any file length.
struct SmtReplay {
    file: Option<Records<SmtCodec>>,
    spec: ThreadSpec,
    seed: u64,
    yielded: u64,
    generator: Option<ThreadGen>,
}

impl Iterator for SmtReplay {
    type Item = SmtInstr;

    #[inline]
    fn next(&mut self) -> Option<SmtInstr> {
        if let Some(file) = &mut self.file {
            if let Some(instr) = file.next() {
                self.yielded += 1;
                return Some(instr);
            }
            self.file = None;
        }
        let generator = self.generator.get_or_insert_with(|| {
            let mut g = self.spec.stream(self.seed);
            // Fast-forward past the replayed prefix; from here the
            // generator continues the exact same stream.
            for _ in 0..self.yielded {
                g.next();
            }
            g
        });
        generator.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mab_workloads::{smt, suites};

    fn store(name: &str) -> TraceStore {
        let dir = std::env::temp_dir().join(format!("mab-tracestore-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        TraceStore::new(Some(dir))
    }

    #[test]
    fn disabled_store_streams_the_generator() {
        let store = TraceStore::disabled();
        let app = suites::app_by_name("mcf").unwrap();
        assert!(matches!(
            store.mem_source(&app, 1, 100),
            MemSource::Generated(_)
        ));
    }

    #[test]
    fn mem_source_replays_the_generator_stream() {
        let store = store("mem");
        let app = suites::app_by_name("mcf").unwrap();
        let replayed: Vec<_> = store.mem_source(&app, 5, 3000).take(3000).collect();
        let generated: Vec<_> = app.trace(5).take(3000).collect();
        assert_eq!(replayed, generated);
    }

    #[test]
    fn short_mem_file_is_rerecorded_for_longer_runs() {
        let store = store("mem-grow");
        let app = suites::app_by_name("lbm").unwrap();
        store.ensure_mem(&app, 2, 500);
        let replayed: Vec<_> = store.mem_source(&app, 2, 2000).take(2000).collect();
        assert_eq!(replayed, app.trace(2).take(2000).collect::<Vec<_>>());
    }

    fn replayed(source: MemSource) -> Arc<Vec<TraceRecord>> {
        match source {
            MemSource::Replay { records, .. } => records,
            MemSource::Generated(_) => panic!("enabled store must replay"),
        }
    }

    /// Asserts the memo holds exactly `seeds` of `app`, least recently
    /// used first.
    fn assert_memo_holds(store: &TraceStore, app: &AppSpec, seeds: &[u64]) {
        let memo: Vec<_> = store
            .mem_memo
            .lock()
            .unwrap()
            .iter()
            .map(|m| m.path.clone())
            .collect();
        let expected: Vec<_> = seeds
            .iter()
            .map(|&s| store.mem_path(app, s).unwrap())
            .collect();
        assert_eq!(memo, expected);
    }

    #[test]
    fn four_core_access_pattern_decodes_each_file_once() {
        let store = store("mem-fourcore");
        let app = suites::app_by_name("mcf").unwrap();
        // Two four-core runs back to back, each opening seeds 10..14 in turn.
        let first: Vec<_> = (10..14)
            .map(|s| replayed(store.mem_source(&app, s, 1000)))
            .collect();
        for (s, records) in (10..14).zip(&first) {
            let again = replayed(store.mem_source(&app, s, 1000));
            assert!(Arc::ptr_eq(records, &again), "seed {s} was decoded twice");
        }
    }

    #[test]
    fn fifth_file_evicts_the_least_recently_used_entry() {
        let store = store("mem-evict");
        let app = suites::app_by_name("mcf").unwrap();
        for s in 20..24 {
            store.mem_source(&app, s, 1000);
        }
        // A hit refreshes seed 20, leaving 21 the least recently used.
        store.mem_source(&app, 20, 1000);
        assert_memo_holds(&store, &app, &[21, 22, 23, 20]);
        store.mem_source(&app, 24, 1000);
        assert_memo_holds(&store, &app, &[22, 23, 20, 24]);
    }

    #[test]
    fn longer_request_replaces_the_shorter_entry() {
        let store = store("mem-longer");
        let app = suites::app_by_name("lbm").unwrap();
        let short = replayed(store.mem_source(&app, 3, 500));
        let long = replayed(store.mem_source(&app, 3, 2000));
        assert!(
            !Arc::ptr_eq(&short, &long),
            "short entry served a longer run"
        );
        assert_eq!(long.len(), 2000);
        assert_memo_holds(&store, &app, &[3]);
        // The longer decode now serves shorter requests too.
        assert!(Arc::ptr_eq(
            &long,
            &replayed(store.mem_source(&app, 3, 500))
        ));
    }

    #[test]
    fn smt_stream_continues_past_the_recorded_prefix() {
        let store = store("smt");
        let thread = smt::thread_by_name("gcc").unwrap();
        // Tiny "commits" so the file holds far fewer records than we pull:
        // the chain fallback must splice seamlessly into the generator.
        let stream = store.smt_stream(&thread, 9, 100);
        let SmtStream::Boxed(stream) = stream else {
            panic!("enabled store must replay");
        };
        let replayed: Vec<_> = stream.take(5000).collect();
        let generated: Vec<_> = thread.stream(9).take(5000).collect();
        assert_eq!(replayed, generated);
    }
}
