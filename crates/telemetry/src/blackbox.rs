//! Always-on black-box flight recorder and crash postmortem writer.
//!
//! Unlike the rest of this crate, the black box is **not** behind the
//! `on` cargo feature: production runs without telemetry still deserve a
//! forensic trail when an arm panics or the process takes a fatal signal.
//! The design keeps the always-on cost near zero:
//!
//! - Every probe ([`decision`], [`epoch`], [`arm_start`], [`job_event`], …)
//!   starts with one relaxed atomic load and a branch; until [`install`]
//!   (or [`set_enabled`]) flips the recorder on, nothing else runs.
//! - Events land in a fixed-capacity **per-thread** ring guarded by a
//!   per-thread mutex. The owning thread is the only steady-state locker,
//!   so the lock is uncontended (lock-light, not lock-free); a crash dump
//!   on another thread contends only for the microseconds of the dump.
//! - Rings never grow: beyond [`RING_CAPACITY`] the oldest event is
//!   evicted and a per-thread drop counter accounts for it. Global
//!   sequence numbers let a postmortem interleave rings across threads.
//!
//! On `panic!` (hooked via `std::panic::set_hook`, chaining the previous
//! hook) or a fatal signal (`SIGILL`/`SIGABRT`/`SIGBUS`/`SIGSEGV`, through
//! the same [`signal`](crate::signal) binding `mab-serve` uses for SIGTERM)
//! the recorder serializes every thread ring, the active span stack, the
//! installed run identity (experiment, config digest, config pairs), live
//! sweep progress and host info into a CRC-framed
//! `crash-<ts>-<pid>-<n>.mabcrash` report, written atomically (tmp +
//! rename). `mab-inspect postmortem`
//! renders it; [`read_report`] validates and parses it.
//!
//! Signal-path caveat (documented in DESIGN §14): a signal-time dump
//! allocates and takes `try_lock`s, which is best-effort rather than
//! async-signal-safe — a lock held by the crashing thread skips that ring
//! instead of deadlocking, and the handler resets the disposition to
//! `SIG_DFL` first so the process still dies with the original signal if
//! the dump itself faults.

use crate::crc32::crc32;
use crate::json::{self, escape, JsonValue};
use crate::ring::Ring;
use crate::signal;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};

/// Events retained per thread; the oldest beyond this are dropped (and
/// counted). Sized so a crashing arm keeps well over the last eight bandit
/// decisions plus its surrounding epoch/arm markers.
pub const RING_CAPACITY: usize = 128;

/// Magic + version tag on the first line of a `.mabcrash` report.
pub const MAGIC: &str = "MABCRASH1";

// ---------------------------------------------------------------------------
// Recorder state
// ---------------------------------------------------------------------------

/// 0 = off (idle probes cost one load + branch), 1 = recording.
static STATE: AtomicU8 = AtomicU8::new(0);
/// Global sequence counter so per-thread rings interleave in a postmortem.
static SEQ: AtomicU64 = AtomicU64::new(0);
/// Uniquifies report names when several dumps happen in one second.
static DUMPS: AtomicU32 = AtomicU32::new(0);

/// True while the black box is recording. One relaxed load; inline so the
/// idle cost at every probe site is a branch.
#[inline]
pub fn is_on() -> bool {
    STATE.load(Ordering::Relaxed) == 1
}

/// Turns recording on or off without touching hooks or context. Used by the
/// overhead bench (paired on/off sampling) and tests; real runs go through
/// [`install`].
pub fn set_enabled(on: bool) {
    STATE.store(u8::from(on), Ordering::SeqCst);
}

/// True when the `MAB_BLACKBOX` environment variable disables the recorder
/// (set to `0` or empty). Anything else — including unset — leaves it on.
pub fn disabled_by_env() -> bool {
    match std::env::var("MAB_BLACKBOX") {
        Ok(v) => v.is_empty() || v == "0",
        Err(_) => false,
    }
}

/// The run identity a crash report is stamped with.
#[derive(Debug, Clone, Default)]
struct Context {
    experiment: String,
    digest: String,
    config: Vec<(String, String)>,
    crash_dir: PathBuf,
}

static CONTEXT: Mutex<Option<Context>> = Mutex::new(None);

/// Installs the black box for this process: stamps the run identity,
/// installs the panic hook and fatal-signal handlers (once), and starts
/// recording — unless `MAB_BLACKBOX=0` disables it, in which case nothing
/// is armed and `false` is returned. Safe to call again (e.g. from tests or
/// a daemon re-resolving a spec): the context is replaced, hooks stay
/// installed.
pub fn install(experiment: &str, digest: &str, config: &[(String, String)], crash_dir: &Path) -> bool {
    if disabled_by_env() {
        set_enabled(false);
        return false;
    }
    *CONTEXT.lock().unwrap() = Some(Context {
        experiment: experiment.to_string(),
        digest: digest.to_string(),
        config: config.to_vec(),
        crash_dir: crash_dir.to_path_buf(),
    });
    install_hooks();
    set_enabled(true);
    true
}

static HOOKS: Once = Once::new();

fn install_hooks() {
    HOOKS.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if is_on() {
                let msg = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                let message = match info.location() {
                    Some(loc) => format!("{msg} at {}:{}", loc.file(), loc.line()),
                    None => msg,
                };
                // Announce the report on stderr so the path survives even
                // when the process is about to abort; stdout stays clean.
                if let Some(path) = dump("panic", &message, None, false) {
                    eprintln!("blackbox: crash report written to {}", path.display());
                }
            }
            prev(info);
        }));
        install_fatal_handlers();
    });
}

// ---------------------------------------------------------------------------
// Fatal-signal handler
// ---------------------------------------------------------------------------

fn install_fatal_handlers() {
    for sig in [
        signal::SIGILL,
        signal::SIGABRT,
        signal::SIGBUS,
        signal::SIGSEGV,
    ] {
        signal::set_handler(sig, on_fatal);
    }
}

extern "C" fn on_fatal(sig: i32) {
    // Re-arm the default disposition first: if the dump itself faults, or
    // when the handler returns (the faulting instruction re-executes for
    // SEGV/BUS/ILL; abort() re-raises for ABRT), the process still dies
    // with the original signal.
    signal::reset_default(sig);
    if is_on() {
        let message = format!("fatal signal {} ({sig})", signal::name(sig));
        if let Some(path) = dump("signal", &message, Some(sig), true) {
            // Already past the point of async-signal-safety (dump
            // allocates); the announcement costs nothing extra.
            eprintln!("blackbox: crash report written to {}", path.display());
        }
    }
}

// ---------------------------------------------------------------------------
// Per-thread event rings
// ---------------------------------------------------------------------------

/// One structured flight-recorder event (without its sequence number).
#[derive(Debug, Clone)]
pub enum BbEvent {
    /// A bandit decision: chosen arm with its mean reward and selection
    /// bound at decision time.
    Decision {
        agent: u64,
        step: u64,
        arm: usize,
        q: f64,
        bound: f64,
        explore: bool,
    },
    /// A simulator epoch summary (`sim` is `"smt"` or `"mem"`).
    Epoch {
        sim: &'static str,
        id: u64,
        cycle: u64,
        value: f64,
    },
    /// A sweep arm started on this thread.
    ArmStart { index: usize, seed: u64 },
    /// A sweep arm finished on this thread.
    ArmFinish { index: usize },
    /// A sweep began (total arms).
    SweepBegin { total: usize },
    /// A sweep ended (arms completed).
    SweepEnd { done: usize },
    /// A `mab-serve` job/queue transition.
    Job {
        job: u64,
        what: &'static str,
        detail: String,
    },
    /// Free-form breadcrumb.
    Note { text: String },
}

impl BbEvent {
    fn type_name(&self) -> &'static str {
        match self {
            BbEvent::Decision { .. } => "decision",
            BbEvent::Epoch { .. } => "epoch",
            BbEvent::ArmStart { .. } => "arm_start",
            BbEvent::ArmFinish { .. } => "arm_finish",
            BbEvent::SweepBegin { .. } => "sweep_begin",
            BbEvent::SweepEnd { .. } => "sweep_end",
            BbEvent::Job { .. } => "job",
            BbEvent::Note { .. } => "note",
        }
    }

    fn to_json(&self, thread: usize, seq: u64) -> String {
        let head = format!(
            "{{\"kind\":\"event\",\"thread\":{thread},\"seq\":{seq},\"type\":\"{}\"",
            self.type_name()
        );
        match self {
            BbEvent::Decision {
                agent,
                step,
                arm,
                q,
                bound,
                explore,
            } => format!(
                "{head},\"agent\":{agent},\"step\":{step},\"arm\":{arm},\"q\":{q:.6},\"bound\":{bound:.6},\"explore\":{explore}}}"
            ),
            BbEvent::Epoch {
                sim,
                id,
                cycle,
                value,
            } => format!(
                "{head},\"sim\":\"{sim}\",\"id\":{id},\"cycle\":{cycle},\"value\":{value:.6}}}"
            ),
            BbEvent::ArmStart { index, seed } => {
                format!("{head},\"index\":{index},\"seed\":{seed}}}")
            }
            BbEvent::ArmFinish { index } => format!("{head},\"index\":{index}}}"),
            BbEvent::SweepBegin { total } => format!("{head},\"total\":{total}}}"),
            BbEvent::SweepEnd { done } => format!("{head},\"done\":{done}}}"),
            BbEvent::Job { job, what, detail } => format!(
                "{head},\"job\":{job},\"what\":\"{what}\",\"detail\":\"{}\"}}",
                escape(detail)
            ),
            BbEvent::Note { text } => format!("{head},\"text\":\"{}\"}}", escape(text)),
        }
    }
}

struct RingInner {
    /// `(global sequence number, event)` pairs; the ring's own numbering
    /// is per thread, so the global [`SEQ`] rides along.
    events: Ring<(u64, BbEvent)>,
    /// Sweep arm currently executing on this thread, if any.
    arm: Option<(usize, u64)>,
}

struct ThreadRing {
    name: String,
    inner: Mutex<RingInner>,
}

impl ThreadRing {
    fn push(&self, event: BbEvent) {
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().unwrap().events.push((seq, event));
    }
}

static REGISTRY: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

thread_local! {
    static RING: OnceLock<Arc<ThreadRing>> = const { OnceLock::new() };
}

fn with_ring(f: impl FnOnce(&ThreadRing)) {
    let _ = RING.try_with(|cell| {
        let ring = cell.get_or_init(|| {
            let mut registry = REGISTRY.lock().unwrap();
            // Prune rings whose threads exited (registry holds the only
            // reference) so long-lived processes stay bounded.
            registry.retain(|r| Arc::strong_count(r) > 1);
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{}", registry.len()));
            let ring = Arc::new(ThreadRing {
                name,
                inner: Mutex::new(RingInner {
                    events: Ring::new(RING_CAPACITY),
                    arm: None,
                }),
            });
            registry.push(Arc::clone(&ring));
            ring
        });
        f(ring);
    });
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// Records a bandit decision (chosen arm, its mean reward `q` and selection
/// `bound`). Near-zero cost while the recorder is off.
#[inline]
pub fn decision(agent: u64, step: u64, arm: usize, q: f64, bound: f64, explore: bool) {
    if !is_on() {
        return;
    }
    with_ring(|r| {
        r.push(BbEvent::Decision {
            agent,
            step,
            arm,
            q,
            bound,
            explore,
        })
    });
}

/// Records a simulator epoch summary (`sim` is `"smt"` or `"mem"`).
#[inline]
pub fn epoch(sim: &'static str, id: u64, cycle: u64, value: f64) {
    if !is_on() {
        return;
    }
    with_ring(|r| {
        r.push(BbEvent::Epoch {
            sim,
            id,
            cycle,
            value,
        })
    });
}

/// Records that a sweep arm started on this thread and remembers it as the
/// thread's current arm, so a crash names the failing `(index, seed)`.
#[inline]
pub fn arm_start(index: usize, seed: u64) {
    if !is_on() {
        return;
    }
    with_ring(|r| {
        r.push(BbEvent::ArmStart { index, seed });
        r.inner.lock().unwrap().arm = Some((index, seed));
    });
}

/// Records that the current sweep arm finished cleanly.
#[inline]
pub fn arm_finish(index: usize) {
    if !is_on() {
        return;
    }
    with_ring(|r| {
        r.push(BbEvent::ArmFinish { index });
        r.inner.lock().unwrap().arm = None;
    });
}

/// Records a sweep starting (`total` arms).
#[inline]
pub fn sweep_begin(total: usize) {
    if !is_on() {
        return;
    }
    with_ring(|r| r.push(BbEvent::SweepBegin { total }));
}

/// Records a sweep ending (`done` arms completed).
#[inline]
pub fn sweep_end(done: usize) {
    if !is_on() {
        return;
    }
    with_ring(|r| r.push(BbEvent::SweepEnd { done }));
}

/// Records a `mab-serve` job/queue transition.
#[inline]
pub fn job_event(job: u64, what: &'static str, detail: &str) {
    if !is_on() {
        return;
    }
    with_ring(|r| {
        r.push(BbEvent::Job {
            job,
            what,
            detail: detail.to_string(),
        })
    });
}

/// Records a free-form breadcrumb.
#[inline]
pub fn note(text: &str) {
    if !is_on() {
        return;
    }
    with_ring(|r| {
        r.push(BbEvent::Note {
            text: text.to_string(),
        })
    });
}

// ---------------------------------------------------------------------------
// Host info (shared with the ledger's circumstance fields)
// ---------------------------------------------------------------------------

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Which kernel implementation the hot paths run: `"scalar"` when
/// `MAB_SCALAR_KERNELS=1` forces the scalar reference kernels, `"simd"`
/// otherwise (the SIMD-shaped defaults).
pub fn kernel_mode() -> &'static str {
    if crate::hotpath::scalar_kernels() {
        "scalar"
    } else {
        "simd"
    }
}

/// Best-effort hostname: `/proc/sys/kernel/hostname`, then `$HOSTNAME`,
/// then `"unknown"`.
pub fn hostname() -> String {
    if let Ok(name) = std::fs::read_to_string("/proc/sys/kernel/hostname") {
        let name = name.trim();
        if !name.is_empty() {
            return name.to_string();
        }
    }
    std::env::var("HOSTNAME")
        .ok()
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

// ---------------------------------------------------------------------------
// Crash dump
// ---------------------------------------------------------------------------

/// Serializes the black box into a crash report now. `best_effort` takes
/// `try_lock`s instead of blocking (the signal path). Returns the report
/// path, or `None` when nothing could be written (recorder off, no
/// context, or I/O failure — crash reporting never panics).
pub fn dump(cause: &str, message: &str, signal: Option<i32>, best_effort: bool) -> Option<PathBuf> {
    if !is_on() {
        return None;
    }
    let ctx = if best_effort {
        CONTEXT.try_lock().ok()?.clone()
    } else {
        CONTEXT.lock().ok()?.clone()
    }?;
    let body = render_body(&ctx, cause, message, signal, best_effort);
    write_report(&ctx.crash_dir, &body).ok()
}

fn render_body(
    ctx: &Context,
    cause: &str,
    message: &str,
    signal: Option<i32>,
    best_effort: bool,
) -> String {
    let time_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    // The crashing thread's own ring, matched by identity below: names
    // cannot tell unnamed worker threads apart. Its name (`thread-N` for
    // an unnamed thread) also labels the crash.
    let own_ring = RING.try_with(|cell| cell.get().cloned()).ok().flatten();
    let thread = match &own_ring {
        Some(ring) => ring.name.clone(),
        None => std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string(),
    };
    let mut body = String::with_capacity(16 * 1024);
    let sig = match signal {
        Some(s) => format!(",\"signal\":{s},\"signal_name\":\"{}\"", signal::name(s)),
        None => String::new(),
    };
    body.push_str(&format!(
        "{{\"kind\":\"crash\",\"cause\":\"{}\",\"message\":\"{}\"{sig},\"thread\":\"{}\",\"time_unix\":{time_unix},\"experiment\":\"{}\",\"digest\":\"{}\"}}\n",
        escape(cause),
        escape(message),
        escape(&thread),
        escape(&ctx.experiment),
        escape(&ctx.digest),
    ));
    for (key, value) in &ctx.config {
        body.push_str(&format!(
            "{{\"kind\":\"config\",\"key\":\"{}\",\"value\":\"{}\"}}\n",
            escape(key),
            escape(value)
        ));
    }
    body.push_str(&format!(
        "{{\"kind\":\"host\",\"cpus\":{},\"kernel_mode\":\"{}\",\"hostname\":\"{}\"}}\n",
        cpus(),
        kernel_mode(),
        escape(&hostname())
    ));
    if let Some(sweep) = crate::live::sweep_snapshot() {
        body.push_str(&format!(
            "{{\"kind\":\"sweep\",\"done\":{},\"total\":{},\"active\":{}}}\n",
            sweep.done, sweep.total, sweep.active
        ));
    }
    // The crashing thread's current sweep arm, if it was running one.
    if let Some(ring) = &own_ring {
        let arm = match ring.inner.try_lock() {
            Ok(inner) => inner.arm,
            Err(_) => None,
        };
        if let Some((index, seed)) = arm {
            body.push_str(&format!(
                "{{\"kind\":\"arm\",\"index\":{index},\"seed\":{seed}}}\n"
            ));
        }
    }
    for (depth, frame) in crate::span::current_stack().iter().enumerate() {
        body.push_str(&format!(
            "{{\"kind\":\"span\",\"depth\":{depth},\"frame\":\"{}\"}}\n",
            escape(frame)
        ));
    }
    let rings: Vec<Arc<ThreadRing>> = if best_effort {
        match REGISTRY.try_lock() {
            Ok(reg) => reg.clone(),
            Err(_) => Vec::new(),
        }
    } else {
        match REGISTRY.lock() {
            Ok(reg) => reg.clone(),
            Err(_) => Vec::new(),
        }
    };
    let mut events = String::new();
    for (idx, ring) in rings.iter().enumerate() {
        let inner = if best_effort {
            match ring.inner.try_lock() {
                Ok(inner) => inner,
                Err(_) => continue,
            }
        } else {
            match ring.inner.lock() {
                Ok(inner) => inner,
                Err(_) => continue,
            }
        };
        body.push_str(&format!(
            "{{\"kind\":\"thread\",\"id\":{idx},\"name\":\"{}\",\"current\":{},\"dropped\":{},\"events\":{}}}\n",
            escape(&ring.name),
            own_ring.as_ref().is_some_and(|own| Arc::ptr_eq(own, ring)),
            inner.events.dropped(),
            inner.events.len()
        ));
        for (seq, event) in inner.events.iter() {
            events.push_str(&event.to_json(idx, *seq));
            events.push('\n');
        }
    }
    body.push_str(&events);
    body
}

/// Frames `body` with the `MABCRASH1 <crc32> <lines>` header and writes it
/// atomically (tmp + rename) into `dir`, creating the directory if needed.
fn write_report(dir: &Path, body: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let time_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let n = DUMPS.fetch_add(1, Ordering::Relaxed);
    let name = format!("crash-{time_unix}-{}-{n}.mabcrash", std::process::id());
    let header = format!(
        "{MAGIC} {:08x} {}\n",
        crc32(body.as_bytes()),
        body.lines().count()
    );
    let tmp = dir.join(format!(".tmp-{name}"));
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(header.as_bytes())?;
        file.write_all(body.as_bytes())?;
        file.sync_all()?;
    }
    let path = dir.join(&name);
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

// ---------------------------------------------------------------------------
// Report parsing (shared by mab-inspect postmortem, mab-serve attribution
// and the crash-smoke tests)
// ---------------------------------------------------------------------------

/// One event line from a parsed report: its global sequence number, type
/// and every field of the line, parsed.
#[derive(Debug, Clone)]
pub struct CrashEvent {
    pub thread: usize,
    pub seq: u64,
    pub etype: String,
    pub fields: JsonValue,
}

impl CrashEvent {
    /// Unsigned integer field `key` (0 when absent).
    pub fn int(&self, key: &str) -> u64 {
        int(&self.fields, key)
    }

    /// Numeric field `key` (0.0 when absent).
    pub fn num(&self, key: &str) -> f64 {
        self.fields
            .get(key)
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    }

    /// String field `key` (empty when absent).
    pub fn text(&self, key: &str) -> &str {
        text(&self.fields, key)
    }

    /// Boolean field `key` (false when absent).
    pub fn flag(&self, key: &str) -> bool {
        flag(&self.fields, key)
    }
}

// Field readers with the report's defaults for absent keys.
fn int(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

fn flag(v: &JsonValue, key: &str) -> bool {
    v.get(key).and_then(JsonValue::as_bool).unwrap_or(false)
}

/// One thread ring from a parsed report.
#[derive(Debug, Clone)]
pub struct CrashThread {
    pub name: String,
    pub current: bool,
    pub dropped: u64,
    pub events: Vec<CrashEvent>,
}

/// A parsed, CRC-verified `.mabcrash` report.
#[derive(Debug, Clone, Default)]
pub struct CrashReport {
    pub cause: String,
    pub message: String,
    pub signal: Option<i64>,
    pub thread: String,
    pub time_unix: u64,
    pub experiment: String,
    pub digest: String,
    pub config: Vec<(String, String)>,
    pub cpus: u64,
    pub kernel_mode: String,
    pub hostname: String,
    /// `(done, total, active)` sweep progress at crash time, if a sweep ran.
    pub sweep: Option<(u64, u64, bool)>,
    /// `(index, seed)` of the failing sweep arm, if the crashing thread ran one.
    pub arm: Option<(u64, u64)>,
    pub span_stack: Vec<String>,
    pub threads: Vec<CrashThread>,
}

impl CrashReport {
    /// The crashing thread's ring, when present.
    pub fn current_thread(&self) -> Option<&CrashThread> {
        self.threads.iter().find(|t| t.current)
    }

    /// All decision events on the crashing thread, oldest first.
    pub fn last_decisions(&self) -> Vec<&CrashEvent> {
        self.current_thread()
            .map(|t| t.events.iter().filter(|e| e.etype == "decision").collect())
            .unwrap_or_default()
    }
}

/// Reads and validates a `.mabcrash` report: checks the magic, the CRC32
/// over the body, and the line count, then parses every line.
pub fn read_report(path: &Path) -> Result<CrashReport, String> {
    let raw = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let split = raw
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| format!("{}: empty report", path.display()))?;
    let (header, body) = (&raw[..split], &raw[split + 1..]);
    // The CRC covers raw bytes, so damage is reported as damage even when it
    // also broke the UTF-8.
    let mut parts = std::str::from_utf8(header).unwrap_or("").split(' ');
    if parts.next() != Some(MAGIC) {
        return Err(format!("{}: not a {MAGIC} report", path.display()));
    }
    let crc_expected = parts
        .next()
        .and_then(|s| u32::from_str_radix(s, 16).ok())
        .ok_or_else(|| format!("{}: malformed header", path.display()))?;
    let lines_expected: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{}: malformed header", path.display()))?;
    let crc_actual = crc32(body);
    if crc_actual != crc_expected {
        return Err(format!(
            "{}: CRC mismatch (header {crc_expected:08x}, body {crc_actual:08x})",
            path.display()
        ));
    }
    let body = std::str::from_utf8(body).map_err(|e| format!("{}: {e}", path.display()))?;
    if body.lines().count() != lines_expected {
        return Err(format!(
            "{}: line count mismatch (header {lines_expected}, body {})",
            path.display(),
            body.lines().count()
        ));
    }
    let mut report = CrashReport::default();
    for line in body.lines() {
        let v = json::parse(line)
            .map_err(|e| format!("{}: malformed line {line:?}: {e}", path.display()))?;
        let string = |key| text(&v, key).to_string();
        match text(&v, "kind") {
            "crash" => {
                report.cause = string("cause");
                report.message = string("message");
                report.signal = v.get("signal").and_then(JsonValue::as_i64);
                report.thread = string("thread");
                report.time_unix = int(&v, "time_unix");
                report.experiment = string("experiment");
                report.digest = string("digest");
            }
            "config" => report.config.push((string("key"), string("value"))),
            "host" => {
                report.cpus = int(&v, "cpus");
                report.kernel_mode = string("kernel_mode");
                report.hostname = string("hostname");
            }
            "sweep" => {
                report.sweep = Some((int(&v, "done"), int(&v, "total"), flag(&v, "active")));
            }
            "arm" => report.arm = Some((int(&v, "index"), int(&v, "seed"))),
            "span" => report.span_stack.push(string("frame")),
            "thread" => report.threads.push(CrashThread {
                name: string("name"),
                current: flag(&v, "current"),
                dropped: int(&v, "dropped"),
                events: Vec::new(),
            }),
            "event" => {
                let thread = int(&v, "thread") as usize;
                if let Some(t) = report.threads.get_mut(thread) {
                    t.events.push(CrashEvent {
                        thread,
                        seq: int(&v, "seq"),
                        etype: string("type"),
                        fields: v,
                    });
                }
            }
            _ => return Err(format!("{}: unrecognized line {line:?}", path.display())),
        }
    }
    if report.cause.is_empty() {
        return Err(format!("{}: missing crash line", path.display()));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder state is process-global; tests that flip it run under a
    // shared lock so parallel execution cannot interleave on/off phases.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mab-blackbox-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn probes_are_inert_while_off() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        decision(1, 2, 3, 0.5, 0.6, false);
        note("ignored");
        assert_eq!(dump("test", "off", None, false), None);
    }

    #[test]
    fn dump_round_trips_through_read_report() {
        let _guard = TEST_LOCK.lock().unwrap();
        let dir = temp_dir("roundtrip");
        let config = vec![
            ("instructions".to_string(), "200000".to_string()),
            ("seed".to_string(), "7".to_string()),
        ];
        assert!(install("fig08_singlecore", "ab12cd34", &config, &dir));
        for step in 0..12 {
            decision(7, step, (step % 3) as usize, 0.5 + step as f64 * 0.01, 0.9, step % 2 == 0);
        }
        epoch("mem", 3, 120_000, 1.25);
        arm_start(4, 123_456);
        let path = dump("panic", "injected \"test\" panic", None, false).expect("dump");
        set_enabled(false);

        let report = read_report(&path).expect("parse");
        assert_eq!(report.cause, "panic");
        assert_eq!(report.message, "injected \"test\" panic");
        assert_eq!(report.experiment, "fig08_singlecore");
        assert_eq!(report.digest, "ab12cd34");
        assert_eq!(report.config.len(), 2);
        assert_eq!(report.arm, Some((4, 123_456)));
        assert!(report.cpus >= 1);
        assert!(!report.hostname.is_empty());
        let decisions = report.last_decisions();
        assert!(decisions.len() >= 8, "{} decisions", decisions.len());
        let last = decisions.last().unwrap();
        assert_eq!(last.int("step"), 11);
        assert!(last.num("q") > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ring_drops_oldest_and_accounts_for_it() {
        let _guard = TEST_LOCK.lock().unwrap();
        let dir = temp_dir("drops");
        assert!(install("drop_test", "d1gest", &[], &dir));
        let extra = 10;
        for i in 0..(RING_CAPACITY + extra) {
            note(&format!("n{i}"));
        }
        let path = dump("test", "drop accounting", None, false).expect("dump");
        set_enabled(false);

        let report = read_report(&path).expect("parse");
        let t = report.current_thread().expect("current thread ring");
        assert_eq!(t.events.len(), RING_CAPACITY);
        assert!(t.dropped >= extra as u64, "dropped = {}", t.dropped);
        // The oldest retained note is the one right after the dropped span.
        let first_note = t.events.iter().find(|e| e.etype == "note").unwrap();
        let text = first_note.text("text");
        let idx: usize = text[1..].parse().unwrap();
        assert!(idx >= extra, "oldest retained = {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_on_an_unnamed_thread_marks_its_own_ring() {
        let _guard = TEST_LOCK.lock().unwrap();
        let dir = temp_dir("unnamed");
        assert!(install("unnamed_test", "d", &[], &dir));
        // Two unnamed workers, as a sweep runner spawns them: one records
        // decisions, the other crashes.
        std::thread::spawn(|| decision(1, 0, 2, 0.5, 0.6, false))
            .join()
            .unwrap();
        let path = std::thread::spawn(|| {
            note("about to crash");
            dump("panic", "worker panic", None, false).expect("dump")
        })
        .join()
        .unwrap();
        set_enabled(false);

        let report = read_report(&path).expect("parse");
        let current: Vec<_> = report.threads.iter().filter(|t| t.current).collect();
        assert_eq!(
            current.len(),
            1,
            "exactly one ring is the crashing thread's"
        );
        assert_eq!(report.thread, current[0].name);
        assert!(current[0].events.iter().any(|e| e.etype == "note"));
        assert!(report.last_decisions().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_reports_are_rejected_not_panicked_on() {
        let _guard = TEST_LOCK.lock().unwrap();
        let dir = temp_dir("corrupt");
        assert!(install("corrupt_test", "d", &[], &dir));
        note("before crash");
        let path = dump("test", "corruption target", None, false).expect("dump");
        set_enabled(false);

        // Flip one body byte: the CRC must catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x20;
        let bad = dir.join("bad.mabcrash");
        std::fs::write(&bad, &bytes).unwrap();
        let err = read_report(&bad).unwrap_err();
        assert!(err.contains("CRC mismatch"), "{err}");

        // Not a report at all.
        let junk = dir.join("junk.mabcrash");
        std::fs::write(&junk, b"hello world\n").unwrap();
        assert!(read_report(&junk).unwrap_err().contains("not a"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_gate_disables_install() {
        // Not under TEST_LOCK: touches only the env + a pure predicate.
        assert!(!disabled_by_env() || std::env::var("MAB_BLACKBOX").is_ok());
    }
}
