//! The three benchmark workloads: what each arm simulates, and one timed
//! pass over all of a workload's arms.
//!
//! An untraced arm calls the program's own runners
//! (`mab_experiments::{prefetch_runs, smt_runs}`). A traced arm builds the
//! same simulation from the simulators' public APIs with the timing
//! decorators of [`crate::probe`] in place; both must give the same digest.

use crate::digest;
use crate::probe::{
    nanos, BanditSteps, InputTally, Pf, PfTally, Sink, TimedCtl, TimedIter, TimedPf,
};
use mab_core::AlgorithmKind;
use mab_experiments::traces::TraceStore;
use mab_experiments::{prefetch_runs, smt_runs};
use mab_memsim::{config::SystemConfig, system::RunStats, System};
use mab_smtsim::controllers::{ChoiController, PgController, StaticPgController};
use mab_smtsim::pipeline::{SmtPipeline, SmtStats, SmtStream, THREAD1_SEED_SALT};
use mab_smtsim::policies::PgPolicy;
use mab_workloads::apps::AppSpec;
use mab_workloads::smt::{self, ThreadSpec};
use mab_workloads::{suites, Suite, TraceRecord};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::thread::ThreadId;
use std::time::Instant;

/// Input seeds are drawn from `1..=POOL`, so that every arm a run can
/// simulate has a stored reference digest.
pub const POOL: u64 = 8;

/// The single-core prefetcher lineup of Fig. 8.
pub const LINEUP: [&str; 6] = ["none", "stride", "bingo", "mlop", "pythia", "bandit"];

/// The four-core lineup of Fig. 14: Bandit with round-robin restart.
pub const FOURCORE_LINEUP: [&str; 6] = [
    "none",
    "stride",
    "bingo",
    "mlop",
    "pythia",
    "bandit-multicore",
];

/// Cores per arm in `fourcore_replay`.
pub const FOURCORE_CORES: usize = 4;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 8-shaped single-core prefetcher sweep from the generators.
    PrefetchSweep,
    /// Table 9 / Fig. 13-shaped SMT fetch-policy sweep over the tune set.
    SmtSweep,
    /// Fig. 14-shaped serial four-core sweep replayed from `.mabt` files.
    FourcoreReplay,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PrefetchSweep,
        Workload::SmtSweep,
        Workload::FourcoreReplay,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PrefetchSweep => "prefetch_sweep",
            Workload::SmtSweep => "smt_sweep",
            Workload::FourcoreReplay => "fourcore_replay",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Simulated length of one arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Instructions per `prefetch_sweep` arm.
    pub mem_instr: u64,
    /// Commits per thread per `smt_sweep` arm.
    pub smt_commits: u64,
    /// Instructions per core per `fourcore_replay` arm.
    pub fourcore_instr: u64,
}

impl Size {
    /// The benchmark's size: one untraced pass of each workload takes a few
    /// seconds on a 2-core host.
    pub const FULL: Size = Size {
        mem_instr: 300_000,
        smt_commits: 36_000,
        fourcore_instr: 40_000,
    };

    /// Every length divided by `by` (the set-up warm-up runs at 1/32).
    pub fn divided(self, by: u64) -> Size {
        Size {
            mem_instr: (self.mem_instr / by).max(1),
            smt_commits: (self.smt_commits / by).max(1),
            fourcore_instr: (self.fourcore_instr / by).max(1),
        }
    }
}

/// An SMT fetch controller, as Table 9 lines them up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ctl {
    /// One of the six Bandit arms, held fixed, with Hill Climbing.
    Static(PgPolicy),
    /// The Choi policy.
    Choi,
    /// The Bandit with the scaled step lengths.
    Bandit(AlgorithmKind),
}

impl Ctl {
    /// The controller as the program's runners take it.
    pub fn build(self, seed: u64) -> Box<dyn PgController> {
        match self {
            Ctl::Static(policy) => Box::new(StaticPgController::new(policy)),
            Ctl::Choi => Box::new(ChoiController::new()),
            Ctl::Bandit(kind) => Box::new(smt_runs::scaled_bandit(kind, seed)),
        }
    }
}

/// The Bandit algorithms of `smt_sweep`, with Table 9's hyperparameters.
pub const SMT_BANDITS: [(&str, AlgorithmKind); 3] = [
    ("egreedy", AlgorithmKind::EpsilonGreedy { epsilon: 0.1 }),
    ("ucb", AlgorithmKind::Ucb { c: 0.01 }),
    (
        "ducb",
        AlgorithmKind::Ducb {
            gamma: 0.975,
            c: 0.01,
        },
    ),
];

/// What one arm simulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArmKind {
    /// One app single-core with a named L2 prefetcher.
    Mem(&'static str),
    /// One two-thread mix under a fetch controller.
    Smt(Ctl),
    /// One app on all four cores with a named L2 prefetcher.
    Four(&'static str),
}

/// The arm's part in the modelled Bandit speed-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The reference: no prefetching, or Choi on `smt_sweep`.
    Reference,
    /// The paper's Bandit configuration.
    Bandit,
    /// Any other arm.
    Other,
}

/// One simulation run of a batch.
#[derive(Debug, Clone)]
pub struct Arm {
    /// `<app or mix>/<prefetcher or controller>`, the key of its reference
    /// digest.
    pub label: String,
    /// Index of its app or mix; all arms of a group share an input seed.
    pub group: usize,
    /// What it simulates.
    pub kind: ArmKind,
    /// Its part in the Bandit speed-up.
    pub role: Role,
}

/// Modelled statistics an arm reports to the layer table.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Model {
    /// Shared-LLC demand misses.
    pub llc_misses: u64,
    /// DRAM line transfers.
    pub dram_transfers: u64,
    /// Summed DRAM queueing delay, in cycles.
    pub dram_queue_cycles: f64,
    /// Prefetches issued.
    pub pf_issued: u64,
    /// Timely prefetches.
    pub pf_timely: u64,
    /// Rename-stage cycles stalled on a full structure.
    pub rename_stalled: u64,
    /// Rename-stage cycles classified.
    pub rename_cycles: u64,
}

/// Host time of a traced arm, by layer.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Layers {
    /// Time in `System::run`/`run_multi` or `SmtPipeline::run_with`.
    pub run_ns: u64,
    /// Time in `TraceStore::mem_source`, which decodes a replayed file.
    pub open_ns: u64,
    /// The wrapped input streams.
    pub input: InputTally,
    /// The wrapped prefetchers.
    pub pf: PfTally,
    /// Fetch-controller epochs.
    pub ctl_epochs: u64,
    /// Time in the fetch controller's `on_epoch`.
    pub ctl_ns: u64,
    /// Bandit steps of the SMT Bandit controller.
    pub ctl_bandit_steps: u64,
}

/// What one arm produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmOut {
    /// Digest of its simulated statistics.
    pub digest: u64,
    /// Simulated instructions (memsim) or commits (smtsim), all cores.
    pub instr: u64,
    /// Simulated cycles, summed over cores.
    pub cycles: u64,
    /// Summed IPC over cores or threads.
    pub ipc: f64,
    /// Modelled statistics.
    pub model: Model,
    /// Layer times, on a traced pass.
    pub layers: Option<Layers>,
}

/// One arm of a pass, as the runner executed it.
#[derive(Debug, Clone)]
pub struct ArmRecord {
    /// `None` when the arm panicked.
    pub out: Option<ArmOut>,
    /// Start, relative to the pass start.
    pub start_ns: u64,
    /// End, relative to the pass start.
    pub end_ns: u64,
    /// The worker thread that ran it.
    pub worker: Option<ThreadId>,
}

/// One `mab_runner::sweep` call of a pass.
#[derive(Debug, Clone)]
pub struct SweepTiming {
    /// Call, relative to the pass start.
    pub start_ns: u64,
    /// Return, relative to the pass start.
    pub end_ns: u64,
    /// Worker threads the sweep could use.
    pub workers: usize,
    /// Its arms, as indices into the pass.
    pub arms: Range<usize>,
}

/// One pass over every arm of a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Whether the timing decorators were in place.
    pub traced: bool,
    /// Wall time of the pass.
    pub wall_ns: u64,
    /// Process CPU time (user + system) of the pass.
    pub cpu_ns: u64,
    /// Every arm, in arm order.
    pub arms: Vec<ArmRecord>,
    /// Every sweep, in call order.
    pub sweeps: Vec<SweepTiming>,
}

/// Input seed of each group: drawn from `1..=POOL` by the workload seed,
/// with a splitmix64 step of the benchmark's own so that the draw never
/// depends on the code under test.
pub fn group_seeds(workload: Workload, seed: u64) -> Vec<u64> {
    (0..group_count(workload) as u64)
        .map(|g| {
            let mut z = seed ^ g.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            1 + (z ^ (z >> 31)) % POOL
        })
        .collect()
}

fn group_count(workload: Workload) -> usize {
    match workload {
        Workload::PrefetchSweep | Workload::FourcoreReplay => suites::all_apps().len(),
        Workload::SmtSweep => smt_mixes().len(),
    }
}

/// Every other two-thread mix of the SMT tune set: 23 of its 45 mixes, so
/// that each of the 10 tune-set apps appears and a pass stays a few seconds
/// long at a length where the Bandits finish their round-robin phase.
fn smt_mixes() -> Vec<[ThreadSpec; 2]> {
    smt::two_thread_mixes(&smt::smt_tune_apps())
        .into_iter()
        .step_by(2)
        .map(|(a, b)| [a, b])
        .collect()
}

/// Everything needed to run passes of one workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Arm length.
    pub size: Size,
    /// Worker threads for the parallel sweeps.
    pub jobs: usize,
    /// Input seed per group.
    pub seeds: Vec<u64>,
    /// Every arm, in execution order.
    pub arms: Vec<Arm>,
    apps: Vec<AppSpec>,
    mixes: Vec<[ThreadSpec; 2]>,
    sweeps: Vec<Range<usize>>,
    store: TraceStore,
    trace_dir: Option<PathBuf>,
}

impl Plan {
    /// Builds the arms of `workload`. `seeds` holds one input seed per app
    /// or mix (see [`group_seeds`]). `trace_dir` is where
    /// `fourcore_replay` records its inputs; the other workloads ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` does not hold one seed per group, or if
    /// `fourcore_replay` gets no trace directory.
    pub fn new(
        workload: Workload,
        size: Size,
        jobs: usize,
        seeds: Vec<u64>,
        trace_dir: Option<PathBuf>,
    ) -> Plan {
        assert_eq!(seeds.len(), group_count(workload), "one seed per group");
        let mut apps = Vec::new();
        let mut mixes = Vec::new();
        let mut arms = Vec::new();
        let mut sweeps = Vec::new();
        let mem_arms = |arms: &mut Vec<Arm>, group: usize, app: &AppSpec, four: bool| {
            let lineup = if four { FOURCORE_LINEUP } else { LINEUP };
            for pf in lineup {
                let role = match pf {
                    "none" => Role::Reference,
                    "bandit" | "bandit-multicore" => Role::Bandit,
                    _ => Role::Other,
                };
                arms.push(Arm {
                    label: format!("{}/{pf}", app.name),
                    group,
                    kind: if four {
                        ArmKind::Four(pf)
                    } else {
                        ArmKind::Mem(pf)
                    },
                    role,
                });
            }
        };
        match workload {
            Workload::PrefetchSweep => {
                // One sweep per suite, as Fig. 8 runs them.
                for suite in Suite::ALL {
                    let first = arms.len();
                    for app in suites::suite(suite) {
                        mem_arms(&mut arms, apps.len(), &app, false);
                        apps.push(app);
                    }
                    sweeps.push(first..arms.len());
                }
            }
            Workload::SmtSweep => {
                // One sweep per mix: 6 static arms, Choi and three Bandits.
                for (group, mix) in smt_mixes().into_iter().enumerate() {
                    let first = arms.len();
                    let name = format!("{}+{}", mix[0].name, mix[1].name);
                    let mut push = |ctl: &str, kind: Ctl, role: Role| {
                        arms.push(Arm {
                            label: format!("{name}/{ctl}"),
                            group,
                            kind: ArmKind::Smt(kind),
                            role,
                        });
                    };
                    for (i, policy) in PgPolicy::bandit_arms().into_iter().enumerate() {
                        push(&format!("static{i}"), Ctl::Static(policy), Role::Other);
                    }
                    push("choi", Ctl::Choi, Role::Reference);
                    for (ctl, kind) in SMT_BANDITS {
                        let role = if ctl == "ducb" {
                            Role::Bandit
                        } else {
                            Role::Other
                        };
                        push(ctl, Ctl::Bandit(kind), role);
                    }
                    sweeps.push(first..arms.len());
                    mixes.push(mix);
                }
            }
            Workload::FourcoreReplay => {
                assert!(trace_dir.is_some(), "fourcore_replay replays from files");
                for app in suites::all_apps() {
                    mem_arms(&mut arms, apps.len(), &app, true);
                    apps.push(app);
                }
                sweeps.push(0..arms.len());
            }
        }
        let store = match workload {
            Workload::FourcoreReplay => TraceStore::new(trace_dir.clone()),
            _ => TraceStore::disabled(),
        };
        Plan {
            workload,
            size,
            jobs,
            seeds,
            arms,
            apps,
            mixes,
            sweeps,
            store,
            trace_dir,
        }
    }

    /// The same plan at another arm length, sharing the trace store.
    pub fn resized(&self, size: Size) -> Plan {
        Plan {
            size,
            ..self.clone()
        }
    }

    /// The same plan with inputs streamed from the generators instead of
    /// replayed from files.
    pub fn generated(&self) -> Plan {
        Plan {
            store: TraceStore::disabled(),
            ..self.clone()
        }
    }

    /// Records every input file `fourcore_replay` replays (the trace write
    /// path). Returns `(records, bytes)` written; `(0, 0)` for the other
    /// workloads.
    pub fn record_inputs(&self) -> (u64, u64) {
        let Some(dir) = &self.trace_dir else {
            return (0, 0);
        };
        if self.workload != Workload::FourcoreReplay {
            return (0, 0);
        }
        let n = self.size.fourcore_instr;
        let mut records = 0;
        for (group, app) in self.apps.iter().enumerate() {
            for core in 0..FOURCORE_CORES as u64 {
                self.store.ensure_mem(app, self.seeds[group] + core, n);
                records += n;
            }
        }
        let bytes = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        (records, bytes)
    }

    /// The worker count a sweep of this workload runs with: `fourcore_replay`
    /// is the serial single-run path.
    pub fn sweep_jobs(&self) -> usize {
        match self.workload {
            Workload::FourcoreReplay => 1,
            _ => self.jobs,
        }
    }

    /// Runs every arm once through `mab_runner::sweep`, with the timing
    /// decorators in place when `traced`. A panicking arm is recorded as
    /// failed and the pass goes on.
    pub fn run_pass(&self, traced: bool) -> Pass {
        let pass_start = Instant::now();
        let cpu_start = crate::host::cpu_ns();
        let since = |t: Instant| nanos(t.duration_since(pass_start));
        let mut arms = Vec::with_capacity(self.arms.len());
        let mut sweeps = Vec::with_capacity(self.sweeps.len());
        let jobs = self.sweep_jobs();
        for range in &self.sweeps {
            let indices: Vec<usize> = range.clone().collect();
            let start_ns = since(Instant::now());
            let result = mab_runner::sweep(
                &indices,
                mab_runner::SweepOptions::new(jobs, 0),
                |_ctx, &i| {
                    let start = Instant::now();
                    let out = catch_unwind(AssertUnwindSafe(|| self.run_arm(i, traced))).ok();
                    ArmRecord {
                        out,
                        start_ns: since(start),
                        end_ns: since(Instant::now()),
                        worker: Some(std::thread::current().id()),
                    }
                },
            );
            let end_ns = since(Instant::now());
            match result {
                Ok(records) => arms.extend(records),
                Err(_) => arms.extend(range.clone().map(|_| ArmRecord {
                    out: None,
                    start_ns,
                    end_ns,
                    worker: None,
                })),
            }
            sweeps.push(SweepTiming {
                start_ns,
                end_ns,
                workers: if jobs <= 1 || range.len() <= 1 {
                    1
                } else {
                    jobs.min(range.len())
                },
                arms: range.clone(),
            });
        }
        Pass {
            traced,
            wall_ns: since(Instant::now()),
            cpu_ns: crate::host::cpu_ns().saturating_sub(cpu_start),
            arms,
            sweeps,
        }
    }

    /// Runs arm `i`.
    ///
    /// # Panics
    ///
    /// Panics when the simulation does.
    pub fn run_arm(&self, i: usize, traced: bool) -> ArmOut {
        let arm = &self.arms[i];
        let seed = self.seeds[arm.group];
        let cfg = SystemConfig::default();
        match arm.kind {
            ArmKind::Mem(pf) => {
                let app = &self.apps[arm.group];
                let n = self.size.mem_instr;
                if traced {
                    let (stats, layers) = self.traced_mem(app, pf, seed, 1, n);
                    mem_out(&stats, Some(layers))
                } else {
                    let stats = prefetch_runs::run_single(pf, app, cfg, n, seed, &self.store);
                    mem_out(&[stats], None)
                }
            }
            ArmKind::Four(pf) => {
                let app = &self.apps[arm.group];
                let n = self.size.fourcore_instr;
                if traced {
                    let (stats, layers) = self.traced_mem(app, pf, seed, FOURCORE_CORES, n);
                    mem_out(&stats, Some(layers))
                } else {
                    let stats = prefetch_runs::run_four_core_homogeneous(
                        pf,
                        app,
                        cfg,
                        n,
                        seed,
                        &self.store,
                    );
                    mem_out(&stats, None)
                }
            }
            ArmKind::Smt(ctl) => {
                let specs = self.mixes[arm.group].clone();
                let params = smt_runs::scaled_params();
                let n = self.size.smt_commits;
                if traced {
                    let (stats, layers) = self.traced_smt(ctl, specs, seed, n);
                    smt_out(&stats, Some(layers))
                } else {
                    let stats =
                        smt_runs::run_mix(ctl.build(seed), specs, params, n, seed, &self.store);
                    smt_out(&stats, None)
                }
            }
        }
    }

    /// `prefetch_runs::run_single` (one core) or
    /// `run_four_core_homogeneous`, rebuilt with timed prefetchers and
    /// inputs.
    fn traced_mem(
        &self,
        app: &AppSpec,
        pf: &str,
        seed: u64,
        cores: usize,
        n: u64,
    ) -> (Vec<RunStats>, Layers) {
        let pf_sink: Sink<PfTally> = Sink::default();
        let input_sink: Sink<InputTally> = Sink::default();
        let mut system = System::multi_core(SystemConfig::default(), cores);
        for core in 0..cores {
            let inner = Pf::build(pf, seed + core as u64);
            system.set_prefetcher(core, Box::new(TimedPf::new(inner, pf_sink.clone())));
        }
        let open = Instant::now();
        let sources: Vec<_> = (0..cores)
            .map(|core| self.store.mem_source(app, seed + core as u64, n))
            .collect();
        let open_ns = nanos(open.elapsed());
        let mut inputs: Vec<_> = sources
            .into_iter()
            .map(|s| TimedIter::new(s, input_sink.clone()))
            .collect();
        let mut dyn_inputs: Vec<&mut dyn Iterator<Item = TraceRecord>> = inputs
            .iter_mut()
            .map(|t| t as &mut dyn Iterator<Item = TraceRecord>)
            .collect();
        let run = Instant::now();
        let stats = if cores == 1 {
            vec![system.run(dyn_inputs[0], n)]
        } else {
            system.run_multi(&mut dyn_inputs, n)
        };
        let run_ns = nanos(run.elapsed());
        drop(dyn_inputs);
        drop(inputs);
        drop(system);
        let layers = Layers {
            run_ns,
            open_ns,
            input: read(&input_sink),
            pf: read(&pf_sink),
            ..Layers::default()
        };
        (stats, layers)
    }

    /// `smt_runs::run_mix`, rebuilt with a timed controller and inputs.
    fn traced_smt(
        &self,
        ctl: Ctl,
        specs: [ThreadSpec; 2],
        seed: u64,
        n: u64,
    ) -> (SmtStats, Layers) {
        let input_sink: Sink<InputTally> = Sink::default();
        let wrap = |stream: SmtStream| -> SmtStream {
            match stream {
                SmtStream::Generated(g) => {
                    SmtStream::Boxed(Box::new(TimedIter::new(g, input_sink.clone())))
                }
                SmtStream::Boxed(b) => {
                    SmtStream::Boxed(Box::new(TimedIter::new(b, input_sink.clone())))
                }
            }
        };
        let streams = [
            wrap(self.store.smt_stream(&specs[0], seed, n)),
            wrap(
                self.store
                    .smt_stream(&specs[1], seed.wrapping_add(THREAD1_SEED_SALT), n),
            ),
        ];
        let mut pipe = SmtPipeline::with_streams(smt_runs::scaled_params(), streams);
        let (stats, mut layers) = match ctl {
            Ctl::Bandit(kind) => {
                timed_run(&mut pipe, Box::new(smt_runs::scaled_bandit(kind, seed)), n)
            }
            other => timed_run(&mut pipe, other.build(seed), n),
        };
        drop(pipe);
        layers.input = read(&input_sink);
        (stats, layers)
    }

    /// The Bandit speed-up of one pass: the geometric mean over apps or
    /// mixes of Bandit IPC over reference IPC. Groups with a failed arm are
    /// left out; 0 when every group failed.
    pub fn bandit_speedup(&self, arms: &[ArmRecord]) -> f64 {
        let groups = self.seeds.len();
        let mut reference = vec![None; groups];
        let mut bandit = vec![None; groups];
        for (arm, record) in self.arms.iter().zip(arms) {
            let slot = match arm.role {
                Role::Reference => &mut reference,
                Role::Bandit => &mut bandit,
                Role::Other => continue,
            };
            slot[arm.group] = record.out.map(|o| o.ipc);
        }
        let ratios: Vec<f64> = reference
            .iter()
            .zip(&bandit)
            .filter_map(|(r, b)| Some(b.as_ref()? / r.as_ref()?.max(1e-9)))
            .collect();
        if ratios.is_empty() {
            return 0.0;
        }
        (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
    }
}

fn read<T: Copy>(sink: &Sink<T>) -> T {
    *sink.lock().unwrap_or_else(|e| e.into_inner())
}

fn timed_run<C>(pipe: &mut SmtPipeline, ctl: Box<C>, n: u64) -> (SmtStats, Layers)
where
    C: PgController + BanditSteps + ?Sized,
{
    let mut ctl = TimedCtl::new(ctl);
    let run = Instant::now();
    let stats = pipe.run_with(&mut ctl, n);
    let run_ns = nanos(run.elapsed());
    let layers = Layers {
        run_ns,
        ctl_epochs: ctl.epochs,
        ctl_ns: ctl.ns,
        ctl_bandit_steps: ctl.inner.bandit_steps(),
        ..Layers::default()
    };
    (stats, layers)
}

fn mem_out(stats: &[RunStats], layers: Option<Layers>) -> ArmOut {
    // The LLC and DRAM are shared: every core reports the same totals.
    let shared = stats[0];
    ArmOut {
        digest: digest::runs(stats),
        instr: stats.iter().map(|s| s.instructions).sum(),
        cycles: stats.iter().map(|s| s.cycles).sum(),
        ipc: stats.iter().map(RunStats::ipc).sum(),
        model: Model {
            llc_misses: shared.llc.demand_misses,
            dram_transfers: shared.dram.transfers,
            dram_queue_cycles: shared.dram.total_queue_delay,
            pf_issued: stats.iter().map(|s| s.prefetch.issued).sum(),
            pf_timely: stats.iter().map(|s| s.prefetch.timely).sum(),
            ..Model::default()
        },
        layers,
    }
}

fn smt_out(stats: &SmtStats, layers: Option<Layers>) -> ArmOut {
    ArmOut {
        digest: digest::smt(stats),
        instr: stats.commits[0] + stats.commits[1],
        cycles: stats.cycles,
        ipc: stats.sum_ipc(),
        model: Model {
            rename_stalled: stats.rename.stalled(),
            rename_cycles: stats.rename.total(),
            ..Model::default()
        },
        layers,
    }
}
