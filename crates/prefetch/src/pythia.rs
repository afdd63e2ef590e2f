//! Pythia — a customizable MDP-RL (SARSA) prefetcher (Bera et al.,
//! MICRO 2021), reimplemented in simplified form.
//!
//! Pythia decomposes the environment into states built from program features
//! (here: `PC ⊕ last delta`, and the recent delta history), tracks a Q-value
//! per state/action pair in a feature-hashed QVStore, selects actions
//! ε-greedily, and assigns rewards based on prefetch usefulness and
//! timeliness (not IPC — the contrast §7.2.1 draws against Bandit).
//!
//! The action space matches the paper's description of Pythia: 16 offsets ×
//! 4 degrees = 64 actions (one offset is "no prefetch").

use mab_memsim::{L2Access, LineHashBuilder, PrefetchQueue, Prefetcher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// The 16 prefetch offsets (0 = no prefetch).
pub const OFFSETS: [i64; 16] = [0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, -1, -2, -3, -4];
/// The 4 prefetch degrees.
pub const DEGREES: [u32; 4] = [1, 2, 3, 4];
/// Total actions (paper: 64).
pub const ACTIONS: usize = OFFSETS.len() * DEGREES.len();

/// Rows per feature table in the QVStore.
const TABLE_ROWS: usize = 1024;
/// Learning rate α.
const ALPHA: f64 = 0.10;
/// Discount γ.
const GAMMA: f64 = 0.55;
/// Exploration probability.
const EPSILON: f64 = 0.01;
/// Rewards: accurate & timely, accurate but late, wrong, and the immediate
/// no-prefetch rewards on hit/miss.
const R_TIMELY: f64 = 20.0;
const R_LATE: f64 = 12.0;
const R_WRONG: f64 = -12.0;
const R_NP_HIT: f64 = 4.0;
const R_NP_MISS: f64 = -2.0;
/// Outstanding prefetches tracked for reward assignment.
const TRACK_CAPACITY: usize = 2048;
/// Mild negative reward when a tracked prefetch ages out with no outcome
/// (it has not been used for a long time — treat as not useful). Without
/// this, most prefetches in large caches would never produce any feedback
/// and the agent could not learn.
const R_AGED_OUT: f64 = -4.0;

#[derive(Debug, Clone, Copy)]
struct StateAction {
    f1: usize,
    f2: usize,
    action: usize,
}

/// The Pythia prefetcher.
///
/// # Example
///
/// ```
/// use mab_memsim::{L2Access, PrefetchQueue, Prefetcher};
/// use mab_prefetch::Pythia;
/// use mab_workloads::MemKind;
///
/// let mut pythia = Pythia::new(7);
/// let mut q = PrefetchQueue::new();
/// for line in 0..100u64 {
///     pythia.train(&L2Access { pc: 0x400, line, hit: false, cycle: 0, instructions: 0, kind: MemKind::Load }, &mut q);
/// }
/// assert_eq!(pythia.action_histogram().len(), 64);
/// ```
pub struct Pythia {
    q1: Vec<[f32; ACTIONS]>,
    q2: Vec<[f32; ACTIONS]>,
    rng: StdRng,
    /// Per-PC last line (direct-mapped), so the delta feature tracks each
    /// instruction's own stream instead of cross-stream noise.
    last_line_per_pc: Box<[(u64, u64); 64]>,
    deltas: [i64; 3],
    last: Option<StateAction>,
    /// Outstanding prefetched lines awaiting an outcome.
    tracked: HashMap<u64, StateAction, LineHashBuilder>,
    tracked_order: VecDeque<u64>,
    action_counts: Vec<u64>,
}

impl std::fmt::Debug for Pythia {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pythia")
            .field("tracked", &self.tracked.len())
            .finish()
    }
}

impl Pythia {
    /// Creates a Pythia prefetcher seeded for its ε-greedy exploration.
    pub fn new(seed: u64) -> Self {
        Pythia {
            q1: vec![[0.0; ACTIONS]; TABLE_ROWS],
            q2: vec![[0.0; ACTIONS]; TABLE_ROWS],
            rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9),
            last_line_per_pc: Box::new([(0, 0); 64]),
            deltas: [0; 3],
            last: None,
            tracked: HashMap::default(),
            tracked_order: VecDeque::new(),
            action_counts: vec![0; ACTIONS],
        }
    }

    /// Paper-reported storage of the hardware Pythia design: 25.5 KB total,
    /// 24 KB of which is the (quantized) QVStore (§7.2.1). The simulation
    /// model uses full-precision tables; the hardware figure is what the
    /// storage comparison reports.
    pub fn storage_bytes() -> usize {
        25 * 1024 + 512
    }

    /// Per-action selection counts — the data behind the paper's Fig. 2
    /// temporal-homogeneity analysis.
    pub fn action_histogram(&self) -> &[u64] {
        &self.action_counts
    }

    /// Decodes an action index into `(offset, degree)`.
    pub fn decode_action(action: usize) -> (i64, u32) {
        (
            OFFSETS[action / DEGREES.len()],
            DEGREES[action % DEGREES.len()],
        )
    }

    fn hash(x: u64) -> u64 {
        let mut h = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }

    fn features(&self, pc: u64) -> (usize, usize) {
        let d = self.deltas;
        let f1 = Pythia::hash(pc ^ (d[0] as u64).wrapping_mul(31)) as usize % TABLE_ROWS;
        let f2 = Pythia::hash(
            (d[0] as u64)
                .wrapping_mul(1_000_003)
                .wrapping_add((d[1] as u64).wrapping_mul(10_007))
                .wrapping_add(d[2] as u64),
        ) as usize
            % TABLE_ROWS;
        (f1, f2)
    }

    fn q(&self, f1: usize, f2: usize, action: usize) -> f64 {
        (self.q1[f1][action] + self.q2[f2][action]) as f64
    }

    fn select_action(&mut self, f1: usize, f2: usize) -> usize {
        if self.rng.gen::<f64>() < EPSILON {
            return self.rng.gen_range(0..ACTIONS);
        }
        let mut best = 0;
        let mut best_q = f64::NEG_INFINITY;
        for a in 0..ACTIONS {
            let q = self.q(f1, f2, a);
            if q > best_q {
                best_q = q;
                best = a;
            }
        }
        best
    }

    /// SARSA update: `Q(s,a) += α (r + γ Q(s',a') − Q(s,a))`, where
    /// `(s',a')` is the most recent state/action at reward-assignment time.
    fn update(&mut self, sa: StateAction, reward: f64) {
        let next_q = self.last.map_or(0.0, |n| self.q(n.f1, n.f2, n.action));
        let current = self.q(sa.f1, sa.f2, sa.action);
        let delta = ALPHA * (reward + GAMMA * next_q - current);
        // Split the update across the two feature tables.
        self.q1[sa.f1][sa.action] += (delta / 2.0) as f32;
        self.q2[sa.f2][sa.action] += (delta / 2.0) as f32;
    }

    fn track(&mut self, line: u64, sa: StateAction) {
        let Entry::Vacant(slot) = self.tracked.entry(line) else {
            return;
        };
        slot.insert(sa);
        self.tracked_order.push_back(line);
        while self.tracked.len() > TRACK_CAPACITY {
            if let Some(old) = self.tracked_order.pop_front() {
                if let Some(sa) = self.tracked.remove(&old) {
                    self.update(sa, R_AGED_OUT);
                }
            }
        }
    }

    fn resolve(&mut self, line: u64, reward: f64) {
        if let Some(sa) = self.tracked.remove(&line) {
            self.update(sa, reward);
        }
    }
}

impl Prefetcher for Pythia {
    fn name(&self) -> &str {
        "pythia"
    }

    fn train(&mut self, access: &L2Access, queue: &mut PrefetchQueue) {
        let slot = (Pythia::hash(access.pc) % 64) as usize;
        let (tag, last_line) = self.last_line_per_pc[slot];
        let delta = if tag == access.pc {
            access.line as i64 - last_line as i64
        } else {
            0
        };
        self.last_line_per_pc[slot] = (access.pc, access.line);
        self.deltas = [delta.clamp(-4096, 4096), self.deltas[0], self.deltas[1]];

        let (f1, f2) = self.features(access.pc);
        let action = self.select_action(f1, f2);
        self.action_counts[action] += 1;
        let sa = StateAction { f1, f2, action };
        let (offset, degree) = Pythia::decode_action(action);

        if offset == 0 {
            // Immediate reward for choosing not to prefetch.
            let reward = if access.hit { R_NP_HIT } else { R_NP_MISS };
            self.update(sa, reward);
        } else {
            for k in 1..=degree as i64 {
                let target = access.line as i64 + offset * k;
                if target >= 0 {
                    queue.push(target as u64);
                    self.track(target as u64, sa);
                }
            }
        }
        self.last = Some(sa);
    }

    fn on_prefetch_used(&mut self, line: u64, _cycle: u64) {
        self.resolve(line, R_TIMELY);
    }

    fn on_prefetch_late(&mut self, line: u64, _cycle: u64) {
        self.resolve(line, R_LATE);
    }

    fn on_prefetch_evicted_unused(&mut self, line: u64) {
        self.resolve(line, R_WRONG);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mab_workloads::MemKind;

    fn access(pc: u64, line: u64, hit: bool) -> L2Access {
        L2Access {
            pc,
            line,
            hit,
            cycle: 0,
            instructions: 0,
            kind: MemKind::Load,
        }
    }

    #[test]
    fn action_space_is_sixty_four() {
        assert_eq!(ACTIONS, 64);
        assert_eq!(Pythia::decode_action(0), (0, 1));
        let (o, d) = Pythia::decode_action(ACTIONS - 1);
        assert_eq!((o, d), (-4, 4));
    }

    /// Drives Pythia over a stream and simulates the memory system's
    /// feedback: every prefetch within +1..+4 of the stream front is "used".
    fn drive_stream(p: &mut Pythia, n: u64) {
        let mut q = PrefetchQueue::new();
        for line in 0..n {
            p.train(&access(0x400, line, false), &mut q);
            for target in q.drain().collect::<Vec<_>>() {
                if target > line && target <= line + 8 {
                    p.on_prefetch_used(target, 0);
                } else {
                    p.on_prefetch_evicted_unused(target);
                }
            }
        }
    }

    #[test]
    fn learns_to_prefetch_on_a_stream() {
        let mut p = Pythia::new(1);
        drive_stream(&mut p, 20_000);
        // After training, the no-prefetch actions should not dominate:
        // forward offsets accumulate positive Q via the +20 rewards.
        let counts = p.action_histogram();
        let np: u64 = (0..DEGREES.len()).map(|d| counts[d]).sum();
        let total: u64 = counts.iter().sum();
        assert!(
            (np as f64) < 0.5 * total as f64,
            "no-prefetch fraction too high: {np}/{total}"
        );
    }

    #[test]
    fn action_histogram_is_concentrated_on_streams() {
        // The temporal-homogeneity property of Fig. 2: a regular workload
        // concentrates Pythia's selections on few actions.
        let mut p = Pythia::new(2);
        drive_stream(&mut p, 30_000);
        let mut counts: Vec<u64> = p.action_histogram().to_vec();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top2: u64 = counts.iter().take(2).sum();
        assert!(
            top2 as f64 / total as f64 > 0.5,
            "top-2 fraction {}",
            top2 as f64 / total as f64
        );
    }

    #[test]
    fn wrong_prefetches_are_punished() {
        let mut p = Pythia::new(3);
        let mut q = PrefetchQueue::new();
        // Random accesses; every prefetch is wrong.
        for i in 0..10_000u64 {
            let line = (i * 7919) % 1_000_000;
            p.train(&access(0x400, line, false), &mut q);
            for target in q.drain().collect::<Vec<_>>() {
                p.on_prefetch_evicted_unused(target);
            }
        }
        // Pythia should mostly stop prefetching (select offset 0).
        let mut q2 = PrefetchQueue::new();
        let mut issued = 0;
        for i in 0..1000u64 {
            let line = (i * 104729) % 1_000_000;
            p.train(&access(0x400, line, false), &mut q2);
            issued += q2.drain().count();
        }
        assert!(issued < 1500, "still issuing {issued} prefetches");
    }

    #[test]
    fn tracked_set_is_bounded() {
        let mut p = Pythia::new(4);
        let mut q = PrefetchQueue::new();
        for line in 0..50_000u64 {
            p.train(&access(0x400, line * 3, false), &mut q);
            q.drain().count();
        }
        assert!(p.tracked.len() <= TRACK_CAPACITY);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut p = Pythia::new(seed);
            drive_stream(&mut p, 5000);
            p.action_histogram().to_vec()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
