//! MLOP — Multi-Lookahead Offset Prefetching (Shakerinava et al., DPC-3),
//! reimplemented in simplified form.
//!
//! MLOP scores candidate *offsets*: an offset `o` earns a point whenever the
//! line `X − o` of the current access `X` was itself accessed recently (i.e.
//! prefetching `X' + o` at time of `X'` would have been useful). Every
//! evaluation epoch the best-scoring offsets are (re)selected, and each
//! access then prefetches with all selected offsets.
//!
//! The recent-access window is kept the way a hardware table would keep it:
//! a fixed ring of the last 1024 lines, a reference count per line,
//! and a presence bitmap per 64-line block that changes only when a line's
//! count goes 0↔1. Every candidate source `X − o` (`|o| ≤ 32`) lies in the
//! two blocks covering `[X − 32, X + 32]`, so scoring all 30 candidates
//! costs two block lookups and a bit test each.

use mab_memsim::{L2Access, LineHashBuilder, PrefetchQueue, Prefetcher};
use std::cmp::Reverse;
use std::collections::HashMap;

/// Candidate offsets, in lines.
const CANDIDATES: [i64; 30] = [
    1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 32, -1, -2, -3, -4, -5, -6, -7, -8, -10, -12,
    -14, -16, -20, -24, -32,
];
/// The largest candidate distance `|o|`.
const REACH: i64 = 32;
/// Per candidate, the bit of the scoring window (bit `j` ↔ line
/// `X − REACH + j`) that holds its source line `X − o`.
const SOURCE_BITS: [u32; CANDIDATES.len()] = {
    let mut bits = [0; CANDIDATES.len()];
    let mut i = 0;
    while i < CANDIDATES.len() {
        let o = CANDIDATES[i];
        assert!(o != 0 && -REACH <= o && o <= REACH);
        bits[i] = (REACH - o) as u32;
        i += 1;
    }
    bits
};
/// Accesses per evaluation epoch.
const EPOCH_ACCESSES: u32 = 512;
/// Recent-access window used for scoring (lines).
const WINDOW: usize = 1024;
/// Lines per presence block (one `u64` bitmap).
const BLOCK_LINES: u64 = 64;
/// Maximum offsets selected per epoch (the "multi-lookahead" degree).
const MAX_SELECTED: usize = 3;
/// Minimum score (fraction of the epoch) for an offset to be selected.
const MIN_SCORE_FRAC: f64 = 0.15;

/// The MLOP prefetcher.
///
/// Its state has a fixed size whatever the run length: the 1024-line ring
/// and two line-hashed maps, each allocated up front for one window of
/// keys.
///
/// # Example
///
/// ```
/// use mab_memsim::{L2Access, PrefetchQueue, Prefetcher};
/// use mab_prefetch::Mlop;
/// use mab_workloads::MemKind;
///
/// let mut mlop = Mlop::new();
/// let mut q = PrefetchQueue::new();
/// for line in 0..2000u64 {
///     mlop.train(&L2Access { pc: 0, line, hit: false, cycle: 0, instructions: 0, kind: MemKind::Load }, &mut q);
/// }
/// // A pure stream selects offset +1 (and friends) after the first epoch.
/// assert!(mlop.selected_offsets().contains(&1));
/// ```
#[derive(Debug, Clone)]
pub struct Mlop {
    /// The last [`WINDOW`] lines accessed; line `n` of the run sits in slot
    /// `n % WINDOW`.
    ring: Box<[u64]>,
    /// Lines accessed so far.
    accesses: u64,
    /// Occurrences of each line in `ring` (absent when none).
    counts: HashMap<u64, u32, LineHashBuilder>,
    /// Per 64-line block, bit `l % 64` is set iff line `l` is in `ring`
    /// (absent when no bit is set).
    blocks: HashMap<u64, u64, LineHashBuilder>,
    scores: [u32; CANDIDATES.len()],
    epoch_accesses: u32,
    /// Offsets currently selected for prefetching.
    selected: Vec<i64>,
}

impl Default for Mlop {
    fn default() -> Self {
        Mlop::new()
    }
}

impl Mlop {
    /// Creates an MLOP prefetcher with no offsets selected yet.
    pub fn new() -> Self {
        Mlop {
            ring: vec![0; WINDOW].into_boxed_slice(),
            accesses: 0,
            // One key more than the window: `remember` counts the new line
            // before it forgets the one it displaces.
            counts: HashMap::with_capacity_and_hasher(WINDOW + 1, LineHashBuilder::default()),
            blocks: HashMap::with_capacity_and_hasher(WINDOW + 1, LineHashBuilder::default()),
            scores: [0; CANDIDATES.len()],
            epoch_accesses: 0,
            selected: Vec::with_capacity(MAX_SELECTED),
        }
    }

    /// Paper-reported storage of the full MLOP design (§7.2.1).
    pub fn storage_bytes() -> usize {
        8 * 1024
    }

    /// The offsets currently selected for prefetching.
    pub fn selected_offsets(&self) -> &[i64] {
        &self.selected
    }

    /// Presence bitmap of 64-line block `block`.
    #[inline]
    fn block(&self, block: u64) -> u64 {
        self.blocks.get(&block).copied().unwrap_or(0)
    }

    /// Presence of lines `line − 32 ..= line + 32` in the window: bit `j`
    /// is set iff line `line − 32 + j` was accessed recently. Lines below 0
    /// do not exist and read as absent.
    #[inline]
    fn neighbourhood(&self, line: u64) -> u128 {
        match line.checked_sub(REACH as u64) {
            Some(low) => {
                let block = low / BLOCK_LINES;
                let pair = u128::from(self.block(block))
                    | u128::from(self.block(block + 1)) << BLOCK_LINES;
                pair >> (low % BLOCK_LINES)
            }
            // `line + 32 < 64`: block 0 covers the whole range.
            None => u128::from(self.block(0)) << (REACH as u64 - line),
        }
    }

    fn remember(&mut self, line: u64) {
        let count = self.counts.entry(line).or_insert(0);
        *count += 1;
        if *count == 1 {
            *self.blocks.entry(line / BLOCK_LINES).or_insert(0) |= 1 << (line % BLOCK_LINES);
        }
        let slot = (self.accesses % WINDOW as u64) as usize;
        let old = std::mem::replace(&mut self.ring[slot], line);
        if self.accesses >= WINDOW as u64 {
            self.forget(old);
        }
        self.accesses += 1;
    }

    /// Drops one occurrence of `line`, which has left the ring.
    fn forget(&mut self, line: u64) {
        let count = self.counts.get_mut(&line).expect("a ring line is counted");
        *count -= 1;
        if *count > 0 {
            return;
        }
        self.counts.remove(&line);
        let block = line / BLOCK_LINES;
        let bits = self
            .blocks
            .get_mut(&block)
            .expect("a counted line's block is present");
        *bits &= !(1 << (line % BLOCK_LINES));
        if *bits == 0 {
            self.blocks.remove(&block);
        }
    }

    fn end_epoch(&mut self) {
        // Highest score first, then nearest offset; the candidate order
        // breaks the remaining ties (+o before −o), as a stable sort would.
        let scores = self.scores;
        let mut ranked: [usize; CANDIDATES.len()] = std::array::from_fn(|i| i);
        ranked.sort_unstable_by_key(|&i| (Reverse(scores[i]), CANDIDATES[i].abs(), i));
        let threshold = (EPOCH_ACCESSES as f64 * MIN_SCORE_FRAC) as u32;
        self.selected.clear();
        self.selected.extend(
            ranked[..MAX_SELECTED]
                .iter()
                .filter(|&&i| scores[i] >= threshold)
                .map(|&i| CANDIDATES[i]),
        );
        self.scores = [0; CANDIDATES.len()];
        self.epoch_accesses = 0;
    }
}

impl Prefetcher for Mlop {
    fn name(&self) -> &str {
        "mlop"
    }

    fn train(&mut self, access: &L2Access, queue: &mut PrefetchQueue) {
        let line = access.line;
        // Score: would offset o have predicted this access?
        let window = self.neighbourhood(line);
        for (score, bit) in self.scores.iter_mut().zip(SOURCE_BITS) {
            *score += (window >> bit) as u32 & 1;
        }
        self.remember(line);
        self.epoch_accesses += 1;
        if self.epoch_accesses >= EPOCH_ACCESSES {
            self.end_epoch();
        }
        for &o in &self.selected {
            let target = line as i64 + o;
            if target >= 0 {
                queue.push(target as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mab_workloads::MemKind;

    fn access(line: u64) -> L2Access {
        L2Access {
            pc: 0,
            line,
            hit: false,
            cycle: 0,
            instructions: 0,
            kind: MemKind::Load,
        }
    }

    fn drive(m: &mut Mlop, lines: impl Iterator<Item = u64>) -> Vec<u64> {
        let mut q = PrefetchQueue::new();
        let mut all = Vec::new();
        for l in lines {
            m.train(&access(l), &mut q);
            all.extend(q.drain());
        }
        all
    }

    #[test]
    fn selects_plus_one_for_a_stream() {
        let mut m = Mlop::new();
        drive(&mut m, 0..EPOCH_ACCESSES as u64 + 1);
        assert!(
            m.selected_offsets().contains(&1),
            "{:?}",
            m.selected_offsets()
        );
    }

    #[test]
    fn selects_the_dominant_stride() {
        let mut m = Mlop::new();
        drive(&mut m, (0..EPOCH_ACCESSES as u64 + 1).map(|i| i * 4));
        assert!(
            m.selected_offsets().contains(&4),
            "{:?}",
            m.selected_offsets()
        );
    }

    #[test]
    fn random_accesses_select_nothing() {
        let mut m = Mlop::new();
        // Widely spaced lines: no candidate offset ever scores.
        drive(&mut m, (0..EPOCH_ACCESSES as u64 + 1).map(|i| i * 1000));
        assert!(
            m.selected_offsets().is_empty(),
            "{:?}",
            m.selected_offsets()
        );
    }

    #[test]
    fn prefetches_with_selected_offsets() {
        let mut m = Mlop::new();
        drive(&mut m, 0..EPOCH_ACCESSES as u64 + 1);
        let issued = drive(&mut m, [10_000u64].into_iter());
        assert!(issued.contains(&10_001), "{issued:?}");
    }

    #[test]
    fn adapts_when_the_pattern_changes() {
        let mut m = Mlop::new();
        drive(&mut m, 0..EPOCH_ACCESSES as u64 + 1); // stream (+1)
                                                     // Now a descending stream for two epochs.
        drive(
            &mut m,
            (0..2 * EPOCH_ACCESSES as u64 + 1).map(|i| 1_000_000 - i),
        );
        assert!(
            m.selected_offsets().contains(&-1),
            "{:?}",
            m.selected_offsets()
        );
    }

    #[test]
    fn recent_window_is_bounded() {
        let mut m = Mlop::new();
        drive(&mut m, (0..10 * WINDOW as u64).map(|i| i * 7));
        assert_eq!(m.counts.len(), WINDOW);
        assert!(m.blocks.len() <= WINDOW);
    }

    #[test]
    fn window_forgets_lines_and_blocks_that_age_out() {
        let mut m = Mlop::new();
        // One block's worth of lines, then a full window of far-away ones.
        drive(&mut m, 0..BLOCK_LINES);
        drive(&mut m, (0..WINDOW as u64).map(|i| 1_000_000 + 2 * i));
        assert_eq!(m.counts.get(&0), None);
        assert_eq!(m.blocks.get(&0), None);
        assert_eq!(m.neighbourhood(32), 0);
    }

    #[test]
    fn neighbourhood_reads_both_blocks_and_clips_below_zero() {
        let mut m = Mlop::new();
        drive(&mut m, [0u64, 3, 63, 64, 100].into_iter());
        // Only bits 0..=64 are meaningful: lines X − 32 ..= X + 32.
        let meaningful = (1u128 << 65) - 1;
        // Bit j ↔ line 40 − 32 + j: lines 63 and 64, across a block edge.
        assert_eq!(m.neighbourhood(40) & meaningful, 1 << 55 | 1 << 56);
        // Bit j ↔ line 3 − 32 + j: lines 0 and 3; nothing below line 0.
        assert_eq!(m.neighbourhood(3) & meaningful, 1 << 29 | 1 << 32);
    }
}
