//! Reference models: the prefetcher implementations as they were before
//! their tables were rewritten for speed. Each keeps its original data
//! structures (SipHash `HashMap` + `VecDeque` windows, a sorted `Vec` per
//! replay or epoch) and exists only as the baseline of the differential tests in
//! [`crate::differential`].

use mab_memsim::{L2Access, PrefetchQueue, Prefetcher};
use std::collections::{HashMap, VecDeque};

pub mod mlop {
    //! Reference MLOP: `HashMap` window, sorted epoch ranking.
    use super::*;

    /// Candidate offsets, in lines.
    const CANDIDATES: [i64; 30] = [
        1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 32, -1, -2, -3, -4, -5, -6, -7, -8, -10,
        -12, -14, -16, -20, -24, -32,
    ];
    /// Accesses per evaluation epoch.
    const EPOCH_ACCESSES: u32 = 512;
    /// Recent-access window used for scoring (lines).
    const WINDOW: usize = 1024;
    /// Maximum offsets selected per epoch (the "multi-lookahead" degree).
    const MAX_SELECTED: usize = 3;
    /// Minimum score (fraction of the epoch) for an offset to be selected.
    const MIN_SCORE_FRAC: f64 = 0.15;

    #[derive(Debug, Clone)]
    pub struct Mlop {
        /// Recently accessed lines with a reference count.
        recent: HashMap<u64, u32>,
        recent_order: VecDeque<u64>,
        scores: [u32; CANDIDATES.len()],
        epoch_accesses: u32,
        /// Offsets currently selected for prefetching.
        selected: Vec<i64>,
    }

    impl Mlop {
        /// Creates an MLOP prefetcher with no offsets selected yet.
        pub fn new() -> Self {
            Mlop {
                recent: HashMap::new(),
                recent_order: VecDeque::new(),
                scores: [0; CANDIDATES.len()],
                epoch_accesses: 0,
                selected: Vec::new(),
            }
        }

        /// The offsets currently selected for prefetching.
        pub fn selected_offsets(&self) -> &[i64] {
            &self.selected
        }

        fn remember(&mut self, line: u64) {
            *self.recent.entry(line).or_insert(0) += 1;
            self.recent_order.push_back(line);
            while self.recent_order.len() > WINDOW {
                if let Some(old) = self.recent_order.pop_front() {
                    if let Some(count) = self.recent.get_mut(&old) {
                        *count -= 1;
                        if *count == 0 {
                            self.recent.remove(&old);
                        }
                    }
                }
            }
        }

        fn end_epoch(&mut self) {
            let mut ranked: Vec<(u32, i64)> = self
                .scores
                .iter()
                .zip(CANDIDATES)
                .map(|(&s, o)| (s, o))
                .collect();
            ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.abs().cmp(&b.1.abs())));
            let threshold = (EPOCH_ACCESSES as f64 * MIN_SCORE_FRAC) as u32;
            self.selected = ranked
                .into_iter()
                .take(MAX_SELECTED)
                .filter(|&(s, _)| s >= threshold)
                .map(|(_, o)| o)
                .collect();
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
            for (i, &o) in CANDIDATES.iter().enumerate() {
                let source = line as i64 - o;
                if source >= 0 && self.recent.contains_key(&(source as u64)) {
                    self.scores[i] += 1;
                }
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
}

pub mod bingo {
    //! Reference Bingo: SipHash maps, sorted `Vec` per replay.
    use super::*;

    /// Lines per region (2 KB regions as in the Bingo paper).
    const REGION_LINES: u64 = 32;
    /// Concurrently tracked region generations.
    const ACCUM_CAPACITY: usize = 64;
    /// Footprint history capacity (signatures).
    const HISTORY_CAPACITY: usize = 4096;
    /// Maximum lines replayed per trigger (paces full-region footprints).
    const REPLAY_CAP: usize = 12;

    #[derive(Debug, Clone, Copy)]
    struct Generation {
        trigger_sig: u64,
        footprint: u32,
    }

    #[derive(Debug, Clone, Copy)]
    struct HistoryEntry {
        footprint: u32,
        /// Consistent-generation count; replay requires `>= 2` so one noisy
        /// generation cannot trigger useless footprint floods.
        confidence: u8,
    }

    #[derive(Debug, Clone, Default)]
    pub struct Bingo {
        accumulating: HashMap<u64, Generation>,
        accum_order: VecDeque<u64>,
        history: HashMap<u64, HistoryEntry>,
        history_order: VecDeque<u64>,
    }

    impl Bingo {
        /// Creates an empty Bingo prefetcher.
        pub fn new() -> Self {
            Bingo::default()
        }

        fn signature(pc: u64, offset: u64) -> u64 {
            (pc << 6) ^ offset
        }

        fn commit(&mut self, generation: Generation) {
            // Only footprints with some spatial structure are worth remembering.
            if generation.footprint.count_ones() < 2 {
                return;
            }
            match self.history.get_mut(&generation.trigger_sig) {
                Some(entry) => {
                    // Confidence grows only when generations agree.
                    let overlap = (entry.footprint & generation.footprint).count_ones();
                    let union = (entry.footprint | generation.footprint).count_ones();
                    if overlap * 2 >= union {
                        entry.confidence = entry.confidence.saturating_add(1).min(3);
                    } else {
                        entry.confidence = 1;
                    }
                    entry.footprint = generation.footprint;
                }
                None => {
                    self.history_order.push_back(generation.trigger_sig);
                    self.history.insert(
                        generation.trigger_sig,
                        HistoryEntry {
                            footprint: generation.footprint,
                            confidence: 1,
                        },
                    );
                }
            }
            while self.history.len() > HISTORY_CAPACITY {
                if let Some(old) = self.history_order.pop_front() {
                    self.history.remove(&old);
                }
            }
        }
    }

    impl Prefetcher for Bingo {
        fn name(&self) -> &str {
            "bingo"
        }

        fn train(&mut self, access: &L2Access, queue: &mut PrefetchQueue) {
            let region = access.line / REGION_LINES;
            let offset = access.line % REGION_LINES;

            if let Some(generation) = self.accumulating.get_mut(&region) {
                generation.footprint |= 1 << offset;
                return;
            }

            // Trigger access: a region is entered anew. Replay the stored
            // footprint, nearest lines first, capped so a full-region footprint
            // does not flood the memory bus in one burst.
            let sig = Bingo::signature(access.pc, offset);
            if let Some(&entry) = self.history.get(&sig) {
                if entry.confidence >= 2 {
                    let base = region * REGION_LINES;
                    let mut lines: Vec<u64> = (0..REGION_LINES)
                        .filter(|&bit| bit != offset && entry.footprint & (1 << bit) != 0)
                        .collect();
                    lines.sort_by_key(|&bit| bit.abs_diff(offset));
                    for bit in lines.into_iter().take(REPLAY_CAP) {
                        queue.push(base + bit);
                    }
                }
            }

            // Start accumulating this region's new generation.
            self.accumulating.insert(
                region,
                Generation {
                    trigger_sig: sig,
                    footprint: 1 << offset,
                },
            );
            self.accum_order.push_back(region);
            while self.accumulating.len() > ACCUM_CAPACITY {
                if let Some(old_region) = self.accum_order.pop_front() {
                    if let Some(generation) = self.accumulating.remove(&old_region) {
                        self.commit(generation);
                    }
                }
            }
        }
    }
}
