//! Bingo spatial data prefetcher (Bakhshalipour et al., HPCA 2019),
//! reimplemented in simplified form.
//!
//! Bingo learns the *spatial footprint* of memory regions: which lines of a
//! region a program touches after first entering it, associated with the
//! `PC+offset` event that triggered the region visit. On a later trigger
//! with the same signature, the whole recorded footprint is prefetched at
//! once.

use mab_memsim::{L2Access, LineHashBuilder, PrefetchQueue, Prefetcher};
use std::collections::{HashMap, VecDeque};

/// Lines per region (2 KB regions as in the Bingo paper).
pub const REGION_LINES: u64 = 32;
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

/// The Bingo prefetcher.
///
/// # Example
///
/// ```
/// use mab_memsim::{L2Access, PrefetchQueue, Prefetcher};
/// use mab_prefetch::Bingo;
/// use mab_workloads::MemKind;
///
/// let mut bingo = Bingo::new();
/// let mut q = PrefetchQueue::new();
/// let access = |line| L2Access { pc: 0x400, line, hit: false, cycle: 0, instructions: 0, kind: MemKind::Load };
/// // First visit to the region records its footprint …
/// for l in [64, 65, 67, 70] { bingo.train(&access(l), &mut q); }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Bingo {
    accumulating: HashMap<u64, Generation, LineHashBuilder>,
    accum_order: VecDeque<u64>,
    history: HashMap<u64, HistoryEntry, LineHashBuilder>,
    history_order: VecDeque<u64>,
}

impl Bingo {
    /// Creates an empty Bingo prefetcher.
    pub fn new() -> Self {
        Bingo::default()
    }

    /// Paper-reported storage of the full Bingo design (§7.2.1).
    pub fn storage_bytes() -> usize {
        46 * 1024
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

/// Pushes up to [`REPLAY_CAP`] lines of `footprint` (bit `b` ↔ line
/// `base + b`) other than the trigger line `base + offset`, nearest to the
/// trigger first and, at equal distance, the lower line first.
fn replay(base: u64, offset: u64, footprint: u32, queue: &mut PrefetchQueue) {
    let mut left = footprint & !(1 << offset);
    let mut budget = REPLAY_CAP;
    for distance in 1..REGION_LINES {
        // Below the trigger first; `wrapping_sub` below line 0 of the region
        // gives an out-of-range bit, which is skipped.
        for bit in [offset.wrapping_sub(distance), offset + distance] {
            if left == 0 || budget == 0 {
                return;
            }
            if bit < REGION_LINES && left & (1 << bit) != 0 {
                queue.push(base + bit);
                left &= !(1 << bit);
                budget -= 1;
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
                replay(region * REGION_LINES, offset, entry.footprint, queue);
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

#[cfg(test)]
mod tests {
    use super::*;
    use mab_workloads::MemKind;

    fn access(pc: u64, line: u64) -> L2Access {
        L2Access {
            pc,
            line,
            hit: false,
            cycle: 0,
            instructions: 0,
            kind: MemKind::Load,
        }
    }

    fn drive(b: &mut Bingo, seq: &[(u64, u64)]) -> Vec<u64> {
        let mut q = PrefetchQueue::new();
        let mut all = Vec::new();
        for &(pc, l) in seq {
            b.train(&access(pc, l), &mut q);
            all.extend(q.drain());
        }
        all
    }

    /// Forces commitment of accumulating generations by touching many
    /// fresh regions.
    fn flush(b: &mut Bingo) {
        let mut q = PrefetchQueue::new();
        for r in 10_000..10_000 + ACCUM_CAPACITY as u64 + 2 {
            b.train(&access(0xdead, r * REGION_LINES), &mut q);
            q.drain().count();
        }
    }

    #[test]
    fn replays_learned_footprint_after_two_consistent_generations() {
        let mut b = Bingo::new();
        // Two generations with the same trigger (PC 0x42, offset 0) and the
        // same relative footprint {0, 1, 3, 7}, in different regions.
        drive(&mut b, &[(0x42, 64), (0x42, 65), (0x42, 67), (0x42, 71)]);
        flush(&mut b);
        drive(
            &mut b,
            &[(0x42, 128), (0x42, 129), (0x42, 131), (0x42, 135)],
        );
        flush(&mut b);
        // Third region with the same trigger signature: replay.
        let issued = drive(&mut b, &[(0x42, 320)]); // region 10, offset 0
        let base = 320;
        assert!(issued.contains(&(base + 1)), "{issued:?}");
        assert!(issued.contains(&(base + 3)));
        assert!(issued.contains(&(base + 7)));
        assert!(
            !issued.contains(&base),
            "trigger line itself not prefetched"
        );
    }

    #[test]
    fn one_generation_is_not_confident_enough() {
        let mut b = Bingo::new();
        drive(&mut b, &[(0x42, 64), (0x42, 65), (0x42, 67)]);
        flush(&mut b);
        let issued = drive(&mut b, &[(0x42, 320)]);
        assert!(issued.is_empty(), "{issued:?}");
    }

    #[test]
    fn inconsistent_generations_reset_confidence() {
        let mut b = Bingo::new();
        drive(&mut b, &[(0x42, 64), (0x42, 65), (0x42, 67)]); // {0,1,3}
        flush(&mut b);
        drive(
            &mut b,
            &[(0x42, 128 + 20), (0x42, 128 + 25), (0x42, 128 + 30)],
        ); // {20,25,30}
        flush(&mut b);
        let issued = drive(&mut b, &[(0x42, 320 + 20)]);
        assert!(issued.is_empty(), "disagreeing footprints: {issued:?}");
    }

    #[test]
    fn different_trigger_pc_does_not_match() {
        let mut b = Bingo::new();
        drive(&mut b, &[(0x42, 64), (0x42, 66)]);
        flush(&mut b);
        let issued = drive(&mut b, &[(0x99, 320)]);
        assert!(issued.is_empty());
    }

    #[test]
    fn single_line_footprints_are_not_stored() {
        let mut b = Bingo::new();
        drive(&mut b, &[(0x42, 64)]); // only one line touched
        flush(&mut b);
        let issued = drive(&mut b, &[(0x42, 320)]);
        assert!(issued.is_empty());
    }

    #[test]
    fn accumulation_is_per_region() {
        let mut b = Bingo::new();
        // Interleave two regions twice (for confidence); footprints must
        // not mix across regions.
        for base in [0, 64 * REGION_LINES] {
            drive(
                &mut b,
                &[
                    (7, base),
                    (9, 1000 * REGION_LINES + base),
                    (7, base + 2),
                    (9, 1000 * REGION_LINES + base + 5),
                ],
            );
            flush(&mut b);
        }
        let issued = drive(&mut b, &[(7, 50 * REGION_LINES)]);
        assert!(issued.contains(&(50 * REGION_LINES + 2)));
        assert!(!issued.contains(&(50 * REGION_LINES + 5)));
    }

    #[test]
    fn history_capacity_is_bounded() {
        let mut b = Bingo::new();
        // Insert far more signatures than the capacity.
        for i in 0..(HISTORY_CAPACITY as u64 + 500) {
            let region_base = i * 2 * REGION_LINES;
            drive(&mut b, &[(i, region_base), (i, region_base + 3)]);
        }
        flush(&mut b);
        assert!(b.history.len() <= HISTORY_CAPACITY);
    }
}
