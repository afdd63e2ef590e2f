//! Reference models: the cache and MSHR as they were before their scans
//! were chunked. Each keeps its original kernel (a per-way early-exit scan,
//! a completion min-heap) and exists only as the baseline of the
//! differential tests in `crate::cache`.

use crate::cache::{CacheStats, Evicted, Inflight, LookupResult};
use crate::config::CacheParams;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    line: u64,
    valid: bool,
    prefetched: bool,
    lru: u64,
}

/// Reference cache: a per-way tag scan, and a one-pass fill that finds a
/// present line or the first least-recently-used way, with an invalid way
/// ranking below every valid one.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: u64,
    ways: usize,
    slots: Vec<Way>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    pub fn new(params: CacheParams) -> Self {
        let sets = params.sets();
        let ways = params.ways as usize;
        Cache {
            sets,
            ways,
            slots: vec![Way::default(); sets as usize * ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set(&self, line: u64) -> std::ops::Range<usize> {
        let base = (line % self.sets) as usize * self.ways;
        base..base + self.ways
    }

    fn find(&self, line: u64) -> Option<usize> {
        self.set(line)
            .find(|&idx| self.slots[idx].valid && self.slots[idx].line == line)
    }

    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    pub fn demand_lookup(&mut self, line: u64) -> LookupResult {
        self.clock += 1;
        let Some(idx) = self.find(line) else {
            self.stats.demand_misses += 1;
            return LookupResult::Miss;
        };
        let way = &mut self.slots[idx];
        way.lru = self.clock;
        let first_prefetch_use = std::mem::take(&mut way.prefetched);
        if first_prefetch_use {
            self.stats.prefetch_used += 1;
        }
        self.stats.demand_hits += 1;
        LookupResult::Hit { first_prefetch_use }
    }

    pub fn fill(&mut self, line: u64, prefetched: bool) -> Option<Evicted> {
        self.fill_at(line, prefetched).0
    }

    pub fn fill_late_prefetch(&mut self, line: u64) -> Option<Evicted> {
        let (evicted, idx) = self.fill_at(line, true);
        if std::mem::take(&mut self.slots[idx].prefetched) {
            self.stats.prefetch_used += 1;
        }
        evicted
    }

    /// One pass finds a present line (refreshed in place) or the victim:
    /// an invalid way ranks as stamp 0 (valid stamps are >= 1) and the
    /// first minimum wins.
    fn fill_at(&mut self, line: u64, prefetched: bool) -> (Option<Evicted>, usize) {
        self.clock += 1;
        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        let mut victim = usize::MAX;
        let mut victim_key = u64::MAX;
        for idx in self.set(line) {
            let way = self.slots[idx];
            if way.valid && way.line == line {
                self.slots[idx].lru = self.clock;
                return (None, idx);
            }
            let key = if way.valid { way.lru } else { 0 };
            if key < victim_key {
                victim_key = key;
                victim = idx;
            }
        }
        let new = Way {
            line,
            valid: true,
            prefetched,
            lru: self.clock,
        };
        let old = std::mem::replace(&mut self.slots[victim], new);
        if old.valid && old.prefetched {
            self.stats.prefetch_evicted_unused += 1;
        }
        let evicted = old.valid.then_some(Evicted {
            line: old.line,
            unused_prefetch: old.prefetched,
        });
        (evicted, victim)
    }
}

/// Reference MSHR: a map of in-flight fills plus a min-heap of the
/// `(ready, line)` stamps they were posted with. A heap entry is stale (its
/// line was removed or re-posted since) exactly when its stamp no longer
/// matches the map, so a drain skips it.
#[derive(Debug, Clone, Default)]
pub struct Mshr {
    inflight: HashMap<u64, Inflight>,
    order: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Mshr {
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    pub fn get(&self, line: u64) -> Option<Inflight> {
        self.inflight.get(&line).copied()
    }

    pub fn insert(&mut self, line: u64, ready: u64, fill_l1: bool) -> bool {
        if self.inflight.contains_key(&line) {
            return false;
        }
        self.inflight.insert(line, Inflight { ready, fill_l1 });
        self.order.push(Reverse((ready, line)));
        true
    }

    pub fn remove(&mut self, line: u64) {
        self.inflight.remove(&line);
    }

    pub fn drain_ready(&mut self, now: u64) -> Vec<(u64, bool)> {
        let mut done = Vec::new();
        while let Some(&Reverse((ready, line))) = self.order.peek() {
            if ready > now {
                break;
            }
            self.order.pop();
            if self.get(line).is_some_and(|fill| fill.ready == ready) {
                let fill = self.inflight.remove(&line).expect("just found");
                done.push((line, fill.fill_l1));
            }
        }
        done
    }
}
