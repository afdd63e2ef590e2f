//! Digests of simulated statistics and the stored reference digests.
//!
//! Every arm's statistics are folded into a 64-bit FNV-1a digest over their
//! fields. The reference file holds one line per `(workload, arm, input
//! seed)`: `<workload> <arm label> <seed> <digest as 16 hex digits>`.

use mab_memsim::system::RunStats;
use mab_smtsim::pipeline::SmtStats;
use std::collections::HashMap;

/// FNV-1a over a sequence of 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `word` into the digest.
    pub fn word(&mut self, word: u64) -> &mut Self {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds every byte of `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds every field of a memory-simulator result into `h`.
pub fn fold_run(h: &mut Fnv, s: &RunStats) {
    h.word(s.instructions).word(s.cycles);
    for c in [s.l1, s.l2, s.llc] {
        h.word(c.demand_hits)
            .word(c.demand_misses)
            .word(c.prefetch_fills)
            .word(c.prefetch_used)
            .word(c.prefetch_evicted_unused);
    }
    h.word(s.dram.transfers)
        .word(s.dram.total_queue_delay.to_bits());
    let p = s.prefetch;
    h.word(p.issued)
        .word(p.timely)
        .word(p.late)
        .word(p.wrong)
        .word(p.dropped);
}

/// Digest of one arm's per-core memory-simulator results, in core order.
pub fn runs(stats: &[RunStats]) -> u64 {
    let mut h = Fnv::default();
    for s in stats {
        fold_run(&mut h, s);
    }
    h.finish()
}

/// Digest of one SMT arm's result.
pub fn smt(s: &SmtStats) -> u64 {
    let r = s.rename;
    Fnv::default()
        .word(s.cycles)
        .word(s.commits[0])
        .word(s.commits[1])
        .word(r.stalled_rob)
        .word(r.stalled_iq)
        .word(r.stalled_lq)
        .word(r.stalled_sq)
        .word(r.stalled_rf)
        .word(r.idle)
        .word(r.running)
        .finish()
}

/// Digest of a whole batch: the arm digests in arm order.
pub fn batch(arm_digests: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for &d in arm_digests {
        h.word(d);
    }
    h.finish()
}

/// Reference digests keyed by `(workload, arm label, input seed)`.
#[derive(Debug, Default, Clone)]
pub struct References(HashMap<(String, String, u64), u64>);

impl References {
    /// Parses the reference file's text. Blank lines and `#` comments are
    /// skipped.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("reference line {}: {line:?}", n + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, label, seed, digest] = fields[..] else {
                return Err(bad());
            };
            let seed = seed.parse().map_err(|_| bad())?;
            let digest = u64::from_str_radix(digest, 16).map_err(|_| bad())?;
            map.insert((workload.to_string(), label.to_string(), seed), digest);
        }
        Ok(References(map))
    }

    /// The stored digest, if any.
    pub fn get(&self, workload: &str, label: &str, seed: u64) -> Option<u64> {
        self.0
            .get(&(workload.to_string(), label.to_string(), seed))
            .copied()
    }

    /// Stores a digest.
    pub fn insert(&mut self, workload: &str, label: &str, seed: u64, digest: u64) {
        self.0
            .insert((workload.to_string(), label.to_string(), seed), digest);
    }

    /// The file text, one sorted line per digest.
    pub fn render(&self) -> String {
        let mut lines: Vec<String> = self
            .0
            .iter()
            .map(|((w, l, s), d)| format!("{w} {l} {s} {d:016x}"))
            .collect();
        lines.sort();
        lines.join("\n") + "\n"
    }
}
