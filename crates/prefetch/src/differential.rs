//! Differential tests: each prefetcher whose tables were rewritten for speed
//! is driven side by side with its reference model ([`crate::reference`])
//! over the same arbitrary access sequence, and every prefetch request —
//! in order, after every access — must be identical.
//!
//! The generated sequences mix per-PC strided walks (which train every
//! prefetcher), lines below 32 (MLOP sources below line 0), lines on
//! 64-line block boundaries, repeats inside MLOP's window, and far random
//! lines from hundreds of PCs (which overflow MLOP's 1024-line window and
//! Bingo's 64 accumulating regions).

use crate::reference;
use crate::{Bingo, Mlop};
use mab_memsim::{L2Access, PrefetchQueue, Prefetcher};
use mab_workloads::MemKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-PC walk strides a case draws from: MLOP candidates, their
/// neighbours, and strides beyond MLOP's ±32 reach.
const STRIDES: [i64; 12] = [1, 2, 3, 4, -1, -2, 7, 16, 32, -32, 33, 0];
/// PCs owning a strided walk.
const WALKS: usize = 8;

/// A generated sequence of `(pc, line)` accesses.
fn sequence(case: u64, len: usize) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(case);
    let near_zero = rng.gen_bool(0.3);
    let mut pos: [u64; WALKS] =
        std::array::from_fn(|_| rng.gen_range(0..if near_zero { 64 } else { 1 << 16 }));
    let strides: [i64; WALKS] = std::array::from_fn(|_| STRIDES[rng.gen_range(0..STRIDES.len())]);
    let mut last = 0u64;
    (0..len)
        .map(|_| {
            let (pc, line) = match rng.gen_range(0..16) {
                0..=10 => {
                    let walk = rng.gen_range(0..WALKS);
                    pos[walk] = pos[walk].saturating_add_signed(strides[walk]);
                    (0x400 + walk as u64, pos[walk])
                }
                // Far lines from many PCs: window and region eviction.
                11 | 12 => (rng.gen_range(0..256), rng.gen_range(0..1 << 20)),
                // Below MLOP's reach of 32 lines.
                13 => (0x400, rng.gen_range(0..40)),
                // Either side of a 64-line block boundary.
                14 => (
                    0x404,
                    rng.gen_range(1..64u64) * 64 - 2 + rng.gen_range(0..4u64),
                ),
                // A repeat inside the window.
                _ => (0x401, last),
            };
            last = line;
            (pc, line)
        })
        .collect()
}

fn access(pc: u64, line: u64) -> L2Access {
    L2Access {
        pc,
        line,
        hit: line.is_multiple_of(3),
        cycle: 0,
        instructions: 0,
        kind: MemKind::Load,
    }
}

/// Drives `fast` and `reference` through `ops`, comparing the requests of
/// every access; `check` compares any further state after each access.
fn drive<F: Prefetcher, R: Prefetcher>(
    ops: &[(u64, u64)],
    fast: &mut F,
    reference: &mut R,
    check: impl Fn(&F, &R) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let (mut fast_q, mut ref_q) = (PrefetchQueue::new(), PrefetchQueue::new());
    for (step, &(pc, line)) in ops.iter().enumerate() {
        fast.train(&access(pc, line), &mut fast_q);
        reference.train(&access(pc, line), &mut ref_q);
        let fast_lines: Vec<u64> = fast_q.drain().collect();
        let ref_lines: Vec<u64> = ref_q.drain().collect();
        prop_assert_eq!(
            &fast_lines,
            &ref_lines,
            "requests at step {}: {:?} vs reference {:?}",
            step,
            fast_lines,
            ref_lines
        );
        check(fast, reference)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn differential_mlop_matches_reference(case in 0u64..u64::MAX, len in 1usize..4000) {
        let ops = sequence(case, len);
        drive(
            &ops,
            &mut Mlop::new(),
            &mut reference::mlop::Mlop::new(),
            |fast, reference| {
                prop_assert_eq!(fast.selected_offsets(), reference.selected_offsets());
                Ok(())
            },
        )?;
    }

    #[test]
    fn differential_bingo_matches_reference(case in 0u64..u64::MAX, len in 1usize..4000) {
        let ops = sequence(case, len);
        drive(
            &ops,
            &mut Bingo::new(),
            &mut reference::bingo::Bingo::new(),
            |_, _| Ok(()),
        )?;
    }
}

/// The generator reaches every case the suites are meant to cover.
#[test]
fn differential_sequences_cover_the_edge_cases() {
    let lines: Vec<(u64, u64)> = (0..8u64).flat_map(|case| sequence(case, 4000)).collect();
    let distinct = lines
        .iter()
        .map(|&(_, l)| l)
        .collect::<std::collections::HashSet<u64>>()
        .len();
    assert!(lines.iter().any(|&(_, l)| l < 32), "lines below the reach");
    assert!(
        lines.iter().any(|&(_, l)| l % 64 == 63) && lines.iter().any(|&(_, l)| l % 64 == 0),
        "block boundaries"
    );
    assert!(distinct > 4 * 1024, "window eviction");
}

/// A two-line ping-pong scores offsets +1 and −1 alike, so the epoch
/// ranking meets an exact tie, which must break as in the reference: `+o`
/// before `−o`.
#[test]
fn differential_mlop_breaks_score_ties_like_reference() {
    let ops: Vec<(u64, u64)> = (0..3 * 512).map(|i| (0x400, 1_000 + i % 2)).collect();
    let mut fast = Mlop::new();
    drive(
        &ops,
        &mut fast,
        &mut reference::mlop::Mlop::new(),
        |fast, reference| {
            prop_assert_eq!(fast.selected_offsets(), reference.selected_offsets());
            Ok(())
        },
    )
    .unwrap();
    assert_eq!(fast.selected_offsets(), [1, -1]);
}
