//! Reader differential: the padded chunk-cursor decode path must be
//! observationally identical to the per-record reference reader — same
//! records, same clean end, and byte-for-byte the same error on corrupt or
//! truncated files.

use crate::codec::{Codec, MemCodec};
use crate::error::Result;
use crate::format::{PayloadKind, TraceMeta};
use crate::{Reader, TraceWriter};
use mab_workloads::{MemKind, TraceRecord};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// The per-record reference: codec `C` without its padded fast path
/// (`BLOCK_PAD` 0), so a reader decodes every record with `C::decode`.
#[derive(Debug)]
struct PerRecord<C>(PhantomData<C>);

impl<C: Codec> Codec for PerRecord<C> {
    const KIND: PayloadKind = C::KIND;
    type Record = C::Record;
    type State = C::State;

    fn encode(state: &mut C::State, record: &C::Record, out: &mut Vec<u8>) {
        C::encode(state, record, out);
    }

    fn decode(state: &mut C::State, buf: &[u8], pos: &mut usize) -> Result<C::Record> {
        C::decode(state, buf, pos)
    }
}

type Reference = PerRecord<MemCodec>;

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mab-traces-differential-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.mabt"))
}

fn random_records(rng: &mut StdRng, n: usize) -> Vec<TraceRecord> {
    (0..n)
        .map(|_| match rng.gen_range(0..4) {
            0 => TraceRecord::alu(rng.gen()),
            1 => TraceRecord::branch(rng.gen()),
            2 => TraceRecord::load(rng.gen(), rng.gen()),
            _ => TraceRecord {
                pc: rng.gen(),
                mem: Some((MemKind::Store, rng.gen())),
                is_branch: rng.gen(),
            },
        })
        .collect()
}

/// Writes `n` random records in blocks of `block_len` to a fresh file;
/// returns the RNG, which goes on to pick the damage.
fn write_trace(
    tag: &str,
    case: u64,
    n: usize,
    block_len: u32,
) -> (PathBuf, Vec<TraceRecord>, StdRng) {
    let mut rng = StdRng::seed_from_u64(case);
    let records = random_records(&mut rng, n);
    let path = temp_path(&format!("{tag}-{case}"));
    let mut meta = TraceMeta::new(case, "test:differential");
    meta.block_len = block_len;
    let mut writer = TraceWriter::create(&path, meta).expect("create");
    for r in &records {
        writer.push(r).expect("push");
    }
    writer.finish().expect("finish");
    (path, records, rng)
}

/// Everything a replay can observe: the records handed out, then either a
/// clean end (`None`) or the error display.
fn replay_outcome<C: Codec<Record = TraceRecord> + std::fmt::Debug>(
    path: &Path,
) -> (Vec<TraceRecord>, Option<String>) {
    let mut reader = Reader::<C>::open(path).expect("open");
    let mut records = Vec::new();
    loop {
        match reader.next_record() {
            Ok(Some(r)) => records.push(r),
            Ok(None) => return (records, None),
            Err(e) => return (records, Some(e.to_string())),
        }
    }
}

/// Opens `path` with both readers and compares everything a replay can
/// observe, including a failure at open.
fn check_damaged(path: &Path) -> std::result::Result<(), TestCaseError> {
    match (
        Reader::<MemCodec>::open(path),
        Reader::<Reference>::open(path),
    ) {
        (Ok(_), Ok(_)) => {
            let reference = replay_outcome::<Reference>(path);
            let chunked = replay_outcome::<MemCodec>(path);
            prop_assert_eq!(reference, chunked);
        }
        // Header/footer damage fails at open, before any record decodes,
        // and must do so identically in both readers.
        (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
        (a, b) => prop_assert!(
            false,
            "open outcome diverged: chunked {:?} reference {:?}",
            a.map(|_| ()),
            b.map(|_| ())
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clean files: both readers replay the identical record sequence
    /// across block boundaries of every size.
    #[test]
    fn clean_replay_matches_reference(
        case in 0u64..u64::MAX,
        n in 0usize..900,
        block_len in 1u32..96,
    ) {
        let (path, records, _) = write_trace("clean", case, n, block_len);
        let reference = replay_outcome::<Reference>(&path);
        let chunked = replay_outcome::<MemCodec>(&path);
        prop_assert_eq!(&reference.1, &None);
        prop_assert_eq!(&reference.0, &records);
        prop_assert_eq!(reference, chunked);
        std::fs::remove_file(&path).ok();
    }

    /// Corrupt files: a random bit flip anywhere in the file produces the
    /// same records and the same error (or surviving clean replay, when
    /// the flip lands in slack) in both readers. CRC rejects most flips;
    /// the interesting survivors are the ones the decoder itself must
    /// catch.
    #[test]
    fn corrupt_replay_matches_reference(
        case in 0u64..u64::MAX,
        n in 1usize..300,
        block_len in 1u32..48,
    ) {
        let (path, _, mut rng) = write_trace("corrupt", case, n, block_len);
        let mut bytes = std::fs::read(&path).expect("read file");
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= 1u8 << rng.gen_range(0..8);
        std::fs::write(&path, &bytes).expect("write corrupted");
        check_damaged(&path)?;
        std::fs::remove_file(&path).ok();
    }

    /// Truncated files: cutting the file at a random point produces the
    /// same records and the same truncation error in both readers.
    #[test]
    fn truncated_replay_matches_reference(
        case in 0u64..u64::MAX,
        n in 1usize..300,
        block_len in 1u32..48,
    ) {
        let (path, _, mut rng) = write_trace("trunc", case, n, block_len);
        let mut bytes = std::fs::read(&path).expect("read file");
        let keep = rng.gen_range(0..bytes.len());
        bytes.truncate(keep);
        std::fs::write(&path, &bytes).expect("write truncated");
        check_damaged(&path)?;
        std::fs::remove_file(&path).ok();
    }
}
