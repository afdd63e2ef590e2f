//! Streaming trace reader with CRC verification and O(1) skip-ahead.
//!
//! [`Reader::open`] validates the header eagerly (magic, version, payload
//! kind, finalization) and loads the index footer when present. Payloads
//! are read and CRC-verified a block at a time. In the default chunked
//! kernel mode ([`mab_telemetry::hotpath`]) records decode through a
//! chunk cursor running over a zero-padded copy of the payload
//! ([`Codec::decode_padded`]), whose fixed-width unaligned loads never
//! need a remaining-bytes branch; in scalar mode — and from the first
//! record the padded cursor rejects, i.e. the block is corrupt or ends in
//! a truncated varint — records decode on demand straight out of the
//! verified block, which is also the differential reference the chunked
//! path is tested against. Either way replay stays cheaper than
//! regenerating the records from the seeded RNG generators (see
//! `BENCH_trace_io.json`).
//!
//! Two record access styles:
//!
//! - [`Reader::next_record`] returns `Result`s and never panics — this is
//!   what `mab-trace validate` and the corruption tests use.
//! - [`Reader::records`] adapts the reader into the
//!   `Iterator<Item = Record>` contract the simulators consume; it panics
//!   with the underlying descriptive error if the file is corrupt, exactly
//!   like the simulators' own "trace ended early" contract.

use crate::codec::Codec;
use crate::error::{Result, TraceError};
use crate::format::{decode_header, TraceMeta, FOOTER_MAGIC, HEADER_FIXED_LEN};
use crate::writer::IndexEntry;
use mab_telemetry::crc32::crc32;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::marker::PhantomData;
use std::path::Path;

/// Streaming trace reader for one codec.
#[derive(Debug)]
pub struct Reader<C: Codec> {
    input: BufReader<File>,
    meta: TraceMeta,
    /// Block index from the footer, when the file carries one.
    index: Option<Vec<IndexEntry>>,
    /// Codec delta state, reset at every block boundary.
    state: C::State,
    /// Raw payload of the current block (already CRC-verified).
    raw: Vec<u8>,
    /// Decode cursor into `raw`.
    pos: usize,
    /// Records of the current block not yet decoded.
    block_remaining: u32,
    /// Padded copy of `raw` for [`Codec::decode_padded`] (chunked mode).
    scratch: Vec<u8>,
    /// Use the per-record scalar decode path unconditionally; latched from
    /// [`mab_telemetry::hotpath`] at open.
    scalar: bool,
    /// Decode the current block through the padded chunk cursor; disarmed
    /// by the first rejected record so a corrupt block replays per-record
    /// from the same cursor position.
    eager: bool,
    /// Records handed out so far (across all blocks).
    records_read: u64,
    /// Blocks loaded so far (for error messages).
    blocks_read: u64,
    _codec: PhantomData<C>,
}

impl<C: Codec> Reader<C> {
    /// Opens `path`, validates the header and probes for the index footer.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = File::open(path)?;
        let mut input = BufReader::new(file);
        let mut fixed = [0u8; HEADER_FIXED_LEN];
        input.read_exact(&mut fixed).map_err(short_header)?;
        let prov_len =
            u16::from_le_bytes([fixed[HEADER_FIXED_LEN - 2], fixed[HEADER_FIXED_LEN - 1]]);
        let mut provenance = vec![0u8; prov_len as usize];
        input.read_exact(&mut provenance).map_err(short_header)?;
        let meta = decode_header(&fixed, provenance)?;
        if meta.kind != C::KIND {
            return Err(TraceError::PayloadKindMismatch {
                found: meta.kind.name(),
                expected: C::KIND.name(),
            });
        }
        let mut reader = Reader {
            input,
            meta,
            index: None,
            state: C::State::default(),
            raw: Vec::new(),
            pos: 0,
            block_remaining: 0,
            scratch: Vec::new(),
            scalar: mab_telemetry::hotpath::scalar_kernels(),
            eager: false,
            records_read: 0,
            blocks_read: 0,
            _codec: PhantomData,
        };
        reader.index = reader.load_index()?;
        Ok(reader)
    }

    /// Header metadata (with the final record count).
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Whether the file carries an index footer for O(1) skip-ahead.
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// Number of blocks listed in the index footer, if present.
    pub fn indexed_blocks(&self) -> Option<usize> {
        self.index.as_ref().map(Vec::len)
    }

    /// Probes the end of the file for the footer; tolerates its absence
    /// (truncated or foreign-tool files fall back to sequential reads and
    /// surface [`TraceError::Truncated`] when the stream runs short).
    fn load_index(&mut self) -> Result<Option<Vec<IndexEntry>>> {
        let end = self.input.seek(SeekFrom::End(0))?;
        let data_start = self.data_start();
        if end < data_start + 12 {
            self.input.seek(SeekFrom::Start(data_start))?;
            return Ok(None);
        }
        let mut tail = [0u8; 12];
        self.input.seek(SeekFrom::Start(end - 12))?;
        self.input.read_exact(&mut tail)?;
        if tail[8..12] != FOOTER_MAGIC {
            self.input.seek(SeekFrom::Start(data_start))?;
            return Ok(None);
        }
        let footer_offset = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes"));
        if footer_offset < data_start || footer_offset > end - 12 {
            return Err(TraceError::Corrupt {
                context: "index footer offset",
                offset: end - 12,
            });
        }
        self.input.seek(SeekFrom::Start(footer_offset))?;
        let mut n = [0u8; 4];
        self.input.read_exact(&mut n)?;
        let n_blocks = u32::from_le_bytes(n) as u64;
        if footer_offset + 4 + n_blocks * 16 != end - 12 {
            return Err(TraceError::Corrupt {
                context: "index footer length",
                offset: footer_offset,
            });
        }
        let mut entries = Vec::with_capacity(n_blocks as usize);
        let mut raw = vec![0u8; (n_blocks * 16) as usize];
        self.input.read_exact(&mut raw)?;
        for chunk in raw.chunks_exact(16) {
            entries.push(IndexEntry {
                offset: u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes")),
                first_record: u64::from_le_bytes(chunk[8..].try_into().expect("8 bytes")),
            });
        }
        self.input.seek(SeekFrom::Start(data_start))?;
        Ok(Some(entries))
    }

    /// File offset of the first block.
    fn data_start(&self) -> u64 {
        (HEADER_FIXED_LEN + self.meta.provenance.len()) as u64
    }

    /// Returns the next record, `Ok(None)` at a clean end of trace, or a
    /// descriptive error for truncated/corrupt data. Never panics.
    #[inline]
    pub fn next_record(&mut self) -> Result<Option<C::Record>> {
        loop {
            if self.block_remaining > 0 {
                let record = if self.eager {
                    // Chunked path: decode straight off the padded scratch
                    // copy, no per-record window check. A rejected record
                    // (corrupt or truncated data) committed nothing, so
                    // the per-record path replays it from the same cursor
                    // and surfaces the error exactly as the scalar path
                    // would.
                    match C::decode_padded(
                        &mut self.state,
                        &self.scratch,
                        self.raw.len(),
                        &mut self.pos,
                    ) {
                        Some(record) => record,
                        None => {
                            self.eager = false;
                            C::decode(&mut self.state, &self.raw, &mut self.pos)?
                        }
                    }
                } else {
                    C::decode(&mut self.state, &self.raw, &mut self.pos)?
                };
                self.block_remaining -= 1;
                self.records_read += 1;
                if self.block_remaining == 0 && self.pos != self.raw.len() {
                    return Err(TraceError::Corrupt {
                        context: "block payload (trailing bytes after the last record)",
                        offset: self.pos as u64,
                    });
                }
                return Ok(Some(record));
            }
            if self.records_read == self.meta.record_count {
                return Ok(None);
            }
            self.load_block()?;
        }
    }

    /// Loads and CRC-checks the next block; records decode on demand from
    /// the verified payload.
    fn load_block(&mut self) -> Result<()> {
        // One span per block, not per record: the block is the unit of I/O
        // and CRC work, and records decode out of it with a few arithmetic
        // ops each.
        mab_telemetry::span!(TraceDecode);
        let (decoded, expected) = (self.records_read, self.meta.record_count);
        let truncated = move |_| TraceError::Truncated { decoded, expected };
        let mut head = [0u8; 8];
        self.input.read_exact(&mut head).map_err(truncated)?;
        let payload_len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
        let n_records = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
        // A block can never be larger than the most verbose legal encoding
        // of its records; an oversized length means a corrupt or foreign
        // field (e.g. reading the footer as a block), not a huge block.
        if n_records == 0 || payload_len > n_records as usize * MAX_RECORD_BYTES {
            return Err(TraceError::Corrupt {
                context: "block header",
                offset: self.records_read,
            });
        }
        if u64::from(n_records) > self.meta.record_count - self.records_read {
            return Err(TraceError::Corrupt {
                context: "block record count (exceeds header total)",
                offset: self.records_read,
            });
        }
        self.raw.resize(payload_len, 0);
        self.input.read_exact(&mut self.raw).map_err(truncated)?;
        let mut stored = [0u8; 4];
        self.input.read_exact(&mut stored).map_err(truncated)?;
        let stored = u32::from_le_bytes(stored);
        let computed = crc32(&self.raw);
        if stored != computed {
            return Err(TraceError::CrcMismatch {
                block: self.blocks_read,
                stored,
                computed,
            });
        }
        self.state = C::State::default();
        self.pos = 0;
        self.block_remaining = n_records;
        self.blocks_read += 1;
        // Codecs without a padded fast path (BLOCK_PAD == 0) decode
        // per-record in every mode; the scratch copy would buy nothing.
        self.eager = !self.scalar && C::BLOCK_PAD > 0;
        if self.eager {
            // One padded copy per block arms the chunk cursor with a fixed
            // decode window past every record.
            self.scratch.clear();
            self.scratch.extend_from_slice(&self.raw);
            self.scratch.resize(self.raw.len() + C::BLOCK_PAD, 0);
        }
        Ok(())
    }

    /// Positions the reader so the next record returned is record `n`
    /// (zero-based). Uses the index footer to seek directly to the owning
    /// block when present — O(1) in the file size — and decodes forward
    /// within the block.
    pub fn skip_to(&mut self, n: u64) -> Result<()> {
        if n > self.meta.record_count {
            return Err(TraceError::Truncated {
                decoded: self.meta.record_count,
                expected: n,
            });
        }
        let block_start = match &self.index {
            Some(index) if !index.is_empty() && n > 0 => {
                let i = index
                    .partition_point(|e| e.first_record <= n)
                    .saturating_sub(1);
                let entry = index[i];
                self.input.seek(SeekFrom::Start(entry.offset))?;
                self.blocks_read = i as u64;
                entry.first_record
            }
            _ => {
                // No usable index: restart and decode forward.
                let start = self.data_start();
                self.input.seek(SeekFrom::Start(start))?;
                self.blocks_read = 0;
                0
            }
        };
        self.raw.clear();
        self.pos = 0;
        self.block_remaining = 0;
        self.eager = false;
        self.records_read = block_start;
        while self.records_read < n && self.next_record()?.is_some() {}
        Ok(())
    }

    /// Decodes the whole remaining trace, verifying every block CRC.
    pub fn read_all(&mut self) -> Result<Vec<C::Record>> {
        let mut out = Vec::with_capacity((self.meta.record_count - self.records_read) as usize);
        while let Some(r) = self.next_record()? {
            out.push(r);
        }
        Ok(out)
    }

    /// Adapts the reader into the `Iterator` contract the simulators
    /// consume.
    ///
    /// # Panics
    ///
    /// The iterator panics with the underlying [`TraceError`] display if the
    /// file turns out to be truncated or corrupt mid-stream; use
    /// [`Reader::next_record`] where errors must be handled.
    pub fn records(self) -> Records<C> {
        Records { reader: self }
    }
}

/// Most bytes one record can legally occupy (tag + two maximal varints for
/// mem records; two bytes for SMT records — the larger bound is used for
/// both kinds' sanity check).
const MAX_RECORD_BYTES: usize = 1 + 10 + 10;

fn short_header(_: std::io::Error) -> TraceError {
    TraceError::Corrupt {
        context: "file header (file shorter than a trace header)",
        offset: 0,
    }
}

/// Panicking iterator adapter over a [`Reader`] — see [`Reader::records`].
#[derive(Debug)]
pub struct Records<C: Codec> {
    reader: Reader<C>,
}

impl<C: Codec> Records<C> {
    /// Header metadata of the underlying file.
    pub fn meta(&self) -> &TraceMeta {
        self.reader.meta()
    }
}

impl<C: Codec> Iterator for Records<C> {
    type Item = C::Record;

    #[inline]
    fn next(&mut self) -> Option<C::Record> {
        self.reader
            .next_record()
            .unwrap_or_else(|e| panic!("trace replay failed: {e}"))
    }
}
