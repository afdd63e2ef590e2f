//! The `MABT` container format: header layout and varints. Blocks are
//! checksummed with the workspace's shared [`mab_telemetry::crc32`].
//!
//! # File layout (all integers little-endian)
//!
//! ```text
//! header   "MABT" | u16 version | u8 payload kind | u8 reserved
//!          | u32 line_size | u32 block_len (records per block)
//!          | u64 record_count (sentinel u64::MAX until finalized)
//!          | u64 seed | u16 provenance_len | provenance utf-8 bytes
//! blocks   u32 payload_len | u32 n_records | payload | u32 crc32(payload)
//! footer   u32 n_blocks | { u64 file_offset, u64 first_record }*
//!          | u64 footer_offset | "TBAM"
//! ```
//!
//! Delta state (previous PC / previous address) resets at every block
//! boundary, so any block can be decoded knowing only its file offset —
//! that is what makes the index footer's O(1) skip-ahead sound.

use crate::error::{Result, TraceError};

/// Leading magic of every trace file.
pub const MAGIC: [u8; 4] = *b"MABT";
/// Trailing magic of the index footer (the header magic reversed).
pub const FOOTER_MAGIC: [u8; 4] = *b"TBAM";
/// Newest container version this build reads and the version it writes.
pub const FORMAT_VERSION: u16 = 1;
/// Records per block unless the writer overrides it.
pub const DEFAULT_BLOCK_LEN: u32 = 4096;
/// Header field value meaning "writer has not finalized the file yet".
pub const UNFINALIZED_COUNT: u64 = u64::MAX;

/// What kind of records a trace file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// Memory-simulator records ([`mab_workloads::TraceRecord`]).
    Mem,
    /// SMT-pipeline records ([`mab_workloads::smt::SmtInstr`]).
    Smt,
}

impl PayloadKind {
    /// Wire value of the kind byte.
    pub fn code(self) -> u8 {
        match self {
            PayloadKind::Mem => 1,
            PayloadKind::Smt => 2,
        }
    }

    /// Parses the kind byte.
    pub fn from_code(code: u8) -> Result<Self> {
        match code {
            1 => Ok(PayloadKind::Mem),
            2 => Ok(PayloadKind::Smt),
            found => Err(TraceError::UnknownPayloadKind { found }),
        }
    }

    /// Human-readable name used in error messages and `mab-trace info`.
    pub fn name(self) -> &'static str {
        match self {
            PayloadKind::Mem => "mem",
            PayloadKind::Smt => "smt",
        }
    }
}

/// Everything the header records about a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Payload kind (set by the writer's codec, echoed by the reader).
    pub kind: PayloadKind,
    /// Cache-line size the addresses assume (64 throughout this repo).
    pub line_size: u32,
    /// Records per block.
    pub block_len: u32,
    /// Total records in the file (filled in when the writer finishes).
    pub record_count: u64,
    /// Seed of the generator that produced the trace (0 for imports).
    pub seed: u64,
    /// Free-form provenance, e.g. `app:mcf` or `champsim:foo.xz`.
    pub provenance: String,
}

impl TraceMeta {
    /// Metadata for a generator-produced trace with default geometry.
    pub fn new(seed: u64, provenance: impl Into<String>) -> Self {
        TraceMeta {
            kind: PayloadKind::Mem,
            line_size: mab_workloads::trace::LINE_BYTES as u32,
            block_len: DEFAULT_BLOCK_LEN,
            record_count: 0,
            seed,
            provenance: provenance.into(),
        }
    }

    /// Serialized header for this metadata; `record_count` is written as the
    /// in-progress sentinel and patched by [`crate::Writer`] on finish.
    pub(crate) fn encode_header(&self, kind: PayloadKind) -> Vec<u8> {
        let prov = self.provenance.as_bytes();
        debug_assert!(prov.len() <= u16::MAX as usize);
        let mut out = Vec::with_capacity(HEADER_FIXED_LEN + prov.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(kind.code());
        out.push(0); // reserved
        out.extend_from_slice(&self.line_size.to_le_bytes());
        out.extend_from_slice(&self.block_len.to_le_bytes());
        out.extend_from_slice(&UNFINALIZED_COUNT.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(prov.len() as u16).to_le_bytes());
        out.extend_from_slice(prov);
        out
    }
}

/// Bytes of the header before the variable-length provenance string.
pub const HEADER_FIXED_LEN: usize = 34;
/// Byte offset of the `record_count` field (patched at finish).
pub const RECORD_COUNT_OFFSET: u64 = 16;

/// Parses the fixed header. Returns the metadata and the total header
/// length (fixed part + provenance).
pub(crate) fn decode_header(
    fixed: &[u8; HEADER_FIXED_LEN],
    provenance: Vec<u8>,
) -> Result<TraceMeta> {
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&fixed[0..4]);
    if magic != MAGIC {
        return Err(TraceError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes([fixed[4], fixed[5]]);
    if version > FORMAT_VERSION {
        return Err(TraceError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let kind = PayloadKind::from_code(fixed[6])?;
    let line_size = u32::from_le_bytes([fixed[8], fixed[9], fixed[10], fixed[11]]);
    let block_len = u32::from_le_bytes([fixed[12], fixed[13], fixed[14], fixed[15]]);
    if block_len == 0 {
        return Err(TraceError::Corrupt {
            context: "header block length",
            offset: 12,
        });
    }
    let u64_at = |i: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&fixed[i..i + 8]);
        u64::from_le_bytes(b)
    };
    let record_count = u64_at(16);
    let seed = u64_at(24);
    if record_count == UNFINALIZED_COUNT {
        return Err(TraceError::Unfinalized);
    }
    let provenance = String::from_utf8(provenance).map_err(|_| TraceError::Corrupt {
        context: "header provenance string",
        offset: HEADER_FIXED_LEN as u64,
    })?;
    Ok(TraceMeta {
        kind,
        line_size,
        block_len,
        record_count,
        seed,
        provenance,
    })
}

/// Reads and validates just the header of `path`, without committing to a
/// payload kind. This is how `mab-trace info` dispatches: peek the kind, then
/// open the matching typed [`crate::Reader`].
pub fn peek_meta(path: impl AsRef<std::path::Path>) -> Result<TraceMeta> {
    use std::io::Read as _;
    let mut file = std::fs::File::open(path)?;
    let mut fixed = [0u8; HEADER_FIXED_LEN];
    let short = |_| TraceError::Corrupt {
        context: "file header (file shorter than a trace header)",
        offset: 0,
    };
    file.read_exact(&mut fixed).map_err(short)?;
    let prov_len = u16::from_le_bytes([fixed[HEADER_FIXED_LEN - 2], fixed[HEADER_FIXED_LEN - 1]]);
    let mut provenance = vec![0u8; prov_len as usize];
    file.read_exact(&mut provenance).map_err(short)?;
    decode_header(&fixed, provenance)
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

/// Appends `v` as an unsigned LEB128 varint.
#[inline]
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends `v` as a zigzag-encoded signed LEB128 varint.
#[inline]
pub fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Reads an unsigned LEB128 varint from `buf` at `*pos`, advancing it.
///
/// The single-byte case (deltas under 64 after zigzag — the overwhelmingly
/// common case for looping trace PCs and line-sized strides) is inlined;
/// longer varints take the loop.
#[inline]
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    if let Some(&byte) = buf.get(*pos) {
        if byte < 0x80 {
            *pos += 1;
            return Ok(u64::from(byte));
        }
    }
    get_uvarint_multi(buf, pos)
}

fn get_uvarint_multi(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or(TraceError::Corrupt {
            context: "varint (ran off the end of the block)",
            offset: *pos as u64,
        })?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(TraceError::Corrupt {
                context: "varint (more than 64 bits)",
                offset: *pos as u64,
            });
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reads a zigzag-encoded signed varint.
#[inline]
pub fn get_ivarint(buf: &[u8], pos: &mut usize) -> Result<i64> {
    let raw = get_uvarint(buf, pos)?;
    Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_round_trips() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            buf.clear();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn ivarint_round_trips() {
        let mut buf = Vec::new();
        for &v in &[
            0i64,
            1,
            -1,
            63,
            -64,
            1 << 40,
            -(1 << 40),
            i64::MAX,
            i64::MIN,
        ] {
            buf.clear();
            put_ivarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_ivarint(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn small_deltas_are_one_byte() {
        let mut buf = Vec::new();
        put_ivarint(&mut buf, 1); // a one-line stride
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn varint_overruns_are_errors_not_panics() {
        // All continuation bits and then the buffer ends.
        let buf = [0xFFu8; 3];
        let mut pos = 0;
        assert!(matches!(
            get_uvarint(&buf, &mut pos),
            Err(TraceError::Corrupt { .. })
        ));
        // 11 bytes of continuation encode > 64 bits.
        let buf = [0xFFu8; 11];
        let mut pos = 0;
        assert!(matches!(
            get_uvarint(&buf, &mut pos),
            Err(TraceError::Corrupt { .. })
        ));
    }

    #[test]
    fn header_round_trips() {
        let meta = TraceMeta {
            kind: PayloadKind::Smt,
            line_size: 64,
            block_len: 512,
            record_count: 0,
            seed: 42,
            provenance: "smt:lbm".to_string(),
        };
        let mut bytes = meta.encode_header(PayloadKind::Smt);
        // Patch the count sentinel the way Writer::finish does.
        bytes[RECORD_COUNT_OFFSET as usize..RECORD_COUNT_OFFSET as usize + 8]
            .copy_from_slice(&7u64.to_le_bytes());
        let mut fixed = [0u8; HEADER_FIXED_LEN];
        fixed.copy_from_slice(&bytes[..HEADER_FIXED_LEN]);
        let decoded = decode_header(&fixed, bytes[HEADER_FIXED_LEN..].to_vec()).unwrap();
        assert_eq!(decoded.kind, PayloadKind::Smt);
        assert_eq!(decoded.block_len, 512);
        assert_eq!(decoded.record_count, 7);
        assert_eq!(decoded.seed, 42);
        assert_eq!(decoded.provenance, "smt:lbm");
    }

    #[test]
    fn unfinalized_header_is_detected() {
        let meta = TraceMeta::new(1, "app:x");
        let bytes = meta.encode_header(PayloadKind::Mem);
        let mut fixed = [0u8; HEADER_FIXED_LEN];
        fixed.copy_from_slice(&bytes[..HEADER_FIXED_LEN]);
        assert!(matches!(
            decode_header(&fixed, bytes[HEADER_FIXED_LEN..].to_vec()),
            Err(TraceError::Unfinalized)
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let meta = TraceMeta::new(1, "");
        let mut bytes = meta.encode_header(PayloadKind::Mem);
        bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
        let mut fixed = [0u8; HEADER_FIXED_LEN];
        fixed.copy_from_slice(&bytes[..HEADER_FIXED_LEN]);
        assert!(matches!(
            decode_header(&fixed, Vec::new()),
            Err(TraceError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));
    }
}
