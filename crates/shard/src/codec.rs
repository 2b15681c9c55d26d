//! The shard file: a compact versioned binary container with a
//! checksummed provenance header.
//!
//! Layout (all integers little-endian):
//!
//! | bytes | field |
//! |---|---|
//! | 8 | magic `LEOSHARD` |
//! | 4 | format version (`FORMAT_VERSION`) |
//! | 8 | `config_hash` (FNV-1a of the study config's canonical kv string) |
//! | 8 | `seed` |
//! | 4 | `shard_index` |
//! | 4 | `shard_count` |
//! | 8 | `pair_lo` (global pair-index range, inclusive start) |
//! | 8 | `pair_hi` (exclusive end) |
//! | 1 | `payload_kind` (always 1: latency keepers) |
//! | 8 | `payload_len` |
//! | 8 | FNV-1a 64 of the payload bytes |
//! | 8 | FNV-1a 64 of everything above |
//! | … | payload |
//!
//! Every read re-verifies both checksums, the magic, the version, and
//! the internal consistency of the header before a single payload byte
//! is interpreted, so a truncated or bit-flipped shard file fails with
//! a diagnostic instead of merging garbage into final outputs. The one
//! payload encoding, [`crate::keepers::LatencyKeepers`], lives in
//! [`crate::keepers`]; this module only moves bytes.

use leo_util::buf::{BufError, ByteReader, ByteWriter};
use leo_util::telemetry::fnv1a_64;
use std::fmt;
use std::path::Path;

/// On-disk format version; bumped on any layout change.
pub const FORMAT_VERSION: u32 = 1;

/// File magic, first 8 bytes of every shard file.
pub const MAGIC: &[u8; 8] = b"LEOSHARD";

const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 4 + 4 + 8 + 8 + 1 + 8 + 8 + 8;

/// The header's payload-kind byte. Latency keepers are the only
/// payload; the byte stays so files keep their version-1 layout, and any
/// other value is corrupt.
const PAYLOAD_KIND_LATENCY: u8 = 1;

/// Everything a merge needs to prove shard compatibility before
/// touching payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHeader {
    /// FNV-1a 64 of the producing study config's canonical kv string —
    /// shards of one run must agree bit for bit.
    pub config_hash: u64,
    /// The study RNG seed (provenance; the partition itself is
    /// unseeded).
    pub seed: u64,
    /// Which shard this is.
    pub shard_index: u32,
    /// Out of how many.
    pub shard_count: u32,
    /// Global pair-index range start (inclusive).
    pub pair_lo: u64,
    /// Global pair-index range end (exclusive).
    pub pair_hi: u64,
}

/// Why a shard file could not be written, read, or merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Filesystem-level failure.
    Io(String),
    /// The bytes are not a valid shard file (bad magic/version/checksum
    /// or an internally inconsistent payload).
    Corrupt(String),
    /// Individually valid shards that don't belong to the same run.
    Incompatible(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(m) => write!(f, "shard io: {m}"),
            ShardError::Corrupt(m) => write!(f, "shard corrupt: {m}"),
            ShardError::Incompatible(m) => write!(f, "shard incompatible: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// A payload or header that ends early or holds a non-UTF-8 string is
/// corrupt.
impl From<BufError> for ShardError {
    fn from(e: BufError) -> ShardError {
        ShardError::Corrupt(e.to_string())
    }
}

/// Assemble a complete shard file image (header + checksums + payload).
pub fn encode_shard(header: &ShardHeader, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.bytes(MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(header.config_hash);
    w.u64(header.seed);
    w.u32(header.shard_index);
    w.u32(header.shard_count);
    w.u64(header.pair_lo);
    w.u64(header.pair_hi);
    w.u8(PAYLOAD_KIND_LATENCY);
    w.u64(payload.len() as u64);
    w.u64(fnv1a_64(payload));
    let header_fnv = fnv1a_64(w.as_slice());
    w.u64(header_fnv);
    debug_assert_eq!(w.as_slice().len(), HEADER_LEN);
    w.bytes(payload);
    w.into_bytes()
}

/// Parse and fully verify a shard file image; returns the header and
/// the (checksum-verified) payload slice.
pub fn decode_shard(bytes: &[u8]) -> Result<(ShardHeader, &[u8]), ShardError> {
    if bytes.len() < HEADER_LEN {
        return Err(ShardError::Corrupt(format!(
            "file is {} bytes, header alone is {HEADER_LEN}",
            bytes.len()
        )));
    }
    let mut r = ByteReader::new(&bytes[..HEADER_LEN]);
    let magic = r.bytes(8)?;
    if magic != MAGIC {
        return Err(ShardError::Corrupt("bad magic (not a shard file)".into()));
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(ShardError::Corrupt(format!(
            "format version {version}, this build reads {FORMAT_VERSION}"
        )));
    }
    let config_hash = r.u64()?;
    let seed = r.u64()?;
    let shard_index = r.u32()?;
    let shard_count = r.u32()?;
    let pair_lo = r.u64()?;
    let pair_hi = r.u64()?;
    let kind = r.u8()?;
    if kind != PAYLOAD_KIND_LATENCY {
        return Err(ShardError::Corrupt(format!("unknown payload kind {kind}")));
    }
    let payload_len = r.u64()?;
    let payload_fnv = r.u64()?;
    let header_fnv = r.u64()?;
    let computed = fnv1a_64(&bytes[..HEADER_LEN - 8]);
    if header_fnv != computed {
        return Err(ShardError::Corrupt(format!(
            "header checksum {header_fnv:#018x} != computed {computed:#018x}"
        )));
    }
    if shard_count == 0 || shard_index >= shard_count {
        return Err(ShardError::Corrupt(format!(
            "shard index {shard_index} out of range 0..{shard_count}"
        )));
    }
    if pair_lo > pair_hi {
        return Err(ShardError::Corrupt(format!(
            "pair range {pair_lo}..{pair_hi} is inverted"
        )));
    }
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != payload_len {
        return Err(ShardError::Corrupt(format!(
            "payload is {} bytes, header says {payload_len}",
            payload.len()
        )));
    }
    let computed = fnv1a_64(payload);
    if payload_fnv != computed {
        return Err(ShardError::Corrupt(format!(
            "payload checksum {payload_fnv:#018x} != computed {computed:#018x}"
        )));
    }
    Ok((
        ShardHeader {
            config_hash,
            seed,
            shard_index,
            shard_count,
            pair_lo,
            pair_hi,
        },
        payload,
    ))
}

/// Write a shard file, returning the bytes spilled (also added to the
/// `shard_spill_bytes` counter).
pub fn write_shard(path: &Path, header: &ShardHeader, payload: &[u8]) -> Result<u64, ShardError> {
    let bytes = encode_shard(header, payload);
    std::fs::write(path, &bytes)
        .map_err(|e| ShardError::Io(format!("write {}: {e}", path.display())))?;
    crate::SHARD_SPILL_BYTES.add(bytes.len() as u64);
    Ok(bytes.len() as u64)
}

/// Read and verify a shard file.
pub fn read_shard(path: &Path) -> Result<(ShardHeader, Vec<u8>), ShardError> {
    let bytes =
        std::fs::read(path).map_err(|e| ShardError::Io(format!("read {}: {e}", path.display())))?;
    let (header, payload) = decode_shard(&bytes)?;
    Ok((header, payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> ShardHeader {
        ShardHeader {
            config_hash: 0xfeed_beef_dead_cafe,
            seed: 42,
            shard_index: 1,
            shard_count: 4,
            pair_lo: 250,
            pair_hi: 500,
        }
    }

    #[test]
    fn roundtrip_preserves_header_and_payload() {
        let payload: Vec<u8> = (0..=255u8).collect();
        let bytes = encode_shard(&header(), &payload);
        let (h, p) = decode_shard(&bytes).unwrap();
        assert_eq!(h, header());
        assert_eq!(p, &payload[..]);
    }

    #[test]
    fn every_single_byte_flip_in_header_is_rejected() {
        let bytes = encode_shard(&header(), b"payload bytes");
        for i in 0..HEADER_LEN {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(decode_shard(&bad).is_err(), "flip at header byte {i}");
        }
    }

    #[test]
    fn any_payload_kind_but_latency_is_corrupt() {
        // Re-seal the header checksum after the edit, so the kind byte
        // is the only fault left in the file.
        let mut bytes = encode_shard(&header(), b"payload bytes");
        let kind_at = HEADER_LEN - 8 - 8 - 8 - 1;
        assert_eq!(bytes[kind_at], PAYLOAD_KIND_LATENCY);
        bytes[kind_at] = 2;
        let sealed = fnv1a_64(&bytes[..HEADER_LEN - 8]);
        bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&sealed.to_le_bytes());
        match decode_shard(&bytes) {
            Err(ShardError::Corrupt(m)) => assert!(m.contains("payload kind 2"), "{m}"),
            other => panic!("kind byte 2 was not rejected as corrupt: {other:?}"),
        }
    }

    #[test]
    fn payload_flips_and_truncations_are_rejected() {
        let bytes = encode_shard(&header(), b"payload bytes");
        for i in HEADER_LEN..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_shard(&bad).is_err(), "flip at payload byte {i}");
        }
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            assert!(decode_shard(&bytes[..cut]).is_err(), "truncated to {cut}");
        }
    }
}
