//! The workspace's one little-endian byte codec.
//!
//! * [`ByteWriter`] appends fixed-width integers, IEEE-754 bit patterns,
//!   raw bytes, and length-prefixed UTF-8 strings to a growable buffer.
//! * [`ByteReader`] reads them back from the front of a slice. Every
//!   read is bounds-checked, so truncated or corrupt bytes surface as a
//!   [`BufError`] instead of a panic — decoders of untrusted files (the
//!   `leo-shard` spill format) propagate it with `?`.

use std::fmt;

/// Why a [`ByteReader`] read failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufError {
    /// Fewer than `need` bytes remain at `offset` of a `len`-byte buffer.
    Truncated {
        /// Bytes the read asked for.
        need: usize,
        /// Read position when the read was attempted.
        offset: usize,
        /// Total buffer length.
        len: usize,
    },
    /// A length-prefixed string field is not valid UTF-8.
    NotUtf8,
}

impl fmt::Display for BufError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufError::Truncated { need, offset, len } => write!(
                f,
                "truncated payload: need {need} bytes at offset {offset} of {len}"
            ),
            BufError::NotUtf8 => write!(f, "string field is not UTF-8"),
        }
    }
}

impl std::error::Error for BufError {}

/// Growable little-endian write buffer.
#[derive(Debug, Clone, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty buffer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// View the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Finish writing and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes (no length prefix).
    #[inline]
    pub fn bytes(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Append a `u8`.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append a little-endian `i128` (the `FixedSum` accumulator).
    #[inline]
    pub fn i128(&mut self, v: i128) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern — bit-exact, NaNs
    /// and infinities included.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader over a byte slice; each read
/// consumes from the front.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// True when every byte has been consumed — decoders check this so
    /// trailing garbage is rejected, not ignored.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], BufError> {
        match self.buf.get(self.pos..self.pos.saturating_add(n)) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(BufError::Truncated {
                need: n,
                offset: self.pos,
                len: self.buf.len(),
            }),
        }
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], BufError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Next `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, BufError> {
        Ok(self.array::<1>()?[0])
    }

    /// Next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, BufError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, BufError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Next little-endian `i128`.
    #[inline]
    pub fn i128(&mut self) -> Result<i128, BufError> {
        self.array().map(i128::from_le_bytes)
    }

    /// Next `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, BufError> {
        self.u64().map(f64::from_bits)
    }

    /// Next `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<String, BufError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| BufError::NotUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut w = ByteWriter::new();
        w.u8(0xAB);
        w.u32(0xDEADBEEF);
        w.u64(0x0102030405060708);
        w.i128(-(1i128 << 100));
        w.f64(-1234.5678);
        w.str("héllo");
        w.bytes(b"xyz");
        let v = w.into_bytes();
        let mut r = ByteReader::new(&v);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u32(), Ok(0xDEADBEEF));
        assert_eq!(r.u64(), Ok(0x0102030405060708));
        assert_eq!(r.i128(), Ok(-(1i128 << 100)));
        assert_eq!(r.f64(), Ok(-1234.5678));
        assert_eq!(r.str().as_deref(), Ok("héllo"));
        assert_eq!(r.bytes(3), Ok(&b"xyz"[..]));
        assert!(r.is_exhausted());
    }

    #[test]
    fn encoding_is_little_endian() {
        let mut w = ByteWriter::new();
        w.u32(1);
        assert_eq!(w.as_slice(), &[1, 0, 0, 0]);
    }

    #[test]
    fn short_reads_are_errors_and_consume_nothing() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(
            r.u64(),
            Err(BufError::Truncated {
                need: 8,
                offset: 0,
                len: 3
            })
        );
        assert!(r.bytes(usize::MAX).is_err());
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.bytes(2), Ok(&[2, 3][..]));
        assert!(r.is_exhausted());
        assert!(BufError::Truncated {
            need: 8,
            offset: 1,
            len: 3
        }
        .to_string()
        .contains("need 8 bytes at offset 1 of 3"));
    }

    #[test]
    fn strings_reject_bad_utf8_and_overlong_prefixes() {
        let mut w = ByteWriter::new();
        w.u32(2);
        w.u8(0xff);
        w.u8(0xfe);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).str(), Err(BufError::NotUtf8));
        let mut w = ByteWriter::new();
        w.u32(100);
        w.bytes(b"short");
        let bytes = w.into_bytes();
        assert!(matches!(
            ByteReader::new(&bytes).str(),
            Err(BufError::Truncated { need: 100, .. })
        ));
    }

    #[test]
    fn f64_bit_exact() {
        for x in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            1.0e300,
            f64::INFINITY,
            f64::NAN,
        ] {
            let mut w = ByteWriter::new();
            w.f64(x);
            let mut r = ByteReader::new(w.as_slice());
            assert_eq!(r.f64().map(f64::to_bits), Ok(x.to_bits()));
        }
    }
}
