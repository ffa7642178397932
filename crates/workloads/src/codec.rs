//! Minimal binary codec for checkpoint payloads.
//!
//! Checkpoints cross the (simulated) wire and land in the KV store as raw
//! bytes, so kernel states need a compact, dependency-free, versioned
//! binary encoding. All integers are little-endian; strings and byte blobs
//! are length-prefixed with `u32`.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::error::Error;
use std::fmt;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof {
        /// What was being decoded.
        what: &'static str,
    },
    /// A length prefix exceeded the remaining input.
    BadLength {
        /// What was being decoded.
        what: &'static str,
        /// Claimed length.
        len: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A tag or version byte had an unknown value.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// UTF-8 validation failed for a string.
    BadUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { what } => write!(f, "unexpected EOF decoding {what}"),
            CodecError::BadLength {
                what,
                len,
                remaining,
            } => write!(
                f,
                "bad length {len} for {what} (only {remaining} bytes left)"
            ),
            CodecError::BadTag { what, value } => write!(f, "bad tag {value} for {what}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
        }
    }
}

impl Error for CodecError {}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// Empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }

    /// Append a `u32` (LE).
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32_le(v);
        self
    }

    /// Append a `u64` (LE).
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64_le(v);
        self
    }

    /// Append an `f64` (LE bit pattern).
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.buf.put_f64_le(v);
        self
    }

    /// Append a length-prefixed byte blob.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        assert!(v.len() <= u32::MAX as usize, "blob too large");
        self.buf.put_u32_le(v.len() as u32);
        self.buf.put_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Append a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, v: &[f64]) -> &mut Self {
        assert!(v.len() <= u32::MAX as usize, "slice too large");
        self.buf.put_u32_le(v.len() as u32);
        for &x in v {
            self.buf.put_f64_le(x);
        }
        self
    }

    /// Finish and return the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Drop the contents but keep the capacity, so one encoder can be
    /// reused across many rows without reallocating (hot-path scratch).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The bytes written so far, without consuming the encoder. Pair
    /// with [`Encoder::clear`] on reuse paths that copy the encoding out
    /// (e.g. into a single refcounted buffer) instead of freezing.
    pub fn encoded(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Checked decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Decode from a slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf }
    }

    fn need(&self, n: usize, what: &'static str) -> Result<(), CodecError> {
        if self.buf.remaining() < n {
            Err(CodecError::UnexpectedEof { what })
        } else {
            Ok(())
        }
    }

    /// Read a `u8`.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        self.need(1, what)?;
        Ok(self.buf.get_u8())
    }

    /// Read a `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        self.need(4, what)?;
        Ok(self.buf.get_u32_le())
    }

    /// Read a `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        self.need(8, what)?;
        Ok(self.buf.get_u64_le())
    }

    /// Read an `f64`.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        self.need(8, what)?;
        Ok(self.buf.get_f64_le())
    }

    /// Read a `u32` count of elements that take at least `min_elem_bytes`
    /// each. A count the remaining input cannot hold is
    /// [`CodecError::BadLength`] (reporting the claimed bytes), so callers
    /// may preallocate the count it returns.
    pub fn len_prefix(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, CodecError> {
        let len = self.u32(what)? as usize;
        let claimed = len.saturating_mul(min_elem_bytes);
        if claimed > self.buf.remaining() {
            return Err(CodecError::BadLength {
                what,
                len: claimed,
                remaining: self.buf.remaining(),
            });
        }
        Ok(len)
    }

    /// Read a length-prefixed byte blob.
    pub fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, CodecError> {
        let len = self.len_prefix(what, 1)?;
        let mut out = vec![0u8; len];
        self.buf.copy_to_slice(&mut out);
        Ok(out)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, CodecError> {
        String::from_utf8(self.bytes(what)?).map_err(|_| CodecError::BadUtf8)
    }

    /// Read a length-prefixed `f64` vector.
    pub fn f64_vec(&mut self, what: &'static str) -> Result<Vec<f64>, CodecError> {
        let len = self.len_prefix(what, 8)?;
        Ok((0..len).map(|_| self.buf.get_f64_le()).collect())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Assert the input was fully consumed.
    pub fn finish(self, what: &'static str) -> Result<(), CodecError> {
        if self.buf.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::BadLength {
                what,
                len: 0,
                remaining: self.buf.remaining(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut e = Encoder::new();
        e.put_u8(7).put_u32(1234).put_u64(u64::MAX).put_f64(3.5);
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(d.u8("a").unwrap(), 7);
        assert_eq!(d.u32("b").unwrap(), 1234);
        assert_eq!(d.u64("c").unwrap(), u64::MAX);
        assert_eq!(d.f64("d").unwrap(), 3.5);
        d.finish("all").unwrap();
    }

    #[test]
    fn round_trip_blobs_and_strings() {
        let mut e = Encoder::new();
        e.put_bytes(&[1, 2, 3])
            .put_str("héllo")
            .put_f64_slice(&[1.0, -2.0]);
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(d.bytes("blob").unwrap(), vec![1, 2, 3]);
        assert_eq!(d.str("s").unwrap(), "héllo");
        assert_eq!(d.f64_vec("v").unwrap(), vec![1.0, -2.0]);
        d.finish("all").unwrap();
    }

    #[test]
    fn eof_detected() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(matches!(
            d.u64("x"),
            Err(CodecError::UnexpectedEof { what: "x" })
        ));
    }

    #[test]
    fn bad_length_detected() {
        let mut e = Encoder::new();
        e.put_u32(1000); // claims 1000-byte blob, provides none
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert!(matches!(d.bytes("blob"), Err(CodecError::BadLength { .. })));
    }

    #[test]
    fn len_prefix_rejects_counts_the_input_cannot_hold() {
        let mut e = Encoder::new();
        e.put_u32(3).put_u64(0).put_u64(0).put_u64(0);
        let b = e.finish();
        // Three 8-byte elements fit the 24 bytes left; three 9-byte ones do not.
        assert_eq!(Decoder::new(&b).len_prefix("fits", 8), Ok(3));
        assert_eq!(
            Decoder::new(&b).len_prefix("too long", 9),
            Err(CodecError::BadLength {
                what: "too long",
                len: 27,
                remaining: 24,
            })
        );
        let mut e = Encoder::new();
        e.put_u32(u32::MAX);
        assert!(matches!(
            Decoder::new(&e.finish()).len_prefix("huge", 8),
            Err(CodecError::BadLength { remaining: 0, .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Encoder::new();
        e.put_u8(1).put_u8(2);
        let b = e.finish();
        let mut d = Decoder::new(&b);
        d.u8("first").unwrap();
        assert!(d.finish("rest").is_err());
    }

    #[test]
    fn bad_utf8_detected() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xFF, 0xFE]);
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(d.str("s"), Err(CodecError::BadUtf8));
    }
}
