//! Binary wire primitives for the routing service.
//!
//! `cst-serve` speaks a length-prefixed binary protocol over TCP/Unix
//! sockets. The frame *contents* are built from a tiny fixed vocabulary
//! defined here so the codec has one home and one set of error types:
//!
//! * all integers are **little-endian, fixed width** (`u8`/`u16`/`u32`/
//!   `u64`) — no varints, so decode never loops on attacker-controlled
//!   widths;
//! * variable-length fields (strings, byte blobs) are `u32`
//!   length-prefixed, and the length is validated against the bytes
//!   actually present *before* any allocation or copy;
//! * decoding borrows from the input buffer (`&str` / `&[u8]` slices),
//!   which is what keeps the daemon's warm request path allocation-free.
//!
//! Errors are typed, never panics: a truncated or malformed buffer is a
//! protocol-level condition the server answers with an error frame, not a
//! crash. [`WireError::Malformed`] carries a `&'static str` reason for the
//! same reason decoding borrows — the hot path must not allocate to fail.

use std::fmt;

/// Typed decode failure. Every decoder in the workspace returns this —
/// arbitrary input bytes must produce an `Err`, never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a fixed-width field or a declared length.
    Truncated {
        /// Bytes the current field needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// A declared length exceeds the decoder's limit (frame cap, field
    /// cap). Checked before allocating, so a hostile length prefix cannot
    /// balloon memory.
    TooLong {
        /// The declared length.
        len: usize,
        /// The limit it exceeded.
        max: usize,
    },
    /// Structurally invalid contents (bad tag byte, non-UTF-8 string,
    /// trailing garbage).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated: field needs {needed} bytes, {have} remain")
            }
            WireError::TooLong { len, max } => {
                write!(f, "declared length {len} exceeds limit {max}")
            }
            WireError::Malformed(why) => write!(f, "malformed: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a little-endian u16.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian u32.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian u64.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32`-length-prefixed byte blob.
///
/// # Panics
///
/// Panics if `bytes.len()` exceeds `u32::MAX` — encoders own their inputs
/// and the frame cap is far below 4 GiB, so this is a programming error,
/// not a runtime condition.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    assert!(bytes.len() <= u32::MAX as usize, "blob exceeds u32 length prefix");
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Append a `u32`-length-prefixed blob that `write` appends in place:
/// the prefix is reserved first and filled in once the length is known,
/// so the blob is never assembled in a buffer of its own.
pub fn put_bytes_with(buf: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    put_u32(buf, 0);
    write(buf);
    let len = buf.len() - at - 4;
    assert!(len <= u32::MAX as usize, "blob exceeds u32 length prefix");
    buf[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Borrowing decoder over a byte slice.
///
/// All `take_*` methods advance the cursor on success and leave it
/// unmoved on failure. Variable-length reads return slices *borrowed from
/// the input*, so decoding a request into caller-owned scratch performs
/// zero allocations.
///
/// # Examples
///
/// ```
/// use cst_core::wire::{put_str, put_u64, WireCursor};
///
/// let mut buf = Vec::new();
/// put_u64(&mut buf, 42);
/// put_str(&mut buf, "csa");
///
/// let mut cur = WireCursor::new(&buf);
/// assert_eq!(cur.take_u64().unwrap(), 42);
/// assert_eq!(cur.take_str().unwrap(), "csa");
/// assert!(cur.expect_end().is_ok());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WireCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireCursor<'a> {
    /// Start decoding at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> WireCursor<'a> {
        WireCursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let have = self.remaining();
        if have < n {
            return Err(WireError::Truncated { needed: n, have });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Consume and return every byte not yet read. Infallible (an empty
    /// tail yields an empty slice); the cursor is exhausted afterwards.
    /// Used to skip trailing fields appended by newer frame minors.
    pub fn take_rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    /// Read a little-endian u16.
    pub fn take_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian u32.
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian u64.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        Ok(u64::from_le_bytes(w))
    }

    /// Read a `u32`-length-prefixed blob, borrowed from the input. The
    /// declared length is checked against the remaining bytes before any
    /// slicing, so a hostile prefix yields `Truncated`, never a panic.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.take_u32()? as usize;
        let have = self.remaining();
        if have < len {
            // Roll back the length word so the cursor is unmoved on error.
            self.pos -= 4;
            return Err(WireError::Truncated { needed: len, have });
        }
        self.take(len)
    }

    /// Read a `u32`-length-prefixed UTF-8 string, borrowed from the input.
    pub fn take_str(&mut self) -> Result<&'a str, WireError> {
        let start = self.pos;
        let bytes = self.take_bytes()?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s),
            Err(_) => {
                self.pos = start;
                Err(WireError::Malformed("string is not UTF-8"))
            }
        }
    }

    /// Require that the whole buffer was consumed — trailing garbage in a
    /// frame is a protocol error, not padding.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after frame body"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xab);
        put_u16(&mut buf, 0xbeef);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, 0x0123_4567_89ab_cdef);
        put_bytes(&mut buf, &[1, 2, 3]);
        put_str(&mut buf, "général"); // non-ASCII survives

        let mut cur = WireCursor::new(&buf);
        assert_eq!(cur.take_u8().unwrap(), 0xab);
        assert_eq!(cur.take_u16().unwrap(), 0xbeef);
        assert_eq!(cur.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(cur.take_u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(cur.take_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(cur.take_str().unwrap(), "général");
        assert!(cur.expect_end().is_ok());
    }

    #[test]
    fn take_rest_drains_the_tail_and_is_safe_when_empty() {
        let buf = [0xaa, 0xbb, 0xcc];
        let mut cur = WireCursor::new(&buf);
        assert_eq!(cur.take_u8().unwrap(), 0xaa);
        assert_eq!(cur.take_rest(), &[0xbb, 0xcc]);
        assert!(cur.is_empty());
        assert_eq!(cur.take_rest(), &[] as &[u8]);
        assert!(cur.expect_end().is_ok());
    }

    #[test]
    fn truncation_is_typed_and_non_destructive() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 7);
        let mut cur = WireCursor::new(&buf[..5]);
        let err = cur.take_u64().unwrap_err();
        assert_eq!(err, WireError::Truncated { needed: 8, have: 5 });
        // Cursor unmoved: the same read fails identically.
        assert_eq!(cur.take_u64().unwrap_err(), err);
        assert_eq!(cur.remaining(), 5);
    }

    #[test]
    fn hostile_length_prefix_is_truncated_not_panic() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX); // claims 4 GiB follow
        let mut cur = WireCursor::new(&buf);
        match cur.take_bytes().unwrap_err() {
            WireError::Truncated { needed, have } => {
                assert_eq!(needed, u32::MAX as usize);
                assert_eq!(have, 0);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Length word rolled back: remaining unchanged.
        assert_eq!(cur.remaining(), 4);
    }

    #[test]
    fn non_utf8_string_is_malformed() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[0xff, 0xfe]);
        let mut cur = WireCursor::new(&buf);
        assert_eq!(
            cur.take_str().unwrap_err(),
            WireError::Malformed("string is not UTF-8")
        );
        assert_eq!(cur.remaining(), buf.len());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 1);
        put_u8(&mut buf, 2);
        let mut cur = WireCursor::new(&buf);
        cur.take_u8().unwrap();
        assert!(cur.expect_end().is_err());
        cur.take_u8().unwrap();
        assert!(cur.expect_end().is_ok());
    }
}
