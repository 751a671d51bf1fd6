//! Minimal binary wire codec for the persisted plan-cache snapshot and
//! the header of the `aviv-vm` binary container (`avivc --emit bin`),
//! which frames the machine-derived packed instruction stream.
//!
//! The workspace is dependency-free by policy (see `docs/serving.md`), so
//! both formats are hand-rolled: little-endian fixed-width integers,
//! length-prefixed byte strings, and (snapshot) a rolling FNV-1a checksum.
//! The decoder is written for hostile input — every length is bounded
//! before allocation, every read is range-checked, and any violation
//! surfaces as a [`WireError`] rather than a panic or an unbounded
//! allocation. The chaos suite feeds it truncated and bit-flipped files.

use std::fmt;

/// Upper bound on any single decoded collection length. Snapshots are
/// written by us, so a length beyond this is corruption, not data; the
/// bound keeps a flipped length byte from asking for gigabytes.
pub const MAX_SEQ_LEN: usize = 1 << 24;

/// Upper bound on any single decoded string length.
pub const MAX_STR_LEN: usize = 1 << 16;

/// Structured decode failure: what was being read and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What the decoder was reading when it failed.
    pub what: &'static str,
    /// Byte offset into the buffer.
    pub offset: usize,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot decode failed at byte {}: {}",
            self.offset, self.what
        )
    }
}

impl std::error::Error for WireError {}

/// FNV-1a over `bytes` — the snapshot payload checksum. Not
/// cryptographic; it detects the torn writes and bit flips the chaos
/// suite injects, while tampering is out of scope (the file lives next
/// to the binary that trusts it).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Finish, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Write a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u128`, little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Range-checked decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn err(&self, what: &'static str) -> WireError {
        WireError {
            what,
            offset: self.pos,
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(self.err(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a bool; any byte other than 0/1 is corruption.
    pub fn get_bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError {
                what,
                offset: self.pos - 1,
            }),
        }
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a little-endian `u128`.
    pub fn get_u128(&mut self, what: &'static str) -> Result<u128, WireError> {
        let b = self.take(16, what)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self, what: &'static str) -> Result<i64, WireError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(i64::from_le_bytes(a))
    }

    /// Read a `usize` written by [`Enc::put_usize`], bounded by
    /// [`MAX_SEQ_LEN`] — safe to use directly as an allocation size.
    pub fn get_usize(&mut self, what: &'static str) -> Result<usize, WireError> {
        let v = self.get_u64(what)?;
        if v > MAX_SEQ_LEN as u64 {
            return Err(self.err(what));
        }
        Ok(v as usize)
    }

    /// Read a collection length (`u32`), bounded by [`MAX_SEQ_LEN`].
    pub fn get_len(&mut self, what: &'static str) -> Result<usize, WireError> {
        let v = self.get_u32(what)?;
        if v as usize > MAX_SEQ_LEN {
            return Err(self.err(what));
        }
        Ok(v as usize)
    }

    /// Read a length-prefixed UTF-8 string, bounded by [`MAX_STR_LEN`].
    pub fn get_str(&mut self, what: &'static str) -> Result<String, WireError> {
        let n = self.get_u32(what)? as usize;
        if n > MAX_STR_LEN {
            return Err(self.err(what));
        }
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError {
            what,
            offset: self.pos - n,
        })
    }

    /// Fail unless every byte has been consumed — trailing garbage after
    /// a structurally valid payload is still corruption.
    pub fn finish(self, what: &'static str) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError {
                what,
                offset: self.pos,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_bool(true);
        e.put_u32(0xdead_beef);
        e.put_u64(u64::MAX - 1);
        e.put_u128(u128::MAX / 3);
        e.put_i64(-42);
        e.put_usize(12345);
        e.put_str("spill_slot_0");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.get_u8("a").unwrap(), 7);
        assert!(d.get_bool("b").unwrap());
        assert_eq!(d.get_u32("c").unwrap(), 0xdead_beef);
        assert_eq!(d.get_u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(d.get_u128("e").unwrap(), u128::MAX / 3);
        assert_eq!(d.get_i64("f").unwrap(), -42);
        assert_eq!(d.get_usize("g").unwrap(), 12345);
        assert_eq!(d.get_str("h").unwrap(), "spill_slot_0");
        d.finish("trailing").unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        e.put_u64(99);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(d.get_u64("x").is_err());
        }
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocation() {
        let mut e = Enc::new();
        e.put_u32(u32::MAX); // absurd collection length
        let bytes = e.into_bytes();
        assert!(Dec::new(&bytes).get_len("len").is_err());
        assert!(Dec::new(&bytes).get_str("str").is_err());
    }

    #[test]
    fn non_boolean_bytes_are_corruption() {
        let mut d = Dec::new(&[2u8]);
        assert!(d.get_bool("flag").is_err());
    }

    #[test]
    fn trailing_garbage_is_corruption() {
        let mut e = Enc::new();
        e.put_u8(1);
        e.put_u8(2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        d.get_u8("x").unwrap();
        assert!(d.finish("trailing").is_err());
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"abc"), fnv64(b"abd"));
    }
}
