//! The one little-endian wire reader behind both binary formats: the MDF
//! parser ([`crate::view::TraceView::parse`]) and the MDX parser
//! ([`crate::dxt::from_bytes`]).
//!
//! A [`Cursor`] borrows the payload and names the field each read was
//! after, so a truncation error says which field ran out. The fixed-width
//! `le_*` readers decode at an offset the caller has already length-checked.

use crate::error::FormatError;

/// A borrowing cursor over a payload.
pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes, or [`FormatError::Truncated`] naming `context`.
    pub(crate) fn take(
        &mut self,
        n: usize,
        context: &'static str,
    ) -> Result<&'a [u8], FormatError> {
        if self.buf.len() < n {
            return Err(FormatError::Truncated { context });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    pub(crate) fn u8(&mut self, context: &'static str) -> Result<u8, FormatError> {
        Ok(le_u8(self.take(1, context)?, 0))
    }

    pub(crate) fn u16(&mut self, context: &'static str) -> Result<u16, FormatError> {
        Ok(le_u16(self.take(2, context)?, 0))
    }

    pub(crate) fn u32(&mut self, context: &'static str) -> Result<u32, FormatError> {
        Ok(le_u32(self.take(4, context)?, 0))
    }

    pub(crate) fn i32(&mut self, context: &'static str) -> Result<i32, FormatError> {
        Ok(le_i32(self.take(4, context)?, 0))
    }

    pub(crate) fn i64(&mut self, context: &'static str) -> Result<i64, FormatError> {
        Ok(le_i64(self.take(8, context)?, 0))
    }

    pub(crate) fn u64(&mut self, context: &'static str) -> Result<u64, FormatError> {
        Ok(le_u64(self.take(8, context)?, 0))
    }

    pub(crate) fn f64(&mut self, context: &'static str) -> Result<f64, FormatError> {
        Ok(le_f64(self.take(8, context)?, 0))
    }

    pub(crate) fn str(
        &mut self,
        len: usize,
        context: &'static str,
    ) -> Result<&'a str, FormatError> {
        let raw = self.take(len, context)?;
        std::str::from_utf8(raw).map_err(|_| FormatError::InvalidUtf8 { context })
    }

    /// A `u32` entry count, rejected as [`FormatError::ImplausibleLength`]
    /// above `max`. Both errors name `context`.
    pub(crate) fn count(&mut self, max: u32, context: &'static str) -> Result<u32, FormatError> {
        let n = self.u32(context)?;
        if n > max {
            return Err(FormatError::ImplausibleLength { context, len: u64::from(n) });
        }
        Ok(n)
    }
}

// Fixed-width little-endian readers. Callers guarantee `off + size` is in
// bounds (cursor takes and record strides are length-checked structurally),
// so the one slice below cannot fire on any input that reached them.

#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "callers pass offsets inside a length-checked take/stride"
)]
fn le_bytes<const N: usize>(b: &[u8], off: usize) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(&b[off..off + N]);
    a
}

#[inline]
pub(crate) fn le_u8(b: &[u8], off: usize) -> u8 {
    u8::from_le_bytes(le_bytes(b, off))
}

#[inline]
pub(crate) fn le_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(le_bytes(b, off))
}

#[inline]
pub(crate) fn le_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(le_bytes(b, off))
}

#[inline]
pub(crate) fn le_i32(b: &[u8], off: usize) -> i32 {
    i32::from_le_bytes(le_bytes(b, off))
}

#[inline]
pub(crate) fn le_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(le_bytes(b, off))
}

#[inline]
pub(crate) fn le_i64(b: &[u8], off: usize) -> i64 {
    i64::from_le_bytes(le_bytes(b, off))
}

#[inline]
pub(crate) fn le_f64(b: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(le_bytes(b, off))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_readers_decode_little_endian_at_any_offset() {
        let bytes: Vec<u8> = (0..32u8).map(|b| b.wrapping_mul(37) ^ 0xa5).collect();
        for off in 0..=bytes.len() - 8 {
            let at = |n: usize| &bytes[off..off + n];
            assert_eq!(le_u8(&bytes, off), bytes[off]);
            assert_eq!(le_u16(&bytes, off), u16::from_le_bytes(at(2).try_into().unwrap()));
            assert_eq!(le_u32(&bytes, off), u32::from_le_bytes(at(4).try_into().unwrap()));
            assert_eq!(le_i32(&bytes, off), i32::from_le_bytes(at(4).try_into().unwrap()));
            assert_eq!(le_u64(&bytes, off), u64::from_le_bytes(at(8).try_into().unwrap()));
            assert_eq!(le_i64(&bytes, off), i64::from_le_bytes(at(8).try_into().unwrap()));
            let f = f64::from_le_bytes(at(8).try_into().unwrap());
            assert_eq!(le_f64(&bytes, off).to_bits(), f.to_bits());
        }
    }

    #[test]
    fn count_accepts_its_max_and_rejects_one_more() {
        let read = |n: u32| Cursor { buf: &n.to_le_bytes() }.count(7, "widgets");
        assert_eq!(read(0), Ok(0));
        assert_eq!(read(7), Ok(7));
        assert_eq!(read(8), Err(FormatError::ImplausibleLength { context: "widgets", len: 8 }));
        assert_eq!(
            read(u32::MAX),
            Err(FormatError::ImplausibleLength { context: "widgets", len: u64::from(u32::MAX) })
        );
        let short = Cursor { buf: &[1, 0, 0] }.count(7, "widgets");
        assert_eq!(short, Err(FormatError::Truncated { context: "widgets" }));
    }
}
