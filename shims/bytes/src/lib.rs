//! Offline shim for the `bytes` crate.
//!
//! The build container has no route to the crates registry, so every
//! external dependency of this workspace is replaced by a small in-repo
//! crate implementing exactly the API surface the workspace uses (see
//! `shims/README.md`). This one covers:
//!
//! * [`Bytes`] — cheaply clonable immutable buffer (`Arc<Vec<u8>>`), used
//!   by `mosaic_pipeline::source::TraceInput` so cloning an input never
//!   copies megabytes of records.
//! * [`BytesMut`] — growable write buffer used by the MDF/MDX encoders.
//! * [`BufMut`] — little-endian appends. The wire formats are read by
//!   `mosaic_darshan`'s own borrowing cursor, so no `Buf` is provided.
//!
//! Semantics follow the real crate for the methods present; anything the
//! workspace does not call is deliberately absent.

#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A cheaply clonable, immutable, contiguous slice of memory.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
}

impl Bytes {
    /// Copy `data` into a new reference-counted buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Copy the bytes out into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        Bytes { data: Arc::new(data) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// A growable, appendable byte buffer.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut { data: Vec::with_capacity(capacity) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copy the contents into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

macro_rules! put_le {
    ($name:ident, $ty:ty) => {
        /// Append a little-endian value.
        fn $name(&mut self, v: $ty) {
            self.put_slice(&v.to_le_bytes());
        }
    };
}

/// Sequential appends onto a growable buffer.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    put_le!(put_u16_le, u16);
    put_le!(put_u32_le, u32);
    put_le!(put_u64_le, u64);
    put_le!(put_i16_le, i16);
    put_le!(put_i32_le, i32);
    put_le!(put_i64_le, i64);
    put_le!(put_f64_le, f64);
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_appends_write_little_endian_bytes() {
        let mut w = BytesMut::with_capacity(64);
        w.put_u8(7);
        w.put_u16_le(0xBEEF);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(0x0123_4567_89AB_CDEF);
        w.put_i64_le(-42);
        w.put_f64_le(1.5);
        w.put_slice(b"xyz");
        let mut want = vec![7u8];
        want.extend_from_slice(&0xBEEFu16.to_le_bytes());
        want.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        want.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        want.extend_from_slice(&(-42i64).to_le_bytes());
        want.extend_from_slice(&1.5f64.to_le_bytes());
        want.extend_from_slice(b"xyz");
        assert_eq!(w.to_vec(), want);
    }

    #[test]
    fn bytes_clone_shares_backing() {
        let b = Bytes::from(vec![1u8, 2, 3, 4]);
        let c = b.clone();
        assert_eq!(Arc::strong_count(&b.data), 2);
        assert_eq!(c.as_slice(), &[1, 2, 3, 4]);
    }
}
