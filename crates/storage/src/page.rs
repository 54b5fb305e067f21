//! Fixed-size pages, the unit of disk I/O and buffering.

use std::fmt;

/// Size of every page in bytes. 8 KiB matches common RDBMS defaults
/// (PostgreSQL uses 8 KiB; the paper's DBMS-x likewise pages its tables).
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page within a disk backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel meaning "no page" (used e.g. for B+tree leaf chaining).
    pub const INVALID: PageId = PageId(u64::MAX);

    /// Returns true unless this is the [`PageId::INVALID`] sentinel.
    pub fn is_valid(self) -> bool {
        self != PageId::INVALID
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "page#{}", self.0)
        } else {
            write!(f, "page#invalid")
        }
    }
}

/// An in-memory page image.
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A zero-filled page.
    pub fn zeroed() -> Self {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// Immutable view of the raw bytes.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable view of the raw bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page {
            data: Box::new(*self.data),
        }
    }
}

/// Little-endian scalar accessors used by the slotted-page and B+tree
/// layouts. Offsets are asserted in debug builds only; layout code is
/// responsible for staying in bounds.
pub mod codec {
    /// Reads a `u16` at `off`.
    #[inline]
    pub fn get_u16(buf: &[u8], off: usize) -> u16 {
        u16::from_le_bytes([buf[off], buf[off + 1]])
    }

    /// Writes a `u16` at `off`.
    #[inline]
    pub fn put_u16(buf: &mut [u8], off: usize, v: u16) {
        buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u32` at `off`.
    #[inline]
    pub fn get_u32(buf: &[u8], off: usize) -> u32 {
        let b = &buf[off..off + 4];
        u32::from_le_bytes(std::array::from_fn(|i| b[i]))
    }

    /// Writes a `u32` at `off`.
    #[inline]
    pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
        buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u64` at `off`.
    #[inline]
    pub fn get_u64(buf: &[u8], off: usize) -> u64 {
        let b = &buf[off..off + 8];
        u64::from_le_bytes(std::array::from_fn(|i| b[i]))
    }

    /// Writes a `u64` at `off`.
    #[inline]
    pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
        buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_all_zero() {
        let p = Page::zeroed();
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn codec_roundtrip() {
        let mut p = Page::zeroed();
        codec::put_u16(p.bytes_mut(), 0, 0xBEEF);
        codec::put_u32(p.bytes_mut(), 2, 0xDEADBEEF);
        codec::put_u64(p.bytes_mut(), 6, u64::MAX - 7);
        assert_eq!(codec::get_u16(p.bytes(), 0), 0xBEEF);
        assert_eq!(codec::get_u32(p.bytes(), 2), 0xDEADBEEF);
        assert_eq!(codec::get_u64(p.bytes(), 6), u64::MAX - 7);
    }

    #[test]
    fn invalid_page_id() {
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId(0).is_valid());
        assert_eq!(format!("{}", PageId(3)), "page#3");
    }
}
