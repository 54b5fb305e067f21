//! Disk backends: where pages physically live.
//!
//! Three implementations are provided: [`FileDisk`] (a single file, page
//! `i` at byte offset `i * PAGE_SIZE`) for realistic disk-resident runs,
//! [`MemDisk`] for tests and for modelling a fully-cached database, and
//! [`SnapshotDisk`] — a copy-on-write view over an `Arc`-shared frozen
//! page image, the storage half of the shared-snapshot / per-session
//! architecture (DESIGN.md §10).

use crate::error::{Result, StorageError};
use crate::page::{PageId, PAGE_SIZE};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// Abstraction over the physical medium holding pages. `Send` so a
/// database session owning a backend can move to a worker thread.
pub trait DiskBackend: Send {
    /// Reads page `pid` into `buf`.
    fn read_page(&mut self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()>;

    /// Writes `buf` to page `pid`.
    fn write_page(&mut self, pid: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()>;

    /// Allocates a fresh zeroed page and returns its id.
    fn allocate_page(&mut self) -> Result<PageId>;

    /// Number of pages ever allocated.
    fn num_pages(&self) -> u64;

    /// Flushes any backend buffering to stable storage.
    fn sync(&mut self) -> Result<()>;
}

/// A file-backed disk: one flat file of pages.
pub struct FileDisk {
    file: File,
    num_pages: u64,
}

impl FileDisk {
    /// Opens (creating if needed) the file at `path` as a page store.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FileDisk {
            file,
            num_pages: len / PAGE_SIZE as u64,
        })
    }

    /// Creates a page store in a fresh temporary file that is unlinked on
    /// drop (the usual way benches and examples run "disk-resident").
    pub fn temp() -> Result<Self> {
        let mut path = std::env::temp_dir();
        let unique = format!(
            "fempath-{}-{:x}.db",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        );
        path.push(unique);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        // Unlink immediately: the fd keeps the storage alive, the name goes
        // away, so aborted runs leave nothing behind.
        let _ = std::fs::remove_file(&path);
        Ok(FileDisk { file, num_pages: 0 })
    }

    fn check(&self, pid: PageId) -> Result<u64> {
        if !pid.is_valid() || pid.0 >= self.num_pages {
            return Err(StorageError::InvalidPageId(pid.0));
        }
        Ok(pid.0 * PAGE_SIZE as u64)
    }
}

impl DiskBackend for FileDisk {
    fn read_page(&mut self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        let off = self.check(pid)?;
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(buf)?;
        Ok(())
    }

    fn write_page(&mut self, pid: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        let off = self.check(pid)?;
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write_all(buf)?;
        Ok(())
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        let pid = PageId(self.num_pages);
        self.num_pages += 1;
        self.file.seek(SeekFrom::Start(pid.0 * PAGE_SIZE as u64))?;
        self.file.write_all(&[0u8; PAGE_SIZE])?;
        Ok(pid)
    }

    fn num_pages(&self) -> u64 {
        self.num_pages
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// An in-memory disk, useful for unit tests and all-in-buffer modelling.
#[derive(Default)]
pub struct MemDisk {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
}

impl MemDisk {
    /// An empty in-memory disk.
    pub fn new() -> Self {
        MemDisk::default()
    }

    fn check(&self, pid: PageId) -> Result<usize> {
        if !pid.is_valid() || pid.0 as usize >= self.pages.len() {
            return Err(StorageError::InvalidPageId(pid.0));
        }
        Ok(pid.0 as usize)
    }
}

impl DiskBackend for MemDisk {
    fn read_page(&mut self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        let i = self.check(pid)?;
        buf.copy_from_slice(&self.pages[i][..]);
        Ok(())
    }

    fn write_page(&mut self, pid: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        let i = self.check(pid)?;
        self.pages[i].copy_from_slice(buf);
        Ok(())
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        let pid = PageId(self.pages.len() as u64);
        self.pages.push(Box::new([0u8; PAGE_SIZE]));
        Ok(pid)
    }

    fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

/// An immutable page image shared between sessions. Produced by
/// [`crate::buffer::BufferPool::snapshot_pages`]; consumed by
/// [`SnapshotDisk`].
pub type SnapshotPages = Arc<Vec<Box<[u8; PAGE_SIZE]>>>;

/// A copy-on-write disk over a shared read-only page image.
///
/// Reads of base pages come straight from the shared snapshot (no copy
/// beyond the buffer-pool frame fill); the first write to any page —
/// base or fresh — lands in private storage owned by this backend.
/// Page ids are stable across the base/private split, so heap files and
/// B+trees frozen into the snapshot keep working unchanged, and pages a
/// session allocates (its private working tables) start past the end of
/// the base image. Many sessions can therefore share one graph image
/// while each mutates its own working state.
///
/// Private storage is split by access pattern (DESIGN.md §13): pages
/// allocated past the base image — the per-query working tables, by far
/// the hottest session-private pages — live in a dense `Vec` indexed by
/// `pid - base_len`, so every working-table page I/O is an array index;
/// the sparse `HashMap` overlay is kept only for the rare copy-on-write
/// of a base-image page.
pub struct SnapshotDisk {
    base: SnapshotPages,
    /// COW copies of base-image pages this session overwrote (sparse).
    cow: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
    /// Session-private pages past the base image (dense;
    /// index = `pid - base.len()`).
    private: Vec<Box<[u8; PAGE_SIZE]>>,
}

impl SnapshotDisk {
    /// A copy-on-write view over `base`.
    pub fn new(base: SnapshotPages) -> Self {
        SnapshotDisk {
            base,
            cow: HashMap::new(),
            private: Vec::new(),
        }
    }

    /// Number of pages in the shared base image.
    pub fn base_pages(&self) -> u64 {
        self.base.len() as u64
    }

    /// Number of pages this session has privately overlaid or allocated.
    pub fn private_pages(&self) -> usize {
        self.cow.len() + self.private.len()
    }

    fn check(&self, pid: PageId) -> Result<u64> {
        if !pid.is_valid() || pid.0 >= self.num_pages() {
            return Err(StorageError::InvalidPageId(pid.0));
        }
        Ok(pid.0)
    }
}

impl DiskBackend for SnapshotDisk {
    fn read_page(&mut self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        let pid = self.check(pid)?;
        let base_len = self.base.len() as u64;
        let page = if pid >= base_len {
            &self.private[(pid - base_len) as usize]
        } else if let Some(p) = self.cow.get(&pid) {
            p
        } else {
            &self.base[pid as usize]
        };
        buf.copy_from_slice(&page[..]);
        Ok(())
    }

    fn write_page(&mut self, pid: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        let pid = self.check(pid)?;
        let base_len = self.base.len() as u64;
        if pid >= base_len {
            self.private[(pid - base_len) as usize].copy_from_slice(buf);
        } else {
            match self.cow.entry(pid) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().copy_from_slice(buf);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(Box::new(*buf));
                }
            }
        }
        Ok(())
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        let pid = PageId(self.num_pages());
        self.private.push(Box::new([0u8; PAGE_SIZE]));
        Ok(pid)
    }

    fn num_pages(&self) -> u64 {
        self.base.len() as u64 + self.private.len() as u64
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(disk: &mut dyn DiskBackend) {
        let p0 = disk.allocate_page().unwrap();
        let p1 = disk.allocate_page().unwrap();
        assert_ne!(p0, p1);
        assert_eq!(disk.num_pages(), 2);

        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0xAA;
        buf[PAGE_SIZE - 1] = 0x55;
        disk.write_page(p1, &buf).unwrap();

        let mut rd = [0u8; PAGE_SIZE];
        disk.read_page(p1, &mut rd).unwrap();
        assert_eq!(rd[0], 0xAA);
        assert_eq!(rd[PAGE_SIZE - 1], 0x55);

        // Fresh pages come back zeroed.
        disk.read_page(p0, &mut rd).unwrap();
        assert!(rd.iter().all(|&b| b == 0));

        // Out-of-range reads error.
        assert!(disk.read_page(PageId(99), &mut rd).is_err());
        assert!(disk.read_page(PageId::INVALID, &mut rd).is_err());
    }

    #[test]
    fn memdisk_basics() {
        exercise(&mut MemDisk::new());
    }

    #[test]
    fn filedisk_basics() {
        exercise(&mut FileDisk::temp().unwrap());
    }

    #[test]
    fn snapshot_disk_shares_base_and_overlays_writes() {
        // Build a 2-page base image.
        let mut base: Vec<Box<[u8; PAGE_SIZE]>> = Vec::new();
        for fill in [0x11u8, 0x22] {
            base.push(vec![fill; PAGE_SIZE].into_boxed_slice().try_into().unwrap());
        }
        let base: SnapshotPages = Arc::new(base);

        let mut a = SnapshotDisk::new(base.clone());
        let mut b = SnapshotDisk::new(base.clone());
        let mut buf = [0u8; PAGE_SIZE];

        // Both sessions see the base content.
        a.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 0x11);
        b.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf[0], 0x22);

        // A write in session `a` is private: `b` and the base stay intact.
        buf.fill(0xAA);
        a.write_page(PageId(0), &buf).unwrap();
        a.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 0xAA);
        b.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 0x11);
        assert_eq!(base[0][0], 0x11);

        // Fresh allocations start past the base image, per session.
        let pa = a.allocate_page().unwrap();
        let pb = b.allocate_page().unwrap();
        assert_eq!(pa, PageId(2));
        assert_eq!(pb, PageId(2));
        buf.fill(0x77);
        a.write_page(pa, &buf).unwrap();
        a.read_page(pa, &mut buf).unwrap();
        assert_eq!(buf[0], 0x77);
        // Session b's page 2 is its own zeroed page.
        b.read_page(pb, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
        assert_eq!(a.base_pages(), 2);
        assert_eq!(a.private_pages(), 2);
    }

    #[test]
    fn snapshot_disk_dense_private_pages_roundtrip() {
        // Working-table pages (allocated past the base image) live in the
        // dense private vector; overwriting a base page uses the sparse
        // COW map. Both must round-trip independently.
        let base: SnapshotPages = Arc::new(vec![vec![0x0Fu8; PAGE_SIZE]
            .into_boxed_slice()
            .try_into()
            .unwrap()]);
        let mut d = SnapshotDisk::new(base);
        let mut buf = [0u8; PAGE_SIZE];
        let pids: Vec<_> = (0..16).map(|_| d.allocate_page().unwrap()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            buf.fill(i as u8 + 1);
            d.write_page(pid, &buf).unwrap();
        }
        for (i, &pid) in pids.iter().enumerate() {
            d.read_page(pid, &mut buf).unwrap();
            assert_eq!(buf[0], i as u8 + 1);
        }
        assert_eq!(d.private_pages(), 16, "no COW entries yet");
        buf.fill(0xEE);
        d.write_page(PageId(0), &buf).unwrap();
        assert_eq!(d.private_pages(), 17, "base overwrite lands in the COW map");
        d.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 0xEE);
        // Private pages are unaffected by the base overwrite.
        d.read_page(pids[3], &mut buf).unwrap();
        assert_eq!(buf[0], 4);
        assert_eq!(d.num_pages(), 17);
    }

    #[test]
    fn filedisk_persists_across_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("fempath-test-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut d = FileDisk::open(&path).unwrap();
            let p = d.allocate_page().unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            buf[7] = 77;
            d.write_page(p, &buf).unwrap();
            d.sync().unwrap();
        }
        {
            let mut d = FileDisk::open(&path).unwrap();
            assert_eq!(d.num_pages(), 1);
            let mut buf = [0u8; PAGE_SIZE];
            d.read_page(PageId(0), &mut buf).unwrap();
            assert_eq!(buf[7], 77);
        }
        let _ = std::fs::remove_file(&path);
    }
}
