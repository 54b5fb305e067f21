//! Scan-resistant (two-tier, 2Q-style) buffer pool.
//!
//! All page access in the engine funnels through [`BufferPool::read_page`] /
//! [`BufferPool::write_page`]. Because both take `&mut self` and hand the
//! caller a closure-scoped borrow, a page can never be touched while another
//! page operation is in flight — which is exactly the discipline a
//! single-connection engine needs, and it removes any need for pin counts.
//!
//! Eviction uses two intrusive LRU lists over frame indices (O(1)
//! touch/promote/evict):
//!
//! * **probationary** — pages enter here on first reference. A sequential
//!   scan larger than the pool cycles through this tier only, evicting its
//!   own once-touched pages.
//! * **protected** — a probationary page that is referenced *again* is
//!   promoted here (B+tree roots, inner nodes, hot working-table pages).
//!   The tier is capped at ~5/8 of capacity; overflow demotes its LRU
//!   frame back to the probationary MRU end, giving it one more chance.
//!
//! Victims come from the probationary LRU end first, so working sets far
//! larger than memory no longer wipe the hot set (DESIGN.md §14). The
//! capacity is dynamic ([`BufferPool::set_capacity`]) so experiments can
//! sweep buffer sizes the way the paper sweeps its RDB buffer (Fig 8(b),
//! Fig 9(g)).

use crate::disk::{DiskBackend, FileDisk, MemDisk, SnapshotDisk, SnapshotPages};
use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::stats::IoStats;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

const NIL: usize = usize::MAX;

/// The page table's hasher: one multiply-shift of the page number
/// (Fibonacci hashing) instead of SipHash, which the table paid on every
/// page access. Page ids are small, dense and chosen by the pool, never
/// by an adversary; an odd multiplier keeps distinct low bits distinct
/// and mixes the high bits the table's control bytes read.
#[derive(Default, Clone, Copy)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Frame index of every resident page.
type PageTable = HashMap<PageId, usize, BuildHasherDefault<PageIdHasher>>;

/// Probationary tier index.
const PROB: usize = 0;
/// Protected tier index.
const PROT: usize = 1;

struct Frame {
    page: Page,
    pid: PageId,
    dirty: bool,
    tier: usize,
    prev: usize,
    next: usize,
}

/// A fixed-capacity page cache in front of a [`DiskBackend`].
pub struct BufferPool {
    disk: Box<dyn DiskBackend>,
    frames: Vec<Frame>,
    page_table: PageTable,
    /// Most-recently-used frame per tier (list heads).
    head: [usize; 2],
    /// Least-recently-used frame per tier (list tails).
    tail: [usize; 2],
    /// Number of frames currently in the protected tier.
    protected: usize,
    capacity: usize,
    stats: IoStats,
    /// Pages returned via [`BufferPool::free_page`], recycled before the
    /// disk grows. Keeps repeated temp-table churn (the paper re-creates
    /// `TVisited` per query) from bloating the database file.
    free_pages: Vec<PageId>,
}

impl BufferPool {
    /// Wraps `disk` with a pool of `capacity` page frames (min 1).
    pub fn new(disk: Box<dyn DiskBackend>, capacity: usize) -> Self {
        BufferPool {
            disk,
            frames: Vec::new(),
            page_table: PageTable::default(),
            head: [NIL; 2],
            tail: [NIL; 2],
            protected: 0,
            capacity: capacity.max(1),
            stats: IoStats::default(),
            free_pages: Vec::new(),
        }
    }

    /// A pool over an in-memory disk — handy for tests.
    pub fn in_memory(capacity: usize) -> Self {
        BufferPool::new(Box::new(MemDisk::new()), capacity)
    }

    /// A pool over an anonymous temporary file (unlinked immediately).
    pub fn temp_file(capacity: usize) -> Result<Self> {
        Ok(BufferPool::new(Box::new(FileDisk::temp()?), capacity))
    }

    /// A pool over a copy-on-write view of a frozen page image
    /// ([`SnapshotDisk`]): reads hit the shared snapshot, writes and new
    /// allocations stay private to this pool's session.
    pub fn on_snapshot(base: SnapshotPages, capacity: usize) -> Self {
        BufferPool::new(Box::new(SnapshotDisk::new(base)), capacity)
    }

    /// Flushes everything and copies the entire disk image into an
    /// immutable, `Arc`-shared page vector. The pool keeps working
    /// afterwards; the snapshot is a point-in-time image that
    /// [`BufferPool::on_snapshot`] pools can share read-only across
    /// threads (DESIGN.md §10).
    pub fn snapshot_pages(&mut self) -> Result<SnapshotPages> {
        self.flush_all()?;
        let n = self.disk.num_pages();
        let mut pages: Vec<Box<[u8; PAGE_SIZE]>> = Vec::with_capacity(n as usize);
        for i in 0..n {
            let mut buf = Box::new([0u8; PAGE_SIZE]);
            self.disk.read_page(PageId(i), &mut buf)?;
            pages.push(buf);
        }
        Ok(Arc::new(pages))
    }

    /// Current frame capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of frames currently resident (≤ capacity).
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Number of frames currently in the protected tier.
    pub fn protected_len(&self) -> usize {
        self.protected
    }

    /// Size target for the protected tier at the current capacity.
    fn protected_target(&self) -> usize {
        (self.capacity * 5 / 8).max(1)
    }

    /// Number of pages allocated on the underlying disk.
    pub fn num_disk_pages(&self) -> u64 {
        self.disk.num_pages()
    }

    /// Resizes the pool, evicting (and flushing) victim pages if
    /// shrinking — probationary LRU frames first, then protected ones.
    pub fn set_capacity(&mut self, capacity: usize) -> Result<()> {
        self.capacity = capacity.max(1);
        while self.frames.len() > self.capacity {
            let victim = self.pick_victim()?;
            self.detach(victim);
            if self.frames[victim].tier == PROT {
                self.protected -= 1;
            } else {
                self.stats.probationary_evictions += 1;
            }
            let frame = &self.frames[victim];
            self.page_table.remove(&frame.pid);
            if frame.dirty {
                let (pid, bytes) = (frame.pid, *frame.page.bytes());
                self.disk.write_page(pid, &bytes)?;
                self.stats.disk_writes += 1;
            }
            // Swap-remove the frame, fixing up the index of the frame that
            // moved into `victim`'s slot.
            let last = self.frames.len() - 1;
            self.frames.swap_remove(victim);
            if victim != last {
                let moved_pid = self.frames[victim].pid;
                if moved_pid != PageId::INVALID {
                    self.page_table.insert(moved_pid, victim);
                }
                let (p, n, t) = (
                    self.frames[victim].prev,
                    self.frames[victim].next,
                    self.frames[victim].tier,
                );
                if p != NIL {
                    self.frames[p].next = victim;
                } else if self.head[t] == last {
                    self.head[t] = victim;
                }
                if n != NIL {
                    self.frames[n].prev = victim;
                } else if self.tail[t] == last {
                    self.tail[t] = victim;
                }
            }
            self.stats.evictions += 1;
        }
        // A smaller pool also means a smaller protected tier.
        self.rebalance();
        Ok(())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Zeroes all counters.
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Allocates a fresh page (zeroed) and caches it. Recycles pages
    /// released by [`BufferPool::free_page`] before growing the disk.
    pub fn allocate_page(&mut self) -> Result<PageId> {
        let (pid, recycled) = match self.free_pages.pop() {
            Some(pid) => (pid, true),
            None => (self.disk.allocate_page()?, false),
        };
        self.stats.allocations += 1;
        // Install a zeroed frame directly — no need to read it back.
        let idx = self.acquire_frame()?;
        self.frames[idx].page.bytes_mut().fill(0);
        self.frames[idx].pid = pid;
        // Recycled pages may hold stale bytes on disk; the zeroed image must
        // win if this frame is ever evicted.
        self.frames[idx].dirty = recycled;
        self.page_table.insert(pid, idx);
        self.frames[idx].tier = PROB;
        self.attach_front(PROB, idx);
        Ok(pid)
    }

    /// Returns `pid` to the allocator for reuse. The page's contents become
    /// undefined; any cached frame is dropped without flushing.
    pub fn free_page(&mut self, pid: PageId) {
        if let Some(idx) = self.page_table.remove(&pid) {
            self.detach(idx);
            if self.frames[idx].tier == PROT {
                self.protected -= 1;
            }
            self.frames[idx].dirty = false;
            self.frames[idx].pid = PageId::INVALID;
            // Park the frame at the probationary LRU end: it holds no
            // page, so `acquire_frame` hands it out again before it grows
            // the pool or evicts anything.
            self.frames[idx].tier = PROB;
            self.attach_back(PROB, idx);
        }
        self.free_pages.push(pid);
    }

    /// Runs `f` over an immutable view of page `pid`.
    pub fn read_page<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        let idx = self.fetch(pid)?;
        Ok(f(self.frames[idx].page.bytes()))
    }

    /// Runs `f` over a mutable view of page `pid`, marking it dirty.
    pub fn write_page<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        let idx = self.fetch(pid)?;
        self.frames[idx].dirty = true;
        Ok(f(self.frames[idx].page.bytes_mut()))
    }

    /// Writes all dirty frames back and syncs the backend.
    pub fn flush_all(&mut self) -> Result<()> {
        for i in 0..self.frames.len() {
            if self.frames[i].dirty {
                let (pid, bytes) = (self.frames[i].pid, *self.frames[i].page.bytes());
                self.disk.write_page(pid, &bytes)?;
                self.stats.disk_writes += 1;
                self.frames[i].dirty = false;
            }
        }
        self.disk.sync()
    }

    /// Ensures `pid` is resident and returns its frame index. A hit on a
    /// probationary frame promotes it to the protected tier (its second
    /// reference proves it is not scan traffic); a hit on a protected
    /// frame refreshes its recency.
    fn fetch(&mut self, pid: PageId) -> Result<usize> {
        if let Some(&idx) = self.page_table.get(&pid) {
            self.stats.buffer_hits += 1;
            if self.frames[idx].tier == PROB {
                self.detach(idx);
                self.frames[idx].tier = PROT;
                self.attach_front(PROT, idx);
                self.protected += 1;
                self.stats.promotions += 1;
                self.rebalance();
            } else if self.head[PROT] != idx {
                self.detach(idx);
                self.attach_front(PROT, idx);
            }
            return Ok(idx);
        }
        self.stats.buffer_misses += 1;
        let idx = self.acquire_frame()?;
        {
            let frame = &mut self.frames[idx];
            self.disk.read_page(pid, frame.page.bytes_mut())?;
            frame.pid = pid;
            frame.dirty = false;
        }
        self.stats.disk_reads += 1;
        self.page_table.insert(pid, idx);
        self.frames[idx].tier = PROB;
        self.attach_front(PROB, idx);
        Ok(idx)
    }

    /// Demotes protected LRU frames until the tier is back under target.
    /// Demoted frames re-enter the probationary MRU end, so they get one
    /// more chance before eviction.
    fn rebalance(&mut self) {
        while self.protected > self.protected_target() {
            let idx = self.tail[PROT];
            debug_assert_ne!(idx, NIL);
            self.detach(idx);
            self.frames[idx].tier = PROB;
            self.attach_front(PROB, idx);
            self.protected -= 1;
            self.stats.demotions += 1;
        }
    }

    /// The next eviction victim: the probationary LRU frame, falling back
    /// to the protected LRU frame when the probationary tier is empty.
    fn pick_victim(&self) -> Result<usize> {
        if self.tail[PROB] != NIL {
            return Ok(self.tail[PROB]);
        }
        if self.tail[PROT] != NIL {
            return Ok(self.tail[PROT]);
        }
        Err(StorageError::BufferExhausted)
    }

    /// Gets an unattached frame: one parked by [`BufferPool::free_page`] if
    /// there is any (only `free_page` attaches at the probationary LRU end,
    /// so parked frames are always its tail), else a new one while below
    /// capacity, else a victim's (probationary first).
    fn acquire_frame(&mut self) -> Result<usize> {
        let parked = self.tail[PROB];
        if parked != NIL && self.frames[parked].pid == PageId::INVALID {
            self.detach(parked);
            return Ok(parked);
        }
        if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                page: Page::zeroed(),
                pid: PageId::INVALID,
                dirty: false,
                tier: PROB,
                prev: NIL,
                next: NIL,
            });
            return Ok(self.frames.len() - 1);
        }
        let victim = self.pick_victim()?;
        self.detach(victim);
        if self.frames[victim].tier == PROT {
            self.protected -= 1;
        } else {
            self.stats.probationary_evictions += 1;
        }
        let frame = &self.frames[victim];
        self.page_table.remove(&frame.pid);
        if frame.dirty {
            let (pid, bytes) = (frame.pid, *frame.page.bytes());
            self.disk.write_page(pid, &bytes)?;
            self.stats.disk_writes += 1;
        }
        self.stats.evictions += 1;
        Ok(victim)
    }

    fn detach(&mut self, idx: usize) {
        let t = self.frames[idx].tier;
        let (p, n) = (self.frames[idx].prev, self.frames[idx].next);
        if p != NIL {
            self.frames[p].next = n;
        } else if self.head[t] == idx {
            self.head[t] = n;
        }
        if n != NIL {
            self.frames[n].prev = p;
        } else if self.tail[t] == idx {
            self.tail[t] = p;
        }
        self.frames[idx].prev = NIL;
        self.frames[idx].next = NIL;
    }

    fn attach_front(&mut self, t: usize, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.head[t];
        if self.head[t] != NIL {
            self.frames[self.head[t]].prev = idx;
        }
        self.head[t] = idx;
        if self.tail[t] == NIL {
            self.tail[t] = idx;
        }
    }

    fn attach_back(&mut self, t: usize, idx: usize) {
        self.frames[idx].next = NIL;
        self.frames[idx].prev = self.tail[t];
        if self.tail[t] != NIL {
            self.frames[self.tail[t]].next = idx;
        }
        self.tail[t] = idx;
        if self.head[t] == NIL {
            self.head[t] = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_same_page() {
        let mut pool = BufferPool::in_memory(4);
        let pid = pool.allocate_page().unwrap();
        pool.write_page(pid, |b| b[0] = 0x5A).unwrap();
        let v = pool.read_page(pid, |b| b[0]).unwrap();
        assert_eq!(v, 0x5A);
    }

    #[test]
    fn eviction_flushes_dirty_pages() {
        let mut pool = BufferPool::in_memory(2);
        let pids: Vec<_> = (0..4).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            pool.write_page(pid, |b| b[0] = i as u8 + 1).unwrap();
        }
        // Capacity 2, so earlier pages were evicted. Reading them must
        // bring back the written data from disk.
        for (i, &pid) in pids.iter().enumerate() {
            let v = pool.read_page(pid, |b| b[0]).unwrap();
            assert_eq!(v, i as u8 + 1, "page {i} lost its data across eviction");
        }
        assert!(pool.stats().evictions >= 2);
        assert!(pool.stats().disk_writes >= 2);
    }

    #[test]
    fn lru_keeps_hot_page() {
        let mut pool = BufferPool::in_memory(2);
        let a = pool.allocate_page().unwrap();
        let b = pool.allocate_page().unwrap();
        let c = pool.allocate_page().unwrap(); // evicts a (probationary LRU)
        pool.reset_stats();
        pool.read_page(b, |_| ()).unwrap(); // hit
        pool.read_page(c, |_| ()).unwrap(); // hit
        pool.read_page(a, |_| ()).unwrap(); // miss
        let s = pool.stats();
        assert_eq!(s.buffer_hits, 2);
        assert_eq!(s.buffer_misses, 1);
    }

    #[test]
    fn second_touch_promotes_to_protected() {
        let mut pool = BufferPool::in_memory(8);
        let a = pool.allocate_page().unwrap();
        assert_eq!(pool.protected_len(), 0, "first reference is probationary");
        pool.read_page(a, |_| ()).unwrap();
        assert_eq!(pool.protected_len(), 1, "second reference promotes");
        assert_eq!(pool.stats().promotions, 1);
        pool.read_page(a, |_| ()).unwrap();
        assert_eq!(pool.stats().promotions, 1, "already protected: no-op");
    }

    #[test]
    fn scan_does_not_evict_hot_pages() {
        // Pool of 16; 4 hot pages referenced repeatedly, then a "table
        // scan" of 200 cold pages touched once each. The hot set must
        // survive in the protected tier.
        let mut pool = BufferPool::in_memory(16);
        let hot: Vec<_> = (0..4).map(|_| pool.allocate_page().unwrap()).collect();
        for &pid in &hot {
            pool.read_page(pid, |_| ()).unwrap(); // promote to protected
        }
        let cold: Vec<_> = (0..200).map(|_| pool.allocate_page().unwrap()).collect();
        pool.reset_stats();
        for &pid in &cold {
            pool.read_page(pid, |_| ()).unwrap();
        }
        let s = pool.stats();
        for &pid in &hot {
            pool.read_page(pid, |_| ()).unwrap();
        }
        let after = pool.stats();
        assert_eq!(
            after.buffer_misses, s.buffer_misses,
            "hot pages must still be resident after the scan"
        );
        assert_eq!(
            s.probationary_evictions, s.evictions,
            "the scan must evict only probationary (touched-once) frames"
        );
    }

    #[test]
    fn protected_tier_is_capped_and_demotes() {
        let mut pool = BufferPool::in_memory(8); // target = 8*5/8 = 5
        let pids: Vec<_> = (0..8).map(|_| pool.allocate_page().unwrap()).collect();
        for &pid in &pids {
            pool.read_page(pid, |_| ()).unwrap(); // all promoted
        }
        assert!(pool.protected_len() <= 5, "protected tier must stay capped");
        assert!(pool.stats().demotions >= 3);
        // Everything is still resident (no evictions — pool not over
        // capacity), just spread across tiers.
        assert_eq!(pool.stats().evictions, 0);
        pool.reset_stats();
        for &pid in &pids {
            pool.read_page(pid, |_| ()).unwrap();
        }
        assert_eq!(pool.stats().buffer_misses, 0);
    }

    #[test]
    fn hit_miss_accounting() {
        let mut pool = BufferPool::in_memory(8);
        let pid = pool.allocate_page().unwrap();
        pool.reset_stats();
        for _ in 0..10 {
            pool.read_page(pid, |_| ()).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.buffer_hits, 10);
        assert_eq!(s.buffer_misses, 0);
        assert_eq!(s.disk_reads, 0);
    }

    #[test]
    fn shrink_capacity_evicts_and_preserves_data() {
        let mut pool = BufferPool::in_memory(8);
        let pids: Vec<_> = (0..8).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            pool.write_page(pid, |b| b[1] = 10 + i as u8).unwrap();
        }
        pool.set_capacity(2).unwrap();
        for (i, &pid) in pids.iter().enumerate() {
            let v = pool.read_page(pid, |b| b[1]).unwrap();
            assert_eq!(v, 10 + i as u8);
        }
    }

    #[test]
    fn shrink_mid_workload_prefers_probationary_victims() {
        // A hot protected set plus a tail of touched-once pages; shrinking
        // mid-workload must evict cleanly (no leaked frames, consistent
        // counters), taking probationary frames first so the hot set
        // survives the resize.
        let mut pool = BufferPool::in_memory(16);
        let hot: Vec<_> = (0..5).map(|_| pool.allocate_page().unwrap()).collect();
        for &pid in &hot {
            pool.read_page(pid, |_| ()).unwrap(); // second touch: protected
        }
        let cold: Vec<_> = (0..11).map(|_| pool.allocate_page().unwrap()).collect();
        assert_eq!(pool.resident(), 16);
        pool.reset_stats();

        pool.set_capacity(8).unwrap();
        let s = pool.stats();
        assert_eq!(
            pool.resident(),
            8,
            "shrink must release exactly the excess frames"
        );
        assert_eq!(pool.capacity(), 8);
        assert_eq!(s.evictions, 8);
        assert_eq!(
            s.probationary_evictions, 8,
            "all victims must come from the probationary tier while it has frames"
        );
        assert!(pool.protected_len() <= pool.capacity());

        // The protected hot set survived; the workload continues unharmed.
        pool.reset_stats();
        for &pid in &hot {
            pool.read_page(pid, |_| ()).unwrap();
        }
        assert_eq!(
            pool.stats().buffer_misses,
            0,
            "hot set must survive the shrink"
        );
        for &pid in &cold {
            pool.read_page(pid, |b| b[0]).unwrap();
        }
        assert_eq!(
            pool.resident(),
            pool.capacity(),
            "no frames leaked past the new cap"
        );
    }

    #[test]
    fn freed_frames_are_reused_before_the_pool_grows() {
        // A working table's reset frees its pages and the next query
        // allocates them again: the frames must go round with the pages.
        let mut pool = BufferPool::in_memory(64);
        let mut pids: Vec<_> = (0..3).map(|_| pool.allocate_page().unwrap()).collect();
        for &pid in &pids {
            pool.write_page(pid, |b| b[0] = 7).unwrap();
        }
        for cycle in 0..200 {
            let pid = pids.remove(cycle % 3);
            pool.free_page(pid);
            let fresh = pool.allocate_page().unwrap();
            assert_eq!(pool.read_page(fresh, |b| b[0]).unwrap(), 0, "zeroed");
            pool.write_page(fresh, |b| b[0] = 7).unwrap();
            pids.push(fresh);
            assert_eq!(pool.resident(), 3, "cycle {cycle} grew the pool");
        }
        // A parked frame holds no page: handing it out again is neither an
        // eviction nor a write-back of whatever the freed page had dirty.
        let s = pool.stats();
        assert_eq!((s.evictions, s.disk_writes), (0, 0));
        assert_eq!(pool.num_disk_pages(), 3, "page ids are recycled too");
    }

    #[test]
    fn parked_frames_survive_a_full_pool_and_a_shrink() {
        let mut pool = BufferPool::in_memory(4);
        let pids: Vec<_> = (0..4).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            pool.write_page(pid, |b| b[0] = i as u8 + 1).unwrap();
        }
        // At capacity: the parked frame is taken, nobody is evicted.
        pool.free_page(pids[1]);
        let fresh = pool.allocate_page().unwrap();
        assert_eq!(pool.stats().evictions, 0);
        assert_eq!(pool.resident(), 4);
        // Shrinking drops the parked frames first — one of them moves into
        // the other's slot on the way — and the pages that stay keep their
        // bytes.
        pool.free_page(pids[3]);
        pool.free_page(fresh);
        pool.set_capacity(2).unwrap();
        assert_eq!(pool.resident(), 2);
        assert_eq!(pool.stats().disk_writes, 0, "parked frames hold nothing");
        for i in [0, 2] {
            assert_eq!(pool.read_page(pids[i], |b| b[0]).unwrap(), i as u8 + 1);
        }
        assert_eq!(pool.stats().buffer_misses, 0);
    }

    #[test]
    fn temp_file_pool_works() {
        let mut pool = BufferPool::temp_file(2).unwrap();
        let pids: Vec<_> = (0..5).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            pool.write_page(pid, |b| b[0] = i as u8).unwrap();
        }
        for (i, &pid) in pids.iter().enumerate() {
            assert_eq!(pool.read_page(pid, |b| b[0]).unwrap(), i as u8);
        }
    }

    #[test]
    fn stress_random_access_many_pages() {
        let mut pool = BufferPool::in_memory(3);
        let n = 50;
        let pids: Vec<_> = (0..n).map(|_| pool.allocate_page().unwrap()).collect();
        // Deterministic pseudo-random access pattern.
        let mut x = 12345u64;
        for step in 0..2000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % n;
            if step % 3 == 0 {
                pool.write_page(pids[i], |b| {
                    b[3] = b[3].wrapping_add(1);
                })
                .unwrap();
            } else {
                pool.read_page(pids[i], |_| ()).unwrap();
            }
        }
        // Every page still readable; both LRU lists intact.
        for &pid in &pids {
            pool.read_page(pid, |_| ()).unwrap();
        }
        assert_eq!(pool.resident(), pool.capacity());
        assert!(pool.protected_len() <= pool.capacity());
    }
}
