//! Disk-resident B+tree.
//!
//! Serves two roles in the engine, mirroring the index configurations the
//! paper evaluates in Fig 8(c):
//!
//! * **index-organized (clustered) table** — full rows stored as leaf
//!   values, keyed by the clustering columns (`CluIndex`);
//! * **secondary index** — key = indexed columns (+ record id suffix for
//!   non-unique indexes), value = heap record id (`Index`).
//!
//! The root page id is stable for the lifetime of the tree: when the root
//! splits, its content moves to a fresh page and the root is rewritten as an
//! interior node in place, so catalog entries never need fixing up.
//!
//! Deletion removes leaf cells without rebalancing (see DESIGN.md §5); the
//! workloads here are insert/update heavy, and empty leaves remain chained
//! and are skipped by scans.

pub mod node;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{PageId, PAGE_SIZE};
use node::MAX_CELL_PAYLOAD;
use std::ops::Bound;

/// A B+tree keyed by order-preserving byte strings (see [`crate::value`]).
///
/// `Clone` copies only the handle (root page id + cached length); both
/// clones address the same pages, so cloning is only sound when at most
/// one clone keeps writing — e.g. catalog templates cloned into
/// copy-on-write snapshot sessions (DESIGN.md §10).
#[derive(Clone)]
pub struct BTree {
    root: PageId,
    len: u64,
}

enum Ins {
    Done(Option<Vec<u8>>),
    Split {
        sep: Vec<u8>,
        right: u64,
        old: Option<Vec<u8>>,
    },
}

impl BTree {
    /// Allocates an empty tree (a single leaf root).
    pub fn create(pool: &mut BufferPool) -> Result<BTree> {
        let root = pool.allocate_page()?;
        pool.write_page(root, node::init_leaf)?;
        Ok(BTree { root, len: 0 })
    }

    /// Re-attaches to an existing tree (root page + entry count come from
    /// the catalog).
    pub fn open(root: PageId, len: u64) -> BTree {
        BTree { root, len }
    }

    /// The (stable) root page id.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Point lookup.
    pub fn get(&self, pool: &mut BufferPool, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_with(pool, key, <[u8]>::to_vec)
    }

    /// Point lookup handing the stored value to `f` where it lies in the
    /// leaf page (no copy).
    pub fn get_with<R>(
        &self,
        pool: &mut BufferPool,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>> {
        let mut pid = self.root;
        let mut f = Some(f);
        loop {
            let step = pool.read_page(pid, |b| {
                if node::is_leaf(b) {
                    let (idx, found) = node::lower_bound(b, key);
                    Err(match (found, f.take()) {
                        (true, Some(f)) => Some(f(node::leaf_val_at(b, idx))),
                        _ => None,
                    })
                } else {
                    Ok(node::child_for(b, key))
                }
            })?;
            match step {
                Ok(c) => pid = PageId(c),
                Err(v) => return Ok(v),
            }
        }
    }

    /// True when `key` is present (no value copy).
    pub fn contains(&self, pool: &mut BufferPool, key: &[u8]) -> Result<bool> {
        self.contains_at(pool, &mut LeafWalk::default(), key)
    }

    /// Inserts a batch of entries, sorting them first so consecutive
    /// descents share their path's pages in the buffer pool (one batch →
    /// mostly-sequential leaf touches instead of random ones). Returns
    /// the number of *new* keys (replacements don't count).
    pub fn insert_batch(
        &mut self,
        pool: &mut BufferPool,
        mut entries: Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<u64> {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut fresh = 0u64;
        for (k, v) in &entries {
            if self.insert(pool, k, v)?.is_none() {
                fresh += 1;
            }
        }
        Ok(fresh)
    }

    /// Inserts or replaces; returns the previous value if any.
    pub fn insert(
        &mut self,
        pool: &mut BufferPool,
        key: &[u8],
        val: &[u8],
    ) -> Result<Option<Vec<u8>>> {
        if !BTree::fits(key, val) {
            return Err(StorageError::RecordTooLarge {
                size: key.len() + val.len(),
                max: MAX_CELL_PAYLOAD,
            });
        }
        let res = insert_rec(pool, self.root, key, val)?;
        let old = match res {
            Ins::Done(old) => old,
            Ins::Split { sep, right, old } => {
                // Root split: relocate the root's content so the root page
                // id stays stable, then turn the root into an interior node.
                let left = pool.allocate_page()?;
                let img: Box<[u8; PAGE_SIZE]> = pool.read_page(self.root, |b| Box::new(*b))?;
                pool.write_page(left, move |b| *b = *img)?;
                pool.write_page(self.root, |b| {
                    node::init_interior(b, left.0);
                    let ok = node::interior_insert_at(b, 0, &sep, right);
                    debug_assert!(ok, "fresh interior root must fit one cell");
                })?;
                old
            }
        };
        if old.is_none() {
            self.len += 1;
        }
        Ok(old)
    }

    /// [`BTree::contains`] as one probe of a batch sharing `walk` (see
    /// [`LeafWalk`]).
    pub fn contains_at(
        &self,
        pool: &mut BufferPool,
        walk: &mut LeafWalk,
        key: &[u8],
    ) -> Result<bool> {
        let mut found = false;
        self.walk_leaves(pool, walk, Bound::Included(key), |b, start| {
            found = start < node::num_cells(b) && node::key_at(b, start) == key;
            false
        })?;
        Ok(found)
    }

    /// [`BTree::insert`] as one of a run of inserts sharing `walk`: a new
    /// key goes into the leaf a descent would pick — the walk's leaf when
    /// the key lies within it, so the descent is skipped — whenever it
    /// fits there. A key already present, or a full leaf, goes through
    /// [`BTree::insert`] itself, so the tree comes out page for page as a
    /// run of plain inserts leaves it.
    pub fn insert_at(
        &mut self,
        pool: &mut BufferPool,
        walk: &mut LeafWalk,
        key: &[u8],
        val: &[u8],
    ) -> Result<Option<Vec<u8>>> {
        if !BTree::fits(key, val) {
            return self.insert(pool, key, val);
        }
        let lo = Bound::Included(key);
        let pid = match walk.covering(lo) {
            Some(pid) => pid,
            None => self.descend(pool, lo)?,
        };
        let placed = pool.write_page(pid, |b| {
            let (i, found) = node::lower_bound(b, key);
            let placed = !found && node::leaf_insert_at(b, i, key, val);
            if placed {
                walk.remember(pid, b);
            }
            placed
        })?;
        if placed {
            self.len += 1;
            return Ok(None);
        }
        *walk = LeafWalk::default();
        self.insert(pool, key, val)
    }

    /// Whether an entry of `key` and `val` fits one cell — what
    /// [`BTree::insert`] refuses otherwise.
    pub fn fits(key: &[u8], val: &[u8]) -> bool {
        key.len() + val.len() <= MAX_CELL_PAYLOAD
    }

    /// Overwrites the values of keys already in the tree, the entries
    /// given in ascending key order: one walk along the leaf chain that
    /// re-descends only when a key leaves the current leaf (see
    /// [`LeafWalk`]), each value written over the old one in its cell. A
    /// value of another length than the one it replaces, or a key not in
    /// the tree, goes through [`BTree::insert`].
    pub fn replace_sorted<'e>(
        &mut self,
        pool: &mut BufferPool,
        entries: impl IntoIterator<Item = (&'e [u8], &'e [u8])>,
    ) -> Result<()> {
        let mut walk = LeafWalk::default();
        for (key, val) in entries {
            let lo = Bound::Included(key);
            let pid = match walk.covering(lo) {
                Some(pid) => pid,
                None => self.descend(pool, lo)?,
            };
            let replaced = pool.write_page(pid, |b| {
                let (i, found) = node::lower_bound(b, key);
                let replaced = found && node::leaf_overwrite_val(b, i, val);
                walk.remember(pid, b);
                replaced
            })?;
            if !replaced {
                self.insert(pool, key, val)?;
                walk = LeafWalk::default();
            }
        }
        Ok(())
    }

    /// Removes `key`; returns its previous value if present.
    ///
    /// A leaf emptied by the removal is reclaimed immediately: it is
    /// unlinked from the leaf chain, its parent entry is dropped, and the
    /// page is returned to the pool — so long batched-retirement delete
    /// runs do not leave scans walking chains of dead leaves (the
    /// DESIGN.md §5 caveat, retired in §11). A parent whose *only* child
    /// is the emptied leaf keeps it (the tree always has a root-to-leaf
    /// spine); such stragglers are rare and bounded by the tree height.
    pub fn delete(&mut self, pool: &mut BufferPool, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let mut pid = self.root;
        loop {
            let next = pool.read_page(pid, |b| {
                if node::is_leaf(b) {
                    None
                } else {
                    Some(node::child_for_idx(b, key))
                }
            })?;
            match next {
                Some((c, pos)) => {
                    path.push((pid, pos));
                    pid = PageId(c);
                }
                None => break,
            }
        }
        let (old, emptied) = pool.write_page(pid, |b| {
            let (idx, found) = node::lower_bound(b, key);
            if found {
                let v = node::leaf_val_at(b, idx).to_vec();
                node::remove_at(b, idx);
                (Some(v), node::num_cells(b) == 0)
            } else {
                (None, false)
            }
        })?;
        if old.is_some() {
            self.len -= 1;
            if emptied && pid != self.root {
                self.unlink_empty_leaf(pool, pid, &path)?;
            }
        }
        Ok(old)
    }

    /// Detaches the empty leaf `leaf` (whose root-to-parent path is
    /// `path`) from the tree and the leaf chain, then frees its page.
    fn unlink_empty_leaf(
        &mut self,
        pool: &mut BufferPool,
        leaf: PageId,
        path: &[(PageId, usize)],
    ) -> Result<()> {
        let &(parent, pos) = path
            .last()
            .ok_or_else(|| StorageError::Corrupt("non-root leaf without a parent".into()))?;
        // A parent without separator cells has this leaf as its only
        // child; removing it would leave the parent childless, so the
        // empty leaf stays (scans skip it).
        if pool.read_page(parent, node::num_cells)? == 0 {
            return Ok(());
        }
        // Leaf chain: the predecessor (if any) must skip the victim.
        let next = pool.read_page(leaf, node::next_leaf)?;
        if let Some(pred) = predecessor_leaf(pool, path)? {
            pool.write_page(pred, |b| node::set_next_leaf(b, next))?;
        }
        // Drop the parent's entry. Removing cell `pos-1` (or promoting
        // cell 0's child to leftmost) merges the victim's — empty — key
        // range into its left neighbour, which keeps routing consistent.
        pool.write_page(parent, |b| {
            if pos == 0 {
                let new_leftmost = node::interior_cell_child(b, 0);
                node::set_leftmost_child(b, new_leftmost);
                node::remove_at(b, 0);
            } else {
                node::remove_at(b, pos - 1);
            }
        })?;
        pool.free_page(leaf);
        Ok(())
    }

    /// In-order scan of `[lo, hi]`; `f` returns `false` to stop early.
    pub fn scan_range(
        &self,
        pool: &mut BufferPool,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<()> {
        self.walk_leaves(pool, &mut LeafWalk::default(), lo, |b, start| {
            for i in start..node::num_cells(b) {
                let k = node::key_at(b, i);
                let past_hi = match hi {
                    Bound::Included(h) => k > h,
                    Bound::Excluded(h) => k >= h,
                    Bound::Unbounded => false,
                };
                if past_hi || !f(k, node::leaf_val_at(b, i)) {
                    return false;
                }
            }
            true
        })
    }

    /// [`BTree::scan_prefix`] a leaf page at a time, as one probe of a
    /// batch in key order (see [`LeafWalk`]): hands `f` each leaf's run of
    /// entries whose key starts with `prefix`, so a caller can decode the
    /// run as one batch; `f` returns `false` to stop.
    pub fn scan_prefix_runs(
        &self,
        pool: &mut BufferPool,
        walk: &mut LeafWalk,
        prefix: &[u8],
        mut f: impl FnMut(LeafRun<'_>) -> bool,
    ) -> Result<()> {
        self.walk_leaves(pool, walk, Bound::Included(prefix), |b, start| {
            let n = node::num_cells(b);
            let end = (start..n)
                .find(|&i| !node::key_at(b, i).starts_with(prefix))
                .unwrap_or(n);
            (start == end || f(LeafRun { b, start, end })) && end == n
        })
    }

    /// In-order scan from the first entry at or past `lo`, as one probe of
    /// a batch in key order (see [`LeafWalk`]); `f` returns `false` to
    /// stop.
    pub fn scan_from(
        &self,
        pool: &mut BufferPool,
        walk: &mut LeafWalk,
        lo: &[u8],
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<()> {
        self.walk_leaves(pool, walk, Bound::Included(lo), |b, start| {
            (start..node::num_cells(b)).all(|i| f(node::key_at(b, i), node::leaf_val_at(b, i)))
        })
    }

    /// The leaf walk under the range scans: starts on the leaf that holds
    /// the position of `lo` — `walk`'s leaf when it does, else the one a
    /// descent from the root finds — then hands `visit` each leaf along
    /// the chain with the index of its first entry at or past `lo`;
    /// `visit` returns `false` to stop. `walk` is left on the last leaf
    /// visited. Each page is read once: the descent visits the leaf it
    /// reaches in the read that finds it is a leaf.
    fn walk_leaves(
        &self,
        pool: &mut BufferPool,
        walk: &mut LeafWalk,
        lo: Bound<&[u8]>,
        mut visit: impl FnMut(&node::Buf, usize) -> bool,
    ) -> Result<()> {
        let (mut pid, mut descending) = match walk.covering(lo) {
            Some(pid) => (pid, false),
            None => (self.root, true),
        };
        let mut first_leaf = true;
        loop {
            let next = pool.read_page(pid, |b| {
                if descending && !node::is_leaf(b) {
                    return Err(child_toward(b, lo));
                }
                let start = match lo {
                    _ if !first_leaf => 0,
                    Bound::Included(k) => node::lower_bound(b, k).0,
                    Bound::Excluded(k) => {
                        let (i, found) = node::lower_bound(b, k);
                        i + usize::from(found)
                    }
                    Bound::Unbounded => 0,
                };
                let next = if visit(b, start) {
                    node::next_leaf(b)
                } else {
                    u64::MAX
                };
                if next == u64::MAX {
                    walk.remember(pid, b);
                }
                Ok(next)
            })?;
            match next {
                Err(child) => pid = PageId(child),
                Ok(u64::MAX) => return Ok(()),
                Ok(leaf) => {
                    pid = PageId(leaf);
                    first_leaf = false;
                    descending = false;
                }
            }
        }
    }

    /// The leaf a descent from the root for `lo` reaches (the leftmost
    /// leaf when unbounded).
    fn descend(&self, pool: &mut BufferPool, lo: Bound<&[u8]>) -> Result<PageId> {
        let mut pid = self.root;
        loop {
            let next = pool.read_page(pid, |b| (!node::is_leaf(b)).then(|| child_toward(b, lo)))?;
            match next {
                Some(c) => pid = PageId(c),
                None => return Ok(pid),
            }
        }
    }

    /// Scans all entries whose key starts with `prefix` (contiguous thanks
    /// to the order-preserving encoding); `f` returns `false` to stop.
    pub fn scan_prefix(
        &self,
        pool: &mut BufferPool,
        prefix: &[u8],
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<()> {
        self.scan_range(pool, Bound::Included(prefix), Bound::Unbounded, |k, v| {
            if !k.starts_with(prefix) {
                return false;
            }
            f(k, v)
        })
    }

    /// Every page id reachable from the root (root first).
    fn collect_pages(&self, pool: &mut BufferPool) -> Result<Vec<PageId>> {
        let mut out = vec![self.root];
        let mut stack = vec![self.root];
        while let Some(pid) = stack.pop() {
            let children = pool.read_page(pid, |b| {
                if node::is_leaf(b) {
                    Vec::new()
                } else {
                    (0..=node::num_cells(b))
                        .map(|i| PageId(node::child_at(b, i)))
                        .collect()
                }
            })?;
            out.extend_from_slice(&children);
            stack.extend_from_slice(&children);
        }
        Ok(out)
    }

    /// Removes every entry, releasing all pages except the root (which is
    /// re-initialised as an empty leaf).
    pub fn clear(&mut self, pool: &mut BufferPool) -> Result<()> {
        let pages = self.collect_pages(pool)?;
        for pid in pages.into_iter().skip(1) {
            pool.free_page(pid);
        }
        pool.write_page(self.root, node::init_leaf)?;
        self.len = 0;
        Ok(())
    }

    /// Destroys the tree, releasing every page including the root.
    pub fn destroy(mut self, pool: &mut BufferPool) -> Result<()> {
        self.clear(pool)?;
        pool.free_page(self.root);
        Ok(())
    }

    /// Number of pages reachable from the root (tests and diagnostics —
    /// the empty-leaf-reclamation regression asserts this shrinks).
    pub fn reachable_pages(&self, pool: &mut BufferPool) -> Result<usize> {
        Ok(self.collect_pages(pool)?.len())
    }

    /// Number of leaves on the leaf chain, walked exactly like a full
    /// scan does (tests and diagnostics).
    pub fn chain_leaves(&self, pool: &mut BufferPool) -> Result<usize> {
        let mut pid = self.descend(pool, Bound::Unbounded)?;
        let mut n = 1usize;
        loop {
            let next = pool.read_page(pid, node::next_leaf)?;
            if next == u64::MAX {
                return Ok(n);
            }
            pid = PageId(next);
            n += 1;
        }
    }

    /// A batched-scan cursor positioned at the first entry. The tree must
    /// not be mutated while the cursor is in use.
    pub fn batch_cursor(&self, pool: &mut BufferPool) -> Result<BTreeScanCursor> {
        let pid = self.descend(pool, Bound::Unbounded)?;
        Ok(BTreeScanCursor { pid: pid.0, idx: 0 })
    }

    /// Builds the tree bottom-up from strictly-increasing `(key, value)`
    /// entries: leaves fill left-to-right at maximum density and interior
    /// levels grow above them, with no per-key root-to-leaf descent. The
    /// tree must be empty; the root page id stays stable (catalog entries
    /// keep pointing at it). Errors if keys are out of order or duplicated.
    pub fn bulk_build(
        &mut self,
        pool: &mut BufferPool,
        entries: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<u64> {
        let mut b = BTreeBulkBuilder::for_tree(self, pool)?;
        for (k, v) in entries {
            b.push(pool, &k, &v)?;
        }
        self.bulk_finish(pool, b)
    }

    /// Completes a streamed bulk build: the caller drove
    /// [`BTreeBulkBuilder::push`] itself (typically with reusable key/value
    /// buffers, avoiding a per-entry allocation) and hands the builder back
    /// so the tree's length is accounted. The builder must have been created
    /// by [`BTreeBulkBuilder::for_tree`] on this tree.
    pub fn bulk_finish(&mut self, pool: &mut BufferPool, builder: BTreeBulkBuilder) -> Result<u64> {
        if builder.root != self.root {
            return Err(StorageError::Corrupt(
                "bulk_finish: builder targets a different tree".into(),
            ));
        }
        let n = builder.finish(pool)?;
        self.len = n;
        Ok(n)
    }

    /// Tree height (1 = root is a leaf); used by tests and diagnostics.
    pub fn height(&self, pool: &mut BufferPool) -> Result<usize> {
        let mut h = 1;
        let mut pid = self.root;
        loop {
            let next = pool.read_page(pid, |b| {
                if node::is_leaf(b) {
                    None
                } else {
                    Some(node::child_at(b, 0))
                }
            })?;
            match next {
                Some(c) => {
                    pid = PageId(c);
                    h += 1;
                }
                None => return Ok(h),
            }
        }
    }
}

/// The child of interior node `b` a descent toward `lo` takes (the
/// leftmost when unbounded).
fn child_toward(b: &node::Buf, lo: Bound<&[u8]>) -> u64 {
    match lo {
        Bound::Included(k) | Bound::Excluded(k) => node::child_for(b, k),
        Bound::Unbounded => node::child_at(b, 0),
    }
}

/// Rightmost leaf of the subtree immediately left of the path's leaf, or
/// `None` when the leaf is the globally leftmost one (the leaf chain has
/// no stored head — scans find their first leaf by descending, so a
/// headless victim needs no chain fix-up).
fn predecessor_leaf(pool: &mut BufferPool, path: &[(PageId, usize)]) -> Result<Option<PageId>> {
    for &(anc, pos) in path.iter().rev() {
        if pos == 0 {
            continue;
        }
        let mut pid = PageId(pool.read_page(anc, |b| node::child_at(b, pos - 1))?);
        loop {
            let next = pool.read_page(pid, |b| {
                if node::is_leaf(b) {
                    None
                } else {
                    Some(node::child_at(b, node::num_cells(b)))
                }
            })?;
            match next {
                Some(c) => pid = PageId(c),
                None => return Ok(Some(pid)),
            }
        }
    }
    Ok(None)
}

/// Longest first or last key of a leaf a [`LeafWalk`] remembers; a leaf
/// with a longer one is not reused.
const FENCE_CAP: usize = 40;

/// Where a batch of probes in key order stands on a tree's leaf chain:
/// the leaf the last probe ended on, with its first and last keys. A
/// probe whose key lies between those two starts on that leaf without a
/// descent — every earlier leaf holds only smaller keys and every later
/// one only larger — and any other probe descends from the root. So a
/// batch sorted by key reads each leaf it needs once per run of keys it
/// holds, and pays a descent only when a key passes the current leaf.
///
/// A fresh walk (`LeafWalk::default()`) always descends. A walk is valid
/// while its tree's keys stay where they are: no insert or delete other
/// than its own [`BTree::insert_at`] or [`BTree::replace_sorted`] may
/// come between two probes that share it.
#[derive(Debug, Clone, Copy)]
pub struct LeafWalk {
    /// The remembered leaf; `u64::MAX` when there is none.
    leaf: u64,
    first: [u8; FENCE_CAP],
    first_len: u8,
    last: [u8; FENCE_CAP],
    last_len: u8,
}

impl Default for LeafWalk {
    fn default() -> LeafWalk {
        LeafWalk {
            leaf: u64::MAX,
            first: [0; FENCE_CAP],
            first_len: 0,
            last: [0; FENCE_CAP],
            last_len: 0,
        }
    }
}

impl LeafWalk {
    /// The remembered leaf, when `lo`'s position lies in it.
    fn covering(&self, lo: Bound<&[u8]>) -> Option<PageId> {
        if self.leaf == u64::MAX {
            return None;
        }
        let first = &self.first[..usize::from(self.first_len)];
        let last = &self.last[..usize::from(self.last_len)];
        let inside = match lo {
            Bound::Included(k) => first <= k && k <= last,
            Bound::Excluded(k) => first <= k && k < last,
            Bound::Unbounded => false,
        };
        inside.then_some(PageId(self.leaf))
    }

    /// Remembers leaf `pid`, whose page is `b`; forgets instead when the
    /// leaf is empty or a key is longer than [`FENCE_CAP`].
    fn remember(&mut self, pid: PageId, b: &node::Buf) {
        self.leaf = u64::MAX;
        let n = node::num_cells(b);
        if n == 0 {
            return;
        }
        let (first, last) = (node::key_at(b, 0), node::key_at(b, n - 1));
        if first.len() > FENCE_CAP || last.len() > FENCE_CAP {
            return;
        }
        self.first[..first.len()].copy_from_slice(first);
        self.first_len = first.len() as u8;
        self.last[..last.len()].copy_from_slice(last);
        self.last_len = last.len() as u8;
        self.leaf = pid.0;
    }
}

/// The keys of one scanned batch in a single flat buffer: a scan records
/// every entry's key (its row locator) but a predicate keeps few of them,
/// so keys are copied here back to back and only the survivors are ever
/// turned into owned locators.
#[derive(Debug, Default)]
pub struct KeyArena {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl KeyArena {
    /// Forgets every key, keeping the allocations.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Appends one key.
    pub fn push(&mut self, key: &[u8]) {
        self.bytes.extend_from_slice(key);
        self.ends.push(self.bytes.len());
    }

    /// Appends one key that `write` puts onto the arena's bytes; on an
    /// error the partial key is dropped.
    pub fn push_with<E>(
        &mut self,
        write: impl FnOnce(&mut Vec<u8>) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let start = self.bytes.len();
        match write(&mut self.bytes) {
            Ok(()) => {
                self.ends.push(self.bytes.len());
                Ok(())
            }
            Err(e) => {
                self.bytes.truncate(start);
                Err(e)
            }
        }
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no key is held.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Keys the arena holds room for without growing its index.
    pub fn capacity(&self) -> usize {
        self.ends.capacity()
    }

    /// The `i`-th key pushed since the last [`KeyArena::clear`].
    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

/// Consecutive entries of one leaf page, handed out by
/// [`BTree::scan_prefix_runs`].
#[derive(Clone, Copy)]
pub struct LeafRun<'a> {
    b: &'a node::Buf,
    start: usize,
    end: usize,
}

impl<'a> LeafRun<'a> {
    /// The run's keys, in order.
    pub fn keys(self) -> impl Iterator<Item = &'a [u8]> {
        (self.start..self.end).map(move |i| node::key_at(self.b, i))
    }

    /// The run's values, in order.
    pub fn vals(self) -> impl Iterator<Item = &'a [u8]> {
        (self.start..self.end).map(move |i| node::leaf_val_at(self.b, i))
    }
}

/// Resumable batched scan over a [`BTree`]'s leaf chain
/// (see [`BTree::batch_cursor`]). Leaf values are decoded as rows.
#[derive(Debug, Clone, Copy)]
pub struct BTreeScanCursor {
    pid: u64,
    idx: usize,
}

impl BTreeScanCursor {
    /// Decodes the `cols` columns of up to `max` further entries' values
    /// into `chunk` (appending), also recording their keys into `keys`
    /// when given. Returns `false` once the tree is exhausted.
    pub fn next_batch(
        &mut self,
        pool: &mut BufferPool,
        chunk: &mut crate::chunk::Chunk,
        cols: &crate::row::ColSet,
        mut keys: Option<&mut KeyArena>,
        max: usize,
    ) -> Result<bool> {
        let mut added = 0usize;
        while self.pid != u64::MAX {
            if added >= max {
                return Ok(true);
            }
            let start = self.idx;
            let keys_ref = &mut keys;
            let want = max - added;
            let (next_idx, next_pid, leaf_done) = pool.read_page(PageId(self.pid), |b| {
                let n = node::num_cells(b);
                let end = n.min(start.saturating_add(want));
                crate::row::decode_rows_into_chunk(
                    (start..end).map(|i| node::leaf_val_at(b, i)),
                    chunk,
                    cols,
                )?;
                if let Some(keys) = keys_ref.as_deref_mut() {
                    (start..end).for_each(|i| keys.push(node::key_at(b, i)));
                }
                added += end - start;
                Ok::<_, StorageError>(if end < n {
                    (end, 0, false)
                } else {
                    (0, node::next_leaf(b), true)
                })
            })??;
            if leaf_done {
                self.pid = next_pid;
                self.idx = 0;
            } else {
                self.idx = next_idx;
            }
        }
        Ok(false)
    }
}

/// One partially-built interior node during a bulk build.
struct BulkLevel {
    img: Box<node::Buf>,
    /// Separator that will accompany this node's page id when it is
    /// attached to its parent; `None` for the leftmost node of its level.
    pending_sep: Option<Vec<u8>>,
    cells: usize,
}

/// Streaming bottom-up B+tree builder (see [`BTree::bulk_build`]).
///
/// Keeps O(height) memory: one in-progress page image per level. Leaves
/// are emitted left-to-right and chained as they flush; each flush pushes
/// `(first-key-of-subtree, page-id)` one level up, so no key ever takes a
/// root-to-leaf descent. `push` and `finish` borrow the pool per call, so
/// callers can interleave building with other pool work (e.g. reading the
/// source heap).
pub struct BTreeBulkBuilder {
    root: PageId,
    leaf: Box<node::Buf>,
    leaf_cells: usize,
    leaf_pending_sep: Option<Vec<u8>>,
    prev_leaf: Option<PageId>,
    levels: Vec<BulkLevel>,
    last_key: Option<Vec<u8>>,
    count: u64,
}

impl BTreeBulkBuilder {
    /// A builder targeting `tree`'s (stable) root page. The tree must be
    /// empty; until [`finish`](Self::finish) runs it stays an empty leaf.
    pub fn for_tree(tree: &BTree, pool: &mut BufferPool) -> Result<BTreeBulkBuilder> {
        if !tree.is_empty() {
            return Err(StorageError::Corrupt(
                "bulk_build requires an empty tree".into(),
            ));
        }
        // Ensure the root really is an empty leaf (a cleared tree is).
        let ok = pool.read_page(tree.root, |b| node::is_leaf(b) && node::num_cells(b) == 0)?;
        if !ok {
            return Err(StorageError::Corrupt(
                "bulk_build requires an empty leaf root".into(),
            ));
        }
        let mut leaf: Box<node::Buf> = Box::new([0u8; PAGE_SIZE]);
        node::init_leaf(&mut leaf);
        Ok(BTreeBulkBuilder {
            root: tree.root,
            leaf,
            leaf_cells: 0,
            leaf_pending_sep: None,
            prev_leaf: None,
            levels: Vec::new(),
            last_key: None,
            count: 0,
        })
    }

    /// Appends the next entry; keys must arrive strictly increasing.
    pub fn push(&mut self, pool: &mut BufferPool, key: &[u8], val: &[u8]) -> Result<()> {
        if !BTree::fits(key, val) {
            return Err(StorageError::RecordTooLarge {
                size: key.len() + val.len(),
                max: MAX_CELL_PAYLOAD,
            });
        }
        if let Some(last) = &self.last_key {
            if key <= last.as_slice() {
                return Err(StorageError::Corrupt(
                    "bulk_build keys must be strictly increasing".into(),
                ));
            }
        }
        if !node::leaf_insert_at(&mut self.leaf, self.leaf_cells, key, val) {
            self.flush_leaf(pool)?;
            node::init_leaf(&mut self.leaf);
            self.leaf_cells = 0;
            self.leaf_pending_sep = Some(key.to_vec());
            let ok = node::leaf_insert_at(&mut self.leaf, 0, key, val);
            debug_assert!(ok, "fresh leaf must fit one bounded cell");
        }
        self.leaf_cells += 1;
        // Reuse the last-key buffer: one allocation for the whole build
        // instead of one per entry.
        match &mut self.last_key {
            Some(buf) => {
                buf.clear();
                buf.extend_from_slice(key);
            }
            slot => *slot = Some(key.to_vec()),
        }
        self.count += 1;
        Ok(())
    }

    /// Writes the current leaf image out and links it into the leaf chain.
    fn flush_leaf(&mut self, pool: &mut BufferPool) -> Result<()> {
        let pid = pool.allocate_page()?;
        let img = self.leaf.clone();
        pool.write_page(pid, move |b| *b = *img)?;
        if let Some(prev) = self.prev_leaf {
            pool.write_page(prev, |b| node::set_next_leaf(b, pid.0))?;
        }
        self.prev_leaf = Some(pid);
        let sep = self.leaf_pending_sep.take();
        self.attach(pool, 0, sep, pid)
    }

    /// Attaches a flushed child page to the in-progress node at `level`,
    /// creating the level (a new tree tier) or flushing it upward when
    /// full.
    fn attach(
        &mut self,
        pool: &mut BufferPool,
        level: usize,
        sep: Option<Vec<u8>>,
        child: PageId,
    ) -> Result<()> {
        if level == self.levels.len() {
            // First child flushed from below: starts a new top tier, with
            // the child as the leftmost subtree (no separator yet).
            debug_assert!(sep.is_none(), "first flush at a level carries no separator");
            let mut img: Box<node::Buf> = Box::new([0u8; PAGE_SIZE]);
            node::init_interior(&mut img, child.0);
            self.levels.push(BulkLevel {
                img,
                pending_sep: None,
                cells: 0,
            });
            return Ok(());
        }
        let sep = sep.ok_or_else(|| {
            StorageError::Corrupt("bulk build: non-first child without a separator".into())
        })?;
        let lvl = &mut self.levels[level];
        if node::interior_insert_at(&mut lvl.img, lvl.cells, &sep, child.0) {
            lvl.cells += 1;
            return Ok(());
        }
        // Full: emit this node, promote it, and restart the level with the
        // incoming child as the new node's leftmost subtree. `sep` becomes
        // the new node's pending separator for *its* eventual promotion.
        self.flush_level(pool, level)?;
        let lvl = &mut self.levels[level];
        node::init_interior(&mut lvl.img, child.0);
        lvl.cells = 0;
        lvl.pending_sep = Some(sep);
        Ok(())
    }

    /// Writes the in-progress node at `level` out and attaches it one
    /// level up.
    fn flush_level(&mut self, pool: &mut BufferPool, level: usize) -> Result<()> {
        let pid = pool.allocate_page()?;
        let img = self.levels[level].img.clone();
        pool.write_page(pid, move |b| *b = *img)?;
        let sep = self.levels[level].pending_sep.take();
        self.attach(pool, level + 1, sep, pid)
    }

    /// Completes the build: flushes the partial right spine bottom-up and
    /// installs the top node's image into the (stable) root page. Returns
    /// the number of entries built.
    pub fn finish(mut self, pool: &mut BufferPool) -> Result<u64> {
        if self.count == 0 {
            return Ok(0);
        }
        if self.prev_leaf.is_none() {
            // Everything fit in one leaf: it becomes the root.
            let img = self.leaf;
            pool.write_page(self.root, move |b| *b = *img)?;
            return Ok(self.count);
        }
        self.flush_leaf(pool)?;
        let mut i = 0;
        while i + 1 < self.levels.len() {
            self.flush_level(pool, i)?;
            i += 1;
        }
        let top = self.levels.pop().ok_or_else(|| {
            StorageError::Corrupt("bulk build: multi-leaf build without a top level".into())
        })?;
        debug_assert!(
            top.cells > 0,
            "top level always receives the right spine's last child"
        );
        let img = top.img;
        pool.write_page(self.root, move |b| *b = *img)?;
        Ok(self.count)
    }
}

fn insert_rec(pool: &mut BufferPool, pid: PageId, key: &[u8], val: &[u8]) -> Result<Ins> {
    let leaf = pool.read_page(pid, node::is_leaf)?;
    if leaf {
        enum Outcome {
            Done(Option<Vec<u8>>),
            NeedSplit(Option<Vec<u8>>),
        }
        let outcome = pool.write_page(pid, |b| {
            let (idx, found) = node::lower_bound(b, key);
            let old = if found {
                let v = node::leaf_val_at(b, idx).to_vec();
                node::remove_at(b, idx);
                Some(v)
            } else {
                None
            };
            if node::leaf_insert_at(b, idx, key, val) {
                Outcome::Done(old)
            } else {
                Outcome::NeedSplit(old)
            }
        })?;
        let old = match outcome {
            Outcome::Done(old) => return Ok(Ins::Done(old)),
            Outcome::NeedSplit(old) => old,
        };
        // Split: the node's cells (the replaced key, if any, is already
        // gone) plus the new entry, distributed across two leaves, read
        // from a copy of the page.
        let mut img: node::Buf = [0; PAGE_SIZE];
        pool.read_page(pid, |b| img = *b)?;
        let next = node::next_leaf(&img);
        let (pos, _) = node::lower_bound(&img, key);
        let cell = |i: usize| match i.cmp(&pos) {
            std::cmp::Ordering::Less => (node::key_at(&img, i), node::leaf_val_at(&img, i)),
            std::cmp::Ordering::Equal => (key, val),
            std::cmp::Ordering::Greater => {
                (node::key_at(&img, i - 1), node::leaf_val_at(&img, i - 1))
            }
        };
        let m = node::num_cells(&img) + 1;
        let mid = split_point((0..m).map(|i| {
            let (k, v) = cell(i);
            4 + k.len() + v.len()
        }));
        let right_pid = pool.allocate_page()?;
        let sep = cell(mid).0.to_vec();
        pool.write_page(pid, |b| {
            node::init_leaf(b);
            for i in 0..mid {
                let (k, v) = cell(i);
                let ok = node::leaf_insert_at(b, i, k, v);
                debug_assert!(ok);
            }
            node::set_next_leaf(b, right_pid.0);
        })?;
        pool.write_page(right_pid, |b| {
            node::init_leaf(b);
            for i in mid..m {
                let (k, v) = cell(i);
                let ok = node::leaf_insert_at(b, i - mid, k, v);
                debug_assert!(ok);
            }
            node::set_next_leaf(b, next);
        })?;
        return Ok(Ins::Split {
            sep,
            right: right_pid.0,
            old,
        });
    }

    let child = pool.read_page(pid, |b| node::child_for(b, key))?;
    match insert_rec(pool, PageId(child), key, val)? {
        Ins::Done(old) => Ok(Ins::Done(old)),
        Ins::Split { sep, right, old } => {
            let fitted = pool.write_page(pid, |b| {
                let (idx, _) = node::lower_bound(b, &sep);
                node::interior_insert_at(b, idx, &sep, right)
            })?;
            if fitted {
                return Ok(Ins::Done(old));
            }
            // Split this interior node, read from a copy of the page; the
            // middle key moves up.
            let mut img: node::Buf = [0; PAGE_SIZE];
            pool.read_page(pid, |b| img = *b)?;
            let leftmost = node::leftmost_child(&img);
            // Separators are unique in practice; a tie goes left of it.
            let (pos, _) = node::lower_bound(&img, &sep);
            let cell = |i: usize| match i.cmp(&pos) {
                std::cmp::Ordering::Less => {
                    (node::key_at(&img, i), node::interior_cell_child(&img, i))
                }
                std::cmp::Ordering::Equal => (&sep[..], right),
                std::cmp::Ordering::Greater => (
                    node::key_at(&img, i - 1),
                    node::interior_cell_child(&img, i - 1),
                ),
            };
            let m = node::num_cells(&img) + 1;
            let mid = split_point((0..m).map(|i| 2 + cell(i).0.len() + 8));
            let (up_key, up_child) = cell(mid);
            let up_key = up_key.to_vec();
            let right_pid = pool.allocate_page()?;
            pool.write_page(pid, |b| {
                node::init_interior(b, leftmost);
                for i in 0..mid {
                    let (k, c) = cell(i);
                    let ok = node::interior_insert_at(b, i, k, c);
                    debug_assert!(ok);
                }
            })?;
            pool.write_page(right_pid, |b| {
                node::init_interior(b, up_child);
                for i in mid + 1..m {
                    let (k, c) = cell(i);
                    let ok = node::interior_insert_at(b, i - mid - 1, k, c);
                    debug_assert!(ok);
                }
            })?;
            Ok(Ins::Split {
                sep: up_key,
                right: right_pid.0,
                old,
            })
        }
    }
}

/// Number of cells to keep in the left node: the smallest count whose
/// cumulative bytes reach half the total. Byte-balanced splits keep fill
/// factors healthy for skewed payloads; both sides stay non-empty.
fn split_point(sizes: impl ExactSizeIterator<Item = usize> + Clone) -> usize {
    let n = sizes.len();
    debug_assert!(n >= 2, "cannot split fewer than two cells");
    let total: usize = sizes.clone().sum();
    let mut acc = 0usize;
    for (i, s) in sizes.enumerate() {
        acc += s;
        if acc * 2 >= total {
            return (i + 1).clamp(1, n - 1);
        }
    }
    n / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn pool() -> BufferPool {
        BufferPool::in_memory(64)
    }

    fn k(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn empty_tree_get_none() {
        let mut p = pool();
        let t = BTree::create(&mut p).unwrap();
        assert!(t.get(&mut p, b"x").unwrap().is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn insert_get_single() {
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        assert!(t.insert(&mut p, b"k", b"v").unwrap().is_none());
        assert_eq!(t.get(&mut p, b"k").unwrap().unwrap(), b"v");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn replace_returns_old_value() {
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        t.insert(&mut p, b"k", b"v1").unwrap();
        let old = t.insert(&mut p, b"k", b"v2").unwrap();
        assert_eq!(old.unwrap(), b"v1");
        assert_eq!(t.get(&mut p, b"k").unwrap().unwrap(), b"v2");
        assert_eq!(t.len(), 1, "replace must not grow len");
    }

    #[test]
    fn sequential_inserts_split_root() {
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        let n = 2000u64;
        for i in 0..n {
            t.insert(&mut p, &k(i), format!("val{i}").as_bytes())
                .unwrap();
        }
        assert_eq!(t.len(), n);
        assert!(t.height(&mut p).unwrap() >= 2);
        for i in 0..n {
            assert_eq!(
                t.get(&mut p, &k(i)).unwrap().unwrap(),
                format!("val{i}").as_bytes(),
                "key {i}"
            );
        }
        assert!(t.get(&mut p, &k(n)).unwrap().is_none());
    }

    #[test]
    fn reverse_and_random_inserts_match_oracle() {
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        let mut oracle = BTreeMap::new();
        // Reverse order
        for i in (0..500u64).rev() {
            t.insert(&mut p, &k(i), &k(i * 3)).unwrap();
            oracle.insert(k(i), k(i * 3));
        }
        // Pseudo-random interleaved updates
        let mut x = 99u64;
        for _ in 0..1500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = k((x >> 40) % 800);
            let val = k(x % 1000);
            t.insert(&mut p, &key, &val).unwrap();
            oracle.insert(key, val);
        }
        assert_eq!(t.len(), oracle.len() as u64);
        for (key, val) in &oracle {
            assert_eq!(&t.get(&mut p, key).unwrap().unwrap(), val);
        }
    }

    #[test]
    fn full_scan_is_sorted_and_complete() {
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        let mut x = 7u64;
        let mut keys = Vec::new();
        for _ in 0..1000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let key = k(x);
            t.insert(&mut p, &key, b"").unwrap();
            keys.push(key);
        }
        keys.sort();
        keys.dedup();
        let mut seen = Vec::new();
        t.scan_range(&mut p, Bound::Unbounded, Bound::Unbounded, |k, _| {
            seen.push(k.to_vec());
            true
        })
        .unwrap();
        assert_eq!(seen, keys);
    }

    #[test]
    fn range_scan_bounds() {
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        for i in 0..100u64 {
            t.insert(&mut p, &k(i), &k(i)).unwrap();
        }
        let collect = |p: &mut BufferPool, t: &BTree, lo: Bound<&[u8]>, hi: Bound<&[u8]>| {
            let mut out = Vec::new();
            t.scan_range(p, lo, hi, |key, _| {
                out.push(u64::from_be_bytes(key.try_into().unwrap()));
                true
            })
            .unwrap();
            out
        };
        let lo = k(10);
        let hi = k(20);
        assert_eq!(
            collect(&mut p, &t, Bound::Included(&lo), Bound::Included(&hi)),
            (10..=20).collect::<Vec<_>>()
        );
        assert_eq!(
            collect(&mut p, &t, Bound::Excluded(&lo), Bound::Excluded(&hi)),
            (11..20).collect::<Vec<_>>()
        );
        assert_eq!(
            collect(&mut p, &t, Bound::Unbounded, Bound::Excluded(&lo)),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(
            collect(&mut p, &t, Bound::Included(&k(95)), Bound::Unbounded),
            (95..100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scan_early_stop() {
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        for i in 0..100u64 {
            t.insert(&mut p, &k(i), b"").unwrap();
        }
        let mut n = 0;
        t.scan_range(&mut p, Bound::Unbounded, Bound::Unbounded, |_, _| {
            n += 1;
            n < 7
        })
        .unwrap();
        assert_eq!(n, 7);
    }

    #[test]
    fn prefix_scan() {
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        // Composite keys: (group, seq).
        for g in 0..10u8 {
            for s in 0..20u8 {
                t.insert(&mut p, &[g, s], &[g + s]).unwrap();
            }
        }
        let mut seen = Vec::new();
        t.scan_prefix(&mut p, &[4], |key, _| {
            seen.push(key[1]);
            true
        })
        .unwrap();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn prefix_runs_are_the_prefix_scan_a_leaf_at_a_time() {
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        // 200-byte values: a group of 100 entries spans several leaves.
        for g in 0..5u8 {
            for s in 0..100u8 {
                t.insert(&mut p, &[g, s], &[s; 200]).unwrap();
            }
        }
        let mut want = Vec::new();
        t.scan_prefix(&mut p, &[2], |k, v| {
            want.push((k.to_vec(), v.to_vec()));
            true
        })
        .unwrap();
        let mut runs: Vec<Vec<_>> = Vec::new();
        t.scan_prefix_runs(&mut p, &mut LeafWalk::default(), &[2], |run| {
            let keys = run.keys().map(<[u8]>::to_vec);
            runs.push(keys.zip(run.vals().map(<[u8]>::to_vec)).collect());
            true
        })
        .unwrap();
        assert!(runs.len() > 1 && runs.iter().all(|r| !r.is_empty()));
        assert_eq!(runs.concat(), want);
        let mut calls = 0;
        t.scan_prefix_runs(&mut p, &mut LeafWalk::default(), &[2], |_| {
            calls += 1;
            false
        })
        .unwrap();
        assert_eq!(calls, 1, "false stops the walk");
    }

    /// A tree of `(group, seq)` keys whose groups range from absent to
    /// several leaves long, with holes punched by deletes.
    fn grouped_tree(p: &mut BufferPool) -> BTree {
        let mut t = BTree::create(p).unwrap();
        let mut x = 11u64;
        for g in 0..120u16 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let n = [0, 1, 2, 3, 5, 90][(x >> 33) as usize % 6];
            for s in 0..n {
                t.insert(p, &[&g.to_be_bytes()[..], &[s]].concat(), &[7u8; 90])
                    .unwrap();
            }
        }
        for g in (0..120u16).step_by(7) {
            for s in 0..60u8 {
                t.delete(p, &[&g.to_be_bytes()[..], &[s]].concat()).unwrap();
            }
        }
        t
    }

    #[test]
    fn a_sorted_walk_finds_what_fresh_probes_find_in_fewer_reads() {
        let mut p = pool();
        let t = grouped_tree(&mut p);
        assert!(t.height(&mut p).unwrap() >= 2);
        let runs_of = |p: &mut BufferPool, walk: &mut LeafWalk, prefix: &[u8]| {
            let mut keys = Vec::new();
            t.scan_prefix_runs(p, walk, prefix, |run| {
                keys.extend(run.keys().map(<[u8]>::to_vec));
                true
            })
            .unwrap();
            keys
        };
        // Every group and a few past the last, in key order.
        let prefixes: Vec<[u8; 2]> = (0..130u16).map(u16::to_be_bytes).collect();
        let before = p.stats().accesses();
        let fresh: Vec<_> = prefixes
            .iter()
            .map(|g| runs_of(&mut p, &mut LeafWalk::default(), g))
            .collect();
        let fresh_reads = p.stats().accesses() - before;
        let mut walk = LeafWalk::default();
        let before = p.stats().accesses();
        let walked: Vec<_> = prefixes
            .iter()
            .map(|g| runs_of(&mut p, &mut walk, g))
            .collect();
        let walk_reads = p.stats().accesses() - before;
        assert_eq!(walked, fresh);
        assert!(
            fresh.iter().any(|keys| keys.len() > 45),
            "a group spans leaves"
        );
        assert!(
            3 * walk_reads < 2 * fresh_reads,
            "walk {walk_reads} reads, fresh probes {fresh_reads}"
        );
        // A walk left far ahead still answers an earlier key correctly.
        assert_eq!(runs_of(&mut p, &mut walk, &prefixes[3]), fresh[3]);
        let mut got = Vec::new();
        t.scan_from(&mut p, &mut walk, &prefixes[5], |k, _| {
            got.push(k.to_vec());
            got.len() < 3
        })
        .unwrap();
        let mut want = Vec::new();
        t.scan_range(
            &mut p,
            Bound::Included(&prefixes[5]),
            Bound::Unbounded,
            |k, _| {
                want.push(k.to_vec());
                want.len() < 3
            },
        )
        .unwrap();
        assert_eq!(got, want);
    }

    /// Every leaf's keys, leaf by leaf along the chain.
    fn leaf_keys(p: &mut BufferPool, t: &BTree) -> Vec<Vec<Vec<u8>>> {
        let mut leaves = Vec::new();
        t.scan_prefix_runs(p, &mut LeafWalk::default(), &[], |run| {
            leaves.push(run.keys().map(<[u8]>::to_vec).collect());
            true
        })
        .unwrap();
        leaves
    }

    #[test]
    fn inserts_on_a_walk_build_the_tree_plain_inserts_build() {
        let mut x = 5u64;
        let random: Vec<u64> = (0..3000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 20) % 5000
            })
            .collect();
        for order in [(0..3000).collect(), (0..3000).rev().collect(), random] {
            let mut p = pool();
            let mut plain = BTree::create(&mut p).unwrap();
            let mut walked = BTree::create(&mut p).unwrap();
            let mut walk = LeafWalk::default();
            for &i in &order {
                let val = vec![(i % 7) as u8; 20 + (i % 13) as usize];
                let want = plain.insert(&mut p, &k(i), &val).unwrap();
                assert_eq!(
                    walked.insert_at(&mut p, &mut walk, &k(i), &val).unwrap(),
                    want
                );
            }
            assert_eq!(walked.len(), plain.len());
            assert_eq!(
                walked.height(&mut p).unwrap(),
                plain.height(&mut p).unwrap()
            );
            assert_eq!(leaf_keys(&mut p, &walked), leaf_keys(&mut p, &plain));
            let mut walk = LeafWalk::default();
            for i in (0..5200).step_by(3) {
                let want = plain.contains(&mut p, &k(i)).unwrap();
                assert_eq!(walked.contains_at(&mut p, &mut walk, &k(i)).unwrap(), want);
            }
        }
    }

    #[test]
    fn replace_sorted_overwrites_values_and_inserts_the_rest() {
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        let mut oracle = std::collections::BTreeMap::new();
        for i in 0..600u64 {
            t.insert(&mut p, &k(i * 2), &[1u8; 40]).unwrap();
            oracle.insert(k(i * 2), vec![1u8; 40]);
        }
        // Same-length values, a longer one, and keys not in the tree.
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..1200u64)
            .step_by(3)
            .map(|i| {
                let len = if i % 97 == 0 { 300 } else { 40 };
                (k(i), vec![(i % 251) as u8; len])
            })
            .collect();
        t.replace_sorted(&mut p, entries.iter().map(|(k, v)| (&k[..], &v[..])))
            .unwrap();
        oracle.extend(entries);
        assert_eq!(t.len(), oracle.len() as u64);
        let mut seen = std::collections::BTreeMap::new();
        t.scan_range(&mut p, Bound::Unbounded, Bound::Unbounded, |k, v| {
            seen.insert(k.to_vec(), v.to_vec());
            true
        })
        .unwrap();
        assert_eq!(seen, oracle);
    }

    #[test]
    fn delete_then_reinsert() {
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        for i in 0..300u64 {
            t.insert(&mut p, &k(i), &k(i)).unwrap();
        }
        for i in (0..300u64).step_by(2) {
            assert!(t.delete(&mut p, &k(i)).unwrap().is_some(), "delete {i}");
        }
        assert_eq!(t.len(), 150);
        for i in 0..300u64 {
            let got = t.get(&mut p, &k(i)).unwrap();
            if i % 2 == 0 {
                assert!(got.is_none(), "key {i} should be gone");
            } else {
                assert!(got.is_some(), "key {i} should remain");
            }
        }
        // Deleting a missing key is a no-op.
        assert!(t.delete(&mut p, &k(0)).unwrap().is_none());
        // Re-insert over the holes.
        for i in (0..300u64).step_by(2) {
            t.insert(&mut p, &k(i), b"again").unwrap();
        }
        assert_eq!(t.len(), 300);
        assert_eq!(t.get(&mut p, &k(42)).unwrap().unwrap(), b"again");
    }

    #[test]
    fn clear_releases_pages_and_tree_reusable() {
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        for i in 0..2000u64 {
            t.insert(&mut p, &k(i), &[0u8; 32]).unwrap();
        }
        let pages_before = p.num_disk_pages();
        t.clear(&mut p).unwrap();
        assert!(t.is_empty());
        assert!(t.get(&mut p, &k(5)).unwrap().is_none());
        // Freed pages are recycled: rebuilding should not grow the file.
        for i in 0..2000u64 {
            t.insert(&mut p, &k(i), &[0u8; 32]).unwrap();
        }
        assert!(
            p.num_disk_pages() <= pages_before + 1,
            "pages should be recycled ({} -> {})",
            pages_before,
            p.num_disk_pages()
        );
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        let err = t.insert(&mut p, b"k", &vec![0u8; PAGE_SIZE]);
        assert!(matches!(err, Err(StorageError::RecordTooLarge { .. })));
    }

    #[test]
    fn fully_deleted_range_releases_leaves() {
        let mut p = BufferPool::in_memory(256);
        let mut t = BTree::create(&mut p).unwrap();
        for i in 0..5000u64 {
            t.insert(&mut p, &k(i), &[7u8; 40]).unwrap();
        }
        let pages_before = t.reachable_pages(&mut p).unwrap();
        let leaves_before = t.chain_leaves(&mut p).unwrap();
        assert!(leaves_before > 20, "need many leaves for the test");
        // Retire a large contiguous range completely (the batched-FEM
        // retirement pattern), then everything.
        for i in 1000..4000u64 {
            assert!(t.delete(&mut p, &k(i)).unwrap().is_some());
        }
        let leaves_mid = t.chain_leaves(&mut p).unwrap();
        assert!(
            leaves_mid < leaves_before / 2,
            "empty leaves must leave the chain ({leaves_before} -> {leaves_mid})"
        );
        // Remaining keys intact and in order.
        let mut seen = Vec::new();
        t.scan_range(&mut p, Bound::Unbounded, Bound::Unbounded, |key, _| {
            seen.push(u64::from_be_bytes(key.try_into().unwrap()));
            true
        })
        .unwrap();
        let expect: Vec<u64> = (0..1000).chain(4000..5000).collect();
        assert_eq!(seen, expect);
        // Point lookups still route correctly across the collapsed range.
        assert!(t.get(&mut p, &k(999)).unwrap().is_some());
        assert!(t.get(&mut p, &k(2500)).unwrap().is_none());
        assert!(t.get(&mut p, &k(4000)).unwrap().is_some());
        for i in 0..5000u64 {
            t.delete(&mut p, &k(i)).unwrap();
        }
        assert!(t.is_empty());
        let pages_after = t.reachable_pages(&mut p).unwrap();
        assert!(
            pages_after < pages_before / 4,
            "a fully-deleted tree must shed its pages ({pages_before} -> {pages_after})"
        );
        let leaves_after = t.chain_leaves(&mut p).unwrap();
        assert!(
            leaves_after <= t.height(&mut p).unwrap(),
            "at most one straggler leaf per level ({leaves_after})"
        );
        // The tree remains fully usable: freed pages are recycled.
        for i in 0..5000u64 {
            t.insert(&mut p, &k(i), &[8u8; 40]).unwrap();
        }
        assert_eq!(t.len(), 5000);
        assert_eq!(t.get(&mut p, &k(4321)).unwrap().unwrap(), vec![8u8; 40]);
    }

    #[test]
    fn delete_reclaim_interleaved_with_reinserts_matches_oracle() {
        let mut p = BufferPool::in_memory(64);
        let mut t = BTree::create(&mut p).unwrap();
        let mut oracle = BTreeMap::new();
        let mut x = 11u64;
        for round in 0..6000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = k((x >> 33) % 700);
            if round % 3 == 0 {
                t.delete(&mut p, &key).unwrap();
                oracle.remove(&key);
            } else {
                t.insert(&mut p, &key, &k(x)).unwrap();
                oracle.insert(key, k(x));
            }
        }
        assert_eq!(t.len(), oracle.len() as u64);
        let mut seen = Vec::new();
        t.scan_range(&mut p, Bound::Unbounded, Bound::Unbounded, |key, v| {
            seen.push((key.to_vec(), v.to_vec()));
            true
        })
        .unwrap();
        let expect: Vec<(Vec<u8>, Vec<u8>)> =
            oracle.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn insert_batch_counts_fresh_keys() {
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        t.insert(&mut p, &k(5), b"old").unwrap();
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..10u64).map(|i| (k(i), k(i))).collect();
        let fresh = t.insert_batch(&mut p, entries).unwrap();
        assert_eq!(fresh, 9, "key 5 was a replacement");
        assert_eq!(t.len(), 10);
        assert_eq!(t.get(&mut p, &k(5)).unwrap().unwrap(), k(5));
    }

    #[test]
    fn batch_cursor_matches_scan() {
        use crate::value::Value;
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        for i in 0..800i64 {
            t.insert(
                &mut p,
                &k(i as u64),
                &crate::row::encode_row(&[Value::Int(i), Value::Null]),
            )
            .unwrap();
        }
        let mut cursor = t.batch_cursor(&mut p).unwrap();
        let mut chunk = crate::chunk::Chunk::new();
        let mut keys = KeyArena::default();
        let mut rows = Vec::new();
        loop {
            chunk.reset();
            let more = cursor
                .next_batch(
                    &mut p,
                    &mut chunk,
                    &crate::row::ColSet::all(),
                    Some(&mut keys),
                    100,
                )
                .unwrap();
            rows.extend(chunk.to_rows());
            if !more {
                break;
            }
        }
        assert_eq!(rows.len(), 800);
        assert_eq!(keys.len(), 800);
        for i in 0..800i64 {
            assert_eq!(rows[i as usize], vec![Value::Int(i), Value::Null]);
            assert_eq!(keys.get(i as usize), k(i as u64));
        }
    }

    #[test]
    fn bulk_build_matches_insert_built_tree() {
        for n in [0u64, 1, 3, 150, 151, 2000, 12345] {
            let mut p = BufferPool::in_memory(64);
            let mut t = BTree::create(&mut p).unwrap();
            let root_before = t.root();
            let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
                .map(|i| (k(i), format!("v{i}").into_bytes()))
                .collect();
            let built = t.bulk_build(&mut p, entries.clone()).unwrap();
            assert_eq!(built, n);
            assert_eq!(t.len(), n);
            assert_eq!(t.root(), root_before, "root pid must stay stable");
            // Full scan returns exactly the input, in order.
            let mut seen = Vec::new();
            t.scan_range(&mut p, Bound::Unbounded, Bound::Unbounded, |key, v| {
                seen.push((key.to_vec(), v.to_vec()));
                true
            })
            .unwrap();
            assert_eq!(seen, entries, "n={n}");
            // Point lookups route correctly through the built interiors.
            for i in (0..n).step_by(97) {
                assert_eq!(
                    t.get(&mut p, &k(i)).unwrap().unwrap(),
                    format!("v{i}").into_bytes()
                );
            }
            assert!(t.get(&mut p, &k(n)).unwrap().is_none());
        }
    }

    #[test]
    fn bulk_build_leaves_are_denser_than_split_built() {
        let n = 20_000u64;
        let mut p1 = BufferPool::in_memory(64);
        let mut bulk = BTree::create(&mut p1).unwrap();
        bulk.bulk_build(&mut p1, (0..n).map(|i| (k(i), k(i))))
            .unwrap();
        let mut p2 = BufferPool::in_memory(64);
        let mut split = BTree::create(&mut p2).unwrap();
        for i in 0..n {
            split.insert(&mut p2, &k(i), &k(i)).unwrap();
        }
        let bulk_pages = bulk.reachable_pages(&mut p1).unwrap();
        let split_pages = split.reachable_pages(&mut p2).unwrap();
        assert!(
            bulk_pages * 3 <= split_pages * 2,
            "bulk {bulk_pages} pages vs split {split_pages}"
        );
    }

    #[test]
    fn bulk_build_tree_accepts_later_inserts_and_deletes() {
        let mut p = BufferPool::in_memory(64);
        let mut t = BTree::create(&mut p).unwrap();
        t.bulk_build(&mut p, (0..5000u64).map(|i| (k(i * 2), k(i))))
            .unwrap();
        // Odd keys insert into full leaves, forcing splits everywhere.
        for i in 0..2000u64 {
            assert!(t.insert(&mut p, &k(i * 2 + 1), b"odd").unwrap().is_none());
        }
        assert_eq!(t.len(), 7000);
        assert_eq!(t.get(&mut p, &k(1999)).unwrap().unwrap(), b"odd");
        assert_eq!(t.get(&mut p, &k(4000)).unwrap().unwrap(), k(2000));
        for i in 0..1000u64 {
            assert!(t.delete(&mut p, &k(i * 2)).unwrap().is_some());
        }
        assert_eq!(t.len(), 6000);
        let mut count = 0u64;
        t.scan_range(&mut p, Bound::Unbounded, Bound::Unbounded, |_, _| {
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, 6000);
    }

    #[test]
    fn bulk_build_rejects_unsorted_and_nonempty() {
        let mut p = pool();
        let mut t = BTree::create(&mut p).unwrap();
        let err = t.bulk_build(&mut p, vec![(k(5), vec![]), (k(5), vec![])]);
        assert!(err.is_err(), "duplicate keys must be rejected");
        // The failed build leaves the tree unusable only transiently; a
        // fresh tree builds fine.
        let mut t2 = BTree::create(&mut p).unwrap();
        t2.insert(&mut p, &k(1), b"x").unwrap();
        let err = t2.bulk_build(&mut p, vec![(k(2), vec![])]);
        assert!(err.is_err(), "non-empty tree must be rejected");
        let mut t3 = BTree::create(&mut p).unwrap();
        let err = t3.bulk_build(&mut p, vec![(k(9), vec![]), (k(3), vec![])]);
        assert!(err.is_err(), "descending keys must be rejected");
    }

    #[test]
    fn bulk_build_through_tiny_pool_spills_cleanly() {
        let mut p = BufferPool::in_memory(3);
        let mut t = BTree::create(&mut p).unwrap();
        let n = 8000u64;
        t.bulk_build(&mut p, (0..n).map(|i| (k(i), k(i * 7))))
            .unwrap();
        let mut seen = 0u64;
        t.scan_range(&mut p, Bound::Unbounded, Bound::Unbounded, |key, v| {
            let i = u64::from_be_bytes(key.try_into().unwrap());
            assert_eq!(i, seen);
            assert_eq!(v, k(i * 7));
            seen += 1;
            true
        })
        .unwrap();
        assert_eq!(seen, n);
    }

    #[test]
    fn works_through_tiny_buffer_pool() {
        // Exercise eviction paths during structural changes.
        let mut p = BufferPool::in_memory(3);
        let mut t = BTree::create(&mut p).unwrap();
        let mut oracle = BTreeMap::new();
        let mut x = 5u64;
        for _ in 0..3000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = k(x >> 32);
            t.insert(&mut p, &key, &k(x)).unwrap();
            oracle.insert(key, k(x));
        }
        for (key, val) in &oracle {
            assert_eq!(
                &t.get(&mut p, key).unwrap().unwrap(),
                val,
                "through evictions"
            );
        }
        let mut count = 0u64;
        t.scan_range(&mut p, Bound::Unbounded, Bound::Unbounded, |_, _| {
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, oracle.len() as u64);
    }
    #[test]
    fn full_scan_keeps_root_resident() {
        // The 2Q pool's reason to exist, seen from the tree: point probes
        // heat the root into the protected tier, and a full-table scan —
        // which parades every leaf through the probationary tier exactly
        // once — must not evict it.
        let mut p = BufferPool::in_memory(8);
        let mut t = BTree::create(&mut p).unwrap();
        for i in 0..4000u64 {
            t.insert(&mut p, &k(i), &k(i)).unwrap();
        }
        assert!(t.height(&mut p).unwrap() >= 2, "need a real interior");
        for i in (0..4000u64).step_by(997) {
            t.get(&mut p, &k(i)).unwrap().unwrap(); // every probe re-touches the root
        }
        let mut count = 0u64;
        t.scan_range(&mut p, Bound::Unbounded, Bound::Unbounded, |_, _| {
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, 4000);
        p.reset_stats();
        p.read_page(t.root, |_| ()).unwrap();
        let s = p.stats();
        assert_eq!(
            s.buffer_misses, 0,
            "the scan must not have evicted the hot root"
        );
        assert_eq!(s.buffer_hits, 1);
    }
}
