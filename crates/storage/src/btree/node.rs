//! Raw B+tree node layout over a page image.
//!
//! ```text
//! offset  field
//! 0       node type: 1 = leaf, 2 = interior
//! 1       (reserved)
//! 2..4    cell count               (u16)
//! 4..6    cell area start offset   (u16, cells grow downward)
//! 6..8    dead cell bytes          (u16, reclaimable by compaction)
//! 8..16   leaf: next-leaf page id / interior: leftmost child page id
//! 16..    slot directory: u16 cell offset per cell, sorted by key
//! ```
//!
//! Leaf cell:      `[u16 klen][u16 vlen][key][value]`
//! Interior cell:  `[u16 klen][key][u64 child-page-id]`
//!
//! Interior fan-out semantics: keys below `key(0)` descend into the leftmost
//! child; keys in `[key(i), key(i+1))` descend into `child(i)`; keys at or
//! above the last key descend into the last child.

use crate::page::{codec, PAGE_SIZE};
use std::cmp::Ordering;

pub const TYPE_LEAF: u8 = 1;
pub const TYPE_INTERIOR: u8 = 2;

const OFF_TYPE: usize = 0;
const OFF_NUM: usize = 2;
const OFF_CELL_START: usize = 4;
const OFF_DEAD: usize = 6;
const OFF_LINK: usize = 8; // next leaf / leftmost child
pub const HDR_SIZE: usize = 16;
const SLOT_SIZE: usize = 2;

/// Largest key+value payload a single cell may carry. Bounded so that every
/// node fits at least four cells, keeping splits well defined.
pub const MAX_CELL_PAYLOAD: usize = (PAGE_SIZE - HDR_SIZE) / 4 - 8;

pub type Buf = [u8; PAGE_SIZE];

pub fn init_leaf(buf: &mut Buf) {
    buf[OFF_TYPE] = TYPE_LEAF;
    codec::put_u16(buf, OFF_NUM, 0);
    codec::put_u16(buf, OFF_CELL_START, PAGE_SIZE as u16);
    codec::put_u16(buf, OFF_DEAD, 0);
    codec::put_u64(buf, OFF_LINK, u64::MAX);
}

pub fn init_interior(buf: &mut Buf, leftmost_child: u64) {
    buf[OFF_TYPE] = TYPE_INTERIOR;
    codec::put_u16(buf, OFF_NUM, 0);
    codec::put_u16(buf, OFF_CELL_START, PAGE_SIZE as u16);
    codec::put_u16(buf, OFF_DEAD, 0);
    codec::put_u64(buf, OFF_LINK, leftmost_child);
}

#[inline]
pub fn is_leaf(buf: &Buf) -> bool {
    buf[OFF_TYPE] == TYPE_LEAF
}

#[inline]
pub fn num_cells(buf: &Buf) -> usize {
    codec::get_u16(buf, OFF_NUM) as usize
}

#[inline]
pub fn next_leaf(buf: &Buf) -> u64 {
    debug_assert!(is_leaf(buf));
    codec::get_u64(buf, OFF_LINK)
}

#[inline]
pub fn set_next_leaf(buf: &mut Buf, pid: u64) {
    debug_assert!(is_leaf(buf));
    codec::put_u64(buf, OFF_LINK, pid);
}

#[inline]
pub fn leftmost_child(buf: &Buf) -> u64 {
    debug_assert!(!is_leaf(buf));
    codec::get_u64(buf, OFF_LINK)
}

#[inline]
fn cell_off(buf: &Buf, i: usize) -> usize {
    codec::get_u16(buf, HDR_SIZE + i * SLOT_SIZE) as usize
}

/// Key bytes of cell `i` (either node type).
#[inline]
pub fn key_at(buf: &Buf, i: usize) -> &[u8] {
    let off = cell_off(buf, i);
    let klen = codec::get_u16(buf, off) as usize;
    let kstart = if is_leaf(buf) { off + 4 } else { off + 2 };
    &buf[kstart..kstart + klen]
}

/// Value bytes of leaf cell `i`.
pub fn leaf_val_at(buf: &Buf, i: usize) -> &[u8] {
    debug_assert!(is_leaf(buf));
    let off = cell_off(buf, i);
    let klen = codec::get_u16(buf, off) as usize;
    let vlen = codec::get_u16(buf, off + 2) as usize;
    let vstart = off + 4 + klen;
    &buf[vstart..vstart + vlen]
}

/// Child page id stored in interior cell `i`.
pub fn interior_cell_child(buf: &Buf, i: usize) -> u64 {
    debug_assert!(!is_leaf(buf));
    let off = cell_off(buf, i);
    let klen = codec::get_u16(buf, off) as usize;
    codec::get_u64(buf, off + 2 + klen)
}

/// Child to descend into for `key` (see module docs for semantics).
pub fn child_for(buf: &Buf, key: &[u8]) -> u64 {
    child_for_idx(buf, key).0
}

/// Like [`child_for`], also returning the child's logical position in
/// `0..=num_cells` (0 = leftmost) — used by delete to remember its path.
pub fn child_for_idx(buf: &Buf, key: &[u8]) -> (u64, usize) {
    let (idx, found) = lower_bound(buf, key);
    // Cells with key <= `key` route right of themselves.
    let child_idx = if found { idx + 1 } else { idx };
    (child_at(buf, child_idx), child_idx)
}

/// Replaces an interior node's leftmost child pointer.
pub fn set_leftmost_child(buf: &mut Buf, pid: u64) {
    debug_assert!(!is_leaf(buf));
    codec::put_u64(buf, OFF_LINK, pid);
}

/// Child page id at logical position `i` in `0..=num_cells` (0 = leftmost).
pub fn child_at(buf: &Buf, i: usize) -> u64 {
    if i == 0 {
        leftmost_child(buf)
    } else {
        interior_cell_child(buf, i - 1)
    }
}

/// Orders two keys as byte strings, as `<[u8]>::cmp` does, eight bytes at
/// a time: keys are short, and a call to `memcmp` per step of a binary
/// search costs more than the compare itself.
#[inline]
pub fn cmp_keys(a: &[u8], b: &[u8]) -> Ordering {
    let n = a.len().min(b.len());
    let (mut a8, mut b8) = (a[..n].chunks_exact(8), b[..n].chunks_exact(8));
    let word = |c: &[u8]| {
        let mut w = [0u8; 8];
        w.copy_from_slice(c);
        u64::from_be_bytes(w)
    };
    for (x, y) in (&mut a8).zip(&mut b8) {
        let (x, y) = (word(x), word(y));
        if x != y {
            return x.cmp(&y);
        }
    }
    for (x, y) in a8.remainder().iter().zip(b8.remainder()) {
        if x != y {
            return x.cmp(y);
        }
    }
    a.len().cmp(&b.len())
}

/// Binary search: index of the first cell with `key_at(idx) >= key`, plus
/// whether it is an exact match.
#[inline]
pub fn lower_bound(buf: &Buf, key: &[u8]) -> (usize, bool) {
    lower_bound_from(buf, key, 0)
}

/// [`lower_bound`] among the cells from `from` on, for a key that sorts
/// after every cell before `from`.
#[inline]
pub fn lower_bound_from(buf: &Buf, key: &[u8], from: usize) -> (usize, bool) {
    let n = num_cells(buf);
    let (mut lo, mut hi) = (from.min(n), n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        match cmp_keys(key_at(buf, mid), key) {
            Ordering::Less => lo = mid + 1,
            _ => hi = mid,
        }
    }
    let found = lo < n && key_at(buf, lo) == key;
    (lo, found)
}

/// Contiguous free bytes between the slot directory and the cell area, plus
/// dead bytes reclaimable by [`compact`].
pub fn free_space(buf: &Buf) -> usize {
    let n = num_cells(buf);
    let cell_start = codec::get_u16(buf, OFF_CELL_START) as usize;
    let dead = codec::get_u16(buf, OFF_DEAD) as usize;
    cell_start - (HDR_SIZE + n * SLOT_SIZE) + dead
}

/// Offset and byte size of cell `i` (either node type).
fn cell_span(buf: &Buf, i: usize) -> (usize, usize) {
    let off = cell_off(buf, i);
    let klen = codec::get_u16(buf, off) as usize;
    let size = if is_leaf(buf) {
        let vlen = codec::get_u16(buf, off + 2) as usize;
        4 + klen + vlen
    } else {
        2 + klen + 8
    };
    (off, size)
}

/// Rewrites live cells tightly against the page end, reclaiming dead
/// space. Works from a copy of the page on the stack.
pub fn compact(buf: &mut Buf) {
    let img: Buf = *buf;
    let mut cell_start = PAGE_SIZE;
    for i in 0..num_cells(&img) {
        let (off, size) = cell_span(&img, i);
        cell_start -= size;
        buf[cell_start..cell_start + size].copy_from_slice(&img[off..off + size]);
        codec::put_u16(buf, HDR_SIZE + i * SLOT_SIZE, cell_start as u16);
    }
    codec::put_u16(buf, OFF_CELL_START, cell_start as u16);
    codec::put_u16(buf, OFF_DEAD, 0);
}

/// Makes room for a `size`-byte cell at slot `i` of a node holding `n`
/// cells and returns the cell's bytes for the caller to write in place.
fn write_cell(buf: &mut Buf, i: usize, size: usize, n: usize) -> &mut [u8] {
    // Caller guarantees total space (including dead bytes). Compact when
    // the contiguous gap between slot directory and cell area is too small
    // — `cell_start` may even sit below the slot area end when dead cells
    // pack low, hence the saturating arithmetic.
    let slot_area_end = HDR_SIZE + (n + 1) * SLOT_SIZE;
    let cell_start = codec::get_u16(buf, OFF_CELL_START) as usize;
    if cell_start.saturating_sub(slot_area_end) < size {
        compact(buf);
    }
    let cell_start = codec::get_u16(buf, OFF_CELL_START) as usize - size;
    codec::put_u16(buf, OFF_CELL_START, cell_start as u16);
    // Shift slots [i..n) right by one.
    let src = HDR_SIZE + i * SLOT_SIZE;
    let end = HDR_SIZE + n * SLOT_SIZE;
    buf.copy_within(src..end, src + SLOT_SIZE);
    codec::put_u16(buf, src, cell_start as u16);
    codec::put_u16(buf, OFF_NUM, (n + 1) as u16);
    &mut buf[cell_start..cell_start + size]
}

/// Inserts a leaf cell at slot `i`, written in place; returns false when
/// the page is full.
pub fn leaf_insert_at(buf: &mut Buf, i: usize, key: &[u8], val: &[u8]) -> bool {
    let n = num_cells(buf);
    let size = 4 + key.len() + val.len();
    if free_space(buf) < size + SLOT_SIZE {
        return false;
    }
    let cell = write_cell(buf, i, size, n);
    let (head, body) = cell.split_at_mut(4);
    head[..2].copy_from_slice(&(key.len() as u16).to_le_bytes());
    head[2..].copy_from_slice(&(val.len() as u16).to_le_bytes());
    let (k, v) = body.split_at_mut(key.len());
    k.copy_from_slice(key);
    v.copy_from_slice(val);
    true
}

/// Writes `val` over the value of leaf cell `i` when it has the same
/// length; returns false, leaving the page as it was, otherwise.
pub fn leaf_overwrite_val(buf: &mut Buf, i: usize, val: &[u8]) -> bool {
    let off = cell_off(buf, i);
    let klen = codec::get_u16(buf, off) as usize;
    let vlen = codec::get_u16(buf, off + 2) as usize;
    if vlen != val.len() {
        return false;
    }
    let vstart = off + 4 + klen;
    buf[vstart..vstart + vlen].copy_from_slice(val);
    true
}

/// Inserts an interior cell at slot `i`, written in place; returns false
/// when full.
pub fn interior_insert_at(buf: &mut Buf, i: usize, key: &[u8], child: u64) -> bool {
    let n = num_cells(buf);
    let size = 2 + key.len() + 8;
    if free_space(buf) < size + SLOT_SIZE {
        return false;
    }
    let cell = write_cell(buf, i, size, n);
    cell[..2].copy_from_slice(&(key.len() as u16).to_le_bytes());
    cell[2..2 + key.len()].copy_from_slice(key);
    cell[2 + key.len()..].copy_from_slice(&child.to_le_bytes());
    true
}

/// Removes cell `i`, leaving its bytes as dead space.
pub fn remove_at(buf: &mut Buf, i: usize) {
    let n = num_cells(buf);
    debug_assert!(i < n);
    let off = cell_off(buf, i);
    let klen = codec::get_u16(buf, off) as usize;
    let size = if is_leaf(buf) {
        let vlen = codec::get_u16(buf, off + 2) as usize;
        4 + klen + vlen
    } else {
        2 + klen + 8
    };
    let dead = codec::get_u16(buf, OFF_DEAD) as usize;
    codec::put_u16(buf, OFF_DEAD, (dead + size) as u16);
    // Shift slots left over the removed one.
    let src = HDR_SIZE + (i + 1) * SLOT_SIZE;
    let end = HDR_SIZE + n * SLOT_SIZE;
    buf.copy_within(src..end, src - SLOT_SIZE);
    codec::put_u16(buf, OFF_NUM, (n - 1) as u16);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_leaf() -> Box<Buf> {
        let mut b: Box<Buf> = vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap();
        init_leaf(&mut b);
        b
    }

    #[test]
    fn leaf_insert_and_search() {
        let mut b = fresh_leaf();
        assert!(leaf_insert_at(&mut b, 0, b"b", b"2"));
        assert!(leaf_insert_at(&mut b, 0, b"a", b"1"));
        assert!(leaf_insert_at(&mut b, 2, b"c", b"3"));
        assert_eq!(num_cells(&b), 3);
        assert_eq!(key_at(&b, 0), b"a");
        assert_eq!(key_at(&b, 1), b"b");
        assert_eq!(key_at(&b, 2), b"c");
        assert_eq!(leaf_val_at(&b, 1), b"2");
        assert_eq!(lower_bound(&b, b"b"), (1, true));
        assert_eq!(lower_bound(&b, b"bb"), (2, false));
        assert_eq!(lower_bound(&b, b"z"), (3, false));
        assert_eq!(lower_bound(&b, b"0"), (0, false));
    }

    #[test]
    fn leaf_remove_creates_dead_space_compaction_reclaims() {
        let mut b = fresh_leaf();
        for i in 0..10u8 {
            let k = [b'a' + i];
            assert!(leaf_insert_at(&mut b, i as usize, &k, &[i; 100]));
        }
        let free_before = free_space(&b);
        remove_at(&mut b, 5);
        assert_eq!(num_cells(&b), 9);
        assert!(free_space(&b) > free_before);
        compact(&mut b);
        assert_eq!(num_cells(&b), 9);
        assert_eq!(key_at(&b, 5), b"g"); // 'f' was removed
        assert_eq!(leaf_val_at(&b, 5), &[6u8; 100]);
    }

    #[test]
    fn leaf_fills_up_then_rejects() {
        let mut b = fresh_leaf();
        let mut i = 0usize;
        loop {
            let key = format!("{i:08}");
            if !leaf_insert_at(&mut b, i, key.as_bytes(), &[0u8; 64]) {
                break;
            }
            i += 1;
        }
        assert!(i > 50, "should fit many cells, got {i}");
        // All still readable in order.
        for j in 0..i {
            assert_eq!(key_at(&b, j), format!("{j:08}").as_bytes());
        }
    }

    #[test]
    fn interior_child_routing() {
        let mut b: Box<Buf> = vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap();
        init_interior(&mut b, 100);
        assert!(interior_insert_at(&mut b, 0, b"m", 200));
        assert!(interior_insert_at(&mut b, 1, b"t", 300));
        // key < "m" -> leftmost; "m" <= key < "t" -> 200; key >= "t" -> 300.
        assert_eq!(child_for(&b, b"a"), 100);
        assert_eq!(child_for(&b, b"m"), 200);
        assert_eq!(child_for(&b, b"p"), 200);
        assert_eq!(child_for(&b, b"t"), 300);
        assert_eq!(child_for(&b, b"z"), 300);
        assert_eq!(child_at(&b, 0), 100);
        assert_eq!(child_at(&b, 1), 200);
        assert_eq!(child_at(&b, 2), 300);
    }

    #[test]
    fn next_leaf_link_roundtrip() {
        let mut b = fresh_leaf();
        assert_eq!(next_leaf(&b), u64::MAX);
        set_next_leaf(&mut b, 42);
        assert_eq!(next_leaf(&b), 42);
    }

    #[test]
    fn insert_after_fragmentation_triggers_inline_compact() {
        let mut b = fresh_leaf();
        // Fill, then delete every other cell, then insert something that
        // only fits after compaction.
        let mut i = 0usize;
        while leaf_insert_at(&mut b, i, format!("{i:06}").as_bytes(), &[1u8; 120]) {
            i += 1;
        }
        let mut j = 0;
        while j < num_cells(&b) {
            remove_at(&mut b, j);
            j += 1;
        }
        assert!(free_space(&b) > 200);
        assert!(leaf_insert_at(&mut b, 0, b"000000a", &[2u8; 150]));
        let (idx, found) = lower_bound(&b, b"000000a");
        assert!(found);
        assert_eq!(leaf_val_at(&b, idx), &[2u8; 150]);
    }
}
