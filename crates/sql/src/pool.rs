//! Capped thread-local free lists of executor buffers.
//!
//! A served statement touches a handful of rows, so what it costs is
//! mostly set-up: chunks, selection vectors, probe keys, locator batches,
//! aggregate states. Each of those types is [`Recycle`]: [`take`] hands
//! out a cleared buffer from the calling thread's free list (or a fresh
//! one), and the [`Pooled`] guard gives it back when it drops, so early
//! returns and `?` recycle too. An execution runs on one thread, and
//! recursive consumers (derived tables, subqueries) simply take more
//! buffers.
//!
//! Both bounds are constants: a free list keeps at most [`POOL_CAP`]
//! buffers, and a buffer that grew past [`MAX_KEPT_ROWS`] rows (a skewed
//! probe, a big scan) is dropped rather than pinned for the thread's
//! lifetime.

use crate::catalog::BatchLocs;
use crate::plan::agg::AggState;
use fempath_storage::{Chunk, KeyArena, RecordId, Value, CHUNK_CAPACITY};
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

/// Buffers one free list keeps per thread.
pub(crate) const POOL_CAP: usize = 16;

/// Rows (or elements) beyond which a returned buffer is dropped.
pub(crate) const MAX_KEPT_ROWS: usize = 4 * CHUNK_CAPACITY;

/// A buffer type with a per-thread free list.
pub(crate) trait Recycle: Default + 'static {
    /// Whether a returned buffer is worth keeping: it holds an allocation
    /// and has not outgrown [`MAX_KEPT_ROWS`].
    fn keep(&self) -> bool;
    /// Clears the buffer for its next borrower, keeping its allocations.
    fn reset(&mut self);
    /// This type's free list.
    fn free_list() -> &'static LocalKey<RefCell<Vec<Self>>>;
}

/// A buffer on loan from its free list; it goes back when dropped.
pub(crate) struct Pooled<T: Recycle>(T);

impl<T: Recycle> Pooled<T> {
    /// Keeps the buffer for good: it will not go back to the pool.
    pub(crate) fn into_inner(mut self) -> T {
        std::mem::take(&mut self.0)
    }
}

impl<T: Recycle> From<T> for Pooled<T> {
    /// Adopts a buffer built elsewhere; it joins the pool when dropped.
    fn from(buf: T) -> Pooled<T> {
        Pooled(buf)
    }
}

impl<T: Recycle> Deref for Pooled<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Recycle> DerefMut for Pooled<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: Recycle> Drop for Pooled<T> {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.0));
    }
}

/// A cleared buffer of type `T`, recycled when the thread has one.
pub(crate) fn take<T: Recycle>() -> Pooled<T> {
    let reused = T::free_list()
        .try_with(|free| free.borrow_mut().pop())
        .ok()
        .flatten();
    Pooled(reused.unwrap_or_default())
}

/// Returns `buf` to its free list, unless it is empty, oversized or the
/// list is full.
pub(crate) fn give<T: Recycle>(mut buf: T) {
    if !buf.keep() {
        return;
    }
    buf.reset();
    // A rejected buffer drops outside the borrow: dropping it may give
    // buffers of other types back.
    let _rejected = T::free_list().try_with(|free| {
        let mut free = free.borrow_mut();
        if free.len() < POOL_CAP {
            free.push(buf);
            None
        } else {
            Some(buf)
        }
    });
}

macro_rules! recycle {
    ($t:ty, |$b:ident| keep: $keep:expr, reset: $reset:expr) => {
        impl Recycle for $t {
            fn keep(&self) -> bool {
                let $b = self;
                $keep
            }
            fn reset(&mut self) {
                let $b = self;
                $reset
            }
            fn free_list() -> &'static LocalKey<RefCell<Vec<Self>>> {
                thread_local! {
                    static FREE: RefCell<Vec<$t>> = const { RefCell::new(Vec::new()) };
                }
                &FREE
            }
        }
    };
}

pub(crate) use recycle;

// A chunk's demoted (generic) columns revert to the typed representation:
// stickiness that is right within one scan would pessimize the next
// borrower.
recycle!(Chunk, |c| keep: c.width() > 0 && c.len() <= MAX_KEPT_ROWS,
    reset: c.reset_for_reuse());
recycle!(Vec<u32>, |v| keep: v.capacity() > 0 && v.capacity() <= MAX_KEPT_ROWS,
    reset: v.clear());
recycle!(Vec<i64>, |v| keep: v.capacity() > 0 && v.capacity() <= MAX_KEPT_ROWS,
    reset: v.clear());
recycle!(Vec<u8>, |v| keep: v.capacity() > 0 && v.capacity() <= 8 * MAX_KEPT_ROWS,
    reset: v.clear());
recycle!(Vec<Value>, |v| keep: v.capacity() > 0 && v.capacity() <= MAX_KEPT_ROWS,
    reset: v.clear());
recycle!(Vec<AggState>, |v| keep: v.capacity() > 0 && v.capacity() <= MAX_KEPT_ROWS,
    reset: v.clear());
recycle!(BatchLocs, |l| keep: l.has_capacity() && l.len() <= MAX_KEPT_ROWS,
    reset: l.clear());
recycle!(KeyArena, |a| keep: a.capacity() > 0 && a.capacity() <= MAX_KEPT_ROWS,
    reset: a.clear());
// The arenas of a per-index key list stay in place, cleared.
recycle!(Vec<KeyArena>, |v| keep: v.capacity() > 0 && v.capacity() <= POOL_CAP,
    reset: v.iter_mut().for_each(KeyArena::clear));
recycle!(Vec<RecordId>, |v| keep: v.capacity() > 0 && v.capacity() <= MAX_KEPT_ROWS,
    reset: v.clear());
// A batch list hands its chunks back to the chunk pool as it is cleared.
recycle!(Vec<Chunk>, |v| keep: v.capacity() > 0 && v.capacity() <= POOL_CAP,
    reset: v.drain(..).for_each(give));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_returned_buffer_is_handed_out_again_cleared() {
        let mut v = take::<Vec<u32>>();
        v.extend([1, 2, 3]);
        let ptr = v.as_ptr();
        drop(v);
        let again = take::<Vec<u32>>();
        assert!(again.is_empty());
        assert_eq!(again.as_ptr(), ptr, "the same allocation comes back");
    }

    #[test]
    fn oversized_and_empty_buffers_are_not_kept() {
        let before = Vec::<i64>::free_list().with(|f| f.borrow().len());
        give(Vec::<i64>::with_capacity(MAX_KEPT_ROWS + 1));
        give(Vec::<i64>::new());
        let after = Vec::<i64>::free_list().with(|f| f.borrow().len());
        assert_eq!(before, after);
    }

    #[test]
    fn a_free_list_holds_at_most_its_cap() {
        (0..2 * POOL_CAP).for_each(|_| give(Vec::<u8>::with_capacity(8)));
        assert_eq!(Vec::<u8>::free_list().with(|f| f.borrow().len()), POOL_CAP);
    }
}
