//! # fempath-storage
//!
//! Disk-backed storage engine used by the `fempath` relational graph system.
//!
//! The crate provides the physical layer a relational database needs:
//!
//! * [`Value`] / row encoding — typed column values with an order-preserving
//!   binary key encoding so index comparisons are plain `memcmp`s,
//! * [`Page`]-granular I/O through a [`DiskBackend`] (file-backed or
//!   in-memory),
//! * a pin-counted LRU [`BufferPool`] with hit/miss/eviction accounting
//!   (the paper's buffer-size experiments — Fig 8(b)/9(g) — sweep its
//!   capacity),
//! * slotted-page [`HeapFile`]s for unordered table storage, and
//! * a [`BTree`] used both as an index-organized ("clustered") table and as
//!   a secondary index — the `CluIndex` / `Index` configurations of Fig 8(c).
//!
//! Everything is single-writer *per session* by design: the paper's
//! workload is one client connection driving SQL statements, so the engine
//! favours simplicity and deterministic accounting over locking.
//! Concurrency comes from isolation instead: [`BufferPool::snapshot_pages`]
//! freezes a database into an `Arc`-shared read-only page image, and
//! [`SnapshotDisk`] gives each session a private copy-on-write view over
//! it (DESIGN.md §10).

#![forbid(unsafe_code)]

pub mod buffer;
pub mod chunk;
pub mod disk;
pub mod error;
pub mod heap;
pub mod page;
pub mod row;
pub mod segment;
pub mod stats;
pub mod value;

pub mod btree;

pub use btree::{BTree, BTreeBulkBuilder, BTreeScanCursor, KeyArena, LeafRun, LeafWalk};
pub use buffer::BufferPool;
pub use chunk::{chunk_from_rows, Chunk, Column, NullMask, CHUNK_CAPACITY};
pub use disk::{DiskBackend, FileDisk, MemDisk, SnapshotDisk, SnapshotPages};
pub use error::{Result, StorageError};
pub use heap::{HeapFile, HeapScanCursor, MovedRecord, RecordId};
pub use page::{Page, PageId, PAGE_SIZE};
pub use row::{
    decode_row, decode_row_into_chunk, decode_rows_into_chunk, encode_row, encode_row_from_chunk,
    encode_row_into, patch_fixed_cells, ColSet,
};
pub use segment::{
    decode_edge_segment, decode_edge_segment_with, decode_segment, decode_segment_into_chunk,
    encode_edge_segment, encode_segment, segment_edge_count, PackedSegment, SegRow, SegmentCursor,
    SegmentPacker, SegmentWriter, DIR_STRIDE, SEG_MAX_BYTES, SEG_MAX_EDGES,
};
pub use stats::IoStats;
pub use value::{decode_key, encode_key, encode_key_into, int_key, DataType, Value, INT_KEY_LEN};
