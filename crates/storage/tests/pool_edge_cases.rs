//! Buffer-pool edge cases: minimal capacity, page recycling, stats
//! integrity under churn.

use fempath_storage::{BTree, BufferPool, HeapFile};
use std::ops::Bound;

#[test]
fn capacity_one_pool_supports_btree() {
    // Every access evicts; correctness must not depend on residency.
    let mut pool = BufferPool::in_memory(1);
    let mut t = BTree::create(&mut pool).unwrap();
    for i in 0..500u64 {
        t.insert(&mut pool, &i.to_be_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    for i in 0..500u64 {
        assert_eq!(
            t.get(&mut pool, &i.to_be_bytes()).unwrap().unwrap(),
            i.to_le_bytes()
        );
    }
    let mut n = 0;
    t.scan_range(&mut pool, Bound::Unbounded, Bound::Unbounded, |_, _| {
        n += 1;
        true
    })
    .unwrap();
    assert_eq!(n, 500);
    assert!(pool.stats().evictions > 500, "capacity-1 must thrash");
}

#[test]
fn freed_pages_are_recycled_not_leaked() {
    let mut pool = BufferPool::in_memory(64);
    let grow = |pool: &mut BufferPool| {
        let mut t = BTree::create(pool).unwrap();
        for i in 0..2000u64 {
            t.insert(pool, &i.to_be_bytes(), &[0u8; 16]).unwrap();
        }
        t.destroy(pool).unwrap();
    };
    grow(&mut pool);
    let after_first = pool.num_disk_pages();
    for _ in 0..5 {
        grow(&mut pool);
    }
    assert_eq!(
        pool.num_disk_pages(),
        after_first,
        "create/destroy cycles must not grow the file"
    );
}

#[test]
fn heap_and_btree_share_one_pool() {
    let mut pool = BufferPool::in_memory(8);
    let mut heap = HeapFile::create();
    let mut tree = BTree::create(&mut pool).unwrap();
    for i in 0..300u64 {
        let rid = heap.insert_batch(&mut pool, &[i.to_le_bytes()]).unwrap()[0];
        tree.insert(&mut pool, &i.to_be_bytes(), &rid.to_u64().to_be_bytes())
            .unwrap();
    }
    // Cross-verify: every tree value resolves to the matching heap record.
    for i in (0..300u64).step_by(17) {
        let val = tree.get(&mut pool, &i.to_be_bytes()).unwrap().unwrap();
        let rid = fempath_storage::RecordId::from_u64(u64::from_be_bytes(val.try_into().unwrap()));
        let rec = heap.get(&mut pool, rid).unwrap();
        assert_eq!(rec, i.to_le_bytes());
    }
}

#[test]
fn stats_survive_capacity_changes() {
    let mut pool = BufferPool::in_memory(4);
    let pids: Vec<_> = (0..16).map(|_| pool.allocate_page().unwrap()).collect();
    for &pid in &pids {
        pool.write_page(pid, |b| b[0] = 1).unwrap();
    }
    pool.set_capacity(2).unwrap();
    pool.set_capacity(32).unwrap();
    for &pid in &pids {
        assert_eq!(pool.read_page(pid, |b| b[0]).unwrap(), 1);
    }
    let s = pool.stats();
    assert_eq!(s.accesses(), s.buffer_hits + s.buffer_misses);
    assert!(s.disk_writes > 0, "shrink must have flushed dirty pages");
}
