//! Allocation budget of a served BDJ query: heap allocations per
//! expansion on a fixed power-law graph, pinned with 10% headroom.
//!
//! A counting allocator wraps the system allocator and counts, on the
//! calling thread only, every `alloc`, `alloc_zeroed` and `realloc` (a
//! growth is an allocation as far as the allocator is concerned). The
//! search runs on a session of a frozen snapshot, as a `PathService`
//! worker runs it. After warm-up — plan cache, chunk and buffer pools
//! filled — the measured queries' allocations are divided by their
//! expansions.
//!
//! The statement, expansion and visited counts of the measured queries
//! are pinned exactly, so the ratchet cannot be met by doing less work.

use fempath_core::{BdjFinder, GraphDb, ShortestPathFinder};
use fempath_graph::generate;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    // SAFETY: the caller's contract for `realloc` passes through to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: the caller's contract for `dealloc` passes through to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// |V| of the fixed graph.
const NODES: usize = 1000;
/// Queries run before counting starts.
const WARMUP: usize = 5;
/// Queries counted.
const MEASURED: usize = 20;

/// Allocations per BDJ expansion this test pins, with 10% headroom. The
/// executor's pooled buffers brought it from 164.4 to 5.7; 4.0 of what
/// remains are the result rows the pick and the statistics statement hand
/// back through `ResultSet` (a row and its row list each), the rest the
/// per-query set-up.
const ALLOCS_PER_EXPANSION: f64 = 5.7;

/// Work the measured queries do: SQL statements, expansions and
/// `TVisited` rows, summed over the queries.
const STATEMENTS: u64 = 4493;
const EXPANSIONS: u64 = 1083;
const VISITED: u64 = 2611;

/// The fixed query pairs: a 64-bit LCG over the node ids.
fn pairs(n: usize) -> Vec<(i64, i64)> {
    let mut x: u64 = 0x5EED_0A11_0C00_0001;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((x >> 33) % NODES as u64) as i64
    };
    (0..n)
        .map(|_| loop {
            let (s, t) = (next(), next());
            if s != t {
                break (s, t);
            }
        })
        .collect()
}

#[test]
fn bdj_expansion_allocation_budget() {
    let g = generate::power_law(NODES, 3, 1..=100, 0xA110C);
    let snapshot = GraphDb::in_memory(&g).unwrap().freeze().unwrap();
    let mut session = snapshot.session();
    let finder = BdjFinder::default();
    let pairs = pairs(WARMUP + MEASURED);
    for &(s, t) in &pairs[..WARMUP] {
        finder.find_path(&mut session, s, t).unwrap();
    }
    let (mut statements, mut expansions, mut visited) = (0u64, 0u64, 0u64);
    let mut spent = 0u64;
    for &(s, t) in &pairs[WARMUP..] {
        let before = allocs();
        let out = finder.find_path(&mut session, s, t).unwrap();
        spent += allocs() - before;
        assert!(out.path.is_some(), "{s}->{t}: the graph is connected");
        statements += out.stats.sql_statements;
        expansions += out.stats.expansions;
        visited += out.stats.visited_nodes;
    }
    let per_expansion = spent as f64 / expansions as f64;
    println!(
        "BDJ: {spent} allocations over {expansions} expansions = {per_expansion:.1} per \
         expansion ({statements} statements, {visited} visited)"
    );
    assert_eq!(
        (statements, expansions, visited),
        (STATEMENTS, EXPANSIONS, VISITED),
        "the measured queries' work changed"
    );
    assert!(
        per_expansion <= ALLOCS_PER_EXPANSION * 1.10,
        "{per_expansion:.1} allocations per BDJ expansion, budget {ALLOCS_PER_EXPANSION} + 10%"
    );
}
