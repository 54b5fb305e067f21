//! Version-keyed shortest-path result cache (DESIGN.md §16).
//!
//! The serving tier's answer to skewed traffic: real path workloads
//! concentrate on a small set of hot `(s, t)` pairs, so [`PathService`]
//! consults a [`ResultCache`] before the landmark fast path and the FEM
//! finders. Entries are keyed by `(s, t)` and stamped with the
//! [`GraphDb::graph_version`] they were computed at — the same
//! version-epoch trick the plan cache plays with the catalog version
//! (DESIGN.md §9): an edge mutation bumps the graph version, and every
//! older entry becomes unreachable *by construction* rather than by an
//! eager invalidation sweep. `Option<Path>` is stored, so "unreachable"
//! verdicts are cached too (the negative cache) — a miss on an
//! unreachable hot pair would otherwise pay the full bidirectional
//! search every time, the most expensive query shape there is.
//!
//! The cache is one LRU map behind one mutex, under one byte budget: a
//! probe holds the lock for a map lookup, an insert for a map insert
//! plus, when the budget is full, an O(n) scan for the least recently
//! used entry. Inserts evict until the new entry fits.
//!
//! [`PathService`]: crate::service::PathService
//! [`GraphDb::graph_version`]: crate::graphdb::GraphDb::graph_version

use crate::algo::Path;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Fixed per-entry overhead charged against the byte budget on top of
/// the path's node storage: key, version stamp, LRU tick, map slot.
const ENTRY_OVERHEAD: usize = 96;

/// One cached verdict: the path (or `None` for "unreachable") computed
/// at `version`.
struct Entry {
    version: u64,
    path: Option<Path>,
    /// Budget charge, computed once at insert.
    bytes: usize,
    /// LRU clock value at last touch.
    last_used: u64,
}

/// The map plus its byte accounting, LRU clock and counters — all
/// guarded by the cache's one mutex.
#[derive(Default)]
struct Lru {
    map: HashMap<(i64, i64), Entry>,
    bytes: usize,
    tick: u64,
    /// Cumulative counters; `entries` and `bytes` are filled in by
    /// [`ResultCache::stats`].
    stats: CacheStats,
}

/// Counters of one [`ResultCache`] (cumulative since creation),
/// surfaced through `ServiceStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache at the current graph version.
    pub hits: u64,
    /// Lookups that found nothing usable (includes stale hits).
    pub misses: u64,
    /// Entries written.
    pub inserts: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Lookups that found an entry from an older graph version (counted
    /// within `misses`; the stale entry is dropped on sight).
    pub stale: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently charged against the budget.
    pub bytes: u64,
}

/// LRU cache of `(s, t) → Option<Path>` verdicts keyed by graph
/// version. See the module docs for the design; `lookup` and `insert`
/// are safe to call from many threads at once.
pub struct ResultCache {
    lru: Mutex<Lru>,
    budget: usize,
}

impl ResultCache {
    /// A cache bounded to roughly `budget_bytes` of path data (a zero
    /// budget admits nothing, because every entry charges
    /// `ENTRY_OVERHEAD`).
    pub fn new(budget_bytes: usize) -> ResultCache {
        ResultCache {
            lru: Mutex::new(Lru::default()),
            budget: budget_bytes,
        }
    }

    /// Locks the map, surviving poisoning: no caller code runs under the
    /// lock, so the map and its accounting stay coherent.
    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Approximate budget charge of one entry.
    fn entry_bytes(path: &Option<Path>) -> usize {
        ENTRY_OVERHEAD
            + path
                .as_ref()
                .map_or(0, |p| p.nodes.len() * std::mem::size_of::<i64>())
    }

    /// The cached verdict for `(s, t)` computed at graph version
    /// `version`, or `None` on a miss. `Some(None)` is a *hit* on a
    /// cached "unreachable" verdict — the negative cache. An entry
    /// stamped with a different version is dropped on sight and counts
    /// as both `stale` and a miss: post-mutation queries can never see
    /// pre-mutation results, including negative ones.
    pub fn lookup(&self, s: i64, t: i64, version: u64) -> Option<Option<Path>> {
        let mut lru = self.lock();
        let lru = &mut *lru;
        lru.tick += 1;
        match lru.map.get_mut(&(s, t)) {
            Some(e) if e.version == version => {
                e.last_used = lru.tick;
                lru.stats.hits += 1;
                return Some(e.path.clone());
            }
            Some(_) => {
                if let Some(e) = lru.map.remove(&(s, t)) {
                    lru.bytes -= e.bytes;
                }
                lru.stats.stale += 1;
            }
            None => {}
        }
        lru.stats.misses += 1;
        None
    }

    /// Publishes the verdict for `(s, t)` computed at `version`,
    /// evicting least-recently-used entries until it fits the byte
    /// budget. An entry larger than the whole budget is not admitted. A
    /// concurrent entry at a *newer* version is never overwritten by an
    /// older one (two workers racing across a mutation), so the cache
    /// converges on the newest verdict.
    pub fn insert(&self, s: i64, t: i64, version: u64, path: Option<Path>) {
        let bytes = Self::entry_bytes(&path);
        if bytes > self.budget {
            return;
        }
        let mut lru = self.lock();
        if lru.map.get(&(s, t)).is_some_and(|e| e.version > version) {
            return;
        }
        if let Some(old) = lru.map.remove(&(s, t)) {
            lru.bytes -= old.bytes;
        }
        while lru.bytes + bytes > self.budget {
            // O(n) LRU victim scan: it runs only when the budget is full,
            // and it beats maintaining an intrusive list under the lock.
            let victim = lru
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            let Some(victim) = victim else {
                break;
            };
            if let Some(e) = lru.map.remove(&victim) {
                lru.bytes -= e.bytes;
                lru.stats.evictions += 1;
            }
        }
        lru.tick += 1;
        let last_used = lru.tick;
        lru.bytes += bytes;
        lru.stats.inserts += 1;
        lru.map.insert(
            (s, t),
            Entry {
                version,
                path,
                bytes,
                last_used,
            },
        );
    }

    /// Cumulative counters plus current residency.
    pub fn stats(&self) -> CacheStats {
        let lru = self.lock();
        CacheStats {
            entries: lru.map.len() as u64,
            bytes: lru.bytes as u64,
            ..lru.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(len: usize) -> Option<Path> {
        Some(Path {
            nodes: (0..len as i64).collect(),
            length: len as i64,
        })
    }

    #[test]
    fn hit_miss_and_negative_cache() {
        let c = ResultCache::new(1 << 20);
        assert_eq!(c.lookup(1, 2, 0), None);
        c.insert(1, 2, 0, path(3));
        assert_eq!(c.lookup(1, 2, 0), Some(path(3)));
        // Negative verdicts are first-class entries.
        c.insert(5, 6, 0, None);
        assert_eq!(c.lookup(5, 6, 0), Some(None));
        let st = c.stats();
        assert_eq!(st.hits, 2);
        assert_eq!(st.misses, 1);
        assert_eq!(st.inserts, 2);
        assert_eq!(st.entries, 2);
    }

    #[test]
    fn version_mismatch_is_a_stale_miss() {
        let c = ResultCache::new(1 << 20);
        c.insert(1, 2, 0, path(3));
        c.insert(3, 4, 0, None);
        // Post-mutation lookups drop pre-mutation entries, even negative
        // ones.
        assert_eq!(c.lookup(1, 2, 1), None);
        assert_eq!(c.lookup(3, 4, 1), None);
        let st = c.stats();
        assert_eq!(st.stale, 2);
        assert_eq!(st.misses, 2);
        assert_eq!(st.entries, 0, "stale entries are dropped on sight");
        // Re-publish at the new version works.
        c.insert(1, 2, 1, path(4));
        assert_eq!(c.lookup(1, 2, 1), Some(path(4)));
    }

    #[test]
    fn newer_version_wins_the_insert_race() {
        let c = ResultCache::new(1 << 20);
        c.insert(1, 2, 5, path(3));
        // A straggler worker finishing a pre-mutation computation cannot
        // clobber the fresher verdict.
        c.insert(1, 2, 4, path(9));
        assert_eq!(c.lookup(1, 2, 5), Some(path(3)));
    }

    #[test]
    fn byte_budget_evicts_lru() {
        // The budget fits exactly four 4-node paths.
        let budget = 4 * (ENTRY_OVERHEAD + 4 * std::mem::size_of::<i64>());
        let c = ResultCache::new(budget);
        for i in 0..8 {
            c.insert(i, i, 0, path(4));
        }
        let st = c.stats();
        assert_eq!(st.evictions, 4, "budget must force evictions");
        assert_eq!(st.bytes, budget as u64, "residency fills the budget");
        let survivors: Vec<i64> = (0..8).filter(|&i| c.lookup(i, i, 0).is_some()).collect();
        assert_eq!(survivors, vec![4, 5, 6, 7], "the oldest entries go first");
        // A touched entry outlives an untouched older one.
        assert!(c.lookup(4, 4, 0).is_some());
        c.insert(8, 8, 0, path(4));
        assert!(c.lookup(4, 4, 0).is_some(), "touched entry survives");
        assert_eq!(c.lookup(5, 5, 0), None, "least recently used is evicted");
    }

    #[test]
    fn zero_budget_admits_nothing() {
        let c = ResultCache::new(0);
        c.insert(1, 2, 0, path(2));
        assert_eq!(c.lookup(1, 2, 0), None);
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn oversized_path_is_not_admitted() {
        let c = ResultCache::new(4096);
        c.insert(1, 2, 0, path(10_000));
        assert_eq!(c.stats().entries, 0);
    }
}
