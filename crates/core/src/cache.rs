//! Sharded, version-keyed shortest-path result cache (DESIGN.md §16).
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
//! Every served query consults this cache, so it is split into N shards
//! picked by key hash, each protected by its own plain mutex: concurrent
//! clients rarely meet on one lock, and the critical sections are a map
//! probe or a small LRU update. Each shard owns a byte budget; inserts
//! evict least-recently-used entries until the new entry fits.
//!
//! [`PathService`]: crate::service::PathService
//! [`GraphDb::graph_version`]: crate::graphdb::GraphDb::graph_version

use crate::algo::Path;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independent shards: a small power of two, enough to keep
/// worker threads off each other's locks, small enough that per-shard
/// budgets stay meaningful.
const SHARDS: usize = 16;

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
    /// Shard-local LRU clock value at last touch.
    last_used: u64,
}

/// One shard: a keyed map plus its byte accounting and LRU clock.
#[derive(Default)]
struct Shard {
    map: HashMap<(i64, i64), Entry>,
    bytes: usize,
    tick: u64,
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

/// Sharded LRU cache of `(s, t) → Option<Path>` verdicts keyed by graph
/// version. See the module docs for the design; `lookup` and `insert`
/// are safe to call from many threads at once.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    budget_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    stale: AtomicU64,
}

impl ResultCache {
    /// A cache bounded to roughly `budget_bytes` of path data across all
    /// shards (each shard gets an even slice; a zero budget still admits
    /// nothing because every entry charges `ENTRY_OVERHEAD`).
    pub fn new(budget_bytes: usize) -> ResultCache {
        ResultCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            budget_per_shard: budget_bytes / SHARDS,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale: AtomicU64::new(0),
        }
    }

    fn shard(&self, s: i64, t: i64) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        (s, t).hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
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
        let mut shard = self.shard(s, t).lock().unwrap_or_else(|e| e.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        let stale = match shard.map.get_mut(&(s, t)) {
            Some(e) if e.version == version => {
                e.last_used = tick;
                let out = e.path.clone();
                drop(shard);
                // ORDERING: Relaxed — monotonic diagnostic counters, read
                // racily by `stats`; no other memory is ordered by them.
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(out);
            }
            Some(_) => true,
            None => false,
        };
        if stale {
            if let Some(e) = shard.map.remove(&(s, t)) {
                shard.bytes -= e.bytes;
            }
            drop(shard);
            // ORDERING: Relaxed — diagnostic counters, as for `hits`.
            self.stale.fetch_add(1, Ordering::Relaxed);
        } else {
            drop(shard);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Publishes the verdict for `(s, t)` computed at `version`,
    /// evicting least-recently-used entries until it fits the shard's
    /// byte budget. An entry larger than the whole shard budget is not
    /// admitted. A concurrent entry at a *newer* version is never
    /// overwritten by an older one (two workers racing across a
    /// mutation), so the cache converges on the newest verdict.
    pub fn insert(&self, s: i64, t: i64, version: u64, path: Option<Path>) {
        let bytes = Self::entry_bytes(&path);
        if bytes > self.budget_per_shard {
            return;
        }
        let mut evicted = 0u64;
        {
            let mut shard = self.shard(s, t).lock().unwrap_or_else(|e| e.into_inner());
            if shard.map.get(&(s, t)).is_some_and(|e| e.version > version) {
                return;
            }
            if let Some(old) = shard.map.remove(&(s, t)) {
                shard.bytes -= old.bytes;
            }
            while shard.bytes + bytes > self.budget_per_shard {
                // O(n) LRU victim scan: shards stay small (a few hundred
                // entries at most under realistic budgets), so a scan
                // beats maintaining an intrusive list under the lock.
                let victim = shard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(&k, _)| k);
                let Some(victim) = victim else {
                    break;
                };
                if let Some(e) = shard.map.remove(&victim) {
                    shard.bytes -= e.bytes;
                    evicted += 1;
                }
            }
            shard.tick += 1;
            let tick = shard.tick;
            shard.bytes += bytes;
            shard.map.insert(
                (s, t),
                Entry {
                    version,
                    path,
                    bytes,
                    last_used: tick,
                },
            );
        }
        // ORDERING: Relaxed — diagnostic counters, as in `lookup`.
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Cumulative counters plus current residency.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let s = shard.lock().unwrap_or_else(|e| e.into_inner());
            entries += s.map.len() as u64;
            bytes += s.bytes as u64;
        }
        // ORDERING: Relaxed — a racy snapshot of diagnostic counters;
        // a slightly stale read is fine and nothing is ordered against it.
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            entries,
            bytes,
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
        // One shard's budget fits only a handful of entries; hammer one
        // shard-colliding key set via identical (s, t) reuse.
        let c = ResultCache::new(SHARDS * (ENTRY_OVERHEAD + 64));
        for i in 0..64 {
            c.insert(i, i, 0, path(4));
        }
        let st = c.stats();
        assert!(st.evictions > 0, "budget must force evictions");
        assert!(
            st.bytes <= (SHARDS * (ENTRY_OVERHEAD + 64)) as u64,
            "residency exceeds budget"
        );
        // Recently-touched entries survive preferentially: touch the
        // newest and insert another colliding entry.
        let survivors: Vec<i64> = (0..64).filter(|&i| c.lookup(i, i, 0).is_some()).collect();
        assert!(!survivors.is_empty());
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
        let c = ResultCache::new(SHARDS * 256);
        c.insert(1, 2, 0, path(10_000));
        assert_eq!(c.stats().entries, 0);
    }
}
