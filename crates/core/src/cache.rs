//! Version-keyed shortest-path result cache (DESIGN.md §16).
//!
//! The serving tier's answer to skewed traffic: real path workloads
//! concentrate on a small set of hot `(s, t)` pairs, so [`PathService`]
//! consults a [`ResultCache`] before the landmark fast path and the FEM
//! finders. Entries are keyed by `(s, t)` and stamped with the
//! [`GraphDb::graph_version`] they were computed at — the same
//! version-epoch trick the plan cache plays with the catalog version
//! (DESIGN.md §9): an edge mutation bumps the graph version, and an
//! exact-version [`ResultCache::lookup`] no longer answers from any older
//! entry. `Option<Path>` is stored, so "unreachable" verdicts are cached
//! too (the negative cache) — a miss on an unreachable hot pair would
//! otherwise pay the full bidirectional search every time, the most
//! expensive query shape there is.
//!
//! An older entry is not necessarily wrong. Removing edges can only
//! lengthen shortest paths, so an entry computed at version `a` is still
//! exact at `b > a` when no delete in `(a, b]` removes a hop of the
//! cached path (an unreachable verdict survives any deletes). Inserts can
//! shorten paths, but not below what the entry's search proved: an entry
//! written with a [`Certificate`] (BDJ and BSDJ answers) keeps answering
//! across inserted arcs that cannot undercut its cost, and carries the
//! running minima (`Inserted`) that check needs over every arc
//! inserted since the certificate's version. An entry without one is
//! stranded by any insert. The cache cannot see the mutation log, so it
//! leaves that judgement to its caller: `ResultCache::probe` hands an
//! older entry out, the caller checks the log with the cache lock
//! released, and then either `ResultCache::revalidate` re-stamps the
//! entry (a hit) or `ResultCache::discard_stale` drops it (a stale
//! miss). The rule itself is DESIGN.md §16 *Deletes keep what they
//! cannot change* and *Inserts keep what they cannot change*.
//!
//! The cache is one LRU map behind one mutex, under one byte budget: a
//! probe holds the lock for a map lookup, an insert for a map insert
//! plus, when the budget is full, an O(n) scan for the least recently
//! used entry. Inserts evict until the new entry fits.
//!
//! [`PathService`]: crate::service::PathService
//! [`GraphDb::graph_version`]: crate::graphdb::GraphDb::graph_version

use crate::algo::{Certificate, Path};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Fixed per-entry overhead charged against the byte budget on top of
/// the path's node storage: key, version stamp, LRU tick, map slot.
const ENTRY_OVERHEAD: usize = 96;

/// Fixed overhead of a certificate on top of its node list: the `Arc`
/// allocation, its two counts and the certificate's own fields.
const CERTIFICATE_OVERHEAD: usize =
    2 * std::mem::size_of::<usize>() + std::mem::size_of::<Certificate>();

/// One cached verdict: the path (or `None` for "unreachable") computed
/// at `version`.
struct Entry {
    version: u64,
    path: Option<Path>,
    /// What the search proved at the version the entry was computed at
    /// (not `version` once the entry has been re-stamped).
    cert: Option<Arc<Certificate>>,
    /// The arcs inserted since the certificate's version, folded.
    inserted: Inserted,
    /// Budget charge, computed once at insert.
    bytes: usize,
    /// LRU clock value at last touch.
    last_used: u64,
}

/// Running minima over every arc `x → y` of weight `w` inserted since a
/// certificate's version: `head` of `from_source(x) + w`, `tail` of
/// `w + to_target(y)`, both saturating. A path through two or more new
/// arcs costs at least `head + tail`, so these two numbers stand in for
/// every earlier arc when a later one is checked (DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Inserted {
    head: i64,
    tail: i64,
}

impl Default for Inserted {
    /// No arc inserted yet.
    fn default() -> Self {
        Inserted {
            head: i64::MAX,
            tail: i64::MAX,
        }
    }
}

impl Inserted {
    /// Folds the inserted arc `x → y` of weight `w` in and says whether a
    /// verdict of cost `cost` ([`crate::INF`] when unreachable) that
    /// `cert` proved still holds: no path whose first or last new arc is
    /// this one costs less than `cost`.
    pub(crate) fn admit(&mut self, cert: &Certificate, cost: i64, x: i64, y: i64, w: i64) -> bool {
        let (lb_x, lb_y) = (cert.from_source(x), cert.to_target(y));
        let head = lb_x.saturating_add(w);
        let tail = w.saturating_add(lb_y);
        self.head = self.head.min(head);
        self.tail = self.tail.min(tail);
        head.saturating_add(lb_y) >= cost
            && self.head.saturating_add(tail) >= cost
            && head.saturating_add(self.tail) >= cost
    }
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
    /// Lookups answered from the cache at the current graph version,
    /// re-stamped entries included (see `revalidated`).
    pub hits: u64,
    /// Lookups that found nothing usable (includes `stale`).
    pub misses: u64,
    /// Entries written.
    pub inserts: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Lookups that found an entry from an older graph version which a
    /// later mutation may have changed (counted within `misses`; the
    /// entry is dropped).
    pub stale: u64,
    /// Lookups that found an entry from an older graph version which no
    /// later mutation can have changed — no delete since on its path, and
    /// no insert since that its certificate cannot rule out — and
    /// answered from it (counted within `hits`; the entry is re-stamped
    /// to the current version).
    pub revalidated: u64,
    /// The revalidated lookups whose window held at least one insert
    /// (counted within `revalidated`).
    pub insert_kept: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently charged against the budget.
    pub bytes: u64,
}

/// What [`ResultCache::probe`] found for a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Probe {
    /// An entry at the probed version: the verdict.
    Hit(Option<Path>),
    /// An entry from an older version, still resident: the caller
    /// decides with [`ResultCache::revalidate`] or
    /// [`ResultCache::discard_stale`].
    Stale(Stale),
    /// No entry, or one from a newer version than the probe's.
    Miss,
}

/// An entry from an older version, as [`ResultCache::probe`] hands it
/// out. The certificate is shared, not copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Stale {
    /// The version the entry is stamped with.
    pub version: u64,
    /// Its verdict.
    pub path: Option<Path>,
    /// What its search proved, if it was written with a certificate.
    pub cert: Option<Arc<Certificate>>,
    /// The arcs inserted between the certificate's version and
    /// `version`; the caller folds the window's arcs in before
    /// [`ResultCache::revalidate`] writes them back.
    pub inserted: Inserted,
}

/// Whether two optional certificates are the same allocation.
fn same_cert(a: &Option<Arc<Certificate>>, b: &Option<Arc<Certificate>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        (None, None) => true,
        _ => false,
    }
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
    fn entry_bytes(path: &Option<Path>, cert: &Option<Arc<Certificate>>) -> usize {
        ENTRY_OVERHEAD
            + path
                .as_ref()
                .map_or(0, |p| p.nodes.len() * std::mem::size_of::<i64>())
            + cert
                .as_ref()
                .map_or(0, |c| CERTIFICATE_OVERHEAD + c.heap_bytes())
    }

    /// The cached verdict for `(s, t)` computed at graph version
    /// `version`, or `None` on a miss. `Some(None)` is a *hit* on a
    /// cached "unreachable" verdict — the negative cache. An entry from
    /// an older version is dropped and counts as both `stale` and a
    /// miss; one from a newer version (a worker that caught up past the
    /// caller's version) is a miss and stays.
    pub fn lookup(&self, s: i64, t: i64, version: u64) -> Option<Option<Path>> {
        match self.probe(s, t, version) {
            Probe::Hit(path) => Some(path),
            Probe::Stale(stale) => {
                self.discard_stale(s, t, stale.version);
                None
            }
            Probe::Miss => None,
        }
    }

    /// [`ResultCache::lookup`] that hands an entry from an older version
    /// to the caller instead of dropping it. `Hit` and `Miss` are counted
    /// here; a `Stale` probe is counted by the caller's follow-up,
    /// [`ResultCache::revalidate`] or [`ResultCache::discard_stale`].
    pub(crate) fn probe(&self, s: i64, t: i64, version: u64) -> Probe {
        let mut lru = self.lock();
        let lru = &mut *lru;
        lru.tick += 1;
        match lru.map.get_mut(&(s, t)) {
            Some(e) if e.version == version => {
                e.last_used = lru.tick;
                lru.stats.hits += 1;
                Probe::Hit(e.path.clone())
            }
            Some(e) if e.version < version => Probe::Stale(Stale {
                version: e.version,
                path: e.path.clone(),
                cert: e.cert.clone(),
                inserted: e.inserted,
            }),
            _ => {
                lru.stats.misses += 1;
                Probe::Miss
            }
        }
    }

    /// Counts a hit on a [`Probe::Stale`] entry that the caller proved
    /// still exact at `to`, and re-stamps the entry to `to` with
    /// `stale.inserted` (the arcs inserted up to `to`) if it is still the
    /// one probed: stamped `stale.version`, holding `stale.path` and the
    /// same certificate. An entry that moved on meanwhile (re-stamped or
    /// replaced by another thread) is left as it is. `kept_insert` says
    /// the window held an insert (counted in `insert_kept`).
    pub(crate) fn revalidate(&self, s: i64, t: i64, stale: &Stale, to: u64, kept_insert: bool) {
        let mut lru = self.lock();
        let lru = &mut *lru;
        lru.tick += 1;
        if let Some(e) = lru.map.get_mut(&(s, t)) {
            if e.version == stale.version && e.path == stale.path && same_cert(&e.cert, &stale.cert)
            {
                e.version = to;
                e.inserted = stale.inserted;
                e.last_used = lru.tick;
            }
        }
        lru.stats.hits += 1;
        lru.stats.revalidated += 1;
        lru.stats.insert_kept += u64::from(kept_insert);
    }

    /// Counts a stale miss on a [`Probe::Stale`] entry stamped `from`
    /// that the caller could not prove exact, and drops the entry if it
    /// is still stamped `from` (one re-stamped or replaced by a newer
    /// answer meanwhile stays).
    pub(crate) fn discard_stale(&self, s: i64, t: i64, from: u64) {
        let mut lru = self.lock();
        if lru.map.get(&(s, t)).is_some_and(|e| e.version == from) {
            if let Some(e) = lru.map.remove(&(s, t)) {
                lru.bytes -= e.bytes;
            }
        }
        lru.stats.stale += 1;
        lru.stats.misses += 1;
    }

    /// Publishes the verdict for `(s, t)` computed at `version`,
    /// evicting least-recently-used entries until it fits the byte
    /// budget. An entry larger than the whole budget is not admitted. A
    /// concurrent entry at a *newer* version is never overwritten by an
    /// older one (two workers racing across a mutation), so the cache
    /// converges on the newest verdict. Any insert after `version`
    /// strands the entry; see `ResultCache::insert_certified`.
    pub fn insert(&self, s: i64, t: i64, version: u64, path: Option<Path>) {
        self.insert_certified(s, t, version, path, None);
    }

    /// [`ResultCache::insert`] of a verdict that `cert` proved at
    /// `version`, charged to the budget with it: the entry can then
    /// outlive inserts that cannot undercut it.
    pub(crate) fn insert_certified(
        &self,
        s: i64,
        t: i64,
        version: u64,
        path: Option<Path>,
        cert: Option<Arc<Certificate>>,
    ) {
        let bytes = Self::entry_bytes(&path, &cert);
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
                cert,
                inserted: Inserted::default(),
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
    use crate::graphdb::INF;

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

    /// The probe of an older entry written without a certificate.
    fn stale(version: u64, path: Option<Path>) -> Probe {
        Probe::Stale(Stale {
            version,
            path,
            cert: None,
            inserted: Inserted::default(),
        })
    }

    #[test]
    fn a_stale_probe_is_revalidated_or_discarded_by_the_caller() {
        let c = ResultCache::new(1 << 20);
        c.insert(1, 2, 0, path(3));
        c.insert(3, 4, 0, None);
        // An older entry is handed out, counted nowhere yet, and kept.
        let probe = c.probe(1, 2, 2);
        assert_eq!(probe, stale(0, path(3)));
        assert_eq!(c.stats().hits + c.stats().misses, 0);
        // Proven exact at version 2: a hit, and the entry now answers
        // exact-version lookups there.
        let Probe::Stale(st) = probe else {
            unreachable!()
        };
        c.revalidate(1, 2, &st, 2, false);
        assert_eq!(c.lookup(1, 2, 2), Some(path(3)));
        // Not proven: a stale miss, and the entry is gone.
        assert_eq!(c.probe(3, 4, 1), stale(0, None));
        c.discard_stale(3, 4, 0);
        assert_eq!(c.probe(3, 4, 1), Probe::Miss);
        let st = c.stats();
        assert_eq!((st.hits, st.revalidated, st.insert_kept), (2, 1, 0));
        assert_eq!((st.misses, st.stale), (2, 1));
        assert_eq!(st.entries, 1);
    }

    #[test]
    fn a_revalidation_leaves_an_entry_that_moved_on_alone() {
        let c = ResultCache::new(1 << 20);
        c.insert(1, 2, 0, path(3));
        let Probe::Stale(old) = c.probe(1, 2, 2) else {
            unreachable!()
        };
        // Another thread replaced the entry at the same version with a
        // different path after the probe: re-stamping it would vouch
        // for a path nobody checked.
        c.insert(1, 2, 0, path(5));
        c.revalidate(1, 2, &old, 2, false);
        assert_eq!(c.lookup(1, 2, 0), Some(path(5)));
        // A newer entry is neither re-stamped nor dropped by a straggler.
        c.insert(1, 2, 4, path(4));
        let straggler = Stale {
            path: path(5),
            ..old
        };
        c.revalidate(1, 2, &straggler, 2, false);
        c.discard_stale(1, 2, 0);
        assert_eq!(c.probe(1, 2, 2), Probe::Miss, "a newer entry is a miss");
        assert_eq!(c.lookup(1, 2, 4), Some(path(4)));
    }

    /// A certificate with forward bounds `fwd` (floor `ff`) and backward
    /// bounds `bwd` (floor `bf`).
    fn cert(ff: i64, fwd: &[(i64, i64)], bf: i64, bwd: &[(i64, i64)]) -> Arc<Certificate> {
        Arc::new(Certificate::new(ff, fwd.to_vec(), bf, bwd.to_vec()))
    }

    #[test]
    fn a_certified_entry_is_charged_shared_and_restamped_with_its_minima() {
        let c = ResultCache::new(1 << 20);
        let k = cert(6, &[(1, 0), (2, 3)], 6, &[(9, 0)]);
        c.insert_certified(1, 9, 0, path(3), Some(k.clone()));
        let plain = ENTRY_OVERHEAD + 3 * std::mem::size_of::<i64>();
        assert_eq!(
            c.stats().bytes as usize,
            plain + CERTIFICATE_OVERHEAD + k.heap_bytes(),
            "the certificate is charged to the budget"
        );
        let Probe::Stale(mut st) = c.probe(1, 9, 1) else {
            unreachable!()
        };
        assert!(
            Arc::ptr_eq(st.cert.as_ref().unwrap(), &k),
            "a probe shares it"
        );
        assert!(st.inserted.admit(&k, 3, 40, 41, 1));
        c.revalidate(1, 9, &st, 1, true);
        let Probe::Stale(again) = c.probe(1, 9, 2) else {
            unreachable!()
        };
        assert_eq!(
            (again.version, again.inserted),
            (1, st.inserted),
            "the re-stamp writes the minima back"
        );
        // An entry replaced by one with another certificate is not
        // re-stamped with minima folded against the first.
        c.insert_certified(1, 9, 1, path(3), Some(cert(6, &[], 6, &[])));
        c.revalidate(1, 9, &again, 2, true);
        assert_eq!(c.probe(1, 9, 1), Probe::Hit(path(3)));
        let st = c.stats();
        assert_eq!((st.revalidated, st.insert_kept), (2, 2));
    }

    #[test]
    fn a_certificate_lists_u32_pairs_and_only_lowers_bounds_to_fit_them() {
        let far = 5_000_000_000;
        let k = cert(INF, &[(0, 0), (3, far), (7, 9)], 8, &[(1, 0), (2, 8)]);
        assert_eq!(k.heap_bytes(), 4 * 8, "3 + 1 listed nodes, 8 bytes each");
        assert_eq!(k.from_source(3), i64::from(u32::MAX), "clamped below");
        assert_eq!((k.from_source(7), k.from_source(1)), (9, INF));
        assert_eq!((k.to_target(1), k.to_target(2), k.to_target(0)), (0, 8, 8));
        // A node id no graph has lowers its direction's floor instead.
        let k = cert(20, &[(0, 0), (i64::MAX, 5)], 20, &[]);
        assert_eq!((k.from_source(0), k.from_source(4)), (0, 5));
        assert_eq!(k.from_source(-1), 5);
    }

    #[test]
    fn one_insert_is_kept_only_when_it_cannot_undercut_the_cost() {
        // Cost 10; s = 0, t = 9. Node 1 was expanded forward at 2, node
        // 8 backward at 3; every other node is at least 4 from s and 5
        // from t.
        let k = cert(4, &[(0, 0), (1, 2)], 5, &[(9, 0), (8, 3)]);
        let admit = |x, y, w| admit_both(&k, 10, x, y, w);
        assert!(admit(50, 60, 1), "4 + 1 + 5 cannot beat 10");
        assert!(!admit(1, 8, 1), "2 + 1 + 3 is a shortcut");
        assert!(!admit(8, 1, 1), "in either direction");
        assert!(!admit(50, 9, 5), "4 + 5 + 0 ends at t");
        assert!(admit(50, 9, 6), "4 + 6 + 0 does not");
    }

    /// Both arcs of an undirected insert into fresh minima.
    fn admit_both(k: &Certificate, cost: i64, x: i64, y: i64, w: i64) -> bool {
        let mut ins = Inserted::default();
        ins.admit(k, cost, x, y, w) && ins.admit(k, cost, y, x, w)
    }

    #[test]
    fn two_inserts_harmless_alone_are_caught_together() {
        // Cost 10; both floors 6 (the pruning floor below l).
        let k = cert(6, &[(0, 0)], 6, &[(9, 0)]);
        assert!(admit_both(&k, 10, 0, 50, 4), "0 + 4 + 6");
        assert!(admit_both(&k, 10, 51, 9, 4), "6 + 4 + 0");
        // Folded into the same minima — one window, or two with the
        // minima carried across a re-stamp: 0 + 4 + 4 + 0 < 10.
        let mut ins = Inserted::default();
        assert!(ins.admit(&k, 10, 0, 50, 4) && ins.admit(&k, 10, 50, 0, 4));
        assert!(!(ins.admit(&k, 10, 51, 9, 4) && ins.admit(&k, 10, 9, 51, 4)));
        // The other order is caught too.
        let mut ins = Inserted::default();
        assert!(ins.admit(&k, 10, 51, 9, 4) && ins.admit(&k, 10, 9, 51, 4));
        assert!(!(ins.admit(&k, 10, 0, 50, 4) && ins.admit(&k, 10, 50, 0, 4)));
    }

    #[test]
    fn an_unreachable_verdict_falls_only_to_an_arc_out_of_the_exhausted_ball() {
        // The forward search ran dry (floor INF) after expanding 0 and 1;
        // the backward one stopped at l = 3 with no pruning (P = INF).
        let k = cert(INF, &[(0, 0), (1, 2)], 3, &[(9, 0)]);
        assert!(
            admit_both(&k, INF, 50, 60, 1),
            "no end in the ball: INF + 1"
        );
        assert!(
            admit_both(&k, INF, 50, 9, 1),
            "t's side alone cannot join them"
        );
        assert!(!admit_both(&k, INF, 1, 60, 1), "2 + 1 + 3 bridges the pair");
        assert!(!admit_both(&k, INF, 60, 0, 7), "either arc may bridge it");
        // A kept arc leaves INF minima, so a second one far away is
        // still kept.
        let mut ins = Inserted::default();
        assert!(ins.admit(&k, INF, 50, 60, 1) && ins.admit(&k, INF, 60, 50, 1));
        assert!(ins.admit(&k, INF, 70, 80, 1));
    }

    #[test]
    fn bounds_saturate_near_inf_and_weights_near_the_i64_limit() {
        let k = cert(INF, &[(0, 0)], INF, &[(9, 0)]);
        assert_eq!((k.from_source(5), k.to_target(5)), (INF, INF));
        // INF + w and w + INF saturate instead of wrapping negative.
        assert!(admit_both(&k, INF, 5, 6, i64::MAX));
        assert!(admit_both(&k, 10, 0, 9, i64::MAX), "0 + MAX + 0 >= 10");
        assert!(admit_both(&k, INF, 0, 9, INF), "0 + INF + 0 >= INF");
        assert!(!admit_both(&k, INF, 0, 9, INF - 1));
        let mut ins = Inserted::default();
        assert!(ins.admit(&k, 10, 5, 6, i64::MAX));
        assert!(!ins.admit(&k, 10, 0, 9, 3), "and the minima still fold");
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
