//! The snapshot cache: an LRU, byte-budgeted store of advanced prefix runs
//! keyed by `(config digest, snapshot instant)` with nearest-predecessor
//! lookup.
//!
//! A cached entry at instant `t` is a [`PrefixRun`] that has fired every
//! event at or before `t`. Forking it and advancing to any `t' >= t` fires
//! exactly the events a fresh run advanced to `t'` would — so a query whose
//! divergence instant is `t'` only needs the *nearest predecessor* snapshot,
//! never an exact-time hit. Per-snapshot memory is charged from
//! [`PrefixRun::estimate_bytes`] and the global byte budget is enforced by
//! evicting the least-recently-touched entry across all configs.

use antdt_core::PrefixRun;
use antdt_sim::SimTime;
use std::collections::{BTreeMap, HashMap};

/// Running totals of everything the cache did — the telemetry and bench
/// surface (deltas are pushed to `antdt-telemetry` counters by the service).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a usable predecessor snapshot.
    pub hits: u64,
    /// Lookups that found nothing at or before the requested instant.
    pub misses: u64,
    /// Snapshots stored (including same-key replacements).
    pub insertions: u64,
    /// Entries removed to get back under the byte budget.
    pub evictions: u64,
    /// Inserts refused because one snapshot alone exceeds the whole budget.
    pub oversize_rejections: u64,
}

struct Entry {
    run: PrefixRun,
    bytes: usize,
    /// Logical-clock stamp of the last touch (insert or hit) — the LRU key.
    stamp: u64,
}

/// See the module docs. Keys are `(config digest, snapshot instant in
/// microseconds)`; the byte budget is global across all digests.
pub struct SnapshotCache {
    budget_bytes: usize,
    clock: u64,
    bytes: usize,
    map: HashMap<u128, BTreeMap<u64, Entry>>,
    stats: CacheStats,
}

impl SnapshotCache {
    pub fn new(budget_bytes: usize) -> Self {
        SnapshotCache {
            budget_bytes,
            clock: 0,
            bytes: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Estimated bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The enforced budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Number of cached snapshots.
    pub fn len(&self) -> usize {
        self.map.values().map(BTreeMap::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The instants `digest` has snapshots at, ascending.
    pub fn instants(&self, digest: u128) -> Vec<SimTime> {
        self.map
            .get(&digest)
            .map_or_else(Vec::new, |by_time| by_time.keys().map(|&t| SimTime(t)).collect())
    }

    /// Running totals (never reset).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Fork the nearest cached snapshot of `digest` at or before `t`.
    /// Returns the snapshot's instant alongside the independent fork; counts
    /// a hit or a miss either way.
    pub fn fork_at(&mut self, digest: u128, t: SimTime) -> Option<(SimTime, PrefixRun)> {
        let found = self
            .map
            .get_mut(&digest)
            .and_then(|by_time| by_time.range_mut(..=t.as_micros()).next_back());
        match found {
            Some((&at, entry)) => {
                self.clock += 1;
                entry.stamp = self.clock;
                self.stats.hits += 1;
                Some((SimTime(at), entry.run.fork()))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Store `run` as the snapshot of `digest` at instant `t` (replacing any
    /// previous entry at that exact key), then evict least-recently-touched
    /// entries until the byte budget holds again. A snapshot bigger than the
    /// whole budget is refused outright.
    pub fn insert(&mut self, digest: u128, t: SimTime, run: PrefixRun) {
        let bytes = run.estimate_bytes();
        if bytes > self.budget_bytes {
            self.stats.oversize_rejections += 1;
            return;
        }
        self.clock += 1;
        let entry = Entry { run, bytes, stamp: self.clock };
        if let Some(old) = self.map.entry(digest).or_default().insert(t.as_micros(), entry) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.stats.insertions += 1;
        while self.bytes > self.budget_bytes {
            self.evict_lru();
        }
    }

    /// Remove the globally least-recently-touched entry. The entry just
    /// inserted carries the newest stamp, so it survives unless it is the
    /// only one left — and a lone entry always fits (oversize inserts are
    /// refused before this point).
    fn evict_lru(&mut self) {
        let victim = self
            .map
            .iter()
            .flat_map(|(&d, by_time)| by_time.iter().map(move |(&t, e)| (e.stamp, d, t)))
            .min()
            .map(|(_, d, t)| (d, t));
        let Some((d, t)) = victim else { return };
        if let Some(by_time) = self.map.get_mut(&d) {
            if let Some(old) = by_time.remove(&t) {
                self.bytes -= old.bytes;
                self.stats.evictions += 1;
            }
            if by_time.is_empty() {
                self.map.remove(&d);
            }
        }
    }
}
