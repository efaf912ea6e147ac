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
//! evicting the least-recently-touched entry across all configs. The
//! service also drops entries no later query can read
//! ([`SnapshotCache::remove`]).

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

    /// Drop the snapshot of `digest` at exactly `t`, if one is held, and
    /// forget `digest` once it holds none. Returns whether one was held.
    /// Counts nothing: the caller knows why it drops the entry.
    pub fn remove(&mut self, digest: u128, t: SimTime) -> bool {
        let Some(by_time) = self.map.get_mut(&digest) else { return false };
        let Some(old) = by_time.remove(&t.as_micros()) else { return false };
        self.bytes -= old.bytes;
        if by_time.is_empty() {
            self.map.remove(&digest);
        }
        true
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
            .min();
        if let Some((_, d, t)) = victim {
            if self.remove(d, SimTime(t)) {
                self.stats.evictions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdt_core::JobConfig;
    use antdt_workloads::cluster::cluster_a_scaled;
    use antdt_workloads::Scenario;

    fn secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000)
    }

    /// A small job, advanced `t` sim-seconds. Forks of one run all charge
    /// the same bytes.
    fn run_at(t: u64) -> PrefixRun {
        let cfg = JobConfig::ps_bsp(cluster_a_scaled(2, 1), Scenario::None).with_samples(40_000);
        let mut run = PrefixRun::new(&cfg);
        run.advance_until(secs(t));
        run
    }

    /// The bytes the held entries charge, summed entry by entry.
    fn held_bytes(cache: &SnapshotCache) -> usize {
        cache.map.values().flat_map(BTreeMap::values).map(|e| e.bytes).sum()
    }

    #[test]
    fn lookup_forks_the_nearest_predecessor_of_the_same_digest() {
        let run = run_at(0);
        let mut cache = SnapshotCache::new(usize::MAX);
        cache.insert(1, secs(10), run.fork());
        cache.insert(1, secs(20), run.fork());
        let at = |cache: &mut SnapshotCache, d, t| cache.fork_at(d, t).map(|(at, _)| at);
        assert_eq!(at(&mut cache, 1, secs(20)), Some(secs(20)), "an exact instant");
        assert_eq!(at(&mut cache, 1, secs(15)), Some(secs(10)), "between two snapshots");
        assert_eq!(at(&mut cache, 1, secs(5)), None, "before the first snapshot");
        assert_eq!(at(&mut cache, 2, secs(20)), None, "another digest");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
    }

    #[test]
    fn same_key_replacement_keeps_bytes_exact() {
        let (small, big) = (run_at(0), run_at(30));
        let (s, b) = (small.estimate_bytes(), big.estimate_bytes());
        assert_ne!(s, b, "the two runs must charge different bytes");
        let mut cache = SnapshotCache::new(usize::MAX);
        cache.insert(1, secs(10), small);
        cache.insert(1, secs(10), big);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), b);
        assert_eq!(cache.bytes(), held_bytes(&cache));
        assert_eq!(cache.stats().insertions, 2);
    }

    #[test]
    fn the_victim_is_the_globally_least_recently_touched_entry() {
        let run = run_at(0);
        let b = run.fork().estimate_bytes();
        let mut cache = SnapshotCache::new(3 * b);
        cache.insert(1, secs(1), run.fork());
        cache.insert(1, secs(2), run.fork());
        cache.insert(2, secs(3), run.fork());
        // The hit refreshes digest 1's entry at 1 s, so its entry at 2 s is
        // now the least recently touched across both digests.
        assert!(cache.fork_at(1, secs(1)).is_some());
        cache.insert(2, secs(4), run.fork());
        assert_eq!(cache.instants(1), vec![secs(1)]);
        assert_eq!(cache.instants(2), vec![secs(3), secs(4)]);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.bytes(), 3 * b);
    }

    #[test]
    fn an_oversize_insert_is_refused_and_counted() {
        let run = run_at(0);
        let mut cache = SnapshotCache::new(run.estimate_bytes() - 1);
        cache.insert(1, secs(1), run);
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        let stats = cache.stats();
        assert_eq!((stats.oversize_rejections, stats.insertions, stats.evictions), (1, 0, 0));
    }

    #[test]
    fn removal_keeps_bytes_exact_and_drops_empty_digests() {
        let (small, big) = (run_at(0), run_at(30));
        let mut cache = SnapshotCache::new(usize::MAX);
        cache.insert(1, secs(1), small.fork());
        cache.insert(1, secs(2), big.fork());
        cache.insert(2, secs(1), small);
        assert!(cache.remove(1, secs(1)));
        assert_eq!(cache.bytes(), held_bytes(&cache));
        assert!(!cache.remove(1, secs(1)), "already gone");
        assert!(!cache.remove(3, secs(1)), "an unknown digest");
        assert!(cache.remove(1, secs(2)));
        assert!(!cache.map.contains_key(&1), "an empty digest is dropped");
        assert_eq!(cache.instants(2), vec![secs(1)]);
        assert_eq!(cache.bytes(), held_bytes(&cache));
        assert!(cache.remove(2, secs(1)));
        assert!(cache.map.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.stats().evictions, 0, "a removal is not an eviction");
    }
}
