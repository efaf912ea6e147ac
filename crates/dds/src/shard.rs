//! Shard and state types. A shard is deliberately tiny — two integers — to keep
//! the queue's network footprint at the bytes level (paper §V-C1).

/// Index of a shard within one epoch (`0..K`).
pub type ShardId = u32;

/// Worker identifier (dense index assigned by the runtime).
pub type WorkerId = u32;

/// A contiguous range of sample indices `[offset, offset + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shard {
    pub id: ShardId,
    pub offset: u64,
    pub len: u64,
}

impl Shard {
    #[inline]
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }

    #[inline]
    pub fn contains(&self, sample: u64) -> bool {
        sample >= self.offset && sample < self.end()
    }
}

/// Lifecycle state of a shard within the current epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardState {
    /// Ready for assignment (initial state, and after a requeue).
    Todo,
    /// Leased to a worker; never concurrently assigned elsewhere.
    Doing,
    /// The worker reported that gradients for this shard reached the servers.
    Done,
}

/// Split `total_samples` into shards of `samples_per_shard` (the last one may be
/// shorter). Returns an empty vec when either input is zero.
pub fn plan_shards(total_samples: u64, samples_per_shard: u64) -> Vec<Shard> {
    if total_samples == 0 || samples_per_shard == 0 {
        return Vec::new();
    }
    let k = total_samples.div_ceil(samples_per_shard);
    (0..k)
        .map(|i| {
            let offset = i * samples_per_shard;
            let len = samples_per_shard.min(total_samples - offset);
            Shard { id: i as ShardId, offset, len }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_exactly_once() {
        let shards = plan_shards(1000, 300);
        assert_eq!(shards.len(), 4);
        assert_eq!(shards[0], Shard { id: 0, offset: 0, len: 300 });
        assert_eq!(shards[3], Shard { id: 3, offset: 900, len: 100 });
        let total: u64 = shards.iter().map(|s| s.len).sum();
        assert_eq!(total, 1000);
        // Contiguous, non-overlapping.
        for w in shards.windows(2) {
            assert_eq!(w[0].end(), w[1].offset);
        }
    }

    #[test]
    fn plan_exact_division() {
        let shards = plan_shards(900, 300);
        assert_eq!(shards.len(), 3);
        assert!(shards.iter().all(|s| s.len == 300));
    }

    #[test]
    fn plan_degenerate() {
        assert!(plan_shards(0, 100).is_empty());
        assert!(plan_shards(100, 0).is_empty());
        let one = plan_shards(5, 100);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].len, 5);
    }

    #[test]
    fn contains_respects_bounds() {
        let s = Shard { id: 0, offset: 10, len: 5 };
        assert!(!s.contains(9));
        assert!(s.contains(10));
        assert!(s.contains(14));
        assert!(!s.contains(15));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use antdt_sim::rng::StdRng;

    /// 256 seeded cases.
    #[test]
    fn every_sample_in_exactly_one_shard() {
        for seed in 0..256 {
            let mut rng = StdRng::seed_from_u64(seed);
            let total = rng.gen_range(1u64..50_000);
            let per = rng.gen_range(1u64..5_000);
            let probe = rng.gen_range(0u64..50_000);
            let shards = plan_shards(total, per);
            let covering = shards.iter().filter(|s| s.contains(probe)).count();
            assert_eq!(covering, usize::from(probe < total), "seed {seed}");
            let sum: u64 = shards.iter().map(|s| s.len).sum();
            assert_eq!(sum, total, "seed {seed}");
            assert_eq!(shards.len() as u64, total.div_ceil(per), "seed {seed}");
        }
    }
}
