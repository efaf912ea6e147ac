//! Many workers racing on one DDS service must still yield exact
//! at-least-once accounting. The service is single-owner data, so the race
//! is a seeded interleaving: each step a randomly drawn worker performs its
//! next operation (fetch, report, or give up), the way threads contending
//! for a shared service would order their calls.

use antdt_dds::{DdsConfig, DdsService};
use antdt_sim::rng::StdRng;
use std::collections::HashSet;

const SEEDS: u64 = 16;

#[test]
fn concurrent_workers_complete_every_shard_exactly() {
    for seed in 0..SEEDS {
        let cfg = DdsConfig::new(100_000, 100)
            .with_batches_per_shard(10) // 100 shards of 1000 samples
            .with_epochs(2);
        let mut svc = DdsService::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        // Per worker: the lease it holds, whether it already dropped one,
        // and whether it has stopped.
        let mut held = [None; 8];
        let mut dropped_one = [false; 8];
        let mut stopped = [false; 8];
        let mut done_count = 0u64;

        while stopped.iter().any(|s| !s) {
            let w = rng.gen_range(0..8usize);
            if stopped[w] {
                continue;
            }
            match held[w].take() {
                // Every worker is flaky once: it drops the first shard it
                // fetches, forcing requeues.
                Some(_) if !dropped_one[w] => {
                    dropped_one[w] = true;
                    svc.fail_worker(w as u32);
                }
                Some(lease) => {
                    svc.report_done(w as u32, lease).unwrap();
                    done_count += 1;
                }
                None => match svc.fetch(w as u32) {
                    Some(lease) => held[w] = Some(lease),
                    None => stopped[w] = svc.is_complete(),
                },
            }
        }

        assert!(svc.is_complete(), "seed {seed}");
        let audit = svc.audit();
        assert!(audit.at_least_once, "seed {seed}");
        assert_eq!(audit.done_shards, 200, "seed {seed}");
        assert_eq!(audit.expected_done_shards, 200, "seed {seed}");
        assert_eq!(done_count, 200, "seed {seed}");
        assert_eq!(audit.outstanding_shards, 0, "seed {seed}");
        // Every worker that fetched forced a requeue, so at-most-once must be
        // violated and flagged.
        assert!(audit.requeued_shards > 0, "seed {seed}");
        assert!(!audit.at_most_once, "seed {seed}");
    }
}

#[test]
fn concurrent_fetch_never_double_leases() {
    for seed in 0..SEEDS {
        let cfg = DdsConfig::new(50_000, 50).with_batches_per_shard(10); // 100 shards
        let mut svc = DdsService::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        // Per worker: the leases it holds and whether it stopped fetching
        // (it then reports one held lease per step).
        let mut mine: Vec<Vec<_>> = vec![Vec::new(); 16];
        let mut reporting = [false; 16];
        let mut leased = HashSet::new();

        while (0..16).any(|w| !reporting[w] || !mine[w].is_empty()) {
            let w = rng.gen_range(0..16usize);
            if !reporting[w] {
                match svc.fetch(w as u32) {
                    Some(l) => {
                        assert!(leased.insert(l.shard.id), "seed {seed}: double lease");
                        mine[w].push(l);
                    }
                    None => reporting[w] = true,
                }
            } else if let Some(l) = mine[w].pop() {
                svc.report_done(w as u32, l).unwrap();
            }
        }

        // Exactly 100 leases were granted across all workers — no double
        // leasing.
        assert_eq!(leased.len(), 100, "seed {seed}");
        assert!(svc.is_complete(), "seed {seed}");
    }
}
