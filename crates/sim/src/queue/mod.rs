//! Event storage under [`crate::Engine`]: a binary min-heap of packed
//! `(time, seq, slot)` keys plus an arena of payloads.
//!
//! Each heap entry is one 16-byte `u128`: time in the high 64 bits, the
//! per-engine insertion sequence in the next [`SEQ_BITS`], and the payload's
//! arena slot in the low [`SLOT_BITS`]. Sequence numbers are unique, so the
//! slot bits never decide the order, and popping strictly ascending keys
//! reproduces the exact `(time, FIFO)` schedule. Payloads live in an
//! [`Arena`] and only slot handles move through the heap, so the hot
//! schedule/step path never allocates per event and the payload type needs
//! no trait bounds.

mod arena;

pub(crate) use arena::Arena;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Width of the insertion-sequence field: 2^40 ≈ 1.1e12 events per engine.
pub(crate) const SEQ_BITS: u32 = 40;
/// Width of the arena-slot field: 2^24 ≈ 16.7M pending events.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u128 = (1 << SLOT_BITS) - 1;

/// The ordering key of the event at `time` with insertion sequence `seq`
/// (slot bits clear). Panics past the sequence field's width.
#[inline]
pub(crate) fn order_key(time: u64, seq: u64) -> u128 {
    assert!(seq < 1 << SEQ_BITS, "event sequence overflow: {seq} >= 2^{SEQ_BITS}");
    (u128::from(time) << 64) | (u128::from(seq) << SLOT_BITS)
}

/// The largest key at `time`: every event scheduled at or before `time`
/// orders at or below it (the engine's deadline limit).
#[inline]
pub(crate) fn deadline_key(time: u64) -> u128 {
    (u128::from(time) << 64) | u128::from(u64::MAX)
}

/// Min-queue of packed `key | slot` entries backed by `BinaryHeap`:
/// O(log n) push/pop.
#[derive(Debug, Default)]
pub struct HeapQueue {
    heap: BinaryHeap<Reverse<u128>>,
}

impl HeapQueue {
    /// Insert `slot` under `key` (an [`order_key`]). Panics past the slot
    /// field's width.
    #[inline]
    pub fn push(&mut self, key: u128, slot: u32) {
        debug_assert_eq!(key & SLOT_MASK, 0, "order keys carry no slot bits");
        assert!(u128::from(slot) <= SLOT_MASK, "event slot overflow: {slot} >= 2^{SLOT_BITS}");
        self.heap.push(Reverse(key | u128::from(slot)));
    }

    /// Remove and return the entry with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<(u128, u32)> {
        self.heap.pop().map(|Reverse(e)| unpack(e))
    }

    /// The smallest pending key.
    #[inline]
    pub fn peek_key(&self) -> Option<u128> {
        self.heap.peek().map(|Reverse(e)| e & !SLOT_MASK)
    }

    /// Pop the front entry only if its key is at most `limit` — the engine's
    /// deadline-bounded step as one operation. Returns `None`, leaving the
    /// queue untouched, when empty or when the front key exceeds `limit`.
    #[inline]
    pub fn pop_at_most(&mut self, limit: u128) -> Option<(u128, u32)> {
        if self.peek_key()? <= limit {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every pending entry.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// All pending entries in unspecified order (for engine snapshots).
    pub fn iter(&self) -> impl Iterator<Item = (u128, u32)> + '_ {
        self.heap.iter().map(|&Reverse(e)| unpack(e))
    }
}

/// Split a heap entry into its ordering key and its arena slot.
#[inline]
fn unpack(entry: u128) -> (u128, u32) {
    (entry & !SLOT_MASK, (entry & SLOT_MASK) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The packed layout the engine pushes: time, then sequence, slot bits
    /// clear.
    fn key(t: u64, seq: u64) -> u128 {
        order_key(t, seq)
    }

    /// The reference schedule: every pushed entry, popped in ascending key
    /// order.
    fn sorted(mut entries: Vec<(u128, u32)>) -> Vec<(u128, u32)> {
        entries.sort_unstable();
        entries
    }

    fn drain(q: &mut HeapQueue) -> Vec<(u128, u32)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    /// Drive the queue through an engine-legal workload — each step pushes
    /// a burst at `now + dt`, then pops one entry, advancing `now` — and
    /// require every pop to be the smallest entry still pushed.
    fn check_against_model(ops: &[(u64, u32)]) {
        let mut q = HeapQueue::default();
        let mut model = Vec::new();
        let (mut seq, mut now) = (0u64, 0u64);
        for &(dt, burst) in ops {
            for _ in 0..burst {
                // Scrambled slots that use all 24 bits: they ride along in
                // the low bits and must never decide the order.
                let slot = (seq.wrapping_mul(0x9E37_79B9) & 0xFF_FFFF) as u32;
                let entry = (key(now.saturating_add(dt), seq), slot);
                q.push(entry.0, entry.1);
                model.push(entry);
                seq += 1;
            }
            model.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(q.peek_key(), model.last().map(|&(k, _)| k));
            if let Some(entry) = q.pop() {
                assert_eq!(Some(entry), model.pop());
                now = (entry.0 >> 64) as u64;
            }
        }
        assert_eq!(drain(&mut q), sorted(model));
    }

    #[test]
    fn same_instant_bursts_match() {
        check_against_model(&[(0, 100), (1, 3), (0, 50), (2, 0), (0, 7)]);
    }

    #[test]
    fn mixed_horizons_match() {
        check_against_model(&[
            (1, 4),
            (63, 2),
            (4096, 3),
            (1 << 20, 2),
            (1 << 40, 1),
            (5, 10),
            (u64::MAX, 2),
            (2, 8),
        ]);
    }

    #[test]
    fn pops_in_key_order() {
        let mut q = HeapQueue::default();
        q.push(key(2, 0), 0);
        q.push(key(1, 1), 1);
        q.push(key(1, 0), 2);
        assert_eq!(q.peek_key(), Some(key(1, 0)));
        assert_eq!(drain(&mut q), vec![(key(1, 0), 2), (key(1, 1), 1), (key(2, 0), 0)]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_at_most_boundary_semantics() {
        // Exact-limit keys pop; a front one past the limit leaves the queue
        // untouched.
        let mut q = HeapQueue::default();
        for (i, t) in [10u64, 20, 20, 30].into_iter().enumerate() {
            q.push(key(t, i as u64), i as u32);
        }
        let exact = key(20, 1);
        assert_eq!(q.pop_at_most(deadline_key(10)), Some((key(10, 0), 0)));
        // Limit below the front key (time matches, seq lower): refuse.
        assert_eq!(q.pop_at_most(key(20, 0)), None);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_at_most(exact), Some((exact, 1)));
        assert_eq!(q.pop_at_most(exact), None);
        // A refused pop must not have perturbed order or contents.
        assert_eq!(q.pop(), Some((key(20, 2), 2)));
        assert_eq!(q.pop_at_most(u128::MAX), Some((key(30, 3), 3)));
        assert_eq!(q.pop_at_most(u128::MAX), None);
    }

    /// Deadline-bounded drains interleaved with pushes just past each
    /// deadline (the engine's steady state: drain to `t`, schedule more work
    /// near `t`) must pop in exact key order, and a refused pop must leave
    /// the far-future entry in place.
    #[test]
    fn refused_pop_then_near_deadline_pushes_match() {
        let mut q = HeapQueue::default();
        let mut pushed = Vec::new();
        let mut push = |q: &mut HeapQueue, t: u64| {
            let entry = (key(t, pushed.len() as u64), pushed.len() as u32);
            q.push(entry.0, entry.1);
            pushed.push(entry);
        };
        push(&mut q, 1 << 20); // far future
        let mut popped = Vec::new();
        for deadline in [1_000u64, 10_000, 100_000] {
            while let Some(entry) = q.pop_at_most(deadline_key(deadline)) {
                assert!(entry.0 >> 64 <= u128::from(deadline));
                popped.push(entry);
            }
            // Schedule follow-ups just past the deadline, like a round
            // driver that advanced to `deadline` and planned the next round.
            push(&mut q, deadline + 1);
            push(&mut q, deadline + 500);
        }
        assert_eq!(popped.len(), 4);
        popped.extend(drain(&mut q));
        assert_eq!(popped, sorted(pushed));
    }

    #[test]
    fn u64_max_times_match() {
        let mut q = HeapQueue::default();
        let mut pushed = Vec::new();
        for (i, t) in [u64::MAX, 0, u64::MAX, 5].into_iter().enumerate() {
            q.push(key(t, i as u64), i as u32);
            pushed.push((key(t, i as u64), i as u32));
        }
        assert_eq!(drain(&mut q), sorted(pushed));
    }

    #[test]
    fn clear_mid_run_matches() {
        let mut q = HeapQueue::default();
        for i in 0..10u64 {
            q.push(key(i * 100, i), i as u32);
        }
        assert_eq!(q.pop(), Some((key(0, 0), 0)));
        q.clear();
        assert!(q.is_empty());
        // The queue stays usable at its current position.
        let pushed: Vec<_> = (0..5u64).rev().map(|i| (key(100 + i, 100 + i), i as u32)).collect();
        for &(k, slot) in &pushed {
            q.push(k, slot);
        }
        assert_eq!(q.iter().count(), 5);
        assert_eq!(drain(&mut q), sorted(pushed));
    }

    #[test]
    fn widest_fields_round_trip() {
        let mut q = HeapQueue::default();
        let (max_seq, max_slot) = ((1u64 << SEQ_BITS) - 1, (1u32 << SLOT_BITS) - 1);
        q.push(key(u64::MAX, max_seq), max_slot);
        q.push(key(u64::MAX, max_seq - 1), 0);
        q.push(key(0, max_seq), max_slot);
        assert_eq!(
            drain(&mut q),
            vec![
                (key(0, max_seq), max_slot),
                (key(u64::MAX, max_seq - 1), 0),
                (key(u64::MAX, max_seq), max_slot)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "event slot overflow")]
    fn slot_past_its_field_panics() {
        HeapQueue::default().push(key(0, 0), 1 << SLOT_BITS);
    }

    #[test]
    #[should_panic(expected = "event sequence overflow")]
    fn seq_past_its_field_panics() {
        key(0, 1 << SEQ_BITS);
    }
}
