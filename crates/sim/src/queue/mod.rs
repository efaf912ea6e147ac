//! Event storage under [`crate::Engine`]: a binary min-heap of packed
//! `(time, seq, slot)` keys over an arena of payloads, with runs of
//! consecutive same-instant events chained outside the heap.
//!
//! Each heap entry is one 16-byte `u128`: time in the high 64 bits, the
//! per-engine insertion sequence in the next [`SEQ_BITS`], and the payload's
//! arena slot in the low [`SLOT_BITS`]. Sequence numbers are unique, so the
//! slot bits never decide the order, and popping strictly ascending keys
//! reproduces the exact `(time, FIFO)` schedule. Payloads live in an
//! [`Arena`] and only slot handles move through the heap, so the hot
//! schedule/step path never allocates per event and the payload type needs
//! no trait bounds.
//!
//! A push whose key is exactly one sequence step above the previous push's
//! key, while that event is still pending, joins its *run*: the arena links
//! it behind that event and the heap does not see it. A PS-BSP barrier
//! release schedules every worker at one instant, so most of a PS-BSP job's
//! events arrive this way. Only the front member of a run sits in the heap.
//! No other pending key lies between two members, so popping a member that
//! has a successor writes the successor's key into the root in place, where
//! it still orders first, and the heap's sift stops at once.

mod arena;

use arena::{Arena, NIL};

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Width of the insertion-sequence field: 2^40 ≈ 1.1e12 events per engine.
pub(crate) const SEQ_BITS: u32 = 40;
/// Width of the arena-slot field: 2^24 ≈ 16.7M pending events.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u128 = (1 << SLOT_BITS) - 1;
/// One step of the sequence field: the key of the next event scheduled at
/// the same instant.
const SEQ_ONE: u128 = 1 << SLOT_BITS;
/// `tail_key` while no pending event can take a successor: no key is one
/// step above it.
const NO_TAIL: u128 = u128::MAX;

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

/// The heap-entry bits of arena slot `slot`. Panics past the slot field's
/// width.
#[inline]
fn slot_bits(slot: u32) -> u128 {
    assert!(u128::from(slot) <= SLOT_MASK, "event slot overflow: {slot} >= 2^{SLOT_BITS}");
    u128::from(slot)
}

/// Min-queue of pending events under unique [`order_key`]s: one `BinaryHeap`
/// entry per run, O(log runs) to start a run or pop its last member, O(1)
/// to join a run or pop any other member. A clone pops the same events in
/// the same order.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// One entry per run: its front member's key | slot.
    heap: BinaryHeap<Reverse<u128>>,
    arena: Arena<E>,
    /// Key of the most recent push while that event is pending (it is the
    /// last member of its run), else [`NO_TAIL`].
    tail_key: u128,
    tail_slot: u32,
    /// Pending events, counting every run member.
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            arena: Arena::default(),
            tail_key: NO_TAIL,
            tail_slot: NIL,
            len: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Insert `ev` under `key` (an [`order_key`] not already pending).
    /// Panics past the slot field's width, whether or not the event joins a
    /// run.
    #[inline]
    pub fn push(&mut self, key: u128, ev: E) {
        debug_assert_eq!(key & SLOT_MASK, 0, "order keys carry no slot bits");
        let slot = self.arena.insert(ev);
        let bits = slot_bits(slot);
        if self.tail_key.checked_add(SEQ_ONE) == Some(key) {
            self.arena.link(self.tail_slot, slot);
        } else {
            self.heap.push(Reverse(key | bits));
        }
        self.tail_key = key;
        self.tail_slot = slot;
        self.len += 1;
    }

    /// Pop the front event only if its key is at most `limit`: the engine's
    /// deadline-bounded step as one operation. Returns `None`, leaving the
    /// queue untouched, when empty or when the front key exceeds `limit`.
    #[inline]
    pub fn pop_at_most(&mut self, limit: u128) -> Option<(u128, E)> {
        let mut front = self.heap.peek_mut()?;
        let (key, slot) = unpack(front.0);
        if key > limit {
            return None;
        }
        let (ev, next) = self.arena.remove(slot);
        if next == NIL {
            PeekMut::pop(front);
            if key == self.tail_key {
                self.tail_key = NO_TAIL;
            }
        } else {
            // The successor's key is the next one up, so the root keeps its
            // place and the sift on drop stops at once.
            front.0 = (key + SEQ_ONE) | u128::from(next);
        }
        self.len -= 1;
        Some((key, ev))
    }

    /// Remove and return the event with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<(u128, E)> {
        self.pop_at_most(u128::MAX)
    }

    /// Number of pending events (run members, not heap entries).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.arena.clear();
        self.tail_key = NO_TAIL;
        self.len = 0;
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

    fn drain(q: &mut EventQueue<u32>) -> Vec<(u128, u32)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    /// Drive the queue through an engine-legal workload — each step pushes
    /// a burst at `now + dt`, then pops one entry, advancing `now` — and
    /// require every pop to be the smallest entry still pushed.
    fn check_against_model(ops: &[(u64, u32)]) {
        let mut q = EventQueue::default();
        let mut model = Vec::new();
        let (mut seq, mut now) = (0u64, 0u64);
        for &(dt, burst) in ops {
            for _ in 0..burst {
                // Scrambled payloads that use all 24 bits: they ride along
                // and must never decide the order.
                let payload = (seq.wrapping_mul(0x9E37_79B9) & 0xFF_FFFF) as u32;
                let entry = (key(now.saturating_add(dt), seq), payload);
                q.push(entry.0, entry.1);
                model.push(entry);
                seq += 1;
            }
            model.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(q.len(), model.len());
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
        let mut q = EventQueue::default();
        q.push(key(2, 0), 0);
        q.push(key(1, 1), 1);
        q.push(key(1, 2), 2);
        assert_eq!(q.heap.len(), 2, "seq 2 joins seq 1's run");
        assert_eq!(drain(&mut q), vec![(key(1, 1), 1), (key(1, 2), 2), (key(2, 0), 0)]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn runs_chain_only_consecutive_pending_keys() {
        let mut q = EventQueue::default();
        for (seq, t) in [(0, 5u64), (1, 5), (2, 3), (3, 5), (4, 5)] {
            q.push(key(t, seq), seq as u32);
        }
        // Runs {0, 1}, {2}, {3, 4}: seq 3 does not join seq 1 across seq 2.
        assert_eq!((q.len(), q.heap.len()), (5, 3));
        assert_eq!(q.pop(), Some((key(3, 2), 2)));
        // Seq 4 is still pending, so seq 5 joins its run; once the run has
        // drained, the next push at that instant starts a run of its own.
        q.push(key(5, 5), 5);
        assert_eq!(q.heap.len(), 2);
        let popped: Vec<_> = drain(&mut q).into_iter().map(|(_, n)| n).collect();
        assert_eq!(popped, [0, 1, 3, 4, 5]);
        q.push(key(5, 6), 6);
        assert_eq!((q.len(), q.heap.len()), (1, 1));
    }

    #[test]
    fn pop_at_most_boundary_semantics() {
        // Exact-limit keys pop; a front one past the limit leaves the queue
        // untouched.
        let mut q = EventQueue::default();
        for (i, t) in [10u64, 20, 20, 30].into_iter().enumerate() {
            q.push(key(t, i as u64), i as u32);
        }
        let exact = key(20, 1);
        assert_eq!(q.pop_at_most(deadline_key(10)), Some((key(10, 0), 0)));
        // Limit below the front key (time matches, seq lower): refuse.
        assert_eq!(q.pop_at_most(key(20, 0)), None);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_at_most(exact), Some((exact, 1)));
        // The run's next member is one step above the limit: refuse.
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
        let mut q = EventQueue::default();
        let mut pushed = Vec::new();
        let mut push = |q: &mut EventQueue<u32>, t: u64| {
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
        let mut q = EventQueue::default();
        let mut pushed = Vec::new();
        for (i, t) in [u64::MAX, 0, u64::MAX, u64::MAX, 5].into_iter().enumerate() {
            q.push(key(t, i as u64), i as u32);
            pushed.push((key(t, i as u64), i as u32));
        }
        assert_eq!(drain(&mut q), sorted(pushed));
    }

    #[test]
    fn clear_mid_run_matches() {
        let mut q = EventQueue::default();
        for i in 0..10u64 {
            q.push(key(i / 2 * 100, i), i as u32);
        }
        assert_eq!(q.pop(), Some((key(0, 0), 0)));
        q.clear();
        assert!(q.is_empty());
        // The queue stays usable at its current position, and a push one
        // step above the last cleared key starts a fresh run.
        q.push(key(400, 10), 10);
        let pushed: Vec<_> = (11..15u64).map(|i| (key(100 + i, i), i as u32)).collect();
        for &(k, n) in &pushed {
            q.push(k, n);
        }
        assert_eq!(q.len(), 5);
        let mut expect = pushed;
        expect.push((key(400, 10), 10));
        assert_eq!(drain(&mut q), sorted(expect));
    }

    #[test]
    fn clone_keeps_every_run_member_with_its_key() {
        let mut q = EventQueue::default();
        for i in 0..9u64 {
            q.push(key(i / 3, i), i as u32);
        }
        q.pop();
        let mut fork = q.clone();
        // The clone's tail still takes a successor, like the original's.
        for q in [&mut q, &mut fork] {
            q.push(key(2, 9), 9);
        }
        assert_eq!(fork.heap.len(), q.heap.len());
        let want: Vec<_> = (1..10u64).map(|i| (key((i / 3).min(2), i), i as u32)).collect();
        assert_eq!(drain(&mut fork), want);
        assert_eq!(drain(&mut q), want);
    }

    #[test]
    fn widest_fields_round_trip() {
        let mut q = EventQueue::default();
        let max_seq = (1u64 << SEQ_BITS) - 1;
        q.push(key(0, max_seq - 2), 0);
        q.push(key(u64::MAX, max_seq - 1), 1);
        q.push(key(u64::MAX, max_seq), 2);
        assert_eq!(
            drain(&mut q),
            vec![
                (key(0, max_seq - 2), 0),
                (key(u64::MAX, max_seq - 1), 1),
                (key(u64::MAX, max_seq), 2)
            ]
        );
    }

    #[test]
    fn widest_slot_round_trips() {
        let max_slot = (1u32 << SLOT_BITS) - 1;
        assert_eq!(unpack(key(u64::MAX, 7) | slot_bits(max_slot)), (key(u64::MAX, 7), max_slot));
    }

    #[test]
    #[should_panic(expected = "event slot overflow")]
    fn slot_past_its_field_panics() {
        slot_bits(1 << SLOT_BITS);
    }

    #[test]
    #[should_panic(expected = "event sequence overflow")]
    fn seq_past_its_field_panics() {
        key(0, 1 << SEQ_BITS);
    }
}
