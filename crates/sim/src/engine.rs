//! The discrete-event engine: a priority queue of timestamped events with a
//! FIFO tiebreak so that events scheduled at the same instant fire in the order
//! they were scheduled. This makes every run fully deterministic.
//!
//! The ordering key `(SimTime, seq)` and the payload's arena slot are packed
//! into a single 16-byte `u128` — time in the high 64 bits, a 40-bit
//! insertion sequence, a 24-bit slot — and a binary min-heap pops ascending
//! keys, which is exactly the schedule. Payloads live in an arena slab and
//! only slot handles move through the heap, so the hot schedule/step path
//! never allocates per event and the payload type needs no trait bounds at
//! all. An event scheduled at the same instant as the previous `schedule`
//! call's, while that one is still pending, joins its run outside the heap
//! and later pops in O(1) (see the `queue` module). Scheduling panics past
//! 2^40 events per engine or 2^24 pending ones.

use crate::queue::{deadline_key, order_key, EventQueue};
use crate::time::{SimDuration, SimTime};

/// A deterministic discrete-event engine over an arbitrary event type `E`.
///
/// ```
/// use antdt_sim::{Engine, SimDuration, SimTime};
///
/// let mut eng: Engine<&str> = Engine::new();
/// eng.schedule_after(SimDuration::from_secs(2), "b");
/// eng.schedule_after(SimDuration::from_secs(1), "a");
/// let mut seen = Vec::new();
/// eng.run(|eng, ev| {
///     seen.push((eng.now(), ev));
/// });
/// assert_eq!(seen[0].1, "a");
/// assert_eq!(seen[1], (SimTime::from_secs_f64(2.0), "b"));
/// ```
///
/// A clone is a fork: it resumes from the same instant with every pending
/// event under its original key and the same sequence counter, so it pops —
/// and schedules — exactly what the original would until their drivers
/// diverge.
#[derive(Debug, Clone)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    seq: u64,
    processed: u64,
    /// Events whose requested instant was in the past (clamped to `now`).
    clamped: u64,
}

/// Bytes a fork is charged beyond its pending events: one `Vec` header and
/// the clock, sequence and two progress counters.
const FORK_HEADER_BYTES: usize = std::mem::size_of::<Vec<u8>>() + 4 * std::mem::size_of::<u64>();

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::default(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            clamped: 0,
        }
    }

    /// Current simulated instant (the timestamp of the event being handled).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events handled so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events scheduled so far (the insertion sequence; a clone
    /// inherits it, and [`Engine::clear`] does not reset it).
    #[inline]
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Number of events still pending, counting every member of a
    /// same-instant run.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of events that were scheduled at an instant already in the
    /// past and clamped to `now`. Scheduling into the past is a logic error
    /// in the driving runtime; the runtimes assert this stays zero.
    #[inline]
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Estimated bytes a fork (clone) of the engine holds: a fixed header
    /// plus one packed key and one inline payload per pending event. Payloads
    /// are measured at their inline size (`size_of::<E>()`), so payload-owned
    /// heap data is not counted — callers that cache forks add their own
    /// estimate for the world state the events point into.
    pub fn fork_bytes_estimate(&self) -> usize {
        FORK_HEADER_BYTES + self.queue.len() * std::mem::size_of::<(u128, E)>()
    }

    /// Schedule `ev` at absolute instant `at`. Scheduling in the past is a logic
    /// error in the driving runtime; the engine clamps to `now` rather than
    /// time-travelling (and counts the clamp — see [`Engine::clamped`]), so the
    /// clock stays monotonic.
    pub fn schedule(&mut self, at: SimTime, ev: E) {
        if at < self.now {
            self.clamped += 1;
        }
        let at = at.max(self.now);
        self.queue.push(order_key(at.0, self.seq), ev);
        self.seq += 1;
    }

    /// Schedule `ev` to fire `delay` after the current instant.
    pub fn schedule_after(&mut self, delay: SimDuration, ev: E) {
        self.schedule(self.now + delay, ev);
    }

    /// Pop the next event, advancing the clock. Returns `None` when drained.
    pub fn step(&mut self) -> Option<E> {
        let (key, ev) = self.queue.pop()?;
        let at = SimTime((key >> 64) as u64);
        debug_assert!(at >= self.now, "event queue produced non-monotonic time");
        self.now = at;
        self.processed += 1;
        Some(ev)
    }

    /// Run to quiescence. The handler receives `&mut Engine` so it can schedule
    /// follow-up events, and the event itself by value.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Self, E)) {
        while let Some(ev) = self.step() {
            handler(self, ev);
        }
    }

    /// Run until the clock would pass `deadline` (events at exactly `deadline`
    /// still fire). Returns `true` if the queue drained before the deadline.
    ///
    /// Each iteration is a single fused deadline-bounded pop, not a peek
    /// followed by a pop; this loop is the hot path of every simulated job.
    pub fn run_until(&mut self, deadline: SimTime, mut handler: impl FnMut(&mut Self, E)) -> bool {
        let limit = deadline_key(deadline.0);
        while let Some((key, ev)) = self.queue.pop_at_most(limit) {
            let at = SimTime((key >> 64) as u64);
            debug_assert!(at >= self.now, "event queue produced non-monotonic time");
            self.now = at;
            self.processed += 1;
            handler(self, ev);
        }
        self.queue.is_empty()
    }

    /// Drop all pending events (used when a job finishes early, e.g. the last
    /// shard completes while stray monitor ticks are still queued).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule(SimTime::from_secs_f64(3.0), Ev::Tick(3));
        eng.schedule(SimTime::from_secs_f64(1.0), Ev::Tick(1));
        eng.schedule(SimTime::from_secs_f64(2.0), Ev::Tick(2));
        let mut order = Vec::new();
        eng.run(|_, Ev::Tick(n)| order.push(n));
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut eng: Engine<Ev> = Engine::new();
        for i in 0..100u32 {
            eng.schedule(SimTime::from_secs_f64(1.0), Ev::Tick(i));
        }
        let mut order = Vec::new();
        eng.run(|_, Ev::Tick(n)| order.push(n));
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn payload_needs_no_trait_bounds() {
        // `f64` is not `Eq`; closures are not `Clone`. Both must still work as
        // event payloads since ordering only ever touches the packed key.
        let mut eng: Engine<f64> = Engine::new();
        eng.schedule(SimTime::from_secs_f64(2.0), 2.5);
        eng.schedule(SimTime::from_secs_f64(1.0), f64::NAN);
        let mut seen = Vec::new();
        eng.run(|_, v| seen.push(v));
        assert!(seen[0].is_nan());
        assert_eq!(seen[1], 2.5);
    }

    #[test]
    fn packed_key_preserves_time_then_fifo_order_at_extremes() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(SimTime(u64::MAX), 3);
        eng.schedule(SimTime(u64::MAX), 4);
        eng.schedule(SimTime::ZERO, 1);
        eng.schedule(SimTime::ZERO, 2);
        let mut order = Vec::new();
        eng.run(|_, n| order.push(n));
        assert_eq!(order, vec![1, 2, 3, 4]);
        assert_eq!(eng.now(), SimTime(u64::MAX));
    }

    #[test]
    fn scheduling_in_past_clamps_to_now_and_counts() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule(SimTime::from_secs_f64(5.0), Ev::Tick(0));
        assert_eq!(eng.clamped(), 0);
        let mut times = Vec::new();
        eng.run(|eng, Ev::Tick(n)| {
            if n == 0 {
                eng.schedule(SimTime::from_secs_f64(1.0), Ev::Tick(1));
            }
            times.push((n, eng.now()));
        });
        assert_eq!(times[1], (1, SimTime::from_secs_f64(5.0)));
        assert_eq!(eng.clamped(), 1);
    }

    #[test]
    fn cascading_events_from_handler() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_after(SimDuration::from_secs(1), Ev::Tick(0));
        let mut count = 0;
        eng.run(|eng, Ev::Tick(n)| {
            count += 1;
            if n < 9 {
                eng.schedule_after(SimDuration::from_secs(1), Ev::Tick(n + 1));
            }
        });
        assert_eq!(count, 10);
        assert_eq!(eng.now(), SimTime::from_secs_f64(10.0));
        assert_eq!(eng.processed(), 10);
    }

    #[test]
    fn scheduled_and_processed_counts_survive_clear_and_clone() {
        let mut eng: Engine<Ev> = Engine::new();
        for i in 0..4u32 {
            eng.schedule(SimTime::from_secs_f64(i as f64), Ev::Tick(i));
        }
        eng.run_until(SimTime::from_secs_f64(1.0), |_, _| {});
        assert_eq!((eng.scheduled(), eng.processed()), (4, 2));
        let mut fork = eng.clone();
        assert_eq!((fork.scheduled(), fork.processed()), (4, 2));
        fork.schedule(SimTime::from_secs_f64(9.0), Ev::Tick(9));
        fork.run(|_, _| {});
        assert_eq!((fork.scheduled(), fork.processed()), (5, 5));
        eng.clear();
        assert_eq!((eng.scheduled(), eng.processed()), (4, 2));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut eng: Engine<Ev> = Engine::new();
        for i in 1..=10u32 {
            eng.schedule(SimTime::from_secs_f64(i as f64), Ev::Tick(i));
        }
        let mut seen = 0;
        let drained = eng.run_until(SimTime::from_secs_f64(5.0), |_, _| seen += 1);
        assert!(!drained);
        assert_eq!(seen, 5);
        assert_eq!(eng.pending(), 5);
        let drained = eng.run_until(SimTime::MAX, |_, _| seen += 1);
        assert!(drained);
        assert_eq!(seen, 10);
    }

    #[test]
    fn clone_replays_identical_suffix() {
        fn feed(eng: &mut Engine<u32>, n: u32) {
            if n < 40 {
                eng.schedule_after(SimDuration((n as u64 * 733) % 977 + 1), n + 1);
                if n.is_multiple_of(3) {
                    eng.schedule_after(SimDuration(5), 1000 + n);
                }
            }
        }
        // Reference: run straight through, recording the tail after step 10.
        let mut reference = Engine::<u32>::new();
        reference.schedule(SimTime::ZERO, 0);
        let mut ref_tail = Vec::new();
        let mut steps = 0;
        reference.run(|eng, n| {
            steps += 1;
            if steps > 10 {
                ref_tail.push((eng.now(), n));
            }
            feed(eng, n);
        });

        // Forked: stop after 10 steps, clone, replay the suffix.
        let mut prefix = Engine::<u32>::new();
        prefix.schedule(SimTime::ZERO, 0);
        for _ in 0..10 {
            let n = prefix.step().unwrap();
            feed(&mut prefix, n);
        }
        let mut fork = prefix.clone();
        assert_eq!(fork.processed(), 10);
        assert_eq!(fork.now(), prefix.now());
        assert_eq!(fork.pending(), prefix.pending());
        let mut fork_tail = Vec::new();
        fork.run(|eng, n| {
            fork_tail.push((eng.now(), n));
            feed(eng, n);
        });
        assert_eq!(fork_tail, ref_tail);
        assert_eq!(fork.processed(), reference.processed());

        // The cloned engine is untouched and can itself continue.
        let mut orig_tail = Vec::new();
        prefix.run(|eng, n| {
            orig_tail.push((eng.now(), n));
            feed(eng, n);
        });
        assert_eq!(orig_tail, ref_tail);
    }

    #[test]
    fn clone_resumes_identical_schedule() {
        // A clone carries every pending event under its original key and the
        // parent's sequence counter, so it pops — and schedules — exactly
        // what the parent would, including same-instant FIFO order.
        let mut eng = Engine::<u32>::new();
        for i in 0..20 {
            eng.schedule(SimTime(i / 3 * 11), i as u32);
        }
        for _ in 0..7 {
            eng.step();
        }
        let mut fork = eng.clone();
        assert_eq!(fork.pending(), 13);
        for eng in [&mut eng, &mut fork] {
            eng.schedule(SimTime(66), 100);
        }
        let drain = |eng: &mut Engine<u32>| {
            let mut seen = Vec::new();
            eng.run(|eng, n| seen.push((eng.now(), n)));
            seen
        };
        let (parent, forked) = (drain(&mut eng), drain(&mut fork));
        assert_eq!(forked, parent);
        assert_eq!(forked.iter().map(|&(_, n)| n).take(4).collect::<Vec<_>>(), [7, 8, 9, 10]);
        assert_eq!(fork.processed(), 21);
    }

    #[test]
    fn clone_after_slot_reuse_keeps_the_original_order() {
        // Interleave pops and pushes so the arena recycles slots out of
        // key order: the clone must pop exactly what the original pops, in
        // the same order, and reuse its free slots the same way.
        for seed in 0..32u64 {
            let mut rng = crate::rng::StdRng::seed_from_u64(seed);
            let mut eng = Engine::<u32>::new();
            let mut next = 0u32;
            for _ in 0..200 {
                for _ in 0..rng.gen_range(0..4u32) {
                    eng.schedule_after(SimDuration(rng.gen_range(0..50u64)), next);
                    next += 1;
                }
                if rng.gen_bool(0.6) {
                    eng.step();
                }
            }
            let mut fork = eng.clone();
            assert_eq!(fork.pending(), eng.pending(), "seed {seed}");
            for e in [&mut eng, &mut fork] {
                e.schedule_after(SimDuration(7), u32::MAX);
            }
            let drain = |e: &mut Engine<u32>| {
                let mut seen = Vec::new();
                e.run(|e, n| seen.push((e.now(), n)));
                seen
            };
            assert_eq!(drain(&mut fork), drain(&mut eng), "seed {seed}");
        }
    }

    /// The plain reference the engine must agree with: a `BinaryHeap` of
    /// `(time, seq)` and the same clamp and counters.
    #[derive(Default)]
    struct Oracle {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
        now: u64,
        seq: u64,
        processed: u64,
        clamped: u64,
    }

    impl Oracle {
        fn schedule(&mut self, at: u64) {
            self.clamped += u64::from(at < self.now);
            self.heap.push(std::cmp::Reverse((at.max(self.now), self.seq)));
            self.seq += 1;
        }

        fn pop_at_most(&mut self, deadline: u64) -> Option<u64> {
            let std::cmp::Reverse((at, seq)) = *self.heap.peek()?;
            if at > deadline {
                return None;
            }
            self.heap.pop();
            (self.now, self.processed) = (at, self.processed + 1);
            Some(seq)
        }

        /// Pending `(time, seq)` pairs in pop order.
        fn entries(&self) -> Vec<(u64, u64)> {
            let mut all: Vec<_> = self.heap.iter().map(|r| r.0).collect();
            all.sort_unstable();
            all
        }
    }

    /// Each handled event may schedule follow-ups: some at its own instant
    /// (extending the run being drained), some a little later. Both sides
    /// get the same list, and every payload is its own sequence number.
    fn follow_ups(seq: u64, now: u64) -> Vec<u64> {
        match seq % 6 {
            0 => vec![now, now],
            1 => vec![now + 3],
            2 => vec![now + seq % 4, now],
            _ => vec![],
        }
    }

    fn agree(eng: &Engine<u64>, oracle: &Oracle, ctx: &str) {
        assert_eq!(eng.now().0, oracle.now, "now: {ctx}");
        assert_eq!(eng.pending(), oracle.heap.len(), "pending: {ctx}");
        assert_eq!(eng.processed(), oracle.processed, "processed: {ctx}");
        assert_eq!(eng.scheduled(), oracle.seq, "scheduled: {ctx}");
        assert_eq!(eng.clamped(), oracle.clamped, "clamped: {ctx}");
    }

    #[test]
    fn engine_matches_the_binary_heap_oracle() {
        let mut mid_run_forks = 0;
        for seed in 0..64u64 {
            let mut rng = crate::rng::StdRng::seed_from_u64(seed);
            let mut eng = Engine::<u64>::new();
            let mut oracle = Oracle::default();
            for op in 0..400 {
                let ctx = format!("seed {seed} op {op}");
                // Few distinct instants, so same-instant runs are the norm.
                let at = |rng: &mut crate::rng::StdRng, now: u64| {
                    (now + rng.gen_range(0..6u64)).saturating_sub(rng.gen_range(0..2u64) * 4)
                };
                match rng.gen_range(0..100u32) {
                    // A burst at one instant, sometimes in the past (clamped).
                    0..=24 => {
                        let t = at(&mut rng, oracle.now);
                        for _ in 0..rng.gen_range(1..12u32) {
                            eng.schedule(SimTime(t), eng.scheduled());
                            oracle.schedule(t);
                        }
                    }
                    // Single schedules at scattered instants.
                    25..=44 => {
                        for _ in 0..rng.gen_range(1..4u32) {
                            let t = at(&mut rng, oracle.now);
                            eng.schedule(SimTime(t), eng.scheduled());
                            oracle.schedule(t);
                        }
                    }
                    45..=69 => {
                        for _ in 0..rng.gen_range(1..6u32) {
                            let got = eng.step();
                            assert_eq!(got, oracle.pop_at_most(u64::MAX), "step: {ctx}");
                        }
                    }
                    // A deadline at a pending instant, so it lands inside a
                    // run that its own handler keeps extending.
                    70..=84 => {
                        let deadline = oracle.now + rng.gen_range(0..4u64);
                        let mut seen = Vec::new();
                        let drained = eng.run_until(SimTime(deadline), |e, n| {
                            seen.push((e.now().0, n));
                            for t in follow_ups(n, e.now().0) {
                                e.schedule(SimTime(t), e.scheduled());
                            }
                        });
                        let mut want = Vec::new();
                        while let Some(n) = oracle.pop_at_most(deadline) {
                            want.push((oracle.now, n));
                            for t in follow_ups(n, oracle.now) {
                                oracle.schedule(t);
                            }
                        }
                        assert_eq!(seen, want, "run_until: {ctx}");
                        assert_eq!(drained, oracle.heap.is_empty(), "drained: {ctx}");
                    }
                    // Drain one clone against the oracle's pending events,
                    // then carry on in another.
                    85..=97 => {
                        let mut probe = eng.clone();
                        let pending: Vec<_> =
                            std::iter::from_fn(|| probe.step().map(|n| (probe.now().0, n)))
                                .collect();
                        assert_eq!(pending, oracle.entries(), "clone: {ctx}");
                        let front = oracle.heap.peek().map(|r| r.0 .0);
                        mid_run_forks +=
                            usize::from(oracle.processed > 0 && front == Some(oracle.now));
                        eng = eng.clone();
                    }
                    _ => {
                        eng.clear();
                        oracle.heap.clear();
                    }
                }
                agree(&eng, &oracle, &ctx);
            }
            let rest: Vec<_> = std::iter::from_fn(|| eng.step()).collect();
            let want: Vec<_> = std::iter::from_fn(|| oracle.pop_at_most(u64::MAX)).collect();
            assert_eq!(rest, want, "drain: seed {seed}");
            agree(&eng, &oracle, &format!("seed {seed} drained"));
        }
        assert!(mid_run_forks > 100, "only {mid_run_forks} forks split a same-instant run");
    }

    #[test]
    #[should_panic(expected = "event sequence overflow")]
    fn sequence_past_its_field_panics() {
        let mut eng = Engine::<u32>::new();
        eng.seq = (1 << crate::queue::SEQ_BITS) - 1;
        eng.schedule(SimTime::ZERO, 0); // the last legal sequence number
        eng.schedule(SimTime::ZERO, 1);
    }
}
