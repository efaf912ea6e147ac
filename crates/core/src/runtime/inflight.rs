//! The control bus's in-flight table: messages keyed by their bus seq.
//!
//! Seqs are allocated monotonically and messages mostly land in order, so
//! the table is a deque indexed by `seq - base` with a `None` hole for every
//! seq not in flight; holes at the front are popped as the front lands. A
//! retry re-parks its seq only after removing it, by which time the base may
//! have moved past it, so an insert below the base grows the window at the
//! front.

use std::collections::VecDeque;

/// Messages in flight, keyed by bus seq.
#[derive(Clone)]
pub(crate) struct InFlight<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> Default for InFlight<T> {
    fn default() -> Self {
        InFlight { base: 0, slots: VecDeque::new() }
    }
}

impl<T> InFlight<T> {
    /// Park `msg` under `seq`, replacing any message already there.
    pub(crate) fn insert(&mut self, seq: u64, msg: T) {
        if self.slots.is_empty() {
            self.base = seq;
        }
        while seq < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let i = (seq - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i] = Some(msg);
    }

    /// Take the message parked under `seq`, if any.
    pub(crate) fn remove(&mut self, seq: u64) -> Option<T> {
        let i = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        let msg = self.slots.get_mut(i)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        msg
    }
}

#[cfg(test)]
mod tests {
    use super::InFlight;
    use antdt_sim::rng::StdRng;
    use std::collections::BTreeMap;

    #[test]
    fn out_of_order_landings_and_a_retry_below_the_base() {
        let mut t = InFlight::default();
        for seq in 10..14 {
            t.insert(seq, seq);
        }
        assert_eq!(t.remove(12), Some(12), "a later seq lands first");
        assert_eq!(t.remove(12), None);
        assert_eq!(t.remove(10), Some(10));
        assert_eq!(t.remove(11), Some(11));
        assert_eq!(t.base, 13, "the hole left by 12 is popped with the front");
        t.insert(10, 99); // the retry of an earlier front seq
        assert_eq!((t.base, t.slots.len()), (10, 4));
        assert_eq!(t.remove(9), None);
        assert_eq!(t.remove(14), None);
        assert_eq!(t.remove(13), Some(13));
        assert_eq!(t.remove(10), Some(99));
        assert!(t.slots.is_empty());
        // An empty table re-anchors at the next seq instead of padding.
        t.insert(1 << 40, 7);
        assert_eq!((t.base, t.slots.len()), (1 << 40, 1));
    }

    /// Random landings and retries against a `BTreeMap` model.
    #[test]
    fn matches_a_map_model() {
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut t, mut model) = (InFlight::default(), BTreeMap::new());
            let mut next = rng.gen_range(0..1_000u64);
            for step in 0..2_000u32 {
                let seq = if rng.gen_bool(0.5) {
                    next += rng.gen_range(1..4u64);
                    next
                } else {
                    // An earlier seq: a landing if it is in flight, else a
                    // stale lookup or a retry re-parking it.
                    next.saturating_sub(rng.gen_range(0..64u64))
                };
                if model.contains_key(&seq) || rng.gen_bool(0.3) {
                    let want = model.remove(&seq);
                    assert_eq!(t.remove(seq), want, "seed {seed} step {step}: remove {seq}");
                } else {
                    t.insert(seq, step);
                    model.insert(seq, step);
                }
            }
            while let Some((seq, want)) = model.pop_first() {
                assert_eq!(t.remove(seq), Some(want), "seed {seed}: drain {seq}");
            }
            assert!(t.slots.is_empty(), "seed {seed}: holes left behind");
        }
    }
}
