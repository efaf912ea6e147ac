//! Slab storage for pending event payloads.
//!
//! The engine keeps payloads here and routes only slot handles through the
//! event queue (packed into each heap entry's low bits). Each slot also holds
//! the link to the next member of its same-instant run (see
//! [`super::EventQueue`]). Freed slots go on a stack of their own, so a push
//! reuses the most recently freed slot without reading the freed slot's
//! memory first, and steady-state scheduling performs zero allocations no
//! matter how large the payload type is.

/// Sentinel for "no next slot".
pub(crate) const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot<E> {
    /// The payload, or `None` once the slot is freed.
    ev: Option<E>,
    /// The next member of this slot's run, or [`NIL`].
    next: u32,
}

/// A slab of event payloads with a stack of free slots.
#[derive(Debug, Clone)]
pub struct Arena<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
}

impl<E> Default for Arena<E> {
    fn default() -> Self {
        Arena { slots: Vec::new(), free: Vec::new() }
    }
}

impl<E> Arena<E> {
    /// Store `ev` with no run successor, returning its slot handle. Reuses
    /// the most recently freed slot when one exists; only grows (allocates)
    /// when the arena is at capacity.
    pub fn insert(&mut self, ev: E) -> u32 {
        let slot = Slot { ev: Some(ev), next: NIL };
        match self.free.pop() {
            Some(free) => {
                self.slots[free as usize] = slot;
                free
            }
            None => {
                assert!(self.slots.len() < NIL as usize, "event arena overflow");
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Make `next` the run successor of the payload at `slot`.
    pub fn link(&mut self, slot: u32, next: u32) {
        self.slots[slot as usize].next = next;
    }

    /// Remove and return the payload at `slot` with its run successor (or
    /// [`NIL`]), recycling the slot.
    pub fn remove(&mut self, slot: u32) -> (E, u32) {
        let s = &mut self.slots[slot as usize];
        let ev = s.ev.take().unwrap_or_else(|| panic!("double free of arena slot {slot}"));
        self.free.push(slot);
        (ev, s.next)
    }

    /// Drop every payload and reset the slab (capacity retained).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_recycled_not_grown() {
        let mut a: Arena<String> = Arena::default();
        let s0 = a.insert("a".into());
        let s1 = a.insert("b".into());
        assert_eq!(a.remove(s0), ("a".into(), NIL));
        // The freed slot is reused before the slab grows.
        let s2 = a.insert("c".into());
        assert_eq!(s2, s0);
        assert_eq!(a.remove(s1).0, "b");
        assert_eq!(a.remove(s2).0, "c");
        // Free-stack order: last freed, first reused.
        assert_eq!(a.insert("d".into()), s2);
        assert_eq!(a.insert("e".into()), s1);
    }

    #[test]
    fn links_travel_with_the_payload_and_reset_on_reuse() {
        let mut a: Arena<u8> = Arena::default();
        let (s0, s1) = (a.insert(0), a.insert(1));
        a.link(s0, s1);
        assert_eq!(a.remove(s0), (0, s1));
        // A reused slot starts a run of its own.
        assert_eq!(a.insert(2), s0);
        assert_eq!(a.remove(s0), (2, NIL));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a: Arena<u8> = Arena::default();
        let s = a.insert(1);
        a.remove(s);
        a.remove(s);
    }
}
