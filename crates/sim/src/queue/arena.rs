//! Slab storage for pending event payloads.
//!
//! The engine keeps payloads here and routes only slot handles through the
//! event queue (packed into each heap entry's low bits): pushes reuse freed
//! slots via an intrusive free list, so
//! steady-state scheduling performs zero allocations no matter how large the
//! payload type is.

/// Sentinel for "no next free slot".
const NIL: u32 = u32::MAX;

#[derive(Debug)]
enum Slot<E> {
    Full(E),
    /// Freed slot, linking to the next free slot (or [`NIL`]).
    Free(u32),
}

/// A slab of event payloads with an intrusive free list.
#[derive(Debug)]
pub struct Arena<E> {
    slots: Vec<Slot<E>>,
    free_head: u32,
}

impl<E> Default for Arena<E> {
    fn default() -> Self {
        Arena { slots: Vec::new(), free_head: NIL }
    }
}

impl<E> Arena<E> {
    /// Store `ev`, returning its slot handle. Reuses a freed slot when one
    /// exists; only grows (allocates) when the arena is at capacity.
    pub fn insert(&mut self, ev: E) -> u32 {
        if self.free_head != NIL {
            let slot = self.free_head;
            match std::mem::replace(&mut self.slots[slot as usize], Slot::Full(ev)) {
                Slot::Free(next) => self.free_head = next,
                Slot::Full(_) => unreachable!("free list pointed at an occupied slot"),
            }
            slot
        } else {
            assert!(self.slots.len() < NIL as usize, "event arena overflow");
            self.slots.push(Slot::Full(ev));
            (self.slots.len() - 1) as u32
        }
    }

    /// Remove and return the payload at `slot`, recycling the slot.
    pub fn remove(&mut self, slot: u32) -> E {
        match std::mem::replace(&mut self.slots[slot as usize], Slot::Free(self.free_head)) {
            Slot::Full(ev) => {
                self.free_head = slot;
                ev
            }
            Slot::Free(_) => panic!("double free of arena slot {slot}"),
        }
    }

    /// Read the payload at `slot` without removing it (for snapshots).
    pub fn get(&self, slot: u32) -> &E {
        match &self.slots[slot as usize] {
            Slot::Full(ev) => ev,
            Slot::Free(_) => panic!("read of freed arena slot {slot}"),
        }
    }

    /// Drop every payload and reset the slab (capacity retained).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free_head = NIL;
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
        assert_eq!(a.remove(s0), "a");
        // The freed slot is reused before the slab grows.
        let s2 = a.insert("c".into());
        assert_eq!(s2, s0);
        assert_eq!(a.get(s1), "b");
        assert_eq!(a.get(s2), "c");
        assert_eq!(a.remove(s1), "b");
        assert_eq!(a.remove(s2), "c");
        // Free-list order: last freed, first reused.
        assert_eq!(a.insert("d".into()), s2);
        assert_eq!(a.insert("e".into()), s1);
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
