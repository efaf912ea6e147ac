//! The flight recorder: a bounded ring buffer of the most recent runtime
//! events, dumped when something goes wrong (the liveness watchdog declares
//! `stalled`, or a chaos invariant fails) so a bad verdict comes with the
//! event history that led up to it.

use crate::json;
use std::collections::VecDeque;

/// One recorded event. `seq` is a global record index, so a dump makes clear
/// how many events preceded the retained window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    pub seq: u64,
    /// Virtual time in microseconds.
    pub at_us: u64,
    /// Source layer: `event`, `lifecycle`, `chaos`, `controller`, …
    pub category: String,
    pub detail: String,
}

/// A snapshot of the ring at dump time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Why the dump was taken: `stalled`, `invariant-failed`, `completed`.
    pub reason: String,
    /// Events evicted before the dump (total recorded − retained).
    pub dropped: u64,
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// The dump as a JSON document (deterministic field order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"reason\":");
        json::write_str(&mut out, &self.reason);
        out.push_str(&format!(",\"dropped\":{},\"events\":[", self.dropped));
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"seq\":{},\"at_us\":{},\"category\":", e.seq, e.at_us));
            json::write_str(&mut out, &e.category);
            out.push_str(",\"detail\":");
            json::write_str(&mut out, &e.detail);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Capacity-bounded recorder; `record` is O(1) and old events are evicted
/// silently (counted in [`FlightDump::dropped`]). Owned by one job's event
/// loop, like [`crate::SpanTracer`].
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    ring: VecDeque<FlightEvent>,
}

impl FlightRecorder {
    pub const DEFAULT_CAPACITY: usize = 256;

    pub fn new(capacity: usize) -> Self {
        FlightRecorder { capacity: capacity.max(1), next_seq: 0, dropped: 0, ring: VecDeque::new() }
    }

    pub fn record(&mut self, at_us: u64, category: &str, detail: String) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ring.push_back(FlightEvent { seq, at_us, category: category.to_string(), detail });
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Estimated heap bytes of the ring (slots plus each event's strings) —
    /// what a clone allocates.
    pub fn estimate_bytes(&self) -> usize {
        self.ring.capacity() * std::mem::size_of::<FlightEvent>()
            + self.ring.iter().map(|e| e.category.capacity() + e.detail.capacity()).sum::<usize>()
    }

    /// Snapshot the ring without consuming it.
    pub fn dump(&self, reason: &str) -> FlightDump {
        FlightDump {
            reason: reason.to_string(),
            dropped: self.dropped,
            events: self.ring.iter().cloned().collect(),
        }
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record(i * 10, "event", format!("ev{i}"));
        }
        let d = fr.dump("stalled");
        assert_eq!(d.reason, "stalled");
        assert_eq!(d.dropped, 2);
        assert_eq!(d.events.len(), 3);
        assert_eq!(d.events[0].seq, 2);
        assert_eq!(d.events[2].detail, "ev4");
    }

    #[test]
    fn dump_serializes_to_parseable_json() {
        use crate::json::{self as js, Json};
        let mut fr = FlightRecorder::new(8);
        fr.record(1, "lifecycle", "worker \"w0\" start".into());
        let d = fr.dump("completed");
        let v = js::parse(&d.to_json()).expect("flight dump JSON parses");
        assert_eq!(v.get("reason").and_then(Json::as_str), Some("completed"));
        assert_eq!(v.get("dropped").and_then(Json::as_u64), Some(0));
        let evs = v.get("events").and_then(Json::as_array).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].get("detail").and_then(Json::as_str), Some("worker \"w0\" start"));
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut fr = FlightRecorder::new(0);
        fr.record(0, "event", "a".into());
        fr.record(1, "event", "b".into());
        let d = fr.dump("x");
        assert_eq!(d.events.len(), 1);
        assert_eq!(d.events[0].detail, "b");
    }
}
