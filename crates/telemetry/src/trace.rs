//! Structured span tracing, exported in the Chrome trace-event JSON format so
//! that a run's timeline can be loaded directly into Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Timestamps are the simulator's virtual microseconds, which keeps exports
//! bit-for-bit reproducible across same-seed runs.

use crate::json::{self, Json};
use std::collections::BTreeMap;

/// One event in the Chrome trace-event format. Only the fields the viewers
/// actually consume are modelled: `ph = "X"` (complete span, with `dur`),
/// `ph = "i"` (instant) and `ph = "C"` (counter sample, with `value`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub name: String,
    /// Category — the layer that emitted the event (`engine`, `dds`,
    /// `controller`, `chaos`, …). Viewers use it for filtering.
    pub cat: String,
    /// Phase: `"X"` for complete spans, `"i"` for instants, `"C"` for
    /// counter samples.
    pub ph: String,
    /// Start timestamp in microseconds of virtual time.
    pub ts: u64,
    /// Duration in microseconds; present only on `"X"` events.
    pub dur: Option<u64>,
    /// Process id; the whole job is one process.
    pub pid: u32,
    /// Thread id; one lane per node.
    pub tid: u32,
    /// Counter value; present only on `"C"` events, rendered as the numeric
    /// `args.value` Perfetto expects for counter tracks.
    pub value: Option<u64>,
    /// Free-form arguments shown in the viewer's detail pane.
    pub args: BTreeMap<String, String>,
}

/// Top-level Chrome trace document: `{"traceEvents": [...]}`. Parseable back
/// via [`ChromeTrace::from_json`] so tests can round-trip an export and
/// validate the schema.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChromeTrace {
    pub trace_events: Vec<TraceEvent>,
}

impl TraceEvent {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        json::write_str(out, &self.name);
        out.push_str(",\"cat\":");
        json::write_str(out, &self.cat);
        out.push_str(",\"ph\":");
        json::write_str(out, &self.ph);
        out.push_str(&format!(",\"ts\":{}", self.ts));
        if let Some(d) = self.dur {
            out.push_str(&format!(",\"dur\":{d}"));
        }
        out.push_str(&format!(",\"pid\":{},\"tid\":{}", self.pid, self.tid));
        if self.value.is_some() || !self.args.is_empty() {
            out.push_str(",\"args\":{");
            let mut first = true;
            if let Some(v) = self.value {
                out.push_str(&format!("\"value\":{v}"));
                first = false;
            }
            for (k, v) in &self.args {
                if !first {
                    out.push(',');
                }
                first = false;
                json::write_str(out, k);
                out.push(':');
                json::write_str(out, v);
            }
            out.push('}');
        }
        out.push('}');
    }

    fn from_json(v: &Json) -> Result<TraceEvent, String> {
        let field_str = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("trace event missing string field `{key}`"))
        };
        let field_u64 = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("trace event missing integer field `{key}`"))
        };
        let dur = match v.get("dur") {
            Some(d) => Some(d.as_u64().ok_or("`dur` must be a non-negative integer")?),
            None => None,
        };
        let mut value = None;
        let args = match v.get("args") {
            Some(a) => {
                let obj = a.as_object().ok_or("`args` must be an object")?;
                let mut map = BTreeMap::new();
                for (k, val) in obj {
                    // The numeric `value` arg is the counter-track payload;
                    // everything else stays a string argument.
                    if k == "value" {
                        if let Some(n) = val.as_u64() {
                            value = Some(n);
                            continue;
                        }
                    }
                    let s = val.as_str().ok_or_else(|| format!("arg `{k}` must be a string"))?;
                    map.insert(k.clone(), s.to_string());
                }
                map
            }
            None => BTreeMap::new(),
        };
        Ok(TraceEvent {
            name: field_str("name")?,
            cat: field_str("cat")?,
            ph: field_str("ph")?,
            ts: field_u64("ts")?,
            dur,
            pid: field_u64("pid")? as u32,
            tid: field_u64("tid")? as u32,
            value,
            args,
        })
    }
}

impl ChromeTrace {
    /// Serialize to Chrome trace-event JSON (deterministic field order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.trace_events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            e.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Parse a Chrome trace-event JSON document — the schema-validation half
    /// of the round-trip tests.
    pub fn from_json(s: &str) -> Result<ChromeTrace, String> {
        let v = json::parse(s)?;
        let evs = v
            .get("traceEvents")
            .and_then(Json::as_array)
            .ok_or("document must carry a `traceEvents` array")?;
        let trace_events = evs.iter().map(TraceEvent::from_json).collect::<Result<Vec<_>, _>>()?;
        Ok(ChromeTrace { trace_events })
    }
}

/// Collects [`TraceEvent`]s during a run. Owned by one job's event loop,
/// so recording takes `&mut self` and a clone (a forked job) carries its
/// own copy of the events so far.
#[derive(Debug, Default, Clone)]
pub struct SpanTracer {
    events: Vec<TraceEvent>,
}

impl SpanTracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a complete span (`ph = "X"`).
    pub fn complete(&mut self, name: &str, cat: &str, ts: u64, dur: u64, tid: u32) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: "X".into(),
            ts,
            dur: Some(dur),
            pid: 0,
            tid,
            value: None,
            args: BTreeMap::new(),
        });
    }

    /// Record an instant event (`ph = "i"`) with optional arguments.
    pub fn instant(&mut self, name: &str, cat: &str, ts: u64, tid: u32, args: &[(&str, &str)]) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: "i".into(),
            ts,
            dur: None,
            pid: 0,
            tid,
            value: None,
            args: args.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        });
    }

    /// Record a counter sample (`ph = "C"`). Perfetto renders one counter
    /// track per `(name, tid)` pair from the numeric `args.value` payload.
    pub fn counter(&mut self, name: &str, cat: &str, ts: u64, tid: u32, value: u64) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: "C".into(),
            ts,
            dur: None,
            pid: 0,
            tid,
            value: Some(value),
            args: BTreeMap::new(),
        });
    }

    /// Append externally produced events (e.g. a converted Gantt chart).
    pub fn extend(&mut self, events: Vec<TraceEvent>) {
        self.events.extend(events);
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Estimated heap bytes of the recorded events (the event buffer plus
    /// each event's strings and arguments) — what a clone allocates.
    pub fn estimate_bytes(&self) -> usize {
        let strings = |e: &TraceEvent| {
            e.name.capacity()
                + e.cat.capacity()
                + e.ph.capacity()
                + e.args.iter().map(|(k, v)| k.capacity() + v.capacity()).sum::<usize>()
        };
        self.events.capacity() * std::mem::size_of::<TraceEvent>()
            + self.events.iter().map(strings).sum::<usize>()
    }

    /// The collected events, stably sorted by timestamp (insertion order breaks
    /// ties, so same-seed runs export identical sequences).
    pub fn export(&self) -> ChromeTrace {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.ts);
        ChromeTrace { trace_events: evs }
    }

    /// [`SpanTracer::export`] serialized as Chrome trace JSON.
    pub fn export_json(&self) -> String {
        self.export().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_round_trips_through_chrome_schema() {
        let mut t = SpanTracer::new();
        t.complete("compute", "gantt", 100, 50, 3);
        t.instant("kill", "lifecycle", 120, 1, &[("node", "w1")]);
        t.counter("attr_wait:sync_wait", "attr", 150, 2, 9_000);
        let json = t.export_json();
        let parsed = ChromeTrace::from_json(&json).expect("valid trace JSON");
        assert_eq!(parsed, t.export());
        assert_eq!(parsed.trace_events.len(), 3);
        assert_eq!(parsed.trace_events[0].ph, "X");
        assert_eq!(parsed.trace_events[0].dur, Some(50));
        assert_eq!(parsed.trace_events[1].args["node"], "w1");
        assert_eq!(parsed.trace_events[2].ph, "C");
        assert_eq!(parsed.trace_events[2].value, Some(9_000));
        assert!(json.contains("\"args\":{\"value\":9000}"));
    }

    #[test]
    fn export_sorts_by_timestamp_with_stable_ties() {
        let mut t = SpanTracer::new();
        t.instant("b", "x", 200, 0, &[]);
        t.instant("a1", "x", 100, 0, &[]);
        t.instant("a2", "x", 100, 0, &[]);
        let exported = t.export();
        let names: Vec<&str> = exported.trace_events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a1", "a2", "b"]);
    }
}
