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
    /// Rendered length in bytes when no string needs escaping — a lower
    /// bound on what [`TraceEvent::write_json`] appends.
    fn json_len(&self) -> usize {
        let mut n = r#"{"name":"","cat":"","ph":"","ts":,"pid":,"tid":}"#.len()
            + self.name.len()
            + self.cat.len()
            + self.ph.len()
            + json::u64_len(self.ts)
            + json::u64_len(self.pid.into())
            + json::u64_len(self.tid.into());
        if let Some(d) = self.dur {
            n += r#","dur":"#.len() + json::u64_len(d);
        }
        if self.value.is_some() || !self.args.is_empty() {
            let entries = usize::from(self.value.is_some()) + self.args.len();
            n += r#","args":{}"#.len() + entries - 1;
            if let Some(v) = self.value {
                n += r#""value":"#.len() + json::u64_len(v);
            }
            n += self.args.iter().map(|(k, v)| r#""":"""#.len() + k.len() + v.len()).sum::<usize>();
        }
        n
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        json::write_str(out, &self.name);
        out.push_str(",\"cat\":");
        json::write_str(out, &self.cat);
        out.push_str(",\"ph\":");
        json::write_str(out, &self.ph);
        out.push_str(",\"ts\":");
        json::write_u64(out, self.ts);
        if let Some(d) = self.dur {
            out.push_str(",\"dur\":");
            json::write_u64(out, d);
        }
        out.push_str(",\"pid\":");
        json::write_u64(out, self.pid.into());
        out.push_str(",\"tid\":");
        json::write_u64(out, self.tid.into());
        if self.value.is_some() || !self.args.is_empty() {
            out.push_str(",\"args\":{");
            let mut first = true;
            if let Some(v) = self.value {
                out.push_str("\"value\":");
                json::write_u64(out, v);
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
        render(self.trace_events.iter())
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

/// Render `events`, in order, as a `{"traceEvents":[...]}` document into one
/// string sized up front.
fn render<'a>(events: impl Iterator<Item = &'a TraceEvent> + Clone) -> String {
    const HEAD: &str = "{\"traceEvents\":[";
    let len = HEAD.len() + 2 + events.clone().map(|e| e.json_len() + 1).sum::<usize>();
    let mut out = String::with_capacity(len);
    out.push_str(HEAD);
    for (i, e) in events.enumerate() {
        if i > 0 {
            out.push(',');
        }
        e.write_json(&mut out);
    }
    out.push_str("]}");
    out
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

    /// `(ts, index)` of every recorded event, stably sorted by timestamp:
    /// insertion order breaks ties, so same-seed runs export identical
    /// sequences. Each layer records in time order (node by node for the
    /// Gantt and attribution tracks), so the keys arrive as sorted runs,
    /// which the stable sort merges.
    fn sorted_keys(&self) -> Vec<(u64, usize)> {
        let mut keys: Vec<(u64, usize)> =
            self.events.iter().enumerate().map(|(i, e)| (e.ts, i)).collect();
        keys.sort_by_key(|&(ts, _)| ts);
        keys
    }

    /// The collected events, stably sorted by timestamp.
    pub fn export(&self) -> ChromeTrace {
        let trace_events =
            self.sorted_keys().into_iter().map(|(_, i)| self.events[i].clone()).collect();
        ChromeTrace { trace_events }
    }

    /// [`SpanTracer::export`] serialized as Chrome trace JSON, rendered
    /// straight from the recorded events in sorted-key order.
    pub fn export_json(&self) -> String {
        render(self.sorted_keys().iter().map(|&(_, i)| &self.events[i]))
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

    /// The exporter as it was before it rendered from sorted keys: clone the
    /// events, stable-sort the copies by timestamp, and write every number
    /// and escape through `format!`.
    fn oracle_export_json(t: &SpanTracer) -> String {
        fn write_str(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        let mut evs = t.events.clone();
        evs.sort_by_key(|e| e.ts);
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in evs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_str(&mut out, &e.name);
            out.push_str(",\"cat\":");
            write_str(&mut out, &e.cat);
            out.push_str(",\"ph\":");
            write_str(&mut out, &e.ph);
            out.push_str(&format!(",\"ts\":{}", e.ts));
            if let Some(d) = e.dur {
                out.push_str(&format!(",\"dur\":{d}"));
            }
            out.push_str(&format!(",\"pid\":{},\"tid\":{}", e.pid, e.tid));
            if e.value.is_some() || !e.args.is_empty() {
                out.push_str(",\"args\":{");
                let mut first = true;
                if let Some(v) = e.value {
                    out.push_str(&format!("\"value\":{v}"));
                    first = false;
                }
                for (k, v) in &e.args {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    write_str(&mut out, k);
                    out.push(':');
                    write_str(&mut out, v);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// A seeded tracer mixing every event shape: ties on a few timestamps,
    /// the extremes 0 and `u64::MAX`, and strings that need escaping or
    /// are not ASCII.
    fn random_tracer(seed: u64) -> SpanTracer {
        let mut state = seed;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        const TEXT: [&str; 12] = [
            "compute",
            "",
            "say \"hi\"",
            "C:\\tmp\\",
            "line\nbreak\r\ttab",
            "\u{0000}\u{0001}\u{001f}\u{007f}",
            "é",
            "中文 🦀",
            "attr_wait:sync_wait",
            "mixed \u{0008} é \\ \" 中",
            "w12",
            "\u{000c}",
        ];
        let n = (next() % 40) as usize;
        let mut t = SpanTracer::new();
        for _ in 0..n {
            let num = |r: u64| match r % 5 {
                0 => 0,
                1 => u64::MAX,
                2 => r % 7,
                _ => r >> (r % 64),
            };
            let (r, ts) = (next(), num(next()));
            let text = |r: u64| TEXT[(r % TEXT.len() as u64) as usize];
            match r % 4 {
                0 => t.complete(text(next()), text(next()), ts, num(next()), next() as u32),
                1 => {
                    let args: Vec<(&str, &str)> =
                        (0..next() % 4).map(|_| (text(next()), text(next()))).collect();
                    t.instant(text(next()), text(next()), ts, next() as u32, &args);
                }
                2 => t.counter(text(next()), text(next()), ts, next() as u32, num(next())),
                _ => {
                    // Any field combination, as `extend` accepts it.
                    let opt = |r: u64| r.is_multiple_of(2).then(|| num(r >> 1));
                    let args = (0..next() % 3)
                        .map(|_| (text(next()).to_string(), text(next()).to_string()))
                        .collect();
                    t.extend(vec![TraceEvent {
                        name: text(next()).into(),
                        cat: text(next()).into(),
                        ph: text(next()).into(),
                        ts,
                        dur: opt(next()),
                        pid: next() as u32,
                        tid: if next().is_multiple_of(2) { u32::MAX } else { 0 },
                        value: opt(next()),
                        args,
                    }]);
                }
            }
        }
        t
    }

    #[test]
    fn export_json_matches_the_oracle_byte_for_byte() {
        assert_eq!(SpanTracer::new().export_json(), oracle_export_json(&SpanTracer::new()));
        let mut ties = false;
        for seed in 0..256 {
            let t = random_tracer(seed);
            let json = t.export_json();
            assert_eq!(json, oracle_export_json(&t), "seed {seed}");
            assert_eq!(json, t.export().to_json(), "seed {seed}");
            let ts: Vec<u64> = t.events.iter().map(|e| e.ts).collect();
            ties |= (1..ts.len()).any(|i| ts[..i].contains(&ts[i]));
            // The up-front size is exact unless a string needed escaping.
            for e in &t.events {
                let mut one = String::new();
                e.write_json(&mut one);
                let clean = [&e.name, &e.cat, &e.ph]
                    .into_iter()
                    .chain(e.args.iter().flat_map(|(k, v)| [k, v]))
                    .all(|s| !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\'));
                assert!(e.json_len() <= one.len(), "seed {seed}: {one}");
                assert!(!clean || e.json_len() == one.len(), "seed {seed}: {one}");
            }
        }
        assert!(ties, "the seeds must produce timestamp ties");
    }
}
