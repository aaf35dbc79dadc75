//! Cycle-level event tracing: a sampled, bounded ring buffer.
//!
//! Tracing is for *looking at* a run, not aggregating it — the counters and
//! histograms carry the aggregates. The trace therefore keeps only the most
//! recent `capacity` sampled events (a flight recorder), and sampling keeps
//! the recording cost negligible: with `sample_every = N`, only every N-th
//! event is stored.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::json;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The front-end redirected fetch (any cause/stage).
    Resteer,
    /// A shadow branch entered the SBB.
    SbbInsert,
    /// An SBB entry was displaced or invalidated.
    SbbEvict,
    /// An SBB hit rescued a BTB miss (no resteer needed).
    SbbRescue,
    /// A branch missed the BTB at prediction time.
    BtbMiss,
    /// FDIP issued a line prefetch.
    PrefetchIssue,
    /// The shadow decoder examined a head/tail region.
    ShadowDecode,
}

impl EventKind {
    /// Every kind, in serialization order.
    pub const ALL: [EventKind; 7] = [
        EventKind::Resteer,
        EventKind::SbbInsert,
        EventKind::SbbEvict,
        EventKind::SbbRescue,
        EventKind::BtbMiss,
        EventKind::PrefetchIssue,
        EventKind::ShadowDecode,
    ];

    /// Stable wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Resteer => "resteer",
            EventKind::SbbInsert => "sbb_insert",
            EventKind::SbbEvict => "sbb_evict",
            EventKind::SbbRescue => "sbb_rescue",
            EventKind::BtbMiss => "btb_miss",
            EventKind::PrefetchIssue => "prefetch_issue",
            EventKind::ShadowDecode => "shadow_decode",
        }
    }

    /// Inverse of [`EventKind::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One sampled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulator cycle at which the event occurred.
    pub cycle: u64,
    /// Event class.
    pub kind: EventKind,
    /// Program counter (or line address) the event concerns.
    pub pc: u64,
    /// Kind-specific argument (resteer stage, branch-kind index, residency…).
    pub arg: u64,
}

/// Trace geometry and sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring-buffer capacity: the trace keeps at most this many events,
    /// discarding the oldest.
    pub capacity: usize,
    /// Keep one event in every `sample_every` (1 = keep all).
    pub sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 64 * 1024,
            sample_every: 1,
        }
    }
}

impl TraceConfig {
    /// A sampled configuration.
    #[must_use]
    pub fn sampled(sample_every: u64, capacity: usize) -> Self {
        TraceConfig {
            capacity,
            sample_every: sample_every.max(1),
        }
    }
}

#[derive(Debug)]
struct Inner {
    config: TraceConfig,
    buf: VecDeque<Event>,
    /// Events offered (before sampling).
    seen: u64,
    /// Sampled events displaced by the ring bound.
    dropped: u64,
}

/// The shared recording handle. Clones share the buffer.
#[derive(Debug, Clone)]
pub struct EventTrace(Rc<RefCell<Inner>>);

impl EventTrace {
    /// An empty trace.
    #[must_use]
    pub fn new(config: TraceConfig) -> Self {
        let config = TraceConfig {
            capacity: config.capacity.max(1),
            sample_every: config.sample_every.max(1),
        };
        EventTrace(Rc::new(RefCell::new(Inner {
            config,
            buf: VecDeque::with_capacity(config.capacity.min(4096)),
            seen: 0,
            dropped: 0,
        })))
    }

    /// Offer one event; it is stored if it falls on the sampling grid.
    #[inline]
    pub fn record(&self, cycle: u64, kind: EventKind, pc: u64, arg: u64) {
        let mut t = self.0.borrow_mut();
        t.seen += 1;
        if !t.seen.is_multiple_of(t.config.sample_every) {
            return;
        }
        if t.buf.len() >= t.config.capacity {
            t.buf.pop_front();
            t.dropped += 1;
        }
        t.buf.push_back(Event {
            cycle,
            kind,
            pc,
            arg,
        });
    }

    /// Events offered so far (sampled or not).
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.0.borrow().seen
    }

    /// Sampled events lost to the ring bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.0.borrow().dropped
    }

    /// Resident events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.0.borrow().buf.iter().copied().collect()
    }

    /// Resident event count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.borrow().buf.len()
    }

    /// Whether no events are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.borrow().buf.is_empty()
    }
}

/// Render events as Chrome `trace_event` JSON (load via `chrome://tracing`
/// or Perfetto). Cycles are mapped 1:1 onto microseconds.
#[must_use]
pub fn to_chrome_trace(events: &[Event]) -> String {
    to_chrome_trace_full(events, &[], "")
}

/// Render instant events **and** profiling spans as one Chrome
/// `trace_event` document: spans become `X` (complete) events laid out per
/// thread with real wall-clock timestamps (ns mapped onto the trace's µs
/// axis), instant events keep their cycle timestamps on `pid` 2 so the two
/// time domains never share a row. `process_name` labels the span process
/// (e.g. the experiment binary) via a metadata event when non-empty.
#[must_use]
pub fn to_chrome_trace_full(
    events: &[Event],
    spans: &[crate::span::SpanRecord],
    process_name: &str,
) -> String {
    let mut out = String::with_capacity(events.len() * 96 + spans.len() * 128 + 128);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };
    if !process_name.is_empty() {
        sep(&mut out);
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":",
        );
        json::push_str(&mut out, process_name);
        out.push_str("}}");
    }
    for s in spans {
        sep(&mut out);
        out.push_str("{\"name\":");
        json::push_str(&mut out, &s.name);
        // Chrome's ts/dur unit is microseconds; keep ns precision as a
        // fraction (trailing .000 elided when exact).
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\
             \"pid\":1,\"tid\":{},\"args\":{{\"depth\":{}}}}}",
            s.start_ns / 1000,
            s.start_ns % 1000,
            s.dur_ns / 1000,
            s.dur_ns % 1000,
            s.thread,
            s.depth
        );
    }
    for e in events {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":2,\"tid\":1,\"s\":\"t\",\
             \"args\":{{\"pc\":\"{:#x}\",\"arg\":{}}}}}",
            e.kind.name(),
            e.cycle,
            e.pc,
            e.arg
        );
    }
    out.push_str("]}");
    out
}

/// Render events as JSONL: one `{"cycle":…,"kind":…,"pc":…,"arg":…}` per line.
#[must_use]
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 64);
    for e in events {
        let _ = writeln!(
            out,
            "{{\"cycle\":{},\"kind\":\"{}\",\"pc\":{},\"arg\":{}}}",
            e.cycle,
            e.kind.name(),
            e.pc,
            e.arg
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bound_drops_oldest() {
        let t = EventTrace::new(TraceConfig {
            capacity: 3,
            sample_every: 1,
        });
        for c in 0..5u64 {
            t.record(c, EventKind::Resteer, 0x100 + c, 0);
        }
        let ev = t.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].cycle, 2, "oldest two displaced");
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.seen(), 5);
    }

    #[test]
    fn sampling_keeps_every_nth() {
        let t = EventTrace::new(TraceConfig {
            capacity: 1000,
            sample_every: 10,
        });
        for c in 1..=100u64 {
            t.record(c, EventKind::BtbMiss, c, 0);
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.seen(), 100);
        assert!(t.events().iter().all(|e| e.cycle % 10 == 0));
    }

    #[test]
    fn chrome_and_jsonl_render() {
        let t = EventTrace::new(TraceConfig::default());
        t.record(7, EventKind::SbbRescue, 0x40, 2);
        let chrome = to_chrome_trace(&t.events());
        assert!(chrome.contains("\"name\":\"sbb_rescue\""));
        assert!(chrome.contains("\"ts\":7"));
        assert!(chrome.starts_with('{') && chrome.ends_with('}'));
        let jsonl = to_jsonl(&t.events());
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"kind\":\"sbb_rescue\""));
    }

    #[test]
    fn chrome_trace_full_renders_spans_as_complete_events() {
        let spans = vec![
            crate::span::SpanRecord {
                name: "sweep.prepare".into(),
                thread: 0,
                depth: 0,
                start_ns: 1_500,
                dur_ns: 2_000_123,
            },
            crate::span::SpanRecord {
                name: "sim.job:tpcc".into(),
                thread: 3,
                depth: 1,
                start_ns: 5_000,
                dur_ns: 250,
            },
        ];
        let t = EventTrace::new(TraceConfig::default());
        t.record(9, EventKind::BtbMiss, 0x80, 0);
        let doc = to_chrome_trace_full(&t.events(), &spans, "fig01");
        assert!(doc.contains("\"name\":\"process_name\""));
        assert!(doc.contains("\"args\":{\"name\":\"fig01\"}"));
        assert!(
            doc.contains("\"name\":\"sweep.prepare\",\"ph\":\"X\",\"ts\":1.500,\"dur\":2000.123")
        );
        assert!(doc.contains("\"tid\":3"), "span thread becomes the tid");
        assert!(doc.contains("\"depth\":1"));
        assert!(doc.contains("\"name\":\"btb_miss\""), "instant events kept");
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        // Spans-only export (no process name) is also valid.
        let bare = to_chrome_trace_full(&[], &spans, "");
        assert!(!bare.contains("process_name"));
        assert!(bare.starts_with("{\"displayTimeUnit\""));
    }

    /// Span and process names are JSON strings, escaped like any other:
    /// a quote or backslash in a name still yields a parseable document.
    #[test]
    fn chrome_trace_escapes_names() {
        let span = crate::span::SpanRecord {
            name: "sim.job:a\"b\\c".into(),
            thread: 0,
            depth: 0,
            start_ns: 0,
            dur_ns: 1,
        };
        let doc = to_chrome_trace_full(&[], &[span], "suite \"x\"");
        let v = json::JsonValue::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let process = events[0].get("args").and_then(|a| a.get("name"));
        assert_eq!(
            process.and_then(json::JsonValue::as_str),
            Some("suite \"x\"")
        );
        let span = events[1].get("name").and_then(json::JsonValue::as_str);
        assert_eq!(span, Some("sim.job:a\"b\\c"));
    }

    #[test]
    fn kind_names_round_trip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(EventKind::from_name("nope"), None);
    }
}
