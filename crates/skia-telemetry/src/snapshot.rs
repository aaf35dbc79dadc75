//! The telemetry store: named counters, gauges and histograms, the event
//! window and profiling spans of a run, and their JSON form.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::histogram::HistogramSnapshot;
use crate::json::{self, Number, Reader};
use crate::span::{self, SpanRecord, SpanRollup};
use crate::trace::{Event, EventKind};

/// Everything a run reported at one instant: counters, gauges, histogram
/// contents, and the resident event-trace window.
///
/// Components write their plain stats into a fresh snapshot when one is
/// taken. Snapshots are plain data — comparable, mergeable, and
/// serializable — so experiment binaries can write them to
/// `results/*.json` and tests can assert on them directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `name → value` for every counter.
    pub counters: BTreeMap<String, u64>,
    /// `name → value` for every gauge.
    pub gauges: BTreeMap<String, f64>,
    /// `name → materialized histogram` for every histogram.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Resident sampled events, oldest first (empty when tracing is off).
    pub events: Vec<Event>,
    /// Events offered to the trace before sampling.
    pub events_seen: u64,
    /// Sampled events displaced by the ring bound.
    pub events_dropped: u64,
    /// Completed profiling spans (empty unless the emitter drained the
    /// process-wide span collector into this snapshot; see
    /// [`crate::span`](mod@crate::span)).
    pub spans: Vec<SpanRecord>,
}

impl Snapshot {
    /// Value of a counter, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Value of a gauge, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram's materialization, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Aggregate the resident profiling spans per name (count/total/min/
    /// max) — the per-phase breakdown run manifests are built from.
    #[must_use]
    pub fn span_rollup(&self) -> BTreeMap<String, SpanRollup> {
        span::rollup(&self.spans)
    }

    /// Compress every non-zero counter into a behavioural-coverage feature:
    /// FNV-1a of the counter name mixed with the value's magnitude bucket
    /// (⌊log₂⌋, so a counter yields a new feature each time it crosses a
    /// power of two rather than on every increment). Fuzzers use the set of
    /// features seen across runs as a cheap "did this input exercise new
    /// behaviour?" signal, exactly like edge-coverage maps but over the
    /// counters the simulator already exports. Deterministic across runs
    /// and platforms.
    #[must_use]
    pub fn counter_features(&self) -> Vec<u64> {
        self.counters
            .iter()
            .filter(|&(_, &v)| v > 0)
            .map(|(name, &v)| {
                let mut bytes = Vec::with_capacity(name.len() + 2);
                bytes.extend_from_slice(name.as_bytes());
                bytes.push(0xFE); // separator: name bytes never collide with bucket
                bytes.push(v.ilog2() as u8);
                crate::fnv1a(&bytes)
            })
            .collect()
    }

    /// Fold another snapshot into this one: counters and histogram buckets
    /// add, gauges take the other's value when present, events concatenate.
    /// The `--emit-json` emitter folds every run of a process into one
    /// snapshot this way.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            let dst = self.histograms.entry(k.clone()).or_default();
            for (&lo, &c) in &h.buckets {
                *dst.buckets.entry(lo).or_insert(0) += c;
            }
            let was_empty = dst.count == 0;
            dst.count += h.count;
            dst.sum = dst.sum.wrapping_add(h.sum);
            if h.count > 0 {
                dst.min = if was_empty { h.min } else { dst.min.min(h.min) };
                dst.max = dst.max.max(h.max);
            }
        }
        self.events.extend(other.events.iter().copied());
        self.events_seen += other.events_seen;
        self.events_dropped += other.events_dropped;
        self.spans.extend(other.spans.iter().cloned());
    }

    /// Serialize to a compact JSON string: the seven fields in declaration
    /// order, names sorted, histogram bucket keys as strings.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            json::push_key(&mut out, k, i == 0);
            let _ = write!(out, "{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            json::push_key(&mut out, k, i == 0);
            json::push_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            json::push_key(&mut out, k, i == 0);
            out.push_str("{\"buckets\":{");
            for (j, (lo, c)) in h.buckets.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{lo}\":{c}");
            }
            let _ = write!(
                out,
                "}},\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
                h.count, h.sum, h.min, h.max
            );
        }
        out.push_str("},\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let (cycle, kind, pc, arg) = (e.cycle, e.kind.name(), e.pc, e.arg);
            let _ = write!(
                out,
                "{sep}{{\"cycle\":{cycle},\"kind\":\"{kind}\",\"pc\":{pc},\"arg\":{arg}}}"
            );
        }
        let (seen, dropped) = (self.events_seen, self.events_dropped);
        let _ = write!(
            out,
            "],\"events_seen\":{seen},\"events_dropped\":{dropped},\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(if i == 0 { "{\"name\":" } else { ",{\"name\":" });
            json::push_str(&mut out, &s.name);
            let _ = write!(
                out,
                ",\"thread\":{},\"depth\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.thread, s.depth, s.start_ns, s.dur_ns
            );
        }
        out.push_str("]}");
        out
    }

    /// Parse a snapshot back out of [`Snapshot::to_json_string`] output.
    ///
    /// The document is read in one pass straight into the snapshot's
    /// fields, without a tree of it, so an event costs its [`Event`] and no
    /// allocation. A field whose value is not the container the writer
    /// emits (`counters`, `gauges` and `histograms` objects, `events` and
    /// `spans` arrays) is ignored, as are unknown keys; either must still
    /// be valid JSON. A repeated key replaces the field it names.
    ///
    /// # Errors
    ///
    /// Returns a message when the document is not a snapshot object, or
    /// when a count (counter, bucket, histogram total, event or span field)
    /// is not a non-negative integer below 2^53 that reads back exactly.
    pub fn from_json_str(s: &str) -> Result<Snapshot, String> {
        let mut r = Reader::new(s);
        if r.peek() != Some(b'{') {
            return Err("snapshot must be a JSON object".into());
        }
        let mut snap = Snapshot::default();
        r.object(|r, key| snap.read_field(r, &key))?;
        r.end()?;
        Ok(snap)
    }

    /// Read the value of the top-level `key` into the field it names.
    fn read_field(&mut self, r: &mut Reader<'_>, key: &str) -> Result<(), String> {
        match key {
            "counters" => {
                let mut counters = BTreeMap::new();
                object_or_skip(r, |r, k| {
                    let n = count(r, || format!("counter {k}"))?;
                    counters.insert(k.into_owned(), n);
                    Ok(())
                })?;
                self.counters = counters;
            }
            "gauges" => {
                let mut gauges = BTreeMap::new();
                object_or_skip(r, |r, k| {
                    let n = r.number().map_err(|_| format!("gauge {k} not f64"))?;
                    gauges.insert(k.into_owned(), n.f64());
                    Ok(())
                })?;
                self.gauges = gauges;
            }
            "histograms" => {
                let mut histograms = BTreeMap::new();
                object_or_skip(r, |r, k| {
                    let h = read_histogram(r, &k)?;
                    histograms.insert(k.into_owned(), h);
                    Ok(())
                })?;
                self.histograms = histograms;
            }
            "events" => {
                let mut events = Vec::new();
                array_or_skip(r, |r, i| {
                    events.push(read_event(r, i)?);
                    Ok(())
                })?;
                self.events = events;
            }
            "spans" => {
                let mut spans = Vec::new();
                array_or_skip(r, |r, i| {
                    spans.push(read_span(r, i)?);
                    Ok(())
                })?;
                self.spans = spans;
            }
            "events_seen" => self.events_seen = count(r, || key.into())?,
            "events_dropped" => self.events_dropped = count(r, || key.into())?,
            _ => r.skip()?,
        }
        Ok(())
    }
}

/// Walk the object that is the reader's next value, or skip a value of any
/// other type.
fn object_or_skip<'a>(
    r: &mut Reader<'a>,
    f: impl FnMut(&mut Reader<'a>, Cow<'a, str>) -> Result<(), String>,
) -> Result<(), String> {
    if r.peek() == Some(b'{') {
        r.object(f)
    } else {
        r.skip()
    }
}

/// Walk the array that is the reader's next value, or skip a value of any
/// other type.
fn array_or_skip<'a>(
    r: &mut Reader<'a>,
    f: impl FnMut(&mut Reader<'a>, usize) -> Result<(), String>,
) -> Result<(), String> {
    if r.peek() == Some(b'[') {
        r.array(f)
    } else {
        r.skip()
    }
}

/// The reader's next value as a count, under
/// [`crate::json::JsonValue::as_u64`]'s rule, or an error naming `what`.
fn count(r: &mut Reader<'_>, what: impl FnOnce() -> String) -> Result<u64, String> {
    r.number()
        .ok()
        .and_then(Number::count)
        .ok_or_else(|| format!("{} is not an exact u64", what()))
}

fn read_histogram(r: &mut Reader<'_>, name: &str) -> Result<HistogramSnapshot, String> {
    if r.peek() != Some(b'{') {
        return Err(format!("histogram {name} not an object"));
    }
    let mut h = HistogramSnapshot::default();
    r.object(|r, key| {
        let field = match &*key {
            "buckets" => {
                let mut buckets = BTreeMap::new();
                object_or_skip(r, |r, lo| {
                    let lo: u64 = lo
                        .parse()
                        .map_err(|e| format!("histogram {name} bucket key {lo:?}: {e}"))?;
                    let c = count(r, || format!("histogram {name} bucket {lo}"))?;
                    buckets.insert(lo, c);
                    Ok(())
                })?;
                h.buckets = buckets;
                return Ok(());
            }
            "count" => &mut h.count,
            "sum" => &mut h.sum,
            "min" => &mut h.min,
            "max" => &mut h.max,
            _ => return r.skip(),
        };
        *field = count(r, || format!("histogram {name}: {key}"))?;
        Ok(())
    })?;
    Ok(h)
}

fn read_span(r: &mut Reader<'_>, i: usize) -> Result<SpanRecord, String> {
    if r.peek() != Some(b'{') {
        return Err(format!("span {i} is not an object"));
    }
    let mut name = None;
    let mut s = SpanRecord {
        name: String::new(),
        thread: 0,
        depth: 0,
        start_ns: 0,
        dur_ns: 0,
    };
    r.object(|r, key| {
        let field = match &*key {
            "name" => {
                let n = r
                    .string()
                    .map_err(|_| format!("span {i}: name not a string"))?;
                name = Some(n.into_owned());
                return Ok(());
            }
            "depth" => {
                let depth = count(r, || format!("span {i}: depth"))?;
                s.depth = u32::try_from(depth).map_err(|e| format!("span {i} depth: {e}"))?;
                return Ok(());
            }
            "thread" => &mut s.thread,
            "start_ns" => &mut s.start_ns,
            "dur_ns" => &mut s.dur_ns,
            _ => return r.skip(),
        };
        *field = count(r, || format!("span {i}: {key}"))?;
        Ok(())
    })?;
    s.name = name.ok_or_else(|| format!("span {i} missing name"))?;
    Ok(s)
}

fn read_event(r: &mut Reader<'_>, i: usize) -> Result<Event, String> {
    if r.peek() != Some(b'{') {
        return Err(format!("event {i} is not an object"));
    }
    let mut kind = None;
    let mut e = Event {
        cycle: 0,
        kind: EventKind::Resteer,
        pc: 0,
        arg: 0,
    };
    r.object(|r, key| {
        match &*key {
            "kind" => {
                let name = r
                    .string()
                    .map_err(|_| format!("event {i}: kind not a string"))?;
                let k = EventKind::from_name(&name)
                    .ok_or_else(|| format!("event {i} has unknown kind {name:?}"))?;
                kind = Some(k);
            }
            "pc" => {
                e.pc = r
                    .number()
                    .ok()
                    .and_then(address)
                    .ok_or_else(|| format!("event {i}: pc is not an address"))?;
            }
            "cycle" => e.cycle = count(r, || format!("event {i}: cycle"))?,
            "arg" => e.arg = count(r, || format!("event {i}: arg"))?,
            _ => r.skip()?,
        }
        Ok(())
    })?;
    e.kind = kind.ok_or_else(|| format!("event {i} missing kind"))?;
    Ok(e)
}

/// An event pc. It is an address, not a count: wrong-path blocks can start
/// at wrapped addresses near 2^64 (prefetch and shadow-decode events), so a
/// digit run reads as an exact u64 over the whole range. Any other number
/// form must be a non-negative integral f64 below 2^64.
fn address(n: Number<'_>) -> Option<u64> {
    match n {
        Number::Digits(text) => text.parse().ok(),
        Number::Float(n) => {
            ((0.0..u64::MAX as f64).contains(&n) && n.fract() == 0.0).then_some(n as u64)
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::LocalHistogram;
    use crate::json::JsonValue;
    use crate::trace::{EventTrace, TraceConfig};

    /// A snapshot holding just these counters.
    fn with_counters(counters: &[(&str, u64)]) -> Snapshot {
        Snapshot {
            counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            ..Snapshot::default()
        }
    }

    fn histogram(values: &[u64]) -> HistogramSnapshot {
        let mut h = LocalHistogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    fn sample_snapshot() -> Snapshot {
        let mut snap = with_counters(&[("btb.misses", 17), ("blocks", 3)]);
        snap.gauges.insert("ipc".into(), 1.25);
        snap.histograms
            .insert("ftq.occupancy".into(), histogram(&[0, 4, 4, 9, 31]));
        let t = EventTrace::new(TraceConfig::default());
        t.record(10, EventKind::BtbMiss, 0x4000, 1);
        t.record(12, EventKind::SbbRescue, 0x4008, 0);
        snap.events = t.events();
        snap.events_seen = t.seen();
        snap.spans = vec![
            SpanRecord {
                name: "sweep.prepare".into(),
                thread: 0,
                depth: 0,
                start_ns: 1_000,
                dur_ns: 50_000,
            },
            SpanRecord {
                name: "sim.job:tpcc".into(),
                thread: 1,
                depth: 1,
                start_ns: 60_000,
                dur_ns: 30_000,
            },
            SpanRecord {
                name: "sim.job:tpcc".into(),
                thread: 2,
                depth: 1,
                start_ns: 61_000,
                dur_ns: 10_000,
            },
        ];
        snap
    }

    #[test]
    fn json_round_trip_is_identity() {
        let snap = sample_snapshot();
        let json = snap.to_json_string();
        let back = Snapshot::from_json_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn json_shape_is_stable() {
        let json = sample_snapshot().to_json_string();
        assert!(json.contains("\"counters\":{\"blocks\":3,\"btb.misses\":17}"));
        assert!(json.contains("\"kind\":\"sbb_rescue\""));
        assert!(json.contains("\"events_seen\":2"));
        assert!(json.contains(
            "{\"name\":\"sweep.prepare\",\"thread\":0,\"depth\":0,\"start_ns\":1000,\"dur_ns\":50000}"
        ));
        let v = JsonValue::parse(&json).unwrap();
        assert_eq!(
            v.get("histograms")
                .and_then(|h| h.get("ftq.occupancy"))
                .and_then(|h| h.get("count"))
                .and_then(JsonValue::as_u64),
            Some(5)
        );
    }

    /// The exact `--emit-json` bytes: field order, integer and float
    /// forms, `null` for a non-finite gauge, string-keyed buckets and
    /// escaped names.
    #[test]
    fn json_bytes_are_pinned() {
        let mut snap = Snapshot::default();
        snap.counters.insert("sim.cycles".into(), 9_000);
        snap.counters.insert("btb.misses".into(), 17);
        snap.gauges.insert("sim.ipc".into(), 2.0);
        snap.gauges.insert("skia.bogus_rate".into(), 0.125);
        snap.gauges
            .insert("sim.steps_per_sec".into(), f64::INFINITY);
        snap.histograms
            .insert("ftq.occupancy".into(), histogram(&[0, 4, 4, 9, 300]));
        let trace = EventTrace::new(TraceConfig::default());
        trace.record(10, EventKind::BtbMiss, 0x4000, 1);
        trace.record(12, EventKind::SbbRescue, 0x4008, 0);
        snap.events = trace.events();
        snap.events_seen = trace.seen();
        snap.spans = vec![SpanRecord {
            name: "sim.job:a\"b\\c".into(),
            thread: 1,
            depth: 2,
            start_ns: 1_500,
            dur_ns: 250,
        }];
        assert_eq!(
            snap.to_json_string(),
            concat!(
                "{\"counters\":{\"btb.misses\":17,\"sim.cycles\":9000},",
                "\"gauges\":{\"sim.ipc\":2.0,\"sim.steps_per_sec\":null,",
                "\"skia.bogus_rate\":0.125},",
                "\"histograms\":{\"ftq.occupancy\":{\"buckets\":",
                "{\"0\":1,\"4\":2,\"8\":1,\"256\":1},",
                "\"count\":5,\"sum\":317,\"min\":0,\"max\":300}},",
                "\"events\":[{\"cycle\":10,\"kind\":\"btb_miss\",\"pc\":16384,\"arg\":1},",
                "{\"cycle\":12,\"kind\":\"sbb_rescue\",\"pc\":16392,\"arg\":0}],",
                "\"events_seen\":2,\"events_dropped\":0,",
                "\"spans\":[{\"name\":\"sim.job:a\\\"b\\\\c\",\"thread\":1,\"depth\":2,",
                "\"start_ns\":1500,\"dur_ns\":250}]}",
            )
        );
    }

    #[test]
    fn accessors() {
        let snap = sample_snapshot();
        assert_eq!(snap.counter("btb.misses"), Some(17));
        assert_eq!(snap.counter("nope"), None);
        assert_eq!(snap.gauge("ipc"), Some(1.25));
        assert_eq!(snap.histogram("ftq.occupancy").unwrap().count, 5);
        assert_eq!(snap.events.len(), 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample_snapshot();
        let b = sample_snapshot();
        a.merge(&b);
        assert_eq!(a.counter("btb.misses"), Some(34));
        let h = a.histogram("ftq.occupancy").unwrap();
        assert_eq!(h.count, 10);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 31);
        assert_eq!(a.events.len(), 4);
        assert_eq!(a.events_seen, 4);
        assert_eq!(a.spans.len(), 6, "spans concatenate");

        // Merging into an empty snapshot reproduces the source.
        let mut empty = Snapshot::default();
        empty.merge(&b);
        assert_eq!(empty, b);
    }

    #[test]
    fn span_rollup_aggregates_resident_spans() {
        let snap = sample_snapshot();
        let roll = snap.span_rollup();
        assert_eq!(roll.len(), 2);
        assert_eq!(roll["sweep.prepare"].count, 1);
        let jobs = &roll["sim.job:tpcc"];
        assert_eq!(jobs.count, 2);
        assert_eq!(jobs.total_ns, 40_000);
        assert_eq!(jobs.min_ns, 10_000);
        assert_eq!(jobs.max_ns, 30_000);
        assert!(Snapshot::default().span_rollup().is_empty());
    }

    #[test]
    fn histogram_merge_vs_snapshot_merge_agree() {
        // Path A: record every value into one histogram.
        let all = histogram(&[1, 2, 300, 0, 2, 5000]);
        // Path B: snapshot two halves separately, then merge the snapshots.
        let mut s = Snapshot::default();
        s.histograms.insert("h".into(), histogram(&[1, 2, 300]));
        let mut other = Snapshot::default();
        other
            .histograms
            .insert("h".into(), histogram(&[0, 2, 5000]));
        s.merge(&other);
        assert_eq!(s.histogram("h"), Some(&all));
    }

    #[test]
    fn counter_features_bucket_by_magnitude() {
        // "zero" is present but never incremented.
        let s = with_counters(&[("a", 3), ("b", 1), ("zero", 0)]);
        let f = s.counter_features();
        assert_eq!(f.len(), 2, "zero counters contribute no feature");
        assert_eq!(f, s.counter_features(), "deterministic");

        // Same counter, same power-of-two bucket: same feature. New bucket:
        // new feature. Different counter at the same value: different
        // feature.
        let same_bucket = with_counters(&[("a", 2), ("b", 1)]); // still ⌊log₂⌋ = 1
        assert_eq!(f, same_bucket.counter_features());
        let f3 = with_counters(&[("a", 4), ("b", 1)]).counter_features(); // bucket 2 now
        assert_ne!(f, f3);
        assert_eq!(f[1], f3[1], "counter b unchanged");
        assert_ne!(f[0], with_counters(&[("c", 3)]).counter_features()[0]);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Snapshot::from_json_str("not json").is_err());
        assert!(Snapshot::from_json_str("[1,2]").is_err());
        assert!(
            Snapshot::from_json_str("{\"events\":[{\"kind\":\"martian\"}]}").is_err(),
            "unknown event kinds must not parse silently"
        );
        assert!(
            Snapshot::from_json_str("{\"spans\":[{\"thread\":1}]}").is_err(),
            "a span without a name must not parse silently"
        );
        assert!(Snapshot::from_json_str("{\"spans\":[7]}").is_err());
        // Wrong-path event PCs can sit near 2^64; they read back exactly.
        let far = "{\"events\":[{\"kind\":\"resteer\",\"pc\":18446744072699480064}]}";
        let far = Snapshot::from_json_str(far).unwrap();
        assert_eq!(far.events[0].pc, 18_446_744_072_699_480_064);
        // A count the parser cannot read exactly is an error, not a silent
        // truncation or rounding.
        for doc in [
            "{\"counters\":{\"x\":1.5}}",
            "{\"counters\":{\"x\":-1}}",
            "{\"counters\":{\"x\":9007199254740993}}",
            "{\"events_seen\":0.5}",
            "{\"histograms\":{\"h\":{\"count\":2.5}}}",
            "{\"histograms\":{\"h\":{\"buckets\":{\"4\":1e300}}}}",
            "{\"events\":[{\"kind\":\"btb_miss\",\"pc\":-4}]}",
            "{\"spans\":[{\"name\":\"s\",\"dur_ns\":1.25}]}",
            "{\"spans\":[{\"name\":\"s\",\"depth\":4294967296}]}",
        ] {
            assert!(Snapshot::from_json_str(doc).is_err(), "{doc}");
        }
    }

    /// A pc is an address, not a count: wrong-path ones near 2^64 read
    /// back as written, not as their nearest f64 (which for `u64::MAX` is
    /// 2^64 and no address at all).
    #[test]
    fn event_pcs_read_back_exactly() {
        for pc in [u64::MAX, u64::MAX - 1, 18_446_744_072_699_481_536] {
            let snap = Snapshot {
                events: vec![Event {
                    cycle: 5,
                    kind: EventKind::PrefetchIssue,
                    pc,
                    arg: 1,
                }],
                ..Snapshot::default()
            };
            let back = Snapshot::from_json_str(&snap.to_json_string());
            assert_eq!(back, Ok(snap), "pc {pc:#x}");
        }
    }

    /// The feature hashes are part of the fuzz corpus' on-disk contract: a
    /// silent change to the FNV mixing (or to `ilog2` bucketing) would
    /// orphan every persisted corpus entry's coverage. Pin exact values.
    #[test]
    fn counter_features_are_pinned() {
        let f = with_counters(&[
            ("a", 3),
            ("b", 1),
            ("btb.misses", 17),
            ("sim.steps_total", 400_000),
        ])
        .counter_features();
        // BTreeMap order: a, b, btb.misses, sim.steps_total.
        assert_eq!(
            f,
            vec![
                0xe57a_9c19_03db_f5f5,
                0xfed3_ec19_1209_5893,
                0x965a_0a85_571e_b719,
                0x430c_7f35_5cba_f2b0,
            ],
            "counter_features changed — this breaks persisted fuzz-corpus coverage"
        );
    }
}
