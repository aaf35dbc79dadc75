//! The tree-walking snapshot reader that the pull reader replaced, kept
//! verbatim as the reference of a differential test. Seeded random
//! snapshots and byte-level mutations of their JSON go through both
//! readers, which must accept and reject the same documents and read the
//! same values from those they accept. Pcs are the one allowed difference:
//! the reference reads each as its nearest f64, and so rejects one whose
//! nearest f64 is 2^64, while the pull reader reads the written address.

use std::collections::HashSet;

use super::Snapshot;
use crate::histogram::HistogramSnapshot;
use crate::json::{JsonValue, Reader};
use crate::span::SpanRecord;
use crate::trace::{Event, EventKind};

/// `Snapshot::from_json_str` as it was: parse a `JsonValue` tree, then
/// walk it.
fn from_json_str(s: &str) -> Result<Snapshot, String> {
    let v = JsonValue::parse(s)?;
    let obj = v.as_object().ok_or("snapshot must be a JSON object")?;

    let mut snap = Snapshot::default();
    if let Some(counters) = obj.get("counters").and_then(JsonValue::as_object) {
        for (k, v) in counters {
            let n = v.as_u64().ok_or_else(|| format!("counter {k} not u64"))?;
            snap.counters.insert(k.clone(), n);
        }
    }
    if let Some(gauges) = obj.get("gauges").and_then(JsonValue::as_object) {
        for (k, v) in gauges {
            let n = v.as_f64().ok_or_else(|| format!("gauge {k} not f64"))?;
            snap.gauges.insert(k.clone(), n);
        }
    }
    if let Some(hists) = obj.get("histograms").and_then(JsonValue::as_object) {
        for (k, v) in hists {
            snap.histograms.insert(k.clone(), parse_histogram(k, v)?);
        }
    }
    if let Some(events) = obj.get("events").and_then(JsonValue::as_array) {
        for (i, e) in events.iter().enumerate() {
            snap.events.push(parse_event(i, e)?);
        }
    }
    if let Some(spans) = obj.get("spans").and_then(JsonValue::as_array) {
        for (i, s) in spans.iter().enumerate() {
            snap.spans.push(parse_span(i, s)?);
        }
    }
    snap.events_seen = v.u64_field("events_seen")?;
    snap.events_dropped = v.u64_field("events_dropped")?;
    Ok(snap)
}

fn parse_histogram(name: &str, v: &JsonValue) -> Result<HistogramSnapshot, String> {
    let obj = v
        .as_object()
        .ok_or_else(|| format!("histogram {name} not an object"))?;
    let mut h = HistogramSnapshot::default();
    if let Some(buckets) = obj.get("buckets").and_then(JsonValue::as_object) {
        for (lo, c) in buckets {
            let lo: u64 = lo
                .parse()
                .map_err(|e| format!("histogram {name} bucket key {lo:?}: {e}"))?;
            let c = c
                .as_u64()
                .ok_or_else(|| format!("histogram {name} bucket count not u64"))?;
            h.buckets.insert(lo, c);
        }
    }
    let field = |k: &str| v.u64_field(k).map_err(|e| format!("histogram {name}: {e}"));
    h.count = field("count")?;
    h.sum = field("sum")?;
    h.min = field("min")?;
    h.max = field("max")?;
    Ok(h)
}

fn parse_span(i: usize, v: &JsonValue) -> Result<SpanRecord, String> {
    let name = v
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("span {i} missing name"))?
        .to_string();
    let field = |k: &str| v.u64_field(k).map_err(|e| format!("span {i}: {e}"));
    Ok(SpanRecord {
        name,
        thread: field("thread")?,
        depth: u32::try_from(field("depth")?).map_err(|e| format!("span {i} depth: {e}"))?,
        start_ns: field("start_ns")?,
        dur_ns: field("dur_ns")?,
    })
}

fn parse_event(i: usize, v: &JsonValue) -> Result<Event, String> {
    let kind_name = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("event {i} missing kind"))?;
    let kind = EventKind::from_name(kind_name)
        .ok_or_else(|| format!("event {i} has unknown kind {kind_name:?}"))?;
    let field = |k: &str| v.u64_field(k).map_err(|e| format!("event {i}: {e}"));
    // A pc is an address, not a count: wrong-path blocks can start at
    // wrapped addresses near 2^64 (prefetch and shadow-decode events),
    // past the 2^53 the parser's f64 holds exactly, so it reads back as
    // the nearest f64 rather than failing.
    let pc = v.get("pc").map_or(Some(0.0), JsonValue::as_f64);
    let pc = pc
        .filter(|n| (0.0..u64::MAX as f64).contains(n) && n.fract() == 0.0)
        .ok_or_else(|| format!("event {i}: pc is not an address"))?;
    Ok(Event {
        cycle: field("cycle")?,
        kind,
        pc: pc as u64,
        arg: field("arg")?,
    })
}

/// SplitMix64: a seeded stream, so every failing document can be rebuilt.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Name pieces, including ones the writer must escape and non-ASCII text.
const PIECES: [&str; 14] = [
    "sim",
    ".",
    "btb_misses",
    "job:",
    "\"",
    "\\",
    "\n",
    "\t",
    "\u{1}",
    "\u{1f}",
    "é",
    "😀",
    "{[",
    "/",
];

fn name(rng: &mut Rng) -> String {
    (0..=rng.below(3)).map(|_| rng.pick(&PIECES)).collect()
}

/// A count the writer may hold: always below 2^53.
fn count(rng: &mut Rng) -> u64 {
    match rng.below(8) {
        0 => 0,
        1 => (1 << 53) - 1,
        2 => rng.next() >> 11,
        _ => rng.next() % 100_000,
    }
}

/// A pc anywhere in the u64 range: often past 2^53, where the reference
/// rounds it, and now and then within 2^12 of 2^64, where it may reject.
fn pc(rng: &mut Rng) -> u64 {
    match rng.below(40) {
        0 => u64::MAX - rng.next() % 4096,
        1 => rng.pick(&[0, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX]),
        2..=15 => rng.next(),
        _ => 0x40_0000 + rng.next() % (1 << 20),
    }
}

fn gauge(rng: &mut Rng) -> f64 {
    match rng.below(4) {
        // Any bit pattern, rarely NaN or infinite (written as `null`).
        0 => f64::from_bits(rng.next()),
        1 => -((rng.next() % 1000) as f64) / 7.0,
        _ => (rng.next() % 1_000_000) as f64 / 64.0,
    }
}

fn snapshot(rng: &mut Rng) -> Snapshot {
    let mut snap = Snapshot::default();
    for _ in 0..rng.below(5) {
        snap.counters.insert(name(rng), count(rng));
    }
    for _ in 0..rng.below(4) {
        snap.gauges.insert(name(rng), gauge(rng));
    }
    for _ in 0..rng.below(3) {
        let h = HistogramSnapshot {
            buckets: (0..rng.below(5))
                .map(|_| (rng.next() >> rng.below(64), count(rng)))
                .collect(),
            count: count(rng),
            sum: count(rng),
            min: count(rng),
            max: count(rng),
        };
        snap.histograms.insert(name(rng), h);
    }
    snap.events = (0..rng.below(40))
        .map(|_| Event {
            cycle: count(rng),
            kind: rng.pick(&EventKind::ALL),
            pc: pc(rng),
            arg: count(rng),
        })
        .collect();
    snap.events_seen = count(rng);
    snap.events_dropped = count(rng);
    snap.spans = (0..rng.below(4))
        .map(|_| SpanRecord {
            name: name(rng),
            thread: count(rng),
            depth: rng.next() as u32,
            start_ns: count(rng),
            dur_ns: count(rng),
        })
        .collect();
    snap
}

/// Byte offsets at which `pred` holds for the byte there.
fn offsets(doc: &str, pred: impl Fn(usize, u8) -> bool) -> Vec<usize> {
    doc.bytes()
        .enumerate()
        .filter(|&(i, b)| pred(i, b))
        .map(|(i, _)| i)
        .collect()
}

/// The offset just past the container opening at `open`, skipping string
/// contents.
fn container_end(doc: &[u8], open: usize) -> usize {
    let (mut depth, mut in_str, mut i) = (0usize, false, open);
    while i < doc.len() {
        match (in_str, doc[i]) {
            (true, b'\\') => i += 1,
            (true, b'"') | (false, b'"') => in_str = !in_str,
            (false, b'{' | b'[') => depth += 1,
            (false, b'}' | b']') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    doc.len()
}

/// One byte-level mutation of a written snapshot.
fn mutate(rng: &mut Rng, doc: &str) -> String {
    let bytes = doc.as_bytes();
    let mut out = doc.to_string();
    match rng.below(6) {
        0 => {
            let mut cut = rng.below(doc.len());
            while !doc.is_char_boundary(cut) {
                cut -= 1;
            }
            out.truncate(cut);
        }
        1 => {
            // Flip one of the low seven bits of an ASCII byte, so the text
            // stays UTF-8.
            let at = rng.pick(&offsets(doc, |_, b| b.is_ascii()));
            let flipped = bytes[at] ^ (1 << rng.below(7));
            out.replace_range(at..=at, &char::from(flipped).to_string());
        }
        2 => {
            // A number value (a digit run just after a colon) becomes a
            // fraction, a negative, a huge float, a string, or 2^53 or past.
            let starts = offsets(doc, |i, b| {
                b.is_ascii_digit() && i > 0 && bytes[i - 1] == b':'
            });
            if let Some(&at) = starts.get(rng.below(starts.len().max(1))) {
                let end = (at..doc.len())
                    .find(|&i| !bytes[i].is_ascii_digit())
                    .unwrap_or(doc.len());
                let with = rng.pick(&[
                    "1.5",
                    "-1",
                    "1e300",
                    "\"7\"",
                    "9007199254740992",
                    "9007199254740993",
                ]);
                out.replace_range(at..end, with);
            }
        }
        3 => {
            // A nested object or array becomes a scalar.
            let opens = offsets(doc, |i, b| {
                matches!(b, b'{' | b'[') && i > 0 && matches!(bytes[i - 1], b':' | b',' | b'[')
            });
            if let Some(&at) = opens.get(rng.below(opens.len().max(1))) {
                let end = container_end(bytes, at);
                out.replace_range(at..end, rng.pick(&["7", "null", "\"x\"", "true"]));
            }
        }
        4 => {
            // An unknown key, whose value is skipped but must still be
            // valid JSON.
            let at = rng.pick(&offsets(doc, |_, b| b == b'{')) + 1;
            let value = rng.pick(&[
                "1",
                "\"s\\\"q\"",
                "[1,{\"a\":null},-2.5e3]",
                "{\"k\":true}",
                "[truE]",
                "nulL",
                "{\"a\" 1}",
                "[1,]",
                "\"open",
                "1-2",
                "+1",
            ]);
            let sep = if bytes.get(at) == Some(&b'}') {
                ""
            } else {
                ","
            };
            out.insert_str(at, &format!("\"zz\":{value}{sep}"));
        }
        _ => {
            // Whitespace around the structural bytes, and now and then
            // anywhere at all.
            for _ in 0..=rng.below(4) {
                let at = if rng.below(4) == 0 {
                    (0..=rng.below(out.len()))
                        .rev()
                        .find(|&i| out.is_char_boundary(i))
                        .unwrap_or(0)
                } else {
                    let s = offsets(&out, |_, b| b"{}[]:,".contains(&b));
                    rng.pick(&s) + rng.below(2)
                };
                out.insert_str(at, rng.pick(&[" ", "\n", "\t", "\r\n  "]));
            }
        }
    }
    out
}

/// Whether any object in `doc` repeats a key. The reference keeps the last
/// of duplicate keys after checking none of the earlier ones, the pull
/// reader checks every one, so such documents are outside the parity
/// contract.
fn has_duplicate_keys(doc: &str) -> bool {
    fn walk(r: &mut Reader<'_>, dup: &mut bool) -> Result<(), String> {
        match r.peek() {
            Some(b'{') => {
                let mut seen = HashSet::new();
                r.object(|r, key| {
                    *dup |= !seen.insert(key);
                    walk(r, dup)
                })
            }
            Some(b'[') => r.array(|r, _| walk(r, dup)),
            _ => r.skip(),
        }
    }
    let mut dup = false;
    let _ = walk(&mut Reader::new(doc), &mut dup);
    dup
}

/// A pc whose nearest f64 is 2^64: the reference rejects it.
fn past_f64(pc: u64) -> bool {
    pc as f64 >= 18_446_744_073_709_551_616.0
}

/// `doc` with every digit-run pc that is [`past_f64`] written as 0.
fn zero_far_pcs(doc: &str) -> String {
    let mut out = String::new();
    let mut rest = doc;
    while let Some(at) = rest.find("\"pc\"") {
        let (head, tail) = rest.split_at(at + 4);
        out.push_str(head);
        let ws = |s: &str| s.len() - s.trim_start_matches([' ', '\t', '\n', '\r']).len();
        let mut i = ws(tail);
        if tail[i..].starts_with(':') {
            i += 1 + ws(&tail[i + 1..]);
            let digits = tail[i..].bytes().take_while(u8::is_ascii_digit).count();
            let after = tail.as_bytes().get(i + digits).copied();
            let far = tail[i..i + digits].parse().is_ok_and(past_f64);
            if far && !after.is_some_and(|b| matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')) {
                out.push_str(&tail[..i]);
                out.push('0');
                rest = &tail[i + digits..];
                continue;
            }
        }
        rest = tail;
    }
    out.push_str(rest);
    out
}

/// The reference's reading of what the pull reader read: the same values,
/// with each pc rounded to its nearest f64.
fn rounded(snap: &Snapshot) -> Snapshot {
    let mut snap = snap.clone();
    for e in &mut snap.events {
        e.pc = e.pc as f64 as u64;
    }
    snap
}

/// Feed `doc` to both readers and check that they agree; returns whether
/// the pull reader accepted it, and whether only the pc rule split them.
fn agree(doc: &str) -> (bool, bool) {
    let new = Snapshot::from_json_str(doc);
    let old = from_json_str(doc);
    match (new, old) {
        (Ok(n), Ok(o)) => {
            assert_eq!(rounded(&n), o, "readers disagree on {doc:?}");
            (true, false)
        }
        (Err(_), Err(_)) => (false, false),
        (Err(e), Ok(_)) => panic!("only the reference accepts {doc:?}: {e}"),
        (Ok(mut n), Err(e)) => {
            // The reference may reject a pc whose nearest f64 is 2^64, and
            // nothing else the pull reader accepts.
            let patched = zero_far_pcs(doc);
            assert_ne!(patched, doc, "only the pull reader accepts {doc:?} ({e})");
            let o = from_json_str(&patched).unwrap_or_else(|e| {
                panic!("reference rejects {patched:?} for more than a pc: {e}")
            });
            for ev in &mut n.events {
                if past_f64(ev.pc) {
                    ev.pc = 0;
                }
            }
            assert_eq!(rounded(&n), o, "readers disagree on {patched:?}");
            (true, true)
        }
    }
}

#[test]
fn pull_reader_agrees_with_the_tree_reader() {
    let mut rng = Rng(0x5EED_0017);
    let (mut docs, mut accepted, mut pc_splits, mut dups) = (0, 0, 0, 0);
    for _ in 0..400 {
        let snap = snapshot(&mut rng);
        let doc = snap.to_json_string();
        // Every pc reads back as written; only a non-finite gauge, which
        // the writer emits as `null`, keeps the snapshot from reading back.
        let back = Snapshot::from_json_str(&doc);
        if snap.gauges.values().all(|g| g.is_finite()) {
            assert_eq!(back.as_ref(), Ok(&snap), "{doc}");
        } else {
            assert!(back.is_err(), "{doc}");
        }
        let mutants: Vec<String> = (0..8).map(|_| mutate(&mut rng, &doc)).collect();
        for d in std::iter::once(doc).chain(mutants) {
            if has_duplicate_keys(&d) {
                dups += 1;
                continue;
            }
            let (ok, split) = agree(&d);
            docs += 1;
            accepted += usize::from(ok);
            pc_splits += usize::from(split);
        }
    }
    // Both outcomes, and the pc split, are well represented.
    assert!(
        accepted > docs / 5 && accepted < docs * 4 / 5,
        "{accepted} of {docs}"
    );
    assert!(pc_splits > 20, "{pc_splits} pc splits");
    assert!(dups < docs / 20, "{dups} documents with duplicate keys");
}
