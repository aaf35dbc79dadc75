//! The benchmark's own spans: recorded around each call into a layer, from
//! the benchmark's files only, kept in memory and written out at the end.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<what>`, optionally `:<instance>`; names without a dot
    /// belong to the harness.
    pub name: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// Span recorder. When off, [`Tracer::span`] only calls its closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a span closure panicked while recording")
    }

    /// Run `f` inside a span named by `name` (called only when tracing).
    pub fn span<R>(&self, name: impl FnOnce() -> String, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut inner = self.lock();
            let id = inner.spans.len();
            let parent = inner.open.last().copied();
            inner.spans.push(Span {
                name: name(),
                parent,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                dur_ns: 0,
            });
            inner.open.push(id);
            id
        };
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.lock();
        inner.open.pop();
        let span = &mut inner.spans[id];
        span.dur_ns = end - span.start_ns;
        out
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// The layer a span is attributed to.
#[must_use]
pub fn layer_of(name: &str) -> &str {
    match name.split_once('.') {
        Some((layer, _)) if !layer.contains(':') => layer,
        _ => "harness",
    }
}

/// Self time per layer in nanoseconds: each span's duration minus the time
/// its direct children cover.
#[must_use]
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *out.entry(layer_of(&s.name).to_string()).or_insert(0) += s.dur_ns.saturating_sub(children);
    }
    out
}

/// Chrome trace-event JSON (object form) of `spans`.
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1}}",
                s.name,
                layer_of(&s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}
