//! Hierarchical wall-clock span profiling.
//!
//! Counters say *how often*; spans say *where the time went*. A
//! [`SpanGuard`] brackets a region of code RAII-style: construction stamps
//! a begin time, drop stamps the end and deposits one [`SpanRecord`]
//! (name, thread, nesting depth, start, duration) into a process-wide
//! collector. The experiment pipeline brackets its phases — sweep prepare
//! and simulate, per-job simulation, trace-cache record/load, workload
//! generation, oracle lockstep cases, fuzz rounds — so every run can be
//! attributed millisecond by millisecond.
//!
//! Profiling is **off by default** and the disabled path is a single
//! relaxed atomic load: no clock read, no allocation, no lock. Binaries
//! enable it from the `SKIA_SPANS` environment variable (or automatically
//! under `--emit-json`); enabling spans never changes any simulation
//! result or stdout byte — records flow only into telemetry snapshots,
//! manifests, and Chrome traces.
//!
//! Unlike a run's counters and event trace (single-threaded by design),
//! the span collector is global and thread-aware: sweep workers on any
//! thread deposit into one bounded buffer, and each record carries a small
//! per-thread id so a Chrome trace lays the threads out as separate rows.
//! Export goes through [`crate::trace::to_chrome_trace_full`] (`X` complete
//! events) or, aggregated, through [`rollup`].

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Hard bound on buffered records: a runaway instrumentation loop costs
/// memory linearly, so the collector keeps at most this many records and
/// counts the overflow in [`spans_dropped`] instead of growing without
/// bound (~48 bytes/record → ~12 MB ceiling).
const MAX_RECORDS: usize = 1 << 18;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

fn collector() -> &'static Mutex<Vec<SpanRecord>> {
    static COLLECTOR: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// Small dense per-thread id, assigned on this thread's first span.
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Open-span nesting depth on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// The process-wide time origin all span timestamps are relative to.
/// First call fixes it; binaries call this at startup so `start_ns`
/// roughly equals time-since-main.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Whether span recording is currently on.
#[inline]
#[must_use]
pub fn spans_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn span recording on or off (process-wide). Guards opened while
/// recording was on still deposit their record after it is turned off —
/// a span, once begun, is accounted.
pub fn set_spans_enabled(on: bool) {
    if on {
        epoch(); // fix the origin no later than the first enable
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Resolve the `SKIA_SPANS` environment knob against a default:
/// `1`/`on`/`true` force-enable, `0`/`off`/`false` force-disable, unset or
/// anything else yields `default_on` (binaries pass "am I emitting
/// telemetry?"). Returns the resolved state after applying it.
pub fn init_spans_from_env(default_on: bool) -> bool {
    let on = match std::env::var("SKIA_SPANS") {
        Ok(v) if v == "1" || v.eq_ignore_ascii_case("on") || v.eq_ignore_ascii_case("true") => true,
        Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("false") => {
            false
        }
        _ => default_on,
    };
    set_spans_enabled(on);
    on
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name (dot-separated hierarchy by convention, e.g.
    /// `sweep.prepare`; a `:suffix` carries an instance label, e.g.
    /// `sim.job:tpcc`).
    pub name: String,
    /// Dense id of the recording thread.
    pub thread: u64,
    /// Nesting depth at begin time (0 = top-level on its thread).
    pub depth: u32,
    /// Begin time, nanoseconds since [`epoch`].
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// RAII handle for one in-flight span. Dropping it ends the span.
#[derive(Debug)]
#[must_use = "a span measures the scope holding the guard"]
pub struct SpanGuard(Option<Active>);

#[derive(Debug)]
struct Active {
    name: Cow<'static, str>,
    thread: u64,
    depth: u32,
    start: Instant,
}

/// Open a span named by a static string. When profiling is disabled this
/// is one atomic load and returns an inert guard — no clock, no
/// allocation.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard(None);
    }
    begin(Cow::Borrowed(name))
}

/// Open a span whose name is computed lazily — the closure (and its
/// allocation) runs only when profiling is enabled, keeping the disabled
/// path as cheap as [`span`].
#[inline]
pub fn span_with<F: FnOnce() -> String>(name: F) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard(None);
    }
    begin(Cow::Owned(name()))
}

fn begin(name: Cow<'static, str>) -> SpanGuard {
    let thread = THREAD_ID.with(|t| *t);
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    let epoch = epoch(); // resolve before stamping so start >= epoch
    let start = Instant::now();
    debug_assert!(start >= epoch);
    SpanGuard(Some(Active {
        name,
        thread,
        depth,
        start,
    }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let dur_ns = active.start.elapsed().as_nanos() as u64;
        let start_ns = active.start.duration_since(epoch()).as_nanos() as u64;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let record = SpanRecord {
            name: active.name.into_owned(),
            thread: active.thread,
            depth: active.depth,
            start_ns,
            dur_ns,
        };
        let mut buf = collector().lock().unwrap_or_else(|p| p.into_inner());
        if buf.len() >= MAX_RECORDS {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        } else {
            buf.push(record);
        }
    }
}

/// Take every buffered record, ordered by `(start_ns, thread)` so the
/// output is independent of lock-acquisition order across threads. The
/// buffer is left empty; the dropped count is left as is (see
/// [`spans_dropped`]).
#[must_use]
pub fn drain_spans() -> Vec<SpanRecord> {
    let mut records = {
        let mut buf = collector().lock().unwrap_or_else(|p| p.into_inner());
        std::mem::take(&mut *buf)
    };
    records.sort_by(|a, b| {
        (a.start_ns, a.thread, a.depth, &a.name).cmp(&(b.start_ns, b.thread, b.depth, &b.name))
    });
    records
}

/// Records lost to the [`MAX_RECORDS`] bound since process start.
#[must_use]
pub fn spans_dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Aggregate statistics of every span sharing one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanRollup {
    /// Completed spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Shortest single span, nanoseconds.
    pub min_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

impl SpanRollup {
    /// Fold one record in.
    pub fn add(&mut self, dur_ns: u64) {
        self.min_ns = if self.count == 0 {
            dur_ns
        } else {
            self.min_ns.min(dur_ns)
        };
        self.max_ns = self.max_ns.max(dur_ns);
        self.count += 1;
        self.total_ns += dur_ns;
    }

    /// Mean duration in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Aggregate records per span name: `name → {count, total, min, max}`.
/// Order-insensitive, so rollups of a parallel run are deterministic even
/// though the record interleaving is not.
#[must_use]
pub fn rollup(records: &[SpanRecord]) -> BTreeMap<String, SpanRollup> {
    let mut out: BTreeMap<String, SpanRollup> = BTreeMap::new();
    for r in records {
        out.entry(r.name.clone()).or_default().add(r.dur_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The enable flag, collector, and depth counters are process-global;
    /// tests that toggle or drain them must not interleave.
    static SPAN_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        SPAN_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing_and_cost_almost_nothing() {
        let _l = locked();
        set_spans_enabled(false);
        drop(drain_spans());
        let t0 = Instant::now();
        for _ in 0..1_000_000 {
            let _g = span("noop");
        }
        let elapsed = t0.elapsed();
        assert!(drain_spans().is_empty(), "disabled guards must not record");
        // One relaxed load per span; 500 ns/span is two orders of magnitude
        // of headroom over the observed cost, so this cannot flake on a
        // loaded CI host while still catching an accidental allocation or
        // clock read on the disabled path.
        assert!(
            elapsed < Duration::from_millis(500),
            "1M disabled spans took {elapsed:?}"
        );
    }

    #[test]
    fn enabled_spans_are_recorded_with_nesting_and_bounded_cost() {
        let _l = locked();
        set_spans_enabled(true);
        drop(drain_spans());
        {
            let _outer = span("outer");
            let _inner = span_with(|| format!("inner:{}", 7));
        }
        let records = drain_spans();
        set_spans_enabled(false);
        assert_eq!(records.len(), 2);
        // Inner ends first but both are present; find by name.
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        let inner = records.iter().find(|r| r.name == "inner:7").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.thread, inner.thread);
        assert!(outer.dur_ns >= inner.dur_ns, "outer encloses inner");
        assert!(inner.start_ns >= outer.start_ns);

        // Enabled cost is bounded: 100k spans well under a second even on a
        // slow host (observed ~100 ns each; bound is 10 µs each).
        set_spans_enabled(true);
        let t0 = Instant::now();
        for _ in 0..100_000 {
            let _g = span("hot");
        }
        let elapsed = t0.elapsed();
        let n = drain_spans().len();
        set_spans_enabled(false);
        assert_eq!(n, 100_000);
        assert!(
            elapsed < Duration::from_secs(1),
            "100k enabled spans took {elapsed:?}"
        );
    }

    #[test]
    fn threads_get_distinct_ids() {
        let _l = locked();
        set_spans_enabled(true);
        drop(drain_spans());
        let _here = span("main-thread");
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _g = span("worker");
                });
            }
        });
        drop(_here);
        let records = drain_spans();
        set_spans_enabled(false);
        assert_eq!(records.len(), 3);
        let workers: Vec<u64> = records
            .iter()
            .filter(|r| r.name == "worker")
            .map(|r| r.thread)
            .collect();
        assert_eq!(workers.len(), 2);
        assert_ne!(workers[0], workers[1], "each thread has its own id");
        let main = records.iter().find(|r| r.name == "main-thread").unwrap();
        assert!(!workers.contains(&main.thread));
    }

    #[test]
    fn mid_flight_disable_still_accounts_open_spans() {
        let _l = locked();
        set_spans_enabled(true);
        drop(drain_spans());
        let g = span("crossing");
        set_spans_enabled(false);
        drop(g);
        let records = drain_spans();
        assert_eq!(records.len(), 1, "a begun span is always accounted");
        assert_eq!(records[0].name, "crossing");
    }

    #[test]
    fn rollup_aggregates_by_name() {
        let rec = |name: &str, dur: u64| SpanRecord {
            name: name.into(),
            thread: 0,
            depth: 0,
            start_ns: 0,
            dur_ns: dur,
        };
        let records = vec![rec("a", 10), rec("b", 5), rec("a", 30), rec("a", 20)];
        let roll = rollup(&records);
        assert_eq!(roll.len(), 2);
        let a = &roll["a"];
        assert_eq!(
            (a.count, a.total_ns, a.min_ns, a.max_ns, a.mean_ns()),
            (3, 60, 10, 30, 20)
        );
        assert_eq!(roll["b"].count, 1);
        assert_eq!(SpanRollup::default().mean_ns(), 0);
    }

    #[test]
    fn span_with_does_not_run_the_closure_when_disabled() {
        let _l = locked();
        set_spans_enabled(false);
        let _g = span_with(|| unreachable!("closure must be lazy"));
    }
}
