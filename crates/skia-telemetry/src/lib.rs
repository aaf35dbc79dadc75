//! # skia-telemetry — structured observability for the Skia simulator
//!
//! The simulator counts into plain structs on its hot path; this crate is
//! where those numbers go when a run is reported:
//!
//! * [`Snapshot`] — the one telemetry store: named counters and gauges,
//!   histogram contents, the event window and profiling spans of a run.
//!   Components write their plain stats into a fresh snapshot when one is
//!   taken; the snapshot writes and reads its own compact JSON (the
//!   experiment binaries' `--emit-json` files) and merges across runs.
//! * [`LocalHistogram`] — streaming log₂-bucketed distributions (FTQ
//!   occupancy, resteer-repair latency, SBB entry lifetime, shadow-decode
//!   batch size), recorded with no sharing and materialized as a
//!   [`HistogramSnapshot`].
//! * [`EventTrace`] — an optional bounded ring buffer of cycle-stamped
//!   events (resteers, SBB inserts/evicts/rescues, BTB misses, prefetch
//!   issues), sampled at a configurable rate, exportable as Chrome
//!   `trace_event` JSON or JSONL. Clones share the buffer, so a simulator
//!   and its Skia unit record into one trace.
//! * [`SpanGuard`] — RAII wall-clock span profiling ([`span`] module): a
//!   process-wide, thread-aware collector of hierarchical begin/end
//!   records bracketing pipeline phases (sweep prepare/simulate, per-job
//!   simulation, trace-cache I/O, oracle cases, fuzz rounds). Off by
//!   default; the disabled path is a single atomic load. Records export as
//!   Chrome `X` events and aggregate into per-phase rollups for run
//!   manifests.
//! * [`json`] — the writer helpers every document here is built from, and
//!   the one pull reader that reads them back: [`json::JsonValue`] trees
//!   for small documents, and snapshots straight into their typed fields.
//!
//! ## Quick taste
//!
//! ```rust
//! use skia_telemetry::{EventKind, EventTrace, LocalHistogram, Snapshot, TraceConfig};
//!
//! // Hot path: plain values, no telemetry layer in between.
//! let misses = 1u64;
//! let mut occ = LocalHistogram::new();
//! occ.record(17);
//! let trace = EventTrace::new(TraceConfig::default());
//! trace.record(1234, EventKind::BtbMiss, 0x4010, 0);
//!
//! // Snapshot time: write them under their names.
//! let mut snap = Snapshot::default();
//! snap.counters.insert("btb.misses".into(), misses);
//! snap.histograms.insert("ftq.occupancy".into(), occ.snapshot());
//! snap.events = trace.events();
//! assert_eq!(snap.counter("btb.misses"), Some(1));
//! let json = snap.to_json_string();
//! let back = Snapshot::from_json_str(&json).unwrap();
//! assert_eq!(back, snap);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod json;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use histogram::{HistogramSnapshot, LocalHistogram};
pub use snapshot::Snapshot;
pub use span::{
    drain_spans, init_spans_from_env, set_spans_enabled, span, span_with, spans_enabled, SpanGuard,
    SpanRecord, SpanRollup,
};
pub use trace::{to_chrome_trace, to_chrome_trace_full, Event, EventKind, EventTrace, TraceConfig};

/// FNV-1a hash of a byte slice — the repo's standing content fingerprint.
///
/// The same constants back [`Snapshot::counter_features`], whose outputs are
/// pinned by the fuzz-corpus contract. Deterministic across runs and
/// platforms.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
