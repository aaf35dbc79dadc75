//! # skia-frontend — a cycle-accounting decoupled FDIP front-end simulator
//!
//! The evaluation substrate of the Skia reproduction: a trace-replay
//! simulator of the front-end in Fig. 4 of the paper — Instruction Address
//! Generator (BPU: BTB ∥ SBB, TAGE, ITTAGE, RAS), Fetch Target Queue, FDIP
//! prefetching into an L1-I/L2/L3 hierarchy, an instruction fetch/decode
//! stage with idle-cycle accounting, and early-vs-late resteer modeling with
//! execution-driven wrong-path prefetching (wrong-path blocks walk the real
//! program image, so L1-I pollution is mechanistic, not statistical).
//!
//! ## Model summary (and honest boundaries)
//!
//! The simulator replays the *retired* branch trace from
//! [`skia_workloads::Walker`] in lockstep: each predicted basic block is
//! verified immediately against the true path, penalties are charged on a
//! cycle ledger (IAG rate, FTQ occupancy, prefetch latency, decode
//! throughput, resteer bubbles), and predictors train at commit. Compared to
//! a full out-of-order model this:
//!
//! * **keeps** everything the paper's effects depend on — BTB/SBB reach and
//!   replacement, shadow decode timing-off-critical-path, wrong-path cache
//!   pollution, early (decode) vs. late (execute) resteer cost, decoder idle
//!   cycles, CACTI-style BTB scaling latency;
//! * **approximates** the back-end as a retire-width bound plus fixed
//!   resolution latencies, and excludes residual wrong-path *history*
//!   corruption (repairs are exact — the checkpoint machinery in
//!   `skia-uarch` supports inexact repair studies, but the lockstep replay
//!   here does not need it).
//!
//! These boundaries are those of a front-end study; DESIGN.md §2 documents
//! the substitution rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bpu;
pub mod config;
pub mod sim;
pub mod stats;
pub mod telemetry;

pub use bpu::{Bpu, PredictedBlock, PredictedBranch};
pub use config::{BtbMode, FrontendConfig};
pub use sim::Simulator;
pub use stats::SimStats;

/// Run a complete simulation: generate nothing, just wire a program, a trace
/// and a configuration together.
///
/// # Example
///
/// ```rust
/// use skia_frontend::{run, FrontendConfig};
/// use skia_workloads::{Program, ProgramSpec, Walker};
///
/// let spec = ProgramSpec { functions: 60, ..ProgramSpec::default() };
/// let program = Program::generate(&spec);
/// let trace = Walker::new(&program, 1, 8).take(2_000);
/// let stats = run(&program, FrontendConfig::test_small(), trace);
/// assert!(stats.instructions > 0);
/// assert!(stats.ipc() > 0.0);
/// ```
pub fn run(
    program: &skia_workloads::Program,
    config: FrontendConfig,
    trace: impl Iterator<Item = skia_workloads::TraceStep>,
) -> SimStats {
    let mut sim = Simulator::new(program, config);
    sim.run(trace)
}

/// Like [`run`], but also export the full telemetry [`Snapshot`] — every
/// simulator counter, the standing histograms, and (when `trace_config` is
/// `Some`) the sampled event trace.
///
/// The snapshot's counters are written from the returned [`SimStats`], so
/// they agree by construction. Recorded traces pass
/// `trace.replay().take(steps)`.
///
/// [`Snapshot`]: skia_telemetry::Snapshot
pub fn run_instrumented(
    program: &skia_workloads::Program,
    config: FrontendConfig,
    trace_config: Option<skia_telemetry::TraceConfig>,
    trace: impl Iterator<Item = skia_workloads::TraceStep>,
) -> (SimStats, skia_telemetry::Snapshot) {
    let mut sim = Simulator::new(program, config);
    if let Some(tc) = trace_config {
        sim.enable_trace(tc);
    }
    let stats = sim.run(trace);
    let snapshot = sim.snapshot();
    (stats, snapshot)
}
