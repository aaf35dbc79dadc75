//! # skia — reproduction of *"Exposing Shadow Branches"* (ASPLOS 2025)
//!
//! Facade crate re-exporting the whole workspace behind one dependency:
//!
//! * [`isa`] — from-scratch x86-64 subset encoder/length-decoder.
//! * [`uarch`] — caches, BTB, TAGE/ITTAGE, RAS, FTQ, CACTI latency model.
//! * [`workloads`] — synthetic front-end-bound programs + the paper's 16
//!   benchmark profiles.
//! * [`frontend`] — the decoupled FDIP front-end cycle simulator.
//! * [`core`] — Skia itself: the Shadow Branch Decoder and Shadow Branch
//!   Buffer.
//! * [`telemetry`] — the snapshot every layer's stats are written into:
//!   counters, gauges, log-bucketed histograms, and a sampled cycle-level
//!   event trace, serializable to JSON / Chrome `trace_event` format.
//!
//! ## Quick start
//!
//! Simulate the paper's baseline and Skia configurations on a synthetic
//! workload and compare:
//!
//! ```rust
//! use skia::prelude::*;
//!
//! let spec = ProgramSpec { functions: 200, ..ProgramSpec::default() };
//! let program = Program::generate(&spec);
//!
//! let baseline = skia::frontend::run(
//!     &program,
//!     FrontendConfig::test_small(),
//!     Walker::new(&program, 7, 6).take(5_000),
//! );
//! let with_skia = skia::frontend::run(
//!     &program,
//!     FrontendConfig::test_small().with_skia(SkiaConfig::default()),
//!     Walker::new(&program, 7, 6).take(5_000),
//! );
//! assert!(with_skia.cycles <= baseline.cycles + baseline.cycles / 10);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/skia-experiments` for
//! the binaries that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]

pub use skia_core as core;
pub use skia_frontend as frontend;
pub use skia_isa as isa;
pub use skia_telemetry as telemetry;
pub use skia_uarch as uarch;
pub use skia_workloads as workloads;

/// Commonly used items in one import.
pub mod prelude {
    pub use skia_core::{IndexPolicy, SbbConfig, Skia, SkiaConfig};
    pub use skia_frontend::{BtbMode, FrontendConfig, SimStats, Simulator};
    pub use skia_isa::{BranchKind, InsnKind};
    pub use skia_telemetry::{EventKind, Snapshot, TraceConfig};
    pub use skia_uarch::btb::BtbConfig;
    pub use skia_workloads::{profile, Layout, Program, ProgramSpec, TraceStep, Walker};
}
