//! # skia-workloads — synthetic front-end-bound workloads
//!
//! The paper evaluates Skia on 16 commercial multi-threaded workloads
//! (DaCapo, Renaissance, OLTP-Bench/PostgreSQL, Chipyard/Verilator,
//! BrowserBench) checkpointed from a real Alder Lake machine. Those
//! binaries, JVMs and checkpoints are not reproducible here, so this crate
//! builds the *mechanism-equivalent* substrate: synthetic programs whose
//! **real x86-64 code bytes** and control-flow traces exhibit the properties
//! Skia exploits —
//!
//! * code footprints far exceeding the L1-I and BTB reach (capacity-miss
//!   "cold" branches that recur at long distances, §1);
//! * hot and cold functions co-located on the same cache lines (the source
//!   of head/tail shadow branches, §2.3);
//! * per-workload branch-type mixes matching the paper's Fig. 6 (OLTP
//!   workloads call/return heavy, kafka conditional-heavy, …).
//!
//! The three layers:
//!
//! * [`program`] — generates a flat code image of functions/basic blocks
//!   with every instruction emitted through `skia_isa::encode` (so shadow
//!   decoding runs on genuine bytes), plus ground-truth branch metadata.
//! * [`walker`] — a deterministic, infinite control-flow walker producing
//!   the retired-branch trace the front-end simulator replays (Zipf-weighted
//!   calls, biased conditionals, trip-counted loops).
//! * [`profiles`] — the 16 named benchmark profiles of Table 2 plus the
//!   pre-BOLT verilator variant (§6.1.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod profiles;
pub mod program;
pub mod side_table;
pub mod trace;
pub mod walker;

pub use cache::{
    cache_root, load_or_generate, load_or_generate_in, load_or_record_trace,
    load_or_record_trace_in, trace_cache_io, TraceCacheIo, TraceCacheOutcome,
};
pub use profiles::{profile, profile_names, Profile};
pub use program::{BasicBlock, BranchMeta, Function, Layout, Program, ProgramSpec};
pub use side_table::{BranchRecord, BranchTable};
pub use trace::{RecordedTrace, Replay};
pub use walker::{TraceStep, Walker};
