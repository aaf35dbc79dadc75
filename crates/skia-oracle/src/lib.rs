//! # skia-oracle — executable reference model + lockstep differential harness
//!
//! A deliberately slow, obviously-correct restatement of the Skia front-end
//! pipeline, and the machinery to run it in lockstep against the real
//! simulator:
//!
//! * [`ref_uarch`] — plain-`Vec`, linear-search reference models of the BTB
//!   (finite and infinite), with paper-literal one-tick-per-access true
//!   LRU, and of the RAS.
//! * [`ref_sbd`] — a reference Shadow Branch Decoder: the two-phase head
//!   decode (§3.2) and the tail decode (§3.3) re-derived from the paper
//!   text with no caching, differentially testing the production decoder
//!   and the per-program decode table simulators read regions through.
//! * [`ref_skia`] — the reference split SBB (U-SBB/R-SBB, retired-bit
//!   replacement of §4.3) and Skia fill/lookup/retire/bogus hooks, plus a
//!   ground-truth cross-check that validates every decoded shadow branch
//!   against the generator's branch metadata (`Program::branch_at`) instead
//!   of re-decoded bytes.
//! * [`ref_sim`] — the reference BPU and cycle-ledger simulator exposing a
//!   per-step API.
//! * [`differential`] — the lockstep driver: per-step full-`SimStats`
//!   comparison, end-of-run event-stream comparison, replayable
//!   [`DivergenceReport`]s, and injectable [`OracleFault`]s proving the
//!   harness catches real bugs.
//!
//! ## What is independently re-implemented, and what is shared
//!
//! The reference model re-implements everything this repository wrote from
//! scratch for the Skia mechanism and its evaluation: the BTB/U-SBB/R-SBB
//! replacement and probe semantics, the RAS, the shadow decoder, the block
//! former, the verification/resteer state machine and the cycle ledger.
//! The TAGE/ITTAGE predictors and the cache hierarchy are shared with
//! production *on purpose*: the oracle drives them through byte-identical
//! call sequences, so they cancel out of the comparison — any divergence
//! must originate in the independently-written logic under test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differential;
pub mod ref_sbd;
pub mod ref_sim;
pub mod ref_skia;
pub mod ref_uarch;

pub use differential::{run_case, CaseOutcome, DiffCase, DivergenceReport, OracleFault};
pub use ref_sbd::{RefShadowDecoder, SbdFault};
pub use ref_sim::{RefBpu, RefSimulator};
pub use ref_skia::{RefSbb, RefSkia};
pub use ref_uarch::{RefArray, RefBtb, RefIdealBtb, RefRas};
