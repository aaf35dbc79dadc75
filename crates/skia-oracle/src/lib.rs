//! # skia-oracle — executable reference model + lockstep differential harness
//!
//! A deliberately slow, obviously-correct restatement of the Skia front-end
//! pipeline, and the machinery to run it in lockstep against the real
//! simulator:
//!
//! * [`ref_uarch`] — plain-`Vec`, linear-search reference models of the BTB
//!   (finite and infinite) and the L1-I/L2/L3 ladder, with paper-literal
//!   one-tick-per-access true LRU, and of the RAS.
//! * [`ref_predict`] — reference TAGE and ITTAGE: a vector of tables, each
//!   folding its own history one register at a time.
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
//! The reference model re-implements every stateful structure of the
//! simulated front-end: the BTB/U-SBB/R-SBB replacement and probe
//! semantics, the L1-I/L2/L3 ladder, the TAGE/ITTAGE predictors, the RAS,
//! the shadow decoder, the block former, the verification/resteer state
//! machine and the cycle ledger. Production stores these structures for
//! speed — tag arrays by field, predictor history folded in lanes, flat
//! predictor tables, line bitmaps for the fetch-window scan — and the
//! reference keeps the plain forms, so a bug in either representation
//! shows up as a divergence instead of cancelling out. What is shared is
//! stateless: configuration and geometry types, the stats types compared
//! and the generated program and trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differential;
pub mod ref_predict;
pub mod ref_sbd;
pub mod ref_sim;
pub mod ref_skia;
pub mod ref_uarch;

pub use differential::{run_case, CaseOutcome, DiffCase, DivergenceReport, OracleFault};
pub use ref_predict::{RefIttage, RefTage};
pub use ref_sbd::{RefShadowDecoder, SbdFault};
pub use ref_sim::{RefBpu, RefSimulator};
pub use ref_skia::{RefSbb, RefSkia};
pub use ref_uarch::{RefArray, RefBtb, RefHierarchy, RefIdealBtb, RefRas};
