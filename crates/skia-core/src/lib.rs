//! # skia-core — Shadow Branch Decoding and the Shadow Branch Buffer
//!
//! This crate implements the contribution of *"Exposing Shadow Branches"*
//! (ASPLOS 2025): **Skia**, a mechanism that opportunistically decodes the
//! unused ("shadow") bytes of instruction cache lines already fetched by
//! FDIP, and stores the direct unconditional branches, calls and returns it
//! finds in a small **Shadow Branch Buffer (SBB)** probed in parallel with
//! the BTB.
//!
//! The pieces:
//!
//! * [`sbd`] — the Shadow Branch Decoder. **Tail** decoding walks from the
//!   taken-branch exit point to the end of the line (unambiguous). **Head**
//!   decoding runs the paper's two-phase algorithm (§3.2): *Index
//!   Computation* builds a per-byte instruction-length vector, *Path
//!   Validation* walks every candidate chain that lands exactly on the
//!   entry offset, bounding work at six valid paths and choosing a start
//!   index by the First/Zero/Merge policy (First is the paper's best). A
//!   `DecodeTable` holds one program's decodes, so every simulator over
//!   the program decodes each region once.
//! * [`sbb`] — the split SBB: a **U-SBB** for direct unconditional
//!   jumps/calls (78-bit entries) and an **R-SBB** for returns (20-bit
//!   entries), both 4-way LRU with the *retired-bit* eviction preference
//!   (§4.3: never-committed, possibly bogus entries leave first).
//! * [`skia`] — the BPU-side integration object the front-end simulator
//!   drives: shadow-decode hooks called off the critical path when FTQ
//!   entries complete their prefetch, a `lookup` probed in parallel with the
//!   BTB, and commit-time retirement marking.
//!
//! ## Quick start
//!
//! ```rust
//! use skia_core::{IndexPolicy, Skia, SkiaConfig};
//! use skia_isa::encode;
//!
//! // Build a 64-byte cache line: a RET hiding in the head shadow.
//! let mut line = vec![0u8; 0];
//! encode::nop_exact(&mut line, 3);
//! encode::ret(&mut line);                       // shadow return at offset 3
//! encode::nop_exact(&mut line, 4);              // entry point at offset 4+4=8
//! while line.len() < 64 { encode::nop_exact(&mut line, 1); }
//!
//! // First-index head decoding (the paper's policy) exposes the return.
//! let mut skia = Skia::new(SkiaConfig {
//!     index_policy: IndexPolicy::First,
//!     ..SkiaConfig::default()
//! });
//! skia.on_line_entered(&line, 0x1000, 8);       // FTQ entry starts at +8
//! // The shadow RET at 0x1003 is now visible to the BPU:
//! let hit = skia.lookup(0x1003).expect("return found by head decoding");
//! assert_eq!(hit.kind, skia_isa::BranchKind::Return);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sbb;
pub mod sbd;
pub mod skia;

pub use sbb::{Sbb, SbbConfig, SbbHit, SbbStats};
pub use sbd::{
    DecodeTable, DecodedRegion, HeadDecode, IndexPolicy, ShadowBranch, ShadowDecoder,
    ShadowDecoderStats,
};
pub use skia::{Skia, SkiaConfig, SkiaStats};
