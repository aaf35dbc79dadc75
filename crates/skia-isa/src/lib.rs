//! # skia-isa — an x86-64 subset encoder and length decoder
//!
//! This crate is the instruction-set substrate of the Skia reproduction
//! (*"Exposing Shadow Branches"*, ASPLOS 2025). Skia's Shadow Branch Decoder
//! operates on **raw instruction bytes** in cache lines, so the reproduction
//! needs a genuine variable-length encoding with all the ambiguity of x86:
//! decoding the same bytes from different start offsets must be able to yield
//! different — sometimes both valid — instruction streams (paper Fig. 8).
//!
//! The crate provides:
//!
//! * [`decode::decode`] — a single-instruction length decoder for 64-bit mode
//!   covering legacy prefixes, REX, the one-byte and `0F` two-byte opcode maps
//!   (plus generic `0F 38`/`0F 3A` handling), ModRM/SIB/displacement and all
//!   immediate forms (1–15 bytes total).
//! * [`encode`] — instruction templates used by the synthetic workload
//!   generator to emit realistic code bytes, including every branch form the
//!   paper cares about.
//! * [`BranchKind`] — the paper's branch taxonomy (§2.4): `DirectCond`,
//!   `DirectUncond`, `Call`, `Return`, `IndirectJmp`, `IndirectCall`.
//!
//! ## Subset boundaries
//!
//! VEX/EVEX (`C4`/`C5`/`62`) encodings, far control transfers and a few legacy
//! opcodes invalid in 64-bit mode are treated as *undecodable*; the decoder
//! reports [`DecodeError::InvalidOpcode`] for them, which the Shadow Branch
//! Decoder interprets exactly like the paper's "cannot decode a valid
//! instruction from this byte" case (the `0` entries of Fig. 9).
//!
//! ## Example
//!
//! ```rust
//! use skia_isa::{decode, encode, BranchKind, InsnKind};
//!
//! let mut code = Vec::new();
//! encode::jmp_rel32(&mut code, 0x1234);
//! let d = decode::decode(&code).expect("valid encoding");
//! assert_eq!(d.len as usize, code.len());
//! match d.kind {
//!     InsnKind::Branch(b) => {
//!         assert_eq!(b.kind, BranchKind::DirectUncond);
//!         assert_eq!(b.rel, Some(0x1234));
//!     }
//!     _ => unreachable!("jmp must decode as a branch"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decode;
pub mod encode;
mod kind;

pub use decode::{decode, DecodeError, Decoded};
pub use kind::{BranchInfo, BranchKind, InsnKind};

/// Size of an instruction cache line in bytes, used throughout the project.
///
/// The paper models 64-byte lines everywhere (Table 1).
pub const CACHE_LINE_BYTES: usize = 64;

/// Maximum length of a legal x86-64 instruction in bytes.
pub const MAX_INSN_LEN: usize = 15;
