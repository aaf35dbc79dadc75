//! # skia-uarch — microarchitectural substrates for the Skia reproduction
//!
//! Everything the paper's front-end depends on but does not itself contribute:
//!
//! * [`tag_array`] — a generic set-associative tag array with LRU and
//!   caller-controlled victim preference (shared by caches, the BTB and the
//!   Shadow Branch Buffer), stored by field.
//! * [`line_bitmap`] — per-cache-line bitmaps of resident pcs, the BTB ∥ SBB
//!   fetch-window scan of the BPU.
//! * [`cache`] — instruction-side cache hierarchy (L1-I → L2 → L3 → DRAM)
//!   with demand/prefetch fill accounting.
//! * [`btb`] — the Branch Target Buffer with the paper's 78-bit entry layout.
//! * [`tage`] — a TAGE-SC-L-style conditional branch predictor, trained at
//!   commit.
//! * [`ittage`] — an ITTAGE indirect target predictor.
//! * [`ras`] — a return address stack, trained at commit.
//! * [`cacti`] — an analytical SRAM access-latency model standing in for the
//!   CACTI tool the paper uses to justify BTB scaling costs.
//!
//! All structures are deterministic and allocation-free on their hot paths so
//! the cycle simulator in `skia-frontend` can run multi-million-instruction
//! traces quickly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btb;
pub mod cache;
pub mod cacti;
mod history;
pub mod ittage;
pub mod line_bitmap;
pub mod ras;
pub mod tag_array;
pub mod tage;

pub use btb::{Btb, BtbConfig, BtbEntry, IdealBtb};
pub use cache::{Cache, CacheConfig, CacheStats, Hierarchy, HierarchyConfig};
pub use ittage::Ittage;
pub use line_bitmap::LineBitmap;
pub use ras::ReturnAddressStack;
pub use tag_array::TagArray;
pub use tage::{Tage, TageConfig, TagePrediction};
