//! skia-fuzz — deterministic, coverage-guided differential fuzzing for the
//! Skia front-end.
//!
//! A pure-Rust mutation loop (no cargo-fuzz/libFuzzer, so it runs inside
//! `cargo test` and CI): each [`FuzzTarget`] owns a structured input type,
//! a mutator, a replay-token codec and an executor that checks invariants
//! and differential agreement against the `skia-oracle` reference model.
//! The engine keeps a feature-coverage set (branch-kind × offset-class ×
//! outcome buckets from the targets, plus snapshot-counter magnitude
//! buckets via [`skia_telemetry::Snapshot::counter_features`]), persists
//! interesting inputs under `<cache root>/fuzz-corpus/<target>/` with the
//! same versioned-file discipline as the program/trace caches, greedily
//! minimizes any failure, and prints a `SKIA_FUZZ_REPLAY` token that
//! reproduces it — the same UX as the lockstep `SKIA_DIFF_REPLAY` reports.
//!
//! Targets:
//!
//! - [`DecodeTarget`] — mutated instruction bytes through
//!   `skia_isa::decode` (invariants) and a padded-line tail decode of the
//!   production `ShadowDecoder` vs [`skia_oracle::RefShadowDecoder`].
//! - [`ShadowTarget`] — synthesized cache lines with planted entry/exit
//!   offsets: head Index Computation/Path Validation and tail decode,
//!   production vs reference, across every index policy.
//! - [`LockstepTarget`] — mutated [`skia_oracle::DiffCase`] tuples through
//!   the full two-simulator lockstep harness.
//! - [`SbbTarget`] — mutated operation sequences over the split U-SBB/
//!   R-SBB against the reference SBB, pinning the §4.3 retired-bit
//!   replacement priority.
//!
//! Determinism: `SKIA_FUZZ_SEED` fixes the mutation RNG (default fixed),
//! `SKIA_FUZZ_ITERS` the budget, so a session replays exactly. Planted
//! oracle faults ([`skia_oracle::OracleFault`], [`skia_oracle::SbdFault`])
//! prove the loop actually finds bugs: see `tests/fuzz.rs`.

pub mod corpus;
pub mod engine;
pub mod targets;

pub use corpus::{Corpus, CORPUS_VERSION};
pub use engine::{fuzz, FuzzConfig, FuzzFailure, FuzzReport, FuzzTarget, RunResult};
pub use targets::decode::DecodeTarget;
pub use targets::lockstep::LockstepTarget;
pub use targets::sbb::SbbTarget;
pub use targets::shadow::{LineCase, ShadowTarget};

use skia_oracle::{OracleFault, SbdFault};

/// Stable FNV-1a hash of a feature tuple — the coverage-map key. The first
/// element conventionally namespaces the feature class within a target.
#[must_use]
pub fn feature(parts: &[u64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &p in parts {
        for b in p.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Replay one `SKIA_FUZZ_REPLAY` token: `<target>[@fault]:<body>`.
///
/// The prefix names the target and (for fault-rediscovery tokens) the
/// injected oracle fault, so the failure reproduces under the exact setup
/// that found it. `Ok(())` means the input is clean; `Err` carries the
/// reproduced failure detail or a parse problem.
pub fn replay(token: &str) -> Result<(), String> {
    let (prefix, body) = token
        .trim()
        .split_once(':')
        .ok_or_else(|| format!("malformed token (no ':'): {token:?}"))?;
    let (name, fault_tag) = match prefix.split_once('@') {
        Some((n, t)) => (n, Some(t)),
        None => (prefix, None),
    };
    match (name, fault_tag) {
        ("decode", None) => engine::replay_with(&mut DecodeTarget, body),
        ("shadow", tag) => {
            let mut target = ShadowTarget::new();
            if let Some(tag) = tag {
                target.fault = Some(parse_sbd_fault(tag)?);
            }
            engine::replay_with(&mut target, body)
        }
        ("lockstep", tag) => {
            let fault = match tag {
                Some(tag) => Some(
                    OracleFault::from_tag(tag)
                        .ok_or_else(|| format!("unknown fault tag {tag:?}"))?,
                ),
                None => None,
            };
            engine::replay_with(&mut LockstepTarget::with_fault(fault), body)
        }
        ("sbb", tag) => {
            let mut target = SbbTarget::new();
            if let Some(tag) = tag {
                if tag != "ignore-retired-bit" {
                    return Err(format!("unknown fault tag {tag:?} for sbb"));
                }
                target.ignore_retired = true;
            }
            engine::replay_with(&mut target, body)
        }
        _ => Err(format!("unknown target prefix {prefix:?}")),
    }
}

fn parse_sbd_fault(tag: &str) -> Result<SbdFault, String> {
    match tag {
        "tail-skip-first-byte" => Ok(SbdFault::TailSkipFirstByte),
        "head-chooses-last-start" => Ok(SbdFault::HeadChoosesLastStart),
        _ => Err(format!("unknown fault tag {tag:?} for shadow")),
    }
}
