//! Record/replay equivalence properties.
//!
//! The record-once/replay-many pipeline is only sound if a replayed trace is
//! *bit-identical* to the live walk it was recorded from — every simulator
//! downstream consumes the `TraceStep` stream and nothing else, so stream
//! equality is the whole correctness argument. These properties exercise it
//! across program layouts, seeds, trip counts, and step counts, and also pin
//! down the RNG-isolation guarantee: recording a trace must never perturb an
//! independently running walker (the differential harness replays seed-logged
//! cases and would silently diverge otherwise).

use proptest::prelude::*;
use skia_workloads::{Layout, Program, ProgramSpec, RecordedTrace, Walker};

/// A small spec keeps per-case generation cheap while still covering both
/// layouts, indirect dispatch, loops, and bursts.
fn small_spec(seed: u64, bolted: bool) -> ProgramSpec {
    ProgramSpec {
        seed,
        functions: 60,
        layout: if bolted {
            Layout::Bolted
        } else {
            Layout::Interleaved
        },
        ..ProgramSpec::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replay equals the live walker step-for-step, field-for-field, for any
    /// (layout, program seed, walk seed, trip count, length).
    #[test]
    fn replay_equals_live_walk(
        prog_seed in any::<u64>(),
        walk_seed in any::<u64>(),
        bolted in any::<bool>(),
        mean_trip in 1u32..12,
        steps in 1usize..1500,
    ) {
        let program = Program::generate(&small_spec(prog_seed, bolted));
        let trace = RecordedTrace::record(&program, walk_seed, mean_trip, steps);
        let live = Walker::new(&program, walk_seed, mean_trip);
        let mut n = 0;
        for (replayed, lived) in trace.replay().zip(live) {
            prop_assert_eq!(replayed, lived);
            n += 1;
        }
        prop_assert_eq!(n, steps, "replay must yield exactly the recorded length");
    }

    /// A stored trace serves any shorter request: its prefix equals a fresh
    /// walk of that length (the invariant the disk cache's prefix-serving
    /// relies on).
    #[test]
    fn prefix_of_longer_recording_equals_shorter_walk(
        walk_seed in any::<u64>(),
        short in 1usize..400,
        extra in 1usize..400,
    ) {
        let program = Program::generate(&small_spec(7, false));
        let long = RecordedTrace::record(&program, walk_seed, 6, short + extra);
        let fresh = RecordedTrace::record(&program, walk_seed, 6, short);
        prop_assert_eq!(long.prefix(short), fresh);
    }

    /// RNG isolation: recording a trace mid-walk must not perturb an
    /// independent live walker. The walker drawn to completion in one gulp
    /// must equal the walker that was interleaved with recording activity.
    #[test]
    fn recording_does_not_perturb_a_live_walker(
        walk_seed in any::<u64>(),
        pause_at in 1usize..300,
    ) {
        let program = Program::generate(&small_spec(11, true));
        let reference: Vec<_> =
            Walker::new(&program, walk_seed, 6).take(600).collect();

        let mut interleaved = Walker::new(&program, walk_seed, 6);
        let mut observed: Vec<_> = (&mut interleaved).take(pause_at).collect();
        // Recording here uses its own fresh walker internally; if it shared
        // or reseeded any global state, the resumed stream would diverge.
        let _ = RecordedTrace::record(&program, walk_seed ^ 0xDEAD, 9, 500);
        observed.extend(interleaved.take(600 - pause_at));
        prop_assert_eq!(observed, reference);
    }
}

/// Replaying twice from one recording yields identical streams — replay holds
/// no hidden mutable state.
#[test]
fn replay_is_stateless_and_repeatable() {
    let program = Program::generate(&small_spec(3, false));
    let trace = RecordedTrace::record(&program, 42, 6, 2000);
    let a: Vec<_> = trace.replay().collect();
    let b: Vec<_> = trace.replay().collect();
    assert_eq!(a, b);
    assert_eq!(a.len(), 2000);
}
