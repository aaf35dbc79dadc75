//! Parallel sweeps must be numerically indistinguishable from serial runs:
//! every field of every `SimStats` — including the f64 IPC-weighting
//! bookkeeping — must match bitwise regardless of thread count.

use skia_experiments::{StandingConfig, Sweep};

const BENCHES: [&str; 3] = ["tpcc", "voter", "kafka"];
const STEPS: usize = 2_000;

fn sweep_stats(threads: usize) -> Vec<skia_frontend::SimStats> {
    let mut sweep = Sweep::new(threads, None).quiet();
    for name in BENCHES {
        for config in [
            StandingConfig::Btb(8192).frontend(),
            StandingConfig::BtbPlusSkia(8192).frontend(),
        ] {
            sweep.add(name, config, STEPS);
        }
    }
    sweep.run_collect()
}

#[test]
fn parallel_sweep_matches_serial_field_for_field() {
    let serial = sweep_stats(1);
    let parallel = sweep_stats(4);
    assert_eq!(serial.len(), BENCHES.len() * 2);
    assert_eq!(parallel.len(), serial.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        // SimStats derives PartialEq over every field, so this is a
        // field-for-field comparison (f64 fields compare bitwise-equal
        // values; NaN would fail, and no stat should ever be NaN).
        assert_eq!(s, p, "job {i} diverged between 1 and 4 threads");
    }
}

/// A sweep (which replays shared recorded traces) must produce exactly the
/// stats of driving each simulator from a live walker — the record/replay
/// pipeline is an implementation detail, never a results change.
#[test]
fn sweep_replay_matches_direct_live_walk() {
    let direct: Vec<_> = BENCHES
        .iter()
        .flat_map(|name| {
            let w = skia_experiments::workload(name, None);
            [
                w.run(StandingConfig::Btb(8192).frontend(), STEPS),
                w.run(StandingConfig::BtbPlusSkia(8192).frontend(), STEPS),
            ]
        })
        .collect();
    let swept = sweep_stats(1);
    assert_eq!(direct, swept, "replayed sweep diverged from live walks");
}
