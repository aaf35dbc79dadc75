//! The whole recorded walk, pinned.
//!
//! The figure goldens replay 2,000 steps, and the benchmark's cold-cache
//! workload simulates 200k of the 400k steps it records, so neither sees a
//! walk past that prefix. This test digests the program image and every
//! step of the paper-default 400k-step recording of three paper profiles
//! (both layouts) and compares them with constants. Generation and the
//! walker are pure functions of the profile, and every cached program and
//! trace relies on that: a digest that moves means the generator or the
//! walker now draws differently, which would also need a cache format bump.
//! Re-bless only for such an intentional change (the failure message prints
//! the new values).

use skia::telemetry::fnv1a;
use skia::workloads::{profile, Program, RecordedTrace};

/// The paper-default walk length (`skia_experiments::DEFAULT_STEPS`).
const STEPS: usize = 400_000;

/// FNV-1a digests of `name`'s program image and of its 400k-step
/// recording, as each step's block start, branch pc, next pc and taken bit.
fn digests(name: &str) -> (u64, u64) {
    let p = profile(name).expect("paper benchmark");
    let program = Program::generate(&p.spec);
    let image = fnv1a(program.bytes_at(program.base(), program.code_bytes()));
    let trace = RecordedTrace::record(&program, p.trace_seed, p.spec.mean_trip_count, STEPS);
    let mut steps = Vec::with_capacity(STEPS * 25);
    for s in trace.replay() {
        steps.extend(s.block_start.to_le_bytes());
        steps.extend(s.branch_pc.to_le_bytes());
        steps.extend(s.next_pc.to_le_bytes());
        steps.push(u8::from(s.taken));
    }
    (image, fnv1a(&steps))
}

#[test]
fn paper_profile_walks_match_their_digests() {
    let pinned: [(&str, (u64, u64)); 3] = [
        (
            "finagle-chirper",
            (0x9da5_fe0b_2a39_f56e, 0x9a35_ba1f_c9bc_a106),
        ),
        (
            "speedometer2.0",
            (0xfb43_ac23_8c13_e421, 0xd283_5151_0045_a94b),
        ),
        ("verilator", (0x99ca_d74d_cb65_b335, 0xa86f_89b3_d128_3fd6)),
    ];
    let got: Vec<_> = pinned
        .iter()
        .map(|&(name, _)| (name, digests(name)))
        .collect();
    assert!(got == pinned, "(image, walk) digests are {got:#x?}");
}
