//! Workload-spec lockstep target.
//!
//! Mutated [`DiffCase`] tuples — program seed/shape, walker seed, step
//! budget, BTB geometry, SBB pressure — through the full two-simulator
//! differential harness ([`skia_oracle::run_case`]): production
//! `skia-frontend` vs the reference model, full per-step `SimStats` plus
//! the end-of-run event stream. Coverage comes from the production
//! simulator's counter snapshot ([`Snapshot::counter_features`]) plus a few
//! structural buckets, so the mutator is rewarded for reaching new
//! front-end behaviours (BTB miss kinds, SBB evictions, RAS overflow, …)
//! rather than just new tuples.
//!
//! With an [`OracleFault`] attached this target is the fault-rediscovery
//! proof for the microarchitectural knobs: its seed corpus deliberately
//! includes pressure cases under which every planted fault diverges.

use rand::rngs::SmallRng;
use rand::Rng;

use skia_oracle::{run_case, DiffCase, OracleFault};

use crate::engine::{FuzzTarget, RunResult};
use crate::feature;

/// The lockstep differential target.
#[derive(Debug, Default)]
pub struct LockstepTarget {
    /// Injected oracle bug (fault-rediscovery proofs).
    pub fault: Option<OracleFault>,
}

impl LockstepTarget {
    /// An honest target.
    #[must_use]
    pub fn new() -> LockstepTarget {
        LockstepTarget { fault: None }
    }

    /// A target whose oracle carries `fault`.
    #[must_use]
    pub fn with_fault(fault: Option<OracleFault>) -> LockstepTarget {
        LockstepTarget { fault }
    }
}

impl FuzzTarget for LockstepTarget {
    type Input = DiffCase;

    fn name(&self) -> &'static str {
        "lockstep"
    }

    fn fault_tag(&self) -> Option<&'static str> {
        self.fault.map(|f| f.tag())
    }

    fn seeds(&self) -> Vec<DiffCase> {
        vec![
            // Combined pressure: finite 4-set BTB and the tiny split SBB
            // over 60 functions. Clean when healthy; diverges within ~100
            // steps under every planted OracleFault except
            // fold-drops-outgoing-bit, which only changes which TAGE
            // entries train and first shows at step 215 of the next seed.
            DiffCase {
                spec_seed: 0xBAD,
                functions: 60,
                bolted: false,
                trace_seed: 40,
                steps: 200,
                with_skia: true,
                btb_sets: 4,
                small_sbb: true,
            },
            // SBB pressure under a Bolted layout: a second, independent
            // IgnoreRetiredBit witness, and the FoldDropsOutgoingBit one.
            DiffCase {
                spec_seed: 23,
                functions: 100,
                bolted: true,
                trace_seed: 41,
                steps: 500,
                with_skia: true,
                btb_sets: 8,
                small_sbb: true,
            },
            // Small healthy case: cheap mutation base.
            DiffCase {
                spec_seed: 7,
                functions: 24,
                bolted: false,
                trace_seed: 3,
                steps: 200,
                with_skia: true,
                btb_sets: 4,
                small_sbb: true,
            },
            // Skia detached: the non-Skia half of the config space.
            DiffCase {
                spec_seed: 11,
                functions: 40,
                bolted: true,
                trace_seed: 9,
                steps: 200,
                with_skia: false,
                btb_sets: 2,
                small_sbb: false,
            },
        ]
    }

    fn mutate(&self, base: &DiffCase, rng: &mut SmallRng) -> DiffCase {
        let mut case = *base;
        for _ in 0..rng.gen_range(1..=2usize) {
            match rng.gen_range(0..8u32) {
                0 => case.spec_seed = rng.gen_range(0..1u64 << 32),
                1 => case.trace_seed = rng.gen_range(0..1u64 << 32),
                2 => case.functions = rng.gen_range(4..110usize),
                3 => case.steps = rng.gen_range(60..700usize),
                4 => case.btb_sets = [2, 4, 8, 16][rng.gen_range(0..4usize)],
                5 => case.bolted = !case.bolted,
                6 => case.small_sbb = !case.small_sbb,
                // The Skia-attached half of the space is where all the
                // interesting machinery lives; revisit the detached half
                // occasionally.
                _ => case.with_skia = rng.gen_bool(0.9),
            }
        }
        case
    }

    fn run(&mut self, input: &DiffCase) -> RunResult {
        match run_case(input, self.fault) {
            Ok(outcome) => {
                let mut features = outcome.snapshot.counter_features();
                let s = &outcome.stats;
                for (i, &misses) in s.btb_misses_by_kind.iter().enumerate() {
                    if misses > 0 {
                        features.push(feature(&[20, i as u64, u64::from(misses.ilog2())]));
                    }
                }
                features.push(feature(&[
                    21,
                    u64::from(input.with_skia),
                    u64::from(input.bolted),
                    u64::from(input.small_sbb),
                    input.btb_sets as u64,
                ]));
                if outcome.head_phantoms > 0 {
                    features.push(feature(&[22, u64::from(outcome.head_phantoms.ilog2())]));
                }
                RunResult::ok(features)
            }
            Err(report) => RunResult::fail(Vec::new(), report.to_string()),
        }
    }

    fn encode_input(&self, input: &DiffCase) -> String {
        input.encode()
    }

    fn decode_input(&self, body: &str) -> Option<DiffCase> {
        DiffCase::decode(body)
    }

    fn shrink(&self, input: &DiffCase) -> Vec<DiffCase> {
        let mut candidates = Vec::new();
        // A shorter trace is the most valuable reduction by far (the replay
        // cost is linear in steps), then a smaller program.
        for steps in [input.steps / 2, input.steps - input.steps / 4] {
            if steps >= 10 && steps < input.steps {
                candidates.push(DiffCase { steps, ..*input });
            }
        }
        for functions in [input.functions / 2, input.functions - 1] {
            if functions >= 2 && functions < input.functions {
                candidates.push(DiffCase {
                    functions,
                    ..*input
                });
            }
        }
        candidates
    }
}
