//! The lockstep differential harness: production simulator vs. oracle.
//!
//! Three layers of cases run here:
//!
//! 1. a fixed regression corpus covering Bolted/Interleaved layouts, Skia
//!    on/off, BTB pressure and a deliberately tiny SBB;
//! 2. seed-logged random cases (`SKIA_DIFF_SEED` overrides the seed, and
//!    every generated case token is printed so any failure is replayable);
//! 3. a proptest sweep whose failing tuples shrink toward minimal cases.
//!
//! `replay_env_case` replays one encoded case from `SKIA_DIFF_REPLAY` — the
//! exact command a [`skia_oracle::DivergenceReport`] prints.

use std::ffi::OsString;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skia_oracle::{run_case, DiffCase, OracleFault};

/// The fixed regression corpus. Every combination a divergence has been
/// (or plausibly could be) sensitive to: layout × Skia × SBB pressure ×
/// BTB pressure, plus one long run, small caches and a BTB large enough to
/// pay the CACTI bubble.
fn fixed_corpus() -> Vec<DiffCase> {
    vec![
        // Baseline, no Skia, interleaved.
        DiffCase {
            spec_seed: 0xC0FFEE,
            functions: 60,
            bolted: false,
            trace_seed: 1,
            steps: 600,
            with_skia: false,
            btb_sets: 16,
            small_sbb: false,
            small_caches: false,
        },
        // Bolted layout, no Skia, strong BTB pressure.
        DiffCase {
            spec_seed: 0xBEEF,
            functions: 90,
            bolted: true,
            trace_seed: 2,
            steps: 600,
            with_skia: false,
            btb_sets: 4,
            small_sbb: false,
            small_caches: false,
        },
        // Skia on, default SBB, interleaved.
        DiffCase {
            spec_seed: 7,
            functions: 80,
            bolted: false,
            trace_seed: 3,
            steps: 700,
            with_skia: true,
            btb_sets: 8,
            small_sbb: false,
            small_caches: false,
        },
        // Skia on, Bolted, default SBB.
        DiffCase {
            spec_seed: 0x5EED,
            functions: 120,
            bolted: true,
            trace_seed: 4,
            steps: 700,
            with_skia: true,
            btb_sets: 16,
            small_sbb: false,
            small_caches: false,
        },
        // Skia on, tiny SBB: eviction + retired-bit replacement is hot.
        DiffCase {
            spec_seed: 11,
            functions: 100,
            bolted: false,
            trace_seed: 5,
            steps: 800,
            with_skia: true,
            btb_sets: 8,
            small_sbb: true,
            small_caches: false,
        },
        // Skia on, tiny SBB, tiny BTB, Bolted: maximal structure churn.
        DiffCase {
            spec_seed: 13,
            functions: 100,
            bolted: true,
            trace_seed: 6,
            steps: 800,
            with_skia: true,
            btb_sets: 4,
            small_sbb: true,
            small_caches: false,
        },
        // Small program: heavy re-walks, RAS depth exercised.
        DiffCase {
            spec_seed: 17,
            functions: 8,
            bolted: false,
            trace_seed: 7,
            steps: 500,
            with_skia: true,
            btb_sets: 4,
            small_sbb: true,
            small_caches: false,
        },
        // Long run for drift: any one-cycle skew compounds visibly.
        DiffCase {
            spec_seed: 19,
            functions: 70,
            bolted: true,
            trace_seed: 8,
            steps: 1500,
            with_skia: true,
            btb_sets: 8,
            small_sbb: false,
            small_caches: false,
        },
        // Small caches: L2 evictions, L3 hits and DRAM fills, Skia off and
        // on (the paper's hierarchy holds these programs in its L2).
        DiffCase {
            spec_seed: 29,
            functions: 100,
            bolted: false,
            trace_seed: 10,
            steps: 900,
            with_skia: false,
            btb_sets: 8,
            small_sbb: false,
            small_caches: true,
        },
        DiffCase {
            spec_seed: 31,
            functions: 80,
            bolted: true,
            trace_seed: 11,
            steps: 900,
            with_skia: true,
            btb_sets: 4,
            small_sbb: true,
            small_caches: true,
        },
        // A 64K-entry BTB (16,384 sets): the one case whose BTB pays the
        // CACTI bubble, 3 cycles on every resteer.
        DiffCase {
            spec_seed: 37,
            functions: 80,
            bolted: false,
            trace_seed: 12,
            steps: 700,
            with_skia: true,
            btb_sets: 16_384,
            small_sbb: false,
            small_caches: false,
        },
    ]
}

#[test]
fn fixed_corpus_has_zero_divergences() {
    let mut total_events = 0usize;
    let mut tail_phantoms = 0u64;
    let mut sbb_inserts = 0u64;
    let mut rescues = 0u64;
    for case in fixed_corpus() {
        let outcome = run_case(&case, None).unwrap_or_else(|report| panic!("{report}"));
        total_events += outcome.events;
        tail_phantoms += outcome.tail_phantoms;
        if let Some(skia) = &outcome.stats.skia {
            sbb_inserts += skia.sbb.u_inserts + skia.sbb.r_inserts;
        }
        rescues += outcome.stats.sbb_rescues;
    }
    // Canary asserts: the corpus must actually exercise the machinery it
    // claims to cover, and tail decoding (which starts at a true
    // instruction boundary) must never manufacture phantom branches.
    assert!(total_events > 0, "corpus produced no telemetry events");
    assert!(sbb_inserts > 0, "corpus never filled the SBB");
    assert!(rescues > 0, "corpus never exercised an SBB rescue");
    assert_eq!(
        tail_phantoms, 0,
        "tail decode found branches with no ground truth"
    );
}

/// The random cases' master seed: the `SKIA_DIFF_SEED` setting if any,
/// else a fixed default. A malformed value is an error naming the knob.
fn diff_seed(setting: Option<OsString>) -> Result<u64, String> {
    let Some(v) = setting else {
        return Ok(0x0D1F_F5EE_D000_0001);
    };
    let v = v.to_string_lossy();
    v.parse()
        .map_err(|_| format!("SKIA_DIFF_SEED={v:?}: not a non-negative integer"))
}

#[test]
fn diff_seed_is_the_default_or_an_integer() {
    assert_eq!(diff_seed(None), Ok(0x0D1F_F5EE_D000_0001));
    assert_eq!(diff_seed(Some("42".into())), Ok(42));
    let err = diff_seed(Some("abc".into())).unwrap_err();
    assert!(err.contains("SKIA_DIFF_SEED"), "{err}");
}

/// 32 random cases from a logged seed (set `SKIA_DIFF_SEED` to reproduce a
/// CI run locally); each case token is printed before it runs.
#[test]
fn random_cases_with_logged_seed() {
    let seed = diff_seed(std::env::var_os("SKIA_DIFF_SEED")).unwrap_or_else(|e| panic!("{e}"));
    println!("SKIA_DIFF_SEED={seed}");
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..32 {
        let case = DiffCase {
            spec_seed: rng.gen(),
            functions: rng.gen_range(8..48),
            bolted: rng.gen::<bool>(),
            trace_seed: rng.gen(),
            steps: rng.gen_range(200..700),
            with_skia: rng.gen::<bool>(),
            btb_sets: rng.gen_range(4..32),
            small_sbb: rng.gen::<bool>(),
            small_caches: rng.gen::<bool>(),
        };
        println!("case {i}: {}", case.encode());
        if let Err(report) = run_case(&case, None) {
            panic!("{report}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized lockstep sweep. A failing tuple shrinks toward a minimal
    /// (seed, size, steps, …) reproducer before the panic is reported.
    #[test]
    fn lockstep_holds_for_arbitrary_cases(
        spec_seed in any::<u64>(),
        functions in 8usize..48,
        steps in 200usize..700,
        bolted in any::<bool>(),
        with_skia in any::<bool>(),
        btb_sets in 4usize..32,
    ) {
        let case = DiffCase {
            spec_seed,
            functions,
            bolted,
            // Derive the remaining knobs from the seed: six proptest
            // dimensions shrink well, and these three stay exercised.
            trace_seed: spec_seed.rotate_left(17) ^ 0xA5A5,
            steps,
            with_skia,
            btb_sets,
            small_sbb: spec_seed & 1 == 1,
            small_caches: spec_seed & 2 == 2,
        };
        if let Err(report) = run_case(&case, None) {
            panic!("{report}");
        }
    }
}

/// The harness must actually catch divergence: a stale-LRU BTB fault in
/// the oracle has to produce a report carrying the replay command.
#[test]
fn broken_oracle_stale_lru_is_caught() {
    let case = DiffCase {
        spec_seed: 0xBAD,
        functions: 90,
        bolted: false,
        trace_seed: 40,
        steps: 900,
        with_skia: true,
        btb_sets: 4,
        small_sbb: false,
        small_caches: false,
    };
    // Sanity: the healthy oracle agrees on this exact case...
    run_case(&case, None).unwrap_or_else(|report| panic!("healthy oracle diverged: {report}"));
    // ...and the faulty one is caught, with a replayable report.
    let report =
        run_case(&case, Some(OracleFault::StaleBtbLru)).expect_err("stale-LRU fault must diverge");
    let text = report.to_string();
    assert!(report.step <= case.steps);
    assert!(
        text.contains("SKIA_DIFF_REPLAY") && text.contains(&case.encode()),
        "report must carry the replay command:\n{text}"
    );
    assert!(
        text.contains(&format!("at step {}", report.step)),
        "report must name the diverging step:\n{text}"
    );
}

/// Same, for the retired-bit replacement policy: ignoring the retired bit
/// under SBB pressure must diverge.
#[test]
fn broken_oracle_ignored_retired_bit_is_caught() {
    let case = DiffCase {
        spec_seed: 23,
        functions: 100,
        bolted: true,
        trace_seed: 41,
        steps: 1200,
        with_skia: true,
        btb_sets: 8,
        small_sbb: true,
        small_caches: false,
    };
    run_case(&case, None).unwrap_or_else(|report| panic!("healthy oracle diverged: {report}"));
    let report = run_case(&case, Some(OracleFault::IgnoreRetiredBit))
        .expect_err("ignored-retired-bit fault must diverge");
    assert!(report.to_string().contains("SKIA_DIFF_REPLAY"));
}

/// Same, for the decoder knobs added for the fuzzing subsystem: every
/// `OracleFault` must be caught by the plain differential harness on at
/// least one fixed case (the fuzzer additionally rediscovers them from
/// scratch — see `skia-fuzz`).
#[test]
fn broken_oracle_decoder_faults_are_caught() {
    let case = DiffCase {
        spec_seed: 0xBAD,
        functions: 90,
        bolted: false,
        trace_seed: 40,
        steps: 900,
        with_skia: true,
        btb_sets: 4,
        small_sbb: false,
        small_caches: false,
    };
    run_case(&case, None).unwrap_or_else(|report| panic!("healthy oracle diverged: {report}"));
    for fault in [
        OracleFault::TailSkipFirstByte,
        OracleFault::HeadChoosesLastStart,
    ] {
        let Err(report) = run_case(&case, Some(fault)) else {
            panic!("{fault:?} must diverge");
        };
        let text = report.to_string();
        assert!(report.step <= case.steps);
        assert!(
            text.contains("SKIA_DIFF_REPLAY") && text.contains(&case.encode()),
            "report must carry the replay command:\n{text}"
        );
    }
}

/// The reference predictors are compared too: a TAGE history fold that
/// ignores the outgoing bit must diverge, with Skia attached and without.
/// The fold only changes which entries train, so it shows after a few
/// hundred steps rather than at once.
#[test]
fn broken_oracle_tage_fold_is_caught() {
    let skia_on = DiffCase {
        spec_seed: 23,
        functions: 100,
        bolted: true,
        trace_seed: 41,
        steps: 500,
        with_skia: true,
        btb_sets: 8,
        small_sbb: true,
        small_caches: false,
    };
    let skia_off = DiffCase {
        spec_seed: 11,
        functions: 40,
        bolted: false,
        trace_seed: 40,
        steps: 600,
        with_skia: false,
        btb_sets: 2,
        small_sbb: false,
        small_caches: false,
    };
    for case in [skia_on, skia_off] {
        run_case(&case, None).unwrap_or_else(|report| panic!("healthy oracle diverged: {report}"));
        let report = run_case(&case, Some(OracleFault::FoldDropsOutgoingBit))
            .expect_err("dropped outgoing history bit must diverge");
        let text = report.to_string();
        assert!(
            report.step < case.steps,
            "caught by the per-step stats:\n{text}"
        );
        assert!(text.contains("SKIA_DIFF_REPLAY") && text.contains(&case.encode()));
    }
}

/// The fault-tag codec round trips for every knob (fuzz replay tokens
/// embed these tags).
#[test]
fn oracle_fault_tags_round_trip() {
    for fault in OracleFault::ALL {
        assert_eq!(OracleFault::from_tag(fault.tag()), Some(fault));
    }
    assert_eq!(OracleFault::from_tag("no-such-fault"), None);
}

/// Round-trip of the replay token codec.
#[test]
fn diff_case_codec_round_trips() {
    for case in fixed_corpus() {
        assert_eq!(DiffCase::decode(&case.encode()), Some(case));
    }
    assert_eq!(DiffCase::decode(""), None);
    assert_eq!(DiffCase::decode("1:2:3"), None);
    assert_eq!(DiffCase::decode("1:2:1:4:5:1:7:0"), None, "no cache flag");
    assert_eq!(DiffCase::decode("1:2:1:4:5:1:7:0:1:extra"), None);
    assert!(DiffCase::decode("1:2:1:4:5:1:7:0:1").is_some());
    assert_eq!(DiffCase::decode("1:1:1:4:5:1:7:0:1"), None, "one function");
    assert_eq!(DiffCase::decode("1:2:1:4:5:1:0:0:1"), None, "no BTB sets");
}

/// Replay one case from the `SKIA_DIFF_REPLAY` env var (printed by every
/// divergence report). A no-op when the variable is unset.
#[test]
fn replay_env_case() {
    let Some(token) = std::env::var_os("SKIA_DIFF_REPLAY") else {
        return;
    };
    let token = token.to_string_lossy();
    let case = DiffCase::decode(&token)
        .unwrap_or_else(|| panic!("SKIA_DIFF_REPLAY holds an invalid case token: {token:?}"));
    match run_case(&case, None) {
        Ok(outcome) => println!(
            "case {} replayed cleanly: {} events, {} steps, {} instructions",
            token, outcome.events, case.steps, outcome.stats.instructions
        ),
        Err(report) => panic!("{report}"),
    }
}
