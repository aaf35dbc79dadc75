//! The fuzzing entry points and the proof that the loop finds real bugs.
//!
//! Green runs: every target fuzzes under the budget the environment sets
//! (`SKIA_FUZZ_ITERS` / `SKIA_FUZZ_MILLIS` / `SKIA_FUZZ_SEED`, parsed once
//! by [`green_config`]; small defaults keep plain `cargo test` fast, CI
//! passes a large budget) and must find nothing — the production front-end
//! and the oracle agree.
//!
//! Fault rediscovery: with a planted oracle fault the same loop MUST find
//! a divergence within the budget, minimize it, and emit a
//! `SKIA_FUZZ_REPLAY` token that reproduces the failure (fault tag
//! included). One test per planted knob.

use std::ffi::OsString;
use std::sync::OnceLock;
use std::time::Duration;

use skia_fuzz::{
    fuzz, replay, DecodeTarget, FuzzConfig, FuzzTarget, LockstepTarget, SbbTarget, ShadowTarget,
};
use skia_oracle::{OracleFault, SbdFault};

// ---------------------------------------------------------------------------
// Session knobs, parsed once per test process.
// ---------------------------------------------------------------------------

/// The environment's settings for green runs: mutation budget, master seed
/// and wall-clock cap per target.
#[derive(Debug)]
struct Knobs {
    iters: Option<u64>,
    seed: Option<u64>,
    millis: Option<u64>,
}

/// Read the knobs `env` looks up; a malformed value is an error naming its
/// knob.
fn parse_knobs(env: impl Fn(&str) -> Option<OsString>) -> Result<Knobs, String> {
    let number = |knob: &str| -> Result<Option<u64>, String> {
        let Some(v) = env(knob) else { return Ok(None) };
        let v = v.to_string_lossy();
        v.trim()
            .parse()
            .map(Some)
            .map_err(|_| format!("{knob}={v:?}: not a non-negative integer"))
    };
    Ok(Knobs {
        iters: number("SKIA_FUZZ_ITERS")?,
        seed: number("SKIA_FUZZ_SEED")?,
        millis: number("SKIA_FUZZ_MILLIS")?,
    })
}

/// The green-run config: the environment's knobs over `default_iters` and
/// the fixed seed.
fn green_config(default_iters: u64) -> FuzzConfig {
    static KNOBS: OnceLock<Knobs> = OnceLock::new();
    let knobs = KNOBS.get_or_init(|| {
        parse_knobs(|knob| std::env::var_os(knob)).unwrap_or_else(|e| panic!("{e}"))
    });
    let base = FuzzConfig::ephemeral(knobs.iters.unwrap_or(default_iters));
    FuzzConfig {
        seed: knobs.seed.unwrap_or(base.seed),
        time_budget: knobs.millis.map(Duration::from_millis),
        ..base
    }
}

#[test]
fn malformed_knobs_are_errors_naming_the_knob() {
    for knob in ["SKIA_FUZZ_ITERS", "SKIA_FUZZ_SEED", "SKIA_FUZZ_MILLIS"] {
        let err = parse_knobs(|k| (k == knob).then(|| "abc".into())).unwrap_err();
        assert!(err.contains(knob), "{knob}: {err}");
    }
    let knobs = parse_knobs(|k| (k == "SKIA_FUZZ_ITERS").then(|| "5000".into())).unwrap();
    assert_eq!(knobs.iters, Some(5000));
    assert_eq!((knobs.seed, knobs.millis), (None, None));
}

// ---------------------------------------------------------------------------
// Green runs: nothing to find when nobody is broken.
// ---------------------------------------------------------------------------

#[test]
fn decode_target_is_green() {
    let report = fuzz(&mut DecodeTarget, &green_config(400));
    assert!(
        report.failure.is_none(),
        "decode target found a real divergence:\n{}",
        report.failure.unwrap().report()
    );
    assert!(report.features > 0, "decode target produced no coverage");
}

#[test]
fn shadow_target_is_green() {
    let report = fuzz(&mut ShadowTarget::new(), &green_config(150));
    assert!(
        report.failure.is_none(),
        "shadow target found a real divergence:\n{}",
        report.failure.unwrap().report()
    );
    assert!(report.features > 0, "shadow target produced no coverage");
}

#[test]
fn sbb_target_is_green() {
    let report = fuzz(&mut SbbTarget::new(), &green_config(500));
    assert!(
        report.failure.is_none(),
        "sbb target found a real divergence:\n{}",
        report.failure.unwrap().report()
    );
    assert!(report.features > 0, "sbb target produced no coverage");
}

#[test]
fn lockstep_target_is_green() {
    let report = fuzz(&mut LockstepTarget::new(), &green_config(8));
    assert!(
        report.failure.is_none(),
        "lockstep target found a real divergence:\n{}",
        report.failure.unwrap().report()
    );
    assert!(report.features > 0, "lockstep target produced no coverage");
}

// ---------------------------------------------------------------------------
// Fault rediscovery: every planted knob must be found, minimized, and
// replayable. Budgets are deliberately far below the CI green-run budget.
// ---------------------------------------------------------------------------

/// Fuzz `target` with a planted fault and insist on a minimized, replayable
/// failure whose token carries `expected_prefix`.
fn assert_rediscovers<T: FuzzTarget>(mut target: T, iters: u64, expected_prefix: &str) {
    let report = fuzz(&mut target, &FuzzConfig::ephemeral(iters));
    let failure = report.failure.unwrap_or_else(|| {
        panic!(
            "planted fault not rediscovered in {} executions ({expected_prefix})",
            report.executions
        )
    });
    assert!(
        failure.token.starts_with(expected_prefix),
        "token {:?} should start with {expected_prefix:?}",
        failure.token
    );
    // The printed token must reproduce the failure end-to-end through the
    // public replay entry point (fault tag and all).
    let replayed = replay(&failure.token);
    assert!(
        replayed.is_err(),
        "replay of {:?} came back clean",
        failure.token
    );
    // And the healthy setup must NOT fail on the same input: strip the
    // fault tag and the body replays clean, proving the divergence is the
    // planted fault and not a latent production bug.
    let body = failure.token.split_once(':').unwrap().1;
    let clean_token = format!("{}:{body}", expected_prefix.split_once('@').unwrap().0);
    assert_eq!(
        replay(&clean_token),
        Ok(()),
        "minimized input also fails without the planted fault"
    );
}

#[test]
fn rediscovers_stale_btb_lru() {
    assert_rediscovers(
        LockstepTarget::with_fault(Some(OracleFault::StaleBtbLru)),
        20,
        "lockstep@stale-btb-lru:",
    );
}

#[test]
fn rediscovers_ignore_retired_bit_in_lockstep() {
    assert_rediscovers(
        LockstepTarget::with_fault(Some(OracleFault::IgnoreRetiredBit)),
        20,
        "lockstep@ignore-retired-bit:",
    );
}

#[test]
fn rediscovers_fold_drops_outgoing_bit() {
    assert_rediscovers(
        LockstepTarget::with_fault(Some(OracleFault::FoldDropsOutgoingBit)),
        20,
        "lockstep@fold-drops-outgoing-bit:",
    );
}

#[test]
fn rediscovers_tail_skip_first_byte() {
    assert_rediscovers(
        ShadowTarget::with_fault(SbdFault::TailSkipFirstByte),
        50,
        "shadow@tail-skip-first-byte:",
    );
}

#[test]
fn rediscovers_head_chooses_last_start() {
    assert_rediscovers(
        ShadowTarget::with_fault(SbdFault::HeadChoosesLastStart),
        50,
        "shadow@head-chooses-last-start:",
    );
}

#[test]
fn rediscovers_ignore_retired_bit_in_sbb() {
    assert_rediscovers(
        SbbTarget::with_ignored_retired_bit(),
        3000,
        "sbb@ignore-retired-bit:",
    );
}

// ---------------------------------------------------------------------------
// Replay plumbing.
// ---------------------------------------------------------------------------

/// The `SKIA_FUZZ_REPLAY` entry point: re-run one token printed by a fuzz
/// failure report. A clean replay prints so; a reproduced failure panics
/// with the detail. No-op when the variable is unset.
#[test]
fn replay_env_case() {
    let Some(token) = std::env::var_os("SKIA_FUZZ_REPLAY") else {
        return;
    };
    let token = token.to_string_lossy();
    match replay(&token) {
        Ok(()) => println!("replay clean: {token}"),
        Err(detail) => panic!("SKIA_FUZZ_REPLAY={token:?}:\n{detail}"),
    }
}

#[test]
fn replay_rejects_malformed_tokens() {
    assert!(replay("no-colon-here").is_err());
    assert!(replay("marzipan:00").is_err());
    assert!(replay("decode@no-such-fault:90").is_err());
    assert!(replay("lockstep@no-such-fault:1:2:false:3:100:true:4:false").is_err());
    assert!(replay("sbb@stale-btb-lru:l0").is_err());
    assert!(replay("decode:zz-not-hex").is_err());
    assert!(replay("lockstep:not-a-case").is_err());
    assert!(replay("sbb:x99").is_err());
}

#[test]
fn seed_tokens_round_trip_every_target() {
    fn check<T: FuzzTarget>(target: &T) {
        for seed in target.seeds() {
            let body = target.encode_input(&seed);
            assert!(
                !body.contains('\n') && !body.contains('@'),
                "{}: token body must stay single-line and '@'-free: {body:?}",
                target.name()
            );
            let decoded = target.decode_input(&body).unwrap_or_else(|| {
                panic!("{}: seed body failed to decode: {body:?}", target.name())
            });
            assert_eq!(
                target.encode_input(&decoded),
                body,
                "{}: re-encode mismatch",
                target.name()
            );
        }
    }
    check(&DecodeTarget);
    check(&ShadowTarget::new());
    check(&LockstepTarget::new());
    check(&SbbTarget::new());
}

#[test]
fn healthy_seed_tokens_replay_clean() {
    // Every seed of every target, pushed through the public token path.
    fn check<T: FuzzTarget>(target: &T) {
        for seed in target.seeds() {
            let token = target.token(&seed);
            assert_eq!(replay(&token), Ok(()), "seed token {token:?} not clean");
        }
    }
    check(&DecodeTarget);
    check(&ShadowTarget::new());
    check(&SbbTarget::new());
    // Lockstep seeds are covered by `lockstep_target_is_green` (they are
    // its phase-1 seeds); replaying them here too would double the cost.
}

// ---------------------------------------------------------------------------
// Engine behaviour: determinism and minimization. Driven
// through a toy target so the properties are isolated from simulator cost.
// ---------------------------------------------------------------------------

/// Fails whenever the input contains a magic byte; coverage is the
/// multiset-of-values signature. Minimal failing input: `[0x42]`.
struct ToyTarget;

impl FuzzTarget for ToyTarget {
    type Input = Vec<u8>;

    fn name(&self) -> &'static str {
        "toy"
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        vec![vec![1, 2, 3]]
    }

    fn mutate(&self, base: &Vec<u8>, rng: &mut rand::rngs::SmallRng) -> Vec<u8> {
        use rand::Rng;
        let mut v = base.clone();
        match rng.gen_range(0..3u32) {
            0 => v.push(rng.gen()),
            1 if v.len() > 1 => {
                let at = rng.gen_range(0..v.len());
                v.remove(at);
            }
            _ => {
                if !v.is_empty() {
                    let at = rng.gen_range(0..v.len());
                    v[at] = rng.gen();
                }
            }
        }
        v
    }

    fn run(&mut self, input: &Vec<u8>) -> skia_fuzz::RunResult {
        if input.contains(&0x42) {
            return skia_fuzz::RunResult::fail(Vec::new(), "magic byte".into());
        }
        let features = input
            .iter()
            .map(|&b| skia_fuzz::feature(&[77, u64::from(b)]))
            .collect();
        skia_fuzz::RunResult::ok(features)
    }

    fn encode_input(&self, input: &Vec<u8>) -> String {
        input.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn decode_input(&self, body: &str) -> Option<Vec<u8>> {
        if !body.len().is_multiple_of(2) {
            return None;
        }
        (0..body.len() / 2)
            .map(|i| u8::from_str_radix(&body[i * 2..i * 2 + 2], 16).ok())
            .collect()
    }

    fn shrink(&self, input: &Vec<u8>) -> Vec<Vec<u8>> {
        let mut c = Vec::new();
        if input.len() > 1 {
            c.push(input[..input.len() / 2].to_vec());
            c.push(input[input.len() / 2..].to_vec());
            for i in 0..input.len() {
                let mut v = input.clone();
                v.remove(i);
                c.push(v);
            }
        }
        c
    }
}

#[test]
fn fuzzing_is_deterministic_for_a_fixed_seed() {
    let run = || {
        let report = fuzz(&mut ToyTarget, &FuzzConfig::ephemeral(400));
        let failure = report.failure.expect("toy magic byte must be found");
        (report.executions, failure.token, failure.original_token)
    };
    assert_eq!(run(), run(), "same (seed, iters) must replay identically");
}

#[test]
fn minimizer_reduces_to_the_magic_byte() {
    let report = fuzz(&mut ToyTarget, &FuzzConfig::ephemeral(400));
    let failure = report.failure.expect("toy magic byte must be found");
    assert_eq!(
        failure.token, "toy:42",
        "greedy shrink should reach the 1-byte reproducer"
    );
    assert_ne!(failure.original_token, failure.token);
}
