//! The mutation loop: seed → mutate → run → coverage/minimize.
//!
//! Deliberately small and deterministic. One [`SmallRng`] drives every
//! mutation decision, the corpus starts from the target's seeds, lives in
//! memory and is visited in insertion order, and the iteration budget is the
//! only stop condition besides an optional wall clock — so a fixed
//! `(seed, iters)` pair replays the exact same search, which is what lets CI
//! assert "the planted bug *is* rediscovered".

use std::collections::HashSet;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Maximum executions the minimizer may spend shrinking a failure.
const SHRINK_BUDGET: u64 = 300;

/// Outcome of running one input through a target.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Behavioural features this input exercised (arbitrary stable hashes;
    /// the engine only cares about set membership).
    pub features: Vec<u64>,
    /// A divergence or invariant violation, if the input found one.
    pub failure: Option<String>,
}

impl RunResult {
    /// A passing result carrying only coverage features.
    #[must_use]
    pub fn ok(features: Vec<u64>) -> RunResult {
        RunResult {
            features,
            failure: None,
        }
    }

    /// A failing result.
    #[must_use]
    pub fn fail(features: Vec<u64>, detail: String) -> RunResult {
        RunResult {
            features,
            failure: Some(detail),
        }
    }
}

/// One fuzzable subsystem: input representation, mutation, execution, and a
/// replay-token codec. Targets must be re-runnable — `run` builds whatever
/// per-input state it needs from scratch, so the same input always produces
/// the same result (the minimizer and the replay path depend on this).
pub trait FuzzTarget {
    /// The structured input the target mutates and executes.
    type Input: Clone;

    /// Stable base name: the replay-token prefix. Must not contain `:` or
    /// `@`.
    fn name(&self) -> &'static str;

    /// Injected-fault tag, appended to the token prefix as `name@tag` so a
    /// replay token reproduces the failure *with the fault active*.
    fn fault_tag(&self) -> Option<&'static str> {
        None
    }

    /// Deterministic starting corpus.
    fn seeds(&self) -> Vec<Self::Input>;

    /// Derive a new input from `base`.
    fn mutate(&self, base: &Self::Input, rng: &mut SmallRng) -> Self::Input;

    /// Execute one input.
    fn run(&mut self, input: &Self::Input) -> RunResult;

    /// Serialize an input to a token body (no `\n`; `:` is fine — the
    /// token splits on the *first* `:` only).
    fn encode_input(&self, input: &Self::Input) -> String;

    /// Parse a token body produced by [`FuzzTarget::encode_input`].
    fn decode_input(&self, body: &str) -> Option<Self::Input>;

    /// Strictly-simpler candidate reductions of `input`, most aggressive
    /// first. The greedy minimizer keeps any candidate that still fails.
    fn shrink(&self, input: &Self::Input) -> Vec<Self::Input>;

    /// The replay-token prefix: `name` or `name@fault-tag`.
    fn token_prefix(&self) -> String {
        match self.fault_tag() {
            Some(tag) => format!("{}@{}", self.name(), tag),
            None => self.name().to_string(),
        }
    }

    /// The full replay token for one input.
    fn token(&self, input: &Self::Input) -> String {
        format!("{}:{}", self.token_prefix(), self.encode_input(input))
    }
}

/// Budget and determinism knobs for one fuzzing session.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed for the mutation RNG.
    pub seed: u64,
    /// Mutated-input executions (seed-corpus executions are extra).
    pub iters: u64,
    /// Optional wall-clock cap; the loop stops early once exceeded.
    pub time_budget: Option<Duration>,
}

impl FuzzConfig {
    /// A config with the fixed seed and no wall-clock cap.
    #[must_use]
    pub fn ephemeral(iters: u64) -> FuzzConfig {
        FuzzConfig {
            seed: 0x5F3A_F022,
            iters,
            time_budget: None,
        }
    }
}

/// A minimized failure with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Replay token of the *minimized* input (prefix includes the fault
    /// tag, so replaying re-activates the injected fault).
    pub token: String,
    /// Replay token of the original, pre-minimization input.
    pub original_token: String,
    /// Failure detail from the minimized input's run.
    pub detail: String,
    /// Executions before the failure was first hit.
    pub executions_to_find: u64,
}

impl FuzzFailure {
    /// The full human-readable report, ending in the replay command line
    /// (same UX as the lockstep `SKIA_DIFF_REPLAY` reports).
    #[must_use]
    pub fn report(&self) -> String {
        format!(
            "fuzz failure after {} executions (original token {}):\n{}\nreplay: \
             SKIA_FUZZ_REPLAY='{}' cargo test -p skia-fuzz --test fuzz replay_env_case -- \
             --nocapture",
            self.executions_to_find, self.original_token, self.detail, self.token
        )
    }
}

/// Summary of one fuzzing session.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Token prefix of the fuzzed target (includes the fault tag, if any).
    pub target: String,
    /// Total inputs executed (seeds + mutations; the minimizer's executions
    /// are not counted).
    pub executions: u64,
    /// Final corpus size (seeds plus novel mutations).
    pub corpus_len: usize,
    /// Distinct coverage features seen.
    pub features: usize,
    /// The first failure found, minimized — `None` on a green run.
    pub failure: Option<FuzzFailure>,
}

/// Run the coverage-guided loop: execute the seeds, then mutate corpus picks
/// until the budget is spent. Inputs that exercise new features join the
/// corpus. The first failing input is greedily minimized and returned; its
/// replay command is also printed to stderr.
pub fn fuzz<T: FuzzTarget>(target: &mut T, config: &FuzzConfig) -> FuzzReport {
    let started = Instant::now();
    let mut rng = SmallRng::seed_from_u64(config.seed);

    let mut corpus: Vec<T::Input> = target.seeds();
    assert!(!corpus.is_empty(), "target must provide at least one seed");

    let mut features: HashSet<u64> = HashSet::new();
    let mut executions: u64 = 0;
    let out_of_time = |started: Instant| match config.time_budget {
        Some(cap) => started.elapsed() >= cap,
        None => false,
    };

    // Phase 1: every seed runs once, in order, seeding the feature map. A
    // failing seed short-circuits.
    for i in 0..corpus.len() {
        let input = corpus[i].clone();
        executions += 1;
        let result = target.run(&input);
        if let Some(detail) = result.failure {
            return finish(target, executions, &corpus, &features, input, detail);
        }
        features.extend(result.features);
        if out_of_time(started) {
            break;
        }
    }

    // Phase 2: mutate corpus picks.
    for _ in 0..config.iters {
        if out_of_time(started) {
            break;
        }
        let base = &corpus[rng.gen_range(0..corpus.len())];
        let input = target.mutate(base, &mut rng);
        executions += 1;
        let result = target.run(&input);
        if let Some(detail) = result.failure {
            return finish(target, executions, &corpus, &features, input, detail);
        }
        let mut novel = false;
        for f in result.features {
            novel |= features.insert(f);
        }
        if novel {
            corpus.push(input);
        }
    }

    FuzzReport {
        target: target.token_prefix(),
        executions,
        corpus_len: corpus.len(),
        features: features.len(),
        failure: None,
    }
}

/// Minimize a failure and assemble the final report.
fn finish<T: FuzzTarget>(
    target: &mut T,
    executions: u64,
    corpus: &[T::Input],
    features: &HashSet<u64>,
    input: T::Input,
    detail: String,
) -> FuzzReport {
    let original_token = target.token(&input);
    let (min_input, min_detail) = minimize(target, input, detail);
    let failure = FuzzFailure {
        token: target.token(&min_input),
        original_token,
        detail: min_detail,
        executions_to_find: executions,
    };
    eprintln!("{}", failure.report());
    FuzzReport {
        target: target.token_prefix(),
        executions,
        corpus_len: corpus.len(),
        features: features.len(),
        failure: Some(failure),
    }
}

/// Greedy minimizer: try each shrink candidate in order; the first one that
/// still fails becomes the new current input and the pass restarts. Stops
/// when no candidate fails or [`SHRINK_BUDGET`] executions are spent.
fn minimize<T: FuzzTarget>(
    target: &mut T,
    mut current: T::Input,
    mut detail: String,
) -> (T::Input, String) {
    let mut spent: u64 = 0;
    'passes: while spent < SHRINK_BUDGET {
        for candidate in target.shrink(&current) {
            if spent >= SHRINK_BUDGET {
                break 'passes;
            }
            spent += 1;
            if let Some(d) = target.run(&candidate).failure {
                current = candidate;
                detail = d;
                continue 'passes;
            }
        }
        break; // full pass without progress: local minimum
    }
    (current, detail)
}

/// Replay a single input from its full token through a freshly-constructed
/// target (fault tag included). `Ok` means the input is clean; `Err` carries
/// the reproduced failure detail or a token-parse problem.
///
/// This is the `SKIA_FUZZ_REPLAY` entry point; dispatching lives in the
/// crate root ([`crate::replay`]) so it can name every concrete target.
pub fn replay_with<T: FuzzTarget>(target: &mut T, body: &str) -> Result<(), String> {
    let input = target.decode_input(body).ok_or_else(|| {
        format!(
            "malformed token body for target '{}'",
            target.token_prefix()
        )
    })?;
    match target.run(&input).failure {
        Some(detail) => Err(detail),
        None => Ok(()),
    }
}
