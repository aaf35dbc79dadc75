//! The four benchmark workloads: which benchmarks run under which front-end
//! configurations, for how many steps, and whether their programs and traces
//! come from a warm cache or are built from nothing.

use skia_core::SkiaConfig;
use skia_experiments::StandingConfig;
use skia_frontend::FrontendConfig;
use skia_workloads::profiles::PAPER_BENCHMARKS;
use skia_workloads::{profile, Profile};

/// Workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 4] = ["skia-sweep", "btb-sweep", "cold-cache", "emit-sweep"];

/// High (voter, sibench) to low (kafka, finagle-chirper) Skia opportunity.
const SWEEP_BENCHES: [&str; 4] = ["voter", "sibench", "kafka", "finagle-chirper"];

/// Trace length the cold workload records and stores: the paper-default
/// step count every figure binary records on its first run.
const COLD_TRACE_STEPS: usize = 400_000;

/// Steps per job of the traced run's Skia-off/Skia-on probe.
const PROBE_STEPS: usize = 50_000;

/// One configured workload, with the run's seed already applied.
pub struct Spec {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// Seeded benchmark profiles.
    pub benches: Vec<Profile>,
    /// Labelled front-end configurations; every bench runs under each.
    pub configs: Vec<(&'static str, FrontendConfig)>,
    /// Simulated steps per job.
    pub steps: usize,
    /// Steps recorded per trace (at least `steps`).
    pub trace_steps: usize,
    /// Programs and traces are generated and stored into an empty cache on
    /// every pass instead of loaded from the warm one.
    pub cold: bool,
    /// Jobs run instrumented and their snapshots go through the
    /// `--emit-json` export, parse and manifest path.
    pub emit: bool,
}

/// One simulation of a workload pass: indexes into [`Spec::benches`] and
/// [`Spec::configs`].
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub bench: usize,
    pub config: usize,
}

fn skia_with(skia: SkiaConfig) -> FrontendConfig {
    StandingConfig::Btb(8192).frontend().with_skia(skia)
}

fn sbb_scaled(factor: f64) -> FrontendConfig {
    let base = SkiaConfig::default();
    skia_with(SkiaConfig {
        sbb: base.sbb.scaled(factor),
        ..base
    })
}

/// The paper profile `name` with `seed` folded into its program and walker
/// seeds. Seed 0 is the paper profile unchanged.
#[must_use]
pub fn seeded_profile(name: &str, seed: u64) -> Profile {
    let mut p = profile(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    p.spec.seed ^= seed;
    p.trace_seed ^= seed;
    p
}

impl Spec {
    /// Build workload `name` for `seed`. `steps` overrides the per-job step
    /// count (the self-test runs every workload at a tiny scale).
    #[must_use]
    pub fn new(name: &str, seed: u64, steps: Option<usize>) -> Option<Spec> {
        let sweep = || {
            SWEEP_BENCHES
                .iter()
                .map(|b| seeded_profile(b, seed))
                .collect()
        };
        let all = || {
            PAPER_BENCHMARKS
                .iter()
                .map(|b| seeded_profile(b, seed))
                .collect()
        };
        let btb8k = ("btb-8k", StandingConfig::Btb(8192).frontend());
        let skia = ("skia", StandingConfig::BtbPlusSkia(8192).frontend());
        let (name, benches, configs, default_steps, cold, emit) = match name {
            "skia-sweep" => (
                "skia-sweep",
                sweep(),
                vec![
                    btb8k,
                    skia,
                    ("skia-sbb-0.25", sbb_scaled(0.25)),
                    ("skia-sbb-4", sbb_scaled(4.0)),
                    ("skia-head", skia_with(SkiaConfig::head_only())),
                ],
                100_000,
                false,
                false,
            ),
            "btb-sweep" => (
                "btb-sweep",
                sweep(),
                vec![
                    ("btb-1k", StandingConfig::Btb(1024).frontend()),
                    ("btb-4k", StandingConfig::Btb(4096).frontend()),
                    btb8k,
                    ("btb-16k", StandingConfig::Btb(16384).frontend()),
                    ("btb-inf", StandingConfig::Infinite.frontend()),
                ],
                200_000,
                false,
                false,
            ),
            "cold-cache" => ("cold-cache", all(), vec![btb8k], 200_000, true, false),
            "emit-sweep" => ("emit-sweep", all(), vec![btb8k, skia], 100_000, false, true),
            _ => return None,
        };
        let steps = steps.unwrap_or(default_steps);
        let trace_steps = match (cold, steps == default_steps) {
            (true, true) => COLD_TRACE_STEPS,
            (true, false) => 2 * steps,
            (false, _) => steps,
        };
        Some(Spec {
            name,
            benches,
            configs,
            steps,
            trace_steps,
            cold,
            emit,
        })
    }

    /// The traced run's paired probe: every benchmark of this workload under
    /// the baseline and the default Skia configuration, on a shorter prefix.
    #[must_use]
    pub fn probe(&self) -> Spec {
        Spec {
            name: self.name,
            benches: self.benches.clone(),
            configs: vec![
                ("btb-8k", StandingConfig::Btb(8192).frontend()),
                ("skia", StandingConfig::BtbPlusSkia(8192).frontend()),
            ],
            steps: PROBE_STEPS.min(self.steps),
            trace_steps: self.trace_steps,
            cold: self.cold,
            emit: false,
        }
    }

    /// Every job of one pass, benchmark-major.
    #[must_use]
    pub fn jobs(&self) -> Vec<Job> {
        (0..self.benches.len())
            .flat_map(|bench| (0..self.configs.len()).map(move |config| Job { bench, config }))
            .collect()
    }

    /// The stable identity of a job's result: the digest of a job with this
    /// key is the same in every workload that runs it.
    #[must_use]
    pub fn key(&self, job: Job) -> String {
        format!(
            "{}/{}/{}",
            self.benches[job.bench].name, self.configs[job.config].0, self.steps
        )
    }

    /// Whether the job simulates with Skia on.
    #[must_use]
    pub fn skia_on(&self, job: Job) -> bool {
        self.configs[job.config].1.skia.is_some()
    }
}
