//! SimPoint-style phase sampling over a [`RecordedTrace`].
//!
//! The paper's workloads run billions of instructions; replaying every
//! recorded step caps practical runs near 400k steps. Phase sampling is the
//! standard way out (Sherwood et al., ASPLOS 2002; the protocol of
//! production trace harnesses such as cbp-experiments' `simpoint.rs`):
//! slice the trace into fixed-size **intervals**, summarize each interval
//! by a **basic-block vector** (BBV — how execution distributed over the
//! program's blocks), cluster the BBVs with k-means, and simulate only one
//! **representative** interval per cluster, weighting its measured counters
//! by the cluster's share of the whole trace.
//!
//! Everything here is a pure function of the recorded columns and the
//! [`SamplingConfig`]: BBVs are a single pass over the `branch_pc`/`insns`
//! columns (no replay, no decoding), k-means is seeded and serial, and ties
//! break toward the lowest index — so a plan is byte-identical across
//! repeated runs and thread counts, the same determinism contract as the
//! rest of the repo. The plan's slice windows are prefix-bounded column
//! reads, which the PR 4 trace cache already serves in O(slice).
//!
//! The companion measurement machinery (warmup-then-measure replay and the
//! weighted whole-trace estimator) lives in `skia-frontend::sampling`; the
//! `sampled_vs_full` harness in `skia-experiments` validates the estimates
//! against full replays under explicit error bounds.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::trace::RecordedTrace;

/// Parameters of plan construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Steps per interval (the sampling granularity).
    pub interval: usize,
    /// Maximum clusters — i.e. maximum simulated slices (clamped to the
    /// interval count; empty clusters are dropped).
    pub k: usize,
    /// Steps replayed with telemetry muted before each measured window, to
    /// warm predictors and caches out of the slice's cold start.
    pub warmup: usize,
    /// Seed of the k-means++ initialization RNG.
    pub seed: u64,
    /// BBV dimensionality: block addresses are feature-hashed into this
    /// many dimensions (classic SimPoint projects to ~15; 32 keeps the
    /// serial k-means cheap at any trace length).
    pub dims: usize,
    /// Lloyd-iteration cap (convergence usually ends it much earlier).
    pub iters: usize,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            interval: 16_000,
            k: 3,
            warmup: 1_600,
            seed: 0x5_1A_5A_3B,
            dims: 32,
            iters: 50,
        }
    }
}

impl SamplingConfig {
    /// Scale the interval (and its warmup) to the run length: ~25 intervals
    /// per trace, clamped to `[1_000, 16_000]` steps, warmup one tenth of an
    /// interval. With the default `k = 3` this replays ≤ `3×(interval +
    /// warmup)` ≈ 13% of the trace — better than 7× step-count compression
    /// at every scale from the 40k smoke runs to the 400k standing default.
    /// The shape was tuned against the 12-workload pin suite: fewer, larger
    /// intervals keep branch-mix composition error low (each measured
    /// window averages over more of the walk), and the short warmup
    /// suffices because slices replay with state carryover (see
    /// `skia-frontend::sampling`) — warmup only re-syncs recent-phase
    /// predictor state, not whole structures from cold.
    #[must_use]
    pub fn for_steps(steps: usize) -> Self {
        let interval = (steps / 25).clamp(1_000, 16_000);
        SamplingConfig {
            interval,
            warmup: interval / 10,
            ..SamplingConfig::default()
        }
    }
}

/// One simulated slice of a [`SamplingPlan`].
///
/// Replay semantics: skip the first `skip` steps entirely, replay the next
/// `warmup` steps with telemetry muted, then measure the next `simulate`
/// steps. The measured counters represent `weight_steps` steps of the whole
/// trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceJob {
    /// Steps skipped before the warmup window.
    pub skip: usize,
    /// Muted warmup steps (`[skip, skip + warmup)`).
    pub warmup: usize,
    /// Measured steps (`[skip + warmup, skip + warmup + simulate)`).
    pub simulate: usize,
    /// Whole-trace steps this slice stands for (its cluster's total).
    pub weight_steps: u64,
}

impl SliceJob {
    /// First measured step index.
    #[must_use]
    pub fn measure_start(&self) -> usize {
        self.skip + self.warmup
    }

    /// One past the last measured step index.
    #[must_use]
    pub fn measure_end(&self) -> usize {
        self.measure_start() + self.simulate
    }
}

/// A complete sampling plan: which slices to simulate and how to weight
/// them back into a whole-trace estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplingPlan {
    /// Steps of the full run this plan estimates.
    pub total_steps: usize,
    /// Interval size the plan was built with.
    pub interval: usize,
    /// Cluster budget the plan was built with.
    pub k: usize,
    /// k-means seed the plan was built with.
    pub seed: u64,
    /// Slices in ascending `skip` order. `Σ weight_steps == total_steps`.
    pub slices: Vec<SliceJob>,
}

impl SamplingPlan {
    /// Build a plan for the first `steps` steps of `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `steps > trace.len()` or a config field is zero where a
    /// positive value is required.
    #[must_use]
    pub fn build(trace: &RecordedTrace, steps: usize, cfg: &SamplingConfig) -> SamplingPlan {
        assert!(steps <= trace.len(), "plan longer than recording");
        assert!(cfg.interval > 0, "interval must be positive");
        assert!(cfg.k > 0, "need at least one cluster");
        assert!(cfg.dims > 0, "need at least one BBV dimension");
        let mut plan = SamplingPlan {
            total_steps: steps,
            interval: cfg.interval,
            k: cfg.k,
            seed: cfg.seed,
            slices: Vec::new(),
        };
        if steps == 0 {
            return plan;
        }
        let bbvs = interval_bbvs(trace, steps, cfg.interval, cfg.dims);
        let n = bbvs.len();
        let k = cfg.k.min(n);
        let (assign, centroids) = kmeans(&bbvs, k, cfg.seed, cfg.iters);
        let interval_len = |i: usize| (steps - i * cfg.interval).min(cfg.interval);
        for (c, centroid) in centroids.iter().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&i| assign[i] == c).collect();
            if members.is_empty() {
                continue;
            }
            let weight_steps: u64 = members.iter().map(|&i| interval_len(i) as u64).sum();
            // Representative: the member closest to the centroid; the
            // strict `<` breaks ties toward the lowest interval index.
            let rep = members
                .iter()
                .copied()
                .fold((usize::MAX, f64::INFINITY), |best, i| {
                    let d = dist2(&bbvs[i], centroid);
                    if d < best.1 {
                        (i, d)
                    } else {
                        best
                    }
                })
                .0;
            let start = rep * cfg.interval;
            let warmup = cfg.warmup.min(start);
            plan.slices.push(SliceJob {
                skip: start - warmup,
                warmup,
                simulate: interval_len(rep),
                weight_steps,
            });
        }
        plan.slices.sort_by_key(|s| s.skip);
        debug_assert_eq!(
            plan.slices.iter().map(|s| s.weight_steps).sum::<u64>(),
            steps as u64,
            "cluster weights must partition the trace"
        );
        plan
    }

    /// The trivial plan: one slice covering the whole trace with zero
    /// warmup and weight 1. Estimating through it reproduces the full run's
    /// stats byte-exactly (the `sampled_vs_full` proptest pins this).
    #[must_use]
    pub fn degenerate(steps: usize) -> SamplingPlan {
        SamplingPlan {
            total_steps: steps,
            interval: steps.max(1),
            k: 1,
            seed: 0,
            slices: if steps == 0 {
                Vec::new()
            } else {
                vec![SliceJob {
                    skip: 0,
                    warmup: 0,
                    simulate: steps,
                    weight_steps: steps as u64,
                }]
            },
        }
    }

    /// Whether this plan is the whole-trace identity (single zero-warmup
    /// slice covering every step).
    #[must_use]
    pub fn is_degenerate(&self) -> bool {
        self.total_steps == 0
            || (self.slices.len() == 1
                && self.slices[0].skip == 0
                && self.slices[0].warmup == 0
                && self.slices[0].simulate == self.total_steps)
    }

    /// Measured steps (Σ simulate).
    #[must_use]
    pub fn measured_steps(&self) -> usize {
        self.slices.iter().map(|s| s.simulate).sum()
    }

    /// Replayed steps (Σ warmup + simulate) — the work a sampled run pays,
    /// and the numerator of the compression claim.
    #[must_use]
    pub fn replayed_steps(&self) -> usize {
        self.slices.iter().map(|s| s.warmup + s.simulate).sum()
    }

    /// Full-replay steps per sampled-replay step (≥ 5 is the standing
    /// target at default config). 1.0 for the degenerate plan.
    #[must_use]
    pub fn compression(&self) -> f64 {
        let replayed = self.replayed_steps();
        if replayed == 0 {
            1.0
        } else {
            self.total_steps as f64 / replayed as f64
        }
    }

    /// FNV-1a fingerprint of every plan field — the provenance counter
    /// sampled snapshots carry so a result can be traced to the exact plan
    /// that produced it.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(32 + self.slices.len() * 28);
        for v in [
            self.total_steps as u64,
            self.interval as u64,
            self.k as u64,
            self.seed,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for s in &self.slices {
            for v in [
                s.skip as u64,
                s.warmup as u64,
                s.simulate as u64,
                s.weight_steps,
            ] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        skia_telemetry::fnv1a(&bytes)
    }

    /// Panic unless every slice window lies inside a `steps`-long replay
    /// and the weights partition it (drivers call this before simulating).
    pub fn validate(&self, steps: usize) {
        assert_eq!(self.total_steps, steps, "plan built for a different length");
        let mut weight = 0u64;
        for s in &self.slices {
            assert!(s.simulate > 0, "empty measure window");
            assert!(s.measure_end() <= steps, "slice past the end of the run");
            weight += s.weight_steps;
        }
        assert_eq!(weight, steps as u64, "weights must partition the trace");
    }
}

/// Per-interval basic-block vectors for the first `steps` steps.
///
/// Each retired step is one basic block (`branch_pc` terminates it);
/// classic SimPoint weighs a block by its instruction count, so dimension
/// `hash(branch_pc) % dims` accumulates `insns`. Vectors are L2-normalized
/// (phase *shape*, not phase *length* — the final partial interval must be
/// comparable to full ones). A single column pass; no replay.
///
/// # Panics
///
/// Panics if `steps > trace.len()`, or `interval`/`dims` is zero.
#[must_use]
pub fn interval_bbvs(
    trace: &RecordedTrace,
    steps: usize,
    interval: usize,
    dims: usize,
) -> Vec<Vec<f64>> {
    assert!(steps <= trace.len(), "BBVs longer than recording");
    assert!(interval > 0, "interval must be positive");
    assert!(dims > 0, "need at least one dimension");
    let n = steps.div_ceil(interval);
    let mut bbvs = vec![vec![0.0f64; dims]; n];
    for i in 0..steps {
        let d = (splitmix64(trace.branch_pc[i]) % dims as u64) as usize;
        bbvs[i / interval][d] += f64::from(trace.insns[i]);
    }
    for bbv in &mut bbvs {
        let norm = bbv.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for v in bbv.iter_mut() {
                *v /= norm;
            }
        }
    }
    bbvs
}

/// Seeded k-means over the BBVs: k-means++ initialization from a
/// [`SmallRng`], Lloyd iterations to convergence (or `iters`), ties toward
/// the lowest centroid index, empty clusters keep their previous centroid.
/// Serial by construction, so plans are identical at any `SKIA_THREADS`.
///
/// Returns `(assignment per interval, centroids)`.
fn kmeans(bbvs: &[Vec<f64>], k: usize, seed: u64, iters: usize) -> (Vec<usize>, Vec<Vec<f64>>) {
    let n = bbvs.len();
    debug_assert!(k >= 1 && k <= n);
    let dims = bbvs[0].len();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51_3B_B5_EE);

    // k-means++: first centroid uniform, later ones D²-weighted.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(bbvs[rng.gen_range(0..n)].clone());
    let mut d2: Vec<f64> = bbvs.iter().map(|b| dist2(b, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with a centroid; any pick works — stay
            // deterministic by advancing the same RNG.
            rng.gen_range(0..n)
        } else {
            let mut pick = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if pick < d {
                    chosen = i;
                    break;
                }
                pick -= d;
            }
            chosen
        };
        centroids.push(bbvs[next].clone());
        for (i, b) in bbvs.iter().enumerate() {
            d2[i] = d2[i].min(dist2(b, centroids.last().expect("just pushed")));
        }
    }

    let mut assign = vec![0usize; n];
    for _ in 0..iters.max(1) {
        let mut changed = false;
        for (i, b) in bbvs.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = dist2(b, centroid);
                if d < best_d {
                    best = c;
                    best_d = d;
                }
            }
            if assign[i] != best {
                assign[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&i| assign[i] == c).collect();
            if members.is_empty() {
                continue; // keep the previous centroid
            }
            let inv = 1.0 / members.len() as f64;
            for (d, slot) in centroid.iter_mut().enumerate().take(dims) {
                *slot = members.iter().map(|&i| bbvs[i][d]).sum::<f64>() * inv;
            }
        }
    }
    (assign, centroids)
}

/// Squared Euclidean distance.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// SplitMix64 finalizer — the block-address feature hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Program, ProgramSpec};

    fn trace(steps: usize) -> RecordedTrace {
        let p = Program::generate(&ProgramSpec {
            functions: 40,
            ..ProgramSpec::default()
        });
        RecordedTrace::record(&p, 42, 6, steps)
    }

    #[test]
    fn bbv_interval_boundary_on_word_boundary() {
        // 4096 steps at interval 1024: boundaries land exactly on
        // taken-bitset word multiples; every interval is full and every
        // step is counted once.
        let t = trace(4096);
        let bbvs = interval_bbvs(&t, 4096, 1024, 16);
        assert_eq!(bbvs.len(), 4);
        for (i, bbv) in bbvs.iter().enumerate() {
            let norm: f64 = bbv.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9, "interval {i} not unit-norm");
        }
        // Concatenating two intervals' raw mass equals one double-width
        // interval's: no step is dropped or double-counted at boundaries.
        let wide = interval_bbvs(&t, 4096, 2048, 16);
        assert_eq!(wide.len(), 2);
    }

    #[test]
    fn bbv_partial_final_interval() {
        let t = trace(2500);
        let bbvs = interval_bbvs(&t, 2500, 1000, 8);
        assert_eq!(bbvs.len(), 3, "500-step tail gets its own interval");
        let norm: f64 = bbvs[2].iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            (norm - 1.0).abs() < 1e-9,
            "partial interval still unit-norm"
        );
    }

    #[test]
    fn bbv_empty_trace() {
        let t = trace(0);
        assert!(interval_bbvs(&t, 0, 1000, 8).is_empty());
        let plan = SamplingPlan::build(&t, 0, &SamplingConfig::default());
        assert!(plan.slices.is_empty());
        assert!(plan.is_degenerate());
        assert_eq!(plan.measured_steps(), 0);
        plan.validate(0);
    }

    #[test]
    fn bbv_interval_larger_than_trace() {
        let t = trace(700);
        let bbvs = interval_bbvs(&t, 700, 10_000, 8);
        assert_eq!(bbvs.len(), 1, "one partial interval");
        let plan = SamplingPlan::build(
            &t,
            700,
            &SamplingConfig {
                interval: 10_000,
                ..SamplingConfig::default()
            },
        );
        assert_eq!(plan.slices.len(), 1);
        let s = plan.slices[0];
        assert_eq!(
            (s.skip, s.warmup, s.simulate, s.weight_steps),
            (0, 0, 700, 700)
        );
        assert!(
            plan.is_degenerate(),
            "single whole-trace interval is the identity"
        );
    }

    #[test]
    fn plan_weights_partition_and_windows_are_in_bounds() {
        let t = trace(8_192);
        let cfg = SamplingConfig {
            interval: 1_000,
            k: 3,
            warmup: 250,
            ..SamplingConfig::default()
        };
        let plan = SamplingPlan::build(&t, 8_192, &cfg);
        plan.validate(8_192);
        assert!(plan.slices.len() <= 3);
        assert!(!plan.slices.is_empty());
        for s in &plan.slices {
            assert!(s.warmup <= 250);
            assert_eq!(s.warmup, s.warmup.min(s.skip + s.warmup)); // warmup clamped at trace start
        }
        // Slices are sorted and non-overlapping in their measure windows.
        for w in plan.slices.windows(2) {
            assert!(w[0].skip <= w[1].skip);
            assert!(w[0].measure_end() <= w[1].measure_end());
        }
    }

    #[test]
    fn plan_is_deterministic_for_a_seed_and_sensitive_to_it() {
        let t = trace(6_000);
        let cfg = SamplingConfig {
            interval: 500,
            k: 4,
            ..SamplingConfig::default()
        };
        let a = SamplingPlan::build(&t, 6_000, &cfg);
        let b = SamplingPlan::build(&t, 6_000, &cfg);
        assert_eq!(a, b, "same inputs, same plan");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let other = SamplingPlan::build(
            &t,
            6_000,
            &SamplingConfig {
                seed: cfg.seed + 1,
                ..cfg
            },
        );
        // A different seed may or may not move the representatives, but the
        // fingerprint must track the seed either way.
        assert_ne!(a.fingerprint(), other.fingerprint());
    }

    #[test]
    fn degenerate_plan_shape() {
        let plan = SamplingPlan::degenerate(12_345);
        assert!(plan.is_degenerate());
        assert_eq!(plan.measured_steps(), 12_345);
        assert_eq!(plan.replayed_steps(), 12_345);
        assert!((plan.compression() - 1.0).abs() < 1e-12);
        plan.validate(12_345);
    }

    #[test]
    fn for_steps_hits_the_compression_target() {
        for steps in [40_000usize, 100_000, 400_000] {
            let cfg = SamplingConfig::for_steps(steps);
            // Worst case every cluster is non-empty and warmup is full.
            let replayed = cfg.k * (cfg.interval + cfg.warmup);
            assert!(
                steps as f64 / replayed as f64 >= 5.0,
                "steps={steps}: worst-case compression {}",
                steps as f64 / replayed as f64
            );
        }
    }

    #[test]
    fn window_matches_skip_take() {
        let t = trace(3_000);
        let direct: Vec<_> = t.replay().skip(700).take(800).collect();
        let windowed: Vec<_> = t.window(700, 1_500).collect();
        assert_eq!(direct, windowed);
        assert_eq!(t.window(0, 0).count(), 0);
        assert_eq!(t.window(3_000, 3_000).count(), 0);
    }
}
