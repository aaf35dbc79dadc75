//! Simulation statistics and derived metrics for every paper figure.

use skia_core::SkiaStats;
use skia_isa::BranchKind;
use skia_uarch::cache::CacheStats;

/// Where the resteer was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResteerStage {
    /// Detected by the decoder (early resteer, §2.6).
    Decode,
    /// Detected at execute (late resteer).
    Execute,
}

/// Complete counters from one simulation run.
///
/// `PartialEq` compares every field (including the float
/// `mean_ftq_occupancy` exactly): two runs of the same (workload, config,
/// steps) must produce bitwise-identical stats regardless of sweep
/// parallelism, and the determinism test asserts exactly that.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Retired instructions.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Retired branches (= trace steps).
    pub branches: u64,
    /// Retired taken branches.
    pub taken_branches: u64,

    /// Branches that missed the BTB at prediction time.
    pub btb_misses: u64,
    /// BTB misses broken down by branch kind (paper Fig. 6).
    pub btb_misses_by_kind: [u64; 6],
    /// BTB misses whose cache line was already L1-I-resident at prediction
    /// time (paper Figs. 1 and 15).
    pub btb_miss_l1i_resident: u64,
    /// BTB misses on taken branches (the harmful class).
    pub btb_miss_taken: u64,
    /// BTB misses on taken, SBB-eligible branches (direct unconditional,
    /// call, return) — the class Skia can rescue.
    pub btb_miss_rescuable: u64,
    /// BTB misses rescued by an SBB hit (no resteer needed).
    pub sbb_rescues: u64,
    /// Rescuable misses whose branch had been shadow-decoded at least once
    /// earlier in the run (diagnostic: separates SBB-capacity losses from
    /// never-decoded coverage gaps).
    pub rescuable_seen_before: u64,

    /// Resteers by (cause, stage).
    pub decode_resteers: u64,
    /// Execute-stage resteers.
    pub exec_resteers: u64,
    /// Resteers caused by bogus shadow branches.
    pub bogus_resteers: u64,

    /// Conditional branches retired / mispredicted.
    pub cond_branches: u64,
    /// Conditional direction mispredictions.
    pub cond_mispredicts: u64,
    /// Indirect branches retired.
    pub indirect_branches: u64,
    /// Indirect target mispredictions.
    pub indirect_mispredicts: u64,
    /// Return target mispredictions (RAS misses).
    pub return_mispredicts: u64,

    /// Cycles the decoder spent waiting on instruction-cache fills.
    pub idle_icache_cycles: u64,
    /// Cycles the decoder spent idle during resteer repair + pipe refill.
    pub idle_resteer_cycles: u64,
    /// Cycles the decoder spent decoding.
    pub decode_busy_cycles: u64,

    /// Wrong-path blocks fetched during resteer shadows.
    pub wrong_path_blocks: u64,
    /// Wrong-path line prefetches issued (L1-I pollution pressure).
    pub wrong_path_prefetches: u64,

    /// L1-I cache counters.
    pub l1i: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// L3 counters.
    pub l3: CacheStats,
    /// Skia counters when enabled.
    pub skia: Option<SkiaStats>,
    /// Mean FTQ occupancy sampled per formed block.
    pub mean_ftq_occupancy: f64,
}

impl SimStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Misses per kilo-instruction helper.
    fn mpki(&self, misses: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// BTB misses per kilo-instruction (Figs. 1 and 16).
    #[must_use]
    pub fn btb_mpki(&self) -> f64 {
        self.mpki(self.btb_misses)
    }

    /// BTB-miss MPKI restricted to misses whose line was L1-I resident.
    #[must_use]
    pub fn btb_miss_l1i_resident_mpki(&self) -> f64 {
        self.mpki(self.btb_miss_l1i_resident)
    }

    /// L1-I misses per kilo-instruction: lines the front-end needed that
    /// were not resident (demand + prefetch fills), the footprint measure of
    /// Fig. 13.
    #[must_use]
    pub fn l1i_mpki(&self) -> f64 {
        self.mpki(self.l1i.misses())
    }

    /// Conditional mispredicts per kilo-instruction.
    #[must_use]
    pub fn cond_mpki(&self) -> f64 {
        self.mpki(self.cond_mispredicts)
    }

    /// Fraction of BTB misses with the branch line already in the L1-I
    /// (the paper's headline 75% observation).
    #[must_use]
    pub fn btb_miss_l1i_resident_fraction(&self) -> f64 {
        if self.btb_misses == 0 {
            0.0
        } else {
            self.btb_miss_l1i_resident as f64 / self.btb_misses as f64
        }
    }

    /// Decoder idle cycles (icache + resteer).
    #[must_use]
    pub fn decoder_idle_cycles(&self) -> u64 {
        self.idle_icache_cycles + self.idle_resteer_cycles
    }

    /// BTB misses for one branch kind.
    #[must_use]
    pub fn btb_misses_of(&self, kind: BranchKind) -> u64 {
        self.btb_misses_by_kind[kind.index()]
    }

    /// Speedup of `self` over a `baseline` run of the same trace.
    #[must_use]
    pub fn speedup_over(&self, baseline: &SimStats) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        baseline.cycles as f64 / self.cycles as f64
    }
}

/// Geometric mean of an iterator of positive ratios.
///
/// Non-positive or non-finite values cannot contribute to a geometric mean
/// (their logarithm is undefined/-∞); they are skipped in release builds —
/// rather than poisoning the whole mean with a NaN — and trip a
/// `debug_assert` in debug builds so the bad input is caught in tests.
#[must_use]
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        debug_assert!(
            v.is_finite() && v > 0.0,
            "geomean needs positive finite values, got {v}"
        );
        if !(v.is_finite() && v > 0.0) {
            continue;
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_mpki_arithmetic() {
        let s = SimStats {
            instructions: 10_000,
            cycles: 5_000,
            btb_misses: 50,
            btb_miss_l1i_resident: 40,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.btb_mpki() - 5.0).abs() < 1e-12);
        assert!((s.btb_miss_l1i_resident_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_division_is_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.btb_mpki(), 0.0);
        assert_eq!(s.btb_miss_l1i_resident_fraction(), 0.0);
    }

    #[test]
    fn speedup_is_cycle_ratio() {
        let fast = SimStats {
            instructions: 1000,
            cycles: 800,
            ..SimStats::default()
        };
        let slow = SimStats {
            instructions: 1000,
            cycles: 1000,
            ..SimStats::default()
        };
        assert!((fast.speedup_over(&slow) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }

    #[test]
    fn per_kind_miss_lookup() {
        let mut s = SimStats::default();
        s.btb_misses_by_kind[1] = 7; // DirectUncond is index 1 in ALL
        assert_eq!(s.btb_misses_of(BranchKind::DirectUncond), 7);
        assert_eq!(s.btb_misses_of(BranchKind::Call), 0);
    }
}
