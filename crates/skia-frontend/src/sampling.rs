//! Sampled simulation: replay a [`SamplingPlan`]'s slices through
//! [`Simulator::run_slice`] and reconstruct a weighted whole-trace
//! [`SimStats`] estimate.
//!
//! ## Estimation arithmetic
//!
//! Each slice measures `simulate` steps and stands for `weight_steps` steps
//! of the full trace, so every counter is scaled by `weight_steps /
//! simulate` before summing. The scaling is integer-exact: `round(c × w /
//! s)` computed in `u128`, which for the degenerate plan (`w == s ==
//! total`) returns `c` unchanged — the whole-trace identity needs no
//! special case, and the `sampled_vs_full` proptest pins the resulting
//! byte-exact equality against a full [`Simulator::run`].
//!
//! ## Field exhaustiveness
//!
//! The delta and scale helpers fully destructure every stats struct
//! ([`SimStats`], [`CacheStats`], [`SkiaStats`] and its members) with no
//! `..` rest pattern. Adding a field to any of them breaks this module's
//! compilation instead of silently leaking warmup state into measurements
//! or dropping the field from estimates — the same forcing function the
//! `for_each_sim_counter!` table provides for the registry names.
//!
//! ## State carryover
//!
//! All slices of a plan replay through **one** simulator in trace order:
//! the branch/cache working set accumulated by earlier slices stays live,
//! and each slice's short warmup only re-syncs recent-phase state (TAGE
//! histories, RAS, replacement recency). Cold-starting every slice instead
//! would charge the full structure fill — hundreds of thousands of steps
//! at realistic BTB/L2 sizes — against a warmup budget of thousands,
//! biasing every miss-class counter upward. [`Simulator::run_slice`]
//! baselines all cumulative state at each warmup/measure boundary, so the
//! carryover is invisible in the per-slice results.
//!
//! Slices run serially (the simulator is deliberately `!Send`, and
//! carryover orders them anyway); sweep-level parallelism across
//! (workload, config) jobs is unchanged, so sampled sweeps keep the repo's
//! thread-count-invariance guarantee.

use skia_core::{SbbStats, ShadowDecoderStats, SkiaStats};
use skia_telemetry::{MetricRegistry, Snapshot};
use skia_uarch::cache::CacheStats;
use skia_workloads::{Program, RecordedTrace, SamplingPlan};

use crate::config::FrontendConfig;
use crate::sim::{SampleFault, Simulator};
use crate::stats::SimStats;
use crate::telemetry::SimHistograms;

/// Simulate every slice of `plan` and return the weighted whole-trace
/// [`SimStats`] estimate.
///
/// One [`Simulator`] serves every slice in trace order (state carryover —
/// see the module docs); per-slice results are isolated by the baseline
/// subtraction inside [`Simulator::run_slice`]. `fault` plants a
/// deliberate sampling bug for harness validation; production callers pass
/// `None`.
///
/// # Panics
///
/// Panics if the plan fails [`SamplingPlan::validate`] against its own
/// `total_steps` or the plan is longer than the recording.
#[must_use]
pub fn run_plan(
    program: &Program,
    config: &FrontendConfig,
    trace: &RecordedTrace,
    plan: &SamplingPlan,
    fault: Option<SampleFault>,
) -> SimStats {
    plan.validate(plan.total_steps);
    assert!(
        plan.total_steps <= trace.len(),
        "plan longer than recording"
    );
    let mut est = SimStats::default();
    let mut ftq_means: Vec<(f64, u64)> = Vec::with_capacity(plan.slices.len());
    let mut sim = Simulator::new(program, config.clone());
    for slice in &plan.slices {
        let s = sim.run_slice(trace, slice, fault);
        add_scaled(&mut est, &s, slice.weight_steps, slice.simulate as u64);
        ftq_means.push((s.mean_ftq_occupancy, slice.weight_steps));
    }
    est.mean_ftq_occupancy = match ftq_means.as_slice() {
        [] => 0.0,
        // Single slice: pass the mean through untouched. `m × w / w` is not
        // bit-exact in f64, and the degenerate identity must be.
        [(m, _)] => *m,
        many => {
            let total: u64 = many.iter().map(|&(_, w)| w).sum();
            many.iter().map(|&(m, w)| m * w as f64).sum::<f64>() / total as f64
        }
    };
    est
}

/// [`run_plan`] plus a synthetic telemetry [`Snapshot`] carrying the
/// estimated counters and the plan's provenance, for `--emit-json` parity
/// with full runs.
///
/// The snapshot is an *estimate reconstruction*, not a live registry: the
/// scalar counters, per-kind BTB misses, cache levels and Skia counters
/// hold the weighted estimates, the `sampling.*` counters identify the
/// exact plan (fingerprint, slice count, step accounting), and
/// `sampling.active = 1` marks it as sampled. Histograms and TAGE pull
/// stats are per-slice artifacts with no sound whole-trace reconstruction:
/// the standing histograms are present but empty, so the snapshot keeps
/// the shape of a full run's, and the TAGE counters are absent.
#[must_use]
pub fn run_plan_instrumented(
    program: &Program,
    config: &FrontendConfig,
    trace: &RecordedTrace,
    plan: &SamplingPlan,
    fault: Option<SampleFault>,
) -> (SimStats, Snapshot) {
    let stats = run_plan(program, config, trace, plan, fault);
    let mut reg = MetricRegistry::new();
    stats.register_into(&mut reg);
    SimHistograms::default().register_into(&mut reg);
    register_plan(&mut reg, plan);
    (stats, reg.snapshot())
}

/// Upsert the `sampling.*` provenance counters for `plan` into `reg` —
/// the audit trail tying a sampled result to the exact plan that produced
/// it.
pub fn register_plan(reg: &mut MetricRegistry, plan: &SamplingPlan) {
    reg.set_counter("sampling.active", u64::from(!plan.is_degenerate()));
    reg.set_counter("sampling.plan_fingerprint", plan.fingerprint());
    reg.set_counter("sampling.slices", plan.slices.len() as u64);
    reg.set_counter("sampling.total_steps", plan.total_steps as u64);
    reg.set_counter("sampling.measured_steps", plan.measured_steps() as u64);
    reg.set_counter("sampling.replayed_steps", plan.replayed_steps() as u64);
    reg.set_counter("sampling.interval", plan.interval as u64);
    reg.set_counter("sampling.k", plan.k as u64);
    reg.set_counter("sampling.seed", plan.seed);
}

/// `round(c × num / den)` in `u128` — overflow-free for any counter a
/// simulation can produce, and exactly `c` when `num == den`.
fn scaled(c: u64, num: u64, den: u64) -> u64 {
    debug_assert!(den > 0, "scaling by an empty measure window");
    let n = u128::from(c) * u128::from(num) + u128::from(den) / 2;
    u64::try_from(n / u128::from(den)).expect("weighted counter exceeds u64")
}

// -- field-exhaustive delta helpers (measure-boundary subtraction) ----------

/// `now − base` over every cumulative [`SimStats`] field — the
/// measured-window extraction for state-carryover slices. The computed
/// fields get placeholders the caller must overwrite: `cycles` is 0 (the
/// cycle ledger has its own `decode_free` base) and `mean_ftq_occupancy`
/// is 0.0 (a mean cannot be differenced; `run_slice` rebuilds it from the
/// histogram's windowed sum/count).
pub(crate) fn sim_stats_delta(now: &SimStats, base: &SimStats) -> SimStats {
    let SimStats {
        instructions,
        cycles: _,
        branches,
        taken_branches,
        btb_misses,
        btb_misses_by_kind,
        btb_miss_l1i_resident,
        btb_miss_taken,
        btb_miss_rescuable,
        sbb_rescues,
        rescuable_seen_before,
        decode_resteers,
        exec_resteers,
        bogus_resteers,
        cond_branches,
        cond_mispredicts,
        indirect_branches,
        indirect_mispredicts,
        return_mispredicts,
        idle_icache_cycles,
        idle_resteer_cycles,
        decode_busy_cycles,
        wrong_path_blocks,
        wrong_path_prefetches,
        l1i,
        l2,
        l3,
        skia,
        mean_ftq_occupancy: _,
    } = now;
    let mut by_kind = [0u64; 6];
    for (d, (n, b)) in by_kind
        .iter_mut()
        .zip(btb_misses_by_kind.iter().zip(&base.btb_misses_by_kind))
    {
        *d = n - b;
    }
    SimStats {
        instructions: instructions - base.instructions,
        cycles: 0,
        branches: branches - base.branches,
        taken_branches: taken_branches - base.taken_branches,
        btb_misses: btb_misses - base.btb_misses,
        btb_misses_by_kind: by_kind,
        btb_miss_l1i_resident: btb_miss_l1i_resident - base.btb_miss_l1i_resident,
        btb_miss_taken: btb_miss_taken - base.btb_miss_taken,
        btb_miss_rescuable: btb_miss_rescuable - base.btb_miss_rescuable,
        sbb_rescues: sbb_rescues - base.sbb_rescues,
        rescuable_seen_before: rescuable_seen_before - base.rescuable_seen_before,
        decode_resteers: decode_resteers - base.decode_resteers,
        exec_resteers: exec_resteers - base.exec_resteers,
        bogus_resteers: bogus_resteers - base.bogus_resteers,
        cond_branches: cond_branches - base.cond_branches,
        cond_mispredicts: cond_mispredicts - base.cond_mispredicts,
        indirect_branches: indirect_branches - base.indirect_branches,
        indirect_mispredicts: indirect_mispredicts - base.indirect_mispredicts,
        return_mispredicts: return_mispredicts - base.return_mispredicts,
        idle_icache_cycles: idle_icache_cycles - base.idle_icache_cycles,
        idle_resteer_cycles: idle_resteer_cycles - base.idle_resteer_cycles,
        decode_busy_cycles: decode_busy_cycles - base.decode_busy_cycles,
        wrong_path_blocks: wrong_path_blocks - base.wrong_path_blocks,
        wrong_path_prefetches: wrong_path_prefetches - base.wrong_path_prefetches,
        l1i: cache_delta(l1i, &base.l1i),
        l2: cache_delta(l2, &base.l2),
        l3: cache_delta(l3, &base.l3),
        skia: match (skia, &base.skia) {
            (Some(n), Some(b)) => Some(skia_delta(n, b)),
            (None, None) => None,
            _ => unreachable!("Skia attachment cannot change mid-run"),
        },
        mean_ftq_occupancy: 0.0,
    }
}

/// `now − base`, field for field. Both come from the same monotone cache,
/// so plain subtraction doubles as an underflow check on that invariant.
pub(crate) fn cache_delta(now: &CacheStats, base: &CacheStats) -> CacheStats {
    let CacheStats {
        demand_hits,
        demand_misses,
        prefetch_hits,
        prefetch_misses,
        evictions,
        polluting_fills,
    } = *now;
    CacheStats {
        demand_hits: demand_hits - base.demand_hits,
        demand_misses: demand_misses - base.demand_misses,
        prefetch_hits: prefetch_hits - base.prefetch_hits,
        prefetch_misses: prefetch_misses - base.prefetch_misses,
        evictions: evictions - base.evictions,
        polluting_fills: polluting_fills - base.polluting_fills,
    }
}

/// `now − base` across the whole Skia counter tree.
pub(crate) fn skia_delta(now: &SkiaStats, base: &SkiaStats) -> SkiaStats {
    let SkiaStats {
        sbd,
        sbb,
        filtered_known,
        bogus_uses,
        useful_uses,
    } = now;
    SkiaStats {
        sbd: sbd_delta(sbd, &base.sbd),
        sbb: sbb_delta(sbb, &base.sbb),
        filtered_known: filtered_known - base.filtered_known,
        bogus_uses: bogus_uses - base.bogus_uses,
        useful_uses: useful_uses - base.useful_uses,
    }
}

fn sbd_delta(now: &ShadowDecoderStats, base: &ShadowDecoderStats) -> ShadowDecoderStats {
    let ShadowDecoderStats {
        head_regions,
        head_regions_valid,
        head_regions_discarded,
        tail_regions,
        head_branches,
        tail_branches,
        valid_path_sum,
    } = *now;
    ShadowDecoderStats {
        head_regions: head_regions - base.head_regions,
        head_regions_valid: head_regions_valid - base.head_regions_valid,
        head_regions_discarded: head_regions_discarded - base.head_regions_discarded,
        tail_regions: tail_regions - base.tail_regions,
        head_branches: head_branches - base.head_branches,
        tail_branches: tail_branches - base.tail_branches,
        valid_path_sum: valid_path_sum - base.valid_path_sum,
    }
}

fn sbb_delta(now: &SbbStats, base: &SbbStats) -> SbbStats {
    let SbbStats {
        u_hits,
        r_hits,
        lookups,
        u_inserts,
        r_inserts,
        retirements,
        evicted_unretired,
    } = *now;
    SbbStats {
        u_hits: u_hits - base.u_hits,
        r_hits: r_hits - base.r_hits,
        lookups: lookups - base.lookups,
        u_inserts: u_inserts - base.u_inserts,
        r_inserts: r_inserts - base.r_inserts,
        retirements: retirements - base.retirements,
        evicted_unretired: evicted_unretired - base.evicted_unretired,
    }
}

// -- field-exhaustive weighted accumulation ---------------------------------

/// `est += round(s × num/den)`, field for field. The float
/// `mean_ftq_occupancy` is weighted separately in [`run_plan`] (a mean
/// cannot be summed); it is destructured here so a new float field still
/// forces a review of its estimation rule.
fn add_scaled(est: &mut SimStats, s: &SimStats, num: u64, den: u64) {
    let SimStats {
        instructions,
        cycles,
        branches,
        taken_branches,
        btb_misses,
        btb_misses_by_kind,
        btb_miss_l1i_resident,
        btb_miss_taken,
        btb_miss_rescuable,
        sbb_rescues,
        rescuable_seen_before,
        decode_resteers,
        exec_resteers,
        bogus_resteers,
        cond_branches,
        cond_mispredicts,
        indirect_branches,
        indirect_mispredicts,
        return_mispredicts,
        idle_icache_cycles,
        idle_resteer_cycles,
        decode_busy_cycles,
        wrong_path_blocks,
        wrong_path_prefetches,
        l1i,
        l2,
        l3,
        skia,
        mean_ftq_occupancy: _, // weighted in run_plan
    } = s;
    est.instructions += scaled(*instructions, num, den);
    est.cycles += scaled(*cycles, num, den);
    est.branches += scaled(*branches, num, den);
    est.taken_branches += scaled(*taken_branches, num, den);
    est.btb_misses += scaled(*btb_misses, num, den);
    for (e, &v) in est.btb_misses_by_kind.iter_mut().zip(btb_misses_by_kind) {
        *e += scaled(v, num, den);
    }
    est.btb_miss_l1i_resident += scaled(*btb_miss_l1i_resident, num, den);
    est.btb_miss_taken += scaled(*btb_miss_taken, num, den);
    est.btb_miss_rescuable += scaled(*btb_miss_rescuable, num, den);
    est.sbb_rescues += scaled(*sbb_rescues, num, den);
    est.rescuable_seen_before += scaled(*rescuable_seen_before, num, den);
    est.decode_resteers += scaled(*decode_resteers, num, den);
    est.exec_resteers += scaled(*exec_resteers, num, den);
    est.bogus_resteers += scaled(*bogus_resteers, num, den);
    est.cond_branches += scaled(*cond_branches, num, den);
    est.cond_mispredicts += scaled(*cond_mispredicts, num, den);
    est.indirect_branches += scaled(*indirect_branches, num, den);
    est.indirect_mispredicts += scaled(*indirect_mispredicts, num, den);
    est.return_mispredicts += scaled(*return_mispredicts, num, den);
    est.idle_icache_cycles += scaled(*idle_icache_cycles, num, den);
    est.idle_resteer_cycles += scaled(*idle_resteer_cycles, num, den);
    est.decode_busy_cycles += scaled(*decode_busy_cycles, num, den);
    est.wrong_path_blocks += scaled(*wrong_path_blocks, num, den);
    est.wrong_path_prefetches += scaled(*wrong_path_prefetches, num, den);
    cache_add_scaled(&mut est.l1i, l1i, num, den);
    cache_add_scaled(&mut est.l2, l2, num, den);
    cache_add_scaled(&mut est.l3, l3, num, den);
    if let Some(s_skia) = skia {
        skia_add_scaled(
            est.skia.get_or_insert_with(SkiaStats::default),
            s_skia,
            num,
            den,
        );
    }
}

fn cache_add_scaled(est: &mut CacheStats, s: &CacheStats, num: u64, den: u64) {
    let CacheStats {
        demand_hits,
        demand_misses,
        prefetch_hits,
        prefetch_misses,
        evictions,
        polluting_fills,
    } = *s;
    est.demand_hits += scaled(demand_hits, num, den);
    est.demand_misses += scaled(demand_misses, num, den);
    est.prefetch_hits += scaled(prefetch_hits, num, den);
    est.prefetch_misses += scaled(prefetch_misses, num, den);
    est.evictions += scaled(evictions, num, den);
    est.polluting_fills += scaled(polluting_fills, num, den);
}

fn skia_add_scaled(est: &mut SkiaStats, s: &SkiaStats, num: u64, den: u64) {
    let SkiaStats {
        sbd,
        sbb,
        filtered_known,
        bogus_uses,
        useful_uses,
    } = s;
    sbd_add_scaled(&mut est.sbd, sbd, num, den);
    sbb_add_scaled(&mut est.sbb, sbb, num, den);
    est.filtered_known += scaled(*filtered_known, num, den);
    est.bogus_uses += scaled(*bogus_uses, num, den);
    est.useful_uses += scaled(*useful_uses, num, den);
}

fn sbd_add_scaled(est: &mut ShadowDecoderStats, s: &ShadowDecoderStats, num: u64, den: u64) {
    let ShadowDecoderStats {
        head_regions,
        head_regions_valid,
        head_regions_discarded,
        tail_regions,
        head_branches,
        tail_branches,
        valid_path_sum,
    } = *s;
    est.head_regions += scaled(head_regions, num, den);
    est.head_regions_valid += scaled(head_regions_valid, num, den);
    est.head_regions_discarded += scaled(head_regions_discarded, num, den);
    est.tail_regions += scaled(tail_regions, num, den);
    est.head_branches += scaled(head_branches, num, den);
    est.tail_branches += scaled(tail_branches, num, den);
    est.valid_path_sum += scaled(valid_path_sum, num, den);
}

fn sbb_add_scaled(est: &mut SbbStats, s: &SbbStats, num: u64, den: u64) {
    let SbbStats {
        u_hits,
        r_hits,
        lookups,
        u_inserts,
        r_inserts,
        retirements,
        evicted_unretired,
    } = *s;
    est.u_hits += scaled(u_hits, num, den);
    est.r_hits += scaled(r_hits, num, den);
    est.lookups += scaled(lookups, num, den);
    est.u_inserts += scaled(u_inserts, num, den);
    est.r_inserts += scaled(r_inserts, num, den);
    est.retirements += scaled(retirements, num, den);
    est.evicted_unretired += scaled(evicted_unretired, num, den);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_is_identity_when_num_equals_den() {
        for c in [0u64, 1, 7, 1_000_003, u64::MAX / 2] {
            for d in [1u64, 3, 400_000] {
                assert_eq!(scaled(c, d, d), c);
            }
        }
    }

    #[test]
    fn scaled_rounds_to_nearest() {
        assert_eq!(scaled(10, 1, 4), 3); // 2.5 rounds up
        assert_eq!(scaled(10, 1, 3), 3); // 3.33 rounds down
        assert_eq!(scaled(0, 7, 3), 0);
        // Near-overflow inputs stay exact through the u128 path.
        assert_eq!(scaled(u64::MAX / 3, 3, 3), u64::MAX / 3);
    }

    #[test]
    fn cache_delta_subtracts_every_field() {
        let now = CacheStats {
            demand_hits: 10,
            demand_misses: 9,
            prefetch_hits: 8,
            prefetch_misses: 7,
            evictions: 6,
            polluting_fills: 5,
        };
        let base = CacheStats {
            demand_hits: 1,
            demand_misses: 2,
            prefetch_hits: 3,
            prefetch_misses: 4,
            evictions: 5,
            polluting_fills: 5,
        };
        let d = cache_delta(&now, &base);
        assert_eq!(
            (
                d.demand_hits,
                d.demand_misses,
                d.prefetch_hits,
                d.prefetch_misses,
                d.evictions,
                d.polluting_fills
            ),
            (9, 7, 5, 3, 1, 0)
        );
    }

    #[test]
    fn add_scaled_degenerate_reproduces_input() {
        let mut s = SimStats {
            instructions: 1_000,
            cycles: 777,
            branches: 123,
            mean_ftq_occupancy: 1.5,
            ..SimStats::default()
        };
        s.btb_misses_by_kind[2] = 9;
        s.l1i.demand_hits = 55;
        s.skia = Some(SkiaStats::default());
        let mut est = SimStats::default();
        add_scaled(&mut est, &s, 400_000, 400_000);
        est.mean_ftq_occupancy = s.mean_ftq_occupancy; // run_plan's job
        assert_eq!(est, s);
    }
}
