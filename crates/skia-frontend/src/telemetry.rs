//! Telemetry wiring between the simulator and [`skia_telemetry`].
//!
//! The simulator counts into a plain [`SimStats`] and three plain
//! [`LocalHistogram`]s; its hot path never touches the registry. The
//! registry is written when a snapshot is taken, by
//! [`SimStats::register_into`] and `SimHistograms::register_into`. The
//! single source of truth for the scalar counter names is the
//! `for_each_sim_counter!` field↔name table below, which generates both the
//! scalar half of [`SimStats::register_into`] and the table the
//! snapshot-agreement test walks, so the two cannot drift apart.

use skia_isa::BranchKind;
use skia_telemetry::{LocalHistogram, MetricRegistry};

use crate::stats::SimStats;

/// Apply a macro to every `(SimStats u64 field, metric name)` pair.
///
/// `cycles` is included even though it is computed (not incremented):
/// [`SimStats::register_into`] exports whatever the struct holds.
macro_rules! for_each_sim_counter {
    ($apply:ident) => {
        $apply! {
            (instructions, "sim.instructions"),
            (cycles, "sim.cycles"),
            (branches, "sim.branches"),
            (taken_branches, "sim.taken_branches"),
            (btb_misses, "btb.misses"),
            (btb_miss_l1i_resident, "btb.miss_l1i_resident"),
            (btb_miss_taken, "btb.miss_taken"),
            (btb_miss_rescuable, "btb.miss_rescuable"),
            (sbb_rescues, "sbb.rescues"),
            (rescuable_seen_before, "sbb.rescuable_seen_before"),
            (decode_resteers, "resteer.decode"),
            (exec_resteers, "resteer.execute"),
            (bogus_resteers, "resteer.bogus"),
            (cond_branches, "branch.cond"),
            (cond_mispredicts, "branch.cond_mispredicts"),
            (indirect_branches, "branch.indirect"),
            (indirect_mispredicts, "branch.indirect_mispredicts"),
            (return_mispredicts, "branch.return_mispredicts"),
            (idle_icache_cycles, "decode.idle_icache_cycles"),
            (idle_resteer_cycles, "decode.idle_resteer_cycles"),
            (decode_busy_cycles, "decode.busy_cycles"),
            (wrong_path_blocks, "wrong_path.blocks"),
            (wrong_path_prefetches, "wrong_path.prefetches"),
        }
    };
}

macro_rules! define_register_into {
    ($(($field:ident, $name:literal)),+ $(,)?) => {
        /// Every `(metric name, field accessor)` pair of the table.
        #[cfg(test)]
        const SIM_COUNTERS: &[(&str, fn(&SimStats) -> u64)] =
            &[$(($name, |s| s.$field)),+];

        impl SimStats {
            /// Upsert these statistics into `reg` under the snapshot names:
            /// every table counter, the per-kind BTB misses, the three cache
            /// levels, the Skia counters when attached, and the
            /// `sim.mean_ftq_occupancy` and `sim.ipc` gauges.
            pub fn register_into(&self, reg: &mut MetricRegistry) {
                $(reg.set_counter($name, self.$field);)+
                for (&kind, &n) in BranchKind::ALL.iter().zip(&self.btb_misses_by_kind) {
                    reg.set_counter(btb_miss_kind_name(kind), n);
                }
                self.l1i.register_into(reg, "l1i");
                self.l2.register_into(reg, "l2");
                self.l3.register_into(reg, "l3");
                if let Some(skia) = &self.skia {
                    skia.register_into(reg);
                }
                reg.set_gauge("sim.mean_ftq_occupancy", self.mean_ftq_occupancy);
                reg.set_gauge("sim.ipc", self.ipc());
            }
        }
    };
}
for_each_sim_counter!(define_register_into);

/// Metric name of the per-kind BTB-miss counter for `kind`.
#[must_use]
pub fn btb_miss_kind_name(kind: BranchKind) -> &'static str {
    match kind {
        BranchKind::DirectCond => "btb.miss_kind.direct_cond",
        BranchKind::DirectUncond => "btb.miss_kind.direct_uncond",
        BranchKind::Call => "btb.miss_kind.call",
        BranchKind::Return => "btb.miss_kind.return",
        BranchKind::IndirectJmp => "btb.miss_kind.indirect_jmp",
        BranchKind::IndirectCall => "btb.miss_kind.indirect_call",
    }
}

/// Registry name of the SBB entry-residency histogram (cycles, closed on
/// eviction/invalidation). `skia-core` records into it directly through
/// its telemetry attachment.
pub(crate) const SBB_LIFETIME: &str = "sbb.entry_lifetime";

/// The simulator's standing histograms, recorded without sharing.
#[derive(Debug, Clone, Default)]
pub(crate) struct SimHistograms {
    /// FTQ occupancy sampled at every block formation.
    pub ftq_occupancy: LocalHistogram,
    /// Resteer repair bubble (cycles from the mispredicted block's formation
    /// to the IAG restart).
    pub resteer_latency: LocalHistogram,
    /// Shadow branches inserted per shadow-decode invocation.
    pub shadow_batch: LocalHistogram,
}

impl SimHistograms {
    /// Overwrite the registry's standing histograms with these contents and
    /// make sure [`SBB_LIFETIME`] exists, so every snapshot carries the same
    /// four histograms. Idempotent: nothing is drained.
    pub fn register_into(&self, reg: &mut MetricRegistry) {
        reg.histogram("ftq.occupancy").set(&self.ftq_occupancy);
        reg.histogram("resteer.repair_latency")
            .set(&self.resteer_latency);
        reg.histogram("shadow_decode.batch_size")
            .set(&self.shadow_batch);
        reg.histogram(SBB_LIFETIME);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use skia_telemetry::TraceConfig;
    use skia_workloads::{Program, ProgramSpec, Walker};

    use super::*;
    use crate::{FrontendConfig, Simulator};

    #[test]
    fn names_are_distinct() {
        let names: BTreeSet<_> = SIM_COUNTERS.iter().map(|&(name, _)| name).collect();
        assert_eq!(names.len(), SIM_COUNTERS.len());
        assert_eq!(SIM_COUNTERS.len(), 23);
    }

    /// After a real Skia-on run with event tracing on, the snapshot agrees
    /// with `SimStats` name by name, and taking it twice changes nothing.
    #[test]
    fn snapshot_matches_stats_and_is_idempotent() {
        let program = Program::generate(&ProgramSpec {
            functions: 120,
            ..ProgramSpec::default()
        });
        let mut sim = Simulator::new(&program, FrontendConfig::alder_lake_with_skia());
        sim.enable_trace(TraceConfig::default());
        let stats = sim.run(Walker::new(&program, 3, 6).take(4_000));
        let snap = sim.snapshot();

        assert!(stats.skia.is_some() && stats.btb_misses > 0 && stats.cycles > 0);
        for &(name, field) in SIM_COUNTERS {
            assert_eq!(snap.counter(name), Some(field(&stats)), "{name}");
        }
        for (i, &kind) in BranchKind::ALL.iter().enumerate() {
            let name = btb_miss_kind_name(kind);
            assert_eq!(
                snap.counter(name),
                Some(stats.btb_misses_by_kind[i]),
                "{name}"
            );
        }
        assert_eq!(
            snap.gauges.get("sim.mean_ftq_occupancy"),
            Some(&stats.mean_ftq_occupancy)
        );
        assert!(!snap.events.is_empty());
        assert_eq!(
            snap.histogram("ftq.occupancy").map(|h| h.mean()),
            Some(stats.mean_ftq_occupancy)
        );

        assert_eq!(sim.snapshot(), snap);
        assert_eq!(sim.stats(), stats);
    }
}
