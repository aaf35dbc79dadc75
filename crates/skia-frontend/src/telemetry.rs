//! Every name a simulator snapshot carries, and the code that writes it.
//!
//! The simulator counts into a plain [`SimStats`] and three plain
//! [`LocalHistogram`]s; its hot path never touches a [`Snapshot`].
//! [`Simulator::snapshot`](crate::Simulator::snapshot) builds a fresh one
//! from [`Simulator::stats`](crate::Simulator::stats) through
//! [`SimStats::write_snapshot`], `SimHistograms::write_snapshot` and
//! `write_tage`. This module is the one place that knows the names. The
//! `for_each_sim_counter!` field↔name table generates both the scalar half
//! of [`SimStats::write_snapshot`] and the table the snapshot-agreement test
//! walks, and the cache-level and `skia.*` tables serve the writer and the
//! test alike, so names and fields cannot drift apart.

use skia_core::SkiaStats;
use skia_isa::BranchKind;
use skia_telemetry::{LocalHistogram, Snapshot};
use skia_uarch::cache::CacheStats;

use crate::stats::SimStats;

/// Apply a macro to every `(SimStats u64 field, metric name)` pair.
///
/// `cycles` is included even though it is computed (not incremented):
/// [`SimStats::write_snapshot`] exports whatever the struct holds.
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

macro_rules! define_write_snapshot {
    ($(($field:ident, $name:literal)),+ $(,)?) => {
        /// Every `(metric name, field accessor)` pair of the table.
        #[cfg(test)]
        const SIM_COUNTERS: &[Field<SimStats>] =
            &[$(($name, |s| s.$field)),+];

        impl SimStats {
            /// Write these statistics into `snap` under the snapshot names:
            /// every table counter, the per-kind BTB misses, the three cache
            /// levels, the Skia counters when Skia is on, and the
            /// `sim.mean_ftq_occupancy` and `sim.ipc` gauges.
            pub fn write_snapshot(&self, snap: &mut Snapshot) {
                let c = &mut snap.counters;
                $(c.insert($name.into(), self.$field);)+
                for (&kind, &n) in BranchKind::ALL.iter().zip(&self.btb_misses_by_kind) {
                    c.insert(btb_miss_kind_name(kind).into(), n);
                }
                for (level, stats) in [("l1i", &self.l1i), ("l2", &self.l2), ("l3", &self.l3)] {
                    for (name, field) in CACHE_COUNTERS {
                        c.insert(format!("{level}.{name}"), field(stats));
                    }
                }
                if let Some(skia) = &self.skia {
                    for (name, field) in SHADOW_COUNTERS {
                        c.insert(name.into(), field(skia));
                    }
                    snap.gauges.insert("skia.bogus_rate".into(), skia.bogus_rate());
                }
                snap.gauges
                    .insert("sim.mean_ftq_occupancy".into(), self.mean_ftq_occupancy);
                snap.gauges.insert("sim.ipc".into(), self.ipc());
            }
        }
    };
}
for_each_sim_counter!(define_write_snapshot);

/// A counter's snapshot name and the stats field it reads.
type Field<S> = (&'static str, fn(&S) -> u64);

/// Each cache level's counters, named `<level>.<suffix>`.
const CACHE_COUNTERS: [Field<CacheStats>; 6] = [
    ("demand_hits", |s| s.demand_hits),
    ("demand_misses", |s| s.demand_misses),
    ("prefetch_hits", |s| s.prefetch_hits),
    ("prefetch_misses", |s| s.prefetch_misses),
    ("evictions", |s| s.evictions),
    ("polluting_fills", |s| s.polluting_fills),
];

/// Skia's shadow-branch decoder and buffer counters, written when Skia is
/// on (with the `skia.bogus_rate` gauge).
const SHADOW_COUNTERS: [Field<SkiaStats>; 17] = [
    ("skia.sbd.head_regions", |s| s.sbd.head_regions),
    ("skia.sbd.head_regions_valid", |s| s.sbd.head_regions_valid),
    ("skia.sbd.head_regions_discarded", |s| {
        s.sbd.head_regions_discarded
    }),
    ("skia.sbd.tail_regions", |s| s.sbd.tail_regions),
    ("skia.sbd.head_branches", |s| s.sbd.head_branches),
    ("skia.sbd.tail_branches", |s| s.sbd.tail_branches),
    ("skia.sbd.valid_path_sum", |s| s.sbd.valid_path_sum),
    ("skia.sbb.u_hits", |s| s.sbb.u_hits),
    ("skia.sbb.r_hits", |s| s.sbb.r_hits),
    ("skia.sbb.lookups", |s| s.sbb.lookups),
    ("skia.sbb.u_inserts", |s| s.sbb.u_inserts),
    ("skia.sbb.r_inserts", |s| s.sbb.r_inserts),
    ("skia.sbb.retirements", |s| s.sbb.retirements),
    ("skia.sbb.evicted_unretired", |s| s.sbb.evicted_unretired),
    ("skia.filtered_known", |s| s.filtered_known),
    ("skia.bogus_uses", |s| s.bogus_uses),
    ("skia.useful_uses", |s| s.useful_uses),
];

/// Write the TAGE pull counters, `(predictions, mispredictions)`.
pub(crate) fn write_tage(snap: &mut Snapshot, (predictions, mispredictions): (u64, u64)) {
    snap.counters.insert("tage.predictions".into(), predictions);
    snap.counters
        .insert("tage.mispredictions".into(), mispredictions);
}

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
    /// Write the standing histograms into `snap`: these three, plus Skia's
    /// SBB entry lifetimes (cycles from insertion to eviction or
    /// invalidation), empty when Skia is off so every snapshot carries the
    /// same four.
    pub fn write_snapshot(&self, snap: &mut Snapshot, sbb_lifetimes: Option<&LocalHistogram>) {
        let none = LocalHistogram::new();
        for (name, h) in [
            ("ftq.occupancy", &self.ftq_occupancy),
            ("resteer.repair_latency", &self.resteer_latency),
            ("shadow_decode.batch_size", &self.shadow_batch),
            ("sbb.entry_lifetime", sbb_lifetimes.unwrap_or(&none)),
        ] {
            snap.histograms.insert(name.into(), h.snapshot());
        }
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
        let skia: BTreeSet<_> = SHADOW_COUNTERS.iter().map(|&(name, _)| name).collect();
        assert_eq!(skia.len(), SHADOW_COUNTERS.len());
    }

    /// After a real Skia-on run with event tracing on, the snapshot agrees
    /// with `SimStats` name by name — every table counter, every per-kind
    /// BTB miss, every cache-level and `skia.*` counter, and nothing else —
    /// and taking it twice changes nothing.
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
        for (level, c) in [("l1i", &stats.l1i), ("l2", &stats.l2), ("l3", &stats.l3)] {
            for (name, field) in CACHE_COUNTERS {
                let name = format!("{level}.{name}");
                assert_eq!(snap.counter(&name), Some(field(c)), "{name}");
            }
        }
        let sk = stats.skia.unwrap();
        for (name, field) in SHADOW_COUNTERS {
            assert_eq!(snap.counter(name), Some(field(&sk)), "{name}");
        }
        assert!(stats.l1i.prefetch_misses > 0 && stats.l2.accesses() > 0);
        assert!(sk.sbd.head_regions > 0 && sk.sbb.u_inserts + sk.sbb.r_inserts > 0);
        assert_eq!(snap.gauge("skia.bogus_rate"), Some(sk.bogus_rate()));
        let (tage_predictions, _) = sim.bpu_mut().tage_stats();
        assert_eq!(snap.counter("tage.predictions"), Some(tage_predictions));
        assert!(snap.counter("tage.mispredictions").is_some());
        assert_eq!(
            snap.counters.len(),
            SIM_COUNTERS.len() + BranchKind::ALL.len() + 3 * 6 + SHADOW_COUNTERS.len() + 2,
            "no counter outside the names checked above"
        );

        assert_eq!(
            snap.gauges.get("sim.mean_ftq_occupancy"),
            Some(&stats.mean_ftq_occupancy)
        );
        assert_eq!(snap.gauge("sim.ipc"), Some(stats.ipc()));
        assert!(!snap.events.is_empty());
        assert_eq!(
            snap.histogram("ftq.occupancy").map(|h| h.mean()),
            Some(stats.mean_ftq_occupancy)
        );
        let lifetimes = sim.bpu_mut().skia.as_ref().unwrap().entry_lifetimes();
        assert!(lifetimes.count() > 0);
        assert_eq!(
            snap.histogram("sbb.entry_lifetime"),
            Some(&lifetimes.snapshot())
        );

        assert_eq!(sim.snapshot(), snap);
        assert_eq!(sim.stats(), stats);
    }

    /// Skia off: no `skia.*` names, yet the same four histograms, the SBB
    /// lifetimes among them empty.
    #[test]
    fn skia_off_snapshot_keeps_four_histograms() {
        let program = Program::generate(&ProgramSpec::default());
        let mut sim = Simulator::new(&program, FrontendConfig::alder_lake_like());
        sim.run(Walker::new(&program, 1, 6).take(500));
        let snap = sim.snapshot();
        assert!(snap.counters.keys().all(|k| !k.starts_with("skia.")));
        assert_eq!(snap.histograms.len(), 4);
        assert_eq!(
            snap.histogram("sbb.entry_lifetime"),
            Some(&Default::default())
        );
    }
}
