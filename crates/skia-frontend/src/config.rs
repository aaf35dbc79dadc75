//! Front-end configuration (the paper's Table 1).
//!
//! [`FrontendConfig`] holds what an experiment or a test varies: the BTB,
//! the cache geometry, the predictors' sizes and Skia. The Table 1 timings
//! that no experiment varies are the constants below, and the CACTI bubble
//! of an oversized BTB follows from the BTB itself
//! ([`BtbMode::extra_cycles`]).

use skia_core::SkiaConfig;
use skia_uarch::btb::BtbConfig;
use skia_uarch::cache::HierarchyConfig;
use skia_uarch::tage::TageConfig;

/// Fetch Target Queue entries (24 in the paper).
pub const FTQ_DEPTH: usize = 24;
/// Decode width in instructions per cycle (12 in the paper).
pub const DECODE_WIDTH: u64 = 12;
/// Retire width in instructions per cycle (12 in the paper).
pub const RETIRE_WIDTH: u64 = 12;
/// Pipeline stages from the IAG to decode (fetch pipeline depth).
pub const FETCH_TO_DECODE: u64 = 4;
/// Cycles after decode start until an execute-stage resteer is signalled
/// (branch resolution depth).
pub const EXEC_DETECT: u64 = 12;
/// Cycles to repair the IAG after a resteer signal (the paper's working
/// example uses 2, §2.6).
pub const DECODE_REPAIR: u64 = 2;
/// Back-end pipeline depth added to the final cycle count.
pub const BACKEND_DEPTH: u64 = 8;

/// Which BTB the BPU uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtbMode {
    /// A finite set-associative BTB.
    Finite(BtbConfig),
    /// The paper's "Infinite, Fully Associative BTB" upper bound (Fig. 3).
    Infinite,
}

impl BtbMode {
    /// Extra IAG cycles every resteer pays for this BTB's access time: the
    /// CACTI model's [`btb_extra_cycles`](skia_uarch::cacti::btb_extra_cycles)
    /// for a finite BTB (0 up to the nominal 8K entries), and 0 for the
    /// infinite upper bound.
    #[must_use]
    pub fn extra_cycles(self) -> u64 {
        match self {
            BtbMode::Finite(b) => u64::from(skia_uarch::cacti::btb_extra_cycles(b.entries)),
            BtbMode::Infinite => 0,
        }
    }
}

/// ITTAGE geometry knobs (tables × 2^index_bits entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IttageParams {
    /// Number of tagged tables.
    pub tables: usize,
    /// log2 entries per table.
    pub index_bits: usize,
    /// Longest history length.
    pub max_history: usize,
}

/// Complete front-end configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendConfig {
    /// BTB geometry (8K-entry, 4-way, 78 KB in the paper).
    pub btb: BtbMode,
    /// Cache hierarchy (32 KB L1-I / 1 MB L2 / 2 MB L3 in the paper).
    pub hierarchy: HierarchyConfig,
    /// Conditional predictor (TAGE-SC-L class, 64 KB in the paper).
    pub tage: TageConfig,
    /// Indirect predictor (ITTAGE, 64 KB in the paper).
    pub ittage: IttageParams,
    /// Return address stack depth.
    pub ras_depth: usize,
    /// Skia configuration; `None` disables shadow decoding entirely.
    pub skia: Option<SkiaConfig>,
}

impl FrontendConfig {
    /// The paper's baseline (Table 1): Alder-Lake/Golden-Cove-like with an
    /// 8K-entry BTB, no Skia.
    #[must_use]
    pub fn alder_lake_like() -> Self {
        FrontendConfig {
            btb: BtbMode::Finite(BtbConfig::with_entries(8192)),
            hierarchy: HierarchyConfig::default(),
            tage: TageConfig::default(),
            ittage: IttageParams {
                tables: 6,
                index_bits: 11,
                max_history: 320,
            },
            ras_depth: 64,
            skia: None,
        }
    }

    /// The paper's Skia configuration: baseline plus the 12.25 KB SBB.
    #[must_use]
    pub fn alder_lake_with_skia() -> Self {
        FrontendConfig {
            skia: Some(SkiaConfig::default()),
            ..FrontendConfig::alder_lake_like()
        }
    }

    /// A small configuration for fast unit tests.
    #[must_use]
    pub fn test_small() -> Self {
        FrontendConfig {
            btb: BtbMode::Finite(BtbConfig {
                entries: 256,
                ways: 4,
            }),
            tage: TageConfig::small(),
            ittage: IttageParams {
                tables: 3,
                index_bits: 7,
                max_history: 32,
            },
            ras_depth: 16,
            ..FrontendConfig::alder_lake_like()
        }
    }

    /// Replace the BTB with a 4-way one of `entries` entries (the Fig. 3
    /// sweep). Sizes beyond the nominal 8K pay their CACTI bubble
    /// ([`BtbMode::extra_cycles`]) however the BTB is set.
    #[must_use]
    pub fn with_btb_entries(mut self, entries: usize) -> Self {
        self.btb = BtbMode::Finite(BtbConfig::with_entries(entries));
        self
    }

    /// Enable/replace the Skia configuration.
    #[must_use]
    pub fn with_skia(mut self, skia: SkiaConfig) -> Self {
        self.skia = Some(skia);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_table1() {
        let c = FrontendConfig::alder_lake_like();
        match c.btb {
            BtbMode::Finite(b) => {
                assert_eq!(b.entries, 8192);
                assert_eq!(b.ways, 4);
                assert!((b.storage_kb() - 78.0).abs() < 1e-9);
            }
            BtbMode::Infinite => panic!("baseline BTB must be finite"),
        }
        assert!(c.skia.is_none());
        assert_eq!(c.hierarchy.l1i.size_bytes, 32 * 1024);
    }

    #[test]
    fn skia_config_adds_the_sbb() {
        let c = FrontendConfig::alder_lake_with_skia();
        let skia = c.skia.expect("skia enabled");
        assert!((skia.sbb.storage_kb() - 12.25).abs() < 0.01);
        assert!(skia.head && skia.tail);
    }

    /// The bubble follows from the BTB's size: none up to and including
    /// the storage-budget BTB of Figs. 3 and 16, then the CACTI staircase.
    #[test]
    fn btb_scaling_charges_latency() {
        let budget = 8192 + BtbConfig::entries_for_budget_kb(12.25, 4);
        assert_eq!(budget, 9476);
        for (entries, cycles) in [(8192, 0), (budget, 0), (16_384, 1), (65_536, 3)] {
            let c = FrontendConfig::alder_lake_like().with_btb_entries(entries);
            assert_eq!(c.btb.extra_cycles(), cycles, "{entries} entries");
        }
        assert_eq!(BtbMode::Infinite.extra_cycles(), 0);
    }
}
