//! Front-end configuration (the paper's Table 1).

use skia_core::SkiaConfig;
use skia_uarch::btb::BtbConfig;
use skia_uarch::cache::HierarchyConfig;
use skia_uarch::tage::TageConfig;

/// Which BTB the BPU uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtbMode {
    /// A finite set-associative BTB.
    Finite(BtbConfig),
    /// The paper's "Infinite, Fully Associative BTB" upper bound (Fig. 3).
    Infinite,
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
    /// Fetch Target Queue entries (24 in the paper).
    pub ftq_depth: usize,
    /// Decode width in instructions/cycle (12 in the paper).
    pub decode_width: u32,
    /// Retire width in instructions/cycle (12 in the paper).
    pub retire_width: u32,
    /// Pipeline stages from IAG to decode (fetch pipeline depth).
    pub fetch_to_decode: u32,
    /// Extra cycles after decode start until an execute-stage resteer is
    /// signalled (branch resolution depth).
    pub exec_detect: u32,
    /// Cycles to repair the IAG after a resteer signal (the paper's working
    /// example uses 2, §2.6).
    pub decode_repair: u32,
    /// Extra IAG latency per resteer charged for BTB capacity scaling
    /// (derived from the CACTI model; 0 at the nominal 8K size).
    pub btb_extra_latency: u32,
    /// Skia configuration; `None` disables shadow decoding entirely.
    pub skia: Option<SkiaConfig>,
    /// Back-end pipeline depth added to the final cycle count.
    pub backend_depth: u32,
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
            ftq_depth: 24,
            decode_width: 12,
            retire_width: 12,
            fetch_to_decode: 4,
            decode_repair: 2,
            exec_detect: 12,
            btb_extra_latency: 0,
            skia: None,
            backend_depth: 8,
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

    /// Replace the BTB entry count (4-way), charging CACTI-model latency for
    /// sizes beyond the nominal 8K (the Fig. 3 sweep).
    #[must_use]
    pub fn with_btb_entries(mut self, entries: usize) -> Self {
        self.btb = BtbMode::Finite(BtbConfig::with_entries(entries));
        self.btb_extra_latency = skia_uarch::cacti::btb_extra_cycles(entries);
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
        assert_eq!(c.ftq_depth, 24);
        assert_eq!(c.decode_width, 12);
        assert_eq!(c.retire_width, 12);
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

    #[test]
    fn btb_scaling_charges_latency() {
        let base = FrontendConfig::alder_lake_like().with_btb_entries(8192);
        assert_eq!(base.btb_extra_latency, 0);
        let big = FrontendConfig::alder_lake_like().with_btb_entries(128 * 1024);
        assert!(big.btb_extra_latency >= 1);
    }
}
