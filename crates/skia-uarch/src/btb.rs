//! Branch Target Buffer.
//!
//! Entry layout follows the paper's Fig. 12: 10-bit tag, valid bit, per-way
//! LRU bit, 2-bit branch type and 64-bit target — 78 bits ≈ 9.75 bytes per
//! entry, so the paper's 8K-entry BTB is 78 KB. The model keeps full-precision
//! tags internally (no aliasing) but reports storage with the paper's entry
//! size so ISO-storage comparisons (BTB+12.25 KB vs. SBB) match the paper.

use skia_isa::BranchKind;

use crate::tag_array::TagArray;

/// Bits per BTB entry per the paper (Fig. 12).
pub const BTB_ENTRY_BITS: usize = 78;

/// BTB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbConfig {
    /// Total entries (sets × ways).
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl BtbConfig {
    /// Standard configuration used throughout the paper: 4-way.
    #[must_use]
    pub fn with_entries(entries: usize) -> Self {
        BtbConfig { entries, ways: 4 }
    }

    /// Sets implied by the geometry (entries need not be a power of two).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(self.entries >= self.ways && self.entries.is_multiple_of(self.ways));
        self.entries / self.ways
    }

    /// Storage in kilobytes at the paper's 78 bits/entry.
    #[must_use]
    pub fn storage_kb(&self) -> f64 {
        (self.entries * BTB_ENTRY_BITS) as f64 / 8.0 / 1024.0
    }

    /// How many extra entries a given extra storage budget buys, rounded down
    /// to a multiple of the associativity (used for the BTB+12.25 KB
    /// configurations of Figs. 3 and 16).
    #[must_use]
    pub fn entries_for_budget_kb(budget_kb: f64, ways: usize) -> usize {
        let raw = (budget_kb * 1024.0 * 8.0 / BTB_ENTRY_BITS as f64) as usize;
        raw - raw % ways
    }
}

/// A BTB entry payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbEntry {
    /// Branch classification (2-bit field in hardware).
    pub kind: BranchKind,
    /// Predicted target. For returns this field is unused (the RAS provides
    /// the target) but the entry still identifies the instruction as a
    /// branch, which is what FDIP needs.
    pub target: u64,
    /// Encoded instruction length (predecode metadata; real designs carry
    /// equivalent end-of-branch information to form fetch blocks and return
    /// addresses).
    pub len: u8,
}

/// Set-associative BTB indexed by branch PC.
///
/// The BTB keeps no index of its keys. The BPU answers "where is the next
/// branch I know about in this fetch window?" from its own
/// [`LineBitmap`](crate::LineBitmap) of resident pcs, which it keeps in
/// step through the evicted pc [`Btb::insert`] returns.
#[derive(Debug, Clone)]
pub struct Btb {
    arr: TagArray<BtbEntry>,
    config: BtbConfig,
}

impl Btb {
    /// Build a BTB.
    #[must_use]
    pub fn new(config: BtbConfig) -> Self {
        Btb {
            arr: TagArray::new(config.sets(), config.ways),
            config,
        }
    }

    /// Geometry.
    #[must_use]
    pub fn config(&self) -> BtbConfig {
        self.config
    }

    fn set_of(&self, pc: u64) -> usize {
        self.arr.set_of(pc)
    }

    /// Predict: look up the branch at `pc`, updating recency.
    pub fn lookup(&mut self, pc: u64) -> Option<BtbEntry> {
        let set = self.set_of(pc);
        self.arr.access(set, pc).copied()
    }

    /// Probe without a recency update.
    #[must_use]
    pub fn probe(&self, pc: u64) -> Option<BtbEntry> {
        self.arr.probe(self.set_of(pc), pc).copied()
    }

    /// Install or refresh the branch at `pc`. Returns the PC of a displaced
    /// branch, if the insertion evicted one.
    pub fn insert(&mut self, pc: u64, kind: BranchKind, target: u64, len: u8) -> Option<u64> {
        let set = self.set_of(pc);
        let evicted = self.arr.insert(set, pc, BtbEntry { kind, target, len });
        match evicted {
            Some((old_pc, _)) if old_pc != pc => Some(old_pc),
            _ => None,
        }
    }

    /// Number of valid entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arr.len()
    }

    /// Whether the BTB holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arr.is_empty()
    }
}

/// An unbounded, fully associative BTB — the paper's "Infinite, Fully
/// Associative BTB" upper-bound configuration (Fig. 3).
///
/// Keyed-lookup only (never iterated), so a hash map's unspecified order
/// cannot leak into results.
#[derive(Debug, Clone, Default)]
pub struct IdealBtb {
    map: std::collections::HashMap<u64, BtbEntry>,
}

impl IdealBtb {
    /// Create an empty ideal BTB.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up the branch at `pc`.
    #[must_use]
    pub fn lookup(&self, pc: u64) -> Option<BtbEntry> {
        self.map.get(&pc).copied()
    }

    /// Install the branch at `pc`.
    pub fn insert(&mut self, pc: u64, kind: BranchKind, target: u64, len: u8) {
        self.map.insert(pc, BtbEntry { kind, target, len });
    }

    /// Number of distinct branches ever installed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizing_is_reproduced() {
        // 8K entries × 78 bits = 78 KB (the paper's headline geometry).
        let c = BtbConfig::with_entries(8192);
        assert!((c.storage_kb() - 78.0).abs() < 1e-9);
        assert_eq!(c.sets(), 2048);
    }

    #[test]
    fn budget_conversion() {
        // 12.25 KB at 78 bits/entry ≈ 1285 entries → 1284 at 4-way.
        let extra = BtbConfig::entries_for_budget_kb(12.25, 4);
        assert_eq!(extra, 1284);
    }

    #[test]
    fn lookup_insert_roundtrip() {
        let mut btb = Btb::new(BtbConfig {
            entries: 8,
            ways: 2,
        });
        assert_eq!(btb.lookup(0x400), None);
        btb.insert(0x400, BranchKind::DirectUncond, 0x500, 5);
        let e = btb.lookup(0x400).unwrap();
        assert_eq!(e.kind, BranchKind::DirectUncond);
        assert_eq!(e.target, 0x500);
    }

    #[test]
    fn capacity_pressure_evicts() {
        let mut btb = Btb::new(BtbConfig {
            entries: 4,
            ways: 2,
        });
        // 2 sets × 2 ways; flood one set.
        for i in 0..8u64 {
            let pc = i * 2; // even pcs → set 0 (set = pc % 2 == 0)
            btb.insert(pc, BranchKind::Call, pc + 100, 5);
        }
        let resident = (0..8u64).filter(|i| btb.probe(i * 2).is_some()).count();
        assert_eq!(resident, 2, "only the last two survive in a 2-way set");
    }

    #[test]
    fn probe_is_recency_neutral() {
        let mut btb = Btb::new(BtbConfig {
            entries: 2,
            ways: 2,
        });
        btb.insert(0x100, BranchKind::Call, 0, 5);
        btb.insert(0x102, BranchKind::Return, 0, 1);
        for _ in 0..100 {
            assert!(btb.probe(0x100).is_some());
            assert!(btb.probe(0x104).is_none());
        }
        // 0x100 is still LRU despite the probes: the next insert evicts it.
        btb.insert(0x104, BranchKind::Call, 0, 5);
        assert!(btb.probe(0x100).is_none(), "probe must not refresh LRU");
        assert!(btb.probe(0x102).is_some());
    }

    #[test]
    fn ideal_btb_never_evicts() {
        let mut b = IdealBtb::new();
        for pc in 0..100_000u64 {
            b.insert(pc, BranchKind::DirectCond, pc ^ 0xFFFF, 6);
        }
        assert_eq!(b.len(), 100_000);
        assert_eq!(b.lookup(99_999).unwrap().target, 99_999 ^ 0xFFFF);
    }
}
