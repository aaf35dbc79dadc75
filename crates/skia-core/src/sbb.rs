//! The Shadow Branch Buffer (paper §4.2–4.3).
//!
//! A small structure probed **in parallel** with the BTB and filled **off the
//! critical path** by the Shadow Branch Decoder. It is split by branch class
//! to exploit entry-size asymmetry:
//!
//! * **U-SBB** — direct unconditional jumps and calls. An entry needs the
//!   full 64-bit target (plus tag/valid/LRU/retired/type bits): 78 bits.
//! * **R-SBB** — returns. The target comes from the RAS, so an entry only
//!   identifies the return's location: 10-bit tag + 6-bit line offset +
//!   valid + LRU + retired + spare = 20 bits.
//!
//! The paper's default is 768 U-SBB entries (7.3125 KB) + 2024 R-SBB entries
//! (4.9375 KB) = **12.25 KB**, both 4-way.
//!
//! Replacement is LRU with a twist (§4.3): when a branch supplied by the SBB
//! commits, its *retired* bit is set; eviction prefers entries whose retired
//! bit is clear, so bogus branches (artifacts of wrong head-decode paths that
//! will never commit) leave first.

use std::collections::BTreeMap;
use std::ops::Range;

use skia_isa::{BranchKind, CACHE_LINE_BYTES};
use skia_uarch::TagArray;

use crate::sbd::ShadowBranch;

/// Bits per U-SBB entry (Fig. 12).
pub const USBB_ENTRY_BITS: usize = 78;
/// Bits per R-SBB entry (Fig. 12).
pub const RSBB_ENTRY_BITS: usize = 20;

/// SBB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbbConfig {
    /// U-SBB entries (jumps and calls).
    pub u_entries: usize,
    /// R-SBB entries (returns).
    pub r_entries: usize,
    /// Associativity of both structures.
    pub ways: usize,
    /// Prefer evicting entries whose retired bit is clear (§4.3). `false`
    /// degrades to plain LRU (the replacement-policy ablation).
    pub retired_aware: bool,
}

impl Default for SbbConfig {
    /// The paper's preferred 12.25 KB split (§6.2).
    fn default() -> Self {
        SbbConfig {
            u_entries: 768,
            r_entries: 2024,
            ways: 4,
            retired_aware: true,
        }
    }
}

impl SbbConfig {
    /// Total storage in KB at the paper's entry sizes.
    #[must_use]
    pub fn storage_kb(&self) -> f64 {
        (self.u_entries * USBB_ENTRY_BITS + self.r_entries * RSBB_ENTRY_BITS) as f64 / 8.0 / 1024.0
    }

    /// Scale both structures by `factor`, keeping the U:R entry ratio and
    /// rounding to the associativity (the Fig. 17-bottom sweep).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> SbbConfig {
        let round = |n: usize| -> usize {
            let raw = (n as f64 * factor).round() as usize;
            (raw - raw % self.ways).max(self.ways)
        };
        SbbConfig {
            u_entries: round(self.u_entries),
            r_entries: round(self.r_entries),
            ways: self.ways,
            retired_aware: self.retired_aware,
        }
    }

    /// A configuration with `u_entries`/`r_entries` chosen to fill
    /// `budget_kb` at a given U-SBB share of the *storage* (the Fig. 17-top
    /// sweep holds total storage constant while moving the split).
    #[must_use]
    pub fn with_budget(budget_kb: f64, u_share: f64, ways: usize) -> SbbConfig {
        let total_bits = budget_kb * 1024.0 * 8.0;
        let u_bits = total_bits * u_share;
        let r_bits = total_bits - u_bits;
        // Round to the nearest whole number of sets; this reproduces the
        // paper's 768/2024 split from its 7.3125/4.9375 KB budget.
        let round = |bits: f64, entry_bits: usize| -> usize {
            let sets = (bits / entry_bits as f64 / ways as f64).round() as usize;
            sets.max(1) * ways
        };
        SbbConfig {
            u_entries: round(u_bits, USBB_ENTRY_BITS),
            r_entries: round(r_bits, RSBB_ENTRY_BITS),
            ways,
            retired_aware: true,
        }
    }
}

/// U-SBB payload.
#[derive(Debug, Clone, Copy)]
struct UEntry {
    target: u64,
    /// Cycle the entry was inserted (entry-lifetime telemetry).
    birth: u64,
    len: u8,
    is_call: bool,
    retired: bool,
}

/// R-SBB payload. The 6-bit line offset of Fig. 12 is implied by the PC used
/// as the key; we keep it for introspection parity with the hardware layout.
#[derive(Debug, Clone, Copy)]
struct REntry {
    /// Cycle the entry was inserted (entry-lifetime telemetry).
    birth: u64,
    line_offset: u8,
    len: u8,
    retired: bool,
}

/// A successful SBB probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbbHit {
    /// `DirectUncond`, `Call` or `Return`.
    pub kind: BranchKind,
    /// Decoded target for jumps/calls; `None` for returns.
    pub target: Option<u64>,
    /// Encoded length of the shadow branch (predecode metadata).
    pub len: u8,
}

/// Hit/fill counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SbbStats {
    /// Lookups that hit in the U-SBB.
    pub u_hits: u64,
    /// Lookups that hit in the R-SBB.
    pub r_hits: u64,
    /// Total lookups.
    pub lookups: u64,
    /// Entries inserted into the U-SBB.
    pub u_inserts: u64,
    /// Entries inserted into the R-SBB.
    pub r_inserts: u64,
    /// Entries whose retired bit was set at commit.
    pub retirements: u64,
    /// Evicted entries that had never retired (bogus-or-unused casualties).
    pub evicted_unretired: u64,
}

/// Line-base mask for the bitmap mirror.
const LINE_MASK: u64 = !(CACHE_LINE_BYTES as u64 - 1);

/// One cache line's bitmaps of pc byte offsets.
#[derive(Debug, Clone, Copy, Default)]
struct LineBits {
    /// Offsets resident in either half.
    resident: u64,
    /// Offsets ever offered for insertion.
    ever: u64,
}

/// Per-cache-line bitmaps over a fixed run of lines, dense and indexed by
/// line, with an ordered map for lines outside the run.
#[derive(Debug, Clone)]
struct LineMirror {
    /// Base address of the first covered line.
    first: u64,
    covered: Vec<LineBits>,
    outside: BTreeMap<u64, LineBits>,
}

impl LineMirror {
    fn covering(lines: Range<u64>) -> Self {
        let first = lines.start & LINE_MASK;
        let n = lines
            .end
            .saturating_sub(first)
            .div_ceil(CACHE_LINE_BYTES as u64);
        LineMirror {
            first,
            covered: vec![LineBits::default(); n as usize],
            outside: BTreeMap::new(),
        }
    }

    /// Dense index of the line at `base`, when covered.
    #[inline]
    fn index(&self, base: u64) -> Option<usize> {
        let i = base.wrapping_sub(self.first) / CACHE_LINE_BYTES as u64;
        (base >= self.first && i < self.covered.len() as u64).then_some(i as usize)
    }

    #[inline]
    fn get(&self, base: u64) -> LineBits {
        match self.index(base) {
            Some(i) => self.covered[i],
            None => self.outside.get(&base).copied().unwrap_or_default(),
        }
    }

    fn get_mut(&mut self, base: u64) -> &mut LineBits {
        match self.index(base) {
            Some(i) => &mut self.covered[i],
            None => self.outside.entry(base).or_default(),
        }
    }
}

/// `pc`'s bit in its line's bitmaps.
#[inline]
fn bit(pc: u64) -> u64 {
    1u64 << (pc & !LINE_MASK)
}

/// The split Shadow Branch Buffer.
///
/// Keeps a per-cache-line bitmap mirror of resident PCs (both halves), so
/// the BPU's "next shadow branch in this fetch window" scan is one bitmap
/// read and a trailing-zeros count per window line, and the fill filter is
/// one bit test. The mirror is a dense array over the lines given at
/// construction (the program's code); other lines fall back to an exact
/// ordered map. It also keeps which PCs were ever inserted.
#[derive(Debug, Clone)]
pub struct Sbb {
    u: TagArray<UEntry>,
    r: TagArray<REntry>,
    /// Exactly the TagArray residency of the union of both halves, plus the
    /// ever-inserted bits.
    mirror: LineMirror,
    config: SbbConfig,
    stats: SbbStats,
}

impl Sbb {
    /// Build an SBB whose mirror covers no line densely.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole sets.
    #[must_use]
    pub fn new(config: SbbConfig) -> Self {
        Sbb::covering(config, 0..0)
    }

    /// Build an SBB whose mirror is dense over the cache lines of `lines`
    /// (a program's code).
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole sets.
    #[must_use]
    pub fn covering(config: SbbConfig, lines: Range<u64>) -> Self {
        assert!(config.u_entries.is_multiple_of(config.ways));
        assert!(config.r_entries.is_multiple_of(config.ways));
        Sbb {
            u: TagArray::new(config.u_entries / config.ways, config.ways),
            r: TagArray::new(config.r_entries / config.ways, config.ways),
            mirror: LineMirror::covering(lines),
            config,
            stats: SbbStats::default(),
        }
    }

    /// The lowest resident shadow-branch PC in `[start, limit)` — the
    /// BPU's fetch-window scan. Reads one bitmap per window line.
    #[must_use]
    pub fn next_key_in(&self, start: u64, limit: u64) -> Option<u64> {
        let mut base = start & LINE_MASK;
        while base < limit {
            let mut m = self.mirror.get(base).resident;
            if m != 0 {
                if base < start {
                    m &= !0u64 << (start - base);
                }
                if limit - base < CACHE_LINE_BYTES as u64 {
                    m &= (1u64 << (limit - base)) - 1;
                }
                if m != 0 {
                    return Some(base + u64::from(m.trailing_zeros()));
                }
            }
            base = base.checked_add(CACHE_LINE_BYTES as u64)?;
        }
        None
    }

    /// Whether either half holds `pc` (a bit test; same answer as
    /// [`Sbb::probe`]).
    #[inline]
    #[must_use]
    pub fn contains(&self, pc: u64) -> bool {
        self.mirror.get(pc & LINE_MASK).resident & bit(pc) != 0
    }

    /// Whether `pc` was ever offered to [`Sbb::insert`] (diagnostic; not
    /// hardware state).
    #[must_use]
    pub fn ever_inserted(&self, pc: u64) -> bool {
        self.mirror.get(pc & LINE_MASK).ever & bit(pc) != 0
    }

    /// Clear `pc`'s resident bit once neither half holds it.
    fn key_remove(&mut self, pc: u64) {
        let in_u = self.u.probe(self.u.set_of(pc), pc).is_some();
        if !in_u && self.r.probe(self.r.set_of(pc), pc).is_none() {
            self.mirror.get_mut(pc & LINE_MASK).resident &= !bit(pc);
        }
    }

    /// Geometry.
    #[must_use]
    pub fn config(&self) -> SbbConfig {
        self.config
    }

    /// Probe both halves at `pc` (parallel with the BTB lookup).
    pub fn lookup(&mut self, pc: u64) -> Option<SbbHit> {
        self.stats.lookups += 1;
        let uset = self.u.set_of(pc);
        if let Some(e) = self.u.access(uset, pc) {
            let hit = SbbHit {
                kind: if e.is_call {
                    BranchKind::Call
                } else {
                    BranchKind::DirectUncond
                },
                target: Some(e.target),
                len: e.len,
            };
            self.stats.u_hits += 1;
            return Some(hit);
        }
        let rset = self.r.set_of(pc);
        if let Some(e) = self.r.access(rset, pc) {
            let len = e.len;
            self.stats.r_hits += 1;
            return Some(SbbHit {
                kind: BranchKind::Return,
                target: None,
                len,
            });
        }
        None
    }

    /// Probe without recency/stat updates.
    #[must_use]
    pub fn probe(&self, pc: u64) -> Option<SbbHit> {
        if let Some(e) = self.u.probe(self.u.set_of(pc), pc) {
            return Some(SbbHit {
                kind: if e.is_call {
                    BranchKind::Call
                } else {
                    BranchKind::DirectUncond
                },
                target: Some(e.target),
                len: e.len,
            });
        }
        if let Some(e) = self.r.probe(self.r.set_of(pc), pc) {
            return Some(SbbHit {
                kind: BranchKind::Return,
                target: None,
                len: e.len,
            });
        }
        None
    }

    /// Insert a shadow branch found by the SBD (see [`Sbb::insert_at`]),
    /// stamped with birth cycle 0. Returns the PC of the entry this
    /// insertion displaced, if a *different* entry was evicted.
    pub fn insert(&mut self, branch: &ShadowBranch) -> Option<u64> {
        self.insert_at(branch, 0).map(|(pc, _)| pc)
    }

    /// Insert a shadow branch found by the SBD, born at `cycle`.
    ///
    /// Jumps and calls go to the U-SBB, returns to the R-SBB. Eviction
    /// prefers entries whose retired bit is clear. Overwriting the entry
    /// already at `branch.pc` keeps its birth. Returns the PC and birth
    /// cycle of the entry this insertion displaced, if a *different* entry
    /// was evicted (telemetry uses this to close SBB entry lifetimes).
    pub fn insert_at(&mut self, branch: &ShadowBranch, cycle: u64) -> Option<(u64, u64)> {
        let pc = branch.pc;
        self.mirror.get_mut(pc & LINE_MASK).ever |= bit(pc);
        let retired_aware = self.config.retired_aware;
        // `(tag, birth, retired)` of the entry the insert displaced, if any.
        let displaced = match branch.kind {
            BranchKind::DirectUncond | BranchKind::Call => {
                // A direct branch without a target cannot help FDIP.
                let target = branch.target?;
                let set = self.u.set_of(pc);
                self.stats.u_inserts += 1;
                let entry = UEntry {
                    target,
                    birth: self.u.probe(set, pc).map_or(cycle, |e| e.birth),
                    len: branch.len,
                    is_call: branch.kind == BranchKind::Call,
                    retired: false,
                };
                self.u
                    .insert_with(set, pc, entry, |e| retired_aware && !e.retired)
                    .map(|(tag, o)| (tag, o.birth, o.retired))
            }
            BranchKind::Return => {
                let set = self.r.set_of(pc);
                self.stats.r_inserts += 1;
                let entry = REntry {
                    birth: self.r.probe(set, pc).map_or(cycle, |e| e.birth),
                    line_offset: branch.line_offset,
                    len: branch.len,
                    retired: false,
                };
                self.r
                    .insert_with(set, pc, entry, |e| retired_aware && !e.retired)
                    .map(|(tag, o)| (tag, o.birth, o.retired))
            }
            // Not SBB-eligible (the SBD never produces these): not held.
            _ => return None,
        };
        self.mirror.get_mut(pc & LINE_MASK).resident |= bit(pc);
        let (victim, birth, retired) = displaced.filter(|&(tag, ..)| tag != pc)?;
        self.key_remove(victim);
        if !retired {
            self.stats.evicted_unretired += 1;
        }
        Some((victim, birth))
    }

    /// Mark the entry at `pc` retired (called when a branch whose prediction
    /// the SBB supplied commits, §4.3).
    pub fn mark_retired(&mut self, pc: u64) {
        let uset = self.u.set_of(pc);
        if let Some(e) = self.u.peek_mut(uset, pc) {
            if !e.retired {
                e.retired = true;
                self.stats.retirements += 1;
            }
            return;
        }
        let rset = self.r.set_of(pc);
        if let Some(e) = self.r.peek_mut(rset, pc) {
            let _ = e.line_offset;
            if !e.retired {
                e.retired = true;
                self.stats.retirements += 1;
            }
        }
    }

    /// Remove the entry at `pc` (on promotion into the BTB, so the SBB slot
    /// can hold a different shadow branch). Returns the removed entry's
    /// birth cycle.
    pub fn invalidate(&mut self, pc: u64) -> Option<u64> {
        let uset = self.u.set_of(pc);
        let birth = match self.u.invalidate(uset, pc) {
            Some(e) => e.birth,
            None => {
                let rset = self.r.set_of(pc);
                self.r.invalidate(rset, pc)?.birth
            }
        };
        self.key_remove(pc);
        Some(birth)
    }

    /// `(U-SBB valid, R-SBB valid)` entry counts.
    #[must_use]
    pub fn occupancy(&self) -> (usize, usize) {
        (self.u.len(), self.r.len())
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> SbbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb(pc: u64, kind: BranchKind, target: Option<u64>) -> ShadowBranch {
        ShadowBranch {
            pc,
            len: if kind == BranchKind::Return { 1 } else { 5 },
            kind,
            target,
            line_offset: (pc % 64) as u8,
        }
    }

    #[test]
    fn paper_sizing() {
        let c = SbbConfig::default();
        // 768×78 bits = 7.3125 KB exactly; 2024×20 bits = 4.9414 KB, which
        // the paper rounds to 4.9375 KB. Total ≈ 12.25 KB.
        assert!((c.storage_kb() - 12.25).abs() < 0.01, "{}", c.storage_kb());
        let u_kb = (c.u_entries * USBB_ENTRY_BITS) as f64 / 8.0 / 1024.0;
        let r_kb = (c.r_entries * RSBB_ENTRY_BITS) as f64 / 8.0 / 1024.0;
        assert!((u_kb - 7.3125).abs() < 1e-9);
        assert!((r_kb - 4.9375).abs() < 0.01);
    }

    #[test]
    fn jumps_and_returns_route_to_their_halves() {
        let mut s = Sbb::new(SbbConfig::default());
        s.insert(&sb(0x100, BranchKind::DirectUncond, Some(0x900)));
        s.insert(&sb(0x200, BranchKind::Call, Some(0xA00)));
        s.insert(&sb(0x300, BranchKind::Return, None));
        assert_eq!(s.occupancy(), (2, 1));

        let j = s.lookup(0x100).unwrap();
        assert_eq!(j.kind, BranchKind::DirectUncond);
        assert_eq!(j.target, Some(0x900));
        let c = s.lookup(0x200).unwrap();
        assert_eq!(c.kind, BranchKind::Call);
        let r = s.lookup(0x300).unwrap();
        assert_eq!(r.kind, BranchKind::Return);
        assert_eq!(r.target, None);
        assert!(s.lookup(0x400).is_none());
        let st = s.stats();
        assert_eq!(st.u_hits, 2);
        assert_eq!(st.r_hits, 1);
        assert_eq!(st.lookups, 4);
    }

    #[test]
    fn retired_entries_survive_pressure() {
        // 1 set × 4 ways U-SBB.
        let mut s = Sbb::new(SbbConfig {
            u_entries: 4,
            r_entries: 4,
            ways: 4,
            retired_aware: true,
        });
        for pc in [0x10u64, 0x20, 0x30, 0x40] {
            s.insert(&sb(pc, BranchKind::DirectUncond, Some(pc + 1)));
        }
        s.mark_retired(0x10);
        // Three more inserts evict the three unretired entries, not 0x10.
        for pc in [0x50u64, 0x60, 0x70] {
            s.insert(&sb(pc, BranchKind::DirectUncond, Some(pc + 1)));
        }
        assert!(s.probe(0x10).is_some(), "retired entry must survive");
        assert_eq!(s.stats().evicted_unretired, 3);
    }

    #[test]
    fn retirement_counts_once() {
        let mut s = Sbb::new(SbbConfig::default());
        s.insert(&sb(0x100, BranchKind::Return, None));
        s.mark_retired(0x100);
        s.mark_retired(0x100);
        assert_eq!(s.stats().retirements, 1);
    }

    #[test]
    fn invalidate_frees_the_slot() {
        let mut s = Sbb::new(SbbConfig::default());
        s.insert(&sb(0x100, BranchKind::Call, Some(0x1)));
        s.invalidate(0x100);
        assert!(s.probe(0x100).is_none());
        assert_eq!(s.occupancy(), (0, 0));
    }

    #[test]
    fn direct_branch_without_target_is_not_inserted() {
        let mut s = Sbb::new(SbbConfig::default());
        s.insert(&sb(0x100, BranchKind::DirectUncond, None));
        assert_eq!(s.occupancy(), (0, 0));
    }

    #[test]
    fn budget_split_arithmetic() {
        let c = SbbConfig::with_budget(12.25, 7.3125 / 12.25, 4);
        // Should land on (almost exactly) the paper's split.
        assert_eq!(c.u_entries, 768);
        assert_eq!(c.r_entries, 2024);
        assert!((c.storage_kb() - 12.25).abs() < 0.05);
    }

    #[test]
    fn scaled_preserves_ratio() {
        let c = SbbConfig::default().scaled(2.0);
        assert_eq!(c.u_entries, 1536);
        assert_eq!(c.r_entries, 4048);
        let half = SbbConfig::default().scaled(0.5);
        assert_eq!(half.u_entries, 384);
        assert_eq!(half.r_entries, 1012);
    }

    #[test]
    fn entries_carry_their_birth_cycle() {
        let mut s = Sbb::new(SbbConfig {
            u_entries: 2,
            r_entries: 2,
            ways: 2,
            retired_aware: true,
        });
        let jmp = |pc| sb(pc, BranchKind::DirectUncond, Some(pc + 1));
        assert_eq!(s.insert_at(&jmp(0x10), 5), None);
        // An overwrite keeps the first birth.
        assert_eq!(s.insert_at(&jmp(0x10), 9), None);
        assert_eq!(s.insert_at(&jmp(0x20), 7), None);
        assert_eq!(s.insert_at(&jmp(0x30), 11), Some((0x10, 5)), "LRU victim");
        assert_eq!(s.invalidate(0x20), Some(7));
        assert_eq!(s.invalidate(0x20), None);
        assert!(s.ever_inserted(0x20) && !s.ever_inserted(0x40));
    }

    #[test]
    fn pcs_outside_the_covered_lines_take_the_exact_fallback() {
        let mut s = Sbb::covering(SbbConfig::default(), 0x1000..0x1040);
        let inside = sb(0x1008, BranchKind::Return, None);
        let below = sb(0x0FF8, BranchKind::Return, None);
        let above = sb(0x1041, BranchKind::Call, Some(0x9000));
        for b in [&inside, &below, &above] {
            s.insert(b);
            assert!(s.contains(b.pc) && s.ever_inserted(b.pc));
        }
        assert_eq!(s.mirror.outside.len(), 2, "two lines in the fallback");
        assert_eq!(s.next_key_in(0x0FC0, 0x1080), Some(0x0FF8));
        assert_eq!(s.next_key_in(0x0FF9, 0x1080), Some(0x1008));
        assert_eq!(s.next_key_in(0x1009, 0x1080), Some(0x1041));
        s.invalidate(0x1041);
        assert!(!s.contains(0x1041) && s.ever_inserted(0x1041));
        assert_eq!(s.next_key_in(0x1009, 0x1080), None);
    }

    /// The pc space of the mirror proptest: one line below the covered
    /// run, the four covered lines, one line above.
    const SPACE_BASE: u64 = 0x0FC0;
    const COVERED: std::ops::Range<u64> = 0x1000..0x1100;
    const SPACE_BYTES: u64 = 6 * 64;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// After every operation the mirror equals the TagArray residency
        /// of both halves, `next_key_in` equals a brute-force scan, and the
        /// ever-inserted bits equal a reference set.
        #[test]
        fn line_mirror_tracks_residency_and_ever_inserted(
            ops in proptest::collection::vec((0u8..6, 0u64..SPACE_BYTES), 1..160),
        ) {
            let mut s = Sbb::covering(
                SbbConfig {
                    u_entries: 8,
                    r_entries: 8,
                    ways: 2,
                    retired_aware: true,
                },
                COVERED,
            );
            let mut ever = std::collections::BTreeSet::new();
            for (cycle, &(op, off)) in ops.iter().enumerate() {
                let pc = SPACE_BASE + off;
                match op {
                    0..=2 => {
                        let kind = [BranchKind::DirectUncond, BranchKind::Call, BranchKind::Return]
                            [usize::from(op)];
                        let target = (kind != BranchKind::Return).then_some(pc + 0x100);
                        ever.insert(pc);
                        s.insert_at(&sb(pc, kind, target), cycle as u64);
                    }
                    3 => {
                        s.lookup(pc);
                    }
                    4 => {
                        s.invalidate(pc);
                    }
                    _ => s.mark_retired(pc),
                }
                let resident: std::collections::BTreeSet<u64> = s
                    .u
                    .iter()
                    .map(|(_, tag, _)| tag)
                    .chain(s.r.iter().map(|(_, tag, _)| tag))
                    .collect();
                for p in SPACE_BASE..SPACE_BASE + SPACE_BYTES {
                    proptest::prop_assert_eq!(s.contains(p), resident.contains(&p), "pc {:#x}", p);
                    proptest::prop_assert_eq!(s.ever_inserted(p), ever.contains(&p), "pc {:#x}", p);
                }
                for start in (SPACE_BASE..SPACE_BASE + SPACE_BYTES).step_by(5) {
                    for limit in [start + 1, start + 64, start + 130] {
                        let brute = resident.range(start..limit).next().copied();
                        proptest::prop_assert_eq!(s.next_key_in(start, limit), brute);
                    }
                }
            }
        }
    }
}
