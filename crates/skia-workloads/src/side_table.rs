//! Dense per-program branch side table.
//!
//! [`BranchTable`] precomputes, once per [`Program`](crate::Program), a
//! flat, pc-sorted array of every branch's ground-truth record plus a dense
//! per-cache-line index (`line →` first branch at or after the line's
//! base), so an exact-pc or block-start lookup is O(1). The simulator reads
//! it once per commit (static targets), once per shadow-decoded region
//! (decode-table slots), and the BPU sizes its BTB residency bitmap to the
//! table's lines, since every branch the BTB can hold is a block
//! terminator of the program.
//!
//! This is the profile-side-table discipline of AsmDB applied to the
//! simulator's own hot loop: metadata that is a pure function of the binary
//! is computed once and reused by every configuration.

use skia_isa::{BranchKind, CACHE_LINE_BYTES};

/// Ground-truth record for one static branch, laid out for the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchRecord {
    /// Address of the branch's first byte.
    pub pc: u64,
    /// Address of the owning block's first instruction.
    pub block_start: u64,
    /// Static target for direct branches (`None` for returns/indirect).
    pub target: Option<u64>,
    /// Address of the next sequential instruction (`pc + len`).
    pub fallthrough: u64,
    /// Instructions in the owning block, terminator included.
    pub insns: u32,
    /// Encoded length.
    pub len: u8,
    /// Classification.
    pub kind: BranchKind,
}

impl BranchRecord {
    /// The cache-line span `[first, last]` (line base addresses) that the
    /// owning block occupies, from its first instruction through the last
    /// byte of the terminator.
    #[must_use]
    pub fn block_line_span(&self) -> (u64, u64) {
        let mask = !(CACHE_LINE_BYTES as u64 - 1);
        (
            self.block_start & mask,
            self.fallthrough.wrapping_sub(1) & mask,
        )
    }
}

/// Immutable pc-sorted branch records with a dense per-line start index.
///
/// Built once per program (at generation or cache load) and shared by every
/// simulator instance; all queries are `&self` and allocation-free.
#[derive(Debug, Clone)]
pub struct BranchTable {
    /// Line-aligned base of the covered span.
    span_base: u64,
    /// First address past the covered span (line-aligned up).
    span_end: u64,
    /// Branch pcs, ascending. Parallel to `recs`.
    pcs: Vec<u64>,
    /// Records, in `pcs` order.
    recs: Vec<BranchRecord>,
    /// For each cache line of the span: index into `pcs` of the first
    /// branch at or after the line base.
    line_first: Vec<u32>,
}

impl BranchTable {
    /// Build the table from a program's branch records (any order).
    #[must_use]
    pub fn from_records(mut recs: Vec<BranchRecord>) -> Self {
        recs.sort_by_key(|r| r.pc);
        let pcs: Vec<u64> = recs.iter().map(|r| r.pc).collect();
        debug_assert!(pcs.windows(2).all(|w| w[0] < w[1]), "branch pcs unique");
        let line = CACHE_LINE_BYTES as u64;
        let (span_base, span_end) = match (pcs.first(), pcs.last()) {
            (Some(&lo), Some(&hi)) => (lo & !(line - 1), (hi & !(line - 1)) + line),
            _ => (0, 0),
        };
        let nlines = ((span_end - span_base) / line) as usize;
        let mut line_first = vec![0u32; nlines + 1];
        let mut idx = 0usize;
        for (li, slot) in line_first.iter_mut().enumerate() {
            let base = span_base + li as u64 * line;
            while idx < pcs.len() && pcs[idx] < base {
                idx += 1;
            }
            *slot = idx as u32;
        }
        BranchTable {
            span_base,
            span_end,
            pcs,
            recs,
            line_first,
        }
    }

    /// Number of branch records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Whether the table holds no branches.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Index of the first branch with `pc >= addr` (== `len()` when none).
    /// O(1): one dense line lookup plus a within-line advance.
    fn start_index(&self, addr: u64) -> usize {
        if addr <= self.span_base {
            return 0;
        }
        if addr >= self.span_end {
            return self.pcs.len();
        }
        let li = ((addr - self.span_base) / CACHE_LINE_BYTES as u64) as usize;
        let mut idx = self.line_first[li] as usize;
        while idx < self.pcs.len() && self.pcs[idx] < addr {
            idx += 1;
        }
        idx
    }

    /// The cache lines the table's branches occupy, as a byte range from
    /// the first branch's line base to past the last branch's line (empty
    /// for an empty table).
    #[must_use]
    pub fn lines(&self) -> std::ops::Range<u64> {
        self.span_base..self.span_end
    }

    /// Index (in pc order) of the branch at exactly `pc` (O(1) via the line
    /// index).
    #[must_use]
    pub fn index_of(&self, pc: u64) -> Option<usize> {
        let idx = self.start_index(pc);
        (self.pcs.get(idx) == Some(&pc)).then_some(idx)
    }

    /// Index of the branch whose block starts at `start`: blocks hold no
    /// branch before their terminator, so it is the first branch at or after
    /// `start`, when its block begins there.
    #[must_use]
    pub fn block_index(&self, start: u64) -> Option<usize> {
        let idx = self.start_index(start);
        (self.recs.get(idx)?.block_start == start).then_some(idx)
    }

    /// Index of the branch at `pc` with encoded length `len`: the branch
    /// whose fall-through is `pc + len`.
    #[must_use]
    pub fn exit_index(&self, pc: u64, len: u8) -> Option<usize> {
        self.index_of(pc).filter(|&i| self.recs[i].len == len)
    }

    /// Exact-pc record lookup (O(1) via the line index).
    #[must_use]
    pub fn record_at(&self, pc: u64) -> Option<&BranchRecord> {
        self.index_of(pc).map(|i| &self.recs[i])
    }

    /// Static target of the branch at `pc`, if one exists there.
    #[must_use]
    pub fn target_of(&self, pc: u64) -> Option<u64> {
        self.record_at(pc).and_then(|r| r.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Program, ProgramSpec};

    fn rec(pc: u64, len: u8) -> BranchRecord {
        BranchRecord {
            pc,
            block_start: pc.saturating_sub(8),
            target: Some(pc ^ 0xFF0),
            fallthrough: pc + u64::from(len),
            insns: 3,
            len,
            kind: BranchKind::DirectUncond,
        }
    }

    #[test]
    fn empty_table_never_matches() {
        let table = BranchTable::from_records(Vec::new());
        assert!(table.is_empty());
        assert!(table.lines().is_empty());
        assert_eq!(table.record_at(0x1000), None);
    }

    #[test]
    fn record_lookup_is_exact() {
        let table = BranchTable::from_records(vec![rec(0x1005, 2), rec(0x1040, 6)]);
        assert_eq!(table.record_at(0x1005).unwrap().len, 2);
        assert_eq!(table.record_at(0x1006), None);
        assert_eq!(table.target_of(0x1040), Some(0x1040 ^ 0xFF0));
        assert_eq!(table.target_of(0x1041), None);
    }

    #[test]
    fn program_table_agrees_with_ground_truth_maps() {
        let p = Program::generate(&ProgramSpec {
            functions: 80,
            ..ProgramSpec::default()
        });
        let table = p.branch_table();
        assert_eq!(table.len(), p.branch_count());
        for f in p.functions() {
            for b in &f.blocks {
                let t = &b.terminator;
                let r = table.record_at(t.pc).expect("every terminator indexed");
                assert!(table.lines().contains(&t.pc));
                assert_eq!(r.len, t.len);
                assert_eq!(r.kind, t.kind);
                assert_eq!(r.target, t.target);
                assert_eq!(r.fallthrough, t.fallthrough);
                assert_eq!(r.block_start, b.start);
                assert_eq!(r.insns, b.insns);
                assert_eq!(table.target_of(t.pc), t.target);
                // No phantom record one byte in.
                assert!(table.record_at(t.pc + 1).is_none_or(|n| n.pc != t.pc));
                let (first, last) = r.block_line_span();
                assert!(first <= last);
                assert_eq!(first % 64, 0);
            }
        }
    }
}
