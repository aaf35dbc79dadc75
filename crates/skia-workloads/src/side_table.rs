//! The program's static branches.
//!
//! [`BranchTable`] is a [`Program`](crate::Program)'s one store of
//! static-branch ground truth: one [`BranchRecord`] per block terminator, in
//! pc order, which is also layout order — the records tile the image, each
//! block ending where the next begins. A dense per-cache-line index (`line →`
//! first branch at or after the line's base) makes an exact-pc or
//! block-start lookup O(1), and the table resolves every direct and
//! indirect target to the record whose block it starts once, when it is
//! built. The walker steps by record index, a [`RecordedTrace`] replays its
//! steps through the same successor function, the simulator reads a record
//! once per commit (static targets), and the BPU sizes its BTB residency
//! bitmap to the table's lines, since every branch the BTB can hold is a
//! block terminator of the program.
//!
//! [`RecordedTrace`]: crate::RecordedTrace
//!
//! This is the profile-side-table discipline of AsmDB applied to the
//! simulator's own hot loop: metadata that is a pure function of the binary
//! is computed once and reused by every configuration.

use skia_isa::{BranchKind, CACHE_LINE_BYTES};

/// Ground-truth record for one static branch and the basic block it ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchRecord {
    /// Address of the branch's first byte.
    pub pc: u64,
    /// Address of the owning block's first instruction.
    pub block_start: u64,
    /// Static target for direct branches (`None` for returns/indirect).
    pub target: Option<u64>,
    /// Instructions in the owning block, terminator included.
    pub insns: u32,
    /// Index of the owning function in
    /// [`Program::functions`](crate::Program::functions).
    pub function: u32,
    /// Position of the branch's first indirect target in the table's flat
    /// target list; the next record's position ends its run.
    pub targets_at: u32,
    /// Encoded length.
    pub len: u8,
    /// Classification.
    pub kind: BranchKind,
    /// Bias selector for the walker's conditional outcome model.
    pub bias: u8,
    /// Whether a conditional branch is a loop backedge.
    pub backedge: bool,
}

/// Whether a branch of `kind` carries indirect targets.
pub(crate) fn is_indirect(kind: BranchKind) -> bool {
    matches!(kind, BranchKind::IndirectJmp | BranchKind::IndirectCall)
}

impl BranchRecord {
    /// Address of the next sequential instruction (`pc + len`), where the
    /// owning block ends.
    #[must_use]
    pub fn fallthrough(&self) -> u64 {
        self.pc + u64::from(self.len)
    }
}

/// Immutable pc-ordered branch records with a dense per-line start index.
///
/// Built once per program (at generation or cache load) and shared by every
/// simulator instance and recorded trace; all queries are `&self` and
/// allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchTable {
    /// Line-aligned base of the covered span.
    span_base: u64,
    /// First address past the covered span (line-aligned up).
    span_end: u64,
    /// Records, pcs ascending.
    recs: Vec<BranchRecord>,
    /// Every record's indirect targets, in record order.
    indirect: Vec<u64>,
    /// Per record: the index of the record whose block its direct target
    /// starts ([`UNRESOLVED`] for no target, or one that starts no block).
    target_index: Vec<u32>,
    /// Per indirect target: the index of the record whose block it starts
    /// ([`UNRESOLVED`] when it starts none).
    indirect_index: Vec<u32>,
    /// For each cache line of the span: index into `recs` of the first
    /// branch at or after the line base.
    line_first: Vec<u32>,
}

/// A target index that names no record: the branch has no such target, or
/// its target starts no block.
const UNRESOLVED: u32 = u32::MAX;

impl BranchTable {
    /// Build the table from branch records in pc order and the flat list
    /// their [`targets_at`](BranchRecord::targets_at) runs index, in record
    /// order.
    #[must_use]
    pub fn from_records(recs: Vec<BranchRecord>, indirect: Vec<u64>) -> Self {
        debug_assert!(recs.windows(2).all(|w| w[0].pc < w[1].pc), "pcs ascend");
        let line = CACHE_LINE_BYTES as u64;
        let (span_base, span_end) = match (recs.first(), recs.last()) {
            (Some(lo), Some(hi)) => (lo.pc & !(line - 1), (hi.pc & !(line - 1)) + line),
            _ => (0, 0),
        };
        let nlines = ((span_end - span_base) / line) as usize;
        let mut line_first = vec![0u32; nlines + 1];
        let mut idx = 0usize;
        for (li, slot) in line_first.iter_mut().enumerate() {
            let base = span_base + li as u64 * line;
            while idx < recs.len() && recs[idx].pc < base {
                idx += 1;
            }
            *slot = idx as u32;
        }
        let mut table = BranchTable {
            span_base,
            span_end,
            recs,
            indirect,
            target_index: Vec::new(),
            indirect_index: Vec::new(),
            line_first,
        };
        let resolve = |t: u64| table.block_index(t).map_or(UNRESOLVED, |i| i as u32);
        let target_index = table
            .recs
            .iter()
            .map(|r| r.target.map_or(UNRESOLVED, resolve))
            .collect();
        let indirect_index = table.indirect.iter().map(|&t| resolve(t)).collect();
        table.target_index = target_index;
        table.indirect_index = indirect_index;
        table
    }

    /// Whether every target, direct or indirect, starts a block of the
    /// table.
    pub(crate) fn targets_resolve(&self) -> bool {
        let mut direct = self.recs.iter().zip(&self.target_index);
        direct.all(|(r, &i)| r.target.is_none() || i != UNRESOLVED)
            && !self.indirect_index.contains(&UNRESOLVED)
    }

    /// Index of the record whose block record `index`'s direct target
    /// starts. Meaningful only for a direct branch of a table whose
    /// [targets resolve](Self::targets_resolve).
    #[inline]
    pub(crate) fn target_index(&self, index: usize) -> usize {
        self.target_index[index] as usize
    }

    /// Indices of the records whose blocks record `index`'s indirect targets
    /// start, in [`indirect_targets`](Self::indirect_targets) order.
    pub(crate) fn indirect_indices(&self, index: usize) -> &[u32] {
        &self.indirect_index[self.indirect_range(index)]
    }

    /// Number of branch records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Whether the table holds no branches.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Index of the first branch with `pc >= addr` (== `len()` when none).
    /// O(1): one dense line lookup plus a within-line advance.
    fn start_index(&self, addr: u64) -> usize {
        if addr <= self.span_base {
            return 0;
        }
        if addr >= self.span_end {
            return self.recs.len();
        }
        let li = ((addr - self.span_base) / CACHE_LINE_BYTES as u64) as usize;
        let mut idx = self.line_first[li] as usize;
        while idx < self.recs.len() && self.recs[idx].pc < addr {
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
        (self.recs.get(idx)?.pc == pc).then_some(idx)
    }

    /// Index of the branch whose block starts at `start`: blocks hold no
    /// branch before their terminator, so it is the first branch at or after
    /// `start`, when its block begins there.
    #[must_use]
    pub fn block_index(&self, start: u64) -> Option<usize> {
        let idx = self.start_index(start);
        (self.recs.get(idx)?.block_start == start).then_some(idx)
    }

    /// Every record, in pc order (the order [`BranchTable::index_of`]
    /// counts in).
    #[must_use]
    pub fn records(&self) -> &[BranchRecord] {
        &self.recs
    }

    /// The possible targets of the indirect branch at record `index` (empty
    /// for every other kind).
    #[must_use]
    pub fn indirect_targets(&self, index: usize) -> &[u64] {
        &self.indirect[self.indirect_range(index)]
    }

    /// Where record `index`'s indirect targets sit in the flat target list.
    pub(crate) fn indirect_range(&self, index: usize) -> std::ops::Range<usize> {
        let end = self
            .recs
            .get(index + 1)
            .map_or(self.indirect.len(), |r| r.targets_at as usize);
        self.recs[index].targets_at as usize..end
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

    fn rec(pc: u64, len: u8, targets_at: u32) -> BranchRecord {
        BranchRecord {
            pc,
            block_start: pc.saturating_sub(8),
            target: Some(pc ^ 0xFF0),
            insns: 3,
            function: 0,
            targets_at,
            len,
            kind: BranchKind::DirectUncond,
            bias: 0,
            backedge: false,
        }
    }

    #[test]
    fn empty_table_never_matches() {
        let table = BranchTable::from_records(Vec::new(), Vec::new());
        assert!(table.is_empty());
        assert!(table.lines().is_empty());
        assert_eq!(table.record_at(0x1000), None);
        assert_eq!(table.block_index(0x1000), None);
    }

    #[test]
    fn record_lookup_is_exact() {
        let table = BranchTable::from_records(vec![rec(0x1005, 2, 0), rec(0x1040, 6, 0)], vec![]);
        assert_eq!(table.record_at(0x1005).unwrap().len, 2);
        assert_eq!(table.record_at(0x1005).unwrap().fallthrough(), 0x1007);
        assert_eq!(table.record_at(0x1006), None);
        assert_eq!(table.target_of(0x1040), Some(0x1040 ^ 0xFF0));
        assert_eq!(table.target_of(0x1041), None);
        assert_eq!(table.block_index(0x1038), Some(1));
        assert_eq!(table.block_index(0x1039), None);
    }

    #[test]
    fn indirect_targets_run_to_the_next_record() {
        let table = BranchTable::from_records(
            vec![rec(0x1005, 2, 0), rec(0x1040, 6, 2), rec(0x1080, 2, 2)],
            vec![0xA, 0xB, 0xC],
        );
        assert_eq!(table.indirect_targets(0), &[0xA, 0xB]);
        assert!(table.indirect_targets(1).is_empty());
        assert_eq!(table.indirect_targets(2), &[0xC]);
    }

    #[test]
    fn targets_resolve_to_the_records_whose_blocks_they_start() {
        let mut recs = vec![rec(0x1008, 2, 0), rec(0x1040, 6, 0), rec(0x1080, 2, 1)];
        recs[0].target = Some(0x1078); // record 2's block start
        recs[1].target = None;
        recs[1].kind = BranchKind::IndirectJmp;
        recs[2].target = Some(0x1000); // record 0's block start
        let table = BranchTable::from_records(recs.clone(), vec![0x1038]);
        assert!(table.targets_resolve());
        assert_eq!(table.target_index(0), 2);
        assert_eq!(table.target_index(2), 0);
        assert_eq!(table.indirect_indices(1), &[1]);
        assert!(table.indirect_indices(0).is_empty());
        // A target inside a block, direct or indirect, resolves to nothing.
        assert!(!BranchTable::from_records(recs.clone(), vec![0x1039]).targets_resolve());
        recs[0].target = Some(0x1079);
        assert!(!BranchTable::from_records(recs, vec![0x1038]).targets_resolve());
    }
}
