//! The Shadow Branch Decoder (paper §3).
//!
//! A cache line fetched by FDIP carries bytes outside the executed basic
//! block: **head** bytes before the entry point (the branch target that
//! brought the line in) and **tail** bytes after the exit point (the taken
//! branch that leaves the line). The SBD decodes those regions for the
//! SBB-eligible branches — direct unconditional jumps, calls and returns.
//!
//! Tail decoding (§3.3) starts at a known instruction boundary (the byte
//! after the taken branch), so a single linear decode suffices.
//!
//! Head decoding (§3.2) does not know where instructions begin. It runs two
//! phases:
//!
//! 1. **Index Computation** — decode at *every* byte offset `0..entry` and
//!    record each candidate instruction's length (0 = undecodable).
//! 2. **Path Validation** — for each start index, chain lengths
//!    (`path += length[path]`) and keep the paths that land exactly on the
//!    entry offset. If more than a configured maximum (six in the paper)
//!    validate, the line is discarded as too ambiguous. The surviving path
//!    whose start index matches the [`IndexPolicy`] supplies the shadow
//!    branches.
//!
//! A region's decode is a pure function of the line bytes, the offset, the
//! policy and the bound. [`ShadowDecoder`] decodes and counts; a
//! [`DecodeTable`] holds one program's decodes, keyed by (line, offset), so
//! that every simulator over the program decodes each region once. The
//! table keeps a region as a [`DecodedRegion`] summary: the mask of its
//! branches' line offsets, the way the R-SBB names a return by its 6-bit
//! offset (§4.2), because the rest of each branch is re-derived from the
//! line by [`shadow_branch_at`].

use std::ops::Range;
use std::sync::OnceLock;

use skia_isa::{decode, BranchKind, DecodeError, InsnKind, CACHE_LINE_BYTES};

/// Which validated path supplies the decoded shadow branches (§3.2.2,
/// "Valid Index" optimization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndexPolicy {
    /// The first (lowest) start index with a valid path — the paper's
    /// empirically best choice and the default.
    #[default]
    First,
    /// Use the path starting at byte 0, if it is one of the valid paths;
    /// otherwise fall back to the first valid path.
    Zero,
    /// The most common *recent* index among all valid paths: the point where
    /// paths merge. Decoding starts at the merge point, so only branches all
    /// paths agree on are extracted.
    Merge,
}

impl IndexPolicy {
    /// All policies, for ablation sweeps.
    pub const ALL: [IndexPolicy; 3] = [IndexPolicy::First, IndexPolicy::Zero, IndexPolicy::Merge];

    /// Human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            IndexPolicy::First => "first",
            IndexPolicy::Zero => "zero",
            IndexPolicy::Merge => "merge",
        }
    }
}

/// A branch found in a shadow region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowBranch {
    /// Address of the branch instruction's first byte.
    pub pc: u64,
    /// Encoded instruction length.
    pub len: u8,
    /// Branch classification (always [`BranchKind::sbb_eligible`]).
    pub kind: BranchKind,
    /// Decoded target for jumps/calls; `None` for returns (RAS-supplied).
    pub target: Option<u64>,
    /// Byte offset of the branch within its cache line (the R-SBB's 6-bit
    /// offset field).
    pub line_offset: u8,
}

/// Outcome of head-decoding one cache line.
#[derive(Debug, Clone, Default)]
pub struct HeadDecode {
    /// Shadow branches extracted from the chosen path.
    pub branches: Vec<ShadowBranch>,
    /// Start indices of every validated path (ascending).
    pub valid_starts: Vec<u8>,
    /// The start index the policy chose, if any path validated.
    pub chosen_start: Option<u8>,
    /// Whether the line was discarded for exceeding the valid-path bound.
    pub discarded: bool,
}

/// The summary of decoding one shadow region: where its branches sit in the
/// line, plus the facts the head counters need. This is what a
/// [`DecodeTable`] slot holds. A branch is re-derived from its line offset
/// by [`shadow_branch_at`], as the R-SBB names a return by its 6-bit offset
/// (§4.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodedRegion {
    /// Bit `i` is set when a shadow branch starts at line offset `i`.
    pub mask: u64,
    /// Shadow branches in the region (`mask`'s population count, stored so
    /// a read needs none).
    pub branches: u8,
    /// Validated head paths (`HeadDecode::valid_starts.len()`); 0 for tails.
    pub valid_paths: u8,
    /// Whether a head region was discarded for exceeding the path bound.
    pub discarded: bool,
}

impl DecodedRegion {
    /// The summary of a region whose branches are `branches`.
    fn of(branches: &[ShadowBranch], valid_paths: usize, discarded: bool) -> Self {
        DecodedRegion {
            mask: branches.iter().fold(0, |m, b| m | 1 << b.line_offset),
            branches: branches.len() as u8,
            valid_paths: valid_paths as u8,
            discarded,
        }
    }
}

impl From<&HeadDecode> for DecodedRegion {
    fn from(hd: &HeadDecode) -> Self {
        DecodedRegion::of(&hd.branches, hd.valid_starts.len(), hd.discarded)
    }
}

/// Aggregate SBD counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowDecoderStats {
    /// Head regions examined.
    pub head_regions: u64,
    /// Head regions with at least one valid path.
    pub head_regions_valid: u64,
    /// Head regions discarded for exceeding the valid-path bound.
    pub head_regions_discarded: u64,
    /// Tail regions examined.
    pub tail_regions: u64,
    /// Branches found in head regions.
    pub head_branches: u64,
    /// Branches found in tail regions.
    pub tail_branches: u64,
    /// Sum of valid path counts (for mean-paths reporting).
    pub valid_path_sum: u64,
}

/// The decoder: configuration plus counters. Decoding itself is pure; every
/// call decodes its region afresh and counts it.
#[derive(Debug, Clone)]
pub struct ShadowDecoder {
    policy: IndexPolicy,
    max_valid_paths: usize,
    stats: ShadowDecoderStats,
}

impl Default for ShadowDecoder {
    fn default() -> Self {
        ShadowDecoder::new(IndexPolicy::First, 6)
    }
}

impl ShadowDecoder {
    /// Create a decoder with the given index policy and valid-path bound
    /// (the paper uses First / 6).
    #[must_use]
    pub fn new(policy: IndexPolicy, max_valid_paths: usize) -> Self {
        assert!(max_valid_paths >= 1);
        ShadowDecoder {
            policy,
            max_valid_paths,
            stats: ShadowDecoderStats::default(),
        }
    }

    /// The configured index policy.
    #[must_use]
    pub fn policy(&self) -> IndexPolicy {
        self.policy
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> ShadowDecoderStats {
        self.stats
    }

    /// Decode the **tail** shadow region of `line`: bytes from `exit_offset`
    /// (the first byte after the taken branch) to the end of the line.
    ///
    /// `line_base` is the address of byte 0 of the line. Decoding stops at
    /// the first undecodable byte or at an instruction that spills past the
    /// line end (its boundary cannot be known from this line alone).
    pub fn decode_tail(
        &mut self,
        line: &[u8],
        line_base: u64,
        exit_offset: usize,
    ) -> Vec<ShadowBranch> {
        let found = tail_branches(line, line_base, exit_offset);
        self.stats.tail_regions += 1;
        self.stats.tail_branches += found.len() as u64;
        found
    }

    /// [`ShadowDecoder::decode_tail`] in the compact form a
    /// [`DecodeTable`] stores.
    pub fn decode_tail_ref(
        &mut self,
        line: &[u8],
        line_base: u64,
        exit_offset: usize,
    ) -> DecodedRegion {
        let region = DecodedRegion::of(&tail_branches(line, line_base, exit_offset), 0, false);
        self.count_tail(&region);
        region
    }

    /// Decode the **head** shadow region of `line` (one cache line): bytes
    /// `0..entry_offset`.
    ///
    /// Runs Index Computation + Path Validation and extracts branches from
    /// the path selected by the [`IndexPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if the region (`entry_offset`, clamped to the line) is longer
    /// than a cache line.
    pub fn decode_head(&mut self, line: &[u8], line_base: u64, entry_offset: usize) -> HeadDecode {
        let hd = head_decode(
            self.policy,
            self.max_valid_paths,
            line,
            line_base,
            entry_offset,
        );
        self.count_head_outcome(hd.discarded, hd.valid_starts.len(), hd.branches.len());
        hd
    }

    /// [`ShadowDecoder::decode_head`] in the compact form a
    /// [`DecodeTable`] stores.
    pub fn decode_head_ref(
        &mut self,
        line: &[u8],
        line_base: u64,
        entry_offset: usize,
    ) -> DecodedRegion {
        let region = DecodedRegion::from(&head_decode(
            self.policy,
            self.max_valid_paths,
            line,
            line_base,
            entry_offset,
        ));
        self.count_head(&region);
        region
    }

    /// Count one head-region decode whose outcome is `region`: the counters
    /// a fresh [`ShadowDecoder::decode_head`] of that region adds.
    pub fn count_head(&mut self, region: &DecodedRegion) {
        self.count_head_outcome(
            region.discarded,
            usize::from(region.valid_paths),
            usize::from(region.branches),
        );
    }

    /// Count one tail-region decode whose outcome is `region`.
    pub fn count_tail(&mut self, region: &DecodedRegion) {
        self.stats.tail_regions += 1;
        self.stats.tail_branches += u64::from(region.branches);
    }

    /// The head counters, from the outcome alone, so a fresh decode and a
    /// [`DecodeTable`] read count identically.
    fn count_head_outcome(&mut self, discarded: bool, valid_paths: usize, branches: usize) {
        self.stats.head_regions += 1;
        if discarded {
            self.stats.head_regions_discarded += 1;
        } else if valid_paths > 0 {
            self.stats.head_regions_valid += 1;
            self.stats.valid_path_sum += valid_paths as u64;
            self.stats.head_branches += branches as u64;
        }
    }
}

/// The SBB-eligible branch that starts at `offset` of `line`, whose byte 0
/// is at `line_base`, if one decodes there. Every shadow branch a region
/// decode finds is this decode at its line offset, so a [`DecodedRegion`]'s
/// mask names its branches exactly.
#[must_use]
pub fn shadow_branch_at(line: &[u8], line_base: u64, offset: usize) -> Option<ShadowBranch> {
    let d = decode::decode(line.get(offset..)?).ok()?;
    let InsnKind::Branch(b) = d.kind else {
        return None;
    };
    let pc = line_base + offset as u64;
    b.kind.sbb_eligible().then(|| ShadowBranch {
        pc,
        len: d.len,
        kind: b.kind,
        target: b.target(pc, d.len),
        line_offset: offset as u8,
    })
}

/// The tail linear decode.
fn tail_branches(line: &[u8], line_base: u64, exit_offset: usize) -> Vec<ShadowBranch> {
    let mut found = Vec::new();
    let mut off = exit_offset;
    while off < line.len() {
        match decode::decode(&line[off..]) {
            Ok(d) => {
                // Control cannot fall past an unconditional branch, but the
                // next byte is still a known boundary, so decoding continues
                // to the end of the line (the paper's rule).
                if matches!(d.kind, InsnKind::Branch(_)) {
                    found.extend(shadow_branch_at(line, line_base, off));
                }
                off += usize::from(d.len);
            }
            Err(DecodeError::Truncated(_) | DecodeError::TooLong | DecodeError::InvalidOpcode) => {
                break
            }
        }
    }
    found
}

/// Index Computation + Path Validation over `line[..entry_offset]`.
fn head_decode(
    policy: IndexPolicy,
    max_valid_paths: usize,
    line: &[u8],
    line_base: u64,
    entry_offset: usize,
) -> HeadDecode {
    let entry = entry_offset.min(line.len());
    assert!(
        entry <= CACHE_LINE_BYTES,
        "a head region lies within one cache line (entry offset {entry})"
    );
    if entry == 0 {
        return HeadDecode::default();
    }
    // Phase 1: Index Computation. lengths[i] = instruction length when
    // decoding from byte i, or 0 if no valid instruction starts there.
    // An instruction is only usable on a path if it ends at or before
    // the entry point (the path must *align* with the entry).
    let mut lengths = vec![0u8; entry];
    for (i, slot) in lengths.iter_mut().enumerate() {
        if let Ok(d) = decode::decode(&line[i..]) {
            if i + usize::from(d.len) <= entry {
                *slot = d.len;
            }
        }
    }

    // Phase 2: Path Validation. Walk each start index; valid iff the
    // chain lands exactly on `entry`. Paths that run into an offset
    // already visited by an earlier valid path *merge* into it (§3.2.2);
    // the ambiguity bound counts distinct non-merging path families —
    // a line is only "too ambiguous" when many chains coexist without
    // ever converging.
    let mut valid_starts: Vec<u8> = Vec::new();
    let mut last_index: Vec<u8> = Vec::new(); // final hop start per path
    let mut families = 0usize;
    let mut on_valid_path = vec![false; entry];
    let mut discarded = false;
    for start in 0..entry {
        let mut pos = start;
        let mut last = start;
        let mut merged = false;
        let valid = loop {
            if pos == entry {
                break true;
            }
            if on_valid_path[pos] {
                merged = true;
                // The remainder of this chain is an already-validated
                // path, so it is valid by construction; its last hop is
                // irrelevant for the merge index (an earlier family
                // already recorded the shared suffix).
                break true;
            }
            let len = lengths[pos];
            if len == 0 {
                break false;
            }
            last = pos;
            pos += usize::from(len);
            if pos > entry {
                break false;
            }
        };
        if valid {
            if !merged {
                families += 1;
                if families > max_valid_paths {
                    discarded = true;
                    break;
                }
            }
            valid_starts.push(start as u8);
            if merged {
                last_index.push(pos as u8); // merge point
            } else {
                last_index.push(last as u8);
            }
            // Mark every offset on this path as visited.
            let mut p = start;
            while p < entry && !on_valid_path[p] {
                on_valid_path[p] = true;
                let l = lengths[p];
                if l == 0 {
                    break;
                }
                p += usize::from(l);
            }
        }
    }

    if discarded {
        return HeadDecode {
            branches: Vec::new(),
            valid_starts,
            chosen_start: None,
            discarded: true,
        };
    }
    if valid_starts.is_empty() {
        return HeadDecode::default();
    }

    let chosen = match policy {
        IndexPolicy::First => valid_starts[0],
        // "upon finding a valid path, byte decoding begins starting from
        // index zero" — even when the zero path itself did not validate;
        // extraction below stops at the first undecodable byte.
        IndexPolicy::Zero => 0,
        IndexPolicy::Merge => merge_index(&last_index),
    };

    // Extract branches along the chosen path.
    let mut branches = Vec::new();
    let mut pos = usize::from(chosen);
    while pos < entry {
        let len = lengths[pos];
        if len == 0 {
            // Only reachable under the Zero policy when the zero path
            // itself was not among the validated ones.
            break;
        }
        branches.extend(shadow_branch_at(line, line_base, pos));
        pos += usize::from(len);
    }

    HeadDecode {
        branches,
        valid_starts,
        chosen_start: Some(chosen),
        discarded: false,
    }
}

/// The Merge policy's start: the most common recent (final-hop) index among
/// the valid paths — where they converge — and the lowest such index on a
/// tie. Final hops lie inside one cache line, so one count per line offset
/// (plus the line end) makes this linear.
fn merge_index(last_index: &[u8]) -> u8 {
    let mut counts = [0u8; CACHE_LINE_BYTES + 1];
    for &i in last_index {
        counts[usize::from(i)] += 1;
    }
    let mut best = 0usize;
    for (i, &c) in counts.iter().enumerate() {
        if c > counts[best] {
            best = i;
        }
    }
    best as u8
}

/// One code line of a [`DecodeTable`]: the offsets that own a slot, and
/// the slots themselves once the line is first used.
#[derive(Debug, Default)]
struct LineSlots {
    /// Entry offsets with a head slot: static block starts not at offset 0.
    heads: u64,
    /// Exit offsets with a tail slot: static fall-throughs not on a line
    /// boundary.
    tails: u64,
    /// One lazily decoded summary per set bit of `tails` (by rank, from
    /// the front) and of `heads` (by rank, from the back), so finding
    /// either takes one population count.
    summaries: OnceLock<Box<[OnceLock<DecodedRegion>]>>,
}

/// One program's shadow-region decodes under one index policy and path
/// bound, shared by every simulator over the program.
///
/// A region's decode depends only on the line bytes, the offset, the policy
/// and the bound, so the table keys regions by (line, offset) and decodes
/// each one once for every job and thread that simulates the program. A
/// head region has a slot when a static block starts at its entry offset,
/// a tail region when a static branch falls through to its exit offset.
/// Keying by offset also gives a slot to a bogus SBB branch that ends
/// where a static one ends; that region decodes and counts identically
/// either way. Other regions (bogus SBB targets and exits) have no slot
/// and are decoded afresh with a [`ShadowDecoder`].
///
/// The eager part is one small entry per code line: two offset masks and a
/// pointer set on the line's first use, when its summaries are allocated.
/// Each summary is then decoded on its own first use.
#[derive(Debug)]
pub struct DecodeTable {
    policy: IndexPolicy,
    max_valid_paths: usize,
    lines: Range<u64>,
    slots: Box<[LineSlots]>,
}

impl DecodeTable {
    /// An empty table for a program whose code spans the cache lines of
    /// `lines`, with a head slot at each of `entries` (static block starts)
    /// and a tail slot at each of `exits` (static fall-throughs). Addresses
    /// at a line's offset 0 or outside `lines` get no slot.
    ///
    /// # Panics
    ///
    /// Panics if `max_valid_paths` is zero.
    #[must_use]
    pub fn new(
        policy: IndexPolicy,
        max_valid_paths: usize,
        lines: Range<u64>,
        entries: impl IntoIterator<Item = u64>,
        exits: impl IntoIterator<Item = u64>,
    ) -> Self {
        assert!(max_valid_paths >= 1);
        let lines = lines.start & !(LINE - 1)..lines.end;
        let count = lines.end.saturating_sub(lines.start).div_ceil(LINE);
        let mut table = DecodeTable {
            policy,
            max_valid_paths,
            lines,
            slots: (0..count).map(|_| LineSlots::default()).collect(),
        };
        for addr in entries {
            if let Some(line) = table.slots_mut(addr) {
                line.heads |= 1 << (addr % LINE);
            }
        }
        for addr in exits {
            if let Some(line) = table.slots_mut(addr) {
                line.tails |= 1 << (addr % LINE);
            }
        }
        table
    }

    /// Index into `slots` of the line holding `addr`, when covered.
    fn line_index(&self, addr: u64) -> Option<usize> {
        let i = addr.checked_sub(self.lines.start)? / LINE;
        (i < self.slots.len() as u64).then_some(i as usize)
    }

    /// The line that can give `addr` a slot: covered, and `addr` off the
    /// line's offset 0.
    fn slots_mut(&mut self, addr: u64) -> Option<&mut LineSlots> {
        let i = self
            .line_index(addr)
            .filter(|_| !addr.is_multiple_of(LINE))?;
        Some(&mut self.slots[i])
    }

    /// The index policy every head region is decoded under.
    #[must_use]
    pub fn policy(&self) -> IndexPolicy {
        self.policy
    }

    /// The valid-path bound every head region is decoded under.
    #[must_use]
    pub fn max_valid_paths(&self) -> usize {
        self.max_valid_paths
    }

    /// The address range of the program's cache lines.
    #[must_use]
    pub fn lines(&self) -> Range<u64> {
        self.lines.clone()
    }

    /// The head region entered at `start` — bytes `0..start % 64` of its
    /// line — if it has a slot. `line` returns `(line base, bytes)` for an
    /// address; it runs only on the slot's first use.
    pub fn head(
        &self,
        start: u64,
        line: impl FnOnce(u64) -> (u64, [u8; CACHE_LINE_BYTES]),
    ) -> Option<&DecodedRegion> {
        self.summary(start, true, || {
            let (line_base, bytes) = line(start);
            let entry = (start - line_base) as usize;
            let hd = head_decode(self.policy, self.max_valid_paths, &bytes, line_base, entry);
            DecodedRegion::from(&hd)
        })
    }

    /// The tail region after a branch that ends at `end` — bytes from
    /// `end % 64` to the end of its line — if it has a slot. `line` runs
    /// only on the slot's first use.
    pub fn tail(
        &self,
        end: u64,
        line: impl FnOnce(u64) -> (u64, [u8; CACHE_LINE_BYTES]),
    ) -> Option<&DecodedRegion> {
        self.summary(end, false, || {
            let (line_base, bytes) = line(end);
            let found = tail_branches(&bytes, line_base, (end - line_base) as usize);
            DecodedRegion::of(&found, 0, false)
        })
    }

    /// The summary in `addr`'s head (or tail) slot, decoded by `decode` on
    /// first use.
    fn summary(
        &self,
        addr: u64,
        head: bool,
        decode: impl FnOnce() -> DecodedRegion,
    ) -> Option<&DecodedRegion> {
        let line = &self.slots[self.line_index(addr)?];
        let bit = 1u64 << (addr % LINE);
        let mask = if head { line.heads } else { line.tails };
        if mask & bit == 0 {
            return None;
        }
        let summaries = line.summaries.get_or_init(|| {
            let n = line.heads.count_ones() + line.tails.count_ones();
            (0..n).map(|_| OnceLock::new()).collect()
        });
        let rank = (mask & (bit - 1)).count_ones() as usize;
        let slot = if head {
            summaries.len() - 1 - rank
        } else {
            rank
        };
        Some(summaries[slot].get_or_init(decode))
    }
}

/// Bytes per cache line, as an address stride.
const LINE: u64 = CACHE_LINE_BYTES as u64;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use skia_isa::encode;

    /// Build a 64-byte line from closures writing into it.
    fn pad_to_line(mut bytes: Vec<u8>) -> Vec<u8> {
        while bytes.len() < 64 {
            let gap = (64 - bytes.len()).min(8);
            encode::nop_exact(&mut bytes, gap);
        }
        bytes
    }

    #[test]
    fn tail_finds_return_after_exit() {
        // [taken jmp ends at 5][nop][ret][nops...]
        let mut line = Vec::new();
        encode::jmp_rel32(&mut line, 100); // executed exit branch, bytes 0..5
        encode::nop_exact(&mut line, 2);
        encode::ret(&mut line); // shadow return at offset 7
        let line = pad_to_line(line);

        let mut sbd = ShadowDecoder::default();
        let found = sbd.decode_tail(&line, 0x1000, 5);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].pc, 0x1007);
        assert_eq!(found[0].kind, BranchKind::Return);
        assert_eq!(found[0].target, None);
        assert_eq!(found[0].line_offset, 7);
    }

    #[test]
    fn tail_finds_jump_with_target() {
        let mut line = Vec::new();
        encode::nop_exact(&mut line, 4); // executed block
        encode::jmp_rel8(&mut line, 10); // exit branch bytes 4..6
        encode::jmp_rel32(&mut line, -64); // shadow jmp at 6, len 5
        let line = pad_to_line(line);

        let mut sbd = ShadowDecoder::default();
        let found = sbd.decode_tail(&line, 0x2000, 6);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, BranchKind::DirectUncond);
        // target = pc + len + rel = 0x2006 + 5 - 64
        assert_eq!(found[0].target, Some(0x2006 + 5 - 64));
    }

    #[test]
    fn tail_ignores_conditional_and_indirect() {
        let mut line = Vec::new();
        encode::jmp_rel8(&mut line, 4); // exit at 0..2
        encode::jcc_rel32(&mut line, 2, 50); // conditional: not eligible
        encode::jmp_reg(&mut line, encode::Reg::Rax); // indirect: not eligible
        encode::call_rel32(&mut line, 8); // eligible
        let line = pad_to_line(line);

        let mut sbd = ShadowDecoder::default();
        let found = sbd.decode_tail(&line, 0, 2);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, BranchKind::Call);
    }

    #[test]
    fn tail_stops_at_undecodable_byte() {
        let mut line = Vec::new();
        encode::jmp_rel8(&mut line, 4);
        line.push(0x06); // invalid in 64-bit mode
        encode::ret(&mut line); // unreachable for the decoder
        let line = pad_to_line(line);

        let mut sbd = ShadowDecoder::default();
        let found = sbd.decode_tail(&line, 0, 2);
        assert!(found.is_empty());
    }

    #[test]
    fn tail_stops_at_line_spill() {
        // An instruction that would cross the line end terminates decoding.
        let mut line = Vec::new();
        encode::jmp_rel8(&mut line, 0);
        while line.len() < 62 {
            encode::nop_exact(&mut line, 1);
        }
        line.push(0xE9); // jmp rel32 needs 5 bytes; only 2 remain
        line.push(0x00);
        assert_eq!(line.len(), 64);

        let mut sbd = ShadowDecoder::default();
        let found = sbd.decode_tail(&line, 0, 2);
        assert!(found.is_empty(), "spilling instruction must not decode");
    }

    #[test]
    fn head_single_unambiguous_path() {
        // Head region: [nop3][ret][nop4] entry at 8.
        let mut line = Vec::new();
        encode::nop_exact(&mut line, 3);
        encode::ret(&mut line);
        encode::nop_exact(&mut line, 4);
        assert_eq!(line.len(), 8);
        let line = pad_to_line(line);

        let mut sbd = ShadowDecoder::default();
        let hd = sbd.decode_head(&line, 0x3000, 8);
        assert!(!hd.discarded);
        assert_eq!(hd.chosen_start, Some(0));
        assert_eq!(hd.branches.len(), 1);
        assert_eq!(hd.branches[0].pc, 0x3003);
        assert_eq!(hd.branches[0].kind, BranchKind::Return);
    }

    #[test]
    fn head_figure8_merging_paths() {
        // Paper Fig. 8: starting at byte 0 yields xor ebx,eax (2 bytes);
        // starting at byte 1 yields ret (1 byte). Both land on entry = 2,
        // so both paths validate and they merge after the first instruction.
        let line = pad_to_line(vec![0x31, 0xC3]);
        let mut sbd = ShadowDecoder::default();
        let hd = sbd.decode_head(&line, 0, 2);
        assert_eq!(hd.valid_starts, vec![0, 1]);
        // First-index policy starts at 0: xor ebx,eax — no branch extracted
        // (the ret at byte 1 is the bogus decode in this reading).
        assert_eq!(hd.chosen_start, Some(0));
        assert!(hd.branches.is_empty());
    }

    #[test]
    fn head_path_that_misaligns_is_rejected() {
        // A 5-byte jmp followed by entry at 4: the jmp overshoots the entry,
        // so starting at 0 is invalid; no other start decodes.
        let mut line = Vec::new();
        encode::jmp_rel32(&mut line, 0); // 5 bytes, but entry is at 4
        let line = pad_to_line(line);
        let mut sbd = ShadowDecoder::default();
        let hd = sbd.decode_head(&line, 0, 4);
        // Byte 1..3 are 00 00 00: "add [rax],al" chains of len 2 → 0,2 valid?
        // Whatever validates, the jmp at 0 must not be extracted.
        assert!(hd
            .branches
            .iter()
            .all(|b| b.kind != BranchKind::DirectUncond));
    }

    #[test]
    fn head_extracts_call_with_target() {
        let mut line = Vec::new();
        encode::call_rel32(&mut line, 0x40); // bytes 0..5
        encode::nop_exact(&mut line, 3); // entry at 8
        let line = pad_to_line(line);
        let mut sbd = ShadowDecoder::default();
        let hd = sbd.decode_head(&line, 0x8000, 8);
        assert_eq!(hd.chosen_start, Some(0));
        let call = hd
            .branches
            .iter()
            .find(|b| b.kind == BranchKind::Call)
            .expect("call found");
        assert_eq!(call.target, Some(0x8000 + 5 + 0x40));
    }

    #[test]
    fn merging_paths_count_as_one_family() {
        // A run of single-byte instructions (0x50 = push rax) validates from
        // every start index, but every path merges into the first: one
        // family, not 32 — the line is kept (§3.2.2 "merging path").
        let line = pad_to_line(vec![0x50; 32]);
        let mut sbd = ShadowDecoder::new(IndexPolicy::First, 6);
        let hd = sbd.decode_head(&line, 0, 32);
        assert!(!hd.discarded);
        assert_eq!(hd.valid_starts.len(), 32);
        assert_eq!(sbd.stats().head_regions_discarded, 0);
    }

    #[test]
    fn non_merging_families_trigger_discard() {
        // Seven disjoint 2-byte chains that never merge: alternate valid
        // 2-byte instructions offset by one byte cannot coexist... build
        // instead explicit islands separated by undecodable bytes, each
        // island its own family. 0x06 is invalid in 64-bit mode.
        // Island: [0x50, 0x50] then an invalid byte would break the chain to
        // entry, so paths must reach the entry exactly: use a single long
        // region where each family is [push × k] starting after an invalid
        // byte — impossible to validate through. Simplest honest check:
        // bound = 1 and two genuinely distinct families.
        // "31 C3" from 0 is xor (one family through offset 0); from 1 is
        // ret then continues — both land on entry 2 but the ret path merges
        // nowhere (it ends at entry directly). Family count = 2.
        let line = pad_to_line(vec![0x31, 0xC3]);
        let mut sbd = ShadowDecoder::new(IndexPolicy::First, 1);
        let hd = sbd.decode_head(&line, 0, 2);
        assert!(hd.discarded, "two families exceed a bound of one");
    }

    #[test]
    fn head_zero_entry_is_empty() {
        let line = pad_to_line(Vec::new());
        let mut sbd = ShadowDecoder::default();
        let hd = sbd.decode_head(&line, 0, 0);
        assert!(hd.branches.is_empty());
        assert_eq!(hd.chosen_start, None);
    }

    #[test]
    fn merge_policy_starts_at_convergence_point() {
        // Two valid paths that converge: use bytes [0x50, 0x50, ret, ...]
        // entry at 3. Paths from 0, 1, 2 all validate (singles + ret), and
        // all end with final hop at index 2 (the ret). Merge index = 2.
        let line = pad_to_line(vec![0x50, 0x50, 0xC3]);
        let mut sbd = ShadowDecoder::new(IndexPolicy::Merge, 6);
        let hd = sbd.decode_head(&line, 0, 3);
        assert_eq!(hd.chosen_start, Some(2));
        assert_eq!(hd.branches.len(), 1);
        assert_eq!(hd.branches[0].kind, BranchKind::Return);
    }

    #[test]
    fn policy_semantics_on_merging_region() {
        // [jmp rel32 0..5][nop3 5..8], entry at 8. Spurious 2-byte decodes
        // from bytes 1/3 also validate, and every valid path converges on
        // offset 5 (the nop). First/Zero start at 0 and expose the jmp;
        // Merge conservatively starts at the convergence point and sees
        // only the nop.
        let mut bytes = Vec::new();
        encode::jmp_rel32(&mut bytes, 0x100);
        encode::nop_exact(&mut bytes, 3);
        let entry = bytes.len();
        let line = pad_to_line(bytes);
        for policy in [IndexPolicy::First, IndexPolicy::Zero] {
            let mut sbd = ShadowDecoder::new(policy, 6);
            let hd = sbd.decode_head(&line, 0, entry);
            assert_eq!(hd.branches.len(), 1, "policy {policy:?} finds the jmp");
            assert_eq!(hd.branches[0].kind, BranchKind::DirectUncond);
        }
        let mut sbd = ShadowDecoder::new(IndexPolicy::Merge, 6);
        let hd = sbd.decode_head(&line, 0, entry);
        assert_eq!(hd.chosen_start, Some(5), "paths merge at the nop");
        assert!(hd.branches.is_empty(), "merge policy skips pre-merge bytes");
    }

    #[test]
    fn tail_max_length_instruction_at_exact_line_end_decodes_through() {
        // A 15-byte instruction (14 operand-size prefixes + NOP) ending
        // exactly at the line boundary: the tail walk decodes it and stops
        // cleanly at offset 64. The earlier shadow return is still found.
        let mut line = Vec::new();
        encode::jmp_rel8(&mut line, 4); // exit branch, bytes 0..2
        encode::ret(&mut line); // shadow return at 2
        while line.len() < 49 {
            let gap = (49 - line.len()).min(8);
            encode::nop_exact(&mut line, gap);
        }
        line.extend(std::iter::repeat_n(0x66, 14));
        line.push(0x90); // 49 + 15 = 64: fits exactly
        assert_eq!(line.len(), 64);

        let mut sbd = ShadowDecoder::default();
        let found = sbd.decode_tail(&line, 0x1000, 2);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, BranchKind::Return);
    }

    #[test]
    fn tail_max_length_instruction_straddling_line_end_stops_decode() {
        // Shifted one byte later, the same 15-byte instruction straddles the
        // boundary: the line ends inside its prefix run, decode reports
        // Truncated, and the walk stops without panicking or mis-synthesizing
        // a branch from the partial bytes.
        let mut line = Vec::new();
        encode::jmp_rel8(&mut line, 4);
        encode::ret(&mut line);
        while line.len() < 50 {
            let gap = (50 - line.len()).min(8);
            encode::nop_exact(&mut line, gap);
        }
        line.extend(std::iter::repeat_n(0x66, 14)); // opcode on next line
        assert_eq!(line.len(), 64);

        let mut sbd = ShadowDecoder::default();
        let found = sbd.decode_tail(&line, 0x1040, 2);
        assert_eq!(found.len(), 1, "only the pre-straddle return decodes");
        assert_eq!(found[0].pc, 0x1042);
    }

    #[test]
    fn head_entry_mid_instruction_yields_no_valid_path() {
        // Index Computation when the entry offset lands mid-instruction: the
        // line opens with a 5-byte jmp whose displacement bytes (0x06) are
        // invalid opcodes, and the block entry is at byte 3 — inside the
        // jump. No decode chain can align with the entry: byte 0's length
        // overshoots it and bytes 1..3 do not decode, so the region yields
        // no candidates (and is *not* counted as an ambiguity discard).
        let mut line = Vec::new();
        encode::jmp_rel32(&mut line, 0x0606_0606);
        let line = pad_to_line(line);

        let mut sbd = ShadowDecoder::default();
        let hd = sbd.decode_head(&line, 0x5000, 3);
        assert!(!hd.discarded);
        assert!(hd.valid_starts.is_empty());
        assert!(hd.branches.is_empty());
        assert_eq!(hd.chosen_start, None);
        assert_eq!(sbd.stats().head_regions_discarded, 0);
    }

    #[test]
    fn head_max_length_instruction_aligns_with_entry() {
        // The 15-byte maximum instruction fills the whole head region. Every
        // suffix of the prefix run is itself a complete instruction landing
        // exactly on the entry, and none of those paths share an
        // intermediate hop — 15 genuinely distinct families. Under the
        // default ambiguity bound that correctly discards the region;
        // raising the bound past 15 admits it, with byte 0 among the valid
        // starts and no branch extracted.
        let mut line = vec![0x66u8; 14];
        line.push(0x90);
        let line = pad_to_line(line);

        let mut strict = ShadowDecoder::default();
        assert!(strict.decode_head(&line, 0x6000, 15).discarded);

        let mut lax = ShadowDecoder::new(IndexPolicy::First, 16);
        let hd = lax.decode_head(&line, 0x6000, 15);
        assert!(!hd.discarded);
        assert!(hd.valid_starts.contains(&0));
        assert!(hd.branches.is_empty(), "a long NOP is not a branch");
    }

    #[test]
    fn stats_accumulate() {
        let line = pad_to_line(vec![0xC3]);
        let mut sbd = ShadowDecoder::default();
        sbd.decode_head(&line, 0, 1);
        sbd.decode_tail(&line, 0, 0);
        let s = sbd.stats();
        assert_eq!(s.head_regions, 1);
        assert_eq!(s.tail_regions, 1);
        assert!(s.head_branches + s.tail_branches >= 1);
    }

    #[test]
    fn merge_policy_breaks_count_ties_toward_the_lowest_index() {
        // Fig. 8 bytes: the xor path's final hop starts at 0, the ret path's
        // at 1, one path each. The tie goes to index 0, whose xor holds no
        // branch, so the bogus ret at byte 1 stays hidden.
        let line = pad_to_line(vec![0x31, 0xC3]);
        let mut sbd = ShadowDecoder::new(IndexPolicy::Merge, 6);
        let hd = sbd.decode_head(&line, 0, 2);
        assert_eq!(hd.valid_starts, vec![0, 1]);
        assert_eq!(hd.chosen_start, Some(0));
        assert!(hd.branches.is_empty());
        assert_eq!(merge_index(&[5, 3, 5, 3, 9]), 3, "two-way tie");
        assert_eq!(
            merge_index(&[7, 2, 7]),
            7,
            "a higher count beats a lower index"
        );
    }

    /// The nested scan the count array replaced.
    fn merge_index_by_nested_scan(last_index: &[u8]) -> u8 {
        let mut best = (0usize, last_index[0]);
        for &cand in last_index {
            let count = last_index.iter().filter(|&&x| x == cand).count();
            if count > best.0 || (count == best.0 && cand < best.1) {
                best = (count, cand);
            }
        }
        best.1
    }

    proptest::proptest! {
        #[test]
        fn merge_count_array_agrees_with_nested_scan(
            last_index in proptest::collection::vec(0u8..65, 1..64),
        ) {
            proptest::prop_assert_eq!(
                merge_index(&last_index),
                merge_index_by_nested_scan(&last_index)
            );
        }
    }

    /// A line dense in branches: each `(pick, byte)` becomes a one-byte
    /// return, a short jump or call opcode, a NOP, a push, or `byte`.
    pub(crate) fn branchy_line(picks: &[(u8, u8)]) -> Vec<u8> {
        picks
            .iter()
            .map(|&(pick, byte)| match pick {
                0 | 1 => 0xC3,
                2 => 0xEB,
                3 => 0xE8,
                4 => 0xE9,
                5 => 0x90,
                6 => 0x50,
                _ => byte,
            })
            .collect()
    }

    /// The branches a summary's mask names, re-decoded from the line.
    fn redecode(line: &[u8], base: u64, region: &DecodedRegion) -> Vec<ShadowBranch> {
        (0..CACHE_LINE_BYTES)
            .filter(|&off| (region.mask >> off) & 1 == 1)
            .map(|off| shadow_branch_at(line, base, off).expect("mask bit decodes"))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// At every offset with a slot, the table's summary is the fresh
        /// decode's outcome, its mask re-decodes to exactly the fresh branch
        /// list, and reading it counts as the fresh decode does.
        #[test]
        fn table_summaries_equal_fresh_decodes(
            picks in proptest::collection::vec((0u8..9, proptest::prelude::any::<u8>()), 64..65),
            policy in 0usize..3,
            bound in 1usize..8,
        ) {
            let line = branchy_line(&picks);
            let policy = IndexPolicy::ALL[policy];
            let base = 0x8040u64;
            let bytes = <[u8; CACHE_LINE_BYTES]>::try_from(&line[..]).unwrap();
            let every = || base..base + CACHE_LINE_BYTES as u64;
            let table = DecodeTable::new(policy, bound, base..base + 64, every(), every());
            let mut fresh = ShadowDecoder::new(policy, bound);
            let mut counted = ShadowDecoder::new(policy, bound);
            for off in 1..CACHE_LINE_BYTES {
                let addr = base + off as u64;
                let head = *table.head(addr, |_| (base, bytes)).expect("head slot");
                let hd = fresh.decode_head(&line, base, off);
                proptest::prop_assert_eq!(head, DecodedRegion::from(&hd), "entry {}", off);
                proptest::prop_assert_eq!(usize::from(head.branches), hd.branches.len());
                proptest::prop_assert_eq!(redecode(&line, base, &head), hd.branches);
                counted.count_head(&head);

                let tail = *table.tail(addr, |_| (base, bytes)).expect("tail slot");
                let found = fresh.decode_tail(&line, base, off);
                proptest::prop_assert_eq!(usize::from(tail.branches), found.len());
                proptest::prop_assert_eq!(redecode(&line, base, &tail), found);
                counted.count_tail(&tail);
            }
            proptest::prop_assert_eq!(counted.stats(), fresh.stats());
        }
    }

    #[test]
    fn decode_table_slots_decode_once_and_only_where_keyed() {
        let line = pad_to_line({
            let mut b = Vec::new();
            encode::call_rel32(&mut b, 0x40);
            encode::nop_exact(&mut b, 3);
            encode::jmp_rel8(&mut b, 4);
            encode::ret(&mut b);
            b
        });
        let bytes = <[u8; CACHE_LINE_BYTES]>::try_from(&line[..]).unwrap();
        let base = 0x8000;
        // Slots: a head at 8, tails at 8 and 10; offset 0 and addresses
        // past the lines get none.
        let table = DecodeTable::new(
            IndexPolicy::First,
            6,
            base..base + 64,
            [base + 8, base, base + 64 + 8],
            [base + 8, base + 10, base + 64],
        );
        let calls = std::cell::Cell::new(0);
        let line_fn = |addr: u64| {
            assert_eq!(addr & !63, base);
            calls.set(calls.get() + 1);
            (base, bytes)
        };
        for _ in 0..3 {
            let head = table.head(base + 8, line_fn).expect("head slot");
            assert_eq!((head.mask, head.branches), (1, 1), "the call at 0");
            let tail = table.tail(base + 8, line_fn).expect("tail slot");
            assert_eq!(tail.mask, 1 << 8 | 1 << 10, "jmp at 8, ret at 10");
            assert_eq!(
                table.tail(base + 10, line_fn).map(|t| t.mask),
                Some(1 << 10)
            );
        }
        assert_eq!(calls.get(), 3, "one line read per slot, not per use");
        for addr in [base + 9, base + 64 + 8] {
            assert!(table.head(addr, line_fn).is_none());
        }
        assert!(table.head(base, line_fn).is_none());
        assert!(table.tail(base + 9, line_fn).is_none());
        assert!(table.tail(base + 64, line_fn).is_none());
    }
}
