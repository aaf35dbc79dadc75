//! Synthetic program generation.
//!
//! A [`Program`] is a flat x86-64 code image plus structural ground truth:
//! its functions, and one [`BranchRecord`] per static branch — the
//! terminator of one basic block — in a [`BranchTable`], the only store of
//! branch metadata. Every instruction is emitted
//! through [`skia_isa::encode`], so the bytes in the image are genuinely
//! decodable (and mis-decodable from wrong offsets — exactly what head
//! shadow decoding must cope with).
//!
//! Generation is two-phase: an abstract structure (functions → blocks →
//! instruction templates + terminators) is built first from a seeded RNG,
//! then laid out into bytes with relocation fixups patched in a second pass.
//! The layout order implements the hot/cold co-location that produces
//! shadow branches: [`Layout::Interleaved`] alternates hot and cold
//! functions in memory (the default; what ordinary compilation does to
//! unrelated functions), while [`Layout::Bolted`] sorts hot functions
//! together, modeling what the BOLT binary optimizer achieves (§6.1.4).

use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skia_core::{DecodeTable, IndexPolicy};
use skia_isa::{encode, BranchKind, CACHE_LINE_BYTES};

use crate::side_table::{is_indirect, BranchRecord, BranchTable};

/// Function layout order in the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Hot and cold functions alternate in memory, maximizing hot/cold
    /// cache-line sharing (the shadow-branch generator).
    #[default]
    Interleaved,
    /// Functions sorted hottest-first (BOLT-like): hot code is packed, so
    /// fewer lines mix hot and cold bytes and the BTB working set shrinks.
    Bolted,
}

/// Generation parameters: what the profiles, the oracle's cases and the
/// property tests vary. Everything else about a program's shape is a
/// constant of this module.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpec {
    /// RNG seed; everything about the program is a pure function of the spec.
    pub seed: u64,
    /// Number of functions.
    pub functions: usize,
    /// Probability that a non-final block terminator is conditional.
    pub cond_fraction: f64,
    /// Probability that a non-final, non-conditional terminator is a call
    /// (the rest are unconditional jumps).
    pub call_fraction: f64,
    /// Fraction of calls/jumps made indirect (through a register).
    pub indirect_fraction: f64,
    /// Zipf skew for function hotness (higher = more skewed).
    pub zipf_s: f64,
    /// Mean loop trip count for backedges. Generation does not read it:
    /// it is the walk's, passed to [`Walker::new`](crate::Walker::new).
    pub mean_trip_count: u32,
    /// Layout order.
    pub layout: Layout,
}

impl Default for ProgramSpec {
    fn default() -> Self {
        ProgramSpec {
            seed: 0xC0FFEE,
            functions: 2000,
            cond_fraction: 0.55,
            call_fraction: 0.45,
            indirect_fraction: 0.03,
            zipf_s: 1.1,
            mean_trip_count: 6,
            layout: Layout::Interleaved,
        }
    }
}

/// Blocks per function, drawn from this half-open range.
pub(crate) const BLOCKS_PER_FN: Range<usize> = 2..7;
/// Non-branch instructions per block, drawn from this half-open range.
pub(crate) const INSNS_PER_BLOCK: Range<usize> = 2..7;
/// Fraction of conditional terminators that are loop backedges.
pub(crate) const BACKEDGE_FRACTION: f64 = 0.18;
/// Fraction of functions that are *leaves* (no outgoing calls), like real
/// utility/getter functions. Calls are biased toward leaves, which keeps the
/// call tree of one dispatcher request bounded: without this a branching
/// factor above 1 makes request trees effectively infinite.
pub(crate) const LEAF_FRACTION: f64 = 0.55;
/// Targets of each indirect call outside the dispatcher.
pub(crate) const INDIRECT_CALLEES: usize = 6;
/// Dispatcher (function 0) blocks, at most one per other function: each is
/// one indirect call site of the event loop. Together with
/// [`DISPATCH_CALLEES`] this sets how many entry points the workload's
/// active set spans, the main BTB-pressure mechanism.
pub(crate) const DISPATCH_BLOCKS: usize = 64;
/// Callee candidates per dispatcher call site, at most one per other
/// function.
pub(crate) const DISPATCH_CALLEES: usize = 64;

/// A function: contiguous blocks, entered at `entry`, exited by return. Its
/// blocks are the [`BranchRecord`]s whose `function` names it.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Entry address (start of its first block).
    pub entry: u64,
    /// Hotness weight used by the walker's call selection.
    pub weight: f64,
}

/// Address of every image's first byte.
pub(crate) const IMAGE_BASE: u64 = 0x0040_0000;

/// The generated program.
#[derive(Debug, Clone)]
pub struct Program {
    image: Vec<u8>,
    functions: Vec<Function>,
    /// One record per static branch, in pc order, shared with the program's
    /// recorded traces.
    table: Arc<BranchTable>,
    /// Shadow-decode tables, built on first use.
    decode_tables: DecodeTables,
}

/// A program's shadow-decode tables, one per (index policy, path bound)
/// simulated. Derived and lazily built: never serialized, and a clone
/// starts empty.
#[derive(Debug, Default)]
struct DecodeTables(Mutex<Vec<Arc<DecodeTable>>>);

impl Clone for DecodeTables {
    fn clone(&self) -> Self {
        DecodeTables::default()
    }
}

/// Each function's entry, or `None` unless `recs` tile an image of
/// `image_len` bytes and group into `nfuncs` functions as
/// [`Program::from_parts`] requires.
fn function_entries(image_len: usize, nfuncs: usize, recs: &[BranchRecord]) -> Option<Vec<u64>> {
    if recs.first()?.function != 0 {
        return None;
    }
    let mut entries = vec![None; nfuncs];
    let mut end = IMAGE_BASE;
    for (i, r) in recs.iter().enumerate() {
        if r.block_start != end || r.pc < r.block_start || r.len == 0 {
            return None;
        }
        end = r.pc.checked_add(u64::from(r.len))?;
        if i == 0 || recs[i - 1].function != r.function {
            // A new run: its function must not own an earlier one.
            let entry = entries.get_mut(r.function as usize)?;
            if entry.is_some() {
                return None;
            }
            *entry = Some(r.block_start);
        }
        let run_ends = recs.get(i + 1).is_none_or(|n| n.function != r.function);
        if run_ends && r.kind != BranchKind::Return {
            return None;
        }
    }
    if end != IMAGE_BASE + image_len as u64 {
        return None;
    }
    entries.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Abstract structure (pre-layout)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AbsTerm {
    Cond { target_block: usize, backedge: bool },
    Uncond { target_block: usize },
    Call { callee: usize },
    IndirectCall { callees: Vec<usize> },
    IndirectJmp { target_blocks: Vec<usize> },
    Ret,
}

#[derive(Debug, Clone)]
struct AbsBlock {
    /// The block's non-branch instruction selectors, a range of the
    /// program's one selector list.
    selectors: Range<usize>,
    term: AbsTerm,
}

#[derive(Debug, Clone)]
struct AbsFn {
    blocks: Vec<AbsBlock>,
    weight: f64,
}

impl Program {
    /// Generate a program from its spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec has fewer than two functions.
    #[must_use]
    pub fn generate(spec: &ProgramSpec) -> Self {
        assert!(
            spec.functions >= 2,
            "need at least two functions: the dispatcher (function 0) calls the others"
        );
        let mut rng = SmallRng::seed_from_u64(spec.seed);

        // ---- Phase 1: abstract structure ----
        // Leaf assignment: leaves make no calls; call sites prefer them.
        let is_leaf: Vec<bool> = (0..spec.functions)
            .map(|fi| fi != 0 && rng.gen_bool(LEAF_FRACTION))
            .collect();
        let leaves: Vec<usize> = (1..spec.functions).filter(|&fi| is_leaf[fi]).collect();

        let mut fns: Vec<AbsFn> = Vec::with_capacity(spec.functions);
        // Every block's non-branch instruction selectors, in draw order.
        let mut selectors: Vec<u64> = Vec::new();
        let mut draw = |rng: &mut SmallRng, n: usize| {
            let at = selectors.len();
            selectors.extend((0..n).map(|_| rng.gen::<u64>()));
            at..selectors.len()
        };

        // Function 0 is the dispatcher: an event loop of indirect calls
        // fanning out across the whole program (a server's request loop).
        // Without it the walk could get trapped in a call-free region.
        {
            let fanout_blocks = DISPATCH_BLOCKS.min(spec.functions - 1);
            let mut blocks = Vec::with_capacity(fanout_blocks + 1);
            for _ in 0..fanout_blocks {
                let ninsns = rng.gen_range(INSNS_PER_BLOCK);
                let selectors = draw(&mut rng, ninsns);
                let n = DISPATCH_CALLEES.min(spec.functions - 1);
                let callees: Vec<usize> =
                    (0..n).map(|_| rng.gen_range(1..spec.functions)).collect();
                blocks.push(AbsBlock {
                    selectors,
                    term: AbsTerm::IndirectCall { callees },
                });
            }
            blocks.push(AbsBlock {
                selectors: draw(&mut rng, 1),
                term: AbsTerm::Ret,
            });
            fns.push(AbsFn {
                blocks,
                weight: 1.0,
            });
        }

        #[allow(clippy::needless_range_loop)] // fi also derives entry PCs, not just is_leaf
        for fi in 1..spec.functions {
            let nblocks = rng.gen_range(BLOCKS_PER_FN);
            // Zipf-like hotness over a random permutation: weight by rank.
            let rank = 1 + rng.gen_range(0..spec.functions);
            let weight = 1.0 / (rank as f64).powf(spec.zipf_s);

            let mut blocks = Vec::with_capacity(nblocks);
            for bi in 0..nblocks {
                let ninsns = rng.gen_range(INSNS_PER_BLOCK);
                let selectors = draw(&mut rng, ninsns);
                let last = bi + 1 == nblocks;
                let term = if last {
                    AbsTerm::Ret
                } else if rng.gen_bool(spec.cond_fraction) {
                    let backedge = bi > 0 && rng.gen_bool(BACKEDGE_FRACTION);
                    let target_block = if backedge {
                        rng.gen_range(0..bi)
                    } else {
                        rng.gen_range(bi + 1..nblocks)
                    };
                    AbsTerm::Cond {
                        target_block,
                        backedge,
                    }
                } else if !is_leaf[fi] && rng.gen_bool(spec.call_fraction) {
                    // DAG constraint (callee index > caller) bounds stack
                    // depth; function 0 is the dispatcher. Most calls target
                    // leaf functions (bounding the request tree); the rest
                    // are drawn from a *band* just above the caller so
                    // non-leaf call trees occupy disjoint index regions
                    // instead of collapsing onto one shared tail — this is
                    // what keeps the active branch set large (cold-branch
                    // capacity misses, §1).
                    let leaf_call = !leaves.is_empty() && rng.gen_bool(0.75);
                    // Any leaf is a safe callee regardless of index order:
                    // leaves make no calls, so no cycle can form.
                    let pick_leaf =
                        |rng: &mut SmallRng| -> usize { leaves[rng.gen_range(0..leaves.len())] };
                    if fi + 1 >= spec.functions && !leaf_call {
                        AbsTerm::Uncond {
                            target_block: rng.gen_range(bi + 1..nblocks),
                        }
                    } else if rng.gen_bool(spec.indirect_fraction) {
                        let callees: Vec<usize> = (0..INDIRECT_CALLEES)
                            .map(|_| {
                                if leaf_call {
                                    pick_leaf(&mut rng)
                                } else {
                                    rng.gen_range((fi + 1).min(spec.functions - 1)..spec.functions)
                                }
                            })
                            .collect();
                        AbsTerm::IndirectCall { callees }
                    } else if leaf_call {
                        AbsTerm::Call {
                            callee: pick_leaf(&mut rng),
                        }
                    } else {
                        let span = (spec.functions / 8).max(64);
                        let hi = (fi + 1 + span).min(spec.functions);
                        AbsTerm::Call {
                            callee: rng.gen_range(fi + 1..hi),
                        }
                    }
                } else if rng.gen_bool(spec.indirect_fraction) && nblocks > bi + 2 {
                    let n = 3.min(nblocks - bi - 1);
                    let target_blocks: Vec<usize> =
                        (0..n).map(|_| rng.gen_range(bi + 1..nblocks)).collect();
                    AbsTerm::IndirectJmp { target_blocks }
                } else {
                    AbsTerm::Uncond {
                        target_block: rng.gen_range(bi + 1..nblocks),
                    }
                };
                blocks.push(AbsBlock { selectors, term });
            }
            fns.push(AbsFn { blocks, weight });
        }

        // ---- Phase 2: layout order ----
        let mut order: Vec<usize> = (0..spec.functions).collect();
        match spec.layout {
            Layout::Interleaved => {
                // Hot and cold functions mixed in memory: a seeded shuffle,
                // which is what ordinary compilation/linking produces —
                // neighboring functions are unrelated, so hot and cold bytes
                // share cache lines pervasively (the shadow-branch source).
                for i in (1..order.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    order.swap(i, j);
                }
            }
            Layout::Bolted => {
                order.sort_by(|&a, &b| fns[b].weight.total_cmp(&fns[a].weight));
            }
        }
        // Function 0 (the dispatcher) always leads so the entry point is
        // stable; keep the rest of the order as computed.
        if let Some(pos) = order.iter().position(|&f| f == 0) {
            order.remove(pos);
            order.insert(0, 0);
        }

        // ---- Phase 3: emission with fixups ----
        let mut image: Vec<u8> = Vec::new();
        // One record per block, in layout order (which is pc order); direct
        // targets are patched in once every block is placed.
        let mut recs: Vec<BranchRecord> =
            Vec::with_capacity(fns.iter().map(|f| f.blocks.len()).sum());
        // Record index of each function's first block: block `b` of
        // function `f` is record `first_rec[f] + b`.
        let mut first_rec = vec![0usize; spec.functions];
        // Direct targets to patch: (record index, (target fn, target block)).
        let mut fixups: Vec<(usize, (usize, usize))> = Vec::new();
        // Indirect targets, in record order, as (fn, block).
        let mut indirect_refs: Vec<(usize, usize)> = Vec::new();

        for &fi in &order {
            let f = &fns[fi];
            first_rec[fi] = recs.len();
            for b in &f.blocks {
                let block_start = IMAGE_BASE + image.len() as u64;
                for &sel in &selectors[b.selectors.clone()] {
                    encode::emit_nonbranch(&mut image, sel);
                }
                let pc = IMAGE_BASE + image.len() as u64;
                let targets_at =
                    u32::try_from(indirect_refs.len()).expect("indirect targets fit in u32");
                let (len, kind, backedge) = match &b.term {
                    AbsTerm::Cond {
                        target_block,
                        backedge,
                    } => {
                        let cc = (rng.gen_range(0u8..16)) & 0x0F;
                        let len = encode::jcc_rel32(&mut image, cc, 0);
                        fixups.push((recs.len(), (fi, *target_block)));
                        (len, BranchKind::DirectCond, *backedge)
                    }
                    AbsTerm::Uncond { target_block } => {
                        let len = encode::jmp_rel32(&mut image, 0);
                        fixups.push((recs.len(), (fi, *target_block)));
                        (len, BranchKind::DirectUncond, false)
                    }
                    AbsTerm::Call { callee } => {
                        let len = encode::call_rel32(&mut image, 0);
                        fixups.push((recs.len(), (*callee, 0)));
                        (len, BranchKind::Call, false)
                    }
                    AbsTerm::IndirectCall { callees } => {
                        let reg = encode::Reg::ALL[rng.gen_range(0..8usize)];
                        let len = encode::call_reg(&mut image, reg);
                        indirect_refs.extend(callees.iter().map(|&c| (c, 0)));
                        (len, BranchKind::IndirectCall, false)
                    }
                    AbsTerm::IndirectJmp { target_blocks } => {
                        let reg = encode::Reg::ALL[rng.gen_range(0..8usize)];
                        let len = encode::jmp_reg(&mut image, reg);
                        indirect_refs.extend(target_blocks.iter().map(|&tb| (fi, tb)));
                        (len, BranchKind::IndirectJmp, false)
                    }
                    AbsTerm::Ret => (encode::ret(&mut image), BranchKind::Return, false),
                };
                recs.push(BranchRecord {
                    pc,
                    block_start,
                    target: None,
                    insns: b.selectors.len() as u32 + 1,
                    function: fi as u32,
                    targets_at,
                    len: len as u8,
                    kind,
                    bias: 0,
                    backedge,
                });
            }
        }

        // Patch each direct branch's rel32, its last four bytes.
        let start_of =
            |recs: &[BranchRecord], (f, b): (usize, usize)| recs[first_rec[f] + b].block_start;
        for (ri, to) in fixups {
            let target = start_of(&recs, to);
            let rec = &mut recs[ri];
            let end = rec.fallthrough();
            let rel = target.wrapping_sub(end) as i64 as i32;
            let off = (end - IMAGE_BASE) as usize - 4;
            image[off..off + 4].copy_from_slice(&rel.to_le_bytes());
            rec.target = Some(target);
        }
        let indirect = indirect_refs
            .iter()
            .map(|&to| start_of(&recs, to))
            .collect();

        // ---- Phase 4: biases ----
        // Drawn in function-index, block order, not layout order: the draw
        // order fixes every bias, and through them every trace.
        let mut bias_rng = SmallRng::seed_from_u64(spec.seed ^ 0xB1A5);
        for (f, &first) in fns.iter().zip(&first_rec) {
            for rec in &mut recs[first..first + f.blocks.len()] {
                rec.bias = bias_rng.gen_range(0..=9);
            }
        }

        let weights = fns.iter().map(|f| f.weight).collect();
        Program::from_parts(image, weights, recs, indirect)
            .expect("a generated program is well formed")
    }

    /// Assemble a program from its parts — generation and disk cache load
    /// both come through here — or `None` unless the walker can step through
    /// it without panicking:
    ///
    /// * every record is at least a byte long, holds its pc at or after its
    ///   block start, and starts where the previous ends (the first at the
    ///   image base), and the last ends at the image end;
    /// * direct kinds carry a target and others none; indirect kinds carry
    ///   at least one indirect target and others none; and every target is
    ///   some record's block start;
    /// * the first record belongs to function 0, every record's function is
    ///   one of `weights`, and every function owns one nonempty contiguous
    ///   run of records ending in a `Return`.
    ///
    /// The image bytes are not decoded, so metadata that disagrees with
    /// them passes.
    pub(crate) fn from_parts(
        image: Vec<u8>,
        weights: Vec<f64>,
        recs: Vec<BranchRecord>,
        indirect: Vec<u64>,
    ) -> Option<Self> {
        let entries = function_entries(image.len(), weights.len(), &recs)?;
        let table = BranchTable::from_records(recs, indirect);
        let kinds_ok = table.records().iter().enumerate().all(|(i, r)| {
            r.kind.is_direct() == r.target.is_some()
                && is_indirect(r.kind) != table.indirect_targets(i).is_empty()
        });
        if !kinds_ok || !table.targets_resolve() {
            return None;
        }
        let functions = entries
            .into_iter()
            .zip(weights)
            .map(|(entry, weight)| Function { entry, weight })
            .collect();
        Some(Program {
            image,
            functions,
            table: Arc::new(table),
            decode_tables: DecodeTables::default(),
        })
    }

    /// Base address of the image.
    #[must_use]
    pub fn base(&self) -> u64 {
        IMAGE_BASE
    }

    /// Total code bytes.
    #[must_use]
    pub fn code_bytes(&self) -> usize {
        self.image.len()
    }

    /// Number of cache lines the image spans.
    #[must_use]
    pub fn code_lines(&self) -> usize {
        self.image.len().div_ceil(CACHE_LINE_BYTES)
    }

    /// All functions.
    #[must_use]
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Total static branch count.
    #[must_use]
    pub fn branch_count(&self) -> usize {
        self.table.len()
    }

    /// Whether `addr` lies inside the image.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= IMAGE_BASE && addr < IMAGE_BASE + self.image.len() as u64
    }

    /// The 64-byte cache line containing `addr`, zero-padded at the image
    /// edge. Returns the line base address and its bytes.
    #[must_use]
    pub fn line(&self, addr: u64) -> (u64, [u8; CACHE_LINE_BYTES]) {
        let line_base = addr & !(CACHE_LINE_BYTES as u64 - 1);
        let mut bytes = [0u8; CACHE_LINE_BYTES];
        // One bulk copy of the line's overlap with the image (hot path:
        // the SBD fetches a line for every shadow-decoded block).
        let image_end = IMAGE_BASE + self.image.len() as u64;
        let lo = line_base.max(IMAGE_BASE);
        let hi = (line_base + CACHE_LINE_BYTES as u64).min(image_end);
        if lo < hi {
            let dst = (lo - line_base) as usize;
            let src = (lo - IMAGE_BASE) as usize;
            let n = (hi - lo) as usize;
            bytes[dst..dst + n].copy_from_slice(&self.image[src..src + n]);
        }
        (line_base, bytes)
    }

    /// Raw bytes starting at `addr` (up to `len`, truncated at image end).
    #[must_use]
    pub fn bytes_at(&self, addr: u64, len: usize) -> &[u8] {
        if !self.contains(addr) {
            return &[];
        }
        let off = (addr - IMAGE_BASE) as usize;
        &self.image[off..(off + len).min(self.image.len())]
    }

    /// Ground-truth record of the branch at `pc`, if a block terminator
    /// lives there.
    #[must_use]
    pub fn branch_at(&self, pc: u64) -> Option<&BranchRecord> {
        self.table.record_at(pc)
    }

    /// The program's static branches, one record each in pc order (built
    /// once at generation or cache load; shared by every simulator over
    /// this program).
    #[must_use]
    pub fn branch_table(&self) -> &BranchTable {
        &self.table
    }

    /// The branch table, for a [`RecordedTrace`](crate::RecordedTrace) to
    /// keep alive.
    pub(crate) fn shared_branch_table(&self) -> &Arc<BranchTable> {
        &self.table
    }

    /// The program's shadow-decode table for `policy` and `max_valid_paths`,
    /// built empty on first request and shared by every simulator over the
    /// program. It has a head slot at every block start and a tail slot at
    /// every terminator's fall-through, each off a line boundary.
    #[must_use]
    pub fn decode_table(&self, policy: IndexPolicy, max_valid_paths: usize) -> Arc<DecodeTable> {
        // The list only ever grows by whole entries, so a guard poisoned by
        // a panic elsewhere still holds a valid list.
        let mut tables = self
            .decode_tables
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = tables
            .iter()
            .find(|t| t.policy() == policy && t.max_valid_paths() == max_valid_paths)
        {
            return Arc::clone(t);
        }
        let lines = IMAGE_BASE..IMAGE_BASE + (self.code_lines() * CACHE_LINE_BYTES) as u64;
        let recs = self.table.records();
        let table = Arc::new(DecodeTable::new(
            policy,
            max_valid_paths,
            lines,
            recs.iter().map(|r| r.block_start),
            recs.iter().map(BranchRecord::fallthrough),
        ));
        tables.push(Arc::clone(&table));
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skia_isa::{decode, InsnKind};

    fn small_spec() -> ProgramSpec {
        ProgramSpec {
            functions: 50,
            ..ProgramSpec::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Program::generate(&small_spec());
        let b = Program::generate(&small_spec());
        assert_eq!(a.code_bytes(), b.code_bytes());
        assert_eq!(a.bytes_at(a.base(), 256), b.bytes_at(b.base(), 256));
    }

    #[test]
    #[should_panic(expected = "the dispatcher (function 0) calls the others")]
    fn one_function_spec_is_rejected() {
        let _ = Program::generate(&ProgramSpec {
            functions: 1,
            ..ProgramSpec::default()
        });
    }

    #[test]
    fn every_block_terminator_decodes_to_its_ground_truth() {
        let p = Program::generate(&small_spec());
        for t in p.branch_table().records() {
            let bytes = p.bytes_at(t.pc, 15);
            let d = decode::decode(bytes).expect("terminator must decode");
            assert_eq!(d.len, t.len, "length at {:#x}", t.pc);
            match d.kind {
                InsnKind::Branch(bi) => {
                    assert_eq!(bi.kind, t.kind, "kind at {:#x}", t.pc);
                    if let Some(target) = t.target {
                        assert_eq!(d.branch_target(t.pc), Some(target), "target at {:#x}", t.pc);
                    }
                }
                InsnKind::Other => panic!("terminator at {:#x} is not a branch", t.pc),
            }
        }
    }

    #[test]
    fn block_bodies_decode_cleanly_from_start_to_terminator() {
        let p = Program::generate(&small_spec());
        for r in p.branch_table().records() {
            let mut pc = r.block_start;
            let mut count = 0u32;
            while pc < r.pc {
                let d = decode::decode(p.bytes_at(pc, 15)).expect("body instruction");
                assert_eq!(d.kind, InsnKind::Other, "non-terminator at {pc:#x}");
                pc += u64::from(d.len);
                count += 1;
            }
            assert_eq!(pc, r.pc, "boundaries align");
            assert_eq!(count + 1, r.insns, "instruction count matches");
        }
    }

    #[test]
    fn direct_targets_are_block_starts() {
        let p = Program::generate(&small_spec());
        let table = p.branch_table();
        let starts: std::collections::HashSet<u64> =
            table.records().iter().map(|r| r.block_start).collect();
        for (i, r) in table.records().iter().enumerate() {
            if let Some(t) = r.target {
                assert!(starts.contains(&t), "target {t:#x} is a block start");
            }
            for &t in table.indirect_targets(i) {
                assert!(starts.contains(&t), "indirect target {t:#x} valid");
            }
        }
    }

    #[test]
    fn functions_are_runs_of_records_ending_in_a_return() {
        let p = Program::generate(&small_spec());
        let recs = p.branch_table().records();
        let mut runs = 0;
        for (i, r) in recs.iter().enumerate() {
            if i == 0 || recs[i - 1].function != r.function {
                assert_eq!(p.functions()[r.function as usize].entry, r.block_start);
                runs += 1;
            }
            if recs.get(i + 1).is_none_or(|n| n.function != r.function) {
                assert_eq!(r.kind, BranchKind::Return, "{:#x}", r.pc);
            }
        }
        assert_eq!(runs, p.functions().len());
    }

    #[test]
    fn backedges_point_backward_and_forward_jumps_forward() {
        let p = Program::generate(&small_spec());
        for t in p.branch_table().records() {
            if t.kind == BranchKind::DirectCond {
                let target = t.target.unwrap();
                if t.backedge {
                    assert!(target < t.block_start, "backedge at {:#x}", t.pc);
                } else {
                    assert!(target > t.pc, "forward cond at {:#x}", t.pc);
                }
            }
            if t.kind == BranchKind::DirectUncond {
                assert!(t.target.unwrap() > t.pc, "uncond forward at {:#x}", t.pc);
            }
        }
    }

    #[test]
    fn bolted_layout_packs_hot_functions() {
        let mut spec = small_spec();
        spec.functions = 200;
        let interleaved = Program::generate(&spec);
        spec.layout = Layout::Bolted;
        let bolted = Program::generate(&spec);
        // Same total size, different order.
        assert_eq!(interleaved.code_bytes(), bolted.code_bytes());
        // In the bolted image, the hottest non-dispatcher function should
        // sit earlier (lower address) than in the interleaved image on
        // average: compare mean address of the top decile by weight.
        let mean_hot_addr = |p: &Program| -> f64 {
            let mut fs: Vec<&Function> = p.functions().iter().collect();
            fs.sort_by(|a, b| b.weight.total_cmp(&a.weight));
            let top = &fs[..20];
            top.iter().map(|f| f.entry as f64).sum::<f64>() / top.len() as f64
        };
        assert!(mean_hot_addr(&bolted) < mean_hot_addr(&interleaved));
    }

    #[test]
    fn line_accessor_zero_pads_past_image() {
        let p = Program::generate(&small_spec());
        let end = p.base() + p.code_bytes() as u64;
        let (line_base, bytes) = p.line(end - 1);
        assert!(line_base < end);
        let in_image = (end - line_base) as usize;
        if in_image < CACHE_LINE_BYTES {
            assert!(bytes[in_image..].iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn lookups_answer_from_the_branch_table() {
        let p = Program::generate(&small_spec());
        let table = p.branch_table();
        for (i, r) in table.records().iter().enumerate() {
            assert_eq!(table.block_index(r.block_start), Some(i));
            assert_eq!(table.index_of(r.pc), Some(i));
            assert_eq!(p.branch_at(r.pc), Some(r));
            assert_eq!(table.target_of(r.pc), r.target);
            // Addresses inside a block are neither block starts nor
            // branches.
            for pc in r.block_start + 1..r.pc {
                assert_eq!(table.block_index(pc), None, "{pc:#x}");
                assert_eq!(p.branch_at(pc), None, "{pc:#x}");
            }
            assert_eq!(p.branch_at(r.pc + 1), None);
        }
        assert_eq!(table.block_index(p.base() + p.code_bytes() as u64), None);
        assert_eq!(table.block_index(p.base() - 1), None);
    }

    /// A program taken apart again for [`Program::from_parts`].
    struct Parts {
        image: Vec<u8>,
        weights: Vec<f64>,
        recs: Vec<BranchRecord>,
        indirect: Vec<u64>,
    }

    impl Parts {
        fn of(p: &Program) -> Parts {
            let table = p.branch_table();
            Parts {
                image: p.image.clone(),
                weights: p.functions.iter().map(|f| f.weight).collect(),
                recs: table.records().to_vec(),
                indirect: (0..table.len())
                    .flat_map(|i| table.indirect_targets(i))
                    .copied()
                    .collect(),
            }
        }

        fn build(self) -> Option<Program> {
            Program::from_parts(self.image, self.weights, self.recs, self.indirect)
        }
    }

    #[test]
    fn from_parts_rejects_each_malformation() {
        let p = Program::generate(&small_spec());
        let rebuilt = Parts::of(&p).build().expect("own parts");
        assert_eq!(rebuilt.branch_table(), p.branch_table());
        assert_eq!(rebuilt.functions(), p.functions());

        let recs = p.branch_table().records();
        let first = |kind| recs.iter().position(|r| r.kind == kind).unwrap();
        let (call, uncond, icall) = (
            first(BranchKind::Call),
            first(BranchKind::DirectUncond),
            first(BranchKind::IndirectCall),
        );
        // Where each function's run of records starts.
        let runs: Vec<usize> = (0..recs.len())
            .filter(|&i| i == 0 || recs[i - 1].function != recs[i].function)
            .collect();
        let dispatcher_end = runs[1] - 1;
        let entry = recs[0].block_start;
        let rejects = |name: &str, corrupt: &dyn Fn(&mut Parts)| {
            let mut x = Parts::of(&p);
            corrupt(&mut x);
            assert!(x.build().is_none(), "{name}");
        };
        // Each corruption breaks one rule and keeps the others.
        rejects("zero-length branch", &|x| {
            x.recs[3].pc = x.recs[3].fallthrough();
            x.recs[3].len = 0;
        });
        rejects("branch before its block", &|x| {
            let end = x.recs[3].fallthrough();
            x.recs[3].pc = x.recs[3].block_start - 1;
            x.recs[3].len = (end - x.recs[3].pc) as u8;
        });
        rejects("gap between blocks", &|x| x.recs[3].block_start += 1);
        rejects("image past the last block", &|x| x.image.push(0x90));
        rejects("call target off a block", &|x| {
            x.recs[call].target = recs[call].target.map(|t| t + 1);
        });
        rejects("direct kind without a target", &|x| {
            x.recs[uncond].target = None;
        });
        rejects("return with a target", &|x| {
            x.recs[dispatcher_end].target = Some(entry);
        });
        rejects("indirect kind without targets", &|x| {
            x.recs[uncond].kind = BranchKind::IndirectJmp;
            x.recs[uncond].target = None;
        });
        rejects("direct kind with indirect targets", &|x| {
            x.recs[icall].kind = BranchKind::DirectUncond;
            x.recs[icall].target = Some(entry);
        });
        rejects("indirect target off a block", &|x| x.indirect[0] += 1);
        rejects("function out of range", &|x| {
            x.weights.pop();
        });
        rejects("function without records", &|x| x.weights.push(1.0));
        // Function A's first block returns, its other blocks go to the next
        // function B, and B's blocks go to A, so A owns two runs.
        let k = (1..runs.len() - 2)
            .find(|&k| recs[runs[k]].target.is_some())
            .unwrap();
        rejects("function split across runs", &|x| {
            let (a, b) = (recs[runs[k]].function, recs[runs[k + 1]].function);
            x.recs[runs[k]].kind = BranchKind::Return;
            x.recs[runs[k]].target = None;
            for r in &mut x.recs[runs[k] + 1..runs[k + 1]] {
                r.function = b;
            }
            for r in &mut x.recs[runs[k + 1]..runs[k + 2]] {
                r.function = a;
            }
        });
        rejects("run not ending in a return", &|x| {
            x.recs[dispatcher_end].kind = BranchKind::DirectUncond;
            x.recs[dispatcher_end].target = Some(entry);
        });
        rejects("dispatcher not first", &|x| {
            for r in &mut x.recs {
                r.function = match r.function {
                    0 => 1,
                    1 => 0,
                    f => f,
                };
            }
        });
    }

    #[test]
    fn decode_table_equals_fresh_decodes() {
        use skia_core::{shadow_branch_at, DecodedRegion, ShadowBranch, ShadowDecoder};
        let p = Program::generate(&small_spec());
        let line = |addr| p.line(addr);
        // The branches a summary names, re-decoded from their line offsets.
        let redecode = |bytes: &[u8], base: u64, region: &DecodedRegion| -> Vec<ShadowBranch> {
            (0..CACHE_LINE_BYTES)
                .filter(|&i| region.mask >> i & 1 == 1)
                .map(|i| shadow_branch_at(bytes, base, i).expect("a mask bit names a branch"))
                .collect()
        };
        for policy in IndexPolicy::ALL {
            for bound in [1, 6] {
                let decodes = p.decode_table(policy, bound);
                assert!(Arc::ptr_eq(&decodes, &p.decode_table(policy, bound)));
                let mut fresh = ShadowDecoder::new(policy, bound);
                let mut counted = ShadowDecoder::new(policy, bound);
                // Twice: the second round reads filled slots.
                for _ in 0..2 {
                    for r in p.branch_table().records() {
                        let start = r.block_start;
                        let (base, bytes) = p.line(start);
                        let entry = (start - base) as usize;
                        let head = decodes.head(start, line);
                        assert_eq!(head.is_some(), entry != 0, "{start:#x}");
                        if let Some(region) = head {
                            let hd = fresh.decode_head(&bytes, base, entry);
                            assert_eq!(*region, DecodedRegion::from(&hd), "{start:#x}");
                            assert_eq!(redecode(&bytes, base, region), hd.branches, "{start:#x}");
                            counted.count_head(region);
                        }
                        let end = r.fallthrough();
                        let (base, bytes) = p.line(end);
                        let exit = (end - base) as usize;
                        let tail = decodes.tail(end, line);
                        assert_eq!(tail.is_some(), exit != 0, "{end:#x}");
                        if let Some(region) = tail {
                            let want = fresh.decode_tail_ref(&bytes, base, exit);
                            assert_eq!(*region, want, "{end:#x}");
                            let found = ShadowDecoder::default().decode_tail(&bytes, base, exit);
                            assert_eq!(redecode(&bytes, base, region), found, "{end:#x}");
                            counted.count_tail(region);
                        }
                    }
                }
                assert_eq!(counted.stats(), fresh.stats(), "{policy:?}/{bound}");
            }
        }
        assert!(!Arc::ptr_eq(
            &p.decode_table(IndexPolicy::Merge, 6),
            &p.clone().decode_table(IndexPolicy::Merge, 6)
        ));
    }
}
