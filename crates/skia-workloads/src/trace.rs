//! Materialized traces: record a [`Walker`] stream once, replay it many
//! times.
//!
//! Every figure in the paper is a sweep — one workload trace replayed under
//! many front-end configurations. The live [`Walker`] pays RNG draws, trip
//! bookkeeping and (for indirect calls) a weighted pick on every block, and
//! resolves the program's successors once per walk; a sweep re-pays all of
//! it once per configuration for a stream that is, by construction,
//! identical across configurations. A
//! [`RecordedTrace`] materializes the stream so replay is a pure column
//! read: no RNG, no hashing, no allocation. This is the checkpoint-reuse
//! discipline of SimPoint-style sampling applied to the simulator's own
//! trace generator.
//!
//! A step keeps only what the program cannot re-derive. Its block, branch
//! pc, length, kind and instruction count are one [`BranchTable`] record,
//! so the step stores the record's index (4 bytes) and one taken bit. Its
//! successor is the static target when a direct branch is taken and the
//! fall-through otherwise; only returns and indirect branches, whose
//! successor the walker chose at run time, store it (8 bytes each, in step
//! order). With 28–34% of steps storing one, that is about 6.5 bytes per
//! step.
//!
//! Bit-identity is structural, not probabilistic: [`Replay`] yields the
//! exact [`TraceStep`] values the recording walker produced, because the
//! walker steps by table index, live and replayed steps are built from the
//! same record by one function, and the walker takes a direct branch's
//! successor from its static target or fall-through. A prefix of a longer
//! recording equals a shorter walk from the same seed, because the walker
//! is deterministic — that is what lets the disk cache serve any request no
//! longer than what it stored.

use std::sync::Arc;

use skia_isa::BranchKind;

use crate::program::Program;
use crate::side_table::{BranchRecord, BranchTable};
use crate::walker::{TraceStep, Walker};

/// Whether a step of `kind` stores its successor: the walker picks the
/// successor of a return or an indirect branch at run time, while a direct
/// branch's is its static target or its fall-through.
pub(crate) fn stores_successor(kind: BranchKind) -> bool {
    matches!(
        kind,
        BranchKind::Return | BranchKind::IndirectJmp | BranchKind::IndirectCall
    )
}

/// A recorded walker stream: one [`BranchTable`] index and one taken bit
/// per step, plus the successors of the steps that store one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedTrace {
    /// Seed the recording walker was created with (identity/debug).
    pub seed: u64,
    /// Mean trip count the recording walker was created with.
    pub mean_trip: u32,
    /// The recorded program's branch table, which the indices name.
    pub(crate) table: Arc<BranchTable>,
    /// Table index of each step's terminating branch.
    pub(crate) index: Vec<u32>,
    /// Taken bitset, one bit per step, LSB-first within each word.
    pub(crate) taken: Vec<u64>,
    /// Next executed address of each step whose branch
    /// [stores its successor](stores_successor), in step order.
    pub(crate) successors: Vec<u64>,
}

impl RecordedTrace {
    /// Record `steps` steps of a fresh walker over `program`.
    ///
    /// The walker is constructed locally and dropped afterwards, so
    /// recording can never perturb the RNG state of any other walker (the
    /// differential harness's seed-logged cases replay unchanged).
    ///
    /// # Panics
    ///
    /// Panics if the program holds more than `u32::MAX` branches.
    #[must_use]
    pub fn record(program: &Program, seed: u64, mean_trip: u32, steps: usize) -> Self {
        let table = Arc::clone(program.shared_branch_table());
        let recs = table.records();
        let mut index = Vec::with_capacity(steps);
        let mut taken = vec![0u64; steps.div_ceil(64)];
        let mut successors = Vec::new();
        let mut walker = Walker::new(program, seed, mean_trip);
        for i in 0..steps {
            let (ix, step_taken, next_pc) = walker.advance();
            index.push(u32::try_from(ix).expect("branch table index fits in u32"));
            if step_taken {
                taken[i / 64] |= 1 << (i % 64);
            }
            if stores_successor(recs[ix].kind) {
                successors.push(next_pc);
            }
        }
        RecordedTrace {
            seed,
            mean_trip,
            table,
            index,
            taken,
            successors,
        }
    }

    /// Recorded step count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no steps were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Heap bytes held by the columns (telemetry; the shared branch table
    /// belongs to the program).
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.index.len() * 4 + (self.taken.len() + self.successors.len()) * 8
    }

    /// A copy holding only the first `steps` steps. Because the walker is
    /// deterministic, this equals a fresh recording of `steps` steps from
    /// the same seed — which is what lets the disk cache serve any request
    /// no longer than what it stored.
    ///
    /// # Panics
    ///
    /// Panics if `steps > len()`.
    #[must_use]
    pub fn prefix(&self, steps: usize) -> RecordedTrace {
        assert!(steps <= self.len(), "prefix longer than recording");
        let index = self.index[..steps].to_vec();
        let stored = self
            .successor_count(&index)
            .expect("a recording's indices are in its table's range");
        RecordedTrace {
            seed: self.seed,
            mean_trip: self.mean_trip,
            table: Arc::clone(&self.table),
            taken: masked_prefix(&self.taken, steps),
            successors: self.successors[..stored].to_vec(),
            index,
        }
    }

    /// How many of the steps `index` names store their successor, or
    /// `None` when an index is out of the table's range.
    pub(crate) fn successor_count(&self, index: &[u32]) -> Option<usize> {
        let recs = self.table.records();
        index.iter().try_fold(0, |n, &i| {
            Some(n + usize::from(stores_successor(recs.get(i as usize)?.kind)))
        })
    }

    /// The first step's block start (0 for an empty recording).
    pub(crate) fn first_block_start(&self) -> u64 {
        self.index
            .first()
            .map_or(0, |&i| self.table.records()[i as usize].block_start)
    }

    /// Whether the steps form a walk of the table's program from `first`:
    /// step 0's block starts at `first`, each later step's block starts at
    /// its predecessor's successor, every unconditional branch is taken,
    /// the stored successors are exactly the ones the steps consume, and
    /// the last successor is a block start. An index out of the table's
    /// range fails the check.
    pub(crate) fn is_walk_from(&self, first: u64) -> bool {
        let recs = self.table.records();
        let mut stored = self.successors.iter().copied();
        let mut expect = first;
        for (i, &ix) in self.index.iter().enumerate() {
            let Some(rec) = recs.get(ix as usize) else {
                return false;
            };
            let taken = (self.taken[i / 64] >> (i % 64)) & 1 == 1;
            if rec.block_start != expect || (rec.kind.is_unconditional() && !taken) {
                return false;
            }
            match successor(rec, taken, &mut stored) {
                Some(next) => expect = next,
                None => return false,
            }
        }
        stored.next().is_none() && (self.is_empty() || self.table.block_index(expect).is_some())
    }

    /// Allocation-free, RNG-free iterator over the recorded steps,
    /// bit-identical to the live walk that produced them. May be called
    /// any number of times; `take(n)` for `n <= len()` equals a shorter
    /// walk from the same seed.
    #[must_use]
    pub fn replay(&self) -> Replay<'_> {
        Replay {
            recs: self.table.records(),
            index: &self.index,
            taken: &self.taken,
            successors: self.successors.iter().copied(),
            idx: 0,
        }
    }
}

/// The first `steps` bits of the bitset `words`, with the bits past
/// `steps` in the last word cleared.
pub(crate) fn masked_prefix(words: &[u64], steps: usize) -> Vec<u64> {
    let mut out = words[..steps.div_ceil(64)].to_vec();
    if !steps.is_multiple_of(64) {
        if let Some(last) = out.last_mut() {
            *last &= (1u64 << (steps % 64)) - 1;
        }
    }
    out
}

/// The successor of the step whose branch is `rec`: the next stored
/// successor for a return or an indirect branch, else the static target
/// when taken and the fall-through when not. `None` when a stored
/// successor is due but `stored` is exhausted, or a taken direct branch
/// has no static target.
#[inline]
pub(crate) fn successor(
    rec: &BranchRecord,
    taken: bool,
    stored: &mut impl Iterator<Item = u64>,
) -> Option<u64> {
    if stores_successor(rec.kind) {
        stored.next()
    } else if taken {
        rec.target
    } else {
        Some(rec.fallthrough())
    }
}

/// Iterator over a [`RecordedTrace`]. Pure column and table reads.
#[derive(Debug, Clone)]
pub struct Replay<'t> {
    recs: &'t [BranchRecord],
    index: &'t [u32],
    taken: &'t [u64],
    successors: std::iter::Copied<std::slice::Iter<'t, u64>>,
    idx: usize,
}

impl Iterator for Replay<'_> {
    type Item = TraceStep;

    #[inline]
    fn next(&mut self) -> Option<TraceStep> {
        let i = self.idx;
        let rec = &self.recs[*self.index.get(i)? as usize];
        let taken = (self.taken[i / 64] >> (i % 64)) & 1 == 1;
        let next_pc = successor(rec, taken, &mut self.successors)
            .expect("a recorded trace holds every successor it needs");
        self.idx = i + 1;
        Some(TraceStep::of(rec, taken, next_pc))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.index.len() - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Replay<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramSpec;

    fn program() -> Program {
        Program::generate(&ProgramSpec {
            functions: 40,
            ..ProgramSpec::default()
        })
    }

    #[test]
    fn replay_is_bit_identical_to_live_walk() {
        let p = program();
        let live: Vec<TraceStep> = Walker::new(&p, 42, 8).take(3000).collect();
        let trace = RecordedTrace::record(&p, 42, 8, 3000);
        assert_eq!(trace.len(), 3000);
        let replayed: Vec<TraceStep> = trace.replay().collect();
        assert_eq!(live, replayed);
    }

    #[test]
    fn replay_prefix_equals_shorter_walk() {
        let p = program();
        let trace = RecordedTrace::record(&p, 7, 5, 2048);
        let short: Vec<TraceStep> = Walker::new(&p, 7, 5).take(500).collect();
        let prefix: Vec<TraceStep> = trace.replay().take(500).collect();
        assert_eq!(short, prefix);
    }

    #[test]
    fn replay_is_repeatable_and_exact_size() {
        let p = program();
        let trace = RecordedTrace::record(&p, 1, 8, 100);
        let a: Vec<TraceStep> = trace.replay().collect();
        let b: Vec<TraceStep> = trace.replay().collect();
        assert_eq!(a, b);
        let mut it = trace.replay();
        assert_eq!(it.len(), 100);
        it.next();
        assert_eq!(it.len(), 99);
    }

    #[test]
    fn only_returns_and_indirect_branches_store_successors() {
        let p = program();
        let trace = RecordedTrace::record(&p, 5, 8, 2000);
        let stored = trace
            .replay()
            .filter(|s| stores_successor(s.kind))
            .map(|s| s.next_pc);
        assert!(stored.eq(trace.successors.iter().copied()));
        assert!(trace.successors.len() < trace.len());
        assert_eq!(
            trace.byte_size(),
            2000 * 4 + 2000usize.div_ceil(64) * 8 + trace.successors.len() * 8
        );
    }

    #[test]
    fn empty_recording_replays_nothing() {
        let p = program();
        let trace = RecordedTrace::record(&p, 3, 8, 0);
        assert!(trace.is_empty());
        assert_eq!(trace.replay().count(), 0);
        assert_eq!(trace.byte_size(), 0);
    }
}
