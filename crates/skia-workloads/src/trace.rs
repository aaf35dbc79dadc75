//! Materialized traces: record a [`Walker`] stream once, replay it many
//! times.
//!
//! Every figure in the paper is a sweep — one workload trace replayed under
//! many front-end configurations. The live [`Walker`] pays RNG draws, trip
//! bookkeeping and (for indirect calls) a weighted pick on every block; a
//! sweep re-pays all of it once per configuration for a stream that is, by
//! construction, identical across configurations. A [`RecordedTrace`]
//! materializes the stream so replay is a pure column read: no RNG, no
//! hashing, no allocation. This is the checkpoint-reuse discipline of
//! SimPoint-style sampling applied to the simulator's own trace generator.
//!
//! A recording keeps only the walker's decisions. A step's block is its
//! predecessor's successor, and the successor of a call, a return or a
//! direct branch follows from the program, a call stack and the step's
//! taken bit; only an indirect branch's successor is the walker's choice.
//! So a recording is the step count, one taken bit per step and, for each
//! indirect step, the record index it went to: under a byte per step. A
//! position in the site's own target list would not do, because a
//! request-burst pick may name another dispatcher site's target.
//!
//! Bit-identity is structural, not probabilistic: [`Replay`] yields the
//! exact [`TraceStep`] values the recording walker produced, because both
//! step through one successor function with the same decisions and build
//! their steps from the same record. A prefix of a longer recording equals
//! a shorter walk from the same seed, because the walker is deterministic —
//! that is what lets the disk cache serve any request no longer than what
//! it stored.

use std::sync::Arc;

use crate::program::Program;
use crate::side_table::{is_indirect, BranchTable};
use crate::walker::{CallStack, TraceStep, Walker};

/// A recorded walker stream: one taken bit per step, plus the successor
/// record index of each indirect step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedTrace {
    /// The recorded program's branch table, which the steps walk.
    pub(crate) table: Arc<BranchTable>,
    /// Recorded step count.
    pub(crate) steps: usize,
    /// Taken bitset, one bit per step, LSB-first within each word.
    pub(crate) taken: Vec<u64>,
    /// The table index each indirect step went to, in step order.
    pub(crate) choices: Vec<u32>,
}

impl RecordedTrace {
    /// Record `steps` steps of a fresh walker over `program`.
    ///
    /// The walker is constructed locally and dropped afterwards, so
    /// recording can never perturb the RNG state of any other walker (the
    /// differential harness's seed-logged cases replay unchanged).
    #[must_use]
    pub fn record(program: &Program, seed: u64, mean_trip: u32, steps: usize) -> Self {
        let table = Arc::clone(program.shared_branch_table());
        let recs = table.records();
        let mut taken = vec![0u64; steps.div_ceil(64)];
        let mut choices = Vec::new();
        let mut walker = Walker::new(program, seed, mean_trip);
        for i in 0..steps {
            let (cur, step_taken, next) = walker.advance();
            taken[i / 64] |= u64::from(step_taken) << (i % 64);
            if is_indirect(recs[cur].kind) {
                choices.push(next as u32);
            }
        }
        RecordedTrace {
            table,
            steps,
            taken,
            choices,
        }
    }

    /// Recorded step count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps
    }

    /// Whether no steps were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }

    /// Heap bytes held by the columns (telemetry; the shared branch table
    /// belongs to the program).
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.taken.len() * 8 + self.choices.len() * 4
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
        let used = self
            .choices_within(steps)
            .expect("a recording forms a walk");
        RecordedTrace {
            table: Arc::clone(&self.table),
            steps,
            taken: masked_prefix(self.taken.iter().copied(), steps),
            choices: self.choices[..used].to_vec(),
        }
    }

    /// How many choices the first `steps` steps consume, or `None` unless
    /// they form a walk of the table's program: every unconditional branch
    /// taken, and every indirect step holding a choice that is a record
    /// index. A loaded trace must pass this before anything replays it.
    pub(crate) fn choices_within(&self, steps: usize) -> Option<usize> {
        let mut replay = self.replay();
        for _ in 0..steps {
            replay.advance()?;
        }
        Some(replay.used)
    }

    /// Allocation-free, RNG-free iterator over the recorded steps,
    /// bit-identical to the live walk that produced them. May be called
    /// any number of times; `take(n)` for `n <= len()` equals a shorter
    /// walk from the same seed.
    #[must_use]
    pub fn replay(&self) -> Replay<'_> {
        Replay {
            table: &self.table,
            taken: &self.taken,
            choices: &self.choices,
            steps: self.steps,
            idx: 0,
            used: 0,
            cur: 0,
            stack: CallStack::new(),
        }
    }
}

/// The first `steps` bits of the bitset `words`, with the bits past
/// `steps` in the last word cleared.
pub(crate) fn masked_prefix(words: impl IntoIterator<Item = u64>, steps: usize) -> Vec<u64> {
    let mut out: Vec<u64> = words.into_iter().take(steps.div_ceil(64)).collect();
    if !steps.is_multiple_of(64) {
        if let Some(last) = out.last_mut() {
            *last &= (1u64 << (steps % 64)) - 1;
        }
    }
    out
}

/// Iterator over a [`RecordedTrace`]: the walk from record 0 that the
/// recorded decisions steer.
#[derive(Debug, Clone)]
pub struct Replay<'t> {
    table: &'t BranchTable,
    taken: &'t [u64],
    choices: &'t [u32],
    steps: usize,
    /// Steps yielded so far.
    idx: usize,
    /// Choices consumed so far.
    used: usize,
    /// Table index of the next step's block.
    cur: usize,
    stack: CallStack,
}

impl Replay<'_> {
    /// The next step's table index, taken bit and successor's table index;
    /// `None` past the last step, or where the steps stop forming a walk (an
    /// unconditional branch not taken, or an indirect step without a choice
    /// or whose choice is no record index), which a recorded or checked
    /// trace never does.
    #[inline]
    fn advance(&mut self) -> Option<(usize, bool, usize)> {
        let i = self.idx;
        if i == self.steps {
            return None;
        }
        let cur = self.cur;
        let kind = self.table.records()[cur].kind;
        let taken = (self.taken[i / 64] >> (i % 64)) & 1 == 1;
        if kind.is_unconditional() && !taken {
            return None;
        }
        let chosen = if is_indirect(kind) {
            let chosen = *self.choices.get(self.used)? as usize;
            if chosen >= self.table.len() {
                return None;
            }
            self.used += 1;
            chosen
        } else {
            0
        };
        self.cur = self.stack.successor(self.table, cur, taken, chosen);
        self.idx = i + 1;
        Some((cur, taken, self.cur))
    }
}

impl Iterator for Replay<'_> {
    type Item = TraceStep;

    #[inline]
    fn next(&mut self) -> Option<TraceStep> {
        let (cur, taken, next) = self.advance()?;
        let recs = self.table.records();
        Some(TraceStep::of(&recs[cur], taken, recs[next].block_start))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.steps - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Replay<'_> {}

#[cfg(test)]
mod tests {
    use skia_isa::BranchKind;

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
    fn only_indirect_steps_store_their_successor() {
        let p = program();
        let trace = RecordedTrace::record(&p, 5, 8, 2000);
        let recs = p.branch_table().records();
        let chosen = trace
            .replay()
            .filter(|s| is_indirect(s.kind))
            .map(|s| s.next_pc);
        let stored = trace.choices.iter().map(|&i| recs[i as usize].block_start);
        assert!(chosen.eq(stored));
        assert!(!trace.choices.is_empty() && trace.choices.len() < trace.len() / 4);
        assert_eq!(
            trace.byte_size(),
            2000usize.div_ceil(64) * 8 + trace.choices.len() * 4
        );
    }

    #[test]
    fn a_replay_stops_where_the_steps_stop_forming_a_walk() {
        let p = program();
        let trace = RecordedTrace::record(&p, 5, 8, 600);
        let steps: Vec<TraceStep> = trace.replay().collect();
        assert_eq!(trace.choices_within(600), Some(trace.choices.len()));
        // Clearing a return's taken bit, or pointing the first indirect step
        // past the table, ends the walk at that step.
        let uncond = steps
            .iter()
            .position(|s| s.kind == BranchKind::Return)
            .unwrap();
        let mut bad = trace.clone();
        bad.taken[uncond / 64] &= !(1 << (uncond % 64));
        assert_eq!(bad.replay().count(), uncond);
        assert_eq!(bad.choices_within(uncond), trace.choices_within(uncond));
        assert_eq!(bad.choices_within(uncond + 1), None);
        let first = steps.iter().position(|s| is_indirect(s.kind)).unwrap();
        let mut bad = trace.clone();
        bad.choices[0] = p.branch_count() as u32;
        assert_eq!(bad.replay().count(), first);
        // A recording missing its last choice stops at its last indirect
        // step.
        let last = steps.iter().rposition(|s| is_indirect(s.kind)).unwrap();
        let mut bad = trace.clone();
        bad.choices.pop();
        assert_eq!(bad.replay().count(), last);
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
