//! Deterministic control-flow walker.
//!
//! Produces the *retired* instruction stream the front-end simulator
//! replays: an infinite iterator of [`TraceStep`]s, one per executed basic
//! block. Outcomes are a pure function of the program, the seed and the
//! step index, so every simulator configuration replays the identical true
//! path (the paper's §5.4 divergence-control concern, solved exactly).
//!
//! Behaviour model:
//!
//! * **Calls** pick the statically encoded callee; **indirect calls/jumps**
//!   choose among their target set, weighted toward hot functions.
//! * **Conditionals**: loop backedges run trip counts drawn around the
//!   spec's mean; other conditionals flip a per-branch biased coin (bias is
//!   a static property of the branch, as in real code).
//! * **Returns** pop the walker's call stack; the dispatcher (function 0)
//!   restarts forever, modeling a server request loop.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skia_isa::BranchKind;

use crate::program::Program;
use crate::side_table::{BranchRecord, BranchTable};

/// One executed basic block and its terminating branch outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Address of the block's first instruction.
    pub block_start: u64,
    /// Address of the terminating branch.
    pub branch_pc: u64,
    /// Encoded length of the branch.
    pub branch_len: u8,
    /// Branch classification.
    pub kind: BranchKind,
    /// Whether the branch was taken.
    pub taken: bool,
    /// The next executed instruction address (target if taken, fallthrough
    /// otherwise).
    pub next_pc: u64,
    /// Instructions executed in this block (terminator included).
    pub insns: u32,
}

impl TraceStep {
    /// The step that executes `rec`'s block, with its branch's outcome.
    /// Live walks and replays both build their steps here.
    #[inline]
    pub(crate) fn of(rec: &BranchRecord, taken: bool, next_pc: u64) -> TraceStep {
        TraceStep {
            block_start: rec.block_start,
            branch_pc: rec.pc,
            branch_len: rec.len,
            kind: rec.kind,
            taken,
            next_pc,
            insns: rec.insns,
        }
    }

    /// First byte after the terminator.
    #[must_use]
    pub fn block_end(&self) -> u64 {
        self.branch_pc + u64::from(self.branch_len)
    }
}

/// Deepest call stack a walk keeps; a call past it loses its frame, so that
/// return resumes at the dispatcher.
const MAX_STACK: usize = 256;

/// Infinite trace iterator over a [`Program`].
#[derive(Debug, Clone)]
pub struct Walker<'p> {
    table: &'p BranchTable,
    rng: SmallRng,
    /// Table index of the block currently executing.
    cur: usize,
    /// Return stack: table index of the block to resume *after* each call.
    stack: Vec<usize>,
    /// Per record: the table index of a direct branch's target.
    target_index: Vec<u32>,
    /// Per indirect target, in the table's flat target list (which the
    /// records' runs tile in record order): its table index and its
    /// tempered pick weight.
    indirect_index: Vec<u32>,
    indirect_weight: Vec<f64>,
    /// Per record: a live loop backedge's remaining trip count.
    trips: Vec<Option<u32>>,
    mean_trip: u32,
    /// Table indices of recent dispatcher targets (request-burst temporal
    /// locality).
    burst_pool: Vec<usize>,
    burst_next: usize,
    burst_prob: f64,
    burst_cap: usize,
}

impl<'p> Walker<'p> {
    /// Start walking `program` from the dispatcher (function 0), whose
    /// entry block is the table's first record.
    ///
    /// Resolves every static successor once: each direct branch's target
    /// and each indirect target to its table index, and each indirect
    /// target's pick weight, the square root of its function's hotness —
    /// tempered so cold targets recur at long intervals instead of never
    /// (the paper's "cold branch" capacity-miss behaviour, §1), and so one
    /// hot callee does not monopolize a call site.
    #[must_use]
    pub fn new(program: &'p Program, seed: u64, mean_trip: u32) -> Self {
        let spec = program.spec_burst();
        let table = program.branch_table();
        let recs = table.records();
        // Targets are block starts: `Program` checks that on construction.
        let block = |target: u64| {
            let i = table.block_index(target).expect("target is a block");
            u32::try_from(i).expect("branch table index fits in u32")
        };
        let target_index = recs.iter().map(|r| r.target.map_or(0, block)).collect();
        let indirect_index: Vec<u32> = (0..recs.len())
            .flat_map(|i| table.indirect_targets(i))
            .map(|&t| block(t))
            .collect();
        let indirect_weight = indirect_index
            .iter()
            .map(|&i| {
                program.functions()[recs[i as usize].function as usize]
                    .weight
                    .sqrt()
            })
            .collect();
        Walker {
            table,
            rng: SmallRng::seed_from_u64(seed ^ 0x57A1_C0DE),
            cur: 0,
            stack: Vec::with_capacity(64),
            target_index,
            indirect_index,
            indirect_weight,
            trips: vec![None; recs.len()],
            mean_trip: mean_trip.max(1),
            burst_pool: Vec::with_capacity(spec.0),
            burst_next: 0,
            burst_prob: spec.1,
            burst_cap: spec.0,
        }
    }

    /// Execute one block: its table index, whether its branch was taken,
    /// and the next executed address.
    pub(crate) fn advance(&mut self) -> (usize, bool, u64) {
        let recs = self.table.records();
        let cur = self.cur;
        let t = &recs[cur];
        let target = self.target_index[cur] as usize;
        let (taken, next) = match t.kind {
            BranchKind::Return => (true, self.stack.pop().unwrap_or(0)),
            BranchKind::DirectUncond => (true, target),
            BranchKind::Call => {
                if self.stack.len() < MAX_STACK {
                    self.stack.push(cur + 1);
                } // else: deepest frame lost; resume collapses to dispatcher
                (true, target)
            }
            BranchKind::IndirectCall => {
                // Weighted choice among the target set (hotter = likelier).
                // Dispatcher calls additionally model request bursts: most
                // requests repeat a recently seen target, so hot sets stay
                // warm while cold targets recur at long distances.
                let site = self.table.indirect_range(cur);
                let dispatcher = t.function == 0;
                let from_pool = dispatcher
                    && self.burst_cap > 0
                    && !self.burst_pool.is_empty()
                    && self.rng.gen_bool(self.burst_prob);
                let next = if from_pool {
                    self.burst_pool[self.rng.gen_range(0..self.burst_pool.len())]
                } else {
                    let pick = weighted_pick(&mut self.rng, &self.indirect_weight[site.clone()]);
                    let fresh = self.indirect_index[site.start + pick] as usize;
                    if dispatcher && self.burst_cap > 0 {
                        if self.burst_pool.len() < self.burst_cap {
                            self.burst_pool.push(fresh);
                        } else {
                            self.burst_pool[self.burst_next] = fresh;
                            self.burst_next = (self.burst_next + 1) % self.burst_cap;
                        }
                    }
                    fresh
                };
                if self.stack.len() < MAX_STACK {
                    self.stack.push(cur + 1);
                }
                (true, next)
            }
            BranchKind::IndirectJmp => {
                let site = &self.indirect_index[self.table.indirect_range(cur)];
                (true, site[self.rng.gen_range(0..site.len())] as usize)
            }
            BranchKind::DirectCond => {
                let taken = if t.backedge {
                    // Trip-counted loop: taken while iterations remain.
                    let mean = self.mean_trip;
                    let slot = &mut self.trips[cur];
                    let remaining = slot.get_or_insert_with(|| {
                        // 1..2·mean, deterministic per (pc, entry).
                        self.rng.gen_range(1..=mean * 2)
                    });
                    if *remaining > 0 {
                        *remaining -= 1;
                        true
                    } else {
                        *slot = None;
                        false
                    }
                } else {
                    // Static per-branch bias. Real conditionals are strongly
                    // bimodal (error paths almost-never, guard checks
                    // almost-always); only a minority are balanced. This is
                    // what lets a TAGE-class predictor reach realistic
                    // accuracy on the synthetic trace.
                    // Half the forward conditionals are almost-always taken:
                    // hot jumps over cold fall-through regions — the very
                    // structure of the paper's Fig. 2 (cold bytes in the
                    // shadow of an executed exit point).
                    // Hot jumps are *very* strongly biased (99.5%): their
                    // cold fall-through regions then recur beyond the BTB's
                    // eviction horizon (genuine capacity-missing "cold"
                    // branches) while staying in the shadow of hot fetches.
                    let p = match t.bias {
                        0..=4 => 0.98,
                        5..=7 => 0.02,
                        8 => 0.10,
                        _ => 0.75,
                    };
                    self.rng.gen_bool(p)
                };
                // A conditional never ends its function, so a fall-through
                // is the same function's next block.
                (taken, if taken { target } else { cur + 1 })
            }
        };

        self.cur = next;
        (cur, taken, recs[next].block_start)
    }
}

impl Iterator for Walker<'_> {
    type Item = TraceStep;

    fn next(&mut self) -> Option<TraceStep> {
        let (index, taken, next_pc) = self.advance();
        Some(TraceStep::of(&self.table.records()[index], taken, next_pc))
    }
}

/// Position in a call site's target list of a pick weighted by `weights`:
/// 30% of picks are uniform, so every callee, however cold, keeps
/// recurring. The weights are summed and scanned left to right: prefix sums
/// or a binary search would round differently and move picks, and every
/// stored trace depends on them.
fn weighted_pick(rng: &mut SmallRng, weights: &[f64]) -> usize {
    debug_assert!(!weights.is_empty());
    if rng.gen_bool(0.30) {
        return rng.gen_range(0..weights.len());
    }
    let total: f64 = weights.iter().sum();
    let mut pick = rng.gen_range(0.0..total.max(1e-12));
    for (i, w) in weights.iter().enumerate() {
        if pick < *w {
            return i;
        }
        pick -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Program, ProgramSpec};

    fn program() -> Program {
        Program::generate(&ProgramSpec {
            functions: 40,
            ..ProgramSpec::default()
        })
    }

    #[test]
    fn steps_chain_consistently() {
        let p = program();
        let mut w = Walker::new(&p, 7, 8);
        let mut prev_next: Option<u64> = None;
        for step in (&mut w).take(5000) {
            if let Some(expected) = prev_next {
                assert_eq!(step.block_start, expected, "steps must chain");
            }
            assert!(step.branch_pc >= step.block_start);
            if !step.taken {
                assert_eq!(step.next_pc, step.block_end());
            }
            prev_next = Some(step.next_pc);
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let p = program();
        let a: Vec<_> = Walker::new(&p, 42, 8).take(2000).collect();
        let b: Vec<_> = Walker::new(&p, 42, 8).take(2000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let p = program();
        let a: Vec<_> = Walker::new(&p, 1, 8).take(2000).collect();
        let b: Vec<_> = Walker::new(&p, 2, 8).take(2000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn walker_visits_many_functions() {
        let p = program();
        let visited: std::collections::HashSet<u64> = Walker::new(&p, 3, 8)
            .take(20_000)
            .map(|s| s.block_start)
            .collect();
        assert!(
            visited.len() > 50,
            "should roam the program, saw {} blocks",
            visited.len()
        );
    }

    #[test]
    fn returns_balance_calls_in_the_long_run() {
        let p = program();
        let mut calls = 0i64;
        let mut rets = 0i64;
        for s in Walker::new(&p, 9, 8).take(50_000) {
            match s.kind {
                BranchKind::Call | BranchKind::IndirectCall => calls += 1,
                BranchKind::Return => rets += 1,
                _ => {}
            }
        }
        // Dispatcher restarts add extra returns bounded by loop count.
        assert!((calls - rets).abs() < calls / 2 + 100, "{calls} vs {rets}");
    }

    #[test]
    fn backedges_terminate() {
        // If loops did not terminate the walker would stick to one block.
        let p = program();
        let steps: Vec<_> = Walker::new(&p, 11, 4).take(10_000).collect();
        let distinct: std::collections::HashSet<u64> =
            steps.iter().map(|s| s.block_start).collect();
        assert!(distinct.len() > 20);
    }
}
