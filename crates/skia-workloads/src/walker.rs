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
use std::collections::HashMap;

use crate::program::Program;
use crate::side_table::BranchRecord;

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

/// Infinite trace iterator over a [`Program`].
#[derive(Debug, Clone)]
pub struct Walker<'p> {
    program: &'p Program,
    rng: SmallRng,
    /// Table index of the block currently executing.
    cur: usize,
    /// Return stack: table index of the block to resume *after* each call.
    stack: Vec<usize>,
    /// Live loop trip counters, keyed by backedge pc.
    trips: HashMap<u64, u32>,
    mean_trip: u32,
    max_stack: usize,
    /// Recent dispatcher targets (request-burst temporal locality).
    burst_pool: Vec<u64>,
    burst_next: usize,
    burst_prob: f64,
    burst_cap: usize,
}

impl<'p> Walker<'p> {
    /// Start walking `program` from the dispatcher (function 0), whose
    /// entry block is the table's first record.
    #[must_use]
    pub fn new(program: &'p Program, seed: u64, mean_trip: u32) -> Self {
        let spec = program.spec_burst();
        Walker {
            program,
            rng: SmallRng::seed_from_u64(seed ^ 0x57A1_C0DE),
            cur: 0,
            stack: Vec::with_capacity(64),
            trips: HashMap::new(),
            mean_trip: mean_trip.max(1),
            max_stack: 256,
            burst_pool: Vec::with_capacity(spec.0),
            burst_next: 0,
            burst_prob: spec.1,
            burst_cap: spec.0,
        }
    }

    /// Execute one block: its table index, whether its branch was taken,
    /// and the next executed address.
    pub(crate) fn advance(&mut self) -> (usize, bool, u64) {
        let program = self.program;
        let table = program.branch_table();
        let recs = table.records();
        let cur = self.cur;
        let t = &recs[cur];
        // Targets are block starts: `Program` checks that on construction.
        let block = |target: u64| table.block_index(target).expect("target is a block");

        let (taken, next_pc, next) = match t.kind {
            BranchKind::Return => {
                let resume = self.stack.pop().unwrap_or(0);
                (true, recs[resume].block_start, resume)
            }
            BranchKind::DirectUncond => {
                let target = t.target.expect("uncond has target");
                (true, target, block(target))
            }
            BranchKind::Call => {
                let target = t.target.expect("call has target");
                if self.stack.len() < self.max_stack {
                    self.stack.push(cur + 1);
                } // else: deepest frame lost; resume collapses to dispatcher
                (true, target, block(target))
            }
            BranchKind::IndirectCall => {
                // Weighted choice among the target set (hotter = likelier).
                // Dispatcher calls additionally model request bursts: most
                // requests repeat a recently seen target, so hot sets stay
                // warm while cold targets recur at long distances.
                let targets = table.indirect_targets(cur);
                let dispatcher = t.function == 0;
                let from_pool = dispatcher
                    && self.burst_cap > 0
                    && !self.burst_pool.is_empty()
                    && self.rng.gen_bool(self.burst_prob);
                let target = if from_pool {
                    self.burst_pool[self.rng.gen_range(0..self.burst_pool.len())]
                } else {
                    let fresh = *weighted_pick(&mut self.rng, program, targets);
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
                if self.stack.len() < self.max_stack {
                    self.stack.push(cur + 1);
                }
                (true, target, block(target))
            }
            BranchKind::IndirectJmp => {
                let targets = table.indirect_targets(cur);
                let target = targets[self.rng.gen_range(0..targets.len())];
                (true, target, block(target))
            }
            BranchKind::DirectCond => {
                let taken = if t.backedge {
                    // Trip-counted loop: taken while iterations remain.
                    let mean = self.mean_trip;
                    let remaining = self.trips.entry(t.pc).or_insert_with(|| {
                        // 1..2·mean, deterministic per (pc, entry).
                        self.rng.gen_range(1..=mean * 2)
                    });
                    if *remaining > 0 {
                        *remaining -= 1;
                        true
                    } else {
                        self.trips.remove(&t.pc);
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
                if taken {
                    let target = t.target.expect("cond has target");
                    (true, target, block(target))
                } else {
                    // A conditional never ends its function, so the next
                    // record is the same function's next block.
                    (false, t.fallthrough(), cur + 1)
                }
            }
        };

        self.cur = next;
        (cur, taken, next_pc)
    }
}

impl Iterator for Walker<'_> {
    type Item = TraceStep;

    fn next(&mut self) -> Option<TraceStep> {
        let (index, taken, next_pc) = self.advance();
        let rec = &self.program.branch_table().records()[index];
        Some(TraceStep::of(rec, taken, next_pc))
    }
}

/// Pick an address from `targets`, weighted by the owning function's
/// hotness — tempered so cold targets recur at long intervals instead of
/// never (the paper's "cold branch" capacity-miss behaviour, §1).
fn weighted_pick<'a>(rng: &mut SmallRng, program: &Program, targets: &'a [u64]) -> &'a u64 {
    debug_assert!(!targets.is_empty());
    // 30% of picks are uniform: every callee, however cold, keeps recurring.
    if rng.gen_bool(0.30) {
        return &targets[rng.gen_range(0..targets.len())];
    }
    // Tempered hotness (square root) flattens the Zipf head so one hot
    // callee does not monopolize a call site.
    let table = program.branch_table();
    let weights: Vec<f64> = targets
        .iter()
        .map(|&t| {
            let i = table.block_index(t).expect("target is a block");
            program.functions()[table.records()[i].function as usize]
                .weight
                .sqrt()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    let mut pick = rng.gen_range(0.0..total.max(1e-12));
    for (i, w) in weights.iter().enumerate() {
        if pick < *w {
            return &targets[i];
        }
        pick -= w;
    }
    targets.last().expect("nonempty")
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
