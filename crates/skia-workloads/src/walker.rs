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

/// Size of the walker's recent-request pool (temporal locality model:
/// servers see bursts of similar requests).
pub(crate) const BURST_POOL: usize = 64;
/// Probability that a dispatcher call repeats a pooled recent target
/// instead of drawing a fresh one.
pub(crate) const BURST_PROB: f64 = 0.5;

/// Deepest call stack a walk keeps. A call past it loses its frame, so the
/// return that would have popped that frame resumes one frame higher, or at
/// the dispatcher once the stack is empty.
pub(crate) const MAX_STACK: usize = 256;

/// A walk's return stack: the record index to resume after each call that
/// kept its frame.
#[derive(Debug, Clone)]
pub(crate) struct CallStack {
    frames: [u32; MAX_STACK],
    depth: usize,
}

impl CallStack {
    pub(crate) fn new() -> Self {
        CallStack {
            frames: [0; MAX_STACK],
            depth: 0,
        }
    }

    /// The record executed after record `cur` of `table`, whose branch was
    /// `taken` and, for an indirect branch, went to record `chosen`. A call
    /// pushes its return record `cur + 1` while the stack is below
    /// [`MAX_STACK`]; a return pops, or resumes at record 0 (the
    /// dispatcher's entry) on an empty stack; an indirect branch goes to
    /// `chosen`; and any other branch goes to its direct target when taken
    /// and its fall-through `cur + 1` when not (a conditional never ends its
    /// function, so that is the same function's next block). The live
    /// walker, whose RNG decides `taken` and `chosen`, and a replay, where
    /// the recording decides them, both step here.
    #[inline]
    pub(crate) fn successor(
        &mut self,
        table: &BranchTable,
        cur: usize,
        taken: bool,
        chosen: usize,
    ) -> usize {
        let kind = table.records()[cur].kind;
        if matches!(kind, BranchKind::Call | BranchKind::IndirectCall) && self.depth < MAX_STACK {
            self.frames[self.depth] = (cur + 1) as u32;
            self.depth += 1;
        }
        match kind {
            BranchKind::Return if self.depth == 0 => 0,
            BranchKind::Return => {
                self.depth -= 1;
                self.frames[self.depth] as usize
            }
            BranchKind::IndirectCall | BranchKind::IndirectJmp => chosen,
            _ if taken => table.target_index(cur),
            _ => cur + 1,
        }
    }
}

/// Infinite trace iterator over a [`Program`].
#[derive(Debug, Clone)]
pub struct Walker<'p> {
    table: &'p BranchTable,
    rng: SmallRng,
    /// Table index of the block currently executing.
    cur: usize,
    stack: CallStack,
    /// Per indirect target, in the table's flat target list (which the
    /// records' runs tile in record order): its tempered pick weight.
    indirect_weight: Vec<f64>,
    /// Per record: a live loop backedge's remaining trip count.
    trips: Vec<Option<u32>>,
    mean_trip: u32,
    /// Table indices of recent dispatcher targets (request-burst temporal
    /// locality), at most [`BURST_POOL`].
    burst_pool: Vec<u32>,
    burst_next: usize,
}

impl<'p> Walker<'p> {
    /// Start walking `program` from the dispatcher (function 0), whose
    /// entry block is the table's first record.
    ///
    /// Weighs every indirect target once: the square root of its function's
    /// hotness, tempered so cold targets recur at long intervals instead of
    /// never (the paper's "cold branch" capacity-miss behaviour, §1), and so
    /// one hot callee does not monopolize a call site.
    #[must_use]
    pub fn new(program: &'p Program, seed: u64, mean_trip: u32) -> Self {
        let table = program.branch_table();
        let recs = table.records();
        let indirect_weight = (0..recs.len())
            .flat_map(|i| table.indirect_indices(i))
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
            stack: CallStack::new(),
            indirect_weight,
            trips: vec![None; recs.len()],
            mean_trip: mean_trip.max(1),
            burst_pool: Vec::with_capacity(BURST_POOL),
            burst_next: 0,
        }
    }

    /// Execute one block: its table index, whether its branch was taken,
    /// and the table index of the next block.
    pub(crate) fn advance(&mut self) -> (usize, bool, usize) {
        let recs = self.table.records();
        let cur = self.cur;
        let t = &recs[cur];
        // The RNG decides a conditional's outcome and an indirect branch's
        // successor; the call stack and the table decide the rest.
        let (taken, chosen) = match t.kind {
            BranchKind::Return | BranchKind::DirectUncond | BranchKind::Call => (true, 0),
            BranchKind::IndirectCall => {
                // Weighted choice among the target set (hotter = likelier).
                // Dispatcher calls additionally model request bursts: most
                // requests repeat a recently seen target, so hot sets stay
                // warm while cold targets recur at long distances.
                let site = self.table.indirect_range(cur);
                let dispatcher = t.function == 0;
                let from_pool =
                    dispatcher && !self.burst_pool.is_empty() && self.rng.gen_bool(BURST_PROB);
                let next = if from_pool {
                    self.burst_pool[self.rng.gen_range(0..self.burst_pool.len())]
                } else {
                    let pick = weighted_pick(&mut self.rng, &self.indirect_weight[site]);
                    let fresh = self.table.indirect_indices(cur)[pick];
                    if dispatcher {
                        if self.burst_pool.len() < BURST_POOL {
                            self.burst_pool.push(fresh);
                        } else {
                            self.burst_pool[self.burst_next] = fresh;
                            self.burst_next = (self.burst_next + 1) % BURST_POOL;
                        }
                    }
                    fresh
                };
                (true, next as usize)
            }
            BranchKind::IndirectJmp => {
                let site = self.table.indirect_indices(cur);
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
                (taken, 0)
            }
        };
        self.cur = self.stack.successor(self.table, cur, taken, chosen);
        (cur, taken, self.cur)
    }
}

impl Iterator for Walker<'_> {
    type Item = TraceStep;

    fn next(&mut self) -> Option<TraceStep> {
        let (cur, taken, next) = self.advance();
        let recs = self.table.records();
        Some(TraceStep::of(&recs[cur], taken, recs[next].block_start))
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
    use skia_isa::encode;

    use super::*;
    use crate::program::{Program, ProgramSpec, IMAGE_BASE};
    use crate::trace::RecordedTrace;

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

    /// A chain of `n` functions, each calling the next and then returning;
    /// the last only returns. Every block is just its terminator.
    fn call_chain(n: usize) -> Program {
        let mut image = Vec::new();
        let mut recs = Vec::new();
        for f in 0..n {
            let mut push = |kind, len: usize, at: u64, target| {
                recs.push(BranchRecord {
                    pc: at,
                    block_start: at,
                    target,
                    insns: 1,
                    function: f as u32,
                    targets_at: 0,
                    len: len as u8,
                    kind,
                    bias: 0,
                    backedge: false,
                });
            };
            if f + 1 < n {
                let at = IMAGE_BASE + image.len() as u64;
                // The next function starts past this call and its return.
                let len = encode::call_rel32(&mut image, 1);
                push(BranchKind::Call, len, at, Some(at + len as u64 + 1));
            }
            let at = IMAGE_BASE + image.len() as u64;
            push(BranchKind::Return, encode::ret(&mut image), at, None);
        }
        Program::from_parts(image, vec![1.0; n], recs, Vec::new()).expect("a chain")
    }

    /// Past [`MAX_STACK`] frames a call loses its frame, and the return that
    /// would have popped it resumes one frame higher; replay applies the
    /// same rule.
    #[test]
    fn replay_past_the_stack_bound_equals_the_live_walk() {
        const FUNCTIONS: usize = 300;
        const STEPS: usize = 2_000;
        let p = call_chain(FUNCTIONS);
        let recs = p.branch_table().records();
        let mut live = Walker::new(&p, 1, 8);
        let mut deepest = 0;
        let steps: Vec<TraceStep> = (0..STEPS)
            .map(|_| {
                let step = live.next().unwrap();
                deepest = deepest.max(live.stack.depth);
                step
            })
            .collect();
        assert_eq!(deepest, MAX_STACK);
        // The last function's return resumes at the return block of the
        // deepest caller that kept its frame, function MAX_STACK - 1.
        let last = &recs[2 * (FUNCTIONS - 1)];
        let step = steps.iter().find(|s| s.branch_pc == last.pc).unwrap();
        assert_eq!(step.next_pc, recs[2 * (MAX_STACK - 1) + 1].block_start);
        // A full cycle: every call, the last return, then the kept frames'
        // returns, the dispatcher's last among them, back at record 0.
        let cycle = (FUNCTIONS - 1) + 1 + MAX_STACK;
        assert_eq!(steps[cycle - 1].next_pc, recs[0].block_start);
        assert!(STEPS > 3 * cycle);

        let trace = RecordedTrace::record(&p, 1, 8, STEPS);
        let replayed: Vec<TraceStep> = trace.replay().collect();
        assert!(replayed == steps, "replay diverges from the live walk");
    }
}
