//! The lockstep trace-replay simulator.
//!
//! Each true-path [`TraceStep`] (one executed basic block) is verified
//! against the blocks the BPU forms. The cycle ledger charges: one block per
//! cycle of IAG bandwidth, FTQ occupancy back-pressure, FDIP prefetch
//! latency, decode throughput, and resteer bubbles (decode-detected early
//! resteers vs. execute-detected late resteers, §2.6). On every resteer the
//! wrong-path blocks the IAG would have formed in the detection shadow are
//! actually formed and their lines actually prefetched, so L1-I pollution by
//! wrong-path FDIP traffic is mechanistic.
//!
//! [`Simulator::step`] is the one per-step body. Its counters are the
//! fields of a simulator-owned [`SimStats`], incremented directly, plus
//! three simulator-owned [`LocalHistogram`](skia_telemetry::LocalHistogram)s;
//! [`Simulator::stats`] adds the computed quantities (cycles, cache levels,
//! Skia, FTQ mean) on demand. [`Simulator::snapshot`] builds a telemetry
//! [`Snapshot`] from that same [`SimStats`], so the stats struct and the
//! exported snapshot are the same numbers by construction.

use std::collections::VecDeque;

use skia_core::Skia;
use skia_isa::{BranchKind, CACHE_LINE_BYTES};
use skia_telemetry::{EventKind, EventTrace, Snapshot, TraceConfig};
use skia_uarch::cache::Hierarchy;
use skia_workloads::{Program, TraceStep};

use crate::bpu::{Bpu, PredictedBlock, MAX_BLOCK_BYTES};
use crate::config::{
    FrontendConfig, BACKEND_DEPTH, DECODE_REPAIR, DECODE_WIDTH, EXEC_DETECT, FETCH_TO_DECODE,
    FTQ_DEPTH, RETIRE_WIDTH,
};
use crate::stats::{ResteerStage, SimStats};
use crate::telemetry::{self, SimHistograms};

/// Average x86 instruction length assumed when estimating decode occupancy
/// of a byte range (retirement counts are exact; this only shapes decode
/// throughput).
const AVG_INSN_BYTES: u64 = 4;

/// The cache line, as an address stride.
const LINE: u64 = CACHE_LINE_BYTES as u64;

/// Most cache lines one predicted block can span: a [`MAX_BLOCK_BYTES`]
/// scan window from any line offset, plus a ≤15-byte terminator straddling
/// one more line boundary — 3 lines at the 64-byte window — with one spare.
const MAX_BLOCK_LINES: usize = MAX_BLOCK_BYTES.div_ceil(LINE) as usize + 3;

/// `sum / count`, or 0 when empty — the arithmetic of
/// `HistogramSnapshot::mean`, so the FTQ mean in [`SimStats`] equals the
/// exported histogram's mean bit for bit.
fn mean(sum: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// The (line address, pre-fetch L1-I residency) pairs of one block, stored
/// inline. Blocks are formed once per IAG cycle — including on every
/// wrong-path cycle — so the previous per-block `Vec<(u64, bool)>` was the
/// simulator's hottest allocation; an inline array eliminates it.
#[derive(Debug, Clone, Copy, Default)]
struct LineSet {
    len: u8,
    lines: [(u64, bool); MAX_BLOCK_LINES],
}

impl LineSet {
    fn push(&mut self, addr: u64, resident: bool) {
        let i = usize::from(self.len);
        assert!(
            i < MAX_BLOCK_LINES,
            "block spans more than {MAX_BLOCK_LINES} lines"
        );
        self.lines[i] = (addr, resident);
        self.len += 1;
    }

    fn len(&self) -> usize {
        usize::from(self.len)
    }

    fn iter(&self) -> impl Iterator<Item = &(u64, bool)> {
        self.lines[..self.len()].iter()
    }
}

/// A formed block plus its timing and pre-fetch L1-I residency snapshot.
#[derive(Debug, Clone)]
struct InFlight {
    block: PredictedBlock,
    iag_cycle: u64,
    decode_start: u64,
    /// (line address, was L1-I resident before this block's prefetches).
    lines: LineSet,
}

/// The front-end simulator.
#[derive(Debug)]
pub struct Simulator<'p> {
    program: &'p Program,
    /// The BTB's CACTI bubble, paid on every resteer.
    btb_bubble: u64,
    bpu: Bpu,
    hier: Hierarchy,
    /// The counter store. Every incremented `u64` field is live; the
    /// computed fields are filled in by [`Simulator::stats`].
    counts: SimStats,
    hists: SimHistograms,
    /// Event trace handle, when tracing is enabled.
    trace: Option<EventTrace>,
    iag_cycle: u64,
    decode_free: u64,
    /// Decode-completion times of in-flight FTQ entries.
    ftq: VecDeque<u64>,
    pending: Option<InFlight>,
    /// Fill-completion cycle of the most recent `prefetch_lines` call.
    last_fill_done: u64,
}

impl<'p> Simulator<'p> {
    /// Build a simulator over `program` with the given configuration. The
    /// BPU starts at the program's dispatcher entry.
    #[must_use]
    pub fn new(program: &'p Program, config: FrontendConfig) -> Self {
        let start = program.functions()[0].entry;
        let decode = config
            .skia
            .map(|s| program.decode_table(s.index_policy, s.max_valid_paths));
        Simulator {
            bpu: Bpu::new(&config, start, program.branch_table(), decode),
            hier: Hierarchy::new(config.hierarchy),
            program,
            btb_bubble: config.btb.extra_cycles(),
            counts: SimStats::default(),
            hists: SimHistograms::default(),
            trace: None,
            iag_cycle: 0,
            decode_free: 0,
            ftq: VecDeque::new(),
            pending: None,
            last_fill_done: 0,
        }
    }

    /// Turn on event tracing (resteers, SBB traffic, BTB misses, prefetch
    /// issues, shadow decodes) and return the trace handle. Idempotent: a
    /// second call returns the existing trace.
    pub fn enable_trace(&mut self, config: TraceConfig) -> EventTrace {
        let trace = self
            .trace
            .get_or_insert_with(|| EventTrace::new(config))
            .clone();
        if let Some(skia) = &mut self.bpu.skia {
            skia.set_trace(trace.clone());
        }
        trace
    }

    /// Replay a step stream to completion and return the statistics.
    /// Recorded traces replay as `run(trace.replay().take(steps))`.
    pub fn run(&mut self, trace: impl Iterator<Item = TraceStep>) -> SimStats {
        for step in trace {
            self.step(&step);
        }
        self.stats()
    }

    /// Replay one trace step: retirement accounting plus lockstep
    /// verification. The simulator's only per-step body.
    #[inline]
    pub fn step(&mut self, step: &TraceStep) {
        self.counts.branches += 1;
        self.counts.instructions += u64::from(step.insns);
        if step.taken {
            self.counts.taken_branches += 1;
        }
        self.verify_step(step);
    }

    /// The statistics so far: the live counts plus the computed fields
    /// (cycles, cache levels, Skia, mean FTQ occupancy). Pure — calling it
    /// twice returns the same value.
    ///
    /// Cycles are closed-form: the decode frontier or the retire-width
    /// floor, whichever binds, plus the back-end depth.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        let retire_floor = self.counts.instructions.div_ceil(RETIRE_WIDTH);
        SimStats {
            cycles: self.decode_free.max(retire_floor) + BACKEND_DEPTH,
            l1i: self.hier.l1i_stats(),
            l2: self.hier.l2_stats(),
            l3: self.hier.l3_stats(),
            skia: self.bpu.skia.as_ref().map(|s| s.stats()),
            mean_ftq_occupancy: mean(
                self.hists.ftq_occupancy.sum(),
                self.hists.ftq_occupancy.count(),
            ),
            ..self.counts.clone()
        }
    }

    /// A fresh [`Snapshot`] — the `--emit-json` payload: [`Simulator::stats`],
    /// the standing histograms and Skia's SBB entry lifetimes, the TAGE pull
    /// counters, and the event trace when enabled. Pure, like `stats`.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        self.stats().write_snapshot(&mut snap);
        let lifetimes = self.bpu.skia.as_ref().map(Skia::entry_lifetimes);
        self.hists.write_snapshot(&mut snap, lifetimes);
        telemetry::write_tage(&mut snap, self.bpu.tage_stats());
        if let Some(t) = &self.trace {
            snap.events = t.events();
            snap.events_seen = t.seen();
            snap.events_dropped = t.dropped();
        }
        snap
    }

    /// Record an event if tracing is enabled (one branch otherwise).
    #[inline]
    fn event(&self, cycle: u64, kind: EventKind, pc: u64, arg: u64) {
        if let Some(t) = &self.trace {
            t.record(cycle, kind, pc, arg);
        }
    }

    // -- block formation & timing ------------------------------------------

    fn form_block(&mut self) -> InFlight {
        // Retire FTQ entries whose decode has completed by now.
        while self.ftq.front().is_some_and(|&t| t <= self.iag_cycle) {
            self.ftq.pop_front();
        }
        // Back-pressure: a full FTQ stalls the IAG until the head drains.
        if self.ftq.len() >= FTQ_DEPTH {
            let head = self.ftq.pop_front().expect("non-empty");
            self.iag_cycle = self.iag_cycle.max(head);
        }
        self.iag_cycle += 1;
        self.hists.ftq_occupancy.record(self.ftq.len() as u64);

        let block = self.bpu.predict_block();
        self.issue_block(block)
    }

    /// Prefetch a block's lines, charge decode timing, run shadow decoding.
    fn issue_block(&mut self, block: PredictedBlock) -> InFlight {
        let lines = self.prefetch_lines(&block);
        let fill_done = self.last_fill_done;
        let frontier = (self.iag_cycle + FETCH_TO_DECODE).max(self.decode_free);
        if frontier > self.decode_free {
            self.counts.idle_resteer_cycles += frontier - self.decode_free;
        }
        let decode_start = frontier.max(fill_done);
        if decode_start > frontier {
            self.counts.idle_icache_cycles += decode_start - frontier;
        }
        let bytes = block.end.saturating_sub(block.start).max(1);
        let decode_cycles = bytes.div_ceil(DECODE_WIDTH * AVG_INSN_BYTES).max(1);
        self.counts.decode_busy_cycles += decode_cycles;
        self.decode_free = decode_start + decode_cycles;
        self.ftq.push_back(self.decode_free);

        // Shadow decoding runs off the critical path once lines are present.
        self.shadow_decode(&block);

        InFlight {
            block,
            iag_cycle: self.iag_cycle,
            decode_start,
            lines,
        }
    }

    /// Drive the Skia shadow-decode hooks for a formed block and record the
    /// batch-size histogram + event.
    fn shadow_decode(&mut self, block: &PredictedBlock) {
        let Some(skia) = &mut self.bpu.skia else {
            return;
        };
        skia.set_cycle(self.iag_cycle);
        let inserted = self.bpu.shadow_decode(self.program, block) as u64;
        self.hists.shadow_batch.record(inserted);
        self.event(
            self.iag_cycle,
            EventKind::ShadowDecode,
            block.start,
            inserted,
        );
    }

    /// Issue the FDIP prefetches for a block's line range. Returns the
    /// per-line pre-fetch L1-I residency and records the fill-completion
    /// cycle in `last_fill_done`.
    fn prefetch_lines(&mut self, block: &PredictedBlock) -> LineSet {
        let first = block.start & !(LINE - 1);
        let last = block.end.saturating_sub(1).max(block.start) & !(LINE - 1);
        let mut lines = LineSet::default();
        let mut max_latency = 0u32;
        let mut la = first;
        loop {
            let (resident, lat) = self.hier.fetch_line_tracking(la, true);
            max_latency = max_latency.max(lat);
            lines.push(la, resident);
            self.event(self.iag_cycle, EventKind::PrefetchIssue, la, u64::from(lat));
            if la >= last {
                break;
            }
            la += LINE;
        }
        self.last_fill_done = self.iag_cycle + u64::from(max_latency);
        lines
    }

    // -- verification -------------------------------------------------------

    fn verify_step(&mut self, step: &TraceStep) {
        loop {
            let pending = match self.pending.take() {
                Some(p) => p,
                None => self.form_block(),
            };
            let branch = pending.block.branch;
            match branch {
                None => {
                    if step.branch_pc >= pending.block.end {
                        // Sequential block fully consumed before the branch.
                        continue;
                    }
                    // A branch the BPU did not know about sits in this block.
                    self.count_btb_miss(step, &pending);
                    if step.taken {
                        self.resteer_missed_taken(step, pending);
                    } else {
                        self.commit_unpredicted(step);
                        if step.block_end() < pending.block.end {
                            self.pending = Some(pending);
                        }
                    }
                    return;
                }
                Some(b) => {
                    if b.pc > step.branch_pc {
                        // True branch comes first and the BPU missed it.
                        self.count_btb_miss(step, &pending);
                        if step.taken {
                            self.resteer_missed_taken(step, pending);
                        } else {
                            self.commit_unpredicted(step);
                            self.pending = Some(pending);
                        }
                        return;
                    }
                    if b.pc < step.branch_pc {
                        // A predicted branch where the true path has none:
                        // a bogus shadow branch (§3.4). Real-BTB entries
                        // cannot land mid-path in a static program.
                        debug_assert!(b.from_sbb, "only the SBB can be bogus here");
                        self.resteer_bogus(&pending, b.pc);
                        continue; // retry the same true step
                    }
                    // Aligned: predicted branch is the true branch.
                    if b.from_sbb {
                        self.count_btb_miss(step, &pending);
                    }
                    let target_ok = !step.taken || b.target == step.next_pc;
                    let correct = b.taken == step.taken && target_ok;
                    self.commit_aligned(step, &b);
                    if correct {
                        if b.from_sbb {
                            self.counts.sbb_rescues += 1;
                            self.event(self.iag_cycle, EventKind::SbbRescue, step.branch_pc, 0);
                        }
                        return;
                    }
                    // Wrong direction or wrong target: late resteer.
                    match step.kind {
                        BranchKind::DirectCond => self.counts.cond_mispredicts += 1,
                        BranchKind::Return => self.counts.return_mispredicts += 1,
                        BranchKind::IndirectJmp | BranchKind::IndirectCall => {
                            self.counts.indirect_mispredicts += 1;
                        }
                        _ => {}
                    }
                    self.do_resteer(&pending, ResteerStage::Execute, step.next_pc, step.taken);
                    return;
                }
            }
        }
    }

    // -- commit paths --------------------------------------------------------

    fn static_target(&self, pc: u64) -> Option<u64> {
        // One record read through the table's line index (O(1)); this runs
        // once per commit.
        self.program.branch_table().target_of(pc)
    }

    fn kind_counters(&mut self, kind: BranchKind) {
        match kind {
            BranchKind::DirectCond => self.counts.cond_branches += 1,
            BranchKind::IndirectJmp | BranchKind::IndirectCall => {
                self.counts.indirect_branches += 1;
            }
            _ => {}
        }
    }

    /// Commit a branch the BPU never predicted (BTB+SBB miss).
    fn commit_unpredicted(&mut self, step: &TraceStep) {
        self.kind_counters(step.kind);
        let st = self.static_target(step.branch_pc);
        self.bpu.commit_branch(
            step.branch_pc,
            step.kind,
            step.taken,
            step.next_pc,
            st,
            step.branch_len,
            None,
        );
    }

    /// Commit a branch that was predicted at the right PC.
    fn commit_aligned(&mut self, step: &TraceStep, b: &crate::bpu::PredictedBranch) {
        self.kind_counters(step.kind);
        let st = self.static_target(step.branch_pc);
        self.bpu.commit_branch(
            step.branch_pc,
            step.kind,
            step.taken,
            step.next_pc,
            st,
            step.branch_len,
            Some(b),
        );
    }

    // -- miss/resteer machinery ----------------------------------------------

    fn count_btb_miss(&mut self, step: &TraceStep, pending: &InFlight) {
        // Only count misses where the branch genuinely was not in the BTB at
        // prediction time (SBB-supplied predictions count: the BTB missed).
        if self.bpu.btb_resident(step.branch_pc) {
            return;
        }
        self.counts.btb_misses += 1;
        let idx = step.kind.index();
        self.counts.btb_misses_by_kind[idx] += 1;
        self.event(
            self.iag_cycle,
            EventKind::BtbMiss,
            step.branch_pc,
            idx as u64,
        );
        if step.taken {
            self.counts.btb_miss_taken += 1;
            if step.kind.sbb_eligible() {
                self.counts.btb_miss_rescuable += 1;
                if self
                    .bpu
                    .skia
                    .as_ref()
                    .is_some_and(|s| s.ever_inserted(step.branch_pc))
                {
                    self.counts.rescuable_seen_before += 1;
                }
            }
        }
        let la = step.branch_pc & !(LINE - 1);
        let resident_before = pending
            .lines
            .iter()
            .find(|&&(a, _)| a == la)
            .map_or_else(|| self.hier.l1i_contains(step.branch_pc), |&(_, r)| r);
        if resident_before {
            self.counts.btb_miss_l1i_resident += 1;
        }
    }

    /// A taken branch the BPU did not know about: classify the detection
    /// stage, commit, and resteer.
    fn resteer_missed_taken(&mut self, step: &TraceStep, pending: InFlight) {
        let stage = match step.kind {
            // Direct unconditional targets are in the bytes: the decoder
            // resteers early. This is exactly the class Skia rescues.
            BranchKind::DirectUncond | BranchKind::Call => ResteerStage::Decode,
            // The decoder identifies a return; if the RAS top is right the
            // early resteer lands on the correct path.
            BranchKind::Return => {
                if self.bpu.ras_top_is(step.next_pc) {
                    ResteerStage::Decode
                } else {
                    self.counts.return_mispredicts += 1;
                    ResteerStage::Execute
                }
            }
            // The decoder identifies a conditional; a decode-time late
            // predict rescues it only if TAGE agrees it is taken.
            BranchKind::DirectCond => {
                self.counts.cond_mispredicts += 1;
                if self.bpu.tage_would_predict(step.branch_pc, true) {
                    ResteerStage::Decode
                } else {
                    ResteerStage::Execute
                }
            }
            // Indirect targets need execution unless ITTAGE already knows.
            BranchKind::IndirectJmp | BranchKind::IndirectCall => {
                if self.bpu.ittage_would_predict(step.branch_pc, step.next_pc) {
                    ResteerStage::Decode
                } else {
                    self.counts.indirect_mispredicts += 1;
                    ResteerStage::Execute
                }
            }
        };
        // Wrong path first (the shadow between mispredict and detection),
        // then repair, then commit on the corrected state.
        self.do_resteer(&pending, stage, step.next_pc, true);
        self.commit_unpredicted(step);
    }

    /// The decoder found no branch where the SBB said there was one.
    fn resteer_bogus(&mut self, pending: &InFlight, bogus_pc: u64) {
        self.counts.bogus_resteers += 1;
        if let Some(skia) = &mut self.bpu.skia {
            skia.set_cycle(self.iag_cycle);
            skia.note_bogus(bogus_pc);
        }
        // Fetch continues sequentially past the phantom branch. Resuming
        // strictly after it guarantees forward progress even if wrong-path
        // shadow decoding re-inserts the same bogus entry (the decoder has
        // established there is no branch *at* this address).
        self.do_resteer(pending, ResteerStage::Decode, bogus_pc + 1, false);
    }

    /// Simulate the wrong-path shadow, repair the IAG, charge the bubble.
    fn do_resteer(
        &mut self,
        pending: &InFlight,
        stage: ResteerStage,
        resume_pc: u64,
        entered_by_branch: bool,
    ) {
        let detect = match stage {
            ResteerStage::Decode => {
                self.counts.decode_resteers += 1;
                pending.decode_start + 1
            }
            ResteerStage::Execute => {
                self.counts.exec_resteers += 1;
                pending.decode_start + EXEC_DETECT
            }
        };

        // Wrong-path fetch: the IAG kept forming blocks (one per cycle,
        // bounded by the FTQ) until the resteer signal arrived. These blocks
        // prefetch real lines — the pollution FDIP mis-speculation causes.
        let shadow_cycles = detect.saturating_sub(pending.iag_cycle);
        let wp_blocks = shadow_cycles.min(FTQ_DEPTH as u64);
        for _ in 0..wp_blocks {
            let blk = self.bpu.predict_block();
            let lines = self.prefetch_lines(&blk);
            self.counts.wrong_path_prefetches += lines.len() as u64;
            self.counts.wrong_path_blocks += 1;
            self.shadow_decode(&blk);
        }

        // Repair: the IAG restarts after the signal plus the repair cycles
        // (plus the CACTI surcharge for oversized BTBs).
        self.iag_cycle = detect + DECODE_REPAIR + self.btb_bubble;
        self.ftq.clear();
        self.bpu.resteer(resume_pc, entered_by_branch);
        self.pending = None;

        // The repair bubble: from the mispredicted block's formation to the
        // IAG restart.
        let repair_latency = self.iag_cycle.saturating_sub(pending.iag_cycle);
        self.hists.resteer_latency.record(repair_latency);
        let stage_arg = match stage {
            ResteerStage::Decode => 0,
            ResteerStage::Execute => 1,
        };
        self.event(detect, EventKind::Resteer, resume_pc, stage_arg);
    }
}

impl<'p> Simulator<'p> {
    /// Mutable access to the BPU (testing and fault-injection aid).
    pub fn bpu_mut(&mut self) -> &mut Bpu {
        &mut self.bpu
    }
}
