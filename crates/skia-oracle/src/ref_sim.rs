//! Reference BPU and reference front-end simulator.
//!
//! [`RefBpu`] and [`RefSimulator`] re-state the semantics of
//! `skia_frontend::bpu` / `skia_frontend::sim` over the reference
//! structures of this crate: the BTB, the split SBB, the RAS and the
//! L1-I/L2/L3 ladder are the linear-search models from
//! [`crate::ref_uarch`]/[`crate::ref_skia`], the TAGE/ITTAGE predictors are
//! the per-table folds of [`crate::ref_predict`], and the shadow decoder is
//! the table-free [`crate::ref_sbd`]. Nothing stateful is shared with
//! production; the predicted blocks are the reference's own [`RefBlock`]s.
//!
//! The simulator exposes a per-step API ([`RefSimulator::step`] +
//! [`RefSimulator::stats_now`]) so the differential driver can compare
//! full [`SimStats`] after every retired branch, and writes every telemetry
//! event (resteers, SBB traffic, BTB misses, prefetch issues, shadow
//! decodes) into a shared [`EventSink`] in production emission order.

use std::collections::VecDeque;

use skia_core::SkiaConfig;
use skia_isa::BranchKind;
use skia_telemetry::{Event, EventKind};
use skia_workloads::{Program, TraceStep};

use skia_frontend::config::{
    BtbMode, FrontendConfig, BACKEND_DEPTH, DECODE_REPAIR, DECODE_WIDTH, EXEC_DETECT,
    FETCH_TO_DECODE, FTQ_DEPTH, RETIRE_WIDTH,
};
use skia_frontend::stats::{ResteerStage, SimStats};
use skia_frontend::MAX_BLOCK_BYTES;

use crate::ref_predict::{RefIttage, RefIttagePrediction, RefTage, RefTagePrediction};
use crate::ref_skia::{EventSink, RefSkia};
use crate::ref_uarch::{RefBtb, RefHierarchy, RefIdealBtb, RefRas};

/// Average instruction bytes assumed by the decode-occupancy estimate
/// (mirrors the production constant).
const AVG_INSN_BYTES: u64 = 4;

/// Finite or infinite reference BTB.
#[derive(Debug, Clone)]
pub enum RefBtbStore {
    /// Set-associative, LRU.
    Finite(RefBtb),
    /// Unbounded (the paper's infinite-BTB upper bound).
    Infinite(RefIdealBtb),
}

impl RefBtbStore {
    fn lookup(&mut self, pc: u64) -> Option<skia_uarch::btb::BtbEntry> {
        match self {
            RefBtbStore::Finite(b) => b.lookup(pc),
            RefBtbStore::Infinite(b) => b.lookup(pc),
        }
    }

    fn probe(&self, pc: u64) -> Option<skia_uarch::btb::BtbEntry> {
        match self {
            RefBtbStore::Finite(b) => b.probe(pc),
            RefBtbStore::Infinite(b) => b.lookup(pc),
        }
    }

    fn insert(&mut self, pc: u64, kind: BranchKind, target: u64, len: u8) {
        match self {
            RefBtbStore::Finite(b) => b.insert(pc, kind, target, len),
            RefBtbStore::Infinite(b) => b.insert(pc, kind, target, len),
        }
    }

    fn next_at_or_after(&self, pc: u64) -> Option<u64> {
        match self {
            RefBtbStore::Finite(b) => b.next_branch_at_or_after(pc),
            RefBtbStore::Infinite(b) => b.next_branch_at_or_after(pc),
        }
    }
}

/// A branch the reference BPU predicted inside a block.
#[derive(Debug, Clone, Copy)]
pub struct RefBranch {
    /// Branch address.
    pub pc: u64,
    /// Encoded length (from BTB/SBB predecode metadata).
    pub len: u8,
    /// Kind as recorded in the providing structure.
    pub kind: BranchKind,
    /// Predicted direction (`true` for unconditional kinds).
    pub taken: bool,
    /// Predicted next PC when taken.
    pub target: u64,
    /// Whether the SBB (not the BTB) supplied this branch.
    pub from_sbb: bool,
    tage: Option<RefTagePrediction>,
    ittage: Option<RefIttagePrediction>,
}

/// One predicted basic block.
#[derive(Debug, Clone)]
pub struct RefBlock {
    /// First instruction address.
    pub start: u64,
    /// First byte past the block (branch end, or scan-window end).
    pub end: u64,
    /// The terminating branch the BPU knows about, if any.
    pub branch: Option<RefBranch>,
    /// Whether the block was entered through a predicted-taken branch.
    pub entered_by_branch: bool,
}

/// The reference BPU. Block formation, commit-time training and shadow
/// decoding mirror the production `Bpu` call-for-call.
#[derive(Debug)]
pub struct RefBpu {
    /// The reference BTB (public so the fault knob can be reached).
    pub btb: RefBtbStore,
    /// The reference Skia mechanism, when configured.
    pub skia: Option<RefSkia>,
    /// The reference TAGE (public so the fault knob can be reached).
    pub tage: RefTage,
    ittage: RefIttage,
    ras: RefRas,
    spec_pc: u64,
    entered_by_branch: bool,
}

impl RefBpu {
    /// Build from the production front-end configuration.
    pub fn new(config: &FrontendConfig, start_pc: u64, events: EventSink) -> Self {
        let btb = match config.btb {
            BtbMode::Finite(c) => RefBtbStore::Finite(RefBtb::new(c.entries, c.ways)),
            BtbMode::Infinite => RefBtbStore::Infinite(RefIdealBtb::new()),
        };
        RefBpu {
            btb,
            skia: config.skia.map(|sc: SkiaConfig| RefSkia::new(sc, events)),
            tage: RefTage::new(config.tage.clone()),
            ittage: RefIttage::new(
                config.ittage.tables,
                config.ittage.index_bits,
                config.ittage.max_history,
            ),
            ras: RefRas::new(config.ras_depth),
            spec_pc: start_pc,
            entered_by_branch: true,
        }
    }

    /// Redirect the IAG.
    pub fn resteer(&mut self, pc: u64, entered_by_branch: bool) {
        self.spec_pc = pc;
        self.entered_by_branch = entered_by_branch;
    }

    /// Stateless BTB residency probe.
    pub fn btb_resident(&self, pc: u64) -> bool {
        self.btb.probe(pc).is_some()
    }

    /// Form one predicted basic block and advance the speculative PC.
    pub fn predict_block(&mut self) -> RefBlock {
        let start = self.spec_pc;
        let limit = start.saturating_add(MAX_BLOCK_BYTES);
        let entered_by_branch = self.entered_by_branch;

        let cand_btb = self.btb.next_at_or_after(start).filter(|&p| p < limit);
        let cand_sbb = self
            .skia
            .as_ref()
            .and_then(|s| s.next_key_at_or_after(start))
            .filter(|&p| p < limit);
        let branch_pc = match (cand_btb, cand_sbb) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };

        let Some(bpc) = branch_pc else {
            let end = (start | 63) + 1;
            self.spec_pc = end;
            self.entered_by_branch = false;
            return RefBlock {
                start,
                end,
                branch: None,
                entered_by_branch,
            };
        };

        // Retrieval order matters for state: the BTB lookup always runs
        // (ticking a finite BTB's recency clock even when the SBB supplies).
        let (kind, target0, len, from_sbb) = match self.btb.lookup(bpc) {
            Some(e) => (e.kind, e.target, e.len, false),
            None => {
                let hit = self
                    .skia
                    .as_mut()
                    .and_then(|s| s.lookup(bpc))
                    .expect("scan found a key, so one structure must hit");
                (hit.kind, hit.target.unwrap_or(bpc), hit.len, true)
            }
        };
        let fallthrough = bpc + u64::from(len);

        let mut tage_pred = None;
        let mut it_pred = None;
        let (taken, target) = match kind {
            BranchKind::DirectCond => {
                let p = self.tage.predict(bpc);
                let t = (p.taken, target0);
                tage_pred = Some(p);
                t
            }
            BranchKind::DirectUncond | BranchKind::Call => (true, target0),
            BranchKind::Return => (true, self.ras.peek().unwrap_or(target0)),
            BranchKind::IndirectJmp | BranchKind::IndirectCall => {
                let p = self.ittage.predict(bpc);
                let t = p.target.unwrap_or(target0);
                it_pred = Some(p);
                (true, t)
            }
        };

        self.spec_pc = if taken { target } else { fallthrough };
        self.entered_by_branch = taken;
        RefBlock {
            start,
            end: fallthrough,
            branch: Some(RefBranch {
                pc: bpc,
                len,
                kind,
                taken,
                target,
                from_sbb,
                tage: tage_pred,
                ittage: it_pred,
            }),
            entered_by_branch,
        }
    }

    /// Commit a retired branch (training, RAS maintenance, BTB fill,
    /// retired-bit maintenance) — production order preserved.
    #[allow(clippy::too_many_arguments)] // one argument per retired-branch attribute
    pub fn commit_branch(
        &mut self,
        pc: u64,
        kind: BranchKind,
        taken: bool,
        actual_target: u64,
        static_target: Option<u64>,
        len: u8,
        recorded: Option<&RefBranch>,
    ) {
        match kind {
            BranchKind::DirectCond => {
                let pred = match recorded.and_then(|r| r.tage) {
                    Some(p) => p,
                    None => self.tage.predict(pc),
                };
                self.tage.update(pc, &pred, taken);
                self.tage.push_history(taken);
                self.ittage.push_history(taken);
            }
            BranchKind::IndirectJmp | BranchKind::IndirectCall => {
                let pred = match recorded.and_then(|r| r.ittage) {
                    Some(p) => p,
                    None => self.ittage.predict(pc),
                };
                self.ittage.update(&pred, actual_target);
                self.tage.push_history(true);
                self.ittage.push_history(true);
                if kind == BranchKind::IndirectCall {
                    self.ras.push(pc + u64::from(len));
                }
            }
            BranchKind::Call => self.ras.push(pc + u64::from(len)),
            BranchKind::Return => {
                let _ = self.ras.pop();
            }
            BranchKind::DirectUncond => {}
        }

        let btb_target = match kind {
            BranchKind::DirectCond | BranchKind::DirectUncond | BranchKind::Call => {
                static_target.unwrap_or(actual_target)
            }
            _ => actual_target,
        };
        self.btb.insert(pc, kind, btb_target, len);

        if recorded.is_some_and(|r| r.from_sbb) {
            if let Some(skia) = &mut self.skia {
                skia.mark_retired(pc);
            }
        }
    }

    /// TAGE agreement check (decode-time late predict).
    pub fn tage_would_predict(&self, pc: u64, taken: bool) -> bool {
        self.tage.predict(pc).taken == taken
    }

    /// ITTAGE agreement check.
    pub fn ittage_would_predict(&self, pc: u64, target: u64) -> bool {
        self.ittage.predict(pc).target == Some(target)
    }

    /// RAS top check.
    pub fn ras_top_is(&self, target: u64) -> bool {
        self.ras.peek() == Some(target)
    }

    /// Drive the shadow-decode hooks for a formed block; returns the number
    /// of SBB insertions.
    pub fn shadow_decode(&mut self, program: &Program, block: &RefBlock) -> usize {
        let Some(skia) = &mut self.skia else { return 0 };
        let filter = skia.config().filter_btb_resident;
        let btb = &self.btb;
        let known = |pc: u64| filter && btb.probe(pc).is_some();
        let mut inserted = 0;
        if block.entered_by_branch {
            let entry_offset = (block.start % 64) as usize;
            if entry_offset != 0 {
                let (line_base, line) = program.line(block.start);
                inserted +=
                    skia.on_line_entered_filtered(program, &line, line_base, entry_offset, known);
            }
        }
        if let Some(b) = &block.branch {
            if b.taken {
                let end = b.pc + u64::from(b.len);
                let (line_base, line) = program.line(end.saturating_sub(1));
                let exit_offset = (end - line_base) as usize;
                if exit_offset < line.len() {
                    inserted +=
                        skia.on_line_exited_filtered(program, &line, line_base, exit_offset, known);
                }
            }
        }
        inserted
    }
}

/// The oracle's flat counter block (one plain `u64` per `SimStats` scalar
/// the hot path maintains; `cycles` is derived in [`RefSimulator::stats_now`]).
#[derive(Debug, Clone, Copy, Default)]
struct RefCounters {
    instructions: u64,
    branches: u64,
    taken_branches: u64,
    btb_misses: u64,
    btb_miss_l1i_resident: u64,
    btb_miss_taken: u64,
    btb_miss_rescuable: u64,
    sbb_rescues: u64,
    rescuable_seen_before: u64,
    decode_resteers: u64,
    exec_resteers: u64,
    bogus_resteers: u64,
    cond_branches: u64,
    cond_mispredicts: u64,
    indirect_branches: u64,
    indirect_mispredicts: u64,
    return_mispredicts: u64,
    idle_icache_cycles: u64,
    idle_resteer_cycles: u64,
    decode_busy_cycles: u64,
    wrong_path_blocks: u64,
    wrong_path_prefetches: u64,
}

/// A formed block plus its timing and pre-fetch L1-I residency snapshot
/// (the reference keeps a plain `Vec` where production inlines an array).
#[derive(Debug, Clone)]
struct RefInFlight {
    block: RefBlock,
    iag_cycle: u64,
    decode_start: u64,
    lines: Vec<(u64, bool)>,
}

/// The reference front-end simulator.
#[derive(Debug)]
pub struct RefSimulator<'p> {
    program: &'p Program,
    /// The BTB's CACTI bubble, paid on every resteer.
    btb_bubble: u64,
    /// The reference BPU (public so fault knobs can be reached).
    pub bpu: RefBpu,
    hier: RefHierarchy,
    c: RefCounters,
    by_kind: [u64; 6],
    /// Wrapping sum + count of the per-formed-block FTQ occupancy samples
    /// (mirrors the telemetry histogram's mean arithmetic exactly).
    ftq_sum: u64,
    ftq_count: u64,
    iag_cycle: u64,
    decode_free: u64,
    ftq: VecDeque<u64>,
    pending: Option<RefInFlight>,
    last_fill_done: u64,
    events: EventSink,
}

impl<'p> RefSimulator<'p> {
    /// Build the oracle over `program`, emitting events into `events`.
    pub fn new(program: &'p Program, config: FrontendConfig, events: EventSink) -> Self {
        let start = program.functions()[0].entry;
        let bpu = RefBpu::new(&config, start, events.clone());
        RefSimulator {
            events,
            bpu,
            hier: RefHierarchy::new(config.hierarchy),
            program,
            btb_bubble: config.btb.extra_cycles(),
            c: RefCounters::default(),
            by_kind: [0; 6],
            ftq_sum: 0,
            ftq_count: 0,
            iag_cycle: 0,
            decode_free: 0,
            ftq: VecDeque::new(),
            pending: None,
            last_fill_done: 0,
        }
    }

    /// Replay one retired trace step.
    pub fn step(&mut self, step: &TraceStep) {
        self.c.branches += 1;
        self.c.instructions += u64::from(step.insns);
        if step.taken {
            self.c.taken_branches += 1;
        }
        self.verify_step(step);
    }

    /// Materialize the oracle's counters into a [`SimStats`], including the
    /// finalize-formula cycle count (the production `run()` finalizes on
    /// every call, so a per-step comparison sees exactly this value).
    pub fn stats_now(&self) -> SimStats {
        let retire_floor = self.c.instructions.div_ceil(RETIRE_WIDTH);
        SimStats {
            instructions: self.c.instructions,
            cycles: self.decode_free.max(retire_floor) + BACKEND_DEPTH,
            branches: self.c.branches,
            taken_branches: self.c.taken_branches,
            btb_misses: self.c.btb_misses,
            btb_misses_by_kind: self.by_kind,
            btb_miss_l1i_resident: self.c.btb_miss_l1i_resident,
            btb_miss_taken: self.c.btb_miss_taken,
            btb_miss_rescuable: self.c.btb_miss_rescuable,
            sbb_rescues: self.c.sbb_rescues,
            rescuable_seen_before: self.c.rescuable_seen_before,
            decode_resteers: self.c.decode_resteers,
            exec_resteers: self.c.exec_resteers,
            bogus_resteers: self.c.bogus_resteers,
            cond_branches: self.c.cond_branches,
            cond_mispredicts: self.c.cond_mispredicts,
            indirect_branches: self.c.indirect_branches,
            indirect_mispredicts: self.c.indirect_mispredicts,
            return_mispredicts: self.c.return_mispredicts,
            idle_icache_cycles: self.c.idle_icache_cycles,
            idle_resteer_cycles: self.c.idle_resteer_cycles,
            decode_busy_cycles: self.c.decode_busy_cycles,
            wrong_path_blocks: self.c.wrong_path_blocks,
            wrong_path_prefetches: self.c.wrong_path_prefetches,
            l1i: self.hier.l1i_stats(),
            l2: self.hier.l2_stats(),
            l3: self.hier.l3_stats(),
            skia: self.bpu.skia.as_ref().map(RefSkia::stats),
            mean_ftq_occupancy: if self.ftq_count == 0 {
                0.0
            } else {
                self.ftq_sum as f64 / self.ftq_count as f64
            },
        }
    }

    fn event(&self, cycle: u64, kind: EventKind, pc: u64, arg: u64) {
        self.events.borrow_mut().push(Event {
            cycle,
            kind,
            pc,
            arg,
        });
    }

    // -- block formation & timing (mirrors `Simulator`) ---------------------

    fn form_block(&mut self) -> RefInFlight {
        while self.ftq.front().is_some_and(|&t| t <= self.iag_cycle) {
            self.ftq.pop_front();
        }
        if self.ftq.len() >= FTQ_DEPTH {
            let head = self.ftq.pop_front().expect("non-empty");
            self.iag_cycle = self.iag_cycle.max(head);
        }
        self.iag_cycle += 1;
        self.ftq_sum = self.ftq_sum.wrapping_add(self.ftq.len() as u64);
        self.ftq_count += 1;

        let block = self.bpu.predict_block();
        self.issue_block(block)
    }

    fn issue_block(&mut self, block: RefBlock) -> RefInFlight {
        let lines = self.prefetch_lines(&block);
        let fill_done = self.last_fill_done;
        let frontier = (self.iag_cycle + FETCH_TO_DECODE).max(self.decode_free);
        if frontier > self.decode_free {
            self.c.idle_resteer_cycles += frontier - self.decode_free;
        }
        let decode_start = frontier.max(fill_done);
        if decode_start > frontier {
            self.c.idle_icache_cycles += decode_start - frontier;
        }
        let bytes = block.end.saturating_sub(block.start).max(1);
        let decode_cycles = bytes.div_ceil(DECODE_WIDTH * AVG_INSN_BYTES).max(1);
        self.c.decode_busy_cycles += decode_cycles;
        self.decode_free = decode_start + decode_cycles;
        self.ftq.push_back(self.decode_free);

        self.shadow_decode(&block);

        RefInFlight {
            block,
            iag_cycle: self.iag_cycle,
            decode_start,
            lines,
        }
    }

    fn shadow_decode(&mut self, block: &RefBlock) {
        if self.bpu.skia.is_none() {
            return;
        }
        if let Some(skia) = &mut self.bpu.skia {
            skia.set_cycle(self.iag_cycle);
        }
        let inserted = self.bpu.shadow_decode(self.program, block) as u64;
        self.event(
            self.iag_cycle,
            EventKind::ShadowDecode,
            block.start,
            inserted,
        );
    }

    fn prefetch_lines(&mut self, block: &RefBlock) -> Vec<(u64, bool)> {
        let first = block.start & !63;
        let last = block.end.saturating_sub(1).max(block.start) & !63;
        let mut lines = Vec::new();
        let mut max_latency = 0u32;
        let mut la = first;
        loop {
            let resident = self.hier.l1i_contains(la);
            let lat = self.hier.fetch_line(la, true);
            max_latency = max_latency.max(lat);
            lines.push((la, resident));
            self.event(self.iag_cycle, EventKind::PrefetchIssue, la, u64::from(lat));
            if la >= last {
                break;
            }
            la += 64;
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
                        continue;
                    }
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
                        debug_assert!(b.from_sbb, "only the SBB can be bogus here");
                        self.resteer_bogus(&pending, b.pc);
                        continue;
                    }
                    if b.from_sbb {
                        self.count_btb_miss(step, &pending);
                    }
                    let target_ok = !step.taken || b.target == step.next_pc;
                    let correct = b.taken == step.taken && target_ok;
                    self.commit_aligned(step, &b);
                    if correct {
                        if b.from_sbb {
                            self.c.sbb_rescues += 1;
                            self.event(self.iag_cycle, EventKind::SbbRescue, step.branch_pc, 0);
                        }
                        return;
                    }
                    match step.kind {
                        BranchKind::DirectCond => self.c.cond_mispredicts += 1,
                        BranchKind::Return => self.c.return_mispredicts += 1,
                        BranchKind::IndirectJmp | BranchKind::IndirectCall => {
                            self.c.indirect_mispredicts += 1;
                        }
                        _ => {}
                    }
                    self.do_resteer(&pending, ResteerStage::Execute, step.next_pc, step.taken);
                    return;
                }
            }
        }
    }

    // -- commit paths -------------------------------------------------------

    fn static_target(&self, pc: u64) -> Option<u64> {
        self.program.branch_at(pc).and_then(|m| m.target)
    }

    fn kind_counters(&mut self, kind: BranchKind) {
        match kind {
            BranchKind::DirectCond => self.c.cond_branches += 1,
            BranchKind::IndirectJmp | BranchKind::IndirectCall => {
                self.c.indirect_branches += 1;
            }
            _ => {}
        }
    }

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

    fn commit_aligned(&mut self, step: &TraceStep, b: &RefBranch) {
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

    // -- miss/resteer machinery ---------------------------------------------

    fn count_btb_miss(&mut self, step: &TraceStep, pending: &RefInFlight) {
        if self.bpu.btb_resident(step.branch_pc) {
            return;
        }
        self.c.btb_misses += 1;
        let idx = BranchKind::ALL
            .iter()
            .position(|&k| k == step.kind)
            .expect("kind in table");
        self.by_kind[idx] += 1;
        self.event(
            self.iag_cycle,
            EventKind::BtbMiss,
            step.branch_pc,
            idx as u64,
        );
        if step.taken {
            self.c.btb_miss_taken += 1;
            if step.kind.sbb_eligible() {
                self.c.btb_miss_rescuable += 1;
                if self
                    .bpu
                    .skia
                    .as_ref()
                    .is_some_and(|s| s.ever_inserted(step.branch_pc))
                {
                    self.c.rescuable_seen_before += 1;
                }
            }
        }
        let la = step.branch_pc & !63;
        let resident_before = pending
            .lines
            .iter()
            .find(|&&(a, _)| a == la)
            .map_or_else(|| self.hier.l1i_contains(step.branch_pc), |&(_, r)| r);
        if resident_before {
            self.c.btb_miss_l1i_resident += 1;
        }
    }

    fn resteer_missed_taken(&mut self, step: &TraceStep, pending: RefInFlight) {
        let stage = match step.kind {
            BranchKind::DirectUncond | BranchKind::Call => ResteerStage::Decode,
            BranchKind::Return => {
                if self.bpu.ras_top_is(step.next_pc) {
                    ResteerStage::Decode
                } else {
                    self.c.return_mispredicts += 1;
                    ResteerStage::Execute
                }
            }
            BranchKind::DirectCond => {
                self.c.cond_mispredicts += 1;
                if self.bpu.tage_would_predict(step.branch_pc, true) {
                    ResteerStage::Decode
                } else {
                    ResteerStage::Execute
                }
            }
            BranchKind::IndirectJmp | BranchKind::IndirectCall => {
                if self.bpu.ittage_would_predict(step.branch_pc, step.next_pc) {
                    ResteerStage::Decode
                } else {
                    self.c.indirect_mispredicts += 1;
                    ResteerStage::Execute
                }
            }
        };
        self.do_resteer(&pending, stage, step.next_pc, true);
        self.commit_unpredicted(step);
    }

    fn resteer_bogus(&mut self, pending: &RefInFlight, bogus_pc: u64) {
        self.c.bogus_resteers += 1;
        if let Some(skia) = &mut self.bpu.skia {
            skia.set_cycle(self.iag_cycle);
            skia.note_bogus(bogus_pc);
        }
        self.do_resteer(pending, ResteerStage::Decode, bogus_pc + 1, false);
    }

    fn do_resteer(
        &mut self,
        pending: &RefInFlight,
        stage: ResteerStage,
        resume_pc: u64,
        entered_by_branch: bool,
    ) {
        let detect = match stage {
            ResteerStage::Decode => {
                self.c.decode_resteers += 1;
                pending.decode_start + 1
            }
            ResteerStage::Execute => {
                self.c.exec_resteers += 1;
                pending.decode_start + EXEC_DETECT
            }
        };

        let shadow_cycles = detect.saturating_sub(pending.iag_cycle);
        let wp_blocks = shadow_cycles.min(FTQ_DEPTH as u64);
        for _ in 0..wp_blocks {
            let blk = self.bpu.predict_block();
            let lines = self.prefetch_lines(&blk);
            self.c.wrong_path_prefetches += lines.len() as u64;
            self.c.wrong_path_blocks += 1;
            self.shadow_decode(&blk);
        }

        self.iag_cycle = detect + DECODE_REPAIR + self.btb_bubble;
        self.ftq.clear();
        self.bpu.resteer(resume_pc, entered_by_branch);
        self.pending = None;

        let stage_arg = match stage {
            ResteerStage::Decode => 0,
            ResteerStage::Execute => 1,
        };
        self.event(detect, EventKind::Resteer, resume_pc, stage_arg);
    }
}
