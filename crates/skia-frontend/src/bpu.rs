//! The Branch Prediction Unit: BTB ∥ SBB, TAGE, ITTAGE and RAS behind one
//! block-forming interface (the IAG of the paper's Fig. 4, with Skia's
//! Fig. 11 attachment).
//!
//! [`Bpu::predict_block`] forms one predicted basic block from the current
//! speculative PC: it scans for the next branch the BPU *knows about* (a BTB
//! or SBB resident entry — exactly the knowledge horizon of real hardware;
//! branches absent from both are invisible until decode), predicts its
//! outcome, and advances the speculative PC. Prediction is read-only on
//! predictor state; training happens at commit ([`Bpu::commit_branch`]),
//! which the lockstep replay makes equivalent to speculative-update with
//! exact repair (see the crate docs for the modeling note).

use std::sync::Arc;

use skia_core::{DecodeTable, Skia};
use skia_isa::BranchKind;
use skia_uarch::btb::{Btb, IdealBtb};
use skia_uarch::ittage::Ittage;
use skia_uarch::line_bitmap::{first_set_in, LineBitmap};
use skia_uarch::ras::ReturnAddressStack;
use skia_uarch::tage::{Tage, TagePrediction};
use skia_workloads::{BranchTable, Program};

use crate::config::{BtbMode, FrontendConfig};

/// The BTB's entries: set-associative or infinite.
#[derive(Debug, Clone)]
enum BtbArray {
    Finite(Btb),
    Infinite(IdealBtb),
}

/// Finite or infinite BTB behind one interface, with a bitmap of its
/// resident pcs.
#[derive(Debug, Clone)]
struct BtbStore {
    array: BtbArray,
    /// Exactly the pcs `array` holds, kept in step through the evicted pc
    /// [`Btb::insert`] returns (an [`IdealBtb`] never evicts). Every pc the
    /// BTB can hold is a static branch (the only insert site is
    /// `commit_branch`), so the bitmap is dense over the program's
    /// branch-bearing lines.
    resident: LineBitmap,
}

impl BtbStore {
    fn lookup(&mut self, pc: u64) -> Option<skia_uarch::btb::BtbEntry> {
        match &mut self.array {
            BtbArray::Finite(b) => b.lookup(pc),
            BtbArray::Infinite(b) => b.lookup(pc),
        }
    }

    fn insert(&mut self, pc: u64, kind: BranchKind, target: u64, len: u8) {
        match &mut self.array {
            BtbArray::Finite(b) => {
                if let Some(victim) = b.insert(pc, kind, target, len) {
                    self.resident.remove(victim);
                }
            }
            BtbArray::Infinite(b) => b.insert(pc, kind, target, len),
        }
        self.resident.insert(pc);
    }
}

/// A branch the BPU predicted inside a block.
#[derive(Debug, Clone, Copy)]
pub struct PredictedBranch {
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
    /// TAGE prediction record for conditional branches.
    pub tage: Option<TagePrediction>,
    /// ITTAGE prediction record for indirect branches.
    pub ittage: Option<skia_uarch::ittage::IttagePrediction>,
}

/// One predicted basic block (an FTQ entry).
#[derive(Debug, Clone)]
pub struct PredictedBlock {
    /// First instruction address.
    pub start: u64,
    /// First byte past the block (branch end, or scan-window end).
    pub end: u64,
    /// The terminating branch the BPU knows about, if any.
    pub branch: Option<PredictedBranch>,
    /// Predicted successor address.
    pub next_pc: u64,
    /// Whether this block was entered through a predicted-taken branch
    /// (controls head shadow decoding eligibility).
    pub entered_by_branch: bool,
}

/// The BPU.
#[derive(Debug, Clone)]
pub struct Bpu {
    btb: BtbStore,
    /// Skia mechanism, when configured.
    pub skia: Option<Skia>,
    tage: Tage,
    ittage: Ittage,
    ras: ReturnAddressStack,
    spec_pc: u64,
    entered_by_branch: bool,
    max_block_bytes: u64,
}

impl Bpu {
    /// Build the BPU from the front-end configuration. `table` is the
    /// program's precomputed branch side table (see
    /// [`Program::branch_table`](skia_workloads::Program::branch_table)),
    /// whose lines the BTB residency bitmap covers. Skia, when configured,
    /// reads shadow regions through `decode` (the program's
    /// [`Program::decode_table`] for its policy and bound) and decodes
    /// every region afresh without one.
    #[must_use]
    pub fn new(
        config: &FrontendConfig,
        start_pc: u64,
        table: &BranchTable,
        decode: Option<Arc<DecodeTable>>,
    ) -> Self {
        let btb = BtbStore {
            array: match config.btb {
                BtbMode::Finite(c) => BtbArray::Finite(Btb::new(c)),
                BtbMode::Infinite => BtbArray::Infinite(IdealBtb::new()),
            },
            resident: LineBitmap::covering(table.lines()),
        };
        Bpu {
            btb,
            skia: config.skia.map(|c| match decode {
                Some(d) => Skia::with_table(c, d),
                None => Skia::new(c),
            }),
            tage: Tage::new(config.tage.clone()),
            ittage: Ittage::new(
                config.ittage.tables,
                config.ittage.index_bits,
                config.ittage.max_history,
            ),
            ras: ReturnAddressStack::new(config.ras_depth),
            spec_pc: start_pc,
            entered_by_branch: true,
            max_block_bytes: config.max_block_bytes,
        }
    }

    /// Current speculative PC.
    #[must_use]
    pub fn spec_pc(&self) -> u64 {
        self.spec_pc
    }

    /// Redirect the IAG (resteer).
    pub fn resteer(&mut self, pc: u64, entered_by_branch: bool) {
        self.spec_pc = pc;
        self.entered_by_branch = entered_by_branch;
    }

    /// Was the branch at `pc` resident in the BTB (no state change)?
    #[must_use]
    pub fn btb_resident(&self, pc: u64) -> bool {
        self.btb.resident.contains(pc)
    }

    /// Form one predicted basic block from the speculative PC and advance it.
    pub fn predict_block(&mut self) -> PredictedBlock {
        let start = self.spec_pc;
        let limit = start.saturating_add(self.max_block_bytes);
        let entered_by_branch = self.entered_by_branch;

        // Where is the next branch the BPU knows about? BTB and SBB are
        // scanned in parallel (Fig. 11): the lowest pc either one holds, read
        // from the OR of their resident bitmaps line by line. The lookup
        // below tries the BTB first, so the BTB wins ties.
        let btb = &self.btb.resident;
        let sbb = self.skia.as_ref().map(Skia::sbb_resident);
        let branch_pc = first_set_in(start, limit, |base| {
            btb.line(base) | sbb.map_or(0, |s| s.line(base))
        });

        let Some(bpc) = branch_pc else {
            // No known branch in the window: sequential block to the end of
            // the scan window, aligned to the line grid.
            let end = (start | 63) + 1;
            self.spec_pc = end;
            self.entered_by_branch = false;
            return PredictedBlock {
                start,
                end,
                branch: None,
                next_pc: end,
                entered_by_branch,
            };
        };

        // Retrieve the entry: BTB first, SBB as the miss fallback.
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
            BranchKind::Return => {
                // RAS supplies the target; BTB target is the stale fallback.
                let t = self.ras.peek().unwrap_or(target0);
                (true, t)
            }
            BranchKind::IndirectJmp | BranchKind::IndirectCall => {
                let p = self.ittage.predict(bpc);
                let t = p.target.unwrap_or(target0);
                it_pred = Some(p);
                (true, t)
            }
        };

        let next_pc = if taken { target } else { fallthrough };
        self.spec_pc = next_pc;
        self.entered_by_branch = taken;
        PredictedBlock {
            start,
            end: fallthrough,
            branch: Some(PredictedBranch {
                pc: bpc,
                len,
                kind,
                taken,
                target,
                from_sbb,
                tage: tage_pred,
                ittage: it_pred,
            }),
            next_pc,
            entered_by_branch,
        }
    }

    /// Commit a retired branch: train every predictor, maintain the RAS,
    /// install/refresh the BTB entry, and push global history.
    ///
    /// `recorded` carries the prediction records when this branch was
    /// actually predicted (case C); for branches the BPU never saw, fresh
    /// prediction records are computed at the (identical) history point.
    #[allow(clippy::too_many_arguments)] // one argument per retired-branch attribute
    pub fn commit_branch(
        &mut self,
        pc: u64,
        kind: BranchKind,
        taken: bool,
        actual_target: u64,
        static_target: Option<u64>,
        len: u8,
        recorded: Option<&PredictedBranch>,
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
                self.ittage.update(pc, &pred, actual_target);
                // Path bit keeps indirect history flowing on taken control
                // transfers.
                self.tage.push_history(true);
                self.ittage.push_history(true);
                if kind == BranchKind::IndirectCall {
                    self.ras.push(pc + u64::from(len));
                }
            }
            BranchKind::Call => {
                self.ras.push(pc + u64::from(len));
            }
            BranchKind::Return => {
                let _ = self.ras.pop();
            }
            BranchKind::DirectUncond => {}
        }

        // Every decoded/retired branch is placed in the BTB (§1: missing
        // branches "typically have previously been decoded and placed in the
        // BTB").
        let btb_target = match kind {
            BranchKind::DirectCond | BranchKind::DirectUncond | BranchKind::Call => {
                static_target.unwrap_or(actual_target)
            }
            _ => actual_target,
        };
        self.btb.insert(pc, kind, btb_target, len);

        // Retired-bit maintenance for SBB-supplied predictions (§4.3).
        if recorded.is_some_and(|r| r.from_sbb) {
            if let Some(skia) = &mut self.skia {
                skia.mark_retired(pc);
            }
        }
    }

    /// Whether TAGE currently agrees with `taken` for the branch at `pc`
    /// (used to decide if a decode-time late predict rescues a missed
    /// conditional).
    #[must_use]
    pub fn tage_would_predict(&self, pc: u64, taken: bool) -> bool {
        self.tage.predict(pc).taken == taken
    }

    /// Whether ITTAGE currently predicts `target` for the indirect branch at
    /// `pc`.
    #[must_use]
    pub fn ittage_would_predict(&self, pc: u64, target: u64) -> bool {
        self.ittage.predict(pc).target == Some(target)
    }

    /// Whether the RAS top currently equals `target`.
    #[must_use]
    pub fn ras_top_is(&self, target: u64) -> bool {
        self.ras.peek() == Some(target)
    }

    /// Run Skia's shadow-decode hooks for a formed block whose prefetch has
    /// completed (paper: SBD runs off the critical path once the line is
    /// L1-I-resident). With `filter_btb_resident`, branches already
    /// BTB-resident are filtered. Returns the number of shadow branches
    /// inserted into the SBB (the shadow-decode batch size, recorded by
    /// telemetry).
    ///
    /// A region at a static block start or static fall-through is read from
    /// the program's decode table; any other region (a bogus SBB target or
    /// exit) is decoded afresh.
    pub fn shadow_decode(&mut self, program: &Program, block: &PredictedBlock) -> usize {
        let Some(skia) = &mut self.skia else { return 0 };
        let filter = skia.config().filter_btb_resident;
        let btb = &self.btb.resident;
        let known = |base: u64| if filter { btb.line(base) } else { 0 };
        let line = |addr: u64| program.line(addr);
        let mut inserted = 0;
        // Head region: the line containing the block's entry point, when the
        // block was entered via a taken branch mid-line.
        if block.entered_by_branch {
            inserted += skia.on_block_entered(block.start, line, known);
        }
        // Tail region: the line containing the taken branch's last byte,
        // when the exit point is mid-line.
        if let Some(b) = block.branch.filter(|b| b.taken) {
            inserted += skia.on_block_exited(b.pc + u64::from(b.len), line, known);
        }
        inserted
    }

    /// TAGE `(predictions, mispredictions)`.
    #[must_use]
    pub fn tage_stats(&self) -> (u64, u64) {
        self.tage.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skia_core::SkiaConfig;
    use skia_workloads::{BranchRecord, Program, ProgramSpec};

    fn rec(pc: u64, kind: BranchKind, len: u8) -> BranchRecord {
        BranchRecord {
            pc,
            block_start: pc & !63,
            target: None,
            fallthrough: pc + u64::from(len),
            insns: 2,
            len,
            kind,
        }
    }

    /// Static branch table covering every pc the unit tests commit.
    fn test_table() -> BranchTable {
        BranchTable::from_records(vec![
            rec(0x1010, BranchKind::DirectUncond, 5),
            rec(0x2000, BranchKind::Return, 1),
            rec(0x1000 + 500, BranchKind::DirectUncond, 5),
        ])
    }

    fn bpu(table: &BranchTable) -> Bpu {
        Bpu::new(&FrontendConfig::test_small(), 0x1000, table, None)
    }

    #[test]
    fn empty_bpu_predicts_sequential_lines() {
        let table = test_table();
        let mut b = bpu(&table);
        let blk = b.predict_block();
        assert_eq!(blk.start, 0x1000);
        assert_eq!(blk.end, 0x1040);
        assert!(blk.branch.is_none());
        assert_eq!(b.spec_pc(), 0x1040);
        let blk2 = b.predict_block();
        assert_eq!(blk2.start, 0x1040);
        assert!(!blk2.entered_by_branch);
    }

    #[test]
    fn btb_hit_forms_branch_block() {
        let table = test_table();
        let mut b = bpu(&table);
        b.commit_branch(
            0x1010,
            BranchKind::DirectUncond,
            true,
            0x2000,
            Some(0x2000),
            5,
            None,
        );
        let blk = b.predict_block();
        let br = blk.branch.expect("branch known");
        assert_eq!(br.pc, 0x1010);
        assert!(br.taken);
        assert_eq!(br.target, 0x2000);
        assert_eq!(blk.end, 0x1015);
        assert_eq!(b.spec_pc(), 0x2000);
        // The next block records that it was entered via a branch.
        let blk2 = b.predict_block();
        assert!(blk2.entered_by_branch);
    }

    #[test]
    fn call_and_return_use_the_ras() {
        let table = test_table();
        let mut b = bpu(&table);
        // Commit a call at 0x1010 (len 5) and a ret at 0x2000.
        b.commit_branch(
            0x1010,
            BranchKind::Call,
            true,
            0x2000,
            Some(0x2000),
            5,
            None,
        );
        b.commit_branch(0x2000, BranchKind::Return, true, 0x1015, None, 1, None);
        // Second round: predict the call, then the return target comes from
        // the RAS pushed by the committed call.
        b.resteer(0x1000, true);
        let call_blk = b.predict_block();
        assert_eq!(call_blk.branch.unwrap().kind, BranchKind::Call);
        // Model the call committing (pushes 0x1015).
        b.commit_branch(
            0x1010,
            BranchKind::Call,
            true,
            0x2000,
            Some(0x2000),
            5,
            None,
        );
        let ret_blk = b.predict_block();
        let ret = ret_blk.branch.unwrap();
        assert_eq!(ret.kind, BranchKind::Return);
        assert_eq!(ret.target, 0x1015, "RAS supplies the return target");
    }

    #[test]
    fn sbb_supplies_on_btb_miss() {
        let mut config = FrontendConfig::test_small();
        config.skia = Some(SkiaConfig::default());

        // Plant a shadow branch via the SBD tail path: build a line where a
        // taken branch exits at offset 2 and a jmp follows.
        let spec = ProgramSpec {
            functions: 30,
            ..ProgramSpec::default()
        };
        let program = Program::generate(&spec);
        let mut b = Bpu::new(&config, 0x1000, program.branch_table(), None);
        // Find a real tail opportunity: any block whose taken terminator
        // ends mid-line.
        let mut planted = None;
        'outer: for f in program.functions() {
            for blk in &f.blocks {
                let t = &blk.terminator;
                if t.kind == BranchKind::DirectUncond {
                    let end = t.pc + u64::from(t.len);
                    if end % 64 != 0 {
                        planted = Some((blk.start, t.pc, t.len));
                        break 'outer;
                    }
                }
            }
        }
        let (start, pc, len) = planted.expect("some mid-line uncond exists");
        let pb = PredictedBlock {
            start,
            end: pc + u64::from(len),
            branch: Some(PredictedBranch {
                pc,
                len,
                kind: BranchKind::DirectUncond,
                taken: true,
                target: 0,
                from_sbb: false,
                tage: None,
                ittage: None,
            }),
            next_pc: 0,
            entered_by_branch: false,
        };
        b.shadow_decode(&program, &pb);
        let stats = b.skia.as_ref().unwrap().stats();
        // Tail decoding ran on the exit line.
        assert!(stats.sbd.tail_regions > 0);
    }

    /// Static branches every third byte over four lines, so a window holds
    /// many candidates and lines outside the table exist on both sides.
    const SCAN_BASE: u64 = 0x4000;
    const SCAN_BYTES: u64 = 4 * 64;

    fn scan_table() -> BranchTable {
        BranchTable::from_records(
            (SCAN_BASE..SCAN_BASE + SCAN_BYTES)
                .step_by(3)
                .map(|pc| rec(pc, BranchKind::DirectUncond, 2))
                .collect(),
        )
    }

    /// Residency by probing the BTB's entries, not its bitmap.
    fn btb_probe(b: &Bpu, pc: u64) -> bool {
        match &b.btb.array {
            BtbArray::Finite(x) => x.probe(pc).is_some(),
            BtbArray::Infinite(x) => x.lookup(pc).is_some(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The shared BTB ∥ SBB window scan equals a brute-force scan that
        /// probes both structures at every pc of the window: the block ends
        /// at the lowest pc either holds, and the BTB supplies it when it
        /// holds it. The BTB bitmap equals BTB residency throughout.
        #[test]
        fn window_scan_matches_brute_force(
            infinite in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec((0u8..3, 0u64..SCAN_BYTES + 128), 1..120),
        ) {
            let table = scan_table();
            let mut config = FrontendConfig::test_small();
            config.btb = if infinite {
                BtbMode::Infinite
            } else {
                BtbMode::Finite(skia_uarch::btb::BtbConfig { entries: 8, ways: 2 })
            };
            config.skia = Some(SkiaConfig::default());
            let mut b = Bpu::new(&config, SCAN_BASE, &table, None);
            for &(op, off) in &ops {
                // Any pc from one line below the table to one line above.
                let pc = SCAN_BASE - 64 + off;
                match op {
                    0 => {
                        // Commit the static branch at or after `pc`.
                        let bpc = SCAN_BASE + (pc.saturating_sub(SCAN_BASE) / 3 * 3);
                        if bpc < SCAN_BASE + SCAN_BYTES {
                            b.commit_branch(bpc, BranchKind::DirectUncond, true, 0x9000, Some(0x9000), 2, None);
                        }
                    }
                    1 => b.skia.as_mut().unwrap().force_insert(&skia_core::ShadowBranch {
                        pc,
                        len: 1,
                        kind: BranchKind::Return,
                        target: None,
                        line_offset: (pc % 64) as u8,
                    }),
                    _ => {
                        let limit = pc + config.max_block_bytes;
                        let in_sbb = |b: &Bpu, p| b.skia.as_ref().unwrap().probe(p).is_some();
                        let brute = (pc..limit).find(|&p| btb_probe(&b, p) || in_sbb(&b, p));
                        let from_btb = brute.is_some_and(|p| btb_probe(&b, p));
                        b.resteer(pc, false);
                        let blk = b.predict_block();
                        proptest::prop_assert_eq!(blk.branch.map(|x| x.pc), brute);
                        proptest::prop_assert_eq!(blk.branch.map(|x| !x.from_sbb), brute.map(|_| from_btb));
                    }
                }
                for p in SCAN_BASE - 64..SCAN_BASE + SCAN_BYTES + 64 {
                    proptest::prop_assert_eq!(b.btb_resident(p), btb_probe(&b, p), "pc {:#x}", p);
                }
            }
        }
    }

    #[test]
    fn scan_respects_window_limit() {
        let table = test_table();
        let mut b = bpu(&table);
        b.commit_branch(
            0x1000 + 500,
            BranchKind::DirectUncond,
            true,
            0x9000,
            Some(0x9000),
            5,
            None,
        );
        // Branch is 500 bytes ahead — outside the 64-byte window.
        let blk = b.predict_block();
        assert!(blk.branch.is_none());
    }
}
