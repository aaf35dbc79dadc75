//! Reference SBB (U-SBB + R-SBB halves) and reference Skia mechanism with
//! a ground-truth cross-check layer.
//!
//! [`RefSbb`] mirrors `skia_core::Sbb` stat-for-stat and tick-for-tick on
//! top of the linear-search [`RefArray`]. [`RefSkia`] mirrors
//! `skia_core::Skia`'s fill/lookup/retire/bogus hooks — including entry
//! lifetimes, which it derives from a separate list of birth cycles (the
//! production SBB keeps each birth in its entry), and the
//! `SbbInsert`/`SbbEvict` event stream, which it writes into a shared event
//! sink so the oracle's event order can be compared against the production
//! trace.
//!
//! On top of the behavioural mirror, `RefSkia` cross-checks every decoded
//! shadow branch against the generator's ground-truth metadata
//! (`Program::branch_at`). A decoded branch whose PC *is* a real branch
//! must agree with the metadata in kind, length and static target — any
//! mismatch is recorded as a ground-truth violation (a decoder bug). A
//! decoded branch with no metadata is a *phantom*: expected for head
//! regions (mis-aligned decode paths, §3.4 bogus branches) and counted
//! separately for head and tail regions.

use std::cell::RefCell;
use std::rc::Rc;

use skia_core::{SbbHit, SbbStats, ShadowBranch, SkiaConfig, SkiaStats};
use skia_isa::BranchKind;
use skia_telemetry::{Event, EventKind};
use skia_workloads::Program;

use crate::ref_sbd::RefShadowDecoder;
use crate::ref_uarch::RefArray;

/// Shared ordered event sink (the oracle's stand-in for the telemetry ring
/// buffer; the reference simulator and `RefSkia` both append to it).
pub type EventSink = Rc<RefCell<Vec<Event>>>;

/// U-SBB payload (mirrors the production private struct).
#[derive(Debug, Clone, Copy)]
struct RefUEntry {
    target: u64,
    len: u8,
    is_call: bool,
    retired: bool,
}

/// R-SBB payload.
#[derive(Debug, Clone, Copy)]
struct RefREntry {
    len: u8,
    retired: bool,
}

/// Reference split Shadow Branch Buffer.
#[derive(Debug, Clone)]
pub struct RefSbb {
    u: RefArray<RefUEntry>,
    r: RefArray<RefREntry>,
    /// Unordered resident-PC mirror; scanned linearly.
    keys: Vec<u64>,
    stats: SbbStats,
    retired_aware: bool,
    /// Fault knob: ignore the retired bit during victim selection,
    /// degrading §4.3 replacement to plain LRU (test-only).
    pub ignore_retired: bool,
}

impl RefSbb {
    /// Build from the production geometry.
    pub fn new(u_entries: usize, r_entries: usize, ways: usize, retired_aware: bool) -> Self {
        assert!(u_entries.is_multiple_of(ways) && r_entries.is_multiple_of(ways));
        RefSbb {
            u: RefArray::new(u_entries / ways, ways),
            r: RefArray::new(r_entries / ways, ways),
            keys: Vec::new(),
            stats: SbbStats::default(),
            retired_aware,
            ignore_retired: false,
        }
    }

    /// The lowest resident shadow-branch PC at or after `pc`.
    pub fn next_key_at_or_after(&self, pc: u64) -> Option<u64> {
        self.keys.iter().copied().filter(|&k| k >= pc).min()
    }

    /// Recency-updating probe of both halves; the U-SBB tick always
    /// advances, the R-SBB tick only when the U-SBB misses (mirroring the
    /// production early return).
    pub fn lookup(&mut self, pc: u64) -> Option<SbbHit> {
        self.stats.lookups += 1;
        let uset = self.u.set_of(pc);
        if let Some(e) = self.u.access(uset, pc) {
            let hit = SbbHit {
                kind: if e.is_call {
                    BranchKind::Call
                } else {
                    BranchKind::DirectUncond
                },
                target: Some(e.target),
                len: e.len,
            };
            self.stats.u_hits += 1;
            return Some(hit);
        }
        let rset = self.r.set_of(pc);
        if let Some(e) = self.r.access(rset, pc) {
            let len = e.len;
            self.stats.r_hits += 1;
            return Some(SbbHit {
                kind: BranchKind::Return,
                target: None,
                len,
            });
        }
        None
    }

    /// Stateless probe.
    pub fn probe(&self, pc: u64) -> Option<SbbHit> {
        if let Some(e) = self.u.probe(self.u.set_of(pc), pc) {
            return Some(SbbHit {
                kind: if e.is_call {
                    BranchKind::Call
                } else {
                    BranchKind::DirectUncond
                },
                target: Some(e.target),
                len: e.len,
            });
        }
        if let Some(e) = self.r.probe(self.r.set_of(pc), pc) {
            return Some(SbbHit {
                kind: BranchKind::Return,
                target: None,
                len: e.len,
            });
        }
        None
    }

    /// Insert a shadow branch; returns the PC of a displaced *different*
    /// entry (for lifetime telemetry), mirroring the production ordering of
    /// stat updates and key maintenance.
    pub fn insert(&mut self, branch: &ShadowBranch) -> Option<u64> {
        let prefer_retired = self.retired_aware && !self.ignore_retired;
        match branch.kind {
            BranchKind::DirectUncond | BranchKind::Call => {
                let target = branch.target?;
                let set = self.u.set_of(branch.pc);
                self.stats.u_inserts += 1;
                let evicted = self.u.insert_with(
                    set,
                    branch.pc,
                    RefUEntry {
                        target,
                        len: branch.len,
                        is_call: branch.kind == BranchKind::Call,
                        retired: false,
                    },
                    |e| prefer_retired && !e.retired,
                );
                self.key_insert(branch.pc);
                if let Some((tag, old)) = evicted {
                    if tag != branch.pc {
                        self.key_remove(tag);
                        if !old.retired {
                            self.stats.evicted_unretired += 1;
                        }
                        return Some(tag);
                    }
                }
                None
            }
            BranchKind::Return => {
                let set = self.r.set_of(branch.pc);
                self.stats.r_inserts += 1;
                let evicted = self.r.insert_with(
                    set,
                    branch.pc,
                    RefREntry {
                        len: branch.len,
                        retired: false,
                    },
                    |e| prefer_retired && !e.retired,
                );
                self.key_insert(branch.pc);
                if let Some((tag, old)) = evicted {
                    if tag != branch.pc {
                        self.key_remove(tag);
                        if !old.retired {
                            self.stats.evicted_unretired += 1;
                        }
                        return Some(tag);
                    }
                }
                None
            }
            _ => None,
        }
    }

    /// Set the retired bit (idempotent on the counter).
    pub fn mark_retired(&mut self, pc: u64) {
        let uset = self.u.set_of(pc);
        if let Some(e) = self.u.peek_mut(uset, pc) {
            if !e.retired {
                e.retired = true;
                self.stats.retirements += 1;
            }
            return;
        }
        let rset = self.r.set_of(pc);
        if let Some(e) = self.r.peek_mut(rset, pc) {
            if !e.retired {
                e.retired = true;
                self.stats.retirements += 1;
            }
        }
    }

    /// Remove the entry at `pc`.
    pub fn invalidate(&mut self, pc: u64) {
        let uset = self.u.set_of(pc);
        if self.u.invalidate(uset, pc).is_some() {
            self.key_remove(pc);
            return;
        }
        let rset = self.r.set_of(pc);
        if self.r.invalidate(rset, pc).is_some() {
            self.key_remove(pc);
        }
    }

    /// Counters.
    pub fn stats(&self) -> SbbStats {
        self.stats
    }

    fn key_insert(&mut self, pc: u64) {
        if !self.keys.contains(&pc) {
            self.keys.push(pc);
        }
    }

    fn key_remove(&mut self, pc: u64) {
        self.keys.retain(|&k| k != pc);
    }
}

/// One ground-truth violation: a decoded shadow branch that disagrees with
/// the program's branch metadata at the same PC.
#[derive(Debug, Clone)]
pub struct GtViolation {
    /// Human-readable description of the mismatch.
    pub description: String,
}

/// Reference Skia mechanism.
#[derive(Debug, Clone)]
pub struct RefSkia {
    config: SkiaConfig,
    sbd: RefShadowDecoder,
    /// The reference SBB (public so the fault knob can be set).
    pub sbb: RefSbb,
    filtered_known: u64,
    bogus_uses: u64,
    useful_uses: u64,
    ever_inserted: Vec<u64>,
    cycle: u64,
    /// Birth cycle of each live SBB entry.
    born: Vec<(u64, u64)>,
    events: EventSink,
    /// Ground-truth violations (decoder disagreeing with `Program`
    /// metadata at a real branch PC). Must stay empty.
    pub gt_violations: Vec<GtViolation>,
    /// Decoded head-region branches with no ground-truth branch at their PC
    /// (bogus shadow-branch candidates, expected per §3.4).
    pub head_phantoms: u64,
    /// Decoded tail-region branches with no ground-truth branch at their
    /// PC. Tail decoding starts at a true instruction boundary, so these
    /// only appear when the decode runs across padding into misalignment.
    pub tail_phantoms: u64,
}

impl RefSkia {
    /// Build from the production configuration, sharing `events`.
    pub fn new(config: SkiaConfig, events: EventSink) -> Self {
        RefSkia {
            sbd: RefShadowDecoder::new(config.index_policy, config.max_valid_paths),
            sbb: RefSbb::new(
                config.sbb.u_entries,
                config.sbb.r_entries,
                config.sbb.ways,
                config.sbb.retired_aware,
            ),
            config,
            filtered_known: 0,
            bogus_uses: 0,
            useful_uses: 0,
            ever_inserted: Vec::new(),
            cycle: 0,
            born: Vec::new(),
            events,
            gt_violations: Vec::new(),
            head_phantoms: 0,
            tail_phantoms: 0,
        }
    }

    /// Configuration.
    pub fn config(&self) -> &SkiaConfig {
        &self.config
    }

    /// Mutable access to the reference shadow decoder — the entry point for
    /// fault-injection knobs ([`crate::ref_sbd::SbdFault`]) and for driving
    /// the decoder directly in differential fuzz targets.
    pub fn sbd_mut(&mut self) -> &mut RefShadowDecoder {
        &mut self.sbd
    }

    /// Advance the telemetry clock.
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// Whether `pc` was ever inserted into the SBB this run.
    pub fn ever_inserted(&self, pc: u64) -> bool {
        self.ever_inserted.contains(&pc)
    }

    /// Head-decode hook with ground-truth cross-check.
    pub fn on_line_entered_filtered(
        &mut self,
        program: &Program,
        line: &[u8],
        line_base: u64,
        entry_offset: usize,
        known: impl Fn(u64) -> bool,
    ) -> usize {
        if !self.config.head || entry_offset == 0 {
            return 0;
        }
        let hd = self.sbd.decode_head(line, line_base, entry_offset);
        self.cross_check(program, &hd.branches, true);
        self.fill(&hd.branches, known)
    }

    /// Tail-decode hook with ground-truth cross-check.
    pub fn on_line_exited_filtered(
        &mut self,
        program: &Program,
        line: &[u8],
        line_base: u64,
        exit_offset: usize,
        known: impl Fn(u64) -> bool,
    ) -> usize {
        if !self.config.tail || exit_offset >= line.len() {
            return 0;
        }
        let branches = self.sbd.decode_tail(line, line_base, exit_offset);
        self.cross_check(program, &branches, false);
        self.fill(&branches, known)
    }

    /// Check each decoded branch against the generator's metadata.
    fn cross_check(&mut self, program: &Program, branches: &[ShadowBranch], head: bool) {
        for b in branches {
            match program.branch_at(b.pc) {
                Some(meta) => {
                    if meta.kind != b.kind || meta.len != b.len || meta.target != b.target {
                        self.gt_violations.push(GtViolation {
                            description: format!(
                                "decoded shadow branch at {:#x} disagrees with ground truth: \
                                 decoded (kind {:?}, len {}, target {:?}) vs metadata \
                                 (kind {:?}, len {}, target {:?})",
                                b.pc, b.kind, b.len, b.target, meta.kind, meta.len, meta.target
                            ),
                        });
                    }
                }
                None => {
                    if head {
                        self.head_phantoms += 1;
                    } else {
                        self.tail_phantoms += 1;
                    }
                }
            }
        }
    }

    fn fill(&mut self, branches: &[ShadowBranch], known: impl Fn(u64) -> bool) -> usize {
        let mut inserted = 0;
        for b in branches {
            if known(b.pc) || self.sbb.probe(b.pc).is_some() {
                self.filtered_known += 1;
                continue;
            }
            let evicted = self.sbb.insert(b);
            if !self.ever_inserted.contains(&b.pc) {
                self.ever_inserted.push(b.pc);
            }
            if let Some(victim) = evicted {
                self.note_remove(victim);
            }
            self.note_insert(b.pc);
            inserted += 1;
        }
        inserted
    }

    fn note_insert(&mut self, pc: u64) {
        if !self.born.iter().any(|&(p, _)| p == pc) {
            self.born.push((pc, self.cycle));
        }
        self.events.borrow_mut().push(Event {
            cycle: self.cycle,
            kind: EventKind::SbbInsert,
            pc,
            arg: 0,
        });
    }

    fn note_remove(&mut self, pc: u64) {
        if let Some(pos) = self.born.iter().position(|&(p, _)| p == pc) {
            let (_, birth) = self.born.remove(pos);
            let life = self.cycle.saturating_sub(birth);
            self.events.borrow_mut().push(Event {
                cycle: self.cycle,
                kind: EventKind::SbbEvict,
                pc,
                arg: life,
            });
        }
    }

    /// BPU-parallel probe.
    pub fn lookup(&mut self, pc: u64) -> Option<SbbHit> {
        self.sbb.lookup(pc)
    }

    /// Stateless probe.
    pub fn probe(&self, pc: u64) -> Option<SbbHit> {
        self.sbb.probe(pc)
    }

    /// The lowest SBB-resident PC at or after `pc`.
    pub fn next_key_at_or_after(&self, pc: u64) -> Option<u64> {
        self.sbb.next_key_at_or_after(pc)
    }

    /// Commit hook for an SBB-supplied branch.
    pub fn mark_retired(&mut self, pc: u64) {
        self.useful_uses += 1;
        self.sbb.mark_retired(pc);
    }

    /// Verification hook: SBB-supplied prediction was bogus.
    pub fn note_bogus(&mut self, pc: u64) {
        self.bogus_uses += 1;
        self.sbb.invalidate(pc);
        self.note_remove(pc);
    }

    /// Counters.
    pub fn stats(&self) -> SkiaStats {
        SkiaStats {
            sbd: self.sbd.stats(),
            sbb: self.sbb.stats(),
            filtered_known: self.filtered_known,
            bogus_uses: self.bogus_uses,
            useful_uses: self.useful_uses,
        }
    }
}
