//! The Skia mechanism: SBD + SBB wired together the way Fig. 11 attaches
//! them to the BPU.
//!
//! The front-end drives this object at three points:
//!
//! * when an FTQ entry's cache line finishes its prefetch, the SBD examines
//!   the line's shadow region(s) — [`Skia::on_block_entered`] for the head
//!   region of the entry's first line, [`Skia::on_block_exited`] for the
//!   tail region of its last line. Both run **off the critical path**; the
//!   paper lets them take multiple cycles because shadow branches are not
//!   needed until much later. A region is read from the program's
//!   [`DecodeTable`] as a mask of line offsets, and the branches the SBB
//!   lacks are re-decoded from the line at those offsets.
//! * on every BPU lookup, [`Skia::lookup`] is probed in parallel with the
//!   BTB; on a BTB miss it may still supply a target.
//! * at commit, [`Skia::mark_retired`] sets the retired bit so useful
//!   entries outlive bogus ones, and promotion moves the branch into the BTB.

use std::ops::Range;
use std::sync::Arc;

use skia_isa::CACHE_LINE_BYTES;
use skia_telemetry::{EventKind, EventTrace, LocalHistogram};
use skia_uarch::LineBitmap;

use crate::sbb::{Sbb, SbbConfig, SbbHit, SbbStats};
use crate::sbd::{
    shadow_branch_at, DecodeTable, DecodedRegion, IndexPolicy, ShadowBranch, ShadowDecoder,
    ShadowDecoderStats,
};

/// Complete Skia configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkiaConfig {
    /// Enable head shadow decoding (§3.2).
    pub head: bool,
    /// Enable tail shadow decoding (§3.3).
    pub tail: bool,
    /// Head-decode start-index policy (paper default: First).
    pub index_policy: IndexPolicy,
    /// Head-decode valid-path bound (paper default: 6).
    pub max_valid_paths: usize,
    /// SBB geometry and replacement policy.
    pub sbb: SbbConfig,
    /// Skip inserting shadow branches that are currently BTB-resident.
    /// The paper's SBB fills unconditionally (the structures are parallel);
    /// filtering saves SBB space but loses exactly the branches that will
    /// miss right after their BTB eviction. Off by default; the `ablations`
    /// binary measures it.
    pub filter_btb_resident: bool,
}

impl Default for SkiaConfig {
    /// The paper's configuration, with one substrate-specific deviation:
    /// the default head-decode index policy here is [`IndexPolicy::Merge`],
    /// not the paper's `First`. On real binaries the first validated start
    /// index is almost always the true boundary (the paper reports First >
    /// Zero > Merge); on this crate's synthetic code the pre-merge prefix
    /// of the first path contains phantom branches often enough to poison
    /// the R-SBB, while the merged suffix is reliable. The `ablations`
    /// binary's index-policy rows quantify the difference.
    fn default() -> Self {
        SkiaConfig {
            head: true,
            tail: true,
            index_policy: IndexPolicy::Merge,
            max_valid_paths: 6,
            sbb: SbbConfig::default(),
            filter_btb_resident: false,
        }
    }
}

impl SkiaConfig {
    /// Head-only configuration (Fig. 14's "head" series).
    #[must_use]
    pub fn head_only() -> Self {
        SkiaConfig {
            tail: false,
            ..SkiaConfig::default()
        }
    }

    /// Tail-only configuration (Fig. 14's "tail" series).
    #[must_use]
    pub fn tail_only() -> Self {
        SkiaConfig {
            head: false,
            ..SkiaConfig::default()
        }
    }
}

/// Aggregated Skia counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SkiaStats {
    /// Decoder counters.
    pub sbd: ShadowDecoderStats,
    /// Buffer counters.
    pub sbb: SbbStats,
    /// Shadow branches the SBD found but the filter said were already known
    /// (typically: already in the BTB).
    pub filtered_known: u64,
    /// SBB-supplied predictions that turned out to be bogus branches
    /// (reported back by the front-end at verification).
    pub bogus_uses: u64,
    /// SBB-supplied predictions confirmed correct at verification.
    pub useful_uses: u64,
}

impl SkiaStats {
    /// The paper's §3.2.2 metric: bogus branches used, relative to total SBB
    /// insertions.
    #[must_use]
    pub fn bogus_rate(&self) -> f64 {
        let inserts = self.sbb.u_inserts + self.sbb.r_inserts;
        if inserts == 0 {
            0.0
        } else {
            self.bogus_uses as f64 / inserts as f64
        }
    }
}

/// Skia's telemetry: the SBB entry-lifetime histogram plus optional
/// insert/evict event tracing. The front-end advances the clock via
/// [`Skia::set_cycle`]; lifetimes are measured in those cycles from the
/// birth cycle each SBB entry carries.
#[derive(Debug, Clone, Default)]
struct SkiaTelemetry {
    lifetime: LocalHistogram,
    trace: Option<EventTrace>,
    cycle: u64,
}

impl SkiaTelemetry {
    fn note_insert(&self, pc: u64) {
        if let Some(t) = &self.trace {
            t.record(self.cycle, EventKind::SbbInsert, pc, 0);
        }
    }

    /// Close the lifetime of the entry at `pc`, born at `birth`.
    fn note_remove(&mut self, pc: u64, birth: u64) {
        let life = self.cycle.saturating_sub(birth);
        self.lifetime.record(life);
        if let Some(t) = &self.trace {
            t.record(self.cycle, EventKind::SbbEvict, pc, life);
        }
    }
}

/// The Skia mechanism.
#[derive(Debug, Clone)]
pub struct Skia {
    config: SkiaConfig,
    sbd: ShadowDecoder,
    sbb: Sbb,
    /// The simulated program's shared decodes, when attached.
    table: Option<Arc<DecodeTable>>,
    filtered_known: u64,
    bogus_uses: u64,
    useful_uses: u64,
    /// SBB entry lifetimes, and insert/evict events once a trace is set.
    tel: SkiaTelemetry,
}

impl Skia {
    /// Build Skia from its configuration. Every shadow region is decoded
    /// afresh.
    #[must_use]
    pub fn new(config: SkiaConfig) -> Self {
        Skia::build(config, None, 0..0)
    }

    /// Build Skia for one program: the block hooks read head and tail
    /// regions that have a slot in `table` from there, and the SBB's
    /// bitmaps cover the table's lines.
    ///
    /// # Panics
    ///
    /// Panics if `table` was built for another index policy or path bound.
    #[must_use]
    pub fn with_table(config: SkiaConfig, table: Arc<DecodeTable>) -> Self {
        assert_eq!(
            (table.policy(), table.max_valid_paths()),
            (config.index_policy, config.max_valid_paths),
            "decode table built for another policy or path bound"
        );
        let lines = table.lines();
        Skia::build(config, Some(table), lines)
    }

    fn build(config: SkiaConfig, table: Option<Arc<DecodeTable>>, lines: Range<u64>) -> Self {
        Skia {
            sbd: ShadowDecoder::new(config.index_policy, config.max_valid_paths),
            sbb: Sbb::covering(config.sbb, lines),
            table,
            config,
            filtered_known: 0,
            bogus_uses: 0,
            useful_uses: 0,
            tel: SkiaTelemetry::default(),
        }
    }

    /// Record `SbbInsert`/`SbbEvict` events into `trace` from now on.
    pub fn set_trace(&mut self, trace: EventTrace) {
        self.tel.trace = Some(trace);
    }

    /// Residency, in [`Skia::set_cycle`] cycles, of every SBB entry evicted
    /// or invalidated so far.
    #[must_use]
    pub fn entry_lifetimes(&self) -> &LocalHistogram {
        &self.tel.lifetime
    }

    /// Advance the telemetry clock that stamps entry lifetimes and events.
    #[inline]
    pub fn set_cycle(&mut self, cycle: u64) {
        self.tel.cycle = cycle;
    }

    /// Whether `pc` was ever inserted into the SBB during this run
    /// (diagnostic; distinguishes SBB capacity misses from shadow-decode
    /// coverage gaps).
    #[must_use]
    pub fn ever_inserted(&self, pc: u64) -> bool {
        self.sbb.ever_inserted(pc)
    }

    /// Configuration.
    #[must_use]
    pub fn config(&self) -> &SkiaConfig {
        &self.config
    }

    /// Head-decode hook for a block entered at `start` through a taken
    /// branch: examine the bytes of `start`'s line before it. The region is
    /// read from the decode table when it has a slot there and decoded
    /// afresh otherwise. `line` returns `(line base, bytes)` for an
    /// address and runs only when bytes are needed. Branches whose bit is
    /// set in `known(line base)` (e.g. BTB-resident ones) are not inserted.
    ///
    /// Returns the number of shadow branches inserted.
    pub fn on_block_entered(
        &mut self,
        start: u64,
        line: impl Fn(u64) -> (u64, [u8; CACHE_LINE_BYTES]),
        known: impl FnOnce(u64) -> u64,
    ) -> usize {
        let entry = (start % CACHE_LINE_BYTES as u64) as usize;
        if !self.config.head || entry == 0 {
            return 0;
        }
        let base = start - entry as u64;
        let region = match self.table.as_deref().and_then(|t| t.head(start, &line)) {
            Some(region) => {
                self.sbd.count_head(region);
                *region
            }
            None => self.sbd.decode_head_ref(&line(start).1, base, entry),
        };
        self.fill(base, &region, || line(start).1, known)
    }

    /// Tail-decode hook for a taken branch that ends at `end`: examine the
    /// bytes of `end`'s line from `end` on (none when `end` starts a line).
    /// See [`Skia::on_block_entered`].
    pub fn on_block_exited(
        &mut self,
        end: u64,
        line: impl Fn(u64) -> (u64, [u8; CACHE_LINE_BYTES]),
        known: impl FnOnce(u64) -> u64,
    ) -> usize {
        let exit = (end % CACHE_LINE_BYTES as u64) as usize;
        if !self.config.tail || exit == 0 {
            return 0;
        }
        let base = end - exit as u64;
        let region = match self.table.as_deref().and_then(|t| t.tail(end, &line)) {
            Some(region) => {
                self.sbd.count_tail(region);
                *region
            }
            None => self.sbd.decode_tail_ref(&line(end).1, base, exit),
        };
        self.fill(base, &region, || line(end).1, known)
    }

    /// Insert the branches of `region`, a decode of the line at
    /// `line_base` whose bytes `line` returns, skipping those `known` or
    /// already held.
    ///
    /// The branches are tested in ascending offset order, each when its
    /// turn comes, so an insert that evicts a later branch of the same
    /// region re-inserts it, as a walk over the decoded list does. Only an
    /// inserted branch is re-decoded, and `line` runs at the first one, so
    /// a region whose branches are all held or known reads no line.
    fn fill(
        &mut self,
        line_base: u64,
        region: &DecodedRegion,
        line: impl Fn() -> [u8; CACHE_LINE_BYTES],
        known: impl FnOnce(u64) -> u64,
    ) -> usize {
        let known = known(line_base);
        let mut bytes = None;
        let mut inserted = 0;
        let mut rest = region.mask;
        while rest != 0 {
            let offset = rest.trailing_zeros();
            rest &= rest - 1;
            let pc = line_base + u64::from(offset);
            if (known >> offset) & 1 == 1 || self.sbb.contains(pc) {
                self.filtered_known += 1;
                continue;
            }
            let bytes = bytes.get_or_insert_with(&line);
            let branch = shadow_branch_at(bytes, line_base, offset as usize)
                .expect("a region's mask names the shadow branches of its line");
            if let Some((victim, birth)) = self.sbb.insert_at(&branch, self.tel.cycle) {
                self.tel.note_remove(victim, birth);
            }
            self.tel.note_insert(pc);
            inserted += 1;
        }
        inserted
    }

    /// BPU-parallel probe (Fig. 11): consulted on (or alongside) every BTB
    /// lookup; meaningful on BTB misses.
    pub fn lookup(&mut self, pc: u64) -> Option<SbbHit> {
        self.sbb.lookup(pc)
    }

    /// Probe without recency updates.
    #[must_use]
    pub fn probe(&self, pc: u64) -> Option<SbbHit> {
        self.sbb.probe(pc)
    }

    /// The SBB-resident shadow-branch pcs: the SBB side of the BPU's
    /// fetch-window scan, run in parallel with the BTB's.
    #[must_use]
    pub fn sbb_resident(&self) -> &LineBitmap {
        self.sbb.resident()
    }

    /// Commit hook: the branch at `pc`, predicted out of the SBB, retired.
    pub fn mark_retired(&mut self, pc: u64) {
        self.useful_uses += 1;
        self.sbb.mark_retired(pc);
    }

    /// Verification hook: an SBB-supplied prediction at `pc` was bogus (no
    /// such branch exists on the true path). The entry is dropped.
    pub fn note_bogus(&mut self, pc: u64) {
        self.bogus_uses += 1;
        self.invalidate(pc);
    }

    /// Remove an entry (e.g. on promotion into the BTB).
    pub fn invalidate(&mut self, pc: u64) {
        if let Some(birth) = self.sbb.invalidate(pc) {
            self.tel.note_remove(pc, birth);
        }
    }

    /// Insert a shadow branch directly, bypassing the decoder (testing and
    /// fault-injection aid — e.g. poisoning the SBB with adversarial
    /// entries to validate front-end robustness).
    pub fn force_insert(&mut self, branch: &ShadowBranch) {
        if let Some((victim, birth)) = self.sbb.insert_at(branch, self.tel.cycle) {
            self.tel.note_remove(victim, birth);
        }
        self.tel.note_insert(branch.pc);
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> SkiaStats {
        SkiaStats {
            sbd: self.sbd.stats(),
            sbb: self.sbb.stats(),
            filtered_known: self.filtered_known,
            bogus_uses: self.bogus_uses,
            useful_uses: self.useful_uses,
        }
    }

    /// `(U-SBB, R-SBB)` occupancy.
    #[must_use]
    pub fn occupancy(&self) -> (usize, usize) {
        self.sbb.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skia_isa::{encode, BranchKind};

    /// Hook-plumbing tests pin the First policy so their hand-built head
    /// regions decode from offset 0 regardless of the substrate default.
    fn first_policy() -> SkiaConfig {
        SkiaConfig {
            index_policy: IndexPolicy::First,
            ..SkiaConfig::default()
        }
    }

    /// Pad `bytes` with one-byte nops to a full line.
    fn pad_to_line(mut bytes: Vec<u8>) -> [u8; CACHE_LINE_BYTES] {
        while bytes.len() < CACHE_LINE_BYTES {
            encode::nop_exact(&mut bytes, 1);
        }
        bytes.try_into().unwrap()
    }

    fn line_with_head_ret() -> ([u8; CACHE_LINE_BYTES], usize, u64) {
        // [nop3][ret][nop4] entry at 8.
        let mut line = Vec::new();
        encode::nop_exact(&mut line, 3);
        encode::ret(&mut line);
        encode::nop_exact(&mut line, 4);
        let entry = line.len();
        (pad_to_line(line), entry, 0x4000)
    }

    fn line_with_tail_jmp() -> ([u8; CACHE_LINE_BYTES], usize, u64) {
        // [jmp rel8 exits at 2][jmp rel32 in shadow]
        let mut line = Vec::new();
        encode::jmp_rel8(&mut line, 20);
        let exit = line.len();
        encode::jmp_rel32(&mut line, 0x80);
        (pad_to_line(line), exit, 0x5000)
    }

    /// Enter the head fixture's block at its entry offset, nothing known.
    fn enter(skia: &mut Skia) -> usize {
        let (line, entry, base) = line_with_head_ret();
        skia.on_block_entered(base + entry as u64, |_| (base, line), |_| 0)
    }

    /// Leave the tail fixture's line through its exit offset, nothing known.
    fn exit(skia: &mut Skia) -> usize {
        let (line, exit, base) = line_with_tail_jmp();
        skia.on_block_exited(base + exit as u64, |_| (base, line), |_| 0)
    }

    #[test]
    fn head_hook_fills_sbb() {
        let (_, _, base) = line_with_head_ret();
        let mut skia = Skia::new(first_policy());
        assert_eq!(enter(&mut skia), 1);
        let hit = skia.lookup(base + 3).unwrap();
        assert_eq!(hit.kind, BranchKind::Return);
    }

    #[test]
    fn tail_hook_fills_sbb() {
        let (_, exit_offset, base) = line_with_tail_jmp();
        let mut skia = Skia::new(SkiaConfig::default());
        assert_eq!(exit(&mut skia), 1);
        let hit = skia.lookup(base + exit_offset as u64).unwrap();
        assert_eq!(hit.kind, BranchKind::DirectUncond);
        assert_eq!(hit.target, Some(base + exit_offset as u64 + 5 + 0x80));
    }

    #[test]
    fn head_only_config_ignores_tail() {
        let (_, exit_offset, base) = line_with_tail_jmp();
        let mut skia = Skia::new(SkiaConfig::head_only());
        assert_eq!(exit(&mut skia), 0);
        assert!(skia.lookup(base + exit_offset as u64).is_none());
    }

    #[test]
    fn tail_only_config_ignores_head() {
        let mut skia = Skia::new(SkiaConfig::tail_only());
        assert_eq!(enter(&mut skia), 0);
    }

    #[test]
    fn known_filter_suppresses_insertion() {
        let (line, entry, base) = line_with_head_ret();
        let mut skia = Skia::new(first_policy());
        let n = skia.on_block_entered(base + entry as u64, |_| (base, line), |_| 1 << 3);
        assert_eq!(n, 0);
        assert_eq!(skia.stats().filtered_known, 1);
        assert_eq!(enter(&mut skia), 1);
    }

    #[test]
    fn block_hooks_read_slots_and_decode_other_regions_afresh() {
        let (head, entry, head_base) = line_with_head_ret();
        let (tail, exit, tail_base) = line_with_tail_jmp();
        let lines = |addr: u64| {
            if addr & !63 == head_base {
                (head_base, head)
            } else {
                (tail_base, tail)
            }
        };
        let start = head_base + entry as u64;
        let end = tail_base + exit as u64;
        for slotted in [true, false] {
            let slots = |addr| if slotted { vec![addr] } else { Vec::new() };
            let table = DecodeTable::new(
                IndexPolicy::First,
                6,
                head_base..tail_base + 64,
                slots(start),
                slots(end),
            );
            assert_eq!(table.head(start, lines).is_some(), slotted);
            let mut skia = Skia::with_table(first_policy(), Arc::new(table));
            assert_eq!(skia.on_block_entered(start, lines, |_| 0), 1);
            assert_eq!(skia.on_block_exited(end, lines, |_| 0), 1);
            // A branch ending on a line boundary leaves no tail region.
            assert_eq!(skia.on_block_exited(tail_base + 64, lines, |_| 0), 0);
            let s = skia.stats();
            assert_eq!((s.sbd.head_regions, s.sbd.tail_regions), (1, 1));
            assert_eq!((s.sbb.r_inserts, s.sbb.u_inserts), (1, 1));
            assert!(skia.probe(head_base + 3).is_some() && skia.probe(end).is_some());
        }
    }

    #[test]
    fn duplicate_insertion_is_suppressed() {
        let mut skia = Skia::new(first_policy());
        assert_eq!(enter(&mut skia), 1);
        assert_eq!(enter(&mut skia), 0);
        assert_eq!(skia.stats().sbb.r_inserts, 1);
    }

    #[test]
    fn bogus_report_drops_entry_and_counts() {
        let (_, _, base) = line_with_head_ret();
        let mut skia = Skia::new(first_policy());
        enter(&mut skia);
        skia.note_bogus(base + 3);
        assert!(skia.lookup(base + 3).is_none());
        assert!(skia.stats().bogus_rate() > 0.0);
    }

    #[test]
    fn telemetry_records_lifetimes_and_events() {
        use skia_telemetry::TraceConfig;
        let (_, _, base) = line_with_head_ret();
        let mut skia = Skia::new(first_policy());
        let trace = EventTrace::new(TraceConfig::default());
        skia.set_trace(trace.clone());

        skia.set_cycle(100);
        assert_eq!(enter(&mut skia), 1);
        skia.set_cycle(250);
        skia.note_bogus(base + 3);

        let s = skia.entry_lifetimes().snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 150, "lifetime = eviction cycle - birth cycle");
        let kinds: Vec<_> = trace.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EventKind::SbbInsert, EventKind::SbbEvict]);
        assert_eq!(trace.events()[1].arg, 150);
    }

    #[test]
    fn retirement_flows_through() {
        let (_, exit_offset, base) = line_with_tail_jmp();
        let mut skia = Skia::new(SkiaConfig::default());
        exit(&mut skia);
        skia.mark_retired(base + exit_offset as u64);
        assert_eq!(skia.stats().sbb.retirements, 1);
        assert_eq!(skia.stats().useful_uses, 1);
    }

    /// `sbb.retired_aware` alone picks the replacement policy: in a full
    /// one-set R-SBB, a retired LRU entry is the victim under plain LRU and
    /// outlives a younger unretired one under the retired-aware policy.
    #[test]
    fn sbb_retired_aware_selects_the_victim() {
        let ret = |pc| ShadowBranch {
            pc,
            len: 1,
            kind: BranchKind::Return,
            target: None,
            line_offset: 0,
        };
        for retired_aware in [false, true] {
            let mut skia = Skia::new(SkiaConfig {
                sbb: SbbConfig {
                    u_entries: 2,
                    r_entries: 2,
                    ways: 2,
                    retired_aware,
                },
                ..SkiaConfig::default()
            });
            skia.force_insert(&ret(0x100));
            skia.mark_retired(0x100);
            skia.force_insert(&ret(0x200));
            skia.force_insert(&ret(0x300));
            assert_eq!(skia.probe(0x100).is_some(), retired_aware, "retired");
            assert_eq!(skia.probe(0x200).is_some(), !retired_aware, "unretired");
            assert!(skia.probe(0x300).is_some());
        }
    }

    /// The reference fill: a walk over a region's decoded branch list in
    /// which a branch known or already held is filtered and any other is
    /// inserted.
    fn fill_by_list(skia: &mut Skia, branches: &[ShadowBranch], known: u64) -> usize {
        let mut inserted = 0;
        for b in branches {
            if (known >> b.line_offset) & 1 == 1 || skia.sbb.contains(b.pc) {
                skia.filtered_known += 1;
                continue;
            }
            if let Some((victim, birth)) = skia.sbb.insert_at(b, skia.tel.cycle) {
                skia.tel.note_remove(victim, birth);
            }
            skia.tel.note_insert(b.pc);
            inserted += 1;
        }
        inserted
    }

    /// Lines of the fill proptest, and the first one's base address.
    const LINES: usize = 3;
    const FILL_BASE: u64 = 0x4000;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// On an SBB of two 2-way sets, where a fill's inserts evict
        /// members of its own region, the mask fill through the decode
        /// table (slots at even offsets, fresh decodes at odd ones) leaves
        /// the SBB, both its bitmaps, the counters, the entry lifetimes and
        /// the event trace equal to a per-branch fill over the fresh list.
        #[test]
        fn mask_fill_equals_per_branch_fill(
            picks in proptest::collection::vec((0u8..9, proptest::prelude::any::<u8>()), 192..193),
            ops in proptest::collection::vec(
                (proptest::prelude::any::<bool>(), 0usize..LINES, 1u64..64, 0u8..4, proptest::prelude::any::<u64>()),
                1..60,
            ),
        ) {
            use skia_telemetry::TraceConfig;
            let image = crate::sbd::tests::branchy_line(&picks);
            let line = |addr: u64| {
                let base = addr & !63;
                let i = (base - FILL_BASE) as usize;
                (base, <[u8; CACHE_LINE_BYTES]>::try_from(&image[i..i + 64]).unwrap())
            };
            let config = SkiaConfig {
                index_policy: IndexPolicy::First,
                sbb: SbbConfig { u_entries: 2, r_entries: 2, ways: 2, retired_aware: true },
                ..SkiaConfig::default()
            };
            let span = FILL_BASE..FILL_BASE + (LINES * 64) as u64;
            let even = || span.clone().step_by(2);
            let table = DecodeTable::new(config.index_policy, config.max_valid_paths, span.clone(), even(), even());
            let mut masked = Skia::with_table(config, Arc::new(table));
            let mut listed = Skia::build(config, None, span.clone());
            let traces = [EventTrace::new(TraceConfig::default()), EventTrace::new(TraceConfig::default())];
            masked.set_trace(traces[0].clone());
            listed.set_trace(traces[1].clone());
            for (cycle, &(head, li, off, known_sel, known_bits)) in ops.iter().enumerate() {
                // Known words: none, all, or random bits.
                let known = [0, 0, u64::MAX, known_bits][usize::from(known_sel)];
                let addr = FILL_BASE + li as u64 * 64 + off;
                masked.set_cycle(cycle as u64);
                listed.set_cycle(cycle as u64);
                let (base, bytes) = line(addr);
                let (got, want) = if head {
                    let got = masked.on_block_entered(addr, line, |_| known);
                    let hd = listed.sbd.decode_head(&bytes, base, off as usize);
                    (got, fill_by_list(&mut listed, &hd.branches, known))
                } else {
                    let got = masked.on_block_exited(addr, line, |_| known);
                    let found = listed.sbd.decode_tail(&bytes, base, off as usize);
                    (got, fill_by_list(&mut listed, &found, known))
                };
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(masked.stats(), listed.stats());
                proptest::prop_assert_eq!(masked.occupancy(), listed.occupancy());
                for pc in span.clone() {
                    proptest::prop_assert_eq!(masked.probe(pc), listed.probe(pc), "pc {:#x}", pc);
                    proptest::prop_assert_eq!(masked.ever_inserted(pc), listed.ever_inserted(pc));
                }
                for base in span.clone().step_by(64) {
                    proptest::prop_assert_eq!(masked.sbb_resident().line(base), listed.sbb_resident().line(base));
                }
            }
            proptest::prop_assert_eq!(traces[0].events(), traces[1].events());
            proptest::prop_assert_eq!(masked.entry_lifetimes().snapshot(), listed.entry_lifetimes().snapshot());
        }
    }
}
