//! The Skia mechanism: SBD + SBB wired together the way Fig. 11 attaches
//! them to the BPU.
//!
//! The front-end drives this object at three points:
//!
//! * when an FTQ entry's cache line finishes its prefetch, the SBD examines
//!   the line's shadow region(s) — [`Skia::on_line_entered`] for the head
//!   region of the entry's first line, [`Skia::on_line_exited`] for the tail
//!   region of its last line. Both run **off the critical path**; the paper
//!   lets them take multiple cycles because shadow branches are not needed
//!   until much later.
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
use crate::sbd::{DecodeTable, IndexPolicy, ShadowBranch, ShadowDecoder, ShadowDecoderStats};

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
    /// SBB geometry.
    pub sbb: SbbConfig,
    /// Use the retired-bit eviction preference (§4.3). Disabled only for the
    /// replacement-policy ablation.
    pub retired_bit_replacement: bool,
    /// Skip inserting shadow branches that are currently BTB-resident.
    /// The paper's SBB fills unconditionally (the structures are parallel);
    /// filtering saves SBB space but loses exactly the branches that will
    /// miss right after their BTB eviction. Off by default; exposed for the
    /// ablation bench.
    pub filter_btb_resident: bool,
}

impl Default for SkiaConfig {
    /// The paper's configuration, with one substrate-specific deviation:
    /// the default head-decode index policy here is [`IndexPolicy::Merge`],
    /// not the paper's `First`. On real binaries the first validated start
    /// index is almost always the true boundary (the paper reports First >
    /// Zero > Merge); on this crate's synthetic code the pre-merge prefix
    /// of the first path contains phantom branches often enough to poison
    /// the R-SBB, while the merged suffix is reliable. The policy ablation
    /// bench (`bench/benches/ablations.rs`) quantifies the difference.
    fn default() -> Self {
        SkiaConfig {
            head: true,
            tail: true,
            index_policy: IndexPolicy::Merge,
            max_valid_paths: 6,
            sbb: SbbConfig::default(),
            retired_bit_replacement: true,
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

    /// Build Skia for one program: head and tail regions that have a slot
    /// in `table` are decoded once there and shared, and the SBB's bitmaps
    /// cover the table's lines.
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
        let sbb_config = SbbConfig {
            retired_aware: config.retired_bit_replacement,
            ..config.sbb
        };
        Skia {
            sbd: ShadowDecoder::new(config.index_policy, config.max_valid_paths),
            sbb: Sbb::covering(sbb_config, lines),
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

    /// Head-decode hook: the FTQ entry beginning at `line_base +
    /// entry_offset` has its line resident; examine bytes `0..entry_offset`.
    ///
    /// Returns the number of shadow branches inserted.
    pub fn on_line_entered(&mut self, line: &[u8], line_base: u64, entry_offset: usize) -> usize {
        self.on_line_entered_filtered(line, line_base, entry_offset, |_| false)
    }

    /// [`Skia::on_line_entered`] with a `known` filter: branches for which
    /// `known(pc)` returns `true` (e.g. already BTB-resident) are skipped.
    pub fn on_line_entered_filtered(
        &mut self,
        line: &[u8],
        line_base: u64,
        entry_offset: usize,
        known: impl Fn(u64) -> bool,
    ) -> usize {
        if !self.config.head || entry_offset == 0 {
            return 0;
        }
        let region = self.sbd.decode_head_ref(line, line_base, entry_offset);
        self.fill(&region.branches, known)
    }

    /// Tail-decode hook: the FTQ entry leaves its last line at
    /// `exit_offset` (first byte after the taken branch); examine bytes
    /// `exit_offset..`.
    pub fn on_line_exited(&mut self, line: &[u8], line_base: u64, exit_offset: usize) -> usize {
        self.on_line_exited_filtered(line, line_base, exit_offset, |_| false)
    }

    /// [`Skia::on_line_exited`] with a `known` filter.
    pub fn on_line_exited_filtered(
        &mut self,
        line: &[u8],
        line_base: u64,
        exit_offset: usize,
        known: impl Fn(u64) -> bool,
    ) -> usize {
        if !self.config.tail || exit_offset >= line.len() {
            return 0;
        }
        let region = self.sbd.decode_tail_ref(line, line_base, exit_offset);
        self.fill(&region.branches, known)
    }

    /// [`Skia::on_line_entered_filtered`] through the decode table: `slot`
    /// names the head region's table slot, if it has one, and `line`
    /// supplies `(line base, bytes)` only when the region must be decoded.
    pub fn on_block_entered(
        &mut self,
        entry_offset: usize,
        slot: impl FnOnce() -> Option<usize>,
        line: impl FnOnce() -> (u64, [u8; CACHE_LINE_BYTES]),
        known: impl Fn(u64) -> bool,
    ) -> usize {
        if !self.config.head || entry_offset == 0 {
            return 0;
        }
        if let Some((table, i)) = self.table.as_deref().zip(slot()) {
            let region = table.head(i, entry_offset, line);
            self.sbd.count_head(region);
            return fill_sbb(
                &mut self.sbb,
                &mut self.filtered_known,
                &mut self.tel,
                &region.branches,
                known,
            );
        }
        let (line_base, bytes) = line();
        self.on_line_entered_filtered(&bytes, line_base, entry_offset, known)
    }

    /// [`Skia::on_line_exited_filtered`] through the decode table (see
    /// [`Skia::on_block_entered`]).
    pub fn on_block_exited(
        &mut self,
        exit_offset: usize,
        slot: impl FnOnce() -> Option<usize>,
        line: impl FnOnce() -> (u64, [u8; CACHE_LINE_BYTES]),
        known: impl Fn(u64) -> bool,
    ) -> usize {
        if !self.config.tail || exit_offset >= CACHE_LINE_BYTES {
            return 0;
        }
        if let Some((table, i)) = self.table.as_deref().zip(slot()) {
            let region = table.tail(i, exit_offset, line);
            self.sbd.count_tail(region);
            return fill_sbb(
                &mut self.sbb,
                &mut self.filtered_known,
                &mut self.tel,
                &region.branches,
                known,
            );
        }
        let (line_base, bytes) = line();
        self.on_line_exited_filtered(&bytes, line_base, exit_offset, known)
    }

    /// Fill the SBB with freshly decoded branches.
    fn fill(&mut self, branches: &[ShadowBranch], known: impl Fn(u64) -> bool) -> usize {
        fill_sbb(
            &mut self.sbb,
            &mut self.filtered_known,
            &mut self.tel,
            branches,
            known,
        )
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

/// Insert decoded shadow branches into the SBB (the body of the
/// shadow-decode hooks), skipping those `known` or already held. A free
/// function over `Skia`'s disjoint fields so the branch list may stay
/// borrowed from the decode table while the SBB side mutates.
fn fill_sbb(
    sbb: &mut Sbb,
    filtered_known: &mut u64,
    tel: &mut SkiaTelemetry,
    branches: &[ShadowBranch],
    known: impl Fn(u64) -> bool,
) -> usize {
    let mut inserted = 0;
    for b in branches {
        if known(b.pc) || sbb.contains(b.pc) {
            *filtered_known += 1;
            continue;
        }
        if let Some((victim, birth)) = sbb.insert_at(b, tel.cycle) {
            tel.note_remove(victim, birth);
        }
        tel.note_insert(b.pc);
        inserted += 1;
    }
    inserted
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

    fn line_with_head_ret() -> (Vec<u8>, usize, u64) {
        // [nop3][ret][nop4] entry at 8.
        let mut line = Vec::new();
        encode::nop_exact(&mut line, 3);
        encode::ret(&mut line);
        encode::nop_exact(&mut line, 4);
        let entry = line.len();
        while line.len() < 64 {
            encode::nop_exact(&mut line, 1);
        }
        (line, entry, 0x4000)
    }

    fn line_with_tail_jmp() -> (Vec<u8>, usize, u64) {
        // [jmp rel8 exits at 2][jmp rel32 in shadow]
        let mut line = Vec::new();
        encode::jmp_rel8(&mut line, 20);
        let exit = line.len();
        encode::jmp_rel32(&mut line, 0x80);
        while line.len() < 64 {
            encode::nop_exact(&mut line, 1);
        }
        (line, exit, 0x5000)
    }

    #[test]
    fn head_hook_fills_sbb() {
        let (line, entry, base) = line_with_head_ret();
        let mut skia = Skia::new(first_policy());
        let n = skia.on_line_entered(&line, base, entry);
        assert_eq!(n, 1);
        let hit = skia.lookup(base + 3).unwrap();
        assert_eq!(hit.kind, BranchKind::Return);
    }

    #[test]
    fn tail_hook_fills_sbb() {
        let (line, exit, base) = line_with_tail_jmp();
        let mut skia = Skia::new(SkiaConfig::default());
        let n = skia.on_line_exited(&line, base, exit);
        assert_eq!(n, 1);
        let hit = skia.lookup(base + exit as u64).unwrap();
        assert_eq!(hit.kind, BranchKind::DirectUncond);
        assert_eq!(hit.target, Some(base + exit as u64 + 5 + 0x80));
    }

    #[test]
    fn head_only_config_ignores_tail() {
        let (line, exit, base) = line_with_tail_jmp();
        let mut skia = Skia::new(SkiaConfig::head_only());
        assert_eq!(skia.on_line_exited(&line, base, exit), 0);
        assert!(skia.lookup(base + exit as u64).is_none());
    }

    #[test]
    fn tail_only_config_ignores_head() {
        let (line, entry, base) = line_with_head_ret();
        let mut skia = Skia::new(SkiaConfig::tail_only());
        assert_eq!(skia.on_line_entered(&line, base, entry), 0);
    }

    #[test]
    fn known_filter_suppresses_insertion() {
        let (line, entry, base) = line_with_head_ret();
        let mut skia = Skia::new(first_policy());
        let n = skia.on_line_entered_filtered(&line, base, entry, |pc| pc == base + 3);
        assert_eq!(n, 0);
        assert_eq!(skia.stats().filtered_known, 1);
    }

    #[test]
    fn duplicate_insertion_is_suppressed() {
        let (line, entry, base) = line_with_head_ret();
        let mut skia = Skia::new(first_policy());
        assert_eq!(skia.on_line_entered(&line, base, entry), 1);
        assert_eq!(skia.on_line_entered(&line, base, entry), 0);
        assert_eq!(skia.stats().sbb.r_inserts, 1);
    }

    #[test]
    fn bogus_report_drops_entry_and_counts() {
        let (line, entry, base) = line_with_head_ret();
        let mut skia = Skia::new(first_policy());
        skia.on_line_entered(&line, base, entry);
        skia.note_bogus(base + 3);
        assert!(skia.lookup(base + 3).is_none());
        assert!(skia.stats().bogus_rate() > 0.0);
    }

    #[test]
    fn telemetry_records_lifetimes_and_events() {
        use skia_telemetry::TraceConfig;
        let (line, entry, base) = line_with_head_ret();
        let mut skia = Skia::new(first_policy());
        let trace = EventTrace::new(TraceConfig::default());
        skia.set_trace(trace.clone());

        skia.set_cycle(100);
        assert_eq!(skia.on_line_entered(&line, base, entry), 1);
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
        let (line, exit, base) = line_with_tail_jmp();
        let mut skia = Skia::new(SkiaConfig::default());
        skia.on_line_exited(&line, base, exit);
        skia.mark_retired(base + exit as u64);
        assert_eq!(skia.stats().sbb.retirements, 1);
        assert_eq!(skia.stats().useful_uses, 1);
    }
}
