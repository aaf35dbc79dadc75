//! The lockstep differential driver.
//!
//! [`run_case`] runs the production `skia_frontend::Simulator` and the
//! oracle [`RefSimulator`] side by side over one generated workload,
//! comparing the **full** [`SimStats`] (every counter, the per-kind miss
//! table, all three cache levels, the Skia/SBB/SBD counters and the exact
//! `mean_ftq_occupancy` float) after *every* retired trace step, and the
//! complete telemetry event stream (resteers, SBB insert/evict/rescue,
//! BTB misses, prefetch issues, shadow decodes — order included) at the
//! end of the run. On divergence it returns a [`DivergenceReport`] whose
//! `Display` prints the minimal replay command: the encoded [`DiffCase`]
//! (which contains the program seed and the trace seed) plus the step
//! index at which the two simulators first disagreed.
//!
//! [`OracleFault`] injects deliberate bugs into the oracle (stale BTB LRU,
//! ignored retired bit, broken head/tail decode, a TAGE history fold that
//! drops the outgoing bit) so the harness can prove it actually catches
//! divergences.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use skia_core::{SbbConfig, SkiaConfig};
use skia_frontend::config::{BtbMode, FrontendConfig};
use skia_frontend::{SimStats, Simulator};
use skia_telemetry::{Snapshot, TraceConfig};
use skia_uarch::btb::BtbConfig;
use skia_uarch::cache::{CacheConfig, HierarchyConfig};
use skia_workloads::{Layout, Program, ProgramSpec, TraceStep, Walker};

use crate::ref_sbd::SbdFault;
use crate::ref_sim::{RefBtbStore, RefSimulator};
use crate::ref_skia::EventSink;

/// One differential test case: everything needed to regenerate the
/// program, the trace and the configuration bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffCase {
    /// Program-generator seed.
    pub spec_seed: u64,
    /// Function count of the generated program.
    pub functions: usize,
    /// `true` → Bolted layout, `false` → Interleaved.
    pub bolted: bool,
    /// Walker seed.
    pub trace_seed: u64,
    /// Retired trace steps to replay.
    pub steps: usize,
    /// Whether the Skia mechanism is attached.
    pub with_skia: bool,
    /// Finite-BTB sets (4 ways each — small values create real pressure).
    pub btb_sets: usize,
    /// Use a deliberately tiny SBB so eviction/retired-bit policy is hot.
    pub small_sbb: bool,
    /// Use a 1 KB L1-I, 2 KB L2 and 8 KB L3 instead of the paper's
    /// hierarchy, so the test programs' code also hits in the L3 and
    /// misses to DRAM.
    pub small_caches: bool,
}

impl DiffCase {
    /// Serialize to the colon-joined replay token printed by divergence
    /// reports and accepted by `SKIA_DIFF_REPLAY`.
    pub fn encode(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}:{}:{}:{}:{}",
            self.spec_seed,
            self.functions,
            u8::from(self.bolted),
            self.trace_seed,
            self.steps,
            u8::from(self.with_skia),
            self.btb_sets,
            u8::from(self.small_sbb),
            u8::from(self.small_caches),
        )
    }

    /// Parse a replay token produced by [`DiffCase::encode`]. A token that
    /// cannot build its case (fewer than two functions, or no BTB sets) is
    /// `None`.
    pub fn decode(s: &str) -> Option<DiffCase> {
        let mut it = s.trim().split(':');
        let case = DiffCase {
            spec_seed: it.next()?.parse().ok()?,
            functions: it.next()?.parse().ok()?,
            bolted: it.next()? == "1",
            trace_seed: it.next()?.parse().ok()?,
            steps: it.next()?.parse().ok()?,
            with_skia: it.next()? == "1",
            btb_sets: it.next()?.parse().ok()?,
            small_sbb: it.next()? == "1",
            small_caches: it.next()? == "1",
        };
        if it.next().is_some() || case.functions < 2 || case.btb_sets == 0 {
            return None;
        }
        Some(case)
    }

    /// The program specification this case generates.
    pub fn spec(&self) -> ProgramSpec {
        ProgramSpec {
            seed: self.spec_seed,
            functions: self.functions,
            layout: if self.bolted {
                Layout::Bolted
            } else {
                Layout::Interleaved
            },
            ..ProgramSpec::default()
        }
    }

    /// The front-end configuration this case runs under.
    pub fn config(&self) -> FrontendConfig {
        let mut c = FrontendConfig::test_small();
        c.btb = BtbMode::Finite(BtbConfig {
            entries: self.btb_sets * 4,
            ways: 4,
        });
        c.skia = self.with_skia.then(|| {
            let mut sc = SkiaConfig::default();
            if self.small_sbb {
                sc.sbb = SbbConfig {
                    u_entries: 32,
                    r_entries: 40,
                    ways: 4,
                    retired_aware: true,
                };
            }
            sc
        });
        if self.small_caches {
            let cache = |kb: usize, ways: usize| CacheConfig {
                size_bytes: kb * 1024,
                ways,
            };
            c.hierarchy = HierarchyConfig {
                l1i: cache(1, 4),
                l2: cache(2, 4),
                l3: cache(8, 8),
            };
        }
        c
    }
}

/// Deliberate oracle bugs, used to prove the harness detects divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleFault {
    /// BTB lookups stop refreshing LRU recency (replacement skew).
    StaleBtbLru,
    /// SBB victim selection ignores the retired bit (§4.3 policy dropped).
    IgnoreRetiredBit,
    /// Reference tail decode starts one byte past the exit boundary
    /// (§3.3 broken; see [`crate::ref_sbd::SbdFault`]).
    TailSkipFirstByte,
    /// Reference head extraction walks from the last valid start instead of
    /// the policy-chosen one (§3.2 selection broken).
    HeadChoosesLastStart,
    /// The reference TAGE's history folds ignore the bit leaving each
    /// table's window (see [`crate::ref_predict::RefTage::drop_outgoing_bit`]).
    FoldDropsOutgoingBit,
}

impl OracleFault {
    /// Every knob, for exhaustive fault-injection sweeps.
    pub const ALL: [OracleFault; 5] = [
        OracleFault::StaleBtbLru,
        OracleFault::IgnoreRetiredBit,
        OracleFault::TailSkipFirstByte,
        OracleFault::HeadChoosesLastStart,
        OracleFault::FoldDropsOutgoingBit,
    ];

    /// Stable kebab-case tag, used in fuzz replay tokens.
    pub fn tag(&self) -> &'static str {
        match self {
            OracleFault::StaleBtbLru => "stale-btb-lru",
            OracleFault::IgnoreRetiredBit => "ignore-retired-bit",
            OracleFault::TailSkipFirstByte => "tail-skip-first-byte",
            OracleFault::HeadChoosesLastStart => "head-chooses-last-start",
            OracleFault::FoldDropsOutgoingBit => "fold-drops-outgoing-bit",
        }
    }

    /// Parse a tag produced by [`OracleFault::tag`].
    pub fn from_tag(s: &str) -> Option<OracleFault> {
        OracleFault::ALL.into_iter().find(|f| f.tag() == s)
    }
}

/// Summary of a divergence-free run.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Final statistics (identical between the two simulators).
    pub stats: SimStats,
    /// Total telemetry events compared.
    pub events: usize,
    /// Head-region decoded branches with no ground-truth branch at their PC
    /// (expected bogus candidates, §3.4).
    pub head_phantoms: u64,
    /// Tail-region phantoms (should not occur: tail decode starts at a true
    /// instruction boundary).
    pub tail_phantoms: u64,
    /// The production simulator's final telemetry snapshot. Its counter
    /// values double as a cheap behavioural-coverage signal for fuzzing.
    pub snapshot: Snapshot,
}

/// A lockstep divergence, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// The diverging case.
    pub case: DiffCase,
    /// The fault that was injected, if any.
    pub fault: Option<OracleFault>,
    /// Index of the first diverging trace step (`case.steps` means the
    /// divergence was only visible in the end-of-run event comparison).
    pub step: usize,
    /// Human-readable field/event level detail.
    pub detail: String,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lockstep divergence at step {}/{} (spec seed {}, trace seed {}){}",
            self.step,
            self.case.steps,
            self.case.spec_seed,
            self.case.trace_seed,
            match self.fault {
                Some(fault) => format!(" with injected fault {fault:?}"),
                None => String::new(),
            }
        )?;
        writeln!(f, "{}", self.detail)?;
        writeln!(
            f,
            "replay: SKIA_DIFF_REPLAY='{}' cargo test -p skia-oracle --test lockstep \
             replay_env_case -- --nocapture",
            self.case.encode()
        )
    }
}

/// List every `SimStats` field on which the two runs disagree.
fn diff_stats(real: &SimStats, oracle: &SimStats) -> Vec<String> {
    let mut diffs = Vec::new();
    macro_rules! cmp {
        ($($field:ident),+ $(,)?) => {
            $(
                if real.$field != oracle.$field {
                    diffs.push(format!(
                        "{}: real {:?} vs oracle {:?}",
                        stringify!($field),
                        real.$field,
                        oracle.$field
                    ));
                }
            )+
        };
    }
    cmp!(
        instructions,
        cycles,
        branches,
        taken_branches,
        btb_misses,
        btb_misses_by_kind,
        btb_miss_l1i_resident,
        btb_miss_taken,
        btb_miss_rescuable,
        sbb_rescues,
        rescuable_seen_before,
        decode_resteers,
        exec_resteers,
        bogus_resteers,
        cond_branches,
        cond_mispredicts,
        indirect_branches,
        indirect_mispredicts,
        return_mispredicts,
        idle_icache_cycles,
        idle_resteer_cycles,
        decode_busy_cycles,
        wrong_path_blocks,
        wrong_path_prefetches,
        l1i,
        l2,
        l3,
        skia,
        mean_ftq_occupancy,
    );
    diffs
}

/// Run one case in lockstep. `Ok` carries the matching final state; `Err`
/// carries the first divergence.
pub fn run_case(
    case: &DiffCase,
    fault: Option<OracleFault>,
) -> Result<CaseOutcome, Box<DivergenceReport>> {
    let program = Program::generate(&case.spec());
    let config = case.config();

    let mut sim = Simulator::new(&program, config.clone());
    let trace = sim.enable_trace(TraceConfig {
        capacity: 1 << 20,
        sample_every: 1,
    });

    let sink: EventSink = Rc::new(RefCell::new(Vec::new()));
    let mut oracle = RefSimulator::new(&program, config, sink.clone());
    match fault {
        Some(OracleFault::StaleBtbLru) => {
            if let RefBtbStore::Finite(b) = &mut oracle.bpu.btb {
                b.stale_lru = true;
            }
        }
        Some(OracleFault::IgnoreRetiredBit) => {
            if let Some(skia) = &mut oracle.bpu.skia {
                skia.sbb.ignore_retired = true;
            }
        }
        Some(OracleFault::TailSkipFirstByte) => {
            if let Some(skia) = &mut oracle.bpu.skia {
                skia.sbd_mut().fault = Some(SbdFault::TailSkipFirstByte);
            }
        }
        Some(OracleFault::HeadChoosesLastStart) => {
            if let Some(skia) = &mut oracle.bpu.skia {
                skia.sbd_mut().fault = Some(SbdFault::HeadChoosesLastStart);
            }
        }
        Some(OracleFault::FoldDropsOutgoingBit) => oracle.bpu.tage.drop_outgoing_bit = true,
        None => {}
    }

    let steps: Vec<TraceStep> = Walker::new(&program, case.trace_seed, 5)
        .take(case.steps)
        .collect();

    let report = |step: usize, detail: String| {
        Box::new(DivergenceReport {
            case: *case,
            fault,
            step,
            detail,
        })
    };

    for (i, step) in steps.iter().enumerate() {
        sim.step(step);
        let real = sim.stats();
        oracle.step(step);
        let ours = oracle.stats_now();
        if real != ours {
            let detail = format!(
                "SimStats mismatch after replaying {step:?}:\n  {}",
                diff_stats(&real, &ours).join("\n  ")
            );
            return Err(report(i, detail));
        }
        if let Some(violation) = oracle
            .bpu
            .skia
            .as_ref()
            .and_then(|s| s.gt_violations.first())
        {
            return Err(report(
                i,
                format!("ground-truth violation: {}", violation.description),
            ));
        }
    }

    assert_eq!(
        trace.dropped(),
        0,
        "production event trace overflowed; raise the driver's capacity"
    );
    let real_events = trace.events();
    let oracle_events = sink.borrow();
    if *oracle_events != real_events {
        let first = real_events
            .iter()
            .zip(oracle_events.iter())
            .position(|(a, b)| a != b);
        let detail = match first {
            Some(i) => format!(
                "event stream mismatch at event {i}: real {:?} vs oracle {:?} \
                 ({} real events, {} oracle events)",
                real_events[i],
                oracle_events[i],
                real_events.len(),
                oracle_events.len()
            ),
            None => format!(
                "event stream length mismatch: {} real events vs {} oracle events",
                real_events.len(),
                oracle_events.len()
            ),
        };
        return Err(report(case.steps, detail));
    }

    let (head_phantoms, tail_phantoms) = oracle
        .bpu
        .skia
        .as_ref()
        .map_or((0, 0), |s| (s.head_phantoms, s.tail_phantoms));
    Ok(CaseOutcome {
        stats: oracle.stats_now(),
        events: real_events.len(),
        head_phantoms,
        tail_phantoms,
        snapshot: sim.snapshot(),
    })
}
