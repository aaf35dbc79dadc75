//! Shadow-decode head/tail target.
//!
//! Synthesized 64-byte cache lines with planted entry/exit offsets, run
//! through the production Shadow Branch Decoder (head Index Computation +
//! Path Validation, tail linear decode) against the [`RefShadowDecoder`]
//! under every index policy and two ambiguity bounds. Each region is
//! decoded twice per decoder pair: the first pass decodes afresh, the
//! second reads it through a [`DecodeTable`] slot — the per-program path
//! simulators take — and counts the slot's outcome; stats must match
//! increment-for-increment. An injected [`SbdFault`] turns this target into
//! the fault-rediscovery proof for the decoder knobs.

use rand::rngs::SmallRng;
use rand::Rng;

use skia_core::{DecodeTable, DecodedRegion, IndexPolicy, ShadowDecoder};
use skia_isa::{decode, encode, InsnKind, CACHE_LINE_BYTES};
use skia_oracle::{RefShadowDecoder, SbdFault};

use crate::engine::{FuzzTarget, RunResult};
use crate::feature;

/// One synthesized line: raw bytes plus planted entry/exit offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineCase {
    /// Exactly [`CACHE_LINE_BYTES`] bytes.
    pub bytes: Vec<u8>,
    /// Head region is `0..entry` (branch target landed mid-line here).
    pub entry: usize,
    /// Tail region is `exit..64` (taken branch left the line here).
    pub exit: usize,
}

/// The policy × ambiguity-bound grid every line runs under.
const GRID: [(IndexPolicy, usize); 4] = [
    (IndexPolicy::Merge, 6),
    (IndexPolicy::First, 6),
    (IndexPolicy::Zero, 6),
    (IndexPolicy::First, 2),
];

/// The shadow-decode differential target.
#[derive(Debug, Default)]
pub struct ShadowTarget {
    /// Injected reference-decoder bug (fault-rediscovery proofs).
    pub fault: Option<SbdFault>,
}

impl ShadowTarget {
    /// An honest target.
    #[must_use]
    pub fn new() -> ShadowTarget {
        ShadowTarget { fault: None }
    }

    /// A target whose reference decoder carries `fault`.
    #[must_use]
    pub fn with_fault(fault: SbdFault) -> ShadowTarget {
        ShadowTarget { fault: Some(fault) }
    }
}

fn pad_line(mut bytes: Vec<u8>) -> Vec<u8> {
    while bytes.len() < CACHE_LINE_BYTES {
        let pad = (CACHE_LINE_BYTES - bytes.len()).min(8);
        encode::nop_exact(&mut bytes, pad);
    }
    bytes.truncate(CACHE_LINE_BYTES);
    bytes
}

/// Write a random short branch encoding somewhere inside the line.
fn plant_branch(bytes: &mut [u8], rng: &mut SmallRng) {
    let mut b = Vec::new();
    match rng.gen_range(0..5u32) {
        0 => encode::jmp_rel8(&mut b, rng.gen_range(-64..64i64) as i8),
        1 => encode::jcc_rel8(&mut b, (rng.gen_range(0..16u32)) as u8, -2),
        2 => encode::call_rel32(&mut b, rng.gen_range(-512..512i64) as i32),
        3 => encode::ret(&mut b),
        _ => encode::jmp_rel32(&mut b, rng.gen_range(-512..512i64) as i32),
    };
    let at = rng.gen_range(0..bytes.len().saturating_sub(b.len()).max(1));
    for (i, &v) in b.iter().enumerate() {
        if at + i < bytes.len() {
            bytes[at + i] = v;
        }
    }
}

impl FuzzTarget for ShadowTarget {
    type Input = LineCase;

    fn name(&self) -> &'static str {
        "shadow"
    }

    fn fault_tag(&self) -> Option<&'static str> {
        match self.fault {
            Some(SbdFault::TailSkipFirstByte) => Some("tail-skip-first-byte"),
            Some(SbdFault::HeadChoosesLastStart) => Some("head-chooses-last-start"),
            None => None,
        }
    }

    fn seeds(&self) -> Vec<LineCase> {
        let mut seeds = Vec::new();
        // Fig. 8 ambiguity: xor ebx,eax whose second byte is a ret.
        seeds.push(LineCase {
            bytes: pad_line(vec![0x31, 0xC3]),
            entry: 2,
            exit: 2,
        });
        // A call followed by padding, entered past the call.
        let mut b = Vec::new();
        encode::call_rel32(&mut b, 0x40);
        encode::nop_exact(&mut b, 3);
        seeds.push(LineCase {
            bytes: pad_line(b),
            entry: 8,
            exit: 10,
        });
        // Dense rets: every byte is a valid one-byte instruction, maximal
        // path ambiguity for the validator.
        seeds.push(LineCase {
            bytes: vec![0xC3; CACHE_LINE_BYTES],
            entry: 17,
            exit: 40,
        });
        // Pushes then ret (merging families), tail mid-line.
        seeds.push(LineCase {
            bytes: pad_line(vec![0x50, 0x50, 0xC3]),
            entry: 3,
            exit: 20,
        });
        // A jcc chain crossing the entry point.
        let mut b = Vec::new();
        for _ in 0..6 {
            encode::jcc_rel8(&mut b, 4, 2);
        }
        seeds.push(LineCase {
            bytes: pad_line(b),
            entry: 7,
            exit: 0,
        });
        seeds
    }

    fn mutate(&self, base: &LineCase, rng: &mut SmallRng) -> LineCase {
        let mut case = base.clone();
        for _ in 0..rng.gen_range(1..=3usize) {
            match rng.gen_range(0..6u32) {
                0 => {
                    let i = rng.gen_range(0..case.bytes.len());
                    case.bytes[i] ^= 1 << rng.gen_range(0..8u32);
                }
                1 => {
                    let i = rng.gen_range(0..case.bytes.len());
                    case.bytes[i] = (rng.gen_range(0..256u32)) as u8;
                }
                2 => plant_branch(&mut case.bytes, rng),
                3 => case.entry = rng.gen_range(0..CACHE_LINE_BYTES),
                4 => case.exit = rng.gen_range(0..CACHE_LINE_BYTES),
                _ => {
                    // Nudge the planted offsets by one — off-by-one head and
                    // tail boundaries are exactly where §3.2/§3.3 bugs live.
                    if rng.gen_bool(0.5) {
                        case.entry = (case.entry + 1).min(CACHE_LINE_BYTES - 1);
                    } else {
                        case.exit = case.exit.saturating_sub(1);
                    }
                }
            }
        }
        case
    }

    fn run(&mut self, input: &LineCase) -> RunResult {
        let line = &input.bytes;
        let base = 0x10_0000;
        let mut features = Vec::new();
        if line.len() != CACHE_LINE_BYTES
            || input.entry >= CACHE_LINE_BYTES
            || input.exit >= CACHE_LINE_BYTES
        {
            // Malformed inputs can only come from a hand-edited token.
            return RunResult::fail(features, format!("malformed line case: {input:?}"));
        }

        let bytes: [u8; CACHE_LINE_BYTES] = line[..].try_into().expect("length checked above");
        for (policy, bound) in GRID {
            let mut prod = ShadowDecoder::new(policy, bound);
            let mut oracle = RefShadowDecoder::new(policy, bound);
            oracle.fault = self.fault;
            let table = DecodeTable::new(policy, bound, 1, base..base + CACHE_LINE_BYTES as u64);
            for pass in 0..2 {
                let oh = oracle.decode_head(line, base, input.entry);
                let diverged = if pass == 0 {
                    let ph = prod.decode_head(line, base, input.entry);
                    let same = ph.branches == oh.branches
                        && ph.valid_starts == oh.valid_starts
                        && ph.chosen_start == oh.chosen_start
                        && ph.discarded == oh.discarded;
                    (!same).then(|| format!("{ph:?}"))
                } else {
                    let ph = table.head(0, input.entry, || (base, bytes));
                    prod.count_head(ph);
                    (*ph != DecodedRegion::from(oh.clone())).then(|| format!("{ph:?}"))
                };
                if let Some(ph) = diverged {
                    return RunResult::fail(
                        features,
                        format!(
                            "head divergence ({policy:?}, bound {bound}, pass {pass}, entry \
                             {}) on line {line:02x?}:\n  production {ph}\n  reference {oh:?}",
                            input.entry
                        ),
                    );
                }
                // Head invariants: every branch sits inside the head region
                // and re-decodes identically from the raw bytes.
                for b in &oh.branches {
                    let off = usize::from(b.line_offset);
                    if off >= input.entry || b.pc != base + off as u64 {
                        return RunResult::fail(
                            features,
                            format!("head branch outside region: {b:?} (entry {})", input.entry),
                        );
                    }
                    match decode::decode(&line[off..]) {
                        Ok(d) if d.len == b.len => match d.kind {
                            InsnKind::Branch(m) if m.kind == b.kind => {}
                            k => {
                                return RunResult::fail(
                                    features,
                                    format!("head branch kind mismatch: {b:?} vs decoded {k:?}"),
                                )
                            }
                        },
                        other => {
                            return RunResult::fail(
                                features,
                                format!("head branch does not re-decode: {b:?} vs {other:?}"),
                            )
                        }
                    }
                }
                if pass == 0 {
                    features.push(feature(&[
                        10,
                        policy as u64,
                        bound as u64,
                        oh.valid_starts.len().min(8) as u64,
                        u64::from(oh.discarded),
                        u64::from(oh.chosen_start.unwrap_or(0xFF)) / 8,
                    ]));
                    for b in &oh.branches {
                        features.push(feature(&[
                            11,
                            policy as u64,
                            b.kind as u64,
                            u64::from(b.line_offset) / 8,
                        ]));
                    }
                }

                let pt = if pass == 0 {
                    prod.decode_tail(line, base, input.exit)
                } else {
                    let region = table.tail(0, input.exit, || (base, bytes));
                    prod.count_tail(region);
                    region.branches.to_vec()
                };
                let ot = oracle.decode_tail(line, base, input.exit);
                if pt != ot {
                    return RunResult::fail(
                        features,
                        format!(
                            "tail divergence ({policy:?}, bound {bound}, pass {pass}, exit {}) \
                             on line {line:02x?}:\n  production {pt:?}\n  reference {ot:?}",
                            input.exit
                        ),
                    );
                }
                for b in &ot {
                    let off = usize::from(b.line_offset);
                    if off < input.exit || off >= CACHE_LINE_BYTES {
                        return RunResult::fail(
                            features,
                            format!("tail branch outside region: {b:?} (exit {})", input.exit),
                        );
                    }
                    if pass == 0 {
                        features.push(feature(&[
                            12,
                            b.kind as u64,
                            u64::from(b.line_offset) / 8,
                            u64::from(b.len),
                        ]));
                    }
                }
            }
            // A table read must count exactly as a fresh decode (asserted
            // per policy so a skew names the policy in the detail).
            if prod.stats() != oracle.stats() {
                return RunResult::fail(
                    features,
                    format!(
                        "stats divergence ({policy:?}, bound {bound}) on line {line:02x?} \
                         (entry {}, exit {}): production {:?} vs reference {:?}",
                        input.entry,
                        input.exit,
                        prod.stats(),
                        oracle.stats()
                    ),
                );
            }
        }
        RunResult::ok(features)
    }

    fn encode_input(&self, input: &LineCase) -> String {
        let hex: String = input.bytes.iter().map(|b| format!("{b:02x}")).collect();
        format!("{}:{}:{hex}", input.entry, input.exit)
    }

    fn decode_input(&self, body: &str) -> Option<LineCase> {
        let mut it = body.split(':');
        let entry: usize = it.next()?.parse().ok()?;
        let exit: usize = it.next()?.parse().ok()?;
        let hex = it.next()?;
        if it.next().is_some()
            || hex.len() != 2 * CACHE_LINE_BYTES
            || entry >= CACHE_LINE_BYTES
            || exit >= CACHE_LINE_BYTES
        {
            return None;
        }
        let bytes: Option<Vec<u8>> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(hex.get(i..i + 2)?, 16).ok())
            .collect();
        Some(LineCase {
            bytes: bytes?,
            entry,
            exit,
        })
    }

    fn shrink(&self, input: &LineCase) -> Vec<LineCase> {
        let mut candidates = Vec::new();
        // Shrink the head region, grow past the tail start: both reduce
        // the number of decoded bytes that matter.
        if input.entry > 0 {
            candidates.push(LineCase {
                entry: input.entry / 2,
                ..input.clone()
            });
            candidates.push(LineCase {
                entry: input.entry - 1,
                ..input.clone()
            });
        }
        if input.exit < CACHE_LINE_BYTES - 1 {
            candidates.push(LineCase {
                exit: (input.exit + CACHE_LINE_BYTES) / 2,
                ..input.clone()
            });
            candidates.push(LineCase {
                exit: input.exit + 1,
                ..input.clone()
            });
        }
        // Neutralize line bytes toward nops, one at a time.
        for i in 0..input.bytes.len() {
            if input.bytes[i] != 0x90 {
                let mut c = input.clone();
                c.bytes[i] = 0x90;
                candidates.push(c);
            }
        }
        candidates
    }
}
