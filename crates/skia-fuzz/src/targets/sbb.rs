//! SBB structure target.
//!
//! Mutated operation sequences — insert / lookup / probe / retire /
//! invalidate / next-key scans over a deliberately tiny split U-SBB/R-SBB —
//! executed in lockstep on the production bitmap-indexed
//! [`skia_core::Sbb`] and the linear-search reference [`RefSbb`]. Every
//! operation's observable result must match, and so must the final stats
//! and occupancy. Because the geometry guarantees set collisions, the op
//! sequences race exactly the §4.3 policy the paper cares about: victim
//! selection must prefer never-retired entries, and a retired return in the
//! R-SBB must survive pressure that evicts its unretired neighbours.
//!
//! Inserts follow the production fill discipline (probe-before-insert:
//! a resident PC is never re-inserted), matching how `Skia::fill` drives
//! the structure.

use rand::rngs::SmallRng;
use rand::Rng;

use skia_core::{Sbb, SbbConfig, ShadowBranch};
use skia_isa::BranchKind;
use skia_oracle::RefSbb;

use crate::engine::{FuzzTarget, RunResult};
use crate::feature;

/// PCs come from a small strided pool so set collisions are the norm.
const PC_BASE: u64 = 0x8000;
const PC_STRIDE: u64 = 7;
const PC_SLOTS: u8 = 48;

/// Tiny geometry: 4 sets × 2 ways per half.
const GEOMETRY: SbbConfig = SbbConfig {
    u_entries: 8,
    r_entries: 8,
    ways: 2,
    retired_aware: true,
};

/// One structural operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbbOp {
    /// Insert an unconditional direct jump at `slot`, targeting `tgt`.
    InsertUncond { slot: u8, tgt: u8 },
    /// Insert a call at `slot`, targeting `tgt`.
    InsertCall { slot: u8, tgt: u8 },
    /// Insert a return at `slot`.
    InsertRet { slot: u8 },
    /// Recency-updating lookup.
    Lookup { slot: u8 },
    /// Stateless probe.
    Probe { slot: u8 },
    /// Commit hook: set the retired bit.
    Retire { slot: u8 },
    /// Verification hook: drop a bogus entry.
    Invalidate { slot: u8 },
    /// Fetch-window scan from `slot` (production `next_key_in`).
    NextKey { slot: u8 },
}

fn pc(slot: u8) -> u64 {
    PC_BASE + u64::from(slot % PC_SLOTS) * PC_STRIDE
}

fn branch(slot: u8, kind: BranchKind, tgt: u8) -> ShadowBranch {
    ShadowBranch {
        pc: pc(slot),
        len: 2 + slot % 4,
        kind,
        target: match kind {
            BranchKind::Return => None,
            _ => Some(pc(tgt)),
        },
        line_offset: (pc(slot) % 64) as u8,
    }
}

/// The SBB structural differential target.
#[derive(Debug, Default)]
pub struct SbbTarget {
    /// Fault knob: the reference ignores the retired bit during victim
    /// selection (degrades §4.3 to plain LRU) — must be caught.
    pub ignore_retired: bool,
}

impl SbbTarget {
    /// An honest target.
    #[must_use]
    pub fn new() -> SbbTarget {
        SbbTarget {
            ignore_retired: false,
        }
    }

    /// A target whose reference SBB ignores the retired bit.
    #[must_use]
    pub fn with_ignored_retired_bit() -> SbbTarget {
        SbbTarget {
            ignore_retired: true,
        }
    }
}

impl FuzzTarget for SbbTarget {
    type Input = Vec<SbbOp>;

    fn name(&self) -> &'static str {
        "sbb"
    }

    fn fault_tag(&self) -> Option<&'static str> {
        self.ignore_retired.then_some("ignore-retired-bit")
    }

    fn seeds(&self) -> Vec<Vec<SbbOp>> {
        use SbbOp::*;
        vec![
            // Fill one U set past capacity, with one retired survivor.
            vec![
                InsertUncond { slot: 0, tgt: 9 },
                Retire { slot: 0 },
                InsertUncond { slot: 8, tgt: 9 },
                InsertUncond { slot: 16, tgt: 9 },
                InsertUncond { slot: 24, tgt: 9 },
                Lookup { slot: 0 },
                Lookup { slot: 24 },
                NextKey { slot: 0 },
            ],
            // Returns under pressure: retired-bit priority in the R-SBB.
            vec![
                InsertRet { slot: 1 },
                InsertRet { slot: 9 },
                Retire { slot: 9 },
                InsertRet { slot: 17 },
                InsertRet { slot: 25 },
                InsertRet { slot: 33 },
                Lookup { slot: 9 },
                Probe { slot: 1 },
                NextKey { slot: 1 },
            ],
            // Mixed call/ret traffic with a bogus drop.
            vec![
                InsertCall { slot: 2, tgt: 5 },
                InsertRet { slot: 3 },
                Lookup { slot: 2 },
                Invalidate { slot: 2 },
                Lookup { slot: 2 },
                Retire { slot: 3 },
                InsertRet { slot: 11 },
                InsertRet { slot: 19 },
                InsertRet { slot: 27 },
                Lookup { slot: 3 },
            ],
        ]
    }

    fn mutate(&self, base: &Vec<SbbOp>, rng: &mut SmallRng) -> Vec<SbbOp> {
        use SbbOp::*;
        let mut ops = base.clone();
        let random_op = |rng: &mut SmallRng| {
            let slot = (rng.gen_range(0..u32::from(PC_SLOTS))) as u8;
            let tgt = (rng.gen_range(0..u32::from(PC_SLOTS))) as u8;
            match rng.gen_range(0..8u32) {
                0 => InsertUncond { slot, tgt },
                1 => InsertCall { slot, tgt },
                2 | 3 => InsertRet { slot },
                4 => Lookup { slot },
                5 => Retire { slot },
                6 => Invalidate { slot },
                _ => {
                    if rng.gen_bool(0.5) {
                        NextKey { slot }
                    } else {
                        Probe { slot }
                    }
                }
            }
        };
        for _ in 0..rng.gen_range(1..=4usize) {
            match rng.gen_range(0..3u32) {
                0 if ops.len() < 96 => {
                    let at = rng.gen_range(0..=ops.len());
                    let op = random_op(rng);
                    ops.insert(at, op);
                }
                1 if ops.len() > 1 => {
                    let at = rng.gen_range(0..ops.len());
                    ops.remove(at);
                }
                _ => {
                    let at = rng.gen_range(0..ops.len());
                    ops[at] = random_op(rng);
                }
            }
        }
        ops
    }

    fn run(&mut self, input: &Vec<SbbOp>) -> RunResult {
        let mut prod = Sbb::new(GEOMETRY);
        let mut oracle = RefSbb::new(
            GEOMETRY.u_entries,
            GEOMETRY.r_entries,
            GEOMETRY.ways,
            GEOMETRY.retired_aware,
        );
        oracle.ignore_retired = self.ignore_retired;
        let mut features = Vec::new();

        let fail = |i: usize, op: &SbbOp, what: String| {
            RunResult::fail(
                Vec::new(),
                format!("sbb divergence at op {i} ({op:?}) of {input:?}: {what}"),
            )
        };

        for (i, op) in input.iter().enumerate() {
            match *op {
                SbbOp::InsertUncond { slot, tgt } | SbbOp::InsertCall { slot, tgt } => {
                    let kind = if matches!(op, SbbOp::InsertCall { .. }) {
                        BranchKind::Call
                    } else {
                        BranchKind::DirectUncond
                    };
                    let b = branch(slot, kind, tgt);
                    // Production fill discipline: resident PCs are filtered
                    // before insert. Both sides must agree on residency.
                    let (pr, or) = (prod.probe(b.pc).is_some(), oracle.probe(b.pc).is_some());
                    if pr != or {
                        return fail(i, op, format!("residency: production {pr} vs oracle {or}"));
                    }
                    if pr {
                        features.push(feature(&[30, u64::from(slot), 1]));
                        continue;
                    }
                    let (pe, oe) = (prod.insert(&b), oracle.insert(&b));
                    if pe != oe {
                        return fail(
                            i,
                            op,
                            format!("displaced: production {pe:?} vs oracle {oe:?}"),
                        );
                    }
                    features.push(feature(&[31, kind as u64, u64::from(pe.is_some())]));
                }
                SbbOp::InsertRet { slot } => {
                    let b = branch(slot, BranchKind::Return, 0);
                    let (pr, or) = (prod.probe(b.pc).is_some(), oracle.probe(b.pc).is_some());
                    if pr != or {
                        return fail(i, op, format!("residency: production {pr} vs oracle {or}"));
                    }
                    if pr {
                        features.push(feature(&[30, u64::from(slot), 2]));
                        continue;
                    }
                    let (pe, oe) = (prod.insert(&b), oracle.insert(&b));
                    if pe != oe {
                        return fail(
                            i,
                            op,
                            format!("displaced: production {pe:?} vs oracle {oe:?}"),
                        );
                    }
                    features.push(feature(&[32, u64::from(pe.is_some())]));
                }
                SbbOp::Lookup { slot } => {
                    let (ph, oh) = (prod.lookup(pc(slot)), oracle.lookup(pc(slot)));
                    if ph != oh {
                        return fail(i, op, format!("lookup: production {ph:?} vs oracle {oh:?}"));
                    }
                    features.push(feature(&[
                        33,
                        u64::from(slot % 8),
                        ph.map_or(9, |h| h.kind as u64),
                    ]));
                }
                SbbOp::Probe { slot } => {
                    let (ph, oh) = (prod.probe(pc(slot)), oracle.probe(pc(slot)));
                    if ph != oh {
                        return fail(i, op, format!("probe: production {ph:?} vs oracle {oh:?}"));
                    }
                }
                SbbOp::Retire { slot } => {
                    prod.mark_retired(pc(slot));
                    oracle.mark_retired(pc(slot));
                }
                SbbOp::Invalidate { slot } => {
                    prod.invalidate(pc(slot));
                    oracle.invalidate(pc(slot));
                }
                SbbOp::NextKey { slot } => {
                    let start = pc(slot);
                    let limit = start + 256;
                    let pn = prod.resident().first_in(start, limit);
                    let on = oracle.next_key_at_or_after(start).filter(|&k| k < limit);
                    if pn != on {
                        return fail(
                            i,
                            op,
                            format!("next_key: production {pn:?} vs oracle {on:?}"),
                        );
                    }
                    features.push(feature(&[34, u64::from(pn.is_some())]));
                }
            }
        }

        if prod.stats() != oracle.stats() {
            return RunResult::fail(
                Vec::new(),
                format!(
                    "sbb stats divergence on {input:?}: production {:?} vs oracle {:?}",
                    prod.stats(),
                    oracle.stats()
                ),
            );
        }
        let s = prod.stats();
        features.push(feature(&[
            35,
            s.u_hits.min(15),
            s.r_hits.min(15),
            s.evicted_unretired.min(15),
            s.retirements.min(15),
        ]));
        let (u_occ, r_occ) = prod.occupancy();
        features.push(feature(&[36, u_occ as u64, r_occ as u64]));
        RunResult::ok(features)
    }

    fn encode_input(&self, input: &Vec<SbbOp>) -> String {
        input
            .iter()
            .map(|op| match *op {
                SbbOp::InsertUncond { slot, tgt } => format!("u{slot}-{tgt}"),
                SbbOp::InsertCall { slot, tgt } => format!("c{slot}-{tgt}"),
                SbbOp::InsertRet { slot } => format!("r{slot}"),
                SbbOp::Lookup { slot } => format!("l{slot}"),
                SbbOp::Probe { slot } => format!("p{slot}"),
                SbbOp::Retire { slot } => format!("t{slot}"),
                SbbOp::Invalidate { slot } => format!("i{slot}"),
                SbbOp::NextKey { slot } => format!("n{slot}"),
            })
            .collect::<Vec<_>>()
            .join(".")
    }

    fn decode_input(&self, body: &str) -> Option<Vec<SbbOp>> {
        body.split('.')
            .map(|tok| {
                let (head, rest) = tok.split_at(tok.len().min(1));
                let parse_slot = |s: &str| s.parse::<u8>().ok().filter(|&v| v < PC_SLOTS);
                match head {
                    "u" | "c" => {
                        let (slot, tgt) = rest.split_once('-')?;
                        let (slot, tgt) = (parse_slot(slot)?, parse_slot(tgt)?);
                        Some(if head == "u" {
                            SbbOp::InsertUncond { slot, tgt }
                        } else {
                            SbbOp::InsertCall { slot, tgt }
                        })
                    }
                    "r" => Some(SbbOp::InsertRet {
                        slot: parse_slot(rest)?,
                    }),
                    "l" => Some(SbbOp::Lookup {
                        slot: parse_slot(rest)?,
                    }),
                    "p" => Some(SbbOp::Probe {
                        slot: parse_slot(rest)?,
                    }),
                    "t" => Some(SbbOp::Retire {
                        slot: parse_slot(rest)?,
                    }),
                    "i" => Some(SbbOp::Invalidate {
                        slot: parse_slot(rest)?,
                    }),
                    "n" => Some(SbbOp::NextKey {
                        slot: parse_slot(rest)?,
                    }),
                    _ => None,
                }
            })
            .collect()
    }

    fn shrink(&self, input: &Vec<SbbOp>) -> Vec<Vec<SbbOp>> {
        let mut candidates = Vec::new();
        if input.len() > 1 {
            candidates.push(input[..input.len() / 2].to_vec());
            candidates.push(input[input.len() / 2..].to_vec());
            for i in 0..input.len() {
                let mut c = input.clone();
                c.remove(i);
                candidates.push(c);
            }
        }
        candidates
    }
}
