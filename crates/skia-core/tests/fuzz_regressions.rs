//! Shadow-decoder regressions pinned from the `skia-fuzz` shadow-target
//! corpus.
//!
//! The line below came out of a coverage-guided run: a `ret`-saturated line
//! whose head region validates four distinct path starts, with a call and a
//! backward jump straddling the middle. It pins the full per-policy
//! contract of `decode_head` — including the documented `Zero` behaviour of
//! starting extraction at byte 0 even when the zero path itself did not
//! validate — and the tail decode. The token
//! `SKIA_FUZZ_REPLAY='shadow:45:34:<hex>' cargo test -p skia-fuzz --test
//! fuzz` replays the same line through the production/reference pair.

use skia_core::{IndexPolicy, ShadowDecoder};
use skia_isa::BranchKind;

const LINE_HEX: &str = "c3c3c3c343c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3\
c3c3c3c3e8810000e9d5feffffc3c3c3c3c391c3c3c3c343c3c3c3c3c3c3c3c3c3";
const BASE: u64 = 0x4000;
const ENTRY: usize = 45;
const EXIT: usize = 34;

fn line() -> Vec<u8> {
    (0..LINE_HEX.len() / 2)
        .map(|i| u8::from_str_radix(&LINE_HEX[i * 2..i * 2 + 2], 16).unwrap())
        .collect()
}

#[test]
fn head_validates_four_path_starts_under_every_policy() {
    for policy in IndexPolicy::ALL {
        let mut d = ShadowDecoder::new(policy, 6);
        let hd = d.decode_head(&line(), BASE, ENTRY);
        assert_eq!(hd.valid_starts, vec![37, 39, 43, 44], "{policy:?}");
        assert!(!hd.discarded, "{policy:?}");
    }
}

#[test]
fn first_policy_extracts_jump_and_return_from_lowest_start() {
    let mut d = ShadowDecoder::new(IndexPolicy::First, 6);
    let hd = d.decode_head(&line(), BASE, ENTRY);
    assert_eq!(hd.chosen_start, Some(37));
    let summary: Vec<(u64, u8, BranchKind)> =
        hd.branches.iter().map(|b| (b.pc, b.len, b.kind)).collect();
    assert_eq!(
        summary,
        vec![
            (BASE + 39, 5, BranchKind::DirectUncond),
            (BASE + 44, 1, BranchKind::Return),
        ]
    );
    // The jump at offset 39 is `e9 d5 fe ff ff`: rel32 −299 from its end.
    assert_eq!(hd.branches[0].target, Some(BASE + 39 + 5 - 299));
}

#[test]
fn merge_policy_extracts_only_the_convergence_suffix() {
    let mut d = ShadowDecoder::new(IndexPolicy::Merge, 6);
    let hd = d.decode_head(&line(), BASE, ENTRY);
    // Starts 37/39/43 all funnel into the final ret at 44; merging keeps
    // only what every family agrees on.
    assert_eq!(hd.chosen_start, Some(44));
    assert_eq!(hd.branches.len(), 1);
    assert_eq!(
        (hd.branches[0].pc, hd.branches[0].kind),
        (BASE + 44, BranchKind::Return)
    );
}

#[test]
fn zero_policy_starts_at_byte_zero_even_when_zero_path_is_invalid() {
    let mut d = ShadowDecoder::new(IndexPolicy::Zero, 6);
    let hd = d.decode_head(&line(), BASE, ENTRY);
    // Byte 0 is not among the validated starts — the zero chain dies at
    // offset 41 (`d5` is invalid in 64-bit mode) — but per the paper the
    // Zero policy still decodes from index zero and stops at the first
    // undecodable byte.
    assert!(!hd.valid_starts.contains(&0));
    assert_eq!(hd.chosen_start, Some(0));
    // 34 rets, then the call at offset 35; the chain dies at offset 40.
    assert_eq!(hd.branches.len(), 35);
    let (rets, rest) = hd.branches.split_at(34);
    assert!(rets.iter().all(|b| b.kind == BranchKind::Return));
    assert_eq!(
        (rest[0].pc, rest[0].len, rest[0].kind),
        (BASE + 35, 5, BranchKind::Call)
    );
}

#[test]
fn tail_decode_finds_return_then_call_and_repeats_identically() {
    let mut d = ShadowDecoder::new(IndexPolicy::First, 6);
    let first = d.decode_tail(&line(), BASE, EXIT);
    let summary: Vec<(u64, u8, BranchKind)> = first.iter().map(|b| (b.pc, b.len, b.kind)).collect();
    assert_eq!(
        summary,
        vec![
            (BASE + 34, 1, BranchKind::Return),
            (BASE + 35, 5, BranchKind::Call),
        ]
    );
    let stats_once = d.stats();
    // A repeat returns the identical decode and counts the same again.
    let second = d.decode_tail(&line(), BASE, EXIT);
    assert_eq!(first, second);
    assert_eq!(d.stats().tail_regions, stats_once.tail_regions * 2);
    assert_eq!(d.stats().tail_branches, stats_once.tail_branches * 2);
}
