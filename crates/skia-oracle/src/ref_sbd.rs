//! Reference Shadow Branch Decoder.
//!
//! Re-implements the paper's tail decode (§3.3) and two-phase head decode
//! (§3.2: Index Computation + Path Validation) directly from the text, with
//! no shared table and no counting from stored outcomes — every region is
//! decoded from the bytes every time. Running this in lockstep against the
//! production `skia_core::ShadowDecoder` and the per-program
//! `skia_core::DecodeTable` differentially tests both: a slot holding the
//! wrong region or a count skew shows up as a `ShadowDecoderStats` or
//! shadow-branch divergence.

use skia_core::{HeadDecode, IndexPolicy, ShadowBranch, ShadowDecoderStats};
use skia_isa::{decode, InsnKind};

/// Deliberate reference-decoder bugs, settable through
/// [`RefShadowDecoder::fault`]. Used by the fault-injection proofs: the
/// differential harness and the fuzzer must *detect* each of these as a
/// divergence from the production decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbdFault {
    /// Tail decode starts one byte past the known boundary, as if the exit
    /// offset were off by one (§3.3 broken).
    TailSkipFirstByte,
    /// Head extraction walks from the *last* valid start index instead of
    /// the policy-chosen one (§3.2 Path Validation selection broken).
    HeadChoosesLastStart,
}

/// The reference decoder: policy + bound + counters, nothing else.
#[derive(Debug, Clone)]
pub struct RefShadowDecoder {
    policy: IndexPolicy,
    max_valid_paths: usize,
    stats: ShadowDecoderStats,
    /// Injected bug, `None` in every honest run.
    pub fault: Option<SbdFault>,
}

impl RefShadowDecoder {
    /// Create a decoder with the given index policy and valid-path bound.
    pub fn new(policy: IndexPolicy, max_valid_paths: usize) -> Self {
        assert!(max_valid_paths >= 1);
        RefShadowDecoder {
            policy,
            max_valid_paths,
            stats: ShadowDecoderStats::default(),
            fault: None,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ShadowDecoderStats {
        self.stats
    }

    /// Tail decode: linear scan from `exit_offset` (a known instruction
    /// boundary) to the end of the line, stopping at the first byte that
    /// does not decode or at an instruction spilling past the line.
    pub fn decode_tail(
        &mut self,
        line: &[u8],
        line_base: u64,
        exit_offset: usize,
    ) -> Vec<ShadowBranch> {
        self.stats.tail_regions += 1;
        let mut found = Vec::new();
        let mut off = exit_offset;
        if self.fault == Some(SbdFault::TailSkipFirstByte) {
            off += 1;
        }
        while off < line.len() {
            match decode::decode(&line[off..]) {
                Ok(d) => {
                    if let InsnKind::Branch(b) = d.kind {
                        if b.kind.sbb_eligible() {
                            let pc = line_base + off as u64;
                            found.push(ShadowBranch {
                                pc,
                                len: d.len,
                                kind: b.kind,
                                target: b.target(pc, d.len),
                                line_offset: off as u8,
                            });
                        }
                    }
                    off += usize::from(d.len);
                }
                Err(_) => break,
            }
        }
        self.stats.tail_branches += found.len() as u64;
        found
    }

    /// Head decode: Index Computation at every byte offset, Path Validation
    /// of every start index with merging-family counting, policy-chosen
    /// extraction. Always decoded fresh.
    pub fn decode_head(&mut self, line: &[u8], line_base: u64, entry_offset: usize) -> HeadDecode {
        self.stats.head_regions += 1;
        let entry = entry_offset.min(line.len());
        if entry == 0 {
            return HeadDecode::default();
        }
        let hd = self.decode_head_fresh(line, line_base, entry);
        if hd.discarded {
            self.stats.head_regions_discarded += 1;
        } else if !hd.valid_starts.is_empty() {
            self.stats.head_regions_valid += 1;
            self.stats.valid_path_sum += hd.valid_starts.len() as u64;
            self.stats.head_branches += hd.branches.len() as u64;
        }
        hd
    }

    fn decode_head_fresh(&self, line: &[u8], line_base: u64, entry: usize) -> HeadDecode {
        // Phase 1: Index Computation. A candidate instruction is usable on a
        // path only if it ends at or before the entry point.
        let mut lengths = vec![0u8; entry];
        for (i, slot) in lengths.iter_mut().enumerate() {
            if let Ok(d) = decode::decode(&line[i..]) {
                if i + usize::from(d.len) <= entry {
                    *slot = d.len;
                }
            }
        }

        // Phase 2: Path Validation with merge detection. A path that runs
        // into an offset already covered by a validated path merges into it;
        // only non-merging families count against the ambiguity bound.
        let mut valid_starts: Vec<u8> = Vec::new();
        let mut last_index: Vec<u8> = Vec::new();
        let mut families = 0usize;
        let mut on_valid_path = vec![false; entry];
        let mut discarded = false;
        for start in 0..entry {
            let mut pos = start;
            let mut last = start;
            let mut merged = false;
            let valid = loop {
                if pos == entry {
                    break true;
                }
                if on_valid_path[pos] {
                    merged = true;
                    break true;
                }
                let len = lengths[pos];
                if len == 0 {
                    break false;
                }
                last = pos;
                pos += usize::from(len);
                if pos > entry {
                    break false;
                }
            };
            if valid {
                if !merged {
                    families += 1;
                    if families > self.max_valid_paths {
                        discarded = true;
                        break;
                    }
                }
                valid_starts.push(start as u8);
                last_index.push(if merged { pos as u8 } else { last as u8 });
                let mut p = start;
                while p < entry && !on_valid_path[p] {
                    on_valid_path[p] = true;
                    let l = lengths[p];
                    if l == 0 {
                        break;
                    }
                    p += usize::from(l);
                }
            }
        }

        if discarded {
            return HeadDecode {
                branches: Vec::new(),
                valid_starts,
                chosen_start: None,
                discarded: true,
            };
        }
        if valid_starts.is_empty() {
            return HeadDecode::default();
        }

        if self.fault == Some(SbdFault::HeadChoosesLastStart) {
            let chosen = *valid_starts.last().expect("non-empty valid_starts");
            return self.extract(line, line_base, entry, &lengths, valid_starts, chosen);
        }
        let chosen = match self.policy {
            IndexPolicy::First => valid_starts[0],
            IndexPolicy::Zero => 0,
            IndexPolicy::Merge => {
                let mut best = (0usize, last_index[0]);
                for &cand in &last_index {
                    let count = last_index.iter().filter(|&&x| x == cand).count();
                    if count > best.0 || (count == best.0 && cand < best.1) {
                        best = (count, cand);
                    }
                }
                best.1
            }
        };

        self.extract(line, line_base, entry, &lengths, valid_starts, chosen)
    }

    /// Walk the chosen path and collect SBB-eligible branches.
    fn extract(
        &self,
        line: &[u8],
        line_base: u64,
        entry: usize,
        lengths: &[u8],
        valid_starts: Vec<u8>,
        chosen: u8,
    ) -> HeadDecode {
        let mut branches = Vec::new();
        let mut pos = usize::from(chosen);
        while pos < entry {
            let len = lengths[pos];
            if len == 0 {
                break;
            }
            if let Ok(d) = decode::decode(&line[pos..]) {
                if let InsnKind::Branch(b) = d.kind {
                    if b.kind.sbb_eligible() {
                        let pc = line_base + pos as u64;
                        branches.push(ShadowBranch {
                            pc,
                            len: d.len,
                            kind: b.kind,
                            target: b.target(pc, d.len),
                            line_offset: pos as u8,
                        });
                    }
                }
            }
            pos += usize::from(len);
        }

        HeadDecode {
            branches,
            valid_starts,
            chosen_start: Some(chosen),
            discarded: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skia_core::ShadowDecoder;
    use skia_isa::encode;

    fn pad_to_line(mut bytes: Vec<u8>) -> Vec<u8> {
        while bytes.len() < 64 {
            let gap = (64 - bytes.len()).min(8);
            encode::nop_exact(&mut bytes, gap);
        }
        bytes
    }

    /// The reference decoder and the production decoder must agree on
    /// results and stats, including across repeated decodes of the same
    /// region.
    #[test]
    fn agrees_with_production_decoder_across_repeats() {
        let lines = [
            pad_to_line({
                let mut b = Vec::new();
                encode::call_rel32(&mut b, 0x40);
                encode::nop_exact(&mut b, 3);
                b
            }),
            pad_to_line(vec![0x31, 0xC3]),
            pad_to_line(vec![0x50, 0x50, 0xC3]),
        ];
        for policy in IndexPolicy::ALL {
            let mut oracle = RefShadowDecoder::new(policy, 6);
            let mut prod = ShadowDecoder::new(policy, 6);
            for _ in 0..3 {
                for (i, line) in lines.iter().enumerate() {
                    let base = 0x1000 * (i as u64 + 1);
                    let entry = [8usize, 2, 3][i];
                    let a = oracle.decode_head(line, base, entry);
                    let b = prod.decode_head(line, base, entry);
                    assert_eq!(a.branches, b.branches, "policy {policy:?} line {i}");
                    assert_eq!(a.valid_starts, b.valid_starts);
                    assert_eq!(a.chosen_start, b.chosen_start);
                    assert_eq!(a.discarded, b.discarded);
                    let t1 = oracle.decode_tail(line, base, 5);
                    let t2 = prod.decode_tail(line, base, 5);
                    assert_eq!(t1, t2);
                }
            }
            assert_eq!(oracle.stats(), prod.stats(), "policy {policy:?}");
        }
    }
}
