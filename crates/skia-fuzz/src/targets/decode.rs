//! Byte-level decode target.
//!
//! Mutated instruction byte strings through `skia_isa::decode`, checked two
//! ways: **invariants** of the decoder itself (architectural length bound,
//! `Truncated(n)` exactness, re-decode-at-reported-length idempotence,
//! insensitivity to trailing bytes) and a **differential** tail decode of
//! the bytes padded to a cache line — the production `ShadowDecoder`
//! against the `RefShadowDecoder` must extract the same shadow branches
//! from the same bytes.

use rand::rngs::SmallRng;
use rand::Rng;

use skia_core::{IndexPolicy, ShadowDecoder};
use skia_isa::{decode, encode, DecodeError, MAX_INSN_LEN};
use skia_oracle::RefShadowDecoder;

use crate::engine::{FuzzTarget, RunResult};
use crate::feature;

/// Longest fuzzed byte string: one max-length instruction plus slack so
/// truncation, `TooLong` prefixes and trailing garbage are all reachable.
const MAX_BYTES: usize = 24;

/// The byte-level decode target (stateless between runs).
#[derive(Debug, Default)]
pub struct DecodeTarget;

/// Prefix bytes the mutator likes to prepend (legacy + REX).
const PREFIXES: [u8; 13] = [
    0x66, 0x67, 0xF0, 0xF2, 0xF3, 0x2E, 0x3E, 0x26, 0x36, 0x64, 0x65, 0x40, 0x48,
];

fn seed_bytes() -> Vec<Vec<u8>> {
    let mut seeds: Vec<Vec<u8>> = vec![
        vec![0x31, 0xC3],       // Fig. 8: xor ebx,eax — ret hides at byte 1
        vec![0xC3],             // ret
        vec![0xC2, 0x08, 0x00], // ret imm16
        vec![0x90],             // nop
        vec![0xE9],             // truncated jmp rel32
        vec![0x0F],             // truncated two-byte opcode
    ];
    let mut b = Vec::new();
    encode::jmp_rel32(&mut b, -5);
    seeds.push(std::mem::take(&mut b));
    encode::jcc_rel8(&mut b, 4, 16);
    seeds.push(std::mem::take(&mut b));
    encode::jcc_rel32(&mut b, 13, -64);
    seeds.push(std::mem::take(&mut b));
    encode::call_rel32(&mut b, 0x1000);
    seeds.push(std::mem::take(&mut b));
    encode::jmp_reg(&mut b, encode::Reg::ALL[3]);
    seeds.push(std::mem::take(&mut b));
    encode::call_mem_rip(&mut b, 0x40);
    seeds.push(std::mem::take(&mut b));
    for sel in 0..encode::NONBRANCH_TEMPLATES {
        encode::emit_nonbranch(&mut b, sel);
        seeds.push(std::mem::take(&mut b));
    }
    seeds
}

/// Kind-agnostic outcome class for the coverage map.
fn outcome_class(r: &Result<skia_isa::Decoded, DecodeError>) -> u64 {
    match r {
        Ok(d) => 0x100 + u64::from(d.len),
        Err(DecodeError::InvalidOpcode) => 1,
        Err(DecodeError::Truncated(_)) => 2,
        Err(DecodeError::TooLong) => 3,
    }
}

impl FuzzTarget for DecodeTarget {
    type Input = Vec<u8>;

    fn name(&self) -> &'static str {
        "decode"
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        seed_bytes()
    }

    fn mutate(&self, base: &Vec<u8>, rng: &mut SmallRng) -> Vec<u8> {
        let mut bytes = base.clone();
        for _ in 0..rng.gen_range(1..=3usize) {
            match rng.gen_range(0..6u32) {
                0 => {
                    // Flip one bit.
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] ^= 1 << rng.gen_range(0..8u32);
                }
                1 => {
                    // Overwrite with a fresh random byte.
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] = (rng.gen_range(0..256u32)) as u8;
                }
                2 if bytes.len() > 1 => bytes.truncate(rng.gen_range(1..bytes.len())),
                3 if bytes.len() < MAX_BYTES => bytes.push((rng.gen_range(0..256u32)) as u8),
                4 if bytes.len() < MAX_BYTES => {
                    bytes.insert(0, PREFIXES[rng.gen_range(0..PREFIXES.len())]);
                }
                _ => {
                    // Restart from a fresh branch encoding.
                    let mut b = Vec::new();
                    match rng.gen_range(0..4u32) {
                        0 => encode::jmp_rel8(&mut b, rng.gen_range(-128..128i64) as i8),
                        1 => encode::call_rel32(&mut b, rng.gen_range(-4096..4096i64) as i32),
                        2 => encode::ret(&mut b),
                        _ => encode::jcc_rel32(
                            &mut b,
                            (rng.gen_range(0..16u32)) as u8,
                            rng.gen_range(-4096..4096i64) as i32,
                        ),
                    };
                    b.truncate(MAX_BYTES);
                    bytes = b;
                }
            }
        }
        bytes
    }

    fn run(&mut self, input: &Vec<u8>) -> RunResult {
        let mut features = Vec::new();
        let result = decode::decode(input);
        features.push(feature(&[
            1,
            u64::from(*input.first().unwrap_or(&0)),
            outcome_class(&result),
        ]));

        match &result {
            Ok(d) => {
                let len = usize::from(d.len);
                if len == 0 || len > MAX_INSN_LEN || len > input.len() {
                    return RunResult::fail(
                        features,
                        format!("decode of {input:02x?} reported impossible length {len}"),
                    );
                }
                // Idempotence: re-decoding exactly the reported bytes gives
                // the identical instruction.
                let again = decode::decode(&input[..len]);
                if again != Ok(*d) {
                    return RunResult::fail(
                        features,
                        format!(
                            "decode of {input:02x?} = {d:?} but re-decode at reported length \
                             {len} = {again:?}"
                        ),
                    );
                }
            }
            Err(DecodeError::Truncated(n)) => {
                // Truncated(n) must report exactly the available byte count.
                if *n != input.len() {
                    return RunResult::fail(
                        features,
                        format!(
                            "decode of {} bytes {input:02x?} reported Truncated({n})",
                            input.len()
                        ),
                    );
                }
            }
            Err(_) => {}
        }

        // Trailing bytes beyond the instruction must never change the
        // outcome: Ok stays identical, InvalidOpcode/TooLong stay put, and
        // Truncated resolves (never to Truncated again) once 15 more bytes
        // are available.
        let mut extended = input.clone();
        encode::nop_exact(&mut extended, MAX_INSN_LEN);
        let ext = decode::decode(&extended);
        let stable = match &result {
            Ok(d) => ext == Ok(*d),
            Err(DecodeError::Truncated(_)) => !matches!(ext, Err(DecodeError::Truncated(_))),
            Err(e) => ext == Err(*e),
        };
        if !stable {
            return RunResult::fail(
                features,
                format!(
                    "decode of {input:02x?} = {result:?} but with trailing nops = {ext:?} \
                     (decoder peeked past the instruction)"
                ),
            );
        }

        // Differential: pad to a cache line and tail-decode from offset 0 —
        // the production decoder and the reference must agree on every
        // extracted shadow branch, on a repeat too.
        let mut line = input.clone();
        while line.len() < 64 {
            let pad = (64 - line.len()).min(8);
            encode::nop_exact(&mut line, pad);
        }
        line.truncate(64);
        let mut prod = ShadowDecoder::new(IndexPolicy::First, 6);
        let mut oracle = RefShadowDecoder::new(IndexPolicy::First, 6);
        for pass in 0..2 {
            let p = prod.decode_tail(&line, 0x4000, 0);
            let o = oracle.decode_tail(&line, 0x4000, 0);
            if p != o {
                return RunResult::fail(
                    features,
                    format!(
                        "tail-decode divergence (pass {pass}) on line {line:02x?}: production \
                         {p:?} vs reference {o:?}"
                    ),
                );
            }
            for b in o {
                features.push(feature(&[
                    2,
                    b.kind as u64,
                    u64::from(b.line_offset) / 8,
                    u64::from(b.len),
                ]));
            }
        }
        if prod.stats() != oracle.stats() {
            return RunResult::fail(
                features,
                format!(
                    "tail-decode stats divergence on line {line:02x?}: production {:?} vs \
                     reference {:?}",
                    prod.stats(),
                    oracle.stats()
                ),
            );
        }
        RunResult::ok(features)
    }

    fn encode_input(&self, input: &Vec<u8>) -> String {
        input.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn decode_input(&self, body: &str) -> Option<Vec<u8>> {
        if body.is_empty() || !body.len().is_multiple_of(2) || body.len() / 2 > MAX_BYTES {
            return None;
        }
        (0..body.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(body.get(i..i + 2)?, 16).ok())
            .collect()
    }

    fn shrink(&self, input: &Vec<u8>) -> Vec<Vec<u8>> {
        let mut candidates = Vec::new();
        if input.len() > 1 {
            candidates.push(input[..input.len() / 2].to_vec());
            for i in 0..input.len() {
                let mut c = input.clone();
                c.remove(i);
                candidates.push(c);
            }
        }
        for i in 0..input.len() {
            if input[i] != 0x90 {
                let mut c = input.clone();
                c[i] = 0x90;
                candidates.push(c);
            }
        }
        candidates
    }
}
