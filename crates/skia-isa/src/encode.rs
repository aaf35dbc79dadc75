//! Instruction templates for emitting synthetic x86-64 code.
//!
//! The workload generator builds program images out of these templates. Every
//! emitter appends the encoding of exactly one instruction to the output
//! buffer and returns its length. All encodings round-trip through
//! [`crate::decode::decode`] (property-tested in `tests/roundtrip.rs`).

use crate::kind::BranchKind;

/// General-purpose register numbers (the low 8; REX-extended registers are
/// reached through the `rex` parameters of individual templates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Reg {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rbx = 3,
    Rsp = 4,
    Rbp = 5,
    Rsi = 6,
    Rdi = 7,
}

impl Reg {
    /// The eight encodable low registers, for selector-driven choice.
    pub const ALL: [Reg; 8] = [
        Reg::Rax,
        Reg::Rcx,
        Reg::Rdx,
        Reg::Rbx,
        Reg::Rsp,
        Reg::Rbp,
        Reg::Rsi,
        Reg::Rdi,
    ];

    fn idx(self) -> u8 {
        self as u8
    }
}

fn modrm(md: u8, reg: u8, rm: u8) -> u8 {
    (md << 6) | ((reg & 7) << 3) | (rm & 7)
}

// ---------------------------------------------------------------------------
// Branch templates
// ---------------------------------------------------------------------------

/// `JMP rel8` (2 bytes).
pub fn jmp_rel8(out: &mut Vec<u8>, rel: i8) -> usize {
    out.extend_from_slice(&[0xEB, rel as u8]);
    2
}

/// `JMP rel32` (5 bytes).
pub fn jmp_rel32(out: &mut Vec<u8>, rel: i32) -> usize {
    out.push(0xE9);
    out.extend_from_slice(&rel.to_le_bytes());
    5
}

/// `Jcc rel8` (2 bytes). `cc` is the low nibble of the 7x opcode (0–15).
pub fn jcc_rel8(out: &mut Vec<u8>, cc: u8, rel: i8) -> usize {
    out.extend_from_slice(&[0x70 | (cc & 0x0F), rel as u8]);
    2
}

/// `Jcc rel32` (6 bytes).
pub fn jcc_rel32(out: &mut Vec<u8>, cc: u8, rel: i32) -> usize {
    out.extend_from_slice(&[0x0F, 0x80 | (cc & 0x0F)]);
    out.extend_from_slice(&rel.to_le_bytes());
    6
}

/// `CALL rel32` (5 bytes).
pub fn call_rel32(out: &mut Vec<u8>, rel: i32) -> usize {
    out.push(0xE8);
    out.extend_from_slice(&rel.to_le_bytes());
    5
}

/// `RET` (1 byte).
pub fn ret(out: &mut Vec<u8>) -> usize {
    out.push(0xC3);
    1
}

/// `JMP r64` (2 bytes).
pub fn jmp_reg(out: &mut Vec<u8>, r: Reg) -> usize {
    out.extend_from_slice(&[0xFF, modrm(0b11, 4, r.idx())]);
    2
}

/// `CALL r64` (2 bytes).
pub fn call_reg(out: &mut Vec<u8>, r: Reg) -> usize {
    out.extend_from_slice(&[0xFF, modrm(0b11, 2, r.idx())]);
    2
}

/// `CALL [RIP+disp32]` (6 bytes).
pub fn call_mem_rip(out: &mut Vec<u8>, disp: i32) -> usize {
    out.extend_from_slice(&[0xFF, modrm(0b00, 2, 0b101)]);
    out.extend_from_slice(&disp.to_le_bytes());
    6
}

/// Encoded length of the branch template the generator will use for `kind`,
/// given whether the relative displacement fits in 8 bits.
///
/// The generator needs lengths *before* targets are resolved, so it always
/// reserves the rel32 form for direct jumps/calls (targets may be far).
#[must_use]
pub fn branch_template_len(kind: BranchKind) -> usize {
    match kind {
        BranchKind::DirectCond => 6,
        BranchKind::DirectUncond => 5,
        BranchKind::Call => 5,
        BranchKind::Return => 1,
        BranchKind::IndirectJmp => 2,
        BranchKind::IndirectCall => 2,
    }
}

// ---------------------------------------------------------------------------
// Non-branch templates
// ---------------------------------------------------------------------------

/// Emit a canonical multi-byte `NOP` of exactly `len` bytes (1–15).
///
/// Uses the recommended Intel long-NOP encodings, extended with `66` prefixes
/// beyond 9 bytes.
///
/// # Panics
///
/// Panics if `len` is 0 or greater than 15.
pub fn nop_exact(out: &mut Vec<u8>, len: usize) -> usize {
    assert!((1..=15).contains(&len), "nop length {len} out of range");
    const CORE: [&[u8]; 9] = [
        &[0x90],
        &[0x66, 0x90],
        &[0x0F, 0x1F, 0x00],
        &[0x0F, 0x1F, 0x40, 0x00],
        &[0x0F, 0x1F, 0x44, 0x00, 0x00],
        &[0x66, 0x0F, 0x1F, 0x44, 0x00, 0x00],
        &[0x0F, 0x1F, 0x80, 0x00, 0x00, 0x00, 0x00],
        &[0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00],
        &[0x66, 0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00],
    ];
    if len <= 9 {
        out.extend_from_slice(CORE[len - 1]);
    } else {
        for _ in 0..len - 9 {
            out.push(0x66);
        }
        out.extend_from_slice(CORE[8]);
    }
    len
}

/// Emit one realistic non-branch instruction chosen by `selector`.
///
/// The selector deterministically picks a template and fills register and
/// immediate fields from its bits, so the same selector always produces the
/// same bytes. Returns the encoded length (1–10 bytes across the template
/// set). This is how the workload generator gets diverse, genuinely
/// variable-length code without depending on an RNG inside this crate.
pub fn emit_nonbranch(out: &mut Vec<u8>, selector: u64) -> usize {
    let r1 = Reg::ALL[(selector >> 8) as usize % 8];
    let r2 = Reg::ALL[(selector >> 16) as usize % 8];
    let imm8 = (selector >> 24) as u8;
    let imm32 = (selector >> 24) as u32;
    let start = out.len();
    match selector % 20 {
        // push r64 (1B)
        0 => out.push(0x50 | r1.idx()),
        // pop r64 (1B)
        1 => out.push(0x58 | r1.idx()),
        // xor r32, r32 (2B)
        2 => out.extend_from_slice(&[0x31, modrm(0b11, r1.idx(), r2.idx())]),
        // mov r32, r32 (2B)
        3 => out.extend_from_slice(&[0x89, modrm(0b11, r1.idx(), r2.idx())]),
        // add r64, r64 (3B)
        4 => out.extend_from_slice(&[0x48, 0x01, modrm(0b11, r1.idx(), r2.idx())]),
        // test r64, r64 (3B)
        5 => out.extend_from_slice(&[0x48, 0x85, modrm(0b11, r1.idx(), r2.idx())]),
        // add r64, imm8 (4B)
        6 => out.extend_from_slice(&[0x48, 0x83, modrm(0b11, 0, r1.idx()), imm8]),
        // mov r32, imm32 (5B)
        7 => {
            out.push(0xB8 | r1.idx());
            out.extend_from_slice(&imm32.to_le_bytes());
        }
        // mov r64, [r64+disp8] (4B); avoid rm=100/101 special forms
        8 => {
            let base = if matches!(r2, Reg::Rsp | Reg::Rbp) {
                Reg::Rbx
            } else {
                r2
            };
            out.extend_from_slice(&[0x48, 0x8B, modrm(0b01, r1.idx(), base.idx()), imm8]);
        }
        // mov [r64+disp8], r64 (4B)
        9 => {
            let base = if matches!(r2, Reg::Rsp | Reg::Rbp) {
                Reg::Rsi
            } else {
                r2
            };
            out.extend_from_slice(&[0x48, 0x89, modrm(0b01, r1.idx(), base.idx()), imm8]);
        }
        // lea r64, [RIP+disp32] (7B)
        10 => {
            out.extend_from_slice(&[0x48, 0x8D, modrm(0b00, r1.idx(), 0b101)]);
            out.extend_from_slice(&imm32.to_le_bytes());
        }
        // cmp r64, imm32 (7B)
        11 => {
            out.extend_from_slice(&[0x48, 0x81, modrm(0b11, 7, r1.idx())]);
            out.extend_from_slice(&imm32.to_le_bytes());
        }
        // movzx r32, r/m8 (3B)
        12 => out.extend_from_slice(&[0x0F, 0xB6, modrm(0b11, r1.idx(), r2.idx())]),
        // imul r64, r64 (4B)
        13 => out.extend_from_slice(&[0x48, 0x0F, 0xAF, modrm(0b11, r1.idx(), r2.idx())]),
        // mov r64, imm64 (10B)
        14 => {
            out.extend_from_slice(&[0x48, 0xB8 | r1.idx()]);
            out.extend_from_slice(&(u64::from(imm32) | (selector << 32)).to_le_bytes());
        }
        // movups xmm, xmm (3B SSE)
        15 => out.extend_from_slice(&[0x0F, 0x10, modrm(0b11, r1.idx(), r2.idx())]),
        // mov r64, [r64 + r64*4 + disp8] via SIB (5B)
        16 => {
            let index = if r2 == Reg::Rsp { Reg::Rcx } else { r2 };
            out.extend_from_slice(&[
                0x48,
                0x8B,
                modrm(0b01, r1.idx(), 0b100),
                (0b10 << 6) | ((index.idx() & 7) << 3) | Reg::Rbx.idx(),
                imm8,
            ]);
        }
        // test al, imm8 (2B)
        17 => out.extend_from_slice(&[0xA8, imm8]),
        // sub r32, imm8 (3B)
        18 => out.extend_from_slice(&[0x83, modrm(0b11, 5, r1.idx()), imm8]),
        // nop (1B)
        _ => out.push(0x90),
    }
    out.len() - start
}

/// Number of distinct non-branch templates addressable by
/// [`emit_nonbranch`]'s selector.
pub const NONBRANCH_TEMPLATES: u64 = 20;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use crate::kind::InsnKind;

    #[test]
    fn nop_exact_every_length_roundtrips() {
        for len in 1..=15 {
            let mut buf = Vec::new();
            assert_eq!(nop_exact(&mut buf, len), len);
            let d = decode(&buf).unwrap();
            assert_eq!(d.len as usize, len, "nop of length {len}");
            assert_eq!(d.kind, InsnKind::Other);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nop_exact_rejects_zero() {
        nop_exact(&mut Vec::new(), 0);
    }

    #[test]
    fn branch_templates_decode_to_declared_lengths() {
        let cases: Vec<(Vec<u8>, BranchKind)> = {
            let mut v = Vec::new();
            let mut b = Vec::new();
            jmp_rel32(&mut b, 64);
            v.push((std::mem::take(&mut b), BranchKind::DirectUncond));
            jcc_rel32(&mut b, 4, -32);
            v.push((std::mem::take(&mut b), BranchKind::DirectCond));
            call_rel32(&mut b, 1000);
            v.push((std::mem::take(&mut b), BranchKind::Call));
            ret(&mut b);
            v.push((std::mem::take(&mut b), BranchKind::Return));
            jmp_reg(&mut b, Reg::Rdx);
            v.push((std::mem::take(&mut b), BranchKind::IndirectJmp));
            call_mem_rip(&mut b, 0x40);
            v.push((std::mem::take(&mut b), BranchKind::IndirectCall));
            v
        };
        for (bytes, kind) in cases {
            let d = decode(&bytes).unwrap();
            assert_eq!(d.len as usize, bytes.len());
            assert_eq!(d.kind.branch().map(|b| b.kind), Some(kind));
        }
    }

    #[test]
    fn template_len_matches_emitters() {
        let mut b = Vec::new();
        assert_eq!(
            jcc_rel32(&mut b, 0, 0),
            branch_template_len(BranchKind::DirectCond)
        );
        b.clear();
        assert_eq!(
            jmp_rel32(&mut b, 0),
            branch_template_len(BranchKind::DirectUncond)
        );
        b.clear();
        assert_eq!(call_rel32(&mut b, 0), branch_template_len(BranchKind::Call));
        b.clear();
        assert_eq!(ret(&mut b), branch_template_len(BranchKind::Return));
        b.clear();
        assert_eq!(
            jmp_reg(&mut b, Reg::Rax),
            branch_template_len(BranchKind::IndirectJmp)
        );
        b.clear();
        assert_eq!(
            call_reg(&mut b, Reg::Rax),
            branch_template_len(BranchKind::IndirectCall)
        );
    }

    #[test]
    fn nonbranch_templates_all_decode_as_nonbranch() {
        for t in 0..NONBRANCH_TEMPLATES {
            for salt in [0u64, 0x0123_4567_89AB_CDEF, u64::MAX - 7] {
                let selector = t.wrapping_add(salt.wrapping_mul(NONBRANCH_TEMPLATES));
                // Force the template id while varying the field bits.
                let selector = selector - (selector % NONBRANCH_TEMPLATES) + t;
                let mut buf = Vec::new();
                let len = emit_nonbranch(&mut buf, selector);
                assert_eq!(len, buf.len());
                let d = decode(&buf)
                    .unwrap_or_else(|e| panic!("template {t} salt {salt:#x}: {e} ({buf:02x?})"));
                assert_eq!(d.len as usize, len, "template {t} ({buf:02x?})");
                assert_eq!(d.kind, InsnKind::Other, "template {t} ({buf:02x?})");
            }
        }
    }
}
