//! Single-instruction x86-64 length decoder.
//!
//! Decodes exactly one instruction from the start of a byte slice, returning
//! its total length and a coarse classification. This is the primitive both
//! the front-end decode stage and Skia's Shadow Branch Decoder are built on:
//! the SBD's *Index Computation* phase (paper §3.2.1) repeatedly calls
//! [`decode`] at every byte offset of a cache line to build the `Length`
//! vector, and its *Path Validation* phase re-decodes along candidate paths.
//!
//! The decoder implements 64-bit mode rules: legacy prefix groups, REX,
//! the one-byte map, the `0F` two-byte map, generic `0F 38`/`0F 3A` three-byte
//! handling, ModRM/SIB addressing forms (including RIP-relative), and the
//! immediate-size rules (`imm8/16/32/64`, operand-size override, the `moffs`
//! forms, and the `F6`/`F7` group-3 ModRM-dependent immediates).

use crate::kind::{BranchInfo, BranchKind, InsnKind};
use crate::MAX_INSN_LEN;

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeError {
    /// The opcode (or opcode + ModRM.reg combination) is not a valid
    /// instruction in 64-bit mode, or is outside the supported subset
    /// (VEX/EVEX, far transfers, …).
    InvalidOpcode,
    /// The slice ended before the instruction was complete. Contains the
    /// number of bytes that were available.
    Truncated(usize),
    /// Prefixes pushed the total length past the 15-byte architectural limit.
    TooLong,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::InvalidOpcode => write!(f, "invalid or unsupported opcode"),
            DecodeError::Truncated(n) => {
                write!(f, "instruction truncated after {n} available bytes")
            }
            DecodeError::TooLong => write!(f, "instruction exceeds 15-byte limit"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A successfully decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decoded {
    /// Total instruction length in bytes (1–15).
    pub len: u8,
    /// Coarse classification.
    pub kind: InsnKind,
}

impl Decoded {
    /// The branch target for direct branches, given the instruction address.
    #[must_use]
    pub fn branch_target(&self, pc: u64) -> Option<u64> {
        self.kind.branch().and_then(|b| b.target(pc, self.len))
    }
}

/// Immediate-operand shape attached to an opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Imm {
    /// No immediate.
    None,
    /// 1-byte immediate.
    B1,
    /// 2-byte immediate (`RET imm16`, …).
    B2,
    /// `ENTER imm16, imm8`.
    B3,
    /// 16 or 32 bits depending on the operand-size override (`immz`).
    Bz,
    /// 16/32/64 bits: `MOV r, imm` (`B8+r`) widens to 64 with REX.W.
    Bv,
    /// `moffs` forms (`A0`–`A3`): address-size-wide offset (8 bytes in 64-bit
    /// mode, 4 with the `67` override).
    Moffs,
    /// Group 3 (`F6`/`F7`): immediate present only for ModRM.reg ∈ {0, 1}.
    Grp3,
}

/// Decoded prefix state accumulated before the opcode.
#[derive(Debug, Default, Clone, Copy)]
struct Prefixes {
    operand_size: bool, // 66
    address_size: bool, // 67
    rex_w: bool,
}

/// Per-opcode attributes for the supported maps.
#[derive(Debug, Clone, Copy)]
struct Attr {
    modrm: bool,
    imm: Imm,
    branch: Option<BranchKind>,
}

impl Attr {
    const fn plain(modrm: bool, imm: Imm) -> Self {
        Attr {
            modrm,
            imm,
            branch: None,
        }
    }

    const fn branch(kind: BranchKind, imm: Imm) -> Self {
        Attr {
            modrm: false,
            imm,
            branch: Some(kind),
        }
    }
}

/// One-byte opcode map (64-bit mode). `None` = invalid/unsupported.
fn one_byte_attr(op: u8) -> Option<Attr> {
    use Imm::*;
    let a = match op {
        // ADD/OR/ADC/SBB/AND/SUB/XOR/CMP blocks: 8 groups of 6 opcodes.
        0x00..=0x05
        | 0x08..=0x0D
        | 0x10..=0x15
        | 0x18..=0x1D
        | 0x20..=0x25
        | 0x28..=0x2D
        | 0x30..=0x35
        | 0x38..=0x3D => {
            let low = op & 0x07;
            match low {
                0x00..=0x03 => Attr::plain(true, None),
                0x04 => Attr::plain(false, B1),
                0x05 => Attr::plain(false, Bz),
                _ => return Option::None,
            }
        }
        // 0x0F handled by the caller (two-byte escape).
        // MOVSXD
        0x63 => Attr::plain(true, None),
        // PUSH/POP r64
        0x50..=0x5F => Attr::plain(false, None),
        // PUSH immz / IMUL r,r/m,immz / PUSH imm8 / IMUL r,r/m,imm8
        0x68 => Attr::plain(false, Bz),
        0x69 => Attr::plain(true, Bz),
        0x6A => Attr::plain(false, B1),
        0x6B => Attr::plain(true, B1),
        // INS/OUTS string ops
        0x6C..=0x6F => Attr::plain(false, None),
        // Jcc rel8
        0x70..=0x7F => Attr::branch(BranchKind::DirectCond, B1),
        // Group 1: ALU r/m, imm
        0x80 => Attr::plain(true, B1),
        0x81 => Attr::plain(true, Bz),
        0x83 => Attr::plain(true, B1),
        // TEST / XCHG r/m,r
        0x84..=0x87 => Attr::plain(true, None),
        // MOV r/m,r forms; MOV Sreg; LEA; POP r/m
        0x88..=0x8E => Attr::plain(true, None),
        0x8F => Attr::plain(true, None),
        // XCHG rAX,r / NOP
        0x90..=0x97 => Attr::plain(false, None),
        // CWDE/CDQ/WAIT/PUSHF/POPF/SAHF/LAHF
        0x98 | 0x99 | 0x9B..=0x9F => Attr::plain(false, None),
        // MOV moffs forms
        0xA0..=0xA3 => Attr::plain(false, Moffs),
        // MOVS/CMPS
        0xA4..=0xA7 => Attr::plain(false, None),
        // TEST AL/eAX, imm
        0xA8 => Attr::plain(false, B1),
        0xA9 => Attr::plain(false, Bz),
        // STOS/LODS/SCAS
        0xAA..=0xAF => Attr::plain(false, None),
        // MOV r8, imm8
        0xB0..=0xB7 => Attr::plain(false, B1),
        // MOV r, immv (REX.W -> imm64)
        0xB8..=0xBF => Attr::plain(false, Bv),
        // Group 2 shifts with imm8
        0xC0 | 0xC1 => Attr::plain(true, B1),
        // Near returns
        0xC2 => Attr::branch(BranchKind::Return, B2),
        0xC3 => Attr::branch(BranchKind::Return, None),
        // Group 11 MOV r/m, imm
        0xC6 => Attr::plain(true, B1),
        0xC7 => Attr::plain(true, Bz),
        // ENTER / LEAVE
        0xC8 => Attr::plain(false, B3),
        0xC9 => Attr::plain(false, None),
        // INT3 / INT imm8
        0xCC => Attr::plain(false, None),
        0xCD => Attr::plain(false, B1),
        // Group 2 shifts by 1/CL
        0xD0..=0xD3 => Attr::plain(true, None),
        // XLAT
        0xD7 => Attr::plain(false, None),
        // x87 escape block: all take ModRM
        0xD8..=0xDF => Attr::plain(true, None),
        // LOOPNE/LOOPE/LOOP/JrCXZ rel8
        0xE0..=0xE3 => Attr::branch(BranchKind::DirectCond, B1),
        // IN/OUT imm8
        0xE4..=0xE7 => Attr::plain(false, B1),
        // CALL rel32 / JMP rel32 / JMP rel8
        0xE8 => Attr::branch(BranchKind::Call, Bz),
        0xE9 => Attr::branch(BranchKind::DirectUncond, Bz),
        0xEB => Attr::branch(BranchKind::DirectUncond, B1),
        // IN/OUT via DX
        0xEC..=0xEF => Attr::plain(false, None),
        // INT1 / HLT / CMC
        0xF1 | 0xF4 | 0xF5 => Attr::plain(false, None),
        // Group 3: TEST/NOT/NEG/MUL/IMUL/DIV/IDIV — imm depends on /reg
        0xF6 | 0xF7 => Attr::plain(true, Grp3),
        // CLC..STD
        0xF8..=0xFD => Attr::plain(false, None),
        // Group 4 INC/DEC r/m8
        0xFE => Attr::plain(true, None),
        // Group 5: INC/DEC/CALL/JMP/PUSH r/m — branch kind resolved by /reg
        0xFF => Attr::plain(true, None),
        _ => return Option::None,
    };
    Some(a)
}

/// Two-byte (`0F xx`) opcode map subset. `None` = invalid/unsupported.
fn two_byte_attr(op: u8) -> Option<Attr> {
    use Imm::*;
    let a = match op {
        // SYSCALL / SYSRET
        0x05 | 0x07 => Attr::plain(false, None),
        // Long NOP / hintable NOP space
        0x0D | 0x18..=0x1F => Attr::plain(true, None),
        // SSE moves and conversions (modrm, no immediate)
        0x10 | 0x11 | 0x12 | 0x13 | 0x14 | 0x15 | 0x16 | 0x17 | 0x28 | 0x29 | 0x2A | 0x2B
        | 0x2C | 0x2D | 0x2E | 0x2F => Attr::plain(true, None),
        // RDTSC / RDMSR / CPUID family
        0x30..=0x33 | 0xA2 => Attr::plain(false, None),
        // CMOVcc
        0x40..=0x4F => Attr::plain(true, None),
        // SSE arithmetic block
        0x51..=0x6F => Attr::plain(true, None),
        // PSHUF* take imm8
        0x70 => Attr::plain(true, B1),
        // Group 12/13/14 shifts with imm8
        0x71..=0x73 => Attr::plain(true, B1),
        // PCMPEQ / EMMS-adjacent / MOVD/MOVQ stores
        0x74..=0x77 | 0x7E | 0x7F => Attr::plain(true, None),
        // Jcc rel32
        0x80..=0x8F => Attr::branch(BranchKind::DirectCond, Bz),
        // SETcc
        0x90..=0x9F => Attr::plain(true, None),
        // PUSH/POP FS/GS, CPUID handled above
        0xA0 | 0xA1 | 0xA8 | 0xA9 => Attr::plain(false, None),
        // BT / SHLD
        0xA3 => Attr::plain(true, None),
        0xA4 => Attr::plain(true, B1),
        0xA5 => Attr::plain(true, None),
        // BTS / SHRD
        0xAB => Attr::plain(true, None),
        0xAC => Attr::plain(true, B1),
        0xAD => Attr::plain(true, None),
        // Group 15 (fences, XSAVE area ops)
        0xAE => Attr::plain(true, None),
        // IMUL r, r/m
        0xAF => Attr::plain(true, None),
        // CMPXCHG
        0xB0 | 0xB1 => Attr::plain(true, None),
        // MOVZX / MOVSX
        0xB6 | 0xB7 | 0xBE | 0xBF => Attr::plain(true, None),
        // POPCNT/TZCNT/LZCNT share BSF/BSR encodings with F3 prefixes
        0xB8 | 0xBC | 0xBD => Attr::plain(true, None),
        // Group 8 BT r/m, imm8
        0xBA => Attr::plain(true, B1),
        // BTC
        0xBB => Attr::plain(true, None),
        // XADD
        0xC0 | 0xC1 => Attr::plain(true, None),
        // CMPPS xmm, xmm/m, imm8
        0xC2 => Attr::plain(true, B1),
        // MOVNTI
        0xC3 => Attr::plain(true, None),
        // PINSRW / PEXTRW / SHUFPS: imm8
        0xC4..=0xC6 => Attr::plain(true, B1),
        // Group 9 (CMPXCHG8B/16B)
        0xC7 => Attr::plain(true, None),
        // BSWAP r
        0xC8..=0xCF => Attr::plain(false, None),
        // Wide MMX/SSE integer op block
        0xD1..=0xD5
        | 0xD6
        | 0xD8..=0xDF
        | 0xE0..=0xE5
        | 0xE7..=0xEF
        | 0xF1..=0xF7
        | 0xF8..=0xFE => Attr::plain(true, None),
        _ => return Option::None,
    };
    Some(a)
}

/// Is this byte a legacy prefix in 64-bit mode?
fn legacy_prefix(b: u8) -> bool {
    matches!(
        b,
        0xF0 | 0xF2 | 0xF3 | 0x2E | 0x36 | 0x3E | 0x26 | 0x64 | 0x65 | 0x66 | 0x67
    )
}

/// Decode a single instruction from the start of `bytes`.
///
/// `bytes` need not be exactly one instruction long; decoding stops at the
/// instruction's natural end. At most [`MAX_INSN_LEN`] bytes are examined.
///
/// # Errors
///
/// * [`DecodeError::InvalidOpcode`] — not a valid 64-bit-mode instruction, or
///   outside the supported subset (see crate docs).
/// * [`DecodeError::Truncated`] — `bytes` ended mid-instruction. Callers that
///   decode up to a cache-line boundary treat this as "instruction continues
///   on the next line".
/// * [`DecodeError::TooLong`] — prefix run pushed the length past 15 bytes.
pub fn decode(bytes: &[u8]) -> Result<Decoded, DecodeError> {
    let mut pos = 0usize;
    let mut pfx = Prefixes::default();

    // Prefix scan: legacy prefixes and REX. A REX byte only takes effect when
    // it is the byte immediately before the opcode; earlier REX bytes are
    // consumed but ignored (matching hardware behaviour).
    loop {
        if pos >= MAX_INSN_LEN {
            return Err(DecodeError::TooLong);
        }
        let b = *bytes.get(pos).ok_or(DecodeError::Truncated(bytes.len()))?;
        if legacy_prefix(b) {
            match b {
                0x66 => pfx.operand_size = true,
                0x67 => pfx.address_size = true,
                _ => {}
            }
            pfx.rex_w = false; // any prefix after REX voids it
            pos += 1;
        } else if (0x40..=0x4F).contains(&b) {
            pfx.rex_w = b & 0x08 != 0;
            pos += 1;
        } else {
            break;
        }
    }

    // Opcode.
    let op0 = *bytes.get(pos).ok_or(DecodeError::Truncated(bytes.len()))?;
    pos += 1;

    let (attr, escape_3a) = if op0 == 0x0F {
        let op1 = *bytes.get(pos).ok_or(DecodeError::Truncated(bytes.len()))?;
        pos += 1;
        match op1 {
            0x38 => {
                // Three-byte map 0F 38: ModRM, no immediate (subset-generic).
                let _op2 = *bytes.get(pos).ok_or(DecodeError::Truncated(bytes.len()))?;
                pos += 1;
                (Attr::plain(true, Imm::None), false)
            }
            0x3A => {
                // Three-byte map 0F 3A: ModRM + imm8 (subset-generic).
                let _op2 = *bytes.get(pos).ok_or(DecodeError::Truncated(bytes.len()))?;
                pos += 1;
                (Attr::plain(true, Imm::B1), true)
            }
            _ => (two_byte_attr(op1).ok_or(DecodeError::InvalidOpcode)?, false),
        }
    } else {
        (one_byte_attr(op0).ok_or(DecodeError::InvalidOpcode)?, false)
    };
    let _ = escape_3a;

    let mut branch = attr.branch;
    let mut imm = attr.imm;

    // ModRM / SIB / displacement.
    let mut modrm_reg = 0u8;
    if attr.modrm {
        let modrm = *bytes.get(pos).ok_or(DecodeError::Truncated(bytes.len()))?;
        pos += 1;
        let md = modrm >> 6;
        let rm = modrm & 0x07;
        modrm_reg = (modrm >> 3) & 0x07;

        // Group 4 (FE): only /0 and /1 are defined.
        if op0 == 0xFE && modrm_reg > 1 {
            return Err(DecodeError::InvalidOpcode);
        }
        // Group 5 (FF): /7 undefined; /2 /3 call, /4 /5 jmp.
        if op0 == 0xFF {
            match modrm_reg {
                2 => branch = Some(BranchKind::IndirectCall),
                3 => {
                    // Far call through memory: memory form only.
                    if md == 0b11 {
                        return Err(DecodeError::InvalidOpcode);
                    }
                    branch = Some(BranchKind::IndirectCall);
                }
                4 => branch = Some(BranchKind::IndirectJmp),
                5 => {
                    if md == 0b11 {
                        return Err(DecodeError::InvalidOpcode);
                    }
                    branch = Some(BranchKind::IndirectJmp);
                }
                7 => return Err(DecodeError::InvalidOpcode),
                _ => {}
            }
        }
        // Group 3 (F6/F7): /0 and /1 carry an immediate, the rest do not.
        if imm == Imm::Grp3 {
            imm = if modrm_reg <= 1 {
                if op0 == 0xF6 {
                    Imm::B1
                } else {
                    Imm::Bz
                }
            } else {
                Imm::None
            };
        }

        if md != 0b11 {
            let mut disp = 0usize;
            if rm == 0b100 {
                // SIB byte.
                let sib = *bytes.get(pos).ok_or(DecodeError::Truncated(bytes.len()))?;
                pos += 1;
                let base = sib & 0x07;
                if md == 0b00 && base == 0b101 {
                    disp = 4;
                }
            } else if md == 0b00 && rm == 0b101 {
                // RIP-relative.
                disp = 4;
            }
            match md {
                0b01 => disp = 1,
                0b10 => disp = 4,
                _ => {}
            }
            if bytes.len() < pos + disp {
                return Err(DecodeError::Truncated(bytes.len()));
            }
            pos += disp;
        }
    }
    let _ = modrm_reg;

    // Immediate.
    let imm_len = match imm {
        Imm::None => 0,
        Imm::B1 => 1,
        Imm::B2 => 2,
        Imm::B3 => 3,
        Imm::Bz => {
            // Near branches ignore the operand-size override in 64-bit mode
            // (Intel behaviour): rel32 always.
            if branch.is_some() {
                4
            } else if pfx.operand_size {
                2
            } else {
                4
            }
        }
        Imm::Bv => {
            if pfx.rex_w {
                8
            } else if pfx.operand_size {
                2
            } else {
                4
            }
        }
        Imm::Moffs => {
            if pfx.address_size {
                4
            } else {
                8
            }
        }
        Imm::Grp3 => unreachable!("resolved during ModRM handling"),
    };
    if bytes.len() < pos + imm_len {
        return Err(DecodeError::Truncated(bytes.len()));
    }

    // Capture the PC-relative displacement for direct branches.
    let rel = match (branch, imm_len) {
        (Some(k), 1) if k.is_direct() => Some(i32::from(bytes[pos] as i8)),
        (Some(k), 4) if k.is_direct() => {
            let d =
                i32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
            Some(d)
        }
        _ => None,
    };
    pos += imm_len;

    if pos > MAX_INSN_LEN {
        return Err(DecodeError::TooLong);
    }

    let kind = match branch {
        Some(kind) => InsnKind::Branch(BranchInfo { kind, rel }),
        None => InsnKind::Other,
    };
    Ok(Decoded {
        len: pos as u8,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn len_of(bytes: &[u8]) -> u8 {
        decode(bytes).unwrap().len
    }

    fn kind_of(bytes: &[u8]) -> BranchKind {
        match decode(bytes).unwrap().kind {
            InsnKind::Branch(b) => b.kind,
            InsnKind::Other => panic!("expected branch in {bytes:02x?}"),
        }
    }

    #[test]
    fn one_byte_instructions() {
        assert_eq!(len_of(&[0x90]), 1); // nop
        assert_eq!(len_of(&[0xC3]), 1); // ret
        assert_eq!(len_of(&[0x50]), 1); // push rax
        assert_eq!(len_of(&[0xF9]), 1); // stc — Fig. 9's single-byte example
        assert_eq!(len_of(&[0x45, 0x00, 0xC0]), 3); // REX.RB + add r/m8,r8 + modrm
    }

    #[test]
    fn rel_branches() {
        // jmp rel32: e9 f9 03 00 00 — the Fig. 9 example.
        let d = decode(&[0xE9, 0xF9, 0x03, 0x00, 0x00]).unwrap();
        assert_eq!(d.len, 5);
        assert_eq!(
            d.kind,
            InsnKind::Branch(BranchInfo {
                kind: BranchKind::DirectUncond,
                rel: Some(0x3F9)
            })
        );
        assert_eq!(d.branch_target(0x1000), Some(0x1000 + 5 + 0x3F9));

        assert_eq!(kind_of(&[0xEB, 0x10]), BranchKind::DirectUncond);
        assert_eq!(kind_of(&[0x74, 0xFE]), BranchKind::DirectCond);
        assert_eq!(kind_of(&[0xE8, 0, 0, 0, 0]), BranchKind::Call);
        assert_eq!(kind_of(&[0xC3]), BranchKind::Return);
        assert_eq!(kind_of(&[0xC2, 0x08, 0x00]), BranchKind::Return);
        // 0F 84 jcc rel32
        assert_eq!(kind_of(&[0x0F, 0x84, 1, 0, 0, 0]), BranchKind::DirectCond);
    }

    #[test]
    fn negative_rel8_sign_extends() {
        let d = decode(&[0xEB, 0xFE]).unwrap(); // jmp -2 (self)
        assert_eq!(d.branch_target(0x2000), Some(0x2000));
    }

    #[test]
    fn indirect_branches_via_group5() {
        // ff e0 = jmp rax; ff d0 = call rax; ff 25 disp32 = jmp [rip+disp]
        assert_eq!(kind_of(&[0xFF, 0xE0]), BranchKind::IndirectJmp);
        assert_eq!(kind_of(&[0xFF, 0xD0]), BranchKind::IndirectCall);
        let d = decode(&[0xFF, 0x25, 0x10, 0x00, 0x00, 0x00]).unwrap();
        assert_eq!(d.len, 6);
        assert_eq!(
            d.kind.branch().map(|b| b.kind),
            Some(BranchKind::IndirectJmp)
        );
        // Indirect targets are not decodable from bytes.
        assert_eq!(d.branch_target(0), None);
        // ff /7 is undefined
        assert_eq!(decode(&[0xFF, 0xF8]), Err(DecodeError::InvalidOpcode));
    }

    #[test]
    fn modrm_sib_disp_forms() {
        // mov eax, [rbx] : 8b 03
        assert_eq!(len_of(&[0x8B, 0x03]), 2);
        // mov eax, [rbx+0x10] : 8b 43 10
        assert_eq!(len_of(&[0x8B, 0x43, 0x10]), 3);
        // mov eax, [rbx+0x12345678] : 8b 83 78 56 34 12
        assert_eq!(len_of(&[0x8B, 0x83, 0x78, 0x56, 0x34, 0x12]), 6);
        // mov eax, [rbx+rcx*4] : 8b 04 8b
        assert_eq!(len_of(&[0x8B, 0x04, 0x8B]), 3);
        // mov eax, [rcx*4 + disp32] (mod=00, rm=100, base=101): 8b 04 8d xx xx xx xx
        assert_eq!(len_of(&[0x8B, 0x04, 0x8D, 0, 0, 0, 0]), 7);
        // RIP-relative: 8b 05 disp32
        assert_eq!(len_of(&[0x8B, 0x05, 0, 0, 0, 0]), 6);
        // SIB with mod=01: 8b 44 8b 10
        assert_eq!(len_of(&[0x8B, 0x44, 0x8B, 0x10]), 4);
    }

    #[test]
    fn immediate_sizes() {
        // add eax, imm32: 05 xx xx xx xx
        assert_eq!(len_of(&[0x05, 1, 2, 3, 4]), 5);
        // 66 05 xx xx — operand-size override shrinks immz to 16 bits
        assert_eq!(len_of(&[0x66, 0x05, 1, 2]), 4);
        // mov rax, imm64: 48 b8 + 8 bytes
        assert_eq!(len_of(&[0x48, 0xB8, 0, 0, 0, 0, 0, 0, 0, 0]), 10);
        // mov eax, imm32: b8 + 4
        assert_eq!(len_of(&[0xB8, 0, 0, 0, 0]), 5);
        // enter imm16, imm8
        assert_eq!(len_of(&[0xC8, 0x10, 0x00, 0x00]), 4);
        // moffs: a1 + 8-byte address
        assert_eq!(len_of(&[0xA1, 0, 0, 0, 0, 0, 0, 0, 0]), 9);
        // 67 a1 + 4-byte address
        assert_eq!(len_of(&[0x67, 0xA1, 0, 0, 0, 0]), 6);
    }

    #[test]
    fn group3_immediates_depend_on_reg_field() {
        // f7 /0 = test r/m32, imm32 → modrm + imm32
        assert_eq!(len_of(&[0xF7, 0xC0, 1, 2, 3, 4]), 6);
        // f7 /3 = neg r/m32 → no immediate
        assert_eq!(len_of(&[0xF7, 0xD8]), 2);
        // f6 /0 = test r/m8, imm8
        assert_eq!(len_of(&[0xF6, 0xC0, 0x7F]), 3);
    }

    #[test]
    fn near_branch_ignores_operand_size_override() {
        // 66 e9: still rel32 on Intel in 64-bit mode.
        assert_eq!(len_of(&[0x66, 0xE9, 0, 0, 0, 0]), 6);
    }

    #[test]
    fn invalid_in_64bit_mode() {
        for op in [
            0x06u8, 0x07, 0x0E, 0x16, 0x17, 0x27, 0x37, 0x60, 0x61, 0x9A, 0xC4, 0xC5, 0xD4, 0xEA,
        ] {
            assert_eq!(
                decode(&[op, 0, 0, 0, 0, 0, 0]),
                Err(DecodeError::InvalidOpcode),
                "opcode {op:#x} should be rejected"
            );
        }
    }

    #[test]
    fn truncation_reported() {
        assert_eq!(decode(&[]), Err(DecodeError::Truncated(0)));
        assert_eq!(decode(&[0xE9, 0x01]), Err(DecodeError::Truncated(2)));
        assert_eq!(decode(&[0x8B]), Err(DecodeError::Truncated(1)));
        assert_eq!(decode(&[0x8B, 0x05, 0, 0]), Err(DecodeError::Truncated(4)));
        assert_eq!(decode(&[0x0F]), Err(DecodeError::Truncated(1)));
    }

    #[test]
    fn prefix_run_hits_length_limit() {
        let bytes = [0x66u8; 16];
        assert_eq!(decode(&bytes), Err(DecodeError::TooLong));
        // A full 15-byte window of prefixes can never hold an opcode within
        // the architectural limit: invalid, not truncated input.
        assert_eq!(decode(&[0x66u8; 15]), Err(DecodeError::TooLong));
        // One byte shorter, more input could still complete it.
        assert_eq!(decode(&[0x66u8; 14]), Err(DecodeError::Truncated(14)));
        // 14 prefixes + one-byte opcode = 15 bytes: legal.
        let mut ok = vec![0x66u8; 14];
        ok.push(0x90);
        assert_eq!(len_of(&ok), 15);
    }

    #[test]
    fn max_length_instruction_truncates_at_line_boundary() {
        // 14 operand-size prefixes + NOP = the architectural 15-byte maximum.
        let mut insn = vec![0x66u8; 14];
        insn.push(0x90);
        assert_eq!(len_of(&insn), 15);
        // Start it 8 bytes before a 64-byte cache-line boundary: the in-line
        // slice holds only prefixes, and the decoder must report how many
        // bytes were available — the SBD treats that as "continues on the
        // next line" — rather than inventing a length.
        for cut in 1..insn.len() {
            assert_eq!(
                decode(&insn[..cut]),
                Err(DecodeError::Truncated(cut)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn truncated_slice_at_image_end_never_panics() {
        // Every proper prefix of a compound instruction (prefix + REX +
        // two-byte opcode + ModRM + imm8) — the shape of a slice at the very
        // end of a program image — reports Truncated with the exact number
        // of available bytes.
        let insn = [0x66, 0x48, 0x0F, 0xBA, 0xE0, 0x05]; // 66 REX.W bt rax, 5
        assert_eq!(len_of(&insn), 6);
        for cut in 0..insn.len() {
            assert_eq!(
                decode(&insn[..cut]),
                Err(DecodeError::Truncated(cut)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn rex_voided_by_following_prefix() {
        // 48 66 b8: REX.W then 66 — REX is dropped, so imm is 16-bit.
        assert_eq!(len_of(&[0x48, 0x66, 0xB8, 0, 0]), 5);
        // 66 48 b8: REX.W wins (it is adjacent to the opcode) → imm64.
        assert_eq!(len_of(&[0x66, 0x48, 0xB8, 0, 0, 0, 0, 0, 0, 0, 0]), 11);
    }

    #[test]
    fn figure8_ambiguity_reproduced() {
        // Paper Fig. 8: "31 C3" decodes as xor ebx,eax from byte 0, while
        // byte 1 alone decodes as ret. Both are valid instruction streams.
        let line = [0x31, 0xC3];
        let from0 = decode(&line).unwrap();
        assert_eq!(from0.len, 2);
        assert_eq!(from0.kind, InsnKind::Other);
        let from1 = decode(&line[1..]).unwrap();
        assert_eq!(from1.len, 1);
        assert_eq!(
            from1.kind.branch().map(|b| b.kind),
            Some(BranchKind::Return)
        );
    }

    #[test]
    fn three_byte_maps() {
        // 0f 38 xx r/m and 0f 3a xx r/m imm8 (generic subset handling)
        assert_eq!(len_of(&[0x0F, 0x38, 0x00, 0xC0]), 4);
        assert_eq!(len_of(&[0x0F, 0x3A, 0x0F, 0xC0, 0x04]), 5);
    }
}
