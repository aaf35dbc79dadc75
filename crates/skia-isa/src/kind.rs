//! Instruction and branch classification types.

/// The branch taxonomy of the paper (§2.4).
///
/// Skia's Shadow Branch Buffer only stores branches whose target can be
/// computed without execution-time register state: [`BranchKind::DirectUncond`]
/// and [`BranchKind::Call`] (PC + encoded offset) and [`BranchKind::Return`]
/// (recoverable from recent calls through the return address stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BranchKind {
    /// Conditional PC-relative jump (`Jcc rel8/rel32`, `LOOPcc`, `JCXZ`).
    DirectCond,
    /// Unconditional PC-relative jump (`JMP rel8/rel32`).
    DirectUncond,
    /// Direct call (`CALL rel32`) — unconditional, pushes a return address.
    Call,
    /// Near return (`RET`, `RET imm16`).
    Return,
    /// Indirect jump through a register or memory operand (`JMP r/m64`).
    IndirectJmp,
    /// Indirect call through a register or memory operand (`CALL r/m64`).
    IndirectCall,
}

impl BranchKind {
    /// All kinds, in a stable report order used by the experiment harness.
    pub const ALL: [BranchKind; 6] = [
        BranchKind::DirectCond,
        BranchKind::DirectUncond,
        BranchKind::Call,
        BranchKind::Return,
        BranchKind::IndirectJmp,
        BranchKind::IndirectCall,
    ];

    /// Position of this kind in [`BranchKind::ALL`] (the per-kind counter
    /// tables' index).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            BranchKind::DirectCond => 0,
            BranchKind::DirectUncond => 1,
            BranchKind::Call => 2,
            BranchKind::Return => 3,
            BranchKind::IndirectJmp => 4,
            BranchKind::IndirectCall => 5,
        }
    }

    /// Whether the branch target is encoded in the instruction bytes
    /// (PC-relative), i.e. computable at decode time.
    #[must_use]
    pub fn is_direct(self) -> bool {
        matches!(
            self,
            BranchKind::DirectCond | BranchKind::DirectUncond | BranchKind::Call
        )
    }

    /// Whether the branch unconditionally redirects control flow.
    #[must_use]
    pub fn is_unconditional(self) -> bool {
        !matches!(self, BranchKind::DirectCond)
    }

    /// Whether Skia's Shadow Branch Decoder may insert this branch into the
    /// SBB (§2.4: direct unconditional jumps, calls, and returns).
    #[must_use]
    pub fn sbb_eligible(self) -> bool {
        matches!(
            self,
            BranchKind::DirectUncond | BranchKind::Call | BranchKind::Return
        )
    }

    /// Short label used in experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BranchKind::DirectCond => "DirectCond",
            BranchKind::DirectUncond => "DirectUncond",
            BranchKind::Call => "Call",
            BranchKind::Return => "Return",
            BranchKind::IndirectJmp => "IndirectJmp",
            BranchKind::IndirectCall => "IndirectCall",
        }
    }
}

impl std::fmt::Display for BranchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Branch-specific decode result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Classification per the paper's taxonomy.
    pub kind: BranchKind,
    /// PC-relative displacement for direct branches; `None` for indirect
    /// branches and returns, whose targets are not encoded in the bytes.
    pub rel: Option<i32>,
}

impl BranchInfo {
    /// Compute the branch target given the address of the *first byte* of the
    /// instruction and its decoded length.
    ///
    /// Returns `None` for branch kinds whose target is not in the encoding.
    #[must_use]
    pub fn target(&self, pc: u64, len: u8) -> Option<u64> {
        self.rel.map(|rel| {
            pc.wrapping_add(u64::from(len))
                .wrapping_add(rel as i64 as u64)
        })
    }
}

/// Coarse instruction classification produced by the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsnKind {
    /// A control-flow instruction.
    Branch(BranchInfo),
    /// Anything else (ALU, moves, loads/stores, NOPs, …).
    Other,
}

impl InsnKind {
    /// The branch info if this is a branch.
    #[must_use]
    pub fn branch(&self) -> Option<&BranchInfo> {
        match self {
            InsnKind::Branch(b) => Some(b),
            InsnKind::Other => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips_through_all() {
        for (i, k) in BranchKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(BranchKind::ALL[k.index()], k);
        }
    }

    #[test]
    fn direct_kinds_are_direct() {
        assert!(BranchKind::DirectCond.is_direct());
        assert!(BranchKind::DirectUncond.is_direct());
        assert!(BranchKind::Call.is_direct());
        assert!(!BranchKind::Return.is_direct());
        assert!(!BranchKind::IndirectJmp.is_direct());
        assert!(!BranchKind::IndirectCall.is_direct());
    }

    #[test]
    fn sbb_eligibility_matches_paper() {
        // §2.4: only direct unconditional branches, calls and returns can be
        // inserted by the shadow decoder.
        let eligible: Vec<_> = BranchKind::ALL
            .into_iter()
            .filter(|k| k.sbb_eligible())
            .collect();
        assert_eq!(
            eligible,
            vec![
                BranchKind::DirectUncond,
                BranchKind::Call,
                BranchKind::Return
            ]
        );
    }

    #[test]
    fn conditional_is_not_unconditional() {
        for k in BranchKind::ALL {
            assert_eq!(k.is_unconditional(), k != BranchKind::DirectCond);
        }
    }

    #[test]
    fn target_arithmetic() {
        let b = BranchInfo {
            kind: BranchKind::DirectUncond,
            rel: Some(-5),
        };
        assert_eq!(b.target(100, 2), Some(97));
        let r = BranchInfo {
            kind: BranchKind::Return,
            rel: None,
        };
        assert_eq!(r.target(100, 1), None);
    }

    #[test]
    fn target_wraps_at_address_space_edge() {
        let b = BranchInfo {
            kind: BranchKind::Call,
            rel: Some(-1),
        };
        assert_eq!(b.target(0, 0), Some(u64::MAX));
    }
}
