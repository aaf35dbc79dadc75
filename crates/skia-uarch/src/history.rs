//! Folded global history, shared by [`crate::tage`] and [`crate::ittage`].
//!
//! A TAGE-family predictor hashes each tagged table's history length into
//! three folded (CBP-style compressed) registers: one as wide as the table
//! index and two for the tag. Every table of a predictor folds to the same
//! three widths, so the registers are stored by kind as arrays with one
//! lane per table, and a history push updates each array with one uniform
//! shift per lane. The per-table part — where the outgoing history bit
//! lands — is a precomputed mask per lane.

/// The global history ring plus the folded registers of `N` lanes (tagged
/// tables); lanes past the predictor's table count stay unused.
#[derive(Debug, Clone)]
pub(crate) struct FoldedHistory<const N: usize> {
    /// Outcome bits, one per push; a power-of-two ring.
    ring: Vec<bool>,
    pos: usize,
    /// History length of each lane.
    lens: [usize; N],
    /// Number of lanes in use.
    lanes: usize,
    /// Index fold of each lane.
    pub(crate) idx: [u32; N],
    /// First tag fold of each lane.
    pub(crate) tag1: [u32; N],
    /// Second tag fold (one bit narrower) of each lane.
    pub(crate) tag2: [u32; N],
    /// The bit the outgoing history bit flips in each lane's register,
    /// `1 << (len % width)`, per register kind.
    out_idx: [u32; N],
    out_tag1: [u32; N],
    out_tag2: [u32; N],
    /// Register widths: index, tag 1, tag 2.
    widths: [u32; 3],
}

/// One folded-register update on every lane: shift in `new`, flip the
/// outgoing bit where `olds` is all-ones, fold the overflow bit back in.
#[inline]
fn fold<const N: usize>(
    regs: &mut [u32; N],
    outs: &[u32; N],
    olds: &[u32; N],
    new: u32,
    width: u32,
) {
    let mask = (1u32 << width) - 1;
    for i in 0..N {
        let c = ((regs[i] << 1) | new) ^ (outs[i] & olds[i]);
        regs[i] = (c ^ (c >> width)) & mask;
    }
}

impl<const N: usize> FoldedHistory<N> {
    /// History of tables with lengths `lens`, folded to `idx_bits`,
    /// `tag_bits` and `tag_bits - 1` bits.
    pub(crate) fn new(lens: &[usize], idx_bits: usize, tag_bits: usize) -> Self {
        assert!(lens.len() <= N, "at most {N} tables");
        let widths = [idx_bits as u32, tag_bits as u32, tag_bits as u32 - 1];
        let mut h = FoldedHistory {
            // No read reaches further back than the longest history.
            ring: vec![false; (lens.iter().max().copied().unwrap_or(0) + 1).next_power_of_two()],
            pos: 0,
            lens: [0; N],
            lanes: lens.len(),
            idx: [0; N],
            tag1: [0; N],
            tag2: [0; N],
            out_idx: [0; N],
            out_tag1: [0; N],
            out_tag2: [0; N],
            widths,
        };
        for (i, &len) in lens.iter().enumerate() {
            h.lens[i] = len;
            h.out_idx[i] = 1 << (len as u32 % widths[0]);
            h.out_tag1[i] = 1 << (len as u32 % widths[1]);
            h.out_tag2[i] = 1 << (len as u32 % widths[2]);
        }
        h
    }

    /// Push one outcome bit.
    #[inline]
    pub(crate) fn push(&mut self, bit: bool) {
        let mask = self.ring.len() - 1;
        // All-ones where the lane's outgoing bit (pushed `len` ago) is set.
        let mut olds = [0u32; N];
        for (old, &len) in olds.iter_mut().zip(&self.lens).take(self.lanes) {
            *old = 0u32.wrapping_sub(u32::from(self.ring[self.pos.wrapping_sub(len) & mask]));
        }
        let new = u32::from(bit);
        let [wi, w1, w2] = self.widths;
        fold(&mut self.idx, &self.out_idx, &olds, new, wi);
        fold(&mut self.tag1, &self.out_tag1, &olds, new, w1);
        fold(&mut self.tag2, &self.out_tag2, &olds, new, w2);
        self.ring[self.pos] = bit;
        self.pos = (self.pos + 1) & mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-register-at-a-time fold the lanes replace.
    struct Folded {
        comp: u32,
        olen: u32,
        out_shift: u32,
    }

    impl Folded {
        fn update(&mut self, new: bool, old: bool) {
            self.comp = (self.comp << 1) | u32::from(new);
            self.comp ^= u32::from(old) << self.out_shift;
            self.comp ^= self.comp >> self.olen;
            self.comp &= (1u32 << self.olen) - 1;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Every lane equals a scalar fold over an unbounded history.
        #[test]
        fn lanes_equal_scalar_folds(
            bits in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..2000),
        ) {
            let lens = [2usize, 4, 9, 17, 38, 79, 160, 320];
            let (wi, wt) = (10usize, 11usize);
            let mut h: FoldedHistory<8> = FoldedHistory::new(&lens, wi, wt);
            let mut scalar: Vec<[Folded; 3]> = lens
                .iter()
                .map(|&len| {
                    [wi, wt, wt - 1].map(|w| Folded {
                        comp: 0,
                        olen: w as u32,
                        out_shift: (len % w) as u32,
                    })
                })
                .collect();
            let mut all = Vec::new();
            for &b in &bits {
                for (regs, &len) in scalar.iter_mut().zip(&lens) {
                    let old = all.len() >= len && all[all.len() - len];
                    for r in regs.iter_mut() {
                        r.update(b, old);
                    }
                }
                all.push(b);
                h.push(b);
                for (i, regs) in scalar.iter().enumerate() {
                    proptest::prop_assert_eq!(
                        [h.idx[i], h.tag1[i], h.tag2[i]],
                        [regs[0].comp, regs[1].comp, regs[2].comp]
                    );
                }
            }
        }
    }
}
