//! Per-cache-line bitmaps of byte addresses.
//!
//! Every IAG cycle the BPU asks which is the first branch in the fetch
//! window that the BTB or the SBB holds (the parallel probe of the paper's
//! Fig. 11). Both structures keep a [`LineBitmap`] of their resident pcs —
//! bit `pc % 64` of the word for `pc`'s line — so the window scan is one
//! word read per structure per window line, an OR and a trailing-zeros
//! count ([`first_set_in`]), and a residency test is one bit test.

use std::collections::BTreeMap;
use std::ops::Range;

use skia_isa::CACHE_LINE_BYTES;

const LINE_BYTES: u64 = CACHE_LINE_BYTES as u64;

/// Line-base mask.
const LINE_MASK: u64 = !(LINE_BYTES - 1);

/// `addr`'s bit in its line's word.
#[inline]
fn bit(addr: u64) -> u64 {
    1u64 << (addr & !LINE_MASK)
}

/// A set of byte addresses, stored as one 64-bit word per cache line: dense
/// and indexed by line over a fixed run of lines (a program's code), with
/// an ordered map for lines outside the run.
#[derive(Debug, Clone, Default)]
pub struct LineBitmap {
    /// Base address of the first covered line.
    first: u64,
    covered: Vec<u64>,
    outside: BTreeMap<u64, u64>,
}

impl LineBitmap {
    /// An empty set, dense over the cache lines of `lines`.
    #[must_use]
    pub fn covering(lines: Range<u64>) -> Self {
        let first = lines.start & LINE_MASK;
        let n = lines.end.saturating_sub(first).div_ceil(LINE_BYTES);
        LineBitmap {
            first,
            covered: vec![0; n as usize],
            outside: BTreeMap::new(),
        }
    }

    /// Dense index of the line at `base`, when covered.
    #[inline]
    fn index(&self, base: u64) -> Option<usize> {
        let i = base.wrapping_sub(self.first) / LINE_BYTES;
        (base >= self.first && i < self.covered.len() as u64).then_some(i as usize)
    }

    /// The word of the line at `base` (a line base address): bit `i` is set
    /// when `base + i` is in the set.
    #[inline]
    #[must_use]
    pub fn line(&self, base: u64) -> u64 {
        match self.index(base) {
            Some(i) => self.covered[i],
            None => self.outside.get(&base).copied().unwrap_or(0),
        }
    }

    /// Whether `addr` is in the set.
    #[inline]
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        self.line(addr & LINE_MASK) & bit(addr) != 0
    }

    /// Add `addr`.
    #[inline]
    pub fn insert(&mut self, addr: u64) {
        let base = addr & LINE_MASK;
        match self.index(base) {
            Some(i) => self.covered[i] |= bit(addr),
            None => *self.outside.entry(base).or_default() |= bit(addr),
        }
    }

    /// Remove `addr`.
    #[inline]
    pub fn remove(&mut self, addr: u64) {
        let base = addr & LINE_MASK;
        match self.index(base) {
            Some(i) => self.covered[i] &= !bit(addr),
            None => {
                if let Some(w) = self.outside.get_mut(&base) {
                    *w &= !bit(addr);
                }
            }
        }
    }

    /// The lowest address of the set in `[start, limit)`.
    #[must_use]
    pub fn first_in(&self, start: u64, limit: u64) -> Option<u64> {
        first_set_in(start, limit, |base| self.line(base))
    }
}

/// The lowest address in `[start, limit)` whose bit is set in the word
/// `word(line base)` of its line — the fetch-window scan, over one
/// [`LineBitmap`] or the OR of several. Reads one word per line the window
/// touches.
#[inline]
pub fn first_set_in(start: u64, limit: u64, mut word: impl FnMut(u64) -> u64) -> Option<u64> {
    let mut base = start & LINE_MASK;
    while base < limit {
        let mut m = word(base);
        if m != 0 {
            if base < start {
                m &= !0u64 << (start - base);
            }
            if limit - base < LINE_BYTES {
                m &= (1u64 << (limit - base)) - 1;
            }
            if m != 0 {
                return Some(base + u64::from(m.trailing_zeros()));
            }
        }
        base = base.checked_add(LINE_BYTES)?;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_outside_the_covered_run_take_the_ordered_map() {
        let mut b = LineBitmap::covering(0x1000..0x1040);
        for addr in [0x1008u64, 0x0FF8, 0x1041] {
            b.insert(addr);
            assert!(b.contains(addr));
        }
        assert_eq!(b.outside.len(), 2, "two lines in the ordered map");
        assert_eq!(b.first_in(0x0FC0, 0x1080), Some(0x0FF8));
        assert_eq!(b.first_in(0x0FF9, 0x1080), Some(0x1008));
        assert_eq!(b.first_in(0x1009, 0x1080), Some(0x1041));
        assert_eq!(b.first_in(0x1009, 0x1041), None);
        b.remove(0x1041);
        b.remove(0x2000); // absent, outside: no-op
        assert!(!b.contains(0x1041));
        assert_eq!(b.first_in(0x1009, 0x1080), None);
    }

    #[test]
    fn window_at_the_top_of_the_address_space_ends() {
        let mut b = LineBitmap::default();
        b.insert(u64::MAX - 3);
        assert_eq!(b.first_in(u64::MAX - 63, u64::MAX), Some(u64::MAX - 3));
        assert_eq!(b.first_in(u64::MAX - 2, u64::MAX), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Membership and the window scan equal an ordered set's, inside
        /// and outside the covered run.
        #[test]
        fn matches_an_ordered_set(
            ops in proptest::collection::vec((proptest::prelude::any::<bool>(), 0u64..6 * 64), 1..120),
        ) {
            // One line below the covered run, four covered, one above.
            let space = 0x0FC0u64;
            let mut b = LineBitmap::covering(0x1000..0x1100);
            let mut set = std::collections::BTreeSet::new();
            for &(add, off) in &ops {
                let addr = space + off;
                if add {
                    b.insert(addr);
                    set.insert(addr);
                } else {
                    b.remove(addr);
                    set.remove(&addr);
                }
            }
            for addr in space..space + 6 * 64 {
                proptest::prop_assert_eq!(b.contains(addr), set.contains(&addr));
            }
            for start in (space..space + 6 * 64).step_by(3) {
                for limit in [start + 1, start + 64, start + 130] {
                    let brute = set.range(start..limit).next().copied();
                    proptest::prop_assert_eq!(b.first_in(start, limit), brute);
                }
            }
        }
    }
}
