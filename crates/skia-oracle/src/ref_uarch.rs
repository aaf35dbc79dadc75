//! Deliberately slow, obviously-correct reference structures for the BTB,
//! the split SBB halves, the instruction cache ladder and the RAS.
//!
//! Everything here is a plain `Vec` with linear search: no set slicing, no
//! slot reuse tricks, no ordered mirrors. The structures implement the
//! *paper-literal* policies — one global recency tick per array, true-LRU
//! victim selection with an optional "prefer un-retired" class (§4.3) — and
//! are extensionally equal to `skia_uarch::TagArray`-backed production
//! structures:
//!
//! * tags are unique per set (an insert with a matching tag overwrites), so
//!   linear search finds the same entry a way scan finds;
//! * every insert/access draws a fresh tick, so `last_use` values are unique
//!   across the array and the LRU minimum is unambiguous — slot order, which
//!   the production array's way scan depends on for ties, can never matter.

/// One valid entry of a [`RefArray`].
#[derive(Debug, Clone)]
struct RefSlot<V> {
    set: usize,
    tag: u64,
    last_use: u64,
    value: V,
}

/// A flat-`Vec` reference model of a set-associative tag array with
/// true-LRU replacement and caller-controlled victim preference.
#[derive(Debug, Clone)]
pub struct RefArray<V> {
    sets: usize,
    ways: usize,
    tick: u64,
    entries: Vec<RefSlot<V>>,
}

impl<V> RefArray<V> {
    /// Create an empty array of `sets × ways` capacity.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0);
        RefArray {
            sets,
            ways,
            tick: 0,
            entries: Vec::new(),
        }
    }

    /// Map a key to its set index. The production array uses a mask when the
    /// set count is a power of two; the mask is provably identical to the
    /// modulo there, so the reference always takes the modulo.
    pub fn set_of(&self, key: u64) -> usize {
        (key % self.sets as u64) as usize
    }

    /// Look up without recency update.
    pub fn probe(&self, set: usize, tag: u64) -> Option<&V> {
        self.entries
            .iter()
            .find(|e| e.set == set && e.tag == tag)
            .map(|e| &e.value)
    }

    /// Look up and refresh recency on a hit. The production array advances
    /// its tick on *every* access, hit or miss; so does this one.
    pub fn access(&mut self, set: usize, tag: u64) -> Option<&mut V> {
        self.access_inner(set, tag, true)
    }

    /// [`RefArray::access`]: advances the tick but — as a deliberate fault
    /// for divergence-detection tests — does **not** refresh `last_use`.
    pub fn access_stale(&mut self, set: usize, tag: u64) -> Option<&mut V> {
        self.access_inner(set, tag, false)
    }

    fn access_inner(&mut self, set: usize, tag: u64, refresh: bool) -> Option<&mut V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries
            .iter_mut()
            .find(|e| e.set == set && e.tag == tag)
            .map(|e| {
                if refresh {
                    e.last_use = tick;
                }
                &mut e.value
            })
    }

    /// Mutable access without any recency or tick update.
    pub fn peek_mut(&mut self, set: usize, tag: u64) -> Option<&mut V> {
        self.entries
            .iter_mut()
            .find(|e| e.set == set && e.tag == tag)
            .map(|e| &mut e.value)
    }

    /// Insert with a victim preference, mirroring
    /// `TagArray::insert_with`: overwrite on tag match (returning the old
    /// value under the same tag), fill a free way, else evict the oldest
    /// entry of the preferred class — oldest overall when no candidate is
    /// preferred. Returns the displaced `(tag, value)`.
    pub fn insert_with(
        &mut self,
        set: usize,
        tag: u64,
        value: V,
        prefer_evict: impl Fn(&V) -> bool,
    ) -> Option<(u64, V)> {
        self.tick += 1;
        let tick = self.tick;

        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.set == set && e.tag == tag)
        {
            e.last_use = tick;
            let old = std::mem::replace(&mut e.value, value);
            return Some((tag, old));
        }

        let in_set = self.entries.iter().filter(|e| e.set == set).count();
        if in_set < self.ways {
            self.entries.push(RefSlot {
                set,
                tag,
                last_use: tick,
                value,
            });
            return None;
        }

        // Victim: preferred class first, then strict LRU. `last_use` values
        // are unique, so `min_by_key` is unambiguous.
        let victim = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.set == set)
            .min_by_key(|(_, e)| (!prefer_evict(&e.value), e.last_use))
            .map(|(i, _)| i)
            .expect("set is full here");
        let old = std::mem::replace(
            &mut self.entries[victim],
            RefSlot {
                set,
                tag,
                last_use: tick,
                value,
            },
        );
        Some((old.tag, old.value))
    }

    /// Plain-LRU insert.
    pub fn insert(&mut self, set: usize, tag: u64, value: V) -> Option<(u64, V)> {
        self.insert_with(set, tag, value, |_| false)
    }

    /// Remove an entry, returning its value.
    pub fn invalidate(&mut self, set: usize, tag: u64) -> Option<V> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.set == set && e.tag == tag)?;
        Some(self.entries.remove(pos).value)
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry is valid.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The lowest resident tag at or after `pc`, across all sets (the
    /// "next known branch" scan the production structures answer through a
    /// `BTreeSet` mirror).
    pub fn next_tag_at_or_after(&self, pc: u64) -> Option<u64> {
        self.entries
            .iter()
            .map(|e| e.tag)
            .filter(|&t| t >= pc)
            .min()
    }
}

use skia_isa::{BranchKind, CACHE_LINE_BYTES};
use skia_uarch::btb::BtbEntry;
use skia_uarch::cache::{
    CacheConfig, CacheStats, HierarchyConfig, DRAM_FILL_CYCLES, L1_HIT_CYCLES, L2_FILL_CYCLES,
    L3_FILL_CYCLES,
};

/// The line every reference cache level holds.
const LINE: u64 = CACHE_LINE_BYTES as u64;

/// Reference finite BTB: a [`RefArray`] of [`BtbEntry`] with the production
/// geometry mapping (PC modulo sets) and plain LRU.
#[derive(Debug, Clone)]
pub struct RefBtb {
    arr: RefArray<BtbEntry>,
    /// Fault knob: `lookup` advances the recency tick but leaves `last_use`
    /// stale, perturbing LRU order under set pressure (test-only).
    pub stale_lru: bool,
}

impl RefBtb {
    /// Build from `(entries, ways)` geometry.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries >= ways && entries.is_multiple_of(ways));
        RefBtb {
            arr: RefArray::new(entries / ways, ways),
            stale_lru: false,
        }
    }

    /// Predict-path lookup (recency-updating).
    pub fn lookup(&mut self, pc: u64) -> Option<BtbEntry> {
        let set = self.arr.set_of(pc);
        if self.stale_lru {
            self.arr.access_stale(set, pc).copied()
        } else {
            self.arr.access(set, pc).copied()
        }
    }

    /// Stateless probe.
    pub fn probe(&self, pc: u64) -> Option<BtbEntry> {
        self.arr.probe(self.arr.set_of(pc), pc).copied()
    }

    /// Install or refresh the branch at `pc`.
    pub fn insert(&mut self, pc: u64, kind: BranchKind, target: u64, len: u8) {
        let set = self.arr.set_of(pc);
        self.arr.insert(set, pc, BtbEntry { kind, target, len });
    }

    /// The lowest resident branch PC at or after `pc`.
    pub fn next_branch_at_or_after(&self, pc: u64) -> Option<u64> {
        self.arr.next_tag_at_or_after(pc)
    }
}

/// Reference infinite BTB: an unsorted `Vec` of `(pc, entry)`.
#[derive(Debug, Clone, Default)]
pub struct RefIdealBtb {
    entries: Vec<(u64, BtbEntry)>,
}

impl RefIdealBtb {
    /// Create an empty ideal BTB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up the branch at `pc`.
    pub fn lookup(&self, pc: u64) -> Option<BtbEntry> {
        self.entries.iter().find(|(p, _)| *p == pc).map(|(_, e)| *e)
    }

    /// Install (or overwrite) the branch at `pc`.
    pub fn insert(&mut self, pc: u64, kind: BranchKind, target: u64, len: u8) {
        let entry = BtbEntry { kind, target, len };
        match self.entries.iter_mut().find(|(p, _)| *p == pc) {
            Some(slot) => slot.1 = entry,
            None => self.entries.push((pc, entry)),
        }
    }

    /// The lowest resident branch PC at or after `pc`.
    pub fn next_branch_at_or_after(&self, pc: u64) -> Option<u64> {
        self.entries
            .iter()
            .map(|(p, _)| *p)
            .filter(|&p| p >= pc)
            .min()
    }
}

/// One reference cache level: a [`RefArray`] keyed by line number whose
/// value is the line's "filled by a prefetch and not yet demand-hit" flag.
#[derive(Debug, Clone)]
struct RefCache {
    arr: RefArray<bool>,
    stats: CacheStats,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        let sets = config.size_bytes / (config.ways * CACHE_LINE_BYTES);
        RefCache {
            arr: RefArray::new(sets, config.ways),
            stats: CacheStats::default(),
        }
    }

    fn contains(&self, addr: u64) -> bool {
        let line = addr / LINE;
        self.arr.probe(self.arr.set_of(line), line).is_some()
    }

    /// Look the line up, refreshing its recency on a hit. A demand hit
    /// clears the prefetched-unused flag; a prefetch hit does not.
    fn lookup(&mut self, addr: u64, prefetch: bool) -> bool {
        let line = addr / LINE;
        let set = self.arr.set_of(line);
        let hit = match self.arr.access(set, line) {
            Some(unused) => {
                if !prefetch {
                    *unused = false;
                }
                true
            }
            None => false,
        };
        let counter = match (prefetch, hit) {
            (false, true) => &mut self.stats.demand_hits,
            (false, false) => &mut self.stats.demand_misses,
            (true, true) => &mut self.stats.prefetch_hits,
            (true, false) => &mut self.stats.prefetch_misses,
        };
        *counter += 1;
        hit
    }

    /// Install the line unless resident, counting the displaced line.
    fn fill(&mut self, addr: u64, prefetch: bool) {
        let line = addr / LINE;
        let set = self.arr.set_of(line);
        if self.arr.probe(set, line).is_some() {
            return;
        }
        if let Some((_, unused)) = self.arr.insert(set, line, prefetch) {
            self.stats.evictions += 1;
            if unused {
                self.stats.polluting_fills += 1;
            }
        }
    }
}

/// Reference instruction-fetch ladder: L1-I, L2 and L3 [`RefArray`]s and
/// DRAM. A lookup that misses a level asks the next one (as a demand
/// lookup below the L1-I) and fills the line into every level it missed.
#[derive(Debug, Clone)]
pub struct RefHierarchy {
    l1i: RefCache,
    l2: RefCache,
    l3: RefCache,
}

impl RefHierarchy {
    /// Build the ladder from the production geometry.
    pub fn new(config: HierarchyConfig) -> Self {
        RefHierarchy {
            l1i: RefCache::new(config.l1i),
            l2: RefCache::new(config.l2),
            l3: RefCache::new(config.l3),
        }
    }

    /// Whether the L1-I holds the line of `addr` (no state change).
    pub fn l1i_contains(&self, addr: u64) -> bool {
        self.l1i.contains(addr)
    }

    /// Fetch the line of `addr`; returns the cycles until it is usable.
    pub fn fetch_line(&mut self, addr: u64, prefetch: bool) -> u32 {
        if self.l1i.lookup(addr, prefetch) {
            return L1_HIT_CYCLES;
        }
        let latency = if self.l2.lookup(addr, false) {
            L2_FILL_CYCLES
        } else if self.l3.lookup(addr, false) {
            self.l2.fill(addr, prefetch);
            L3_FILL_CYCLES
        } else {
            self.l3.fill(addr, prefetch);
            self.l2.fill(addr, prefetch);
            DRAM_FILL_CYCLES
        };
        self.l1i.fill(addr, prefetch);
        latency
    }

    /// L1-I counters.
    pub fn l1i_stats(&self) -> CacheStats {
        self.l1i.stats
    }

    /// L2 counters.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats
    }

    /// L3 counters.
    pub fn l3_stats(&self) -> CacheStats {
        self.l3.stats
    }
}

/// Reference return address stack: a plain `Vec` that drops its *oldest*
/// entry on overflow.
///
/// The production RAS is a fixed circular buffer with a saturating depth
/// counter. The two are extensionally equal for the operations the
/// simulator uses (`push`/`pop`/`peek`):
/// overflow overwrites the slot `depth` entries below the top, which is
/// exactly the oldest *readable* entry — anything deeper was already
/// unreachable because pops stop at depth 0 — and an underflowing pop
/// returns `None` without moving the top in either model.
#[derive(Debug, Clone)]
pub struct RefRas {
    entries: Vec<u64>,
    capacity: usize,
}

impl RefRas {
    /// Create a stack bounded at `capacity` readable entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        RefRas {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Push a return address, dropping the oldest on overflow.
    pub fn push(&mut self, return_address: u64) {
        self.entries.push(return_address);
        if self.entries.len() > self.capacity {
            self.entries.remove(0);
        }
    }

    /// Pop the predicted return address; `None` on underflow.
    pub fn pop(&mut self) -> Option<u64> {
        self.entries.pop()
    }

    /// Peek at the top without popping.
    pub fn peek(&self) -> Option<u64> {
        self.entries.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_matches_insert_order_semantics() {
        let mut a: RefArray<u32> = RefArray::new(1, 2);
        a.insert(0, 1, 10);
        a.insert(0, 2, 20);
        assert!(a.access(0, 1).is_some()); // tag 2 becomes LRU
        let evicted = a.insert(0, 3, 30);
        assert_eq!(evicted.map(|(t, _)| t), Some(2));
    }

    #[test]
    fn preferred_class_evicts_before_lru() {
        let mut a: RefArray<bool> = RefArray::new(1, 2);
        a.insert(0, 1, true); // retired
        a.insert(0, 2, false); // newer but unretired
        let evicted = a.insert_with(0, 3, false, |&retired| !retired);
        assert_eq!(evicted.map(|(t, _)| t), Some(2));
    }

    #[test]
    fn stale_access_still_ticks() {
        let mut a: RefArray<u32> = RefArray::new(1, 2);
        a.insert(0, 1, 10);
        a.insert(0, 2, 20);
        // A stale access to tag 1 does not refresh it: it stays LRU.
        assert!(a.access_stale(0, 1).is_some());
        let evicted = a.insert(0, 3, 30);
        assert_eq!(evicted.map(|(t, _)| t), Some(1));
    }

    /// The reference ladder equals production's on a hierarchy small
    /// enough that every level evicts, so L2 and L3 hits, prefetch
    /// pollution and the fills on the way back all occur.
    #[test]
    fn reference_ladder_equals_production() {
        use skia_uarch::cache::Hierarchy;
        let level = |lines: usize, ways: usize| CacheConfig {
            size_bytes: lines * 64,
            ways,
        };
        let config = HierarchyConfig {
            l1i: level(4, 2),
            l2: level(16, 4),
            l3: level(32, 4),
        };
        let (mut prod, mut reference) = (Hierarchy::new(config), RefHierarchy::new(config));
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x % 48) * 64 + (x >> 40) % 64;
            let prefetch = (x >> 20).is_multiple_of(3);
            assert_eq!(prod.l1i_contains(addr), reference.l1i_contains(addr));
            assert_eq!(
                prod.fetch_line(addr, prefetch),
                reference.fetch_line(addr, prefetch)
            );
        }
        assert_eq!(prod.l1i_stats(), reference.l1i_stats());
        assert_eq!(prod.l2_stats(), reference.l2_stats());
        assert_eq!(prod.l3_stats(), reference.l3_stats());
        assert!(reference.l3_stats().demand_hits > 0 && reference.l2_stats().polluting_fills > 0);
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut ras = RefRas::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None);
    }
}
