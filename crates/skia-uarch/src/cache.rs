//! Instruction-side cache hierarchy.
//!
//! Models the path an FDIP prefetch or demand fetch takes: L1-I, then L2,
//! then L3, then DRAM, with additive fill latencies. Lines are filled into
//! every level on the way back (inclusive-on-fill), which is the behaviour
//! the paper's pollution argument relies on: wrong-path prefetches insert
//! real lines into the L1-I and displace useful ones.

use skia_isa::CACHE_LINE_BYTES;

use crate::tag_array::TagArray;

/// Fill latency of an L1-I hit, in core cycles (pipelined at fetch).
pub const L1_HIT_CYCLES: u32 = 0;
/// Fill latency from the L2, in core cycles.
pub const L2_FILL_CYCLES: u32 = 14;
/// Fill latency from the L3, in core cycles.
pub const L3_FILL_CYCLES: u32 = 42;
/// Fill latency from DRAM, in core cycles.
pub const DRAM_FILL_CYCLES: u32 = 180;

/// Geometry of one cache level. Every level holds
/// [`CACHE_LINE_BYTES`]-byte lines, the line the ISA crate, the shadow
/// decoder and the line bitmaps all assume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    #[must_use]
    pub fn sets(&self) -> usize {
        assert_eq!(self.size_bytes % (self.ways * CACHE_LINE_BYTES), 0);
        self.size_bytes / (self.ways * CACHE_LINE_BYTES)
    }
}

/// Hit/miss/fill counters for one cache level.
///
/// The front-end simulator reaches the hierarchy only through
/// [`Hierarchy::fetch_line_tracking`] with `prefetch` set: every L1-I access
/// is an FDIP prefetch. So the L1-I's `demand_hits` and `demand_misses` are
/// always 0, and since only a demand hit clears a line's prefetched mark,
/// its `polluting_fills` always equals its `evictions`. The L2 and L3 are
/// looked up on demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups that hit.
    pub demand_hits: u64,
    /// Demand lookups that missed.
    pub demand_misses: u64,
    /// Prefetch lookups that hit (no fill needed).
    pub prefetch_hits: u64,
    /// Prefetch lookups that missed and triggered a fill.
    pub prefetch_misses: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
    /// Lines filled by prefetches that were evicted without ever being
    /// demand-hit — the pollution measure.
    pub polluting_fills: u64,
}

impl CacheStats {
    /// All lookups.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.demand_hits + self.demand_misses + self.prefetch_hits + self.prefetch_misses
    }

    /// All misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.demand_misses + self.prefetch_misses
    }
}

/// Per-line bookkeeping stored in the tag array.
#[derive(Debug, Clone, Copy)]
struct LineMeta {
    /// Filled by a prefetch and not yet demand-hit.
    prefetched_unused: bool,
}

/// A single cache level holding [`CACHE_LINE_BYTES`]-byte lines.
#[derive(Debug, Clone)]
pub struct Cache {
    arr: TagArray<LineMeta>,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache from its geometry.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        Cache {
            arr: TagArray::new(config.sets(), config.ways),
            stats: CacheStats::default(),
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / CACHE_LINE_BYTES as u64
    }

    fn set_of(&self, line: u64) -> usize {
        self.arr.set_of(line)
    }

    /// Whether the line containing `addr` is resident (no state change).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        self.arr.probe(self.set_of(line), line).is_some()
    }

    /// Demand access: returns `true` on hit; updates recency and stats.
    pub fn demand_access(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        match self.arr.access(set, line) {
            Some(meta) => {
                meta.prefetched_unused = false;
                self.stats.demand_hits += 1;
                true
            }
            None => {
                self.stats.demand_misses += 1;
                false
            }
        }
    }

    /// Prefetch probe: returns `true` on hit; counts separately from demand.
    pub fn prefetch_access(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        if self.arr.access(set, line).is_some() {
            self.stats.prefetch_hits += 1;
            true
        } else {
            self.stats.prefetch_misses += 1;
            false
        }
    }

    /// Fill the line containing `addr`. `prefetch` marks the fill for
    /// pollution accounting.
    pub fn fill(&mut self, addr: u64, prefetch: bool) {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        if self.arr.probe(set, line).is_none() {
            self.fill_absent(set, line, prefetch);
        }
    }

    /// [`Cache::fill`] of a line the caller has just seen miss: one victim
    /// scan, no residency check.
    fn fill_missed(&mut self, addr: u64, prefetch: bool) {
        let line = self.line_of(addr);
        self.fill_absent(self.set_of(line), line, prefetch);
    }

    fn fill_absent(&mut self, set: usize, line: u64, prefetch: bool) {
        let evicted = self.arr.insert_absent(
            set,
            line,
            LineMeta {
                prefetched_unused: prefetch,
            },
        );
        if let Some((_, meta)) = evicted {
            self.stats.evictions += 1;
            if meta.prefetched_unused {
                self.stats.polluting_fills += 1;
            }
        }
    }

    /// Invalidate the line containing `addr` (testing aid).
    pub fn invalidate(&mut self, addr: u64) {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        self.arr.invalidate(set, line);
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident lines.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.arr.len()
    }
}

/// Geometry of the full hierarchy (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Shared L3.
    pub l3: CacheConfig,
}

impl Default for HierarchyConfig {
    /// The paper's Table 1: 32 KB 8-way L1-I, 1 MB 16-way L2, 2 MB 16-way L3.
    fn default() -> Self {
        HierarchyConfig {
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                ways: 16,
            },
            l3: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                ways: 16,
            },
        }
    }
}

/// The instruction-fetch path: L1-I backed by L2, L3 and DRAM.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1i: Cache,
    l2: Cache,
    l3: Cache,
}

impl Hierarchy {
    /// Build the hierarchy.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        Hierarchy {
            l1i: Cache::new(config.l1i),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
        }
    }

    /// Access the line containing `addr` for instruction fetch.
    ///
    /// Returns the latency in cycles until the line is usable. Fills the line
    /// into L1-I (and the levels it passed through) if it missed. `prefetch`
    /// selects prefetch-vs-demand accounting and pollution tracking.
    pub fn fetch_line(&mut self, addr: u64, prefetch: bool) -> u32 {
        self.fetch_line_tracking(addr, prefetch).1
    }

    /// As [`Hierarchy::fetch_line`], additionally returning whether the line
    /// was already L1-I resident before the access — the hit outcome of the
    /// L1 lookup itself, saving the FDIP loop a separate residency probe.
    pub fn fetch_line_tracking(&mut self, addr: u64, prefetch: bool) -> (bool, u32) {
        let l1_hit = if prefetch {
            self.l1i.prefetch_access(addr)
        } else {
            self.l1i.demand_access(addr)
        };
        if l1_hit {
            return (true, L1_HIT_CYCLES);
        }
        // L2 lookup. Each level filled below has just missed.
        let latency = if self.l2.demand_access(addr) {
            L2_FILL_CYCLES
        } else if self.l3.demand_access(addr) {
            self.l2.fill_missed(addr, prefetch);
            L3_FILL_CYCLES
        } else {
            self.l3.fill_missed(addr, prefetch);
            self.l2.fill_missed(addr, prefetch);
            DRAM_FILL_CYCLES
        };
        self.l1i.fill_missed(addr, prefetch);
        (false, latency)
    }

    /// Whether the line containing `addr` is resident in the L1-I — the
    /// paper's "BTB miss with L1-I hit" measurement (Figs. 1 and 15).
    #[must_use]
    pub fn l1i_contains(&self, addr: u64) -> bool {
        self.l1i.contains(addr)
    }

    /// L1-I statistics.
    #[must_use]
    pub fn l1i_stats(&self) -> CacheStats {
        self.l1i.stats()
    }

    /// L2 statistics.
    #[must_use]
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// L3 statistics.
    #[must_use]
    pub fn l3_stats(&self) -> CacheStats {
        self.l3.stats()
    }

    /// Direct mutable access to the L1-I (testing aid).
    pub fn l1i_mut(&mut self) -> &mut Cache {
        &mut self.l1i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 4 * 64, // 4 lines
            ways: 2,
        })
    }

    #[test]
    fn geometry() {
        let c = CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
        };
        assert_eq!(c.sets(), 64);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.demand_access(0x1000));
        c.fill(0x1000, false);
        assert!(c.demand_access(0x1000));
        assert!(c.demand_access(0x103F)); // same line
        assert!(!c.demand_access(0x1040)); // next line
        let s = c.stats();
        assert_eq!(s.demand_hits, 2);
        assert_eq!(s.demand_misses, 2);
    }

    #[test]
    fn pollution_accounting() {
        let mut c = tiny(); // 2 sets × 2 ways
                            // Fill both ways of set 0 by prefetch, never touch them, then evict.
        c.fill(0x0000, true); // set 0
        c.fill(0x0080, true); // set 0 (2 sets ⇒ stride 128 maps to same set)
        c.fill(0x0100, false); // evicts one prefetched-unused line
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.polluting_fills, 1);
        // A demand hit clears the unused flag.
        c.fill(0x0200, false);
        assert!(c.demand_access(0x0100) || c.demand_access(0x0200));
    }

    #[test]
    fn demand_hit_clears_prefetch_flag() {
        let mut c = tiny();
        c.fill(0x0000, true);
        assert!(c.demand_access(0x0000));
        // Force eviction of line 0.
        c.fill(0x0080, false);
        c.fill(0x0100, false);
        assert_eq!(c.stats().polluting_fills, 0);
    }

    #[test]
    fn hierarchy_latency_ladder() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        // Cold: DRAM.
        assert_eq!(h.fetch_line(0x4000, false), DRAM_FILL_CYCLES);
        // Now in L1.
        assert_eq!(h.fetch_line(0x4000, false), L1_HIT_CYCLES);
        // Evict from tiny? L1 is 32KB; use a fresh address for L2 behaviour:
        // fill another line, invalidate it from L1 only → L2 hit.
        assert_eq!(h.fetch_line(0x8000, false), DRAM_FILL_CYCLES);
        h.l1i_mut().invalidate(0x8000);
        assert_eq!(h.fetch_line(0x8000, false), L2_FILL_CYCLES);
    }

    #[test]
    fn hierarchy_prefetch_then_demand() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        h.fetch_line(0x100, true);
        assert!(h.l1i_contains(0x100));
        assert_eq!(h.fetch_line(0x100, false), 0);
        let s = h.l1i_stats();
        assert_eq!(s.prefetch_misses, 1);
        assert_eq!(s.demand_hits, 1);
    }
}
