//! Instruction-side cache hierarchy.
//!
//! Models the path an FDIP prefetch or demand fetch takes: L1-I, then L2,
//! then L3, then DRAM, with additive fill latencies. Lines are filled into
//! every level on the way back (inclusive-on-fill), which is the behaviour
//! the paper's pollution argument relies on: wrong-path prefetches insert
//! real lines into the L1-I and displace useful ones.

use skia_isa::CACHE_LINE_BYTES;

use crate::tag_array::TagArray;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (64 everywhere in the paper).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    #[must_use]
    pub fn sets(&self) -> usize {
        assert_eq!(self.size_bytes % (self.ways * self.line_bytes), 0);
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Hit/miss/fill counters for one cache level.
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

/// A single cache level holding 64-byte lines.
#[derive(Debug, Clone)]
pub struct Cache {
    arr: TagArray<LineMeta>,
    line_shift: u32,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache from its geometry.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(config.line_bytes.is_power_of_two());
        Cache {
            arr: TagArray::new(sets, config.ways),
            line_shift: config.line_bytes.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
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
        if self.arr.peek_mut(set, line).is_some() {
            return; // already resident
        }
        let evicted = self.arr.insert(
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

/// Fill latencies (in cycles) for each place a line can be found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelLatencies {
    /// L1-I hit (pipelined; normally 0 extra cycles at fetch).
    pub l1_hit: u32,
    /// Fill from L2.
    pub l2: u32,
    /// Fill from L3.
    pub l3: u32,
    /// Fill from DRAM.
    pub dram: u32,
}

impl Default for LevelLatencies {
    fn default() -> Self {
        // Golden-Cove-like round-trip latencies in core cycles.
        LevelLatencies {
            l1_hit: 0,
            l2: 14,
            l3: 42,
            dram: 180,
        }
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
    /// Latencies per level.
    pub latencies: LevelLatencies,
}

impl Default for HierarchyConfig {
    /// The paper's Table 1: 32 KB 8-way L1-I, 1 MB 16-way L2, 2 MB 16-way L3,
    /// 64-byte lines.
    fn default() -> Self {
        HierarchyConfig {
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: CACHE_LINE_BYTES,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                ways: 16,
                line_bytes: CACHE_LINE_BYTES,
            },
            l3: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                ways: 16,
                line_bytes: CACHE_LINE_BYTES,
            },
            latencies: LevelLatencies::default(),
        }
    }
}

/// The instruction-fetch path: L1-I backed by L2, L3 and DRAM.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1i: Cache,
    l2: Cache,
    l3: Cache,
    latencies: LevelLatencies,
}

impl Hierarchy {
    /// Build the hierarchy.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        Hierarchy {
            l1i: Cache::new(config.l1i),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            latencies: config.latencies,
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
            return (true, self.latencies.l1_hit);
        }
        // L2 lookup.
        let latency = if self.l2.demand_access(addr) {
            self.latencies.l2
        } else if self.l3.demand_access(addr) {
            self.l2.fill(addr, prefetch);
            self.latencies.l3
        } else {
            self.l3.fill(addr, prefetch);
            self.l2.fill(addr, prefetch);
            self.latencies.dram
        };
        self.l1i.fill(addr, prefetch);
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
            line_bytes: 64,
        })
    }

    #[test]
    fn geometry() {
        let c = CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
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
        let lat = h.latencies;
        // Cold: DRAM.
        assert_eq!(h.fetch_line(0x4000, false), lat.dram);
        // Now in L1.
        assert_eq!(h.fetch_line(0x4000, false), lat.l1_hit);
        // Evict from tiny? L1 is 32KB; use a fresh address for L2 behaviour:
        // fill another line, invalidate it from L1 only → L2 hit.
        assert_eq!(h.fetch_line(0x8000, false), lat.dram);
        h.l1i_mut().invalidate(0x8000);
        assert_eq!(h.fetch_line(0x8000, false), lat.l2);
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
