//! R-SBB return-handling regressions: RAS overflow, §4.3 retired-bit
//! replacement priority, and re-insertion after eviction — each checked as
//! a production-vs-reference pair, plus end-to-end lockstep canaries that
//! prove the differential traffic actually contains return mispredicts and
//! return-kind BTB misses (so the comparisons above are not vacuous).

use skia_core::{Sbb, SbbConfig, ShadowBranch};
use skia_isa::BranchKind;
use skia_oracle::{run_case, DiffCase, RefRas, RefSbb};
use skia_uarch::ras::ReturnAddressStack;

fn ret(pc: u64) -> ShadowBranch {
    ShadowBranch {
        pc,
        len: 1,
        kind: BranchKind::Return,
        target: None,
        line_offset: (pc % 64) as u8,
    }
}

/// Call depth beyond the RAS capacity: the circular production stack and
/// the drop-oldest reference stack must expose exactly the same readable
/// window — deep pops hit the same addresses, then underflow together.
#[test]
fn ras_overflow_exposes_the_same_readable_window() {
    const CAP: usize = 16; // FrontendConfig::test_small's ras_depth
    let mut prod = ReturnAddressStack::new(CAP);
    let mut oracle = RefRas::new(CAP);

    // 2.5× capacity of nested calls.
    for depth in 0..CAP as u64 * 5 / 2 {
        prod.push(0x7000 + depth * 5);
        oracle.push(0x7000 + depth * 5);
        assert_eq!(prod.peek(), oracle.peek(), "peek at depth {depth}");
    }
    assert_eq!(prod.depth(), CAP, "depth must saturate at capacity");

    // Unwind: CAP real returns, then both models underflow in unison.
    for pop in 0..CAP + 4 {
        assert_eq!(prod.pop(), oracle.pop(), "pop {pop}");
    }
    assert_eq!(prod.peek(), None);

    // And the stack keeps working after a full overflow+underflow cycle.
    prod.push(0xABCD);
    oracle.push(0xABCD);
    assert_eq!(prod.pop(), Some(0xABCD));
    assert_eq!(oracle.pop(), Some(0xABCD));
}

/// Interleaved call/return traffic (the shape an actual trace produces)
/// across an overflowing stack: every intermediate observation matches.
#[test]
fn ras_interleaved_traffic_matches_production() {
    let mut prod = ReturnAddressStack::new(4);
    let mut oracle = RefRas::new(4);
    // Deterministic call/return pattern: bursts of calls deeper than the
    // stack, partially unwound, repeatedly.
    let mut addr = 0x1000u64;
    for burst in 1..8u64 {
        for _ in 0..burst + 3 {
            addr += 17;
            prod.push(addr);
            oracle.push(addr);
        }
        for _ in 0..burst {
            assert_eq!(prod.pop(), oracle.pop(), "burst {burst}");
        }
        assert_eq!(prod.peek(), oracle.peek(), "burst {burst} peek");
    }
}

/// §4.3: with a single-set R-SBB at capacity, the victim must be the
/// not-yet-retired entry — the retired return survives in the production
/// structure and the reference alike, and both report the same displaced
/// PC and `evicted_unretired` accounting.
#[test]
fn retired_return_survives_rsbb_pressure_in_both_models() {
    let geometry = SbbConfig {
        u_entries: 2,
        r_entries: 2,
        ways: 2, // single set in each half: collisions guaranteed
        retired_aware: true,
    };
    let mut prod = Sbb::new(geometry);
    let mut oracle = RefSbb::new(2, 2, 2, true);

    let (a, b, c) = (0x9001, 0x9042, 0x9083);
    for sbb in [&mut prod as &mut dyn FnLike, &mut oracle] {
        sbb.insert_ret(a);
        sbb.insert_ret(b);
        sbb.retire(a); // commit touches A; B stays speculative
    }
    // A is older than B, so plain LRU would evict A. The retired bit must
    // override recency: C displaces B in both models.
    assert_eq!(prod.insert(&ret(c)), Some(b));
    assert_eq!(oracle.insert(&ret(c)), Some(b));
    for (name, probe_a, probe_b, probe_c) in [
        ("production", prod.probe(a), prod.probe(b), prod.probe(c)),
        ("oracle", oracle.probe(a), oracle.probe(b), oracle.probe(c)),
    ] {
        assert!(probe_a.is_some(), "{name}: retired A must survive");
        assert!(probe_b.is_none(), "{name}: unretired B must be the victim");
        assert!(probe_c.is_some(), "{name}: C must be resident");
    }
    assert_eq!(prod.stats(), oracle.stats());
    assert_eq!(prod.stats().evicted_unretired, 1);
}

/// Helper trait so the test above can drive both structures with one loop
/// despite their different inherent-method receivers.
trait FnLike {
    fn insert_ret(&mut self, pc: u64);
    fn retire(&mut self, pc: u64);
}
impl FnLike for Sbb {
    fn insert_ret(&mut self, pc: u64) {
        self.insert(&ret(pc));
    }
    fn retire(&mut self, pc: u64) {
        self.mark_retired(pc);
    }
}
impl FnLike for RefSbb {
    fn insert_ret(&mut self, pc: u64) {
        self.insert(&ret(pc));
    }
    fn retire(&mut self, pc: u64) {
        self.mark_retired(pc);
    }
}

/// The ablation contrast: the same traffic with `retired_aware: false`
/// falls back to plain LRU and evicts the retired entry instead — in both
/// models, which is exactly what the IgnoreRetiredBit fault knob plants
/// one-sided.
#[test]
fn lru_ablation_evicts_the_retired_return_instead() {
    let geometry = SbbConfig {
        u_entries: 2,
        r_entries: 2,
        ways: 2,
        retired_aware: false,
    };
    let mut prod = Sbb::new(geometry);
    let mut oracle = RefSbb::new(2, 2, 2, false);
    let (a, b, c) = (0x9001, 0x9042, 0x9083);
    for sbb in [&mut prod as &mut dyn FnLike, &mut oracle] {
        sbb.insert_ret(a);
        sbb.insert_ret(b);
        sbb.retire(a);
    }
    assert_eq!(prod.insert(&ret(c)), Some(a), "LRU victim is oldest");
    assert_eq!(oracle.insert(&ret(c)), Some(a));
    assert!(prod.probe(a).is_none() && oracle.probe(a).is_none());
    assert_eq!(prod.stats(), oracle.stats());
}

/// A return whose line was evicted must be re-discoverable: after losing
/// its slot, re-inserting and re-retiring it restores the §4.3 protection,
/// and once *every* way is retired the replacement degrades gracefully to
/// LRU among retired entries — identically in both models.
#[test]
fn evicted_return_reinserts_and_all_retired_set_degrades_to_lru() {
    let mut prod = Sbb::new(SbbConfig {
        u_entries: 2,
        r_entries: 2,
        ways: 2,
        retired_aware: true,
    });
    let mut oracle = RefSbb::new(2, 2, 2, true);
    let (a, b, c) = (0x9001, 0x9042, 0x9083);
    for sbb in [&mut prod as &mut dyn FnLike, &mut oracle] {
        sbb.insert_ret(a);
        sbb.insert_ret(b);
        sbb.retire(a);
    }
    // B is displaced (unretired), then returns on the re-fetched line and
    // is re-inserted and committed.
    assert_eq!(prod.insert(&ret(c)), Some(b));
    assert_eq!(oracle.insert(&ret(c)), Some(b));
    prod.mark_retired(c);
    oracle.mark_retired(c);
    assert_eq!(
        prod.insert(&ret(b)),
        Some(a),
        "all-retired set falls back to LRU"
    );
    assert_eq!(oracle.insert(&ret(b)), Some(a));
    for (name, hit_b, hit_c) in [
        ("production", prod.lookup(b), prod.lookup(c)),
        ("oracle", oracle.lookup(b), oracle.lookup(c)),
    ] {
        assert!(hit_b.is_some(), "{name}: re-inserted B resident");
        assert!(hit_c.is_some(), "{name}: retired C resident");
    }
    assert_eq!(prod.stats(), oracle.stats());
    assert_eq!(prod.stats().retirements, 2);
    assert_eq!(prod.stats().evicted_unretired, 1);
}

/// End-to-end canaries: the lockstep workloads used throughout the suite
/// really do exercise the return path — RAS mispredicts happen, return-kind
/// BTB misses happen, and the SBB rescues some of them — and the two
/// simulators still agree at every step.
#[test]
fn lockstep_return_traffic_is_live_and_divergence_free() {
    let case = DiffCase {
        spec_seed: 5,
        functions: 48,
        bolted: true,
        trace_seed: 12,
        steps: 400,
        with_skia: true,
        btb_sets: 4,
        small_sbb: true,
        small_caches: false,
    };
    let outcome = run_case(&case, None).unwrap_or_else(|r| panic!("{r}"));
    assert!(
        outcome.stats.return_mispredicts > 0,
        "workload produced no RAS mispredicts — return canaries are vacuous"
    );
    let ret_misses = outcome.snapshot.counter("btb.miss_kind.return").unwrap();
    assert!(ret_misses > 0, "no return-kind BTB misses");
    let rescues = outcome.snapshot.counter("sbb.rescues").unwrap();
    assert!(rescues > 0, "SBB rescued nothing");
}
