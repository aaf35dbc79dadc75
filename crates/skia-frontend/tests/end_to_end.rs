//! End-to-end simulator properties on generated workloads.

use skia_core::{SbbConfig, SkiaConfig};
use skia_frontend::{run, BtbMode, FrontendConfig};
use skia_uarch::btb::BtbConfig;
use skia_workloads::{Program, ProgramSpec, Walker};

fn program(functions: usize, seed: u64) -> Program {
    Program::generate(&ProgramSpec {
        functions,
        seed,
        ..ProgramSpec::default()
    })
}

fn sim(p: &Program, config: FrontendConfig, steps: usize) -> skia_frontend::SimStats {
    run(p, config, Walker::new(p, 11, 6).take(steps))
}

#[test]
fn simulation_is_deterministic() {
    let p = program(120, 5);
    let a = sim(&p, FrontendConfig::test_small(), 3_000);
    let b = sim(&p, FrontendConfig::test_small(), 3_000);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.btb_misses, b.btb_misses);
    assert_eq!(a.instructions, b.instructions);
}

#[test]
fn instructions_match_trace() {
    let p = program(100, 6);
    let expected: u64 = Walker::new(&p, 11, 6)
        .take(2_000)
        .map(|s| u64::from(s.insns))
        .sum();
    let stats = sim(&p, FrontendConfig::test_small(), 2_000);
    assert_eq!(stats.instructions, expected);
    assert_eq!(stats.branches, 2_000);
}

#[test]
fn cycles_are_sane() {
    let p = program(100, 7);
    let stats = sim(&p, FrontendConfig::test_small(), 5_000);
    // IPC must be positive and below the decode width.
    assert!(stats.cycles > 0);
    let ipc = stats.ipc();
    assert!(ipc > 0.05, "ipc {ipc}");
    assert!(ipc <= 12.0, "ipc {ipc}");
    // Idle + busy accounting cannot exceed total cycles grossly.
    assert!(stats.decode_busy_cycles <= stats.cycles);
}

#[test]
fn bigger_btb_never_hurts_miss_rate() {
    let p = program(600, 8);
    let small = sim(
        &p,
        FrontendConfig {
            btb: BtbMode::Finite(BtbConfig::with_entries(256)),
            ..FrontendConfig::test_small()
        },
        20_000,
    );
    let big = sim(
        &p,
        FrontendConfig {
            btb: BtbMode::Finite(BtbConfig::with_entries(8192)),
            ..FrontendConfig::test_small()
        },
        20_000,
    );
    assert!(
        big.btb_misses < small.btb_misses,
        "8K BTB {} vs 256-entry {}",
        big.btb_misses,
        small.btb_misses
    );
}

/// The CACTI bubble follows from the BTB's size, however the BTB is set: a
/// 64K-entry BTB assigned field by field pays it as `with_btb_entries`
/// does.
#[test]
fn btb_bubble_does_not_depend_on_how_the_btb_is_set() {
    let p = program(120, 12);
    let direct = sim(
        &p,
        FrontendConfig {
            btb: BtbMode::Finite(BtbConfig::with_entries(65_536)),
            ..FrontendConfig::alder_lake_like()
        },
        5_000,
    );
    let built = sim(
        &p,
        FrontendConfig::alder_lake_like().with_btb_entries(65_536),
        5_000,
    );
    assert!(
        direct.decode_resteers + direct.exec_resteers > 0,
        "no resteer paid a bubble"
    );
    assert_eq!(direct, built);
}

#[test]
fn infinite_btb_only_misses_compulsory() {
    let p = program(200, 9);
    let stats = sim(
        &p,
        FrontendConfig {
            btb: BtbMode::Infinite,
            ..FrontendConfig::test_small()
        },
        30_000,
    );
    // With an infinite BTB every miss is the first encounter of a branch:
    // misses ≤ static branch count.
    assert!(
        stats.btb_misses <= p.branch_count() as u64,
        "misses {} vs static branches {}",
        stats.btb_misses,
        p.branch_count()
    );
}

#[test]
fn skia_reduces_unknown_branch_resteers() {
    let p = program(1500, 10);
    let steps = 60_000;
    let base_cfg = FrontendConfig {
        btb: BtbMode::Finite(BtbConfig::with_entries(512)),
        ..FrontendConfig::test_small()
    };
    let skia_cfg = FrontendConfig {
        skia: Some(SkiaConfig::default()),
        ..base_cfg.clone()
    };
    let base = sim(&p, base_cfg, steps);
    let with = sim(&p, skia_cfg, steps);
    assert!(with.sbb_rescues > 0, "SBB must rescue some BTB misses");
    assert!(
        with.decode_resteers + with.exec_resteers < base.decode_resteers + base.exec_resteers,
        "skia {}+{} vs base {}+{}",
        with.decode_resteers,
        with.exec_resteers,
        base.decode_resteers,
        base.exec_resteers
    );
    assert!(
        with.cycles <= base.cycles,
        "skia should not slow the machine: {} vs {}",
        with.cycles,
        base.cycles
    );
}

#[test]
fn skia_bogus_rate_is_tiny() {
    let p = program(1500, 12);
    let cfg = FrontendConfig {
        btb: BtbMode::Finite(BtbConfig::with_entries(512)),
        skia: Some(SkiaConfig::default()),
        ..FrontendConfig::test_small()
    };
    let stats = sim(&p, cfg, 60_000);
    let sk = stats.skia.expect("skia stats present");
    // §3.2.2: bogus branches are a vanishing fraction of SBB insertions.
    assert!(
        sk.bogus_rate() < 0.01,
        "bogus rate {} too high",
        sk.bogus_rate()
    );
}

#[test]
fn head_only_and_tail_only_are_subsets_of_both() {
    let p = program(1500, 13);
    let steps = 40_000;
    let mk = |skia: Option<SkiaConfig>| FrontendConfig {
        btb: BtbMode::Finite(BtbConfig::with_entries(512)),
        skia,
        ..FrontendConfig::test_small()
    };
    let head = sim(&p, mk(Some(SkiaConfig::head_only())), steps);
    let tail = sim(&p, mk(Some(SkiaConfig::tail_only())), steps);
    let both = sim(&p, mk(Some(SkiaConfig::default())), steps);
    let h = head.skia.unwrap();
    let t = tail.skia.unwrap();
    let b = both.skia.unwrap();
    assert_eq!(h.sbd.tail_regions, 0, "head-only must not tail-decode");
    assert_eq!(t.sbd.head_regions, 0, "tail-only must not head-decode");
    assert!(b.sbd.head_regions > 0 && b.sbd.tail_regions > 0);
    // Combined coverage rescues at least as much as either alone (allowing
    // small interference noise).
    let min_single = head.sbb_rescues.min(tail.sbb_rescues);
    assert!(
        both.sbb_rescues >= min_single,
        "both {} vs min single {}",
        both.sbb_rescues,
        min_single
    );
}

#[test]
fn ablation_knobs_reach_the_simulator() {
    // The `ablations` golden's 2,000 steps print the default row for both
    // knobs, so this is what shows each one reaches the SBB or the BPU.
    let p = program(600, 8);
    let run = |skia: SkiaConfig| sim(&p, FrontendConfig::test_small().with_skia(skia), 5_000);
    let default = run(SkiaConfig::default());
    let plain_lru = run(SkiaConfig {
        sbb: SbbConfig {
            retired_aware: false,
            ..SbbConfig::default()
        },
        ..SkiaConfig::default()
    });
    let filtered = run(SkiaConfig {
        filter_btb_resident: true,
        ..SkiaConfig::default()
    });
    assert_ne!(plain_lru, default, "retired_aware: false changes nothing");
    assert_ne!(
        filtered, default,
        "filter_btb_resident: true changes nothing"
    );
}

#[test]
fn wrong_path_pollution_is_observed() {
    let p = program(800, 14);
    let stats = sim(
        &p,
        FrontendConfig {
            btb: BtbMode::Finite(BtbConfig::with_entries(256)),
            ..FrontendConfig::test_small()
        },
        30_000,
    );
    assert!(stats.wrong_path_blocks > 0);
    assert!(stats.wrong_path_prefetches >= stats.wrong_path_blocks);
}

#[test]
fn btb_miss_l1i_residency_mostly_high() {
    // The paper's core observation: most BTB misses hit lines already
    // resident in the L1-I. The synthetic workloads must reproduce it.
    let p = program(2000, 15);
    let stats = sim(
        &p,
        FrontendConfig {
            btb: BtbMode::Finite(BtbConfig::with_entries(1024)),
            ..FrontendConfig::test_small()
        },
        60_000,
    );
    assert!(stats.btb_misses > 100, "need miss pressure for the test");
    let frac = stats.btb_miss_l1i_resident_fraction();
    assert!(frac > 0.3, "L1-I resident fraction {frac} unexpectedly low");
}

#[test]
fn decoder_idle_splits_into_causes() {
    let p = program(800, 16);
    let stats = sim(&p, FrontendConfig::test_small(), 20_000);
    assert!(stats.idle_resteer_cycles > 0);
    assert!(stats.decoder_idle_cycles() >= stats.idle_resteer_cycles);
}
