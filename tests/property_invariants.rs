//! Workspace-level property tests: invariants that must hold for *any*
//! generated workload and simulator configuration.

use proptest::prelude::*;
use skia::prelude::*;

prop_compose! {
    fn arb_spec()(
        seed in any::<u64>(),
        functions in 30usize..300,
        cond in 0.2f64..0.8,
        call in 0.2f64..0.8,
        zipf in 0.7f64..1.4,
        bolted in any::<bool>(),
    ) -> ProgramSpec {
        ProgramSpec {
            seed,
            functions,
            cond_fraction: cond,
            call_fraction: call,
            zipf_s: zipf,
            layout: if bolted { Layout::Bolted } else { Layout::Interleaved },
            ..ProgramSpec::default()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every generated program's ground truth is decode-consistent: each
    /// block decodes from the image, from its start through its terminator,
    /// to its record — body instructions that are not branches, as many as
    /// the record counts, then the recorded branch.
    #[test]
    fn ground_truth_matches_bytes(spec in arb_spec()) {
        use skia::isa::decode::decode;
        let program = Program::generate(&spec);
        for t in program.branch_table().records() {
            let mut pc = t.block_start;
            let mut body = 0u32;
            while pc < t.pc {
                let d = decode(program.bytes_at(pc, 15)).expect("body instruction decodes");
                prop_assert!(d.kind.branch().is_none(), "branch inside the block at {:#x}", pc);
                pc += u64::from(d.len);
                body += 1;
            }
            prop_assert_eq!(pc, t.pc);
            prop_assert_eq!(body + 1, t.insns);
            let d = decode(program.bytes_at(t.pc, 15)).expect("terminator decodes");
            prop_assert_eq!(d.len, t.len);
            let bi = d.kind.branch().expect("terminator is a branch");
            prop_assert_eq!(bi.kind, t.kind);
            if let Some(target) = t.target {
                prop_assert_eq!(d.branch_target(t.pc), Some(target));
            }
        }
    }

    /// Trace steps always chain: next_pc of step n is block_start of n+1,
    /// and instruction counts are consistent with block metadata.
    #[test]
    fn trace_chains(spec in arb_spec(), seed in any::<u64>()) {
        let program = Program::generate(&spec);
        let steps: Vec<TraceStep> =
            Walker::new(&program, seed, 5).take(500).collect();
        for pair in steps.windows(2) {
            prop_assert_eq!(pair[1].block_start, pair[0].next_pc);
        }
        for s in &steps {
            prop_assert!(s.branch_pc >= s.block_start);
            prop_assert!(s.insns >= 1);
            if !s.taken {
                prop_assert_eq!(s.next_pc, s.block_end());
            }
        }
    }

    /// The simulator conserves instructions and never divides by zero, for
    /// arbitrary (small) BTB geometries, with and without Skia.
    #[test]
    fn simulator_conserves_instructions(
        spec in arb_spec(),
        btb_sets in 4usize..64,
        with_skia in any::<bool>(),
    ) {
        let program = Program::generate(&spec);
        let expected: u64 = Walker::new(&program, 3, 5)
            .take(800)
            .map(|s| u64::from(s.insns))
            .sum();
        let mut config = FrontendConfig::test_small();
        config.btb = BtbMode::Finite(BtbConfig { entries: btb_sets * 4, ways: 4 });
        if with_skia {
            config.skia = Some(SkiaConfig::default());
        }
        let stats = skia::frontend::run(
            &program,
            config,
            Walker::new(&program, 3, 5).take(800),
        );
        prop_assert_eq!(stats.instructions, expected);
        prop_assert!(stats.cycles > 0);
        prop_assert!(stats.btb_miss_l1i_resident <= stats.btb_misses);
        prop_assert!(stats.btb_miss_rescuable <= stats.btb_miss_taken);
        prop_assert!(stats.sbb_rescues <= stats.btb_misses);
        let kind_sum: u64 = stats.btb_misses_by_kind.iter().sum();
        prop_assert_eq!(kind_sum, stats.btb_misses);
    }

    /// SBB occupancy never exceeds its configured capacity, and its storage
    /// arithmetic is consistent under scaling.
    #[test]
    fn sbb_capacity_respected(factor in 1usize..6) {
        let sbb = SbbConfig::default().scaled(factor as f64 / 2.0);
        prop_assert_eq!(sbb.u_entries % sbb.ways, 0);
        prop_assert_eq!(sbb.r_entries % sbb.ways, 0);
        let kb = sbb.storage_kb();
        prop_assert!(kb > 0.0);
        // Scaling is roughly proportional.
        let expect = 12.25 * factor as f64 / 2.0;
        prop_assert!((kb - expect).abs() / expect < 0.1, "kb {} expect {}", kb, expect);
    }
}
