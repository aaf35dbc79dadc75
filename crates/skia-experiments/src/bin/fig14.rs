//! Figure 14: per-benchmark IPC gain over the 8K-entry BTB baseline for
//! head-only, tail-only, and combined shadow decoding; plus the §6.1.4
//! verilator pre-BOLT comparison and the §3.2.2 bogus-branch rate.
//!
//! Paper's shape: geomean ~5.6% combined, tail-only (~4.4%) above head-only
//! (~3.7%); low-BTB-miss benchmarks (finagle-chirper, kafka,
//! speedometer2.0) gain least; voter and sibench gain most.

use skia_core::SkiaConfig;
use skia_experiments::{geomean, row, Args, StandingConfig, Sweep};
use skia_frontend::FrontendConfig;

fn main() {
    let args = Args::parse();
    let steps = args.steps;
    let mut em = args.emitter();
    let benches = args.benchmarks();

    let variant_cfg = |v: SkiaConfig| {
        FrontendConfig::alder_lake_like()
            .with_btb_entries(8192)
            .with_skia(v)
    };
    // Base + head-only + tail-only + combined, in the fixed serial order.
    let add_variants = |sweep: &mut Sweep, name: &str| -> [usize; 4] {
        [
            sweep.add(name, StandingConfig::Btb(8192).frontend(), steps),
            sweep.add(name, variant_cfg(SkiaConfig::head_only()), steps),
            sweep.add(name, variant_cfg(SkiaConfig::tail_only()), steps),
            sweep.add(name, variant_cfg(SkiaConfig::default()), steps),
        ]
    };

    let mut sweep = Sweep::from_args(&args);
    let main_ids: Vec<([usize; 4], usize)> = benches
        .iter()
        .map(|name| {
            let variants = add_variants(&mut sweep, name);
            // Bogus-rate bookkeeping comes from a separate combined run with
            // full telemetry, matching the original serial sequence.
            let combined = sweep.add(name, StandingConfig::BtbPlusSkia(8192).frontend(), steps);
            (variants, combined)
        })
        .collect();
    let bolt_names = args.filter_names(&["verilator", "verilator_prebolt"]);
    let bolt_ids: Vec<[usize; 4]> = bolt_names
        .iter()
        .map(|name| add_variants(&mut sweep, name))
        .collect();
    let stats = sweep.run(&mut em);

    let speedups_of = |ids: &[usize; 4]| -> [f64; 3] {
        let base = &stats[ids[0]];
        [
            stats[ids[1]].speedup_over(base),
            stats[ids[2]].speedup_over(base),
            stats[ids[3]].speedup_over(base),
        ]
    };

    println!("# Figure 14: IPC gain over 8K-entry (78KB) BTB\n");
    row(&[
        "benchmark".into(),
        "head-only".into(),
        "tail-only".into(),
        "head+tail".into(),
    ]);
    row(&vec!["---".to_string(); 4]);

    let mut speedups: Vec<[f64; 3]> = Vec::new();
    let mut bogus_uses = 0u64;
    let mut inserts = 0u64;
    for (name, &(variant_ids, combined_id)) in benches.iter().zip(&main_ids) {
        let s = speedups_of(&variant_ids);
        if let Some(sk) = &stats[combined_id].skia {
            bogus_uses += sk.bogus_uses;
            inserts += sk.sbb.u_inserts + sk.sbb.r_inserts;
        }
        speedups.push(s);
        row(&[
            name.to_string(),
            format!("{:+.2}%", (s[0] - 1.0) * 100.0),
            format!("{:+.2}%", (s[1] - 1.0) * 100.0),
            format!("{:+.2}%", (s[2] - 1.0) * 100.0),
        ]);
    }
    let geo = |i: usize| (geomean(speedups.iter().map(|s| s[i])) - 1.0) * 100.0;
    row(&[
        "**geomean**".into(),
        format!("{:+.2}%", geo(0)),
        format!("{:+.2}%", geo(1)),
        format!("{:+.2}%", geo(2)),
    ]);

    println!(
        "\nBogus branches used / SBB insertions: {:.5}% (paper §3.2.2: ~0.0002%)",
        bogus_uses as f64 * 100.0 / inserts.max(1) as f64
    );

    // §6.1.4: verilator pre-BOLT vs bolted.
    println!("\n## §6.1.4: verilator BOLT sensitivity");
    for (name, ids) in bolt_names.iter().zip(&bolt_ids) {
        let s = speedups_of(ids);
        println!(
            "{name:<20} combined Skia speedup {:+.2}%",
            (s[2] - 1.0) * 100.0
        );
    }
    em.finish();
}
