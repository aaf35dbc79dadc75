//! Figure 16: per-benchmark BTB miss MPKI under three configurations —
//! the 8K-entry baseline BTB, the same BTB grown by 12.25 KB, and the
//! baseline plus Skia's 12.25 KB SBB.
//!
//! Paper's shape: Skia reduces BTB MPKI far more than giving the same
//! storage to the BTB (§6.1.3). An SBB rescue removes the miss penalty even
//! though the BTB still missed, so the Skia column reports *effective*
//! misses (misses that actually disturbed the front-end).

use skia_experiments::{f2, row, Args, StandingConfig, Sweep};

fn main() {
    let args = Args::parse();
    let steps = args.steps;
    let mut em = args.emitter();
    let benches = args.benchmarks();

    let mut sweep = Sweep::from_args(&args);
    let ids: Vec<[usize; 3]> = benches
        .iter()
        .map(|name| {
            [
                sweep.add(name, StandingConfig::Btb(8192).frontend(), steps),
                sweep.add(name, StandingConfig::BtbPlusBudget(8192).frontend(), steps),
                sweep.add(name, StandingConfig::BtbPlusSkia(8192).frontend(), steps),
            ]
        })
        .collect();
    let stats = sweep.run(&mut em);

    println!("# Figure 16: BTB miss MPKI per benchmark (8K baseline)\n");
    row(&[
        "benchmark".into(),
        "baseline BTB".into(),
        "BTB+12.25KB".into(),
        "BTB+SBB (effective)".into(),
    ]);
    row(&vec!["---".to_string(); 4]);

    let mut sums = [0.0f64; 3];
    for (name, &[base_id, grown_id, skia_id]) in benches.iter().zip(&ids) {
        let base = &stats[base_id];
        let grown = &stats[grown_id];
        let skia = &stats[skia_id];
        let effective =
            (skia.btb_misses - skia.sbb_rescues) as f64 * 1000.0 / skia.instructions as f64;
        sums[0] += base.btb_mpki();
        sums[1] += grown.btb_mpki();
        sums[2] += effective;
        row(&[
            name.to_string(),
            f2(base.btb_mpki()),
            f2(grown.btb_mpki()),
            f2(effective),
        ]);
    }
    let n = benches.len().max(1) as f64;
    row(&[
        "**mean**".into(),
        f2(sums[0] / n),
        f2(sums[1] / n),
        f2(sums[2] / n),
    ]);
    println!(
        "\nMean reduction: BTB+12.25KB {:.1}%, Skia {:.1}% \
         (paper: ~35% vs ~115% expressed as relative ratios)",
        (1.0 - sums[1] / sums[0]) * 100.0,
        (1.0 - sums[2] / sums[0]) * 100.0
    );
    em.finish();
}
