//! Figure 3: geomean speedup (relative to a 4K-entry BTB) across BTB sizes
//! for four configurations: plain BTB, BTB+12.25KB, BTB+SBB (Skia), and an
//! infinite fully-associative BTB.
//!
//! Paper's shape: Skia beats spending the same 12.25 KB on BTB entries at
//! every size until saturation near the infinite-BTB ceiling.

use skia_experiments::{f2, geomean, row, Args, StandingConfig, Sweep};

fn main() {
    let args = Args::parse();
    let steps = args.steps;
    let mut em = args.emitter();
    let benches = args.benchmarks();
    let sizes = [4096usize, 8192, 16384, 32768];

    let mut sweep = Sweep::from_args(&args);
    // Reference: 4K-entry plain BTB per benchmark.
    let ref_ids: Vec<usize> = benches
        .iter()
        .map(|n| sweep.add(n, StandingConfig::Btb(4096).frontend(), steps))
        .collect();
    let inf_ids: Vec<usize> = benches
        .iter()
        .map(|n| sweep.add(n, StandingConfig::Infinite.frontend(), steps))
        .collect();
    let size_ids: Vec<[Vec<usize>; 3]> = sizes
        .iter()
        .map(|&entries| {
            let btb = benches
                .iter()
                .map(|n| sweep.add(n, StandingConfig::Btb(entries).frontend(), steps))
                .collect();
            let grown = benches
                .iter()
                .map(|n| sweep.add(n, StandingConfig::BtbPlusBudget(entries).frontend(), steps))
                .collect();
            let skia = benches
                .iter()
                .map(|n| sweep.add(n, StandingConfig::BtbPlusSkia(entries).frontend(), steps))
                .collect();
            [btb, grown, skia]
        })
        .collect();
    let stats = sweep.run(&mut em);

    let geo_speedup = |ids: &[usize]| -> f64 {
        geomean(
            ids.iter()
                .zip(&ref_ids)
                .map(|(&c, &r)| stats[c].speedup_over(&stats[r])),
        )
    };
    let inf_speedup = geo_speedup(&inf_ids);

    println!("# Figure 3: geomean speedup over 4K-entry BTB\n");
    row(&[
        "BTB entries".into(),
        "BTB".into(),
        "BTB+12.25KB".into(),
        "BTB+SBB (Skia)".into(),
        "Infinite BTB".into(),
    ]);
    row(&vec!["---".to_string(); 5]);

    for (entries, [btb, grown, skia]) in sizes.iter().zip(&size_ids) {
        row(&[
            format!("{entries}"),
            f2(geo_speedup(btb)),
            f2(geo_speedup(grown)),
            f2(geo_speedup(skia)),
            f2(inf_speedup),
        ]);
    }
    em.finish();
}
