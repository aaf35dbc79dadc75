//! Figure 15: per-benchmark stacked breakdown of BTB misses by whether the
//! missing branch's cache line was L1-I-resident at prediction time
//! (8K-entry BTB).

use skia_experiments::{f2, row, Args, StandingConfig, Sweep};

fn main() {
    let args = Args::parse();
    let steps = args.steps;
    let mut em = args.emitter();
    let benches = args.benchmarks();

    let mut sweep = Sweep::from_args(&args);
    let ids: Vec<usize> = benches
        .iter()
        .map(|name| sweep.add(name, StandingConfig::Btb(8192).frontend(), steps))
        .collect();
    let stats = sweep.run(&mut em);

    println!("# Figure 15: BTB misses with L1-I-resident lines (8K BTB)\n");
    row(&[
        "benchmark".into(),
        "BTB miss MPKI".into(),
        "resident MPKI".into(),
        "not-resident MPKI".into(),
        "resident %".into(),
    ]);
    row(&vec!["---".to_string(); 5]);

    let mut res_total = 0u64;
    let mut miss_total = 0u64;
    for (name, &id) in benches.iter().zip(&ids) {
        let s = &stats[id];
        res_total += s.btb_miss_l1i_resident;
        miss_total += s.btb_misses;
        row(&[
            name.to_string(),
            f2(s.btb_mpki()),
            f2(s.btb_miss_l1i_resident_mpki()),
            f2(s.btb_mpki() - s.btb_miss_l1i_resident_mpki()),
            format!("{:.1}%", s.btb_miss_l1i_resident_fraction() * 100.0),
        ]);
    }
    println!(
        "\nOverall: {:.1}% of BTB misses had their line already in the L1-I \
         (paper: ~75% at 8K entries)",
        res_total as f64 * 100.0 / miss_total.max(1) as f64
    );
    em.finish();
}
