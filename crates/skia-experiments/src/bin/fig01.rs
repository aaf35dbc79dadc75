//! Figure 1: average BTB miss MPKI across the 16 workloads, and the portion
//! of those misses whose cache line is already L1-I-resident, for BTB sizes
//! 1K–16K entries.
//!
//! Paper's headline observation: at 8K entries ~75% of BTB misses are
//! resident in the L1-I.

use skia_experiments::{f2, pct, row, Args, StandingConfig, Sweep};

fn main() {
    let args = Args::parse();
    let steps = args.steps;
    let mut em = args.emitter();
    let benches = args.benchmarks();
    let sizes = [1024usize, 2048, 4096, 8192, 16384];

    let mut sweep = Sweep::from_args(&args);
    let ids: Vec<Vec<usize>> = sizes
        .iter()
        .map(|&entries| {
            benches
                .iter()
                .map(|name| sweep.add(name, StandingConfig::Btb(entries).frontend(), steps))
                .collect()
        })
        .collect();
    let stats = sweep.run(&mut em);

    println!("# Figure 1: BTB MPKI and L1-I-resident fraction vs BTB size\n");
    row(&[
        "BTB entries".into(),
        "BTB MPKI (avg)".into(),
        "L1-I-resident MPKI (avg)".into(),
        "resident fraction".into(),
    ]);
    row(&["---".into(), "---".into(), "---".into(), "---".into()]);

    for (si, entries) in sizes.iter().enumerate() {
        let mut mpki_sum = 0.0;
        let mut res_sum = 0.0;
        for &id in &ids[si] {
            mpki_sum += stats[id].btb_mpki();
            res_sum += stats[id].btb_miss_l1i_resident_mpki();
        }
        let n = benches.len().max(1) as f64;
        let mpki = mpki_sum / n;
        let res = res_sum / n;
        row(&[
            format!("{entries}"),
            f2(mpki),
            f2(res),
            pct(if mpki > 0.0 { res / mpki } else { 0.0 }),
        ]);
    }
    em.finish();
}
