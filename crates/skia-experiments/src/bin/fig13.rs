//! Figure 13: L1-I MPKI agreement between the "real system" and the
//! simulation.
//!
//! The paper validates its gem5 checkpoints against VTune measurements on a
//! real Alder Lake machine, reporting under-18% total divergence. Neither a
//! real machine nor VTune exists here, so the reproduction validates the
//! same arithmetic on the substitute pair (DESIGN.md §2): a **long-horizon
//! reference run** (standing in for the real machine's long execution) vs.
//! the **windowed measurement run** every other experiment uses (standing
//! in for the checkpointed gem5 window). Divergence between the two shows
//! how representative the measurement window is.

use skia_experiments::{f2, row, Args, StandingConfig, Sweep};

fn main() {
    let args = Args::parse();
    let steps = args.steps;
    let mut em = args.emitter();
    let benches = args.benchmarks();
    let long_steps = steps * 4;

    let mut sweep = Sweep::from_args(&args);
    let ids: Vec<(usize, usize)> = benches
        .iter()
        .map(|name| {
            (
                sweep.add(name, StandingConfig::Btb(8192).frontend(), long_steps),
                sweep.add(name, StandingConfig::Btb(8192).frontend(), steps),
            )
        })
        .collect();
    let stats = sweep.run(&mut em);

    println!("# Figure 13: L1-I MPKI, reference (long-horizon) vs measured (window)\n");
    row(&[
        "benchmark".into(),
        "reference MPKI".into(),
        "measured MPKI".into(),
        "divergence".into(),
    ]);
    row(&vec!["---".to_string(); 4]);

    let mut ref_total = 0.0;
    let mut meas_total = 0.0;
    for (name, &(long_id, short_id)) in benches.iter().zip(&ids) {
        let r = stats[long_id].l1i_mpki();
        let m = stats[short_id].l1i_mpki();
        ref_total += r;
        meas_total += m;
        let div = if r > 0.0 { (m - r).abs() / r } else { 0.0 };
        row(&[
            name.to_string(),
            f2(r),
            f2(m),
            format!("{:.1}%", div * 100.0),
        ]);
    }
    let total_div = (meas_total - ref_total).abs() / ref_total.max(1e-9);
    println!(
        "\nTotal divergence across benchmarks: {:.1}% (paper reports <18%)",
        total_div * 100.0
    );
    em.finish();
}
