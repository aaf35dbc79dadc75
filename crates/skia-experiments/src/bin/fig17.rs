//! Figure 17 — SBB sensitivity.
//!
//! Top: geomean speedup for different U-SBB/R-SBB storage splits at a
//! constant 12.25 KB total. Bottom: scaling the total SBB budget at the
//! paper's preferred U:R entry ratio, to find the saturation point.

use skia_core::{SbbConfig, SkiaConfig};
use skia_experiments::{geomean, row, Args, StandingConfig, Sweep};
use skia_frontend::FrontendConfig;

fn main() {
    let args = Args::parse();
    let steps = args.steps;
    let mut em = args.emitter();
    let benches = args.benchmarks();

    // Per SBB configuration: (base, skia) job ids per benchmark, enumerated
    // in the fixed serial order (base then skia, benchmark by benchmark).
    let mut sweep = Sweep::from_args(&args);
    let add_config = |sweep: &mut Sweep, sbb: SbbConfig| -> Vec<(usize, usize)> {
        benches
            .iter()
            .map(|name| {
                let base = sweep.add(name, StandingConfig::Btb(8192).frontend(), steps);
                let cfg = FrontendConfig::alder_lake_like()
                    .with_btb_entries(8192)
                    .with_skia(SkiaConfig {
                        sbb,
                        ..SkiaConfig::default()
                    });
                (base, sweep.add(name, cfg, steps))
            })
            .collect()
    };

    let shares = [0.2, 0.4, 7.3125 / 12.25, 0.8];
    let share_ids: Vec<(SbbConfig, Vec<(usize, usize)>)> = shares
        .iter()
        .map(|&share| {
            let sbb = SbbConfig::with_budget(12.25, share, 4);
            let ids = add_config(&mut sweep, sbb);
            (sbb, ids)
        })
        .collect();
    let factors = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
    let factor_ids: Vec<(SbbConfig, Vec<(usize, usize)>)> = factors
        .iter()
        .map(|&factor| {
            let sbb = SbbConfig::default().scaled(factor);
            let ids = add_config(&mut sweep, sbb);
            (sbb, ids)
        })
        .collect();
    let stats = sweep.run(&mut em);

    let geo_pct = |ids: &[(usize, usize)]| -> f64 {
        (geomean(ids.iter().map(|&(b, s)| stats[s].speedup_over(&stats[b]))) - 1.0) * 100.0
    };

    println!("# Figure 17 (top): U-SBB/R-SBB split at constant 12.25 KB\n");
    row(&[
        "U-SBB share".into(),
        "U entries".into(),
        "R entries".into(),
        "geomean speedup".into(),
    ]);
    row(&vec!["---".to_string(); 4]);
    for (share, (sbb, ids)) in shares.iter().zip(&share_ids) {
        row(&[
            format!("{:.0}%", share * 100.0),
            format!("{}", sbb.u_entries),
            format!("{}", sbb.r_entries),
            format!("{:+.2}%", geo_pct(ids)),
        ]);
    }

    println!("\n# Figure 17 (bottom): total budget at constant U:R entry ratio\n");
    row(&[
        "scale".into(),
        "storage KB".into(),
        "geomean speedup".into(),
    ]);
    row(&vec!["---".to_string(); 3]);
    for (factor, (sbb, ids)) in factors.iter().zip(&factor_ids) {
        row(&[
            format!("{factor}x"),
            format!("{:.2}", sbb.storage_kb()),
            format!("{:+.2}%", geo_pct(ids)),
        ]);
    }
    em.finish();
}
