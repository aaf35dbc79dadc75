//! Figure 18: reduction in decoder idle cycles with Skia, per benchmark
//! (8K-entry BTB).
//!
//! Paper's shape: voter and sibench show the largest reductions thanks to
//! their high direct-call/return frequency (§6.3).

use skia_experiments::{row, Args, StandingConfig, Sweep};

fn main() {
    let args = Args::parse();
    let steps = args.steps;
    let mut em = args.emitter();
    let benches = args.benchmarks();

    let mut sweep = Sweep::from_args(&args);
    let ids: Vec<(usize, usize)> = benches
        .iter()
        .map(|name| {
            (
                sweep.add(name, StandingConfig::Btb(8192).frontend(), steps),
                sweep.add(name, StandingConfig::BtbPlusSkia(8192).frontend(), steps),
            )
        })
        .collect();
    let stats = sweep.run(&mut em);

    println!("# Figure 18: decoder idle-cycle reduction with Skia (8K BTB)\n");
    row(&[
        "benchmark".into(),
        "idle/KI baseline".into(),
        "idle/KI Skia".into(),
        "reduction".into(),
    ]);
    row(&vec!["---".to_string(); 4]);

    for (name, &(base_id, skia_id)) in benches.iter().zip(&ids) {
        let base = &stats[base_id];
        let skia = &stats[skia_id];
        let b = base.decoder_idle_cycles() as f64 * 1000.0 / base.instructions as f64;
        let s = skia.decoder_idle_cycles() as f64 * 1000.0 / skia.instructions as f64;
        row(&[
            name.to_string(),
            format!("{b:.1}"),
            format!("{s:.1}"),
            format!("{:+.2}%", (1.0 - s / b.max(1e-9)) * 100.0),
        ]);
    }
    em.finish();
}
