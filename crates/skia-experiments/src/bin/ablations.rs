//! Ablation table: the design choices DESIGN.md calls out, measured at
//! full experiment scale on a representative subset of benchmarks.
//! (The Criterion `ablations` bench measures the same knobs at small scale
//! with timing; this binary prints the metric table.)

use skia_core::{IndexPolicy, SbbConfig, SkiaConfig};
use skia_experiments::{geomean, row, Args, StandingConfig, Sweep};
use skia_frontend::FrontendConfig;

const BENCHES: [&str; 5] = ["tpcc", "voter", "kafka", "dotty", "ycsb"];

fn main() {
    let args = Args::parse();
    let steps = args.steps;
    let mut em = args.emitter();
    let benches = args.filter_names(&BENCHES);

    // Enumerate every configuration row up front: (label, skia config).
    let mut configs: Vec<(String, SkiaConfig)> = vec![(
        "default (merge, ≤6 families, retired-LRU)".to_string(),
        SkiaConfig::default(),
    )];
    for policy in IndexPolicy::ALL {
        configs.push((
            format!("index policy = {}", policy.label()),
            SkiaConfig {
                index_policy: policy,
                ..SkiaConfig::default()
            },
        ));
    }
    for bound in [1usize, 2, 8] {
        configs.push((
            format!("max valid families = {bound}"),
            SkiaConfig {
                max_valid_paths: bound,
                ..SkiaConfig::default()
            },
        ));
    }
    configs.push((
        "plain LRU (no retired bit)".to_string(),
        SkiaConfig {
            retired_bit_replacement: false,
            ..SkiaConfig::default()
        },
    ));
    configs.push((
        "filter BTB-resident inserts".to_string(),
        SkiaConfig {
            filter_btb_resident: true,
            ..SkiaConfig::default()
        },
    ));
    configs.push((
        "all-U split (~12.25KB)".to_string(),
        SkiaConfig {
            sbb: SbbConfig::with_budget(12.25, 0.97, 4),
            ..SkiaConfig::default()
        },
    ));
    configs.push((
        "all-R split (~12.25KB)".to_string(),
        SkiaConfig {
            sbb: SbbConfig::with_budget(12.25, 0.03, 4),
            ..SkiaConfig::default()
        },
    ));

    // Per configuration: (base, skia) ids per benchmark in serial order.
    let mut sweep = Sweep::from_args(&args);
    let config_ids: Vec<Vec<(usize, usize)>> = configs
        .iter()
        .map(|(_, skia)| {
            benches
                .iter()
                .map(|name| {
                    let base = sweep.add(name, StandingConfig::Btb(8192).frontend(), steps);
                    let cfg = FrontendConfig::alder_lake_like()
                        .with_btb_entries(8192)
                        .with_skia(*skia);
                    (base, sweep.add(name, cfg, steps))
                })
                .collect()
        })
        .collect();
    let stats = sweep.run(&mut em);

    println!("# Ablations (geomean over {benches:?})\n");
    row(&[
        "configuration".into(),
        "speedup".into(),
        "rescues/KI".into(),
        "bogus-uses/KI".into(),
    ]);
    row(&vec!["---".to_string(); 4]);

    for ((label, _), ids) in configs.iter().zip(&config_ids) {
        let mut speedups = Vec::new();
        let mut rescues = 0u64;
        let mut bogus = 0u64;
        let mut insns = 0u64;
        for &(base_id, skia_id) in ids {
            let s = &stats[skia_id];
            speedups.push(s.speedup_over(&stats[base_id]));
            rescues += s.sbb_rescues;
            insns += s.instructions;
            if let Some(sk) = &s.skia {
                bogus += sk.bogus_uses;
            }
        }
        row(&[
            label.clone(),
            format!("{:+.2}%", (geomean(speedups) - 1.0) * 100.0),
            format!("{:.2}", rescues as f64 * 1000.0 / insns as f64),
            format!("{:.3}", bogus as f64 * 1000.0 / insns as f64),
        ]);
    }
    em.finish();
}
