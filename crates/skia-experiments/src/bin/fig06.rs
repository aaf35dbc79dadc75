//! Figure 6: BTB misses by branch type for the 8K-entry (78 KB) BTB, per
//! benchmark.
//!
//! Paper's shape: indirect branches are a vanishing fraction everywhere;
//! OLTP workloads (voter, sibench) are call/return heavy; kafka is
//! conditional-heavy.

use skia_experiments::{row, Args, StandingConfig, Sweep};
use skia_isa::BranchKind;

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

    println!("# Figure 6: BTB misses by type (8K-entry BTB), % of each benchmark's misses\n");
    let mut header = vec!["benchmark".to_string(), "MPKI".to_string()];
    header.extend(BranchKind::ALL.iter().map(|k| k.label().to_string()));
    row(&header);
    row(&vec!["---".to_string(); header.len()]);

    for (name, &id) in benches.iter().zip(&ids) {
        let s = &stats[id];
        let total = s.btb_misses.max(1) as f64;
        let mut cells = vec![name.to_string(), format!("{:.2}", s.btb_mpki())];
        for kind in BranchKind::ALL {
            cells.push(format!(
                "{:.1}%",
                s.btb_misses_of(kind) as f64 * 100.0 / total
            ));
        }
        row(&cells);
    }
    em.finish();
}
