//! Diagnostic: trace-concentration statistics for one workload (development
//! tool; not a paper figure). Usage: `trace_probe [--bench <benchmark>]`
//! (default sibench).
use skia_experiments::{Args, Workload};
use skia_workloads::Walker;
use std::collections::HashMap;

fn main() {
    let args = Args::parse();
    let mut em = args.emitter();
    let name = args.bench.as_deref().unwrap_or("sibench");
    let steps = args.steps;
    let w = Workload::by_name(name, args.cache.as_deref());
    let mut blocks: HashMap<u64, u64> = HashMap::new();
    let mut fns: HashMap<u32, u64> = HashMap::new();
    let mut insns = 0u64;
    let mut kinds = [0u64; 6];
    for s in Walker::new(
        &w.program,
        w.profile.trace_seed,
        w.profile.spec.mean_trip_count,
    )
    .take(steps)
    {
        *blocks.entry(s.block_start).or_default() += 1;
        if let Some(rec) = w.program.branch_at(s.branch_pc) {
            *fns.entry(rec.function).or_default() += 1;
        }
        insns += u64::from(s.insns);
        kinds[s.kind.index()] += 1;
    }
    let mut counts: Vec<u64> = blocks.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = counts.iter().sum();
    let top100: u64 = counts.iter().take(100).sum();
    println!(
        "{name}: {} steps, {} insns, {} distinct blocks ({} static), {} distinct fns ({} static)",
        steps,
        insns,
        blocks.len(),
        w.program.branch_count(),
        fns.len(),
        w.program.functions().len()
    );
    println!(
        "top-100 blocks cover {:.1}% of steps",
        top100 as f64 * 100.0 / total as f64
    );
    println!("kind mix: {:?} (cond,uncond,call,ret,ijmp,icall)", kinds);
    em.finish();
}
