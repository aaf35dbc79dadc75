//! Diagnostic: where do rescuable BTB misses live relative to shadow-decode
//! coverage? Walks the trace once with an oracle view to classify every
//! rescuable missing branch by its *static* position: inside the same cache
//! line as a hotter block's exit (tail-coverable), directly before a hotter
//! entry point (head-coverable), or interior (uncoverable by design).
//!
//! Development tool, not a paper figure.

use std::collections::HashMap;

use skia_experiments::{workload, Args, StandingConfig, Sweep};
use skia_workloads::Walker;

fn main() {
    let args = Args::parse();
    let name = args.bench.as_deref().unwrap_or("tpcc");
    let steps = args.steps;
    let mut em = args.emitter();
    let w = workload(name, args.cache.as_deref());
    let program = &w.program;

    // Pass 1: execution frequency of every block (oracle trace walk).
    let mut exec_count: HashMap<u64, u64> = HashMap::new();
    let mut taken_exits: HashMap<u64, u64> = HashMap::new(); // branch end pc -> count
    let mut entries: HashMap<u64, u64> = HashMap::new(); // block entered by taken branch
    let walker = Walker::new(
        program,
        w.profile.trace_seed,
        w.profile.spec.mean_trip_count,
    );
    for step in walker.take(steps) {
        *exec_count.entry(step.block_start).or_default() += 1;
        if step.taken {
            *taken_exits
                .entry(step.branch_pc + u64::from(step.branch_len))
                .or_default() += 1;
            *entries.entry(step.next_pc).or_default() += 1;
        }
    }

    // Pass 2: simulate the 8K-entry BTB with Skia for the dynamic
    // rescuable-miss and rescue rates.
    let mut sweep = Sweep::from_args(&args);
    sweep.add(name, StandingConfig::BtbPlusSkia(8192).frontend(), steps);
    let stats = sweep.run(&mut em).remove(0);

    // Index hot exits/entries by cache line for O(1) classification.
    let hot_n = 8;
    let mut hot_exits_by_line: HashMap<u64, Vec<u64>> = HashMap::new();
    for (&exit, &n) in &taken_exits {
        if n >= hot_n {
            hot_exits_by_line.entry(exit & !63).or_default().push(exit);
        }
    }
    let mut hot_entries_by_line: HashMap<u64, Vec<u64>> = HashMap::new();
    for (&entry, &n) in &entries {
        if n >= hot_n {
            hot_entries_by_line
                .entry(entry & !63)
                .or_default()
                .push(entry);
        }
    }

    // Static classification of every rescuable-kind branch in the program.
    let mut tail_coverable = 0usize;
    let mut head_coverable = 0usize;
    let mut interior = 0usize;
    let mut total = 0usize;
    for f in program.functions() {
        for b in &f.blocks {
            let t = &b.terminator;
            if !t.kind.sbb_eligible() {
                continue;
            }
            total += 1;
            let line = t.pc & !63;
            // Tail-coverable: some frequently-taken exit lands in this line
            // at or before the branch.
            let tail = hot_exits_by_line
                .get(&line)
                .is_some_and(|v| v.iter().any(|&exit| exit <= t.pc));
            // Head-coverable: some frequently-entered entry point in this
            // line strictly after the branch end.
            let head = hot_entries_by_line
                .get(&line)
                .is_some_and(|v| v.iter().any(|&e| e >= t.pc + u64::from(t.len)));
            if tail {
                tail_coverable += 1;
            } else if head {
                head_coverable += 1;
            } else {
                interior += 1;
            }
        }
    }

    println!("workload {name}: {} static SBB-eligible branches", total);
    println!(
        "  statically tail-coverable by hot exits:  {} ({:.1}%)",
        tail_coverable,
        tail_coverable as f64 * 100.0 / total as f64
    );
    println!(
        "  statically head-coverable by hot entries:{} ({:.1}%)",
        head_coverable,
        head_coverable as f64 * 100.0 / total as f64
    );
    println!(
        "  interior (uncoverable):                  {} ({:.1}%)",
        interior,
        interior as f64 * 100.0 / total as f64
    );
    println!(
        "dynamic: rescuable misses/KI {:.2}, seen-before/KI {:.2}, rescues/KI {:.2}",
        stats.btb_miss_rescuable as f64 * 1000.0 / stats.instructions as f64,
        stats.rescuable_seen_before as f64 * 1000.0 / stats.instructions as f64,
        stats.sbb_rescues as f64 * 1000.0 / stats.instructions as f64,
    );
    em.finish();
}
