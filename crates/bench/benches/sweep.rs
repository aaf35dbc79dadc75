//! Sweep-engine throughput: runs/sec for the same job list on 1 thread vs
//! all cores, plus a micro-benchmark of the allocation-free block-formation
//! path (the per-block `LineSet` that replaced a heap `Vec` in the fetch
//! loop). Small step counts keep the wall time tractable; the relative
//! numbers are what matter. Measured numbers are recorded in
//! `BENCH_sweep.json` at the repo root.
//!
//! The record/replay additions (`walk_vs_replay`, `trace_cache`) quantify the
//! record-once/replay-many pipeline: how much cheaper feeding a simulator
//! from a materialized trace is than running the live walker, and what a
//! warm on-disk trace-cache hit costs versus a cold re-record. Their numbers
//! are recorded in `BENCH_replay.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion};
use skia_bench::{bench_workload, run_sim};
use skia_experiments::{workload, StandingConfig, Sweep};
use skia_frontend::{FrontendConfig, Simulator};
use skia_runner::thread_count;
use skia_workloads::{load_or_record_trace_in, profile, Program, RecordedTrace};

const BENCHES: [&str; 3] = ["tpcc", "voter", "kafka"];
const STEPS: usize = 2_000;

fn sweep_jobs(threads: usize) -> usize {
    let mut sweep = Sweep::new(threads, None).quiet();
    for name in BENCHES {
        for config in [
            StandingConfig::Btb(8192).frontend(),
            StandingConfig::BtbPlusBudget(8192).frontend(),
            StandingConfig::BtbPlusSkia(8192).frontend(),
            StandingConfig::Infinite.frontend(),
        ] {
            sweep.add(name, config, STEPS);
        }
    }
    sweep.run_collect().len()
}

fn sweep_throughput(c: &mut Criterion) {
    // Warm the in-process workload memo so the benchmark measures sweep
    // execution, not first-touch program generation.
    for name in BENCHES {
        let _ = workload(name, None);
    }
    c.bench_function("sweep_12_jobs_1_thread", |b| b.iter(|| sweep_jobs(1)));
    let n = thread_count(None);
    c.bench_function("sweep_12_jobs_all_threads", |b| b.iter(|| sweep_jobs(n)));
}

fn block_formation(c: &mut Criterion) {
    // Short simulation dominated by fetch/block formation; exercises the
    // inline LineSet on every predicted block.
    let (program, seed, trip) = bench_workload();
    c.bench_function("block_formation_2k_steps", |b| {
        b.iter(|| {
            run_sim(
                &program,
                seed,
                trip,
                FrontendConfig::alder_lake_like(),
                STEPS,
            )
            .cycles
        })
    });
}

fn walk_vs_replay(c: &mut Criterion) {
    // Same simulation twice: once fed by the live walker (RNG, stack, trip
    // bookkeeping per step) and once by replaying a materialized trace
    // (pure column reads). The gap is what every sweep job after the first
    // saves per workload.
    let (program, seed, trip) = bench_workload();
    let trace = RecordedTrace::record(&program, seed, trip, STEPS);
    c.bench_function("walk_2k_steps", |b| {
        b.iter(|| {
            run_sim(
                &program,
                seed,
                trip,
                FrontendConfig::alder_lake_like(),
                STEPS,
            )
            .cycles
        })
    });
    c.bench_function("replay_2k_steps", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&program, FrontendConfig::alder_lake_like());
            sim.run(trace.replay().take(STEPS)).cycles
        })
    });
}

fn trace_cache(c: &mut Criterion) {
    // Cold = what a first-ever run pays (record the walk); warm = what every
    // later process pays (deserialize the stored columns). Uses a private
    // cache dir so the benchmark never races the default target/skia-cache.
    let dir = std::env::temp_dir().join(format!("skia-bench-trace-cache-{}", std::process::id()));
    let cache = Some(dir.as_path());
    let p = profile("tpcc").expect("tpcc profile");
    let program = Program::generate(&p.spec);
    let trip = p.spec.mean_trip_count;
    // Populate the cache once so the warm case is a guaranteed disk hit.
    let _ = load_or_record_trace_in(cache, &program, &p.spec, p.trace_seed, trip, STEPS);
    c.bench_function("trace_cache_cold_record_2k", |b| {
        b.iter(|| RecordedTrace::record(&program, p.trace_seed, trip, STEPS).len())
    });
    c.bench_function("trace_cache_warm_hit_2k", |b| {
        b.iter(|| {
            load_or_record_trace_in(cache, &program, &p.spec, p.trace_seed, trip, STEPS)
                .0
                .len()
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = sweep;
    config = Criterion::default().sample_size(20);
    targets = sweep_throughput, block_formation, walk_vs_replay, trace_cache
}
criterion_main!(sweep);
