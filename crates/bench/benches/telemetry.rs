//! Telemetry overhead benchmarks.
//!
//! The simulator counts into a plain `SimStats` and builds a `Snapshot`
//! only when one is taken, so the per-step telemetry cost is the event
//! trace: the comparison is the simulator as-is (counters only, tracing
//! off) against the simulator with the sampled event trace enabled, plus
//! microbenchmarks of the primitives themselves (histogram record, sampled
//! event record) and of taking, serializing and reading back one snapshot.

use criterion::{criterion_group, criterion_main, Criterion};
use skia_bench::{bench_workload, run_sim};
use skia_frontend::{FrontendConfig, Simulator};
use skia_telemetry::{EventKind, EventTrace, LocalHistogram, Snapshot, TraceConfig};
use skia_workloads::Walker;

const STEPS: usize = 20_000;

fn sim_telemetry_off_vs_on(c: &mut Criterion) {
    let (program, seed, trip) = bench_workload();

    c.bench_function("sim_counters_only", |b| {
        b.iter(|| {
            run_sim(
                &program,
                seed,
                trip,
                FrontendConfig::alder_lake_with_skia(),
                STEPS,
            )
            .cycles
        })
    });

    c.bench_function("sim_with_event_trace", |b| {
        b.iter(|| {
            let trace = Walker::new(&program, seed, trip).take(STEPS);
            let mut sim = Simulator::new(&program, FrontendConfig::alder_lake_with_skia());
            sim.enable_trace(TraceConfig::sampled(64, 16 * 1024));
            sim.run(trace).cycles
        })
    });

    c.bench_function("sim_with_full_trace", |b| {
        b.iter(|| {
            let trace = Walker::new(&program, seed, trip).take(STEPS);
            let mut sim = Simulator::new(&program, FrontendConfig::alder_lake_with_skia());
            sim.enable_trace(TraceConfig::default());
            sim.run(trace).cycles
        })
    });
}

fn primitives(c: &mut Criterion) {
    c.bench_function("histogram_record", |b| {
        let mut hist = LocalHistogram::new();
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(0x9E37_79B9);
            hist.record(v & 0xFFFF);
            v
        })
    });

    let trace = EventTrace::new(TraceConfig::sampled(64, 4096));
    c.bench_function("event_record_sampled_1_in_64", |b| {
        let mut cy = 0u64;
        b.iter(|| {
            cy += 1;
            trace.record(cy, EventKind::BtbMiss, 0x40_0000 + cy, 0);
            cy
        })
    });

    // One `--emit-json` run snapshot: Skia on, sampled trace, as the
    // experiment binaries take it.
    let (program, seed, trip) = bench_workload();
    let mut sim = Simulator::new(&program, FrontendConfig::alder_lake_with_skia());
    sim.enable_trace(TraceConfig::sampled(64, 16 * 1024));
    sim.run(Walker::new(&program, seed, trip).take(STEPS));
    c.bench_function("snapshot_to_json", |b| {
        b.iter(|| sim.snapshot().to_json_string().len())
    });
    let json = sim.snapshot().to_json_string();
    c.bench_function("snapshot_from_json", |b| {
        b.iter(|| Snapshot::from_json_str(&json).map(|s| s.events.len()))
    });
}

criterion_group!(benches, sim_telemetry_off_vs_on, primitives);
criterion_main!(benches);
