//! Simulate-phase throughput and span-layer overhead.
//!
//! `sim_per_step_20k` is the raw number behind the manifest's
//! `sim.steps_per_sec`: one `Simulator::run` over a pre-recorded
//! trace (the sweep simulate-phase hot path — no walker, no
//! RNG, no cache). The span benchmarks bound the
//! observability tax: a disabled span must cost about one atomic load (no
//! allocation, no clock read), an enabled span one clock pair plus a
//! bounded collector push. `BENCH_sim.json` records the measured numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use skia_bench::bench_workload;
use skia_frontend::{FrontendConfig, Simulator};
use skia_telemetry::{drain_spans, set_spans_enabled, span, span_with};
use skia_workloads::RecordedTrace;

const STEPS: usize = 20_000;

fn replay_simulate(c: &mut Criterion) {
    let (program, seed, trip) = bench_workload();
    let trace = RecordedTrace::record(&program, seed, trip, STEPS);

    c.bench_function("sim_per_step_20k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&program, FrontendConfig::alder_lake_with_skia());
            sim.run(trace.replay()).cycles
        })
    });
}

fn span_primitives(c: &mut Criterion) {
    set_spans_enabled(false);
    c.bench_function("span_disabled", |b| {
        b.iter(|| {
            let _g = span("bench.disabled");
        })
    });
    c.bench_function("span_disabled_lazy_name", |b| {
        b.iter(|| {
            // The closure must not run when spans are off.
            let _g = span_with(|| format!("bench.lazy:{}", 42));
        })
    });

    set_spans_enabled(true);
    c.bench_function("span_enabled", |b| {
        b.iter(|| {
            let _g = span("bench.enabled");
        });
        // Keep the bounded collector from saturating mid-measurement (a
        // full collector would make later iterations artificially cheap).
        drop(drain_spans());
    });
    set_spans_enabled(false);
    drop(drain_spans());
}

criterion_group!(benches, replay_simulate, span_primitives);
criterion_main!(benches);
