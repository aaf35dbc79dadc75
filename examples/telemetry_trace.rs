//! Telemetry walkthrough: run an instrumented simulation, inspect its
//! telemetry snapshot, and export the sampled event trace as Chrome
//! `trace_event` JSON (loadable in `chrome://tracing` / Perfetto) and JSONL.
//!
//! ```text
//! cargo run --release --example telemetry_trace [out_dir]
//! ```

use skia::prelude::*;
use skia::telemetry::trace::{to_chrome_trace, to_jsonl};

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results".to_string());

    let p = profile("tpcc").expect("tpcc profile");
    let mut spec = p.spec.clone();
    spec.functions = 1500;
    let program = Program::generate(&spec);
    let trace = Walker::new(&program, p.trace_seed, spec.mean_trip_count).take(50_000);

    // Counters and histograms are always on; the event trace is opt-in.
    let (stats, snapshot) = skia::frontend::run_instrumented(
        &program,
        FrontendConfig::alder_lake_with_skia(),
        Some(TraceConfig::sampled(16, 32 * 1024)),
        trace,
    );

    println!("instructions: {}", stats.instructions);
    println!("IPC:          {:.3}", stats.ipc());
    println!(
        "BTB misses:   {} (snapshot agrees: {})",
        stats.btb_misses,
        snapshot.counter("btb.misses") == Some(stats.btb_misses)
    );
    for name in [
        "ftq.occupancy",
        "resteer.repair_latency",
        "shadow_decode.batch_size",
        "sbb.entry_lifetime",
    ] {
        let h = snapshot.histogram(name).expect("standing histogram");
        println!(
            "hist {name:<26} n={:<8} mean={:.2} max={}",
            h.count,
            h.mean(),
            h.max
        );
    }
    println!(
        "events: {} sampled of {} seen",
        snapshot.events.len(),
        snapshot.events_seen
    );

    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let snap_path = format!("{out_dir}/telemetry_trace.snapshot.json");
    let chrome_path = format!("{out_dir}/telemetry_trace.chrome.json");
    let jsonl_path = format!("{out_dir}/telemetry_trace.events.jsonl");
    std::fs::write(&snap_path, snapshot.to_json_string()).expect("write snapshot");
    std::fs::write(&chrome_path, to_chrome_trace(&snapshot.events)).expect("write chrome trace");
    std::fs::write(&jsonl_path, to_jsonl(&snapshot.events)).expect("write jsonl");
    println!("wrote {snap_path}, {chrome_path}, {jsonl_path}");
}
