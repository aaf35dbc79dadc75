//! Span profiling must be observationally free: the paper tables an
//! experiment binary prints to stdout are byte-identical whether spans are
//! enabled or disabled, serially or on a thread pool. Spans write only to
//! the in-process collector (drained into `--emit-json` files), never to
//! stdout. The same knobs, malformed, stop the binary at its edge.

use std::process::{Command, Output};

/// Run the fig01 binary with the given span and thread knobs.
fn fig01(spans: &str, threads: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig01"))
        .args(["--bench", "tpcc"])
        .env("SKIA_STEPS", "2000")
        .env("SKIA_SPANS", spans)
        .env("SKIA_THREADS", threads)
        // Isolate from any ambient cache so every variant does identical
        // work (first variant records, later ones disk-hit — outcome
        // differences only touch stderr/telemetry, but keep it hermetic).
        .env("SKIA_CACHE", "0")
        .output()
        .expect("fig01 runs")
}

/// fig01's stdout bytes under the given knobs, which must be valid.
fn fig01_stdout(spans: &str, threads: &str) -> Vec<u8> {
    let out = fig01(spans, threads);
    assert!(
        out.status.success(),
        "fig01 failed (SKIA_SPANS={spans}, SKIA_THREADS={threads}): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "fig01 prints its table");
    out.stdout
}

#[test]
fn stdout_is_byte_identical_with_spans_on_or_off() {
    let base = fig01_stdout("0", "1");
    for (spans, threads) in [("1", "1"), ("0", "4"), ("1", "4")] {
        let variant = fig01_stdout(spans, threads);
        assert_eq!(
            base, variant,
            "stdout diverged with SKIA_SPANS={spans}, SKIA_THREADS={threads}"
        );
    }
    // A malformed value exits 2 naming its knob, before any table.
    for (spans, threads, knob) in [("1", "two", "SKIA_THREADS"), ("maybe", "1", "SKIA_SPANS")] {
        let out = fig01(spans, threads);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{knob}: {stderr}");
        assert!(stderr.contains(knob), "stderr must name {knob}: {stderr}");
        assert!(out.stdout.is_empty(), "{knob}: no table on stdout");
    }
}
