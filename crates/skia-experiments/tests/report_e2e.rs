//! End-to-end manifest pipeline: an experiment binary's `--emit-json`
//! snapshots flow through `skia-report collect` into a manifest whose
//! self-diff is clean, and a doctored throughput collapse is flagged.

use std::path::{Path, PathBuf};
use std::process::Command;

use skia_experiments::report::Manifest;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skia-report-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run fig01 small with telemetry into `path`.
fn emit_snapshot(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(format!("{name}.telemetry.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_fig01"))
        .args(["--bench", "tpcc", "--emit-json"])
        .arg(&path)
        .env("SKIA_STEPS", "2000")
        .env("SKIA_CACHE", dir.join("cache"))
        .output()
        .expect("fig01 runs");
    assert!(
        out.status.success(),
        "fig01 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

fn collect(dir: &Path, out_name: &str, inputs: &[PathBuf]) -> PathBuf {
    let manifest = dir.join(out_name);
    let md = dir.join(format!("{out_name}.md"));
    let chrome = dir.join(format!("{out_name}.trace.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_skia-report"))
        .arg("collect")
        .args(["--out".as_ref(), manifest.as_os_str()])
        .args(["--md".as_ref(), md.as_os_str()])
        .args(["--chrome".as_ref(), chrome.as_os_str()])
        .args(inputs)
        .output()
        .expect("skia-report runs");
    assert!(
        out.status.success(),
        "collect failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(md.exists() && chrome.exists());
    manifest
}

fn diff_status(baseline: &Path, new: &Path, extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_skia-report"))
        .arg("diff")
        .arg(baseline)
        .arg(new)
        .args(extra)
        .output()
        .expect("skia-report runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn collect_then_diff_consecutive_runs_is_clean() {
    let dir = tmp_dir("clean");

    // Two consecutive runs of the same experiment (second is cache-warm).
    let first = emit_snapshot(&dir, "fig01-a");
    let second = emit_snapshot(&dir, "fig01-b");
    // Same logical experiment name in both manifests: rename via copies.
    std::fs::copy(&first, dir.join("fig01.telemetry.json")).unwrap();
    let m1 = collect(&dir, "m1.json", &[dir.join("fig01.telemetry.json")]);
    std::fs::copy(&second, dir.join("fig01.telemetry.json")).unwrap();
    let m2 = collect(&dir, "m2.json", &[dir.join("fig01.telemetry.json")]);

    // The manifest is a faithful, round-trippable document covering the run.
    let manifest = Manifest::from_json_str(&std::fs::read_to_string(&m1).unwrap()).unwrap();
    assert_eq!(manifest.experiments.len(), 1);
    let e = &manifest.experiments[0];
    assert_eq!(e.name, "fig01");
    assert!(e.runs_merged > 0, "snapshots merged");
    assert!(e.steps_total > 0, "steps counted");
    assert!(e.steps_per_sec > 0, "throughput computed");
    assert!(e.wall_ns > 0, "wall time recorded");
    assert!(
        e.phases.iter().any(|p| p.name == "sweep.simulate"),
        "span rollups present: {:?}",
        e.phases
    );
    assert!(
        e.phases.iter().any(|p| p.name.starts_with("sim.job:")),
        "per-job spans present: {:?}",
        e.phases
    );
    assert_eq!(
        Manifest::from_json_str(&manifest.to_json_string()).unwrap(),
        manifest,
        "manifest round-trips"
    );

    // Consecutive runs on the same host: diff exits clean.
    let (ok, stdout) = diff_status(&m1, &m2, &[]);
    assert!(ok, "consecutive-run diff must be clean:\n{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doctored_throughput_collapse_is_flagged() {
    let dir = tmp_dir("doctored");
    let snap = emit_snapshot(&dir, "fig01");
    let m1 = collect(&dir, "base.json", &[snap]);

    // Doctor a 2x steps/sec drop into a copy of the manifest.
    let mut doctored = Manifest::from_json_str(&std::fs::read_to_string(&m1).unwrap()).unwrap();
    doctored.experiments[0].steps_per_sec /= 2;
    let m2 = dir.join("doctored.json");
    std::fs::write(&m2, doctored.to_json_string()).unwrap();

    let (ok, stdout) = diff_status(&m1, &m2, &[]);
    assert!(!ok, "a 2x steps/sec drop must fail the diff:\n{stdout}");
    assert!(stdout.contains("REGRESSION"), "labelled as such:\n{stdout}");

    // --warn-only downgrades the exit code but still prints the finding.
    let (ok, stdout) = diff_status(&m1, &m2, &["--warn-only"]);
    assert!(ok, "--warn-only must exit 0");
    assert!(stdout.contains("REGRESSION"), "finding still printed");

    // A doctored determinism break (different simulated step count) also
    // fails, regardless of throughput.
    let mut broken = Manifest::from_json_str(&std::fs::read_to_string(&m1).unwrap()).unwrap();
    broken.experiments[0].steps_total += 1;
    let m3 = dir.join("broken.json");
    std::fs::write(&m3, broken.to_json_string()).unwrap();
    let (ok, stdout) = diff_status(&m1, &m3, &[]);
    assert!(!ok, "steps_total change must fail the diff:\n{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A path flag with no value, or with the next flag in its place, exits 2
/// with the usage message instead of silently dropping that output.
#[test]
fn collect_rejects_a_flag_without_a_value() {
    let dir = tmp_dir("flags");
    let input = dir.join("fig01.telemetry.json");
    std::fs::write(&input, "{\"counters\":{\"sim.steps_total\":2000}}").unwrap();
    let manifest = dir.join("m.json");
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_skia-report"))
            .current_dir(&dir)
            .arg("collect")
            .args(args)
            .output()
            .expect("skia-report runs")
    };

    let ok = run(&["--out", "m.json", "fig01.telemetry.json"]);
    assert!(ok.status.success(), "a well-formed collect succeeds");
    std::fs::remove_file(&manifest).unwrap();

    for args in [
        &["--out", "m.json", "fig01.telemetry.json", "--chrome"][..],
        &["--out", "--md", "x.md", "fig01.telemetry.json"],
        &[
            "--out",
            "m.json",
            "--chrome",
            "--md",
            "x.md",
            "fig01.telemetry.json",
        ],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("requires a path"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!manifest.exists(), "{args:?} wrote a manifest");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
