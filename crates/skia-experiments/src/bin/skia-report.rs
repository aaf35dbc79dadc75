//! Aggregate the experiment suite's telemetry snapshots into a run
//! manifest, and diff manifests across runs.
//!
//! ```text
//! skia-report collect --out manifest.json [--md manifest.md] \
//!     [--chrome trace.json] results/*.telemetry.json
//! skia-report diff baseline.json new.json [--threshold 0.4] [--warn-only]
//! ```
//!
//! `collect` reads each `--emit-json` snapshot (the experiment name is the
//! file stem, minus a `.telemetry` suffix when present), writes the JSON
//! manifest to `--out`, and optionally a Markdown rendering and a merged
//! Chrome trace of every experiment's profiling spans. `diff` compares two
//! manifests: exit 0 when clean, 1 on regressions (0 with `--warn-only`),
//! 2 on usage errors.

use std::path::Path;
use std::process::ExitCode;

use skia_experiments::report::{chrome_trace, diff, Manifest, Severity, DEFAULT_THRESHOLD};
use skia_telemetry::Snapshot;

fn usage() -> ExitCode {
    eprintln!(
        "usage: skia-report collect --out <manifest.json> [--md <path>] [--chrome <path>] \
         <telemetry.json>...\n       skia-report diff <baseline.json> <new.json> \
         [--threshold <frac>] [--warn-only]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("collect") => collect(&argv[1..]),
        Some("diff") => run_diff(&argv[1..]),
        _ => usage(),
    }
}

/// The experiment name of a snapshot path: file stem minus `.telemetry`.
fn experiment_name(path: &Path) -> String {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    stem.strip_suffix(".telemetry").unwrap_or(&stem).to_string()
}

fn collect(argv: &[String]) -> ExitCode {
    let mut out = None;
    let mut md = None;
    let mut chrome = None;
    let mut inputs = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let slot = match a.as_str() {
            "--out" => &mut out,
            "--md" => &mut md,
            "--chrome" => &mut chrome,
            _ if a.starts_with('-') => {
                eprintln!("error: unknown flag {a}");
                return usage();
            }
            _ => {
                inputs.push(a.clone());
                continue;
            }
        };
        // A path flag needs its value: a missing one, or the next flag in
        // its place, is a usage error rather than a silently dropped output.
        match it.next() {
            Some(v) if !v.starts_with("--") => *slot = Some(v.clone()),
            _ => {
                eprintln!("error: {a} requires a path");
                return usage();
            }
        }
    }
    let Some(out) = out else {
        eprintln!("error: collect requires --out");
        return usage();
    };
    if inputs.is_empty() {
        eprintln!("error: collect requires at least one telemetry snapshot");
        return usage();
    }

    let mut snaps = Vec::with_capacity(inputs.len());
    for input in &inputs {
        let path = Path::new(input);
        let body = match std::fs::read_to_string(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: reading {input}: {e}");
                return ExitCode::from(2);
            }
        };
        let snap = match Snapshot::from_json_str(&body) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: parsing {input}: {e}");
                return ExitCode::from(2);
            }
        };
        snaps.push((experiment_name(path), snap));
    }

    let manifest = Manifest::from_snapshots(&snaps);
    if let Err(e) = write_file(&out, &manifest.to_json_string()) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    if let Some(md) = md {
        if let Err(e) = write_file(&md, &manifest.to_markdown()) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(chrome_path) = chrome {
        if let Err(e) = write_file(&chrome_path, &chrome_trace(&snaps)) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    eprintln!(
        "manifest: {} experiment(s), {:.2}s total wall, {} steps -> {out}",
        manifest.experiments.len(),
        manifest.total_wall_ns() as f64 / 1e9,
        manifest.total_steps(),
    );
    ExitCode::SUCCESS
}

fn write_file(path: &str, body: &str) -> Result<(), String> {
    if let Some(dir) = Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))
}

fn run_diff(argv: &[String]) -> ExitCode {
    let mut threshold = DEFAULT_THRESHOLD;
    let mut warn_only = false;
    let mut paths = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if (0.0..1.0).contains(&t) => threshold = t,
                _ => {
                    eprintln!("error: --threshold requires a fraction in [0, 1)");
                    return usage();
                }
            },
            "--warn-only" => warn_only = true,
            _ if a.starts_with('-') => {
                eprintln!("error: unknown flag {a}");
                return usage();
            }
            _ => paths.push(a.clone()),
        }
    }
    let [baseline_path, new_path] = paths.as_slice() else {
        eprintln!("error: diff requires exactly two manifest paths");
        return usage();
    };
    let load = |p: &String| -> Result<Manifest, String> {
        let body = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        Manifest::from_json_str(&body).map_err(|e| format!("parsing {p}: {e}"))
    };
    let (baseline, new) = match (load(baseline_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let findings = diff(&baseline, &new, threshold);
    let regressions = findings
        .iter()
        .filter(|f| f.severity == Severity::Regression)
        .count();
    for f in &findings {
        let tag = match f.severity {
            Severity::Regression => "REGRESSION",
            Severity::Info => "info",
        };
        println!("{tag}: {}: {}", f.experiment, f.detail);
    }
    println!(
        "diff: {} experiment(s) compared, {} finding(s), {} regression(s)",
        baseline.experiments.len(),
        findings.len(),
        regressions,
    );
    if regressions > 0 && !warn_only {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
