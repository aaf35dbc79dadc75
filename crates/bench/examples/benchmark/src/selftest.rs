//! `selftest`: the benchmark checks itself at 2,000 steps per job.
//!
//! * every metric name is made of `[A-Za-z0-9_.-]` and used once, and the
//!   names, units, directions and bounds agree with `BENCHMARK.json`;
//! * the same seed repeats `stats_digest` and seed 1 changes it;
//! * a planted wrong expected digest fails the run and exits non-zero;
//! * `core.*` counts are 0 on btb-sweep, whose configurations run no Skia;
//! * every workload runs clean and prints every metric it owes.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use skia_telemetry::json::JsonValue;

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::workload::NAMES;

const STEPS: &str = "2000";

/// The repository's benchmark description, when the benchmark is built
/// inside the repository.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../BENCHMARK.json");

struct Outcome {
    success: bool,
    digest: String,
    result: JsonValue,
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[String]) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let trace = if trace { "1" } else { "0" };
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", trace, "--steps", STEPS])
        .args(extra)
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let context = || {
        format!(
            "{workload} seed {seed} trace {trace}\n--- stdout\n{stdout}--- stderr\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    };
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("stats_digest "))
        .ok_or_else(|| format!("no stats_digest line: {}", context()))?
        .to_string();
    let last = stdout.lines().last().unwrap_or_default();
    let result = JsonValue::parse(last).map_err(|e| format!("result line: {e}: {}", context()))?;
    Ok(Outcome {
        success: out.status.success(),
        digest,
        result,
    })
}

fn metric(o: &Outcome, name: &str) -> Option<f64> {
    o.result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn metric_names(o: &Outcome) -> BTreeSet<String> {
    o.result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .map(|m| m.keys().cloned().collect())
        .unwrap_or_default()
}

fn names(defs: &[Metric]) -> BTreeSet<String> {
    defs.iter().map(|m| m.name.to_string()).collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Compare the metric tables with `BENCHMARK.json`.
fn benchmark_json(check: &mut impl FnMut(bool, String)) {
    let Ok(text) = std::fs::read_to_string(BENCHMARK_JSON) else {
        println!("skip: no BENCHMARK.json beside the benchmark");
        return;
    };
    let doc = match JsonValue::parse(&text) {
        Ok(doc) => doc,
        Err(e) => return check(false, format!("BENCHMARK.json does not parse: {e}")),
    };
    let listed = |key: &str, field: &str| -> Vec<String> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| match m.get(field) {
                Some(JsonValue::Number(n)) => format!("{n}"),
                Some(v) => v.as_str().unwrap_or_default().to_string(),
                None => String::new(),
            })
            .collect()
    };
    let workloads: Vec<String> = NAMES.iter().map(|s| s.to_string()).collect();
    check(
        listed("workloads", "name") == workloads,
        "BENCHMARK.json lists the four workloads".into(),
    );
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let want = |f: fn(&Metric) -> String| defs.iter().map(f).collect::<Vec<_>>();
        check(
            listed(key, "name") == want(|m| m.name.into()),
            format!("BENCHMARK.json {key} names"),
        );
        check(
            listed(key, "unit") == want(|m| m.unit.into()),
            format!("BENCHMARK.json {key} units"),
        );
        check(
            listed(key, "better") == want(|m| m.better.label().into()),
            format!("BENCHMARK.json {key} directions"),
        );
    }
    check(
        listed("end_to_end", "bound")
            == END_TO_END
                .iter()
                .map(|m| format!("{}", m.bound))
                .collect::<Vec<_>>(),
        "BENCHMARK.json end_to_end bounds".into(),
    );
}

pub fn main() -> Result<ExitCode, String> {
    let mut failures = 0;
    let mut check = |ok: bool, what: String| {
        println!("{} {what}", if ok { "ok:  " } else { "FAIL:" });
        failures += usize::from(!ok);
    };

    let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
    let bad: Vec<&str> = all
        .iter()
        .map(|m| m.name)
        .filter(|n| !valid_name(n))
        .collect();
    check(
        bad.is_empty(),
        format!("metric names match [A-Za-z0-9_.-]+ {bad:?}"),
    );
    let distinct: BTreeSet<&str> = all.iter().map(|m| m.name).collect();
    check(
        distinct.len() == all.len(),
        "metric names are unique".into(),
    );
    benchmark_json(&mut check);

    let a = run("skia-sweep", 0, false, &[])?;
    let b = run("skia-sweep", 0, false, &[])?;
    let c = run("skia-sweep", 1, false, &[])?;
    check(
        a.success && b.success && c.success,
        "skia-sweep runs succeed".into(),
    );
    check(
        a.digest == b.digest,
        format!("seed 0 repeats stats_digest {}", a.digest),
    );
    check(
        a.digest != c.digest,
        format!("seed 1 changes stats_digest ({})", c.digest),
    );
    check(
        metric_names(&a) == names(&END_TO_END),
        "a run prints every end-to-end metric".into(),
    );

    let dir = crate::state_root()?.join("selftest");
    let planted: PathBuf = dir.join("planted-expected.json");
    let body = format!("{{\"seed-0\": {{\"voter/btb-8k/{STEPS}\": \"0123456789abcdef\"}}}}\n");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&planted, body))
        .map_err(|e| format!("{}: {e}", planted.display()))?;
    let p = run(
        "skia-sweep",
        0,
        false,
        &["--expected".into(), planted.display().to_string()],
    );
    let _ = std::fs::remove_file(&planted);
    let p = p?;
    let failed = p
        .result
        .get("failed")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let correct = p.result.get("correct") == Some(&JsonValue::Bool(true));
    check(
        !p.success && failed > 0 && !correct,
        format!(
            "a planted wrong digest fails the run (failed = {failed}, exit ok = {})",
            p.success
        ),
    );

    for workload in ["cold-cache", "emit-sweep"] {
        let o = run(workload, 0, false, &[])?;
        check(o.success, format!("{workload} runs clean"));
    }
    for workload in NAMES {
        let t = run(workload, 0, true, &[])?;
        check(t.success, format!("{workload} traced run succeeds"));
        check(
            metric_names(&t) == names(&PER_LAYER),
            format!("{workload} traced run prints every per-layer metric"),
        );
        if workload == "btb-sweep" {
            for name in [
                "core.head_regions_per_step",
                "core.tail_regions_per_step",
                "core.sbb_lookups_per_step",
                "core.sbb_inserts_per_step",
            ] {
                check(
                    metric(&t, name) == Some(0.0),
                    format!("btb-sweep {name} is 0"),
                );
            }
        }
    }

    println!("selftest: {failures} failure(s)");
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
