//! Benchmark of the Skia reproduction, end to end and layer by layer.
//!
//! `--workload W --seed S --seconds N --trace 0|1` runs one workload in a
//! fresh child process (one worker thread, passes back to back for `N`
//! seconds), checks every job's output, and prints `stats_digest <hex>`
//! followed by one JSON result line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs the traced measurement and reports the
//! per-layer metrics. See README.md for the workloads and metrics.

mod check;
mod compare;
mod layers;
mod metrics;
mod pass;
mod selftest;
mod spans;
mod workload;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use check::Checker;
use metrics::{median, END_TO_END, PER_LAYER};
use spans::Tracer;
use workload::{Spec, NAMES};

const USAGE: &str = "usage:
  skia-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--out <file.jsonl>]
  skia-benchmark compare <parent.jsonl> <change.jsonl>
  skia-benchmark selftest
  skia-benchmark bless
workloads: skia-sweep, btb-sweep, cold-cache, emit-sweep";

/// A measured run takes at least this many passes, so its medians have a
/// middle.
const MIN_PASSES: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("selftest") => selftest::main(),
        Some("bless") => bless(),
        Some("measure") => RunArgs::parse(&args[1..]).and_then(|a| measure(&a)),
        _ => RunArgs::parse(&args).and_then(|a| run(&a, &args)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// Arguments of one measured run.
#[derive(Debug, Clone)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Per-job step override (the self-test's tiny scale).
    steps: Option<usize>,
    /// Digests to check against instead of the committed ones.
    expected: Option<PathBuf>,
    /// JSON-lines file to append this run's record to (for `compare`).
    out: Option<PathBuf>,
}

impl RunArgs {
    fn parse(argv: &[String]) -> Result<RunArgs, String> {
        let mut flags = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| {
                    [
                        "workload", "seed", "seconds", "trace", "steps", "expected", "out",
                    ]
                    .contains(n)
                })
                .ok_or_else(|| format!("unknown argument {flag}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.insert(name, value.clone());
        }
        let num = |name: &str| -> Result<Option<u64>, String> {
            flags
                .get(name)
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("--{name} {v}: not a whole number"))
                })
                .transpose()
        };
        let workload = flags
            .get("workload")
            .ok_or("--workload is required")?
            .clone();
        if !NAMES.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        let seconds = match flags.get("seconds") {
            None => 10.0,
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0 && s.is_finite())
                .ok_or_else(|| format!("--seconds {v}: not a positive number"))?,
        };
        let trace = match flags.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace {v}: expected 0 or 1")),
        };
        let steps = num("steps")?.map(|s| s as usize);
        if steps == Some(0) {
            return Err("--steps 0: need at least one step".into());
        }
        Ok(RunArgs {
            workload,
            seed: num("seed")?.ok_or("--seed is required")?,
            seconds,
            trace,
            steps,
            expected: flags.get("expected").map(PathBuf::from),
            out: flags.get("out").map(PathBuf::from),
        })
    }

    fn spec(&self) -> Spec {
        Spec::new(&self.workload, self.seed, self.steps).expect("workload name validated at parse")
    }
}

/// The benchmark's files live beside its build output:
/// `<target dir>/skia-benchmark/`.
fn state_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(|target| target.join("skia-benchmark"))
        .ok_or_else(|| format!("{} has no target directory", exe.display()))
}

fn cache_dir(root: &Path, seed: u64) -> PathBuf {
    root.join("cache").join(format!("seed-{seed}"))
}

/// Fill the warm cache of `spec` (untimed), keeping only this seed's cache.
fn prime(spec: &Spec, root: &Path, seed: u64) {
    let dir = cache_dir(root, seed);
    if let Ok(entries) = std::fs::read_dir(root.join("cache")) {
        for e in entries.flatten() {
            if e.path() != dir {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
    let t = Instant::now();
    let setup = pass::setup(spec, &dir, &Tracer::new(false));
    eprintln!(
        "prime: {} program(s) and trace(s) in {:.2}s ({} recorded)",
        spec.benches.len(),
        t.elapsed().as_secs_f64(),
        setup.recorded.len()
    );
}

/// Parent side of a run: prime the cache, then measure in a fresh child
/// process (given the same `args`) that inherits no `SKIA_*` setting.
fn run(a: &RunArgs, args: &[String]) -> Result<ExitCode, String> {
    let root = state_root()?;
    let tmp = root.join("tmp");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let spec = a.spec();
    if !spec.cold {
        prime(&spec, &root, a.seed);
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe);
    child.arg("measure").args(args);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SKIA_") {
            child.env_remove(key);
        }
    }
    child.env("SKIA_CACHE", cache_dir(&root, a.seed));
    let status = child
        .status()
        .map_err(|e| format!("starting the measured process: {e}"));
    let _ = std::fs::remove_dir_all(&tmp);
    Ok(if status?.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Cache directories for successive passes: the warm cache every time, or
/// a fresh empty directory per pass for the cold workload.
struct PassDirs {
    cold: bool,
    warm: PathBuf,
    tmp: PathBuf,
    next: usize,
}

impl PassDirs {
    fn take(&mut self) -> PathBuf {
        if !self.cold {
            return self.warm.clone();
        }
        self.next += 1;
        let dir = self.tmp.join(format!("cold-{}", self.next));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn release(&self, dir: &Path) {
        if self.cold {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// One untraced pass in the next directory.
    fn pass(&mut self, spec: &Spec, emit_path: &Path, checker: &mut Checker) -> pass::Pass {
        let dir = self.take();
        let (p, _) = pass::run(spec, &dir, emit_path, &Tracer::new(false), checker);
        self.release(&dir);
        p
    }
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Child side of a run: measure, check, print.
fn measure(a: &RunArgs) -> Result<ExitCode, String> {
    let spec = a.spec();
    let root = state_root()?;
    let tmp = root.join("tmp");
    let mut checker = Checker::new(a.seed, a.expected.as_deref(), a.steps.is_some())?;
    if spec.emit {
        // As the experiment binaries do under --emit-json.
        skia_telemetry::set_spans_enabled(true);
    }
    let emit_path = tmp.join("emit.json");
    let mut dirs = PassDirs {
        cold: spec.cold,
        warm: cache_dir(&root, a.seed),
        tmp: tmp.clone(),
        next: 0,
    };
    // One untimed pass first: the process's first touch of its memory and
    // the allocator's growth would otherwise land in the first timed pass.
    let warmup = dirs.pass(&spec, &emit_path, &mut checker);
    let metrics = if a.trace {
        let reference = dirs.pass(&spec, &emit_path, &mut checker);
        let cache = dirs.take();
        let out = root
            .join("out")
            .join(format!("{}-seed-{}", spec.name, a.seed));
        let paths = layers::Paths {
            cache: &cache,
            emit: &emit_path,
            out: &out,
        };
        let m = layers::run(&spec, reference.wall_s, &paths, &mut checker);
        dirs.release(&cache);
        metrics::render(&PER_LAYER, |n| m.get(n).copied())
    } else {
        let start = Instant::now();
        let (mut wall, mut setup, mut rate) = (Vec::new(), Vec::new(), Vec::new());
        while wall.len() < MIN_PASSES || start.elapsed().as_secs_f64() < a.seconds {
            let p = dirs.pass(&spec, &emit_path, &mut checker);
            wall.push(p.wall_s);
            setup.push(p.setup_s);
            rate.push(p.instructions as f64 / p.sim_s / 1e6);
        }
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        eprintln!(
            "{}: {} passes; wall_s {}; setup_s {}; Minst/s {}",
            spec.name,
            wall.len(),
            list(&wall),
            list(&setup),
            list(&rate)
        );
        let rss = peak_rss_mb();
        let value = |name: &str| match name {
            "wall_s" => Some(median(&wall)),
            "setup_s" => Some(median(&setup)),
            "sim_minsts_per_s" => Some(median(&rate)),
            "peak_rss_mb" => Some(rss),
            _ => None,
        };
        metrics::render(&END_TO_END, value)
    };
    let digest = warmup.digest;
    let correct = checker.failed == 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        checker.attempted, checker.failed
    );
    if let Some(out) = &a.out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"stats_digest\": \"{digest:016x}\", \"result\": {line}}}\n",
            spec.name,
            a.seed,
            u8::from(a.trace)
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!("stats_digest {digest:016x}");
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Regenerate `expected.json`: the digest of every job any workload (and
/// its traced probe) runs, for each committed seed.
fn bless() -> Result<ExitCode, String> {
    let root = state_root()?;
    let mut all = BTreeMap::new();
    for seed in check::BLESSED_SEEDS {
        let dir = cache_dir(&root, seed);
        let mut digests = BTreeMap::new();
        for name in NAMES {
            let spec = Spec::new(name, seed, None).expect("listed workload");
            let loaded = pass::setup(&spec, &dir, &Tracer::new(false)).loaded;
            for spec in [spec.probe(), spec] {
                for job in spec.jobs() {
                    digests.entry(spec.key(job)).or_insert_with(|| {
                        let w = &loaded.workloads[job.bench];
                        let config = spec.configs[job.config].1.clone();
                        check::digest(&w.run_trace(config, &loaded.traces[job.bench], spec.steps))
                    });
                }
            }
        }
        eprintln!("bless: seed {seed}: {} job digests", digests.len());
        all.insert(seed, digests);
    }
    std::fs::write(check::EXPECTED_PATH, check::render_expected(&all))
        .map_err(|e| format!("{}: {e}", check::EXPECTED_PATH))?;
    eprintln!("bless: wrote {}", check::EXPECTED_PATH);
    Ok(ExitCode::SUCCESS)
}
