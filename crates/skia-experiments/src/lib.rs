//! Shared harness for the per-figure experiment binaries.
//!
//! Each binary regenerates one table or figure of *"Exposing Shadow
//! Branches"* by sweeping simulator configurations over the 16 benchmark
//! profiles and printing the paper's rows/series. This crate holds the
//! common machinery: workload caching, configuration construction, and
//! report formatting.

use std::collections::HashMap;
use std::ffi::{OsStr, OsString};
use std::path::{Path, PathBuf};
use std::time::Instant;

use skia_core::SkiaConfig;
use skia_frontend::{FrontendConfig, SimStats, Simulator};
use skia_telemetry::{Snapshot, TraceConfig};
use skia_workloads::profiles::PAPER_BENCHMARKS;
use skia_workloads::{
    load_or_record_trace_in, profile, Profile, Program, RecordedTrace, TraceCacheOutcome, Walker,
};

pub mod report;

pub use skia_frontend::stats::geomean;
pub use skia_runner::{thread_count, SweepReport};

/// Default trace length (true-path basic blocks) per benchmark run.
///
/// One step averages ~7 instructions, so 400K steps ≈ 2.8M instructions —
/// enough for MPKIs and IPC ratios to stabilize on these synthetic
/// workloads (the paper warms 10M and measures 100M on real ones).
pub const DEFAULT_STEPS: usize = 400_000;

/// A materialized benchmark: profile + generated program.
pub struct Workload {
    /// The profile this workload was built from.
    pub profile: Profile,
    /// The generated program image.
    pub program: Program,
}

impl Workload {
    /// Build a named benchmark, loading its program from the cache in
    /// `cache` when present (`None` disables the disk cache).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of the paper's benchmarks (or
    /// `verilator_prebolt`).
    #[must_use]
    pub fn by_name(name: &str, cache: Option<&Path>) -> Workload {
        let profile = profile(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
        let program = skia_workloads::load_or_generate_in(cache, &profile.spec);
        Workload { profile, program }
    }

    /// Run one simulation over this workload.
    #[must_use]
    pub fn run(&self, config: FrontendConfig, steps: usize) -> SimStats {
        let trace = Walker::new(
            &self.program,
            self.profile.trace_seed,
            self.profile.spec.mean_trip_count,
        )
        .take(steps);
        let mut sim = Simulator::new(&self.program, config);
        sim.run(trace)
    }

    /// Record (or load from the trace cache in `cache`) `steps` walker steps
    /// for this workload. The cache key is the workload's program spec plus
    /// its walker parameters, so a cached trace can never be replayed
    /// against the wrong program.
    #[must_use]
    pub fn record_trace(
        &self,
        steps: usize,
        cache: Option<&Path>,
    ) -> (RecordedTrace, TraceCacheOutcome) {
        load_or_record_trace_in(
            cache,
            &self.program,
            &self.profile.spec,
            self.profile.trace_seed,
            self.profile.spec.mean_trip_count,
            steps,
        )
    }

    /// Run one simulation over a pre-recorded trace. Bit-identical to
    /// [`Workload::run`] with the same `steps` (the replay stream equals
    /// the live walk), but RNG- and allocation-free on the trace side.
    ///
    /// # Panics
    ///
    /// Panics if the recording is shorter than `steps` — a silent short run
    /// would skew every derived metric.
    #[must_use]
    pub fn run_trace(
        &self,
        config: FrontendConfig,
        trace: &RecordedTrace,
        steps: usize,
    ) -> SimStats {
        assert!(trace.len() >= steps, "recorded trace shorter than request");
        let mut sim = Simulator::new(&self.program, config);
        sim.run(trace.replay().take(steps))
    }

    /// [`Workload::run_trace`] that also exports the full telemetry
    /// [`Snapshot`] (every simulator counter, histograms, and — when
    /// `trace_config` is `Some` — the sampled event trace).
    #[must_use]
    pub fn run_instrumented_trace(
        &self,
        config: FrontendConfig,
        trace: &RecordedTrace,
        steps: usize,
        trace_config: Option<TraceConfig>,
    ) -> (SimStats, Snapshot) {
        assert!(trace.len() >= steps, "recorded trace shorter than request");
        skia_frontend::run_instrumented(
            &self.program,
            config,
            trace_config,
            trace.replay().take(steps),
        )
    }
}

/// The run configuration of an experiment binary: parsed once, at the edge,
/// from its command line and environment, and passed down from here. No
/// library crate reads the environment.
///
/// Flags (unknown flags are fatal — a typo'd `--emit-jsonn` used to silently
/// run uninstrumented):
///
/// * `--emit-json <path>` — write the merged telemetry snapshot to `path`.
/// * `--bench <name>` — restrict the run to one benchmark.
/// * `--threads <n>` — worker threads (overrides `SKIA_THREADS`).
///
/// Environment knobs:
///
/// * `SKIA_STEPS` — trace length per run (default [`DEFAULT_STEPS`]).
/// * `SKIA_THREADS` — worker threads (default
///   [`std::thread::available_parallelism`]).
/// * `SKIA_CACHE` — program and trace cache directory, by
///   [`skia_workloads::resolve_cache_dir`]'s rule.
/// * `SKIA_SPANS` — span profiling, `1`/`on`/`true` or `0`/`off`/`false`
///   (default: on exactly under `--emit-json`).
///
/// A malformed flag or knob value exits with status 2, naming it: running
/// the default instead would print a plausible table for a run nobody
/// asked for.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--emit-json` target, if given.
    pub emit_json: Option<PathBuf>,
    /// `--bench` filter, if given (validated against the known profiles).
    pub bench: Option<String>,
    /// Requested worker threads (`--threads`, else `SKIA_THREADS`); `None`
    /// means one per core.
    pub threads: Option<usize>,
    /// Trace length (true-path basic blocks) per benchmark run.
    pub steps: usize,
    /// On-disk program and trace cache (`None` disables it).
    pub cache: Option<PathBuf>,
    /// Whether span profiling is on.
    pub spans: bool,
}

/// The value of an inline `<flag>=<value>` argument, byte for byte.
fn inline_value(arg: &OsStr, flag: &str) -> Option<OsString> {
    let rest = arg
        .as_encoded_bytes()
        .strip_prefix(flag.as_bytes())?
        .strip_prefix(b"=")?;
    #[cfg(unix)]
    {
        use std::os::unix::ffi::OsStrExt;
        Some(OsStr::from_bytes(rest).to_os_string())
    }
    #[cfg(not(unix))]
    {
        Some(String::from_utf8_lossy(rest).into_owned().into())
    }
}

impl Default for Args {
    /// The configuration of a run with no flags and no knobs set.
    fn default() -> Args {
        Args::parse_from(&[], |_| None).expect("no flags and no knobs is a valid run")
    }
}

impl Args {
    /// Parse the process arguments and environment, then arm span
    /// profiling to match. Any malformed flag or knob exits with status 2
    /// and a usage line.
    #[must_use]
    pub fn parse() -> Args {
        let mut argv = std::env::args_os();
        let program = argv.next();
        let argv: Vec<OsString> = argv.collect();
        match Self::parse_from(&argv, |knob| std::env::var_os(knob)) {
            Ok(args) => {
                // Anchor the process time origin for `run.wall_seconds`.
                // Spans never write to stdout, so tables stay byte-identical.
                let _ = skia_telemetry::span::epoch();
                skia_telemetry::set_spans_enabled(args.spans);
                args
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: {} [--emit-json <path>] [--bench <name>] [--threads <n>]",
                    program.map_or("experiment".into(), |p| p.to_string_lossy().into_owned()),
                );
                std::process::exit(2);
            }
        }
    }

    /// The testable core: parse an argument list and the knobs `env` looks
    /// up, returning a message for the first unknown flag, missing value,
    /// invalid benchmark, or malformed knob. Arguments need not be UTF-8:
    /// an `--emit-json` path is any OS string, and any other argument that
    /// is not UTF-8 is rejected by name.
    fn parse_from(
        argv: &[OsString],
        env: impl Fn(&str) -> Option<OsString>,
    ) -> Result<Args, String> {
        const FLAGS: [&str; 3] = ["--emit-json", "--bench", "--threads"];
        let mut emit_json = None;
        let mut bench = None;
        let mut threads = None;
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            // The flag, and its value when given inline as `<flag>=<value>`.
            let known = FLAGS.into_iter().find_map(|f| {
                if arg == f {
                    Some((f, None))
                } else {
                    inline_value(arg, f).map(|v| (f, Some(v)))
                }
            });
            let Some((flag, inline)) = known else {
                let shown = arg
                    .to_str()
                    .map_or_else(|| format!("{arg:?}"), str::to_string);
                return Err(if arg.as_encoded_bytes().starts_with(b"-") {
                    format!("unknown flag {shown}")
                } else {
                    format!("unexpected argument {shown}")
                });
            };
            let value = match inline {
                Some(v) if v.is_empty() => return Err(format!("{flag} given an empty value")),
                Some(v) => v,
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} requires a value"))?,
            };
            if flag == "--emit-json" {
                emit_json = Some(PathBuf::from(value));
                continue;
            }
            let Some(v) = value.to_str() else {
                return Err(format!("{flag} {value:?}: not UTF-8"));
            };
            if flag == "--bench" {
                if profile(v).is_none() {
                    return Err(format!(
                        "--bench {v}: unknown benchmark (known: {}, verilator_prebolt)",
                        PAPER_BENCHMARKS.join(", ")
                    ));
                }
                bench = Some(v.to_string());
            } else {
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--threads {v}: not a positive integer"))?;
                if n == 0 {
                    return Err("--threads 0: need at least one thread".into());
                }
                threads = Some(n);
            }
        }
        let positive = |knob: &str| -> Result<Option<usize>, String> {
            let Some(v) = env(knob) else { return Ok(None) };
            let v = v.to_string_lossy();
            match v.parse::<usize>() {
                Ok(n) if n > 0 => Ok(Some(n)),
                _ => Err(format!("{knob}={v:?}: not a positive integer")),
            }
        };
        let steps = positive("SKIA_STEPS")?.unwrap_or(DEFAULT_STEPS);
        let env_threads = positive("SKIA_THREADS")?;
        let spans = match env("SKIA_SPANS") {
            None => emit_json.is_some(),
            Some(v) => {
                let v = v.to_string_lossy();
                match v.to_ascii_lowercase().as_str() {
                    "1" | "on" | "true" => true,
                    "0" | "off" | "false" => false,
                    _ => {
                        return Err(format!(
                            "SKIA_SPANS={v:?}: not one of 1, on, true, 0, off, false"
                        ))
                    }
                }
            }
        };
        Ok(Args {
            threads: threads.or(env_threads),
            steps,
            cache: skia_workloads::resolve_cache_dir(env("SKIA_CACHE").as_deref()),
            spans,
            emit_json,
            bench,
        })
    }

    /// The paper's 16 benchmarks, restricted by `--bench` when given.
    #[must_use]
    pub fn benchmarks(&self) -> Vec<&'static str> {
        self.filter_names(&PAPER_BENCHMARKS)
    }

    /// Restrict an arbitrary benchmark list by the `--bench` filter.
    #[must_use]
    pub fn filter_names(&self, all: &[&'static str]) -> Vec<&'static str> {
        match &self.bench {
            None => all.to_vec(),
            Some(b) => all.iter().copied().filter(|n| n == b).collect(),
        }
    }

    /// Build the [`JsonEmitter`] for this invocation.
    #[must_use]
    pub fn emitter(&self) -> JsonEmitter {
        JsonEmitter {
            path: self.emit_json.clone(),
            ..JsonEmitter::default()
        }
    }
}

/// One queued simulation of a [`Sweep`].
#[derive(Debug, Clone)]
struct SweepJob {
    bench: String,
    config: FrontendConfig,
    steps: usize,
}

/// A deferred (benchmark × config) sweep executed on the [`skia_runner`]
/// thread pool.
///
/// Usage contract for byte-identical output: `add` jobs in exactly the
/// order a serial binary would run them, then call [`Sweep::run`] once and
/// index the returned stats by the job ids `add` handed back. Results are
/// collected and telemetry snapshots are merged in job order, so stdout
/// tables and `--emit-json` payloads are independent of the thread count.
#[derive(Debug)]
pub struct Sweep {
    threads: usize,
    cache: Option<PathBuf>,
    jobs: Vec<SweepJob>,
}

impl Sweep {
    /// An empty sweep that will run on `threads` workers, with programs and
    /// traces cached in `cache` (`None` disables the disk cache).
    #[must_use]
    pub fn new(threads: usize, cache: Option<PathBuf>) -> Sweep {
        Sweep {
            threads,
            cache,
            jobs: Vec::new(),
        }
    }

    /// An empty sweep on the worker count and cache directory of the
    /// parsed [`Args`].
    #[must_use]
    pub fn from_args(args: &Args) -> Sweep {
        Sweep::new(skia_runner::thread_count(args.threads), args.cache.clone())
    }

    /// Queue one run; the returned id indexes [`Sweep::run`]'s result
    /// vector.
    pub fn add(&mut self, bench: &str, config: FrontendConfig, steps: usize) -> usize {
        self.jobs.push(SweepJob {
            bench: bench.to_string(),
            config,
            steps,
        });
        self.jobs.len() - 1
    }

    /// Number of queued jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no jobs are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Execute every queued job and return their stats in job order,
    /// merging telemetry into `emitter` (also in job order) when it is
    /// enabled. Prints a prepare and a runs/sec summary to stderr, never
    /// stdout.
    ///
    /// Runs in two phases. **Prepare**: the distinct workloads among the
    /// queued jobs are identified (folding each to its longest requested
    /// step count — a recorded trace serves any prefix), and each one's
    /// program and trace are loaded or generated once, in parallel, through
    /// the program and trace caches. **Simulate**: every job replays its
    /// workload's shared [`RecordedTrace`] — an N-config sweep walks each
    /// trace once, not N times, and the simulate phase is RNG- and
    /// walker-free. Replay is bit-identical to the live walk, so results are
    /// unchanged. The sweep holds its workloads until it returns.
    pub fn run(self, emitter: &mut JsonEmitter) -> Vec<SimStats> {
        // -- prepare phase ---------------------------------------------------
        let prepare_span = skia_telemetry::span("sweep.prepare");
        let t0 = Instant::now();
        let mut uniq: Vec<(String, usize)> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        for job in &self.jobs {
            match index.get(job.bench.as_str()) {
                Some(&i) => uniq[i].1 = uniq[i].1.max(job.steps),
                None => {
                    // First appearance fixes the recording order.
                    index.insert(job.bench.clone(), uniq.len());
                    uniq.push((job.bench.clone(), job.steps));
                }
            }
        }
        let cache = self.cache.as_deref();
        let prepared = skia_runner::run_indexed(&uniq, self.threads, |_, (name, steps)| {
            let _g = skia_telemetry::span_with(|| format!("prepare.trace:{name}"));
            let w = Workload::by_name(name, cache);
            let (trace, outcome) = w.record_trace(*steps, cache);
            (w, trace, outcome)
        });
        for (_, _, outcome) in &prepared {
            match outcome {
                TraceCacheOutcome::DiskHit => emitter.disk_hits += 1,
                TraceCacheOutcome::Recorded => emitter.recorded += 1,
            }
        }
        let reuses = (self.jobs.len() - uniq.len()) as u64;
        emitter.replay_reuses += reuses;
        let prepare = t0.elapsed();
        if !self.jobs.is_empty() {
            eprintln!(
                "prepare: {} trace(s) for {} job(s) in {:.2}s ({} replay reuse(s))",
                uniq.len(),
                self.jobs.len(),
                prepare.as_secs_f64(),
                reuses
            );
        }

        drop(prepare_span);

        // -- simulate phase --------------------------------------------------
        let _simulate_span = skia_telemetry::span("sweep.simulate");
        let tc = emitter.trace_config();
        let (timed, report) = skia_runner::run_timed(&self.jobs, self.threads, |_, job| {
            let _g = skia_telemetry::span_with(|| format!("sim.job:{}", job.bench));
            let (w, trace, _) = &prepared[index[job.bench.as_str()]];
            match tc {
                None => (w.run_trace(job.config.clone(), trace, job.steps), None),
                Some(tc) => {
                    let (stats, snapshot) =
                        w.run_instrumented_trace(job.config.clone(), trace, job.steps, Some(tc));
                    (stats, Some(snapshot))
                }
            }
        });
        emitter.sim_steps += self.jobs.iter().map(|job| job.steps as u64).sum::<u64>();
        emitter.sim_busy_micros += timed.iter().map(|t| t.wall.as_micros() as u64).sum::<u64>();
        let mut out = Vec::with_capacity(timed.len());
        for t in timed {
            let (stats, snapshot) = t.value;
            if let Some(snapshot) = &snapshot {
                emitter.record(snapshot);
            }
            out.push(stats);
        }
        if report.runs > 0 {
            eprintln!("sweep: {}", report.summary());
        }
        out
    }

    /// [`Sweep::run`] without telemetry (tests and benches).
    #[must_use]
    pub fn run_collect(self) -> Vec<SimStats> {
        self.run(&mut JsonEmitter::default())
    }
}

/// `--emit-json <path>` handling for the experiment binaries.
///
/// When the flag is present, [`Sweep::run`] runs every job instrumented
/// (with a sampled event trace) and merges its snapshot into an aggregate;
/// [`JsonEmitter::finish`] adds the sweeps' trace-pipeline and simulate
/// totals, the cache I/O meters and the spans, and writes it as JSON to
/// `<path>` (conventionally under `results/`). Without the flag the emitter
/// is inert and sweeps run plain.
#[derive(Debug, Default)]
pub struct JsonEmitter {
    path: Option<PathBuf>,
    merged: Snapshot,
    runs: u64,
    /// Traces the sweeps loaded from the on-disk cache.
    disk_hits: u64,
    /// Traces the sweeps recorded live (cold cache or longer request).
    recorded: u64,
    /// Sweep jobs that replayed a trace prepared for an earlier job of
    /// their sweep instead of walking (the CI perf-smoke step asserts on
    /// it).
    replay_reuses: u64,
    /// Steps the sweeps simulated.
    sim_steps: u64,
    /// Summed per-job simulate wall time (not elapsed), microseconds, so
    /// that `sim.steps_per_sec` does not depend on the thread count.
    sim_busy_micros: u64,
}

impl JsonEmitter {
    /// Event-trace sampling used by instrumented experiment runs: keep one
    /// event in 64, up to 16K events — enough to characterize the run
    /// without letting the ring dominate memory or the output file.
    pub const TRACE: TraceConfig = TraceConfig {
        capacity: 16 * 1024,
        sample_every: 64,
    };

    /// Whether `--emit-json` was given.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// The trace configuration instrumented runs should use (`None` when
    /// emission is disabled).
    #[must_use]
    pub fn trace_config(&self) -> Option<TraceConfig> {
        self.enabled().then_some(Self::TRACE)
    }

    /// Merge one run's snapshot into the aggregate.
    pub fn record(&mut self, snapshot: &Snapshot) {
        self.merged.merge(snapshot);
        self.runs += 1;
    }

    /// Write the aggregate snapshot as JSON. No-op when disabled; panics on
    /// I/O errors (an experiment asked for a file it cannot have).
    pub fn finish(&mut self) {
        let Some(path) = &self.path else { return };
        self.merged
            .counters
            .insert("emit.runs_merged".into(), self.runs);
        // Trace-pipeline counters: how the record-once/replay-many machinery
        // behaved (disk cache hits vs. fresh recordings, and how many sweep
        // jobs replayed an already-recorded trace).
        let c = &mut self.merged.counters;
        c.insert("trace_cache.disk_hits".into(), self.disk_hits);
        c.insert("trace_cache.recorded".into(), self.recorded);
        c.insert("trace.replay_reuses".into(), self.replay_reuses);
        // Simulate-phase throughput: raw replay-simulate steps per second of
        // summed per-job busy time (thread-count-independent).
        let busy = self.sim_busy_micros as f64 / 1e6;
        c.insert("sim.steps_total".into(), self.sim_steps);
        self.merged.gauges.insert("sim.busy_seconds".into(), busy);
        if busy > 0.0 {
            self.merged
                .gauges
                .insert("sim.steps_per_sec".into(), self.sim_steps as f64 / busy);
        }
        // Cache I/O totals: bytes the program and trace caches moved
        // (skia-workloads process-wide meters).
        let io = skia_workloads::trace_cache_io();
        c.insert("trace_cache.bytes_read".into(), io.bytes_read);
        c.insert("trace_cache.bytes_written".into(), io.bytes_written);
        // Profiling spans: drain the process-wide collector into the merged
        // snapshot (spans are per-process, not per-run, so they ride on the
        // merged snapshot rather than individual run snapshots).
        let spans = skia_telemetry::drain_spans();
        c.insert("spans.recorded".into(), spans.len() as u64);
        c.insert(
            "spans.dropped".into(),
            skia_telemetry::span::spans_dropped(),
        );
        self.merged.spans.extend(spans);
        self.merged.gauges.insert(
            "run.wall_seconds".into(),
            skia_telemetry::span::epoch().elapsed().as_secs_f64(),
        );
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
            }
        }
        let json = self.merged.to_json_string();
        std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!(
            "telemetry: merged snapshot of {} run(s) written to {}",
            self.runs,
            path.display()
        );
    }
}

/// The four standing configurations of Fig. 3 / Fig. 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StandingConfig {
    /// Plain BTB of the given entry count.
    Btb(usize),
    /// BTB grown by the SBB's 12.25 KB storage budget.
    BtbPlusBudget(usize),
    /// BTB plus the default Skia SBB.
    BtbPlusSkia(usize),
    /// Infinite fully-associative BTB.
    Infinite,
}

impl StandingConfig {
    /// Materialize the frontend configuration.
    #[must_use]
    pub fn frontend(self) -> FrontendConfig {
        match self {
            StandingConfig::Btb(entries) => {
                FrontendConfig::alder_lake_like().with_btb_entries(entries)
            }
            StandingConfig::BtbPlusBudget(entries) => {
                let extra = skia_uarch::btb::BtbConfig::entries_for_budget_kb(12.25, 4);
                FrontendConfig::alder_lake_like().with_btb_entries(entries + extra)
            }
            StandingConfig::BtbPlusSkia(entries) => FrontendConfig::alder_lake_like()
                .with_btb_entries(entries)
                .with_skia(SkiaConfig::default()),
            StandingConfig::Infinite => FrontendConfig {
                btb: skia_frontend::BtbMode::Infinite,
                ..FrontendConfig::alder_lake_like()
            },
        }
    }
}

/// Print a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Format a float with 2 decimals.
#[must_use]
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a percentage with 2 decimals.
#[must_use]
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse `argv` against a fake environment that holds exactly `env`.
    fn parse_env(argv: &[&str], env: &[(&str, &str)]) -> Result<Args, String> {
        let argv: Vec<OsString> = argv.iter().map(OsString::from).collect();
        parse_os(&argv, env)
    }

    fn parse_os(argv: &[OsString], env: &[(&str, &str)]) -> Result<Args, String> {
        Args::parse_from(argv, |knob| {
            env.iter()
                .find(|(name, _)| *name == knob)
                .map(|(_, v)| OsString::from(v))
        })
    }

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_env(argv, &[])
    }

    #[test]
    fn args_parse_all_flags() {
        let a = parse(&[
            "--emit-json",
            "out.json",
            "--bench",
            "tpcc",
            "--threads",
            "3",
        ])
        .unwrap();
        assert_eq!(
            a.emit_json.as_deref(),
            Some(std::path::Path::new("out.json"))
        );
        assert_eq!(a.bench.as_deref(), Some("tpcc"));
        assert_eq!(a.threads, Some(3));
        let a = parse(&["--emit-json=o.json", "--bench=kafka", "--threads=2"]).unwrap();
        assert_eq!(a.bench.as_deref(), Some("kafka"));
        assert_eq!(a.threads, Some(2));
    }

    #[test]
    fn args_reject_unknown_flags_and_bad_values() {
        assert!(
            parse(&["--emit-jsonn", "x"]).is_err(),
            "typo'd flag is fatal"
        );
        assert!(
            parse(&["--bench", "nonesuch"]).is_err(),
            "unknown benchmark"
        );
        assert!(parse(&["--threads", "zero"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--emit-json"]).is_err(), "missing value");
        assert!(parse(&["--emit-json="]).is_err(), "empty value");
        assert!(parse(&["stray"]).is_err(), "positional arguments");
        for (knob, bad) in [
            ("SKIA_THREADS", "two"),
            ("SKIA_THREADS", "0"),
            ("SKIA_THREADS", ""),
            ("SKIA_SPANS", "maybe"),
            ("SKIA_SPANS", ""),
        ] {
            let err = parse_env(&[], &[(knob, bad)]).expect_err(bad);
            assert!(err.contains(knob), "{knob}={bad:?}: {err}");
        }
        #[cfg(unix)]
        non_utf8_arguments_are_named();
    }

    /// Arguments that are not UTF-8 are rejected by name, except as an
    /// `--emit-json` path.
    #[cfg(unix)]
    fn non_utf8_arguments_are_named() {
        let os = |bytes: &[&[u8]]| -> Vec<OsString> {
            use std::os::unix::ffi::OsStrExt;
            bytes
                .iter()
                .map(|b| OsStr::from_bytes(b).to_os_string())
                .collect()
        };
        for (argv, named) in [
            (
                os(&[b"--bench", b"tp\xffcc"]),
                "--bench \"tp\\xFFcc\": not UTF-8",
            ),
            (
                os(&[b"--bench=tp\xffcc"]),
                "--bench \"tp\\xFFcc\": not UTF-8",
            ),
            (
                os(&[b"--threads", b"2\xff"]),
                "--threads \"2\\xFF\": not UTF-8",
            ),
            (
                os(&[b"--th\xffreads", b"2"]),
                "unknown flag \"--th\\xFFreads\"",
            ),
            (os(&[b"str\xffay"]), "unexpected argument \"str\\xFFay\""),
        ] {
            assert_eq!(parse_os(&argv, &[]).expect_err(named), named);
        }
        for argv in [
            os(&[b"--emit-json", b"out\xff.json"]),
            os(&[b"--emit-json=out\xff.json"]),
        ] {
            let path = parse_os(&argv, &[]).unwrap().emit_json.unwrap();
            assert_eq!(path.as_os_str(), os(&[b"out\xff.json"])[0]);
        }
    }

    #[test]
    fn steps_are_the_default_or_a_positive_integer() {
        let unset = parse(&[]).unwrap();
        assert_eq!(unset.steps, DEFAULT_STEPS);
        let steps = parse_env(&[], &[("SKIA_STEPS", "2000")]).unwrap().steps;
        assert_eq!(steps, 2000);
        for bad in ["2k", "0", "-1", ""] {
            let err = parse_env(&[], &[("SKIA_STEPS", bad)]).expect_err(bad);
            assert!(err.contains("SKIA_STEPS"), "{bad:?}: {err}");
        }
        // The other knobs: unset keeps the default, a valid value sets it.
        assert_eq!(unset.threads, None, "one worker per core");
        let threads = |argv: &[&str]| parse_env(argv, &[("SKIA_THREADS", "3")]).unwrap().threads;
        assert_eq!(threads(&[]), Some(3));
        assert_eq!(threads(&["--threads", "2"]), Some(2), "the flag wins");
        let spans = |argv: &[&str], v: &str| parse_env(argv, &[("SKIA_SPANS", v)]).unwrap().spans;
        assert!(!unset.spans, "off by default");
        assert!(
            parse(&["--emit-json", "x.json"]).unwrap().spans,
            "on under --emit-json"
        );
        assert!(!spans(&["--emit-json", "x.json"], "0"));
        assert!(spans(&[], "ON"));
        assert!(unset
            .cache
            .as_deref()
            .is_some_and(|dir| dir.ends_with("target/skia-cache")));
        for off in ["0", "off", "OFF", ""] {
            let cache = parse_env(&[], &[("SKIA_CACHE", off)]).unwrap().cache;
            assert_eq!(cache, None, "SKIA_CACHE={off:?} disables the cache");
        }
        let cache = parse_env(&[], &[("SKIA_CACHE", "/tmp/c")]).unwrap().cache;
        assert_eq!(cache, Some(PathBuf::from("/tmp/c")));
    }

    #[test]
    fn bench_filter_restricts_lists() {
        let a = parse(&["--bench", "tpcc"]).unwrap();
        assert_eq!(a.benchmarks(), vec!["tpcc"]);
        assert_eq!(a.filter_names(&["kafka", "dotty"]), Vec::<&str>::new());
        let none = parse(&[]).unwrap();
        assert_eq!(none.benchmarks().len(), PAPER_BENCHMARKS.len());
        // The pre-BOLT variant is accepted, and the error for an unknown
        // name lists it with the 16 paper benchmarks.
        let pre = parse(&["--bench", "verilator_prebolt"]).unwrap();
        assert_eq!(
            pre.filter_names(&["verilator", "verilator_prebolt"]),
            vec!["verilator_prebolt"]
        );
        let err = parse(&["--bench", "doom"]).unwrap_err();
        for name in PAPER_BENCHMARKS.iter().chain(&["verilator_prebolt"]) {
            assert!(err.contains(name), "{name}: {err}");
        }
    }

    #[test]
    fn sweep_matches_direct_runs_and_is_thread_invariant() {
        let config = FrontendConfig::test_small();
        let steps = 2_000;
        let direct = Workload::by_name("tpcc", None).run(config.clone(), steps);

        for threads in [1, 4] {
            let mut sweep = Sweep::new(threads, None);
            let a = sweep.add("tpcc", config.clone(), steps);
            let b = sweep.add("voter", config.clone(), steps);
            let c = sweep.add("tpcc", config.clone(), steps);
            let stats = sweep.run_collect();
            assert_eq!(stats.len(), 3);
            assert_eq!(stats[a], direct, "threads={threads}");
            assert_eq!(stats[a], stats[c], "identical jobs, identical stats");
            assert_ne!(stats[a], stats[b], "different benchmarks differ");
        }
    }
}
