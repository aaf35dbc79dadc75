//! Shared harness for the per-figure experiment binaries.
//!
//! Each binary regenerates one table or figure of *"Exposing Shadow
//! Branches"* by sweeping simulator configurations over the 16 benchmark
//! profiles and printing the paper's rows/series. This crate holds the
//! common machinery: workload caching, configuration construction, and
//! report formatting.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use skia_core::SkiaConfig;
use skia_frontend::{FrontendConfig, SimStats, Simulator};
use skia_telemetry::{Snapshot, TraceConfig};
use skia_workloads::profiles::PAPER_BENCHMARKS;
use skia_workloads::{
    load_or_record_trace, profile, Profile, Program, RecordedTrace, TraceCacheOutcome, Walker,
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

/// Resolve the step budget: `SKIA_STEPS` env var overrides the default so
/// quick sanity runs and long calibration runs use the same binaries. A
/// value that is not a positive integer exits with status 2, like a bad
/// `--threads`: running the default instead would print a plausible table
/// for a run nobody asked for.
#[must_use]
pub fn steps_from_env() -> usize {
    let value = std::env::var_os("SKIA_STEPS").map(|v| v.to_string_lossy().into_owned());
    parse_steps(value.as_deref()).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

/// The testable core of [`steps_from_env`]: unset means [`DEFAULT_STEPS`],
/// and anything but a positive integer is an error naming `SKIA_STEPS`.
fn parse_steps(value: Option<&str>) -> Result<usize, String> {
    let Some(v) = value else {
        return Ok(DEFAULT_STEPS);
    };
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("SKIA_STEPS={v:?}: not a positive integer")),
    }
}

/// A materialized benchmark: profile + generated program.
pub struct Workload {
    /// The profile this workload was built from.
    pub profile: Profile,
    /// The generated program image.
    pub program: Program,
}

impl Workload {
    /// Build a named benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of the paper's benchmarks (or
    /// `verilator_prebolt`).
    #[must_use]
    pub fn by_name(name: &str) -> Workload {
        let profile = profile(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
        let program = skia_workloads::load_or_generate(&profile.spec);
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

    /// Run one simulation and also export the full telemetry [`Snapshot`]
    /// (every simulator counter, histograms, and — when `trace_config` is
    /// `Some` — the sampled event trace).
    #[must_use]
    pub fn run_instrumented(
        &self,
        config: FrontendConfig,
        steps: usize,
        trace_config: Option<TraceConfig>,
    ) -> (SimStats, Snapshot) {
        let trace = Walker::new(
            &self.program,
            self.profile.trace_seed,
            self.profile.spec.mean_trip_count,
        )
        .take(steps);
        skia_frontend::run_instrumented(&self.program, config, trace_config, trace)
    }

    /// Record (or load from the disk trace cache) `steps` walker steps for
    /// this workload. The cache key is the workload's program spec plus its
    /// walker parameters, so a cached trace can never be replayed against
    /// the wrong program.
    #[must_use]
    pub fn record_trace(&self, steps: usize) -> (RecordedTrace, TraceCacheOutcome) {
        load_or_record_trace(
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

    /// [`Workload::run_trace`] with full telemetry export (the replay
    /// counterpart of [`Workload::run_instrumented`]).
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

    /// Run one simulation, recording its telemetry into `emitter` when the
    /// binary was invoked with `--emit-json <path>` (a plain [`Workload::run`]
    /// otherwise).
    #[must_use]
    pub fn run_emit(
        &self,
        config: FrontendConfig,
        steps: usize,
        emitter: &mut JsonEmitter,
    ) -> SimStats {
        match emitter.trace_config() {
            None => self.run(config, steps),
            tc => {
                let (stats, snapshot) = self.run_instrumented(config, steps, tc);
                emitter.record(&snapshot);
                stats
            }
        }
    }
}

/// Process-wide [`Workload`] memo keyed by benchmark name.
///
/// Figure binaries sweep many configurations over the same 16 benchmarks;
/// the workload (profile + generated program image) is identical across
/// configurations and across sweep worker threads, so it is materialized
/// once per process and shared by `Arc`. Each name gets its own cell so
/// distinct benchmarks can generate concurrently while a second request for
/// the *same* name blocks on the first instead of duplicating the work.
#[must_use]
pub fn workload(name: &str) -> Arc<Workload> {
    type Cell = Arc<OnceLock<Arc<Workload>>>;
    static MEMO: OnceLock<Mutex<HashMap<String, Cell>>> = OnceLock::new();
    let cell = {
        let mut map = MEMO
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("workload memo poisoned");
        map.entry(name.to_string()).or_default().clone()
    };
    cell.get_or_init(|| Arc::new(Workload::by_name(name)))
        .clone()
}

/// Process-wide trace-pipeline counters, surfaced by
/// [`JsonEmitter::finish`] so `--emit-json` output proves whether the
/// replay fast path ran (the CI perf-smoke step asserts on them).
#[derive(Debug)]
struct TraceStats {
    /// Traces served from the on-disk cache.
    disk_hits: AtomicU64,
    /// Traces recorded live (cold cache or longer request).
    recorded: AtomicU64,
    /// Column bytes of live recordings.
    recorded_bytes: AtomicU64,
    /// Requests satisfied by the in-process memo without touching disk.
    memo_hits: AtomicU64,
    /// Sweep jobs that replayed an already-prepared trace instead of
    /// walking (jobs − unique workloads, summed over sweeps).
    replay_reuses: AtomicU64,
    /// Accumulated prepare-phase wall time, microseconds.
    prepare_micros: AtomicU64,
}

static TRACE_STATS: TraceStats = TraceStats {
    disk_hits: AtomicU64::new(0),
    recorded: AtomicU64::new(0),
    recorded_bytes: AtomicU64::new(0),
    memo_hits: AtomicU64::new(0),
    replay_reuses: AtomicU64::new(0),
    prepare_micros: AtomicU64::new(0),
};

/// Process-wide simulate-phase totals, surfaced by [`JsonEmitter::finish`]
/// as `sim.steps_total` / `sim.busy_seconds` / `sim.steps_per_sec` — the
/// raw-throughput numbers the run manifest and `BENCH_sim.json` track.
/// Busy time is summed per-job wall time (not elapsed), so it is
/// thread-count-independent up to scheduling noise.
struct SimTotals {
    steps: AtomicU64,
    busy_micros: AtomicU64,
}

static SIM_TOTALS: SimTotals = SimTotals {
    steps: AtomicU64::new(0),
    busy_micros: AtomicU64::new(0),
};

/// Process-wide [`RecordedTrace`] memo keyed by benchmark name, holding the
/// longest trace requested so far for each workload (a longer request
/// replaces the entry; shorter requests are served as exact prefixes by
/// `Replay::take`, which walker determinism makes equal to a shorter walk).
#[must_use]
pub fn recorded_trace(name: &str, steps: usize) -> Arc<RecordedTrace> {
    static MEMO: OnceLock<Mutex<HashMap<String, Arc<RecordedTrace>>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(t) = memo.lock().expect("trace memo poisoned").get(name) {
        if t.len() >= steps {
            TRACE_STATS.memo_hits.fetch_add(1, Ordering::Relaxed);
            return t.clone();
        }
    }
    // Record (or disk-load) outside the lock so distinct benchmarks prepare
    // concurrently; the sweep prepare phase dedupes names, so duplicated
    // same-name work is not a steady-state concern.
    let w = workload(name);
    let (trace, outcome) = w.record_trace(steps);
    match outcome {
        TraceCacheOutcome::DiskHit => {
            TRACE_STATS.disk_hits.fetch_add(1, Ordering::Relaxed);
        }
        TraceCacheOutcome::Recorded => {
            TRACE_STATS.recorded.fetch_add(1, Ordering::Relaxed);
            TRACE_STATS
                .recorded_bytes
                .fetch_add(trace.byte_size() as u64, Ordering::Relaxed);
        }
    }
    let trace = Arc::new(trace);
    let mut map = memo.lock().expect("trace memo poisoned");
    let entry = map.entry(name.to_string()).or_insert_with(|| trace.clone());
    if entry.len() < trace.len() {
        *entry = trace.clone();
    }
    entry.clone()
}

/// Parsed command line of an experiment binary.
///
/// Every binary accepts the same flags; unknown flags are fatal (a typo'd
/// `--emit-jsonn` used to silently run uninstrumented):
///
/// * `--emit-json <path>` — write the merged telemetry snapshot to `path`.
/// * `--bench <name>` — restrict the sweep to one benchmark.
/// * `--threads <n>` — worker threads (overrides `SKIA_THREADS`; default
///   [`std::thread::available_parallelism`]).
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// `--emit-json` target, if given.
    pub emit_json: Option<PathBuf>,
    /// `--bench` filter, if given (validated against the known profiles).
    pub bench: Option<String>,
    /// `--threads` override, if given.
    pub threads: Option<usize>,
    /// Positional benchmark names (only binaries using
    /// [`Args::parse_with_names`] accept these).
    pub names: Vec<String>,
}

impl Args {
    /// Parse the process arguments; positional arguments are rejected.
    #[must_use]
    pub fn parse() -> Args {
        Self::parse_impl(false)
    }

    /// Parse the process arguments, collecting positional benchmark names
    /// into [`Args::names`] (used by `calibrate` and the probes).
    #[must_use]
    pub fn parse_with_names() -> Args {
        Self::parse_impl(true)
    }

    fn parse_impl(allow_names: bool) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse_from(&argv, allow_names) {
            Ok(args) => {
                // Anchor the process time origin for `run.wall_seconds`,
                // then arm the span layer: `--emit-json` turns profiling
                // spans on by default, `SKIA_SPANS=1/0` forces either way.
                // Spans never write to stdout, so tables stay byte-identical.
                let _ = skia_telemetry::span::epoch();
                skia_telemetry::init_spans_from_env(args.emit_json.is_some());
                args
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: {} [--emit-json <path>] [--bench <name>] [--threads <n>]{}",
                    std::env::args()
                        .next()
                        .unwrap_or_else(|| "experiment".into()),
                    if allow_names { " [benchmark...]" } else { "" },
                );
                std::process::exit(2);
            }
        }
    }

    /// The testable core: parse an argument list, returning a message for
    /// the first unknown flag, missing value, or invalid benchmark.
    fn parse_from(argv: &[String], allow_names: bool) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = argv.iter();
        let take = |flag: &str,
                    inline: Option<&str>,
                    it: &mut std::slice::Iter<String>|
         -> Result<String, String> {
            match inline {
                Some(v) if !v.is_empty() => Ok(v.to_string()),
                Some(_) => Err(format!("{flag} given an empty value")),
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} requires a value")),
            }
        };
        while let Some(a) = it.next() {
            if a == "--emit-json" || a.starts_with("--emit-json=") {
                let v = take("--emit-json", a.strip_prefix("--emit-json="), &mut it)?;
                args.emit_json = Some(PathBuf::from(v));
            } else if a == "--bench" || a.starts_with("--bench=") {
                let v = take("--bench", a.strip_prefix("--bench="), &mut it)?;
                if profile(&v).is_none() {
                    return Err(format!(
                        "--bench {v}: unknown benchmark (known: {})",
                        skia_workloads::profile_names().join(", ")
                    ));
                }
                args.bench = Some(v);
            } else if a == "--threads" || a.starts_with("--threads=") {
                let v = take("--threads", a.strip_prefix("--threads="), &mut it)?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--threads {v}: not a positive integer"))?;
                if n == 0 {
                    return Err("--threads 0: need at least one thread".into());
                }
                args.threads = Some(n);
            } else if a.starts_with('-') {
                return Err(format!("unknown flag {a}"));
            } else if allow_names {
                args.names.push(a.clone());
            } else {
                return Err(format!("unexpected argument {a}"));
            }
        }
        Ok(args)
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

    /// Resolved worker-thread count (`--threads` > `SKIA_THREADS` > cores).
    #[must_use]
    pub fn thread_count(&self) -> usize {
        skia_runner::thread_count(self.threads)
    }

    /// Build the [`JsonEmitter`] for this invocation.
    #[must_use]
    pub fn emitter(&self) -> JsonEmitter {
        JsonEmitter {
            path: self.emit_json.clone(),
            merged: Snapshot::default(),
            runs: 0,
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
    quiet: bool,
    jobs: Vec<SweepJob>,
}

impl Sweep {
    /// An empty sweep that will run on `threads` workers.
    #[must_use]
    pub fn new(threads: usize) -> Sweep {
        Sweep {
            threads,
            quiet: false,
            jobs: Vec::new(),
        }
    }

    /// An empty sweep on the worker count the parsed [`Args`] resolve
    /// (`--threads` > `SKIA_THREADS` > cores).
    #[must_use]
    pub fn from_args(args: &Args) -> Sweep {
        Sweep::new(args.thread_count())
    }

    /// Suppress the stderr timing summary (benches and tests).
    #[must_use]
    pub fn quiet(mut self) -> Sweep {
        self.quiet = true;
        self
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
    /// enabled. Prints a runs/sec summary — and per-run wall times under
    /// `SKIA_VERBOSE` — to stderr, never stdout.
    ///
    /// Runs in two phases. **Prepare**: the distinct workloads among the
    /// queued jobs are identified (folding each to its longest requested
    /// step count — a recorded trace serves any prefix) and their traces
    /// are recorded once each, in parallel, through the trace cache and
    /// process memo. **Simulate**: every job replays its workload's shared
    /// `Arc<RecordedTrace>` — an N-config sweep walks each trace once, not
    /// N times, and the simulate phase is RNG- and walker-free. Replay is
    /// bit-identical to the live walk, so results are unchanged.
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
        let traces: Vec<Arc<RecordedTrace>> =
            skia_runner::run_indexed(&uniq, self.threads, |_, (name, steps)| {
                let _g = skia_telemetry::span_with(|| format!("prepare.trace:{name}"));
                recorded_trace(name, *steps)
            });
        let reuses = (self.jobs.len() - uniq.len()) as u64;
        TRACE_STATS
            .replay_reuses
            .fetch_add(reuses, Ordering::Relaxed);
        let prepare = t0.elapsed();
        TRACE_STATS
            .prepare_micros
            .fetch_add(prepare.as_micros() as u64, Ordering::Relaxed);
        if !self.quiet && !self.jobs.is_empty() {
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
            let w = workload(&job.bench);
            let trace = &traces[index[job.bench.as_str()]];
            match tc {
                None => (w.run_trace(job.config.clone(), trace, job.steps), None),
                Some(tc) => {
                    let (stats, snapshot) =
                        w.run_instrumented_trace(job.config.clone(), trace, job.steps, Some(tc));
                    (stats, Some(snapshot))
                }
            }
        });
        if !self.quiet && std::env::var("SKIA_VERBOSE").is_ok() {
            for (i, (t, job)) in timed.iter().zip(&self.jobs).enumerate() {
                eprintln!(
                    "sweep[{i}]: {} {} steps in {:.3}s",
                    job.bench,
                    job.steps,
                    t.wall.as_secs_f64()
                );
            }
        }
        SIM_TOTALS.steps.fetch_add(
            self.jobs.iter().map(|job| job.steps as u64).sum::<u64>(),
            Ordering::Relaxed,
        );
        SIM_TOTALS.busy_micros.fetch_add(
            timed.iter().map(|t| t.wall.as_micros() as u64).sum::<u64>(),
            Ordering::Relaxed,
        );
        let mut out = Vec::with_capacity(timed.len());
        for t in timed {
            let (stats, snapshot) = t.value;
            if let Some(snapshot) = &snapshot {
                emitter.record(snapshot);
            }
            out.push(stats);
        }
        if !self.quiet && report.runs > 0 {
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
/// When the flag is present, every [`Workload::run_emit`] call runs
/// instrumented (with a sampled event trace) and its snapshot is merged into
/// an aggregate; [`JsonEmitter::finish`] adds the process-wide counters and
/// spans and writes it as JSON to `<path>` (conventionally under
/// `results/`). Without the flag the emitter is inert and `run_emit`
/// degrades to a plain run.
#[derive(Debug, Default)]
pub struct JsonEmitter {
    path: Option<PathBuf>,
    merged: Snapshot,
    runs: u64,
}

impl JsonEmitter {
    /// Event-trace sampling used by instrumented experiment runs: keep one
    /// event in 64, up to 16K events — enough to characterize the run
    /// without letting the ring dominate memory or the output file.
    pub const TRACE: TraceConfig = TraceConfig {
        capacity: 16 * 1024,
        sample_every: 64,
    };

    /// Build an emitter from the process arguments via the strict [`Args`]
    /// parser: `--emit-json <path>` (or `=`-joined) enables emission, and
    /// any unknown flag or stray positional exits with a usage message.
    #[must_use]
    pub fn from_args() -> JsonEmitter {
        Args::parse().emitter()
    }

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
        // behaved for this process (disk cache hits vs. fresh recordings, and
        // how many sweep jobs replayed an already-recorded trace).
        let c = &mut self.merged.counters;
        c.insert(
            "trace_cache.disk_hits".into(),
            TRACE_STATS.disk_hits.load(Ordering::Relaxed),
        );
        c.insert(
            "trace_cache.recorded".into(),
            TRACE_STATS.recorded.load(Ordering::Relaxed),
        );
        c.insert(
            "trace_cache.recorded_bytes".into(),
            TRACE_STATS.recorded_bytes.load(Ordering::Relaxed),
        );
        c.insert(
            "trace.memo_hits".into(),
            TRACE_STATS.memo_hits.load(Ordering::Relaxed),
        );
        c.insert(
            "trace.replay_reuses".into(),
            TRACE_STATS.replay_reuses.load(Ordering::Relaxed),
        );
        self.merged.gauges.insert(
            "trace.prepare_seconds".into(),
            TRACE_STATS.prepare_micros.load(Ordering::Relaxed) as f64 / 1e6,
        );
        // Simulate-phase throughput: raw replay-simulate steps per second of
        // summed per-job busy time (thread-count-independent).
        let sim_steps = SIM_TOTALS.steps.load(Ordering::Relaxed);
        let busy = SIM_TOTALS.busy_micros.load(Ordering::Relaxed) as f64 / 1e6;
        c.insert("sim.steps_total".into(), sim_steps);
        self.merged.gauges.insert("sim.busy_seconds".into(), busy);
        if busy > 0.0 {
            self.merged
                .gauges
                .insert("sim.steps_per_sec".into(), sim_steps as f64 / busy);
        }
        // Cache I/O totals: bytes actually moved and per-column seeks issued
        // by the program/trace caches (skia-workloads process-wide meters).
        let io = skia_workloads::trace_cache_io();
        c.insert("trace_cache.bytes_read".into(), io.bytes_read);
        c.insert("trace_cache.bytes_written".into(), io.bytes_written);
        c.insert("trace_cache.seeks".into(), io.seeks);
        c.insert("trace_cache.full_loads".into(), io.full_loads);
        c.insert("trace_cache.prefix_loads".into(), io.prefix_loads);
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

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        Args::parse_from(&argv, false)
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
        assert!(parse(&["stray"]).is_err(), "positional without names mode");
    }

    #[test]
    fn steps_are_the_default_or_a_positive_integer() {
        assert_eq!(parse_steps(None), Ok(DEFAULT_STEPS));
        assert_eq!(parse_steps(Some("2000")), Ok(2000));
        for bad in ["2k", "0", "-1", ""] {
            let err = parse_steps(Some(bad)).expect_err(bad);
            assert!(err.contains("SKIA_STEPS"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn args_names_mode_collects_positionals() {
        let argv: Vec<String> = vec!["tpcc".into(), "voter".into()];
        let a = Args::parse_from(&argv, true).unwrap();
        assert_eq!(a.names, vec!["tpcc", "voter"]);
    }

    #[test]
    fn bench_filter_restricts_lists() {
        let a = parse(&["--bench", "tpcc"]).unwrap();
        assert_eq!(a.benchmarks(), vec!["tpcc"]);
        assert_eq!(a.filter_names(&["kafka", "dotty"]), Vec::<&str>::new());
        let none = parse(&[]).unwrap();
        assert_eq!(none.benchmarks().len(), PAPER_BENCHMARKS.len());
    }

    #[test]
    fn workload_memo_returns_shared_instance() {
        let a = workload("tpcc");
        let b = workload("tpcc");
        assert!(Arc::ptr_eq(&a, &b), "same name, same materialization");
    }

    #[test]
    fn sweep_matches_direct_runs_and_is_thread_invariant() {
        let config = FrontendConfig::test_small();
        let steps = 2_000;
        let direct = workload("tpcc").run(config.clone(), steps);

        for threads in [1, 4] {
            let mut sweep = Sweep::new(threads).quiet();
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
