//! One pass of a workload: set-up (every program and trace in hand), the
//! simulate phase (every job, back to back on one worker thread), and for
//! the emit workload the `--emit-json` export, parse and manifest.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use skia_experiments::report::Manifest;
use skia_experiments::{Args, JsonEmitter, Workload};
use skia_frontend::SimStats;
use skia_telemetry::Snapshot;
use skia_workloads::{
    load_or_generate_in, load_or_record_trace_in, trace_cache_io, RecordedTrace, TraceCacheOutcome,
};

use crate::check::{self, Checker, TraceSums};
use crate::spans::Tracer;
use crate::workload::Spec;

/// The programs and traces of one pass, one per benchmark.
pub struct Loaded {
    pub workloads: Vec<Workload>,
    pub traces: Vec<RecordedTrace>,
}

/// Timings of the emit path.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmitCost {
    pub finish_ns: u64,
    pub parse_ns: u64,
    pub manifest_ns: u64,
    pub snapshot_bytes: u64,
}

/// What one pass measured.
pub struct Pass {
    /// Set-up plus simulate plus emit, seconds.
    pub wall_s: f64,
    /// Until every program and trace was in hand, seconds.
    pub setup_s: f64,
    /// Simulate phase, seconds.
    pub sim_s: f64,
    /// Retired instructions over every job that passed its checks.
    pub instructions: u64,
    /// Per job (job order): stats when the job passed its checks.
    pub stats: Vec<Option<SimStats>>,
    /// Per job: simulate wall time, nanoseconds.
    pub job_ns: Vec<u64>,
    /// Per benchmark: time to obtain the program and the trace.
    pub program_ns: Vec<u64>,
    pub trace_ns: Vec<u64>,
    /// Cache bytes moved during set-up.
    pub read_bytes: u64,
    pub written_bytes: u64,
    /// Digest of every job's digest, in job order.
    pub digest: u64,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

fn nanos(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// How [`setup`] obtained each benchmark's program and trace.
pub struct Setup {
    pub loaded: Loaded,
    pub program_ns: Vec<u64>,
    pub trace_ns: Vec<u64>,
    /// Benchmarks whose trace was recorded rather than read from the cache.
    pub recorded: Vec<&'static str>,
}

/// Obtain every program and trace of `spec` through the cache in `dir`,
/// generating and recording whatever the cache does not hold.
pub fn setup(spec: &Spec, dir: &Path, tracer: &Tracer) -> Setup {
    let mut loaded = Loaded {
        workloads: Vec::new(),
        traces: Vec::new(),
    };
    let (mut program_ns, mut trace_ns, mut recorded) = (Vec::new(), Vec::new(), Vec::new());
    for p in &spec.benches {
        let t = Instant::now();
        let program = tracer.span(
            || format!("workloads.program:{}", p.name),
            || load_or_generate_in(Some(dir), &p.spec),
        );
        program_ns.push(nanos(t));
        let t = Instant::now();
        let (trace, outcome) = tracer.span(
            || format!("workloads.trace:{}", p.name),
            || {
                load_or_record_trace_in(
                    Some(dir),
                    &program,
                    &p.spec,
                    p.trace_seed,
                    p.spec.mean_trip_count,
                    spec.trace_steps,
                )
            },
        );
        trace_ns.push(nanos(t));
        if outcome != TraceCacheOutcome::DiskHit {
            recorded.push(p.name);
        }
        loaded.workloads.push(Workload {
            profile: p.clone(),
            program,
        });
        loaded.traces.push(trace);
    }
    Setup {
        loaded,
        program_ns,
        trace_ns,
        recorded,
    }
}

/// Run one pass of `spec` with its cache in `dir`; the emit workload writes
/// its snapshot to `emit_path`.
pub fn run(
    spec: &Spec,
    dir: &Path,
    emit_path: &Path,
    tracer: &Tracer,
    checker: &mut Checker,
) -> (Pass, Loaded) {
    let io0 = trace_cache_io();
    let t0 = Instant::now();
    let Setup {
        loaded,
        program_ns,
        trace_ns,
        recorded,
    } = tracer.span(|| "setup".into(), || setup(spec, dir, tracer));
    let setup_s = t0.elapsed().as_secs_f64();
    let io1 = trace_cache_io();
    if !spec.cold {
        for name in recorded {
            checker.fail(&format!("{name}: the warm cache did not hold its trace"));
        }
    }

    let jobs = spec.jobs();
    let trace_config = spec.emit.then_some(JsonEmitter::TRACE);
    let (timed, report) = tracer.span(
        || "simulate".into(),
        || {
            skia_runner::run_timed(&jobs, 1, |_, &job| {
                let w = &loaded.workloads[job.bench];
                let trace = &loaded.traces[job.bench];
                let config = spec.configs[job.config].1.clone();
                tracer.span(
                    || format!("frontend.job:{}", spec.key(job)),
                    || {
                        catch_unwind(AssertUnwindSafe(|| match trace_config {
                            None => (w.run_trace(config, trace, spec.steps), None),
                            Some(tc) => {
                                let (s, snap) =
                                    w.run_instrumented_trace(config, trace, spec.steps, Some(tc));
                                (s, Some(snap))
                            }
                        }))
                        .map_err(|p| panic_message(p.as_ref()))
                    },
                )
            })
        },
    );
    let job_ns: Vec<u64> = timed.iter().map(|t| t.wall.as_nanos() as u64).collect();
    let (results, snapshots): (Vec<_>, Vec<_>) = timed
        .into_iter()
        .map(|t| match t.value {
            Ok((stats, snap)) => (Ok(stats), snap),
            Err(msg) => (Err(msg), None),
        })
        .unzip();
    let emitted = spec.emit.then(|| {
        tracer.span(
            || "emit".into(),
            || {
                emit(
                    spec,
                    emit_path,
                    snapshots.into_iter().flatten().collect(),
                    tracer,
                )
            },
        )
    });
    let wall_s = t0.elapsed().as_secs_f64();

    // Checks run after the clock stops.
    let sums: Vec<TraceSums> = loaded
        .traces
        .iter()
        .map(|t| TraceSums::of(t, spec.steps))
        .collect();
    let mut digests = Vec::with_capacity(jobs.len());
    let mut stats = Vec::with_capacity(jobs.len());
    for (job, result) in jobs.iter().zip(results) {
        let d = checker.job(
            &spec.key(*job),
            result.as_ref().map_err(String::as_str),
            sums[job.bench],
            spec.skia_on(*job),
        );
        digests.push(d.unwrap_or(0));
        stats.push(d.and(result.ok()));
    }
    let instructions = stats.iter().flatten().map(|s| s.instructions).sum();
    match emitted.map(|(_, snapshot)| snapshot) {
        None => {}
        Some(Err(e)) => checker.fail(&format!("emit: {e}")),
        Some(Ok(snap)) => {
            let passed = stats.iter().flatten().count() as u64;
            if snap.counter("emit.runs_merged") != Some(passed) {
                checker.fail("emit: emit.runs_merged differs from the jobs recorded");
            }
            if snap.counter("sim.instructions") != Some(instructions) {
                checker.fail("emit: sim.instructions differs from the jobs' SimStats");
            }
        }
    }
    let pass = Pass {
        wall_s,
        setup_s,
        sim_s: report.wall.as_secs_f64(),
        instructions,
        stats,
        job_ns,
        program_ns,
        trace_ns,
        read_bytes: io1.bytes_read - io0.bytes_read,
        written_bytes: io1.bytes_written - io0.bytes_written,
        digest: check::combine(&digests),
    };
    (pass, loaded)
}

/// Merge `snapshots` through a `JsonEmitter` into `path`, read it back, and
/// fold it into a run manifest rendered as Markdown.
pub fn emit(
    spec: &Spec,
    path: &Path,
    snapshots: Vec<Snapshot>,
    tracer: &Tracer,
) -> (EmitCost, Result<Snapshot, String>) {
    let mut emitter = Args {
        emit_json: Some(path.to_path_buf()),
        ..Args::default()
    }
    .emitter();
    for snap in &snapshots {
        tracer.span(|| "telemetry.record".into(), || emitter.record(snap));
    }
    drop(snapshots);
    let t = Instant::now();
    tracer.span(|| "telemetry.finish".into(), || emitter.finish());
    let finish_ns = nanos(t);
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return (EmitCost::default(), Err(format!("{}: {e}", path.display()))),
    };
    let t = Instant::now();
    let parsed = tracer.span(
        || "telemetry.parse".into(),
        || Snapshot::from_json_str(&text),
    );
    let parse_ns = nanos(t);
    let snapshot_bytes = text.len() as u64;
    drop(text);
    let t = Instant::now();
    let checked = parsed.and_then(|snap| {
        let named = [(spec.name.to_string(), snap)];
        let markdown = tracer.span(
            || "experiments.manifest".into(),
            || Manifest::from_snapshots(&named).to_markdown(),
        );
        let [(_, snap)] = named;
        if markdown.contains(spec.name) {
            Ok(snap)
        } else {
            Err("the manifest does not name the workload".into())
        }
    });
    let manifest_ns = nanos(t);
    let _ = std::fs::remove_file(path);
    let cost = EmitCost {
        finish_ns,
        parse_ns,
        manifest_ns,
        snapshot_bytes,
    };
    (cost, checked)
}
