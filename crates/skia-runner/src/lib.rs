//! Parallel sweep execution engine.
//!
//! The paper's evaluation is a large cartesian sweep — benchmarks ×
//! BPU configurations — whose runs are embarrassingly parallel: every run
//! owns its own simulator, walker and RNG state, and runs are seeded, so a
//! run's result is a pure function of its job description. This crate fans
//! such jobs out across OS threads with **deterministic index-ordered
//! result collection**: `run_indexed(jobs, threads, f)` returns exactly
//! `jobs.iter().map(f)` would, regardless of thread count or scheduling.
//!
//! Built on [`std::thread::scope`] only — the workspace is vendored-only,
//! so no rayon/crossbeam. Work distribution is a single atomic cursor over
//! the job vector (dynamic load balancing: long runs do not convoy short
//! ones); each worker writes results into its job's pre-allocated slot, so
//! collection order is the submission order by construction.
//!
//! Thread-count resolution (`--threads` flag > `SKIA_THREADS` env var >
//! [`std::thread::available_parallelism`]) lives here too so every binary
//! resolves it identically.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Resolve the worker-thread count for a sweep.
///
/// Priority: an explicit `flag` (from `--threads`) wins; otherwise the
/// `SKIA_THREADS` environment variable; otherwise
/// [`std::thread::available_parallelism`]. Always at least 1. Unparsable
/// values fall through to the next source with a warning rather than
/// silently serializing a sweep.
#[must_use]
pub fn thread_count(flag: Option<usize>) -> usize {
    if let Some(n) = flag {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("SKIA_THREADS") {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => eprintln!("warning: SKIA_THREADS={v} is not a positive integer; using default"),
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One job's result plus its wall time.
#[derive(Debug, Clone)]
pub struct Timed<R> {
    /// The closure's return value.
    pub value: R,
    /// Wall time the job spent executing (excluding queue wait).
    pub wall: Duration,
}

/// Aggregate timing of one [`run_timed`] invocation.
#[derive(Debug, Clone, Copy)]
pub struct SweepReport {
    /// Number of jobs executed.
    pub runs: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time of the sweep.
    pub wall: Duration,
    /// Sum of per-job wall times (≈ `wall × threads` at full utilization).
    pub busy: Duration,
}

impl SweepReport {
    /// Jobs completed per second of sweep wall time.
    #[must_use]
    pub fn runs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.runs as f64 / secs
        }
    }

    /// Mean per-job wall time.
    #[must_use]
    pub fn mean_run(&self) -> Duration {
        if self.runs == 0 {
            Duration::ZERO
        } else {
            self.busy / self.runs as u32
        }
    }

    /// One-line human summary (the sweep engines print this to stderr).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} runs on {} thread(s) in {:.2}s ({:.2} runs/s, mean {:.3}s/run)",
            self.runs,
            self.threads,
            self.wall.as_secs_f64(),
            self.runs_per_sec(),
            self.mean_run().as_secs_f64(),
        )
    }
}

/// Run `f` over every job and return the results **in job order**, plus the
/// sweep timing report. `f(index, &job)` must be a pure function of its
/// arguments (plus read-only shared state) for the parallel result to be
/// bitwise identical to the serial one; the engine guarantees collection
/// order either way.
///
/// `threads` is clamped to `[1, jobs.len()]`. With one thread (or one job)
/// no worker threads are spawned at all — the jobs run inline, so a serial
/// sweep has zero threading overhead and identical panic behavior.
///
/// # Panics
///
/// Propagates the first panicking job's payload after the scope joins.
pub fn run_timed<T, R, F>(jobs: &[T], threads: usize, f: F) -> (Vec<Timed<R>>, SweepReport)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let started = Instant::now();
    let n = jobs.len();
    let threads = threads.clamp(1, n.max(1));

    let timed: Vec<Timed<R>> = if threads <= 1 {
        jobs.iter()
            .enumerate()
            .map(|(i, job)| {
                let t0 = Instant::now();
                let value = f(i, job);
                Timed {
                    value,
                    wall: t0.elapsed(),
                }
            })
            .collect()
    } else {
        // One pre-allocated result slot per job: workers claim jobs through
        // an atomic cursor and deposit into their own slot, so no ordering
        // information survives scheduling. A Mutex per slot is uncontended
        // (each slot is locked exactly once) and keeps the code unsafe-free.
        let slots: Vec<Mutex<Option<Timed<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let t0 = Instant::now();
                    let value = f(i, &jobs[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(Timed {
                        value,
                        wall: t0.elapsed(),
                    });
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("result slot poisoned")
                    .expect("scope joined, so every slot is filled")
            })
            .collect()
    };

    let busy = timed.iter().map(|t| t.wall).sum();
    let report = SweepReport {
        runs: n,
        threads,
        wall: started.elapsed(),
        busy,
    };
    (timed, report)
}

/// [`run_timed`] without the per-job timing: results only, in job order.
pub fn run_indexed<T, R, F>(jobs: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_timed(jobs, threads, f)
        .0
        .into_iter()
        .map(|t| t.value)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_job_order_regardless_of_threads() {
        let jobs: Vec<u64> = (0..97).collect();
        let serial = run_indexed(&jobs, 1, |i, &j| (i as u64) * 1000 + j * j);
        for threads in [2, 3, 8, 64] {
            let parallel = run_indexed(&jobs, threads, |i, &j| (i as u64) * 1000 + j * j);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn uneven_job_durations_do_not_reorder_results() {
        // Early jobs sleep longest: with eager workers the later (fast)
        // jobs finish first, exercising the slot-indexed collection.
        let jobs: Vec<u64> = (0..16).collect();
        let out = run_indexed(&jobs, 4, |_, &j| {
            std::thread::sleep(Duration::from_millis(16 - j));
            j * 2
        });
        assert_eq!(out, (0..16).map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_job_sweeps() {
        let none: Vec<u32> = Vec::new();
        assert!(run_indexed(&none, 8, |_, &j| j).is_empty());
        assert_eq!(run_indexed(&[41u32], 8, |_, &j| j + 1), vec![42]);
    }

    #[test]
    fn report_counts_and_rates() {
        let jobs = [1u32, 2, 3];
        let (timed, report) = run_timed(&jobs, 2, |_, &j| j);
        assert_eq!(timed.len(), 3);
        assert_eq!(report.runs, 3);
        assert_eq!(report.threads, 2);
        assert!(report.runs_per_sec() > 0.0);
        assert!(report.summary().contains("3 runs"));
    }

    #[test]
    fn thread_clamp_never_exceeds_jobs() {
        let (_, report) = run_timed(&[0u8; 2], 100, |_, &j| j);
        assert_eq!(report.threads, 2);
        let (_, report) = run_timed(&[0u8; 2], 0, |_, &j| j);
        assert_eq!(report.threads, 1);
    }

    #[test]
    fn flag_overrides_everything() {
        assert_eq!(thread_count(Some(3)), 3);
        assert_eq!(thread_count(Some(0)), 1, "zero clamps to one");
    }

    #[test]
    fn shared_state_is_readable_from_workers() {
        let table: Vec<u64> = (0..256).map(|i| i * 3).collect();
        let jobs: Vec<usize> = (0..256).collect();
        let out = run_indexed(&jobs, 8, |_, &j| table[j]);
        assert_eq!(out, table);
    }
}
