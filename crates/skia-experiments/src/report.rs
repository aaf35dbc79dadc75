//! Run manifests: aggregate the suite's `--emit-json` snapshots into one
//! comparable document.
//!
//! `run_experiments.sh` leaves one telemetry snapshot per experiment under
//! `results/`. The `skia-report` binary folds them into a [`Manifest`] —
//! per-experiment wall time, simulate throughput, trace-cache traffic, span
//! rollups and the dominant counters — written as JSON (machine diffing)
//! and Markdown (humans). [`diff`] compares two manifests from consecutive
//! runs: deterministic fields (runs merged, steps simulated, simulator
//! counters) must match exactly, throughput may drift within a threshold,
//! and cache-warmth fields (disk hits vs. recordings, bytes moved) are
//! informational — a warm second run legitimately differs there.
//!
//! Every timing field is integer nanoseconds, not float seconds: `u64`
//! values below 2^53 round-trip exactly through the JSON parser, so
//! `Manifest::from_json_str(m.to_json_string())` reproduces `m` bit-for-bit
//! (property-tested in the crate's round-trip tests).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use skia_telemetry::json::{self, JsonValue};
use skia_telemetry::Snapshot;

/// Counter prefixes whose values depend on cache warmth, host speed or the
/// span layer rather than on the simulation itself. They are excluded from
/// [`ExperimentReport::top_counters`] (and therefore from the exact-match
/// diff) and surfaced through the dedicated cache/throughput fields instead.
const ENV_COUNTER_PREFIXES: [&str; 4] = ["trace_cache.", "trace.", "spans.", "emit."];

/// How many of the largest simulator counters each experiment keeps.
const TOP_COUNTERS: usize = 8;

/// Manifest format version, bumped when a field is added or changes
/// meaning. A reader ignores fields it does not know, so a retired field
/// (`cache_seeks`) keeps the version and older manifests still parse.
const MANIFEST_VERSION: u64 = 1;

/// Aggregated wall-time statistics of one named span across a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Span name (e.g. `sweep.simulate`, `sim.job:tpcc`).
    pub name: String,
    /// Completed spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Shortest span, nanoseconds.
    pub min_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
}

impl PhaseStat {
    /// Mean duration in nanoseconds (0 when no spans).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// One experiment's aggregated run facts.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment name (the telemetry file stem, e.g. `fig01`).
    pub name: String,
    /// Process wall time, nanoseconds (`run.wall_seconds` gauge).
    pub wall_ns: u64,
    /// Telemetry snapshots merged into the file (`emit.runs_merged`).
    pub runs_merged: u64,
    /// Simulate-phase steps executed (`sim.steps_total`).
    pub steps_total: u64,
    /// Summed per-job simulate busy time, nanoseconds (`sim.busy_seconds`).
    pub busy_ns: u64,
    /// Replay-simulate throughput, steps per second of busy time, rounded
    /// to an integer (`sim.steps_per_sec`).
    pub steps_per_sec: u64,
    /// Traces served from the on-disk cache (`trace_cache.disk_hits`).
    pub cache_disk_hits: u64,
    /// Traces recorded live (`trace_cache.recorded`).
    pub cache_recorded: u64,
    /// Cache bytes read (`trace_cache.bytes_read`).
    pub cache_bytes_read: u64,
    /// Cache bytes written (`trace_cache.bytes_written`).
    pub cache_bytes_written: u64,
    /// Per-phase span rollups, name-sorted.
    pub phases: Vec<PhaseStat>,
    /// The largest simulator counters (name, value), value-descending —
    /// environment-dependent counters excluded, so these compare exactly
    /// between identical runs.
    pub top_counters: Vec<(String, u64)>,
}

impl ExperimentReport {
    /// Trace-cache hit rate over disk lookups (0 when none happened).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_disk_hits + self.cache_recorded;
        if total == 0 {
            0.0
        } else {
            self.cache_disk_hits as f64 / total as f64
        }
    }

    /// Build one experiment's report from its merged telemetry snapshot.
    #[must_use]
    pub fn from_snapshot(name: &str, snap: &Snapshot) -> ExperimentReport {
        let counter = |k: &str| snap.counter(k).unwrap_or(0);
        let gauge_ns = |k: &str| {
            snap.gauges
                .get(k)
                .map(|s| (s * 1e9).round().max(0.0) as u64)
                .unwrap_or(0)
        };
        let phases = snap
            .span_rollup()
            .into_iter()
            .map(|(name, r)| PhaseStat {
                name,
                count: r.count,
                total_ns: r.total_ns,
                min_ns: r.min_ns,
                max_ns: r.max_ns,
            })
            .collect();
        let mut top: Vec<(String, u64)> = snap
            .counters
            .iter()
            .filter(|(k, _)| !ENV_COUNTER_PREFIXES.iter().any(|p| k.starts_with(p)))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        // Value-descending, name-ascending tiebreak: deterministic order.
        top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        top.truncate(TOP_COUNTERS);
        ExperimentReport {
            name: name.to_string(),
            wall_ns: gauge_ns("run.wall_seconds"),
            runs_merged: counter("emit.runs_merged"),
            steps_total: counter("sim.steps_total"),
            busy_ns: gauge_ns("sim.busy_seconds"),
            steps_per_sec: snap
                .gauges
                .get("sim.steps_per_sec")
                .map(|s| s.round().max(0.0) as u64)
                .unwrap_or(0),
            cache_disk_hits: counter("trace_cache.disk_hits"),
            cache_recorded: counter("trace_cache.recorded"),
            cache_bytes_read: counter("trace_cache.bytes_read"),
            cache_bytes_written: counter("trace_cache.bytes_written"),
            phases,
            top_counters: top,
        }
    }
}

/// The aggregated run manifest: one [`ExperimentReport`] per suite
/// experiment, name-sorted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// The per-experiment reports, sorted by name.
    pub experiments: Vec<ExperimentReport>,
}

impl Manifest {
    /// Fold named snapshots into a manifest (sorted by experiment name).
    #[must_use]
    pub fn from_snapshots(snaps: &[(String, Snapshot)]) -> Manifest {
        let mut experiments: Vec<ExperimentReport> = snaps
            .iter()
            .map(|(name, s)| ExperimentReport::from_snapshot(name, s))
            .collect();
        experiments.sort_by(|a, b| a.name.cmp(&b.name));
        Manifest { experiments }
    }

    /// Total wall nanoseconds across experiments.
    #[must_use]
    pub fn total_wall_ns(&self) -> u64 {
        self.experiments.iter().map(|e| e.wall_ns).sum()
    }

    /// Total simulate steps across experiments.
    #[must_use]
    pub fn total_steps(&self) -> u64 {
        self.experiments.iter().map(|e| e.steps_total).sum()
    }

    /// Serialize as compact JSON: the version, then every experiment's
    /// fields in declaration order, with `top_counters` as a name-sorted
    /// object (counter names are unique, so a map keeps the JSON flat; the
    /// value ordering is restored at parse time).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = format!("{{\"version\":{MANIFEST_VERSION},\"experiments\":[");
        for (i, e) in self.experiments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::push_str(&mut out, &e.name);
            let _ = write!(
                out,
                ",\"wall_ns\":{},\"runs_merged\":{},\"steps_total\":{},\"busy_ns\":{},\
                 \"steps_per_sec\":{},\"cache_disk_hits\":{},\"cache_recorded\":{},\
                 \"cache_bytes_read\":{},\"cache_bytes_written\":{},\"phases\":[",
                e.wall_ns,
                e.runs_merged,
                e.steps_total,
                e.busy_ns,
                e.steps_per_sec,
                e.cache_disk_hits,
                e.cache_recorded,
                e.cache_bytes_read,
                e.cache_bytes_written,
            );
            for (j, p) in e.phases.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                json::push_str(&mut out, &p.name);
                let _ = write!(
                    out,
                    ",\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                    p.count, p.total_ns, p.min_ns, p.max_ns
                );
            }
            out.push_str("],\"top_counters\":{");
            let mut top: Vec<_> = e.top_counters.iter().collect();
            top.sort();
            for (j, (k, v)) in top.into_iter().enumerate() {
                json::push_key(&mut out, k, j == 0);
                let _ = write!(out, "{v}");
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Parse a manifest produced by [`Manifest::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns a message when the document is not valid JSON, is not a
    /// manifest object, has a version this build does not understand, or
    /// holds a count that is not a non-negative integer below 2^53.
    pub fn from_json_str(s: &str) -> Result<Manifest, String> {
        let v = JsonValue::parse(s)?;
        let version = v
            .get("version")
            .and_then(JsonValue::as_u64)
            .ok_or("manifest: missing version")?;
        if version != MANIFEST_VERSION {
            return Err(format!(
                "manifest: version {version} unsupported (expected {MANIFEST_VERSION})"
            ));
        }
        let exps = v
            .get("experiments")
            .and_then(JsonValue::as_array)
            .ok_or("manifest: missing experiments array")?;
        let mut experiments = Vec::with_capacity(exps.len());
        for e in exps {
            experiments.push(parse_experiment(e)?);
        }
        Ok(Manifest { experiments })
    }

    /// Render a human-readable Markdown summary.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("# Skia experiment run manifest\n\n");
        let _ = writeln!(
            out,
            "{} experiment(s), {:.2}s total wall, {} steps simulated.\n",
            self.experiments.len(),
            self.total_wall_ns() as f64 / 1e9,
            self.total_steps(),
        );
        out.push_str(
            "| experiment | wall s | runs | steps | steps/s | cache hit rate | cache MB r/w |\n\
             |---|---|---|---|---|---|---|\n",
        );
        for e in &self.experiments {
            let _ = writeln!(
                out,
                "| {} | {:.2} | {} | {} | {} | {:.0}% | {:.1}/{:.1} |",
                e.name,
                e.wall_ns as f64 / 1e9,
                e.runs_merged,
                e.steps_total,
                e.steps_per_sec,
                e.cache_hit_rate() * 100.0,
                e.cache_bytes_read as f64 / 1e6,
                e.cache_bytes_written as f64 / 1e6,
            );
        }
        for e in &self.experiments {
            if e.phases.is_empty() {
                continue;
            }
            let _ = writeln!(out, "\n## {} phases\n", e.name);
            out.push_str("| span | count | total ms | mean µs | max µs |\n|---|---|---|---|---|\n");
            let mut phases: Vec<&PhaseStat> = e.phases.iter().collect();
            phases.sort_by(|a, b| {
                b.total_ns
                    .cmp(&a.total_ns)
                    .then_with(|| a.name.cmp(&b.name))
            });
            for p in phases {
                let _ = writeln!(
                    out,
                    "| {} | {} | {:.2} | {:.1} | {:.1} |",
                    p.name,
                    p.count,
                    p.total_ns as f64 / 1e6,
                    p.mean_ns() as f64 / 1e3,
                    p.max_ns as f64 / 1e3,
                );
            }
        }
        out
    }
}

fn parse_experiment(v: &JsonValue) -> Result<ExperimentReport, String> {
    let name = v
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or("experiment: missing name")?
        .to_string();
    let u = |k: &str| v.u64_field(k).map_err(|e| format!("{name}: {e}"));
    let mut phases = Vec::new();
    if let Some(arr) = v.get("phases").and_then(JsonValue::as_array) {
        for p in arr {
            let name = p
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("phase: missing name")?
                .to_string();
            let pu = |k: &str| p.u64_field(k).map_err(|e| format!("phase {name}: {e}"));
            phases.push(PhaseStat {
                count: pu("count")?,
                total_ns: pu("total_ns")?,
                min_ns: pu("min_ns")?,
                max_ns: pu("max_ns")?,
                name,
            });
        }
    }
    let mut top_counters = Vec::new();
    if let Some(obj) = v.get("top_counters").and_then(JsonValue::as_object) {
        // BTreeMap iteration loses the value ordering; restore it.
        for (k, val) in obj {
            top_counters.push((
                k.clone(),
                val.as_u64().ok_or("top_counters: non-integer value")?,
            ));
        }
        top_counters.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    }
    Ok(ExperimentReport {
        wall_ns: u("wall_ns")?,
        runs_merged: u("runs_merged")?,
        steps_total: u("steps_total")?,
        busy_ns: u("busy_ns")?,
        steps_per_sec: u("steps_per_sec")?,
        cache_disk_hits: u("cache_disk_hits")?,
        cache_recorded: u("cache_recorded")?,
        cache_bytes_read: u("cache_bytes_read")?,
        cache_bytes_written: u("cache_bytes_written")?,
        name,
        phases,
        top_counters,
    })
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

/// Fractional steps-per-second drop tolerated before [`diff`] reports a
/// regression (0.4 = anything slower than 60% of the baseline flags; a 2×
/// drop always does, same-host consecutive runs never should).
pub const DEFAULT_THRESHOLD: f64 = 0.4;

/// Severity of one diff finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Expected variation (cache warmth, improvements, added experiments).
    Info,
    /// Determinism break or throughput collapse — fails the diff.
    Regression,
}

/// One difference between two manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Experiment the finding concerns.
    pub experiment: String,
    /// Finding severity.
    pub severity: Severity,
    /// Human-readable description.
    pub detail: String,
}

/// Compare a new manifest against a baseline.
///
/// Deterministic facts — the set of experiments, runs merged, steps
/// simulated, and the top simulator counters — must match exactly; any
/// mismatch is a [`Severity::Regression`]. Throughput (`steps_per_sec`) may
/// drop by up to `threshold` (fractional); larger drops regress, and
/// improvements or cache-warmth differences are [`Severity::Info`].
#[must_use]
pub fn diff(baseline: &Manifest, new: &Manifest, threshold: f64) -> Vec<Finding> {
    let mut findings = Vec::new();
    let new_by_name: BTreeMap<&str, &ExperimentReport> = new
        .experiments
        .iter()
        .map(|e| (e.name.as_str(), e))
        .collect();
    let old_names: std::collections::BTreeSet<&str> = baseline
        .experiments
        .iter()
        .map(|e| e.name.as_str())
        .collect();
    for e in &new.experiments {
        if !old_names.contains(e.name.as_str()) {
            findings.push(Finding {
                experiment: e.name.clone(),
                severity: Severity::Info,
                detail: "new experiment (absent from baseline)".into(),
            });
        }
    }
    for old in &baseline.experiments {
        let Some(new) = new_by_name.get(old.name.as_str()) else {
            findings.push(Finding {
                experiment: old.name.clone(),
                severity: Severity::Regression,
                detail: "experiment missing from new run".into(),
            });
            continue;
        };
        if new.runs_merged != old.runs_merged {
            findings.push(Finding {
                experiment: old.name.clone(),
                severity: Severity::Regression,
                detail: format!(
                    "runs_merged changed: {} -> {}",
                    old.runs_merged, new.runs_merged
                ),
            });
        }
        if new.steps_total != old.steps_total {
            findings.push(Finding {
                experiment: old.name.clone(),
                severity: Severity::Regression,
                detail: format!(
                    "steps_total changed: {} -> {}",
                    old.steps_total, new.steps_total
                ),
            });
        }
        if new.top_counters != old.top_counters {
            findings.push(Finding {
                experiment: old.name.clone(),
                severity: Severity::Regression,
                detail: format!(
                    "simulator counters diverged: {:?} -> {:?}",
                    old.top_counters, new.top_counters
                ),
            });
        }
        if old.steps_per_sec > 0 && new.steps_per_sec > 0 {
            let ratio = new.steps_per_sec as f64 / old.steps_per_sec as f64;
            if ratio < 1.0 - threshold {
                findings.push(Finding {
                    experiment: old.name.clone(),
                    severity: Severity::Regression,
                    detail: format!(
                        "steps/sec dropped {:.0}%: {} -> {}",
                        (1.0 - ratio) * 100.0,
                        old.steps_per_sec,
                        new.steps_per_sec
                    ),
                });
            } else if ratio > 1.0 + threshold {
                findings.push(Finding {
                    experiment: old.name.clone(),
                    severity: Severity::Info,
                    detail: format!(
                        "steps/sec improved {:.0}%: {} -> {}",
                        (ratio - 1.0) * 100.0,
                        old.steps_per_sec,
                        new.steps_per_sec
                    ),
                });
            }
        }
        if (new.cache_disk_hits, new.cache_recorded) != (old.cache_disk_hits, old.cache_recorded) {
            findings.push(Finding {
                experiment: old.name.clone(),
                severity: Severity::Info,
                detail: format!(
                    "cache warmth: hits/recorded {}/{} -> {}/{}",
                    old.cache_disk_hits,
                    old.cache_recorded,
                    new.cache_disk_hits,
                    new.cache_recorded
                ),
            });
        }
    }
    findings
}

/// Render all experiments' spans and sampled events as one Chrome
/// `trace_event` document. Each experiment ran as its own process with its
/// own time origin, so thread ids are remapped to `experiment_index * 64 +
/// thread` to give every experiment a distinct row band.
#[must_use]
pub fn chrome_trace(snaps: &[(String, Snapshot)]) -> String {
    let mut spans = Vec::new();
    let mut events = Vec::new();
    for (i, (_, snap)) in snaps.iter().enumerate() {
        for s in &snap.spans {
            let mut s = s.clone();
            s.thread = (i as u64) * 64 + s.thread.min(63);
            spans.push(s);
        }
        events.extend(snap.events.iter().copied());
    }
    skia_telemetry::to_chrome_trace_full(&events, &spans, "skia-suite")
}

#[cfg(test)]
mod tests {
    use super::*;
    use skia_telemetry::SpanRecord;

    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("emit.runs_merged".into(), 16);
        snap.counters.insert("sim.steps_total".into(), 400_000);
        snap.counters.insert("btb.misses".into(), 1234);
        snap.counters.insert("resteers".into(), 99);
        snap.counters.insert("trace_cache.disk_hits".into(), 3);
        snap.counters.insert("trace_cache.recorded".into(), 1);
        snap.counters.insert("trace_cache.bytes_read".into(), 9000);
        snap.counters
            .insert("trace_cache.bytes_written".into(), 500);
        snap.gauges.insert("run.wall_seconds".into(), 1.25);
        snap.gauges.insert("sim.busy_seconds".into(), 0.5);
        snap.gauges.insert("sim.steps_per_sec".into(), 800_000.0);
        snap.spans.push(SpanRecord {
            name: "sweep.simulate".into(),
            thread: 0,
            depth: 0,
            start_ns: 100,
            dur_ns: 500_000,
        });
        snap.spans.push(SpanRecord {
            name: "sim.job:tpcc".into(),
            thread: 1,
            depth: 1,
            start_ns: 200,
            dur_ns: 30_000,
        });
        snap
    }

    fn sample_manifest() -> Manifest {
        Manifest::from_snapshots(&[
            ("fig01".to_string(), sample_snapshot()),
            ("table1".to_string(), sample_snapshot()),
        ])
    }

    #[test]
    fn experiment_report_extracts_snapshot_facts() {
        let e = ExperimentReport::from_snapshot("fig01", &sample_snapshot());
        assert_eq!(e.name, "fig01");
        assert_eq!(e.wall_ns, 1_250_000_000);
        assert_eq!(e.runs_merged, 16);
        assert_eq!(e.steps_total, 400_000);
        assert_eq!(e.busy_ns, 500_000_000);
        assert_eq!(e.steps_per_sec, 800_000);
        assert_eq!(e.cache_disk_hits, 3);
        assert!((e.cache_hit_rate() - 0.75).abs() < 1e-12);
        // Environment counters never reach top_counters; values descend.
        assert!(e
            .top_counters
            .iter()
            .all(|(k, _)| !k.starts_with("trace_cache.") && !k.starts_with("emit.")));
        assert_eq!(e.top_counters[0].0, "sim.steps_total");
        assert!(e.top_counters.windows(2).all(|w| w[0].1 >= w[1].1));
        // Span rollups became phases.
        assert_eq!(e.phases.len(), 2);
        let sim = e.phases.iter().find(|p| p.name == "sim.job:tpcc").unwrap();
        assert_eq!(sim.count, 1);
        assert_eq!(sim.total_ns, 30_000);
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = sample_manifest();
        let json = m.to_json_string();
        let back = Manifest::from_json_str(&json).expect("round trip");
        assert_eq!(m, back);
        assert_eq!(m.total_steps(), 800_000);
        assert_eq!(m.total_wall_ns(), 2_500_000_000);
    }

    /// The exact manifest bytes: field order, phases as an array, and
    /// `top_counters` as a name-sorted object.
    #[test]
    fn manifest_json_bytes_are_pinned() {
        // Both experiments carry the same facts under different names.
        let facts = concat!(
            "\"wall_ns\":1250000000,\"runs_merged\":16,\"steps_total\":400000,",
            "\"busy_ns\":500000000,\"steps_per_sec\":800000,\"cache_disk_hits\":3,",
            "\"cache_recorded\":1,\"cache_bytes_read\":9000,\"cache_bytes_written\":500,",
            "\"phases\":[{\"name\":\"sim.job:tpcc\",\"count\":1,",
            "\"total_ns\":30000,\"min_ns\":30000,\"max_ns\":30000},",
            "{\"name\":\"sweep.simulate\",\"count\":1,\"total_ns\":500000,",
            "\"min_ns\":500000,\"max_ns\":500000}],\"top_counters\":",
            "{\"btb.misses\":1234,\"resteers\":99,\"sim.steps_total\":400000}}",
        );
        assert_eq!(
            sample_manifest().to_json_string(),
            format!(
                "{{\"version\":1,\"experiments\":[{{\"name\":\"fig01\",{facts},\
                 {{\"name\":\"table1\",{facts}]}}"
            )
        );
    }

    /// Manifests written before trace loads stopped seeking carry a
    /// `cache_seeks` field; a reader ignores it, so the committed CI
    /// baseline still diffs.
    #[test]
    fn manifest_reads_the_retired_cache_seeks_field() {
        let m = sample_manifest();
        let old = m
            .to_json_string()
            .replace("\"phases\":", "\"cache_seeks\":18,\"phases\":");
        assert_eq!(Manifest::from_json_str(&old), Ok(m));
        let baseline = include_str!("../../../ci/baseline-manifest.json");
        assert!(baseline.contains("\"cache_seeks\":"));
        let parsed = Manifest::from_json_str(baseline).expect("the CI baseline parses");
        assert!(!parsed.experiments.is_empty());
    }

    #[test]
    fn manifest_rejects_garbage_and_wrong_version() {
        assert!(Manifest::from_json_str("nope").is_err());
        assert!(Manifest::from_json_str("{}").is_err());
        assert!(Manifest::from_json_str("{\"version\":999,\"experiments\":[]}").is_err());
        assert!(Manifest::from_json_str("{\"version\":1,\"experiments\":[{}]}").is_err());
        // Counts must read back exactly: no truncated fractions.
        for exp in [
            "{\"name\":\"a\",\"wall_ns\":1.5}",
            "{\"name\":\"a\",\"top_counters\":{\"x\":2.5}}",
            "{\"name\":\"a\",\"phases\":[{\"name\":\"p\",\"count\":-1}]}",
        ] {
            let doc = format!("{{\"version\":1,\"experiments\":[{exp}]}}");
            assert!(Manifest::from_json_str(&doc).is_err(), "{doc}");
        }
    }

    #[test]
    fn identical_manifests_diff_clean() {
        let m = sample_manifest();
        let findings = diff(&m, &m, DEFAULT_THRESHOLD);
        assert!(
            findings.iter().all(|f| f.severity != Severity::Regression),
            "self-diff must not regress: {findings:?}"
        );
        assert!(findings.is_empty(), "self-diff is silent: {findings:?}");
    }

    #[test]
    fn throughput_collapse_is_flagged() {
        let base = sample_manifest();
        let mut slow = base.clone();
        // A 2× steps/sec drop on one experiment.
        slow.experiments[0].steps_per_sec /= 2;
        let findings = diff(&base, &slow, DEFAULT_THRESHOLD);
        assert!(
            findings.iter().any(|f| f.severity == Severity::Regression
                && f.experiment == "fig01"
                && f.detail.contains("steps/sec dropped")),
            "2x drop must regress: {findings:?}"
        );
        // A drop within the threshold stays silent.
        let mut mild = base.clone();
        mild.experiments[0].steps_per_sec = (mild.experiments[0].steps_per_sec as f64 * 0.8) as u64;
        assert!(diff(&base, &mild, DEFAULT_THRESHOLD).is_empty());
        // An improvement is informational, never a regression.
        let mut fast = base.clone();
        fast.experiments[0].steps_per_sec *= 3;
        let findings = diff(&base, &fast, DEFAULT_THRESHOLD);
        assert!(findings.iter().all(|f| f.severity == Severity::Info));
    }

    #[test]
    fn determinism_breaks_are_regressions() {
        let base = sample_manifest();

        let mut changed = base.clone();
        changed.experiments[1].steps_total += 1;
        assert!(diff(&base, &changed, DEFAULT_THRESHOLD)
            .iter()
            .any(|f| f.severity == Severity::Regression && f.detail.contains("steps_total")));

        let mut counters = base.clone();
        counters.experiments[0].top_counters[1].1 += 7;
        assert!(diff(&base, &counters, DEFAULT_THRESHOLD)
            .iter()
            .any(|f| f.severity == Severity::Regression && f.detail.contains("counters")));

        let mut missing = base.clone();
        missing.experiments.pop();
        assert!(diff(&base, &missing, DEFAULT_THRESHOLD)
            .iter()
            .any(|f| f.severity == Severity::Regression && f.detail.contains("missing")));

        // Cache warmth shifts are informational.
        let mut warm = base.clone();
        warm.experiments[0].cache_disk_hits += 1;
        warm.experiments[0].cache_recorded -= 1;
        assert!(diff(&base, &warm, DEFAULT_THRESHOLD)
            .iter()
            .all(|f| f.severity == Severity::Info));
    }

    #[test]
    fn markdown_and_chrome_render() {
        let m = sample_manifest();
        let md = m.to_markdown();
        assert!(md.contains("| fig01 |"));
        assert!(md.contains("## fig01 phases"));
        assert!(md.contains("sweep.simulate"));

        let snaps = vec![
            ("fig01".to_string(), sample_snapshot()),
            ("table1".to_string(), sample_snapshot()),
        ];
        let chrome = chrome_trace(&snaps);
        assert!(chrome.contains("\"ph\":\"X\""));
        // Second experiment's threads land in its own tid band.
        assert!(chrome.contains("\"tid\":65"));
    }
}
