//! Output checks: every job's `SimStats` is digested, held to the trace it
//! replayed, compared with its earlier repetitions in the run, and — for
//! seeds 0 and 1 — compared with the committed digest in `expected.json`.

use std::collections::BTreeMap;
use std::path::Path;

use skia_core::SkiaStats;
use skia_frontend::SimStats;
use skia_telemetry::json::JsonValue;
use skia_uarch::cache::CacheStats;
use skia_workloads::RecordedTrace;

/// The committed per-job digests, read at compile time so a run cannot pick
/// up a stray file.
const EXPECTED: &str = include_str!("../expected.json");

/// Where `bless` writes the digests.
pub const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");

/// Seeds whose digests are committed.
pub const BLESSED_SEEDS: [u64; 2] = [0, 1];

/// FNV-1a over every `SimStats` field, integers little-endian and floats via
/// `to_bits`, so two commits can be compared exactly on any seed.
#[must_use]
pub fn digest(s: &SimStats) -> u64 {
    let SimStats {
        instructions,
        cycles,
        branches,
        taken_branches,
        btb_misses,
        btb_misses_by_kind,
        btb_miss_l1i_resident,
        btb_miss_taken,
        btb_miss_rescuable,
        sbb_rescues,
        rescuable_seen_before,
        decode_resteers,
        exec_resteers,
        bogus_resteers,
        cond_branches,
        cond_mispredicts,
        indirect_branches,
        indirect_mispredicts,
        return_mispredicts,
        idle_icache_cycles,
        idle_resteer_cycles,
        decode_busy_cycles,
        wrong_path_blocks,
        wrong_path_prefetches,
        l1i,
        l2,
        l3,
        skia,
        mean_ftq_occupancy,
        ..
    } = s;
    let mut words = vec![
        *instructions,
        *cycles,
        *branches,
        *taken_branches,
        *btb_misses,
    ];
    words.extend_from_slice(btb_misses_by_kind);
    words.extend_from_slice(&[
        *btb_miss_l1i_resident,
        *btb_miss_taken,
        *btb_miss_rescuable,
        *sbb_rescues,
        *rescuable_seen_before,
        *decode_resteers,
        *exec_resteers,
        *bogus_resteers,
        *cond_branches,
        *cond_mispredicts,
        *indirect_branches,
        *indirect_mispredicts,
        *return_mispredicts,
        *idle_icache_cycles,
        *idle_resteer_cycles,
        *decode_busy_cycles,
        *wrong_path_blocks,
        *wrong_path_prefetches,
    ]);
    for c in [l1i, l2, l3] {
        let CacheStats {
            demand_hits,
            demand_misses,
            prefetch_hits,
            prefetch_misses,
            evictions,
            polluting_fills,
        } = *c;
        words.extend_from_slice(&[
            demand_hits,
            demand_misses,
            prefetch_hits,
            prefetch_misses,
            evictions,
            polluting_fills,
        ]);
    }
    match skia {
        None => words.push(0),
        Some(k) => {
            let SkiaStats {
                sbd,
                sbb,
                filtered_known,
                bogus_uses,
                useful_uses,
            } = *k;
            words.extend_from_slice(&[
                1,
                sbd.head_regions,
                sbd.head_regions_valid,
                sbd.head_regions_discarded,
                sbd.tail_regions,
                sbd.head_branches,
                sbd.tail_branches,
                sbd.valid_path_sum,
                sbb.u_hits,
                sbb.r_hits,
                sbb.lookups,
                sbb.u_inserts,
                sbb.r_inserts,
                sbb.retirements,
                sbb.evicted_unretired,
                filtered_known,
                bogus_uses,
                useful_uses,
            ]);
        }
    }
    words.push(mean_ftq_occupancy.to_bits());
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    skia_telemetry::fnv1a(&bytes)
}

/// Digest of a sequence of digests (one pass's jobs, in job order).
#[must_use]
pub fn combine(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    skia_telemetry::fnv1a(&bytes)
}

/// What any replay of a trace prefix must retire, read off the trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceSums {
    instructions: u64,
    branches: u64,
    taken: u64,
}

impl TraceSums {
    /// Sums over the first `steps` steps of `trace`.
    #[must_use]
    pub fn of(trace: &RecordedTrace, steps: usize) -> TraceSums {
        let mut sums = TraceSums {
            instructions: 0,
            branches: 0,
            taken: 0,
        };
        for step in trace.replay().take(steps) {
            sums.instructions += u64::from(step.insns);
            sums.branches += 1;
            sums.taken += u64::from(step.taken);
        }
        sums
    }
}

/// Per-run correctness tally.
pub struct Checker {
    /// Committed digests for this run's seed, keyed by job key.
    expected: BTreeMap<String, u64>,
    /// Whether a job missing from `expected` is a failure (committed seeds
    /// at the default scale must be complete).
    strict: bool,
    /// First digest seen per job key in this run.
    seen: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// A checker for `seed`. `expected_file` replaces the committed digests
    /// (the self-test plants a wrong one); `scaled` marks a run whose step
    /// counts differ from the committed ones.
    pub fn new(seed: u64, expected_file: Option<&Path>, scaled: bool) -> Result<Checker, String> {
        let text = match expected_file {
            Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?,
            None => EXPECTED.to_string(),
        };
        let mut expected = parse_expected(&text)?;
        Ok(Checker {
            expected: expected.remove(&seed).unwrap_or_default(),
            strict: expected_file.is_none() && !scaled && BLESSED_SEEDS.contains(&seed),
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        })
    }

    /// Check one job. `result` is the job's stats, or the panic message if
    /// it panicked. Returns the stats' digest when every check passed.
    pub fn job(
        &mut self,
        key: &str,
        result: Result<&SimStats, &str>,
        sums: TraceSums,
        skia_on: bool,
    ) -> Option<u64> {
        self.attempted += 1;
        let problems = match result {
            Err(panic) => vec![format!("panicked: {panic}")],
            Ok(stats) => self.problems(key, stats, sums, skia_on),
        };
        if problems.is_empty() {
            return result.ok().map(digest);
        }
        self.failed += 1;
        for p in problems {
            eprintln!("FAILED {key}: {p}");
        }
        None
    }

    /// A failure found outside any one job (the emit path's cross-checks).
    pub fn fail(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("FAILED {what}");
    }

    fn problems(&mut self, key: &str, s: &SimStats, sums: TraceSums, skia_on: bool) -> Vec<String> {
        let mut out = Vec::new();
        let mut expect = |field: &str, got: u64, want: u64| {
            if got != want {
                out.push(format!("{field} = {got}, the trace retires {want}"));
            }
        };
        expect("instructions", s.instructions, sums.instructions);
        expect("branches", s.branches, sums.branches);
        expect("taken_branches", s.taken_branches, sums.taken);
        if s.skia.is_some() != skia_on {
            out.push(format!(
                "skia stats present = {}, config has skia = {skia_on}",
                s.skia.is_some()
            ));
        }
        let d = digest(s);
        match self.seen.get(key) {
            Some(&first) if first != d => out.push(format!(
                "digest {d:016x} differs from this run's first {first:016x}"
            )),
            Some(_) => {}
            None => {
                self.seen.insert(key.to_string(), d);
            }
        }
        match self.expected.get(key) {
            Some(&want) if want != d => {
                out.push(format!(
                    "digest {d:016x} differs from the committed {want:016x}"
                ));
            }
            Some(_) => {}
            None if self.strict => out.push("no committed digest (run `bless`)".into()),
            None => {}
        }
        out
    }
}

/// Parse `{"seed-N": {"<job key>": "<hex digest>", …}, …}`.
fn parse_expected(text: &str) -> Result<BTreeMap<u64, BTreeMap<String, u64>>, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("expected digests: {e}"))?;
    let seeds = doc.as_object().ok_or("expected digests: not an object")?;
    let mut out = BTreeMap::new();
    for (seed_key, jobs) in seeds {
        let seed = seed_key
            .strip_prefix("seed-")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("expected digests: bad key {seed_key}"))?;
        let jobs = jobs
            .as_object()
            .ok_or("expected digests: seed entry not an object")?;
        let mut map = BTreeMap::new();
        for (key, hex) in jobs {
            let d = hex
                .as_str()
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| format!("expected digests: bad digest for {key}"))?;
            map.insert(key.clone(), d);
        }
        out.insert(seed, map);
    }
    Ok(out)
}

/// Render digests in the `expected.json` format.
#[must_use]
pub fn render_expected(digests: &BTreeMap<u64, BTreeMap<String, u64>>) -> String {
    let mut out = String::from("{\n");
    for (i, (seed, jobs)) in digests.iter().enumerate() {
        out += &format!("  \"seed-{seed}\": {{\n");
        for (j, (key, d)) in jobs.iter().enumerate() {
            let comma = if j + 1 < jobs.len() { "," } else { "" };
            out += &format!("    \"{key}\": \"{d:016x}\"{comma}\n");
        }
        let comma = if i + 1 < digests.len() { "," } else { "" };
        out += &format!("  }}{comma}\n");
    }
    out + "}\n"
}
