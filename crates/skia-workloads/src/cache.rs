//! On-disk program-image cache.
//!
//! [`Program::generate`] is a pure function of its [`ProgramSpec`], but for
//! the paper-scale profiles it costs tens of milliseconds each — and every
//! figure binary regenerates all 16 benchmarks, so a full
//! `run_experiments.sh` sweep pays 12 × 16 generations for 16 distinct
//! programs. This module memoizes generation on disk: the serialized
//! program is stored under a cache directory keyed by a hash of the spec's
//! canonical byte encoding, and [`load_or_generate_in`] returns the cached
//! image when present.
//!
//! Callers pass the cache directory (`None` disables caching);
//! [`resolve_cache_dir`] is the one rule that turns a `SKIA_CACHE` setting
//! into one, `target/skia-cache/` by default. Cache files are versioned and
//! embed the full canonical spec bytes, so a hash collision or a format
//! change falls back to regeneration rather than returning a wrong program.
//! All I/O is best-effort: an unreadable or unwritable cache only costs
//! time, never correctness. Writes go through a temp file + rename so
//! concurrent processes never observe a torn entry.
//!
//! The serialization is hand-rolled little-endian: the format is private to
//! this module and every file carries its format version (in its name too),
//! so it can change freely between releases — stale files simply miss. A
//! program file holds the image, the function weights, then each static
//! branch once, in table order, with its indirect targets; it stores
//! nothing a load can compute — not a block's start (the previous block's
//! end), a fall-through, a function's entry (its first block's start) or
//! the image base (a constant).
//!
//! A loaded program passes the same structural check as a generated one
//! ([`Program`]'s one constructor), so a corrupt file that breaks the
//! walker's invariants — a target that is no block start, a record that
//! leaves a gap, a function without a closing return — misses and is
//! regenerated. A flip that leaves a well-formed program cannot be caught:
//! an image byte, a bias, a weight or an instruction count loads as a
//! different program.

use std::ffi::OsStr;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use skia_isa::BranchKind;

use crate::program::{
    Layout, Program, ProgramSpec, BACKEDGE_FRACTION, BLOCKS_PER_FN, DISPATCH_BLOCKS,
    DISPATCH_CALLEES, IMAGE_BASE, INDIRECT_CALLEES, INSNS_PER_BLOCK, LEAF_FRACTION,
};
use crate::side_table::{is_indirect, BranchRecord};
use crate::trace::{masked_prefix, RecordedTrace};
use crate::walker::{BURST_POOL, BURST_PROB};

/// Process-wide cache I/O totals, accumulated across every program and
/// trace cache operation since process start. Atomics (not per-run
/// counters) because the cache is called from arbitrary worker threads and
/// long before any run's snapshot exists; the JSON emitter surfaces the
/// totals as `trace_cache.*` counters at finish time.
static IO_BYTES_READ: AtomicU64 = AtomicU64::new(0);
static IO_BYTES_WRITTEN: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide cache I/O totals. Every load reads its
/// whole file, so `bytes_read` grows by the size of each file read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheIo {
    /// Bytes read from cache files (program + trace, headers included).
    pub bytes_read: u64,
    /// Bytes written to cache files (program + trace).
    pub bytes_written: u64,
}

/// Read the process-wide cache I/O totals (monotonic since process start;
/// diff two snapshots to meter a region).
#[must_use]
pub fn trace_cache_io() -> TraceCacheIo {
    TraceCacheIo {
        bytes_read: IO_BYTES_READ.load(Ordering::Relaxed),
        bytes_written: IO_BYTES_WRITTEN.load(Ordering::Relaxed),
    }
}

/// Bumped whenever the on-disk layout or the generator's output changes;
/// mismatched files are regenerated. Version 2 writes each static branch
/// once, in table order.
const FORMAT_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"SKIAPROG";

/// Bumped whenever the trace columns or the walker's behaviour change;
/// mismatched files are re-recorded. Version 3 stores the taken bitset and
/// each indirect step's successor record index behind a checksum.
const TRACE_FORMAT_VERSION: u32 = 3;

const TRACE_MAGIC: &[u8; 8] = b"SKIATRAC";

/// Generate `spec`'s program, consulting the cache in `dir` first (`None`
/// disables caching).
///
/// Equivalent to [`Program::generate`] in every observable way — the cached
/// round trip reproduces the image bytes, ground-truth metadata and derived
/// indexes exactly (asserted by the round-trip tests below).
#[must_use]
pub fn load_or_generate_in(dir: Option<&Path>, spec: &ProgramSpec) -> Program {
    let Some(dir) = dir else {
        let _g = skia_telemetry::span("program_cache.generate");
        return Program::generate(spec);
    };
    let key = spec_key(spec);
    let path = dir.join(format!("program-{key:016x}-v{FORMAT_VERSION}.bin"));
    {
        let _g = skia_telemetry::span("program_cache.load");
        if let Some(program) = try_load(&path, spec) {
            return program;
        }
    }
    let _g = skia_telemetry::span("program_cache.generate");
    let program = Program::generate(spec);
    store(dir, &path, &serialize(spec, &program));
    program
}

/// How [`load_or_record_trace_in`] satisfied a request (telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCacheOutcome {
    /// Served from disk — possibly a prefix of a longer stored trace
    /// (walker determinism makes the prefix exact).
    DiskHit,
    /// Recorded live: cache disabled, entry missing/corrupt/stale, or the
    /// stored trace was shorter than the request (the longer recording
    /// then replaces it).
    Recorded,
}

/// Record `steps` walker steps over `program`, consulting the trace cache in
/// `dir` first (`None` disables caching).
///
/// `spec` must be the spec `program` was generated from — its canonical
/// bytes key and verify the entry exactly as the program cache does, so a
/// trace can never be replayed against the wrong program. A stored trace
/// at least as long as the request serves it as a prefix; a shorter one is
/// replaced by the longer recording.
pub fn load_or_record_trace_in(
    dir: Option<&Path>,
    program: &Program,
    spec: &ProgramSpec,
    seed: u64,
    mean_trip: u32,
    steps: usize,
) -> (RecordedTrace, TraceCacheOutcome) {
    let Some(dir) = dir else {
        let _g = skia_telemetry::span("trace_cache.record");
        return (
            RecordedTrace::record(program, seed, mean_trip, steps),
            TraceCacheOutcome::Recorded,
        );
    };
    let key = trace_key(spec, seed, mean_trip);
    let path = dir.join(format!("trace-{key:016x}-v{TRACE_FORMAT_VERSION}.bin"));
    // A load keeps at most `steps` steps; it comes back shorter only when
    // the stored recording itself is shorter, in which case the walk is
    // re-recorded at the longer length below.
    {
        let _g = skia_telemetry::span("trace_cache.load");
        let stored = read_file(&path)
            .and_then(|bytes| read_trace(&bytes, program, spec, seed, mean_trip, steps));
        if let Some(stored) = stored.filter(|t| t.len() >= steps) {
            return (stored, TraceCacheOutcome::DiskHit);
        }
    }
    let _g = skia_telemetry::span("trace_cache.record");
    let trace = RecordedTrace::record(program, seed, mean_trip, steps);
    store(dir, &path, &serialize_trace(spec, seed, mean_trip, &trace));
    (trace, TraceCacheOutcome::Recorded)
}

/// The one rule for a `SKIA_CACHE` setting, shared by every program that
/// reads the variable: unset means `skia-cache/` inside the build's target
/// directory; `0`, `off` or an empty value disables caching (`None`);
/// anything else is the cache directory itself.
///
/// The default is anchored to the workspace rather than the working
/// directory — `cargo test` sets each test binary's CWD to its crate root,
/// and a CWD-relative default would scatter `target/skia-cache/` dirs
/// across the source tree.
#[must_use]
pub fn resolve_cache_dir(setting: Option<&OsStr>) -> Option<PathBuf> {
    match setting {
        None => {
            let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
            Some(workspace.join("target").join("skia-cache"))
        }
        Some(v) if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") => None,
        Some(v) => Some(PathBuf::from(v)),
    }
}

/// FNV-1a 64 over the canonical spec encoding — stable across runs and
/// platforms (unlike `DefaultHasher`, whose output is unspecified).
fn spec_key(spec: &ProgramSpec) -> u64 {
    skia_telemetry::fnv1a(&spec_bytes(spec))
}

/// Canonical byte encoding of a spec: its fields and the generator's and
/// walker's constants, little-endian, floats via `to_bits`. Embedded in the
/// cache file and compared exactly on load, so the key hash only narrows the
/// candidate — it never decides a match.
///
/// Each constant is written where it was once a spec field, so files stored
/// before it became a constant keep their identity, and changing one changes
/// the identity of every program and trace. The pattern names every field:
/// a field added to the spec fails to build until it is encoded.
fn spec_bytes(spec: &ProgramSpec) -> Vec<u8> {
    let ProgramSpec {
        seed,
        functions,
        cond_fraction,
        call_fraction,
        indirect_fraction,
        zipf_s,
        mean_trip_count,
        layout,
    } = spec;
    let mut out = Vec::with_capacity(160);
    let mut u64le = |v: u64| out.extend_from_slice(&v.to_le_bytes());
    u64le(*seed);
    u64le(*functions as u64);
    u64le(BLOCKS_PER_FN.start as u64);
    u64le(BLOCKS_PER_FN.end as u64);
    u64le(INSNS_PER_BLOCK.start as u64);
    u64le(INSNS_PER_BLOCK.end as u64);
    u64le(cond_fraction.to_bits());
    u64le(call_fraction.to_bits());
    u64le(indirect_fraction.to_bits());
    u64le(zipf_s.to_bits());
    u64le(BACKEDGE_FRACTION.to_bits());
    u64le(u64::from(*mean_trip_count));
    u64le(INDIRECT_CALLEES as u64);
    u64le(LEAF_FRACTION.to_bits());
    u64le(DISPATCH_BLOCKS as u64);
    u64le(DISPATCH_CALLEES as u64);
    u64le(BURST_POOL as u64);
    u64le(BURST_PROB.to_bits());
    u64le(match layout {
        Layout::Interleaved => 0,
        Layout::Bolted => 1,
    });
    out
}

/// FNV-1a 64 over the trace identity: the program spec's canonical bytes
/// plus the walker parameters. Step count is deliberately excluded — one
/// entry per walk identity, serving any length up to what it stores.
fn trace_key(spec: &ProgramSpec, seed: u64, mean_trip: u32) -> u64 {
    skia_telemetry::fnv1a(&trace_ident(spec, seed, mean_trip))
}

/// Canonical identity bytes of a trace: spec encoding ++ seed ++ mean_trip.
/// Embedded in the cache file and compared exactly on load.
fn trace_ident(spec: &ProgramSpec, seed: u64, mean_trip: u32) -> Vec<u8> {
    let mut out = spec_bytes(spec);
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend_from_slice(&mean_trip.to_le_bytes());
    out
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn serialize(spec: &ProgramSpec, program: &Program) -> Vec<u8> {
    let image = program.bytes_at(program.base(), program.code_bytes());
    let table = program.branch_table();
    let mut out = Vec::with_capacity(64 + image.len() + 24 * table.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    let spec_enc = spec_bytes(spec);
    out.extend_from_slice(&(spec_enc.len() as u32).to_le_bytes());
    out.extend_from_slice(&spec_enc);
    out.extend_from_slice(&(image.len() as u64).to_le_bytes());
    out.extend_from_slice(image);
    out.extend_from_slice(&(program.functions().len() as u64).to_le_bytes());
    for f in program.functions() {
        out.extend_from_slice(&f.weight.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(table.len() as u64).to_le_bytes());
    for (i, r) in table.records().iter().enumerate() {
        out.extend_from_slice(&r.function.to_le_bytes());
        let body = u32::try_from(r.pc - r.block_start).expect("block body fits in u32");
        out.extend_from_slice(&body.to_le_bytes());
        out.extend_from_slice(&r.insns.to_le_bytes());
        out.extend_from_slice(&[r.len, r.kind.index() as u8, r.bias, u8::from(r.backedge)]);
        if let Some(target) = r.target {
            out.extend_from_slice(&target.to_le_bytes());
        }
        if is_indirect(r.kind) {
            let targets = table.indirect_targets(i);
            out.extend_from_slice(&(targets.len() as u32).to_le_bytes());
            for &t in targets {
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
    }
    out
}

/// Infallible little-endian read of up to 4 bytes. The deserializers feed
/// these exact-size `chunks_exact` slices; a fold avoids the
/// `try_into().unwrap()` idiom so no code path between `std::fs::read` and
/// "cache miss" can panic, even on a slice-size bug.
fn le_u32(chunk: &[u8]) -> u32 {
    chunk
        .iter()
        .rev()
        .fold(0u32, |acc, &b| (acc << 8) | u32::from(b))
}

/// Infallible little-endian read of up to 8 bytes; see [`le_u32`].
fn le_u64(chunk: &[u8]) -> u64 {
    chunk
        .iter()
        .rev()
        .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
}

/// Cursor-based reader; every method returns `None` on truncation so a
/// corrupt file degrades to a cache miss.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(le_u32)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(le_u64)
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Bounded length prefix: caps vector preallocation to what the buffer
    /// could actually hold, so a corrupt length can't balloon memory.
    fn len(&mut self, elem_bytes: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        (n.saturating_mul(elem_bytes.max(1)) <= self.buf.len() - self.pos.min(self.buf.len()))
            .then_some(n)
    }
}

fn deserialize(bytes: &[u8], spec: &ProgramSpec) -> Option<Program> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(MAGIC.len())? != MAGIC || r.u32()? != FORMAT_VERSION {
        return None;
    }
    let spec_enc = spec_bytes(spec);
    let stored_len = usize::try_from(r.u32()?).ok()?;
    if stored_len != spec_enc.len() || r.take(stored_len)? != spec_enc.as_slice() {
        return None; // hash collision or different generator input
    }
    let image_len = usize::try_from(r.u64()?).ok()?;
    let image = r.take(image_len)?.to_vec();
    let nfuncs = r.len(8)?;
    let weights = (0..nfuncs).map(|_| r.f64()).collect::<Option<Vec<_>>>()?;
    let nrecs = r.len(16)?;
    let mut recs = Vec::with_capacity(nrecs);
    let mut indirect = Vec::new();
    let mut block_start = IMAGE_BASE;
    for _ in 0..nrecs {
        let function = r.u32()?;
        let pc = block_start.checked_add(u64::from(r.u32()?))?;
        let insns = r.u32()?;
        let len = r.u8()?;
        let kind = *BranchKind::ALL.get(usize::from(r.u8()?))?;
        let bias = r.u8()?;
        let backedge = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let target = if kind.is_direct() {
            Some(r.u64()?)
        } else {
            None
        };
        let targets_at = u32::try_from(indirect.len()).ok()?;
        if is_indirect(kind) {
            for _ in 0..r.u32()? {
                indirect.push(r.u64()?);
            }
        }
        recs.push(BranchRecord {
            pc,
            block_start,
            target,
            insns,
            function,
            targets_at,
            len,
            kind,
            bias,
            backedge,
        });
        block_start = pc.checked_add(u64::from(len))?;
    }
    if r.pos != bytes.len() {
        return None; // trailing garbage — treat as corrupt
    }
    Program::from_parts(image, weights, recs, indirect)
}

/// Bytes of a trace file before its columns: magic, version, identity
/// length and bytes, step count and choice count.
fn trace_header_len(ident: &[u8]) -> usize {
    TRACE_MAGIC.len() + 4 + 4 + ident.len() + 8 + 8
}

fn serialize_trace(
    spec: &ProgramSpec,
    seed: u64,
    mean_trip: u32,
    trace: &RecordedTrace,
) -> Vec<u8> {
    let ident = trace_ident(spec, seed, mean_trip);
    let mut out = Vec::with_capacity(trace_header_len(&ident) + trace.byte_size() + 8);
    out.extend_from_slice(TRACE_MAGIC);
    out.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(ident.len() as u32).to_le_bytes());
    out.extend_from_slice(&ident);
    out.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    out.extend_from_slice(&(trace.choices.len() as u64).to_le_bytes());
    for &w in &trace.taken {
        out.extend_from_slice(&w.to_le_bytes());
    }
    for &c in &trace.choices {
        out.extend_from_slice(&c.to_le_bytes());
    }
    let checksum = skia_telemetry::fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

// ---------------------------------------------------------------------------
// File I/O (best-effort)
// ---------------------------------------------------------------------------

/// The whole of the cache file at `path`, metered, or `None` when it
/// cannot be read.
fn read_file(path: &Path) -> Option<Vec<u8>> {
    let bytes = std::fs::read(path).ok()?;
    IO_BYTES_READ.fetch_add(bytes.len() as u64, Ordering::Relaxed);
    Some(bytes)
}

fn try_load(path: &Path, spec: &ProgramSpec) -> Option<Program> {
    deserialize(&read_file(path)?, spec)
}

/// Read a stored trace of `program` from the file `bytes`, keeping at most
/// `want` steps.
///
/// After its header the file holds the taken bitset, one `u32` successor
/// record index per indirect step, and an FNV-1a checksum of every byte
/// before it. A stored trace is at most a few hundred kilobytes (0.56–0.71
/// bytes per step over the paper profiles), so a load reads it whole,
/// whatever the request.
///
/// The load checks the magic, the version, the exact identity echo, the
/// checksum, and that the header's step and choice counts account for the
/// file's length, before it allocates a column. Then it replays the kept
/// steps ([`RecordedTrace::choices_within`]): they must form a walk of
/// `program` (unconditional branches taken, every choice a record index),
/// and a full load must consume every stored choice. So a flipped bit
/// anywhere in the file misses and is re-recorded rather than replayed as
/// a different trace. The returned trace equals [`RecordedTrace::prefix`]
/// of a full load.
fn read_trace(
    bytes: &[u8],
    program: &Program,
    spec: &ProgramSpec,
    seed: u64,
    mean_trip: u32,
    want: usize,
) -> Option<RecordedTrace> {
    let (body, checksum) = bytes.split_at_checked(bytes.len().checked_sub(8)?)?;
    if skia_telemetry::fnv1a(body) != le_u64(checksum) {
        return None;
    }
    let mut r = Reader { buf: body, pos: 0 };
    if r.take(TRACE_MAGIC.len())? != TRACE_MAGIC || r.u32()? != TRACE_FORMAT_VERSION {
        return None;
    }
    let ident = trace_ident(spec, seed, mean_trip);
    if usize::try_from(r.u32()?).ok()? != ident.len() || r.take(ident.len())? != ident.as_slice() {
        return None; // hash collision or different walk identity
    }
    let steps = usize::try_from(r.u64()?).ok()?;
    let stored = usize::try_from(r.u64()?).ok()?;
    let words = steps.div_ceil(64);
    if words.checked_mul(8)?.checked_add(stored.checked_mul(4)?)? != body.len() - r.pos {
        return None; // the counts disagree with the file's length
    }
    let keep = want.min(steps);
    let mut trace = RecordedTrace {
        table: Arc::clone(program.shared_branch_table()),
        steps: keep,
        taken: masked_prefix(r.take(words * 8)?.chunks_exact(8).map(le_u64), keep),
        choices: r.take(stored * 4)?.chunks_exact(4).map(le_u32).collect(),
    };
    let used = trace.choices_within(keep)?;
    if keep == steps && used != stored {
        return None; // choices no step consumes
    }
    trace.choices.truncate(used);
    trace.choices.shrink_to_fit();
    Some(trace)
}

/// Per-process sequence number folded into temp-file names. The process id
/// alone is not enough: two *threads* of one process storing the same key
/// would share a temp path and interleave writes, producing a torn entry
/// that the rename then publishes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Publish one cache entry (program or trace) at `path` inside `dir`. The
/// bytes go to a temp file named per process *and* per call, then renamed
/// into place — atomic on POSIX, so concurrent sweeps never observe a torn
/// entry. Best-effort: a failure leaves no temp file and only costs time.
fn store(dir: &Path, path: &Path, bytes: &[u8]) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = dir.join(format!(
        ".tmp-{}-{}-{}",
        path.file_name().unwrap_or_default().to_string_lossy(),
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let ok = std::fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(bytes))
        .is_ok();
    if ok {
        IO_BYTES_WRITTEN.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let _ = std::fs::rename(&tmp, path);
    } else {
        let _ = std::fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::TraceStep;

    fn test_spec() -> ProgramSpec {
        ProgramSpec {
            functions: 60,
            ..ProgramSpec::default()
        }
    }

    fn assert_programs_equal(a: &Program, b: &Program) {
        assert_eq!(a.base(), b.base());
        assert_eq!(
            a.bytes_at(a.base(), a.code_bytes()),
            b.bytes_at(b.base(), b.code_bytes())
        );
        assert_eq!(a.functions(), b.functions());
        assert_eq!(a.branch_table(), b.branch_table());
    }

    #[test]
    fn serialize_round_trips_exactly() {
        let spec = test_spec();
        let program = Program::generate(&spec);
        let bytes = serialize(&spec, &program);
        let loaded = deserialize(&bytes, &spec).expect("round trip");
        assert_programs_equal(&program, &loaded);
    }

    #[test]
    fn deserialize_rejects_wrong_spec() {
        let spec = test_spec();
        let program = Program::generate(&spec);
        let bytes = serialize(&spec, &program);
        let other = ProgramSpec {
            seed: spec.seed ^ 1,
            ..test_spec()
        };
        assert!(deserialize(&bytes, &other).is_none());
    }

    #[test]
    fn deserialize_rejects_corruption() {
        let spec = test_spec();
        let program = Program::generate(&spec);
        let bytes = serialize(&spec, &program);
        assert!(deserialize(&bytes[..bytes.len() - 1], &spec).is_none());
        assert!(deserialize(&bytes[1..], &spec).is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(deserialize(&trailing, &spec).is_none());
    }

    #[test]
    fn spec_key_is_stable_and_distinguishes() {
        let a = spec_key(&test_spec());
        assert_eq!(a, spec_key(&test_spec()), "same spec, same key");
        // Each field changed in turn: every key differs from the base and
        // from each other.
        type Change = fn(&mut ProgramSpec);
        let changes: [(&str, Change); 8] = [
            ("seed", |s| s.seed ^= 1),
            ("functions", |s| s.functions += 1),
            ("cond_fraction", |s| s.cond_fraction = 0.5),
            ("call_fraction", |s| s.call_fraction = 0.5),
            ("indirect_fraction", |s| s.indirect_fraction = 0.05),
            ("zipf_s", |s| s.zipf_s = 1.2),
            ("mean_trip_count", |s| s.mean_trip_count += 1),
            ("layout", |s| s.layout = Layout::Bolted),
        ];
        let mut keys = vec![a];
        for (field, change) in changes {
            let mut spec = test_spec();
            change(&mut spec);
            let key = spec_key(&spec);
            assert!(!keys.contains(&key), "{field}");
            keys.push(key);
        }
    }

    /// The keys a build stored its files under, computed when the
    /// generator's constants were still spec fields. A constant of
    /// `spec_bytes` that is reordered, dropped or given another value
    /// re-keys every stored program and trace, and fails here.
    #[test]
    fn spec_keys_are_pinned() {
        assert_eq!(spec_key(&ProgramSpec::default()), 0x2226_b181_915a_23a6);
        let voter = crate::profile("voter").unwrap().spec;
        assert_eq!(spec_key(&voter), 0x286e_993b_c4a8_95fb);
    }

    #[test]
    fn load_or_generate_survives_corruption_and_version_bumps() {
        let dir = std::env::temp_dir().join(format!("skia-cache-robust-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Some(dir.as_path());

        let spec = ProgramSpec {
            seed: 0xCAC4E,
            ..test_spec()
        };
        let path = dir.join(format!(
            "program-{:016x}-v{FORMAT_VERSION}.bin",
            spec_key(&spec)
        ));
        let reference = Program::generate(&spec);

        // First call populates the cache.
        assert_programs_equal(&reference, &load_or_generate_in(cache, &spec));
        assert!(path.exists(), "store after miss");
        let good = std::fs::read(&path).unwrap();

        // Truncated entry: falls back to regeneration without panicking,
        // and the rewrite repairs the file.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert_programs_equal(&reference, &load_or_generate_in(cache, &spec));
        assert_eq!(std::fs::read(&path).unwrap(), good, "repaired on reload");

        // Arbitrary garbage: same fallback.
        std::fs::write(&path, b"not a cache entry at all").unwrap();
        assert_programs_equal(&reference, &load_or_generate_in(cache, &spec));

        // Flipped byte in the embedded spec encoding (right after magic +
        // version + length): the exact echo rejects it.
        let mut flipped = good.clone();
        flipped[MAGIC.len() + 4 + 4] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        assert_programs_equal(&reference, &load_or_generate_in(cache, &spec));

        // Version bump: an entry whose embedded format version is newer (or
        // older) misses, regenerates, and never panics.
        let mut bumped = good.clone();
        bumped[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bumped).unwrap();
        assert!(
            deserialize(&bumped, &spec).is_none(),
            "bumped version misses"
        );
        assert_programs_equal(&reference, &load_or_generate_in(cache, &spec));

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Offset of the record section in a serialized program: past the
    /// header, the image and the function weights, at the record count.
    fn records_at(spec: &ProgramSpec, program: &Program) -> usize {
        MAGIC.len()
            + 4
            + 4
            + spec_bytes(spec).len()
            + 8
            + program.code_bytes()
            + 8
            + 8 * program.functions().len()
    }

    /// Every byte of the record section, XORed with 0xFF in turn: a load
    /// either misses, regenerates and repairs the file, or returns a
    /// program the walker steps through (a flip that leaves a well-formed
    /// program — a bias, an instruction count — is not caught).
    #[test]
    fn program_load_rejects_record_flips_or_walks_cleanly() {
        let dir = std::env::temp_dir().join(format!("skia-prog-flip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Some(dir.as_path());
        let spec = ProgramSpec {
            functions: 10,
            ..test_spec()
        };
        let path = dir.join(format!(
            "program-{:016x}-v{FORMAT_VERSION}.bin",
            spec_key(&spec)
        ));
        let reference = load_or_generate_in(cache, &spec);
        let good = std::fs::read(&path).unwrap();
        let start = records_at(&spec, &reference);
        assert_eq!(
            le_u64(&good[start..start + 8]),
            reference.branch_count() as u64
        );

        // A taken call whose target is rewritten to target + 1: the file
        // parses, but the target is no block start.
        let recs = reference.branch_table().records();
        let call = recs
            .iter()
            .position(|r| r.kind == BranchKind::Call)
            .expect("a call");
        let mut at = start + 8;
        for (i, r) in recs[..call].iter().enumerate() {
            at += 16 + if r.kind.is_direct() { 8 } else { 0 };
            if is_indirect(r.kind) {
                at += 4 + 8 * reference.branch_table().indirect_targets(i).len();
            }
        }
        let target = recs[call].target.unwrap();
        assert_eq!(le_u64(&good[at + 16..at + 24]), target);
        let mut bad = good.clone();
        bad[at + 16..at + 24].copy_from_slice(&(target + 1).to_le_bytes());
        assert!(
            deserialize(&bad, &spec).is_none(),
            "call target off a block"
        );

        let (mut missed, mut walked) = (0, 0);
        for i in start..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            std::fs::write(&path, &bad).unwrap();
            let loaded = load_or_generate_in(cache, &spec);
            if deserialize(&bad, &spec).is_none() {
                assert_programs_equal(&reference, &loaded);
                assert_eq!(std::fs::read(&path).unwrap(), good, "repaired at {i}");
                missed += 1;
            } else {
                assert_eq!(RecordedTrace::record(&loaded, 7, 6, 2_000).len(), 2_000);
                walked += 1;
            }
        }
        assert!(missed > 0 && walked > 0, "{missed} missed, {walked} walked");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An unwritable (or unreadable-for-new-entries) cache directory must
    /// only cost time: a read-only cache dir still
    /// produces correct programs and traces, and a pre-populated entry in a
    /// read-only dir is still served.
    #[test]
    #[cfg(unix)]
    fn read_only_cache_dir_degrades_to_regeneration() {
        use std::os::unix::fs::PermissionsExt as _;

        let dir = std::env::temp_dir().join(format!("skia-cache-ro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let spec = ProgramSpec {
            seed: 0x0D1,
            ..test_spec()
        };
        let reference = Program::generate(&spec);

        // Pre-populate one entry while the dir is still writable, then make
        // the dir read-only (r-x: readable, not writable).
        let hot = ProgramSpec {
            seed: 0x0D2,
            ..test_spec()
        };
        let hot_path = dir.join(format!(
            "program-{:016x}-v{FORMAT_VERSION}.bin",
            spec_key(&hot)
        ));
        let hot_reference = Program::generate(&hot);
        store(&dir, &hot_path, &serialize(&hot, &hot_reference));
        assert!(hot_path.exists());
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o555)).unwrap();

        // Miss in a read-only dir: generated, store fails silently.
        assert_programs_equal(&reference, &load_or_generate_in(Some(&dir), &spec));
        // Hit in a read-only dir: served from disk.
        assert_programs_equal(&hot_reference, &load_or_generate_in(Some(&dir), &hot));
        // A nested dir that can't be created degrades the same way.
        let nested = dir.join("nested");
        assert_programs_equal(&reference, &load_or_generate_in(Some(&nested), &spec));

        // Traces degrade the same way (explicit-dir variant, same dir).
        let program = Program::generate(&spec);
        let (trace, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 3, 8, 120);
        assert_eq!(outcome, TraceCacheOutcome::Recorded);
        assert_eq!(trace, RecordedTrace::record(&program, 3, 8, 120));

        // No stray temp files may survive the failed stores.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");

        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o755)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_serialize_round_trips_exactly() {
        let spec = test_spec();
        let program = Program::generate(&spec);
        let trace = RecordedTrace::record(&program, 42, 8, 777);
        let bytes = serialize_trace(&spec, 42, 8, &trace);
        let loaded = read_trace(&bytes, &program, &spec, 42, 8, usize::MAX).expect("round trip");
        assert_eq!(trace, loaded);
        let short = read_trace(&bytes, &program, &spec, 42, 8, 300).expect("prefix");
        assert_eq!(trace.prefix(300), short);
    }

    #[test]
    fn trace_deserialize_rejects_wrong_identity() {
        let spec = test_spec();
        let program = Program::generate(&spec);
        let trace = RecordedTrace::record(&program, 42, 8, 200);
        let bytes = serialize_trace(&spec, 42, 8, &trace);
        // Different seed, different mean trip, different spec: all miss.
        assert!(read_trace(&bytes, &program, &spec, 43, 8, usize::MAX).is_none());
        assert!(read_trace(&bytes, &program, &spec, 42, 9, usize::MAX).is_none());
        let other = ProgramSpec {
            seed: spec.seed ^ 1,
            ..test_spec()
        };
        assert!(read_trace(&bytes, &program, &other, 42, 8, usize::MAX).is_none());
    }

    #[test]
    fn trace_deserialize_rejects_corruption() {
        let spec = test_spec();
        let program = Program::generate(&spec);
        let trace = RecordedTrace::record(&program, 7, 5, 300);
        let bytes = serialize_trace(&spec, 7, 5, &trace);
        let load = |b: &[u8]| read_trace(b, &program, &spec, 7, 5, usize::MAX);
        assert_eq!(load(&bytes), Some(trace.clone()));
        // Truncation, a clobbered header byte, trailing garbage, and files
        // too short to hold a checksum.
        assert!(load(&bytes[..bytes.len() - 1]).is_none());
        assert!(load(&bytes[1..]).is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(load(&trailing).is_none());
        assert!(load(&bytes[..7]).is_none());
        assert!(load(&[]).is_none());
    }

    /// `bytes` with its checksum recomputed over the rest, as a writer
    /// would have stored them.
    fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
        let body = bytes.len() - 8;
        let checksum = skia_telemetry::fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Byte offsets of the taken and choice columns of a serialized
    /// `trace`.
    fn trace_columns(bytes: &[u8], trace: &RecordedTrace) -> (usize, usize) {
        let choices_at = bytes.len() - 8 - trace.choices.len() * 4;
        (choices_at - trace.len().div_ceil(64) * 8, choices_at)
    }

    /// Behind a valid checksum a load still checks the header's counts
    /// against the file's length and replays the steps it keeps: a file
    /// whose steps stop forming a walk misses, however it was written.
    #[test]
    fn trace_load_replays_the_kept_steps() {
        let spec = test_spec();
        let program = Program::generate(&spec);
        let trace = RecordedTrace::record(&program, 7, 5, 300);
        let bytes = serialize_trace(&spec, 7, 5, &trace);
        let load = |b: &[u8], want| read_trace(b, &program, &spec, 7, 5, want);
        let (taken_at, choices_at) = trace_columns(&bytes, &trace);
        let steps: Vec<TraceStep> = trace.replay().collect();

        // A return's taken bit cleared.
        let ret = steps
            .iter()
            .rposition(|s| s.kind == BranchKind::Return)
            .unwrap();
        let mut bad = bytes.clone();
        bad[taken_at + ret / 8] ^= 1 << (ret % 8);
        let bad = resealed(bad);
        assert!(load(&bad, usize::MAX).is_none());
        assert!(load(&bad, ret).is_some(), "the steps before it still walk");
        // The last choice pointed past the table.
        let mut bad = bytes.clone();
        let last = choices_at + 4 * (trace.choices.len() - 1);
        bad[last..last + 4].copy_from_slice(&(program.branch_count() as u32).to_le_bytes());
        assert!(load(&resealed(bad), usize::MAX).is_none());
        // A choice no step consumes: a full load misses, a prefix load keeps
        // only the choices its steps consume.
        let mut bad = bytes[..bytes.len() - 8].to_vec();
        let choice_count_at = taken_at - 8;
        bad[choice_count_at..choice_count_at + 8]
            .copy_from_slice(&(trace.choices.len() as u64 + 1).to_le_bytes());
        bad.extend_from_slice(&0u32.to_le_bytes());
        bad.extend_from_slice(&[0; 8]);
        let bad = resealed(bad);
        assert!(load(&bad, usize::MAX).is_none());
        assert_eq!(load(&bad, 299), Some(trace.prefix(299)));
        // Step and choice counts past the file's length.
        for at in [choice_count_at - 8, choice_count_at] {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(load(&resealed(bad), 10).is_none());
        }
    }

    /// Every bit of a small stored file, flipped in turn — header, taken
    /// column, choice column and checksum: the load misses and re-records
    /// the reference trace, for a full request and for a prefix request.
    #[test]
    fn trace_load_rejects_every_bit_flip() {
        const STEPS: usize = 300;
        const PREFIX: usize = 200;
        let dir = std::env::temp_dir().join(format!("skia-trace-flip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = test_spec();
        let program = Program::generate(&spec);
        let path = dir.join(format!(
            "trace-{:016x}-v{TRACE_FORMAT_VERSION}.bin",
            trace_key(&spec, 3, 8)
        ));
        let (reference, _) = load_or_record_trace_in(Some(&dir), &program, &spec, 3, 8, STEPS);
        let good = std::fs::read(&path).unwrap();
        let (taken_at, choices_at) = trace_columns(&good, &reference);
        assert_eq!(taken_at, trace_header_len(&trace_ident(&spec, 3, 8)));
        assert!(taken_at < choices_at && choices_at < good.len() - 8);
        let short = reference.prefix(PREFIX);
        for bit in 0..good.len() * 8 {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            for (steps, want) in [(STEPS, &reference), (PREFIX, &short)] {
                std::fs::write(&path, &bad).unwrap();
                let (t, outcome) =
                    load_or_record_trace_in(Some(&dir), &program, &spec, 3, 8, steps);
                assert_eq!(
                    outcome,
                    TraceCacheOutcome::Recorded,
                    "bit {bit}, {steps} steps"
                );
                assert_eq!(&t, want, "bit {bit}, {steps} steps");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_key_distinguishes_walk_identity() {
        let spec = test_spec();
        let a = trace_key(&spec, 1, 8);
        assert_eq!(a, trace_key(&spec, 1, 8));
        assert_ne!(a, trace_key(&spec, 2, 8));
        assert_ne!(a, trace_key(&spec, 1, 9));
        let other = ProgramSpec {
            zipf_s: 1.2,
            ..test_spec()
        };
        assert_ne!(a, trace_key(&other, 1, 8));
    }

    #[test]
    fn trace_cache_serves_prefixes_and_upgrades_on_longer_requests() {
        let dir = std::env::temp_dir().join(format!("skia-trace-prefix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = test_spec();
        let program = Program::generate(&spec);

        // Disabled cache records live.
        let (live, outcome) = load_or_record_trace_in(None, &program, &spec, 5, 8, 400);
        assert_eq!(outcome, TraceCacheOutcome::Recorded);

        // First store.
        let (first, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 5, 8, 400);
        assert_eq!(outcome, TraceCacheOutcome::Recorded);
        assert_eq!(live, first);

        // Same length: disk hit, identical trace.
        let (again, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 5, 8, 400);
        assert_eq!(outcome, TraceCacheOutcome::DiskHit);
        assert_eq!(first, again);

        // Shorter request: served as a prefix, equal to a fresh short walk.
        let (short, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 5, 8, 150);
        assert_eq!(outcome, TraceCacheOutcome::DiskHit);
        assert_eq!(short, RecordedTrace::record(&program, 5, 8, 150));

        // Longer request: re-recorded and the entry upgraded, so the next
        // long request hits.
        let (long, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 5, 8, 900);
        assert_eq!(outcome, TraceCacheOutcome::Recorded);
        assert_eq!(long.len(), 900);
        let (long2, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 5, 8, 900);
        assert_eq!(outcome, TraceCacheOutcome::DiskHit);
        assert_eq!(long, long2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_cache_survives_corruption_and_version_bumps() {
        let dir = std::env::temp_dir().join(format!("skia-trace-robust-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = ProgramSpec {
            seed: 0x7AC4E,
            ..test_spec()
        };
        let program = Program::generate(&spec);
        let path = dir.join(format!(
            "trace-{:016x}-v{TRACE_FORMAT_VERSION}.bin",
            trace_key(&spec, 9, 6)
        ));
        let reference = RecordedTrace::record(&program, 9, 6, 500);

        // First call populates the cache.
        let (t, _) = load_or_record_trace_in(Some(&dir), &program, &spec, 9, 6, 500);
        assert_eq!(t, reference);
        assert!(path.exists(), "store after miss");
        let good = std::fs::read(&path).unwrap();

        // Truncated entry: falls back to re-recording, and the rewrite
        // repairs the file.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        let (t, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 9, 6, 500);
        assert_eq!(outcome, TraceCacheOutcome::Recorded);
        assert_eq!(t, reference);
        assert_eq!(std::fs::read(&path).unwrap(), good, "repaired on reload");

        // Arbitrary garbage: same fallback.
        std::fs::write(&path, b"not a trace entry").unwrap();
        let (t, _) = load_or_record_trace_in(Some(&dir), &program, &spec, 9, 6, 500);
        assert_eq!(t, reference);

        // Flipped byte in the embedded identity: exact echo rejects it.
        let mut flipped = good.clone();
        flipped[TRACE_MAGIC.len() + 4 + 4] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        let (t, _) = load_or_record_trace_in(Some(&dir), &program, &spec, 9, 6, 500);
        assert_eq!(t, reference);

        // Version bump: misses, re-records, never panics.
        let mut bumped = good.clone();
        bumped[TRACE_MAGIC.len()..TRACE_MAGIC.len() + 4]
            .copy_from_slice(&(TRACE_FORMAT_VERSION + 1).to_le_bytes());
        let bumped = resealed(bumped);
        std::fs::write(&path, &bumped).unwrap();
        assert!(read_trace(&bumped, &program, &spec, 9, 6, usize::MAX).is_none());
        let (t, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 9, 6, 500);
        assert_eq!(outcome, TraceCacheOutcome::Recorded);
        assert_eq!(t, reference);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The I/O totals are process-wide and other tests run concurrently, so
    /// every assertion here is a *lower bound on the delta* — concurrent
    /// cache traffic can only add to the counters, never subtract.
    #[test]
    fn io_counters_meter_whole_file_reads() {
        let dir = std::env::temp_dir().join(format!("skia-cache-io-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = ProgramSpec {
            seed: 0x10C0,
            ..test_spec()
        };
        let program = Program::generate(&spec);
        const STEPS: usize = 4096;

        // Store: bytes_written grows by at least the serialized trace size.
        let before = trace_cache_io();
        let (trace, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 11, 8, STEPS);
        assert_eq!(outcome, TraceCacheOutcome::Recorded);
        let stored_bytes = serialize_trace(&spec, 11, 8, &trace).len() as u64;
        let mut last = trace_cache_io();
        assert!(
            last.bytes_written >= before.bytes_written + stored_bytes,
            "store must meter its bytes: {before:?} -> {last:?}"
        );

        // A full hit and a prefix hit each read the whole file.
        for steps in [STEPS, 64] {
            let (t, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 11, 8, steps);
            assert_eq!(outcome, TraceCacheOutcome::DiskHit);
            assert_eq!(t.len(), steps);
            let now = trace_cache_io();
            assert!(
                now.bytes_read >= last.bytes_read + stored_bytes,
                "a {steps}-step hit reads the whole file"
            );
            last = now;
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_or_generate_hits_its_own_store() {
        let dir = std::env::temp_dir().join(format!("skia-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = test_spec();
        let key = spec_key(&spec);
        let path = dir.join(format!("program-{key:016x}-v{FORMAT_VERSION}.bin"));

        let generated = Program::generate(&spec);
        store(&dir, &path, &serialize(&spec, &generated));
        let cached = try_load(&path, &spec).expect("stored entry loads");
        assert_programs_equal(&generated, &cached);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
