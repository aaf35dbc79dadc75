//! The traced run: one pass with spans around every layer call, a paired
//! Skia-off/Skia-on probe per benchmark, and isolated replays of each layer
//! on inputs harvested from the workload's own traces. Produces the
//! per-layer metrics, `layers.json` and a Chrome trace.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use skia_core::{Sbb, ShadowBranch, ShadowDecoder, SkiaConfig};
use skia_experiments::{geomean, JsonEmitter, Workload};
use skia_frontend::{SimStats, Simulator};
use skia_isa::{decode, BranchKind, CACHE_LINE_BYTES};
use skia_uarch::btb::{Btb, BtbConfig};
use skia_uarch::cache::{Hierarchy, HierarchyConfig};
use skia_uarch::ittage::Ittage;
use skia_uarch::tage::{Tage, TageConfig};
use skia_workloads::{load_or_generate_in, Program, RecordedTrace};

use crate::check::{Checker, TraceSums};
use crate::pass::{self, EmitCost, Loaded, Pass};
use crate::spans::{self, Tracer};
use crate::workload::Spec;

/// Steps per benchmark the isolated layer replays harvest their inputs from.
const ISOLATED_STEPS: usize = 100_000;

/// The paper's share of BTB misses whose line is already L1-I resident.
const PAPER_L1I_RESIDENT_FRAC: f64 = 0.75;

/// Where the traced run keeps its files.
pub struct Paths<'a> {
    /// Cache directory of the traced pass (already filled for a warm
    /// workload, empty for the cold one).
    pub cache: &'a Path,
    /// Scratch file for the emit path.
    pub emit: &'a Path,
    /// Directory receiving `layers.json` and `trace.json`.
    pub out: &'a Path,
}

/// Per-layer metrics, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Run the traced measurement of `spec`; `reference_wall_s` is the wall
/// time of an untraced pass of it.
pub fn run(spec: &Spec, reference_wall_s: f64, paths: &Paths, checker: &mut Checker) -> Metrics {
    let tracer = Tracer::new(true);
    let (traced, loaded) = tracer.span(
        || "pass".into(),
        || pass::run(spec, paths.cache, paths.emit, &tracer, checker),
    );

    let mut m = Metrics::new();
    m.insert(
        "trace_overhead_frac",
        per(traced.wall_s - reference_wall_s, reference_wall_s),
    );
    pass_metrics(spec, &traced, &mut m);
    probe(spec, &loaded, paths.emit, &tracer, checker, &mut m);
    isolated(spec, &loaded, paths.cache, &tracer, &mut m);

    let spans = tracer.spans();
    let self_ns = spans::self_ns_by_layer(&spans);
    for (layer, name) in SELF_MS {
        m.insert(name, self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6);
    }
    write_outputs(spec, paths.out, &m, &spans);
    m
}

/// Layers whose self time is reported (as named by the span prefixes),
/// with their metric names.
const SELF_MS: [(&str, &str); 8] = [
    ("harness", "self_ms.harness"),
    ("workloads", "self_ms.workloads"),
    ("frontend", "self_ms.frontend"),
    ("core", "self_ms.core"),
    ("uarch", "self_ms.uarch"),
    ("isa", "self_ms.isa"),
    ("telemetry", "self_ms.telemetry"),
    ("experiments", "self_ms.experiments"),
];

/// Metrics read off the traced pass's set-up timings and job stats.
fn pass_metrics(spec: &Spec, p: &Pass, m: &mut Metrics) {
    let mean_ms = |v: &[u64]| per(v.iter().sum::<u64>() as f64, v.len() as f64) / 1e6;
    m.insert("workloads.program_ms", mean_ms(&p.program_ns));
    m.insert("workloads.trace_ms", mean_ms(&p.trace_ns));
    m.insert("workloads.read_mb", p.read_bytes as f64 / 1e6);
    m.insert("workloads.written_mb", p.written_bytes as f64 / 1e6);

    let jobs = spec.jobs();
    let ok: Vec<(usize, &SimStats)> = p
        .stats
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
        .collect();
    let sum = |f: &dyn Fn(&SimStats) -> u64| ok.iter().map(|(_, s)| f(s)).sum::<u64>() as f64;
    let skia_sum =
        |f: &dyn Fn(&skia_core::SkiaStats) -> u64| sum(&|s| s.skia.as_ref().map_or(0, f));
    let steps = sum(&|s| s.branches);
    let insns = sum(&|s| s.instructions);
    let busy_ns: f64 = ok.iter().map(|(i, _)| p.job_ns[*i] as f64).sum();
    let wrong_path = sum(&|s| s.wrong_path_blocks);

    m.insert("frontend.ns_per_block", per(busy_ns, steps + wrong_path));
    m.insert(
        "frontend.wrong_path_blocks_per_step",
        per(wrong_path, steps),
    );
    m.insert(
        "frontend.wrong_path_prefetches_per_step",
        per(sum(&|s| s.wrong_path_prefetches), steps),
    );
    m.insert(
        "frontend.resteers_per_kinst",
        per(1e3 * sum(&|s| s.decode_resteers + s.exec_resteers), insns),
    );
    m.insert(
        "core.head_regions_per_step",
        per(skia_sum(&|k| k.sbd.head_regions), steps),
    );
    m.insert(
        "core.tail_regions_per_step",
        per(skia_sum(&|k| k.sbd.tail_regions), steps),
    );
    m.insert(
        "core.sbb_lookups_per_step",
        per(skia_sum(&|k| k.sbb.lookups), steps),
    );
    m.insert(
        "core.sbb_inserts_per_step",
        per(skia_sum(&|k| k.sbb.u_inserts + k.sbb.r_inserts), steps),
    );
    let useful = skia_sum(&|k| k.useful_uses);
    m.insert(
        "core.sbb_useful_frac",
        per(useful, useful + skia_sum(&|k| k.bogus_uses)),
    );
    m.insert("uarch.btb_mpki", per(1e3 * sum(&|s| s.btb_misses), insns));
    m.insert("uarch.l1i_mpki", per(1e3 * sum(&|s| s.l1i.misses()), insns));
    m.insert(
        "uarch.cond_mpki",
        per(1e3 * sum(&|s| s.cond_mispredicts), insns),
    );

    m.insert(
        "model.ipc_geomean",
        geomean(ok.iter().map(|(_, s)| s.ipc())),
    );
    m.insert(
        "model.btb_mpki_mean",
        per(ok.iter().map(|(_, s)| s.btb_mpki()).sum(), ok.len() as f64),
    );
    let baseline: Vec<&SimStats> = ok
        .iter()
        .filter(|(i, _)| spec.configs[jobs[*i].config].0 == "btb-8k")
        .map(|(_, s)| *s)
        .collect();
    m.insert(
        "model.l1i_resident_frac",
        per(
            baseline
                .iter()
                .map(|s| s.btb_miss_l1i_resident)
                .sum::<u64>() as f64,
            baseline.iter().map(|s| s.btb_misses).sum::<u64>() as f64,
        ),
    );
    m.insert(
        "model.bogus_rate",
        per(
            skia_sum(&|k| k.bogus_uses),
            skia_sum(&|k| k.sbb.u_inserts + k.sbb.r_inserts),
        ),
    );
    // Skia over baseline on the pass's own jobs, where it runs both.
    let of = |bench: usize, label: &str| {
        ok.iter()
            .find(|(i, _)| jobs[*i].bench == bench && spec.configs[jobs[*i].config].0 == label)
            .map(|(_, s)| *s)
    };
    let speedups: Vec<f64> = (0..spec.benches.len())
        .filter_map(|b| Some(of(b, "skia")?.speedup_over(of(b, "btb-8k")?)))
        .collect();
    if !speedups.is_empty() {
        m.insert("model.skia_speedup_pct", 100.0 * (geomean(speedups) - 1.0));
    }
}

/// Paired Skia-off / Skia-on / Skia-on-instrumented runs of every
/// benchmark's trace prefix, then the emit path over the instrumented
/// snapshots.
fn probe(
    spec: &Spec,
    loaded: &Loaded,
    emit_path: &Path,
    tracer: &Tracer,
    checker: &mut Checker,
    m: &mut Metrics,
) {
    let probe = spec.probe();
    let (off, on) = (&probe.configs[0], &probe.configs[1]);
    let (mut off_ns, mut on_ns, mut instr_ns, mut steps) = (0.0, 0.0, 0.0, 0.0);
    let mut speedups = Vec::new();
    let mut snapshots = Vec::new();
    for (w, trace) in loaded.workloads.iter().zip(&loaded.traces) {
        let sums = TraceSums::of(trace, probe.steps);
        let mut run = |(label, config): &(&str, skia_frontend::FrontendConfig),
                       instrumented: bool| {
            let name = format!("{}/{label}/{}", w.profile.name, probe.steps);
            let t = Instant::now();
            let (stats, snap) = tracer.span(
                || format!("frontend.probe:{name}"),
                || {
                    if instrumented {
                        let (s, snap) = w.run_instrumented_trace(
                            config.clone(),
                            trace,
                            probe.steps,
                            Some(JsonEmitter::TRACE),
                        );
                        (s, Some(snap))
                    } else {
                        (w.run_trace(config.clone(), trace, probe.steps), None)
                    }
                },
            );
            let ns = elapsed_ns(t);
            checker.job(&name, Ok(&stats), sums, config.skia.is_some());
            (stats, snap, ns)
        };
        let (base, _, ns) = run(off, false);
        off_ns += ns;
        let (skia, _, ns) = run(on, false);
        on_ns += ns;
        let (_, snap, ns) = run(on, true);
        instr_ns += ns;
        snapshots.extend(snap);
        steps += probe.steps as f64;
        speedups.push(skia.speedup_over(&base));
    }
    m.insert("frontend.ns_per_step.skia_off", per(off_ns, steps));
    m.insert("frontend.ns_per_step.skia_on", per(on_ns, steps));
    m.insert("core.marginal_ns_per_step", per(on_ns - off_ns, steps));
    m.insert(
        "telemetry.instrumented_overhead_frac",
        per(instr_ns - on_ns, on_ns),
    );
    m.entry("model.skia_speedup_pct")
        .or_insert(100.0 * (geomean(speedups) - 1.0));

    let (cost, parsed): (EmitCost, _) = pass::emit(spec, emit_path, snapshots, tracer);
    if let Err(e) = parsed {
        checker.fail(&format!("probe emit: {e}"));
    }
    m.insert("telemetry.finish_ms", cost.finish_ns as f64 / 1e6);
    m.insert("telemetry.parse_ms", cost.parse_ns as f64 / 1e6);
    m.insert("telemetry.snapshot_mb", cost.snapshot_bytes as f64 / 1e6);
    m.insert("experiments.manifest_ms", cost.manifest_ns as f64 / 1e6);
}

/// A shadow-decode opportunity on the true path: a block entered mid-line
/// by a taken branch (head) or left mid-line by one (tail).
struct Region {
    head: bool,
    line_base: u64,
    offset: usize,
    line: [u8; CACHE_LINE_BYTES],
}

/// One retired branch of the harvested prefix.
struct Retired {
    pc: u64,
    kind: BranchKind,
    taken: bool,
    next_pc: u64,
    /// What the BTB would be trained with.
    btb_target: u64,
    len: u8,
}

/// Layer inputs harvested from the first steps of one benchmark's trace.
struct Harvest {
    regions: Vec<Region>,
    retired: Vec<Retired>,
    /// Every line each retired block spans, in fetch order.
    lines: Vec<u64>,
    /// `(block start, terminating branch pc)` per step.
    blocks: Vec<(u64, u64)>,
}

fn harvest(program: &Program, trace: &RecordedTrace, steps: usize) -> Harvest {
    let mut h = Harvest {
        regions: Vec::new(),
        retired: Vec::new(),
        lines: Vec::new(),
        blocks: Vec::new(),
    };
    let line_mask = !(CACHE_LINE_BYTES as u64 - 1);
    let mut entered_by_taken = false;
    for step in trace.replay().take(steps) {
        let entry = (step.block_start % CACHE_LINE_BYTES as u64) as usize;
        if entered_by_taken && entry != 0 {
            let (line_base, line) = program.line(step.block_start);
            h.regions.push(Region {
                head: true,
                line_base,
                offset: entry,
                line,
            });
        }
        let end = step.branch_pc + u64::from(step.branch_len);
        if step.taken {
            let (line_base, line) = program.line(end - 1);
            let offset = (end - line_base) as usize;
            if offset < CACHE_LINE_BYTES {
                h.regions.push(Region {
                    head: false,
                    line_base,
                    offset,
                    line,
                });
            }
        }
        entered_by_taken = step.taken;
        let static_target = program.branch_at(step.branch_pc).and_then(|b| b.target);
        h.retired.push(Retired {
            pc: step.branch_pc,
            kind: step.kind,
            taken: step.taken,
            next_pc: step.next_pc,
            btb_target: match step.kind {
                BranchKind::DirectCond | BranchKind::DirectUncond | BranchKind::Call => {
                    static_target.unwrap_or(step.next_pc)
                }
                _ => step.next_pc,
            },
            len: step.branch_len,
        });
        let mut line = step.block_start & line_mask;
        while line < end {
            h.lines.push(line);
            line += CACHE_LINE_BYTES as u64;
        }
        h.blocks.push((step.block_start, step.branch_pc));
    }
    h
}

/// Sums of isolated-replay work and time over the workload's benchmarks.
#[derive(Default)]
struct Iso {
    head_miss: (f64, f64),
    head_hit: (f64, f64),
    tail_miss: (f64, f64),
    tail_hit: (f64, f64),
    head_distinct: f64,
    sbb_insert: (f64, f64),
    sbb_lookup: (f64, f64),
    btb: (f64, f64),
    btb_hits: f64,
    tage: (f64, f64),
    tage_correct: f64,
    ittage: (f64, f64),
    l1i: (f64, f64),
    l1i_hits: f64,
    decode: (f64, f64),
    generate_ns: f64,
    load_ns: f64,
    record: (f64, f64),
    sim_new: (f64, f64),
}

fn add(acc: &mut (f64, f64), ns: f64, count: usize) {
    acc.0 += ns;
    acc.1 += count as f64;
}

/// Time `f` inside a span; returns its value and nanoseconds.
fn timed<R>(tracer: &Tracer, name: impl FnOnce() -> String, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = tracer.span(name, f);
    (r, elapsed_ns(t))
}

fn isolated(spec: &Spec, loaded: &Loaded, cache: &Path, tracer: &Tracer, m: &mut Metrics) {
    let skia = SkiaConfig::default();
    let decoder = || ShadowDecoder::new(skia.index_policy, skia.max_valid_paths);
    let mut iso = Iso::default();
    for (w, trace) in loaded.workloads.iter().zip(&loaded.traces) {
        let name = w.profile.name;
        let steps = ISOLATED_STEPS.min(trace.len());
        let h = harvest(&w.program, trace, steps);
        shadow_decode(&h, name, tracer, &decoder, &mut iso);
        uarch(&h, name, tracer, &mut iso);

        let (insns, ns) = timed(
            tracer,
            || format!("isa.decode:{name}"),
            || {
                let mut insns = 0usize;
                for &(start, branch_pc) in &h.blocks {
                    let mut pc = start;
                    while pc <= branch_pc {
                        match decode::decode(w.program.bytes_at(pc, skia_isa::MAX_INSN_LEN)) {
                            Ok(d) => pc += u64::from(black_box(d).len),
                            Err(_) => break,
                        }
                        insns += 1;
                    }
                }
                insns
            },
        );
        add(&mut iso.decode, ns, insns);

        workloads(w, cache, steps, tracer, &mut iso);
    }
    let program = &loaded.workloads[0].program;
    for (label, config) in &spec.configs {
        let (sim, ns) = timed(
            tracer,
            || format!("frontend.sim_new:{label}"),
            || Simulator::new(program, config.clone()),
        );
        drop(black_box(sim));
        add(&mut iso.sim_new, ns, 1);
    }

    let ns_per = |(ns, n): (f64, f64)| per(ns, n);
    m.insert("core.head_decode_ns.miss", ns_per(iso.head_miss));
    m.insert("core.head_decode_ns.hit", ns_per(iso.head_hit));
    m.insert("core.tail_decode_ns.miss", ns_per(iso.tail_miss));
    m.insert("core.tail_decode_ns.hit", ns_per(iso.tail_hit));
    m.insert(
        "core.head_memo_hit_frac",
        1.0 - per(iso.head_distinct, iso.head_hit.1),
    );
    m.insert("core.sbb_insert_ns", ns_per(iso.sbb_insert));
    m.insert("core.sbb_lookup_ns", ns_per(iso.sbb_lookup));
    m.insert("uarch.btb_ns_per_branch", ns_per(iso.btb));
    m.insert("uarch.btb_hit_frac", per(iso.btb_hits, iso.btb.1));
    m.insert("uarch.tage_ns_per_cond", ns_per(iso.tage));
    m.insert("uarch.tage_accuracy", per(iso.tage_correct, iso.tage.1));
    m.insert("uarch.ittage_ns_per_indirect", ns_per(iso.ittage));
    m.insert("uarch.l1i_ns_per_line", ns_per(iso.l1i));
    m.insert("uarch.l1i_hit_frac", per(iso.l1i_hits, iso.l1i.1));
    m.insert("isa.decode_ns_per_insn", ns_per(iso.decode));
    m.insert(
        "workloads.generate_ms",
        per(iso.generate_ns, loaded.workloads.len() as f64) / 1e6,
    );
    m.insert("workloads.load_speedup", per(iso.generate_ns, iso.load_ns));
    m.insert(
        "workloads.record_msteps_per_s",
        per(iso.record.1 * 1e3, iso.record.0),
    );
    m.insert("frontend.sim_new_ms", ns_per(iso.sim_new) / 1e6);
}

/// Head and tail regions through a fresh decoder per distinct region
/// (memo miss) and through one reused decoder (memo hit); the branches
/// they expose through the SBB.
fn shadow_decode(
    h: &Harvest,
    name: &str,
    tracer: &Tracer,
    decoder: &dyn Fn() -> ShadowDecoder,
    iso: &mut Iso,
) {
    for head in [true, false] {
        let side = if head { "head" } else { "tail" };
        let mut seen = HashSet::new();
        let distinct: Vec<&Region> = h
            .regions
            .iter()
            .filter(|r| r.head == head && seen.insert((r.line_base, r.offset)))
            .collect();
        let decode_one = |d: &mut ShadowDecoder, r: &Region| {
            if head {
                black_box(d.decode_head_ref(&r.line, r.line_base, r.offset));
            } else {
                black_box(d.decode_tail_ref(&r.line, r.line_base, r.offset));
            }
        };
        let ((), ns) = timed(
            tracer,
            || format!("core.{side}_decode.miss:{name}"),
            || {
                for r in &distinct {
                    decode_one(&mut decoder(), r);
                }
            },
        );
        let acc = if head {
            &mut iso.head_miss
        } else {
            &mut iso.tail_miss
        };
        add(acc, ns, distinct.len());

        let mut d = decoder();
        let all: Vec<&Region> = h.regions.iter().filter(|r| r.head == head).collect();
        for r in &all {
            decode_one(&mut d, r);
        }
        let ((), ns) = timed(
            tracer,
            || format!("core.{side}_decode.hit:{name}"),
            || {
                for r in &all {
                    decode_one(&mut d, r);
                }
            },
        );
        let acc = if head {
            &mut iso.head_hit
        } else {
            &mut iso.tail_hit
        };
        add(acc, ns, all.len());
        if head {
            iso.head_distinct += distinct.len() as f64;
        }
    }

    let mut d = decoder();
    let mut found: Vec<ShadowBranch> = Vec::new();
    for r in &h.regions {
        if r.head {
            found.extend_from_slice(&d.decode_head(&r.line, r.line_base, r.offset).branches);
        } else {
            found.extend_from_slice(&d.decode_tail(&r.line, r.line_base, r.offset));
        }
    }
    let mut sbb = Sbb::new(SkiaConfig::default().sbb);
    let ((), ns) = timed(
        tracer,
        || format!("core.sbb_insert:{name}"),
        || {
            for b in &found {
                black_box(sbb.insert(b));
            }
        },
    );
    add(&mut iso.sbb_insert, ns, found.len());
    let ((), ns) = timed(
        tracer,
        || format!("core.sbb_lookup:{name}"),
        || {
            for r in &h.retired {
                black_box(sbb.lookup(r.pc));
            }
        },
    );
    add(&mut iso.sbb_lookup, ns, h.retired.len());
}

/// The retired branch stream through a BTB, TAGE and ITTAGE of the paper's
/// geometry, and every block line through the cache hierarchy.
fn uarch(h: &Harvest, name: &str, tracer: &Tracer, iso: &mut Iso) {
    let fe = skia_frontend::FrontendConfig::alder_lake_like();
    let mut btb = Btb::new(BtbConfig::with_entries(8192));
    let (hits, ns) = timed(
        tracer,
        || format!("uarch.btb:{name}"),
        || {
            let mut hits = 0usize;
            for r in &h.retired {
                hits += usize::from(btb.lookup(r.pc).is_some());
                black_box(btb.insert(r.pc, r.kind, r.btb_target, r.len));
            }
            hits
        },
    );
    add(&mut iso.btb, ns, h.retired.len());
    iso.btb_hits += hits as f64;

    let mut tage = Tage::new(TageConfig::default());
    let ((correct, conds), ns) = timed(
        tracer,
        || format!("uarch.tage:{name}"),
        || {
            let (mut correct, mut conds) = (0usize, 0usize);
            for r in &h.retired {
                match r.kind {
                    BranchKind::DirectCond => {
                        let p = tage.predict(r.pc);
                        correct += usize::from(p.taken == r.taken);
                        conds += 1;
                        tage.update(r.pc, &p, r.taken);
                        tage.push_history(r.taken);
                    }
                    BranchKind::IndirectJmp | BranchKind::IndirectCall => tage.push_history(true),
                    _ => {}
                }
            }
            (correct, conds)
        },
    );
    add(&mut iso.tage, ns, conds);
    iso.tage_correct += correct as f64;

    let mut ittage = Ittage::new(
        fe.ittage.tables,
        fe.ittage.index_bits,
        fe.ittage.max_history,
    );
    let (indirects, ns) = timed(
        tracer,
        || format!("uarch.ittage:{name}"),
        || {
            let mut indirects = 0usize;
            for r in &h.retired {
                match r.kind {
                    BranchKind::DirectCond => ittage.push_history(r.taken),
                    BranchKind::IndirectJmp | BranchKind::IndirectCall => {
                        let p = ittage.predict(r.pc);
                        ittage.update(r.pc, &p, r.next_pc);
                        ittage.push_history(true);
                        indirects += 1;
                    }
                    _ => {}
                }
            }
            indirects
        },
    );
    add(&mut iso.ittage, ns, indirects);

    let mut caches = Hierarchy::new(HierarchyConfig::default());
    let ((), ns) = timed(
        tracer,
        || format!("uarch.l1i:{name}"),
        || {
            for &line in &h.lines {
                black_box(caches.fetch_line(line, false));
            }
        },
    );
    add(&mut iso.l1i, ns, h.lines.len());
    iso.l1i_hits += caches.l1i_stats().demand_hits as f64;
}

/// Program generation against a warm load of the same program, and trace
/// recording throughput.
fn workloads(w: &Workload, cache: &Path, steps: usize, tracer: &Tracer, iso: &mut Iso) {
    let name = w.profile.name;
    let (program, ns) = timed(
        tracer,
        || format!("workloads.generate:{name}"),
        || Program::generate(&w.profile.spec),
    );
    iso.generate_ns += ns;
    drop(black_box(program));
    let (program, ns) = timed(
        tracer,
        || format!("workloads.load:{name}"),
        || load_or_generate_in(Some(cache), &w.profile.spec),
    );
    iso.load_ns += ns;
    drop(black_box(program));
    let (trace, ns) = timed(
        tracer,
        || format!("workloads.record:{name}"),
        || {
            RecordedTrace::record(
                &w.program,
                w.profile.trace_seed,
                w.profile.spec.mean_trip_count,
                steps,
            )
        },
    );
    add(&mut iso.record, ns, trace.len());
}

fn write_outputs(spec: &Spec, out: &Path, m: &Metrics, spans: &[spans::Span]) {
    let metrics: Vec<String> = m.iter().map(|(k, v)| format!("    \"{k}\": {v}")).collect();
    let json = format!(
        "{{\n  \"workload\": \"{}\",\n  \"metrics\": {{\n{}\n  }},\n  \"paper\": {{\n    \"model.l1i_resident_frac\": {PAPER_L1I_RESIDENT_FRAC}\n  }}\n}}\n",
        spec.name,
        metrics.join(",\n"),
    );
    let written = std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(out.join("layers.json"), json))
        .and_then(|()| std::fs::write(out.join("trace.json"), spans::chrome_trace(spans)));
    match written {
        Ok(()) => eprintln!("layers: wrote {}/layers.json and trace.json", out.display()),
        Err(e) => eprintln!("layers: cannot write to {}: {e}", out.display()),
    }
}
