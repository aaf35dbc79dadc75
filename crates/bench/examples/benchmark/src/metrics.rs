//! Metric definitions (name, unit, direction, regression bound), the result
//! line every run prints, and the order statistics the comparison uses.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (0 for per-layer
    /// metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [Metric; 4] = [
    e2e("wall_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sim_minsts_per_s", "Minst/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Per-layer metrics, from the traced run. A layer is a crate, named by
/// the prefix; `model.*` are the simulated results themselves.
pub const PER_LAYER: [Metric; 57] = [
    layer("workloads.program_ms", "ms", Lower),
    layer("workloads.trace_ms", "ms", Lower),
    layer("workloads.generate_ms", "ms", Lower),
    layer("workloads.record_msteps_per_s", "Msteps/s", Higher),
    layer("workloads.load_speedup", "ratio", Higher),
    layer("workloads.read_mb", "MB", Lower),
    layer("workloads.written_mb", "MB", Lower),
    layer("frontend.ns_per_step.skia_off", "ns", Lower),
    layer("frontend.ns_per_step.skia_on", "ns", Lower),
    layer("frontend.ns_per_block", "ns", Lower),
    layer("frontend.wrong_path_blocks_per_step", "1/step", Lower),
    layer("frontend.wrong_path_prefetches_per_step", "1/step", Lower),
    layer("frontend.resteers_per_kinst", "1/kinst", Lower),
    layer("frontend.sim_new_ms", "ms", Lower),
    layer("core.marginal_ns_per_step", "ns", Lower),
    layer("core.head_regions_per_step", "1/step", Lower),
    layer("core.tail_regions_per_step", "1/step", Lower),
    layer("core.sbb_lookups_per_step", "1/step", Lower),
    layer("core.sbb_inserts_per_step", "1/step", Lower),
    layer("core.sbb_useful_frac", "frac", Higher),
    layer("core.head_decode_ns.miss", "ns", Lower),
    layer("core.head_decode_ns.hit", "ns", Lower),
    layer("core.tail_decode_ns.miss", "ns", Lower),
    layer("core.tail_decode_ns.hit", "ns", Lower),
    layer("core.head_memo_hit_frac", "frac", Higher),
    layer("core.sbb_insert_ns", "ns", Lower),
    layer("core.sbb_lookup_ns", "ns", Lower),
    layer("uarch.btb_ns_per_branch", "ns", Lower),
    layer("uarch.btb_hit_frac", "frac", Higher),
    layer("uarch.tage_ns_per_cond", "ns", Lower),
    layer("uarch.tage_accuracy", "frac", Higher),
    layer("uarch.ittage_ns_per_indirect", "ns", Lower),
    layer("uarch.l1i_ns_per_line", "ns", Lower),
    layer("uarch.l1i_hit_frac", "frac", Higher),
    layer("uarch.btb_mpki", "1/kinst", Lower),
    layer("uarch.l1i_mpki", "1/kinst", Lower),
    layer("uarch.cond_mpki", "1/kinst", Lower),
    layer("isa.decode_ns_per_insn", "ns", Lower),
    layer("telemetry.instrumented_overhead_frac", "frac", Lower),
    layer("telemetry.finish_ms", "ms", Lower),
    layer("telemetry.parse_ms", "ms", Lower),
    layer("telemetry.snapshot_mb", "MB", Lower),
    layer("experiments.manifest_ms", "ms", Lower),
    layer("model.ipc_geomean", "ipc", Higher),
    layer("model.skia_speedup_pct", "%", Higher),
    layer("model.btb_mpki_mean", "1/kinst", Lower),
    layer("model.l1i_resident_frac", "frac", Higher),
    layer("model.bogus_rate", "frac", Lower),
    layer("self_ms.harness", "ms", Lower),
    layer("self_ms.workloads", "ms", Lower),
    layer("self_ms.frontend", "ms", Lower),
    layer("self_ms.core", "ms", Lower),
    layer("self_ms.uarch", "ms", Lower),
    layer("self_ms.isa", "ms", Lower),
    layer("self_ms.telemetry", "ms", Lower),
    layer("self_ms.experiments", "ms", Lower),
    layer("trace_overhead_frac", "frac", Lower),
];

/// A JSON number with every digit of `v`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The `metrics` object: every metric of `defs` with its value and unit.
/// A metric missing from `values` is an error in the benchmark itself.
#[must_use]
pub fn render(defs: &[Metric], value: impl Fn(&str) -> Option<f64>) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|m| {
            let v = value(m.name).unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(v),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Median of `v` (which must be non-empty).
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method). `v` needs at least two values.
#[must_use]
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len() as i64;
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (s[(j - 1) as usize], s[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(median(&v), 5.5);
    }
}
