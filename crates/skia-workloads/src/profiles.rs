//! The paper's benchmark suite (Table 2) as synthetic profiles.
//!
//! Each profile parameterizes [`ProgramSpec`] to reproduce the qualitative
//! properties the paper reports for the corresponding real workload:
//!
//! * **Footprint / BTB pressure** — `functions` scales the static branch
//!   count relative to the 8K-entry BTB and 32 KB L1-I; the Zipf skew
//!   (`zipf_s`) sets how much of it is active at once. Flat skews make
//!   "cold" capacity-missing branches (the paper's §1 definition) dominant.
//! * **Branch-type mix (Fig. 6)** — `cond_fraction`/`call_fraction` steer
//!   the terminator mix: the OLTP `voter` and `sibench` are call/return
//!   heavy (hence big Skia gains, §6.3); `kafka` is conditional-heavy with
//!   few direct calls/returns (hence small gains despite many BTB misses,
//!   §6.1.2); `finagle-chirper` and `speedometer2.0` simply have fewer BTB
//!   misses (§6.1.1).
//! * **Layout** — `verilator` ships BOLT-optimized in the paper, so its
//!   profile uses [`Layout::Bolted`]; `verilator_prebolt` is the same
//!   program interleaved (§6.1.4).

use crate::program::{Layout, ProgramSpec};

/// A named workload: generation spec plus the trace seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Benchmark name as the paper spells it.
    pub name: &'static str,
    /// Originating suite (Table 2).
    pub suite: &'static str,
    /// Program generation parameters.
    pub spec: ProgramSpec,
    /// Seed for the trace walker.
    pub trace_seed: u64,
}

/// The 16 benchmark names, in the paper's reporting order.
pub const PAPER_BENCHMARKS: [&str; 16] = [
    "cassandra",
    "kafka",
    "tomcat",
    "finagle-chirper",
    "finagle-http",
    "dotty",
    "tpcc",
    "ycsb",
    "twitter",
    "voter",
    "smallbank",
    "tatp",
    "sibench",
    "noop",
    "verilator",
    "speedometer2.0",
];

fn base_spec(seed: u64, functions: usize) -> ProgramSpec {
    ProgramSpec {
        seed,
        functions,
        ..ProgramSpec::default()
    }
}

/// Look up a profile by name. `verilator_prebolt` is accepted in addition
/// to the 16 paper benchmarks.
#[must_use]
pub fn profile(name: &str) -> Option<Profile> {
    let mk = |name: &'static str,
              suite: &'static str,
              functions: usize,
              cond: f64,
              call: f64,
              indirect: f64,
              zipf: f64,
              layout: Layout,
              seed: u64|
     -> Profile {
        let mut spec = base_spec(seed, functions);
        spec.cond_fraction = cond;
        spec.call_fraction = call;
        spec.indirect_fraction = indirect;
        spec.zipf_s = zipf;
        spec.layout = layout;
        Profile {
            name,
            suite,
            spec,
            trace_seed: seed ^ 0x0007_EACE_5EED,
        }
    };
    use Layout::{Bolted, Interleaved};
    let p = match name {
        // DaCapo
        "cassandra" => mk(
            "cassandra",
            "DaCapo",
            10000,
            0.55,
            0.50,
            0.03,
            0.90,
            Interleaved,
            101,
        ),
        "kafka" => mk(
            "kafka",
            "DaCapo",
            9000,
            0.78,
            0.22,
            0.02,
            0.92,
            Interleaved,
            102,
        ),
        "tomcat" => mk(
            "tomcat",
            "DaCapo",
            12000,
            0.55,
            0.50,
            0.03,
            0.88,
            Interleaved,
            103,
        ),
        // Renaissance
        "finagle-chirper" => mk(
            "finagle-chirper",
            "Renaissance",
            2000,
            0.60,
            0.45,
            0.03,
            1.30,
            Interleaved,
            104,
        ),
        "finagle-http" => mk(
            "finagle-http",
            "Renaissance",
            4500,
            0.60,
            0.45,
            0.03,
            1.10,
            Interleaved,
            105,
        ),
        "dotty" => mk(
            "dotty",
            "Renaissance",
            14000,
            0.50,
            0.55,
            0.04,
            0.85,
            Interleaved,
            106,
        ),
        // OLTP-Bench on PostgreSQL
        "tpcc" => mk(
            "tpcc",
            "OLTP",
            10000,
            0.50,
            0.55,
            0.02,
            0.90,
            Interleaved,
            107,
        ),
        "ycsb" => mk(
            "ycsb",
            "OLTP",
            7500,
            0.55,
            0.50,
            0.02,
            0.95,
            Interleaved,
            108,
        ),
        "twitter" => mk(
            "twitter",
            "OLTP",
            8000,
            0.55,
            0.50,
            0.02,
            0.90,
            Interleaved,
            109,
        ),
        "voter" => mk(
            "voter",
            "OLTP",
            16000,
            0.35,
            0.72,
            0.02,
            0.78,
            Interleaved,
            110,
        ),
        "smallbank" => mk(
            "smallbank",
            "OLTP",
            7000,
            0.50,
            0.55,
            0.02,
            0.95,
            Interleaved,
            111,
        ),
        "tatp" => mk(
            "tatp",
            "OLTP",
            6500,
            0.50,
            0.55,
            0.02,
            0.95,
            Interleaved,
            112,
        ),
        "sibench" => mk(
            "sibench",
            "OLTP",
            15000,
            0.35,
            0.72,
            0.02,
            0.78,
            Interleaved,
            113,
        ),
        "noop" => mk(
            "noop",
            "OLTP",
            4500,
            0.50,
            0.50,
            0.02,
            1.00,
            Interleaved,
            114,
        ),
        // Chipyard (shipped BOLT-optimized in the paper)
        "verilator" => mk(
            "verilator",
            "Chipyard",
            16000,
            0.70,
            0.30,
            0.01,
            0.82,
            Bolted,
            115,
        ),
        "verilator_prebolt" => mk(
            "verilator_prebolt",
            "Chipyard",
            16000,
            0.70,
            0.30,
            0.01,
            0.82,
            Interleaved,
            115,
        ),
        // BrowserBench
        "speedometer2.0" => mk(
            "speedometer2.0",
            "BrowserBench",
            2500,
            0.65,
            0.40,
            0.04,
            1.25,
            Interleaved,
            116,
        ),
        _ => return None,
    };
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    #[test]
    fn all_sixteen_resolve() {
        for name in PAPER_BENCHMARKS {
            assert!(profile(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn prebolt_variant_exists_and_differs_only_in_layout() {
        let bolted = profile("verilator").unwrap();
        let pre = profile("verilator_prebolt").unwrap();
        assert_eq!(bolted.spec.functions, pre.spec.functions);
        assert_eq!(bolted.spec.seed, pre.spec.seed);
        assert_ne!(bolted.spec.layout, pre.spec.layout);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(profile("doom-eternal").is_none());
    }

    #[test]
    fn oltp_profiles_are_call_heavier_than_kafka() {
        let kafka = profile("kafka").unwrap();
        for n in ["voter", "sibench"] {
            let p = profile(n).unwrap();
            assert!(p.spec.call_fraction > kafka.spec.call_fraction);
            assert!(p.spec.cond_fraction < kafka.spec.cond_fraction);
        }
    }

    #[test]
    fn footprints_exceed_the_l1i() {
        // Every workload must be front-end bound: code ≫ 32 KB L1-I.
        for name in ["kafka", "voter", "speedometer2.0"] {
            let p = profile(name).unwrap();
            let prog = Program::generate(&p.spec);
            assert!(
                prog.code_bytes() > 4 * 32 * 1024,
                "{name}: {} bytes",
                prog.code_bytes()
            );
        }
    }
}
