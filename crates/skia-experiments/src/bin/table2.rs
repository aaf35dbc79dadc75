//! Table 2: the benchmark suite, with the generated-programs' footprints.

use skia_experiments::{row, Args};
use skia_workloads::profiles::{profile, PAPER_BENCHMARKS};

fn main() {
    let args = Args::parse();
    let mut em = args.emitter();
    let mut all: Vec<&str> = PAPER_BENCHMARKS.to_vec();
    all.push("verilator_prebolt");
    let names = args.filter_names(&all);

    println!("# Table 2: benchmarks (synthetic profiles standing in for the paper's suite)\n");
    row(&[
        "benchmark".into(),
        "suite".into(),
        "functions".into(),
        "code KB".into(),
        "static branches".into(),
        "layout".into(),
    ]);
    row(&vec!["---".to_string(); 6]);

    for name in names {
        let p = profile(name).expect("known benchmark");
        let prog = skia_workloads::load_or_generate_in(args.cache.as_deref(), &p.spec);
        row(&[
            p.name.to_string(),
            p.suite.to_string(),
            format!("{}", p.spec.functions),
            format!("{}", prog.code_bytes() / 1024),
            format!("{}", prog.branch_count()),
            format!("{:?}", p.spec.layout),
        ]);
    }
    em.finish();
}
