//! Calibration probe: per-benchmark headline metrics under the baseline and
//! Skia configurations. Not a paper figure — a development tool to check
//! that the synthetic workloads land in the paper's qualitative regime
//! (L1-I MPKI > 10, high BTB miss L1-I residency, Skia speedups).

use skia_experiments::{Args, StandingConfig, Sweep};
use skia_frontend::FrontendConfig;

fn main() {
    let args = Args::parse();
    let steps = args.steps;
    let mut em = args.emitter();
    // `--bench` may also name `verilator_prebolt`, outside the paper's 16.
    let names = match args.bench.as_deref() {
        Some(name) => vec![name],
        None => args.benchmarks(),
    };

    // Per benchmark: base, skia, and the 100× SBB ceiling run, in the
    // original serial order.
    let mut sweep = Sweep::from_args(&args);
    let ids: Vec<(usize, usize, usize)> = names
        .iter()
        .map(|name| {
            let base = sweep.add(name, StandingConfig::Btb(8192).frontend(), steps);
            let skia = sweep.add(name, StandingConfig::BtbPlusSkia(8192).frontend(), steps);
            // Rescue ceiling: a 100× SBB shows whether the limit is SBB
            // capacity or shadow-decode opportunity.
            let huge = skia_core::SkiaConfig {
                sbb: skia_core::SkiaConfig::default().sbb.scaled(100.0),
                ..skia_core::SkiaConfig::default()
            };
            let ceiling = sweep.add(
                name,
                FrontendConfig::alder_lake_like()
                    .with_btb_entries(8192)
                    .with_skia(huge),
                steps,
            );
            (base, skia, ceiling)
        })
        .collect();
    let stats = sweep.run(&mut em);

    println!(
        "{:<16} {:>7} {:>8} {:>8} {:>7} {:>8} {:>8} {:>9} {:>8} {:>8}",
        "bench",
        "ipc",
        "ipcSkia",
        "speedup",
        "l1iMPKI",
        "btbMPKI",
        "l1iRes%",
        "rescues/KI",
        "bogus",
        "condMPKI"
    );
    for (name, &(base_id, skia_id, ceiling_id)) in names.iter().zip(&ids) {
        let base = &stats[base_id];
        let skia = &stats[skia_id];
        let sk = skia.skia.as_ref().expect("skia stats");
        println!(
            "{:<16} {:>7.3} {:>8.3} {:>7.2}% {:>7.1} {:>8.2} {:>7.1}% {:>9.2} {:>8} {:>8.2}",
            name,
            base.ipc(),
            skia.ipc(),
            (skia.speedup_over(base) - 1.0) * 100.0,
            base.l1i_mpki(),
            base.btb_mpki(),
            base.btb_miss_l1i_resident_fraction() * 100.0,
            skia.sbb_rescues as f64 * 1000.0 / skia.instructions as f64,
            sk.bogus_uses,
            base.cond_mpki(),
        );
        println!(
            "    sbd: headReg={} headValid={} headDisc={} headBr={} tailReg={} tailBr={}",
            sk.sbd.head_regions,
            sk.sbd.head_regions_valid,
            sk.sbd.head_regions_discarded,
            sk.sbd.head_branches,
            sk.sbd.tail_regions,
            sk.sbd.tail_branches
        );
        println!(
            "    sbb: uIns={} rIns={} uHits={} rHits={} filtered={} | miss breakdown: {:?}",
            sk.sbb.u_inserts,
            sk.sbb.r_inserts,
            sk.sbb.u_hits,
            sk.sbb.r_hits,
            sk.filtered_known,
            base.btb_misses_by_kind
        );
        println!(
            "    resteers: dec={} exec={} bogus={} | missTaken={} rescuable={} wrongPathBlocks={}",
            base.decode_resteers,
            base.exec_resteers,
            base.bogus_resteers,
            base.btb_miss_taken,
            base.btb_miss_rescuable,
            base.wrong_path_blocks
        );
        let ceiling = &stats[ceiling_id];
        println!(
            "    ceiling: rescues/KI={:.2} (rescuable/KI={:.2}, seenBefore/KI={:.2})",
            ceiling.sbb_rescues as f64 * 1000.0 / ceiling.instructions as f64,
            ceiling.btb_miss_rescuable as f64 * 1000.0 / ceiling.instructions as f64,
            ceiling.rescuable_seen_before as f64 * 1000.0 / ceiling.instructions as f64,
        );
    }
    em.finish();
}
