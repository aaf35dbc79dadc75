//! Table 1: the simulated processor configuration, printed from the live
//! configuration objects (so the table cannot drift from the code).

use skia_core::SkiaConfig;
use skia_experiments::{row, Args};
use skia_frontend::config::{DECODE_REPAIR, DECODE_WIDTH, EXEC_DETECT, FTQ_DEPTH, RETIRE_WIDTH};
use skia_frontend::{BtbMode, FrontendConfig};
use skia_isa::CACHE_LINE_BYTES;
use skia_uarch::cache::CacheConfig;

fn main() {
    // No simulations here; parsing still validates flags (and rejects
    // unknown ones) so all figure binaries share one CLI surface.
    let args = Args::parse();
    let mut em = args.emitter();
    // The only phase here is rendering the table itself; the span keeps
    // table1 from being the one experiment with an empty phase rollup.
    let render_span = skia_telemetry::span("table.render");
    let c = FrontendConfig::alder_lake_like();
    let skia = SkiaConfig::default();

    println!("# Table 1: processor configuration (Alder-Lake/Golden-Cove-like)\n");
    row(&["Field / Model".into(), "Value".into()]);
    row(&["---".into(), "---".into()]);
    row(&["ISA".into(), "x86-64 subset (skia-isa)".into()]);
    let h = c.hierarchy;
    for (name, level) in [
        ("Private L1-I Cache", h.l1i),
        ("Private L2 Cache", h.l2),
        ("Shared L3 Cache", h.l3),
    ] {
        let CacheConfig { size_bytes, ways } = level;
        row(&[
            name.into(),
            format!("{}KB ({ways}-way, {CACHE_LINE_BYTES}B)", size_bytes / 1024),
        ]);
    }
    row(&[
        "Branch Predictor".into(),
        format!("TAGE-class ({:.1}KB) + ITTAGE", c.tage.storage_kb()),
    ]);
    match c.btb {
        BtbMode::Finite(b) => row(&[
            "BTB Size".into(),
            format!(
                "{}-entry / {:.0}KB ({}-way)",
                b.entries,
                b.storage_kb(),
                b.ways
            ),
        ]),
        BtbMode::Infinite => row(&["BTB Size".into(), "infinite".into()]),
    }
    row(&[
        "U-SBB Size".into(),
        format!(
            "{:.4}KB ({} entries, {}-way)",
            skia.sbb.u_entries as f64 * 78.0 / 8.0 / 1024.0,
            skia.sbb.u_entries,
            skia.sbb.ways
        ),
    ]);
    row(&[
        "R-SBB Size".into(),
        format!(
            "{:.4}KB ({} entries, {}-way)",
            skia.sbb.r_entries as f64 * 20.0 / 8.0 / 1024.0,
            skia.sbb.r_entries,
            skia.sbb.ways
        ),
    ]);
    row(&["FTQ".into(), format!("{FTQ_DEPTH} entries")]);
    row(&[
        "Decode / Retire".into(),
        format!("{DECODE_WIDTH} / {RETIRE_WIDTH} wide"),
    ]);
    row(&[
        "Resteer penalties".into(),
        format!("decode-detect +1, execute-detect +{EXEC_DETECT}, repair {DECODE_REPAIR}"),
    ]);
    drop(render_span);
    em.finish();
}
