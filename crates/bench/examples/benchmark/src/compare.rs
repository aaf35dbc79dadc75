//! `compare parent.jsonl change.jsonl`: the acceptance rule for a change,
//! one row per workload × end-to-end metric.
//!
//! Each file holds the records `--out` appended, from runs made in
//! alternating pairs (parent, change, change, parent, …) with identical
//! settings. Per workload the i-th parent record pairs with the i-th change
//! record. A gain is claimed when the change wins at least 9 of 10 pairs
//! and its median beats the parent's by more than the parent's quartile
//! spread. Otherwise the change's median may be worse than the parent's by
//! at most the metric's bound; where the spread of either side exceeds the
//! bound the row is unresolved, unless every change run beats every parent
//! run. Failed jobs and any stats-digest change fail the comparison.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use skia_telemetry::json::JsonValue;

use crate::metrics::{median, quartiles, Better, END_TO_END};
use crate::workload::NAMES;

/// Fewest pairs a verdict rests on.
const MIN_PAIRS: usize = 10;

struct Record {
    workload: String,
    seed: u64,
    digest: String,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let v = JsonValue::parse(line).map_err(|e| bad(&e))?;
        if v.get("trace").and_then(JsonValue::as_u64) != Some(0) {
            continue;
        }
        let result = v.get("result").ok_or_else(|| bad("no result"))?;
        let metrics = result
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| bad("no metrics"))?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        out.push(Record {
            workload: v
                .get("workload")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("no workload"))?
                .into(),
            seed: v
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| bad("no seed"))?,
            digest: v
                .get("stats_digest")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("no digest"))?
                .into(),
            failed: result
                .get("failed")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| bad("no failed"))?,
            metrics,
        });
    }
    Ok(out)
}

/// Whether `a` is better than `b` in direction `better`.
fn beats(better: Better, a: f64, b: f64) -> bool {
    match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err("compare needs <parent.jsonl> <change.jsonl>".into());
    };
    let (parent, change) = (load(parent)?, load(change)?);
    let mut ok = true;
    println!("| workload | metric | parent median [q1, q3] | change median [q1, q3] | change/parent | change wins | verdict |");
    println!("|---|---|---|---|---|---|---|");
    for workload in NAMES {
        let p: Vec<&Record> = parent.iter().filter(|r| r.workload == workload).collect();
        let c: Vec<&Record> = change.iter().filter(|r| r.workload == workload).collect();
        if p.is_empty() && c.is_empty() {
            continue;
        }
        let pairs = p.len().min(c.len());
        if pairs < MIN_PAIRS {
            println!(
                "| {workload} | all | {} runs | {} runs | | | too few pairs (need {MIN_PAIRS}) |",
                p.len(),
                c.len()
            );
            ok = false;
            continue;
        }
        let (p, c) = (&p[..pairs], &c[..pairs]);
        let failed: u64 = p.iter().chain(c).map(|r| r.failed).sum();
        if failed > 0 {
            println!("| {workload} | failed jobs | | | | | FAIL: {failed} failed job(s) |");
            ok = false;
        }
        let seeds: BTreeSet<u64> = p.iter().chain(c).map(|r| r.seed).collect();
        for seed in seeds {
            let digests: BTreeSet<&str> = p
                .iter()
                .chain(c)
                .filter(|r| r.seed == seed)
                .map(|r| r.digest.as_str())
                .collect();
            if digests.len() > 1 {
                println!(
                    "| {workload} | stats_digest | | | | | FAIL: seed {seed} digests differ |"
                );
                ok = false;
            }
        }
        for m in &END_TO_END {
            let values = |side: &[&Record]| -> Option<Vec<f64>> {
                side.iter()
                    .map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (Some(pv), Some(cv)) = (values(p), values(c)) else {
                println!("| {workload} | {} | | | | | FAIL: metric missing |", m.name);
                ok = false;
                continue;
            };
            let (pm, cm) = (median(&pv), median(&cv));
            let ((p1, p3), (c1, c3)) = (quartiles(&pv), quartiles(&cv));
            let wins = pv
                .iter()
                .zip(&cv)
                .filter(|(a, b)| beats(m.better, **b, **a))
                .count();
            let worse = match m.better {
                Better::Lower => (cm - pm) / pm,
                Better::Higher => (pm - cm) / pm,
            };
            let spread = ((p3 - p1) / pm).max((c3 - c1) / cm);
            let disjoint = cv
                .iter()
                .all(|b| pv.iter().all(|a| beats(m.better, *b, *a)));
            let verdict =
                if wins * 10 >= pairs * 9 && beats(m.better, cm, pm) && (cm - pm).abs() > p3 - p1 {
                    "improved".to_string()
                } else if worse > m.bound {
                    ok = false;
                    format!(
                        "REGRESSED by {:.1}% (bound {:.0}%)",
                        100.0 * worse,
                        100.0 * m.bound
                    )
                } else if spread > m.bound && !disjoint {
                    format!(
                        "unresolved: spread {:.1}% exceeds the bound",
                        100.0 * spread
                    )
                } else if disjoint {
                    "improved (every run)".to_string()
                } else {
                    "within bound".to_string()
                };
            println!(
                "| {workload} | {} | {pm:.4} [{p1:.4}, {p3:.4}] | {cm:.4} [{c1:.4}, {c3:.4}] | {:.4} | {wins}/{pairs} | {verdict} |",
                m.name,
                cm / pm
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
