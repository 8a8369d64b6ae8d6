//! error_bound × noise sweeps (Figs. 16–18): range throughput, false
//! positive ratio, and TRS-Tree memory, for both correlation functions.

use crate::harness::{self, measure_ops, Scale};
use hermit_core::{PlanKind, Query};
use hermit_storage::TidScheme;
use hermit_trs::TrsParams;
use hermit_workloads::synthetic::cols;
use hermit_workloads::{build_synthetic, CorrelationKind, QueryGen, SyntheticConfig};

const ERROR_BOUNDS: &[f64] = &[1.0, 10.0, 100.0, 1_000.0, 10_000.0];
const NOISE_FRACTIONS: &[f64] = &[0.0, 0.025, 0.05, 0.075, 0.10];
/// Paper: range lookups with selectivity 0.01%, logical pointers.
const SELECTIVITY: f64 = 0.0001;

fn configs(scale: Scale, kind: CorrelationKind, noise: f64) -> SyntheticConfig {
    SyntheticConfig {
        tuples: scale.tuples(100_000),
        correlation: kind,
        noise_fraction: noise,
        ..Default::default()
    }
}

struct SweepPoint {
    /// Hermit-route `(throughput, false-positive ratio)`; `None` when the
    /// planner prefers a seq scan because the error bound's bands span most
    /// of a small (down-scaled) table, so no Hermit lookup would run.
    lookups: Option<(f64, f64)>,
    trs_memory: usize,
}

fn run_point(scale: Scale, kind: CorrelationKind, noise: f64, error_bound: f64) -> SweepPoint {
    let cfg = configs(scale, kind, noise);
    let mut db = build_synthetic(&cfg, TidScheme::Logical);
    db.set_trs_params(TrsParams::with_error_bound(error_bound));
    db.create_hermit_index(cols::COL_C, cols::COL_B).unwrap();

    let mut gen = QueryGen::new(cfg.target_domain(), 0xF1616);
    let ranges = gen.ranges(SELECTIVITY, 256);
    let routed = ranges.iter().all(|&(lb, ub)| {
        db.plan(&Query::new().range(cols::COL_C, lb, ub)).kind() == PlanKind::Hermit
    });
    let lookups = routed.then(|| {
        let plans = harness::range_plans(&db, PlanKind::Hermit, cols::COL_C, &ranges);

        // False-positive ratio over a fixed query batch.
        let mut fetched = 0usize;
        let mut fps = 0usize;
        for plan in plans.iter().take(64) {
            let r = db.execute_plan(plan);
            fetched += r.rows.len() + r.false_positives;
            fps += r.false_positives;
        }

        let throughput = measure_ops(|i| {
            let r = db.execute_plan(&plans[i % plans.len()]);
            std::hint::black_box(r.rows.len());
        });
        (throughput, if fetched == 0 { 0.0 } else { fps as f64 / fetched as f64 })
    });

    SweepPoint { lookups, trs_memory: db.index(cols::COL_C).unwrap().memory_bytes() }
}

/// A lookup metric of `p`, or why there is none.
fn lookup_metric(p: &SweepPoint, f: impl Fn((f64, f64)) -> String) -> String {
    p.lookups.map_or_else(|| "n/a (planner picks seq scan)".into(), f)
}

fn sweep(scale: Scale, metric: &str, extract: impl Fn(&SweepPoint) -> String) {
    for kind in [CorrelationKind::Linear, CorrelationKind::Sigmoid] {
        for &noise in NOISE_FRACTIONS {
            for &eb in ERROR_BOUNDS {
                let p = run_point(scale, kind, noise, eb);
                harness::row(&[
                    ("correlation", kind.label().into()),
                    ("noise", format!("{:.1}%", noise * 100.0)),
                    ("error_bound", format!("{eb}")),
                    (metric, extract(&p)),
                ]);
            }
        }
    }
}

/// Fig. 16: range-lookup throughput vs error_bound × noise.
pub fn fig16_error_bound_throughput(scale: Scale) {
    harness::section("fig16", "Range throughput vs error_bound and injected noise");
    sweep(scale, "throughput", |p| lookup_metric(p, |(ops, _)| harness::fmt_ops(ops)));
}

/// Fig. 17: false-positive ratio vs error_bound × noise.
pub fn fig17_false_positive_ratio(scale: Scale) {
    harness::section("fig17", "False-positive ratio vs error_bound and injected noise");
    sweep(scale, "fp_ratio", |p| lookup_metric(p, |(_, fpr)| format!("{fpr:.3}")));
}

/// Fig. 18: TRS-Tree memory vs error_bound × noise.
pub fn fig18_memory(scale: Scale) {
    harness::section("fig18", "TRS-Tree memory vs error_bound and injected noise");
    sweep(scale, "trs_memory", |p| harness::fmt_mb(p.trs_memory));
}
