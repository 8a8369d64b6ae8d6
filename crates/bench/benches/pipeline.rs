//! End-to-end pipeline benchmarks: Hermit vs Baseline range and point
//! lookups through the full Database executor (the Criterion counterpart
//! of Figs. 8/12; the `figures` binary prints the full sweeps).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hermit_bench::harness::{point_plans, range_plans};
use hermit_core::{Database, PlanKind, Query, QueryPlan};
use hermit_storage::TidScheme;
use hermit_workloads::synthetic::cols;
use hermit_workloads::{build_synthetic, CorrelationKind, QueryGen, SyntheticConfig};
use std::time::Duration;

fn setup(kind: CorrelationKind, scheme: TidScheme) -> (Database, Database, SyntheticConfig) {
    let cfg = SyntheticConfig { tuples: 100_000, correlation: kind, ..Default::default() };
    let mut hermit = build_synthetic(&cfg, scheme);
    hermit.create_hermit_index(cols::COL_C, cols::COL_B).unwrap();
    let mut baseline = build_synthetic(&cfg, scheme);
    baseline.create_baseline_index(cols::COL_C, false).unwrap();
    (hermit, baseline, cfg)
}

/// Register one benchmark that executes `plans` round-robin on `db`.
fn bench_plans(
    group: &mut criterion::BenchmarkGroup,
    id: BenchmarkId,
    db: &Database,
    plans: &[QueryPlan],
) {
    group.bench_function(id, |b| {
        let mut i = 0usize;
        b.iter(|| {
            let plan = &plans[i % plans.len()];
            i += 1;
            std::hint::black_box(db.execute_plan(plan))
        })
    });
}

fn bench_range(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_range_0.05pct");
    group.sample_size(30).measurement_time(Duration::from_secs(2));
    for kind in [CorrelationKind::Linear, CorrelationKind::Sigmoid] {
        for scheme in [TidScheme::Logical, TidScheme::Physical] {
            let (hermit, baseline, cfg) = setup(kind, scheme);
            let mut gen = QueryGen::new(cfg.target_domain(), 0xBE7C);
            let ranges = gen.ranges(0.0005, 256);
            let label = format!("{}_{}", kind.label(), scheme.label());
            let plans = range_plans(&hermit, PlanKind::Hermit, cols::COL_C, &ranges);
            bench_plans(&mut group, BenchmarkId::new("hermit", &label), &hermit, &plans);
            let plans = range_plans(&baseline, PlanKind::Baseline, cols::COL_C, &ranges);
            bench_plans(&mut group, BenchmarkId::new("baseline", &label), &baseline, &plans);
        }
    }
    group.finish();
}

fn bench_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_point");
    group.sample_size(30).measurement_time(Duration::from_secs(2));
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let (hermit, baseline, cfg) = setup(CorrelationKind::Sigmoid, scheme);
        let mut gen = QueryGen::new(cfg.target_domain(), 0xBE7D);
        let points = gen.points(1024);
        let plans = point_plans(&hermit, PlanKind::Hermit, cols::COL_C, &points);
        bench_plans(&mut group, BenchmarkId::new("hermit", scheme.label()), &hermit, &plans);
        let plans = point_plans(&baseline, PlanKind::Baseline, cols::COL_C, &points);
        bench_plans(&mut group, BenchmarkId::new("baseline", scheme.label()), &baseline, &plans);
    }
    group.finish();
}

/// `execute` per query vs one `execute_batch` over the same 256-query
/// workload: one iteration = the whole set, so the two rows compare
/// directly. The batch reuses TRS/candidate scratch across queries.
fn bench_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_range_0.05pct_x256");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let (hermit, _baseline, cfg) = setup(CorrelationKind::Sigmoid, scheme);
        let mut gen = QueryGen::new(cfg.target_domain(), 0xBE7E);
        let ranges = gen.ranges(0.0005, 256);
        // Planned only to assert every query takes the Hermit route; the
        // timed loops plan again, as a request does.
        range_plans(&hermit, PlanKind::Hermit, cols::COL_C, &ranges);
        let queries: Vec<Query> =
            ranges.iter().map(|&(lb, ub)| Query::new().range(cols::COL_C, lb, ub)).collect();
        group.bench_function(BenchmarkId::new("execute", scheme.label()), |b| {
            b.iter(|| queries.iter().map(|q| hermit.execute(q).rows.len()).sum::<usize>())
        });
        group.bench_function(BenchmarkId::new("execute_batch", scheme.label()), |b| {
            b.iter(|| hermit.execute_batch(&queries).iter().map(|r| r.rows.len()).sum::<usize>())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_range, bench_point, bench_batched);
criterion_main!(benches);
