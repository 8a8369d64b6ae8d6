//! Planner benchmarks: the cost of planning itself, and the overhead of
//! the unified `execute` path over the raw pipeline it funnels into.
//!
//! Planning must stay negligible next to execution — the planner runs once
//! per query in front of every lookup the system serves. `plan_only`
//! measures enumeration + costing in isolation; `execute_overhead`
//! compares `execute` (plan + run) against `execute_plan` on the same
//! queries planned up front; `plan_shapes` covers each access
//! path the planner can emit, including the composite box and the seq-scan
//! fallback.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hermit_bench::harness::range_plans;
use hermit_core::{Database, PlanKind, Query};
use hermit_storage::TidScheme;
use hermit_workloads::synthetic::cols;
use hermit_workloads::{build_synthetic, CorrelationKind, QueryGen, SyntheticConfig};
use std::time::Duration;

fn setup() -> (Database, SyntheticConfig) {
    let cfg = SyntheticConfig {
        tuples: 100_000,
        correlation: CorrelationKind::Linear,
        ..Default::default()
    };
    let mut db = build_synthetic(&cfg, TidScheme::Physical);
    db.create_hermit_index(cols::COL_C, cols::COL_B).unwrap();
    (db, cfg)
}

fn bench_plan_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_plan_only");
    group.sample_size(30).measurement_time(Duration::from_secs(2));
    let (db, cfg) = setup();
    let mut gen = QueryGen::new(cfg.target_domain(), 0x91A7);
    let ranges = gen.ranges(0.001, 256);
    let queries: Vec<Query> = ranges
        .iter()
        .map(|&(lb, ub)| Query::new().range(cols::COL_C, lb, ub).range(cols::COL_D, 0.0, 1.0e12))
        .collect();
    group.bench_function("two_conjuncts", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            std::hint::black_box(db.plan(q))
        })
    });
    group.finish();
}

fn bench_execute_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_execute_overhead");
    group.sample_size(30).measurement_time(Duration::from_secs(2));
    let (db, cfg) = setup();
    let mut gen = QueryGen::new(cfg.target_domain(), 0x91A8);
    let ranges = gen.ranges(0.0005, 256);
    let queries: Vec<Query> =
        ranges.iter().map(|&(lb, ub)| Query::new().range(cols::COL_C, lb, ub)).collect();
    let plans = range_plans(&db, PlanKind::Hermit, cols::COL_C, &ranges);
    group.bench_function(BenchmarkId::new("execute_plan", "hermit"), |b| {
        let mut i = 0usize;
        b.iter(|| {
            let plan = &plans[i % plans.len()];
            i += 1;
            std::hint::black_box(db.execute_plan(plan))
        })
    });
    group.bench_function(BenchmarkId::new("execute", "hermit"), |b| {
        let mut i = 0usize;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            std::hint::black_box(db.execute(q))
        })
    });
    group.finish();
}

fn bench_plan_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_plan_shapes");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    let (mut db, cfg) = setup();
    db.create_composite_baseline(cols::COL_A, cols::COL_B).unwrap();
    db.create_composite_hermit(cols::COL_A, cols::COL_C, cols::COL_B).unwrap();
    let (lo, hi) = cfg.target_domain();
    let span = hi - lo;
    let shapes: Vec<(&str, Query)> = vec![
        ("hermit", Query::new().range(cols::COL_C, lo, lo + span * 0.001)),
        ("baseline", Query::new().range(cols::COL_B, 0.0, 1.0)),
        (
            "composite",
            Query::new().range(cols::COL_A, 0.0, 1_000.0).range(cols::COL_C, lo, lo + span * 0.01),
        ),
        ("scan", Query::new().range(cols::COL_D, 0.0, 1.0)),
    ];
    for (label, q) in &shapes {
        group.bench_function(BenchmarkId::new("plan", *label), |b| {
            b.iter(|| std::hint::black_box(db.plan(q)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_plan_only, bench_execute_overhead, bench_plan_shapes);
criterion_main!(benches);
