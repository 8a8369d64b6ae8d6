//! Equivalence suite for the query pipeline. Every result is checked two
//! ways:
//!
//! * against an oracle recomputed from the generator formula (independent
//!   of every index and of the executor), and
//! * `execute_batch(qs)[i]` against `execute(&qs[i])`, bit for bit — rows
//!   in order, false positives, unresolved — so scratch state leaking from
//!   one query of a batch into the next cannot hide.
//!
//! The dimensions: both tuple-id schemes, both storage substrates,
//! outliers, deletions, out-of-domain and inverted predicates, extra
//! conjuncts, and a small sharded buffer pool. Every index-route test
//! asserts the plan kind, so none of them quietly tests a seq scan. The
//! pool-traffic test pins the page-grouped validation: a query touches
//! each heap page of its candidates exactly once.

use hermit::core::{Database, PlanKind, Query, QueryResult, RangePredicate, SecondaryIndex};
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, F64Key, RowLoc, Schema, TidScheme, Value};
use hermit::trs::TrsParams;
use std::collections::BTreeSet;
use std::sync::Arc;

const HOST: usize = 1;
const TARGET: usize = 2;
const OTHER: usize = 3;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
        ColumnDef::float("other"),
    ])
}

/// Row `i`: target = i, other = 10·i, host = 2i except every
/// `noise_every`-th row, whose wild host value forces the TRS-Tree's
/// outlier buffers.
fn row_values(i: usize, noise_every: usize) -> [f64; 4] {
    let m = i as f64;
    let host = if noise_every > 0 && i.is_multiple_of(noise_every) { -5.0e6 } else { 2.0 * m };
    [m, host, m, m * 10.0]
}

fn insert_rows(db: &mut Database, n: usize, noise_every: usize) {
    for i in 0..n {
        let v = row_values(i, noise_every);
        db.insert(&[
            Value::Int(i as i64),
            Value::Float(v[1]),
            Value::Float(v[2]),
            Value::Float(v[3]),
        ])
        .unwrap();
    }
}

fn mem_hermit(scheme: TidScheme, n: usize, noise_every: usize) -> Database {
    let mut db = Database::new(schema(), 0, scheme);
    insert_rows(&mut db, n, noise_every);
    db.create_baseline_index(HOST, true).unwrap();
    db.create_hermit_index(TARGET, HOST).unwrap();
    db
}

fn mem_baseline(scheme: TidScheme, n: usize) -> Database {
    let mut db = Database::new(schema(), 0, scheme);
    insert_rows(&mut db, n, 0);
    db.create_baseline_index(TARGET, false).unwrap();
    db
}

/// Paged database with a small, sharded buffer pool so validation churns
/// through evictions.
fn paged_db(n: usize, noise_every: usize, pool_pages: usize, shards: usize) -> Database {
    let store = Arc::new(SimulatedPageStore::new());
    let pool = Arc::new(BufferPool::new_sharded(store, pool_pages, shards));
    let mut db = Database::new_paged(PagedTable::new(schema(), pool), 0);
    insert_rows(&mut db, n, noise_every);
    db
}

fn paged_hermit(n: usize, noise_every: usize, pool_pages: usize, shards: usize) -> Database {
    let mut db = paged_db(n, noise_every, pool_pages, shards);
    db.create_baseline_index(HOST, true).unwrap();
    db.create_hermit_index(TARGET, HOST).unwrap();
    db
}

/// The generator-formula oracle: live rows (`deleted` says which pks are
/// gone) whose values satisfy every conjunct, as sorted row locations.
fn oracle(
    db: &Database,
    n: usize,
    noise_every: usize,
    deleted: impl Fn(usize) -> bool,
    preds: &[RangePredicate],
) -> Vec<RowLoc> {
    let mut out: Vec<RowLoc> = (0..n)
        .filter(|&i| !deleted(i))
        .filter(|&i| {
            let v = row_values(i, noise_every);
            preds.iter().all(|p| v[p.column] >= p.lb && v[p.column] <= p.ub)
        })
        .map(|i| db.primary().get(i as i64).expect("live row resolves"))
        .collect();
    out.sort_unstable();
    out
}

fn sorted_rows(r: &QueryResult) -> Vec<RowLoc> {
    let mut rows = r.rows.clone();
    rows.sort_unstable();
    rows
}

/// Bit-for-bit agreement between a batch member and its single run.
fn assert_identical(single: &QueryResult, batched: &QueryResult, ctx: &str) {
    assert_eq!(single.rows, batched.rows, "{ctx}: rows differ");
    assert_eq!(
        single.false_positives, batched.false_positives,
        "{ctx}: false-positive counts differ"
    );
    assert_eq!(single.unresolved, batched.unresolved, "{ctx}: unresolved counts differ");
}

/// Plan every query (asserting the planner chose `kind`), run the whole
/// list as one batch and each query alone, check both agree bit for bit
/// and match the oracle. Returns the batch results.
fn check(
    db: &Database,
    queries: &[Query],
    kind: PlanKind,
    oracle_of: impl Fn(&[RangePredicate]) -> Vec<RowLoc>,
    ctx: &str,
) -> Vec<QueryResult> {
    let batched = db.execute_batch(queries);
    assert_eq!(batched.len(), queries.len(), "{ctx}");
    for (q, b) in queries.iter().zip(&batched) {
        let ctx = format!("{ctx} {:?}", q.conjuncts());
        assert_eq!(db.plan(q).kind(), kind, "{ctx}: wrong plan");
        let single = db.execute(q);
        assert_identical(&single, b, &ctx);
        assert_eq!(sorted_rows(&single), oracle_of(q.conjuncts()), "{ctx}: rows vs oracle");
    }
    batched
}

/// The query mix every test drives: dense ranges, ranges crossing outlier
/// rows, points (on-row, between-rows, on-outlier), inverted and
/// out-of-domain ranges, and domain-straddling edges.
fn query_mix(n: usize) -> Vec<Query> {
    let hi = n as f64;
    vec![
        Query::new().range(TARGET, 0.0, 50.0),
        Query::new().range(TARGET, 100.5, 299.25),
        Query::new().range(TARGET, hi - 100.0, hi + 500.0),
        Query::new().range(TARGET, -1_000.0, 25.0),
        Query::new().point(TARGET, 0.0),
        Query::new().point(TARGET, 123.0),
        Query::new().point(TARGET, 250.0), // outlier row when noise_every = 50
        Query::new().point(TARGET, 0.5),   // between rows: no matches
        Query::new().range(TARGET, 900.0, 100.0), // inverted: empty
        Query::new().range(TARGET, hi * 2.0, hi * 3.0), // out of domain: empty
    ]
}

#[test]
fn hermit_batch_matches_scalar_both_schemes() {
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let db = mem_hermit(scheme, 10_000, 50);
        let oracle_of = |p: &[RangePredicate]| oracle(&db, 10_000, 50, |_| false, p);
        check(&db, &query_mix(10_000), PlanKind::Hermit, oracle_of, &format!("{scheme:?}"));
    }
}

#[test]
fn baseline_batch_matches_scalar_both_schemes() {
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let db = mem_baseline(scheme, 10_000);
        let oracle_of = |p: &[RangePredicate]| oracle(&db, 10_000, 0, |_| false, p);
        let ctx = format!("baseline {scheme:?}");
        for r in check(&db, &query_mix(10_000), PlanKind::Baseline, oracle_of, &ctx) {
            assert_eq!(r.false_positives, 0, "{ctx}: baseline hits are exact");
        }
    }
}

#[test]
fn batch_survives_deletions() {
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let db = mem_hermit(scheme, 2_000, 0);
        for pk in (0..2_000).step_by(3) {
            db.delete_by_pk(pk).unwrap();
        }
        let deleted = |i: usize| i.is_multiple_of(3);
        let oracle_of = |p: &[RangePredicate]| oracle(&db, 2_000, 0, deleted, p);
        let ctx = format!("deletions {scheme:?}");
        check(&db, &query_mix(2_000), PlanKind::Hermit, oracle_of, &ctx);
        // Deleted rows must be gone.
        let r = &db.execute_batch(&[Query::new().range(TARGET, 0.0, 8.0)])[0];
        assert_eq!(r.rows.len(), 6, "targets 1,2,4,5,7,8 survive");
    }
}

#[test]
fn batch_with_inflated_error_bound_counts_false_positives() {
    let mut db = Database::new(schema(), 0, TidScheme::Physical);
    insert_rows(&mut db, 10_000, 0);
    // Wide enough to fetch false positives, narrow enough against the
    // host column's 20 000-wide range that the Hermit route still wins.
    db.set_trs_params(TrsParams::with_error_bound(1_000.0));
    db.create_baseline_index(HOST, true).unwrap();
    db.create_hermit_index(TARGET, HOST).unwrap();
    let oracle_of = |p: &[RangePredicate]| oracle(&db, 10_000, 0, |_| false, p);
    let queries = [Query::new().range(TARGET, 1_000.0, 1_009.0)];
    let b = &check(&db, &queries, PlanKind::Hermit, oracle_of, "inflated error bound")[0];
    assert_eq!(b.rows.len(), 10);
    assert!(b.false_positives > 0, "wide bands must produce validated-away candidates");
}

#[test]
fn batch_extra_conjunct_matches_scalar() {
    for scheme in [TidScheme::Logical, TidScheme::Physical] {
        let db = mem_hermit(scheme, 10_000, 97);
        let oracle_of = |p: &[RangePredicate]| oracle(&db, 10_000, 97, |_| false, p);
        // other = 10·target: the extra conjunct keeps targets 150..=159.
        let queries = [Query::new().range(TARGET, 100.0, 199.0).range(OTHER, 1_500.0, 1_590.0)];
        let ctx = format!("extra conjunct {scheme:?}");
        let b = &check(&db, &queries, PlanKind::Hermit, oracle_of, &ctx)[0];
        assert_eq!(b.rows.len(), 10, "{ctx}");
        assert!(b.false_positives >= 90, "{ctx}: rows failing the extra conjunct count as FPs");
    }
}

#[test]
fn paged_batch_matches_scalar_under_pool_churn() {
    // 12-page pool over a ~140-page heap: validation constantly evicts.
    let db = paged_hermit(40_000, 50, 12, 4);
    let oracle_of = |p: &[RangePredicate]| oracle(&db, 40_000, 50, |_| false, p);
    check(&db, &query_mix(40_000), PlanKind::Hermit, oracle_of, "paged");
}

/// Buffer-pool accesses (hits + misses) made while executing `q`'s plan.
fn pool_accesses_of(db: &Database, q: &Query, kind: PlanKind) -> (QueryResult, u64) {
    let plan = db.plan(q);
    assert_eq!(plan.kind(), kind, "{plan}");
    let (h0, m0, _) = db.pool_counters().expect("paged substrate");
    let r = db.execute_plan(&plan);
    let (h1, m1, _) = db.pool_counters().expect("paged substrate");
    (r, (h1 - h0) + (m1 - m0))
}

fn distinct_pages(locs: impl IntoIterator<Item = RowLoc>) -> u64 {
    locs.into_iter().map(|loc| loc.block).collect::<BTreeSet<_>>().len() as u64
}

#[test]
fn paged_batch_reduces_pool_traffic() {
    // Phase 4 pins each heap page once: a query's pool accesses equal the
    // number of distinct heap pages among its resolved candidates, however
    // many candidates share a page. One access per candidate would be
    // ~1 000 here against a few dozen pages.
    let (lb, ub) = (5_000.0, 5_999.0);

    // Baseline route: the candidates are exactly the result rows.
    let mut db = paged_db(20_000, 0, 256, 4);
    db.create_baseline_index(TARGET, false).unwrap();
    let (r, accesses) =
        pool_accesses_of(&db, &Query::new().range(TARGET, lb, ub), PlanKind::Baseline);
    assert_eq!(r.rows.len(), 1_000);
    let pages = distinct_pages(r.rows.iter().copied());
    assert!(pages > 1 && pages * 10 < 1_000, "fixture must pack many rows per page: {pages}");
    assert_eq!(accesses, pages, "baseline route: one pool access per candidate page");

    // Hermit route: the candidates include false positives, so rederive
    // them by hand from the TRS-Tree and the host index (phases 1–2).
    let db = paged_hermit(20_000, 97, 256, 4);
    let Some(SecondaryIndex::Hermit { trs, host }) = db.index(TARGET) else { unreachable!() };
    let Some(SecondaryIndex::Baseline(host_tree)) = db.index(*host) else { unreachable!() };
    let approx = trs.lookup(lb, ub);
    let mut candidates: Vec<RowLoc> = approx.tids.iter().map(|t| t.as_loc()).collect();
    for &(lo, hi) in &approx.ranges {
        host_tree.read().for_each_in_range(&F64Key(lo), &F64Key(hi), |_, tid| {
            candidates.push(tid.as_loc());
        });
    }
    let (r, accesses) =
        pool_accesses_of(&db, &Query::new().range(TARGET, lb, ub), PlanKind::Hermit);
    assert_eq!(r.rows.len(), 1_000);
    assert_eq!(accesses, distinct_pages(candidates), "hermit route: one access per candidate page");
}

#[test]
fn scalar_extra_conjunct_is_single_fetch() {
    // Every conjunct is read from one heap visit; with an extra conjunct
    // the pool traffic must not double.
    let db = paged_hermit(20_000, 0, 256, 1);
    let q = Query::new().range(TARGET, 1_000.0, 1_499.0);
    let (without, accesses_without) = pool_accesses_of(&db, &q, PlanKind::Hermit);
    let q = q.range(OTHER, 0.0, f64::MAX);
    let (with, accesses_with) = pool_accesses_of(&db, &q, PlanKind::Hermit);
    assert_eq!(without.rows.len(), 500);
    assert_eq!(with.rows.len(), 500);
    assert_eq!(accesses_with, accesses_without, "extra conjunct must not re-fetch the row's page");
}

#[test]
fn parallel_batch_matches_sequential_on_paged_substrate() {
    // 48 consecutive queries through one scratch on a churning sharded
    // pool: each batch member equals its own single run and the oracle.
    let db = paged_hermit(30_000, 100, 64, 8);
    let queries: Vec<Query> = (0..48)
        .map(|i| Query::new().range(TARGET, i as f64 * 600.0, i as f64 * 600.0 + 299.0))
        .collect();
    let oracle_of = |p: &[RangePredicate]| oracle(&db, 30_000, 100, |_| false, p);
    let sequential = check(&db, &queries, PlanKind::Hermit, oracle_of, "paged batch");
    for r in &sequential {
        assert_eq!(r.rows.len(), 300);
    }
    // The same batch on 2, 4 and 7 threads at once, racing for the pool.
    for threads in [2, 4, 7] {
        std::thread::scope(|s| {
            let workers: Vec<_> =
                (0..threads).map(|_| s.spawn(|| db.execute_batch(&queries))).collect();
            for w in workers {
                let parallel = w.join().expect("batch thread panicked");
                for (i, (seq, par)) in sequential.iter().zip(&parallel).enumerate() {
                    assert_identical(seq, par, &format!("threads={threads} query {i}"));
                }
            }
        });
    }
}
