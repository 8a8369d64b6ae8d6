//! Query execution: one pipeline for every plan, with per-phase timing
//! (§5.2, Fig. 3).
//!
//! [`Database::execute`], [`Database::execute_plan`],
//! [`Database::execute_batch`] and [`Database::execute_for_txn`] all run a
//! [`QueryPlan`] through the same function, under one read view and
//! with one set of reusable scratch buffers (see [`crate::batch`]):
//!
//! 1. *TRS-Tree lookup* (Hermit route only) — translate the target
//!    predicate into host-column ranges plus outlier tids.
//! 2. *Index lookup* — probe the host column's B+-tree with each range and
//!    union the outlier tids (Hermit), range-scan the target column's own
//!    B+-tree (baseline), or box-scan a composite index.
//! 3. *Primary-index lookup* (logical pointers only) — resolve candidate
//!    tids to row locations.
//! 4. *Base-table validation* — visit the candidates page by page and
//!    re-check every conjunct, discarding false positives and rows the
//!    reader cannot see.
//!
//! The baseline's index hits are exact on the driving predicate, but the
//! tuples are still fetched: a real query returns rows, not tids, and that
//! fetch is where the time goes at high selectivity. The seq-scan plan
//! skips phases 1–3 and validates every conjunct in-scan.

use crate::batch::BatchScratch;
use crate::breakdown::LookupBreakdown;
use crate::database::Database;
use crate::plan::{AccessPath, QueryPlan};
use crate::query::Query;
use hermit_storage::{ColumnId, RowLoc, Value};
use hermit_txn::ReadView;
use std::time::Instant;

/// An inclusive range predicate on one column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangePredicate {
    /// Column the predicate applies to.
    pub column: ColumnId,
    /// Lower bound (inclusive).
    pub lb: f64,
    /// Upper bound (inclusive).
    pub ub: f64,
}

impl RangePredicate {
    /// Range predicate.
    pub fn range(column: ColumnId, lb: f64, ub: f64) -> Self {
        RangePredicate { column, lb, ub }
    }

    /// Point predicate (`lb == ub`).
    pub fn point(column: ColumnId, v: f64) -> Self {
        RangePredicate { column, lb: v, ub: v }
    }

    /// Check the predicate against a fetched value.
    #[inline]
    pub fn matches(&self, v: Option<f64>) -> bool {
        v.is_some_and(|x| x >= self.lb && x <= self.ub)
    }
}

/// Result of executing one query.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Row locations of qualifying tuples. Index plans emit them in
    /// validation order, which on the paged substrate is heap-page order;
    /// there is no ORDER BY.
    pub rows: Vec<RowLoc>,
    /// Candidates fetched that failed validation (Hermit's approximation
    /// cost; always 0 for the baseline and the seq scan). Feeds Fig. 17.
    pub false_positives: usize,
    /// Candidates whose tid did not resolve (deleted tuples etc.).
    pub unresolved: usize,
    /// Per-phase wall-clock time.
    pub breakdown: LookupBreakdown,
    /// Materialized projection, aligned with `rows` — present only when the
    /// executed [`Query`] carried a `select`.
    pub projected: Option<Vec<Vec<Value>>>,
}

impl QueryResult {
    /// False-positive ratio among fetched candidates.
    pub fn false_positive_ratio(&self) -> f64 {
        let fetched = self.rows.len() + self.false_positives;
        if fetched == 0 {
            0.0
        } else {
            self.false_positives as f64 / fetched as f64
        }
    }
}

impl Database {
    /// Plan and execute a [`Query`].
    ///
    /// The planner picks the driving access path (Hermit route, baseline
    /// B+-tree, composite box, or seq scan); every other conjunct is
    /// validated at the base table. A query over an unindexed column
    /// returns its rows via the scan plan.
    pub fn execute(&self, query: &Query) -> QueryResult {
        self.execute_plan(&self.plan(query))
    }

    /// Execute an already-built [`QueryPlan`] (plan once with
    /// [`plan`](Self::plan), execute many times).
    ///
    /// Reads are filtered as an auto-commit reader: another
    /// transaction's uncommitted inserts are invisible and its pending
    /// deletes still visible (see [`crate::txn`]). With no pk locked the
    /// view filters nothing.
    /// [`execute_for_txn`](Self::execute_for_txn) reads *as* a transaction
    /// instead.
    pub fn execute_plan(&self, plan: &QueryPlan) -> QueryResult {
        self.run_plan(plan, None, &mut BatchScratch::default())
    }

    /// Plan and execute every [`Query`], reusing one set of scratch
    /// buffers across the batch. `execute_batch(qs)[i]` is exactly
    /// `execute(&qs[i])`: same rows in the same order, same
    /// false-positive and unresolved counts.
    pub fn execute_batch(&self, queries: &[Query]) -> Vec<QueryResult> {
        let mut scratch = BatchScratch::default();
        queries.iter().map(|q| self.run_plan(&self.plan(q), None, &mut scratch)).collect()
    }

    /// The one query pipeline: run `plan` under the shared visibility
    /// latch, reading as transaction `owner` (`None` = auto-commit), with
    /// `scratch` reused for phases 1–4.
    pub(crate) fn run_plan(
        &self,
        plan: &QueryPlan,
        owner: Option<u64>,
        scratch: &mut BatchScratch,
    ) -> QueryResult {
        // The view holds the shared side of the visibility latch until the
        // last row is validated (see `crate::txn`); it must not escape.
        let _witness = crate::latches::witness_token(25);
        let view = self.txns.read_view(owner);
        let mut result = QueryResult::default();
        match &plan.access {
            AccessPath::SeqScan => {
                self.run_scan_into(&plan.recheck, plan.limit, &view, &mut result)
            }
            access => {
                if !self.gather(access, scratch, &mut result) {
                    return result; // an index the plan names was dropped
                }
                self.batched_resolve_validate(&plan.recheck, scratch, &view, &mut result);
            }
        }
        self.finish_plan(plan, scratch, &mut result);
        result
    }

    /// Apply a plan's limit and projection to a validated result.
    /// Projection rows are fetched page-grouped (each heap page pinned
    /// once), but `projected` stays aligned with `rows`.
    fn finish_plan(&self, plan: &QueryPlan, scratch: &mut BatchScratch, result: &mut QueryResult) {
        if let Some(n) = plan.limit {
            result.rows.truncate(n);
        }
        if let Some(cols) = &plan.projection {
            let t = Instant::now();
            let mut projected = vec![Vec::new(); result.rows.len()];
            self.heap().for_each_row_batch(&result.rows, &mut scratch.order, |i, row| {
                projected[i] = match row {
                    Some(row) => cols.iter().map(|&c| row.value(c)).collect(),
                    None => vec![Value::Null; cols.len()],
                };
            });
            result.projected = Some(projected);
            result.breakdown.base_table += t.elapsed();
        }
    }

    /// The scan plan: stream every live heap row, validating all conjuncts
    /// in-scan. Exact (no false positives, nothing unresolved), and the
    /// only path that honors `limit` by stopping early. Rows the reader's
    /// `view` cannot see are skipped before predicate evaluation and do
    /// not count toward the limit.
    fn run_scan_into(
        &self,
        checks: &[RangePredicate],
        limit: Option<usize>,
        view: &ReadView<'_>,
        result: &mut QueryResult,
    ) {
        let t = Instant::now();
        let limit = limit.unwrap_or(usize::MAX);
        let pk_col = self.pk_col();
        let rows = &mut result.rows;
        if limit > 0 {
            // Unreadable pages are skipped, as everywhere on the read path.
            let _ = self.heap().for_each_live_row(|loc, row| {
                if !view.visible_row(&row, pk_col) {
                    return true; // invisible to this reader; keep scanning
                }
                if checks.iter().all(|p| p.matches(row.f64(p.column))) {
                    rows.push(loc);
                }
                rows.len() < limit
            });
        }
        result.breakdown.base_table += t.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanKind;
    use hermit_storage::{ColumnDef, Schema, TidScheme, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::int("pk"),
            ColumnDef::float("host"),
            ColumnDef::float("target"),
            ColumnDef::float("other"),
        ])
    }

    /// Database with target = i, host = 2i (+ noise rows), both index kinds
    /// available on demand.
    fn populated(scheme: TidScheme, n: usize, noise_every: usize) -> Database {
        let db = Database::new(schema(), 0, scheme);
        for i in 0..n {
            let m = i as f64;
            let host = if noise_every > 0 && i % noise_every == 0 {
                -5.0e6 // wild outlier host value
            } else {
                2.0 * m
            };
            db.insert(&[
                Value::Int(i as i64),
                Value::Float(host),
                Value::Float(m),
                Value::Float(m * 10.0),
            ])
            .unwrap();
        }
        db
    }

    fn hermit_db(scheme: TidScheme, n: usize, noise_every: usize) -> Database {
        let mut db = populated(scheme, n, noise_every);
        db.create_baseline_index(1, true).unwrap();
        db.create_hermit_index(2, 1).unwrap();
        db
    }

    fn baseline_db(scheme: TidScheme, n: usize) -> Database {
        let mut db = populated(scheme, n, 0);
        db.create_baseline_index(2, false).unwrap();
        db
    }

    /// Plan `q`, assert the planner chose `kind`, and execute the plan.
    fn run(db: &Database, q: &Query, kind: PlanKind) -> QueryResult {
        let plan = db.plan(q);
        assert_eq!(plan.kind(), kind, "unexpected plan:\n{plan}");
        db.execute_plan(&plan)
    }

    fn row_targets(db: &Database, result: &QueryResult) -> Vec<f64> {
        let mut v: Vec<f64> =
            result.rows.iter().map(|&loc| db.heap().value_f64(loc, 2).unwrap().unwrap()).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    #[test]
    fn hermit_range_lookup_exact_results() {
        for scheme in [TidScheme::Logical, TidScheme::Physical] {
            let db = hermit_db(scheme, 10_000, 0);
            let result = run(&db, &Query::new().range(2, 100.0, 199.0), PlanKind::Hermit);
            let targets = row_targets(&db, &result);
            assert_eq!(targets.len(), 100, "{scheme:?}");
            assert_eq!(targets[0], 100.0);
            assert_eq!(targets[99], 199.0);
        }
    }

    #[test]
    fn baseline_range_lookup_exact_results() {
        for scheme in [TidScheme::Logical, TidScheme::Physical] {
            let db = baseline_db(scheme, 10_000);
            let result = run(&db, &Query::new().range(2, 100.0, 199.0), PlanKind::Baseline);
            assert_eq!(result.rows.len(), 100, "{scheme:?}");
            assert_eq!(result.false_positives, 0);
        }
    }

    #[test]
    fn hermit_and_baseline_agree() {
        let hermit = hermit_db(TidScheme::Physical, 20_000, 97);
        let baseline = {
            let mut db = populated(TidScheme::Physical, 20_000, 97);
            db.create_baseline_index(2, false).unwrap();
            db
        };
        for (lb, ub) in [(0.0, 50.0), (500.5, 700.25), (19_990.0, 30_000.0), (7.0, 7.0)] {
            let q = Query::new().range(2, lb, ub);
            let h = run(&hermit, &q, PlanKind::Hermit);
            let b = run(&baseline, &q, PlanKind::Baseline);
            assert_eq!(
                row_targets(&hermit, &h),
                row_targets(&baseline, &b),
                "mismatch on [{lb}, {ub}]"
            );
        }
    }

    #[test]
    fn point_lookup_with_outlier_rows() {
        // Rows where i % 50 == 0 have wild host values; the TRS-Tree must
        // find them via its outlier buffers.
        let db = hermit_db(TidScheme::Physical, 10_000, 50);
        for probe in [0.0, 50.0, 4_950.0] {
            let r = run(&db, &Query::new().point(2, probe), PlanKind::Hermit);
            assert_eq!(r.rows.len(), 1, "outlier row at target={probe} must be found");
        }
        // Normal rows still work.
        let r = run(&db, &Query::new().point(2, 123.0), PlanKind::Hermit);
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn false_positives_counted_and_validated_away() {
        // Inflate error_bound so the host ranges are wide → false positives
        // get fetched but filtered. The bound stays small enough against
        // the host column's 20 000-wide range that the planner still
        // prefers the Hermit route over a scan.
        let mut db = populated(TidScheme::Physical, 10_000, 0);
        db.set_trs_params(hermit_trs::TrsParams::with_error_bound(1_000.0));
        db.create_baseline_index(1, true).unwrap();
        db.create_hermit_index(2, 1).unwrap();
        let r = run(&db, &Query::new().range(2, 1_000.0, 1_009.0), PlanKind::Hermit);
        assert_eq!(row_targets(&db, &r), (1_000..=1_009).map(|i| i as f64).collect::<Vec<_>>());
        assert!(
            r.false_positives > 0,
            "inflated error_bound must produce false positives to validate away"
        );
        assert!(r.false_positive_ratio() > 0.0 && r.false_positive_ratio() < 1.0);
    }

    #[test]
    fn extra_predicate_validated_at_base_table() {
        let db = hermit_db(TidScheme::Physical, 10_000, 0);
        // other = 10 * target; constrain other ∈ [1500, 1590] → target ∈ [150, 159].
        let q = Query::new().range(2, 100.0, 199.0).range(3, 1_500.0, 1_590.0);
        let r = run(&db, &q, PlanKind::Hermit);
        let targets = row_targets(&db, &r);
        assert_eq!(targets, (150..=159).map(|i| i as f64).collect::<Vec<_>>());
        assert!(r.false_positives >= 90, "rows failing the extra conjunct count as FPs");
    }

    #[test]
    fn logical_scheme_records_primary_time() {
        let q = Query::new().range(2, 0.0, 999.0);
        let db = hermit_db(TidScheme::Logical, 10_000, 0);
        let r = run(&db, &q, PlanKind::Hermit);
        assert_eq!(r.rows.len(), 1_000);
        assert!(r.breakdown.primary_index.as_nanos() > 0, "logical scheme must pay the hop");
        let db = hermit_db(TidScheme::Physical, 10_000, 0);
        let r = run(&db, &q, PlanKind::Hermit);
        assert_eq!(r.breakdown.primary_index.as_nanos(), 0, "physical scheme skips the hop");
    }

    #[test]
    fn deleted_rows_do_not_resurface() {
        let db = hermit_db(TidScheme::Logical, 1_000, 0);
        db.delete_by_pk(500).unwrap();
        let r = run(&db, &Query::new().range(2, 499.0, 501.0), PlanKind::Hermit);
        let targets = row_targets(&db, &r);
        assert_eq!(targets, vec![499.0, 501.0]);
    }

    #[test]
    fn unindexed_column_scans() {
        let db = populated(TidScheme::Physical, 100, 0);
        let r = run(&db, &Query::new().range(2, 0.0, 10.0), PlanKind::Scan);
        assert_eq!(row_targets(&db, &r), (0..=10).map(|i| i as f64).collect::<Vec<_>>());
        assert_eq!(r.false_positives, 0, "a scan fetches no speculative candidates");
    }

    #[test]
    fn empty_predicate_range() {
        let db = hermit_db(TidScheme::Physical, 1_000, 0);
        let r = run(&db, &Query::new().range(2, 900.0, 100.0), PlanKind::Hermit);
        assert!(r.rows.is_empty(), "inverted range matches nothing");
        let r = run(&db, &Query::new().range(2, 5_000.0, 6_000.0), PlanKind::Hermit);
        assert!(r.rows.is_empty(), "out-of-domain range matches nothing");
    }
}
