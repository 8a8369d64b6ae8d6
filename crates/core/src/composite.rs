//! Multi-column secondary indexes (§3 of the paper).
//!
//! > "Suppose that two columns A and M on a table are queried together
//! > frequently, so an index on (A, M) is desirable. Hermit can utilize a
//! > host index on (A, N) and the correlation between M and N, to answer
//! > queries on A and M."
//!
//! This module adds that capability: composite B+-tree indexes keyed on a
//! *(leading, value)* column pair, and composite Hermit indexes where the
//! value column routes through a correlated host column that shares the
//! same leading column. A *box* query — a conjunction of a leading-column
//! range and a value-column range — then runs either directly on the
//! composite baseline index or through the TRS-Tree + composite host
//! pipeline.
//!
//! Key layout: lexicographic `(leading, value)` pairs. A box query scans
//! the leading range and filters the second dimension in-index, which is
//! exactly what a conventional RDBMS does with a composite B+-tree when
//! the leading predicate is the more selective one.

use crate::breakdown::LookupBreakdown;
use crate::executor::RangePredicate;
use hermit_btree::BPlusTree;
use hermit_storage::{ColumnId, F64Key, Tid};
use hermit_trs::TrsTree;
use std::time::Instant;

/// A composite key: (leading column value, second column value), ordered
/// lexicographically (derived `Ord` on the tuple).
pub type CompositeKey = (F64Key, F64Key);

/// A two-column secondary index.
pub enum CompositeIndex {
    /// Complete composite B+-tree on `(leading, value)`.
    Baseline {
        /// The tree, keyed lexicographically.
        tree: BPlusTree<CompositeKey, Tid>,
        /// Leading column id.
        leading: ColumnId,
        /// Second (value) column id.
        value: ColumnId,
    },
    /// Hermit composite index: a TRS-Tree on `target → host` plus the name
    /// of a composite baseline index on `(leading, host)` that serves the
    /// translated probes.
    Hermit {
        /// Correlation structure from the target column to the host column.
        trs: TrsTree,
        /// Leading column id (shared with the host index).
        leading: ColumnId,
        /// Target (indexed) column id.
        target: ColumnId,
        /// Host column id.
        host: ColumnId,
    },
}

impl CompositeIndex {
    /// Heap bytes held by the index structure.
    pub fn memory_bytes(&self) -> usize {
        match self {
            CompositeIndex::Baseline { tree, .. } => tree.memory_bytes(),
            CompositeIndex::Hermit { trs, .. } => trs.memory_bytes(),
        }
    }

    /// True for the Hermit variant.
    pub fn is_hermit(&self) -> bool {
        matches!(self, CompositeIndex::Hermit { .. })
    }
}

/// The composite-index registry a [`Database`](crate::Database) owns: built by
/// [`Database::create_composite_baseline`](crate::Database::create_composite_baseline) /
/// [`Database::create_composite_hermit`](crate::Database::create_composite_hermit), maintained on every insert and
/// delete, and queried through the planner's composite box plans.
pub struct CompositeIndexes {
    indexes: Vec<CompositeIndex>,
}

impl Default for CompositeIndexes {
    fn default() -> Self {
        Self::new()
    }
}

impl CompositeIndexes {
    /// Empty registry.
    pub fn new() -> Self {
        CompositeIndexes { indexes: Vec::new() }
    }

    /// Number of composite indexes.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// True if no composite indexes exist.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// Borrow an index by position.
    pub fn get(&self, i: usize) -> Option<&CompositeIndex> {
        self.indexes.get(i)
    }

    /// Mutable access for background maintenance (composite Hermit
    /// reorganization under the registry write latch).
    pub(crate) fn get_mut_for_maintenance(&mut self, i: usize) -> Option<&mut CompositeIndex> {
        self.indexes.get_mut(i)
    }

    /// Registry position of the composite baseline index on
    /// `(leading, host)`, if one exists — the companion a composite Hermit
    /// index routes its translated probes through.
    pub fn companion_baseline(&self, leading: ColumnId, host: ColumnId) -> Option<usize> {
        self.indexes.iter().position(|idx| {
            matches!(
                idx,
                CompositeIndex::Baseline { leading: l, value: v, .. }
                    if *l == leading && *v == host
            )
        })
    }

    /// Register a built composite baseline tree; returns its position.
    pub(crate) fn push_baseline(
        &mut self,
        tree: BPlusTree<CompositeKey, Tid>,
        leading: ColumnId,
        value: ColumnId,
    ) -> usize {
        self.indexes.push(CompositeIndex::Baseline { tree, leading, value });
        self.indexes.len() - 1
    }

    /// Register a built composite Hermit index; returns its position.
    pub(crate) fn push_hermit(
        &mut self,
        trs: TrsTree,
        leading: ColumnId,
        target: ColumnId,
        host: ColumnId,
    ) -> usize {
        self.indexes.push(CompositeIndex::Hermit { trs, leading, target, host });
        self.indexes.len() - 1
    }

    /// Maintain all composite indexes for a newly-inserted row (called by
    /// [`Database::insert_timed`](crate::Database::insert_timed) for the registry the database owns).
    pub fn maintain_insert(&mut self, row: &[hermit_storage::Value], tid: Tid) {
        for index in &mut self.indexes {
            match index {
                CompositeIndex::Baseline { tree, leading, value } => {
                    if let (Some(l), Some(v)) = (row[*leading].as_f64(), row[*value].as_f64()) {
                        tree.insert((F64Key(l), F64Key(v)), tid);
                    }
                }
                CompositeIndex::Hermit { trs, target, host, .. } => {
                    if let (Some(m), Some(n)) = (row[*target].as_f64(), row[*host].as_f64()) {
                        trs.insert(m, n, tid);
                    }
                }
            }
        }
    }

    /// Maintain all composite indexes for a row being deleted: exact key
    /// removal on baselines, TRS-Tree tombstoning on Hermit indexes (the
    /// same contract as the single-column indexes in
    /// [`Database::delete_by_pk`](crate::Database::delete_by_pk)).
    pub fn maintain_delete(&mut self, row: &[hermit_storage::Value], tid: Tid) {
        for index in &mut self.indexes {
            match index {
                CompositeIndex::Baseline { tree, leading, value } => {
                    if let (Some(l), Some(v)) = (row[*leading].as_f64(), row[*value].as_f64()) {
                        tree.remove(&(F64Key(l), F64Key(v)), &tid);
                    }
                }
                CompositeIndex::Hermit { trs, target, .. } => {
                    if let Some(m) = row[*target].as_f64() {
                        trs.delete(m, tid);
                    }
                }
            }
        }
    }

    /// Phases 1–2 of a box query against the index at `idx`: gather
    /// candidate tids into `candidates`, recording per-phase time in
    /// `breakdown`. Baseline indexes box-scan directly; Hermit indexes
    /// translate the value predicate through the TRS-Tree and box-scan the
    /// companion `(leading, host)` baseline with each translated range.
    ///
    /// Returns `false` when `idx` does not exist or a Hermit index's
    /// companion baseline is missing — the caller treats that as an empty
    /// candidate set. The query pipeline ([`Database::execute_plan`](crate::Database::execute_plan))
    /// takes this path for both composite plan kinds, then resolves and
    /// validates the candidates like any other plan.
    pub(crate) fn gather_box_candidates(
        &self,
        idx: usize,
        leading_pred: RangePredicate,
        value_pred: RangePredicate,
        breakdown: &mut LookupBreakdown,
        candidates: &mut Vec<Tid>,
    ) -> bool {
        let Some(index) = self.indexes.get(idx) else { return false };
        match index {
            CompositeIndex::Baseline { tree, .. } => {
                let t0 = Instant::now();
                scan_box(tree, &leading_pred, &value_pred, |tid| candidates.push(tid));
                breakdown.host_index += t0.elapsed();
            }
            CompositeIndex::Hermit { trs, leading, host, .. } => {
                // Phase 1: TRS-Tree translation of the value predicate.
                let t0 = Instant::now();
                let approx = trs.lookup(value_pred.lb, value_pred.ub);
                breakdown.trs_tree += t0.elapsed();

                // Phase 2: box probes on the (leading, host) baseline.
                let t1 = Instant::now();
                let Some(companion) = self.companion_baseline(*leading, *host) else {
                    return false;
                };
                let Some(CompositeIndex::Baseline { tree, .. }) = self.indexes.get(companion)
                else {
                    return false;
                };
                candidates.extend_from_slice(&approx.tids);
                let had_outliers = !candidates.is_empty();
                for (lo, hi) in &approx.ranges {
                    let host_pred = RangePredicate { column: *host, lb: *lo, ub: *hi };
                    scan_box(tree, &leading_pred, &host_pred, |tid| candidates.push(tid));
                }
                if had_outliers {
                    candidates.sort_unstable();
                    candidates.dedup();
                }
                breakdown.host_index += t1.elapsed();
            }
        }
        true
    }

    /// Total heap bytes across all composite indexes.
    pub fn memory_bytes(&self) -> usize {
        self.indexes.iter().map(|i| i.memory_bytes()).sum()
    }
}

/// Scan the composite tree over the leading range, filtering the second
/// dimension, yielding tids.
fn scan_box(
    tree: &BPlusTree<CompositeKey, Tid>,
    leading: &RangePredicate,
    value: &RangePredicate,
    mut f: impl FnMut(Tid),
) {
    let lo = (F64Key(leading.lb), F64Key(f64::NEG_INFINITY));
    let hi = (F64Key(leading.ub), F64Key(f64::INFINITY));
    tree.for_each_in_range(&lo, &hi, |key, tid| {
        if key.1 .0 >= value.lb && key.1 .0 <= value.ub {
            f(*tid);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::error::CoreError;
    use crate::plan::PlanKind;
    use crate::query::Query;
    use hermit_storage::{ColumnDef, RowLoc, Schema, TidScheme, Value};

    const TIME: ColumnId = 0;
    const DJ: ColumnId = 1;
    const SP: ColumnId = 2;

    /// Stock-like table: time (pk), dj (host), sp (target, ≈ dj/8).
    fn stock_db(scheme: TidScheme, n: usize) -> Database {
        let schema = Schema::new(vec![
            ColumnDef::int("time"),
            ColumnDef::float("dj"),
            ColumnDef::float("sp"),
        ]);
        let db = Database::new(schema, TIME, scheme);
        for t in 0..n {
            // Slow upward drift with deterministic wiggle.
            let dj = 3_000.0 + t as f64 * 0.5 + ((t % 97) as f64 - 48.0);
            let sp = dj / 8.0 + ((t % 13) as f64 - 6.0) * 0.05;
            db.insert(&[Value::Int(t as i64), Value::Float(dj), Value::Float(sp)]).unwrap();
        }
        db
    }

    /// The composite box query `time ∈ [tl, tu] AND sp ∈ [sl, su]`.
    fn box_query(tl: f64, tu: f64, sl: f64, su: f64) -> Query {
        Query::new().range(TIME, tl, tu).range(SP, sl, su)
    }

    /// Run `q`, asserting the planner picked a composite box scan, and
    /// return its rows sorted.
    fn run_composite(db: &Database, q: &Query) -> Vec<RowLoc> {
        let plan = db.plan(q);
        assert_eq!(plan.kind(), PlanKind::Composite, "{plan}");
        let mut rows = db.execute_plan(&plan).rows;
        rows.sort_unstable();
        rows
    }

    /// Seq-scan oracle: every live row matching all of `q`'s conjuncts.
    fn scan_oracle(db: &Database, q: &Query) -> Vec<RowLoc> {
        let mut rows = Vec::new();
        db.heap()
            .for_each_live_row(|loc, row| {
                if q.conjuncts().iter().all(|p| p.matches(row.f64(p.column))) {
                    rows.push(loc);
                }
                true
            })
            .unwrap();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn composite_baseline_box_query_exact() {
        let mut db = stock_db(TidScheme::Physical, 20_000);
        db.create_composite_baseline(TIME, SP).unwrap();
        let q = box_query(5_000.0, 10_000.0, 700.0, 800.0);
        let rows = run_composite(&db, &q);
        assert_eq!(rows, scan_oracle(&db, &q));
        assert!(rows.len() > 100, "box should be non-trivial: {}", rows.len());
    }

    #[test]
    fn composite_hermit_matches_composite_baseline() {
        for scheme in [TidScheme::Physical, TidScheme::Logical] {
            // Direct: (time, sp). Hermit: sp → dj via the (time, dj) host.
            let mut direct = stock_db(scheme, 20_000);
            direct.create_composite_baseline(TIME, SP).unwrap();
            let mut hermit = stock_db(scheme, 20_000);
            hermit.create_composite_baseline(TIME, DJ).unwrap();
            hermit.create_composite_hermit(TIME, SP, DJ).unwrap();

            for (tl, tu, sl, su) in [
                (1_000.0, 4_000.0, 500.0, 600.0),
                (0.0, 20_000.0, 800.0, 820.0),
                (15_000.0, 16_000.0, 0.0, 10_000.0),
                (7.0, 7.0, 0.0, 10_000.0),
            ] {
                let q = box_query(tl, tu, sl, su);
                let want = scan_oracle(&direct, &q);
                assert_eq!(run_composite(&direct, &q), want, "{scheme:?} direct {q:?}");
                assert_eq!(run_composite(&hermit, &q), want, "{scheme:?} hermit {q:?}");
            }
        }
    }

    #[test]
    fn composite_hermit_is_succinct() {
        let mut db = stock_db(TidScheme::Physical, 20_000);
        db.create_composite_baseline(TIME, DJ).unwrap();
        let direct = db.create_composite_baseline(TIME, SP).unwrap();
        let hermit = db.create_composite_hermit(TIME, SP, DJ).unwrap();
        let direct_bytes = db.composites().get(direct).unwrap().memory_bytes();
        let hermit_bytes = db.composites().get(hermit).unwrap().memory_bytes();
        assert!(
            hermit_bytes * 5 < direct_bytes,
            "composite TRS-Tree ({hermit_bytes}) must be ≪ composite B+-tree ({direct_bytes})"
        );
    }

    #[test]
    fn composite_insert_maintenance() {
        let mut db = stock_db(TidScheme::Physical, 5_000);
        db.create_composite_baseline(TIME, DJ).unwrap();
        db.create_composite_hermit(TIME, SP, DJ).unwrap();
        // Insert a fresh row with an off-model sp (outlier); the database
        // maintains its composite indexes.
        db.insert(&[Value::Int(5_000), Value::Float(6_000.0), Value::Float(123_456.0)]).unwrap();
        let q = box_query(4_999.0, 5_001.0, 123_000.0, 124_000.0);
        let rows = run_composite(&db, &q);
        assert_eq!(rows.len(), 1, "outlier insert must be reachable through the box path");
        assert_eq!(rows, scan_oracle(&db, &q));
    }

    #[test]
    fn hermit_requires_matching_host() {
        let mut db = stock_db(TidScheme::Physical, 100);
        // No composite baseline on (time, dj) yet → typed error.
        assert_eq!(
            db.create_composite_hermit(TIME, SP, DJ),
            Err(CoreError::MissingCompositeHost { leading: TIME, host: DJ })
        );
        assert!(db.composites().is_empty());
    }
}
