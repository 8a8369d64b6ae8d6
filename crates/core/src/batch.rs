//! The phase kernels of the query pipeline ([`Database::execute`] and
//! friends), written to be run back to back over many plans:
//!
//! * **TRS traversal scratch** — the BFS queue and the approximate-result
//!   buffers ([`hermit_trs::LookupScratch`] / [`hermit_trs::TrsLookup`])
//!   are reused across plans instead of allocated per lookup.
//! * **Candidate buffers** — the tid and row-location vectors grow once and
//!   are recycled for every subsequent plan.
//! * **Base-table locality** — validation fetches candidates *in page
//!   order* through [`crate::Heap::for_each_row_batch`]: each heap page is
//!   pinned once per query and every candidate on it is validated under
//!   that single buffer-pool access, instead of one pool lock + frame
//!   lookup per candidate.
//! * **Point probes** — exact-match predicates probe the B+-tree with the
//!   allocation-free [`hermit_btree::BPlusTree::for_each_eq`].
//!
//! `tests/batch_equivalence.rs` checks every result against a
//! generator-formula oracle and checks that a batch returns exactly what
//! the same queries return one at a time.

use crate::database::Database;
use crate::executor::{QueryResult, RangePredicate};
use crate::index::SecondaryIndex;
use crate::plan::AccessPath;
use hermit_storage::{F64Key, RowLoc, Tid, TidScheme};
use hermit_trs::{LookupScratch, TrsLookup};
use hermit_txn::ReadView;
use std::time::Instant;

/// Reusable buffers for the query pipeline. One instance serves any number
/// of sequential plans.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// TRS-Tree BFS queue (phase 1).
    trs: LookupScratch,
    /// TRS approximate result: host ranges + outlier tids (phase 1).
    approx: TrsLookup,
    /// Candidate tuple ids (phase 2).
    candidates: Vec<Tid>,
    /// Resolved row locations (phase 3).
    locs: Vec<RowLoc>,
    /// Page-sort permutation for locality-aware heap visits (phase 4 and
    /// projection).
    pub(crate) order: Vec<u32>,
}

impl Database {
    /// Phases 1–2 of an index access path into `scratch.candidates`.
    /// Returns `false` when an index the plan names has been dropped since
    /// planning (the caller reports no rows).
    pub(crate) fn gather(
        &self,
        access: &AccessPath,
        scratch: &mut BatchScratch,
        result: &mut QueryResult,
    ) -> bool {
        scratch.candidates.clear();
        match access {
            AccessPath::Hermit { pred, host } => match self.index(pred.column) {
                Some(SecondaryIndex::Hermit { trs, .. }) => {
                    self.gather_hermit(trs, *host, *pred, scratch, result)
                }
                _ => false,
            },
            AccessPath::Baseline { pred } => match self.index(pred.column) {
                Some(SecondaryIndex::Baseline(tree)) => {
                    gather_baseline(&tree.read(), *pred, scratch, result);
                    true
                }
                _ => false,
            },
            AccessPath::CompositeBaseline { index, leading, value }
            | AccessPath::CompositeHermit { index, leading, value, .. } => {
                self.composites().gather_box_candidates(
                    *index,
                    *leading,
                    *value,
                    &mut result.breakdown,
                    &mut scratch.candidates,
                )
            }
            // No index to probe: `Database::run_plan` scans instead.
            AccessPath::SeqScan => false,
        }
    }

    /// Phases 1–2 of the Hermit route into `scratch.candidates`. Returns
    /// `false` when the host index has dropped out from under the TRS-Tree.
    // hermit-lint: hot-path
    fn gather_hermit(
        &self,
        trs: &hermit_trs::ConcurrentTrsTree,
        host: hermit_storage::ColumnId,
        pred: RangePredicate,
        scratch: &mut BatchScratch,
        result: &mut QueryResult,
    ) -> bool {
        // Phase 1: TRS-Tree search into reused buffers (read latch).
        let t0 = Instant::now();
        trs.lookup_into(pred.lb, pred.ub, &mut scratch.trs, &mut scratch.approx);
        result.breakdown.trs_tree += t0.elapsed();

        // Phase 2: host-index probes over the translated ranges, unioned
        // with the outlier tids (which bypass the host index entirely,
        // §4.3).
        let t1 = Instant::now();
        let Some(SecondaryIndex::Baseline(host_tree)) = self.index(host) else {
            return false;
        };
        let host_tree = host_tree.read();
        let candidates = &mut scratch.candidates;
        candidates.extend_from_slice(&scratch.approx.tids);
        let had_outliers = !candidates.is_empty();
        for &(lo, hi) in &scratch.approx.ranges {
            if lo == hi {
                host_tree.for_each_eq(&F64Key(lo), |tid| candidates.push(*tid));
            } else {
                host_tree
                    .for_each_in_range(&F64Key(lo), &F64Key(hi), |_, tid| candidates.push(*tid));
            }
        }
        // Release before resolution/validation.
        drop(host_tree);
        // The unioned ranges are disjoint, so duplicates only arise between
        // outlier tids and range results.
        if had_outliers {
            candidates.sort_unstable();
            candidates.dedup();
        }
        result.breakdown.host_index += t1.elapsed();
        true
    }

    /// Phases 3–4 of every index plan: primary-index resolution into
    /// `scratch.locs`, then page-ordered base-table validation of every
    /// `recheck` conjunct. Rows invisible to the reader's `view` are
    /// skipped silently — neither matches nor false positives, exactly as
    /// if the write had never happened.
    // hermit-lint: hot-path
    pub(crate) fn batched_resolve_validate(
        &self,
        recheck: &[RangePredicate],
        scratch: &mut BatchScratch,
        view: &ReadView<'_>,
        result: &mut QueryResult,
    ) {
        // Phase 3: primary-index resolution (logical scheme only).
        scratch.locs.clear();
        match self.scheme() {
            TidScheme::Physical => {
                scratch.locs.extend(scratch.candidates.iter().map(|t| t.as_loc()))
            }
            TidScheme::Logical => {
                let t2 = Instant::now();
                let primary = self.primary();
                for tid in &scratch.candidates {
                    match primary.get(tid.as_pk()) {
                        Some(loc) => scratch.locs.push(loc),
                        None => result.unresolved += 1,
                    }
                }
                result.breakdown.primary_index += t2.elapsed();
            }
        }

        // Phase 4: page-ordered base-table validation. Each heap page is
        // pinned once; all of its candidates are validated under that one
        // access, with every recheck column read from the same row view.
        let t3 = Instant::now();
        let locs = &scratch.locs;
        let pk_col = self.pk_col();
        result.rows.reserve(locs.len());
        self.heap().for_each_row_batch(locs, &mut scratch.order, |i, row| match row {
            None => result.unresolved += 1,
            Some(row) => {
                if !view.visible_row(&row, pk_col) {
                    // Invisible to this reader: skip silently.
                } else if recheck.iter().all(|p| p.matches(row.f64(p.column))) {
                    result.rows.push(locs[i]);
                } else {
                    result.false_positives += 1;
                }
            }
        });
        result.breakdown.base_table += t3.elapsed();
    }
}

/// Phase 2 of the baseline path into `scratch.candidates`; point
/// predicates take the allocation-free equality probe.
// hermit-lint: hot-path
fn gather_baseline(
    tree: &hermit_btree::BPlusTree<F64Key, Tid>,
    pred: RangePredicate,
    scratch: &mut BatchScratch,
    result: &mut QueryResult,
) {
    let t0 = Instant::now();
    let candidates = &mut scratch.candidates;
    if pred.lb == pred.ub {
        tree.for_each_eq(&F64Key(pred.lb), |tid| candidates.push(*tid));
    } else {
        tree.for_each_in_range(&F64Key(pred.lb), &F64Key(pred.ub), |_, tid| candidates.push(*tid));
    }
    result.breakdown.host_index += t0.elapsed();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanKind;
    use crate::query::Query;
    use hermit_storage::{ColumnDef, Schema, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::int("pk"),
            ColumnDef::float("host"),
            ColumnDef::float("target"),
            ColumnDef::float("other"),
        ])
    }

    fn hermit_db(scheme: TidScheme, n: usize, noise_every: usize) -> Database {
        let mut db = Database::new(schema(), 0, scheme);
        for i in 0..n {
            let m = i as f64;
            let host = if noise_every > 0 && i % noise_every == 0 { -5.0e6 } else { 2.0 * m };
            db.insert(&[
                Value::Int(i as i64),
                Value::Float(host),
                Value::Float(m),
                Value::Float(m * 10.0),
            ])
            .unwrap();
        }
        db.create_baseline_index(1, true).unwrap();
        db.create_hermit_index(2, 1).unwrap();
        db
    }

    /// Bit-for-bit agreement: rows in order, false positives, unresolved.
    fn assert_identical(single: &QueryResult, batched: &QueryResult, ctx: &str) {
        assert_eq!(single.rows, batched.rows, "{ctx}: rows");
        assert_eq!(single.false_positives, batched.false_positives, "{ctx}: false positives");
        assert_eq!(single.unresolved, batched.unresolved, "{ctx}: unresolved");
    }

    /// Run `queries` as one batch and one at a time; both must agree and
    /// every query must take the `kind` route.
    fn batch_vs_single(db: &Database, queries: &[Query], kind: PlanKind) -> Vec<QueryResult> {
        let batched = db.execute_batch(queries);
        assert_eq!(batched.len(), queries.len());
        for (q, b) in queries.iter().zip(&batched) {
            assert_eq!(db.plan(q).kind(), kind, "{q:?}");
            assert_identical(&db.execute(q), b, &format!("{q:?}"));
        }
        batched
    }

    fn targets(db: &Database, r: &QueryResult) -> Vec<f64> {
        let mut v: Vec<f64> =
            r.rows.iter().map(|&loc| db.heap().value_f64(loc, 2).unwrap().unwrap()).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    #[test]
    fn batch_matches_scalar_on_hermit_ranges() {
        for scheme in [TidScheme::Logical, TidScheme::Physical] {
            let db = hermit_db(scheme, 10_000, 97);
            let queries: Vec<Query> = [(0.0, 50.0), (500.5, 700.25), (9_990.0, 20_000.0)]
                .iter()
                .map(|&(lb, ub)| Query::new().range(2, lb, ub))
                .collect();
            let batched = batch_vs_single(&db, &queries, PlanKind::Hermit);
            assert_eq!(targets(&db, &batched[0]).len(), 51, "{scheme:?}");
            assert_eq!(targets(&db, &batched[1]), (501..=700).map(f64::from).collect::<Vec<_>>());
            assert_eq!(targets(&db, &batched[2]).len(), 10, "{scheme:?}");
        }
    }

    #[test]
    fn batch_point_probes_use_equality_path() {
        let db = hermit_db(TidScheme::Physical, 5_000, 50);
        let queries: Vec<Query> = [0.0, 50.0, 123.0, 4_950.0, 9_999.0]
            .iter()
            .map(|&v| Query::new().point(2, v))
            .collect();
        let batched = batch_vs_single(&db, &queries, PlanKind::Hermit);
        let counts: Vec<usize> = batched.iter().map(|r| r.rows.len()).collect();
        assert_eq!(counts, [1, 1, 1, 1, 0]);
    }

    #[test]
    fn parallel_batch_preserves_input_order() {
        let db = hermit_db(TidScheme::Logical, 8_000, 0);
        let queries: Vec<Query> = (0..64)
            .map(|i| Query::new().range(2, i as f64 * 100.0, i as f64 * 100.0 + 49.0))
            .collect();
        let batched = batch_vs_single(&db, &queries, PlanKind::Hermit);
        for (i, r) in batched.iter().enumerate() {
            let lo = i as f64 * 100.0;
            assert_eq!(targets(&db, r), (0..50).map(|k| lo + k as f64).collect::<Vec<_>>());
        }
        // Batches running on several threads at once, each with its own
        // scratch, return the sequential answer in input order.
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..3).map(|_| s.spawn(|| db.execute_batch(&queries))).collect();
            for w in workers {
                let parallel = w.join().expect("batch thread panicked");
                for (i, (p, b)) in parallel.iter().zip(&batched).enumerate() {
                    assert_identical(b, p, &format!("query {i}"));
                }
            }
        });
    }

    #[test]
    fn batch_on_unindexed_column_is_empty() {
        let db = Database::new(schema(), 0, TidScheme::Physical);
        let results = batch_vs_single(&db, &[Query::new().range(3, 0.0, 10.0)], PlanKind::Scan);
        assert_eq!(results.len(), 1);
        assert!(results[0].rows.is_empty());
    }

    #[test]
    fn empty_batch_is_empty() {
        let db = hermit_db(TidScheme::Physical, 100, 0);
        assert!(db.execute_batch(&[]).is_empty());
    }

    #[test]
    fn batch_with_extra_conjunct() {
        let db = hermit_db(TidScheme::Physical, 10_000, 0);
        // other = 10 * target; constrain other ∈ [1500, 1590] → target ∈ [150, 159].
        let q = Query::new().range(2, 100.0, 199.0).range(3, 1_500.0, 1_590.0);
        let b = &batch_vs_single(&db, std::slice::from_ref(&q), PlanKind::Hermit)[0];
        assert_eq!(targets(&db, b), (150..=159).map(f64::from).collect::<Vec<_>>());
        assert!(b.false_positives >= 90);
    }
}
