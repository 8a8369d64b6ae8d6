//! Property-based tests on the storage substrate: the in-memory table and
//! the paged heap must agree with a reference model under arbitrary
//! insert/delete/read sequences, pages must round-trip through the
//! buffer pool under arbitrary access orders, and the index-build
//! projection must agree across the two substrates.

use hermit::core::database::TablePairSource;
use hermit::core::Database;
use hermit::storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit::storage::{ColumnDef, RowLoc, Schema, Table, TidScheme, Value};
use hermit::trs::PairSource;
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float_null("a")])
}

#[derive(Debug, Clone)]
enum Op {
    Insert { pk: i64, a: Option<f64> },
    Delete { victim: usize },
    Read { probe: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<i64>(), proptest::option::of(-1.0e6f64..1.0e6))
            .prop_map(|(pk, a)| Op::Insert { pk, a }),
        (0usize..64).prop_map(|victim| Op::Delete { victim }),
        (0usize..64).prop_map(|probe| Op::Read { probe }),
    ]
}

/// Apply the same op sequence to the in-memory table, the paged table, and
/// a plain `Vec` model; all three must agree at every read.
fn run_against_model(ops: Vec<Op>, pool_pages: usize) -> Result<(), TestCaseError> {
    let mem = &mut Table::new(schema());
    let pool = Arc::new(BufferPool::new(Arc::new(SimulatedPageStore::new()), pool_pages));
    let paged = PagedTable::new(schema(), pool);
    // model: (loc_mem, loc_paged, row, live)
    let mut model: Vec<(RowLoc, RowLoc, Vec<Value>, bool)> = Vec::new();

    for op in ops {
        match op {
            Op::Insert { pk, a } => {
                let row = vec![Value::Int(pk), a.map_or(Value::Null, Value::Float)];
                let lm = mem.insert(&row).unwrap();
                let lp = paged.insert(&row).unwrap();
                model.push((lm, lp, row, true));
            }
            Op::Delete { victim } => {
                if model.is_empty() {
                    continue;
                }
                let idx = victim % model.len();
                let (lm, lp, _, live) = &mut model[idx];
                if *live {
                    mem.delete(*lm).unwrap();
                    paged.delete(*lp).unwrap();
                    *live = false;
                } else {
                    prop_assert!(mem.delete(*lm).is_err());
                    prop_assert!(paged.delete(*lp).is_err());
                }
            }
            Op::Read { probe } => {
                if model.is_empty() {
                    continue;
                }
                let idx = probe % model.len();
                let (lm, lp, row, live) = &model[idx];
                if *live {
                    prop_assert_eq!(&mem.get(*lm).unwrap(), row);
                    prop_assert_eq!(&paged.get(*lp).unwrap(), row);
                    prop_assert_eq!(
                        mem.value_f64(*lm, 1).unwrap(),
                        paged.value_f64(*lp, 1).unwrap()
                    );
                } else {
                    prop_assert!(mem.get(*lm).is_err());
                    prop_assert!(paged.get(*lp).is_err());
                }
            }
        }
    }

    // Final census.
    let live = model.iter().filter(|(_, _, _, l)| *l).count();
    prop_assert_eq!(mem.len(), live);
    prop_assert_eq!(paged.len(), live);
    // Scans agree with the model.
    let mut mem_rows = 0;
    mem.for_each_live_row(|_, _| {
        mem_rows += 1;
        true
    });
    let mut paged_rows = 0;
    paged
        .for_each_live_row(|_, _| {
            paged_rows += 1;
            true
        })
        .unwrap();
    prop_assert_eq!(mem_rows, live);
    prop_assert_eq!(paged_rows, live);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn heaps_agree_with_model(
        ops in proptest::collection::vec(op_strategy(), 1..300),
        pool_pages in 1usize..8,
    ) {
        run_against_model(ops, pool_pages)?;
    }

    /// The index-build projection (`TablePairSource::scan_range`, target
    /// `a`, host `pk`) yields the same pairs on both substrates, and exactly
    /// the live non-NULL rows whose target lies in the inclusive range.
    #[test]
    fn scan_range_agrees_between_heaps(
        values in proptest::collection::vec(proptest::option::of(-1.0e3f64..1.0e3), 1..200),
        bounds in (-1.2e3f64..1.2e3, -1.2e3f64..1.2e3),
        delete_every in 2usize..9,
    ) {
        let (lb, ub) = (bounds.0.min(bounds.1), bounds.0.max(bounds.1));
        let mem = Database::new(schema(), 0, TidScheme::Physical);
        let pool = Arc::new(BufferPool::new(Arc::new(SimulatedPageStore::new()), 4));
        let paged = Database::new_paged(PagedTable::new(schema(), pool), 0);
        let mut want = Vec::new();
        for (pk, a) in values.iter().enumerate() {
            let row = vec![Value::Int(pk as i64), a.map_or(Value::Null, Value::Float)];
            mem.insert(&row).unwrap();
            paged.insert(&row).unwrap();
            if pk % delete_every == 0 {
                mem.delete_by_pk(pk as i64).unwrap();
                paged.delete_by_pk(pk as i64).unwrap();
            } else if let Some(a) = a.filter(|a| *a >= lb && *a <= ub) {
                want.push((a, pk as f64));
            }
        }
        let pairs_of = |db: &Database| -> Vec<(f64, f64)> {
            let src = TablePairSource { db, target: 1, host: 0 };
            let mut p: Vec<(f64, f64)> =
                src.scan_range(lb, ub).unwrap().iter().map(|(m, n, _)| (*m, *n)).collect();
            p.sort_by(|a, b| a.partial_cmp(b).unwrap());
            p
        };
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(pairs_of(&mem), want.clone());
        prop_assert_eq!(pairs_of(&paged), want);
    }

    #[test]
    fn stats_track_true_min_max(
        values in proptest::collection::vec(-1.0e9f64..1.0e9, 1..500),
    ) {
        let schema = Schema::new(vec![ColumnDef::float("v")]);
        let mut t = Table::new(schema);
        for &v in &values {
            t.insert(&[Value::Float(v)]).unwrap();
        }
        let (lo, hi) = t.stats(0).unwrap().range().unwrap();
        let true_lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let true_hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(lo, true_lo);
        prop_assert_eq!(hi, true_hi);
    }
}
