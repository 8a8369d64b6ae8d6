//! Index construction and reorganization read the base table through one
//! projection (`TablePairSource`) and one tid rule (`Database::make_tid`).
//! These regressions pin the two ways that read used to go wrong:
//!
//! * logical tids were built from the primary key read through `f64`, so
//!   keys above 2^53 rounded to a neighbour's key — the index pointed at
//!   the wrong row or at none, a silent false negative;
//! * a reorganization rescan that hit an unreadable page returned zero
//!   pairs, and the rebuilt subtree dropped every row it covered.

use hermit::core::{Database, PlanKind, Query, SharedDatabase};
use hermit::storage::paged::{BufferPool, FilePageStore, PagedTable};
use hermit::storage::{
    install_fault_hook, ColumnDef, FaultAction, RowLoc, Schema, TidScheme, Value,
};
use std::sync::Arc;

const PK: usize = 0;
const HOST: usize = 1;
const TARGET: usize = 2;

/// First primary key: above 2^53, where `f64` can no longer hold every
/// integer.
const BIG_PK: i64 = 1 << 53;

fn schema() -> Schema {
    Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float("host"), ColumnDef::float("target")])
}

/// `n` rows with `target = i`, `host = 2i`, primary keys from `pk0`.
fn load(db: &Database, pk0: i64, n: usize) {
    for i in 0..n {
        let m = i as f64;
        db.insert(&[Value::Int(pk0 + i as i64), Value::Float(2.0 * m), Value::Float(m)]).unwrap();
    }
}

/// Host baseline index plus a Hermit index on the target.
fn index(db: &mut Database) {
    db.create_baseline_index(HOST, true).unwrap();
    db.create_hermit_index(TARGET, HOST).unwrap();
}

/// Regime change in target `[2000, 3000)`: the old rows leave and 4 000
/// replacements follow `host = 9m + 77`. Under the stale model they are
/// outliers and queue split candidates.
fn shift_regime(shared: &SharedDatabase, old_pk0: i64, new_pk0: i64) {
    for i in 2_000..3_000i64 {
        shared.delete_by_pk(old_pk0 + i).unwrap();
    }
    for i in 0..4_000i64 {
        let m = 2_000.0 + i as f64 * 0.25;
        shared
            .insert(&[Value::Int(new_pk0 + i), Value::Float(9.0 * m + 77.0), Value::Float(m)])
            .unwrap();
    }
    assert!(shared.reorg_queue_len() > 0, "the regime shift must queue candidates");
}

/// Run a target range through the planner, asserting a Hermit plan with
/// nothing unresolved, and return the sorted rows.
fn hermit_range(db: &Database, lb: f64, ub: f64) -> Vec<RowLoc> {
    let plan = db.plan(&Query::new().range(TARGET, lb, ub));
    assert_eq!(plan.kind(), PlanKind::Hermit, "{plan}");
    let r = db.execute_plan(&plan);
    assert_eq!(r.unresolved, 0, "every candidate tid must resolve");
    let mut rows = r.rows;
    rows.sort_unstable();
    rows
}

/// Seq-scan oracle for a target range.
fn scan_range(db: &Database, lb: f64, ub: f64) -> Vec<RowLoc> {
    let mut rows = Vec::new();
    db.heap()
        .for_each_live_row(|loc, row| {
            if row.f64(TARGET).is_some_and(|m| m >= lb && m <= ub) {
                rows.push(loc);
            }
            true
        })
        .unwrap();
    rows.sort_unstable();
    rows
}

#[test]
fn bulk_build_keeps_logical_pks_above_2_pow_53_exact() {
    let mut db = Database::new(schema(), PK, TidScheme::Logical);
    load(&db, BIG_PK, 20_000);
    index(&mut db);
    let rows = hermit_range(&db, 5_000.0, 5_099.0);
    assert_eq!(rows.len(), 100, "a 100-row Hermit range must return all 100 rows");
    assert_eq!(rows, scan_range(&db, 5_000.0, 5_099.0));
}

#[test]
fn reorganization_rescan_keeps_logical_pks_above_2_pow_53_exact() {
    let mut db = Database::new(schema(), PK, TidScheme::Logical);
    load(&db, BIG_PK, 5_000);
    index(&mut db);
    let shared = SharedDatabase::new(db);
    shift_regime(&shared, BIG_PK, BIG_PK + 1_000_001);
    assert!(shared.maintenance_pass(16) > 0, "the pass must re-read the shifted range");
    let db = shared.db();
    for (lb, ub) in [(2_100.0, 2_110.0), (1_900.0, 1_999.0), (4_000.0, 4_099.0)] {
        assert_eq!(hermit_range(db, lb, ub), scan_range(db, lb, ub), "[{lb}, {ub}]");
    }
    assert_eq!(hermit_range(db, 2_100.0, 2_110.0).len(), 41);
}

#[test]
fn failed_reorganization_rescan_keeps_the_old_subtree() {
    let dir = std::env::temp_dir().join(format!("hermit-rescan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = Arc::new(FilePageStore::create(&dir.join("heap.pages")).unwrap());
    // 8 frames for a heap of ~30 pages: a full rescan must read the device.
    let pool = Arc::new(BufferPool::new(store, 8));
    let mut db = Database::new_paged(PagedTable::new(schema(), pool), PK);
    load(&db, 0, 5_000);
    index(&mut db);
    let shared = SharedDatabase::new(db);
    shift_regime(&shared, 0, 1_000_000);
    let db = shared.db();
    let heap_pages = match db.heap() {
        hermit::core::Heap::Paged(t) => t.page_count(),
        hermit::core::Heap::Mem(_) => unreachable!(),
    };
    assert!(heap_pages > 8, "the heap ({heap_pages} pages) must outgrow the pool");

    {
        // Every device read fails while the pass runs.
        let _armed = install_fault_hook(|site| {
            if site == "page.read" {
                FaultAction::Error
            } else {
                FaultAction::Continue
            }
        });
        shared.maintenance_pass(16);
    }

    for (lb, ub) in [(2_100.0, 2_110.0), (1_900.0, 1_999.0), (4_000.0, 4_099.0)] {
        assert_eq!(hermit_range(db, lb, ub), scan_range(db, lb, ub), "[{lb}, {ub}]");
    }
    drop(shared);
    std::fs::remove_dir_all(&dir).ok();
}
