//! The paper's §3 running example, multi-column form: a `STOCK_HISTORY`
//! table `(TIME, DJ, SP, VOL)` with an existing composite index on
//! `(TIME, DJ)`. The DBA wants an index on `(TIME, SP)` for queries like
//!
//! ```sql
//! SELECT * FROM STOCK_HISTORY
//! WHERE (TIME BETWEEN ? AND ?) AND (SP BETWEEN ? AND ?)
//! ```
//!
//! Hermit notices SP correlates with DJ, builds a TRS-Tree from SP to DJ,
//! and answers the box query through the existing `(TIME, DJ)` index.
//!
//! ```text
//! cargo run --release --example multi_column
//! ```

use hermit::core::{Database, PlanKind, Query};
use hermit::stats::pearson;
use hermit::storage::{ColumnDef, RowLoc, Schema, TidScheme, Value};

const TIME: usize = 0;
const DJ: usize = 1;
const SP: usize = 2;
const VOL: usize = 3;

fn main() {
    let schema = Schema::new(vec![
        ColumnDef::int("time"),
        ColumnDef::float("dj"),
        ColumnDef::float("sp"),
        ColumnDef::float("vol"),
    ]);
    let mut db = Database::new(schema, TIME, TidScheme::Physical);

    // 60 years of trading days: DJ drifts upward; SP tracks DJ at roughly
    // 1/8 scale with its own wiggle (the Fig. 26 relationship).
    let days = 15_000usize;
    let mut dj = 3_000.0f64;
    let mut spread = 0.0f64;
    for t in 0..days {
        dj = (dj * (1.0 + 0.0002 + 0.004 * ((t as f64 * 0.7).sin()))).max(100.0);
        spread = 0.95 * spread + 0.3 * ((t as f64 * 1.3).cos());
        let sp = dj / 8.0 + spread * 3.0;
        let vol = 1.0e6 + (t % 1000) as f64 * 500.0;
        db.insert(&[Value::Int(t as i64), Value::Float(dj), Value::Float(sp), Value::Float(vol)])
            .unwrap();
    }

    // Correlation check a DBA would run before recommending Hermit.
    let djs: Vec<f64> = {
        let hermit::core::Heap::Mem(table) = db.heap() else { unreachable!() };
        let table = table.read();
        let sps: Vec<f64> = table.column(SP).unwrap().iter_f64().flatten().collect();
        let djs: Vec<f64> = table.column(DJ).unwrap().iter_f64().flatten().collect();
        println!("pearson(SP, DJ) = {:.4}", pearson(&sps, &djs));
        djs
    };

    // Existing composite index on (TIME, DJ); Hermit composite on
    // (TIME, SP) routed through DJ.
    let host = db.create_composite_baseline(TIME, DJ).unwrap();
    let hermit_idx = db.create_composite_hermit(TIME, SP, DJ).unwrap();
    {
        let composites = db.composites();
        println!(
            "index sizes: (TIME,DJ) host = {:.1} KB | (TIME,SP) Hermit = {:.2} KB",
            composites.get(host).unwrap().memory_bytes() as f64 / 1024.0,
            composites.get(hermit_idx).unwrap().memory_bytes() as f64 / 1024.0,
        );
    }

    // The paper's box query: a TIME window AND an SP band. The planner
    // routes it through the composite Hermit index.
    let (sp_lo, sp_hi) = {
        let mid = djs[10_000] / 8.0;
        (mid - 5.0, mid + 5.0)
    };
    let query = Query::new().range(TIME, 8_000.0, 12_000.0).range(SP, sp_lo, sp_hi);
    let plan = db.plan(&query);
    assert_eq!(plan.kind(), PlanKind::Composite, "{plan}");
    println!("{plan}");
    let result = db.execute_plan(&plan);
    println!(
        "days 8000–12000 with SP in [{sp_lo:.2}, {sp_hi:.2}]: {} rows ({} false positives removed)",
        result.rows.len(),
        result.false_positives
    );

    // Cross-check against a sequential scan of the base table.
    let mut expected: Vec<RowLoc> = Vec::new();
    db.heap()
        .for_each_live_row(|loc, row| {
            if query.conjuncts().iter().all(|p| p.matches(row.f64(p.column))) {
                expected.push(loc);
            }
            true
        })
        .unwrap();
    let mut got = result.rows.clone();
    got.sort_unstable();
    expected.sort_unstable();
    assert_eq!(got, expected);
    println!("verified against a sequential scan ✓");

    for &loc in result.rows.iter().take(3) {
        let row = db.heap().get(loc).unwrap();
        println!("  time={} dj={} sp={} vol={}", row[TIME], row[DJ], row[SP], row[VOL]);
    }
}
