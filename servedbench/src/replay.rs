//! The traced replay: after the closed loop, a fixed seeded sample of the
//! workload's operations runs in-process with one span per public call
//! into each layer — planner, executor, TRS-Tree, host B+-tree, insert
//! path, transactions, WAL — plus buffer-pool count deltas.

use crate::check::{self, Expect};
use crate::client::TXN_INSERTS;
use crate::gen::{self, Dataset, Mix, Op, Rng, HOST, TARGET};
use hermit_core::{InsertBreakdown, PlanKind, SecondaryIndex, SharedDatabase};
use hermit_storage::F64Key;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Read operations replayed.
pub const READS: usize = 1000;
/// Auto-commit inserts replayed through `Database::insert_timed`.
pub const INSERTS: usize = 200;
/// Transactions replayed: begin, 4 `insert_txn`, 1 `delete_by_pk_txn`,
/// commit.
pub const TXNS: usize = 50;
/// Bare `wal_commit` calls.
pub const WAL_SYNCS: usize = 200;
/// Replay pks start here above the loaded rows, clear of the clients' pks.
const PK_OFFSET: i64 = 1 << 40;

/// One span of the replay.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Replayed operation the span belongs to.
    pub op: u32,
    /// Public call timed.
    pub name: &'static str,
    /// Enclosing span, or `""` for the operation's root.
    pub parent: &'static str,
    /// Start, ns after the replay began.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn time<T>(
        &mut self,
        op: u32,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        let dur = start.elapsed();
        self.list.push(Span {
            op,
            name,
            parent,
            start_ns: (start - self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
        (value, dur)
    }
}

/// Mean in µs of a duration sum over `n` samples.
fn mean_us(sum: Duration, n: usize) -> f64 {
    sum.as_secs_f64() * 1e6 / n.max(1) as f64
}

/// Replay results: per-layer values keyed by metric name, and the spans.
pub struct ReplayOut {
    /// Metric values.
    pub values: BTreeMap<&'static str, f64>,
    /// Every span, in order.
    pub spans: Vec<Span>,
    /// Rows returned by the replayed reads (deterministic per seed on the
    /// read-only workloads).
    pub rows_returned: u64,
    /// Oracle mismatches of the replayed reads.
    pub mismatches: Vec<String>,
}

/// Run the replay against the quiescent database; `expect` describes the
/// closed loop's writes.
pub fn run(
    db: &SharedDatabase,
    data: &Dataset,
    mix: Mix,
    expect: &Expect,
) -> Result<ReplayOut, String> {
    let mut spans = Spans { origin: Instant::now(), list: Vec::new() };
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut mismatches = Vec::new();
    let inner = db.db();
    let Some(SecondaryIndex::Hermit { trs, .. }) = inner.index(TARGET) else {
        return Err("no Hermit index on the target column".into());
    };
    let Some(SecondaryIndex::Baseline(host_tree)) = inner.index(HOST) else {
        return Err("no B+-tree on the host column".into());
    };

    // Reads: the workload's read operations, from a stream of their own.
    let mut rng = Rng::derive(data.seed, gen::stream::REPLAY);
    let reads: Vec<Op> = std::iter::repeat_with(|| data.next_op(mix, &mut rng))
        .filter(|op| *op != Op::Txn)
        .take(READS)
        .collect();
    // Pool counts are taken around `execute_plan` alone: the oracle's own
    // row fetches below go through the pool too.
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    let (mut plan_t, mut exec_t, mut trs_t, mut probe_t) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut phases = hermit_core::LookupBreakdown::default();
    let (mut hermit_plans, mut candidates, mut rows_out, mut fps) =
        (0usize, 0usize, 0usize, 0usize);
    let (mut ranges, mut outlier_tids, mut probes, mut entries) = (0usize, 0usize, 0usize, 0usize);
    for (i, &op) in reads.iter().enumerate() {
        let id = i as u32;
        let query = gen::query_of(op).expect("read operation");
        let (plan, d) = spans.time(id, "Database::plan", "", || inner.plan(&query));
        plan_t += d;
        hermit_plans += usize::from(plan.kind() == PlanKind::Hermit);
        let pool_before = inner.pool_counters();
        let (result, d) =
            spans.time(id, "Database::execute_plan", "", || inner.execute_plan(&plan));
        exec_t += d;
        if let (Some(a), Some(b)) = (pool_before, inner.pool_counters()) {
            hits += b.0 - a.0;
            misses += b.1 - a.1;
            evictions += b.2 - a.2;
        }
        phases.merge(&result.breakdown);
        candidates += result.rows.len() + result.false_positives + result.unresolved;
        rows_out += result.rows.len();
        fps += result.false_positives;
        let fetched: Vec<_> =
            result.rows.iter().filter_map(|&loc| inner.heap().get(loc).ok()).collect();
        let (lo, hi) = gen::bounds_of(op);
        if let Err(e) = check::exact(data, expect, lo, hi, &fetched) {
            if mismatches.len() < 8 {
                mismatches.push(format!("replay {op:?}: {e}"));
            }
        }
        let (approx, d) = spans.time(id, "ConcurrentTrsTree::lookup", "", || match op {
            Op::Point(x) => trs.lookup_point(x),
            _ => trs.lookup(lo, hi),
        });
        trs_t += d;
        ranges += approx.ranges.len();
        outlier_tids += approx.tids.len();
        for &(a, b) in &approx.ranges {
            let (n, d) = spans.time(id, "BPlusTree::range", "ConcurrentTrsTree::lookup", || {
                host_tree.read().range(F64Key(a), F64Key(b)).count()
            });
            probe_t += d;
            probes += 1;
            entries += n;
        }
    }
    let n = reads.len();
    v.insert("plan.us", mean_us(plan_t, n));
    v.insert("plan.hermit_share", hermit_plans as f64 / n as f64);
    v.insert("exec.us", mean_us(exec_t, n));
    v.insert("exec.trs_tree_us", mean_us(phases.trs_tree, n));
    v.insert("exec.host_index_us", mean_us(phases.host_index, n));
    v.insert("exec.base_table_us", mean_us(phases.base_table, n));
    v.insert("exec.candidates_per_query", candidates as f64 / n as f64);
    v.insert("exec.rows_per_query", rows_out as f64 / n as f64);
    v.insert("exec.fp_ratio", fps as f64 / (rows_out + fps).max(1) as f64);
    v.insert("trs.lookup_us", mean_us(trs_t, n));
    v.insert("trs.ranges_per_query", ranges as f64 / n as f64);
    v.insert("trs.outlier_tids_per_query", outlier_tids as f64 / n as f64);
    v.insert("btree.probe_us", mean_us(probe_t, probes));
    v.insert("btree.entries_per_probe", entries as f64 / probes.max(1) as f64);
    // The in-memory heap has no pool: no accesses, no misses, and a hit
    // ratio of 1 by the server exporter's convention.
    v.insert(
        "pool.hit_ratio",
        if hits + misses == 0 { 1.0 } else { hits as f64 / (hits + misses) as f64 },
    );
    v.insert("pool.misses_per_query", misses as f64 / n as f64);
    v.insert("pool.evictions_per_query", evictions as f64 / n as f64);

    // Writes, after every read so the reads see the closed loop's state.
    let base = data.rows.len() as i64 + PK_OFFSET;
    let row_of = |i: usize| gen::inserted_row(data.seed, data.rows.len(), base + i as i64).values();
    let mut ins = InsertBreakdown::default();
    for i in 0..INSERTS {
        let op = (n + i) as u32;
        let (r, _) = spans
            .time(op, "Database::insert_timed", "", || inner.insert_timed(&row_of(i), &mut ins));
        r.map_err(|e| format!("replay insert failed: {e}"))?;
    }
    v.insert("insert.table_us", mean_us(ins.table, INSERTS));
    v.insert("insert.existing_indexes_us", mean_us(ins.existing_indexes, INSERTS));
    v.insert("trs.insert_us", mean_us(ins.new_indexes, INSERTS));

    let (mut begin_t, mut stmt_t, mut commit_t) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for t in 0..TXNS {
        let op = (n + INSERTS + t) as u32;
        let (txn, d) = spans.time(op, "SharedDatabase::begin", "", || db.begin());
        begin_t += d;
        let txn = txn.map_err(|e| format!("replay begin failed: {e}"))?;
        for s in 0..TXN_INSERTS {
            let row = row_of(INSERTS + t * TXN_INSERTS + s);
            let (r, d) =
                spans.time(op, "SharedDatabase::insert_txn", "", || db.insert_txn(txn, &row));
            stmt_t += d;
            r.map_err(|e| format!("replay insert_txn failed: {e}"))?;
        }
        // Delete one of the auto-commit replay rows, never a loaded one.
        let (r, _) = spans.time(op, "SharedDatabase::delete_by_pk_txn", "", || {
            db.delete_by_pk_txn(txn, base + t as i64)
        });
        r.map_err(|e| format!("replay delete failed: {e}"))?;
        let (r, d) = spans.time(op, "SharedDatabase::commit", "", || db.commit(txn));
        commit_t += d;
        r.map_err(|e| format!("replay commit failed: {e}"))?;
    }
    v.insert("txn.begin_us", mean_us(begin_t, TXNS));
    v.insert("txn.stmt_us", mean_us(stmt_t, TXNS * TXN_INSERTS));
    v.insert("txn.commit_us", mean_us(commit_t, TXNS));

    let mut sync_t = Duration::ZERO;
    for s in 0..WAL_SYNCS {
        let op = (n + INSERTS + TXNS + s) as u32;
        let (r, d) = spans.time(op, "SharedDatabase::wal_commit", "", || db.wal_commit());
        sync_t += d;
        r.map_err(|e| format!("replay wal_commit failed: {e}"))?;
    }
    v.insert("wal.sync_us", mean_us(sync_t, WAL_SYNCS));
    Ok(ReplayOut { values: v, spans: spans.list, rows_returned: rows_out as u64, mismatches })
}
