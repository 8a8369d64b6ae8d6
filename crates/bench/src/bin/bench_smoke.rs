//! Release-mode bench smoke: lookup throughput plus the serving,
//! durability, transaction and analyzer sections.
//!
//! Runs the paper's `lookup` experiment workload on both storage
//! substrates, once query by query through `Database::execute` (the path a
//! request takes) and once as one `Database::execute_batch`, and writes
//! the results to `BENCH_lookup.json`.
//!
//! ```text
//! bench_smoke [--rows N] [--out PATH]
//! ```
//!
//! The paged substrate uses a zero-latency simulated store with a pool
//! large enough to keep every page hot: what remains is exactly the
//! per-access buffer-pool overhead (lock + frame lookup + copy) that
//! page-grouped validation amortizes — the §7.8 regime with the device
//! taken out of the equation.

use hermit_bench::harness::measure_ops_with;
use hermit_core::recovery::{DurabilityConfig, PAGES_FILE};
use hermit_core::shared::{MaintenanceConfig, MaintenanceWorker, SharedDatabase};
use hermit_core::{Database, PlanKind, Query};
use hermit_storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
use hermit_storage::wal::{WalRecord, WalWriter};
use hermit_storage::{ColumnDef, Schema, TidScheme, Value};
use hermit_workloads::synthetic::cols;
use hermit_workloads::{build_synthetic, CorrelationKind, QueryGen, SyntheticConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RANGE_SELECTIVITY: f64 = 0.001;
const RANGE_QUERIES: usize = 256;
const POINT_QUERIES: usize = 512;
const BUDGET: Duration = Duration::from_millis(400);

struct Variant {
    name: &'static str,
    queries_per_sec: f64,
}

/// Throughputs (queries/second) for one workload on one database: each
/// query planned and executed on its own, and the whole set as one batch.
fn run_workload(db: &Database, queries: &[Query]) -> Vec<Variant> {
    let execute = measure_ops_with(BUDGET, 4, 1_000_000, |i| {
        std::hint::black_box(db.execute(&queries[i % queries.len()]).rows.len());
    });
    let batch = measure_ops_with(BUDGET, 2, 100_000, |_| {
        std::hint::black_box(db.execute_batch(queries).len());
    }) * queries.len() as f64;
    vec![
        Variant { name: "execute", queries_per_sec: execute },
        Variant { name: "execute_batch", queries_per_sec: batch },
    ]
}

/// Paged synthetic database: pk / host / target with host = 2·target,
/// every page resident in a sharded hot pool.
fn build_paged(rows: usize) -> Database {
    let schema = Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
    ]);
    // 27-byte records ≈ 290 rows/page; size the pool ~2× the heap so the
    // only cost left is pool access overhead, not misses.
    let pages = (rows / 250 + 16).next_power_of_two();
    let store = Arc::new(SimulatedPageStore::new());
    let pool = Arc::new(BufferPool::new_sharded(store, pages, 8));
    let table = PagedTable::new(schema, pool);
    let mut db = Database::new_paged(table, 0);
    for i in 0..rows {
        let m = i as f64;
        db.insert(&[Value::Int(i as i64), Value::Float(2.0 * m), Value::Float(m)]).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    db
}

fn queries_for(domain: (f64, f64), target_col: usize, seed: u64) -> (Vec<Query>, Vec<Query>) {
    let mut gen = QueryGen::new(domain, seed);
    let ranges = gen
        .ranges(RANGE_SELECTIVITY, RANGE_QUERIES)
        .into_iter()
        .map(|(lb, ub)| Query::new().range(target_col, lb, ub))
        .collect();
    let points =
        gen.points(POINT_QUERIES).into_iter().map(|p| Query::new().point(target_col, p)).collect();
    (ranges, points)
}

/// Per-plan-kind counts for one query set, as a JSON object: how the
/// cost-based planner routes this workload today. A regression that flips
/// queries from the Hermit route to the scan fallback (or vice versa)
/// shows up directly in the perf trajectory.
fn plan_counts(db: &Database, queries: &[Query]) -> String {
    let mut counts = [0usize; PlanKind::ALL.len()];
    for q in queries {
        let kind = db.plan(q).kind();
        let slot = PlanKind::ALL.iter().position(|k| *k == kind).expect("kind is in ALL");
        counts[slot] += 1;
    }
    let fields: Vec<String> =
        PlanKind::ALL.iter().zip(counts).map(|(k, c)| format!("\"{}\": {c}", k.key())).collect();
    format!("{{{}}}", fields.join(", "))
}

/// In-memory pk/host/target database with host = 2·target, baseline host
/// index + Hermit target index — the shape the concurrent section serves.
fn build_mem_simple(rows: usize) -> Database {
    let schema = Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
    ]);
    let mut db = Database::new(schema, 0, TidScheme::Physical);
    for i in 0..rows {
        let m = i as f64;
        db.insert(&[Value::Int(i as i64), Value::Float(2.0 * m), Value::Float(m)]).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();
    db
}

/// Reader q/s with `readers` query threads racing one continuous
/// insert/delete writer thread over a [`SharedDatabase`].
fn concurrent_throughput(rows: usize, readers: usize, budget: Duration) -> (f64, f64) {
    let shared = SharedDatabase::new(build_mem_simple(rows));
    let queries: Vec<Query> = {
        let mut gen = QueryGen::new((0.0, (rows - 1) as f64), 0x5E0E + readers as u64);
        gen.ranges(RANGE_SELECTIVITY, RANGE_QUERIES)
            .into_iter()
            .map(|(lb, ub)| Query::new().range(2, lb, ub))
            .collect()
    };
    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let writes = AtomicU64::new(0);
    let elapsed = std::thread::scope(|s| {
        // One writer: steady insert/delete churn on its own pk range.
        {
            let shared = shared.clone();
            let (stop, writes) = (&stop, &writes);
            s.spawn(move || {
                let mut pk = 10_000_000i64;
                while !stop.load(Ordering::Relaxed) {
                    let m = (pk % rows as i64) as f64 + 0.5;
                    shared
                        .insert(&[Value::Int(pk), Value::Float(2.0 * m), Value::Float(m)])
                        .unwrap();
                    if pk % 2 == 0 {
                        let _ = shared.delete_by_pk(pk - 1);
                    }
                    pk += 1;
                    writes.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for r in 0..readers {
            let shared = shared.clone();
            let (stop, reads, queries) = (&stop, &reads, &queries);
            s.spawn(move || {
                let mut i = r;
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(shared.execute(&queries[i % queries.len()]).rows.len());
                    i += 1;
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let t0 = Instant::now();
        std::thread::sleep(budget);
        stop.store(true, Ordering::Relaxed);
        t0.elapsed()
    });
    let secs = elapsed.as_secs_f64();
    (reads.load(Ordering::Relaxed) as f64 / secs, writes.load(Ordering::Relaxed) as f64 / secs)
}

/// Outlier-heavy churn with the background maintenance worker running:
/// records completed reorganization passes and the outlier share before the
/// worker catches up vs after. The acceptance bar is `passes > 0`.
fn reorg_under_churn(rows: usize) -> String {
    let shared = SharedDatabase::new(build_mem_simple(rows));
    // Regime change: vacate a fifth of the domain, refill it with a
    // different (locally linear, hence refittable) correlation.
    let lo = rows as i64 / 5;
    let hi = 2 * rows as i64 / 5;
    for pk in lo..hi {
        shared.delete_by_pk(pk).unwrap();
    }
    for i in 0..(2 * (hi - lo)) {
        let m = lo as f64 + i as f64 * 0.5;
        shared
            .insert(&[Value::Int(20_000_000 + i), Value::Float(9.0 * m + 77.0), Value::Float(m)])
            .unwrap();
    }
    let share_before = shared.outlier_share(2).unwrap();
    let worker = MaintenanceWorker::start(shared.clone(), MaintenanceConfig::default());
    let deadline = Instant::now() + Duration::from_secs(10);
    while shared.reorg_queue_len() > 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let (sweeps, candidates) = worker.stop();
    let passes = shared.reorg_passes();
    let share_after = shared.outlier_share(2).unwrap();
    println!(
        "reorg   churn  passes {passes}   candidates {candidates}   outlier share {share_before:.3} -> {share_after:.3}"
    );
    format!(
        "{{\"passes\": {passes}, \"worker_sweeps\": {sweeps}, \"candidates\": {candidates}, \
         \"outlier_share_before\": {share_before:.4}, \"outlier_share_after\": {share_after:.4}}}"
    )
}

/// End-to-end TCP serving: `clients` connections drive point + range
/// queries through a live [`HermitServer`](hermit_server::HermitServer) on a loopback socket for
/// `budget`. Reports aggregate q/s and the client-observed p50/p99
/// round-trip latency (request encode → frame → TCP → plan → execute →
/// materialize → frame → decode), which is what a real deployment sees.
fn server_throughput(rows: usize, clients: usize, budget: Duration) -> String {
    use hermit_server::{HermitClient, HermitServer, ServerConfig};
    let shared = SharedDatabase::new(build_mem_simple(rows));
    let server = HermitServer::start(shared, None, ServerConfig::default(), "127.0.0.1:0")
        .expect("bind loopback bench server");
    let addr = server.local_addr();
    let queries: Vec<Query> = {
        let mut gen = QueryGen::new((0.0, (rows - 1) as f64), 0x5E0F);
        let mut qs: Vec<Query> = gen
            .ranges(RANGE_SELECTIVITY, RANGE_QUERIES)
            .into_iter()
            .map(|(lb, ub)| Query::new().range(2, lb, ub))
            .collect();
        qs.extend(gen.points(POINT_QUERIES).into_iter().map(|p| Query::new().point(2, p)));
        qs
    };
    let stop = AtomicBool::new(false);
    let (latencies, elapsed) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (stop, queries) = (&stop, &queries);
                s.spawn(move || {
                    let mut client = HermitClient::connect(addr).expect("connect bench client");
                    let mut lats = Vec::with_capacity(1 << 14);
                    let mut i = c;
                    while !stop.load(Ordering::Relaxed) {
                        let t0 = Instant::now();
                        let rows = client.query(&queries[i % queries.len()]).expect("bench query");
                        std::hint::black_box(rows.len());
                        lats.push(t0.elapsed().as_micros() as u64);
                        i += 1;
                    }
                    lats
                })
            })
            .collect();
        let t0 = Instant::now();
        std::thread::sleep(budget);
        stop.store(true, Ordering::Relaxed);
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        (all, t0.elapsed())
    });
    server.stop();
    let mut lats = latencies;
    lats.sort_unstable();
    let pct = |q: f64| -> u64 {
        if lats.is_empty() {
            return 0;
        }
        lats[((lats.len() - 1) as f64 * q) as usize]
    };
    let qps = lats.len() as f64 / elapsed.as_secs_f64();
    let (p50, p99) = (pct(0.50), pct(0.99));
    println!(
        "server {clients} client(s) over TCP: {qps:>12.0} q/s   p50 {p50:>6} us   p99 {p99:>6} us"
    );
    format!("{{\"clients\": {clients}, \"qps\": {qps:.1}, \"p50_us\": {p50}, \"p99_us\": {p99}}}")
}

/// Durability subsystem throughput: checkpoint bandwidth, raw WAL append
/// rate, and full recovery time for a `rows`-row database with a baseline +
/// Hermit index. Everything runs against a real file-backed store in a
/// temp directory (deleted afterwards), so the fsyncs are genuine.
fn durability_metrics(rows: usize) -> String {
    let dir = std::env::temp_dir().join(format!("hermit-bench-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig {
        pool_pages: (rows / 250 + 16).next_power_of_two(),
        wal_sync_every: 1 << 20, // commit manually; appends stay buffered
        ..Default::default()
    };
    let mut db = Database::create_durable(
        Schema::new(vec![
            ColumnDef::int("pk"),
            ColumnDef::float("host"),
            ColumnDef::float("target"),
        ]),
        0,
        &dir,
        &config,
    )
    .expect("create durable bench db");
    for i in 0..rows {
        let m = i as f64;
        db.insert(&[Value::Int(i as i64), Value::Float(2.0 * m), Value::Float(m)]).unwrap();
    }
    db.create_baseline_index(1, true).unwrap();
    db.create_hermit_index(2, 1).unwrap();

    let t0 = Instant::now();
    db.checkpoint(&dir).unwrap();
    let ckpt_secs = t0.elapsed().as_secs_f64();
    let heap_bytes = std::fs::metadata(dir.join(PAGES_FILE)).map(|m| m.len()).unwrap_or(0);
    let ckpt_mb_per_sec = heap_bytes as f64 / 1e6 / ckpt_secs;

    // Raw WAL append rate: realistic 3-column insert records, one fsync per
    // 1024-record commit batch.
    let wal_path = std::env::temp_dir().join(format!("hermit-bench-wal-{}", std::process::id()));
    let mut writer = WalWriter::create(&wal_path, 1).unwrap();
    let rec = WalRecord::Insert { row: vec![Value::Int(7), Value::Float(14.0), Value::Float(7.0)] };
    let appends = 200_000usize;
    let t1 = Instant::now();
    for i in 0..appends {
        writer.append(&rec).unwrap();
        if i % 1024 == 1023 {
            writer.commit().unwrap();
        }
    }
    writer.commit().unwrap();
    let wal_ops_per_sec = appends as f64 / t1.elapsed().as_secs_f64();
    drop(writer);
    let _ = std::fs::remove_file(&wal_path);

    drop(db);
    let t2 = Instant::now();
    let back = Database::open(&dir, &config).expect("recover bench db");
    let recovery_ms = t2.elapsed().as_secs_f64() * 1e3;
    assert_eq!(back.len(), rows, "bench recovery lost rows");
    drop(back);
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "durability    checkpoint {ckpt_mb_per_sec:>8.1} MB/s   wal append {wal_ops_per_sec:>10.0} ops/s   recovery({rows} rows) {recovery_ms:>8.1} ms"
    );
    format!(
        "{{\"checkpoint_mb_per_sec\": {ckpt_mb_per_sec:.1}, \"wal_append_ops_per_sec\": {wal_ops_per_sec:.0}, \"recovery_ms\": {recovery_ms:.1}}}"
    )
}

/// Transaction subsystem throughput: commit rate at 1 / 8 / 64 statements
/// per transaction (recorded as txn/s per batch size, so both the
/// per-commit floor and the per-statement cost are visible in the
/// trajectory), plus reader scaling — range-query q/s at 1 vs 4 reader
/// threads racing one continuous transactional writer. Readers share the
/// visibility latch instead of blocking on writer locks, so the 1→4 ratio
/// should track the concurrent (auto-commit) section's scaling rather than
/// collapse toward 1. The `visibility` cell is [`visibility_metrics`].
fn txn_metrics(rows: usize) -> String {
    let shared = SharedDatabase::new(build_mem_simple(rows));
    let mut next_pk = 30_000_000i64;
    let mut batch_fields = Vec::new();
    for batch in [1usize, 8, 64] {
        let t0 = Instant::now();
        let mut commits = 0u64;
        while t0.elapsed() < BUDGET {
            let txn = shared.begin().expect("bench begin");
            for _ in 0..batch {
                let m = (next_pk % rows as i64) as f64 + 0.25;
                shared
                    .insert_txn(txn, &[Value::Int(next_pk), Value::Float(2.0 * m), Value::Float(m)])
                    .expect("bench txn insert");
                next_pk += 1;
            }
            shared.commit(txn).expect("bench commit");
            commits += 1;
        }
        let cps = commits as f64 / t0.elapsed().as_secs_f64();
        println!(
            "txn    commit batch {batch:<3}: {cps:>10.0} txn/s   ({:>12.0} stmt/s)",
            cps * batch as f64
        );
        batch_fields.push(format!("\"batch_{batch}_commits_per_sec\": {cps:.1}"));
    }
    // Snapshot-reader scaling: a fresh database per thread count so both
    // runs see the same heap, with one writer thread committing 8-statement
    // transactions the whole time.
    let mut reader_qps = [0.0f64; 2];
    for (slot, readers) in [1usize, 4].into_iter().enumerate() {
        let shared = SharedDatabase::new(build_mem_simple(rows));
        let queries: Vec<Query> = {
            let mut gen = QueryGen::new((0.0, (rows - 1) as f64), 0x7A10 + readers as u64);
            gen.ranges(RANGE_SELECTIVITY, RANGE_QUERIES)
                .into_iter()
                .map(|(lb, ub)| Query::new().range(2, lb, ub))
                .collect()
        };
        let stop = AtomicBool::new(false);
        let reads = AtomicU64::new(0);
        let elapsed = std::thread::scope(|s| {
            {
                let shared = shared.clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut pk = 40_000_000i64;
                    while !stop.load(Ordering::Relaxed) {
                        let txn = shared.begin().expect("bench begin");
                        for _ in 0..8 {
                            let m = (pk % rows as i64) as f64 + 0.75;
                            shared
                                .insert_txn(
                                    txn,
                                    &[Value::Int(pk), Value::Float(2.0 * m), Value::Float(m)],
                                )
                                .expect("bench txn insert");
                            pk += 1;
                        }
                        shared.commit(txn).expect("bench commit");
                    }
                });
            }
            for r in 0..readers {
                let shared = shared.clone();
                let (stop, reads, queries) = (&stop, &reads, &queries);
                s.spawn(move || {
                    let mut i = r;
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::black_box(
                            shared.execute(&queries[i % queries.len()]).rows.len(),
                        );
                        i += 1;
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let t0 = Instant::now();
            std::thread::sleep(BUDGET);
            stop.store(true, Ordering::Relaxed);
            t0.elapsed()
        });
        let qps = reads.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64();
        println!("txn    snapshot {readers} reader(s) + 1 txn writer: {qps:>12.0} q/s");
        reader_qps[slot] = qps;
    }
    let scaling = reader_qps[1] / reader_qps[0];
    println!("txn    snapshot reader scaling 1 -> 4 threads: {scaling:.2}x");
    format!(
        "{{{}, \"readers_1_qps\": {:.1}, \"readers_4_qps\": {:.1}, \"snapshot_scaling_1_to_4\": {scaling:.2}, \"visibility\": {}}}",
        batch_fields.join(", "),
        reader_qps[0],
        reader_qps[1],
        visibility_metrics(rows)
    )
}

/// Cost of visibility filtering: auto-commit `execute` range q/s while one
/// open transaction holds 100 k pk locks, and with no lock held once it
/// has committed. Its rows lie above every queried band, so both cells see
/// the same heap and return identical rows; `visibility_100k_over_0` is
/// what an unrelated open transaction costs a reader.
fn visibility_metrics(rows: usize) -> String {
    const LOCKS: i64 = 100_000;
    let db = build_mem_simple(rows);
    let (queries, _) = queries_for((0.0, (rows - 1) as f64), 2, 0x7A11);
    let answers =
        |db: &Database| -> Vec<_> { queries.iter().map(|q| db.execute(q).rows).collect() };
    let qps = |db: &Database| {
        measure_ops_with(BUDGET, 4, 1_000_000, |i| {
            std::hint::black_box(db.execute(&queries[i % queries.len()]).rows.len());
        })
    };
    let txn = db.begin().expect("bench begin");
    for k in 0..LOCKS {
        let m = rows as f64 + 1.0 + k as f64;
        db.insert_txn(txn, &[Value::Int(50_000_000 + k), Value::Float(2.0 * m), Value::Float(m)])
            .expect("bench txn insert");
    }
    let locked_rows = answers(&db);
    let locked = qps(&db);
    db.commit_txn(txn).expect("bench commit");
    assert_eq!(answers(&db), locked_rows, "the open transaction's rows fell inside a band");
    let unlocked = qps(&db);
    let ratio = locked / unlocked;
    println!(
        "txn    visibility: {unlocked:>10.0} q/s with 0 locks, {locked:>10.0} q/s with 100k locks ({ratio:.3}x)"
    );
    format!(
        "{{\"locks_0_qps\": {unlocked:.1}, \"locks_100k_qps\": {locked:.1}, \"visibility_100k_over_0\": {ratio:.3}}}"
    )
}

fn json_variants(variants: &[Variant]) -> String {
    let fields: Vec<String> =
        variants.iter().map(|v| format!("\"{}\": {:.1}", v.name, v.queries_per_sec)).collect();
    let ratio = variants[1].queries_per_sec / variants[0].queries_per_sec;
    format!("{{{}, \"batch_over_execute\": {ratio:.2}}}", fields.join(", "))
}

/// Time a full `hermit-lint` pass (load + every rule family including the
/// interprocedural fixpoint) over the workspace sources, so the analyzer's
/// wall-time is tracked per run next to the engine numbers — a static
/// analysis that outgrows a CI-friendly budget is a regression too.
fn analyzer_wall_time() -> String {
    // CI runs from the workspace root; fall back to the path relative to
    // this crate's manifest so local `cargo run -p hermit_bench` works
    // from anywhere.
    let root = ["."]
        .iter()
        .map(std::path::PathBuf::from)
        .chain(std::iter::once(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")));
    let ws = root
        .filter_map(|r| hermit_analysis::Workspace::load(&r).ok())
        .find(|ws| !ws.files.is_empty());
    let Some(ws) = ws else {
        println!("analysis: workspace sources not found; skipping");
        return "{\"files\": 0, \"wall_ms\": 0.0, \"findings\": 0, \"allowed\": 0}".to_string();
    };
    let start = Instant::now();
    let diags = hermit_analysis::analyze(&ws);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let open = hermit_analysis::unannotated(&diags).len();
    let allowed = diags.len() - open;
    println!(
        "analysis: {} file(s) in {wall_ms:.1} ms ({open} finding(s), {allowed} allowed)",
        ws.files.len()
    );
    format!(
        "{{\"files\": {}, \"wall_ms\": {wall_ms:.1}, \"findings\": {open}, \"allowed\": {allowed}}}",
        ws.files.len()
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rows = 100_000usize;
    let mut out = "BENCH_lookup.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rows" => {
                i += 1;
                rows = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--rows needs a positive integer");
                    std::process::exit(2);
                });
            }
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown flag {other}; usage: bench_smoke [--rows N] [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // In-memory substrate: the standard synthetic lookup workload.
    let cfg = SyntheticConfig {
        tuples: rows,
        correlation: CorrelationKind::Linear,
        ..Default::default()
    };
    let mut mem = build_synthetic(&cfg, TidScheme::Physical);
    mem.create_hermit_index(cols::COL_C, cols::COL_B).unwrap();
    let (mem_ranges, mem_points) = queries_for(cfg.target_domain(), cols::COL_C, 0x5E0C);

    // Paged substrate: same shape, hot sharded pool.
    let paged = build_paged(rows);
    let (paged_ranges, paged_points) = queries_for((0.0, (rows - 1) as f64), 2, 0x5E0D);

    let mut sections = Vec::new();
    for (substrate, db, ranges, points) in
        [("mem", &mem, &mem_ranges, &mem_points), ("paged", &paged, &paged_ranges, &paged_points)]
    {
        let range_v = run_workload(db, ranges);
        let point_v = run_workload(db, points);
        for (workload, v) in [("range", &range_v), ("point", &point_v)] {
            println!(
                "{substrate:<6} {workload:<6} execute {:>12.0} q/s   execute_batch {:>12.0} q/s",
                v[0].queries_per_sec, v[1].queries_per_sec
            );
        }
        let range_plans = plan_counts(db, ranges);
        let point_plans = plan_counts(db, points);
        println!("{substrate:<6} plans  range {range_plans}   point {point_plans}");
        sections.push(format!(
            "    \"{substrate}\": {{\"range\": {}, \"point\": {}, \"plan_counts\": {{\"range\": {}, \"point\": {}}}}}",
            json_variants(&range_v),
            json_variants(&point_v),
            range_plans,
            point_plans
        ));
    }

    // Concurrent serving: reader throughput at 1/2/4 query threads racing
    // one continuous insert/delete writer, plus the §4.4 background-reorg
    // counters under an outlier-heavy churn workload.
    let mut reader_fields = Vec::new();
    let mut writer_field = 0.0;
    for readers in [1usize, 2, 4] {
        let (qps, wps) = concurrent_throughput(rows, readers, BUDGET);
        println!(
            "shared {readers} reader(s) + 1 writer: {qps:>12.0} q/s   (writer {wps:>10.0} ops/s)"
        );
        reader_fields.push(format!("\"readers_{readers}_qps\": {qps:.1}"));
        writer_field = wps; // record the 4-reader run's writer rate
    }
    let reorg_json = reorg_under_churn(rows);
    let durability_json = durability_metrics(rows);
    let txn_json = txn_metrics(rows);
    let server_json = server_throughput(rows, 4, BUDGET);
    let analysis_json = analyzer_wall_time();

    let json = format!(
        "{{\n  \"experiment\": \"lookup\",\n  \"rows\": {rows},\n  \"range_selectivity\": {RANGE_SELECTIVITY},\n  \"range_queries\": {RANGE_QUERIES},\n  \"point_queries\": {POINT_QUERIES},\n  \"units\": \"queries_per_sec\",\n  \"substrates\": {{\n{}\n  }},\n  \"concurrent\": {{{}, \"writer_ops_per_sec\": {:.1}, \"reorg\": {}}},\n  \"durability\": {},\n  \"txn\": {},\n  \"server\": {},\n  \"analysis\": {}\n}}\n",
        sections.join(",\n"),
        reader_fields.join(", "),
        writer_field,
        reorg_json,
        durability_json,
        txn_json,
        server_json,
        analysis_json
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out}");
}
