#![forbid(unsafe_code)]
//! Served-path benchmark for Hermit.
//!
//! Starts the serving stack in-process the way `hermit-server` does
//! (`SharedDatabase` + default `MaintenanceWorker` + `HermitServer` with
//! the default `ServerConfig`), drives it over loopback TCP with a closed
//! loop of two client connections, checks every response against an
//! oracle built from the generated rows, and reports end-to-end metrics
//! (untraced run) or per-layer metrics (traced run plus an in-process
//! replay). See `README.md` in this directory for the workloads, the
//! metrics and what each layer metric should move.

pub mod check;
pub mod client;
pub mod gen;
pub mod replay;
pub mod report;
pub mod stack;

use check::Expect;
use client::{LoopConfig, Window, CLIENTS};
use gen::{Dataset, Mix, Victims, TARGET};
use hermit_core::PlanKind;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Duration;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100% point queries on the Hermit column, in-memory substrate.
    PointMem,
    /// 100% range queries on a checkpointed, reopened paged database whose
    /// heap is larger than the buffer pool.
    RangePaged,
    /// Transactions beside range and point queries on the same durable
    /// paged database; every commit is durable before it is acknowledged.
    DurableRw,
    /// The `DurableRw` mix on the in-memory substrate: no WAL, no pool.
    RwMem,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] =
        [Workload::PointMem, Workload::RangePaged, Workload::DurableRw, Workload::RwMem];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointMem => "point_mem",
            Workload::RangePaged => "range_paged",
            Workload::DurableRw => "durable_rw",
            Workload::RwMem => "rw_mem",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operation mix.
    pub fn mix(self) -> Mix {
        match self {
            Workload::PointMem => Mix::Point,
            Workload::RangePaged => Mix::Range,
            Workload::DurableRw | Workload::RwMem => Mix::ReadWrite,
        }
    }

    /// WAL commit batch of the durable substrate; `None` in memory.
    pub fn wal_sync_every(self) -> Option<usize> {
        match self {
            Workload::PointMem | Workload::RwMem => None,
            // durable_rw keeps the default batch too: every commit still
            // forces the WAL durable before it is acknowledged (see the
            // README for why per-statement fsyncs were left out).
            Workload::RangePaged | Workload::DurableRw => {
                Some(hermit_core::DurabilityConfig::default().wal_sync_every)
            }
        }
    }

    /// The operation kind `p50_us` reports (an index into
    /// [`client::KINDS`]).
    pub fn headline(self) -> usize {
        match self {
            Workload::PointMem => 0,
            Workload::RangePaged => 1,
            Workload::DurableRw | Workload::RwMem => 2,
        }
    }
}

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("ops_per_s", "1/s"), ("p50_us", "us"), ("hermit_index_bytes", "bytes")];

/// Per-layer metrics `(name, unit)`, reported by the traced run.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("server.rtt_us", "us"),
    ("server.exec_us", "us"),
    ("server.residual_us", "us"),
    ("server.requests", "count"),
    ("server.errors", "count"),
    ("plan.us", "us"),
    ("plan.hermit_share", "ratio"),
    ("exec.us", "us"),
    ("exec.trs_tree_us", "us"),
    ("exec.host_index_us", "us"),
    ("exec.base_table_us", "us"),
    ("exec.candidates_per_query", "count"),
    ("exec.rows_per_query", "count"),
    ("exec.fp_ratio", "ratio"),
    ("trs.lookup_us", "us"),
    ("trs.ranges_per_query", "count"),
    ("trs.outlier_tids_per_query", "count"),
    ("trs.insert_us", "us"),
    ("trs.outlier_share_end", "ratio"),
    ("trs.reorg_passes", "count"),
    ("trs.bytes_vs_host_btree", "ratio"),
    ("btree.probe_us", "us"),
    ("btree.entries_per_probe", "count"),
    ("pool.hit_ratio", "ratio"),
    ("pool.misses_per_query", "count"),
    ("pool.evictions_per_query", "count"),
    ("insert.table_us", "us"),
    ("insert.existing_indexes_us", "us"),
    ("heap.pages", "count"),
    ("pool.pages", "count"),
    ("txn.begin_us", "us"),
    ("txn.stmt_us", "us"),
    ("txn.commit_us", "us"),
    ("txn.conflicts", "count"),
    ("wal.sync_us", "us"),
    ("setup.load_s", "s"),
    ("setup.index_build_s", "s"),
    ("setup.checkpoint_s", "s"),
    ("setup.open_s", "s"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measured seconds, split into `client::WINDOWS` windows.
    pub seconds: usize,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Loaded rows.
    pub rows: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Untimed closed-loop warm-up.
    pub warmup: Duration,
    /// Parent of the run's scratch directories.
    pub tmp_dir: PathBuf,
    /// Where the traced run writes its spans (JSON lines), if anywhere.
    pub spans_out: Option<PathBuf>,
}

impl Config {
    /// Defaults for `workload`: a million rows, three set-ups, a one-second
    /// warm-up and scratch space under `.bench_tmp`.
    pub fn new(workload: Workload, seed: u64, seconds: usize, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            rows: 1_000_000,
            setups: 3,
            warmup: Duration::from_secs(1),
            tmp_dir: PathBuf::from(".bench_tmp"),
            spans_out: None,
        }
    }
}

/// A named, measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value with all its digits.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (closed loop, warm-up included).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced), in
    /// declaration order.
    pub metrics: Vec<Metric>,
    /// Check failures, if any.
    pub mismatches: Vec<String>,
    /// Rows the replayed reads returned (traced runs; 0 otherwise).
    pub replay_rows: u64,
    /// Host, configuration and per-operation detail as a JSON object.
    pub detail: String,
}

/// Median of `v` (sorted in place); 0 when empty.
fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank quantile of sorted ns samples, in µs.
pub(crate) fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1000.0
}

/// Median across windows of a per-window quantile of `kind`'s latency.
fn windowed_quantile(windows: &[&Window], kind: usize, q: f64) -> f64 {
    let mut per: Vec<f64> = windows
        .iter()
        .filter(|w| !w.lat_ns[kind].is_empty())
        .map(|w| {
            let mut s = w.lat_ns[kind].clone();
            s.sort_unstable();
            quantile_us(&s, q)
        })
        .collect();
    median(&mut per)
}

/// Median operations per second across windows of `secs` seconds.
fn windowed_rate(windows: &[&Window], secs: f64) -> f64 {
    median(&mut windows.iter().map(|w| w.ops as f64 / secs).collect::<Vec<_>>())
}

/// Run one workload end to end.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    if cfg.seconds == 0 || cfg.setups == 0 || cfg.rows < 100 {
        return Err("need seconds >= 1, setups >= 1 and rows >= 100".into());
    }
    let w = cfg.workload;
    let data = Dataset::generate(cfg.seed, cfg.rows);
    std::fs::create_dir_all(&cfg.tmp_dir)
        .map_err(|e| format!("create {}: {e}", cfg.tmp_dir.display()))?;

    // The first set-up is measured; the others, run after the closed loop
    // so their I/O cannot disturb it, only time set-up again.
    let scratch = || {
        stack::ScratchDir::create(&cfg.tmp_dir, w.name()).map_err(|e| format!("scratch dir: {e}"))
    };
    let dir = scratch()?;
    let (db, first) = stack::build(w, &data, dir.path())?;
    let (hermit_bytes, host_bytes) = stack::index_bytes(&db);
    let (heap_pages, pool_pages) = stack::heap_pages(&db);

    let st = stack::Stack::start(db)?;
    let victims = (w.mix() == Mix::ReadWrite).then(|| Victims::new(cfg.seed, cfg.rows, CLIENTS));
    let metrics = st.server.metrics();
    let exec_hist = || {
        PlanKind::ALL.iter().fold((0u64, 0u64), |(s, c), &k| {
            let h = metrics.query_latency.histogram(k);
            (s + h.sum_us(), c + h.count())
        })
    };
    let (req0, err0, exec0) =
        (metrics.requests.load(Relaxed), metrics.errors.load(Relaxed), exec_hist());
    let (conflicts0, reorg0) = (st.shared.txn_counters().conflicts, st.shared.reorg_passes());
    let measure = Duration::from_secs(cfg.seconds as u64);
    let window_secs = measure.as_secs_f64() / client::WINDOWS as f64;
    let loop_cfg = LoopConfig { mix: w.mix(), warmup: cfg.warmup, measure, trace: cfg.trace };
    let out = client::run(st.server.local_addr(), &data, victims.as_ref(), loop_cfg)?;
    let (req1, err1, exec1) =
        (metrics.requests.load(Relaxed), metrics.errors.load(Relaxed), exec_hist());
    let (conflicts1, reorg1) = (st.shared.txn_counters().conflicts, st.shared.reorg_passes());
    let outlier_share = st.shared.outlier_share(TARGET).unwrap_or(0.0);

    let mut mismatches = out.mismatches.clone();
    if victims.is_some() {
        if let Err(e) =
            check::final_state(&st.shared, &data, &out.inserted, &out.deleted, &out.uncertain)
        {
            mismatches.push(e);
        }
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut replay_rows = 0;
    let timed: Vec<&Window> = out.windows.iter().step_by(if cfg.trace { 2 } else { 1 }).collect();
    if cfg.trace {
        let expect = Expect::after(&out.inserted, &out.deleted, &out.uncertain);
        let r = replay::run(&st.shared, &data, w.mix(), &expect)?;
        mismatches.extend(r.mismatches);
        replay_rows = r.rows_returned;
        values.extend(r.values);
        if let Some(path) = &cfg.spans_out {
            report::write_spans(path, &out, &r.spans)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        let wire = &out.wire;
        let per = |ns: u64, n: u64| ns as f64 / 1000.0 / n.max(1) as f64;
        let exec_us = (exec1.0 - exec0.0) as f64 / (exec1.1 - exec0.1).max(1) as f64;
        values.insert("proto.encode_us", per(wire.encode_ns, wire.requests));
        values.insert("proto.decode_us", per(wire.decode_ns, wire.requests));
        values.insert(
            "server.rtt_us",
            per(wire.encode_ns + wire.wire_ns + wire.decode_ns, wire.requests),
        );
        values.insert("server.exec_us", exec_us);
        values.insert("server.residual_us", per(wire.query_wire_ns, wire.queries) - exec_us);
        values.insert("server.requests", (req1 - req0) as f64);
        values.insert("server.errors", (err1 - err0) as f64);
        values.insert("trs.outlier_share_end", outlier_share);
        values.insert("trs.reorg_passes", (reorg1 - reorg0) as f64);
        values.insert("trs.bytes_vs_host_btree", hermit_bytes as f64 / host_bytes.max(1) as f64);
        values.insert("heap.pages", heap_pages as f64);
        values.insert("pool.pages", pool_pages as f64);
        values.insert("txn.conflicts", (conflicts1 - conflicts0) as f64);
        let traced: Vec<&Window> = out.windows.iter().skip(1).step_by(2).collect();
        let (untraced_rate, traced_rate) =
            (windowed_rate(&timed, window_secs), windowed_rate(&traced, window_secs));
        values.insert("trace.ops_per_s", traced_rate);
        values.insert("trace.untraced_ops_per_s", untraced_rate);
        values.insert("trace.overhead_pct", (1.0 - traced_rate / untraced_rate.max(1.0)) * 100.0);
    } else {
        values.insert("ops_per_s", windowed_rate(&timed, window_secs));
        values.insert("p50_us", windowed_quantile(&timed, w.headline(), 0.5));
        values.insert("hermit_index_bytes", hermit_bytes as f64);
    }
    // Graceful shutdown: drain, stop the worker, final checkpoint.
    st.server.stop();
    drop(dir);

    let mut times = vec![first];
    for _ in 1..cfg.setups {
        let dir = scratch()?;
        times.push(stack::build(w, &data, dir.path())?.1);
    }
    let med =
        |f: fn(&stack::SetupTimes) -> f64| median(&mut times.iter().map(f).collect::<Vec<_>>());
    if cfg.trace {
        values.insert("setup.load_s", med(|t| t.load_s));
        values.insert("setup.index_build_s", med(|t| t.index_build_s));
        values.insert("setup.checkpoint_s", med(|t| t.checkpoint_s));
        values.insert("setup.open_s", med(|t| t.open_s));
    } else {
        values.insert("setup_s", med(stack::SetupTimes::total));
    }

    let declared: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = declared
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .get(name)
                .copied()
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            Ok(Metric { name, value, unit })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let detail = report::detail(
        cfg,
        &out,
        &timed,
        &report::Sizes { heap_pages, pool_pages, hermit_bytes, host_bytes },
    );
    Ok(Outcome {
        correct: mismatches.is_empty(),
        attempted: out.attempted,
        failed: out.failed,
        metrics,
        mismatches,
        replay_rows,
        detail,
    })
}
