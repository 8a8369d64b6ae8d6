//! Output: the host and configuration block, per-operation latency detail,
//! the result line, and the span file. JSON is written by hand; the
//! benchmark has no dependencies beyond the repository's crates.

use crate::client::{LoopOut, Window, CLIENTS, KINDS};
use crate::replay::Span;
use crate::{Config, Outcome};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits (`null` if not finite).
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(m.name),
                jnum(m.value),
                jstr(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Sizes recorded with every result.
pub struct Sizes {
    /// Heap pages (0 in memory).
    pub heap_pages: usize,
    /// Buffer-pool capacity in pages (0 in memory).
    pub pool_pages: usize,
    /// Hermit index bytes.
    pub hermit_bytes: usize,
    /// Host B+-tree bytes.
    pub host_bytes: usize,
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mountinfo`.
fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else { return "unknown".into() };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else { return "unknown".into() };
    info.lines()
        .filter_map(|l| {
            let (pre, post) = l.split_once(" - ")?;
            let mount = pre.split(' ').nth(4)?;
            let fs = post.split(' ').next()?;
            dir.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// Host, configuration, and per-operation-kind detail of one run.
pub fn detail(cfg: &Config, out: &LoopOut, timed: &[&Window], sizes: &Sizes) -> String {
    let w = cfg.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut kinds = Vec::new();
    for (k, name) in KINDS.iter().enumerate() {
        let mut all: Vec<u64> = timed.iter().flat_map(|w| w.lat_ns[k].iter().copied()).collect();
        if all.is_empty() {
            continue;
        }
        all.sort_unstable();
        let q = |q: f64| crate::quantile_us(&all, q);
        kinds.push(format!(
            "{}: {{\"samples\": {}, \"p50_us\": {:.1}, \"p90_us\": {:.1}, \"p99_us\": {:.1}}}",
            jstr(name),
            all.len(),
            q(0.5),
            q(0.9),
            q(0.99)
        ));
    }
    let head = w.headline();
    let windows: Vec<String> = timed
        .iter()
        .map(|win| {
            let mut s = win.lat_ns[head].clone();
            s.sort_unstable();
            let q = |q: f64| crate::quantile_us(&s, q);
            format!(
                "{{\"ops\": {}, \"p50_us\": {:.1}, \"p90_us\": {:.1}, \"p99_us\": {:.1}}}",
                win.ops,
                q(0.5),
                q(0.9),
                q(0.99)
            )
        })
        .collect();
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    format!(
        concat!(
            "{{\"host\": {{\"nproc\": {}, \"cpu\": {}, \"os\": {}, \"git_rev\": {}, \"rustc\": {}, ",
            "\"profile\": {}, \"tmp_fs\": {}}}, ",
            "\"config\": {{\"workload\": {}, \"seed\": {}, \"rows\": {}, \"page_size\": {}, ",
            "\"heap_pages\": {}, \"pool_pages\": {}, \"wal_sync_every\": {}, \"clients\": {}, ",
            "\"seconds\": {}, \"warmup_s\": {}, \"setups\": {}, \"trace\": {}, \"client_retries\": 0, ",
            "\"hermit_index_bytes\": {}, \"host_btree_bytes\": {}}}, ",
            "\"latency\": {{{}}}, \"windows\": [{}], \"attempted\": {}, \"failed\": {}, ",
            "\"error_rate\": {}}}"
        ),
        nproc,
        jstr(&cpu_model()),
        jstr(&format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH)),
        jstr(&git_rev()),
        jstr(env!("SERVEDBENCH_RUSTC")),
        jstr(env!("SERVEDBENCH_PROFILE")),
        jstr(&fs_type(&cfg.tmp_dir)),
        jstr(w.name()),
        cfg.seed,
        cfg.rows,
        hermit_storage::paged::page::PAGE_SIZE,
        sizes.heap_pages,
        sizes.pool_pages,
        w.wal_sync_every().map_or("null".to_string(), |n| n.to_string()),
        CLIENTS,
        cfg.seconds,
        jnum(cfg.warmup.as_secs_f64()),
        cfg.setups,
        cfg.trace,
        sizes.hermit_bytes,
        sizes.host_bytes,
        kinds.join(", "),
        windows.join(", "),
        out.attempted,
        out.failed,
        jnum(error_rate),
    )
}

/// Write the traced run's spans as JSON lines: the kept client request
/// spans, then every replay span.
pub fn write_spans(path: &Path, out: &LoopOut, replay: &[Span]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &out.spans {
        let op = format!("c{}-{}", s.client, s.op);
        let mut start = s.start_ns;
        for (name, dur) in [
            ("Request::encode", s.encode_ns),
            ("wire", s.wire_ns),
            ("Response::decode", s.decode_ns),
        ] {
            writeln!(
                f,
                "{{\"phase\": \"client\", \"op\": {}, \"name\": {}, \"start_ns\": {start}, \"dur_ns\": {dur}}}",
                jstr(&op),
                jstr(name)
            )?;
            start += dur;
        }
    }
    for s in replay {
        writeln!(
            f,
            "{{\"phase\": \"replay\", \"op\": \"r{}\", \"name\": {}, \"parent\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
            s.op,
            jstr(s.name),
            jstr(s.parent),
            s.start_ns,
            s.dur_ns
        )?;
    }
    f.flush()
}
