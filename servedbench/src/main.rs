//! `servedbench`: run one workload of the served-path benchmark.
//!
//! ```text
//! servedbench --workload point_mem|range_paged|durable_rw --seed N --seconds N --trace 0|1
//! ```
//!
//! Prints a detail line (host, configuration, per-operation latency with
//! sample counts) and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`. A traced run also
//! writes its spans to `.bench_out/`. Exits 1 when an output check failed
//! or the run could not complete, 2 on a usage error.

use hermit_servedbench::{report, run, Config, Workload};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("servedbench: {msg}");
    eprintln!(
        "usage: servedbench --workload point_mem|range_paged|durable_rw --seed N --seconds N \
         --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { usage(&format!("{} needs a value", pair[0])) };
        let bad = || -> ! { usage(&format!("bad value for {flag}: {value}")) };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).unwrap_or_else(|| bad())),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| bad())),
            "--seconds" => seconds = Some(value.parse::<usize>().unwrap_or_else(|_| bad())),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    let mut cfg = Config::new(workload, seed, seconds, trace);
    if trace {
        cfg.spans_out =
            Some(PathBuf::from(format!(".bench_out/{}-seed{seed}-spans.jsonl", workload.name())));
    }
    cfg
}

fn main() {
    let cfg = parse_args();
    match run(&cfg) {
        Ok(outcome) => {
            for m in &outcome.mismatches {
                eprintln!("servedbench: CHECK FAILED: {m}");
            }
            for m in &outcome.metrics {
                eprintln!("  {:<28} {:>16.3} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.detail);
            println!("{}", report::result_line(&outcome));
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("servedbench: {e}");
            std::process::exit(1);
        }
    }
}
