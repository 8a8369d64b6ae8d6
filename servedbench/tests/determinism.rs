//! The benchmark's own checks, at a few thousand rows so they run in
//! seconds: the same seed gives the same counts, another seed gives
//! another operation stream, and every workload prints every metric
//! `BENCHMARK.json` declares, with its unit.
//!
//! Run with `cargo test --release --manifest-path servedbench/Cargo.toml`.

use hermit_servedbench::gen::{stream, Dataset, Mix, Rng};
use hermit_servedbench::{report, run, Config, Outcome, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

const ROWS: usize = 20_000;

fn tiny(workload: Workload, seed: u64, trace: bool) -> Config {
    let mut cfg = Config::new(workload, seed, 1, trace);
    cfg.rows = ROWS;
    cfg.setups = 1;
    cfg.warmup = Duration::from_millis(200);
    cfg.tmp_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    cfg
}

fn run_ok(cfg: &Config) -> Outcome {
    let outcome = run(cfg).expect("run completes");
    assert!(outcome.correct, "output checks failed: {:?}", outcome.mismatches);
    assert_eq!(outcome.failed, 0, "no operation may fail");
    outcome
}

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("{name} missing")).value
}

#[test]
fn same_seed_same_counts() {
    for workload in [Workload::PointMem, Workload::RangePaged] {
        let a = run_ok(&tiny(workload, 7, false));
        let b = run_ok(&tiny(workload, 7, false));
        assert_eq!(
            metric(&a, "hermit_index_bytes"),
            metric(&b, "hermit_index_bytes"),
            "{workload:?}"
        );
        let a = run_ok(&tiny(workload, 7, true));
        let b = run_ok(&tiny(workload, 7, true));
        for name in ["plan.hermit_share", "exec.candidates_per_query", "exec.rows_per_query"] {
            assert_eq!(metric(&a, name), metric(&b, name), "{workload:?} {name}");
        }
        assert!(a.replay_rows > 0);
        assert_eq!(a.replay_rows, b.replay_rows, "{workload:?} rows returned");
    }
}

#[test]
fn another_seed_changes_the_operation_stream() {
    let ops = |seed| {
        let data = Dataset::generate(seed, ROWS);
        let mut rng = Rng::derive(seed, stream::CLIENT);
        (0..64).map(|_| data.next_op(Mix::ReadWrite, &mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(ops(1), ops(1));
    assert_ne!(ops(1), ops(2));
}

/// A minimal JSON reader: enough for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(s: &str) -> Json {
        let mut p = Parser { b: s.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing bytes in JSON");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.b[self.i], c, "expected {}", c as char);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    let Json::Str(k) = self.value() else { panic!("object key must be a string") };
                    self.eat(b':');
                    m.insert(k, self.value());
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.b[self.i] != b'"' {
                    self.i += if self.b[self.i] == b'\\' { 2 } else { 1 };
                }
                self.i += 1;
                Json::Str(String::from_utf8_lossy(&self.b[start..self.i - 1]).into_owned())
            }
            b't' | b'f' | b'n' => {
                let word = [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ]
                .into_iter()
                .find(|(w, _)| self.b[self.i..].starts_with(w.as_bytes()))
                .expect("a JSON literal");
                self.i += word.0.len();
                word.1
            }
            _ => {
                let start = self.i;
                while self.i < self.b.len() && b"+-.eE0123456789".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).expect("ASCII number");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let Json::Arr(items) = Json::parse(&text).get(section).clone() else {
        panic!("{section} is not a list")
    };
    items
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

#[test]
fn smoke_prints_every_declared_metric_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        for workload in Workload::ALL {
            let outcome = run_ok(&tiny(workload, 3, trace));
            let line = Json::parse(&report::result_line(&outcome));
            assert_eq!(line.get("correct"), &Json::Bool(true));
            let Json::Obj(metrics) = line.get("metrics") else {
                panic!("metrics is not an object")
            };
            let got: Vec<&String> = metrics.keys().collect();
            assert_eq!(got.len(), want.len(), "{workload:?} {section}: {got:?}");
            for (name, unit) in &want {
                let m =
                    metrics.get(name).unwrap_or_else(|| panic!("{workload:?}: {name} not printed"));
                assert_eq!(m.get("unit").str(), unit, "{workload:?} {name}");
                assert!(
                    matches!(m.get("value"), Json::Num(v) if v.is_finite()),
                    "{workload:?} {name}"
                );
            }
            // The detail line parses too.
            Json::parse(&outcome.detail);
        }
    }
}
