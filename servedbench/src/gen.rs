//! Seeded inputs: the table, the operation streams, and the oracle the
//! responses are checked against.
//!
//! Everything here is a pure function of the `--seed` and the row count, so
//! the same seed gives the same rows, the same requests and the same
//! expected answers. The program under test only ever receives the rows and
//! requests generated here.

use hermit_storage::{ColumnDef, ColumnId, Schema, Value};

/// Primary key column.
pub const PK: ColumnId = 0;
/// Host column: `2·target + 3`, with 1% uniform noise; carries the B+-tree.
pub const HOST: ColumnId = 1;
/// Target column: uniform over `[0, rows)`; carries the Hermit index.
pub const TARGET: ColumnId = 2;

/// Share of rows whose host value is replaced with uniform noise.
pub const NOISE_FRACTION: f64 = 0.01;
/// Width of a range query as a share of the target domain (about 100 rows
/// at a million rows).
pub const RANGE_SHARE: f64 = 0.0001;

/// Independent random streams derived from one seed.
pub mod stream {
    /// The loaded table.
    pub const ROWS: u64 = 1;
    /// Client `c`'s operations use `CLIENT + c`.
    pub const CLIENT: u64 = 16;
    /// The fixed sample the traced replay runs in-process.
    pub const REPLAY: u64 = 64;
    /// Order in which each client deletes its victims.
    pub const VICTIMS: u64 = 96;
    /// Rows inserted after the load are keyed by pk under this stream.
    pub const INSERT: u64 = 128;
}

/// SplitMix64: small, fast, and stable across platforms and releases, so a
/// seed names the same inputs forever.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// The generator for `stream` under `seed`.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x9e37_79b9_7f4a_7c15))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// One generated row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Primary key.
    pub pk: i64,
    /// Host value.
    pub host: f64,
    /// Target value.
    pub target: f64,
    /// Payload value.
    pub payload: f64,
}

impl Row {
    /// The row as the program stores it.
    pub fn values(&self) -> Vec<Value> {
        vec![
            Value::Int(self.pk),
            Value::Float(self.host),
            Value::Float(self.target),
            Value::Float(self.payload),
        ]
    }

    /// True when `values` is exactly this row, bit for bit.
    pub fn matches(&self, values: &[Value]) -> bool {
        let float_eq =
            |v: &Value, f: f64| matches!(v, Value::Float(x) if x.to_bits() == f.to_bits());
        matches!(values, [Value::Int(pk), host, target, payload]
            if *pk == self.pk
                && float_eq(host, self.host)
                && float_eq(target, self.target)
                && float_eq(payload, self.payload))
    }
}

/// The table schema `(pk, host, target, payload)`.
pub fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
        ColumnDef::float("payload"),
    ])
}

/// The paper's Synthetic application (Appendix A), Linear correlation:
/// `host = 2·target + 3` with `target` uniform over `[0, rows)`, and 1% of
/// rows given uniform noise over the host domain instead.
fn model_row(rng: &mut Rng, pk: i64, rows: usize) -> Row {
    let n = rows as f64;
    let target = rng.f64() * n;
    let host =
        if rng.f64() < NOISE_FRACTION { 3.0 + rng.f64() * 2.0 * n } else { 2.0 * target + 3.0 };
    Row { pk, host, target, payload: rng.f64() * 1.0e6 }
}

/// The row a client inserts under `pk` (`pk >= rows`): a pure function of
/// the seed and the pk, so any reader can recompute what it must contain.
pub fn inserted_row(seed: u64, rows: usize, pk: i64) -> Row {
    let mut rng = Rng::derive(seed ^ mix(pk as u64), stream::INSERT);
    model_row(&mut rng, pk, rows)
}

/// One request of a workload's closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Point query on a stored target value.
    Point(f64),
    /// Range query `[lo, hi]` on the target column.
    Range(f64, f64),
    /// `begin`, 4 inserts, 1 delete, `commit` (durable_rw only).
    Txn,
}

/// The operation mix of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 100% point queries.
    Point,
    /// 100% range queries.
    Range,
    /// 50% transactions, 25% range queries, 25% point queries.
    ReadWrite,
}

/// The loaded table and the oracle over it.
pub struct Dataset {
    /// Seed the table and every stream derive from.
    pub seed: u64,
    /// Loaded rows, indexed by pk (`pk = 0..rows`).
    pub rows: Vec<Row>,
    /// `(target, pk)` sorted by target: the oracle for every query.
    by_target: Vec<(f64, u32)>,
}

impl Dataset {
    /// Generate `rows` rows from `seed`.
    pub fn generate(seed: u64, rows: usize) -> Dataset {
        assert!(rows > 0 && rows <= u32::MAX as usize, "row count out of range");
        let mut rng = Rng::derive(seed, stream::ROWS);
        let rows: Vec<Row> = (0..rows).map(|pk| model_row(&mut rng, pk as i64, rows)).collect();
        let mut by_target: Vec<(f64, u32)> = rows.iter().map(|r| (r.target, r.pk as u32)).collect();
        by_target.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Dataset { seed, rows, by_target }
    }

    /// Width of the target domain.
    pub fn domain(&self) -> f64 {
        self.rows.len() as f64
    }

    /// Pks of loaded rows whose target lies in `[lo, hi]`, in target order.
    pub fn expected(&self, lo: f64, hi: f64) -> impl Iterator<Item = i64> + '_ {
        let start = self.by_target.partition_point(|e| e.0 < lo);
        let end = self.by_target.partition_point(|e| e.0 <= hi);
        self.by_target[start..end.max(start)].iter().map(|e| e.1 as i64)
    }

    /// Draw the next operation of `mix`. Point keys are stored target
    /// values, so point queries hit; ranges cover [`RANGE_SHARE`] of the
    /// domain.
    pub fn next_op(&self, mix: Mix, rng: &mut Rng) -> Op {
        let kind = match mix {
            Mix::Point => 3,
            Mix::Range => 2,
            Mix::ReadWrite => rng.below(4),
        };
        match kind {
            0 | 1 => Op::Txn,
            2 => {
                let width = self.domain() * RANGE_SHARE;
                let lo = rng.f64() * (self.domain() - width);
                Op::Range(lo, lo + width)
            }
            _ => Op::Point(self.rows[rng.below(self.rows.len() as u64) as usize].target),
        }
    }
}

/// The query that asks for the rows of a read operation.
pub fn query_of(op: Op) -> Option<hermit_core::Query> {
    match op {
        Op::Point(v) => Some(hermit_core::Query::new().point(TARGET, v)),
        Op::Range(lo, hi) => Some(hermit_core::Query::new().range(TARGET, lo, hi)),
        Op::Txn => None,
    }
}

/// The target interval a read operation asks for.
pub fn bounds_of(op: Op) -> (f64, f64) {
    match op {
        Op::Point(v) => (v, v),
        Op::Range(lo, hi) => (lo, hi),
        Op::Txn => (f64::NAN, f64::NAN),
    }
}

/// The loaded rows each durable_rw client deletes, in order: client `c`
/// owns the pks with `pk % VICTIM_STRIDE == c`, shuffled by the seed, so
/// clients never touch each other's rows. Readers use
/// [`victim_slot`](Victims::slot) to tell whether a row may be gone.
pub struct Victims {
    /// `order[c][j]` is the `j`-th pk client `c` deletes.
    order: Vec<Vec<i64>>,
    /// `slot[c][pk / VICTIM_STRIDE]` is that pk's position in `order[c]`.
    slot: Vec<Vec<u32>>,
}

/// One loaded row in this many belongs to a client's victim pool.
pub const VICTIM_STRIDE: i64 = 16;

impl Victims {
    /// Victim pools for `clients` clients over `rows` loaded rows.
    pub fn new(seed: u64, rows: usize, clients: usize) -> Victims {
        assert!(clients as i64 <= VICTIM_STRIDE, "too many clients for the victim stride");
        let mut order = Vec::with_capacity(clients);
        let mut slot = Vec::with_capacity(clients);
        for c in 0..clients {
            let mut pool: Vec<i64> =
                (c as i64..rows as i64).step_by(VICTIM_STRIDE as usize).collect();
            let mut rng = Rng::derive(seed, stream::VICTIMS + c as u64);
            for i in (1..pool.len()).rev() {
                pool.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut inv = vec![0u32; pool.len()];
            for (j, &pk) in pool.iter().enumerate() {
                inv[(pk / VICTIM_STRIDE) as usize] = j as u32;
            }
            order.push(pool);
            slot.push(inv);
        }
        Victims { order, slot }
    }

    /// Client `c`'s `j`-th victim, if its pool is not exhausted.
    pub fn get(&self, c: usize, j: usize) -> Option<i64> {
        self.order[c].get(j).copied()
    }

    /// `(client, position)` when the loaded row `pk` is some client's
    /// victim.
    pub fn slot(&self, pk: i64) -> Option<(usize, usize)> {
        let c = (pk % VICTIM_STRIDE) as usize;
        let j = *self.slot.get(c)?.get((pk / VICTIM_STRIDE) as usize)?;
        Some((c, j as usize))
    }
}
