//! The closed loop: each client thread owns one connection and sends its
//! next request only after the previous reply arrived, as a synchronous
//! `HermitClient` caller does. Every response is checked against the
//! oracle outside the timed interval.

use crate::check::{self, Expect};
use crate::gen::{self, Dataset, Mix, Op, Rng, Victims};
use hermit_server::proto::{read_frame, write_frame};
use hermit_server::{HermitClient, ProtoError, Request, Response};
use std::collections::{BTreeSet, HashSet};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Concurrent client connections, one thread each: one per core of the
/// 2-core development host.
pub const CLIENTS: usize = 2;
/// Inserts per durable_rw transaction.
pub const TXN_INSERTS: usize = 4;
/// Traced requests per client whose spans are kept individually.
const SPAN_SAMPLE: usize = 500;

/// Measurement windows per run; metrics are medians across windows.
pub const WINDOWS: usize = 10;

/// Operation kinds, indexing the latency tables.
pub const KINDS: [&str; 3] = ["point", "range", "txn"];

fn kind_of(op: Op) -> usize {
    match op {
        Op::Point(_) => 0,
        Op::Range(..) => 1,
        Op::Txn => 2,
    }
}

/// Shape of one closed-loop run.
#[derive(Debug, Clone, Copy)]
pub struct LoopConfig {
    /// Operation mix.
    pub mix: Mix,
    /// Untimed warm-up before the first window.
    pub warmup: Duration,
    /// Measured time, split into [`WINDOWS`] equal windows.
    pub measure: Duration,
    /// Alternate untraced (even) and traced (odd) windows.
    pub trace: bool,
}

/// One measurement window of one client (or, merged, of all clients).
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Operations completed in the window.
    pub ops: u64,
    /// Round-trip latencies in ns, per [`KINDS`] entry.
    pub lat_ns: [Vec<u64>; 3],
}

/// Client-side spans around the wire protocol, summed over traced
/// requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireTrace {
    /// Traced requests.
    pub requests: u64,
    /// Sum of `Request::encode` time.
    pub encode_ns: u64,
    /// Sum of frame write + reply frame read.
    pub wire_ns: u64,
    /// Sum of `Response::decode` time.
    pub decode_ns: u64,
    /// Traced query requests.
    pub queries: u64,
    /// Sum of query requests' frame write + reply frame read.
    pub query_wire_ns: u64,
}

impl WireTrace {
    fn merge(&mut self, o: &WireTrace) {
        self.requests += o.requests;
        self.encode_ns += o.encode_ns;
        self.wire_ns += o.wire_ns;
        self.decode_ns += o.decode_ns;
        self.queries += o.queries;
        self.query_wire_ns += o.query_wire_ns;
    }
}

/// One request's client spans, kept for the first traced requests.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpans {
    /// Client that sent it.
    pub client: usize,
    /// Operation sequence number within that client.
    pub op: u64,
    /// Start of the request, ns after the loop started.
    pub start_ns: u64,
    /// `Request::encode`.
    pub encode_ns: u64,
    /// Frame write + reply frame read.
    pub wire_ns: u64,
    /// `Response::decode`.
    pub decode_ns: u64,
}

/// What the closed loop produced.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations that failed (error reply, conflict, timeout, transport).
    pub failed: u64,
    /// Per-window results, merged across clients.
    pub windows: Vec<Window>,
    /// Wire spans summed over traced requests.
    pub wire: WireTrace,
    /// Individually kept spans of the first traced requests.
    pub spans: Vec<RequestSpans>,
    /// Oracle mismatches (any fails the run).
    pub mismatches: Vec<String>,
    /// Acknowledged committed inserts `(pk, target)`.
    pub inserted: Vec<(i64, f64)>,
    /// Acknowledged committed deletes (pks).
    pub deleted: Vec<i64>,
    /// Rows whose fate is unknown because their transaction failed.
    pub uncertain: HashSet<i64>,
}

/// State the clients share so reads can be checked while others write.
struct Board<'a> {
    data: &'a Dataset,
    victims: Option<&'a Victims>,
    /// Per client: victims whose delete may have started.
    started: [AtomicUsize; CLIENTS],
    /// Per client: victims whose delete is committed and acknowledged.
    acked: [AtomicUsize; CLIENTS],
    /// Rows touched by failed transactions: either outcome is allowed.
    uncertain: Mutex<HashSet<i64>>,
}

/// A connection: the real client, or the same calls with spans around
/// encode, wire and decode.
enum Conn {
    Plain(HermitClient),
    Traced { stream: TcpStream, buf: Vec<u8> },
}

impl Conn {
    fn open(addr: SocketAddr, traced: bool) -> Result<Conn, String> {
        if !traced {
            let client = HermitClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            return Ok(Conn::Plain(client));
        }
        // The socket options of `HermitClient`'s default configuration.
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
        stream.set_write_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
        Ok(Conn::Traced { stream, buf: Vec::new() })
    }

    /// One request/response exchange. `Err` means the connection is no
    /// longer usable.
    fn call(&mut self, req: &Request, trace: &mut Tracer) -> Result<Response, String> {
        match self {
            Conn::Plain(c) => c.call(req).map_err(|e| e.to_string()),
            Conn::Traced { stream, buf } => {
                let t0 = Instant::now();
                req.encode(buf);
                let t1 = Instant::now();
                let reply = write_frame(stream, buf)
                    .and_then(|()| read_frame(stream)?.ok_or(ProtoError::Truncated));
                let t2 = Instant::now();
                let resp = reply.and_then(|payload| Response::decode(&payload));
                let t3 = Instant::now();
                trace.record(req, t0, t1 - t0, t2 - t1, t3 - t2);
                resp.map_err(|e| e.to_string())
            }
        }
    }
}

/// Per-client span recorder.
struct Tracer {
    client: usize,
    origin: Instant,
    op: u64,
    wire: WireTrace,
    spans: Vec<RequestSpans>,
}

impl Tracer {
    fn record(
        &mut self,
        req: &Request,
        start: Instant,
        enc: Duration,
        wire: Duration,
        dec: Duration,
    ) {
        let (e, w, d) = (enc.as_nanos() as u64, wire.as_nanos() as u64, dec.as_nanos() as u64);
        let t = &mut self.wire;
        t.requests += 1;
        t.encode_ns += e;
        t.wire_ns += w;
        t.decode_ns += d;
        if matches!(req, Request::Query(_)) {
            t.queries += 1;
            t.query_wire_ns += w;
        }
        if self.spans.len() < SPAN_SAMPLE {
            self.spans.push(RequestSpans {
                client: self.client,
                op: self.op,
                start_ns: (start - self.origin).as_nanos() as u64,
                encode_ns: e,
                wire_ns: w,
                decode_ns: d,
            });
        }
    }
}

/// Per-client mutable state of the loop.
struct Client<'a> {
    id: usize,
    board: &'a Board<'a>,
    addr: SocketAddr,
    plain: Option<Conn>,
    traced: Option<Conn>,
    tracer: Tracer,
    next_insert: u64,
    next_victim: usize,
    /// This client's acknowledged inserts, by target bits (targets are
    /// non-negative, so bit order is numeric order).
    own_inserts: BTreeSet<(u64, i64)>,
    out: LoopOut,
}

impl Client<'_> {
    /// Send `req` on the traced or the plain connection, opening it if
    /// needed; a transport failure drops the connection so the next call
    /// reconnects.
    fn call(&mut self, req: &Request, traced: bool) -> Result<Response, String> {
        let slot = if traced { &mut self.traced } else { &mut self.plain };
        if slot.is_none() {
            *slot = Some(Conn::open(self.addr, traced)?);
        }
        let result = slot.as_mut().expect("connection just opened").call(req, &mut self.tracer);
        if result.is_err() {
            *slot = None;
        }
        result
    }

    /// Run one read; `Ok(rows)` or a failure description.
    fn read(&mut self, op: Op, traced: bool) -> Result<Vec<Vec<hermit_storage::Value>>, String> {
        let query = gen::query_of(op).expect("read operation");
        match self.call(&Request::Query(query), traced)? {
            Response::Rows(rows) => Ok(rows),
            Response::Error { code, message } => Err(format!("{code:?}: {message}")),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// One transaction: begin, 4 inserts of fresh on-model rows, delete of
    /// this client's next victim, commit. Returns whether it committed.
    fn txn(&mut self, traced: bool) -> bool {
        let data = self.board.data;
        let victims = self.board.victims.expect("victims exist for read/write workloads");
        let j = self.next_victim;
        let victim = victims.get(self.id, j);
        if victim.is_some() {
            self.next_victim += 1;
            self.board.started[self.id].store(j + 1, SeqCst);
        }
        let rows: Vec<gen::Row> = (0..TXN_INSERTS)
            .map(|_| {
                let pk = data.rows.len() as i64
                    + (self.next_insert * CLIENTS as u64 + self.id as u64) as i64;
                self.next_insert += 1;
                gen::inserted_row(data.seed, data.rows.len(), pk)
            })
            .collect();
        let mut steps: Vec<Request> = Vec::with_capacity(TXN_INSERTS + 3);
        steps.push(Request::Begin);
        steps.extend(rows.iter().map(|r| Request::Insert(r.values())));
        steps.extend(victim.map(|pk| Request::Delete { pk }));
        steps.push(Request::Commit);
        let mut begun = false;
        let mut committed = false;
        let mut alive = true;
        for req in &steps {
            let expect_ok = match (req, self.call(req, traced)) {
                (Request::Begin, Ok(Response::TxnBegun { .. })) => {
                    begun = true;
                    true
                }
                (Request::Insert(_), Ok(Response::Inserted { .. })) => true,
                (Request::Delete { .. }, Ok(Response::Deleted)) => true,
                (Request::Commit, Ok(Response::Ok)) => {
                    committed = true;
                    true
                }
                (_, Ok(_)) => false,
                (_, Err(_)) => {
                    alive = false;
                    false
                }
            };
            if !expect_ok {
                break;
            }
        }
        if committed {
            for r in &rows {
                self.own_inserts.insert((r.target.to_bits(), r.pk));
                self.out.inserted.push((r.pk, r.target));
            }
            if let Some(pk) = victim {
                self.out.deleted.push(pk);
                self.board.acked[self.id].store(j + 1, SeqCst);
            }
            return true;
        }
        // Failed: roll back what is still open, and mark every row the
        // transaction touched as of unknown fate before any later
        // acknowledgement moves past it.
        if begun && alive {
            let _ = self.call(&Request::Rollback, traced);
        }
        let mut uncertain = self.board.uncertain.lock().expect("uncertain set lock poisoned");
        uncertain.extend(rows.iter().map(|r| r.pk));
        uncertain.extend(victim);
        drop(uncertain);
        if let Some(pk) = victim {
            self.out.uncertain.insert(pk);
            self.board.acked[self.id].store(j + 1, SeqCst);
        }
        self.out.uncertain.extend(rows.iter().map(|r| r.pk));
        false
    }

    /// Check a read's rows while other clients may be writing.
    fn check_read(
        &mut self,
        op: Op,
        rows: &[Vec<hermit_storage::Value>],
        before: [usize; CLIENTS],
    ) {
        let (lo, hi) = gen::bounds_of(op);
        let board = self.board;
        let result = match board.victims {
            None => check::exact(board.data, &Expect::default(), lo, hi, rows),
            Some(victims) => {
                let after: [usize; CLIENTS] =
                    std::array::from_fn(|c| board.started[c].load(SeqCst));
                let uncertain = board.uncertain.lock().expect("uncertain set lock poisoned");
                let own: Vec<i64> = self
                    .own_inserts
                    .range((lo.to_bits(), i64::MIN)..=(hi.to_bits(), i64::MAX))
                    .map(|&(_, pk)| pk)
                    .collect();
                check::concurrent(
                    board.data, victims, &before, &after, &uncertain, &own, lo, hi, rows,
                )
            }
        };
        if let Err(e) = result {
            if self.out.mismatches.len() < 8 {
                self.out.mismatches.push(format!("client {} {op:?}: {e}", self.id));
            }
        }
    }
}

/// Run the closed loop against the server at `addr`.
pub fn run(
    addr: SocketAddr,
    data: &Dataset,
    victims: Option<&Victims>,
    cfg: LoopConfig,
) -> Result<LoopOut, String> {
    let board = Board {
        data,
        victims,
        started: std::array::from_fn(|_| AtomicUsize::new(0)),
        acked: std::array::from_fn(|_| AtomicUsize::new(0)),
        uncertain: Mutex::new(HashSet::new()),
    };
    let origin = Instant::now();
    let measure_start = origin + cfg.warmup;
    let end = measure_start + cfg.measure;
    let outs: Vec<Result<LoopOut, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let board = &board;
                s.spawn(move || client_loop(id, addr, board, cfg, origin, measure_start, end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect()
    });
    let mut merged = LoopOut { windows: vec![Window::default(); WINDOWS], ..Default::default() };
    for out in outs {
        let out = out?;
        merged.attempted += out.attempted;
        merged.failed += out.failed;
        for (m, w) in merged.windows.iter_mut().zip(&out.windows) {
            m.ops += w.ops;
            for k in 0..KINDS.len() {
                m.lat_ns[k].extend_from_slice(&w.lat_ns[k]);
            }
        }
        merged.wire.merge(&out.wire);
        merged.spans.extend(out.spans);
        merged.mismatches.extend(out.mismatches);
        merged.inserted.extend(out.inserted);
        merged.deleted.extend(out.deleted);
        merged.uncertain.extend(out.uncertain);
    }
    Ok(merged)
}

fn client_loop(
    id: usize,
    addr: SocketAddr,
    board: &Board<'_>,
    cfg: LoopConfig,
    origin: Instant,
    measure_start: Instant,
    end: Instant,
) -> Result<LoopOut, String> {
    let mut client = Client {
        id,
        board,
        addr,
        plain: None,
        traced: None,
        tracer: Tracer { client: id, origin, op: 0, wire: WireTrace::default(), spans: Vec::new() },
        next_insert: 0,
        next_victim: 0,
        own_inserts: BTreeSet::new(),
        out: LoopOut { windows: vec![Window::default(); WINDOWS], ..Default::default() },
    };
    // Connect before the clock matters; a refused connection is a set-up
    // failure, not an operation failure.
    client.plain = Some(Conn::open(addr, false)?);
    if cfg.trace {
        client.traced = Some(Conn::open(addr, true)?);
    }
    let mut rng = Rng::derive(board.data.seed, gen::stream::CLIENT + id as u64);
    let window_of = |t: Instant| -> Option<usize> {
        let since = t.checked_duration_since(measure_start).filter(|_| t < end)?;
        let frac = since.as_secs_f64() / cfg.measure.as_secs_f64();
        Some(((frac * WINDOWS as f64) as usize).min(WINDOWS - 1))
    };
    loop {
        let start = Instant::now();
        if start >= end {
            break;
        }
        let traced = cfg.trace && window_of(start).is_some_and(|w| w % 2 == 1);
        let op = board.data.next_op(cfg.mix, &mut rng);
        client.tracer.op += 1;
        let before: [usize; CLIENTS] = std::array::from_fn(|c| board.acked[c].load(SeqCst));
        let (ok, rows) = match op {
            Op::Txn => (client.txn(traced), None),
            _ => match client.read(op, traced) {
                Ok(rows) => (true, Some(rows)),
                Err(_) => (false, None),
            },
        };
        let done = Instant::now();
        client.out.attempted += 1;
        if !ok {
            client.out.failed += 1;
        }
        // Failed operations keep their latency: a failure is never a
        // fast sample that disappears.
        if let Some(w) = window_of(done) {
            let win = &mut client.out.windows[w];
            win.ops += 1;
            win.lat_ns[kind_of(op)].push((done - start).as_nanos() as u64);
        }
        if let Some(rows) = rows {
            client.check_read(op, &rows, before);
        }
    }
    client.out.wire = client.tracer.wire;
    client.out.spans = std::mem::take(&mut client.tracer.spans);
    Ok(client.out)
}
