//! `serve-mixed`: an in-process daemon booted from a compiled artifact
//! over the 300k-concept ontology, driven by a client mixing
//! `GET /summary/{item}` reads with `POST /reviews` appends.
//!
//! The rate ladder is open-loop: every request has a scheduled send time
//! fixed before the step, and its latency is measured from that time, so
//! a stall also charges the requests queued behind it. The closed loop
//! that measures throughput and miss latency sends its next request on
//! one connection when the previous reply is in. Load comes from one
//! process over at most `nproc` keep-alive connections; in the ladder
//! request `i` goes out on connection `i mod nproc`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use osa_core::Granularity;
use osa_datasets::{
    synthetic_ontology, Corpus, CorpusConfig, Extractor, Item, Review, SyntheticOntologyConfig,
};
use osa_ontology::{AncestorImpl, NodeId};
use osa_runtime::incremental::ItemArtifacts;
use osa_runtime::{
    render_item_summary, warm_ancestor_index, BatchAlgorithm, BatchOptions, WorkerScratch,
};
use osa_serve::{serve_artifact, ServeOptions, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{
    current_rss_mb, peak_rss_mb, process_cpu_s, reset_peak_rss, thread_cpu_s, Outcome,
};
use crate::spans::{self, traced, Recorder};
use crate::stats::{mean, median, percentile};

/// Latency limit on the summary tail for `max_rps_at_slo`.
pub const SLO_MS: f64 = 10.0;
/// Share of operations that are `POST /reviews`.
const INGEST_SHARE: f64 = 0.05;
/// Share of appends aimed at the most popular items.
const HOT_INGEST_SHARE: f64 = 0.25;
const HOT_ITEMS: usize = 3;
/// Share of reads that use the daemon's default parameters; the rest
/// draw uniformly from the 36-way (k, granularity, algorithm) mix.
const DEFAULT_READ_SHARE: f64 = 0.75;
const KS: [usize; 6] = [1, 2, 3, 4, 5, 6];
const GRANULARITIES: [&str; 3] = ["sentences", "reviews", "pairs"];
const ALGOS: [&str; 2] = ["greedy", "lazy"];
const BOOTS: usize = 3;
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// Share of the measured seconds given to the closed loop; the rate
/// ladder gets the rest.
const CLOSED_SHARE: f64 = 0.5;
/// Operations a closed-loop stretch sends, per second of its share of
/// the run: about what one connection gets through on a 2-vCPU VM. The
/// count is fixed, not the time, so every run does the same work and
/// leaves the daemon in the same state (its memory grows with the
/// appends and reads it has served); a slower machine takes longer.
const CLOSED_RATE: f64 = 1500.0;
/// A closed-loop stretch stops early after this many times its share of
/// the run, so a stalled daemon cannot hold the run up.
const CLOSED_CAP: f64 = 4.0;
/// Rounds each phase of the load runs in.
const ROUNDS: usize = 4;
/// Step markers of the closed-loop phase, the unmeasured warm-up and
/// the final read-back.
const CLOSED_STEP: usize = usize::MAX - 2;
const WARM_STEP: usize = usize::MAX - 1;
const FINAL_STEP: usize = usize::MAX;

/// A corpus over a synthetic ontology with the given item profile —
/// `osa_datasets::huge_corpus`'s construction, with the item profile
/// and ontology size as parameters.
pub fn ontology_corpus(onto: &SyntheticOntologyConfig, cfg: &CorpusConfig, seed: u64) -> Corpus {
    let h = synthetic_ontology(onto, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4855_4745);
    let mut nodes: Vec<NodeId> = h.nodes().filter(|&n| n != h.root()).collect();
    let pool = 2048.min(nodes.len());
    for i in 0..pool {
        let j = rng.gen_range(i..nodes.len());
        nodes.swap(i, j);
    }
    nodes.truncate(pool);
    Corpus::generate_over_aspects("doctor reviews (serve ontology)", h, nodes, cfg, seed)
}

/// Extract every item of `corpus` and write the compiled artifact the
/// daemon boots from, as `osars compile` does.
pub fn compile_artifact(corpus: &Corpus, path: &Path) -> Result<(), String> {
    let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
    let mut scratch = WorkerScratch::new();
    let extract_impl = BatchOptions::default().extract_impl;
    let extracted: Vec<_> = corpus
        .items
        .iter()
        .map(|it| extractor.extract(it, extract_impl, &mut scratch.extract))
        .collect();
    drop(extractor);
    osa_artifact::write_artifact(path, corpus, &extracted)
        .map(drop)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Summary parameters of one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Params {
    k: usize,
    granularity: &'static str,
    algo: &'static str,
}

impl Params {
    const DEFAULT: Params = Params {
        k: 5,
        granularity: "sentences",
        algo: "greedy",
    };

    fn query(&self) -> String {
        format!(
            "k={}&granularity={}&algo={}",
            self.k, self.granularity, self.algo
        )
    }

    fn opts(&self, base: &BatchOptions) -> BatchOptions {
        BatchOptions {
            k: self.k,
            granularity: match self.granularity {
                "sentences" => Granularity::Sentences,
                "reviews" => Granularity::Reviews,
                _ => Granularity::Pairs,
            },
            algorithm: BatchAlgorithm::from_name(self.algo).expect("catalogued algorithm"),
            jobs: 1,
            ..base.clone()
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Get { item: usize, params: Params },
    Post { item: usize, reviews: Vec<String> },
}

/// One scheduled operation and what came back.
#[derive(Debug, Clone)]
struct Record {
    step: usize,
    op: Op,
    scheduled: Instant,
    sent: Instant,
    done: Instant,
    status: u16,
    cache_hit: Option<bool>,
    /// `Server-Timing` total and queue wait, milliseconds.
    server_total_ms: Option<f64>,
    queue_wait_ms: Option<f64>,
    body: String,
}

impl Record {
    fn ok(&self) -> bool {
        self.status == 200
    }

    /// Milliseconds from the scheduled send to the reply, for successes.
    fn latency_ms(&self) -> Option<f64> {
        self.ok().then(|| {
            self.done
                .saturating_duration_since(self.scheduled)
                .as_secs_f64()
                * 1e3
        })
    }

    /// Milliseconds from the send to the reply, for successes.
    fn service_ms(&self) -> Option<f64> {
        self.ok()
            .then(|| (self.done - self.sent).as_secs_f64() * 1e3)
    }

    /// Milliseconds the send ran behind schedule.
    fn lag_ms(&self) -> f64 {
        self.sent
            .saturating_duration_since(self.scheduled)
            .as_secs_f64()
            * 1e3
    }

    fn is_get(&self) -> bool {
        matches!(self.op, Op::Get { .. })
    }
}

/// Item popularity: Zipf (s = 1) over a seeded permutation of items.
struct Zipf {
    cdf: Vec<f64>,
    rank_to_item: Vec<usize>,
}

impl Zipf {
    fn new(n: usize, rng: &mut StdRng) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut rank_to_item: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rank_to_item.swap(i, rng.gen_range(0..=i));
        }
        Zipf { cdf, rank_to_item }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.rank_to_item[rank]
    }
}

/// The operation script of one ladder step: `count` operations, reads
/// and appends mixed as described in the module docs.
fn script(count: usize, zipf: &Zipf, pool: &[String], rng: &mut StdRng) -> Vec<Op> {
    let n_items = zipf.rank_to_item.len();
    (0..count)
        .map(|_| {
            if rng.gen::<f64>() < INGEST_SHARE {
                let item = if rng.gen::<f64>() < HOT_INGEST_SHARE {
                    zipf.rank_to_item[rng.gen_range(0..HOT_ITEMS.min(n_items))]
                } else {
                    rng.gen_range(0..n_items)
                };
                let reviews = (0..rng.gen_range(1..=3usize))
                    .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                    .collect();
                Op::Post { item, reviews }
            } else {
                let params = if rng.gen::<f64>() < DEFAULT_READ_SHARE {
                    Params::DEFAULT
                } else {
                    Params {
                        k: KS[rng.gen_range(0..KS.len())],
                        granularity: GRANULARITIES[rng.gen_range(0..GRANULARITIES.len())],
                        algo: ALGOS[rng.gen_range(0..ALGOS.len())],
                    }
                };
                Op::Get {
                    item: zipf.sample(rng),
                    params,
                }
            }
        })
        .collect()
}

/// One HTTP/1.1 exchange on a keep-alive connection.
struct Conn {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
    /// Poll for the reply instead of sleeping until it lands.
    spin: bool,
}

struct Response {
    status: u16,
    cache_hit: Option<bool>,
    server_timing: Option<String>,
    body: String,
}

impl Conn {
    fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            reader: None,
            spin: false,
        }
    }

    /// A connection whose thread polls its socket for each reply, so the
    /// client's CPU never sleeps and its wake-up is not timed.
    fn spinning(addr: SocketAddr) -> Self {
        Conn {
            spin: true,
            ..Conn::new(addr)
        }
    }

    fn exchange(&mut self, request: &[u8]) -> std::io::Result<Response> {
        if self.reader.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            self.reader = Some(BufReader::new(s));
        }
        let r = self.reader.as_mut().expect("connected above");
        let spin = self.spin;
        let result = (|| {
            r.get_mut().write_all(request)?;
            if spin && r.buffer().is_empty() {
                await_reply(r.get_ref())?;
            }
            read_response(r)
        })();
        if result.is_err() {
            self.reader = None;
        }
        result
    }
}

/// Poll `s` until it has data to read or is closed, yielding the CPU
/// between polls, so a single core still runs the daemon.
fn await_reply(s: &TcpStream) -> std::io::Result<()> {
    s.set_nonblocking(true)?;
    let deadline = Instant::now() + IO_TIMEOUT;
    let polled = loop {
        match s.peek(&mut [0u8]) {
            Ok(_) => break Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    break Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "no reply before the I/O timeout",
                    ));
                }
                std::thread::yield_now();
            }
            Err(e) => break Err(e),
        }
    };
    s.set_nonblocking(false)?;
    polled
}

fn read_response(r: &mut BufReader<TcpStream>) -> std::io::Result<Response> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before the status line"));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut len = 0usize;
    let mut cache_hit = None;
    let mut server_timing = None;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the headers"));
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        let Some((name, value)) = l.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => len = value.parse().map_err(|_| bad("bad content-length"))?,
            "x-osars-cache" => cache_hit = Some(value == "hit"),
            "server-timing" => server_timing = Some(value.to_owned()),
            _ => {}
        }
    }
    let mut body = vec![0; len];
    r.read_exact(&mut body)?;
    Ok(Response {
        status,
        cache_hit,
        server_timing,
        body: String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?,
    })
}

fn request_bytes(op: &Op) -> Vec<u8> {
    match op {
        Op::Get { item, params } => format!(
            "GET /summary/{item}?{} HTTP/1.1\r\nHost: bench\r\n\r\n",
            params.query()
        )
        .into_bytes(),
        Op::Post { item, reviews } => {
            use osa_json::Value;
            let body = osa_json::to_string(&Value::Object(vec![
                ("item".to_owned(), Value::Number(*item as f64)),
                (
                    "reviews".to_owned(),
                    Value::Array(reviews.iter().map(|r| Value::from(r.as_str())).collect()),
                ),
            ]));
            let mut msg = format!(
                "POST /reviews HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            msg.extend_from_slice(body.as_bytes());
            msg
        }
    }
}

/// `Server-Timing` entry `name`'s duration in milliseconds.
fn timing_entry(header: &str, name: &str) -> Option<f64> {
    header.split(',').find_map(|part| {
        let (n, rest) = part.trim().split_once(';')?;
        (n == name).then(|| rest.strip_prefix("dur=")?.parse().ok())?
    })
}

/// Send one operation on `conn` and record what came back. With a
/// recorder, the exchange is a span.
fn send(
    conn: &mut Conn,
    step: usize,
    i: usize,
    op: Op,
    scheduled: Instant,
    rec: Option<&Recorder>,
) -> Record {
    let bytes = request_bytes(&op);
    let sent = Instant::now();
    let name = if matches!(op, Op::Get { .. }) {
        "client.get"
    } else {
        "client.post"
    };
    let resp = traced(rec, name, None, i as u64, |_| conn.exchange(&bytes));
    let done = Instant::now();
    let mut r = Record {
        step,
        op,
        scheduled,
        sent,
        done,
        status: 0,
        cache_hit: None,
        server_total_ms: None,
        queue_wait_ms: None,
        body: String::new(),
    };
    if let Ok(resp) = resp {
        r.status = resp.status;
        r.cache_hit = resp.cache_hit;
        if let Some(t) = &resp.server_timing {
            r.server_total_ms = timing_entry(t, "total");
            r.queue_wait_ms = timing_entry(t, "serve.queue.wait");
        }
        r.body = resp.body;
    }
    r
}

/// Send `ops` open-loop at `rate` per second from now on, one thread per
/// connection of `conns`. With a recorder, each request is a span.
fn drive(
    conns: &mut [Conn],
    step: usize,
    ops: Vec<Op>,
    rate: f64,
    rec: Option<&Recorder>,
) -> Vec<Record> {
    let start = Instant::now();
    let mut lanes: Vec<Vec<(usize, Op)>> = vec![Vec::new(); conns.len()];
    for (i, op) in ops.into_iter().enumerate() {
        lanes[i % conns.len()].push((i, op));
    }
    let mut records: Vec<(usize, Record)> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .zip(conns.iter_mut())
            .map(|(lane, conn)| {
                s.spawn(move || {
                    lane.into_iter()
                        .map(|(i, op)| {
                            let scheduled = start + Duration::from_secs_f64(i as f64 / rate);
                            if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            (i, send(conn, step, i, op, scheduled, rec))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client lane thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.0);
    records.into_iter().map(|r| r.1).collect()
}

/// Closed-loop stretches, one or several together.
#[derive(Default)]
struct Closed {
    /// The operations sent, a prefix of each stretch's script, in order.
    records: Vec<Record>,
    wall_s: f64,
    /// CPU time of the daemon's threads: the process's less the client
    /// thread's.
    cpu_s: f64,
}

impl Closed {
    fn extend(&mut self, other: Closed) {
        self.records.extend(other.records);
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

/// Send `ops` closed-loop on one connection from this thread: the next
/// operation goes out as soon as the previous reply is in, until the
/// operations run out or `max_seconds` have passed. The server sets the
/// pace. One connection keeps the busy threads to two, the client and
/// the daemon thread serving it, so a 2-vCPU machine runs them without
/// time-sharing; more connections than cores left the figures to the
/// scheduler. The client polls for each reply: a sleeping client's
/// virtual CPU has to be woken for it, which takes as long as a busy
/// host makes it wait.
fn drive_closed(conn: &mut Conn, step: usize, ops: &[Op], max_seconds: f64) -> Closed {
    let daemon_cpu_s = || Some(process_cpu_s()? - thread_cpu_s()?);
    let mut records = Vec::new();
    let cpu0 = daemon_cpu_s();
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if start.elapsed().as_secs_f64() >= max_seconds {
            break;
        }
        records.push(send(conn, step, i, op.clone(), Instant::now(), None));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = daemon_cpu_s().zip(cpu0).map_or(0.0, |(b, a)| b - a);
    Closed {
        records,
        wall_s,
        cpu_s,
    }
}

/// Boot the daemon from the artifact and wait until it answers. Returns
/// the handle and the seconds from open to ready.
fn boot(path: &Path, rec: Option<&Recorder>, n: u64) -> (ServerHandle, f64) {
    let t0 = Instant::now();
    traced(rec, "boot", None, n, |p| {
        let art = traced(rec, "artifact.open", p, n, |_| {
            osa_artifact::open_lazy(path).expect("benchmark artifact opens")
        });
        let handle = traced(rec, "serve.boot", p, n, |_| {
            let h = serve_artifact(art, "127.0.0.1:0", ServeOptions::default())
                .expect("daemon binds a loopback port");
            let resp = Conn::new(h.addr())
                .exchange(b"GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
                .expect("daemon answers /healthz");
            assert_eq!(resp.status, 200, "daemon is healthy after boot");
            h
        });
        (handle, t0.elapsed().as_secs_f64())
    })
}

/// Shape of a serve-mixed run.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub seconds: f64,
    /// Offered rates of the ladder steps, requests per second; the first
    /// is the nominal rate `op_p50_ms` is read at.
    pub rates: [f64; 3],
    pub conns: usize,
    pub traced: bool,
}

/// What the client takes from the corpus: the item count and the review
/// texts it appends.
struct Traffic {
    n_items: usize,
    pool: Vec<String>,
}

impl Traffic {
    fn new(corpus: &Corpus) -> Self {
        Traffic {
            n_items: corpus.items.len(),
            pool: corpus
                .items
                .iter()
                .flat_map(|it| it.reviews.iter().map(|r| r.text.clone()))
                .step_by(7)
                .collect(),
        }
    }
}

/// Everything the offline check needs from the load phase.
struct Served {
    records: Vec<Record>,
    /// Each item's revision when the load ended.
    final_revs: Vec<u64>,
}

/// Boot, drive the load and report its metrics, then check every
/// served output offline. `corpus` is the one compiled to `path`; it is
/// dropped before the daemon boots, so `peak_rss_mb` measures the daemon
/// and the client, and `regenerate` makes it again for the check.
pub fn run(
    corpus: Corpus,
    regenerate: impl Fn() -> Corpus,
    path: &Path,
    seed: u64,
    spec: &Spec,
    out: &mut Outcome,
) {
    let traffic = Traffic::new(&corpus);
    drop(corpus);
    out.fact("rss_before_boot_mb", current_rss_mb().unwrap_or(0.0));
    reset_peak_rss();
    let (served, rec) = load(&traffic, path, seed, spec, out);
    let corpus = regenerate();
    check(
        &corpus,
        &BatchOptions::default(),
        &served,
        spec.conns,
        spec.traced.then_some(path),
        out,
    );
    if let Some(rec) = rec {
        let spans = rec.spans();
        let open: Vec<f64> = spans::durations_us(&spans, "artifact.open");
        out.put(
            "artifact.open_ms",
            median(&open).map(|u| u / 1e3),
            open.len(),
        );
        out.spans = spans;
    }
}

/// Boot the daemon `BOOTS` times from the artifact at `path`, then run
/// the warm-up, the rate ladder and the closed-loop phase against the
/// last boot.
fn load(
    traffic: &Traffic,
    path: &Path,
    seed: u64,
    spec: &Spec,
    out: &mut Outcome,
) -> (Served, Option<Recorder>) {
    let Traffic { n_items, pool } = traffic;
    let n_items = *n_items;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    let zipf = Zipf::new(n_items, &mut rng);

    let rec = spec.traced.then(Recorder::default);
    let mut ready_s = Vec::new();
    let mut handle = None;
    for b in 0..BOOTS {
        if let Some(h) = handle.take() {
            ServerHandle::shutdown(h);
        }
        let (h, ready) = boot(path, rec.as_ref(), b as u64);
        ready_s.push(ready);
        handle = Some(h);
    }
    let handle = handle.expect("booted at least once");
    let addr = handle.addr();

    // Warm-up, unmeasured but checked: one default read of every item,
    // then the nominal rate for a fifth of the run, so the ladder starts
    // from a cache in steady state rather than an empty one.
    let warm_ops: Vec<Op> = (0..n_items)
        .map(|item| Op::Get {
            item,
            params: Params::DEFAULT,
        })
        .chain(script(
            (spec.rates[0] * spec.seconds / 5.0).round() as usize,
            &zipf,
            pool,
            &mut rng,
        ))
        .collect();
    // The client keeps its connections for the whole load.
    let mut lanes: Vec<Conn> = (0..spec.conns).map(|_| Conn::new(addr)).collect();
    let mut closed_conn = Conn::spinning(addr);
    let warm = drive(&mut lanes, WARM_STEP, warm_ops, spec.rates[0], None);

    // Untraced: one phase. Traced: the ladder runs once untraced at half
    // length, then again with a span per request.
    let phases: Vec<Option<&Recorder>> = match &rec {
        None => vec![None],
        Some(r) => vec![None, Some(r)],
    };
    // Each phase runs in rounds: every round offers each ladder rate in
    // turn and, untraced, runs a stretch of the closed loop. A burst of
    // host contention lasting a few seconds then touches only part of
    // each measurement, and the medians below set it aside. Popularity
    // is drawn afresh after the first round (which the warm-up primed):
    // which items are hottest, and how large they are, sets much of the
    // miss latency, so a run averages over several draws of them. Both
    // phases use the same draws, round by round.
    let ladder_s = spec.seconds * (1.0 - CLOSED_SHARE);
    let chunk_s = ladder_s / (spec.rates.len() * phases.len() * ROUNDS) as f64;
    let closed_chunk_s = spec.seconds * CLOSED_SHARE / ROUNDS as f64;
    let mut records: Vec<Record> = Vec::new();
    let mut closed = Closed::default();
    let mut phase_p50 = Vec::new();
    let mut draws = vec![zipf];
    for (phase, prec) in phases.iter().enumerate() {
        let mut phase_records = Vec::new();
        // The tracing overhead compares the phases' median cache-missing
        // read at the nominal rate, from send to reply.
        // The share of hits differs between the phases, whose chunks
        // differ in length, so hits are left out.
        let mut compared = Vec::new();
        for round in 0..ROUNDS {
            if round == draws.len() {
                draws.push(Zipf::new(n_items, &mut rng));
            }
            let zipf = &draws[round];
            for (si, &rate) in spec.rates.iter().enumerate() {
                let count = (rate * chunk_s).round().max(1.0) as usize;
                let ops = script(count, zipf, pool, &mut rng);
                let step = phase * spec.rates.len() + si;
                let done = drive(&mut lanes, step, ops, rate, *prec);
                if si == 0 {
                    compared.extend(
                        done.iter()
                            .filter(|r| r.cache_hit == Some(false))
                            .filter_map(Record::service_ms),
                    );
                }
                phase_records.extend(done);
            }
            if prec.is_some() {
                continue;
            }
            let ops = script(
                (CLOSED_RATE * closed_chunk_s).round().max(1.0) as usize,
                zipf,
                pool,
                &mut rng,
            );
            let max_s = CLOSED_CAP * closed_chunk_s;
            closed.extend(drive_closed(&mut closed_conn, CLOSED_STEP, &ops, max_s));
        }
        phase_p50.push(median(&compared));
        records.extend(phase_records);
    }
    let peak = peak_rss_mb();

    // Final reads at default parameters show every item's last revision.
    let final_revs: Vec<u64> = (0..n_items)
        .map(|i| handle.item_rev(i).expect("item index in range"))
        .collect();
    let finals: Vec<Op> = (0..n_items)
        .filter(|&i| final_revs[i] > 0)
        .map(|item| Op::Get {
            item,
            params: Params::DEFAULT,
        })
        .collect();
    let n_finals = finals.len();
    let final_records = drive(&mut lanes[..1], FINAL_STEP, finals, 1e6, None);
    drop((lanes, closed_conn));
    ServerHandle::shutdown(handle);

    // End-to-end and header-derived metrics come from the untraced
    // ladder only.
    let untraced: Vec<Record> = records
        .iter()
        .filter(|r| r.step < spec.rates.len())
        .cloned()
        .collect();
    report_load(&untraced, &closed, spec, out);
    out.put("setup_s", median(&ready_s), ready_s.len());
    out.put("peak_rss_mb", peak, 1);
    if let [Some(u), Some(t)] = phase_p50[..] {
        out.put("trace.overhead_pct", Some(100.0 * (t / u - 1.0)), 2);
    }
    if final_records.iter().any(|r| !r.ok()) || final_records.len() != n_finals {
        out.mismatch("a final read of an ingested item failed");
    }
    let served = Served {
        records: warm
            .into_iter()
            .chain(records)
            .chain(closed.records)
            .chain(final_records)
            .collect(),
        final_revs,
    };
    (served, rec)
}

/// End-to-end and serve-layer metrics of the load phase: the ladder's
/// `records`, and the closed loop.
fn report_load(records: &[Record], closed_loop: &Closed, spec: &Spec, out: &mut Outcome) {
    let steps = spec.rates.len();
    let gets = |pred: &dyn Fn(&Record) -> bool| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.is_get() && pred(r))
            .filter_map(Record::latency_ms)
            .collect()
    };
    let closed = &closed_loop.records;
    let all = || records.iter().chain(closed);
    let attempted = all().count() as u64;
    let failed = all().filter(|r| !r.ok()).count() as u64;
    out.attempted += attempted;
    out.failed += failed;

    // Ladder: a step meets the limit when its summary tail is within
    // SLO_MS, nothing failed, and the generator did not fall behind.
    let mut best = None;
    let mut met_steps = Vec::new();
    for (si, &rate) in spec.rates.iter().enumerate() {
        let in_step: Vec<&Record> = records.iter().filter(|r| r.step % steps == si).collect();
        let lat: Vec<f64> = in_step
            .iter()
            .filter(|r| r.is_get())
            .filter_map(|r| r.latency_ms())
            .collect();
        let tail = percentile(&lat, 0.99)
            .or_else(|| percentile(&lat, 0.95))
            .or_else(|| percentile(&lat, 0.9));
        let last_lags: Vec<f64> = in_step
            .iter()
            .rev()
            .take((in_step.len() / 10).max(1))
            .map(|r| r.lag_ms())
            .collect();
        let backlog = median(&last_lags).unwrap_or(f64::INFINITY) > SLO_MS;
        let ok = in_step.iter().all(|r| r.ok());
        let meets = tail.is_some_and(|t| t <= SLO_MS) && ok && !backlog;
        out.notes.push(format!(
            "step {si}: offered {rate:.0}/s, {} ops, summary p50 {} ms, tail {} ms, backlog {backlog}, {}",
            in_step.len(),
            median(&lat).map_or("n/a".to_owned(), |t| format!("{t:.3}")),
            tail.map_or("n/a".to_owned(), |t| format!("{t:.3}")),
            if meets { "meets the limit" } else { "misses the limit" }
        ));
        if meets {
            best = Some(rate);
            met_steps.push(si);
        }
    }
    // Open-loop latencies at the rates the server sustains.
    let met = gets(&|r| met_steps.contains(&(r.step % steps)));
    let posts: Vec<f64> = records
        .iter()
        .filter(|r| !r.is_get() && met_steps.contains(&(r.step % steps)))
        .filter_map(Record::latency_ms)
        .collect();
    // Both gated figures come from the closed loop. Throughput is what
    // the daemon sets there (the open loop's rate is fixed by its
    // schedule), per second of the daemon's CPU time: waking an idle
    // virtual CPU takes as long as the host makes it wait, and a round
    // trip of a cache hit is mostly such wake-ups, so per wall second
    // the figure measured the host's load more than the daemon. The
    // latency is that of cache-missing reads, which do the server's work
    // (decode, graph build, solve), from send to reply.
    let closed_ok = closed.iter().filter(|r| r.ok()).count();
    let per_cpu_s = (closed_loop.cpu_s > 0.0).then(|| closed_ok as f64 / closed_loop.cpu_s);
    out.put("items_per_s", per_cpu_s, closed_ok);
    let misses: Vec<f64> = closed
        .iter()
        .filter(|r| r.cache_hit == Some(false))
        .filter_map(Record::service_ms)
        .collect();
    out.put("op_p50_ms", median(&misses), misses.len());
    out.notes.push(format!(
        "closed loop: {} ops ({} appends, {} cache-missing reads) on one connection over {:.2} s wall, {:.2} s daemon CPU: {:.0} ops per wall second",
        closed.len(),
        closed.iter().filter(|r| !r.is_get()).count(),
        misses.len(),
        closed_loop.wall_s,
        closed_loop.cpu_s,
        closed_ok as f64 / closed_loop.wall_s.max(1e-9),
    ));
    out.put("summary_p50_ms", median(&met), met.len());
    out.put("summary_p99_ms", percentile(&met, 0.99), met.len());
    out.put("ingest_p50_ms", median(&posts), posts.len());
    out.put("ingest_p95_ms", percentile(&posts, 0.95), posts.len());
    out.put("max_rps_at_slo", best, steps);
    out.put(
        "failed_frac",
        Some(failed as f64 / attempted.max(1) as f64),
        attempted as usize,
    );

    let get_recs: Vec<&Record> = records.iter().filter(|r| r.is_get()).collect();
    let hits = get_recs
        .iter()
        .filter(|r| r.cache_hit == Some(true))
        .count();
    let answered = get_recs.iter().filter(|r| r.cache_hit.is_some()).count();
    out.put(
        "serve.cache_hit_frac",
        Some(hits as f64 / answered.max(1) as f64),
        answered,
    );
    let misses: Vec<&&Record> = get_recs
        .iter()
        .filter(|r| r.cache_hit == Some(false))
        .collect();
    let qwait: Vec<f64> = misses.iter().filter_map(|r| r.queue_wait_ms).collect();
    out.put("serve.queue_wait_ms", mean(&qwait), qwait.len());
    out.put(
        "serve.queue_wait_p99_ms",
        percentile(&qwait, 0.99),
        qwait.len(),
    );
    let service: Vec<f64> = get_recs
        .iter()
        .filter_map(|r| Some(r.server_total_ms? - r.queue_wait_ms.unwrap_or(0.0)))
        .collect();
    out.put("serve.service_ms", mean(&service), service.len());
    let refused = all().filter(|r| matches!(r.status, 503 | 504)).count();
    out.put(
        "serve.refused_frac",
        Some(refused as f64 / attempted.max(1) as f64),
        attempted as usize,
    );
    // At the nominal rate, where the generator must keep its schedule.
    let lag: Vec<f64> = records
        .iter()
        .filter(|r| r.step % steps == 0)
        .map(Record::lag_ms)
        .collect();
    out.put("client.lag_ms", percentile(&lag, 0.99), lag.len());
}

/// The item as of revision `rev`: its base reviews plus every
/// acknowledged append up to `rev`, in revision order.
fn item_at(base: &Item, appends: &BTreeMap<u64, Vec<String>>, rev: u64) -> Item {
    let mut item = base.clone();
    for texts in appends.range(..=rev).map(|(_, t)| t) {
        item.reviews.extend(texts.iter().map(|t| Review {
            text: t.clone(),
            planted: Vec::new(),
        }));
    }
    item
}

/// Parse a served summary body into `(revision, text)`.
fn parse_summary(body: &str) -> Option<(u64, String)> {
    let v = osa_json::parse(body).ok()?;
    Some((
        v.get("epoch")?.as_u64()?,
        v.get("text")?.as_str()?.to_owned(),
    ))
}

/// Offline check of everything served, plus (traced) the incremental
/// update replay and layer timings that need the offline extractor.
fn check(
    corpus: &Corpus,
    base: &BatchOptions,
    served: &Served,
    jobs: usize,
    traced_path: Option<&Path>,
    out: &mut Outcome,
) {
    // Acknowledged appends per item, keyed by the revision they made.
    let mut appends: Vec<BTreeMap<u64, Vec<String>>> = vec![BTreeMap::new(); corpus.items.len()];
    // Distinct (item, revision) → params → served texts.
    let mut reads: BTreeMap<(usize, u64), BTreeMap<Params, Vec<String>>> = BTreeMap::new();
    for r in served.records.iter().filter(|r| r.ok()) {
        match &r.op {
            Op::Post { item, reviews } => {
                let rev = osa_json::parse(&r.body)
                    .ok()
                    .and_then(|v| v.get("epoch")?.as_u64());
                match rev {
                    Some(rev) if appends[*item].insert(rev, reviews.clone()).is_none() => {}
                    _ => out.mismatch(format!("append to item {item}: bad or repeated revision")),
                }
            }
            Op::Get { item, params } => match parse_summary(&r.body) {
                Some((rev, text)) => reads
                    .entry((*item, rev))
                    .or_default()
                    .entry(*params)
                    .or_default()
                    .push(text),
                None => out.mismatch(format!("unparseable summary body for item {item}")),
            },
        }
    }
    for (i, a) in appends.iter().enumerate() {
        let want: Vec<u64> = (1..=served.final_revs[i]).collect();
        if a.keys().copied().collect::<Vec<_>>() != want {
            out.mismatch(format!(
                "item {i}: acknowledged appends {:?} do not match final revision {}",
                a.keys().collect::<Vec<_>>(),
                served.final_revs[i]
            ));
        }
        if served.final_revs[i] > 0 && !reads.contains_key(&(i, served.final_revs[i])) {
            out.mismatch(format!("item {i}: final revision was never read back"));
        }
    }

    let t = Instant::now();
    let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
    let extract_build_ms = t.elapsed().as_secs_f64() * 1e3;
    let h = &corpus.hierarchy;
    let groups: Vec<_> = reads.iter().collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let problems: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut scratch = WorkerScratch::new();
                    let mut bad = Vec::new();
                    loop {
                        let g = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&(&(item, rev), by_params)) = groups.get(g) else {
                            break bad;
                        };
                        let it = item_at(&corpus.items[item], &appends[item], rev);
                        let art = ItemArtifacts::build(h, &extractor, base, &it, &mut scratch);
                        for (p, texts) in by_params {
                            let s = art.summarize(h, &p.opts(base), item, &it, &mut scratch, None);
                            let want = render_item_summary(&s);
                            if texts.iter().any(|t| *t != want) {
                                bad.push(format!(
                                    "item {item} rev {rev} {}: served summary differs from the offline render",
                                    p.query()
                                ));
                            }
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("check worker panicked"))
            .collect()
    });
    for p in problems {
        out.mismatch(p);
    }
    let distinct: usize = reads.values().map(BTreeMap::len).sum();
    out.fact("distinct_reads_checked", distinct);
    out.fact("revisions_checked", reads.len());
    out.fact(
        "appends_acknowledged",
        appends.iter().map(BTreeMap::len).sum::<usize>(),
    );

    let Some(path) = traced_path else {
        return;
    };
    // Incremental update vs rebuild of the same post-append item,
    // replaying the acknowledged appends in revision order.
    let mut update_us = Vec::new();
    let mut rebuild_us = Vec::new();
    let mut scratch = WorkerScratch::new();
    for (i, a) in appends.iter().enumerate().filter(|(_, a)| !a.is_empty()) {
        let mut art = ItemArtifacts::build(h, &extractor, base, &corpus.items[i], &mut scratch);
        for &rev in a.keys() {
            let it = item_at(&corpus.items[i], a, rev);
            let t = Instant::now();
            let next = art.update(h, &extractor, base, &it, &mut scratch);
            update_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let fresh = ItemArtifacts::build(h, &extractor, base, &it, &mut scratch);
            rebuild_us.push(t.elapsed().as_secs_f64() * 1e6);
            let a_sum = next.summarize(h, base, i, &it, &mut scratch, None);
            let f_sum = fresh.summarize(h, base, i, &it, &mut scratch, None);
            if a_sum != f_sum {
                out.mismatch(format!("item {i} rev {rev}: update and rebuild disagree"));
            }
            art = next;
        }
    }
    out.put("runtime.update_us", median(&update_us), update_us.len());
    out.put(
        "runtime.update_p95_us",
        percentile(&update_us, 0.95),
        update_us.len(),
    );
    out.put("runtime.rebuild_us", median(&rebuild_us), rebuild_us.len());
    let speedup = median(&rebuild_us)
        .zip(median(&update_us))
        .map(|(r, u)| r / u);
    out.put("runtime.update_speedup", speedup, update_us.len());
    if let Some(s) = speedup {
        out.notes.push(format!(
            "runtime.update_speedup {s:.2}x = median rebuild {:.1} us / median update {:.1} us of the same post-append item, over {} appends",
            median(&rebuild_us).unwrap_or(0.0),
            median(&update_us).unwrap_or(0.0),
            update_us.len()
        ));
    }
    drop(extractor);

    // Layer work the daemon does inside `serve_artifact`, timed on a
    // second open of the same artifact.
    let art = osa_artifact::open_lazy(path).expect("benchmark artifact opens");
    let t = Instant::now();
    warm_ancestor_index(&art.hierarchy, AncestorImpl::Dense);
    out.put(
        "ontology.index_warm_ms",
        Some(t.elapsed().as_secs_f64() * 1e3),
        1,
    );
    let t = Instant::now();
    drop(std::hint::black_box(Extractor::from_hierarchy(
        &art.hierarchy,
    )));
    let boot_extract_ms = t.elapsed().as_secs_f64() * 1e3;
    out.put(
        "extract.build_ms",
        median(&[extract_build_ms, boot_extract_ms]),
        2,
    );
    let decode_us: Vec<f64> = (0..art.store.len())
        .map(|i| {
            let t = Instant::now();
            std::hint::black_box(art.store.item(i).expect("artifact block decodes"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.put(
        "artifact.block_decode_us",
        mean(&decode_us),
        decode_us.len(),
    );
    drop(art);

    // Like for like: boot the same corpus from JSON to the same state
    // (hierarchy, extractor, warm index) and compare with the artifact
    // boot.
    let json = path.with_extension("json");
    osa_datasets::save_corpus(corpus, &json).expect("work directory is writable");
    let t = Instant::now();
    let loaded = osa_datasets::load_corpus(&json).expect("saved corpus loads");
    let extractor = Extractor::from_hierarchy(&loaded.hierarchy);
    warm_ancestor_index(&loaded.hierarchy, AncestorImpl::Dense);
    let json_boot_s = t.elapsed().as_secs_f64();
    drop((extractor, loaded));
    let _ = std::fs::remove_file(&json);
    if let Some(artifact_boot_s) = out.get("setup_s").and_then(|m| m.value) {
        out.notes.push(format!(
            "artifact boot {artifact_boot_s:.3} s (setup_s, median of {BOOTS}) vs JSON boot {json_boot_s:.3} s of the same {}-concept corpus: {:.2}x",
            corpus.hierarchy.node_count(),
            json_boot_s / artifact_boot_s
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_served_summary_fails_the_check() {
        let onto = SyntheticOntologyConfig {
            nodes: 500,
            levels: 5,
            multi_parent_prob: 0.15,
        };
        let cfg = CorpusConfig {
            items: 4,
            min_reviews: 4,
            max_reviews: 8,
            mean_reviews: 6.0,
            ..CorpusConfig::doctors_small()
        };
        let corpus = ontology_corpus(&onto, &cfg, 9);
        let dir = crate::report::work_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("serve-unit-{}.osar", std::process::id()));
        compile_artifact(&corpus, &path).unwrap();
        let spec = Spec {
            seconds: 1.0,
            rates: [30.0, 60.0, 120.0],
            conns: 2,
            traced: false,
        };
        let traffic = Traffic::new(&corpus);
        let (mut served, _) = load(&traffic, &path, 9, &spec, &mut Outcome::default());
        std::fs::remove_file(&path).unwrap();
        let base = BatchOptions::default();
        let mut clean = Outcome::default();
        check(&corpus, &base, &served, 2, None, &mut clean);
        assert!(clean.correct(), "{:?}", clean.mismatches);

        let r = served
            .records
            .iter_mut()
            .find(|r| r.ok() && r.is_get())
            .expect("at least one summary was served");
        let corrupted = r.body.replacen("\"text\":\"item", "\"text\":\"itme", 1);
        assert_ne!(corrupted, r.body);
        r.body = corrupted;
        let mut bad = Outcome::default();
        check(&corpus, &base, &served, 2, None, &mut bad);
        assert!(
            !bad.correct(),
            "a corrupted served summary must fail the check"
        );
    }
}
