//! Served-stack benchmark for privpath.
//!
//! Every number here is wall time of the production serving stack:
//! a seeded `road_like` network is built with `PirMode::LinearScan`,
//! persisted, reopened with `Database::open_snapshot(.., StorageBackend::Mmap)`
//! (so every file is a `ChecksumFile` over an `MmapFile`), served with
//! `Database::serve_tcp()` on the default `FrontConfig`, and queried by
//! closed-loop `QuerySession`s over loopback TCP. Each client waits for
//! every reply before it sends its next request.
//!
//! Workloads (see [`WORKLOADS`]):
//!
//! * `ci-1c` — CI, 10,000 nodes, one persistent session: the latency a lone
//!   user sees, dominated by client compute and round trips;
//! * `pi-2c` — PI, 5,000 nodes, two persistent sessions: each query is one
//!   checksummed pass over the ≈2,600-page index file, and the two sessions
//!   queue on the front's single loop thread;
//! * `ci-churn` — CI on the `ci-1c` network, two clients, a fresh TCP
//!   session per query (connect, handshake, one query, close).
//!
//! An untraced run (`trace = false`) reports the end-to-end metrics. A
//! traced run splits its time between an untraced phase (the baseline for
//! the tracing overhead) and a phase whose sessions go through the
//! `spans::TimedLink` decorator, then replays the scan and storage layers
//! on the production drivers (`replay`) and reads
//! `TcpFront::session_stats()` once at the end. It reports the per-layer
//! metrics. No library code is instrumented.
//!
//! Every answer is checked outside the timed loop: its cost against
//! `dijkstra::distance` on the plaintext network, its trace against the
//! published plan (`audit::check_plan_conformance`), and its
//! `plan_violation` flag. Any error, wrong answer, violation or
//! nonconforming trace is a failed query.

mod replay;
mod spans;
mod stats;

pub use stats::{result_json, Metric};

use privpath_core::audit::check_plan_conformance;
use privpath_core::plan::PlanFile;
use privpath_core::{BuildConfig, Database, QuerySession, SchemeKind, StorageBackend};
use privpath_graph::dijkstra::{distance, INFINITY};
use privpath_graph::gen::{road_like, RoadGenConfig};
use privpath_graph::network::RoadNetwork;
use privpath_graph::types::Dist;
use privpath_pir::{AccessTrace, FileId, Meter, PirMode, TcpFront, Transport};
use spans::{lock, LinkCounts, Recorder, RoundKind, SharedRecorder, Span, TimedLink};
use stats::{mean, median, percentile, proc_status_kb, samples_beyond, HostLimits};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Scheme served.
    pub kind: SchemeKind,
    /// Network size.
    pub nodes: usize,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// True: a fresh TCP session per query. False: one persistent session
    /// per client.
    pub churn: bool,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ci-1c",
        kind: SchemeKind::Ci,
        nodes: 10_000,
        clients: 1,
        churn: false,
        why: "one persistent CI session: client compute and round trips dominate",
    },
    Workload {
        name: "pi-2c",
        kind: SchemeKind::Pi,
        nodes: 5_000,
        clients: 2,
        churn: false,
        why: "two persistent PI sessions: each query is bound by a checksummed scan pass",
    },
    Workload {
        name: "ci-churn",
        kind: SchemeKind::Ci,
        nodes: 10_000,
        clients: 2,
        churn: true,
        why:
            "two CI clients opening a fresh TCP session per query: accept, handshake, session table",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The end-to-end metrics an untraced run reports, `(name, unit)`, in order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("query_p50_ms", "ms"),
    ("throughput_qps", "queries/s"),
    ("ok_ratio", "ratio"),
    ("bytes_per_query", "B"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// The per-layer metrics a traced run reports, `(name, unit)`, in order.
/// Layers are named after their modules; `model.` values are the paper's
/// cost model, not measurements.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("query.p99_ms", "ms"),
    ("core.client_ms", "ms"),
    ("core.build_s", "s"),
    ("core.persist_s", "s"),
    ("core.open_snapshot_s", "s"),
    ("pir.round_ms", "ms"),
    ("pir.link_ms_per_query", "ms"),
    ("pir.rounds_per_query", "count"),
    ("pir.fetches_per_query", "count"),
    ("pir.connect_ms", "ms"),
    ("pir.close_ms", "ms"),
    ("pir.front_self_ms_per_round", "ms"),
    ("pir.scan_pass_ms.Fl", "ms"),
    ("pir.scan_pass_ms.Fi", "ms"),
    ("pir.scan_pass_ms.Fd", "ms"),
    ("pir.scan_gbps", "GB/s"),
    ("storage.read_verify_ms", "ms"),
    ("storage.crc_ms", "ms"),
    ("storage.crc_share", "ratio"),
    ("pir.front.sessions_retained", "count"),
    ("pir.front.retransmits", "count"),
    ("pir.front.malformed", "count"),
    ("pir.front.panics", "count"),
    ("pir.front.coalesced_rounds", "count"),
    ("pir.front.bytes_in_per_query", "B"),
    ("proc.rss_growth_kb_per_session", "KB"),
    ("model.pir_s", "modeled_s"),
    ("model.comm_s", "modeled_s"),
    ("model.response_s", "modeled_s"),
    ("trace.overhead_pct", "%"),
];

/// Default network seed: the network stays the same across `--seed`s, so
/// run-to-run spread comes from the query pairs and the host, not from a
/// different database each time.
pub const DEFAULT_NET_SEED: u64 = 0x0005_eed0_0017;

/// Set-ups per run; `setup_s` and the `core.*_s` metrics are their medians.
pub const SETUPS: usize = 5;

/// Untimed warm-up queries per client before each phase.
pub const WARMUP_QUERIES: usize = 40;

/// Distinct query pairs drawn from the seed; clients cycle through them.
pub const POOL: usize = 512;

/// Most sessions one `ci-churn` run opens, warm-up included. The front
/// keeps every closed connection's socket and pump threads until it shuts
/// down, so each session holds a file descriptor and two thread stacks for
/// the rest of the run. The run stops at this many sessions (or earlier,
/// when the host's limits allow fewer; see [`HostLimits`]) however fast
/// they go.
pub const CHURN_SESSIONS: usize = 10_000;

/// Run settings. [`Options::new`] gives the benchmark's defaults.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the query pairs and the sessions' dummy-page RNGs.
    pub seed: u64,
    /// Seed of the road network.
    pub net_seed: u64,
    /// Measured seconds: one untraced phase, or an untraced and a traced
    /// phase of half as long each.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Network size (defaults to the workload's).
    pub nodes: usize,
    /// Per-client cap on measured queries in a phase (`None`: time only).
    pub max_queries: Option<usize>,
    /// Directory (inside the checkout) for snapshots and span logs.
    pub out_dir: PathBuf,
}

impl Options {
    /// The benchmark's defaults for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            net_seed: DEFAULT_NET_SEED,
            seconds,
            trace,
            nodes: workload.nodes,
            max_queries: None,
            out_dir: PathBuf::from(".perfbench"),
        }
    }
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// True when every query was correct and every traced-run check held.
    pub correct: bool,
    /// Queries attempted (warm-up included).
    pub attempted: u64,
    /// Queries that failed (error, wrong cost, plan violation, or a trace
    /// off the published plan).
    pub failed: u64,
    /// End-to-end metrics (untraced measurements).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines: inputs, sample counts, checks.
    pub notes: Vec<String>,
}

impl Report {
    /// The metrics this run reports: per-layer for a traced run, end-to-end
    /// otherwise.
    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Wall times of one set-up.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    build_s: f64,
    persist_s: f64,
    open_s: f64,
    total_s: f64,
}

/// Builds, persists, reopens from the mmap snapshot and serves over TCP.
fn setup(
    net: &RoadNetwork,
    kind: SchemeKind,
    path: &Path,
) -> Result<(Arc<Database>, TcpFront, SetupTimes), String> {
    let cfg = BuildConfig {
        pir_mode: PirMode::LinearScan,
        ..BuildConfig::default()
    };
    let t0 = Instant::now();
    let built = Database::build(net, kind, &cfg).map_err(|e| format!("build: {e}"))?;
    let t1 = Instant::now();
    built
        .persist(path)
        .map_err(|e| format!("persist to {}: {e}", path.display()))?;
    let t2 = Instant::now();
    drop(built);
    let db = Arc::new(
        Database::open_snapshot(path, StorageBackend::Mmap)
            .map_err(|e| format!("open_snapshot: {e}"))?,
    );
    let t3 = Instant::now();
    let front = db.serve_tcp().map_err(|e| format!("serve_tcp: {e}"))?;
    let t4 = Instant::now();
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let times = SetupTimes {
        build_s: s(t0, t1),
        persist_s: s(t1, t2),
        open_s: s(t2, t3),
        total_s: s(t0, t4),
    };
    Ok((db, front, times))
}

/// Production-stack guard: every file PIR-fetched by the plan is served by
/// a linear scan, and every file's driver is the checksummed one (a bare
/// driver would expose `contiguous()`). Returns the PIR-fetched files.
fn guard(db: &Database) -> Result<Vec<FileId>, String> {
    let server = db.server();
    for i in 0..server.num_files() {
        let f = FileId(i as u16);
        let driver = server.file_driver(f).map_err(|e| e.to_string())?;
        if driver.contiguous().is_some() {
            return Err(format!(
                "file {} is served from a bare driver, not the checksummed one",
                server.file_name(f).unwrap_or("?")
            ));
        }
    }
    let mut files = Vec::new();
    for round in &db.plan().rounds {
        for &(pf, _) in &round.steps {
            if pf == PlanFile::Header {
                continue; // downloaded whole, never PIR-fetched
            }
            let f = db
                .file_of(pf)
                .ok_or_else(|| format!("plan names {pf:?}, which the database lacks"))?;
            let mode = server.file_mode(f).map_err(|e| e.to_string())?;
            if !matches!(mode, Some(PirMode::LinearScan)) {
                return Err(format!(
                    "plan file {} is served as {mode:?}, not LinearScan",
                    server.file_name(f).unwrap_or("?")
                ));
            }
            if !files.contains(&f) {
                files.push(f);
            }
        }
    }
    Ok(files)
}

/// Seeded query pairs `s != t` (SplitMix64 over node ids).
fn query_pairs(nodes: usize, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let n = nodes as u64;
    (0..count)
        .map(|_| loop {
            let s = (next() % n) as u32;
            let t = (next() % n) as u32;
            if s != t {
                break (s, t);
            }
        })
        .collect()
}

/// What a query returned, kept for checking after the timed loop.
#[derive(Debug, Clone, Copy)]
struct QueryRec {
    pair: u32,
    /// `None` when the query returned an error.
    outcome: Option<Outcome>,
}

#[derive(Debug, Clone, Copy)]
struct Outcome {
    cost: Option<Dist>,
    /// Index into the client's distinct traces.
    trace: u32,
    plan_violation: bool,
}

/// One client thread's results for one phase.
#[derive(Default)]
struct ClientOut {
    /// Wall ms of each measured query.
    lat_ms: Vec<f64>,
    /// Every query, warm-up included.
    recs: Vec<QueryRec>,
    /// Distinct traces seen (Theorem 1 makes this one trace per client).
    traces: Vec<AccessTrace>,
    /// Summed cost-model meters of the successful queries.
    meter: Meter,
    successes: u64,
    errors: Vec<String>,
    /// Connect or close failures outside any query.
    link_errors: Vec<String>,
    start: Option<Instant>,
    end: Option<Instant>,
    /// Sessions opened after warm-up (the persistent one counts).
    sessions: u64,
}

impl ClientOut {
    fn trace_index(&mut self, trace: AccessTrace) -> u32 {
        let i = match self.traces.iter().position(|t| *t == trace) {
            Some(i) => i,
            None => {
                self.traces.push(trace);
                self.traces.len() - 1
            }
        };
        i as u32
    }
}

/// Shared state of a run's phases.
struct Ctx<'a> {
    opts: &'a Options,
    net: &'a RoadNetwork,
    db: &'a Arc<Database>,
    front: &'a TcpFront,
    pairs: &'a [(u32, u32)],
    /// Query ids, unique across phases; 0 means "outside a query".
    next_query: AtomicU64,
    /// Session RNG seeds, unique across the run.
    next_session: AtomicU64,
    epoch: Instant,
    /// Measured seconds per phase: a traced run splits its time between
    /// the untraced and the traced phase.
    phase_seconds: f64,
    /// Per-client cap on measured queries in a phase.
    query_cap: usize,
    /// Measured queries completed in the current phase.
    measured: AtomicU64,
    /// `VmHWM` (kB) when the phase completed its [`RSS_AT_QUERIES`]-th
    /// measured query; 0 until then.
    hwm_at_k: AtomicU64,
}

impl Ctx<'_> {
    /// Opens a session: through the timing decorator when `rec` is given,
    /// otherwise with `Database::tcp_session_with_seed`.
    fn open(&self, rec: Option<&SharedRecorder>) -> Result<QuerySession, String> {
        let seed = self.opts.seed ^ self.next_session.fetch_add(1, Ordering::Relaxed) << 32;
        match rec {
            None => self
                .db
                .tcp_session_with_seed(self.front, seed)
                .map_err(|e| format!("connect: {e}")),
            Some(rec) => {
                let chan = self.front.connect().map_err(|e| format!("connect: {e}"))?;
                let id = chan.session_id();
                let link = TimedLink::new(chan, id, Arc::clone(rec));
                Ok(self.db.session_over(seed, Box::new(link)))
            }
        }
    }
}

/// Times `f` as a span of the current query when tracing.
fn timed<T>(rec: Option<&SharedRecorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    if let Some(rec) = rec {
        lock(rec).push(name, t0, Instant::now());
    }
    r
}

/// One client: warm-up, then closed-loop queries until the deadline.
/// Never returns early: every failure is recorded, so the phase barrier
/// always completes.
fn client(ctx: &Ctx, c: usize, rec: Option<&SharedRecorder>, barrier: &Barrier) -> ClientOut {
    let w = ctx.opts.workload;
    let mut out = ClientOut::default();
    let mut session: Option<QuerySession> = None;
    if !w.churn {
        // the persistent session's connect is timed outside any query
        match timed(rec, "pir.connect", || ctx.open(rec)) {
            Ok(s) => session = Some(s),
            Err(e) => out.link_errors.push(e),
        }
    }
    let mut issued = 0usize;
    let mut one_query = |out: &mut ClientOut, measured: bool| {
        let pair = ((c + issued * w.clients) % ctx.pairs.len()) as u32;
        issued += 1;
        let (s, t) = ctx.pairs[pair as usize];
        if let Some(rec) = rec {
            lock(rec).query = ctx.next_query.fetch_add(1, Ordering::Relaxed);
        }
        let t0 = Instant::now();
        let result = if w.churn {
            (|| {
                let mut sess = timed(rec, "pir.connect", || ctx.open(rec))?;
                let o = sess.query_nodes(ctx.net, s, t).map_err(|e| e.to_string())?;
                timed(rec, "pir.close", || sess.close()).map_err(|e| format!("close: {e}"))?;
                Ok(o)
            })()
        } else {
            match session.as_mut() {
                Some(sess) => sess.query_nodes(ctx.net, s, t).map_err(|e| e.to_string()),
                None => ctx.open(rec).and_then(|sess| {
                    session
                        .insert(sess)
                        .query_nodes(ctx.net, s, t)
                        .map_err(|e| e.to_string())
                }),
            }
        };
        let t1 = Instant::now();
        if let Some(rec) = rec {
            let mut r = lock(rec);
            r.push("query", t0, t1);
            r.query = 0;
        }
        if measured {
            if ctx.measured.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_QUERIES {
                let hwm = proc_status_kb("VmHWM").unwrap_or(0);
                ctx.hwm_at_k.store(hwm, Ordering::Relaxed);
            }
            out.lat_ms.push((t1 - t0).as_secs_f64() * 1e3);
            if w.churn {
                out.sessions += 1;
            }
        }
        let outcome = match result {
            Ok(o) => {
                out.meter.add(&o.meter);
                out.successes += 1;
                Some(Outcome {
                    cost: o.answer.cost,
                    trace: out.trace_index(o.trace),
                    plan_violation: o.plan_violation,
                })
            }
            Err(e) => {
                out.errors.push(e);
                session = None; // a failed link is not reused
                None
            }
        };
        out.recs.push(QueryRec { pair, outcome });
    };
    for _ in 0..WARMUP_QUERIES {
        one_query(&mut out, false);
    }
    if let Some(rec) = rec {
        // the phase's spans start after warm-up; the connect stays
        lock(rec).spans.retain(|s| s.query == 0);
    }
    barrier.wait();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.phase_seconds);
    while Instant::now() < deadline && out.lat_ms.len() < ctx.query_cap {
        one_query(&mut out, true);
    }
    out.start = Some(start);
    out.end = Some(Instant::now());
    if let Some(sess) = session.take() {
        out.sessions += 1;
        if let Err(e) = timed(rec, "pir.close", || sess.close()) {
            out.link_errors.push(format!("close: {e}"));
        }
    }
    out
}

/// A phase's merged results.
struct Phase {
    clients: Vec<ClientOut>,
    wall_s: f64,
    rss_growth_kb: f64,
    /// Peak RSS (kB) at the phase's [`RSS_AT_QUERIES`]-th measured query,
    /// or at its end if it completed fewer.
    hwm_kb: f64,
    spans: Vec<Span>,
    kinds: Vec<RoundKind>,
    /// The decorator's per-session call counts (traced phase only).
    counts: BTreeMap<u64, LinkCounts>,
}

impl Phase {
    fn lat_ms(&self) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| c.lat_ms.iter().copied())
            .collect()
    }

    fn sessions(&self) -> u64 {
        self.clients.iter().map(|c| c.sessions).sum()
    }
}

fn run_phase(ctx: &Ctx, traced: bool) -> Result<Phase, String> {
    let clients = ctx.opts.workload.clients;
    let barrier = Barrier::new(clients + 1);
    let recorders: Vec<Option<SharedRecorder>> = (0..clients)
        .map(|_| traced.then(|| Recorder::shared(ctx.epoch)))
        .collect();
    let (outs, rss_before, rss_after, hwm) = std::thread::scope(|s| {
        let handles: Vec<_> = recorders
            .iter()
            .enumerate()
            .map(|(c, rec)| {
                let barrier = &barrier;
                s.spawn(move || client(ctx, c, rec.as_ref(), barrier))
            })
            .collect();
        barrier.wait();
        let rss_before = proc_status_kb("VmRSS").unwrap_or(0) as f64;
        let outs: Vec<Result<ClientOut, String>> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect();
        let rss_after = proc_status_kb("VmRSS").unwrap_or(0) as f64;
        let hwm = match ctx.hwm_at_k.swap(0, Ordering::Relaxed) {
            0 => proc_status_kb("VmHWM").unwrap_or(0),
            at_k => at_k,
        } as f64;
        ctx.measured.store(0, Ordering::Relaxed);
        (outs, rss_before, rss_after, hwm)
    });
    let clients_out = outs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let start = clients_out.iter().filter_map(|c| c.start).min();
    let end = clients_out.iter().filter_map(|c| c.end).max();
    let wall_s = match (start, end) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => f64::NAN,
    };
    // merge span logs, renumbering each client's round kinds
    let mut spans = Vec::new();
    let mut kinds: Vec<RoundKind> = Vec::new();
    let mut counts = BTreeMap::new();
    for rec in recorders.iter().flatten() {
        let mut r = lock(rec);
        counts.append(&mut r.counts);
        let map: Vec<u32> = r
            .kinds
            .iter()
            .map(|k| match kinds.iter().position(|g| g == k) {
                Some(i) => i as u32,
                None => {
                    kinds.push(k.clone());
                    (kinds.len() - 1) as u32
                }
            })
            .collect();
        for mut s in r.spans.drain(..) {
            if s.name == "pir.round" {
                s.kind = map[s.kind as usize];
            }
            spans.push(s);
        }
    }
    let phase = Phase {
        rss_growth_kb: rss_after - rss_before,
        hwm_kb: hwm,
        wall_s,
        spans,
        kinds,
        counts,
        clients: clients_out,
    };
    Ok(phase)
}

/// Failure counts of the checked queries.
#[derive(Debug, Default)]
struct Checked {
    attempted: u64,
    failed: u64,
    errors: u64,
    wrong: u64,
    violations: u64,
    nonconforming: u64,
    /// Connect or close failures outside any query.
    link_errors: u64,
    /// Correct measured queries per phase (for throughput).
    measured_ok: Vec<u64>,
}

/// Checks every query of every phase against the plaintext oracle and the
/// published plan. Runs after the timed loops.
fn check(ctx: &Ctx, phases: &[&Phase], notes: &mut Vec<String>) -> Checked {
    let used: BTreeSet<u32> = phases
        .iter()
        .flat_map(|p| p.clients.iter())
        .flat_map(|c| c.recs.iter().map(|r| r.pair))
        .collect();
    let expected: BTreeMap<u32, Dist> = used
        .into_iter()
        .map(|i| {
            let (s, t) = ctx.pairs[i as usize];
            (i, distance(ctx.net, s, t))
        })
        .collect();
    let plan = ctx.db.plan();
    let file_of = |pf: PlanFile| ctx.db.file_of(pf).unwrap_or(FileId(u16::MAX));
    let mut k = Checked::default();
    for phase in phases {
        let mut ok_measured = 0u64;
        for c in &phase.clients {
            let conforming: Vec<bool> = c
                .traces
                .iter()
                .enumerate()
                .map(
                    |(i, t)| match check_plan_conformance(i, t, plan, &file_of) {
                        Ok(()) => true,
                        Err(e) => {
                            notes.push(format!("FAIL nonconforming trace: {e}"));
                            false
                        }
                    },
                )
                .collect();
            let warmup = c.recs.len() - c.lat_ms.len();
            for (i, r) in c.recs.iter().enumerate() {
                k.attempted += 1;
                let bad = match r.outcome {
                    None => {
                        k.errors += 1;
                        true
                    }
                    Some(o) => {
                        let want = expected[&r.pair];
                        let right = match o.cost {
                            Some(got) => got == want && want != INFINITY,
                            None => want == INFINITY,
                        };
                        k.wrong += u64::from(!right);
                        k.violations += u64::from(o.plan_violation);
                        let conf = conforming[o.trace as usize];
                        k.nonconforming += u64::from(!conf);
                        !right || o.plan_violation || !conf
                    }
                };
                k.failed += u64::from(bad);
                if i >= warmup && !bad {
                    ok_measured += 1;
                }
            }
            for e in c.errors.iter().take(3) {
                notes.push(format!("FAIL query error: {e}"));
            }
            for e in &c.link_errors {
                notes.push(format!("FAIL session error: {e}"));
            }
            k.link_errors += c.link_errors.len() as u64;
        }
        k.measured_ok.push(ok_measured);
    }
    k
}

/// Formats a per-file page summary: `Fh=1 Fl=7 ...`.
fn file_summary(db: &Database) -> String {
    let server = db.server();
    (0..server.num_files())
        .map(|i| {
            let f = FileId(i as u16);
            format!(
                "{}={}",
                server.file_name(f).unwrap_or("?"),
                server.file_pages(f).unwrap_or(0)
            )
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload and returns its report.
pub fn run(opts: &Options) -> Result<Report, String> {
    let w = opts.workload;
    if opts.nodes < 2 || opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("seconds must be positive and nodes at least 2".into());
    }
    let mut notes = Vec::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let net = road_like(&RoadGenConfig {
        nodes: opts.nodes,
        seed: opts.net_seed,
        ..RoadGenConfig::default()
    });
    let pairs = query_pairs(net.num_nodes(), POOL, opts.seed);
    notes.push(format!(
        "workload {} ({}): scheme {}, {} client(s), {} session per query; nproc {nproc}",
        w.name,
        w.why,
        w.kind.name(),
        w.clients,
        if w.churn { "a fresh" } else { "no fresh" },
    ));
    notes.push(format!(
        "inputs: net seed {} -> {} nodes, {} arcs; query seed {} -> {} pairs",
        opts.net_seed,
        net.num_nodes(),
        net.num_arcs(),
        opts.seed,
        pairs.len()
    ));

    // every churn session holds a socket and two thread stacks until the
    // front shuts down: stop the run before the host's limits would
    let phases = if opts.trace { 2 } else { 1 };
    let mut query_cap = opts.max_queries.unwrap_or(usize::MAX);
    if w.churn {
        let limits = HostLimits::read();
        let sessions = limits.session_budget(CHURN_SESSIONS);
        let per_client = (sessions / (phases * w.clients)).saturating_sub(WARMUP_QUERIES);
        if per_client < 10 {
            return Err(format!(
                "host limits ({limits}) leave room for {sessions} sessions, \
                 too few for {phases} phase(s) of {} clients",
                w.clients
            ));
        }
        query_cap = query_cap.min(per_client);
        notes.push(format!(
            "host limits: {limits}; this run opens at most {sessions} sessions \
             ({per_client} measured per client per phase)"
        ));
    }

    let dir = opts.out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let scratch = ScratchDir(dir);

    // set-up, several times; the last one serves
    let mut times: Vec<SetupTimes> = Vec::new();
    let mut served: Option<(Arc<Database>, TcpFront)> = None;
    for i in 0..SETUPS {
        if let Some((db, front)) = served.take() {
            drop(front.shutdown());
            drop(db);
            // each build starts from a clean heap, so set-up peaks repeat
            stats::release_free_heap();
        }
        let path = scratch.0.join(format!("setup-{i}.snap"));
        let (db, front, t) = setup(&net, w.kind, &path)?;
        times.push(t);
        served = Some((db, front));
    }
    let (db, front) = served.expect("at least one set-up");
    notes.push(format!(
        "set-up ran {SETUPS} times; setup_s is their median"
    ));
    let plan_files = guard(&db)?;
    let setup_med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    notes.push(format!(
        "database: {} bytes; pages {}; plan {} rounds, {} fetches; all plan files LinearScan over ChecksumFile(MmapFile)",
        db.db_bytes(),
        file_summary(&db),
        db.plan().num_rounds(),
        db.plan().total_fetches()
    ));
    // set-up garbage goes back to the kernel: serving starts from what it holds
    stats::release_free_heap();

    // a session that only connects and closes: its reply bytes are the
    // per-session overhead that persistent sessions amortize
    let probe_id = {
        let mut chan = front.connect().map_err(|e| format!("probe connect: {e}"))?;
        let id = chan.session_id();
        chan.close().map_err(|e| format!("probe close: {e}"))?;
        id
    };

    let ctx = Ctx {
        opts,
        net: &net,
        db: &db,
        front: &front,
        pairs: &pairs,
        next_query: AtomicU64::new(1),
        next_session: AtomicU64::new(1),
        epoch: Instant::now(),
        phase_seconds: if opts.trace {
            opts.seconds / 2.0
        } else {
            opts.seconds
        },
        query_cap,
        measured: AtomicU64::new(0),
        hwm_at_k: AtomicU64::new(0),
    };
    let ticks_before = stats::cpu_ticks();
    let plain = run_phase(&ctx, false)?;
    if let (Some((t0, s0)), Some((t1, s1))) = (ticks_before, stats::cpu_ticks()) {
        notes.push(format!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the untraced phase",
            (s1 - s0) as f64 * 100.0 / (t1 - t0).max(1) as f64
        ));
    }
    let traced = if opts.trace {
        Some(run_phase(&ctx, true)?)
    } else {
        None
    };

    // checks, outside every timed loop
    let mut phases = vec![&plain];
    phases.extend(traced.as_ref());
    let checked = check(&ctx, &phases, &mut notes);
    let fail_ratio = checked.failed as f64 / checked.attempted as f64;
    let mut correct = checked.failed == 0 && checked.link_errors == 0;
    notes.push(format!(
        "checked {} queries: {} failed (errors {}, wrong answers {}, plan violations {}, \
         nonconforming traces {})",
        checked.attempted,
        checked.failed,
        checked.errors,
        checked.wrong,
        checked.violations,
        checked.nonconforming
    ));

    let session_stats = front.session_stats();
    let probe_bytes = session_stats.get(&probe_id).map_or(0, |s| s.bytes_out);
    let mut bytes_out = 0u64;
    let mut front_queries = 0u64;
    for (id, s) in &session_stats {
        if *id == probe_id {
            continue;
        }
        bytes_out += if w.churn {
            s.bytes_out
        } else {
            s.bytes_out.saturating_sub(probe_bytes)
        };
        front_queries += s.queries;
    }
    let bytes_per_query = bytes_out as f64 / front_queries as f64;
    if let Some(traced) = &traced {
        // the decorator's counts against the front's: a Transport call the
        // decorator missed (or the front miscounted) shows here
        let mut differ = 0usize;
        for (id, c) in &traced.counts {
            let front_counts = session_stats
                .get(id)
                .map(|s| [s.queries, s.rounds, s.fetches, s.downloads]);
            if front_counts != Some(c.totals()) {
                differ += 1;
                notes.push(format!(
                    "FAIL session {id}: decorator counted {:?}, front {front_counts:?}",
                    c.totals()
                ));
            }
        }
        notes.push(format!(
            "check decorator queries/rounds/fetches/downloads = front SessionStats, \
             {} traced sessions: {}",
            traced.counts.len(),
            if differ == 0 { "ok" } else { "FAIL" }
        ));
        if differ > 0 || traced.counts.is_empty() {
            correct = false;
        }
    }

    // end-to-end, from the untraced phase
    let lat = plain.lat_ms();
    let p50 = median(&lat);
    let p99 = percentile(&lat, 99.0);
    let beyond = samples_beyond(&lat, 99.0);
    notes.push(format!(
        "untraced phase: {} measured queries in {:.3} s; p99 rests on {beyond} samples beyond it{}",
        lat.len(),
        plain.wall_s,
        if beyond >= 10 {
            ""
        } else {
            " (fewer than 10: p99 is not resolved)"
        }
    ));
    notes.push(if lat.len() as u64 >= RSS_AT_QUERIES {
        format!("rss_peak_mb: VmHWM at measured query {RSS_AT_QUERIES}, set-up included")
    } else {
        format!("rss_peak_mb: VmHWM at the end of the phase (fewer than {RSS_AT_QUERIES} queries)")
    });
    let setup_s = setup_med(|t| t.total_s);
    let end_to_end = vec![
        Metric::new("query_p50_ms", "ms", p50),
        Metric::new(
            "throughput_qps",
            "queries/s",
            checked.measured_ok[0] as f64 / plain.wall_s,
        ),
        Metric::new("ok_ratio", "ratio", 1.0 - fail_ratio),
        Metric::new("bytes_per_query", "B", bytes_per_query),
        Metric::new("setup_s", "s", setup_s),
        Metric::new("rss_peak_mb", "MB", plain.hwm_kb / 1024.0),
    ];

    // model, from the untraced phase's meters
    let mut meter = Meter::new();
    let mut ok = 0u64;
    for c in &plain.clients {
        meter.add(&c.meter);
        ok += c.successes;
    }
    let model = meter.scale_down(ok.max(1));
    let modeled = [
        Metric::new("model.pir_s", "modeled_s", model.pir.total_s()),
        Metric::new("model.comm_s", "modeled_s", model.comm_s),
        Metric::new("model.response_s", "modeled_s", model.response_time_s()),
    ];

    let mut per_layer = Vec::new();
    if let Some(traced) = &traced {
        let layer = layer_metrics(&ctx, traced, &plan_files, &mut notes, &mut correct)?;
        let traced_p50 = median(&traced.lat_ms());
        per_layer.extend([
            Metric::new("query.p99_ms", "ms", p99),
            Metric::new("core.client_ms", "ms", layer.client_ms),
        ]);
        per_layer.extend([
            Metric::new("core.build_s", "s", setup_med(|t| t.build_s)),
            Metric::new("core.persist_s", "s", setup_med(|t| t.persist_s)),
            Metric::new("core.open_snapshot_s", "s", setup_med(|t| t.open_s)),
        ]);
        per_layer.extend(layer.metrics);
        let front_sum = |f: fn(&privpath_pir::SessionStats) -> u64| {
            session_stats.values().map(f).sum::<u64>() as f64
        };
        per_layer.extend([
            Metric::new(
                "pir.front.sessions_retained",
                "count",
                session_stats.len() as f64,
            ),
            Metric::new(
                "pir.front.retransmits",
                "count",
                front_sum(|s| s.retransmits),
            ),
            Metric::new("pir.front.malformed", "count", front_sum(|s| s.malformed)),
            Metric::new("pir.front.panics", "count", front_sum(|s| s.panics)),
            Metric::new(
                "pir.front.coalesced_rounds",
                "count",
                front_sum(|s| s.coalesced_rounds),
            ),
            Metric::new(
                "pir.front.bytes_in_per_query",
                "B",
                front_sum(|s| s.bytes_in) / front_queries as f64,
            ),
            Metric::new(
                "proc.rss_growth_kb_per_session",
                "KB",
                plain.rss_growth_kb / plain.sessions().max(1) as f64,
            ),
        ]);
        per_layer.extend(modeled.iter().cloned());
        per_layer.push(Metric::new(
            "trace.overhead_pct",
            "%",
            (traced_p50 / p50 - 1.0) * 100.0,
        ));
        let spans_path = opts
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", w.name, opts.seed));
        let mut all = traced.spans.clone();
        all.extend(layer.replay_spans);
        spans::write_jsonl(&spans_path, &all, &traced.kinds)
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        notes.push(format!(
            "traced phase: {} queries, p50 {traced_p50} ms; {} spans written to {}",
            traced.lat_ms().len(),
            all.len(),
            spans_path.display()
        ));
    }

    for m in &end_to_end {
        notes.push(format!("{} = {} {}", m.name, m.value, m.unit));
    }
    notes.push(format!(
        "query_p99_ms = {p99} ms (reported unbounded, as the per-layer query.p99_ms)"
    ));
    notes.push(format!("fail_ratio = {fail_ratio} ratio"));
    for m in &modeled {
        notes.push(format!(
            "{} = {} {} (modeled by the paper's Table 2/3 cost model, not measured)",
            m.name, m.value, m.unit
        ));
    }
    for m in per_layer.iter().filter(|m| !m.name.starts_with("model.")) {
        notes.push(format!("{} = {} {}", m.name, m.value, m.unit));
    }
    drop(front.shutdown());
    drop(db);
    drop(scratch);
    Ok(Report {
        correct,
        attempted: checked.attempted,
        failed: checked.failed,
        end_to_end,
        per_layer,
        notes,
    })
}

/// Per-layer results of the traced phase and the replays.
struct LayerMetrics {
    client_ms: f64,
    metrics: Vec<Metric>,
    replay_spans: Vec<Span>,
}

/// `rss_peak_mb` is the process's peak RSS when this many measured queries
/// have completed: set-up included, and the same number of sessions on
/// `ci-churn` however fast they run, so a speed-up does not read as a
/// memory regression.
pub const RSS_AT_QUERIES: u64 = 3000;

/// Budget per replayed operation.
const REPLAY_BUDGET: Duration = Duration::from_millis(250);

/// Sweeps over the traced rounds' scan passes.
const REPLAY_SWEEPS: usize = 3;

fn layer_metrics(
    ctx: &Ctx,
    traced: &Phase,
    plan_files: &[FileId],
    notes: &mut Vec<String>,
    correct: &mut bool,
) -> Result<LayerMetrics, String> {
    let server = ctx.db.server();
    let b = spans::breakdown(&traced.spans);
    let client_ms = mean(&b.self_ms);
    let link_ms = mean(&b.link_ms);
    let session_ms = mean(&b.session_ms);
    let wall_ms = mean(&b.wall_ms);
    let sum = client_ms + link_ms + session_ms;
    let sum_ok = b.misnested == 0 && (sum - wall_ms).abs() <= 1e-9 * wall_ms;
    notes.push(format!(
        "check core.client_ms + pir.link_ms_per_query (+ connect and close inside the \
         query) = traced query wall: {client_ms} + {link_ms} + {session_ms} vs {wall_ms} ms \
         over {} queries, {} misnested: {}",
        b.wall_ms.len(),
        b.misnested,
        if sum_ok { "ok" } else { "FAIL" }
    ));
    *correct &= sum_ok;

    let of = |name: &str| -> Vec<f64> {
        traced
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    };
    let rounds = of("pir.round");

    // replay every (file, fetches) run the traced rounds made, in
    // REPLAY_SWEEPS sweeps some time apart; the fastest sweep's median is the
    // pass alone, so a burst of host noise during one sweep does not count
    let runs: BTreeSet<(FileId, u32)> = traced.kinds.iter().flat_map(|k| k.runs.clone()).collect();
    let mut rec = Recorder::new(ctx.epoch);
    let mut pass_ms: BTreeMap<(FileId, u32), f64> = BTreeMap::new();
    for _sweep in 0..REPLAY_SWEEPS {
        for &run in &runs {
            let ms = replay::scan_pass_ms(&mut rec, server, run.0, run.1, REPLAY_BUDGET)?;
            let best = pass_ms.entry(run).or_insert(ms);
            *best = best.min(ms);
        }
    }
    // front self time: each served round minus the replayed passes of its
    // kind. Queueing behind another session's pass stays in it, and it lands
    // in the mean, not the median: on `pi-2c` the two sessions' index passes
    // alternate, so most index rounds run unqueued (their p50 is the bare
    // pass) and the wait falls on the other rounds
    let mut front_self = Vec::new();
    let mut replay_ok = true;
    for (ki, kind) in traced.kinds.iter().enumerate() {
        let durations: Vec<f64> = traced
            .spans
            .iter()
            .filter(|s| s.name == "pir.round" && s.kind as usize == ki)
            .map(Span::ms)
            .collect();
        let served = mean(&durations);
        let replayed: f64 = kind.runs.iter().map(|r| pass_ms[r]).sum();
        let ok = replayed <= served;
        replay_ok &= ok;
        notes.push(format!(
            "check replayed scan pass <= mean served round, round {} runs {:?}: {replayed} vs {served} ms \
             (served p50 {} ms): {}",
            kind.round,
            kind.runs.iter().map(|(f, n)| (f.0, *n)).collect::<Vec<_>>(),
            median(&durations),
            if ok { "ok" } else { "FAIL" }
        ));
        front_self.extend(durations.iter().map(|d| d - replayed));
    }
    *correct &= replay_ok;

    let mut metrics = vec![
        Metric::new("pir.round_ms", "ms", median(&rounds)),
        Metric::new("pir.link_ms_per_query", "ms", link_ms),
        Metric::new("pir.rounds_per_query", "count", mean(&b.rounds)),
        Metric::new("pir.fetches_per_query", "count", mean(&b.fetches)),
        Metric::new("pir.connect_ms", "ms", median(&of("pir.connect"))),
        Metric::new("pir.close_ms", "ms", median(&of("pir.close"))),
        Metric::new("pir.front_self_ms_per_round", "ms", mean(&front_self)),
    ];

    // one pass per plan file, with the fetch count its rounds used
    let mut scan_total_ms = 0.0;
    let mut scan_bytes = 0u64;
    for &f in plan_files {
        let name = server.file_name(f).map_err(|e| e.to_string())?;
        let ms = match pass_ms.iter().find(|((g, _), _)| *g == f) {
            Some((_, &ms)) => ms,
            None => {
                return Err(format!(
                    "plan file {name} was never fetched in the traced phase"
                ))
            }
        };
        scan_total_ms += ms;
        scan_bytes += server
            .file_driver(f)
            .map_err(|e| e.to_string())?
            .size_bytes();
        metrics.push(Metric::new(format!("pir.scan_pass_ms.{name}"), "ms", ms));
    }
    metrics.push(Metric::new(
        "pir.scan_gbps",
        "GB/s",
        scan_bytes as f64 / (scan_total_ms / 1e3) / 1e9,
    ));

    let drivers = plan_files
        .iter()
        .map(|&f| server.file_driver(f).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let read_verify = replay::read_verify_ms(&mut rec, &drivers, REPLAY_BUDGET)?;
    let crc = replay::crc_ms(&mut rec, &drivers, REPLAY_BUDGET)?;
    metrics.extend([
        Metric::new("storage.read_verify_ms", "ms", read_verify),
        Metric::new("storage.crc_ms", "ms", crc),
        Metric::new("storage.crc_share", "ratio", crc / scan_total_ms),
    ]);
    Ok(LayerMetrics {
        client_ms,
        metrics,
        replay_spans: rec.spans,
    })
}
