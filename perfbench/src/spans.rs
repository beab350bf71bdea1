//! Spans recorded from outside the library.
//!
//! [`TimedLink`] is a [`Transport`] decorator: a traced session is opened
//! with `Database::session_over(seed, Box::new(TimedLink::new(channel, rec)))`,
//! so every `begin_query`, `serve_round` and `download` the session makes
//! is timed at the client/server boundary without a line of library code
//! changing. Spans go into a per-client [`Recorder`] held in memory and are
//! written out when the run ends. The decorator also counts, per session,
//! the queries, rounds, fetches and downloads it passed on ([`LinkCounts`]),
//! so a run can hold them against the front's own `SessionStats`.
//!
//! The span tree: the root `query` (one id per query), with children
//! `pir.begin`, `pir.round` (round number, files, fetch count),
//! `pir.download`, and on a fresh-session-per-query workload `pir.connect`
//! and `pir.close`. Link time is `pir.begin` + `pir.round` +
//! `pir.download`; connect and close are reported on their own. The replay
//! spans (`pir.scan_pass`,
//! `storage.read_verify`, `storage.crc`) have query id 0: they sit outside
//! every query.

use privpath_pir::{FileId, SystemSpec, Transport};
use privpath_storage::PageBuf;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Query id; 0 for spans outside any query.
    pub query: u64,
    /// Span name (`query`, `pir.round`, ...).
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Protocol round number (`pir.round` only).
    pub round: u32,
    /// Index into [`Recorder::kinds`] (`pir.round` only).
    pub kind: u32,
    /// Pages requested (`pir.round` only).
    pub fetches: u32,
    /// Free-form label: the file name of a replay span.
    pub label: String,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The shape of one `serve_round` exchange: its round number and its
/// requests as runs of consecutive same-file fetches, `(file, count)`. The
/// server serves each run with one linear-scan pass, so this is also what a
/// replay has to reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundKind {
    /// Protocol round number.
    pub round: u32,
    /// `(file, fetches)` runs in request order.
    pub runs: Vec<(FileId, u32)>,
}

/// What one session's decorator passed on successfully, counted the way
/// the front's `SessionStats` counts it: the query open is round 1, and a
/// round request adds a round when its number advances by one.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkCounts {
    /// `begin_query` calls.
    pub queries: u64,
    /// Protocol rounds.
    pub rounds: u64,
    /// Pages requested by `serve_round` calls.
    pub fetches: u64,
    /// `download` calls.
    pub downloads: u64,
    last_round: u32,
}

impl LinkCounts {
    /// `[queries, rounds, fetches, downloads]`.
    pub fn totals(&self) -> [u64; 4] {
        [self.queries, self.rounds, self.fetches, self.downloads]
    }
}

/// A client thread's span log.
pub struct Recorder {
    epoch: Instant,
    /// Query id the next child span belongs to (0 outside queries).
    pub query: u64,
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
    /// Distinct round shapes seen, indexed by [`Span::kind`].
    pub kinds: Vec<RoundKind>,
    /// Per-session call counts, keyed by the session id the front assigned.
    /// Never cleared: warm-up queries count, as they do at the front.
    pub counts: BTreeMap<u64, LinkCounts>,
}

/// A recorder shared between one client thread and the decorators of its
/// sessions. Only that thread ever locks it, so the lock is uncontended.
pub type SharedRecorder = Arc<Mutex<Recorder>>;

impl Recorder {
    /// An empty log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            query: 0,
            spans: Vec::new(),
            kinds: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// An empty shared log.
    pub fn shared(epoch: Instant) -> SharedRecorder {
        Arc::new(Mutex::new(Recorder::new(epoch)))
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span of the current query.
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            query: self.query,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            round: 0,
            kind: 0,
            fetches: 0,
            label: String::new(),
        };
        self.spans.push(span);
    }

    /// Records a span outside any query, labelled (replay spans).
    pub fn push_labelled(&mut self, name: &'static str, label: &str, start: Instant, end: Instant) {
        self.query = 0;
        self.push(name, start, end);
        self.spans.last_mut().expect("span just pushed").label = label.to_string();
    }

    fn kind_of(&mut self, round: u32, requests: &[(FileId, u32)]) -> u32 {
        let mut runs: Vec<(FileId, u32)> = Vec::new();
        for &(f, _) in requests {
            match runs.last_mut() {
                Some((last, n)) if *last == f => *n += 1,
                _ => runs.push((f, 1)),
            }
        }
        let kind = RoundKind { round, runs };
        match self.kinds.iter().position(|k| *k == kind) {
            Some(i) => i as u32,
            None => {
                self.kinds.push(kind);
                (self.kinds.len() - 1) as u32
            }
        }
    }
}

/// Locks a recorder. A poisoned lock means a client thread panicked while
/// recording, which already fails the run; the log is still readable.
pub fn lock(rec: &SharedRecorder) -> MutexGuard<'_, Recorder> {
    rec.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The timing [`Transport`] decorator. See the module docs.
pub struct TimedLink<T> {
    inner: T,
    session: u64,
    rec: SharedRecorder,
}

impl<T: Transport> TimedLink<T> {
    /// Wraps `inner`, the link of front session `session`, recording into
    /// `rec`.
    pub fn new(inner: T, session: u64, rec: SharedRecorder) -> Self {
        lock(&rec).counts.entry(session).or_default();
        TimedLink {
            inner,
            session,
            rec,
        }
    }
}

impl<T: Transport> Transport for TimedLink<T> {
    fn spec(&self) -> &SystemSpec {
        self.inner.spec()
    }

    fn file_pages(&self, f: FileId) -> privpath_pir::Result<u32> {
        self.inner.file_pages(f)
    }

    fn begin_query(&mut self) -> privpath_pir::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.begin_query();
        let mut rec = lock(&self.rec);
        rec.push("pir.begin", t0, Instant::now());
        if r.is_ok() {
            let c = rec.counts.entry(self.session).or_default();
            c.queries += 1;
            c.rounds += 1;
            c.last_round = 1;
        }
        r
    }

    fn serve_round(
        &mut self,
        round: u32,
        requests: &[(FileId, u32)],
        out: &mut [PageBuf],
    ) -> privpath_pir::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.serve_round(round, requests, out);
        let t1 = Instant::now();
        let mut rec = lock(&self.rec);
        let kind = rec.kind_of(round, requests);
        rec.push("pir.round", t0, t1);
        let span = rec.spans.last_mut().expect("span just pushed");
        span.round = round;
        span.kind = kind;
        span.fetches = requests.len() as u32;
        if r.is_ok() {
            let c = rec.counts.entry(self.session).or_default();
            c.fetches += requests.len() as u64;
            c.rounds += u64::from(round == c.last_round + 1);
            c.last_round = round;
        }
        r
    }

    fn download(&mut self, f: FileId) -> privpath_pir::Result<Vec<u8>> {
        let t0 = Instant::now();
        let r = self.inner.download(f);
        let mut rec = lock(&self.rec);
        rec.push("pir.download", t0, Instant::now());
        if r.is_ok() {
            rec.counts.entry(self.session).or_default().downloads += 1;
        }
        r
    }

    /// Not timed here: the client loop times `QuerySession::close` as
    /// `pir.close`, which includes this call.
    fn close(&mut self) -> privpath_pir::Result<()> {
        self.inner.close()
    }

    fn retries(&self) -> u64 {
        self.inner.retries()
    }
}

/// Per-query breakdown of a traced phase.
#[derive(Debug, Default)]
pub struct QueryBreakdown {
    /// Root `query` span wall times, ms.
    pub wall_ms: Vec<f64>,
    /// Query self time (wall minus child spans), ms.
    pub self_ms: Vec<f64>,
    /// Sum of the `pir.begin`, `pir.round` and `pir.download` children per
    /// query, ms.
    pub link_ms: Vec<f64>,
    /// Sum of the `pir.connect` and `pir.close` children per query, ms
    /// (zero unless each query opens its own session).
    pub session_ms: Vec<f64>,
    /// `pir.round` spans per query.
    pub rounds: Vec<f64>,
    /// Pages requested per query.
    pub fetches: Vec<f64>,
    /// Queries whose children overlap each other or leave the root span.
    pub misnested: usize,
}

/// Splits every `query` root into self time, link time and session set-up
/// and teardown time. Children must
/// lie inside their root and must not overlap one another; a query that
/// breaks either rule is counted in [`QueryBreakdown::misnested`].
pub fn breakdown(spans: &[Span]) -> QueryBreakdown {
    let mut by_query: std::collections::BTreeMap<u64, (Option<&Span>, Vec<&Span>)> =
        Default::default();
    for s in spans.iter().filter(|s| s.query != 0) {
        let entry = by_query.entry(s.query).or_default();
        if s.name == "query" {
            entry.0 = Some(s);
        } else {
            entry.1.push(s);
        }
    }
    let mut out = QueryBreakdown::default();
    for (root, mut children) in by_query.into_values() {
        let Some(root) = root else {
            out.misnested += 1;
            continue;
        };
        children.sort_by_key(|c| c.start_ns);
        let mut ok = true;
        let mut cursor = root.start_ns;
        let (mut link_ns, mut session_ns) = (0u64, 0u64);
        for c in &children {
            ok &= c.start_ns >= cursor && c.end_ns <= root.end_ns;
            cursor = c.end_ns;
            match c.name {
                "pir.connect" | "pir.close" => session_ns += c.end_ns - c.start_ns,
                _ => link_ns += c.end_ns - c.start_ns,
            }
        }
        if !ok {
            out.misnested += 1;
        }
        let wall_ns = root.end_ns - root.start_ns;
        out.wall_ms.push(wall_ns as f64 / 1e6);
        out.link_ms.push(link_ns as f64 / 1e6);
        out.session_ms.push(session_ns as f64 / 1e6);
        out.self_ms
            .push(wall_ns.saturating_sub(link_ns + session_ns) as f64 / 1e6);
        let rounds = children.iter().filter(|c| c.name == "pir.round");
        out.rounds.push(rounds.clone().count() as f64);
        out.fetches
            .push(rounds.map(|c| f64::from(c.fetches)).sum::<f64>());
    }
    out
}

/// Writes spans as JSON lines to `path`.
pub fn write_jsonl(
    path: &std::path::Path,
    spans: &[Span],
    kinds: &[RoundKind],
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let files: Vec<String> = if s.name == "pir.round" {
            kinds[s.kind as usize]
                .runs
                .iter()
                .map(|(f, _)| f.0.to_string())
                .collect()
        } else {
            Vec::new()
        };
        writeln!(
            w,
            "{{\"query\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"round\": {}, \"files\": [{}], \"fetches\": {}, \"label\": \"{}\"}}",
            s.query,
            s.name,
            s.start_ns,
            s.end_ns,
            s.round,
            files.join(", "),
            s.fetches,
            s.label
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(query: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            query,
            name,
            start_ns,
            end_ns,
            round: 0,
            kind: 0,
            fetches: 2,
            label: String::new(),
        }
    }

    #[test]
    fn self_time_plus_children_is_wall() {
        let spans = vec![
            span(1, "pir.connect", 0, 5),
            span(1, "pir.begin", 10, 20),
            span(1, "pir.round", 30, 60),
            span(1, "pir.close", 90, 98),
            span(1, "query", 0, 100),
            span(0, "pir.scan_pass", 0, 1_000),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.misnested, 0);
        assert_eq!(b.wall_ms, vec![100e-6]);
        assert_eq!(b.link_ms, vec![40e-6]);
        assert_eq!(b.session_ms, vec![13e-6]);
        assert_eq!(b.self_ms, vec![47e-6]);
        assert_eq!(b.rounds, vec![1.0]);
        assert_eq!(b.fetches, vec![2.0]);
    }

    #[test]
    fn overlapping_or_escaping_children_are_flagged() {
        let overlap = vec![
            span(1, "query", 0, 100),
            span(1, "pir.round", 10, 50),
            span(1, "pir.round", 40, 60),
        ];
        assert_eq!(breakdown(&overlap).misnested, 1);
        let escape = vec![span(2, "query", 0, 100), span(2, "pir.round", 90, 110)];
        assert_eq!(breakdown(&escape).misnested, 1);
    }

    #[test]
    fn round_kinds_group_consecutive_files() {
        let mut rec = Recorder::new(Instant::now());
        let a = rec.kind_of(2, &[(FileId(1), 0), (FileId(1), 4), (FileId(2), 0)]);
        let b = rec.kind_of(2, &[(FileId(1), 9), (FileId(1), 3), (FileId(2), 1)]);
        assert_eq!(a, b);
        assert_eq!(rec.kinds[0].runs, vec![(FileId(1), 2), (FileId(2), 1)]);
        assert_ne!(rec.kind_of(3, &[(FileId(1), 0)]), a);
    }
}
