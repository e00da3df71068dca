//! broker-nitf: the `pxf broker` CLI runs as its own process on
//! localhost; this client drives it open-loop with two threads and two
//! connections.
//!
//! * The subscriber connection holds the sentinel `/*` (id 0), the
//!   resident NITF set (ids 1..=R, in order) and the SUB/UNSUB churn. Its
//!   reader thread checks every `MATCH` line: strictly ascending sequence
//!   numbers, the sentinel present (so a lost document shows as a missing
//!   line) and the resident ids equal to the in-process engine's set.
//! * The publisher connection carries `DOC` frames and `STATS` polls. The
//!   main thread sends every frame at its due time and, while waiting for
//!   the next one, reads `+DOC` and `+STATS` replies with a timed read.
//!
//! Every latency runs from the event's *due* time, so a client that falls
//! behind its schedule shows as `client.gen_lag_ms_p99`, not as a faster
//! broker.

use crate::engine::{self, SetupTiming, Traced};
use crate::gen;
use crate::host;
use crate::report::Outcome;
use crate::stats::{median, ns, quantile};
use pxf_broker::{BrokerStatsSnapshot, Reply};
use pxf_core::{FilterEngine, MatchScratch};
use pxf_xml::ParserLimits;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered load at which delivery latency is reported, well below
/// capacity. (At 400/s the median latency flipped between 0.3 and 3 ms
/// from one second to the next on a shared 2-vCPU host.)
const REFERENCE_RATE: f64 = 200.0;
/// Rounds of the phases per run, and the shares of each round spent in
/// the reference and churn phases; the rest overloads. Reference and
/// overload run twice a round, each time for half their share.
const CYCLES: usize = 3;
const REFERENCE_SHARE: f64 = 0.6;
const CHURN_SHARE: f64 = 0.1;
/// The reference sample is sent in this many slices, one per reference
/// phase in turn, so each of the six phases repeats its slice twice.
const REFERENCE_SLICES: usize = 3;
/// Offered rate of the overload phase, far above the broker's capacity.
const OVERLOAD_RATE: f64 = 20_000.0;
/// Start of the overload phase left out of the capacity window.
const OVERLOAD_WARMUP: Duration = Duration::from_millis(200);
/// Churn operations (SUB or UNSUB) per second in the churn phase.
const CHURN_OPS_PER_S: f64 = 100.0;
/// Churn subscriptions alive at once once the churn has warmed up.
const CHURN_LIVE: usize = 32;
const STATS_EVERY: Duration = Duration::from_millis(250);
/// Seed of the fixed order of cost ranks in which reference documents are
/// sent (see `cost_sample`).
const RANK_ORDER_SEED: u64 = 1;
/// Documents per block of an overload phase over which capacity is timed.
const CAPACITY_BLOCK: usize = 250;
/// Longest wait for what a phase owes (every MATCH and churn reply) before
/// the next phase or set-up starts; a phase that has not drained by then
/// counts as a failure.
const DRAIN_WAIT: Duration = Duration::from_secs(10);
/// Longest wait for anything the broker owes at the end of the run.
const FINAL_WAIT: Duration = Duration::from_secs(20);

/// The broker child process. Dropping it kills the process if it is
/// still running and waits for it.
struct BrokerProc {
    child: Child,
    stderr: BufReader<ChildStderr>,
    addr: String,
}

impl BrokerProc {
    fn spawn(pxf: &str) -> Result<BrokerProc, String> {
        let mut child = Command::new(pxf)
            .args(["broker", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {pxf}: {e}"))?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut proc = BrokerProc {
            child,
            stderr,
            addr: String::new(),
        };
        let mut line = String::new();
        proc.stderr
            .read_line(&mut line)
            .map_err(|e| format!("broker stderr: {e}"))?;
        proc.addr = line
            .trim()
            .strip_prefix("pxf broker listening on ")
            .ok_or_else(|| format!("unexpected broker banner {line:?}"))?
            .to_string();
        Ok(proc)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the process to exit after a `SHUTDOWN`; returns the rest
    /// of its standard error.
    fn wait_exit(&mut self) -> Result<String, String> {
        let deadline = Instant::now() + FINAL_WAIT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stderr.read_to_string(&mut rest);
                    return if status.success() {
                        Ok(rest)
                    } else {
                        Err(format!("broker exited with {status}: {rest}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("broker did not exit after SHUTDOWN".to_string()),
                Err(e) => return Err(format!("waiting for the broker: {e}")),
            }
        }
    }
}

impl Drop for BrokerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    sock.set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Ok(sock)
}

fn clone(sock: &TcpStream) -> Result<TcpStream, String> {
    sock.try_clone().map_err(|e| format!("socket clone: {e}"))
}

/// What the subscriber connection's reader shares with the main thread
/// while the run is in progress.
struct Inbox {
    /// Resident `+SUB` replies so far (set-up progress).
    setup_acks: AtomicU64,
    last_setup_ack: Mutex<Option<Instant>>,
    /// `MATCH` receipt time per document stream index.
    matched: Mutex<Vec<Option<Instant>>>,
    matched_count: AtomicU64,
    /// `+SUB` / `+UNSUB` receipt time per churn expression.
    churn_acks: Mutex<Vec<[Option<Instant>; 2]>>,
    churn_acked: AtomicU64,
}

/// What the reader found wrong, and what it counted, by the end.
#[derive(Default)]
struct ReaderLog {
    fifo_violations: u64,
    failures: Outcome,
    /// `(stream index, pool index, MATCH line bytes)` per document, as
    /// the MATCH line's tag gives them.
    match_bytes: Vec<(usize, usize, usize)>,
}

impl ReaderLog {
    fn fail(&mut self, why: String) {
        self.failures.fail(|| why);
    }
}

/// The in-process engine's answer for each stream document: FNV of the
/// ascending resident ids, and their count.
struct Expected {
    resident: u32,
    sets: Vec<(u64, usize)>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One id folded into an FNV-1a hash over little-endian id bytes.
fn fnv_id(mut h: u64, id: u32) -> u64 {
    for b in id.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over the little-endian bytes of ascending ids, and their count.
fn id_hash(ids: impl Iterator<Item = u32>) -> (u64, usize) {
    ids.fold((FNV_OFFSET, 0), |(h, n), id| (fnv_id(h, id), n + 1))
}

/// A decimal id: digits only, at most `u32::MAX`.
fn parse_id(tok: &[u8]) -> Option<u32> {
    if tok.is_empty() || tok.len() > 10 {
        return None;
    }
    let mut v: u64 = 0;
    for &b in tok {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v * 10 + u64::from(b - b'0');
    }
    u32::try_from(v).ok()
}

/// A `MATCH` line checked in one pass over its bytes, without collecting
/// its ids: sequence number, tag, whether the sentinel (id 0) came first,
/// and the hash of the ids in `resident`. `None` when the line is
/// malformed. (A MATCH line carries tens of kilobytes of ids; the client
/// scans them on the cores the broker matches on.)
fn scan_match(
    line: &[u8],
    resident: std::ops::RangeInclusive<u32>,
) -> Option<(u64, &str, bool, (u64, usize))> {
    let mut head = line.trim_ascii_end().splitn(5, |&b| b == b' ');
    if head.next()? != b"MATCH" {
        return None;
    }
    fn text(t: &[u8]) -> Option<&str> {
        std::str::from_utf8(t).ok()
    }
    let seq = text(head.next()?)?.parse().ok()?;
    let tag = text(head.next()?)?;
    let n: usize = text(head.next()?)?.parse().ok()?;
    let ids = head.next().unwrap_or_default();
    let (mut h, mut kept, mut total, mut first) = (FNV_OFFSET, 0, 0, None);
    if !ids.is_empty() {
        for tok in ids.split(|&b| b == b' ') {
            let id = parse_id(tok)?;
            first.get_or_insert(id);
            total += 1;
            if resident.contains(&id) {
                h = fnv_id(h, id);
                kept += 1;
            }
        }
    }
    (total == n).then_some((seq, tag, first == Some(0), (h, kept)))
}

/// A document's tag, `d<stream index>.<pool index>`, and back.
fn doc_tag(k: usize, j: usize) -> String {
    format!("d{k}.{j}")
}

fn doc_index(tag: &str) -> Option<(usize, usize)> {
    let (k, j) = tag.strip_prefix('d')?.split_once('.')?;
    Some((k.parse().ok()?, j.parse().ok()?))
}

/// The subscriber connection's reader thread: reads every line until the
/// broker closes the connection.
fn read_subscriber(sock: TcpStream, inbox: Arc<Inbox>, expected: Arc<Expected>) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut input = BufReader::with_capacity(1 << 18, sock);
    let mut raw = Vec::with_capacity(1 << 16);
    let mut last_seq: Option<u64> = None;
    let churn_base = expected.resident + 1;
    loop {
        raw.clear();
        match input.read_until(b'\n', &mut raw) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let now = Instant::now();
        if raw.starts_with(b"MATCH ") {
            let Some((seq, tag, sentinel, got)) = scan_match(&raw, 1..=expected.resident) else {
                log.fail(format!(
                    "malformed MATCH line {:?}",
                    String::from_utf8_lossy(&raw[..raw.len().min(80)])
                ));
                continue;
            };
            if last_seq.is_some_and(|last| seq <= last) {
                log.fifo_violations += 1;
                log.fail(format!("MATCH seq {seq} after {last_seq:?}"));
            }
            last_seq = Some(seq);
            let Some((k, j)) = doc_index(tag) else {
                log.fail(format!("MATCH for unknown tag {tag}"));
                continue;
            };
            log.match_bytes.push((k, j, raw.len()));
            if !sentinel || Some(got) != expected.sets.get(j).copied() {
                log.fail(format!(
                    "document d{k}: MATCH ids differ from the in-process engine's"
                ));
            }
            let mut matched = inbox.matched.lock().expect("inbox poisoned");
            match matched.get_mut(k) {
                Some(slot @ None) => *slot = Some(now),
                _ => log.fail(format!("second or unexpected MATCH for d{k}")),
            }
            drop(matched);
            inbox.matched_count.fetch_add(1, Ordering::Release);
            continue;
        }
        let line = String::from_utf8_lossy(&raw);
        match Reply::parse(&line) {
            Ok(Reply::Match { .. }) => unreachable!("MATCH lines are scanned above"),
            Ok(Reply::SubOk(id)) if id < churn_base => {
                let n = inbox.setup_acks.load(Ordering::Acquire);
                if u64::from(id) != n {
                    log.fail(format!("+SUB {id}, expected id {n}"));
                }
                *inbox.last_setup_ack.lock().expect("inbox poisoned") = Some(now);
                inbox.setup_acks.fetch_add(1, Ordering::Release);
            }
            Ok(Reply::SubOk(id)) | Ok(Reply::UnsubOk(id)) => {
                let slot = if line.starts_with("+SUB") { 0 } else { 1 };
                let j = (id - churn_base) as usize;
                match inbox.churn_acks.lock().expect("inbox poisoned").get_mut(j) {
                    Some(acks) => acks[slot] = Some(now),
                    None => log.fail(format!("reply for unknown churn id {id}")),
                }
                inbox.churn_acked.fetch_add(1, Ordering::Release);
            }
            Ok(Reply::ShutdownOk) | Ok(Reply::Bye) => {}
            Ok(other) => log.fail(format!("unexpected reply {:?}", other.to_wire())),
            Err(e) => log.fail(format!("unparsable line: {e}")),
        }
    }
    log
}

/// The resident set, registered through the subscriber connection.
struct Subscriber {
    writer: TcpStream,
    reader: JoinHandle<ReaderLog>,
    setup_s: f64,
}

fn subscribe(
    proc: &BrokerProc,
    resident: &[String],
    inbox: &Arc<Inbox>,
    expected: &Arc<Expected>,
) -> Result<Subscriber, String> {
    let sock = connect(&proc.addr)?;
    let reader = {
        let (sock, inbox, expected) = (clone(&sock)?, inbox.clone(), expected.clone());
        std::thread::spawn(move || read_subscriber(sock, inbox, expected))
    };
    let t0 = Instant::now();
    let mut out = BufWriter::with_capacity(1 << 16, clone(&sock)?);
    let io = |e: std::io::Error| format!("SUB write: {e}");
    out.write_all(b"SUB /*\n").map_err(io)?;
    for expr in resident {
        writeln!(out, "SUB {expr}").map_err(io)?;
    }
    out.flush().map_err(io)?;
    let want = resident.len() as u64 + 1;
    let deadline = Instant::now() + Duration::from_secs(120);
    while inbox.setup_acks.load(Ordering::Acquire) < want {
        if Instant::now() > deadline || reader.is_finished() {
            return Err("the broker did not acknowledge every resident SUB".to_string());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let last = inbox
        .last_setup_ack
        .lock()
        .expect("inbox poisoned")
        .expect("acks were counted");
    Ok(Subscriber {
        writer: sock,
        reader,
        setup_s: (last - t0).as_secs_f64(),
    })
}

fn new_inbox() -> Arc<Inbox> {
    Arc::new(Inbox {
        setup_acks: AtomicU64::new(0),
        last_setup_ack: Mutex::new(None),
        matched: Mutex::new(Vec::new()),
        matched_count: AtomicU64::new(0),
        churn_acks: Mutex::new(vec![[None, None]; gen::NITF_CHURN_POOL]),
        churn_acked: AtomicU64::new(0),
    })
}

/// The publisher connection, non-blocking in both directions so the
/// main thread never stalls in a read or a write.
struct Wire {
    sock: TcpStream,
    pending: Vec<u8>,
    chunk: Vec<u8>,
}

/// Longest sleep between two reads of the publisher connection, which
/// bounds how late a `+DOC` or `+STATS` reply is stamped. (A socket read
/// timeout would be coarser: the kernel rounds it up to a scheduler tick.)
const POLL_SLICE: Duration = Duration::from_micros(200);
/// How long before a send is due the main thread stops sleeping and spins.
const SPIN_BEFORE: Duration = Duration::from_micros(100);

impl Wire {
    fn new(sock: TcpStream) -> Result<Wire, String> {
        sock.set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        Ok(Wire {
            sock,
            pending: Vec::new(),
            chunk: vec![0; 1 << 16],
        })
    }

    /// Hands every complete line already received to `on_line` with its
    /// receipt time, then sleeps for at most `timeout` (capped at
    /// `POLL_SLICE`).
    fn poll(
        &mut self,
        timeout: Duration,
        on_line: &mut impl FnMut(&str, Instant),
    ) -> Result<(), String> {
        loop {
            match self.sock.read(&mut self.chunk) {
                Ok(0) => return Err("the broker closed the publisher connection".to_string()),
                Ok(n) => {
                    let now = Instant::now();
                    self.pending.extend_from_slice(&self.chunk[..n]);
                    let mut start = 0;
                    while let Some(end) = self.pending[start..].iter().position(|&b| b == b'\n') {
                        on_line(
                            &String::from_utf8_lossy(&self.pending[start..start + end]),
                            now,
                        );
                        start += end + 1;
                    }
                    self.pending.drain(..start);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("publisher read: {e}")),
            }
        }
        if !timeout.is_zero() {
            std::thread::sleep(timeout.min(POLL_SLICE));
        }
        Ok(())
    }

    /// Writes all of `bytes`, reading replies while the socket is full.
    fn send(
        &mut self,
        mut bytes: &[u8],
        on_line: &mut impl FnMut(&str, Instant),
    ) -> Result<(), String> {
        while !bytes.is_empty() {
            match self.sock.write(bytes) {
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.poll(POLL_SLICE, on_line)?
                }
                Err(e) => return Err(format!("publisher write: {e}")),
            }
        }
        Ok(())
    }
}

/// What the main thread records from the publisher connection.
#[derive(Default)]
struct PubLog {
    doc_acks: Vec<Option<Instant>>,
    stats: Vec<(Instant, BrokerStatsSnapshot)>,
    failures: Outcome,
}

impl PubLog {
    fn on_line(&mut self, line: &str, now: Instant) {
        match Reply::parse(line) {
            Ok(Reply::DocOk { tag, .. }) => {
                match doc_index(&tag).and_then(|(k, _)| self.doc_acks.get_mut(k)) {
                    Some(slot) => *slot = Some(now),
                    None => self.failures.fail(|| format!("+DOC for unknown tag {tag}")),
                }
            }
            Ok(Reply::Stats(kv)) => self.stats.push((now, BrokerStatsSnapshot::from_kv(&kv))),
            Ok(Reply::ShutdownOk) => {}
            Ok(other) => self
                .failures
                .fail(|| format!("unexpected reply {:?}", other.to_wire())),
            Err(e) => self.failures.fail(|| format!("unparsable line: {e}")),
        }
    }
}

/// One offered rate held for a while.
struct Phase {
    /// Stream indices of the documents sent in this phase.
    docs: std::ops::Range<usize>,
    start: Instant,
    end: Instant,
}

/// The open-loop schedule state shared by all phases.
struct Client<'a> {
    docs: &'a [Vec<u8>],
    churn_pool: &'a [String],
    resident: u32,
    subscriber: TcpStream,
    wire: Wire,
    log: PubLog,
    inbox: Arc<Inbox>,
    due: Vec<Instant>,
    /// Pool index of each stream document.
    pool_of: Vec<usize>,
    /// Due time of each churn SUB / UNSUB, per churn expression.
    churn_due: Vec<[Option<Instant>; 2]>,
    live_churn: VecDeque<usize>,
    next_churn: usize,
    churn_sent: u64,
    lags_ns: Vec<f64>,
    frame: Vec<u8>,
}

impl Client<'_> {
    fn send_doc(&mut self, k: usize) -> Result<(), String> {
        let j = self.pool_of[k];
        let bytes = &self.docs[j];
        self.frame.clear();
        writeln!(self.frame, "DOC {} {}", bytes.len(), doc_tag(k, j)).expect("write to a Vec");
        self.frame.extend_from_slice(bytes);
        let log = &mut self.log;
        self.wire
            .send(&self.frame, &mut |line, now| log.on_line(line, now))
    }

    fn send_line(&mut self, line: &[u8]) -> Result<(), String> {
        let log = &mut self.log;
        self.wire.send(line, &mut |l, now| log.on_line(l, now))
    }

    /// One churn operation: SUB the next pool expression until
    /// `CHURN_LIVE` are alive, then alternate UNSUB of the oldest and SUB.
    fn send_churn(&mut self, op: u64, due: Instant) -> Result<(), String> {
        let unsub = self.live_churn.len() >= CHURN_LIVE && op.is_multiple_of(2);
        let line = if unsub || self.next_churn == self.churn_pool.len() {
            let Some(j) = self.live_churn.pop_front() else {
                return Ok(());
            };
            self.churn_due[j][1] = Some(due);
            // Ids are handed out in registration order: the sentinel,
            // the resident set, then the churn SUBs.
            format!("UNSUB {}\n", self.resident as usize + 1 + j)
        } else {
            let j = self.next_churn;
            self.next_churn += 1;
            self.live_churn.push_back(j);
            self.churn_due[j][0] = Some(due);
            format!("SUB {}\n", self.churn_pool[j])
        };
        self.churn_sent += 1;
        self.subscriber
            .write_all(line.as_bytes())
            .map_err(|e| format!("churn write: {e}"))
    }

    fn poll(&mut self, timeout: Duration) -> Result<(), String> {
        let log = &mut self.log;
        self.wire
            .poll(timeout, &mut |line, now| log.on_line(line, now))
    }

    /// Offers `rate` documents per second for `secs`, with `churn_per_s`
    /// SUB/UNSUB operations per second and STATS polls on their own fixed
    /// schedules. The documents are the pool indices of `order`, cycled
    /// from its start, so a phase repeats the documents and spacing of the
    /// same phase in earlier rounds. Documents still unsent at the end
    /// (the broker pushed back) are dropped from the schedule.
    /// With `record_lag`, how late each send was is kept.
    fn run_phase(
        &mut self,
        order: &[usize],
        rate: f64,
        secs: f64,
        churn_per_s: f64,
        record_lag: bool,
    ) -> Result<Phase, String> {
        let first = self.due.len();
        let n_docs = (rate * secs).round() as usize;
        let n_churn = (churn_per_s * secs).round() as u64;
        let n_stats = (secs / STATS_EVERY.as_secs_f64()).floor() as u64;
        let start = Instant::now() + Duration::from_millis(2);
        let end = start + Duration::from_secs_f64(secs);
        let at = |i: u64, per_s: f64| start + Duration::from_secs_f64(i as f64 / per_s);
        self.due.extend((0..n_docs).map(|i| at(i as u64, rate)));
        self.pool_of
            .extend((0..n_docs).map(|i| order[i % order.len()]));
        self.log.doc_acks.resize(self.due.len(), None);
        self.inbox
            .matched
            .lock()
            .expect("inbox poisoned")
            .resize(self.due.len(), None);
        let (mut d, mut c, mut s) = (0usize, 0u64, 0u64);
        loop {
            let next_doc = (d < n_docs).then(|| self.due[first + d]);
            let next_churn = (c < n_churn).then(|| at(c, churn_per_s));
            let next_stats = (s < n_stats).then(|| start + STATS_EVERY * (s as u32 + 1));
            let Some(due) = [next_doc, next_churn, next_stats]
                .into_iter()
                .flatten()
                .min()
            else {
                break;
            };
            let now = Instant::now();
            if now >= end {
                break;
            }
            if due > now + SPIN_BEFORE {
                self.poll(due - now - SPIN_BEFORE)?;
                continue;
            }
            if due > now {
                // Sleeps overshoot by the kernel's timer slack; spin the
                // last stretch so sends leave on time.
                std::hint::spin_loop();
                continue;
            }
            if record_lag {
                self.lags_ns.push(ns(now - due));
            }
            if next_doc == Some(due) {
                self.send_doc(first + d)?;
                d += 1;
            } else if next_churn == Some(due) {
                self.send_churn(c, due)?;
                c += 1;
            } else {
                self.send_line(b"STATS\n")?;
                s += 1;
            }
        }
        self.due.truncate(first + d);
        self.pool_of.truncate(first + d);
        Ok(Phase {
            docs: first..first + d,
            start,
            end: Instant::now(),
        })
    }

    /// Keeps reading until every document sent so far has its `MATCH` and
    /// every churn SUB/UNSUB its reply, so the broker is idle when the
    /// next phase starts. Running out of `wait` first counts as a failure.
    fn drain(&mut self, wait: Duration) -> Result<(), String> {
        let deadline = Instant::now() + wait;
        let owed = |c: &Self| {
            (c.inbox.matched_count.load(Ordering::Acquire) as usize) < c.due.len()
                || c.inbox.churn_acked.load(Ordering::Acquire) < c.churn_sent
        };
        while owed(self) {
            if Instant::now() >= deadline {
                self.log
                    .failures
                    .fail(|| format!("the broker had not drained after {wait:?}"));
                return Ok(());
            }
            self.poll(Duration::from_millis(1))?;
        }
        Ok(())
    }

    fn backlog_in(&self, phase: &Phase) -> Vec<f64> {
        self.log
            .stats
            .iter()
            .filter(|(t, _)| *t >= phase.start && *t <= phase.end)
            .map(|(_, s)| s.ingested.saturating_sub(s.matched) as f64)
            .collect()
    }
}

/// The in-process engine's pass over the document pool: the expected
/// match sets, each document's parse+match time, and (traced) the layer
/// split of that time.
struct Replica {
    expected: Expected,
    inproc_ms: Vec<f64>,
}

fn replica_pass(
    engine: &FilterEngine,
    docs: &[Vec<u8>],
    resident: u32,
    (seed, trace): (u64, bool),
    out: &mut Outcome,
) -> Replica {
    let mut scratch = MatchScratch::new();
    let mut traced = Traced::new();
    let mut sets = vec![(0, 0); docs.len()];
    let mut doc_ns = Vec::with_capacity(docs.len());
    let mut untraced_ns = 0.0;
    const BLOCK: usize = 64;
    for first in (0..docs.len()).step_by(BLOCK) {
        untraced_ns += engine::match_block(
            engine,
            docs,
            first..(first + BLOCK).min(docs.len()),
            &mut scratch,
            trace.then_some(&mut traced),
            &mut doc_ns,
            |i, ids| match ids {
                Some(ids) => {
                    let resident_ids = ids
                        .iter()
                        .map(|s| s.0)
                        .filter(|&id| (1..=resident).contains(&id));
                    sets[i] = id_hash(resident_ids);
                }
                None => out.fail(|| format!("document {i} does not parse in-process")),
            },
        );
    }
    if trace {
        traced.set_layers(out, &[], 0.0, untraced_ns);
        if let Err(e) = traced.tracer.write(&format!("broker-nitf-seed{seed}.tsv")) {
            eprintln!("cannot write spans: {e}");
        }
    }
    Replica {
        expected: Expected { resident, sets },
        inproc_ms: doc_ns.iter().map(|t| t / 1e6).collect(),
    }
}

pub fn run(pxf: &str, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (resident, churn_pool) = gen::nitf(seed);
    let docs = gen::documents(seed, gen::DOC_POOL);
    let r = resident.len() as u32;

    // The in-process engine on the same subscription set, registered in
    // the broker's id order (sentinel first).
    let mut all = Vec::with_capacity(resident.len() + 1);
    all.push("/*".to_string());
    all.extend(resident.iter().cloned());
    let mut replica = FilterEngine::default();
    replica.set_parser_limits(ParserLimits::strict());
    let mut setup = SetupTiming::default();
    let replica = engine::build(replica, &all, trace.then_some(&mut setup));
    if trace {
        engine::set_setup(&mut out, &replica, &setup, all.len());
    }
    let Replica {
        expected,
        inproc_ms,
    } = replica_pass(&replica, &docs, r, (seed, trace), &mut out);
    drop(replica);
    let expected = Arc::new(expected);

    // Set-up: a fresh broker loaded with the resident set. The one that
    // serves the measurement is the first sample; one more throwaway
    // broker is set up before the first round and after every round, so
    // the samples spread over the whole run.
    let mut setups = Vec::with_capacity(CYCLES + 2);
    let proc = BrokerProc::spawn(pxf)?;
    let inbox = new_inbox();
    let sub = subscribe(&proc, &resident, &inbox, &expected)?;
    out.attempted += resident.len() as u64 + 1;
    setups.push(sub.setup_s);
    let mut setup_once = |out: &mut Outcome| -> Result<(), String> {
        let mut proc = BrokerProc::spawn(pxf)?;
        let sub = subscribe(&proc, &resident, &new_inbox(), &expected)?;
        out.attempted += resident.len() as u64 + 1;
        setups.push(sub.setup_s);
        let Subscriber {
            mut writer, reader, ..
        } = sub;
        writer
            .write_all(b"SHUTDOWN\n")
            .map_err(|e| format!("SHUTDOWN write: {e}"))?;
        proc.wait_exit()?;
        out.merge(
            reader
                .join()
                .map_err(|_| "reader thread panicked")?
                .failures,
        );
        Ok(())
    };
    setup_once(&mut out)?;
    let mut proc = proc;

    let mut client = Client {
        docs: &docs,
        churn_pool: &churn_pool,
        resident: r,
        wire: Wire::new(connect(&proc.addr)?)?,
        subscriber: clone(&sub.writer)?,
        log: PubLog::default(),
        inbox: inbox.clone(),
        due: Vec::new(),
        pool_of: Vec::new(),
        churn_due: vec![[None, None]; churn_pool.len()],
        live_churn: VecDeque::new(),
        next_churn: 0,
        churn_sent: 0,
        lags_ns: Vec::new(),
        frame: Vec::new(),
    };

    // Three kinds of phase, repeated in `CYCLES` rounds so each one
    // samples the whole run; a round runs reference, overload, churn,
    // reference, overload. Reference: documents at the reference rate,
    // nothing else, for delivery latency. Churn: documents at the same
    // rate plus SUB/UNSUB churn, for write visibility under concurrent
    // readers. Overload: an offered rate far above capacity, so the
    // broker pushes back, its backlog never empties, and MATCH lines
    // arrive at its capacity. Churn gets its own phase because every
    // publish that overlaps a long match may fall back to a deep engine
    // clone, whose CPU burst would otherwise swamp the latency and
    // capacity figures.
    // Every reference phase sends the same documents: a sample of the pool
    // spread evenly over the documents' costs (resident matches, then
    // bytes), so its mix of light and heavy documents is the pool's. The
    // other phases cycle the pool.
    let round = seconds as f64 / CYCLES as f64;
    let reference_secs = round * REFERENCE_SHARE / 2.0;
    let burst_secs = round * (1.0 - REFERENCE_SHARE - CHURN_SHARE) / 2.0;
    let cost: Vec<(usize, usize)> = (expected.sets.iter().zip(&docs))
        .map(|(&(_, matches), doc)| (matches, doc.len()))
        .collect();
    let per_phase = (REFERENCE_RATE * reference_secs) as usize;
    let sample = cost_sample(&cost, per_phase * REFERENCE_SLICES);
    let slices: Vec<&[usize]> = sample.chunks(per_phase.max(1)).collect();
    let every: Vec<usize> = (0..docs.len()).collect();
    let (mut reference, mut overload) = (Vec::new(), Vec::new());
    let (mut cpu_client, mut cpu_broker, mut rss) = (0.0, 0.0, 0.0);
    for _ in 0..CYCLES {
        for half in 0..2 {
            let cpu0 = (host::cpu_ms(None), host::cpu_ms(Some(proc.pid())));
            let slice = slices[reference.len() % slices.len()];
            reference.push(client.run_phase(slice, REFERENCE_RATE, reference_secs, 0.0, true)?);
            client.drain(DRAIN_WAIT)?;
            cpu_client += host::cpu_ms(None).unwrap_or(0.0) - cpu0.0.unwrap_or(0.0);
            cpu_broker += host::cpu_ms(Some(proc.pid())).unwrap_or(0.0) - cpu0.1.unwrap_or(0.0);
            if rss == 0.0 {
                // Peak so far: the set-up and the first reference phase.
                rss = host::status_mib(Some(proc.pid()), "VmHWM").unwrap_or(0.0);
            }
            overload.push(client.run_phase(&every, OVERLOAD_RATE, burst_secs, 0.0, false)?);
            client.drain(DRAIN_WAIT)?;
            if half == 0 {
                let secs = round * CHURN_SHARE;
                client.run_phase(&every, REFERENCE_RATE, secs, CHURN_OPS_PER_S, true)?;
                client.drain(DRAIN_WAIT)?;
            }
        }
        setup_once(&mut out)?;
    }
    let sent = client.due.len();
    client.drain(FINAL_WAIT)?;

    // Final counters, then shut the broker down and collect the reader.
    client.send_line(b"STATS\n")?;
    let asked = Instant::now();
    let polls = client.log.stats.len();
    while client.log.stats.len() == polls && asked.elapsed() < FINAL_WAIT {
        client.poll(Duration::from_millis(5))?;
    }
    let last = client.log.stats.last().map(|s| s.1).unwrap_or_default();
    client.send_line(b"SHUTDOWN\n")?;
    let stopped = proc.wait_exit()?;
    eprintln!("  {}", stopped.trim());
    let mut reader_log = sub.reader.join().map_err(|_| "reader thread panicked")?;

    // Correctness: every document matched exactly once (checked by the
    // reader), every reply arrived, nothing shed or dropped.
    out.attempted += sent as u64;
    let matched = inbox.matched.lock().expect("inbox poisoned").clone();
    for k in (0..sent).filter(|&k| matched[k].is_none()) {
        out.fail(|| format!("no MATCH for document d{k}"));
    }
    for k in (0..sent).filter(|&k| client.log.doc_acks[k].is_none()) {
        out.fail(|| format!("no +DOC for document d{k}"));
    }
    let churn_acks = inbox.churn_acks.lock().expect("inbox poisoned").clone();
    let mut write_lat = Vec::new();
    for (due, acks) in client.churn_due.iter().zip(&churn_acks) {
        for (due, ack) in due.iter().zip(acks) {
            let Some(due) = *due else { continue };
            out.attempted += 1;
            match ack {
                Some(t) => write_lat.push(ns(*t - due)),
                None => out.fail(|| "no reply to a churn SUB/UNSUB".to_string()),
            }
        }
    }
    out.merge(std::mem::take(&mut client.log.failures));
    for _ in 0..(last.shed + last.dropped) {
        out.fail(|| "broker shed or dropped a delivery".to_string());
    }
    let fifo = reader_log.fifo_violations;
    let match_bytes = std::mem::take(&mut reader_log.match_bytes);
    out.merge(reader_log.failures);
    // The reader checked each MATCH against the document its tag names;
    // that must be the document sent under that stream index.
    for &(k, j, _) in &match_bytes {
        if client.pool_of.get(k) != Some(&j) {
            out.fail(|| format!("MATCH for d{k} names pool document {j}"));
        }
    }

    // Every reference document is sent twice, at the same offset into a
    // phase, and every overload phase sends the same documents in the same
    // order. So each reference document's delivery latency and each
    // overload block's time are taken as their fastest over the phases:
    // their time in the quietest moments of a host whose cache and
    // memory bandwidth the broker shares with other tenants.
    let ref_docs: Vec<usize> = reference.iter().flat_map(|p| p.docs.clone()).collect();
    let latency = |k: usize| matched[k].map_or(f64::INFINITY, |t| ns(t - client.due[k]) / 1e6);
    let ref_lat: Vec<f64> = ref_docs.iter().map(|&k| latency(k)).collect();
    let mut best = vec![f64::INFINITY; docs.len()];
    for (&k, &l) in ref_docs.iter().zip(&ref_lat) {
        let j = client.pool_of[k];
        best[j] = best[j].min(l);
    }
    let mut delivery: Vec<f64> = sample.iter().map(|&j| best[j]).collect();
    let capacity = capacity(&overload, &matched);
    eprintln!(
        "  {sent} documents; {} reference documents; capacity over {} blocks",
        sample.len(),
        capacity.1
    );
    eprintln!("  set-ups (s): {}", join(setups.iter().copied()));
    out.set("setup_s", median(&mut setups));
    if !trace {
        out.set("docs_per_s", capacity.0);
        out.set("doc_p99_ms", quantile(&mut delivery, 0.99));
        out.set("rss_mb", rss);
        return Ok(out);
    }
    out.set("broker.delivery_p50_ms", median(&mut delivery));
    out.set(
        "broker.sub_ack_p99_ms",
        quantile(&mut write_lat, 0.99) / 1e6,
    );
    let mut ack_lat: Vec<f64> = ref_docs
        .iter()
        .filter_map(|&k| client.log.doc_acks[k].map(|t| ns(t - client.due[k]) / 1e6))
        .collect();
    out.set("broker.doc_ack_p99_ms", quantile(&mut ack_lat, 0.99));
    let mut overhead: Vec<f64> = ref_docs
        .iter()
        .zip(&ref_lat)
        .filter(|(_, l)| l.is_finite())
        .map(|(&k, l)| l - inproc_ms[client.pool_of[k]])
        .collect();
    out.set("broker.overhead_p50_ms", median(&mut overhead));
    let is_ref = |k: usize| reference.iter().any(|p| p.docs.contains(&k));
    let ref_bytes: Vec<f64> = match_bytes
        .iter()
        .filter(|&&(k, _, _)| is_ref(k))
        .map(|&(_, _, len)| len as f64)
        .collect();
    out.set(
        "broker.match_bytes_per_doc",
        ref_bytes.iter().sum::<f64>() / ref_bytes.len().max(1) as f64,
    );
    let per_ref_doc = |ms: f64| ms / ref_docs.len().max(1) as f64;
    out.set("broker.cpu_ms_per_doc", per_ref_doc(cpu_broker));
    out.set("client.cpu_ms_per_doc", per_ref_doc(cpu_client));
    let backlog: Vec<f64> = reference
        .iter()
        .flat_map(|p| client.backlog_in(p))
        .collect();
    out.set(
        "broker.backlog_docs",
        backlog.iter().sum::<f64>() / backlog.len().max(1) as f64,
    );
    out.set("broker.shed", last.shed as f64);
    out.set("broker.dropped", last.dropped as f64);
    out.set("broker.fifo_violations", fifo as f64);
    out.set(
        "client.gen_lag_ms_p99",
        quantile(&mut client.lags_ns, 0.99) / 1e6,
    );
    out.set("maint.full_rebuilds", last.full_rebuilds as f64);
    out.set("snapshot.clone_fallbacks", last.clone_fallbacks as f64);
    Ok(out)
}

fn join(values: impl Iterator<Item = f64>) -> String {
    values
        .map(|v| format!("{v:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `n` pool indices spread evenly over the documents' `cost` (the middle
/// document of each of `n` equal strata by cost), in an order of cost
/// rank that is the same for every seed (a shuffle with a fixed seed).
/// How often heavy documents arrive close together sets how long they
/// wait for each other; with the order fixed, that does not change from
/// seed to seed.
fn cost_sample(cost: &[(usize, usize)], n: usize) -> Vec<usize> {
    let pool = cost.len();
    let n = n.clamp(1, pool);
    let mut by_cost: Vec<usize> = (0..pool).collect();
    by_cost.sort_by_key(|&j| (cost[j], j));
    let mut ranks: Vec<usize> = (0..n).collect();
    let mut rng = pxf_rng::Rng::seed_from_u64(RANK_ORDER_SEED);
    for i in (1..n).rev() {
        ranks.swap(i, rng.gen_index(i + 1));
    }
    ranks
        .into_iter()
        .map(|r| by_cost[(2 * r + 1) * pool / (2 * n)])
        .collect()
}

/// Capacity of the overload phases: documents per second over the
/// `CAPACITY_BLOCK`s that every phase worked on after its warm-up and
/// before it stopped sending, each block timed (previous block's last
/// MATCH → its own last MATCH) at its fastest over the phases. Blocks are
/// matched up by position: every phase sends the pool in the same order.
/// Also returns the number of blocks.
fn capacity(phases: &[Phase], matched: &[Option<Instant>]) -> (f64, usize) {
    let per_phase: Vec<Vec<Option<f64>>> = phases
        .iter()
        .map(|p| {
            let ends: Vec<Instant> = p
                .docs
                .clone()
                .map_while(|k| matched[k])
                .skip(CAPACITY_BLOCK - 1)
                .step_by(CAPACITY_BLOCK)
                .collect();
            ends.windows(2)
                .map(|w| {
                    (w[0] >= p.start + OVERLOAD_WARMUP && w[1] <= p.end).then(|| ns(w[1] - w[0]))
                })
                .collect()
        })
        .collect();
    let positions = per_phase.iter().map(Vec::len).min().unwrap_or(0);
    let (mut blocks, mut total_ns) = (0, 0.0);
    for b in 0..positions {
        let times: Option<Vec<f64>> = per_phase.iter().map(|t| t[b]).collect();
        if let Some(times) = times {
            total_ns += times.into_iter().fold(f64::INFINITY, f64::min);
            blocks += 1;
        }
    }
    if blocks == 0 {
        return (0.0, 0);
    }
    ((blocks * CAPACITY_BLOCK) as f64 / (total_ns / 1e9), blocks)
}
