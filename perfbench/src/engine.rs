//! The in-process workloads: one thread reads documents from published
//! snapshots and, on a workload with writes, applies a fixed schedule of
//! write bursts (remove, re-add, publish) through the `SnapshotPublisher`
//! between blocks of documents.
//!
//! The inputs and the oracle's match sets come from a child process (this
//! binary with `--emit-inputs`), so the heap of the process that holds the
//! measured index never held the generator's or the oracle's data.

use crate::gen;
use crate::host;
use crate::report::Outcome;
use crate::stats::{fastest, median, ns, quantile, Mean};
use crate::trace::Tracer;
use pxf_core::{
    CompileOptions, EngineSnapshot, EngineStats, FilterEngine, MatchScratch, SnapshotPublisher,
    Stage1, Stage2, SubId,
};
use pxf_xml::PathDoc;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::ops::Range;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Traced documents over which the per-document counts are taken. A
/// fixed count (not the time-bounded total) makes the counts repeat
/// exactly for a fixed seed.
pub const COUNT_DOCS: usize = 1024;

/// Write operations per burst; each burst ends with one publish.
const BURST_OPS: usize = 8;

/// The shape of one in-process workload.
pub struct Spec {
    /// Documents in the stream: the first `docs` of the shared document
    /// stream, cycled in order.
    pub docs: usize,
    /// Documents matched per snapshot load; on a workload with writes, a
    /// write burst follows every block.
    pub block: usize,
    /// Registrations the write schedule keeps removed once it has warmed
    /// up; `None` for a read-only workload.
    pub removed_window: Option<usize>,
    /// Leading stream documents whose match sets the oracle checks
    /// (every time they come round).
    pub checked_docs: usize,
}

/// The in-process workloads by name.
pub fn spec(workload: &str) -> Option<Spec> {
    match workload {
        // Read-only: the engine-only baseline for broker-nitf.
        "engine-nitf" => Some(Spec {
            docs: gen::DOC_POOL,
            block: 100,
            removed_window: None,
            checked_docs: 256,
        }),
        // Twice the pool: its documents take a tenth of engine-nitf's time,
        // and the p99 of 4,000 moved by a tenth from seed to seed.
        "engine-dup-churn" => Some(Spec {
            docs: 2 * gen::DOC_POOL,
            block: 8,
            removed_window: Some(256),
            checked_docs: 2 * gen::DOC_POOL,
        }),
        _ => None,
    }
}

/// Subscription texts (in registration order) and the document stream.
fn generate(workload: &str, spec: &Spec, seed: u64) -> (Vec<String>, Vec<Vec<u8>>) {
    let exprs = match workload {
        "engine-nitf" => gen::nitf(seed).0,
        _ => gen::duplicates(seed, gen::DUP_REGISTRATIONS),
    };
    (exprs, gen::documents(seed, spec.docs))
}

/// A workload's inputs and, for its checked documents, the oracle's match
/// sets as registration indices.
struct Inputs {
    exprs: Vec<String>,
    docs: Vec<Vec<u8>>,
    expected: Vec<Vec<u32>>,
}

/// Generates the inputs of `workload`, runs the oracle on them and writes
/// all of it to standard output for `load_inputs`: `exprs <n>` and one
/// expression per line, `docs <n>` and per document `<len>` and its
/// bytes, `oracle <n>` and one line of ids per checked document.
pub fn emit_inputs(workload: &str, seed: u64) -> std::io::Result<()> {
    let spec = spec(workload).expect("an in-process workload");
    let (exprs, docs) = generate(workload, &spec, seed);
    let expected = oracle_sets(&exprs, &docs[..spec.checked_docs.min(docs.len())]);
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    writeln!(out, "exprs {}", exprs.len())?;
    for e in &exprs {
        writeln!(out, "{e}")?;
    }
    writeln!(out, "docs {}", docs.len())?;
    for d in &docs {
        writeln!(out, "{}", d.len())?;
        out.write_all(d)?;
    }
    writeln!(out, "oracle {}", expected.len())?;
    for ids in &expected {
        let ids: Vec<String> = ids.iter().map(u32::to_string).collect();
        writeln!(out, "{}", ids.join(" "))?;
    }
    out.flush()
}

/// Runs `emit_inputs` in a child process and reads what it writes. Every
/// value is allocated once at its final size, in an order that does not
/// depend on how the pipe splits the stream, so the heap the measured
/// build starts from is the same from run to run.
fn load_inputs(workload: &str, seed: u64) -> Result<Inputs, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--emit-inputs"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the input generator: {e}"))?;
    let mut input = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let read = read_inputs(&mut input);
    drop(input);
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the input generator: {e}"))?;
    if !status.success() {
        return Err(format!("the input generator exited with {status}"));
    }
    read.map_err(|e| format!("reading the inputs: {e}"))
}

fn read_inputs(input: &mut impl BufRead) -> Result<Inputs, String> {
    // One line buffer for the whole stream, sized up front past the
    // longest line, so it never grows while values are allocated.
    let mut line = String::with_capacity(1 << 20);
    let n = count(input, &mut line, "exprs")?;
    let mut exprs = Vec::with_capacity(n);
    for _ in 0..n {
        exprs.push(next_line(input, &mut line)?.to_string());
    }
    let n = count(input, &mut line, "docs")?;
    let mut docs = Vec::with_capacity(n);
    for _ in 0..n {
        let len: usize = next_line(input, &mut line)?
            .parse()
            .map_err(|_| "bad document length")?;
        let mut doc = vec![0; len];
        input.read_exact(&mut doc).map_err(|e| e.to_string())?;
        docs.push(doc);
    }
    let n = count(input, &mut line, "oracle")?;
    let mut expected = Vec::with_capacity(n);
    for _ in 0..n {
        let text = next_line(input, &mut line)?;
        let mut ids = Vec::with_capacity(text.split_whitespace().count());
        for id in text.split_whitespace() {
            ids.push(id.parse::<u32>().map_err(|_| "bad oracle id")?);
        }
        expected.push(ids);
    }
    Ok(Inputs {
        exprs,
        docs,
        expected,
    })
}

fn next_line<'a>(input: &mut impl BufRead, line: &'a mut String) -> Result<&'a str, String> {
    line.clear();
    match input.read_line(line) {
        Ok(0) => Err("unexpected end".to_string()),
        Ok(_) => Ok(line.trim_end_matches('\n')),
        Err(e) => Err(e.to_string()),
    }
}

/// Reads a `<key> <n>` section header.
fn count(input: &mut impl BufRead, line: &mut String, key: &str) -> Result<usize, String> {
    let text = next_line(input, line)?;
    text.strip_prefix(key)
        .and_then(|n| n.strip_prefix(' '))
        .and_then(|n| n.parse().ok())
        .ok_or(format!("expected `{key} <n>`, got {text:?}"))
}

/// Parses and registers every expression, then prepares: the set-up a
/// user pays before the first document. With `timing`, each parse, add
/// and the prepare are timed separately (xpath and maintenance layers).
pub fn build(
    mut engine: FilterEngine,
    exprs: &[String],
    timing: Option<&mut SetupTiming>,
) -> FilterEngine {
    match timing {
        None => {
            for src in exprs {
                let expr = pxf_xpath::parse(src).expect("generated expressions parse");
                engine.add(&expr).expect("generated expressions encode");
            }
            engine.prepare();
        }
        Some(t) => {
            for src in exprs {
                let t0 = Instant::now();
                let expr = pxf_xpath::parse(src).expect("generated expressions parse");
                let t1 = Instant::now();
                engine.add(&expr).expect("generated expressions encode");
                let t2 = Instant::now();
                t.parse_ns += ns(t1 - t0);
                t.add_ns += ns(t2 - t1);
            }
            let t0 = Instant::now();
            engine.prepare();
            t.prepare_ns = ns(t0.elapsed());
        }
    }
    engine
}

#[derive(Default)]
pub struct SetupTiming {
    pub parse_ns: f64,
    pub add_ns: f64,
    pub prepare_ns: f64,
}

/// Match sets of the oracle configuration (no compilation, per-path
/// stage 1, scanning stage 2) for `docs`, as registration indices.
fn oracle_sets(exprs: &[String], docs: &[Vec<u8>]) -> Vec<Vec<u32>> {
    let mut oracle = FilterEngine::default();
    oracle.set_compile_options(CompileOptions::none());
    oracle.set_stage1(Stage1::PerPath);
    oracle.set_stage2(Stage2::Scan);
    for src in exprs {
        oracle
            .add(&pxf_xpath::parse(src).expect("generated expressions parse"))
            .expect("generated expressions encode");
    }
    oracle.prepare();
    docs.iter()
        .map(|bytes| {
            let doc = PathDoc::parse(bytes).expect("generated documents parse");
            // Registration i is SubId i: the oracle registers in order.
            oracle.match_document(&doc).iter().map(|s| s.0).collect()
        })
        .collect()
}

/// The remove/re-add schedule and the id bookkeeping that maps the
/// engine's subscription ids back to registration indices.
struct Churn {
    /// Registration index of every id the engine has handed out.
    sub_to_reg: Vec<u32>,
    /// Current id of each registration, `REMOVED` while it is removed.
    reg_sub: Vec<u32>,
    removed: VecDeque<u32>,
    rng: pxf_rng::Rng,
}

const REMOVED: u32 = u32::MAX;

/// Write-path measurements.
#[derive(Default)]
struct WriteStats {
    /// Write call → return of the publish that makes it visible.
    visible_ns: Vec<f64>,
    /// Duration of each add/remove call.
    op: Mean,
    publish_ns: Vec<f64>,
    ops: u64,
}

impl Churn {
    fn new(n: usize, seed: u64) -> Self {
        Churn {
            sub_to_reg: (0..n as u32).collect(),
            reg_sub: (0..n as u32).collect(),
            removed: VecDeque::new(),
            rng: pxf_rng::Rng::seed_from_u64(gen::sub_seed(seed, 4)),
        }
    }

    /// One burst of `BURST_OPS` writes and the publish that makes them
    /// visible. Removes random live registrations until `window` are out,
    /// then alternates re-adding the longest-removed one with removing
    /// another.
    fn burst(
        &mut self,
        exprs: &[String],
        window: usize,
        publisher: &mut SnapshotPublisher,
        w: &mut WriteStats,
        mut tracer: Option<&mut Tracer>,
        out: &mut Outcome,
    ) {
        let mut starts = Vec::with_capacity(BURST_OPS);
        for op in 0..BURST_OPS {
            let t0 = Instant::now();
            starts.push(t0);
            let readd = self.removed.len() >= window && op % 2 == 0;
            let (name, ok) = if readd {
                let reg = self.removed.pop_front().expect("window is non-empty");
                let p0 = Instant::now();
                let parsed = pxf_xpath::parse(&exprs[reg as usize]);
                let p1 = Instant::now();
                if let Some(t) = tracer.as_deref_mut() {
                    t.span(0, "xpath.parse", p0, p1);
                }
                let a0 = Instant::now();
                let added = parsed.ok().and_then(|e| publisher.add(&e).ok());
                w.op.add(ns(a0.elapsed()));
                match added {
                    Some(sub) => {
                        debug_assert_eq!(sub.0 as usize, self.sub_to_reg.len());
                        self.sub_to_reg.push(reg);
                        self.reg_sub[reg as usize] = sub.0;
                        ("maint.add", true)
                    }
                    None => ("maint.add", false),
                }
            } else {
                let reg = loop {
                    let r = self.rng.gen_index(self.reg_sub.len());
                    if self.reg_sub[r] != REMOVED {
                        break r;
                    }
                };
                let a0 = Instant::now();
                let ok = publisher.remove(SubId(self.reg_sub[reg]));
                w.op.add(ns(a0.elapsed()));
                self.reg_sub[reg] = REMOVED;
                self.removed.push_back(reg as u32);
                ("maint.remove", ok)
            };
            if let Some(t) = tracer.as_deref_mut() {
                t.span(0, name, t0, Instant::now());
            }
            out.attempted += 1;
            w.ops += 1;
            if !ok {
                out.fail(|| format!("{name} failed"));
            }
        }
        let p0 = Instant::now();
        publisher.publish();
        let p1 = Instant::now();
        if let Some(t) = tracer {
            t.span(0, "snapshot.publish", p0, p1);
        }
        w.publish_ns.push(ns(p1 - p0));
        for t0 in starts {
            w.visible_ns.push(ns(p1 - t0));
        }
    }

    /// Checks one match set against the oracle's, minus the registrations
    /// removed in the snapshot it was matched against.
    fn check(&self, doc: usize, expected: &[Vec<u32>], got: &[SubId], out: &mut Outcome) {
        let Some(want) = expected.get(doc) else {
            return;
        };
        let mut got_regs: Vec<u32> = got.iter().map(|s| self.sub_to_reg[s.0 as usize]).collect();
        got_regs.sort_unstable();
        let ok = got_regs.len() <= want.len()
            && want
                .iter()
                .filter(|&&r| self.reg_sub[r as usize] != REMOVED)
                .eq(got_regs.iter());
        if !ok {
            out.fail(|| format!("document {doc}: match set differs from the oracle's"));
        }
    }
}

/// The engine's own stage timers (stage 1, stage 2, collection) between
/// two snapshots of a scratch's cumulative stats, in nanoseconds.
pub fn stage_ns(after: &EngineStats, before: &EngineStats) -> [f64; 3] {
    [
        (after.predicate_ns - before.predicate_ns) as f64,
        (after.expression_ns - before.expression_ns) as f64,
        (after.other_ns - before.other_ns) as f64,
    ]
}

/// Accumulators of a traced pass: spans around the parse and match calls,
/// the engine's stage split of each match, and the fixed-size count
/// window.
pub struct Traced {
    pub tracer: Tracer,
    scratch: MatchScratch,
    /// Blocks seen so far; their parity sets the order of the passes.
    blocks: usize,
    /// Wall time of the traced passes, and their documents.
    pub wall_ns: f64,
    pub docs: usize,
    pub parse_ns: f64,
    /// Stage 1, stage 2 and collection time inside the match calls.
    pub stages_ns: [f64; 3],
    /// Cumulative stats after `COUNT_DOCS` documents, and their bytes.
    pub counts: Option<(EngineStats, f64)>,
    bytes: f64,
}

impl Traced {
    pub fn new() -> Self {
        Traced {
            tracer: Tracer::new(),
            scratch: MatchScratch::new(),
            blocks: 0,
            wall_ns: 0.0,
            docs: 0,
            parse_ns: 0.0,
            stages_ns: [0.0; 3],
            counts: None,
            bytes: 0.0,
        }
    }

    /// Parses and matches `block` of `docs` with a span around each call,
    /// pushing each match set (`None`: the document did not parse) to
    /// `results`.
    fn pass(
        &mut self,
        engine: &FilterEngine,
        docs: &[Vec<u8>],
        block: Range<usize>,
        results: &mut Vec<Option<Vec<SubId>>>,
    ) {
        let limits = *engine.parser_limits();
        let b0 = Instant::now();
        for bytes in &docs[block] {
            let doc_id = self.tracer.reserve();
            let t0 = Instant::now();
            let parsed = PathDoc::parse_with_limits(bytes, limits);
            let t1 = Instant::now();
            let before = self.scratch.stats();
            results.push(
                parsed
                    .ok()
                    .map(|d| engine.match_document_with(&d, &mut self.scratch)),
            );
            let t2 = Instant::now();
            self.tracer.span(doc_id, "xml.parse", t0, t1);
            self.tracer.span(doc_id, "engine.match", t1, t2);
            self.tracer.record(doc_id, 0, "doc", t0, t2);
            self.parse_ns += ns(t1 - t0);
            let after = self.scratch.stats();
            for (acc, x) in self.stages_ns.iter_mut().zip(stage_ns(&after, &before)) {
                *acc += x;
            }
            self.docs += 1;
            if self.docs <= COUNT_DOCS {
                self.bytes += bytes.len() as f64;
                if self.docs == COUNT_DOCS {
                    self.counts = Some((after, self.bytes));
                }
            }
        }
        self.wall_ns += ns(b0.elapsed());
    }

    /// Sets the per-document layer times: each layer's own time, the
    /// traced wall (`extra_ns` adds time spent outside the passes, such
    /// as writes), what no layer accounts for, and the tracing overhead
    /// against `untraced_ns` for the same documents.
    pub fn set_layers(&self, out: &mut Outcome, own: &[f64], extra_ns: f64, untraced_ns: f64) {
        let per_doc = |total_ns: f64| total_ns / self.docs as f64 / 1e3;
        let [pred, stage2, collect] = self.stages_ns.map(per_doc);
        let xml = per_doc(self.parse_ns);
        out.set("xml.parse_us_per_doc", xml);
        out.set("predicate.us_per_doc", pred);
        out.set("stage2.us_per_doc", stage2);
        out.set("collect.us_per_doc", collect);
        let wall = per_doc(self.wall_ns + extra_ns);
        let own: f64 = own.iter().sum();
        out.set("trace.wall_us_per_doc", wall);
        out.set(
            "trace.unattributed_us_per_doc",
            wall - (xml + pred + stage2 + collect + own),
        );
        out.set(
            "trace.overhead_us_per_doc",
            per_doc(self.wall_ns - untraced_ns),
        );
        let (c, bytes) = self
            .counts
            .expect("a traced run covers COUNT_DOCS documents");
        set_counts(out, c, bytes);
    }
}

/// Matches `block` of `docs` against `engine`: an untraced pass and, in a
/// traced run, a traced pass over the same documents, the two in
/// alternating order from block to block. Appends each untraced
/// document's parse + match time to `doc_ns` and hands every match set of
/// either pass to `each` (`None`: the document did not parse). Returns the
/// wall time of the untraced pass.
pub fn match_block(
    engine: &FilterEngine,
    docs: &[Vec<u8>],
    block: Range<usize>,
    scratch: &mut MatchScratch,
    mut traced: Option<&mut Traced>,
    doc_ns: &mut Vec<f64>,
    mut each: impl FnMut(usize, Option<&[SubId]>),
) -> f64 {
    let limits = *engine.parser_limits();
    let order: &[bool] = match traced.as_deref_mut() {
        None => &[false],
        Some(t) => {
            t.blocks += 1;
            if t.blocks % 2 == 1 {
                &[false, true]
            } else {
                &[true, false]
            }
        }
    };
    let mut untraced_ns = 0.0;
    let mut results = Vec::with_capacity(block.len());
    for &with_spans in order {
        results.clear();
        if with_spans {
            let t = traced.as_deref_mut().expect("traced run");
            t.pass(engine, docs, block.clone(), &mut results);
        } else {
            let b0 = Instant::now();
            for bytes in &docs[block.clone()] {
                let t0 = Instant::now();
                results.push(
                    PathDoc::parse_with_limits(bytes, limits)
                        .ok()
                        .map(|d| engine.match_document_with(&d, scratch)),
                );
                doc_ns.push(ns(t0.elapsed()));
            }
            untraced_ns = ns(b0.elapsed());
        }
        for (i, got) in block.clone().zip(&results) {
            each(i, got.as_deref());
        }
    }
    untraced_ns
}

/// Full rebuilds counted by either buffer of the publisher.
fn rebuilds(publisher: &SnapshotPublisher, snapshot: &Arc<EngineSnapshot>) -> u64 {
    publisher.engine().full_rebuilds() + snapshot.engine().full_rebuilds()
}

/// Set-up metrics of a built engine: compilation outcome, footprint and
/// (traced) the parse/add/prepare split.
pub fn set_setup(out: &mut Outcome, engine: &FilterEngine, setup: &SetupTiming, n: usize) {
    let n = n as f64;
    out.set("compile.dedup_hits", engine.stats().dedup_hits as f64);
    out.set(
        "compile.effective_per_registered",
        engine.subset_stats().effective() as f64 / n,
    );
    out.set("maint.index_bytes_per_sub", engine.index_bytes() as f64 / n);
    out.set("xpath.parse_us_per_sub", setup.parse_ns / n / 1e3);
    out.set("maint.add_us_per_sub", setup.add_ns / n / 1e3);
    out.set("maint.prepare_ms", setup.prepare_ns / 1e6);
}

/// Per-document counts over the first `COUNT_DOCS` traced documents
/// (`c` is the scratch's cumulative stats at that point).
pub fn set_counts(out: &mut Outcome, c: EngineStats, bytes: f64) {
    let per = |x: u64| x as f64 / COUNT_DOCS as f64;
    out.set("xml.bytes_per_doc", bytes / COUNT_DOCS as f64);
    out.set("stage2.occurrence_runs", per(c.occurrence_runs));
    out.set("stage2.posting_bumps", per(c.posting_bumps));
    out.set("stage2.ap_root_probes", per(c.ap_root_probes));
    out.set("stage2.memo_path_skips", per(c.memo_path_skips));
    out.set(
        "stage2.matches_per_occurrence_run",
        c.matches as f64 / c.occurrence_runs.max(1) as f64,
    );
    out.set("collect.matches_per_doc", per(c.matches));
    out.set("compile.covered_skips", per(c.covered_skips));
}

pub fn run(name: &str, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let spec = spec(name).ok_or(format!("{name} is not an in-process workload"))?;
    let Inputs {
        exprs,
        docs,
        expected,
    } = load_inputs(name, seed)?;
    let mut out = Outcome::default();
    let pool = docs.len();
    assert_eq!(pool % spec.block, 0, "a pass ends on a whole block");

    // Every pass over the stream starts from a freshly built engine and a
    // fresh write schedule, so every pass does the same work. The first
    // build is timed (in a traced run, parse/add/prepare separately); an
    // untraced run times each later build too, so the set-up samples
    // spread over the whole run rather than one moment of it.
    let mut setup = SetupTiming::default();
    let mut setup_s = Vec::new();
    let rss_before = host::status_mib(None, "VmRSS");
    let t0 = Instant::now();
    let mut engine = build(FilterEngine::default(), &exprs, trace.then_some(&mut setup));
    setup_s.push(t0.elapsed().as_secs_f64());
    let n = exprs.len();
    set_setup(&mut out, &engine, &setup, n);

    // Per pass: each block's work (snapshot load, parse and match, and
    // the write burst that follows), each document's parse + match time,
    // and the write-visibility p99.
    let blocks = pool / spec.block;
    let mut block_ns: Vec<Vec<f64>> = Vec::new();
    let mut pass_doc_ns: Vec<Vec<f64>> = Vec::new();
    let mut pass_write_p99 = Vec::new();
    let mut rss = 0.0;
    let (mut full_rebuilds, mut clone_fallbacks) = (0, 0);

    let mut scratch = MatchScratch::new();
    let mut traced = Traced::new();
    let mut untraced_ns = 0.0;
    let mut writes_ns = 0.0;
    let mut writes = WriteStats::default();

    let deadline = Instant::now() + Duration::from_secs(seconds);
    loop {
        let mut publisher = SnapshotPublisher::new(engine);
        let handle = publisher.handle();
        let rebuilds_before = rebuilds(&publisher, &handle.load());
        let mut churn = Churn::new(n, seed);
        let mut work = Vec::with_capacity(blocks);
        let mut doc_ns: Vec<f64> = Vec::with_capacity(pool);
        writes.visible_ns.clear();
        for first in (0..pool).step_by(spec.block) {
            let l0 = Instant::now();
            let snapshot = handle.load();
            let l1 = Instant::now();
            let mut work_ns = ns(l1 - l0);
            writes_ns += ns(l1 - l0);
            if trace {
                traced.tracer.span(0, "snapshot.load", l0, l1);
            }
            let b = match_block(
                snapshot.engine(),
                &docs,
                first..first + spec.block,
                &mut scratch,
                trace.then_some(&mut traced),
                &mut doc_ns,
                |i, got| {
                    out.attempted += 1;
                    match got {
                        Some(got) => churn.check(i, &expected, got, &mut out),
                        None => out.fail(|| format!("document {i} did not parse")),
                    }
                },
            );
            untraced_ns += b;
            work_ns += b;
            drop(snapshot);
            if let Some(window) = spec.removed_window {
                let w0 = Instant::now();
                churn.burst(
                    &exprs,
                    window,
                    &mut publisher,
                    &mut writes,
                    trace.then_some(&mut traced.tracer),
                    &mut out,
                );
                let w = ns(w0.elapsed());
                work_ns += w;
                writes_ns += w;
            }
            work.push(work_ns);
        }
        block_ns.push(work);
        pass_doc_ns.push(doc_ns);
        pass_write_p99.push(quantile(&mut writes.visible_ns, 0.99));
        full_rebuilds += rebuilds(&publisher, &handle.load()) - rebuilds_before;
        clone_fallbacks += publisher.clone_fallbacks();
        if block_ns.len() == 1 {
            // Peak RSS over the build and the first pass, above the RSS
            // before the build: what the engine, its snapshots and the
            // matching scratch took on top of the inputs.
            let peak = host::status_mib(None, "VmHWM");
            rss = peak.zip(rss_before).map_or(0.0, |(p, b)| p - b);
        }
        drop((publisher, handle));
        if Instant::now() >= deadline {
            break;
        }
        let t0 = Instant::now();
        engine = build(FilterEngine::default(), &exprs, None);
        if !trace {
            setup_s.push(t0.elapsed().as_secs_f64());
        }
    }
    let passes_done = block_ns.len();
    let pass_rate: Vec<f64> = block_ns
        .iter()
        .map(|w| pool as f64 / (w.iter().sum::<f64>() / 1e9))
        .collect();

    if !trace {
        out.set("setup_s", median(&mut setup_s));
        // Every pass does the same work, so each block's and each
        // document's fastest time over the passes is its time in the
        // quietest moments of a host whose cache and memory bandwidth it
        // shares with other tenants.
        let work_ns: f64 = fastest(&block_ns).iter().sum();
        out.set("docs_per_s", pool as f64 / (work_ns / 1e9));
        out.set(
            "doc_p99_ms",
            quantile(&mut fastest(&pass_doc_ns), 0.99) / 1e6,
        );
        out.set("rss_mb", rss);
    } else {
        // Snapshot loads, writes and publishes happen once per block, for
        // both passes; the traced documents are charged all of them.
        let per_doc = |total_ns: f64| total_ns / traced.docs as f64 / 1e3;
        let t = &traced.tracer;
        let maint = per_doc(t.total_ns("maint.add") + t.total_ns("maint.remove"));
        let snap = per_doc(t.total_ns("snapshot.publish") + t.total_ns("snapshot.load"));
        out.set("maint.us_per_doc", maint);
        out.set("snapshot.us_per_doc", snap);
        traced.set_layers(&mut out, &[maint, snap], writes_ns, untraced_ns);
        if spec.removed_window.is_some() {
            out.set("maint.write_p99_us", median(&mut pass_write_p99) / 1e3);
            out.set("maint.patch_us_per_op", writes.op.value() / 1e3);
            out.set(
                "snapshot.publish_us_p99",
                quantile(&mut writes.publish_ns, 0.99) / 1e3,
            );
        }
    }
    out.set("maint.full_rebuilds", full_rebuilds as f64);
    out.set("snapshot.clone_fallbacks", clone_fallbacks as f64);
    eprintln!(
        "  pass rates: {}",
        pass_rate
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    eprintln!(
        "  {passes_done} passes of {pool} documents, {} writes in {} publishes, {} set-ups",
        writes.ops,
        writes.publish_ns.len(),
        setup_s.len()
    );
    if trace {
        if let Err(e) = traced.tracer.write(&format!("{name}-seed{seed}.tsv")) {
            eprintln!("cannot write spans: {e}");
        }
    }
    Ok(out)
}
