//! In-memory spans recorded around calls into each layer's public
//! functions. The program itself is not instrumented: a span's duration
//! is the wall time of the wrapped call, measured from this side.

use std::io::Write;
use std::time::Instant;

/// One timed call. `parent` is the id of the enclosing span (0 = none);
/// every span of one document shares the document span as parent.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Allocates a span id ahead of recording, so child spans can name
    /// their parent before it ends.
    pub fn reserve(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub fn record(
        &mut self,
        id: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
    }

    /// Records a span with a fresh id; returns the id.
    pub fn span(&mut self, parent: u32, name: &'static str, start: Instant, end: Instant) -> u32 {
        let id = self.reserve();
        self.record(id, parent, name, start, end);
        id
    }

    /// Total nanoseconds of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_nanos() as f64)
            // A float `sum()` of no spans is -0.0.
            .fold(0.0, |a, b| a + b)
    }

    /// Writes every span as tab-separated `id parent name start_ns end_ns`
    /// (nanoseconds since the tracer was created) under `.bench_trace/`.
    pub fn write(&self, file_name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(".bench_trace")?;
        let path = std::path::Path::new(".bench_trace").join(file_name);
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.name,
                (s.start - self.origin).as_nanos(),
                (s.end - self.origin).as_nanos()
            )?;
        }
        out.flush()
    }
}
