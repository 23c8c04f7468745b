//! Spans recorded from outside, around calls into each layer. They
//! stay in memory, one request in 64 is kept, and they are written to
//! `perf/out/trace-<workload>.jsonl` when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Requests sampled: one in `SAMPLE`.
const SAMPLE: u64 = 64;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: &'static str,
    request: u64,
}

/// The span store, with a cursor: a stage runs from the cursor to the
/// clock reading that closes it, which becomes the next cursor.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    cursor: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            cursor: epoch,
            spans: Vec::new(),
        }
    }

    pub fn sampled(request: u64) -> bool {
        request.is_multiple_of(SAMPLE)
    }

    /// Moves the cursor to now: the start of a request.
    pub fn mark(&mut self) -> Instant {
        self.cursor = Instant::now();
        self.cursor
    }

    /// Closes the stage `name` begun at the cursor and returns its ns;
    /// records it under `parent` if `keep`.
    pub fn stage(
        &mut self,
        name: &'static str,
        parent: &'static str,
        request: u64,
        keep: bool,
    ) -> u64 {
        let (start, end) = (self.cursor, Instant::now());
        self.cursor = end;
        if keep {
            self.push(name, parent, request, start);
        }
        end.duration_since(start).as_nanos() as u64
    }

    /// Records a request's root span, from `start` to the cursor.
    pub fn root(&mut self, name: &'static str, request: u64, start: Instant, keep: bool) {
        if keep {
            self.push(name, "", request, start);
        }
    }

    fn push(&mut self, name: &'static str, parent: &'static str, request: u64, start: Instant) {
        self.spans.push(Span {
            name,
            start,
            end: self.cursor,
            parent,
            request,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos();
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":\"{}\",\"request\":{}}}",
                s.name,
                ns(s.start),
                ns(s.end),
                s.parent,
                s.request
            )?;
        }
        out.flush()
    }
}
