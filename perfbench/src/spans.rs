//! In-memory span recorder for traced runs. Spans are recorded from the
//! benchmark's own code around calls into each layer's public API — the
//! program itself carries no tracing — and written out as JSON lines when
//! the run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span: a named interval, the span that caused it, and the
/// request (problem index or admission id) it belongs to.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: Option<u64>,
    attrs: Vec<(&'static str, f64)>,
}

/// The span store of one run.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty store whose timestamps count from now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records `[start, end]` under `name` and returns the span's id (its
    /// index), for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
            attrs: Vec::new(),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span at `start` whose end [`Spans::close`] sets, so that
    /// children recorded meanwhile can name it as their parent.
    pub fn open(&mut self, name: &'static str, start: Instant, parent: Option<usize>) -> usize {
        self.record(name, start, start, parent, None)
    }

    /// Sets the end of span `id`.
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    /// Attaches a numeric attribute to span `id`.
    pub fn attr(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].attrs.push((key, value));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            for (k, v) in &s.attrs {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}
