//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and op id. Spans are buffered per
//! chunk; [`Tracer::fold`] (called between chunks, untimed) computes each
//! span's self time — its duration minus its children's — adds the span to
//! a per-name aggregate, and keeps the first [`KEEP_SPANS`] spans, with
//! their self times, so they can be written out when the run ends. The
//! aggregates feed the per-layer metrics.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Raw spans kept for writing out; later spans are aggregated only.
pub const KEEP_SPANS: usize = 100_000;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call this span covers.
    pub name: &'static str,
    /// Index of the parent span among the kept spans, if any.
    pub parent: Option<u32>,
    /// The op (or chunk, or tick) this span belongs to.
    pub op: u64,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Duration minus the durations of the span's children.
    pub self_ns: i64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Spans seen.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
}

impl Agg {
    /// Mean duration, or 0 when no span was seen.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Open {
    name: &'static str,
    parent: u32,
    op: u64,
    start: u64,
    end: u64,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    open: Vec<Open>,
    kept: Vec<Span>,
    aggs: BTreeMap<&'static str, Agg>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            open: Vec::with_capacity(4096),
            kept: Vec::new(),
            aggs: BTreeMap::new(),
            op: 0,
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the op id stamped on spans begun from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Starts a span under `parent` (an id returned by an earlier `begin`
    /// since the last fold) and returns its id.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.open.push(Open {
            name,
            parent: parent.map_or(NO_PARENT, |p| p as u32),
            op: self.op,
            start,
            end: start,
        });
        self.open.len() - 1
    }

    /// Ends span `id`.
    #[inline]
    pub fn end(&mut self, id: usize) {
        let now = self.now();
        self.open[id].end = now;
    }

    /// Duration of span `id`, which must have ended since the last fold.
    #[must_use]
    pub fn duration(&self, id: usize) -> u64 {
        self.open[id].end - self.open[id].start
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Folds the buffered spans into the aggregates and empties the buffer.
    /// Every span begun since the last fold must have ended.
    pub fn fold(&mut self) {
        let mut child_ns = vec![0u64; self.open.len()];
        for s in &self.open {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let base = self.kept.len();
        let keep = self.open.len() <= KEEP_SPANS.saturating_sub(base);
        for (i, s) in self.open.iter().enumerate() {
            let dur = s.end - s.start;
            let self_ns = dur as i64 - child_ns[i] as i64;
            let agg = self.aggs.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += dur;
            if keep {
                self.kept.push(Span {
                    name: s.name,
                    parent: (s.parent != NO_PARENT).then(|| (base + s.parent as usize) as u32),
                    op: s.op,
                    start: s.start,
                    end: s.end,
                    self_ns,
                });
            }
        }
        self.open.clear();
    }

    /// Totals for `name` (zero when no such span was recorded).
    #[must_use]
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Number of spans recorded, kept or not.
    #[must_use]
    pub fn total_spans(&self) -> u64 {
        self.aggs.values().map(|a| a.count).sum()
    }

    /// Folds what is left and returns the kept spans.
    #[must_use]
    pub fn finish(mut self) -> Vec<Span> {
        self.fold();
        self.kept
    }
}

/// Writes spans as tab-separated values, one per line.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\tparent\top\tstart_ns\tend_ns\tself_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{parent}\t{}\t{}\t{}\t{}",
            s.name, s.op, s.start, s.end, s.self_ns
        )?;
    }
    out.flush()
}
