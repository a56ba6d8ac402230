//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer: name, start, end, the enclosing span, and a request id (the
//! replayed packet a hop belongs to). They stay in memory until the run
//! ends and are then summarised and written out. A disabled tracer
//! records nothing, so the untraced end-to-end run pays one branch per
//! set-up phase.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name aggregate of recorded spans.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations (ns).
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans (ns).
    pub self_ns: u64,
    /// Every duration (ns), in recording order.
    pub durations: Vec<u64>,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

impl Tracer {
    /// A recorder that keeps nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Self {
            on: true,
            ..Self::off()
        }
    }

    /// Tags the spans that follow with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span nested in the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NONE);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.spans.push(Span {
            name,
            parent,
            request: self.request,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        // Read the clock last, so the bookkeeping above is outside the span.
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanId(id)
    }

    /// Closes `span`, which must be the innermost open one.
    #[inline]
    pub fn end(&mut self, span: SpanId) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop().expect("end without begin");
        debug_assert_eq!(top, span.0, "spans must nest");
        self.spans[top as usize].end_ns = now;
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name aggregates of the spans recorded from index `first` on,
    /// with self time computed from the spans' parent links.
    pub fn summary_from(&self, first: usize) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns).skip(first) {
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += d;
            e.self_ns += d.saturating_sub(*child);
            e.durations.push(d);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent request name start_ns end_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}
