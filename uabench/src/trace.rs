//! Span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public functions; they stay in memory (one buffer per
//! thread, no locking on the hot path) and are written out when the run
//! ends.

use crate::json::Json;
use std::time::Instant;

/// One recorded span.  `parent == 0` marks a root; spans of one request
/// share `request`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Span-specific tag: the request's shape index, or the writer's op
    /// kind.
    pub tag: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn duration_us(&self) -> f64 {
        self.duration_ns() as f64 / 1000.0
    }
}

/// A per-thread span buffer.  Ids are unique across buffers with distinct
/// `lane`s.
pub struct SpanBuf {
    epoch: Instant,
    lane: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanBuf {
    /// A buffer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, lane: u64) -> SpanBuf {
        SpanBuf {
            epoch,
            lane,
            next: 1,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Allocates the id of a span that will be recorded once its children
    /// are known (a parent is recorded after the spans it caused).
    pub fn alloc_id(&mut self) -> u64 {
        let id = (self.lane << 40) | self.next;
        self.next += 1;
        id
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        tag: u32,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.alloc_id();
        self.record_as(id, name, parent, request, tag, start, end);
        id
    }

    /// Records a finished span under an id from [`alloc_id`](Self::alloc_id).
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        tag: u32,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            tag,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.record(name, parent, request, 0, start, Instant::now());
        value
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover (overlapping children are not counted twice, and
/// children are clipped to the parent).
pub fn self_time_ns(span: &Span, children: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = span.start_ns;
    for (start, end) in intervals {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    span.duration_ns() - covered
}

/// Renders spans as a JSON array (one object per span).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let obj = Json::obj([
            ("id", Json::Num(s.id as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("request", Json::Num(s.request as f64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("tag", Json::Num(f64::from(s.tag))),
        ]);
        out.push_str(&obj.render());
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}
