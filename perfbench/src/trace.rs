//! In-memory span recording and self-time attribution.
//!
//! A [`Tracer`] records spans — name, start, end, parent, operation id —
//! around the benchmark's own calls into each layer's public functions.
//! Spans opened with [`Tracer::span`] nest through a stack on the
//! driving thread; [`Tracer::leaf`] records a span whose parent is the
//! innermost open span, which is how policy builds on the engine's
//! worker threads attach to the evaluation that caused them.
//!
//! A span's **self time** is its duration minus the part of its
//! interval that the union of its children's intervals covers
//! ([`self_times`]). Children on other threads may overlap each other;
//! the union never counts a nanosecond twice, so self times are never
//! negative and the self times of a tree add up to its root's duration.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `cache.load`.
    pub name: String,
    /// Start, ns since the tracer epoch.
    pub start_ns: u64,
    /// End, ns since the tracer epoch (`start_ns` while still open).
    pub end_ns: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Operation (request / race call) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Span recorder shared by the replica and the counting wrappers.
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Empty recorder; its epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tag the spans recorded from now on with operation `op`.
    pub fn set_op(&self, op: u64) {
        self.lock().op = op;
    }

    /// Open a span under the innermost open one and make it innermost.
    pub fn begin(&self, name: &str) -> usize {
        let now = self.now_ns();
        let mut inner = self.lock();
        let id = inner.spans.len();
        let parent = inner.stack.last().copied();
        let op = inner.op;
        inner.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        inner.stack.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&self, id: usize) {
        let now = self.now_ns();
        let mut inner = self.lock();
        let top = inner.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        inner.spans[id].end_ns = now;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Record an already-finished span under the innermost open span
    /// (callable from any thread; it does not become innermost).
    pub fn leaf(&self, name: &str, start_ns: u64, end_ns: u64) {
        let mut inner = self.lock();
        let parent = inner.stack.last().copied();
        let op = inner.op;
        inner.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            op,
        });
    }

    /// Snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Write every span as one JSON line (`name`, `start_ns`, `end_ns`,
    /// `parent`, `op`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        out.flush()
    }
}

/// Length of the part of `[lo, hi)` covered by the union of
/// `intervals`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        let b = b.min(hi);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Self time of every span: its duration minus its children's coverage
/// of its interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed duration, ns.
    pub dur_ns: u64,
}

/// Aggregate self time and duration by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.self_ns += self_ns;
        t.dur_ns += s.dur_ns();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn coverage_merges_overlaps_and_clips_to_the_parent() {
        let mut iv = [(10, 30), (20, 50), (90, 120)];
        assert_eq!(covered_ns(0, 100, &mut iv), 40 + 10);
        let mut nested = [(10, 50), (20, 30)];
        assert_eq!(covered_ns(0, 100, &mut nested), 40);
        assert_eq!(covered_ns(0, 100, &mut []), 0);
        let mut outside = [(200, 300)];
        assert_eq!(covered_ns(0, 100, &mut outside), 0);
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        // op [0,100): decode [0,10), evaluate [10,90) holding two
        // overlapping worker-thread builds [20,40) and [30,50), encode
        // [90,98).
        let spans = vec![
            span("op", 0, 100, None),
            span("decode", 0, 10, Some(0)),
            span("evaluate", 10, 90, Some(0)),
            span("build", 20, 40, Some(2)),
            span("build", 30, 50, Some(2)),
            span("encode", 90, 98, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![2, 10, 50, 20, 20, 8]);
        // The builds overlap, so their self times over-count wall time;
        // the tree's non-overlapping levels add up exactly.
        assert_eq!(selfs[0] + selfs[1] + selfs[2] + 30 + selfs[5], 100);
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["build"].count, 2);
        assert_eq!(by_name["build"].self_ns, 40);
        assert_eq!(by_name["evaluate"].dur_ns, 80);
        assert_eq!(by_name["evaluate"].self_ns, 50);
    }

    #[test]
    fn tracer_nests_spans_and_parents_leaves() {
        let t = Tracer::new();
        t.set_op(7);
        let root = t.begin("op");
        let inner = t.span("engine.evaluate", || {
            let now = t.now_ns();
            t.leaf("registry.build.x", now, now);
            t.span("nested", || 5)
        });
        assert_eq!(inner, 5);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "registry.build.x");
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let selfs = self_times(&spans);
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].dur_ns());
    }
}
