//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public
//! functions; nothing inside the program is instrumented. Every span keeps
//! its name, start, end, parent and the amount of work the call was given
//! (bytes or items), stays in memory while the workload runs, and is written
//! out as JSON lines when it ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `wal.append`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Work handed to the call: bytes for byte-rate layers, items otherwise.
    pub work: f64,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpSummary {
    /// Spans with this name.
    pub calls: u64,
    /// Summed span durations, seconds.
    pub busy_s: f64,
    /// Summed durations minus the time covered by child spans, seconds.
    pub self_s: f64,
    /// Summed work.
    pub work: f64,
}

/// Single-threaded span recorder. Spans nest through closures:
/// `tracer.span("a", 0.0, || tracer.span("b", 1.0, f))`.
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` that carries `work`.
    pub fn span<T>(&self, name: &'static str, work: f64, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.open.last().copied();
            let idx = inner.spans.len();
            let start_ns = self.now_ns();
            inner.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                work,
            });
            inner.open.push(idx);
            idx
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.open.pop();
        inner.spans[idx].end_ns = end_ns;
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Totals per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, OpSummary> {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, OpSummary> = BTreeMap::new();
        for (s, children) in inner.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.busy_s += dur as f64 * 1e-9;
            e.self_s += dur.saturating_sub(children) as f64 * 1e-9;
            e.work += s.work;
        }
        out
    }

    /// Share of the first span named `root` covered by its direct children:
    /// how much of that region's wall time the timed layer calls explain.
    pub fn coverage(&self, root: &str) -> f64 {
        let inner = self.inner.borrow();
        let Some(idx) = inner.spans.iter().position(|s| s.name == root) else {
            return 0.0;
        };
        let total = inner.spans[idx].end_ns - inner.spans[idx].start_ns;
        let covered: u64 = inner
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        covered as f64 / total.max(1) as f64
    }

    /// Duration in seconds of the first span named `name` (0 if none).
    pub fn duration_s(&self, name: &str) -> f64 {
        let inner = self.inner.borrow();
        inner
            .spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .unwrap_or(0.0)
    }

    /// Write one JSON object per span: `id`, `name`, `start_ns`, `end_ns`,
    /// `parent` (null for roots) and `work`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.inner.borrow().spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"work\":{}}}",
                s.name, s.start_ns, s.end_ns, s.work
            )?;
        }
        out.flush()
    }
}

/// Run `f` inside a span when tracing, or plainly otherwise.
pub fn call<T>(tracer: Option<&Tracer>, name: &'static str, work: f64, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, work, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_parents_and_split_self_time() {
        let t = Tracer::new();
        t.span("root", 0.0, || {
            t.span("child", 2.0, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("child", 3.0, || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let sum = t.summary();
        assert_eq!(sum["child"].calls, 2);
        assert_eq!(sum["child"].work, 5.0);
        assert!(sum["root"].self_s < sum["root"].busy_s);
        let cov = t.coverage("root");
        assert!(cov > 0.0 && cov <= 1.0, "coverage {cov}");
    }
}
