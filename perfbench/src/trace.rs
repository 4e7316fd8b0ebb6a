//! Unsampled spans recorded around calls into the program's layers.
//!
//! Every call is timed; none is sampled. Coarse calls (a run, a
//! checkpoint, one job's submit/wait/fetch) are kept as individual span
//! records with a name, start, end, parent and trace id. Hot calls that
//! happen millions of times per run (`TraceGen::next_op`,
//! `Hierarchy::access_shared`, ...) are timed one by one as well, but are
//! folded into their parent's record as a call count and a total, since
//! one record per call would not fit in memory.

use baryon_sim::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Calls folded into a parent span: every call timed, stored as a sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Folded {
    /// Layer name of the folded calls.
    pub name: &'static str,
    /// Number of calls.
    pub calls: u64,
    /// Total time inside the calls.
    pub ns: u64,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Shared by every span of one job or one run.
    pub trace_id: u64,
    /// Index of the parent span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Hot child calls folded into this span.
    pub folded: Vec<Folded>,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans or folded calls of this layer.
    pub calls: u64,
    /// Exclusive time: the layer's time minus the time of its children.
    pub self_ns: u64,
}

/// An in-memory span store, written out when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
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
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, trace_id: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.record(name, trace_id, parent, now, now)
    }

    /// Ends an open span now.
    pub fn close(&mut self, span: usize) {
        let now = self.now_ns();
        self.spans[span].end_ns = now;
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        trace_id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            trace_id,
            parent,
            start_ns,
            end_ns,
            folded: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Folds hot child calls into `span`.
    pub fn fold(&mut self, span: usize, folded: impl IntoIterator<Item = Folded>) {
        self.spans[span]
            .folded
            .extend(folded.into_iter().filter(|f| f.calls > 0));
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        trace_id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, trace_id, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls and exclusive time per layer name. A span's exclusive time
    /// is its duration minus the durations of its child spans and of its
    /// folded calls; folded calls have no children, so all of their time
    /// is their own.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let folded: u64 = span.folded.iter().map(|f| f.ns).sum();
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.self_ns += span.duration().saturating_sub(children + folded);
            for f in &span.folded {
                let entry = out.entry(f.name).or_default();
                entry.calls += f.calls;
                entry.self_ns += f.ns;
            }
        }
        out
    }

    /// Writes the spans to `<OUT_DIR>/spans-<pid>.jsonl` and returns a
    /// line saying where (or why not).
    pub fn write_out(&self) -> String {
        let path = Path::new(crate::OUT_DIR).join(format!("spans-{}.jsonl", std::process::id()));
        match self.write_jsonl(&path) {
            Ok(()) => format!("spans written to {}", path.display()),
            Err(e) => format!("cannot write spans to {}: {e}", path.display()),
        }
    }

    /// Writes one JSON object per span (folded calls inline) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let folded = span.folded.iter().map(|f| {
                Json::obj([
                    ("name", Json::from(f.name)),
                    ("calls", Json::from(f.calls)),
                    ("ns", Json::from(f.ns)),
                ])
            });
            let doc = Json::obj([
                ("index", Json::from(index as u64)),
                ("name", Json::from(span.name)),
                ("trace_id", Json::from(span.trace_id)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("start_ns", Json::from(span.start_ns)),
                ("end_ns", Json::from(span.end_ns)),
                ("folded", Json::arr(folded)),
            ]);
            text.push_str(&doc.render());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_folded_calls() {
        let mut t = Tracer::new();
        let root = t.record("root", 1, None, 0, 100);
        t.record("child", 1, Some(root), 10, 40);
        t.fold(
            root,
            [Folded {
                name: "leaf",
                calls: 5,
                ns: 20,
            }],
        );
        let layers = t.layers();
        assert_eq!(layers["root"].self_ns, 50);
        assert_eq!(layers["child"].self_ns, 30);
        assert_eq!(layers["leaf"].self_ns, 20);
        assert_eq!(layers["leaf"].calls, 5);
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, 100, "self times add up to the root's duration");
    }

    #[test]
    fn empty_folds_are_dropped() {
        let mut t = Tracer::new();
        let root = t.open("root", 0, None);
        t.fold(
            root,
            [Folded {
                name: "never",
                calls: 0,
                ns: 0,
            }],
        );
        t.close(root);
        assert!(!t.layers().contains_key("never"));
    }
}
