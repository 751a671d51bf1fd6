//! In-memory spans recorded around calls into the program's public
//! functions, and their reduction to per-layer self time, calls and
//! allocations.

use crate::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
pub struct Span {
    pub layer: &'static str,
    /// The op (sweep) or request (serve) this span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocation calls made on this thread between begin and end,
    /// children included.
    pub allocs: u64,
}

/// Per-layer totals over every recorded span.
#[derive(Default, Clone, Copy, PartialEq)]
pub struct LayerTotals {
    pub self_ns: u64,
    pub calls: u64,
    pub self_allocs: u64,
}

/// Span recorder plus the extra counts the layers report.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
    op: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer whose count names are fixed up front, so that recording
    /// a count never allocates inside a span.
    pub fn new(count_names: &[&'static str]) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
            op: 0,
            counts: count_names.iter().map(|&n| (n, 0.0)).collect(),
        }
    }

    /// Spans recorded from now on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span for `layer`, nested in the innermost open span.
    pub fn begin(&mut self, layer: &'static str) {
        let parent = self.open.last().map(|&(i, _)| i);
        self.spans.push(Span {
            layer,
            op: self.op,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        let idx = self.spans.len() - 1;
        // Read the counters after the push, so the recorder's own
        // growth is never charged to a layer.
        let allocs = alloc::counts().0;
        self.spans[idx].start_ns = self.now_ns();
        self.open.push((idx, allocs));
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let allocs = alloc::counts().0;
        let (idx, start_allocs) = self.open.pop().expect("end() matches a begin()");
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.allocs = allocs - start_allocs;
    }

    /// Time `f` as one call into `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(layer);
        let out = f();
        self.end();
        out
    }

    /// Add `v` to the named count (declared in [`Tracer::new`]).
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self
            .counts
            .get_mut(name)
            .unwrap_or_else(|| panic!("count `{name}` was not declared")) += v;
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Self time, calls and self allocations per layer, over the spans
    /// of the ops `keep` accepts.
    pub fn layers(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
                child_allocs[p] += s.allocs;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| keep(s.op)) {
            let t = out.entry(s.layer).or_default();
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            t.calls += 1;
            t.self_allocs += s.allocs - child_allocs[i];
        }
        out
    }

    /// Share of self time spent in `layer` over the ops `keep` accepts.
    pub fn share(&self, layer: &str, keep: impl Fn(u64) -> bool) -> f64 {
        let layers = self.layers(keep);
        let total: u64 = layers.values().map(|t| t.self_ns).sum();
        layers
            .get(layer)
            .map_or(0.0, |t| t.self_ns as f64 / total.max(1) as f64)
    }

    /// Forget every span and zero every count.
    pub fn clear(&mut self) {
        self.spans.clear();
        for v in self.counts.values_mut() {
            *v = 0.0;
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"layer\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.layer, s.op, s.start_ns, s.end_ns, s.allocs
            );
        }
        std::fs::write(path, out)
    }
}
