//! In-memory spans around the benchmark's calls into each layer, and
//! self time computed from them.
//!
//! A span has a name (the layer, e.g. `protocol.decode`), a start and an
//! end in nanoseconds since the recorder was created, the span that
//! caused it, and the id of the request it belongs to. Spans stay in
//! memory until the run ends and are then written out as NDJSON, so the
//! recording cost is one `Instant::now()` pair and a `Vec` push.
//!
//! A layer's self time is its spans' durations minus the part of each
//! interval that its child spans cover. Children may overlap (a hedged
//! forward and its primary, say); the covered part is the union of the
//! children's intervals clipped to the parent, so overlap is counted once.

use crate::{Ctx, Metrics};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Request the span belongs to; spans of one request share it.
    pub request: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder's origin.
    pub start: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end: u64,
}

/// Records nested spans for a single thread. A disabled recorder runs
/// the timed closures and records nothing, so the traced and untraced
/// code paths are the same code.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder; `enabled = false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; pair with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let idx = self.open.pop().expect("close without a matching open");
        self.spans[idx].end = end;
    }

    /// Renames the innermost open span, for spans whose kind is only
    /// known part-way through (a store hit versus a cold miss).
    pub fn rename(&mut self, name: &'static str) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].name = name;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, request);
        let out = f();
        self.close();
        out
    }

    /// Adds a span measured elsewhere (start/end in this recorder's clock).
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Nanoseconds since the origin, for spans passed to [`record`](Self::record).
    pub fn clock(&self) -> u64 {
        self.now()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as NDJSON, one object per line.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write_ndjson(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start, s.end
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time per span: duration minus the union of its children's
/// intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer name, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *totals.entry(s.name).or_insert(0) += own;
    }
    totals
}

/// Durations (ns) of every span with `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .collect()
}

/// Adds `self.<layer>_ms`, the total self time of the spans named
/// `<layer>` or `<layer>.*`, for each of `layers` that has spans. A layer
/// without spans gets no metric, so it reads as not measured.
pub fn self_time_metrics(rec: &Recorder, layers: &[&str], m: &mut Metrics) {
    let by_name = self_time_by_layer(rec.spans());
    for layer in layers {
        let mut own = by_name.iter().filter(|(name, _)| {
            name.strip_prefix(layer)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        });
        if let Some(first) = own.next() {
            let ns: u64 = first.1 + own.map(|(_, &ns)| ns).sum::<u64>();
            m.add(&format!("self.{layer}_ms"), ns as f64 / 1e6, "ms");
        }
    }
}

/// Writes the spans to `<results>/<stem>-seed<n>.spans.ndjson` and notes
/// where.
///
/// # Errors
///
/// Returns a message naming the file that could not be written.
pub fn write(ctx: &Ctx, stem: &str, rec: &Recorder, m: &mut Metrics) -> Result<(), String> {
    let path = ctx
        .results
        .join(format!("{stem}-seed{}.spans.ndjson", ctx.seed));
    rec.write_ndjson(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    m.notes.push(format!(
        "{} spans written to {}",
        rec.spans().len(),
        path.display()
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),
            // Runs past the parent's end: only 80..100 counts.
            span("c", Some(0), 80, 120),
            // Fully inside `a`: covers nothing new for the parent.
            span("d", Some(0), 15, 20),
            span("leaf", Some(1), 12, 22),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - (60 - 10) - (100 - 80));
        assert_eq!(own[1], 30 - 10);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 40);
        assert_eq!(own[5], 10);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["request"], 30);
        assert_eq!(by_layer["a"], 20);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.open("request", 7);
        let v = rec.time("inner", 7, || 42);
        rec.close();
        assert_eq!(v, 42);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[1].request, 7);
        assert!(rec.spans()[0].start <= rec.spans()[1].start);
        assert!(rec.spans()[1].end <= rec.spans()[0].end);

        let mut off = Recorder::new(false);
        off.open("request", 1);
        assert_eq!(off.time("inner", 1, || 5), 5);
        off.close();
        assert!(off.spans().is_empty());
    }
}
