//! The tracer: spans recorded from outside the program, around each
//! call into a layer's public function. Kept in memory, written out
//! when the pass ends. Single-threaded by design — the traced pass
//! replays requests by hand on one thread, so parentage is a stack.

use std::time::Instant;

use crate::stats::median;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index into [`Tracer::names`].
    pub name: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The request (or instance) the span belongs to.
    pub req: u32,
}

#[derive(Debug)]
pub struct Tracer {
    /// Off: `span` only calls its closure — the same code path run
    /// untraced, which is what tracing overhead is measured against.
    on: bool,
    epoch: Instant,
    pub names: Vec<&'static str>,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        let at = self
            .names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| {
                self.names.push(name);
                self.names.len() - 1
            });
        u16::try_from(at).expect("a handful of span names")
    }

    /// Runs `f` inside a span named `name` for request `req`; spans
    /// opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, req: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let name = self.name_id(name);
        let id = u32::try_from(self.spans.len()).expect("span count fits u32");
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            req,
        });
        self.stack.push(id);
        // Clock reads sit innermost so bookkeeping lands in the
        // parent's self time, not in this span.
        let start = self.epoch.elapsed();
        let result = f(self);
        let end = self.epoch.elapsed();
        self.stack.pop();
        let span = &mut self.spans[id as usize];
        span.start_ns = start.as_nanos() as u64;
        span.end_ns = end.as_nanos() as u64;
        result
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Children of one parent never overlap (one thread, one
/// stack), so the covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != ROOT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Per-name summary of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    pub name: &'static str,
    pub count: usize,
    pub median_self_us: f64,
    pub median_total_us: f64,
    /// True when no span of this name has a parent.
    pub root: bool,
}

/// Summarizes the spans of the requests `keep` selects.
pub fn summarize(tracer: &Tracer, keep: impl Fn(u32) -> bool) -> Vec<StageSummary> {
    let own = self_times(&tracer.spans);
    tracer
        .names
        .iter()
        .enumerate()
        .filter_map(|(id, name)| {
            let mut selfs = Vec::new();
            let mut totals = Vec::new();
            let mut root = true;
            for (span, own) in tracer.spans.iter().zip(&own) {
                if usize::from(span.name) == id && keep(span.req) {
                    selfs.push(*own as f64 / 1e3);
                    totals.push((span.end_ns - span.start_ns) as f64 / 1e3);
                    root &= span.parent == ROOT;
                }
            }
            (!selfs.is_empty()).then(|| StageSummary {
                name,
                count: selfs.len(),
                median_self_us: median(&selfs),
                median_total_us: median(&totals),
                root,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: 0,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(0, 100, ROOT),   // 0: root
            span(10, 40, 0),      // 1: child, 30 long
            span(15, 25, 1),      // 2: grandchild, 10 long — nested in 1
            span(40, 70, 0),      // 3: child adjacent to 1, 30 long
            span(200, 250, ROOT), // 4: a second root, no children
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30, 50]);
    }

    #[test]
    fn tracer_records_parentage_and_request() {
        let mut t = Tracer::new(true);
        let got = t.span("request", 7, |t| {
            t.span("decode", 7, |_| ());
            t.span("submit", 7, |t| t.span("flush", 7, |_| 5))
        });
        assert_eq!(got, 5);
        assert_eq!(t.names, vec!["request", "decode", "submit", "flush"]);
        let parents: Vec<u32> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![ROOT, 0, 0, 2]);
        assert!(t.spans.iter().all(|s| s.req == 7 && s.end_ns >= s.start_ns));
        // Children lie inside their parents.
        for s in &t.spans[1..] {
            let p = &t.spans[s.parent as usize];
            assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
        }
        let summary = summarize(&t, |_| true);
        assert!(summarize(&t, |req| req != 7).is_empty());
        assert_eq!(summary.len(), 4);
        assert!(summary[0].root && !summary[1].root);
        assert_eq!(summary[3].count, 1);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("request", 1, |t| t.span("decode", 1, |_| 3)), 3);
        assert!(off.spans.is_empty() && off.names.is_empty());
    }
}
