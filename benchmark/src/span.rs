//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer. Nothing inside the program is instrumented.
//!
//! A span is (name, start, end, parent, op id). The traced replay runs
//! the same op through four entry points, outermost first; the span of
//! each inner entry point is recorded as the child of the next outer
//! one for the same op, so a layer's self time is its span minus what
//! its children cover.

use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The stream index of the op; spans of one op share it.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose spans are timed from `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Makes `child` a child of `parent` (the nested entry points are
    /// replayed one after another, so the link is made afterwards).
    pub fn adopt(&mut self, parent: u32, child: u32) {
        self.spans[child as usize].parent = Some(parent);
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children, floored at zero. Children here come from a separate
/// replay of the same op, so "the part of the interval its children
/// cover" is their duration, not an overlap of clock readings.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent as usize] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("wire", 0, 100, None),
            span("pool", 1000, 1060, Some(0)),
            span("engine", 2000, 2045, Some(1)),
            span("serial", 3000, 3040, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 15, 5, 40]);
        // The self times of a chain sum back to the outermost span.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_child_longer_than_its_parent_floors_at_zero() {
        let spans = vec![span("outer", 0, 10, None), span("inner", 20, 50, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 30]);
    }

    #[test]
    fn several_children_add_up() {
        let spans = vec![
            span("check", 0, 90, None),
            span("mux", 0, 20, Some(0)),
            span("filter", 20, 50, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30]);
    }

    #[test]
    fn recorder_links_spans_after_the_fact() {
        let mut r = Recorder::new(Instant::now());
        let a = r.push(span("wire", 0, 10, None));
        let b = r.push(span("pool", 20, 25, None));
        r.adopt(a, b);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(self_times(r.spans()), vec![5, 5]);
    }
}
