//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer's public function:
//! a layer, a name, start and end (ns since the recorder was made) and the
//! span that was open when it began. Spans are kept in memory and written
//! out once the run ends. A disarmed recorder records nothing, so the
//! untraced run pays one branch per call site.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer the call went into (`core`, `wse-arch`, ...; `bench` for the
    /// benchmark's own grouping spans).
    pub layer: &'static str,
    /// Function or phase name within the layer.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start: u64,
    /// End, ns since the recorder was created.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records nested spans; `begin`/`end` must pair up in LIFO order.
pub struct Tracer {
    armed: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `armed == false` makes every call a no-op.
    pub fn new(armed: bool) -> Tracer {
        Tracer { armed, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// ns since the recorder was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) {
        if !self.armed {
            return;
        }
        let start = self.now();
        self.spans.push(Span { layer, name, start, end: start, parent: self.open.last().copied() });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// Panics if no span is open.
    pub fn end(&mut self) {
        if !self.armed {
            return;
        }
        let i = self.open.pop().expect("end() without a matching begin()");
        self.spans[i].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(layer, name);
        let r = f();
        self.end();
        r
    }

    /// Every span recorded so far, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as one JSON document (written out when the run ends).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "  {{\"id\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}{}",
                sp.layer,
                sp.name,
                sp.start,
                sp.end,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        s.push_str("]}\n");
        s
    }
}

/// Total length of the union of `intervals` (overlaps counted once).
pub fn covered(intervals: &[(u64, u64)]) -> u64 {
    let mut iv = intervals.to_vec();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, ns: its duration minus the part of it that
/// its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            children[p].push((sp.start.max(spans[p].start), sp.end.min(spans[p].end)));
        }
    }
    spans.iter().zip(&children).map(|(sp, ch)| (sp.end - sp.start) - covered(ch)).collect()
}

/// Self time per layer, ns, in first-seen order.
pub fn layer_self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (sp, t) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(l, _)| *l == sp.layer) {
            Some((_, acc)) => *acc += t,
            None => out.push((sp.layer, t)),
        }
    }
    out
}

/// Share of the window `[start, end)` that no span covers.
pub fn uncovered_share(spans: &[Span], start: u64, end: u64) -> f64 {
    let roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start.max(start), s.end.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    let wall = end - start;
    (wall - covered(&roots)) as f64 / wall as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { layer, name: "f", start, end, parent }
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(covered(&[]), 0);
        assert_eq!(covered(&[(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered(&[(20, 25), (0, 10), (2, 3)]), 15);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > a.x [15,35); root > b [50,70).
        let spans = vec![
            span("core", 0, 100, None),
            span("wse-arch", 10, 40, Some(0)),
            span("wse-arch", 15, 35, Some(1)),
            span("wse-lint", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 20, 20]);
        // Self times partition the root's wall time.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(
            layer_self_times(&spans),
            vec![("core", 50), ("wse-arch", 30), ("wse-lint", 20)]
        );
    }

    #[test]
    fn uncovered_share_counts_gaps_between_roots() {
        let spans =
            vec![span("a", 10, 30, None), span("b", 20, 40, None), span("c", 25, 26, Some(0))];
        // Window [0, 100): roots cover [10, 40) = 30 ns.
        assert!((uncovered_share(&spans, 0, 100) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_disarmed_records_nothing() {
        let mut t = Tracer::new(true);
        t.span("bench", "outer", || ());
        t.begin("core", "iterate");
        t.span("wse-arch", "spmv", || ());
        t.end();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, None, Some(1)));
        assert!(s[2].start >= s[1].start && s[2].end <= s[1].end);

        let mut off = Tracer::new(false);
        off.span("core", "iterate", || ());
        assert!(off.spans().is_empty());
    }
}
