//! The benchmark's own span recorder.
//!
//! In a traced run every call into a layer's public function is wrapped in a
//! span (name, start, end, parent, pass id). Spans stay in memory and are
//! written once, at exit, in Chrome `trace_events` form. A layer's *self
//! time* is its span's duration minus the part its child spans cover; the
//! sum of self times over all spans of a pass equals the pass's duration,
//! which is what makes the per-layer numbers add up.
//!
//! The recorder lives in the benchmark, outside the program under test, and
//! is used on one thread only: traced passes run their sweeps serially.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `netsim.sim.run_cycles`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The pass this span belongs to.
    pub pass: u32,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
}

/// In-memory span store with a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }
}

impl Recorder {
    /// Sets the pass id stamped on spans opened from now on.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let now = self.now_ns();
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until only `depth` remain — used after a caught
    /// panic unwound past their `exit` calls.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_events` JSON (open in <https://ui.perfetto.dev>).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or(-1, i64::from);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"pass\":{},\"id\":{i},\"parent\":{parent}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.pass,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-name totals over the spans of one pass.
pub fn totals_by_name(spans: &[Span], pass: u32) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.pass == pass) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
    }
    out
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
            pass: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // pass [0,100] ─ case [10,90] ─ a [20,40] ─ a.inner [25,30]
        //                             └ b [50,80]
        let spans = [
            span("pass", 0, 100, None),
            span("case", 10, 90, Some(0)),
            span("a", 20, 40, Some(1)),
            span("a.inner", 25, 30, Some(2)),
            span("b", 50, 80, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 15, 5, 30]);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn totals_group_by_name_within_one_pass() {
        let mut spans = vec![
            span("pass", 0, 100, None),
            span("x", 10, 30, Some(0)),
            span("x", 40, 70, Some(0)),
        ];
        spans.push(Span {
            pass: 2,
            ..span("x", 200, 300, None)
        });
        let totals = totals_by_name(&spans, 1);
        assert_eq!(
            totals["x"],
            NameTotals {
                calls: 2,
                total_ns: 50
            }
        );
        assert_eq!(
            totals["pass"],
            NameTotals {
                calls: 1,
                total_ns: 100
            }
        );
    }

    #[test]
    fn recorder_nests_unwinds_and_exports() {
        let mut r = Recorder::default();
        r.set_pass(3);
        r.enter("outer");
        r.enter("inner");
        r.exit();
        r.enter("left_open");
        assert_eq!(r.depth(), 2);
        r.unwind_to(0);
        assert_eq!(r.depth(), 0);
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|s| s.pass == 3 && s.end_ns >= s.start_ns));
        assert!(s[0].end_ns >= s[2].end_ns);
        let json = r.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.trim_end().ends_with("]}"));
    }
}
