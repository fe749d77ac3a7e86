//! In-memory spans for the traced replay: `{name, op, parent, start,
//! end}` recorded around each call into a layer, and the self-time
//! arithmetic over them.
//!
//! Spans are recorded from the benchmark's own files only; the program
//! under test carries none. A span's *self time* is its duration minus
//! the part of its interval that its child spans cover.

use crate::stats::{self, Summary};
use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent": the span is a root of its op.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The script op that caused it (spans of one op share it).
    pub op: u32,
    /// Index of the enclosing span in the dump, or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans in memory; a disabled tracer runs the closures bare,
/// which is the `--no-spans` side of `trace.overhead_ratio`.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Sets the op id stamped on the spans recorded from here on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. `f` receives the tracer back to open nested spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the parent, overlapping children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name roll-up of a span dump.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameStats {
    pub calls: u64,
    /// Summed self time, milliseconds.
    pub self_ms: f64,
    /// 95th percentile of the call durations, milliseconds.
    pub ms_p95: f64,
}

pub fn roll_up(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times_ns(spans);
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let ms = (s.end_ns - s.start_ns) as f64 / 1e6;
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.self_ms += self_ns as f64 / 1e6;
        durations.entry(s.name).or_default().push(ms);
    }
    for (name, mut d) in durations {
        stats::sort(&mut d);
        out.get_mut(name).expect("same keys").ms_p95 = Summary::of(&d).p95;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_intervals_once() {
        let spans = vec![
            span("root", NO_PARENT, 0, 100),
            span("a", 0, 10, 30),
            // Overlaps `a`: the union [10, 40) is 30 ns, not 20 + 20.
            span("b", 0, 20, 40),
            // Sticks out past the parent: clipped to [90, 100).
            span("c", 0, 90, 120),
            span("leaf", 1, 12, 18),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 14, 20, 30, 6]);
    }

    #[test]
    fn roll_up_sums_self_time_per_name() {
        let spans = vec![
            span("commit", NO_PARENT, 0, 1_000_000),
            span("wal", 0, 200_000, 700_000),
            span("commit", NO_PARENT, 2_000_000, 2_400_000),
        ];
        let r = roll_up(&spans);
        assert_eq!(r["commit"].calls, 2);
        assert!((r["commit"].self_ms - 0.9).abs() < 1e-9);
        assert!((r["wal"].self_ms - 0.5).abs() < 1e-9);
        assert!((r["commit"].ms_p95 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tracer_nests_and_stamps_ops() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let v = t.span("outer", |t| t.span("inner", |_| 42));
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", NO_PARENT, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
