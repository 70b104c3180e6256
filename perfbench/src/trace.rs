//! Bench-side spans and counts.
//!
//! The benchmark wraps each call into a layer's public entry point in a
//! span (name, start, end, parent, op id, allocations). Spans stay in
//! memory and are written out when the run ends. A disabled tracer
//! records nothing: its `layer` is a direct call.

use crate::alloc;
use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One completed span.
pub struct SpanRec {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations and bytes counted while the span was open
    /// (including its children).
    pub allocs: u64,
    pub bytes: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: its slot and the counters at its start.
pub struct Open {
    slot: usize,
    t0: Instant,
    allocs0: u64,
    bytes0: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    pub spans: Vec<SpanRec>,
    /// `(op, name, value)` counts recorded at layer boundaries.
    pub counts: Vec<(u64, &'static str, f64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        let cap = if on { 1 << 16 } else { 0 };
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::with_capacity(if on { 16 } else { 0 }),
            spans: Vec::with_capacity(cap),
            counts: Vec::with_capacity(cap),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the op id of the spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> Option<Open> {
        if !self.on {
            return None;
        }
        let slot = self.spans.len();
        self.spans.push(SpanRec {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            bytes: 0,
        });
        self.stack.push(slot);
        let (allocs0, bytes0) = alloc::totals();
        let t0 = Instant::now();
        Some(Open {
            slot,
            t0,
            allocs0,
            bytes0,
        })
    }

    pub fn end(&mut self, open: Option<Open>) {
        let Some(open) = open else { return };
        let t1 = Instant::now();
        let (allocs1, bytes1) = alloc::totals();
        self.stack.pop();
        let span = &mut self.spans[open.slot];
        span.start_ns = open.t0.duration_since(self.epoch).as_nanos() as u64;
        span.end_ns = t1.duration_since(self.epoch).as_nanos() as u64;
        span.allocs = allocs1 - open.allocs0;
        span.bytes = bytes1 - open.bytes0;
    }

    /// Runs `f` inside a span named `name`.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Records a count for the current op.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.push((self.op, name, value));
        }
    }

    /// Per-op totals of span `name`: `(duration ms, allocs, bytes)`.
    pub fn per_op(&self, name: &str) -> Vec<(f64, f64, f64)> {
        let mut by_op: BTreeMap<u64, (f64, f64, f64)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let e = by_op.entry(s.op).or_default();
            e.0 += s.dur_ns() as f64 / 1e6;
            e.1 += s.allocs as f64;
            e.2 += s.bytes as f64;
        }
        by_op.into_values().collect()
    }

    /// Median per-op duration (ms) of span `name`; 0 if never opened.
    pub fn median_ms(&self, name: &str) -> f64 {
        median_or_zero(self.per_op(name).iter().map(|t| t.0))
    }

    /// Median per-op allocation count of span `name`; 0 if never opened.
    pub fn median_allocs(&self, name: &str) -> f64 {
        median_or_zero(self.per_op(name).iter().map(|t| t.1))
    }

    /// Median per-op allocated bytes of span `name`; 0 if never opened.
    pub fn median_bytes(&self, name: &str) -> f64 {
        median_or_zero(self.per_op(name).iter().map(|t| t.2))
    }

    /// Median duration (ms) of the individual spans named `name`; 0 if
    /// never opened.
    pub fn median_span_ms(&self, name: &str) -> f64 {
        median_or_zero(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e6),
        )
    }

    /// Median over ops of count `name`; 0 if never recorded.
    pub fn median_count(&self, name: &str) -> f64 {
        median_or_zero(self.counts.iter().filter(|c| c.1 == name).map(|c| c.2))
    }

    /// Durations (ms) of the root spans named `name`, one per op.
    pub fn root_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_none())
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time (ns) of every span: its duration minus the part its
    /// direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Share (percent) of the time of the root spans named `name` that
    /// no child span covers.
    pub fn unattributed_pct(&self, name: &str) -> f64 {
        let self_ns = self.self_ns();
        let (mut root, mut gap) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(self_ns) {
            if s.parent.is_none() && s.name == name {
                root += s.dur_ns();
                gap += own;
            }
        }
        if root == 0 {
            0.0
        } else {
            100.0 * gap as f64 / root as f64
        }
    }

    /// Total self time (ms) per span name, over the whole run.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// The spans and counts as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{own},\"allocs\":{},\"bytes\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.allocs, s.bytes
            );
        }
        for (op, name, value) in &self.counts {
            let _ = writeln!(
                out,
                "{{\"count\":\"{name}\",\"op\":{op},\"value\":{value}}}"
            );
        }
        out
    }
}

/// The median of `values`, or 0 for none (a layer the workload never
/// calls).
fn median_or_zero(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.set_op(1);
        let root = tr.begin("op");
        tr.layer("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.end(root);
        let own = tr.self_ns();
        assert!(own[0] < tr.spans[0].dur_ns());
        assert_eq!(own[1], tr.spans[1].dur_ns());
        assert!(tr.unattributed_pct("op") < 50.0);
        assert_eq!(tr.root_ms("op").len(), 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let x = tr.layer("x", || 7);
        tr.count("c", 1.0);
        assert_eq!(x, 7);
        assert!(tr.spans.is_empty() && tr.counts.is_empty());
        assert_eq!(tr.median_ms("x"), 0.0);
    }
}
