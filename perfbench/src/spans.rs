//! In-memory spans for the traced run.
//!
//! A span is a named interval around one public call, or one frame's
//! share of a library call, recorded from marks taken while it ran; a
//! pass span is the parent of the spans inside it. Spans stay in memory
//! and are summarised (count and self time per name) when the run ends.
//! Self time is a span's duration minus the part its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// A run's spans.
#[derive(Default)]
pub struct Spans {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Opens a span named `name`, nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = Instant::now();
    }

    /// Adds a closed span from `start` to `end`, nested in the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
        });
    }

    /// Appends another thread's closed spans.
    pub fn absorb(&mut self, other: Spans) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// Per name: span count and total self time in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += secs(s);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_secs) {
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += secs(s) - child;
        }
        out
    }
}

fn secs(s: &Span) -> f64 {
    s.end.duration_since(s.start).as_secs_f64()
}

/// Times `f` as a span when tracing, and runs it bare otherwise.
pub fn time<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = begin(spans, name);
    let out = f();
    end(spans, id);
    out
}

/// [`Spans::begin`] when tracing.
pub fn begin(spans: &mut Option<&mut Spans>, name: &'static str) -> Option<usize> {
    spans.as_deref_mut().map(|s| s.begin(name))
}

/// [`Spans::end`] when tracing.
pub fn end(spans: &mut Option<&mut Spans>, id: Option<usize>) {
    if let (Some(s), Some(id)) = (spans.as_deref_mut(), id) {
        s.end(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut all = Spans::default();
        let mut spans = Some(&mut all);
        let pass = begin(&mut spans, "pass");
        time(&mut spans, "call", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        time(&mut spans, "call", || ());
        let now = Instant::now();
        spans.as_deref_mut().unwrap().record("frame", now, now);
        end(&mut spans, pass);
        time(&mut None, "untraced", || ());
        let t = all.self_times();
        assert!(!t.contains_key("untraced"));
        assert_eq!(t["call"].0, 2);
        assert_eq!(t["pass"].0, 1);
        assert_eq!(t["frame"], (1, 0.0));
        assert!(t["call"].1 >= 0.020);
        assert!(t["pass"].1 < 0.020, "pass self time {}", t["pass"].1);
    }
}
