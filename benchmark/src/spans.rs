//! In-memory spans around the calls into each layer.
//!
//! The simulator carries no spans of its own yet, so the traced pass
//! records them from outside: host-clock spans around the public calls
//! (`workload.generate`, `net.fabric.build`, `simnet.new`, `simnet.run`,
//! one `replay.*` span per layer) and simulated-clock spans per traced
//! packet and hop. They are kept in memory and written once, at exit.

use serde::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Which clock a span's `start`/`end` are read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock, seconds since the recorder was created.
    Host,
    /// Simulated time, seconds since the start of the run.
    Sim,
}

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index into the recorder, unique per file.
    pub id: u32,
    /// The span that caused this one; `None` for roots.
    pub parent: Option<u32>,
    /// `layer.operation`.
    pub name: String,
    /// Clock of `start` and `end`.
    pub clock: Clock,
    /// Start, in seconds on `clock`.
    pub start: f64,
    /// End, in seconds on `clock`.
    pub end: f64,
}

/// The span store of one traced pass.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open host spans, innermost last.
    stack: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose host clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Run `f` inside a host span named `name`, child of whatever host
    /// span is open. Returns `f`'s value and the span's duration.
    pub fn host<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let id = self.spans.len() as u32;
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            clock: Clock::Host,
            start,
            end: start,
        });
        self.stack.push(id);
        let out = f(self);
        let end = self.epoch.elapsed().as_secs_f64();
        self.stack.pop();
        self.spans[id as usize].end = end;
        (out, end - start)
    }

    /// Record a finished simulated-clock span; returns its id so hop spans
    /// can name their packet span as parent.
    pub fn sim(&mut self, name: &str, parent: Option<u32>, start: f64, end: f64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            clock: Clock::Sim,
            start,
            end,
        });
        id
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Overlapping children are counted once.
pub fn self_time(spans: &[Span], id: u32) -> f64 {
    let me = &spans[id as usize];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(me.start), s.end.min(me.end)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.partial_cmp(b).expect("span times are finite"));
    let mut covered = 0.0;
    let mut reach = me.start;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end - me.start) - covered
}

/// Names of spans that break nesting: a child on the same clock as its
/// parent must lie inside it. Empty means the file is well-formed.
pub fn nesting_violations(spans: &[Span]) -> Vec<String> {
    spans
        .iter()
        .filter(|s| match s.parent {
            None => false,
            Some(p) => {
                let p = &spans[p as usize];
                p.clock == s.clock && (s.start < p.start || s.end > p.end || s.end < s.start)
            }
        })
        .map(|s| s.name.clone())
        .collect()
}

/// The span list as the JSON document written to
/// `benchmark/out/trace-<workload>.json`; host spans carry their self time.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let rows = spans
        .iter()
        .map(|s| {
            let mut o = BTreeMap::new();
            o.insert("id".to_string(), Value::Num(s.id.to_string()));
            o.insert(
                "parent".to_string(),
                s.parent.map_or(Value::Null, |p| Value::Num(p.to_string())),
            );
            o.insert("name".to_string(), Value::Str(s.name.clone()));
            let clock = match s.clock {
                Clock::Host => "host",
                Clock::Sim => "sim",
            };
            o.insert("clock".to_string(), Value::Str(clock.to_string()));
            o.insert("start".to_string(), crate::json::num(s.start));
            o.insert("end".to_string(), crate::json::num(s.end));
            // Host spans are few; the thousands of packet and hop spans
            // tile their parents and need no self time.
            if s.clock == Clock::Host {
                o.insert("self".to_string(), crate::json::num(self_time(spans, s.id)));
            }
            Value::Obj(o)
        })
        .collect();
    let mut doc = BTreeMap::new();
    doc.insert("workload".to_string(), Value::Str(workload.to_string()));
    doc.insert("spans".to_string(), Value::Arr(rows));
    Value::Obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            clock: Clock::Host,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = vec![
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 4.0),
            // Overlaps span 1 on [3, 4): that second is covered once.
            span(2, Some(0), 3.0, 6.0),
            span(3, Some(0), 8.0, 9.0),
            // A grandchild never counts against the grandparent directly.
            span(4, Some(1), 1.0, 2.0),
        ];
        assert_eq!(self_time(&spans, 0), 10.0 - 5.0 - 1.0);
        assert_eq!(self_time(&spans, 1), 2.0);
        assert_eq!(self_time(&spans, 3), 1.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(0, None, 2.0, 5.0), span(1, Some(0), 0.0, 3.0)];
        assert_eq!(self_time(&spans, 0), 2.0);
        assert_eq!(nesting_violations(&spans), vec!["s1".to_string()]);
    }

    #[test]
    fn recorder_nests_host_spans() {
        let mut rec = Recorder::new();
        let ((), outer) = rec.host("outer", |rec| {
            rec.host("inner", |_| std::hint::black_box(0u64));
        });
        let pkt = rec.sim("pkt", None, 0.0, 1e-3);
        rec.sim("hop", Some(pkt), 1e-4, 2e-4);
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(outer >= s[1].end - s[1].start);
        assert!(nesting_violations(s).is_empty());
        assert!(self_time(s, 0) >= 0.0);
    }
}
