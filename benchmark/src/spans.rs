//! In-memory span recorder for the traced run.
//!
//! Spans are recorded at the layer boundaries the benchmark itself calls
//! into (set-up steps, `Sim::run`, waves seen at the backend, restarts,
//! chaos scenarios, lint phases). Per-message hook and backend calls are
//! aggregated as counts and totals by the probes, never stored one span
//! per call. Nothing is written until the run ends.

use std::cell::RefCell;
use std::time::Instant;

use gcr_json::Json;

/// One recorded interval, in seconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name (`sim.run`, `setup.form_groups`, …).
    pub name: String,
    /// Start, seconds since the recorder's origin.
    pub start_s: f64,
    /// End, seconds since the recorder's origin.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records spans when enabled; every call is a no-op when disabled, so
/// untraced samples pay nothing.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Open a span nested in the innermost open one; returns its id.
    pub fn enter(&self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name: name.to_string(),
            start_s: self.secs(Instant::now()),
            end_s: f64::NAN,
            parent: self.open.borrow().last().copied(),
        });
        self.open.borrow_mut().push(id);
        Some(id)
    }

    /// Close span `id` (and any span opened inside it and left open).
    pub fn exit(&self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.secs(Instant::now());
        let mut open = self.open.borrow_mut();
        while let Some(top) = open.pop() {
            self.spans.borrow_mut()[top].end_s = now;
            if top == id {
                break;
            }
        }
    }

    /// Time `f` as a span called `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Record a span measured elsewhere, as a child of `parent`.
    pub fn record(&self, name: &str, start: Instant, end: Instant, parent: Option<usize>) {
        if self.enabled {
            self.spans.borrow_mut().push(Span {
                name: name.to_string(),
                start_s: self.secs(start),
                end_s: self.secs(end),
                parent,
            });
        }
    }

    /// Snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// The spans as a JSON array with each span's self time: its duration
/// minus the part of it its children cover.
pub fn to_json(spans: &[Span]) -> Json {
    let mut child_cover = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_cover[p] += s.end_s - s.start_s;
        }
    }
    Json::from(
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let dur = s.end_s - s.start_s;
                Json::obj([
                    ("id", Json::from(i)),
                    ("name", Json::from(s.name.as_str())),
                    ("start_s", Json::from(s.start_s)),
                    ("end_s", Json::from(s.end_s)),
                    ("parent", s.parent.map(Json::from).unwrap_or(Json::Null)),
                    ("self_s", Json::from((dur - child_cover[i]).max(0.0))),
                ])
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_report_self_time() {
        let spans = vec![
            Span {
                name: "outer".into(),
                start_s: 0.0,
                end_s: 1.0,
                parent: None,
            },
            Span {
                name: "inner".into(),
                start_s: 0.25,
                end_s: 0.5,
                parent: Some(0),
            },
        ];
        let j = to_json(&spans);
        let arr = j.as_arr().unwrap();
        assert_eq!(arr[0].f64_field("self_s").unwrap(), 0.75);
        assert_eq!(arr[1].f64_field("self_s").unwrap(), 0.25);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let s = Spans::new(false);
        s.time("x", || ());
        assert!(s.spans().is_empty());
    }
}
