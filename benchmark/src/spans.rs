//! In-memory spans recorded by the benchmark around its calls into the
//! layers, written once at the end as a Chrome `trace_event` file.
//!
//! Every span has a name, a start, an end and the span that caused it.
//! Spans inside the simulator are a later issue; these are the view
//! from outside.

use crate::json::{obj, Json};
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Microseconds since the log was created.
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<SpanId>,
}

/// Spans of one benchmark run, timed against one origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Microseconds from the log's origin to now.
    pub fn now_us(&self) -> f64 {
        self.at_us(Instant::now())
    }

    /// Microseconds from the log's origin to `t`.
    pub fn at_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span starting now; [`close`](SpanLog::close) ends it.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_us();
        self.add(name, now, f64::NAN, parent)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_us = self.now_us();
    }

    /// Records a span whose interval was measured elsewhere (a child
    /// process reports offsets from its own start).
    pub fn add(
        &mut self,
        name: &str,
        start_us: f64,
        end_us: f64,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent,
        });
        self.spans.len() - 1
    }

    /// Checks that every span is closed, runs forward, and lies inside
    /// its parent. Returns the first violation.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (id, s) in self.spans.iter().enumerate() {
            if s.end_us.is_nan() {
                return Err(format!("span {id} '{}' was never closed", s.name));
            }
            if s.end_us < s.start_us {
                return Err(format!("span {id} '{}' ends before it starts", s.name));
            }
            let Some(pid) = s.parent else { continue };
            let Some(p) = self.spans.get(pid).filter(|_| pid < id) else {
                return Err(format!(
                    "span {id} '{}' names parent {pid}, which does not precede it",
                    s.name
                ));
            };
            if s.start_us < p.start_us || s.end_us > p.end_us {
                return Err(format!(
                    "span {id} '{}' [{:.1}, {:.1}] leaves its parent '{}' [{:.1}, {:.1}]",
                    s.name, s.start_us, s.end_us, p.name, p.start_us, p.end_us
                ));
            }
        }
        Ok(())
    }

    /// The Chrome `trace_event` document (complete `"X"` events; loads
    /// in `chrome://tracing` and ui.perfetto.dev). The benchmark runs
    /// one thing at a time, so everything sits on one track and the
    /// viewer nests spans by their intervals; `args` carries the
    /// explicit ids.
    pub fn to_chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("name", Json::from(s.name.as_str())),
                    ("ph", Json::from("X")),
                    ("ts", Json::from(s.start_us)),
                    ("dur", Json::from(s.end_us - s.start_us)),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(1u64)),
                    (
                        "args",
                        obj([
                            ("id", Json::from(id)),
                            ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ]),
                    ),
                ])
            })
            .collect();
        obj([
            ("displayTimeUnit", Json::from("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(spans: &[(&str, f64, f64, Option<SpanId>)]) -> SpanLog {
        let mut log = SpanLog::new();
        for &(name, start, end, parent) in spans {
            log.add(name, start, end, parent);
        }
        log
    }

    #[test]
    fn well_nested_spans_pass() {
        let log = log_of(&[
            ("bench.workload", 0.0, 100.0, None),
            ("bench.point", 10.0, 60.0, Some(0)),
            ("core.machine_new", 10.0, 12.0, Some(1)),
            ("apps.execute", 12.0, 58.0, Some(1)),
            ("bench.point", 60.0, 100.0, Some(0)),
        ]);
        log.check_nesting().unwrap();
    }

    #[test]
    fn a_child_leaving_its_parent_is_reported_by_name() {
        let log = log_of(&[
            ("bench.point", 10.0, 60.0, None),
            ("apps.execute", 12.0, 61.0, Some(0)),
        ]);
        let err = log.check_nesting().unwrap_err();
        assert!(
            err.contains("apps.execute") && err.contains("bench.point"),
            "{err}"
        );
    }

    #[test]
    fn open_backwards_and_forward_parent_spans_are_reported() {
        let mut log = SpanLog::new();
        let id = log.open("driver.cache.access_hit_ns", None);
        assert!(log.check_nesting().unwrap_err().contains("never closed"));
        log.close(id);
        log.check_nesting().unwrap();

        let log = log_of(&[("x", 5.0, 4.0, None)]);
        assert!(log.check_nesting().unwrap_err().contains("ends before"));
        let log = log_of(&[("x", 0.0, 1.0, Some(1)), ("y", 0.0, 2.0, None)]);
        assert!(log
            .check_nesting()
            .unwrap_err()
            .contains("does not precede"));
    }

    #[test]
    fn live_spans_nest_in_open_close_order() {
        let mut log = SpanLog::new();
        let outer = log.open("outer", None);
        let inner = log.open("inner", Some(outer));
        log.close(inner);
        log.close(outer);
        log.check_nesting().unwrap();
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let log = log_of(&[("a", 0.0, 10.0, None), ("b", 2.0, 5.0, Some(0))]);
        let doc = log.to_chrome_trace();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(3.0));
        let parent = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(Json::as_f64), Some(0.0));
        // The file must be valid JSON.
        crate::json::parse(&doc.render_pretty()).unwrap();
    }
}
