//! The machine trace and its Chrome/Perfetto `trace_event` export.
//!
//! A traced machine records a list of [`TraceEvent`]s: each protocol
//! [`ObsEvent`] stamped with the acting processor and its simulated
//! time. [`export_perfetto`] renders that list in the legacy JSON trace
//! format that both `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) load directly, through
//! the generic [`PerfettoTrace`] builder (pids, tids and microsecond
//! timestamps; 1 simulated cycle = 1 µs). [`first_divergence`] names
//! where two traces first differ.
//!
//! Serialization is hand-rolled: the build environment is offline, so
//! no serde. Each event is rendered to its JSON string at `push` time,
//! keeping [`finish`](PerfettoTrace::finish) a cheap join.

use crate::ObsEvent;
use mgs_sim::Cycles;
use std::fmt;
use std::fmt::Write as _;

/// One event of a machine trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The simulated processor whose transaction generated the event.
    pub proc: usize,
    /// That processor's simulated time when the event happened (a
    /// delivered message: when it was launched).
    pub time: Cycles,
    /// What happened.
    pub event: ObsEvent,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[p{:02} @{:>10}] {:?}",
            self.proc,
            self.time.raw(),
            self.event
        )
    }
}

/// Converts a machine trace into Chrome/Perfetto `trace_event` JSON.
///
/// Track layout: one Perfetto *process* per SSMP, and within it two
/// *threads* per simulated processor — `proc p` carrying that
/// processor's transaction spans (fault begin → TLB installed, release
/// begin → RACK; the outcome is an instant at the end) and one instant
/// per other event, named for its variant (a message by its kind) with
/// the event's fields as its arguments; and `engine p` carrying the
/// protocol engine's `NodeWork` slices (whose gaps from the requester's
/// time are queueing delay).
///
/// Events are grouped per acting processor in recording order (each
/// processor's clock is monotonic, which is what Perfetto's begin/end
/// stack pairing needs); different processors' clocks are only loosely
/// ordered, exactly as on the simulated machine.
pub fn export_perfetto(events: &[TraceEvent], n_procs: usize, cluster_size: usize) -> String {
    let cluster = cluster_size.max(1);
    let mut t = PerfettoTrace::new();
    for ssmp in 0..n_procs.div_ceil(cluster) {
        t.process_name(ssmp as u64, &format!("ssmp {ssmp}"));
    }
    for proc in 0..n_procs {
        let pid = (proc / cluster) as u64;
        t.thread_name(pid, (2 * proc) as u64, &format!("proc {proc}"));
        t.thread_name(pid, (2 * proc + 1) as u64, &format!("engine {proc}"));
    }
    for proc in 0..n_procs {
        let pid = (proc / cluster) as u64;
        let tid = (2 * proc) as u64;
        for e in events.iter().filter(|e| e.proc == proc) {
            let ts = e.time.raw();
            match e.event {
                ObsEvent::XactBegin { xact, page } => {
                    t.begin(pid, tid, ts, xact.label(), &[("page", page.into())]);
                }
                ObsEvent::XactEnd { outcome, .. } => {
                    t.instant(pid, tid, ts, outcome.label(), &[]);
                    t.end(pid, tid, ts);
                }
                ObsEvent::NodeWork {
                    node,
                    start,
                    cycles,
                } => t.complete(
                    (node / cluster) as u64,
                    (2 * node + 1) as u64,
                    start.raw(),
                    cycles.raw(),
                    "handler",
                    &[("requester", proc.into())],
                ),
                event => {
                    // `Variant { field: value, … }`: every variant has
                    // named scalar fields, so `Debug` splits cleanly.
                    let debug = format!("{event:?}");
                    let (variant, fields) = debug.split_once(" { ").unwrap_or((&debug, ""));
                    let args: Vec<(&str, ArgValue)> = fields
                        .trim_end_matches(" }")
                        .split(", ")
                        .filter_map(|field| field.split_once(": "))
                        .map(|(k, v)| (k, v.parse().map_or_else(|_| v.into(), ArgValue::Int)))
                        .collect();
                    let name = match event {
                        ObsEvent::Message { kind, .. } => kind.name(),
                        _ => variant,
                    };
                    t.instant(pid, tid, ts, name, &args);
                }
            }
        }
    }
    t.finish()
}

/// Names the first event on which two traces differ, or `None` when
/// they are the same: the processor, the event's index in that
/// processor's own stream, and both events (`"p3 event 17: [p03 @ …]
/// Invalidate { … } vs [p03 @ …] Pinv { … }"`; a stream that ends early
/// reads `end of trace`). Each processor's stream is compared on its
/// own, in recording order, lowest processor first: processors' clocks
/// are only loosely ordered, so a different interleaving of identical
/// per-processor histories is not a divergence.
pub fn first_divergence(a: &[TraceEvent], b: &[TraceEvent]) -> Option<String> {
    let show = |e: Option<&TraceEvent>| e.map_or("end of trace".to_string(), |e| e.to_string());
    let procs = a.iter().chain(b).map(|e| e.proc + 1).max().unwrap_or(0);
    for proc in 0..procs {
        let mut xs = a.iter().filter(|e| e.proc == proc);
        let mut ys = b.iter().filter(|e| e.proc == proc);
        for i in 0.. {
            match (xs.next(), ys.next()) {
                (None, None) => break,
                (x, y) if x != y => {
                    return Some(format!("p{proc} event {i}: {} vs {}", show(x), show(y)))
                }
                _ => {}
            }
        }
    }
    None
}

/// A typed argument value for an event's `args` object.
#[derive(Debug, Clone)]
pub enum ArgValue {
    /// An integer argument.
    Int(u64),
    /// A string argument.
    Text(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::Int(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::Int(v as u64)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Text(v.to_string())
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
}

fn args_into(out: &mut String, args: &[(&str, ArgValue)]) {
    if args.is_empty() {
        return;
    }
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, k);
        out.push_str("\":");
        match v {
            ArgValue::Int(n) => {
                write!(out, "{n}").unwrap();
            }
            ArgValue::Text(t) => {
                out.push('"');
                escape_into(out, t);
                out.push('"');
            }
        }
    }
    out.push('}');
}

/// An in-progress Chrome/Perfetto trace.
///
/// # Example
///
/// ```
/// use mgs_obs::PerfettoTrace;
///
/// let mut t = PerfettoTrace::new();
/// t.process_name(0, "ssmp 0");
/// t.thread_name(0, 1, "proc 1");
/// t.begin(0, 1, 100, "read_fault", &[("page", 7u64.into())]);
/// t.end(0, 1, 4200);
/// t.instant(0, 1, 4200, "retry", &[]);
/// let json = t.finish();
/// assert!(json.starts_with("{\"traceEvents\":["));
/// ```
#[derive(Debug, Default)]
pub struct PerfettoTrace {
    events: Vec<String>,
}

impl PerfettoTrace {
    /// Creates an empty trace.
    pub fn new() -> PerfettoTrace {
        PerfettoTrace::default()
    }

    /// Number of events pushed so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events have been pushed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        ph: char,
        pid: u64,
        tid: u64,
        ts: u64,
        name: Option<&str>,
        extra: &str,
        args: &[(&str, ArgValue)],
    ) {
        let mut e = String::with_capacity(96);
        write!(
            e,
            "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}"
        )
        .unwrap();
        if let Some(name) = name {
            e.push_str(",\"name\":\"");
            escape_into(&mut e, name);
            e.push('"');
        }
        e.push_str(extra);
        args_into(&mut e, args);
        e.push('}');
        self.events.push(e);
    }

    /// Names the Perfetto *process* (track group) `pid`.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        let mut extra = String::from(",\"args\":{\"name\":\"");
        escape_into(&mut extra, name);
        extra.push_str("\"}");
        let mut e = String::with_capacity(64);
        write!(
            e,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\"{extra}}}"
        )
        .unwrap();
        self.events.push(e);
    }

    /// Names the Perfetto *thread* (track) `tid` within process `pid`.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        let mut extra = String::from(",\"args\":{\"name\":\"");
        escape_into(&mut extra, name);
        extra.push_str("\"}");
        let mut e = String::with_capacity(64);
        write!(
            e,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\"{extra}}}"
        )
        .unwrap();
        self.events.push(e);
    }

    /// Opens a duration span (`ph:"B"`). Spans on the same track nest
    /// by stack order, so callers must push each track's events in
    /// non-decreasing timestamp order.
    pub fn begin(&mut self, pid: u64, tid: u64, ts: u64, name: &str, args: &[(&str, ArgValue)]) {
        self.push('B', pid, tid, ts, Some(name), "", args);
    }

    /// Closes the innermost open span on the track (`ph:"E"`).
    pub fn end(&mut self, pid: u64, tid: u64, ts: u64) {
        self.push('E', pid, tid, ts, None, "", &[]);
    }

    /// Pushes a complete span (`ph:"X"`) with an explicit duration —
    /// used for engine-occupancy slices whose begin and end are both
    /// known when recorded.
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        ts: u64,
        dur: u64,
        name: &str,
        args: &[(&str, ArgValue)],
    ) {
        let extra = format!(",\"dur\":{dur}");
        self.push('X', pid, tid, ts, Some(name), &extra, args);
    }

    /// Pushes a thread-scoped instant event (`ph:"i"`).
    pub fn instant(&mut self, pid: u64, tid: u64, ts: u64, name: &str, args: &[(&str, ArgValue)]) {
        self.push('i', pid, tid, ts, Some(name), ",\"s\":\"t\"", args);
    }

    /// Finishes the trace, returning the complete JSON document.
    pub fn finish(self) -> String {
        let body_len: usize = self.events.iter().map(|e| e.len() + 1).sum();
        let mut out = String::with_capacity(body_len + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(e);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_render_with_args() {
        let mut t = PerfettoTrace::new();
        t.begin(1, 2, 10, "read_fault", &[("page", 7u64.into())]);
        t.end(1, 2, 50);
        let json = t.finish();
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"name\":\"read_fault\""));
        assert!(json.contains("\"args\":{\"page\":7}"));
        assert!(json.contains("\"ph\":\"E\""));
    }

    #[test]
    fn complete_spans_carry_duration() {
        let mut t = PerfettoTrace::new();
        t.complete(0, 100, 5, 40, "engine", &[]);
        assert!(t.finish().contains("\"dur\":40"));
    }

    #[test]
    fn names_are_escaped() {
        let mut t = PerfettoTrace::new();
        t.process_name(0, "weird \"name\"\n");
        let json = t.finish();
        assert!(json.contains("weird \\\"name\\\"\\n"));
    }

    #[test]
    fn metadata_names_tracks() {
        let mut t = PerfettoTrace::new();
        t.thread_name(3, 9, "proc 9");
        let json = t.finish();
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"args\":{\"name\":\"proc 9\"}"));
    }
}
