//! Zero-perturbation observability for the MGS reproduction.
//!
//! The paper explains each application's breakup penalty and multigrain
//! curvature by characterizing its *sharing behaviour* — which pages are
//! write-shared, how often copies are invalidated, how much data diffs
//! carry, where lock tokens travel (§5, Figures 6–12). This crate is the
//! diagnostic substrate that lets the reproduction tell the same
//! stories:
//!
//! * [`ObsRegistry`] — typed event counters and log2-bucketed latency
//!   histograms, sharded per simulated processor and merged into a
//!   [`MetricsReport`] at the end of a run.
//! * [`SharingProfiler`] — attributes protocol events per page (and
//!   diffed words per cache line), producing the top-N hot pages with
//!   sharer counts and invalidation rates ([`SharingReport`]).
//! * [`TraceEvent`] and [`export_perfetto`] — the machine trace and its
//!   Chrome/Perfetto `trace_event` JSON (built with [`PerfettoTrace`]),
//!   so a run's protocol timeline can be scrubbed in `ui.perfetto.dev`;
//!   [`first_divergence`] names where two traces part.
//! * [`ObsEvent`] — the one protocol-event stream: the `mgs-proto`
//!   engines' timing charges and state changes. [`ObsSink::record`]
//!   maps it onto the registry and the profiler, the trace stamps it,
//!   and `RecordingTiming` keeps it.
//!
//! # The zero-perturbation invariant
//!
//! Nothing in this crate ever touches a simulated clock: every recorder
//! is a host-side side channel. Enabling full metrics and tracing leaves
//! simulated cycle counts **bit-identical** to an uninstrumented run
//! (gated by `tests/observability.rs` in the workspace root), and the
//! counter fast path — an index into a pre-sized per-processor shard
//! plus a relaxed atomic add — performs no heap allocation on the
//! per-access hot path (gated by `tests/obs_zero_alloc.rs`).

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod gov;
mod metrics;
mod perfetto;
mod profiler;

pub use event::{ObsEvent, PagePolicy, XactKind, XactOutcome};
pub use gov::{GovernorWaitReport, ProcGovWaits};
pub use metrics::{HistSummary, LatencyClass, Metric, MetricsReport, ObsRegistry};
pub use perfetto::{export_perfetto, first_divergence, PerfettoTrace, TraceEvent};
pub use profiler::{PageProfile, SharingProfiler, SharingReport};

/// The pair of recorders a machine carries when observability is
/// enabled: the counter/histogram registry and the per-page sharing
/// profiler. One `ObsSink` exists per machine; the runtime feeds it
/// every protocol [`ObsEvent`] through [`record`](ObsSink::record), and
/// the per-access and synchronization counters directly.
#[derive(Debug)]
pub struct ObsSink {
    /// Typed counters and latency histograms, sharded per processor.
    pub registry: ObsRegistry,
    /// Per-page (and per-line) protocol-event attribution.
    pub profiler: SharingProfiler,
}

impl ObsSink {
    /// Creates a sink for a machine of `n_procs` processors whose pages
    /// hold `lines_per_page` cache lines.
    pub fn new(n_procs: usize, lines_per_page: usize) -> ObsSink {
        ObsSink {
            registry: ObsRegistry::new(n_procs),
            profiler: SharingProfiler::new(lines_per_page),
        }
    }

    /// Records one event on behalf of processor `proc` of SSMP `ssmp`:
    /// the repository's one event-to-[`Metric`] mapping. Counts the
    /// event's registry counters (an inter-SSMP transmission, delivered
    /// or dropped, also counts in the LAN mix by kind) and attributes it
    /// per page in the profiler. Latency samples are the caller's: they
    /// need the span's begin or the message's arrival.
    ///
    /// ```
    /// use mgs_net::MsgKind;
    /// use mgs_obs::{Metric, ObsEvent, ObsSink};
    ///
    /// let sink = ObsSink::new(2, 16);
    /// sink.record(1, 0, &ObsEvent::Drop { from: 0, to: 1, kind: MsgKind::RReq });
    /// let m = sink.registry.merge();
    /// assert_eq!((m.get(Metric::LanDrops), m.lan(MsgKind::RReq)), (1, 1));
    /// ```
    pub fn record(&self, proc: usize, ssmp: usize, event: &ObsEvent) {
        let count = |metric, n| self.registry.count(proc, metric, n);
        match *event {
            ObsEvent::Message { from, to, kind, .. } if from != to => {
                self.registry.count_lan(proc, kind)
            }
            ObsEvent::Drop { kind, .. } => {
                self.registry.count_lan(proc, kind);
                count(Metric::LanDrops, 1);
            }
            ObsEvent::Duplicate { copies, .. } => count(Metric::LanDuplicates, u64::from(copies)),
            ObsEvent::Retry { .. } => count(Metric::Retries, 1),
            ObsEvent::XactEnd { outcome, .. } => count(
                match outcome {
                    XactOutcome::TlbFill => Metric::TlbFills,
                    XactOutcome::ReadMiss => Metric::ReadMisses,
                    XactOutcome::WriteMiss => Metric::WriteMisses,
                    XactOutcome::Upgrade => Metric::Upgrades,
                    XactOutcome::Released => Metric::PagesReleased,
                    XactOutcome::Aborted => Metric::XactAborts,
                },
                1,
            ),
            ObsEvent::TwinCreate { .. } => count(Metric::TwinCreates, 1),
            ObsEvent::Diff { words, spans, .. } => {
                count(Metric::DiffsSent, 1);
                count(Metric::DiffWords, words);
                count(Metric::DiffSpans, spans);
            }
            ObsEvent::Invalidate { .. } => count(Metric::Invalidations, 1),
            ObsEvent::SingleWriterFlush { .. } => count(Metric::SingleWriterFlushes, 1),
            ObsEvent::SingleWriterBreak { .. } => count(Metric::SingleWriterBreaks, 1),
            ObsEvent::DuqFlush { .. } => count(Metric::DuqFlushes, 1),
            ObsEvent::LazyNotice { .. } => count(Metric::LazyNotices, 1),
            ObsEvent::Pinv { .. } => count(Metric::Pinvs, 1),
            ObsEvent::UpdatePush { words, .. } => {
                count(Metric::UpdatePushes, 1);
                count(Metric::UpdatePushWords, words);
            }
            ObsEvent::PolicySwitch { .. } => count(Metric::PolicySwitches, 1),
            ObsEvent::Churn { rejoin: true, .. } => count(Metric::ChurnRejoins, 1),
            ObsEvent::Churn { rehomed, .. } => {
                count(Metric::ChurnDepartures, 1);
                count(Metric::ChurnRehomedPages, rehomed);
            }
            _ => {}
        }
        self.profiler.record(ssmp, event);
    }
}
