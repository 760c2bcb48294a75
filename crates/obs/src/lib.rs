//! Zero-perturbation observability for the MGS reproduction.
//!
//! The paper explains each application's breakup penalty and multigrain
//! curvature by characterizing its *sharing behaviour* — which pages are
//! write-shared, how often copies are invalidated, how much data diffs
//! carry, where lock tokens travel (§5, Figures 6–12). This crate is the
//! diagnostic substrate that lets the reproduction tell the same
//! stories:
//!
//! * [`ObsRegistry`] — log2-bucketed latency histograms and the two
//!   counts no other layer keeps (hardware-lock acquires, barrier
//!   arrivals), sharded per simulated processor and merged into a
//!   [`MetricsReport`] at the end of a run. Every other [`Metric`] is
//!   counted once, by the layer that owns its event (the protocol, the
//!   caches, the fabric, the locks, the churn controller), and the
//!   machine reads it into the report.
//! * [`SharingProfiler`] — attributes protocol events per page (and
//!   diffed words per cache line), producing the top-N hot pages with
//!   sharer counts and invalidation rates ([`SharingReport`]).
//! * [`TraceEvent`] and [`export_perfetto`] — the machine trace and its
//!   Chrome/Perfetto `trace_event` JSON (built with [`PerfettoTrace`]),
//!   so a run's protocol timeline can be scrubbed in `ui.perfetto.dev`;
//!   [`first_divergence`] names where two traces part.
//! * [`ObsEvent`] — the one protocol-event stream: the `mgs-proto`
//!   engines' timing charges and state changes. `mgs-proto`'s
//!   `ProtoStats::record` counts it, the profiler attributes it per
//!   page, the trace stamps it, and `RecordingTiming` keeps it.
//!
//! # The zero-perturbation invariant
//!
//! Nothing in this crate ever touches a simulated clock: every recorder
//! is a host-side side channel. Enabling full metrics and tracing leaves
//! simulated cycle counts **bit-identical** to an uninstrumented run
//! (gated by `tests/observability.rs` in the workspace root), and an
//! observed access performs no heap allocation (gated by
//! `tests/obs_zero_alloc.rs`).

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
/// enabled: the latency-histogram registry and the per-page sharing
/// profiler. One `ObsSink` exists per machine; the runtime feeds the
/// profiler every protocol [`ObsEvent`], and the registry the latency
/// samples and its two counts.
#[derive(Debug)]
pub struct ObsSink {
    /// Latency histograms and the counts no other layer keeps, sharded
    /// per processor.
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
}
