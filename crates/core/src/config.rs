//! DSSMP machine configuration.

use mgs_net::{FaultPlan, TieredScenario};
use mgs_proto::ProtocolKind;
use mgs_sim::{CostModel, Cycles};
use mgs_vm::PageGeometry;
use std::sync::Arc;

/// Configuration of a DSSMP machine.
///
/// The paper's evaluation fixes the total processor count `P = 32` and
/// sweeps the cluster size `C ∈ {1, 2, 4, 8, 16, 32}` with 1 KB pages
/// and a 1000-cycle inter-SSMP message latency; those are the defaults
/// here (except `P`, which is explicit).
///
/// At `C = P` the machine is a single tightly-coupled multiprocessor:
/// following the paper's methodology, MGS calls become null calls (only
/// software address translation remains) and the synchronization
/// library degenerates to flat P4-style primitives.
///
/// # Example
///
/// ```
/// use mgs_core::DssmpConfig;
///
/// let cfg = DssmpConfig::new(32, 8);
/// assert_eq!(cfg.n_ssmps(), 4);
/// assert_eq!(cfg.cluster_sizes().collect::<Vec<_>>(), [1, 2, 4, 8, 16, 32]);
/// assert!(!cfg.is_tightly_coupled());
/// assert!(DssmpConfig::new(32, 32).is_tightly_coupled());
/// ```
#[derive(Debug, Clone)]
pub struct DssmpConfig {
    /// Total number of processors `P`.
    pub n_procs: usize,
    /// Processors per SSMP (`C`, the cluster size). Must divide `P`.
    pub cluster_size: usize,
    /// Page geometry (default 1 KB, §5.1).
    pub geometry: PageGeometry,
    /// One-way inter-SSMP message latency (default 1000 cycles, §5.2.1).
    /// Lock token transfers and barrier episodes are priced from it
    /// even when [`scenario`](DssmpConfig::scenario) installs another
    /// fabric (a documented modeling deviation).
    pub ext_latency: Cycles,
    /// Latency constants (default: calibrated Alewife model).
    pub cost: CostModel,
    /// Enable the single-writer optimization (§3.1.1; on by default).
    pub single_writer_opt: bool,
    /// Remove read-only page cleaning from the invalidation critical
    /// path (the future-work optimization of §4.2.4; off by default,
    /// matching the measured prototype).
    pub readonly_clean_opt: bool,
    /// Which coherence strategy resolves per-page policies:
    /// [`ProtocolKind::Eager`] (the paper's protocol, the default,
    /// bit-identical to the pre-strategy code),
    /// [`ProtocolKind::HomeLrc`] (home-based lazy release consistency
    /// for every page) or [`ProtocolKind::Adaptive`] (profile-driven
    /// per-page policies; forces the observability sink on — the
    /// controller classifies from the sharing profiler, with fixed
    /// thresholds and sampling period).
    pub protocol: ProtocolKind,
    /// Pacing window of the machine's scheduler: a processor may run
    /// at most this far (plus one tick stride, a quarter-window) past
    /// the slowest runnable processor before it yields its host slot.
    /// The scheduler grants slots, lock hand-overs and barrier wake-ups
    /// in exact simulated-time order at any window, so the window only
    /// trades hand-overs against how far running processors may race
    /// ahead; the default is 32,000 cycles. `None` means **unpaced**:
    /// the worker budget is `P`, so every processor holds a free-running
    /// host thread, `workers` and `MGS_VWORKERS` are not consulted, and
    /// only locks and barriers deschedule. Pacing never charges
    /// simulated cycles: within the deterministic envelope, cycle counts
    /// are bit-identical at every window, paced or not (gated by
    /// `tests/pacing.rs`).
    pub governor_window: Option<Cycles>,
    /// Host worker budget of a paced run: how many processors may
    /// execute at once — and, where processors are coroutines, how many
    /// host threads the run starts. `None` uses
    /// [`std::thread::available_parallelism`], floored at 2 so the
    /// default run always has two processors genuinely concurrent; the
    /// `MGS_VWORKERS` environment variable overrides both. A budget of
    /// 1 makes the whole run bit-deterministic.
    pub workers: Option<usize>,
    /// Token-affinity window of the MGS lock.
    pub lock_affinity_window: Cycles,
    /// Seed for per-processor workload RNGs.
    pub seed: u64,
    /// Record the protocol event stream into the machine trace (see
    /// [`Machine::take_trace`](crate::Machine)): every
    /// [`ObsEvent`](mgs_obs::ObsEvent) but the requester-local charges,
    /// stamped with the acting processor and its simulated time. Off by
    /// default: tracing large runs allocates heavily.
    pub trace: bool,
    /// Attach the `mgs-obs` observability sink: typed metrics, latency
    /// histograms and the per-page sharing profiler (see
    /// [`Machine::obs`](crate::Machine::obs) and
    /// [`RunReport::metrics`](crate::RunReport)). Purely a host-side
    /// side channel — enabling it leaves simulated cycle counts
    /// bit-identical (the zero-perturbation invariant, gated by
    /// `tests/observability.rs`). Off by default.
    pub observe: bool,
    /// Seeded fault injection on the external LAN (default
    /// [`FaultPlan::none`]: the paper's perfect fabric, with message
    /// behaviour bit-identical to builds without fault support).
    pub fault_plan: FaultPlan,
    /// The external fabric (see [`TieredScenario`]): latency tiers,
    /// interface contention and SSMP churn. `None` (the default) is the
    /// paper's LAN, `TieredScenario::uniform(LinkTier::Lan, ext_latency)`
    /// (`tests/scenario_equivalence.rs` pins the two spellings equal).
    pub scenario: Option<Arc<TieredScenario>>,
}

impl DssmpConfig {
    /// Creates a configuration with the paper's defaults.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_size` does not divide `n_procs`, or if either
    /// is zero.
    pub fn new(n_procs: usize, cluster_size: usize) -> DssmpConfig {
        assert!(n_procs > 0 && cluster_size > 0, "counts must be nonzero");
        assert_eq!(
            n_procs % cluster_size,
            0,
            "cluster size must divide the processor count"
        );
        DssmpConfig {
            n_procs,
            cluster_size,
            geometry: PageGeometry::default(),
            ext_latency: Cycles(1000),
            cost: CostModel::alewife(),
            single_writer_opt: true,
            readonly_clean_opt: false,
            protocol: ProtocolKind::Eager,
            governor_window: Some(Cycles(32_000)),
            workers: None,
            lock_affinity_window: mgs_sync::MgsLock::DEFAULT_AFFINITY_WINDOW,
            seed: 0x4D47_5331, // "MGS1"
            trace: false,
            observe: false,
            fault_plan: FaultPlan::none(),
            scenario: None,
        }
    }

    /// Attaches a seeded [`FaultPlan`] to the external LAN.
    pub fn with_faults(mut self, plan: FaultPlan) -> DssmpConfig {
        self.fault_plan = plan;
        self
    }

    /// Installs the external fabric (latency tiers, interface
    /// contention, churn schedule).
    pub fn with_scenario(mut self, scenario: Arc<TieredScenario>) -> DssmpConfig {
        self.scenario = Some(scenario);
        self
    }

    /// Sets the host worker budget (see
    /// [`workers`](DssmpConfig::workers)). The name dates from when
    /// this also selected an engine; `benchmark/` calls it.
    pub fn with_virtual_engine(mut self, workers: Option<usize>) -> DssmpConfig {
        self.workers = workers;
        self
    }

    /// Enables the observability sink (metrics registry + sharing
    /// profiler).
    pub fn with_observability(mut self) -> DssmpConfig {
        self.observe = true;
        self
    }

    /// Selects the coherence strategy (see
    /// [`protocol`](DssmpConfig::protocol)).
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> DssmpConfig {
        self.protocol = protocol;
        self
    }

    /// Number of SSMPs (`P / C`).
    pub fn n_ssmps(&self) -> usize {
        self.n_procs / self.cluster_size
    }

    /// The cluster sizes of the paper's method (§2.4): every power of
    /// two from 1 up to `P`, in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `P > 64`: the `C = 1` point has `P` SSMPs, and the
    /// protocol tracks at most 64 SSMPs. Every sweep gets its sizes
    /// here, so a sweep that cannot be built fails before it starts.
    pub fn cluster_sizes(&self) -> impl Iterator<Item = usize> {
        let p = self.n_procs;
        assert!(
            p <= 64,
            "a sweep's C = 1 point needs P = {p} SSMPs; the protocol tracks at most 64 SSMPs"
        );
        std::iter::successors(Some(1usize), |c| c.checked_mul(2)).take_while(move |&c| c <= p)
    }

    /// `true` when the whole machine is one SSMP (`C = P`): the paper's
    /// tightly-coupled baseline with null MGS calls.
    pub fn is_tightly_coupled(&self) -> bool {
        self.cluster_size == self.n_procs
    }

    /// SSMP (cluster) id of a global processor.
    pub fn ssmp_of(&self, proc: usize) -> usize {
        proc / self.cluster_size
    }

    /// Zero-latency external network (used by micro-measurements, which
    /// Table 3 reports at 0-cycle inter-SSMP delay).
    pub fn with_zero_latency(mut self) -> DssmpConfig {
        self.ext_latency = Cycles::ZERO;
        self
    }

    /// Overrides the external latency.
    pub fn with_ext_latency(mut self, latency: Cycles) -> DssmpConfig {
        self.ext_latency = latency;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let cfg = DssmpConfig::new(32, 4);
        assert_eq!(cfg.geometry.page_bytes(), 1024);
        assert_eq!(cfg.ext_latency, Cycles(1000));
        assert!(cfg.single_writer_opt);
        assert_eq!(cfg.n_ssmps(), 8);
    }

    #[test]
    fn ssmp_of_partitions_contiguously() {
        let cfg = DssmpConfig::new(8, 4);
        assert_eq!(cfg.ssmp_of(0), 0);
        assert_eq!(cfg.ssmp_of(3), 0);
        assert_eq!(cfg.ssmp_of(4), 1);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn indivisible_cluster_size_panics() {
        DssmpConfig::new(32, 5);
    }
}
