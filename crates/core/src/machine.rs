//! The DSSMP machine.

use crate::churn::ChurnState;
use crate::env::{Env, SharedArray, Word};
use crate::report::{ProcResult, RunReport};
use crate::DssmpConfig;
use mgs_cache::MissClass;
use mgs_net::{LanModel, MsgKind};
use mgs_obs::{Metric, MetricsReport, ObsEvent, ObsSink, TraceEvent};
use mgs_proto::{MgsProtocol, ProtoConfig, ProtoStats, RecordingTiming};
use mgs_sim::{Cycles, GovWaitSnapshot, Occupancy, VirtualScheduler};
use mgs_sync::{HwLock, MgsBarrier, MgsLock};
use mgs_vm::{AccessKind, SharedHeap};
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// A Distributed Scalable Shared-memory Multiprocessor.
///
/// Owns every piece of simulated machine state: the MGS protocol (which
/// in turn owns page tables, TLBs, DUQs and cache directories), the LAN
/// model, per-node protocol-engine occupancies, the shared heap, the
/// synchronization primitives, and the scheduler that paces the run.
///
/// Construct with [`Machine::new`], allocate shared data with
/// [`alloc_array`](Machine::alloc_array) and locks with
/// [`new_lock`](Machine::new_lock), then execute with
/// [`run`](Machine::run). A machine runs **once** (a second `run`
/// panics): sweeps construct a fresh machine per configuration.
#[derive(Debug)]
pub struct Machine {
    cfg: DssmpConfig,
    proto: Arc<MgsProtocol>,
    lan: Arc<LanModel>,
    engines: Vec<Arc<Occupancy>>,
    heap: SharedHeap,
    barrier: Arc<MgsBarrier>,
    governor: Arc<VirtualScheduler>,
    locks: Mutex<Vec<Arc<MgsLock>>>,
    hw_locks: Mutex<Vec<Arc<HwLock>>>,
    trace: Option<Mutex<Vec<TraceEvent>>>,
    obs: Option<Arc<ObsSink>>,
    churn: Option<Arc<ChurnState>>,
    /// Set by the first [`run`](Machine::run); a second one panics.
    ran: AtomicBool,
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(mut cfg: DssmpConfig) -> Arc<Machine> {
        if cfg.protocol == mgs_proto::ProtocolKind::Adaptive {
            // The adaptive-grain controller classifies pages from the
            // sharing profiler, so the sink must exist. Forcing it on
            // costs nothing simulated (the zero-perturbation
            // invariant).
            cfg.observe = true;
        }
        let mut pcfg = ProtoConfig::new(cfg.n_ssmps(), cfg.cluster_size);
        pcfg.geometry = cfg.geometry;
        pcfg.cost = cfg.cost.clone();
        pcfg.single_writer_opt = cfg.single_writer_opt;
        pcfg.readonly_clean_opt = cfg.readonly_clean_opt;
        pcfg.protocol = cfg.protocol;
        let proto = Arc::new(MgsProtocol::new(pcfg));
        let mut lan =
            LanModel::new(cfg.n_ssmps(), cfg.ext_latency).with_faults(cfg.fault_plan.clone());
        if let Some(scenario) = &cfg.scenario {
            lan = lan.with_scenario(Arc::clone(scenario));
        }
        let lan = Arc::new(lan);
        let churn = cfg
            .scenario
            .as_ref()
            .and_then(|s| ChurnState::new(s.churn(), cfg.n_ssmps()))
            .map(Arc::new);
        let engines = (0..cfg.n_procs)
            .map(|_| Arc::new(Occupancy::new()))
            .collect();
        let heap = SharedHeap::new(cfg.geometry);
        let barrier = Arc::new(MgsBarrier::new(
            cfg.cost.clone(),
            cfg.ext_latency,
            cfg.n_ssmps(),
            cfg.cluster_size,
        ));
        let governor = Arc::new(match cfg.governor_window {
            Some(window) => {
                let workers = cfg.workers.unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|c| c.get())
                        .unwrap_or(1)
                        .max(2)
                });
                VirtualScheduler::new(cfg.n_procs, window, workers)
            }
            None => VirtualScheduler::unpaced(cfg.n_procs),
        });
        let trace = cfg.trace.then(|| Mutex::new(Vec::new()));
        let obs = cfg.observe.then(|| {
            Arc::new(ObsSink::new(
                cfg.n_procs,
                cfg.geometry.lines_per_page() as usize,
            ))
        });
        Arc::new(Machine {
            cfg,
            proto,
            lan,
            engines,
            heap,
            barrier,
            governor,
            locks: Mutex::new(Vec::new()),
            hw_locks: Mutex::new(Vec::new()),
            trace,
            obs,
            churn,
            ran: AtomicBool::new(false),
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &DssmpConfig {
        &self.cfg
    }

    /// The MGS protocol instance (for statistics and inspection).
    pub fn protocol(&self) -> &Arc<MgsProtocol> {
        &self.proto
    }

    /// Protocol event statistics.
    pub fn proto_stats(&self) -> &ProtoStats {
        self.proto.stats()
    }

    /// The external network model.
    pub fn lan(&self) -> &Arc<LanModel> {
        &self.lan
    }

    pub(crate) fn engines(&self) -> &[Arc<Occupancy>] {
        &self.engines
    }

    pub(crate) fn barrier_obj(&self) -> &Arc<MgsBarrier> {
        &self.barrier
    }

    pub(crate) fn governor(&self) -> &Arc<VirtualScheduler> {
        &self.governor
    }

    pub(crate) fn churn(&self) -> Option<&Arc<ChurnState>> {
        self.churn.as_ref()
    }

    /// Stale directory entries repaired at churn rejoins so far (0 after
    /// clean drains, and 0 when the scenario has no churn schedule).
    pub fn churn_repaired(&self) -> u64 {
        self.churn.as_ref().map_or(0, |c| c.repaired())
    }

    /// Per-processor scheduler wait accounting for the run so far.
    /// Host-side observations only (times descheduled, wall-clock wait
    /// histograms) — the scheduler never touches simulated time.
    /// Always `Some`; the `Option` is what `benchmark/` matches on.
    pub fn governor_waits(&self) -> Option<GovWaitSnapshot> {
        Some(self.governor.wait_snapshot())
    }

    /// Records one protocol event on behalf of processor `proc` at its
    /// simulated `time`: into the sharing profiler, and into the trace
    /// when tracing — except the requester-local charges (`Local`,
    /// `WaitUntil`), which a transaction span's length already sums.
    #[inline]
    pub(crate) fn record(&self, proc: usize, time: Cycles, event: ObsEvent) {
        if let Some(obs) = &self.obs {
            obs.profiler.record(self.cfg.ssmp_of(proc), &event);
        }
        if let Some(t) = &self.trace {
            if !matches!(event, ObsEvent::Local { .. } | ObsEvent::WaitUntil { .. }) {
                t.lock().push(TraceEvent { proc, time, event });
            }
        }
    }

    pub(crate) fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// The observability sink, when
    /// [`DssmpConfig::observe`](crate::DssmpConfig) is enabled: the
    /// sharded latency registry and the per-page sharing profiler. Query
    /// it after [`run`](Machine::run) (the counts are in
    /// [`metrics`](Machine::metrics)).
    pub fn obs(&self) -> Option<&Arc<ObsSink>> {
        self.obs.as_ref()
    }

    /// The run's counts so far, when
    /// [`DssmpConfig::observe`](crate::DssmpConfig) is enabled
    /// ([`RunReport::metrics`](crate::RunReport) after a run): the
    /// registry's histograms, and every count read from the layer that
    /// owns it.
    pub fn metrics(&self) -> Option<MetricsReport> {
        let mut m = self.obs.as_ref()?.registry.merge();
        let caches = || (0..self.cfg.n_ssmps()).map(|s| self.proto.cache_system(s).stats());
        let hw = [
            Metric::HwHit,
            Metric::HwLocalMiss,
            Metric::HwRemoteClean,
            Metric::HwTwoParty,
            Metric::HwThreeParty,
            Metric::HwSwDirectory,
        ];
        for (class, metric) in MissClass::ALL.into_iter().zip(hw) {
            m.set(metric, caches().map(|c| c.count(class)).sum());
        }
        for (metric, write) in [(Metric::Loads, false), (Metric::Stores, true)] {
            m.set(metric, caches().map(|c| c.accesses(write)).sum());
        }
        let net = self.lan.stats();
        for kind in MsgKind::ALL {
            m.set_lan(kind, net.msgs(kind));
        }
        let (acquires, hits) = self.lock_totals();
        let (departs, rejoins, rehomed) = self.churn.as_ref().map_or((0, 0, 0), |c| c.totals());
        let hw_acquires = self.hw_locks.lock().iter().map(|l| l.acquires()).sum();
        let owned = [
            (Metric::LanDrops, net.dropped_total()),
            (Metric::LanDuplicates, net.duplicated_total()),
            (Metric::LockAcquiresLocal, hits),
            // Mid-run, a hit may land between the two reads.
            (Metric::LockAcquiresRemote, acquires.saturating_sub(hits)),
            (Metric::HwLockAcquires, hw_acquires),
            (Metric::BarrierArrivals, self.barrier.arrivals()),
            (Metric::ChurnDepartures, departs),
            (Metric::ChurnRejoins, rejoins),
            (Metric::ChurnRehomedPages, rehomed),
        ];
        for (metric, total) in self.proto.stats().metrics().into_iter().chain(owned) {
            m.set(metric, total);
        }
        Some(m)
    }

    /// Takes the accumulated protocol trace (empty unless
    /// [`DssmpConfig::trace`] was enabled). Events are ordered by when
    /// the runtime recorded them, not globally by simulated time — sort
    /// by `time` per processor for a per-processor timeline.
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        match &self.trace {
            Some(t) => std::mem::take(&mut *t.lock()),
            None => Vec::new(),
        }
    }

    /// Allocates a shared array of `len` elements, packed contiguously
    /// on the shared heap (adjacent allocations share pages, exactly as
    /// with the paper's `malloc`-based applications).
    pub fn alloc_array<T: Word>(&self, len: u64, kind: AccessKind) -> SharedArray<T> {
        SharedArray {
            range: self.heap.alloc(len, kind),
            _elem: PhantomData,
        }
    }

    /// Allocates a shared array starting on a fresh page boundary.
    pub fn alloc_array_pages<T: Word>(&self, len: u64, kind: AccessKind) -> SharedArray<T> {
        SharedArray {
            range: self.heap.alloc_pages(len, kind),
            _elem: PhantomData,
        }
    }

    /// Allocates a page-aligned shared array whose pages are **homed by
    /// an explicit distribution**: `home_of_page(i)` gives the global
    /// processor that homes the array's `i`-th page. This is how the
    /// paper's applications lay out their data ("a global molecule
    /// array is distributed amongst processors", §5.2.1): a block's
    /// pages live at its owner, so releases of privately-written pages
    /// stay SSMP-local.
    ///
    /// # Panics
    ///
    /// Panics if a returned home node is out of range or a page was
    /// already touched.
    pub fn alloc_array_homed<T: Word>(
        &self,
        len: u64,
        kind: AccessKind,
        home_of_page: impl Fn(u64) -> usize,
    ) -> SharedArray<T> {
        let arr = self.alloc_array_pages::<T>(len, kind);
        let geom = self.cfg.geometry;
        let first_page = geom.page_of(arr.addr_of(0));
        let n_pages = geom.pages_for(len * 8);
        for i in 0..n_pages {
            self.proto.set_home(first_page + i, home_of_page(i));
        }
        arr
    }

    /// Allocates a page-aligned shared array block-distributed over all
    /// processors: page `i` of the array is homed at the processor that
    /// owns the corresponding element block (the common case of
    /// [`alloc_array_homed`](Machine::alloc_array_homed)).
    pub fn alloc_array_blocked<T: Word>(&self, len: u64, kind: AccessKind) -> SharedArray<T> {
        let geom = self.cfg.geometry;
        let n_pages = geom.pages_for(len * 8).max(1);
        let p = self.cfg.n_procs as u64;
        self.alloc_array_homed(len, kind, |page| ((page * p) / n_pages) as usize)
    }

    /// Creates (and registers, for hit-ratio statistics) a new MGS
    /// token-based lock.
    pub fn new_lock(&self) -> Arc<MgsLock> {
        let lock = Arc::new(
            MgsLock::new(
                self.cfg.cost.clone(),
                self.cfg.ext_latency,
                self.cfg.n_ssmps(),
            )
            .with_affinity_window(self.cfg.lock_affinity_window),
        );
        self.locks.lock().push(Arc::clone(&lock));
        lock
    }

    /// Creates (and registers, for the `HwLockAcquires` count) an
    /// intra-SSMP hardware lock (see [`HwLock`](mgs_sync::HwLock); not
    /// counted in the MGS lock hit-ratio statistics, since it never
    /// communicates between SSMPs).
    pub fn new_hw_lock(&self) -> Arc<HwLock> {
        let lock = Arc::new(HwLock::new(self.cfg.cost.clone()));
        self.hw_locks.lock().push(Arc::clone(&lock));
        lock
    }

    /// Aggregate lock statistics over every lock created so far:
    /// `(total_acquires, hits)`.
    pub fn lock_totals(&self) -> (u64, u64) {
        let locks = self.locks.lock();
        let mut acquires = 0;
        let mut hits = 0;
        for l in locks.iter() {
            acquires += l.stats().acquires.get();
            hits += l.stats().hits.get();
        }
        (acquires, hits)
    }

    /// Reads element `i` of a shared array directly from its home copy,
    /// bypassing the timing model (instrumentation: result
    /// verification after a run — home copies are current once every
    /// processor has passed a final barrier).
    pub fn peek<T: Word>(&self, arr: &SharedArray<T>, i: u64) -> T {
        let va = arr.addr_of(i);
        let geom = self.cfg.geometry;
        let frame = self.proto.home_frame(geom.page_of(va));
        T::from_word(frame.load(geom.word_offset(va)))
    }

    /// Writes element `i` of a shared array directly into its home
    /// copy, bypassing the timing model (instrumentation: workload
    /// initialization *before* a run, while no SSMP holds a copy).
    pub fn poke<T: Word>(&self, arr: &SharedArray<T>, i: u64, value: T) {
        let va = arr.addr_of(i);
        let geom = self.cfg.geometry;
        let frame = self.proto.home_frame(geom.page_of(va));
        frame.store(geom.word_offset(va), value.to_word());
    }

    /// Runs `body` on every simulated processor and collects the run
    /// report. The closure receives each processor's [`Env`].
    ///
    /// Each processor is a task of the machine's scheduler
    /// ([`VirtualScheduler::run`]): on x86_64 Linux a coroutine on a
    /// small guard-paged stack, switched into by `min(workers, P)` host
    /// threads (elsewhere a parked host thread), so at most the worker
    /// budget of them executes at any instant, none more than a window
    /// ahead of the slowest and each worker's own block of processors
    /// first — all of them at once when the run is unpaced. A task that
    /// panics aborts the run: its peers are resumed into a panic, so
    /// their locals are dropped, and `run` re-raises the first task's
    /// payload. A task may resume on a different host thread than it
    /// was suspended on, so `body` must not keep anything tied to a
    /// thread (a thread-local borrow, a host lock guard) across an
    /// [`Env`] call.
    ///
    /// `body` must not block on host-side synchronization the scheduler
    /// cannot see (a `std` mutex, barrier or channel shared between
    /// processors): the task it waits for may not hold a host slot, and
    /// the deadlock detector only sees waits made through [`Env`].
    ///
    /// # Panics
    ///
    /// Panics if called a second time: a machine runs once. Its tasks
    /// are spent and its simulated state (caches, protocol statistics,
    /// resource clocks) is that of the finished run, so build a fresh
    /// machine per run.
    pub fn run<F>(self: &Arc<Machine>, body: F) -> RunReport
    where
        F: Fn(&mut Env) + Sync,
    {
        assert!(
            !self.ran.swap(true, Ordering::Relaxed),
            "Machine::run called twice: a machine runs once, build a fresh one per run"
        );
        let results: Vec<OnceLock<ProcResult>> =
            (0..self.cfg.n_procs).map(|_| OnceLock::new()).collect();
        self.governor.run(&|proc| {
            let mut env = Env::new(Arc::clone(self), proc);
            body(&mut env);
            results[proc]
                .set(env.finish())
                .expect("a processor finishes once");
        });
        let results: Vec<ProcResult> = results
            .into_iter()
            .map(|r| r.into_inner().expect("every processor finished"))
            .collect();
        // Post-run reconciliation: flush every page the lazy migratory
        // release left pinned, so host-side readback (`peek`, result
        // verification) sees the canonical final memory image. Runs on
        // a detached recording sink after the simulated clocks are
        // final — it charges no simulated time and perturbs nothing; a
        // no-op unless the adaptive controller pinned pages. Its
        // observations still happened, so they are recorded for
        // processor 0 at the run's final time (the recorder's clock
        // starts there too); its messages and engine work did not, as
        // neither the fabric nor an engine carried them.
        let end = results.iter().map(|r| r.end).max().unwrap_or(Cycles::ZERO);
        let mut drain = RecordingTiming::new(self.cfg.cost.clone(), Cycles::ZERO);
        drain.wait_until(end);
        self.proto
            .drain_pinned(&mut drain)
            .unwrap_or_else(|e| panic!("unrecoverable MGS protocol failure: {e}"));
        for &event in drain.events() {
            if !matches!(event, ObsEvent::Message { .. } | ObsEvent::NodeWork { .. }) {
                self.record(0, end, event);
            }
        }
        RunReport::from_procs(
            results,
            self.lock_totals(),
            (
                self.lan.stats().total_msgs(),
                self.lan.stats().total_bytes(),
            ),
            (
                self.lan.stats().dropped_total(),
                self.lan.stats().duplicated_total(),
                self.proto.stats().retries.get(),
            ),
            self.churn.as_ref().map_or((0, 0, 0), |c| c.totals()),
            self.metrics(),
            self.proto.policy_decisions(),
        )
    }
}
