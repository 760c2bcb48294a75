//! The per-processor execution environment.

use crate::churn::ChurnState;
use crate::report::ProcResult;
use crate::runtime::RuntimeTiming;
use crate::Machine;
use mgs_cache::{CacheConfig, ProcCache};
use mgs_obs::{LatencyClass, ObsSink};
use mgs_proto::MgsProtocol;
use mgs_sim::{CostCategory, CostModel, CycleAccount, Cycles, ProcClock, VirtualScheduler};
use mgs_sync::{HwLock, MgsLock};
use mgs_vm::{AccessKind, PageGeometry, ProcTlb, TlbEntry, VRange};
use std::marker::PhantomData;
use std::sync::Arc;

/// Types that can live in simulated shared memory (one 8-byte word per
/// element).
pub trait Word: Copy + Send + Sync + 'static {
    /// Encodes the value into a 64-bit memory word.
    fn to_word(self) -> u64;
    /// Decodes the value from a 64-bit memory word.
    fn from_word(w: u64) -> Self;
}

impl Word for u64 {
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(w: u64) -> u64 {
        w
    }
}

impl Word for i64 {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> i64 {
        w as i64
    }
}

impl Word for f64 {
    fn to_word(self) -> u64 {
        self.to_bits()
    }
    fn from_word(w: u64) -> f64 {
        f64::from_bits(w)
    }
}

impl Word for u32 {
    fn to_word(self) -> u64 {
        u64::from(self)
    }
    fn from_word(w: u64) -> u32 {
        w as u32
    }
}

impl Word for usize {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> usize {
        w as usize
    }
}

/// A typed view of a shared allocation. `Copy`, so it can be captured
/// by every processor's closure.
///
/// # Example
///
/// ```
/// use mgs_core::{AccessKind, DssmpConfig, Machine};
///
/// let machine = Machine::new(DssmpConfig::new(2, 2));
/// let arr = machine.alloc_array::<f64>(8, AccessKind::DistArray);
/// machine.run(|env| {
///     if env.pid() == 0 {
///         arr.write(env, 3, 2.5);
///     }
///     env.barrier();
///     assert_eq!(arr.read(env, 3), 2.5);
/// });
/// ```
#[derive(Debug)]
pub struct SharedArray<T> {
    pub(crate) range: VRange,
    pub(crate) _elem: PhantomData<fn() -> T>,
}

impl<T> Clone for SharedArray<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedArray<T> {}

impl<T: Word> SharedArray<T> {
    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.range.words()
    }

    /// `true` if the array has no elements (never: allocations are
    /// nonempty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Virtual address of element `i` (for building pointer-based
    /// structures).
    pub fn addr_of(&self, i: u64) -> u64 {
        self.range.addr_of(i)
    }

    /// The underlying allocation descriptor.
    pub fn range(&self) -> VRange {
        self.range
    }

    /// Reads element `i` through the simulated memory system.
    pub fn read(&self, env: &mut Env, i: u64) -> T {
        T::from_word(env.load(self.range.addr_of(i), self.range.kind()))
    }

    /// Writes element `i` through the simulated memory system.
    pub fn write(&self, env: &mut Env, i: u64, value: T) {
        env.store(self.range.addr_of(i), self.range.kind(), value.to_word());
    }
}

/// A simulated processor's execution environment.
///
/// One `Env` exists per processor task during [`Machine::run`]. All
/// simulated work flows through it: shared-memory accesses (translated,
/// cached, faulted, and charged), synchronization, and explicit compute
/// charging.
#[derive(Debug)]
pub struct Env {
    machine: Arc<Machine>,
    proc: usize,
    ssmp: usize,
    null_mgs: bool,
    clock: ProcClock,
    pcache: ProcCache,
    start: (Cycles, CycleAccount),
    next_tick: Cycles,
    tick_stride: Cycles,
    /// The machine's scheduler, hoisted out of the `Arc<Machine>` so the
    /// tick-throttle path and the sync-primitive hooks dereference no
    /// machine state.
    gov: Arc<VirtualScheduler>,
    // --- Hot-path state, hoisted out of the Arc<Machine> so the
    // per-access path dereferences no config and clones no Arc. ---
    /// The protocol handle (one Arc clone at construction).
    proto: Arc<MgsProtocol>,
    /// Page geometry (copied out of the config).
    geometry: PageGeometry,
    /// Processors per SSMP.
    cluster_size: usize,
    /// Global id of this SSMP's first processor (`ssmp * C`): a
    /// processor of the SSMP, this one or a frame's home, is local
    /// index `id - first_proc`, a subtraction where `id % C` would
    /// divide on every access.
    first_proc: usize,
    /// The cost table (cloned out of the config).
    cost: CostModel,
    /// This processor's software TLB: only this processor reads or
    /// writes it (see [`ProcTlb`]).
    tlb: ProcTlb,
    /// Whether the protocol posts write notices (an LRC-flavored
    /// strategy), hoisted because it is constant for the machine's
    /// lifetime and gates every acquire point.
    uses_notices: bool,
    /// The machine's observability sink, hoisted so the per-access
    /// counting path is a null check plus a relaxed atomic increment
    /// into this processor's shard — no locks, no allocation, and no
    /// simulated-clock interaction (the zero-perturbation invariant).
    obs: Option<Arc<ObsSink>>,
    /// The scenario churn controller, hoisted for the polled due check
    /// at the protocol slow paths (`None` on churn-free scenarios, so
    /// the common case is one branch).
    churn: Option<Arc<ChurnState>>,
}

impl Env {
    pub(crate) fn new(machine: Arc<Machine>, proc: usize) -> Env {
        let cfg = machine.config();
        let ssmp = cfg.ssmp_of(proc);
        let null_mgs = cfg.is_tightly_coupled();
        // Consult the scheduler at most once per stride of simulated
        // cycles, a quarter-window. The observable skew bound is
        // `window + stride`. (An unpaced scheduler's window is
        // `Cycles::MAX`, so the stride is never reached.)
        let gov = Arc::clone(machine.governor());
        let tick_stride = Cycles((gov.window().raw() / 4).max(1));
        let proto = Arc::clone(machine.protocol());
        let uses_notices = proto.uses_notices();
        let geometry = cfg.geometry;
        let cluster_size = cfg.cluster_size;
        let cost = cfg.cost.clone();
        let obs = machine.obs().cloned();
        let churn = machine.churn().cloned();
        Env {
            machine,
            proc,
            ssmp,
            null_mgs,
            clock: ProcClock::new(),
            pcache: ProcCache::new(CacheConfig::alewife()),
            start: (Cycles::ZERO, CycleAccount::new()),
            next_tick: Cycles::ZERO,
            tick_stride,
            gov,
            proto,
            geometry,
            cluster_size,
            first_proc: ssmp * cluster_size,
            cost,
            tlb: ProcTlb::new(),
            uses_notices,
            obs,
            churn,
        }
    }

    /// This processor's global id (`0..P`).
    pub fn pid(&self) -> usize {
        self.proc
    }

    /// Total processor count `P`.
    pub fn nprocs(&self) -> usize {
        self.machine.config().n_procs
    }

    /// This processor's SSMP (cluster) id.
    pub fn cluster(&self) -> usize {
        self.ssmp
    }

    /// Processors per SSMP (`C`).
    pub fn cluster_size(&self) -> usize {
        self.cluster_size
    }

    /// Number of SSMPs (`P / C`).
    pub fn n_clusters(&self) -> usize {
        self.machine.config().n_ssmps()
    }

    /// This processor's index within its SSMP.
    pub fn local_index(&self) -> usize {
        self.proc - self.first_proc
    }

    /// The processor's current simulated time.
    pub fn now(&self) -> Cycles {
        self.clock.now()
    }

    /// The machine this environment belongs to.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Charges `cycles` of computation to user time (the simulator's
    /// stand-in for instruction execution between shared accesses).
    pub fn compute(&mut self, cycles: u64) {
        self.clock.charge(CostCategory::User, Cycles(cycles));
        self.maybe_tick();
    }

    /// Marks the start of the measured region (typically right after an
    /// initialization barrier); the run report covers work from here.
    pub fn start_measurement(&mut self) {
        self.start = (self.clock.now(), *self.clock.account());
    }

    // ------------------------------------------------------------------
    // Memory accesses
    // ------------------------------------------------------------------

    /// Loads the 64-bit word at virtual address `va`.
    pub fn load(&mut self, va: u64, kind: AccessKind) -> u64 {
        self.access(va, kind, false, 0)
    }

    /// Stores a 64-bit word at virtual address `va`.
    pub fn store(&mut self, va: u64, kind: AccessKind, value: u64) {
        self.access(va, kind, true, value);
    }

    fn access(&mut self, va: u64, kind: AccessKind, write: bool, value: u64) -> u64 {
        self.maybe_tick();
        // In-lined software translation (§4.2.1): user time.
        let xlate = match kind {
            AccessKind::DistArray => self.cost.xlate_array,
            AccessKind::Pointer => self.cost.xlate_pointer,
        };
        self.clock.charge(CostCategory::User, xlate);

        let page = self.geometry.page_of(va);
        // One call does the rest under the line's directory stripe —
        // or, for a read hit, inside an optimistic read of it: the
        // mapping generation is re-validated, so a mapping made before
        // a shootdown re-faults rather than touching a retired copy
        // (the translation critical section of §4.2.1), and hardware
        // coherence classifies the access (its stall counts as user
        // time, §5.2.1) and performs the load or store. A quiesce holds
        // every stripe of the frame's lines, so a store that lands is
        // always covered by the diff that follows it. The line's stripe
        // is found through the frame's own directory blocks, claimed by
        // its first access and fixed thereafter.
        //
        // The frame is borrowed from its slot, not cloned: the frame's
        // `Arc` count is a line every processor mapping the page would
        // otherwise write on every access. Nothing below touches `tlb`,
        // so the borrow lives across the access.
        let word = self.geometry.word_offset(va);
        let my_local = self.local_index();
        loop {
            if let Some((frame, gen)) = self.tlb.probe(page, write) {
                debug_assert_eq!(
                    frame.home_node() / self.cluster_size,
                    self.ssmp,
                    "a processor accesses only frames of its own SSMP, whose directory guards them"
                );
                let sys = self.proto.cache_system(self.ssmp);
                let line = frame.line_of_word(word);
                let served = sys.access_hinted(
                    &mut self.pcache,
                    my_local,
                    line,
                    frame.home_node() - self.first_proc,
                    write,
                    frame.dir_hint(line),
                    frame.word(word, gen, value),
                );
                if let Some(served) = served {
                    self.clock
                        .charge(CostCategory::User, served.class.cost(&self.cost));
                    return served.value;
                }
            }
            // A miss, a read-only slot for a write or a retired
            // generation: a TLB fault, whose entry overwrites the
            // page's slot.
            let entry = self.fault(page, write);
            self.tlb.fill(page, entry);
        }
    }

    fn fault(&mut self, page: u64, write: bool) -> TlbEntry {
        if self.null_mgs {
            // Tightly-coupled baseline (§5.2.1): MGS calls are null; the
            // remaining cost is the software-VM page-table fill, which
            // the paper folds into user time. It is a fault satisfied by
            // a local mapping, so the protocol's count sees it too.
            self.clock
                .charge(CostCategory::User, self.cost.tlb_fill_cost());
            self.proto.stats().tlb_fills.incr();
            if let Some(obs) = &self.obs {
                obs.registry.record_latency(
                    self.proc,
                    LatencyClass::TlbFill,
                    self.cost.tlb_fill_cost(),
                );
            }
            let frame = self.proto.home_frame(page);
            return TlbEntry {
                gen: frame.generation(),
                frame,
                writable: true,
            };
        }
        self.maybe_churn();
        self.maybe_adapt();
        let mut timing = RuntimeTiming::new(&mut self.clock, &self.machine, self.proc);
        self.proto.fault(self.proc, page, write, &mut timing)
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// Acquires an MGS lock; blocks until granted and charges the wait
    /// to lock time.
    pub fn acquire(&mut self, lock: &MgsLock) {
        self.maybe_tick();
        self.maybe_churn();
        self.maybe_adapt();
        let requested = self.clock.now();
        let (granted, _) = lock.acquire_gov(self.ssmp, requested, Some((&self.gov, self.proc)));
        if let Some(obs) = &self.obs {
            obs.registry.record_latency(
                self.proc,
                LatencyClass::LockWait,
                granted.saturating_sub(requested),
            );
        }
        self.clock.advance_to(CostCategory::Lock, granted);
        self.acquire_sync();
    }

    /// Releases an MGS lock. A release point under eager release
    /// consistency: the delayed update queue is flushed *before* the
    /// lock is handed over, which is exactly the paper's
    /// critical-section dilation.
    pub fn release(&mut self, lock: &MgsLock) {
        self.flush();
        self.clock
            .charge(CostCategory::Lock, self.cost.lock_local_release);
        lock.release_gov(self.clock.now(), Some(&self.gov));
    }

    /// Acquires an intra-SSMP hardware lock (no software coherence
    /// actions; see [`HwLock`] for when this is correct).
    pub fn acquire_hw(&mut self, lock: &HwLock) {
        self.maybe_tick();
        let requested = self.clock.now();
        let granted = lock.acquire_gov(requested, Some((&self.gov, self.proc)));
        if let Some(obs) = &self.obs {
            obs.registry.record_latency(
                self.proc,
                LatencyClass::LockWait,
                granted.saturating_sub(requested),
            );
        }
        self.clock.advance_to(CostCategory::Lock, granted);
    }

    /// Releases an intra-SSMP hardware lock (not a release point: the
    /// delayed update queue is untouched).
    pub fn release_hw(&mut self, lock: &HwLock) {
        self.clock
            .charge(CostCategory::Lock, self.cost.lock_local_release);
        lock.release_gov(self.clock.now(), Some(&self.gov));
    }

    /// Waits at the machine-wide barrier (also a release point, and —
    /// under a notice-posting strategy — an acquire point that drains
    /// pending write notices).
    pub fn barrier(&mut self) {
        self.flush();
        self.barrier_sync_only();
        self.acquire_sync();
    }

    /// Waits at the machine-wide barrier *without* performing a release
    /// (no DUQ flush). Not a correct release point under release
    /// consistency — this exists for instrumentation scripts (the
    /// Table 3 micro-measurements) that need to sequence processors
    /// without disturbing protocol state. Application code should use
    /// [`barrier`](Env::barrier).
    pub fn barrier_sync_only(&mut self) {
        self.maybe_tick();
        self.maybe_churn();
        self.maybe_adapt();
        let arrived = self.clock.now();
        let released = self
            .machine
            .barrier_obj()
            .arrive_gov(arrived, Some((&self.gov, self.proc)));
        if let Some(obs) = &self.obs {
            obs.registry.record_latency(
                self.proc,
                LatencyClass::BarrierWait,
                released.saturating_sub(arrived),
            );
        }
        self.clock.advance_to(CostCategory::Barrier, released);
    }

    /// Acquire-side coherence: drop stale copies noticed by releases
    /// (only when the protocol posts write notices — a home-based LRC
    /// strategy), then empty the TLB slots that shoot-downs retired, so
    /// an invalidated copy is not kept alive by a page this processor
    /// never touches again. Pruning charges nothing and moves no cycle:
    /// a retired slot and an empty one both fault.
    fn acquire_sync(&mut self) {
        if self.null_mgs {
            return;
        }
        if self.uses_notices {
            let mut timing = RuntimeTiming::new(&mut self.clock, &self.machine, self.proc);
            self.proto.acquire_sync(self.proc, &mut timing);
        }
        self.tlb.prune();
    }

    /// Flushes this processor's delayed update queue (a release
    /// operation, charged to MGS time). A no-op on the tightly-coupled
    /// baseline.
    pub fn flush(&mut self) {
        if self.null_mgs {
            return;
        }
        let mut timing = RuntimeTiming::new(&mut self.clock, &self.machine, self.proc);
        self.proto.release_all(self.proc, &mut timing);
    }

    // ------------------------------------------------------------------
    // Plumbing
    // ------------------------------------------------------------------

    /// Polls the churn controller at protocol slow paths (faults, lock
    /// acquires, barriers — never the per-access hot path). The poll
    /// points hold no protocol locks, so the winning processor can take
    /// the apply lock and run the full drain safely.
    fn maybe_churn(&mut self) {
        let Some(churn) = &self.churn else { return };
        if !churn.due(self.clock.now()) {
            return;
        }
        let churn = Arc::clone(churn);
        let mut timing = RuntimeTiming::new(&mut self.clock, &self.machine, self.proc);
        churn.apply(&self.machine, &mut timing);
    }

    /// Polls the adaptive-grain controller at the same safe poll points
    /// as [`maybe_churn`](Env::maybe_churn). The due check is a relaxed
    /// atomic load (and constant-false under the static strategies); the
    /// winning processor reads the sharing profiler's cumulative
    /// counters and installs any per-page policy changes. Host-side
    /// only: classification charges no simulated cycles, and installed
    /// policies take effect at the next protocol slow path.
    fn maybe_adapt(&mut self) {
        if !self.proto.adapt_due(self.clock.now()) {
            return;
        }
        let Some(obs) = &self.obs else { return };
        let obs = Arc::clone(obs);
        let now = self.clock.now();
        let mut timing = RuntimeTiming::new(&mut self.clock, &self.machine, self.proc);
        self.proto.adapt(&obs.profiler, now, &mut timing);
    }

    fn maybe_tick(&mut self) {
        if self.clock.now() >= self.next_tick {
            self.gov.tick(self.proc, self.clock.now());
            self.next_tick = self.clock.now() + self.tick_stride;
        }
    }

    /// Ends the processor's run, adding its access counts to its SSMP's.
    pub(crate) fn finish(mut self) -> ProcResult {
        self.proto.cache_system(self.ssmp).absorb(&mut self.pcache);
        let (start_time, start_account) = self.start;
        let mut delta = CycleAccount::new();
        for c in CostCategory::ALL {
            delta.record(
                c,
                self.clock
                    .account()
                    .get(c)
                    .saturating_sub(start_account.get(c)),
            );
        }
        ProcResult {
            start: start_time,
            end: self.clock.now(),
            account: delta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DssmpConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// `mgs_apps::MatMul`'s kernel at n = 128 on P = C = 32 with one
    /// host worker: 4.2 M accesses, and each processor touches the 4
    /// pages of its rows of `A` and of `C` (a 128-word row is one page)
    /// and all 128 pages of `B`, 136 pages, more than the 128 entries
    /// of the translation cache the table replaced. At `C = P` every
    /// fault is a TLB fill from the home copy, and no mapping is ever
    /// retired, so a processor faults once on each page it touches and
    /// never again: the table has no capacity misses.
    #[test]
    fn matmul_at_n128_fills_once_per_processor_and_page() {
        const N: u64 = 128;
        const P: usize = 32;
        let machine = Machine::new(DssmpConfig::new(P, P).with_virtual_engine(Some(1)));
        let [a, b, c] =
            [(); 3].map(|_| machine.alloc_array_blocked::<f64>(N * N, AccessKind::DistArray));
        for i in 0..N * N {
            machine.poke(&a, i, i as f64);
            machine.poke(&b, i, 1.0 / (i + 1) as f64);
        }
        let accesses = AtomicU64::new(0);
        machine.run(|env| {
            let rows = env.pid() as u64 * N / P as u64..(env.pid() as u64 + 1) * N / P as u64;
            let mut made = 0;
            env.barrier();
            for r in rows {
                for col in 0..N {
                    let mut acc = 0.0;
                    for k in 0..N {
                        acc += a.read(env, r * N + k) * b.read(env, k * N + col);
                        env.compute(134);
                    }
                    c.write(env, r * N + col, acc);
                    made += 2 * N + 1;
                }
            }
            env.barrier();
            accesses.fetch_add(made, Ordering::Relaxed);
        });
        assert_eq!(accesses.into_inner(), N * N * (2 * N + 1));
        let words_per_page = machine.config().geometry.words_per_page();
        let rows_per_proc = N / P as u64;
        let pages_per_proc = 2 * rows_per_proc * N / words_per_page + N * N / words_per_page;
        assert_eq!(pages_per_proc, 136);
        let s = machine.proto_stats();
        assert_eq!(s.tlb_fills.get(), P as u64 * pages_per_proc);
        for other in [&s.read_misses, &s.write_misses, &s.upgrades] {
            assert_eq!(other.get(), 0, "C = P faults are TLB fills");
        }
    }
}
