//! The MGS protocol engines (Local Client, Remote Client, Server): the
//! interpreter of [`step`](crate::step), which carries out each step's
//! [`Effects`] on frames, pools, caches, TLBs, DUQs and the
//! [`ProtoTiming`] sink. Every transaction's arcs of Table 1 /
//! Figure 4 of the paper are cited on its step.
//!
//! A page is one record under one host lock, and every transaction —
//! a fault, a TLB fill from a local copy included, a release, a drain —
//! is one step run under it. This is the simulator's analogue of the
//! paper's server-side request queuing (`REL_IN_PROG` queues
//! replication requests): the page lock serializes whole transactions,
//! so a processor that faults while a sibling fills the page waits on
//! the lock and then finds the copy mapped.

use crate::step::{ClientState, Ctx, Effects, Frame, PageState, ServerDirs};
use crate::strategy::{AdaptiveController, PagePolicy, PolicyDecision, ProtocolKind};
use crate::transport::{timeout_for, ProtocolError, SendOutcome, Transaction, MAX_RETRIES};
use crate::{ProtoConfig, ProtoStats, ProtoTiming, SpanDiff};
use mgs_cache::SsmpCacheSystem;
use mgs_net::MsgKind;
use mgs_obs::{ObsEvent, SharingProfiler, XactKind, XactOutcome};
use mgs_sim::Cycles;
use mgs_vm::{
    FrameAllocator, PageBuf, PageFrame, PageGeometry, PoolStats, Tlb, TlbEntry, TwinPool,
};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

type Res<T = ()> = Result<T, ProtocolError>;

const PAGE_SHARDS: usize = 32;
/// Pages in the page table's first segment (as a power of two); segment
/// `k` holds `1 << (FIRST_PAGES_BITS + k)`.
const FIRST_PAGES_BITS: u32 = 6;
/// Segments the page table can grow to: 64 × (2³² − 1) pages.
const PAGE_SEGMENTS: usize = 32;

/// One SSMP's host resources for one page; its protocol state is the
/// page's [`PageState`].
#[derive(Debug, Default)]
struct ClientPage {
    /// The SSMP's physical copy (the home frame itself at the home SSMP).
    frame: Option<Arc<PageFrame>>,
    /// Twin snapshot for diffing (never present at the home SSMP).
    /// Pooled: dropping it recycles the buffer for the next twin.
    twin: Option<PageBuf>,
    /// Bitmask of local processors with TLB mappings (`tlb_dir`).
    tlb_dir: u64,
}

/// A delayed update queue entry (§3.1.1): a page and the write mapping
/// that queued it. The entry is live while the mapping is: a shoot-down
/// of the mapping retires the frame's generation, and that is arc 12's
/// prune (`DUQ = DUQ − {addr}`), so no other processor edits the queue.
#[derive(Debug)]
struct Queued {
    page: u64,
    frame: Arc<PageFrame>,
    gen: u64,
}

impl Queued {
    fn live(&self) -> bool {
        self.frame.generation() == self.gen
    }
}

/// All protocol state for one virtual page, under the page's one lock.
#[derive(Debug)]
struct Page {
    st: PageState,
    /// The page's coherence policy: set at creation from the
    /// configured protocol; only the adaptive controller changes it.
    policy: PagePolicy,
    /// The physical home copy, at node `st.home`: fixed for all time
    /// (§3.1) unless a churn departure re-homes the page.
    home_frame: Arc<PageFrame>,
    /// Per-SSMP host resources.
    clients: Box<[ClientPage]>,
}

/// Every page's record, indexed by page number: page numbers are dense
/// from `VIRT_BASE`. A grow-only table of segments that double in size,
/// each allocated on first use, so finding a page's lock takes no lock,
/// no hash and no reference count; a record once created lives as long
/// as the table.
#[derive(Debug)]
struct PageTable {
    segments: [OnceLock<Box<[PageCell]>>; PAGE_SEGMENTS],
}

/// A page's place in the [`PageTable`]: empty until the page is created.
type PageCell = OnceLock<Box<Mutex<Page>>>;

impl PageTable {
    fn new() -> PageTable {
        PageTable {
            segments: [const { OnceLock::new() }; PAGE_SEGMENTS],
        }
    }

    /// `(segment, offset)` of a page.
    fn locate(page: u64) -> (usize, usize) {
        let n = page + (1 << FIRST_PAGES_BITS);
        let top = n.ilog2();
        ((top - FIRST_PAGES_BITS) as usize, (n - (1 << top)) as usize)
    }

    /// `page`'s cell, its segment allocated if it was not.
    fn cell(&self, page: u64) -> &PageCell {
        let (segment, offset) = Self::locate(page);
        let len = 1usize << (FIRST_PAGES_BITS as usize + segment);
        let segment = self
            .segments
            .get(segment)
            .expect("page number within the page table")
            .get_or_init(|| (0..len).map(|_| OnceLock::new()).collect());
        &segment[offset]
    }

    /// `page`'s record, if it was created.
    fn get(&self, page: u64) -> Option<&Mutex<Page>> {
        let (segment, offset) = Self::locate(page);
        Some(self.segments.get(segment)?.get()?[offset].get()?)
    }

    /// Every created record, in page order.
    fn iter(&self) -> impl Iterator<Item = (u64, &Mutex<Page>)> {
        let segments = self.segments.iter().enumerate();
        segments.flat_map(|(k, segment)| {
            let first = (1u64 << (FIRST_PAGES_BITS as usize + k)) - (1 << FIRST_PAGES_BITS);
            let cells = segment.get().map_or(&[][..], |cells| &cells[..]);
            (first..)
                .zip(cells)
                .filter_map(|(page, cell)| Some((page, &**cell.get()?)))
        })
    }
}

/// The MGS multigrain shared memory protocol.
///
/// One instance manages every virtual page of a DSSMP: each page's
/// record (its protocol state, its physical home copy and every SSMP's
/// copy), per-processor delayed update queues, and the per-SSMP cache
/// directories (for page cleaning). It keeps no TLB contents: each
/// processor's `Env` owns its table (`mgs_vm::ProcTlb`) and fills it
/// with the entry [`fault`](MgsProtocol::fault) returns, and a PINV
/// retires a mapping by bumping its frame's generation.
///
/// The records sit in a dense table indexed by page number (page
/// numbers count up from `VIRT_BASE`): a transaction finds its page's
/// lock by indexing, with no lock, hash or reference count, and only
/// a page's creation takes a lock — its shard of the home overrides
/// [`set_home`](MgsProtocol::set_home) registers. Every frame the
/// protocol holds is made bound to the line directory of its home
/// node's SSMP and keeps its blocks there until it drops.
///
/// Transactions ([`fault`](MgsProtocol::fault),
/// [`release_all`](MgsProtocol::release_all)) execute synchronously in
/// the calling thread and report their timing through a
/// [`ProtoTiming`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mgs_proto::{MgsProtocol, ProtoConfig, RecordingTiming};
/// use mgs_sim::Cycles;
///
/// let cfg = ProtoConfig::new(2, 2);
/// let proto = MgsProtocol::new(cfg.clone());
/// let mut t = RecordingTiming::new(cfg.cost.clone(), Cycles::ZERO);
/// // Processor 2 (SSMP 1) write-faults on page 0 (homed at SSMP 0).
/// let entry = proto.fault(2, 0, true, &mut t);
/// entry.frame.store(5, 42);
/// proto.release_all(2, &mut t);
/// // The release propagated the write to the home copy.
/// assert_eq!(proto.home_frame(0).load(5), 42);
/// ```
#[derive(Debug)]
pub struct MgsProtocol {
    cfg: ProtoConfig,
    frames: FrameAllocator,
    /// What [`tlb`](MgsProtocol::tlb) returns: never filled.
    empty_tlb: Tlb,
    /// Per-processor delayed update queues, in queueing order; only the
    /// processor itself writes its queue.
    duqs: Vec<Mutex<Vec<Queued>>>,
    caches: Vec<Arc<SsmpCacheSystem>>,
    pages: PageTable,
    /// Home overrides of pages not yet created, sharded by page number;
    /// each is consumed when its page is created, under its shard's
    /// lock, after which the page's state holds it.
    homes: Vec<Mutex<HashMap<u64, usize>>>,
    /// Per-SSMP write-notice queues (home-LRC lazy invalidation): pages
    /// whose [`PageState::noticed`] bit the SSMP holds, to drain at its
    /// next acquire point. A page leaves only once drained; the mutex is
    /// a leaf, held for one push, peek or pop.
    notices: Vec<Mutex<VecDeque<u64>>>,
    /// Per-SSMP recycled page-sized buffers for twins and shipped
    /// pages: the page-grain data kernels run allocation-free in steady
    /// state. Sharded per SSMP so concurrent releases on different
    /// SSMPs never contend on a host-side lock.
    twin_pools: Vec<TwinPool>,
    /// Per-SSMP recycled [`SpanDiff`] scratch instances for the release
    /// path (their span/value buffers keep their capacity between
    /// diffs).
    diff_scratch: Vec<Mutex<Vec<SpanDiff>>>,
    /// Fresh `SpanDiff` instances ever created (for the zero-allocation
    /// steady-state assertion; see
    /// [`diff_scratch_created`](MgsProtocol::diff_scratch_created)).
    diff_scratch_created: AtomicU64,
    stats: ProtoStats,
    /// The adaptive controller's sampling deadline and decision trace:
    /// present iff `cfg.protocol` is [`ProtocolKind::Adaptive`].
    controller: Option<AdaptiveController>,
}

impl MgsProtocol {
    /// Creates a protocol instance with its DUQs and cache systems (the
    /// runtime's memory-access fast path reaches the latter through
    /// [`cache_system`](MgsProtocol::cache_system)).
    pub fn new(cfg: ProtoConfig) -> MgsProtocol {
        let (n_procs, n_ssmps) = (cfg.n_procs(), cfg.n_ssmps);
        let controller = (cfg.protocol == ProtocolKind::Adaptive).then(AdaptiveController::new);
        let caches: Vec<_> = (0..n_ssmps)
            .map(|_| Arc::new(SsmpCacheSystem::new(cfg.cost.dir_hw_pointers)))
            .collect();
        MgsProtocol {
            controller,
            frames: FrameAllocator::with_directories(
                cfg.geometry,
                cfg.procs_per_ssmp,
                caches.iter().map(|sys| sys.directory().clone()),
            ),
            twin_pools: (0..n_ssmps)
                .map(|_| TwinPool::new(cfg.geometry.words_per_page() as usize))
                .collect(),
            empty_tlb: Tlb::new(),
            duqs: (0..n_procs).map(|_| Mutex::default()).collect(),
            caches,
            cfg,
            pages: PageTable::new(),
            homes: (0..PAGE_SHARDS).map(|_| Mutex::default()).collect(),
            notices: (0..n_ssmps).map(|_| Default::default()).collect(),
            diff_scratch: (0..n_ssmps).map(|_| Mutex::new(Vec::new())).collect(),
            diff_scratch_created: AtomicU64::new(0),
            stats: ProtoStats::new(),
        }
    }

    /// Aggregate statistics of the per-SSMP page-buffer pools;
    /// `allocated` stops growing in steady state.
    pub fn twin_pool_stats(&self) -> PoolStats {
        let sum = |f: fn(PoolStats) -> u64| self.twin_pools.iter().map(|p| f(p.stats())).sum();
        PoolStats {
            allocated: sum(|s| s.allocated),
            reused: sum(|s| s.reused),
            free: sum(|s| s.free),
        }
    }

    /// Number of [`SpanDiff`] scratches ever created; stops growing in
    /// steady state (at most one per concurrently-releasing processor).
    pub fn diff_scratch_created(&self) -> u64 {
        self.diff_scratch_created.load(Ordering::Relaxed)
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtoConfig {
        &self.cfg
    }

    /// Protocol event statistics.
    pub fn stats(&self) -> &ProtoStats {
        &self.stats
    }

    /// The policy in effect for `page`: its record's, or — if the page
    /// has no record — the one a new record starts with
    /// ([`PagePolicy::HomeLrc`] under [`ProtocolKind::HomeLrc`],
    /// [`PagePolicy::Eager`] otherwise). An inspection accessor: it
    /// takes the page lock and never creates a record.
    ///
    /// The protocol's steps read the record's policy once, in their
    /// [`Ctx`], under the page lock; only [`adapt`](MgsProtocol::adapt)
    /// and [`install`](MgsProtocol::install) change it, under the same
    /// lock, so a transaction sees one policy throughout.
    pub fn policy(&self, page: u64) -> PagePolicy {
        match self.pages.get(page) {
            Some(entry) => entry.lock().policy,
            None => self.initial_policy(),
        }
    }

    /// The policy every new page record starts with.
    fn initial_policy(&self) -> PagePolicy {
        match self.cfg.protocol {
            ProtocolKind::HomeLrc => PagePolicy::HomeLrc,
            ProtocolKind::Eager | ProtocolKind::Adaptive => PagePolicy::Eager,
        }
    }

    /// Does the protocol post write notices that acquire points must
    /// drain (home-LRC lazily invalidates; eager never does)? Constant
    /// for the lifetime of the protocol instance.
    pub fn uses_notices(&self) -> bool {
        self.cfg.protocol == ProtocolKind::HomeLrc
    }

    /// The adaptive controller's policy-decision trace, in decision
    /// order (empty for the static strategies).
    pub fn policy_decisions(&self) -> Vec<PolicyDecision> {
        self.controller
            .as_ref()
            .map(|c| c.decisions())
            .unwrap_or_default()
    }

    /// Lock-free check whether an adaptive-controller sample is due at
    /// simulated time `now`. On `true` the caller owns the sample and
    /// must follow with [`adapt`](MgsProtocol::adapt); always `false`
    /// for the static strategies.
    pub fn adapt_due(&self, now: Cycles) -> bool {
        self.controller.as_ref().is_some_and(|c| c.sample_due(now))
    }

    /// Runs one adaptive-controller sample: classifies hot pages from
    /// the sharing profiler's deterministic snapshot and switches their
    /// policies. Each profiled page's reclassification takes its page
    /// lock (a page with no record is skipped, never created), so it
    /// lands between that page's transactions. Host-side only — no
    /// simulated cycles are charged — so sampling cannot perturb the
    /// simulated execution beyond the policies it installs.
    /// Transitions are one-way (only an `Eager` page is classified), so
    /// the decision trace is short and, at `W=1` under the virtual
    /// engine, fully deterministic.
    pub fn adapt(&self, profiler: &SharingProfiler, now: Cycles, t: &mut dyn ProtoTiming) {
        let Some(ctl) = &self.controller else {
            return;
        };
        for (page, profile) in profiler.snapshot_sorted() {
            let Some(entry) = self.pages.get(page) else {
                continue;
            };
            let mut rec = entry.lock();
            if rec.policy != PagePolicy::Eager {
                continue;
            }
            let Some((policy, reason)) = AdaptiveController::classify(&profile) else {
                continue;
            };
            rec.policy = policy;
            drop(rec);
            ctl.record(PolicyDecision {
                page,
                policy,
                at: now,
                reason,
            });
            self.emit(t, ObsEvent::PolicySwitch { page, policy });
        }
    }

    /// Installs `decision`'s policy on its page, creating the page's
    /// record if it has none, and appends it to the decision trace.
    ///
    /// # Panics
    ///
    /// Panics unless the protocol is [`ProtocolKind::Adaptive`].
    pub fn install(&self, decision: PolicyDecision) {
        let ctl = self
            .controller
            .as_ref()
            .expect("install needs the adaptive protocol");
        self.page_entry(decision.page).lock().policy = decision.policy;
        ctl.record(decision);
    }

    /// One empty [`Tlb`], whatever `proc`: the protocol keeps no TLB
    /// contents, so its counters always read 0. The method stays while
    /// the benchmark crate reads those counters.
    pub fn tlb(&self, _proc: usize) -> &Tlb {
        &self.empty_tlb
    }

    /// Is `page` live on global processor `proc`'s delayed update
    /// queue: queued by a write mapping that no shoot-down has pruned?
    pub fn queued(&self, proc: usize, page: u64) -> bool {
        self.duqs[proc]
            .lock()
            .iter()
            .any(|q| q.page == page && q.live())
    }

    /// The cache system of SSMP `ssmp`.
    pub fn cache_system(&self, ssmp: usize) -> &Arc<SsmpCacheSystem> {
        &self.caches[ssmp]
    }

    fn homes(&self, page: u64) -> MutexGuard<'_, HashMap<u64, usize>> {
        self.homes[(page as usize) % PAGE_SHARDS].lock()
    }

    /// Overrides the home node of `page` (data distribution: the
    /// paper's applications distribute their arrays so that each
    /// block's pages are homed at the processor that owns the block —
    /// "the location of the home is based on the virtual address and
    /// remains fixed", §3.1). Must be called before the page is first
    /// touched: the override is consumed when the page is created,
    /// after which the page's state holds its home.
    ///
    /// # Panics
    ///
    /// Panics if the page has already been instantiated or the node is
    /// out of range.
    pub fn set_home(&self, page: u64, node: usize) {
        assert!(node < self.cfg.n_procs(), "home node out of range");
        let mut homes = self.homes(page);
        assert!(
            self.pages.get(page).is_none(),
            "page {page} already instantiated"
        );
        homes.insert(page, node);
    }

    /// The home node (global processor) of `page`: once the page
    /// exists, its state's (a churn departure re-homes it); before,
    /// an explicit distribution override if one was registered, else
    /// round-robin by page number.
    pub fn home_node(&self, page: u64) -> usize {
        let homes = self.homes(page);
        let Some(entry) = self.pages.get(page) else {
            let home = homes.get(&page).copied();
            return home.unwrap_or_else(|| self.cfg.home_node(page));
        };
        drop(homes);
        let home = entry.lock().st.home;
        home
    }

    /// The physical home copy of `page` (created on first use).
    pub fn home_frame(&self, page: u64) -> Arc<PageFrame> {
        let entry = self.page_entry(page);
        let frame = entry.lock().home_frame.clone();
        frame
    }

    /// Client-side state of `page` at SSMP `ssmp`.
    pub fn client_state(&self, ssmp: usize, page: u64) -> ClientState {
        self.page_entry(page).lock().st.client(ssmp)
    }

    /// Server directories of `page`.
    pub fn server_dirs(&self, page: u64) -> ServerDirs {
        self.page_entry(page).lock().st.dirs
    }

    /// `page`'s record, created on first use: an index into the page
    /// table, taking a lock only to create the record.
    fn page_entry(&self, page: u64) -> &Mutex<Page> {
        let cell = self.pages.cell(page);
        if let Some(entry) = cell.get() {
            return entry;
        }
        // Created under the shard's lock, so `set_home` either sees
        // the record or leaves its override for the creation.
        let mut homes = self.homes(page);
        cell.get_or_init(|| {
            let home = homes
                .remove(&page)
                .unwrap_or_else(|| self.cfg.home_node(page));
            Box::new(Mutex::new(Page {
                st: PageState::new(home),
                policy: self.initial_policy(),
                home_frame: self.frames.alloc(home),
                clients: (0..self.cfg.n_ssmps).map(|_| Default::default()).collect(),
            }))
        })
    }

    /// Counts `event` in the protocol statistics and hands it to `t`.
    fn emit(&self, t: &mut dyn ProtoTiming, event: ObsEvent) {
        self.stats.record(&event);
        t.observe(event);
    }

    /// Runs one step on page `page`, whose record the caller holds
    /// locked; on failure the record keeps the state the step reached.
    fn step<R>(
        &self,
        rec: &mut Page,
        page: u64,
        t: &mut dyn ProtoTiming,
        f: impl FnOnce(&mut PageState, &Ctx<'_>, &mut Interp<'_>) -> R,
    ) -> R {
        let cx = Ctx {
            cfg: &self.cfg,
            page,
            policy: rec.policy,
        };
        let mut fx = Interp {
            proto: self,
            home: &mut rec.home_frame,
            clients: &mut rec.clients,
            page,
            t,
            diff: None,
        };
        f(&mut rec.st, &cx, &mut fx)
    }

    /// Handles a TLB fault by global processor `proc` on `page`
    /// (`RTLBFault` / `WTLBFault` of Table 1). Returns the new TLB
    /// entry, which the caller installs in its own table.
    ///
    /// # Panics
    ///
    /// Panics if the fabric stays unusable past the retry budget (see
    /// [`try_fault`](MgsProtocol::try_fault) for the non-panicking
    /// variant). Unreachable on a perfect fabric; at a 1% drop rate the
    /// retry budget of 16 retransmissions makes the probability per
    /// message ≈ 10⁻³⁴.
    pub fn fault(
        &self,
        proc: usize,
        page: u64,
        want_write: bool,
        t: &mut dyn ProtoTiming,
    ) -> TlbEntry {
        self.try_fault(proc, page, want_write, t)
            .unwrap_or_else(|e| panic!("unrecoverable MGS protocol failure: {e}"))
    }

    /// [`fault`](MgsProtocol::fault), surfacing transport failure as a
    /// typed [`ProtocolError`] instead of panicking.
    ///
    /// On error the transaction is aborted with no locks held and the
    /// rest of the machine keeps running, but the aborted transaction's
    /// page may be left mid-transfer (e.g. a requested copy that never
    /// arrived): the caller should treat the computation's memory image
    /// as unreliable and restart or discard the run.
    pub fn try_fault(
        &self,
        proc: usize,
        page: u64,
        want_write: bool,
        t: &mut dyn ProtoTiming,
    ) -> Res<TlbEntry> {
        let xact = match want_write {
            true => XactKind::WriteFault,
            false => XactKind::ReadFault,
        };
        self.xact(t, xact, page, |t| {
            self.fault_inner(proc, page, want_write, t)
        })
    }

    /// Brackets one transaction with `XactBegin` / `XactEnd` events.
    fn xact<T>(
        &self,
        t: &mut dyn ProtoTiming,
        xact: XactKind,
        page: u64,
        f: impl FnOnce(&mut dyn ProtoTiming) -> Res<(T, XactOutcome)>,
    ) -> Res<T> {
        self.emit(t, ObsEvent::XactBegin { xact, page });
        let res = f(t);
        let outcome = res.as_ref().map_or(XactOutcome::Aborted, |r| r.1);
        let end = ObsEvent::XactEnd {
            xact,
            page,
            outcome,
        };
        self.emit(t, end);
        res.map(|r| r.0)
    }

    /// The body of [`try_fault`](MgsProtocol::try_fault), additionally
    /// classifying how the fault resolved.
    fn fault_inner(
        &self,
        proc: usize,
        page: u64,
        want_write: bool,
        t: &mut dyn ProtoTiming,
    ) -> Res<(TlbEntry, XactOutcome)> {
        let entry = self.page_entry(page);
        t.local(self.cfg.cost.fault_entry);
        // Mutual exclusion on page-table state is a per-mapping
        // shared-memory lock (§3.1.2).
        t.local(self.cfg.cost.pt_lock);
        let mut rec = entry.lock();
        let outcome = self.step(&mut rec, page, t, |st, cx, fx| {
            st.fault(cx, proc, want_write, fx)
        })?;
        // The generation is read under the page lock: a shoot-down
        // after it goes bumps it, and the caller's first access
        // re-faults.
        let frame = rec.clients[self.cfg.ssmp_of(proc)].frame.clone();
        let frame = frame.expect("a faulted page has a frame");
        // The tail of every fault: the TLB insert and the fault exit.
        t.local(self.cfg.cost.tlb_insert + self.cfg.cost.fault_exit);
        let entry = TlbEntry {
            gen: frame.generation(),
            frame,
            writable: want_write,
        };
        Ok((entry, outcome))
    }

    /// Performs a release operation for global processor `proc`: flushes
    /// every page on its delayed update queue (arcs 8–10). Called by
    /// the synchronization library at lock releases and barriers.
    ///
    /// # Panics
    ///
    /// Panics on transport failure, like [`fault`](MgsProtocol::fault).
    /// The release is aborted first, so updates not yet flushed may not
    /// have reached their home copies.
    pub fn release_all(&self, proc: usize, t: &mut dyn ProtoTiming) {
        self.try_release_all(proc, t)
            .unwrap_or_else(|e| panic!("unrecoverable MGS protocol failure: {e}"))
    }

    /// [`release_all`](MgsProtocol::release_all), surfacing transport
    /// failure as a typed [`ProtocolError`].
    ///
    /// On error the release is aborted: the failing page and any DUQ
    /// entries not yet flushed are dropped, so the released updates are
    /// no longer guaranteed to have reached their home copies — the run
    /// should be discarded. No locks are held and directory state stays
    /// conservative (stale entries are re-invalidated and self-heal on
    /// the next release of the same page).
    fn try_release_all(&self, proc: usize, t: &mut dyn ProtoTiming) -> Res {
        let queue = std::mem::take(&mut *self.duqs[proc].lock());
        let pages = queue.iter().filter(|q| q.live()).count() as u64;
        if pages > 0 {
            self.emit(t, ObsEvent::DuqFlush { proc, pages });
        }
        for q in queue {
            // A stale entry was pruned (arc 12) by a transaction that
            // carries this processor's writes home; taking the page's
            // lock waits for it to finish, so no SSMP keeps a stale
            // writable copy past this release.
            let entry = self.page_entry(q.page);
            let mut rec = entry.lock();
            if q.live() {
                self.release_locked(&mut rec, proc, q.page, t)?;
            }
        }
        Ok(())
    }

    /// Releases a single page: REL ⇒ g_home, invalidation fan-out, diff
    /// merging, RACK (arcs 8, 20–23, 9).
    ///
    /// # Panics
    ///
    /// Panics on transport failure, like [`fault`](MgsProtocol::fault).
    pub fn release_page(&self, proc: usize, page: u64, t: &mut dyn ProtoTiming) {
        self.release_locked(&mut self.page_entry(page).lock(), proc, page, t)
            .unwrap_or_else(|e| panic!("unrecoverable MGS protocol failure: {e}"))
    }

    /// The release transaction on `page`, whose record the caller holds;
    /// transport failure surfaces as a typed [`ProtocolError`] (see
    /// [`try_release_all`](MgsProtocol::try_release_all) for the
    /// recovery contract).
    fn release_locked(
        &self,
        rec: &mut Page,
        proc: usize,
        page: u64,
        t: &mut dyn ProtoTiming,
    ) -> Res {
        self.xact(t, XactKind::Release, page, |t| {
            self.step(rec, page, t, |st, cx, fx| st.release(cx, proc, fx))
                .map(|()| ((), XactOutcome::Released))
        })
    }

    /// Acquire-side coherence for home-LRC lazy invalidation: drops
    /// every noticed stale copy of the calling processor's SSMP. Called
    /// by the runtime after lock acquisition and after barrier release
    /// (the acquire half of release consistency). A no-op under eager
    /// or when no notices are pending.
    ///
    /// Drains the SSMP's queue, front first, until it is empty. A page
    /// leaves the queue only under its lock, once drained, so an empty
    /// queue means every earlier notice was *performed*; a sibling that
    /// finds the front page mid-drain waits on that page's lock. The
    /// loop ends: only other SSMPs' releases grow the queue.
    pub fn acquire_sync(&self, proc: usize, t: &mut dyn ProtoTiming) {
        let ssmp = self.cfg.ssmp_of(proc);
        let queue = &self.notices[ssmp];
        loop {
            // Peek with a brief lock: the step runs without the queue's.
            let Some(page) = queue.lock().front().copied() else {
                return;
            };
            let entry = self.page_entry(page);
            let mut rec = entry.lock();
            self.step(&mut rec, page, t, |st, cx, fx| {
                st.drain_notice(cx, ssmp, fx)
            })
            .unwrap_or_else(|e| panic!("unrecoverable MGS protocol failure: {e}"));
            let mut queue = queue.lock();
            if queue.front() == Some(&page) {
                queue.pop_front();
            }
        }
    }

    /// Runs `f` as one step on every instantiated page, in page order.
    fn each_page(
        &self,
        t: &mut dyn ProtoTiming,
        mut f: impl FnMut(&mut PageState, &Ctx<'_>, &mut Interp<'_>) -> Res,
    ) -> Res {
        for (page, entry) in self.pages.iter() {
            self.step(&mut entry.lock(), page, t, &mut f)?;
        }
        Ok(())
    }

    /// Flushes every page still pinned by the lazy migratory release
    /// back to its home: each [`PagePolicy::SingleWriterPin`] page's
    /// remaining writer is evicted, merging its accumulated diff into
    /// the home copy. Under the pinned release a sole writer's updates
    /// live only in its kept frame until *someone else faults on the
    /// page* — if nobody ever does (the common case for the final
    /// critical section before termination), the home copy stays stale
    /// forever. The runtime calls this once after the parallel section
    /// completes, so host-side readback (`Machine::peek`, result
    /// verification, memory-image comparisons) observes the canonical
    /// final data. A no-op under the static strategies: only the
    /// adaptive controller installs the pin policy.
    pub fn drain_pinned(&self, t: &mut dyn ProtoTiming) -> Res {
        self.each_page(t, |st, cx, fx| st.unpin(cx, fx))
    }

    /// Drains SSMP `ssmp` out of the machine ahead of a churn
    /// departure ([`PageState::depart`] on every page): every page copy
    /// it holds is invalidated back to its home (writers merge their
    /// diffs first, so no update is lost), and every page *homed* there
    /// is re-homed to `new_home_node`'s SSMP — the home copy travels as
    /// one page-sized transfer over the still-up link, and the page's
    /// state takes the new home, so later faults and releases are
    /// served by the survivor.
    ///
    /// Must run **before** the departing SSMP's link goes down (the
    /// drain itself uses the reliable transport). Pages never touched
    /// before the departure are not re-homed: a fault on one during the
    /// outage stalls in retry and rides it out, which the retry budget
    /// must cover. Returns the number of re-homed pages.
    ///
    /// Survivor invariant: if the new home SSMP already holds a copy of
    /// a re-homed page, that copy is evicted (merging its diff) before
    /// the transfer — at-home clients must map the home frame itself,
    /// and a kept separate frame would shadow it.
    pub fn depart_ssmp(
        &self,
        ssmp: usize,
        new_home_node: usize,
        t: &mut dyn ProtoTiming,
    ) -> Res<u64> {
        assert_ne!(
            self.cfg.ssmp_of(new_home_node),
            ssmp,
            "survivor must be a different SSMP"
        );
        let mut rehomed = 0u64;
        self.each_page(t, |st, cx, fx| {
            rehomed += u64::from(st.depart(cx, ssmp, new_home_node, fx)?);
            Ok(())
        })?;
        Ok(rehomed)
    }

    /// Reconstructs directory state for SSMP `ssmp` after a churn rejoin
    /// ([`PageState::rejoin`] on every page): a live copy (a fill that
    /// completed between the departure drain and link-down) is evicted,
    /// its updates merging home, and any *stale* sharer entry — a
    /// directory bit with no live copy behind it — is repaired. The
    /// rejoined SSMP starts cold: its next access to any page takes the
    /// ordinary fill path.
    ///
    /// Must run **after** the link is back up (evictions use the
    /// reliable transport). Returns `(evicted, repaired)`: live copies
    /// dropped and stale directory bits cleared. A fault-free drain
    /// leaves both at 0 for every page departed cleanly, so the churn
    /// property tests assert `repaired == 0`.
    pub fn rejoin_ssmp(&self, ssmp: usize, t: &mut dyn ProtoTiming) -> Res<(u64, u64)> {
        let (mut evicted, mut repaired) = (0u64, 0u64);
        self.each_page(t, |st, cx, fx| {
            match st.rejoin(cx, ssmp, fx)? {
                Some(true) => evicted += 1,
                Some(false) => repaired += 1,
                None => {}
            }
            Ok(())
        })?;
        Ok((evicted, repaired))
    }

    /// Words per page under this configuration.
    pub fn words_per_page(&self) -> u64 {
        self.cfg.geometry.words_per_page()
    }

    /// Marks every line of `page`'s home copy dirty in the home SSMP's
    /// directory (Table 3's write-shared micro-measurement setup).
    pub fn dirty_home_lines(&self, page: u64) {
        let frame = self.home_frame(page);
        let proc = self.cfg.local_index(frame.home_node());
        frame.mark_dirty(frame.lines(), proc);
    }

    /// Marks every line of `page`'s copy at `ssmp` dirty in that SSMP's
    /// directory (the release paths' micro-measurement setup).
    ///
    /// # Panics
    ///
    /// Panics if the SSMP holds no copy of the page.
    pub fn dirty_client_lines(&self, ssmp: usize, page: u64) {
        let frame = self.page_entry(page).lock().clients[ssmp].frame.clone();
        let frame = frame.expect("SSMP holds a copy");
        let proc = self.cfg.local_index(frame.home_node());
        frame.mark_dirty(frame.lines(), proc);
    }
}

/// The interpreter's side of one step: the [`Effects`] carried out on
/// one page while its lock is held.
struct Interp<'a> {
    proto: &'a MgsProtocol,
    home: &'a mut Arc<PageFrame>,
    clients: &'a mut [ClientPage],
    page: u64,
    t: &'a mut dyn ProtoTiming,
    /// The step's diff scratch and the SSMP whose pool it came from.
    diff: Option<(usize, SpanDiff)>,
}

impl Drop for Interp<'_> {
    fn drop(&mut self) {
        if let Some((s, diff)) = self.diff.take() {
            self.proto.diff_scratch[s].lock().push(diff);
        }
    }
}

impl Interp<'_> {
    fn frame(&self, f: Frame) -> Arc<PageFrame> {
        match f {
            Frame::Home => self.home.clone(),
            Frame::Copy(s) => self.copy(s).clone(),
        }
    }

    /// SSMP `ssmp`'s copy, borrowed: no count on the shared `Arc`.
    fn copy(&self, ssmp: usize) -> &Arc<PageFrame> {
        self.clients[ssmp]
            .frame
            .as_ref()
            .expect("the SSMP holds a copy")
    }
}

impl Effects for Interp<'_> {
    /// Retried with backoff while the fabric drops it; an intra-SSMP
    /// message always arrives.
    fn send(&mut self, from: usize, to: usize, kind: MsgKind, bytes: u64) -> Res {
        let mut attempt = 0u32;
        while self.t.try_message(from, to, kind, bytes) == SendOutcome::Dropped {
            if attempt >= MAX_RETRIES {
                self.proto.stats.xact_failures.incr();
                return Err(ProtocolError::RetriesExhausted {
                    txn: Transaction {
                        page: self.page,
                        kind,
                        from,
                        to,
                    },
                    attempts: attempt + 1,
                });
            }
            self.t
                .retry_wait(from, to, kind, attempt, timeout_for(attempt));
            self.proto.stats.retries.incr();
            attempt += 1;
        }
        Ok(())
    }

    fn local(&mut self, cycles: Cycles) {
        self.t.local(cycles);
    }

    fn work(&mut self, node: usize, cycles: Cycles) {
        self.t.node_work(node, cycles);
    }

    fn owner(&mut self, ssmp: usize) -> usize {
        self.copy(ssmp).home_node()
    }

    fn observe(&mut self, event: ObsEvent) {
        self.proto.emit(self.t, event);
    }

    fn set_state(&mut self, ssmp: usize, state: ClientState) {
        let client = &mut self.clients[ssmp];
        if state != ClientState::Write {
            client.twin = None;
        }
        if state == ClientState::Inv {
            client.frame = None;
        } else if client.frame.is_none() {
            client.frame = Some(self.home.clone());
        }
    }

    fn shoot_down(&mut self, ssmp: usize) {
        let (proto, page) = (self.proto, self.page);
        let rc = self.copy(ssmp).home_node();
        let tlb_dir = std::mem::take(&mut self.clients[ssmp].tlb_dir);
        for lidx in crate::step::bits(tlb_dir) {
            let proc = ssmp * proto.cfg.procs_per_ssmp + lidx;
            self.t.node_work(proc, proto.cfg.cost.pinv);
            self.t.node_work(rc, proto.cfg.cost.pinv_ack);
            proto.emit(self.t, ObsEvent::Pinv { page, proc });
        }
        // The shoot-down itself: drain in-flight accesses and retire the
        // mapping generation. No processor's table is touched; each
        // mapping processor's slot keeps the old generation, and its
        // next access to the page sees the bump under the line's stripe
        // and re-faults (the translation-critical-section rollback,
        // §4.2.1). The mapping processors' DUQ entries go stale too
        // (arc 12).
        let frame = self.copy(ssmp);
        frame.quiesce().bump_generation();
    }

    fn clean(&mut self, f: Frame, charged: bool) {
        let frame = self.frame(f);
        let clean = frame.clean();
        if charged {
            let cycles = SsmpCacheSystem::clean_cost(clean, &self.proto.cfg.cost);
            self.t.node_work(frame.home_node(), cycles);
        }
    }

    fn twin(&mut self, ssmp: usize) {
        let frame = self.frame(Frame::Copy(ssmp));
        let mut twin = self.proto.twin_pools[ssmp].acquire();
        frame.with_quiesced(|words| twin.copy_from_slice(words));
        self.clients[ssmp].twin = Some(twin);
    }

    fn diff(&mut self, ssmp: usize, keep_twin: bool) -> u64 {
        let proto = self.proto;
        let frame = self.frame(Frame::Copy(ssmp));
        let (_, diff) = self.diff.get_or_insert_with(|| {
            let scratch = proto.diff_scratch[ssmp].lock().pop();
            (
                ssmp,
                scratch.unwrap_or_else(|| {
                    proto.diff_scratch_created.fetch_add(1, Ordering::Relaxed);
                    SpanDiff::new()
                }),
            )
        });
        let client = &mut self.clients[ssmp];
        if keep_twin {
            // Diff and twin refresh under ONE quiesce: the kept
            // twin must equal exactly the image that was diffed, or the
            // next release's diff would re-ship (or miss) words written
            // in between.
            let twin = client.twin.as_mut().expect("a releasing writer has a twin");
            frame.with_quiesced(|w| {
                diff.compute_into(w, twin);
                twin.copy_from_slice(w);
            });
        } else {
            // Diffed in place against the retired frame; the twin goes
            // back to the pool before the transfer.
            let twin = client.twin.take().expect("a writer SSMP has a twin");
            frame.with_quiesced(|w| diff.compute_into(w, &twin));
        }
        diff.changed_words()
    }

    /// After the merge the home node's engine has written the changed
    /// words through its cache: those lines, deduped to one mark per
    /// line, are dirty in the home SSMP's directory, so later page
    /// cleans pay the dirty tier (§4.2.4).
    fn merge(&mut self, ssmp: usize) {
        let (proto, page, home) = (self.proto, self.page, &**self.home);
        let (_, diff) = self.diff.as_ref().expect("a diff to merge");
        diff.apply_to_frame(home);
        let proc = proto.cfg.local_index(home.home_node());
        home.mark_dirty(diff.touched_lines(home), proc);
        let (words, spans) = (diff.changed_words(), diff.span_count() as u64);
        proto.emit(
            self.t,
            ObsEvent::Diff {
                page,
                ssmp,
                words,
                spans,
            },
        );
        if self.t.observing() {
            // Per-line attribution for the sharing profiler, walked only
            // when someone is listening.
            let base_line = home.base() / PageGeometry::LINE_BYTES;
            for line in diff.touched_lines(home) {
                let line = line - base_line;
                proto.emit(self.t, ObsEvent::DiffLine { page, line });
            }
        }
    }

    /// Word-atomic stores on the live copy — no quiesce, no generation
    /// bump — so the sharer's mappings stay valid; a sharer storing to
    /// a different word loses nothing.
    fn push(&mut self, ssmp: usize) {
        let frame = self.frame(Frame::Copy(ssmp));
        let client = &mut self.clients[ssmp];
        let (_, diff) = self.diff.as_ref().expect("a diff to push");
        diff.apply_to_frame(&frame);
        if let Some(twin) = client.twin.as_mut() {
            diff.apply_to_slice(twin);
        }
        // The words entered through the sharer's protocol processor's
        // cache: a later page clean pays the dirty tier.
        let proc = self.proto.cfg.local_index(frame.home_node());
        frame.mark_dirty(diff.touched_lines(&frame), proc);
    }

    fn ship(&mut self, from: Frame, to: Frame, node: usize, kind: MsgKind, twin: bool) -> Res {
        let proto = self.proto;
        let cfg = &proto.cfg;
        let dma = cfg.cost.page_dma_cost(cfg.geometry.words_per_page());
        let src = self.frame(from);
        let src_ssmp = cfg.ssmp_of(src.home_node());
        let dst_ssmp = match to {
            Frame::Copy(s) => s,
            Frame::Home => cfg.ssmp_of(node),
        };
        // Gather a globally coherent image (page cleaning, §4.2.4) into
        // a pooled buffer, then DMA it out.
        self.clean(from, true);
        let copy = match (from, to) {
            (Frame::Copy(s), _) | (_, Frame::Copy(s)) => Some(s),
            _ => None,
        };
        let mut data = proto.twin_pools[copy.unwrap_or(src_ssmp)].acquire();
        match from {
            Frame::Home => src.snapshot_into(&mut data),
            Frame::Copy(_) => src.with_quiesced(|words| data.copy_from_slice(words)),
        }
        self.t.node_work(src.home_node(), dma);
        self.send(src_ssmp, dst_ssmp, kind, cfg.geometry.page_bytes())?;
        match to {
            Frame::Copy(s) => {
                let frame = proto.frames.alloc(node);
                frame.fill(&data);
                self.t.local(cfg.cost.page_install);
                self.clients[s].frame = Some(frame);
            }
            Frame::Home => {
                if node == self.home.home_node() {
                    // The home cleans its own copy before overwriting it.
                    self.clean(Frame::Home, true);
                } else {
                    *self.home = proto.frames.alloc(node);
                }
                self.home.fill(&data);
                self.t.node_work(node, dma);
            }
        }
        if let (true, Some(s)) = (twin, copy) {
            self.clients[s].twin = Some(data);
        }
        Ok(())
    }

    /// Home-LRC lazy invalidation: the sharer drops its copy at its
    /// next acquire point. The notice's INV was sent reliably by the
    /// step — a silently lost notice would leave the stale copy live
    /// forever.
    fn notice(&mut self, ssmp: usize) {
        self.proto.notices[ssmp].lock().push_back(self.page);
    }

    fn map(&mut self, proc: usize, write: bool) -> bool {
        let (proto, page) = (self.proto, self.page);
        let client = &mut self.clients[proto.cfg.ssmp_of(proc)];
        client.tlb_dir |= 1 << proto.cfg.local_index(proc);
        if !write {
            return false;
        }
        let mut duq = proto.duqs[proc].lock();
        if duq.iter().any(|q| q.page == page && q.live()) {
            return false;
        }
        duq.retain(|q| q.page != page);
        let frame = client.frame.clone().expect("a mapped page has a frame");
        let gen = frame.generation();
        duq.push(Queued { page, frame, gen });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecordingTiming;

    #[test]
    fn fresh_client_page_is_inv() {
        let c = ClientPage::default();
        assert!(c.frame.is_none() && c.twin.is_none());
        assert_eq!(c.tlb_dir, 0);
        assert_eq!(PageState::new(0).client(0), ClientState::Inv);
    }

    /// A profiler fed the migratory signature for `page`: SSMPs 1 and 2
    /// both took write privilege, and its 1WDATA flushes outnumber its
    /// diffs (none).
    fn migratory_profile(page: u64) -> SharingProfiler {
        let profiler = SharingProfiler::new(64);
        for ssmp in [1, 2] {
            let outcome = XactOutcome::WriteMiss;
            let xact = XactKind::WriteFault;
            profiler.record(
                ssmp,
                &ObsEvent::XactEnd {
                    xact,
                    page,
                    outcome,
                },
            );
        }
        for _ in 0..10 {
            profiler.record(1, &ObsEvent::SingleWriterFlush { page, ssmp: 1 });
        }
        profiler
    }

    #[test]
    fn adapt_pins_a_migratory_page_once_and_creates_no_record() {
        const PAGE: u64 = 0;
        let p = MgsProtocol::new(ProtoConfig {
            protocol: ProtocolKind::Adaptive,
            ..ProtoConfig::new(2, 2)
        });
        let mut t = RecordingTiming::new(p.cfg.cost.clone(), Cycles::ZERO);
        p.home_frame(PAGE); // creates the record, with no sharers
        let profiler = migratory_profile(PAGE);
        p.adapt(&profiler, Cycles(7), &mut t);
        let pin = PolicyDecision {
            page: PAGE,
            policy: PagePolicy::SingleWriterPin,
            at: Cycles(7),
            reason: "migratory",
        };
        assert_eq!(p.policy_decisions(), [pin]);
        assert_eq!(p.stats().policy_switches.get(), 1);

        // The next fault sees the pin: the sole writer's release moves
        // no data and sends no message.
        let entry = p.fault(2, PAGE, true, &mut t);
        entry.frame.store(3, 9);
        t.reset();
        p.release_all(2, &mut t);
        assert_eq!(t.crossings(), 0);
        assert_eq!(p.home_frame(PAGE).load(3), 0);

        // Transitions are one-way: a second sample installs nothing.
        p.adapt(&profiler, Cycles(8), &mut t);
        assert_eq!(p.policy_decisions(), [pin]);
        assert_eq!(p.stats().policy_switches.get(), 1);

        // A profiled page with no record is skipped, not created.
        let frames = p.frames.allocated();
        p.adapt(&migratory_profile(PAGE + 1000), Cycles(9), &mut t);
        assert_eq!(p.frames.allocated(), frames);
        assert!(p.pages.get(PAGE + 1000).is_none());
        assert_eq!(p.policy_decisions(), [pin]);
    }
}
