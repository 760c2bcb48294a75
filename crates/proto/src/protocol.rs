//! The MGS protocol engines (Local Client, Remote Client, Server).
//!
//! Every transaction cites the state-transition arcs of Table 1 /
//! Figure 4 of the paper that it implements.
//!
//! # Lock ordering
//!
//! For any page: the **server mutex is acquired before any client
//! mutex**, and client mutexes are never held while acquiring the server
//! mutex (the fault path releases its optimistic client lock before
//! requesting service). This is the simulator's analogue of the paper's
//! server-side request queuing (`REL_IN_PROG` queues replication
//! requests): the per-page server mutex serializes whole transactions.

use crate::state::{bits, ClientPage, ClientState, PageEntry, ServerDirs, ServerPage};
use crate::strategy::{AdaptiveController, PagePolicy, PolicyDecision, ProtocolKind};
use crate::transport::{ProtocolError, SendOutcome, SeqFilter, Transaction};
use crate::{Duq, ProtoConfig, ProtoStats, ProtoTiming, SpanDiff};
use mgs_cache::SsmpCacheSystem;
use mgs_net::MsgKind;
use mgs_obs::{ObsEvent, SharingProfiler, XactKind, XactOutcome};
use mgs_sim::Cycles;
use mgs_vm::{
    FrameAllocator, PageBuf, PageFrame, PageGeometry, PoolStats, Tlb, TlbEntry, TwinPool,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const PAGE_SHARDS: usize = 32;

/// Lazy-invalidation write-notice board for one SSMP.
///
/// Lock discipline: the internal mutex is only ever held briefly (push,
/// take, counter updates) — never across client locks or page quiesce —
/// so releases posting notices can never participate in a lock cycle
/// with a drain in progress.
#[derive(Debug, Default)]
struct NoticeBoard {
    state: Mutex<NoticeState>,
    drained: parking_lot::Condvar,
}

#[derive(Debug, Default)]
struct NoticeState {
    queue: Vec<u64>,
    drains_in_flight: usize,
}

/// The MGS multigrain shared memory protocol.
///
/// One instance manages every virtual page of a DSSMP: the per-SSMP
/// client records, the per-page server directories, the physical home
/// copies, per-processor TLBs and delayed update queues, and the
/// per-SSMP cache directories (for page cleaning).
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
    tlbs: Vec<Arc<Tlb>>,
    duqs: Vec<Arc<Duq>>,
    caches: Vec<Arc<SsmpCacheSystem>>,
    shards: Vec<Mutex<HashMap<u64, Arc<PageEntry>>>>,
    home_overrides: Mutex<HashMap<u64, usize>>,
    /// Per-SSMP write-notice boards (home-LRC lazy invalidation): pages
    /// whose local read copy is stale and must be dropped at the next
    /// acquire point, plus a count of drains in flight (an acquiring
    /// processor may not proceed past its acquire point until pending
    /// invalidations have been performed, not merely claimed).
    notices: Vec<NoticeBoard>,
    /// Per-SSMP sequence-number allocators for outbound inter-SSMP
    /// messages (the send half of the exactly-once transport).
    send_seq: Vec<AtomicU64>,
    /// Per-SSMP receive filters discarding duplicate deliveries (the
    /// receive half; see [`SeqFilter`]).
    seq_filters: Vec<SeqFilter>,
    /// Per-SSMP recycled page-sized buffers for twins, fill images and
    /// single-writer flush snapshots: the page-grain data kernels run
    /// allocation-free in steady state. Sharded per SSMP so concurrent
    /// releases on different SSMPs never contend on a host-side lock.
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
    /// The adaptive controller's per-page policy table: present iff
    /// `cfg.protocol` is [`ProtocolKind::Adaptive`]. Consulted only on
    /// protocol slow paths — faults, releases, acquire drains — never
    /// per access.
    controller: Option<AdaptiveController>,
}

impl MgsProtocol {
    /// Creates a protocol instance with freshly-created TLBs, DUQs and
    /// cache systems.
    pub fn new(cfg: ProtoConfig) -> MgsProtocol {
        let n_procs = cfg.n_procs();
        let tlbs = (0..n_procs).map(|_| Arc::new(Tlb::new())).collect();
        let duqs = (0..n_procs).map(|_| Arc::new(Duq::new())).collect();
        let caches = (0..cfg.n_ssmps)
            .map(|_| Arc::new(SsmpCacheSystem::new(cfg.cost.dir_hw_pointers)))
            .collect();
        MgsProtocol::with_parts(cfg, tlbs, duqs, caches)
    }

    /// Creates a protocol instance sharing externally-owned TLBs, DUQs
    /// and cache systems (the runtime wires the same structures into its
    /// memory-access fast path).
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the configuration.
    pub fn with_parts(
        cfg: ProtoConfig,
        tlbs: Vec<Arc<Tlb>>,
        duqs: Vec<Arc<Duq>>,
        caches: Vec<Arc<SsmpCacheSystem>>,
    ) -> MgsProtocol {
        assert_eq!(tlbs.len(), cfg.n_procs(), "one TLB per processor");
        assert_eq!(duqs.len(), cfg.n_procs(), "one DUQ per processor");
        assert_eq!(caches.len(), cfg.n_ssmps, "one cache system per SSMP");
        let n_ssmps = cfg.n_ssmps;
        let controller =
            (cfg.protocol == ProtocolKind::Adaptive).then(|| AdaptiveController::new(cfg.adaptive));
        MgsProtocol {
            controller,
            frames: FrameAllocator::new(cfg.geometry),
            twin_pools: (0..n_ssmps)
                .map(|_| TwinPool::new(cfg.geometry.words_per_page() as usize))
                .collect(),
            cfg,
            tlbs,
            duqs,
            caches,
            shards: (0..PAGE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            home_overrides: Mutex::new(HashMap::new()),
            notices: (0..n_ssmps).map(|_| NoticeBoard::default()).collect(),
            send_seq: (0..n_ssmps).map(|_| AtomicU64::new(0)).collect(),
            seq_filters: (0..n_ssmps).map(|_| SeqFilter::new(n_ssmps)).collect(),
            diff_scratch: (0..n_ssmps).map(|_| Mutex::new(Vec::new())).collect(),
            diff_scratch_created: AtomicU64::new(0),
            stats: ProtoStats::new(),
        }
    }

    /// Aggregate statistics of the per-SSMP twin/snapshot buffer
    /// pools. In steady state (every page fetched at least once)
    /// `allocated` stops growing: releases and upgrades recycle
    /// buffers instead of allocating.
    pub fn twin_pool_stats(&self) -> PoolStats {
        let mut total = PoolStats {
            allocated: 0,
            reused: 0,
            free: 0,
        };
        for pool in &self.twin_pools {
            let s = pool.stats();
            total.allocated += s.allocated;
            total.reused += s.reused;
            total.free += s.free;
        }
        total
    }

    /// Number of [`SpanDiff`] scratch instances ever created, summed
    /// over the per-SSMP pools. Like
    /// [`twin_pool_stats`](MgsProtocol::twin_pool_stats), this stops
    /// growing once the release path reaches steady state (at most one
    /// per concurrently-releasing processor).
    pub fn diff_scratch_created(&self) -> u64 {
        self.diff_scratch_created.load(Ordering::Relaxed)
    }

    /// Takes a recycled diff scratch from `ssmp`'s pool (or creates a
    /// fresh one).
    fn acquire_diff_scratch(&self, ssmp: usize) -> SpanDiff {
        match self.diff_scratch[ssmp].lock().pop() {
            Some(d) => d,
            None => {
                self.diff_scratch_created.fetch_add(1, Ordering::Relaxed);
                SpanDiff::new()
            }
        }
    }

    /// Returns a diff scratch to `ssmp`'s pool, keeping its capacity.
    fn release_diff_scratch(&self, ssmp: usize, diff: SpanDiff) {
        self.diff_scratch[ssmp].lock().push(diff);
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtoConfig {
        &self.cfg
    }

    /// Protocol event statistics.
    pub fn stats(&self) -> &ProtoStats {
        &self.stats
    }

    /// The adaptive controller, when the protocol is
    /// [`ProtocolKind::Adaptive`].
    pub fn controller(&self) -> Option<&AdaptiveController> {
        self.controller.as_ref()
    }

    /// The policy currently in effect for `page`: a constant under the
    /// static protocols, the controller's table under the adaptive one.
    ///
    /// The contract the protocol engines rely on:
    ///
    /// * the answer is **stable between protocol slow-path entries** of
    ///   the same page — it may change over time (the adaptive
    ///   controller does), but only through the controller's serialized
    ///   apply step, never mid-transaction (the engines read it once
    ///   per transaction, under the page's server lock for releases);
    /// * the lookup charges **no simulated cycles** and takes no page
    ///   locks: it is called with the page's server mutex held.
    #[inline]
    pub fn policy(&self, page: u64) -> PagePolicy {
        match (self.cfg.protocol, &self.controller) {
            (ProtocolKind::HomeLrc, _) => PagePolicy::HomeLrc,
            (_, Some(controller)) => controller.policy(page),
            _ => PagePolicy::Eager,
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
    /// the sharing profiler's deterministic snapshot and installs any
    /// policy switches. Host-side only — no simulated cycles are
    /// charged and no page locks are taken, so sampling cannot perturb
    /// the simulated execution beyond the policies it installs.
    /// Transitions are one-way (a page is classified at most once), so
    /// the decision trace is short and, at `W=1` under the virtual
    /// engine, fully deterministic.
    pub fn adapt(&self, profiler: &SharingProfiler, now: Cycles, t: &mut dyn ProtoTiming) {
        let Some(ctl) = &self.controller else {
            return;
        };
        for (page, profile) in profiler.snapshot_sorted() {
            if ctl.policy(page) != PagePolicy::Eager {
                continue;
            }
            if let Some((policy, reason)) = ctl.classify(&profile) {
                ctl.install(PolicyDecision {
                    page,
                    policy,
                    at: now,
                    reason,
                });
                self.stats.policy_switches.incr();
                t.observe(ObsEvent::PolicySwitch { page, policy });
            }
        }
    }

    /// The TLB of global processor `proc`.
    pub fn tlb(&self, proc: usize) -> &Arc<Tlb> {
        &self.tlbs[proc]
    }

    /// The delayed update queue of global processor `proc`.
    pub fn duq(&self, proc: usize) -> &Arc<Duq> {
        &self.duqs[proc]
    }

    /// The cache system of SSMP `ssmp`.
    pub fn cache_system(&self, ssmp: usize) -> &Arc<SsmpCacheSystem> {
        &self.caches[ssmp]
    }

    /// Overrides the home node of `page` (data distribution: the
    /// paper's applications distribute their arrays so that each
    /// block's pages are homed at the processor that owns the block —
    /// "the location of the home is based on the virtual address and
    /// remains fixed", §3.1). Must be called before the page is first
    /// touched.
    ///
    /// # Panics
    ///
    /// Panics if the page has already been instantiated or the node is
    /// out of range.
    pub fn set_home(&self, page: u64, node: usize) {
        assert!(node < self.cfg.n_procs(), "home node out of range");
        let shard = &self.shards[(page as usize) % PAGE_SHARDS];
        assert!(
            !shard.lock().contains_key(&page),
            "page {page} already instantiated"
        );
        self.home_overrides.lock().insert(page, node);
    }

    /// The home node (global processor) of `page`: an explicit
    /// distribution override if one was registered, else round-robin by
    /// page number.
    pub fn home_node(&self, page: u64) -> usize {
        self.home_overrides
            .lock()
            .get(&page)
            .copied()
            .unwrap_or_else(|| self.cfg.home_node(page))
    }

    /// The home SSMP of `page`.
    pub fn home_ssmp(&self, page: u64) -> usize {
        self.cfg.ssmp_of(self.home_node(page))
    }

    /// The physical home copy of `page` (created on first use).
    pub fn home_frame(&self, page: u64) -> Arc<mgs_vm::PageFrame> {
        let entry = self.page_entry(page);
        let frame = entry.server.lock().home_frame.clone();
        frame
    }

    /// Client-side state of `page` at SSMP `ssmp`.
    pub fn client_state(&self, ssmp: usize, page: u64) -> ClientState {
        self.page_entry(page).clients[ssmp].0.lock().state
    }

    /// Server directories of `page`.
    pub fn server_dirs(&self, page: u64) -> ServerDirs {
        self.page_entry(page).server.lock().dirs
    }

    fn page_entry(&self, page: u64) -> Arc<PageEntry> {
        let shard = &self.shards[(page as usize) % PAGE_SHARDS];
        let mut map = shard.lock();
        Arc::clone(map.entry(page).or_insert_with(|| {
            let home = self.home_node(page);
            Arc::new(PageEntry::new(self.cfg.n_ssmps, self.frames.alloc(home)))
        }))
    }

    // ------------------------------------------------------------------
    // Reliable transport (ARQ over the possibly-faulty fabric)
    // ------------------------------------------------------------------

    /// Sends one protocol message with exactly-once semantics: the
    /// transmission is retried with exponential backoff while the fabric
    /// drops it (at-least-once), and the receiving SSMP's [`SeqFilter`]
    /// discards fabric-injected duplicate copies (at-most-once).
    ///
    /// Intra-SSMP messages (`from == to`) never touch the LAN and are
    /// delivered directly. When the retry budget is exhausted the
    /// transaction identified by `page`/`kind` aborts with
    /// [`ProtocolError::RetriesExhausted`].
    fn reliable(
        &self,
        t: &mut dyn ProtoTiming,
        from: usize,
        to: usize,
        kind: MsgKind,
        payload_bytes: u64,
        page: u64,
    ) -> Result<(), ProtocolError> {
        if from == to {
            t.message(from, to, kind, payload_bytes);
            return Ok(());
        }
        // Sequence numbers start at 1 (the filter reserves 0 for
        // "nothing seen yet").
        let seq = self.send_seq[from].fetch_add(1, Ordering::Relaxed) + 1;
        let policy = &self.cfg.retry;
        let mut attempt = 0u32;
        loop {
            match t.try_message(from, to, kind, payload_bytes) {
                SendOutcome::Delivered { duplicates } => {
                    // The first delivery of a fresh sequence number is
                    // accepted (ignoring the result also tolerates the
                    // filter's conservative out-of-window rejection).
                    let _ = self.seq_filters[to].accept(from, seq);
                    // Fabric duplicates replay the same sequence number
                    // and are discarded by the filter: the handler's
                    // state mutation happens exactly once. Discarding
                    // costs the receiver a handler dispatch that is
                    // negligible next to any crossing, so no simulated
                    // time is charged.
                    for _ in 0..duplicates {
                        if !self.seq_filters[to].accept(from, seq) {
                            self.stats.dup_rejects.incr();
                        }
                    }
                    return Ok(());
                }
                SendOutcome::Dropped => {
                    if attempt >= policy.max_retries {
                        self.stats.xact_failures.incr();
                        return Err(ProtocolError::RetriesExhausted {
                            txn: Transaction {
                                page,
                                kind,
                                from,
                                to,
                            },
                            attempts: attempt + 1,
                        });
                    }
                    t.retry_wait(from, to, kind, attempt, policy.timeout_for(attempt));
                    self.stats.retries.incr();
                    attempt += 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault handling (Local Client)
    // ------------------------------------------------------------------

    /// Handles a TLB fault by global processor `proc` on `page`
    /// (`RTLBFault` / `WTLBFault` of Table 1). Installs and returns the
    /// new TLB entry.
    ///
    /// # Panics
    ///
    /// Panics if the fabric stays unusable past the retry budget (see
    /// [`try_fault`](MgsProtocol::try_fault) for the non-panicking
    /// variant). Unreachable on a perfect fabric; at a 1% drop rate the
    /// default [`RetryPolicy`](crate::RetryPolicy) makes the
    /// probability per message ≈ 10⁻³⁴.
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
    ) -> Result<TlbEntry, ProtocolError> {
        let xact = if want_write {
            XactKind::WriteFault
        } else {
            XactKind::ReadFault
        };
        t.observe(ObsEvent::XactBegin { xact, page });
        let res = self.fault_inner(proc, page, want_write, t);
        t.observe(ObsEvent::XactEnd {
            xact,
            page,
            outcome: res
                .as_ref()
                .map_or(XactOutcome::Aborted, |(_, outcome)| *outcome),
        });
        res.map(|(e, _)| e)
    }

    /// The body of [`try_fault`](MgsProtocol::try_fault), additionally
    /// classifying how the fault resolved (for the observability span).
    fn fault_inner(
        &self,
        proc: usize,
        page: u64,
        want_write: bool,
        t: &mut dyn ProtoTiming,
    ) -> Result<(TlbEntry, XactOutcome), ProtocolError> {
        let ssmp = self.cfg.ssmp_of(proc);
        let entry = self.page_entry(page);
        t.local(self.cfg.cost.fault_entry);
        loop {
            // Mutual exclusion on page-table state is a per-mapping
            // shared-memory lock (§3.1.2).
            t.local(self.cfg.cost.pt_lock);
            let (lock, cond) = &entry.clients[ssmp];
            let mut client = lock.lock();

            if client.pending {
                // Another local processor is already filling this page
                // (`BUSY`); wait for it rather than issuing a duplicate
                // request. A host wait, and safe as one: the filler is
                // inside this transaction, which contains no scheduler
                // tick or suspension, so it holds a host thread of its
                // own and finishes without needing ours.
                while client.pending {
                    cond.wait(&mut client);
                }
                let resume = client.installed_at;
                drop(client);
                t.wait_until(resume);
                continue;
            }

            match (client.state, want_write) {
                // Arc 1 (read) / arcs 3,4 (write on WRITE page): a local
                // mapping exists; fill the TLB.
                (ClientState::Write, _) | (ClientState::Read, false) => {
                    let e = self.map_local(proc, page, want_write, &mut client, t);
                    return Ok((e, XactOutcome::TlbFill));
                }
                // Arc 2: write fault on a READ page — upgrade.
                (ClientState::Read, true) => {
                    drop(client);
                    if let Some(resolved) = self.upgrade(&entry, proc, page, t)? {
                        return Ok(resolved);
                    }
                    // Raced with an invalidation; retry from the top.
                    continue;
                }
                // Arc 5: no local copy — request one from the home.
                (ClientState::Inv, _) => {
                    client.pending = true;
                    drop(client);
                    t.local(self.cfg.cost.lc_miss_setup);
                    let mut server = entry.server.lock();
                    let e = self.fill(&entry, &mut server, proc, page, want_write, t)?;
                    let outcome = if want_write {
                        XactOutcome::WriteMiss
                    } else {
                        XactOutcome::ReadMiss
                    };
                    return Ok((e, outcome));
                }
            }
        }
    }

    /// Arc 1/3: install a TLB entry from an existing local mapping.
    /// Read faults always install read-only mappings so that each
    /// processor's first write still faults (and enters the DUQ).
    fn map_local(
        &self,
        proc: usize,
        page: u64,
        want_write: bool,
        client: &mut ClientPage,
        t: &mut dyn ProtoTiming,
    ) -> TlbEntry {
        let lidx = self.cfg.local_index(proc);
        let frame = client.frame.clone().expect("mapped page has a frame");
        t.local(self.cfg.cost.pt_walk);
        client.tlb_dir |= 1 << lidx;
        if want_write && self.duqs[proc].push(page) {
            // Arc 3: DUQ = DUQ ∪ {addr}.
            t.local(self.cfg.cost.duq_insert);
        }
        self.stats.tlb_fills.incr();
        self.install_tlb(proc, page, frame, want_write, t)
    }

    /// The tail of every fault: charge the TLB insert and the fault
    /// exit, and map `frame` at its current generation.
    fn install_tlb(
        &self,
        proc: usize,
        page: u64,
        frame: Arc<PageFrame>,
        writable: bool,
        t: &mut dyn ProtoTiming,
    ) -> TlbEntry {
        t.local(self.cfg.cost.tlb_insert + self.cfg.cost.fault_exit);
        let e = TlbEntry {
            gen: frame.generation(),
            frame,
            writable,
        };
        self.tlbs[proc].insert(page, e.clone());
        e
    }

    /// Arcs 2, 13 and the server's WNOTIFY handling (arc 18): upgrade a
    /// READ page to WRITE privilege. Returns `Ok(None)` if the page was
    /// invalidated while the locks were reacquired (the caller
    /// retries); re-checks under the canonical server-then-client lock
    /// order.
    fn upgrade(
        &self,
        entry: &PageEntry,
        proc: usize,
        page: u64,
        t: &mut dyn ProtoTiming,
    ) -> Result<Option<(TlbEntry, XactOutcome)>, ProtocolError> {
        let ssmp = self.cfg.ssmp_of(proc);
        let lidx = self.cfg.local_index(proc);
        let home_node = self.home_node(page);
        let home_ssmp = self.cfg.ssmp_of(home_node);
        let cost = &self.cfg.cost;

        let mut server = entry.server.lock();
        // Under the home-LRC strategy a pending write notice means this
        // SSMP's READ copy is stale; upgrading it would twin stale data
        // (and a later single-writer flush would ship the stale page
        // whole). Drop the copy and take the fill path instead. The
        // check happens before the client lock: the notice queue is held
        // across drains, so notices-then-client is the one legal order.
        let noticed_stale = self.uses_notices() && self.notice_pending(ssmp, page);
        let (lock, _) = &entry.clients[ssmp];
        let mut client = lock.lock();
        if noticed_stale && client.state == ClientState::Read {
            // (The conservative drains-in-flight check can drop a
            // fresh, still-tracked copy; no page clean is charged.)
            self.drop_read_copy(&mut client, &mut server, ssmp, page, t);
        }
        if client.state == ClientState::Read
            && server.dirs.write_dir & !(1 << ssmp) != 0
            && self.policy(page) == PagePolicy::SingleWriterPin
        {
            // Single-writer pinning (migratory pages): evict the
            // current writer before this SSMP gains write privilege,
            // so the page never leaves single-writer mode. The
            // eviction merges the departing writer's diff into the
            // home, which makes this SSMP's READ copy stale — so drop
            // it too and take the fill path below. (An in-place
            // upgrade would twin the pre-merge image, and the pinned
            // release path ships whole pages, clobbering the merge.)
            self.pin_evict_writers(entry, &mut server, ssmp, page, t)?;
            self.drop_read_copy(&mut client, &mut server, ssmp, page, t);
        }
        match client.state {
            ClientState::Read => {
                let frame = client.frame.clone().expect("READ page has a frame");
                t.local(cost.pt_walk);
                // Arc 2: UPGRADE ⇒ l_home (the Remote Client on the
                // processor owning the client-side copy).
                t.message(ssmp, ssmp, MsgKind::Upgrade, 0);
                let rc_node = frame.home_node();
                t.node_work(rc_node, cost.rc_upgrade);
                if ssmp != home_ssmp {
                    // Arc 13: make twin. (The home SSMP maps the home
                    // copy itself and never diffs.) The twin buffer
                    // comes from the pool and is overwritten fully, as
                    // one bulk copy under the frame's exclusive guard
                    // (in-flight local reads drain first, like a
                    // shootdown would).
                    t.node_work(rc_node, cost.twin_cost(self.cfg.geometry.words_per_page()));
                    let mut twin = self.twin_pools[ssmp].acquire();
                    frame.with_quiesced(|words| twin.copy_from_slice(words));
                    client.twin = Some(twin);
                    t.observe(ObsEvent::TwinCreate { page, ssmp });
                }
                client.state = ClientState::Write;
                // Arc 13: UP_ACK ⇒ src, WNOTIFY ⇒ g_home.
                t.message(ssmp, ssmp, MsgKind::UpAck, 0);
                if let Err(e) = self.reliable(t, ssmp, home_ssmp, MsgKind::WNotify, 0, page) {
                    // The server never learned of the write privilege;
                    // keeping it would lose this SSMP's updates at the
                    // next release. Roll the client back to READ.
                    client.state = ClientState::Read;
                    client.twin = None;
                    return Err(e);
                }
                // Arc 18 (server): read_dir −= {src}, write_dir ∪= {src}.
                t.node_work(home_node, cost.server_wnotify);
                server.dirs.read_dir &= !(1 << ssmp);
                if self.cfg.single_writer_opt
                    && server.dirs.writers() == 1
                    && server.dirs.write_dir & (1 << ssmp) == 0
                {
                    // A second SSMP just gained write privilege: the
                    // page leaves single-writer mode and the next
                    // release must take the multi-writer diff path.
                    t.observe(ObsEvent::SingleWriterBreak { page, ssmp });
                }
                server.dirs.write_dir |= 1 << ssmp;
                // UP_ACK handling at the client: DUQ ∪ {addr} (arc 7 row
                // UP_ACK), then fill the TLB.
                client.tlb_dir |= 1 << lidx;
                if self.duqs[proc].push(page) {
                    t.local(cost.duq_insert);
                }
                self.stats.upgrades.incr();
                let e = self.install_tlb(proc, page, frame, true, t);
                Ok(Some((e, XactOutcome::Upgrade)))
            }
            // Another local processor upgraded first: just map.
            ClientState::Write => Ok(Some((
                self.map_local(proc, page, true, &mut client, t),
                XactOutcome::TlbFill,
            ))),
            // Invalidated in the window: fall through to a fill under
            // the already-held server lock.
            ClientState::Inv => {
                if client.pending {
                    // Only reachable if a concurrent fill is in flight;
                    // retry through the main loop.
                    return Ok(None);
                }
                client.pending = true;
                drop(client);
                t.local(cost.lc_miss_setup);
                let e = self.fill(entry, &mut server, proc, page, true, t)?;
                Ok(Some((e, XactOutcome::WriteMiss)))
            }
        }
    }

    /// Clears a client's `pending` flag after an aborted fill and wakes
    /// any local processors waiting on it, so a transport failure never
    /// wedges the sibling faulters of the same page.
    fn abort_fill(&self, entry: &PageEntry, ssmp: usize, t: &dyn ProtoTiming) {
        let (lock, cond) = &entry.clients[ssmp];
        let mut client = lock.lock();
        client.installed_at = t.now();
        client.pending = false;
        cond.notify_all();
    }

    /// Arcs 5 → 17/18/19 → 6/7: request a page copy from the home and
    /// install it. Called with the server mutex held and the client's
    /// `pending` flag set; on error the flag is cleared before the error
    /// propagates (waiting siblings re-fault and retry for themselves).
    fn fill(
        &self,
        entry: &PageEntry,
        server: &mut ServerPage,
        proc: usize,
        page: u64,
        want_write: bool,
        t: &mut dyn ProtoTiming,
    ) -> Result<TlbEntry, ProtocolError> {
        let ssmp = self.cfg.ssmp_of(proc);
        let lidx = self.cfg.local_index(proc);
        let home_node = self.home_node(page);
        let home_ssmp = self.cfg.ssmp_of(home_node);
        let cost = &self.cfg.cost;
        let words = self.cfg.geometry.words_per_page();
        let at_home = ssmp == home_ssmp;

        // RREQ/WREQ ⇒ g_home.
        let (req, dat, service) = if want_write {
            (MsgKind::WReq, MsgKind::WDat, cost.server_write)
        } else {
            (MsgKind::RReq, MsgKind::RDat, cost.server_read)
        };
        if let Err(e) = self.reliable(t, ssmp, home_ssmp, req, 0, page) {
            self.abort_fill(entry, ssmp, t);
            return Err(e);
        }
        t.node_work(home_node, service);

        // Single-writer pinning (migratory pages): evict the current
        // writer before serving *any* fill — under the lazy pinned
        // release the home copy is stale until the writer's diff is
        // merged, and a faulter arriving after the writer's release
        // must see the released words. Read fills evict too (rather
        // than flushing the writer in place): a reader polling a
        // pinned page would otherwise re-trigger a whole-page diff
        // scan per read, while after an eviction the page stays
        // read-shared until the writer's next store. A no-op unless
        // the policy is `SingleWriterPin`.
        if let Err(e) = self.pin_evict_writers(entry, server, ssmp, page, t) {
            self.abort_fill(entry, ssmp, t);
            return Err(e);
        }

        let (frame, arrived): (_, Option<PageBuf>) = if at_home {
            // The home SSMP maps the physical home copy directly; no
            // data moves.
            (server.home_frame.clone(), None)
        } else {
            // Gather a globally coherent image of the home copy
            // (page cleaning, §4.2.4), then DMA it out. The transfer
            // buffer is pooled: on a write fill it becomes the twin,
            // on a read fill it is recycled.
            self.clean_page(home_ssmp, &server.home_frame, home_node, t);
            let mut data = self.twin_pools[ssmp].acquire();
            server.home_frame.snapshot_into(&mut data);
            t.node_work(home_node, cost.page_dma_cost(words));
            if let Err(e) = self.reliable(
                t,
                home_ssmp,
                ssmp,
                dat,
                self.cfg.geometry.page_bytes(),
                page,
            ) {
                self.abort_fill(entry, ssmp, t);
                return Err(e);
            }
            // First-touch placement: the new frame lives in the
            // faulting processor's memory (§3.1.2).
            let frame = self.frames.alloc(proc);
            frame.fill(&data);
            t.local(cost.page_install);
            (frame, Some(data))
        };

        // Server directory update (arcs 17/18/19).
        debug_assert_eq!(
            server.dirs.all() & (1 << ssmp),
            0,
            "filling SSMP must not already hold a copy"
        );
        if want_write {
            if self.cfg.single_writer_opt && server.dirs.writers() == 1 {
                // A second SSMP just gained write privilege.
                t.observe(ObsEvent::SingleWriterBreak { page, ssmp });
            }
            server.dirs.write_dir |= 1 << ssmp;
        } else {
            server.dirs.read_dir |= 1 << ssmp;
        }

        // Install at the client (arcs 6/7).
        let (lock, cond) = &entry.clients[ssmp];
        let mut client = lock.lock();
        client.state = if want_write {
            ClientState::Write
        } else {
            ClientState::Read
        };
        client.frame = Some(frame.clone());
        if want_write && !at_home {
            // Twins are made at request time (§3.1.1); the image that
            // just arrived is exactly the twin.
            t.local(cost.twin_cost(words));
            client.twin = arrived;
            t.observe(ObsEvent::TwinCreate { page, ssmp });
        }
        client.tlb_dir |= 1 << lidx;
        if want_write && self.duqs[proc].push(page) {
            t.local(cost.duq_insert);
        }
        t.local(cost.lc_finish);
        client.installed_at = t.now();
        client.pending = false;
        cond.notify_all();
        drop(client);

        if want_write {
            self.stats.write_misses.incr();
        } else {
            self.stats.read_misses.incr();
        }
        Ok(self.install_tlb(proc, page, frame, want_write, t))
    }

    // ------------------------------------------------------------------
    // Release (eager release consistency)
    // ------------------------------------------------------------------

    /// Performs a release operation for global processor `proc`: flushes
    /// every page on its delayed update queue (arcs 8–10). Called by
    /// the synchronization library at lock releases and barriers.
    ///
    /// # Panics
    ///
    /// Panics on transport failure, like [`fault`](MgsProtocol::fault);
    /// see [`try_release_all`](MgsProtocol::try_release_all).
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
    pub fn try_release_all(
        &self,
        proc: usize,
        t: &mut dyn ProtoTiming,
    ) -> Result<(), ProtocolError> {
        let pages = self.duqs[proc].drain();
        // A page another transaction pruned from this queue (arc 12)
        // carries this processor's writes home inside *that*
        // transaction, which holds the page's server lock until every
        // copy is invalidated. Until then some SSMP can still hold a
        // stale writable copy, so this release must not complete — and
        // hand a lock over to that SSMP — before it does: the next
        // holder would update the stale word and its diff would
        // overwrite the merged one. Host-side wait only; no simulated
        // time is charged.
        for page in self.duqs[proc].take_pruned() {
            drop(self.page_entry(page).server.lock());
        }
        if pages.is_empty() {
            return Ok(());
        }
        self.stats.releases.incr();
        t.observe(ObsEvent::DuqFlush {
            proc,
            pages: pages.len() as u64,
        });
        for page in pages {
            self.try_release_page(proc, page, t)?;
        }
        Ok(())
    }

    /// Releases a single page (see
    /// [`try_release_page`](MgsProtocol::try_release_page)).
    ///
    /// # Panics
    ///
    /// Panics on transport failure, like [`fault`](MgsProtocol::fault).
    pub fn release_page(&self, proc: usize, page: u64, t: &mut dyn ProtoTiming) {
        self.try_release_page(proc, page, t)
            .unwrap_or_else(|e| panic!("unrecoverable MGS protocol failure: {e}"))
    }

    /// Releases a single page: REL ⇒ g_home, invalidation fan-out, diff
    /// merging, RACK (arcs 8, 20–23, 9). Surfaces transport failure as
    /// a typed [`ProtocolError`] (see
    /// [`try_release_all`](MgsProtocol::try_release_all) for the
    /// recovery contract).
    pub fn try_release_page(
        &self,
        proc: usize,
        page: u64,
        t: &mut dyn ProtoTiming,
    ) -> Result<(), ProtocolError> {
        t.observe(ObsEvent::XactBegin {
            xact: XactKind::Release,
            page,
        });
        let res = self.release_page_inner(proc, page, t);
        t.observe(ObsEvent::XactEnd {
            xact: XactKind::Release,
            page,
            outcome: if res.is_ok() {
                XactOutcome::Released
            } else {
                XactOutcome::Aborted
            },
        });
        res
    }

    /// The body of [`try_release_page`](MgsProtocol::try_release_page):
    /// the one REL … RACK envelope, around the flush discipline the
    /// page's policy selects.
    fn release_page_inner(
        &self,
        proc: usize,
        page: u64,
        t: &mut dyn ProtoTiming,
    ) -> Result<(), ProtocolError> {
        let ssmp = self.cfg.ssmp_of(proc);
        let entry = self.page_entry(page);
        let home_node = self.home_node(page);
        let home_ssmp = self.cfg.ssmp_of(home_node);
        let cost = &self.cfg.cost;

        t.local(cost.rel_entry);
        let mut server = entry.server.lock();
        // The page's policy selects the flush discipline. Read once,
        // under the server lock, so one release sees one policy even if
        // the adaptive controller reclassifies concurrently.
        let policy = self.policy(page);
        // Lazy migratory release (policy `SingleWriterPin`, sole
        // writer): no data moves. The writer keeps its mapping, its
        // twin and its write privilege, so the next same-SSMP critical
        // section runs entirely in hardware — this is where the policy
        // earns its keep: a lock-protected page whose lock stays inside
        // one SSMP pays nothing per critical section instead of a
        // whole-page flush. The unflushed updates stay recoverable:
        // every fill of a pinned page evicts the writer first
        // (`pin_evict_writers`), diffing against the kept twin and
        // merging home, so a remote acquirer always reads the released
        // words. Readers must still be invalidated here — release
        // consistency promises that copies filled before this release
        // go stale now — but a migratory page rarely has any, so the
        // common release is two local constants and zero messages.
        let pinned = policy == PagePolicy::SingleWriterPin && server.dirs.write_dir == (1 << ssmp);
        let stale_readers = server.dirs.read_dir & !(1 << ssmp);
        if pinned && stale_readers == 0 {
            self.stats.pages_released.incr();
            t.local(cost.rel_finish);
            return Ok(());
        }
        self.reliable(t, ssmp, home_ssmp, MsgKind::Rel, 0, page)?;
        t.node_work(home_node, cost.server_rel);
        self.stats.pages_released.incr();

        match policy {
            // The pinned sole writer: no data moves, stale readers go.
            PagePolicy::SingleWriterPin if pinned => {
                for reader in bits(stale_readers) {
                    self.invalidate_client(&entry, &mut server, reader, page, false, t)?;
                }
                server.dirs.read_dir &= 1 << ssmp;
            }
            // The paper's protocol. A pinned page's releases land here
            // only during multi-writer transition windows; the eager
            // multi-writer path merges every writer and restores
            // single-writer mode.
            PagePolicy::Eager | PagePolicy::SingleWriterPin => {
                self.eager_flush(&entry, &mut server, page, t)?;
            }
            PagePolicy::HomeLrc => self.lrc_flush(&entry, &mut server, ssmp, page, t)?,
            PagePolicy::WriteThrough => {
                self.write_through_flush(&entry, &mut server, ssmp, page, t)?;
            }
        }

        // Arc 23: merge complete; acknowledge the releaser.
        t.node_work(home_node, cost.server_merge);
        self.reliable(t, home_ssmp, ssmp, MsgKind::RAck, 0, page)?;
        t.local(cost.rel_finish);
        Ok(())
    }

    /// The paper's release flush (policy [`PagePolicy::Eager`]): eager
    /// invalidation of every sharer, diff merging for writers, the
    /// single-writer 1WINV/1WDATA path when it applies. This body is
    /// the pre-strategy protocol verbatim — the `strategy_equivalence`
    /// suite gates that reports through this path stay bit-identical.
    fn eager_flush(
        &self,
        entry: &PageEntry,
        server: &mut ServerPage,
        page: u64,
        t: &mut dyn ProtoTiming,
    ) -> Result<(), ProtocolError> {
        let home_node = self.home_node(page);
        let home_ssmp = self.cfg.ssmp_of(home_node);

        let dirs = server.dirs;
        if self.cfg.single_writer_opt && dirs.writers() == 1 {
            // Arc 20, |write_dir| == 1: INV ⇒ read_dir, 1WINV ⇒
            // write_dir (the single-writer optimization).
            let writer = dirs.write_dir.trailing_zeros() as usize;
            for reader in bits(dirs.read_dir) {
                self.invalidate_client(entry, server, reader, page, false, t)?;
            }
            self.single_writer_flush(entry, server, writer, page, t)?;
            server.dirs = ServerDirs {
                read_dir: 0,
                // Table 1 erratum (see crate docs): the writer keeps its
                // cached copy, so the server must keep tracking it.
                write_dir: 1 << writer,
            };
        } else {
            // Arcs 20 (multi-writer) / 21 (read-only): INV ⇒ read_dir ∪
            // write_dir. Before merging diffs the home's own cached
            // lines must be flushed so post-merge reads at the home see
            // merged data; when the home SSMP holds a copy its
            // invalidation below performs that clean.
            if dirs.all() & (1 << home_ssmp) == 0 && dirs.writers() > 0 {
                self.clean_page(home_ssmp, &server.home_frame, home_node, t);
            }
            for s in bits(dirs.all()) {
                let is_writer = dirs.write_dir & (1 << s) != 0;
                self.invalidate_client(entry, server, s, page, is_writer, t)?;
            }
            server.dirs = ServerDirs::default();
        }
        Ok(())
    }

    /// Home-based lazy release consistency flush (policy
    /// [`PagePolicy::HomeLrc`]): the releasing SSMP ships its diff to
    /// the home ([`flush_own_diff`](MgsProtocol::flush_own_diff)) and
    /// posts write notices to the other sharers instead of
    /// invalidating them — their copies are dropped (writers: evicted,
    /// merging their diffs) at their next acquire point, off this
    /// release's critical path.
    fn lrc_flush(
        &self,
        entry: &PageEntry,
        server: &mut ServerPage,
        ssmp: usize,
        page: u64,
        t: &mut dyn ProtoTiming,
    ) -> Result<(), ProtocolError> {
        let home_ssmp = self.home_ssmp(page);
        let dirs = server.dirs;

        if dirs.write_dir & (1 << ssmp) != 0 && ssmp != home_ssmp {
            let mut diff = self.acquire_diff_scratch(ssmp);
            let flushed = self.flush_own_diff(entry, server, ssmp, page, &mut diff, t);
            self.release_diff_scratch(ssmp, diff);
            flushed?;
        } else if dirs.write_dir & (1 << ssmp) != 0 {
            // Home-SSMP writer: its stores are already in the home
            // copy, so nothing travels — but the DUQ must still be
            // re-armed so the *next* batch of local writes re-faults
            // and triggers a future release (which is what notifies the
            // other sharers).
            let mut client = entry.clients[ssmp].0.lock();
            let frame = client.frame.clone().expect("writer has a frame");
            self.shoot_down(&mut client, ssmp, page, &frame, t);
        }

        // Post write notices to every other sharer: their copies are
        // stale but stay mapped until their next acquire point. The
        // home SSMP's copy IS the just-merged home frame, so it is
        // never stale and gets no notice. Directories are left
        // unchanged — every copy stays live until drained.
        for s in bits(dirs.all() & !(1 << ssmp | 1 << home_ssmp)) {
            self.post_notice(s, page, home_ssmp, t)?;
        }
        Ok(())
    }

    /// Write-through flush (policy [`PagePolicy::WriteThrough`], chosen
    /// by the adaptive controller for falsely-shared and
    /// producer/consumer pages): the releaser's diff is merged at the
    /// home ([`flush_own_diff`](MgsProtocol::flush_own_diff)) and then
    /// **pushed to every live sharer copy in place** (UPDATE messages)
    /// instead of invalidating them. Sharers keep their mappings — no
    /// shootdown, no refault, no page refetch — so a page that
    /// ping-pongs a few words per release (TSP's 56-byte path records)
    /// stops paying whole-page breakup costs. Directories are left
    /// unchanged; the sharer set only grows.
    fn write_through_flush(
        &self,
        entry: &PageEntry,
        server: &mut ServerPage,
        ssmp: usize,
        page: u64,
        t: &mut dyn ProtoTiming,
    ) -> Result<(), ProtocolError> {
        let home_ssmp = self.home_ssmp(page);
        let dirs = server.dirs;

        if dirs.write_dir & (1 << ssmp) == 0 {
            // Nothing of ours left to push (the copy was already
            // evicted and merged, e.g. by churn); sharers stay live.
            return Ok(());
        }
        if ssmp == home_ssmp {
            // A home-SSMP writer has no twin, so there is no diff to
            // push; fall back to one eager release for this page (the
            // sharer set re-forms on the next faults).
            return self.eager_flush(entry, server, page, t);
        }

        let mut diff = self.acquire_diff_scratch(ssmp);
        let pushed = self
            .flush_own_diff(entry, server, ssmp, page, &mut diff, t)
            .and_then(|()| {
                bits(dirs.all() & !(1 << ssmp | 1 << home_ssmp))
                    .try_for_each(|s| self.push_update(entry, &diff, s, page, home_ssmp, t))
            });
        self.release_diff_scratch(ssmp, diff);
        pushed
    }

    /// The releaser-side home flush of the two disciplines that keep
    /// the releaser's copy ([`lrc_flush`](MgsProtocol::lrc_flush),
    /// [`write_through_flush`](MgsProtocol::write_through_flush)):
    /// writer SSMP `ssmp` (not the home's) ships its diff home and
    /// stays in WRITE state with its twin refreshed to the flushed
    /// image. Its own mappings are shot down **before** the diff so no
    /// store lands between diff and twin refresh and the next local
    /// write re-faults and re-enters the DUQ — without that re-arm,
    /// later releases would find nothing to flush and updates would be
    /// lost — and faulters block until the flushed image is consistent.
    /// `diff` (the caller's scratch) holds the merged diff afterwards,
    /// for the discipline that pushes it on to the sharers.
    fn flush_own_diff(
        &self,
        entry: &PageEntry,
        server: &ServerPage,
        ssmp: usize,
        page: u64,
        diff: &mut SpanDiff,
        t: &mut dyn ProtoTiming,
    ) -> Result<(), ProtocolError> {
        let cost = &self.cfg.cost;
        let mut client = entry.clients[ssmp].0.lock();
        debug_assert_eq!(client.state, ClientState::Write, "writer holds WRITE");
        let frame = client.frame.clone().expect("writer has a frame");
        let rc_node = frame.home_node();
        t.node_work(rc_node, cost.rc_entry);
        self.shoot_down(&mut client, ssmp, page, &frame, t); // the DUQ re-arm
                                                             // Flush this SSMP's cached lines so the diff reads coherent
                                                             // data.
        self.clean_page(ssmp, &frame, rc_node, t);
        // Diff and twin refresh under ONE exclusive drain: the kept
        // twin must equal exactly the image that was diffed, or the
        // next release's diff would re-ship (or miss) words written in
        // between.
        let twin = client.twin.as_mut().expect("releasing writer has a twin");
        frame.with_quiesced(|w| {
            diff.compute_into(w, twin);
            twin.copy_from_slice(w);
        });
        t.node_work(
            rc_node,
            cost.diff_compute_cost(self.cfg.geometry.words_per_page()),
        );
        // The home's cached lines must be flushed before the merge so
        // post-merge reads at the home see merged data; a copy held by
        // the home SSMP is the home frame itself.
        let clean_home = server.dirs.all() & (1 << self.home_ssmp(page)) == 0;
        self.merge_diff_home(server, diff, ssmp, page, clean_home, t)
    }

    /// Write-through's per-sharer half: UPDATE ⇒ `s`, patching the
    /// merged `diff` into its live copy in place. Word-atomic stores
    /// on the live frame — no quiesce, no generation bump: the
    /// sharer's mappings stay valid throughout. A sharer's twin (if it
    /// is a writer) is patched identically, so its own next diff ships
    /// only its own words. A sharer concurrently storing to a
    /// *different* word loses nothing (stores are word-atomic both
    /// ways); same-word concurrent stores are a data race the
    /// release-consistency model already leaves undefined.
    fn push_update(
        &self,
        entry: &PageEntry,
        diff: &SpanDiff,
        s: usize,
        page: u64,
        home_ssmp: usize,
        t: &mut dyn ProtoTiming,
    ) -> Result<(), ProtocolError> {
        let mut sclient = entry.clients[s].0.lock();
        if sclient.state == ClientState::Inv {
            return Ok(());
        }
        let sframe = sclient.frame.clone().expect("live sharer has a frame");
        let changed = diff.changed_words();
        self.reliable(t, home_ssmp, s, MsgKind::Update, changed * 8, page)?;
        let s_node = sframe.home_node();
        t.node_work(s_node, self.cfg.cost.diff_transfer_apply_cost(changed));
        diff.apply_to_frame(&sframe);
        if let Some(stwin) = sclient.twin.as_mut() {
            diff.apply_to_slice(stwin);
        }
        // The pushed words entered the sharer's memory through its
        // protocol processor's cache: mark those lines dirty so a
        // later page clean pays the dirty tier.
        self.caches[s].directory().mark_dirty_lines_hinted(
            diff.touched_lines(&sframe),
            self.cfg.local_index(s_node),
            sframe.dir_hint(),
        );
        self.stats.update_pushes.incr();
        self.stats.update_push_words.add(changed);
        t.observe(ObsEvent::UpdatePush {
            page,
            ssmp: s,
            words: changed,
        });
        Ok(())
    }

    /// Single-writer pinning: evicts every *other* writer of `page`
    /// (merging their diffs into the home) under the held server lock,
    /// and with them every other reader. The readers go because the
    /// evicted writer's next release no longer covers this page — its
    /// DUQ entry was pruned with its mapping — so a READ copy filled
    /// before the eviction would stay valid, and stale, past that
    /// release: the writer's words are in the home copy now and nobody
    /// else is left to invalidate it. A no-op unless the page's policy
    /// is [`PagePolicy::SingleWriterPin`] and another SSMP holds write
    /// privilege.
    fn pin_evict_writers(
        &self,
        entry: &PageEntry,
        server: &mut ServerPage,
        ssmp: usize,
        page: u64,
        t: &mut dyn ProtoTiming,
    ) -> Result<(), ProtocolError> {
        let writers = server.dirs.write_dir & !(1 << ssmp);
        if writers == 0 || self.policy(page) != PagePolicy::SingleWriterPin {
            return Ok(());
        }
        for s in bits(writers | server.dirs.read_dir & !(1 << ssmp)) {
            self.evict_copy(entry, server, s, page, t)?;
        }
        Ok(())
    }

    /// Arc 14 (INV) at one client SSMP: PINV fan-out, page cleaning,
    /// diff for writers, then ACK/DIFF back to the server (arcs 15/16).
    fn invalidate_client(
        &self,
        entry: &PageEntry,
        server: &mut ServerPage,
        ssmp: usize,
        page: u64,
        is_writer: bool,
        t: &mut dyn ProtoTiming,
    ) -> Result<(), ProtocolError> {
        let home_node = self.home_node(page);
        let home_ssmp = self.cfg.ssmp_of(home_node);
        let cost = &self.cfg.cost;
        let words = self.cfg.geometry.words_per_page();

        let (lock, _) = &entry.clients[ssmp];
        let mut client = lock.lock();
        debug_assert!(!client.pending, "fills are serialized by the server lock");
        if client.state == ClientState::Inv {
            return Ok(());
        }
        let frame = client.frame.clone().expect("copy present");
        self.stats.invalidations.incr();
        t.observe(ObsEvent::Invalidate {
            page,
            ssmp,
            writer: is_writer,
        });

        self.reliable(t, home_ssmp, ssmp, MsgKind::Inv, 0, page)?;
        let rc_node = frame.home_node();
        t.node_work(rc_node, cost.rc_entry);

        // The shootdown's generation bump and the later diff each take
        // the frame's guard briefly rather than fusing into one long
        // exclusive section: stale-TLB racers blocked on the guard
        // should be held for as short a window as the seed held them,
        // keeping host-side interleavings on live pages undisturbed.
        self.shoot_down(&mut client, ssmp, page, &frame, t);

        let at_home = ssmp == home_ssmp;
        if !at_home {
            // Page cleaning (§4.2.4): flush the SSMP's cached lines so
            // the copy can be diffed/discarded coherently. The home
            // SSMP's cached lines ARE the valid data (its frame is the
            // home copy), so no cleaning happens there — only its
            // mappings are invalidated, re-arming fault-on-write.
            let clean = self.caches[ssmp]
                .directory()
                .clean_page_hinted(frame.lines(), frame.dir_hint());
            if is_writer || !self.cfg.readonly_clean_opt {
                t.node_work(rc_node, SsmpCacheSystem::clean_cost(clean, cost));
            }
            // With the read-only optimization the lines of a READ copy
            // are invalidated off the critical path: the directory
            // update above still happens, but nobody waits for it.
        }
        if is_writer && !at_home {
            // Arc 14 (WRITE) → 16 (tt == 2): make diff, DIFF ⇒ g_home.
            // The span kernel diffs the retired frame against the twin
            // directly under a brief drain (no intermediate snapshot);
            // the twin buffer and the diff scratch are both recycled,
            // so a steady-state release allocates nothing. Cycle
            // charges are unchanged: the changed-word count is
            // identical to the per-word reference diff's (the
            // span_diff_props tests gate this).
            let twin = client.twin.take().expect("writer SSMP has a twin");
            let mut diff = self.acquire_diff_scratch(ssmp);
            diff.compute_from_frame_into(&frame, &twin);
            drop(twin); // back to the pool before the transfer
            t.node_work(rc_node, cost.diff_compute_cost(words));
            // No home clean here: the eager flush that fans these
            // invalidations out cleaned the home once for all writers
            // (an eviction outside a release merges without one).
            let merged = self.merge_diff_home(server, &diff, ssmp, page, false, t);
            self.release_diff_scratch(ssmp, diff);
            merged?;
        } else {
            // Arc 14 (READ) → 16 (tt == 1): clean page, ACK ⇒ g_home.
            // Home-SSMP writers also land here: their stores went
            // directly to the home copy, so cleaning suffices.
            self.reliable(t, ssmp, home_ssmp, MsgKind::Ack, 0, page)?;
        }

        client.state = ClientState::Inv;
        client.frame = None;
        client.twin = None;
        Ok(())
    }

    /// Arc 14/16 with `tt == 3`: the single-writer optimization. The
    /// writer cleans its copy and ships the whole page (1WDATA); its
    /// read-write copy remains cached with an empty `tlb_dir`.
    fn single_writer_flush(
        &self,
        entry: &PageEntry,
        server: &mut ServerPage,
        ssmp: usize,
        page: u64,
        t: &mut dyn ProtoTiming,
    ) -> Result<(), ProtocolError> {
        let home_node = self.home_node(page);
        let home_ssmp = self.cfg.ssmp_of(home_node);
        let cost = &self.cfg.cost;
        let words = self.cfg.geometry.words_per_page();

        let (lock, _) = &entry.clients[ssmp];
        let mut client = lock.lock();
        debug_assert_eq!(client.state, ClientState::Write, "writer holds WRITE");
        let frame = client.frame.clone().expect("writer has a frame");
        self.stats.single_writer_flushes.incr();
        t.observe(ObsEvent::SingleWriterFlush { page, ssmp });

        self.reliable(t, home_ssmp, ssmp, MsgKind::OneWInv, 0, page)?;
        let rc_node = frame.home_node();
        t.node_work(rc_node, cost.rc_entry);

        self.shoot_down(&mut client, ssmp, page, &frame, t);

        if ssmp != home_ssmp {
            // Gather a globally coherent page image before the DMA
            // (§4.2.4). When the sole writer is the home SSMP itself
            // its stores are already in the home copy and its caches
            // are the valid data: only the mappings are invalidated.
            self.clean_page(ssmp, &frame, rc_node, t);
            // 1WDATA: the whole page travels instead of a diff —
            // "diff computation overhead is traded off for higher
            // communication bandwidth" (§3.1.1). One pooled snapshot
            // serves both the home overwrite and the refreshed twin;
            // the writer's previous twin buffer (if any) is recycled
            // only after the transfer succeeds, so an aborted flush
            // leaves the old twin in place and the next release's diff
            // still covers these updates.
            let mut data = self.twin_pools[ssmp].acquire();
            frame.with_quiesced(|words| data.copy_from_slice(words));
            t.node_work(rc_node, cost.page_dma_cost(words));
            self.reliable(
                t,
                ssmp,
                home_ssmp,
                MsgKind::OneWData,
                self.cfg.geometry.page_bytes(),
                page,
            )?;
            // The home cleans its own copy before overwriting it.
            self.clean_page(home_ssmp, &server.home_frame, home_node, t);
            server.home_frame.fill(&data);
            t.node_work(home_node, cost.page_dma_cost(words));
            // Refresh the twin: the kept copy is now identical to the
            // home, so a future multi-writer diff starts from here.
            // (Replacing the old twin drops its buffer into the pool.)
            client.twin = Some(data);
        } else {
            // The sole writer is the home SSMP itself: its stores are
            // already in the home copy.
            t.message(ssmp, home_ssmp, MsgKind::Ack, 0);
        }
        // The read-write copy remains cached (state stays WRITE); only
        // the mappings are gone, so local re-use costs one TLB fill.
        Ok(())
    }

    /// Is a lazy write notice pending (or possibly being drained right
    /// now) for `page` at `ssmp`? Conservative: while any drain is in
    /// flight the page is treated as potentially stale, which only
    /// costs an occasional refetch.
    fn notice_pending(&self, ssmp: usize, page: u64) -> bool {
        let st = self.notices[ssmp].state.lock();
        st.drains_in_flight > 0 || st.queue.contains(&page)
    }

    /// Home-LRC lazy invalidation: post a write notice to a sharer SSMP
    /// instead of invalidating its copy on the releaser's critical path.
    /// The releaser pays one message; the reader drops the copy at its
    /// next acquire point. The notice is unacknowledged at the protocol
    /// level but still sent reliably — a silently lost notice would
    /// leave the reader's stale copy live forever.
    fn post_notice(
        &self,
        ssmp: usize,
        page: u64,
        home_ssmp: usize,
        t: &mut dyn ProtoTiming,
    ) -> Result<(), ProtocolError> {
        self.reliable(t, home_ssmp, ssmp, MsgKind::Inv, 0, page)?;
        self.notices[ssmp].state.lock().queue.push(page);
        self.stats.lazy_notices.incr();
        t.observe(ObsEvent::LazyNotice { page, ssmp });
        Ok(())
    }

    /// Acquire-side coherence for home-LRC lazy invalidation: drops
    /// every noticed stale copy of the calling processor's SSMP. Called
    /// by the runtime after lock acquisition and after barrier release
    /// (the acquire half of release consistency). A no-op under eager
    /// or when no notices are pending.
    pub fn acquire_sync(&self, proc: usize, t: &mut dyn ProtoTiming) {
        if !self.uses_notices() {
            return;
        }
        let ssmp = self.cfg.ssmp_of(proc);
        // Claim the pending notices (brief lock) and mark a drain in
        // flight. Sibling processors passing their own acquire points
        // with nothing to drain must still wait for in-flight drains to
        // finish: an acquire may not complete until the pending
        // invalidations have been *performed*, not merely claimed.
        let pending = {
            let mut st = self.notices[ssmp].state.lock();
            if st.queue.is_empty() {
                while st.drains_in_flight > 0 {
                    self.notices[ssmp].drained.wait(&mut st);
                }
                return;
            }
            st.drains_in_flight += 1;
            std::mem::take(&mut st.queue)
        };
        for page in pending {
            let entry = self.page_entry(page);
            // Canonical lock order: server before client.
            let mut server = entry.server.lock();
            let (lock, _) = &entry.clients[ssmp];
            let mut client = lock.lock();
            match client.state {
                ClientState::Read => {}
                // Home-LRC posts notices to writer SSMPs too: a noticed
                // write copy is missing other releasers' merged words,
                // so it must be fully evicted (its own diff merges
                // home) and refetched on next use. Canonical lock
                // order: release the client lock, evict under the
                // still-held server lock.
                ClientState::Write if self.policy(page) == PagePolicy::HomeLrc => {
                    drop(client);
                    if let Err(e) = self.evict_copy(&entry, &mut server, ssmp, page, t) {
                        // Keep the drain accounting consistent before
                        // surfacing the failure under the same
                        // panic-on-exhausted-retries contract as
                        // `fault`.
                        let mut st = self.notices[ssmp].state.lock();
                        st.drains_in_flight -= 1;
                        if st.drains_in_flight == 0 {
                            self.notices[ssmp].drained.notify_all();
                        }
                        panic!("unrecoverable MGS protocol failure: {e}");
                    }
                    continue;
                }
                // The copy may already be gone (re-faulted and
                // re-invalidated), or it is a write copy that a later
                // eager release handled.
                _ => continue,
            }
            let frame = self.drop_read_copy(&mut client, &mut server, ssmp, page, t);
            // Of the three drop sites only this one owes the page clean
            // (§4.2.4): an acquire is where a lazily invalidated copy's
            // cached lines are finally flushed.
            self.clean_page(ssmp, &frame, frame.home_node(), t);
        }
        let mut st = self.notices[ssmp].state.lock();
        st.drains_in_flight -= 1;
        if st.drains_in_flight == 0 {
            self.notices[ssmp].drained.notify_all();
        }
    }

    // ------------------------------------------------------------------
    // Churn (scenario engine): SSMP departure and rejoin
    // ------------------------------------------------------------------

    /// Every instantiated page, in page order (deterministic iteration
    /// for the churn drains below).
    fn instantiated_pages(&self) -> Vec<(u64, Arc<PageEntry>)> {
        let mut pages: Vec<(u64, Arc<PageEntry>)> = Vec::new();
        for shard in &self.shards {
            let map = shard.lock();
            pages.extend(map.iter().map(|(p, e)| (*p, Arc::clone(e))));
        }
        pages.sort_unstable_by_key(|(p, _)| *p);
        pages
    }

    /// Invalidates `ssmp`'s copy of a page (if any) and clears its
    /// directory bits, under the held server lock.
    fn evict_copy(
        &self,
        entry: &PageEntry,
        server: &mut ServerPage,
        ssmp: usize,
        page: u64,
        t: &mut dyn ProtoTiming,
    ) -> Result<(), ProtocolError> {
        if server.dirs.all() & (1 << ssmp) != 0 {
            let is_writer = server.dirs.write_dir & (1 << ssmp) != 0;
            self.invalidate_client(entry, server, ssmp, page, is_writer, t)?;
            server.dirs.read_dir &= !(1 << ssmp);
            server.dirs.write_dir &= !(1 << ssmp);
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
    pub fn drain_pinned(&self, t: &mut dyn ProtoTiming) -> Result<(), ProtocolError> {
        for (page, entry) in self.instantiated_pages() {
            if self.policy(page) != PagePolicy::SingleWriterPin {
                continue;
            }
            let mut server = entry.server.lock();
            for w in bits(server.dirs.write_dir) {
                self.evict_copy(&entry, &mut server, w, page, t)?;
            }
        }
        Ok(())
    }

    /// Drains SSMP `ssmp` out of the machine ahead of a churn
    /// departure: every page copy it holds is invalidated back to its
    /// home (writers merge their diffs first, so no update is lost),
    /// and every page *homed* there is re-homed to `new_home_node`'s
    /// SSMP — the home copy travels as one page-sized transfer over the
    /// still-up link, and the page's home override is repointed so
    /// later faults and releases are served by the survivor.
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
    ) -> Result<u64, ProtocolError> {
        let new_ssmp = self.cfg.ssmp_of(new_home_node);
        assert_ne!(new_ssmp, ssmp, "survivor must be a different SSMP");
        let cost = &self.cfg.cost;
        let words = self.cfg.geometry.words_per_page();
        let mut rehomed = 0u64;

        for (page, entry) in self.instantiated_pages() {
            let mut server = entry.server.lock();
            let old_home_node = self.home_node(page);
            let old_home_ssmp = self.cfg.ssmp_of(old_home_node);

            // Drop the departing SSMP's own copy (merging any updates
            // into the home copy — which may be its own frame when the
            // page is homed here).
            self.evict_copy(&entry, &mut server, ssmp, page, t)?;

            if old_home_ssmp != ssmp {
                continue;
            }

            // Re-home: the survivor must not keep a shadow copy (see
            // the survivor invariant above).
            self.evict_copy(&entry, &mut server, new_ssmp, page, t)?;

            // Gather a coherent image of the home copy (§4.2.4 page
            // cleaning) and ship it whole, like a 1WDATA flush.
            self.clean_page(ssmp, &server.home_frame, old_home_node, t);
            let mut data = self.twin_pools[ssmp].acquire();
            server.home_frame.snapshot_into(&mut data);
            t.node_work(old_home_node, cost.page_dma_cost(words));
            self.reliable(
                t,
                ssmp,
                new_ssmp,
                MsgKind::OneWData,
                self.cfg.geometry.page_bytes(),
                page,
            )?;
            let frame = self.frames.alloc(new_home_node);
            frame.fill(&data);
            t.node_work(new_home_node, cost.page_dma_cost(words));
            server.home_frame = frame;
            // Remote writers keep their twins: a twin snapshots the
            // home content at fetch time, and the new home frame holds
            // exactly that content (plus merged releases), so later
            // diffs apply unchanged.
            self.home_overrides.lock().insert(page, new_home_node);
            rehomed += 1;
        }
        Ok(rehomed)
    }

    /// Reconstructs directory state for SSMP `ssmp` after a churn
    /// rejoin: any copy it still holds is evicted (a fault completed in
    /// the window between the departure drain and link-down; its
    /// updates merge home here), and any *stale* sharer entry — a
    /// directory bit with no live copy behind it — is repaired. The
    /// rejoined SSMP starts cold: its next access to any page takes the
    /// ordinary fill path.
    ///
    /// Must run **after** the link is back up (evictions use the
    /// reliable transport). Returns `(evicted, repaired)`: live copies
    /// dropped and stale directory bits cleared. A fault-free drain
    /// leaves both at 0 for every page departed cleanly, so the churn
    /// property tests assert `repaired == 0`.
    pub fn rejoin_ssmp(
        &self,
        ssmp: usize,
        t: &mut dyn ProtoTiming,
    ) -> Result<(u64, u64), ProtocolError> {
        let mut evicted = 0u64;
        let mut repaired = 0u64;
        for (page, entry) in self.instantiated_pages() {
            let mut server = entry.server.lock();
            if server.dirs.all() & (1 << ssmp) == 0 {
                continue;
            }
            let live = entry.clients[ssmp].0.lock().state != ClientState::Inv;
            if live {
                self.evict_copy(&entry, &mut server, ssmp, page, t)?;
                evicted += 1;
            } else {
                server.dirs.read_dir &= !(1 << ssmp);
                server.dirs.write_dir &= !(1 << ssmp);
                repaired += 1;
            }
        }
        Ok((evicted, repaired))
    }

    /// Page cleaning (§4.2.4): flushes `ssmp`'s cached lines of `frame`,
    /// the walk charged to `node`'s protocol engine.
    fn clean_page(&self, ssmp: usize, frame: &PageFrame, node: usize, t: &mut dyn ProtoTiming) {
        let clean = self.caches[ssmp]
            .directory()
            .clean_page_hinted(frame.lines(), frame.dir_hint());
        t.node_work(node, SsmpCacheSystem::clean_cost(clean, &self.cfg.cost));
    }

    /// The message-free drop of a stale READ copy, under the page's
    /// server and client locks: shoot the mappings down, client → INV,
    /// and the server stops tracking the copy (a drop can take a copy
    /// the directory still lists — a stale notice-queue entry survives
    /// an eager invalidate + refetch). Returns the retired frame for
    /// the caller that owes it a page clean.
    fn drop_read_copy(
        &self,
        client: &mut ClientPage,
        server: &mut ServerPage,
        ssmp: usize,
        page: u64,
        t: &mut dyn ProtoTiming,
    ) -> Arc<PageFrame> {
        let frame = client.frame.take().expect("READ copy has a frame");
        self.shoot_down(client, ssmp, page, &frame, t);
        client.state = ClientState::Inv;
        client.twin = None;
        server.dirs.read_dir &= !(1 << ssmp);
        self.stats.invalidations.incr();
        t.observe(ObsEvent::Invalidate {
            page,
            ssmp,
            writer: false,
        });
        frame
    }

    /// PINV fan-out: invalidate the TLB entry of every mapping processor
    /// and prune the page from their DUQs (arcs 11, 12, 15), then drain
    /// in-flight accesses and retire `frame`'s mapping generation (the
    /// paper's translation-critical-section rollback, §4.2.1): accesses
    /// that cloned a TLB entry before the shootdown will observe the
    /// generation bump and re-fault instead of touching a retired copy.
    fn shoot_down(
        &self,
        client: &mut ClientPage,
        ssmp: usize,
        page: u64,
        frame: &PageFrame,
        t: &mut dyn ProtoTiming,
    ) {
        let cost = &self.cfg.cost;
        let rc_node = frame.home_node();
        for lidx in bits(client.tlb_dir) {
            let gproc = ssmp * self.cfg.procs_per_ssmp + lidx;
            self.tlbs[gproc].shootdown(page);
            self.duqs[gproc].remove(page);
            t.node_work(gproc, cost.pinv);
            t.node_work(rc_node, cost.pinv_ack);
            self.stats.pinvs.incr();
            t.observe(ObsEvent::Pinv { page, proc: gproc });
        }
        client.tlb_dir = 0;
        let _drain = frame.quiesce();
        frame.bump_generation();
    }

    /// Arc 16 (`tt == 2`) → 22, the one place a diff is merged home:
    /// DIFF ⇒ g_home, applied to the home copy. `clean_home` asks for
    /// the home's cached lines to be flushed first, for a transaction
    /// that has not cleaned the home already. The caller owns `diff`
    /// (a pooled scratch) and hands it back on both outcomes.
    ///
    /// After the merge, the home node's protocol engine has written
    /// the changed words through its cache: those lines are marked
    /// dirty in the home SSMP's directory so later page cleans pay the
    /// dirty tier (§4.2.4). Marking is driven off the diff's spans,
    /// **deduped to one mark per cache line**
    /// ([`SpanDiff::touched_lines`]): a line holding several changed
    /// words is still marked exactly once, and no intermediate set is
    /// allocated. The span_diff_props tests assert the marked set
    /// equals the per-changed-word reference.
    fn merge_diff_home(
        &self,
        server: &ServerPage,
        diff: &SpanDiff,
        ssmp: usize,
        page: u64,
        clean_home: bool,
        t: &mut dyn ProtoTiming,
    ) -> Result<(), ProtocolError> {
        let home_node = self.home_node(page);
        let home_ssmp = self.cfg.ssmp_of(home_node);
        let cost = &self.cfg.cost;
        let changed = diff.changed_words();
        self.reliable(t, ssmp, home_ssmp, MsgKind::Diff, changed * 8, page)?;
        t.node_work(home_node, cost.diff_transfer_apply_cost(changed));
        if clean_home {
            self.clean_page(home_ssmp, &server.home_frame, home_node, t);
        }
        diff.apply_to_frame(&server.home_frame);
        self.caches[home_ssmp].directory().mark_dirty_lines_hinted(
            diff.touched_lines(&server.home_frame),
            self.cfg.local_index(home_node),
            server.home_frame.dir_hint(),
        );
        t.observe(ObsEvent::Diff {
            page,
            ssmp,
            words: changed,
            spans: diff.span_count() as u64,
        });
        if t.observing() {
            // Per-line attribution for the sharing profiler. The second
            // `touched_lines` walk only happens when someone is
            // listening.
            let base_line = server.home_frame.base() / PageGeometry::LINE_BYTES;
            for line in diff.touched_lines(&server.home_frame) {
                t.observe(ObsEvent::DiffLine {
                    page,
                    line: line - base_line,
                });
            }
        }
        self.stats.diffs.incr();
        self.stats.diff_words.add(changed);
        Ok(())
    }

    /// Total simulated time helper used by micro-benchmarks: number of
    /// words per page under this configuration.
    pub fn words_per_page(&self) -> u64 {
        self.cfg.geometry.words_per_page()
    }

    /// Marks every line of `page`'s home copy dirty in the home SSMP's
    /// cache directory (micro-measurement setup: Table 3 measures the
    /// write-miss and release paths on write-shared pages whose home
    /// lines are dirty).
    pub fn dirty_home_lines(&self, page: u64) {
        let entry = self.page_entry(page);
        let server = entry.server.lock();
        let home_node = self.home_node(page);
        self.caches[self.cfg.ssmp_of(home_node)]
            .directory()
            .mark_dirty_lines(server.home_frame.lines(), self.cfg.local_index(home_node));
    }

    /// Marks every line of `page`'s copy at `ssmp` dirty in that SSMP's
    /// directory, attributed to the processor owning the copy
    /// (micro-measurement setup for the release paths).
    ///
    /// # Panics
    ///
    /// Panics if the SSMP holds no copy of the page.
    pub fn dirty_client_lines(&self, ssmp: usize, page: u64) {
        let entry = self.page_entry(page);
        let client = entry.clients[ssmp].0.lock();
        let frame = client.frame.clone().expect("SSMP holds a copy");
        self.caches[ssmp]
            .directory()
            .mark_dirty_lines(frame.lines(), self.cfg.local_index(frame.home_node()));
    }
}
