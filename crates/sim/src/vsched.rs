//! The virtual-processor scheduler: M:N execution of simulated
//! processors on a bounded host worker budget. It paces every machine.
//!
//! Giving every simulated processor a dedicated, always-runnable OS
//! thread caps the machine at roughly the host's core count times a
//! small constant: at `P = 2048` the OS scheduler round-robins
//! thousands of runnable threads and every skew-bound advance turns
//! into a futex storm.
//!
//! [`VirtualScheduler`] inverts the relationship: the scheduler *is*
//! the skew bound. Each simulated processor is a **task** — a resumable
//! continuation whose suspension points are every charged access (via
//! `tick`) and every lock/barrier wait (via `suspend`). The scheduler
//! keeps time-ordered ready queues (binary heaps keyed on
//! `(local_time, pid)`), one per host worker, and admits at most
//! `workers` tasks at once, none of them more than a window ahead of
//! the **lowest simulated time**. A governed wait is then an O(log P)
//! heap reschedule instead of a park/unpark round-trip against every
//! other thread, and a task that blocks on simulated synchronization
//! costs the host *nothing* until the releaser reschedules it.
//!
//! # Continuations
//!
//! The *policy* — [`VState`], the heaps, the window test, the
//! `resume_pending` flag, the horizon mirror — is written once; what a
//! task is suspended *as* depends on who runs it. So is admission: one
//! step (`admit`: republish the horizon, report a deadlock, grant a
//! parked thread-backed task or wake an idle worker) ends every critical
//! section that changes the state. The state guard runs it on drop; only
//! a worker, for which it also picks the next task, calls it by hand.
//!
//! * [`VirtualScheduler::run`] is how a machine runs. On x86_64 Linux
//!   it hosts every task as a stackful coroutine (the private `coro`
//!   module: a guard-paged 512 KB stack each and a context switch of
//!   a dozen instructions) on `min(workers, n)` host threads. Each
//!   worker loops *pop an admissible task → switch into it → take
//!   control back when it yields, suspends or finishes → do that task's
//!   bookkeeping → pop the next*, and sleeps — all workers on one
//!   condvar — only when nothing is admissible; the step wakes one when
//!   something becomes admissible. A hand-over is a
//!   function call, and `P = 2048` needs `workers` OS threads. A task
//!   becomes visible as ready, suspended or done only **after** its
//!   context is saved: the task side of a yield only decides, and the
//!   worker it switches back to does the requeue. A task may resume on
//!   a different worker than it left (see *Affinity*); `coro`'s safety
//!   contract says what that forbids. On every other target `run`
//!   backs each task with a parked host thread.
//! * [`start`](VirtualScheduler::start) /
//!   [`finished`](VirtualScheduler::finished) are that thread-backed
//!   continuation, open to a *foreign* thread on any target: the caller
//!   parks on a per-task `Mutex<bool>` + `Condvar` until admitted.
//!   [`EpochGate`](crate::EpochGate) is this continuation with the
//!   check-in folded into a thread's first tick.
//!
//! Either way the application loops in `mgs-apps` need **no**
//! explicit-state rewrite: every `Env::read`/`write`/lock/barrier
//! already routes through the hooks below.
//!
//! # Affinity
//!
//! A paced run keeps one ready heap per worker, `min(workers, n)` of
//! them, and heap `h` holds a contiguous block of task ids: task `id`
//! lives on heap `id · heaps / n` (its *home*), and every requeue puts
//! it back there. A worker first takes the lowest-time admissible task
//! of its own block; only when its block has none does it take the
//! lowest-time ready task of all, wherever it lives — a *steal*, and the
//! only way a task changes worker. The processors of one SSMP are
//! consecutive ids, so they share a worker (their tag arrays, stacks,
//! `Env`s and directory blocks stay in one core's caches) whenever the
//! cluster size divides `n / workers`. Each resumption on a worker
//! other than the one the task last ran on counts as a migration in
//! [`wait_snapshot`](VirtualScheduler::wait_snapshot).
//!
//! The pacing rule below is the same for every heap, so affinity
//! changes which admissible task runs, never what is admissible. With
//! one worker there is one heap and the order is lowest time first. An
//! unpaced run keeps one heap too: it has no window to keep, and a heap
//! per task would make every minimum a scan of all of them. The
//! thread-backed continuation always pops the lowest-time task.
//!
//! # Pacing semantics
//!
//! A task may run while its local time is under
//! `min(active task times) + window`, where *active* spans ready and
//! admitted tasks (suspended tasks do not hold the window). The
//! scheduler **never charges simulated cycles** — simulated results on
//! the deterministic envelope are bit-identical at every window and
//! worker budget, and with pacing off ([`VirtualScheduler::unpaced`]);
//! `tests/pacing.rs` at the workspace root enforces this.
//!
//! A task that waits on a *host* lock inside the protocol (a page's
//! lock, the protocol's only wait) keeps its slot: what it waits for
//! is a task inside a protocol transaction, no transaction contains a
//! tick or a suspension, so that task holds a slot of its own and
//! finishes without the scheduler's help. With one worker no such wait
//! is ever reached.
//!
//! # Determinism
//!
//! With `workers = 1` a run is **fully deterministic**: exactly one
//! task executes at any instant, every scheduling decision is a pure
//! function of simulated time and pid, and therefore *entire
//! application runs* — including schedule-sensitive ones like TSP and
//! lossy-fabric runs — produce bit-identical reports run after run, on
//! either continuation.

use crate::Cycles;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Environment variable pinning the worker budget (host admission
/// slots) regardless of what the machine configuration asked for.
/// CI uses `MGS_VWORKERS=1` to prove every suite is
/// oversubscription-safe on a single host thread, and `MGS_VWORKERS=3`
/// to run three uneven blocks of tasks on a two-core host.
pub const VWORKERS_ENV: &str = "MGS_VWORKERS";

/// Stack of one task under [`VirtualScheduler::run`]. The app body plus
/// inline protocol handlers need far less than a thread's 2 MiB
/// default, and at `P = 2048` the difference is 3 GiB of address space.
/// Address space, not resident memory: `run` maps the stacks itself
/// (`mmap`, `MAP_NORESERVE`, unmapped before it returns; on targets
/// without coroutines they are the task threads' stacks) and only the
/// pages a task has run on are ever backed.
const TASK_STACK: usize = 512 * 1024;

/// Number of log2 buckets in a histogram of `u64` samples: bucket `i`
/// counts values with `i` significant bits (bucket 0 holds zero, bucket
/// `i > 0` holds `2^(i-1)..2^i`). The wait histogram below and
/// `mgs-obs`'s latency histograms share this layout.
pub const WAIT_HIST_BUCKETS: usize = 65;

/// The log2 bucket of `value` under the [`WAIT_HIST_BUCKETS`] layout.
#[inline]
pub fn log2_bucket(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Host-side wait accounting for one task. Written only while the task
/// runs or by the worker switching it; read at snapshot time.
#[derive(Debug)]
struct WaitStat {
    /// Times the task was descheduled (yields and suspensions).
    gates: AtomicU64,
    /// Total host nanoseconds spent descheduled.
    wait_ns: AtomicU64,
    /// Times the task resumed on another host worker than it last ran
    /// on.
    migrations: AtomicU64,
    /// log2 histogram of per-wait nanoseconds.
    hist: [AtomicU64; WAIT_HIST_BUCKETS],
}

impl WaitStat {
    fn new() -> WaitStat {
        WaitStat {
            gates: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    fn record_gate(&self) {
        self.gates.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn record_migration(&self) {
        self.migrations.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn record_wait(&self, ns: u64) {
        self.wait_ns.fetch_add(ns, Ordering::Relaxed);
        self.hist[log2_bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> GovWaitStats {
        GovWaitStats {
            gates: self.gates.load(Ordering::Relaxed),
            parks: 0,
            wait_ns: self.wait_ns.load(Ordering::Relaxed),
            migrations: self.migrations.load(Ordering::Relaxed),
            hist: std::array::from_fn(|i| self.hist[i].load(Ordering::Relaxed)),
        }
    }
}

/// One task's pacing wait accounting, as captured by
/// [`VirtualScheduler::wait_snapshot`]. All values are host-side
/// (wall-clock) observations; they never touch simulated time.
#[derive(Debug, Clone)]
pub struct GovWaitStats {
    /// Times the task was descheduled (yields and suspensions).
    pub gates: u64,
    /// Always 0: a descheduled task is not a condvar park. The field
    /// stays while the benchmark crate reads
    /// [`GovWaitSnapshot::total_parks`].
    pub parks: u64,
    /// Total host nanoseconds spent descheduled.
    pub wait_ns: u64,
    /// Times the task resumed on another host worker than it last ran
    /// on. Always 0 with one worker and on the thread-backed
    /// continuation, which has no workers.
    pub migrations: u64,
    /// log2 histogram of individual wait durations in nanoseconds
    /// ([`WAIT_HIST_BUCKETS`] layout).
    pub hist: [u64; WAIT_HIST_BUCKETS],
}

/// Per-task pacing wait accounting for a whole run.
#[derive(Debug, Clone)]
pub struct GovWaitSnapshot {
    /// One entry per simulated processor.
    pub per_proc: Vec<GovWaitStats>,
}

impl GovWaitSnapshot {
    /// Total deschedules across all tasks.
    pub fn total_gates(&self) -> u64 {
        self.per_proc.iter().map(|s| s.gates).sum()
    }

    /// Total condvar parks across all tasks: always 0 (see
    /// [`GovWaitStats::parks`]).
    pub fn total_parks(&self) -> u64 {
        self.per_proc.iter().map(|s| s.parks).sum()
    }

    /// Total host nanoseconds spent descheduled across all tasks.
    pub fn total_wait_ns(&self) -> u64 {
        self.per_proc.iter().map(|s| s.wait_ns).sum()
    }

    /// Total resumptions on another host worker across all tasks.
    pub fn total_migrations(&self) -> u64 {
        self.per_proc.iter().map(|s| s.migrations).sum()
    }
}

/// A task's lifecycle state, as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VStatus {
    /// Not yet checked in via [`VirtualScheduler::start`] (or armed by
    /// [`VirtualScheduler::run`]).
    Unstarted,
    /// In the ready heap, waiting for an admission slot.
    Ready,
    /// Admitted: it holds a slot and is executing (or, on a worker, is
    /// being switched in or out).
    Running,
    /// Descheduled by a sync primitive; only [`resume`] makes it ready
    /// again.
    ///
    /// [`resume`]: VirtualScheduler::resume
    Suspended,
    /// Finished for the rest of the run.
    Done,
}

/// How a running task gives up its admission slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leave {
    /// A window ahead of the slowest active task: requeue at its own
    /// time.
    Yield,
    /// Waiting on a sync primitive until a peer resumes it.
    Suspend,
    /// Finished.
    Done,
}

/// The failure stored when the deadlock detector fires; `run` re-raises
/// it as an ordinary panic with this report.
struct Deadlock(String);

/// Ready tasks, lowest `(time, pid)` on top.
type Heap = BinaryHeap<Reverse<(u64, usize)>>;

/// Which heap worker `own` pops from next, given every heap, the
/// lowest time over active tasks and the window: its own heap if that
/// heap's top is admissible, else the heap holding the lowest-time
/// ready task if *that* one is (a steal), else none. `own = None`
/// (the thread-backed continuation, and asking whether any worker
/// would pop) always names the lowest. A top is admissible while it is
/// under `active_min + window`; the minimum over active tasks itself
/// always is.
fn pick(heaps: &[Heap], active_min: u64, window: u64, own: Option<usize>) -> Option<usize> {
    let limit = active_min.saturating_add(window);
    let top = |h: usize| heaps[h].peek().map(|&Reverse(e)| e);
    let fits = |h: usize| top(h).is_some_and(|(t, _)| t < limit);
    if let Some(own) = own.filter(|&h| fits(h)) {
        return Some(own);
    }
    (0..heaps.len())
        .filter(|&h| !heaps[h].is_empty())
        .min_by_key(|&h| top(h))
        .filter(|&h| fits(h))
}

#[derive(Debug)]
struct VState {
    /// Ready tasks, one heap per block of task ids (see *Affinity* in
    /// the module docs). Entries are exact: a task's recorded time
    /// never changes while it sits in a heap.
    ready: Vec<Heap>,
    /// Last simulated time each task reported (at start, tick, or
    /// suspension).
    time: Vec<u64>,
    status: Vec<VStatus>,
    /// A resume that arrived while the task had not suspended yet (it
    /// was between registering as a waiter and giving up its slot);
    /// consumed by the next suspension, which is then cancelled.
    resume_pending: Vec<bool>,
    /// The tasks currently `Running`, in no particular order: at most
    /// the worker budget, so the window minimum is a scan of this set,
    /// not of every task.
    running: Vec<usize>,
    /// The worker each hosted task last ran on (`usize::MAX`: none
    /// yet), to count migrations.
    worker: Vec<usize>,
    started: usize,
    finished: usize,
    /// Why the run failed, if it did: the first panic payload of a task
    /// under `run`, or the deadlock report. `run` re-raises it.
    failure: Option<Box<dyn Any + Send>>,
}

impl VState {
    /// Queues task `id` as ready at its recorded time, on its home
    /// heap.
    fn push_ready(&mut self, id: usize) {
        self.status[id] = VStatus::Ready;
        let home = id * self.ready.len() / self.time.len();
        self.ready[home].push(Reverse((self.time[id], id)));
    }

    /// Takes task `id` out of the running set.
    fn leave_running(&mut self, id: usize) {
        let at = self
            .running
            .iter()
            .position(|&r| r == id)
            .expect("task leaving the running set was admitted");
        self.running.swap_remove(at);
    }
}

/// The state lock, held for one critical section. Dropping it runs the
/// admission step ([`VirtualScheduler::admit`]), so no change to the
/// state can leave the step out.
struct Section<'a> {
    sched: &'a VirtualScheduler,
    st: MutexGuard<'a, VState>,
}

impl Deref for Section<'_> {
    type Target = VState;
    fn deref(&self) -> &VState {
        &self.st
    }
}

impl DerefMut for Section<'_> {
    fn deref_mut(&mut self) -> &mut VState {
        &mut self.st
    }
}

impl Drop for Section<'_> {
    fn drop(&mut self) {
        // The step reports a thread-backed deadlock by panicking. A
        // section that is already unwinding (a broken invariant) skips
        // it and leaves the run to the poisoning its panic causes: a
        // second panic would abort.
        if !std::thread::panicking() {
            self.sched.admit(&mut self.st, None);
        }
    }
}

/// Per-task parking slot: the admission token handed over on grant to
/// a thread-backed task, and the wait accounting of either kind.
#[derive(Debug)]
struct TaskSlot {
    granted: Mutex<bool>,
    cv: Condvar,
    stat: WaitStat,
}

/// M:N scheduler of simulated-processor tasks onto a bounded host
/// worker budget, ordered by simulated time. See the module docs for
/// the design; `mgs-core`'s `Machine::new` builds one per machine.
#[derive(Debug)]
pub struct VirtualScheduler {
    state: Mutex<VState>,
    /// Mirror of `min(active times) + window` for the lock-free tick
    /// fast path. `u64::MAX` when no task is gated by another.
    horizon: AtomicU64,
    /// Set when the run can no longer make progress (simulated deadlock
    /// detected, or a task panicked): every parked task is woken into a
    /// panic instead of waiting for an admission that will never come.
    poisoned: AtomicBool,
    window: u64,
    workers: usize,
    slots: Vec<TaskSlot>,
    /// The coroutine continuation's share of the state.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    hosting: hosted::Hosting,
}

impl VirtualScheduler {
    /// Creates a scheduler for `n` tasks with the given skew window and
    /// worker budget (admission slots). The `MGS_VWORKERS` environment
    /// variable overrides `workers` when set.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `window` is zero, or the resolved worker
    /// budget is zero.
    pub fn new(n: usize, window: Cycles, workers: usize) -> VirtualScheduler {
        let workers = std::env::var(VWORKERS_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(workers);
        VirtualScheduler::build(n, window, workers)
    }

    /// Creates a scheduler that does not pace: all `n` tasks are
    /// admitted at once and no task ever waits for a slower one, so
    /// `n` host threads free-run and only sync primitives deschedule.
    /// The `MGS_VWORKERS` override is **not** consulted — a task that
    /// spins on shared state (TSP polling its work queue) must never
    /// hold the only admission slot.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn unpaced(n: usize) -> VirtualScheduler {
        VirtualScheduler::build(n, Cycles::MAX, n)
    }

    /// [`new`](Self::new) without the `MGS_VWORKERS` override.
    pub(crate) fn build(n: usize, window: Cycles, workers: usize) -> VirtualScheduler {
        assert!(n > 0, "scheduler needs at least one task");
        assert!(!window.is_zero(), "scheduler window must be nonzero");
        assert!(workers > 0, "worker budget must be nonzero");
        let heaps = if window == Cycles::MAX {
            1
        } else {
            workers.min(n)
        };
        VirtualScheduler {
            state: Mutex::new(VState {
                ready: (0..heaps)
                    .map(|_| Heap::with_capacity(n.div_ceil(heaps)))
                    .collect(),
                time: vec![0; n],
                status: vec![VStatus::Unstarted; n],
                resume_pending: vec![false; n],
                running: Vec::with_capacity(workers),
                worker: vec![usize::MAX; n],
                started: 0,
                finished: 0,
                failure: None,
            }),
            horizon: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            window: window.raw(),
            workers,
            slots: (0..n)
                .map(|_| TaskSlot {
                    granted: Mutex::new(false),
                    cv: Condvar::new(),
                    stat: WaitStat::new(),
                })
                .collect(),
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            hosting: hosted::Hosting::new(n),
        }
    }

    /// The skew window.
    pub fn window(&self) -> Cycles {
        Cycles(self.window)
    }

    /// The resolved worker budget (maximum concurrently-admitted
    /// tasks).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `body(id)` as task `id` for every task, lowest simulated
    /// time first, at most the worker budget at once, and returns when
    /// all have finished. Call it once per scheduler.
    ///
    /// This target has no coroutine switch, so every task is a host
    /// thread on a 512 KB stack, parked unless admitted.
    ///
    /// # Panics
    ///
    /// If a task panics — or the deadlock detector panics in one — the
    /// run is poisoned, every parked task is woken into a panic, and
    /// `run` re-raises the first payload once all have unwound.
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    pub fn run(&self, body: &(dyn Fn(usize) + Sync)) {
        self.run_on_threads(body);
    }

    /// The thread-per-task [`run`](Self::run); also what this module's
    /// tests drive the thread-backed continuation with on every target.
    #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
    fn run_on_threads(&self, body: &(dyn Fn(usize) + Sync)) {
        std::thread::scope(|scope| {
            for id in 0..self.slots.len() {
                let task = move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        self.start(id);
                        body(id);
                        self.finished(id);
                    }));
                    if let Err(payload) = outcome {
                        // Poisoning wakes the peers parked on a grant
                        // that cannot come, or the scope would never
                        // join.
                        self.fail(&mut self.lock(), payload);
                    }
                };
                std::thread::Builder::new()
                    .name(format!("vproc-{id}"))
                    .stack_size(TASK_STACK)
                    .spawn_scoped(scope, task)
                    .expect("failed to spawn virtual-processor task");
            }
        });
        self.reraise_failure();
    }

    /// Ends a `run`: if it failed, panics with the first failure.
    fn reraise_failure(&self) {
        let failure = self.lock().failure.take();
        if let Some(payload) = failure {
            match payload.downcast::<Deadlock>() {
                Ok(report) => panic!("{}", report.0),
                Err(payload) => resume_unwind(payload),
            }
        }
    }

    /// Task `id` checks in from its own host thread and parks until the
    /// scheduler admits it. No task is admitted until **all** tasks
    /// have checked in, so admission order — and, at `workers = 1`, the
    /// entire execution — is independent of thread spawn timing.
    pub fn start(&self, id: usize) {
        let mut st = self.lock();
        debug_assert_eq!(st.status[id], VStatus::Unstarted);
        st.time[id] = 0;
        st.push_ready(id);
        st.started += 1;
        drop(st); // the last check-in's step admits the first tasks
        self.wait_for_grant(id);
    }

    /// Called by task `id` between operations with its current local
    /// time. If the task has run `window` cycles past the slowest
    /// active task it reschedules itself and does not return until the
    /// queue ordering readmits it.
    #[inline]
    pub fn tick(&self, id: usize, local_time: Cycles) {
        let t = local_time.raw();
        // Lock-free fast path: inside the horizon (the common case).
        if t < self.horizon.load(Ordering::Acquire) {
            return;
        }
        self.gate(id, t);
    }

    /// Tick slow path: record our time, and yield the admission slot
    /// if we are a full window ahead.
    #[cold]
    fn gate(&self, id: usize, t: u64) {
        let mut st = self.lock();
        st.time[id] = t;
        if t < self.active_min(&st).saturating_add(self.window) {
            // Still inside the window once the true minimum is known
            // (the atomic mirror only lags while another task holds the
            // state lock): keep running. Our new time may have raised
            // the minimum; the step admits whoever that lets in.
            return;
        }
        // Yield: requeue at our own time; the step hands the slot to
        // the lowest-time ready task.
        self.deschedule(Some(st), id, Leave::Yield);
    }

    /// Deschedules task `id` until [`resume`](Self::resume). Called by
    /// sync primitives **after** dropping their internal mutex, with
    /// the task's registration already visible to whoever will resume
    /// it; a resume that raced ahead of this call is consumed and the
    /// task keeps running.
    pub fn suspend(&self, id: usize) {
        self.deschedule(None, id, Leave::Suspend);
    }

    /// Task `id` gives up its slot — `st` is the state lock if the
    /// caller decided under it — and returns once it is admitted again,
    /// or at once if a pending resume cancels a suspension.
    fn deschedule(&self, st: Option<Section<'_>>, id: usize, how: Leave) {
        let start = Instant::now();
        let record_wait = || {
            let waited = start.elapsed().as_nanos() as u64;
            self.slots[id].stat.record_wait(waited);
        };
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if self.hosting.is_on() {
            // The worker applies `how` once this context is saved: a
            // task requeued from here could be popped by another worker
            // while its registers are still live in this one.
            drop(st);
            self.switch_out(id, how);
            return record_wait();
        }
        let mut st = st.unwrap_or_else(|| self.lock());
        if !self.leave(&mut st, id, how) {
            return;
        }
        drop(st); // the step hands our slot on, or reports a deadlock
        self.wait_for_grant(id);
        record_wait();
    }

    /// Makes a suspended task ready again (at its suspension-time
    /// priority). Races with a suspender that has not given up its slot
    /// yet are resolved by `resume_pending`; resuming a
    /// ready/running/done task is a harmless no-op beyond that flag
    /// (waiters re-check their condition after every wake).
    pub fn resume(&self, id: usize) {
        self.resume_many(std::slice::from_ref(&id));
    }

    /// Batched [`resume`](Self::resume): moves every suspended task in
    /// `ids` back onto the ready queue under one scheduler-lock
    /// acquisition and runs admission once, instead of per task. This
    /// is the group-wake path for barriers and lock herds — with 31
    /// waiters it replaces 31 lock/admit round-trips with one.
    pub fn resume_many(&self, ids: &[usize]) {
        if ids.is_empty() {
            return;
        }
        let mut st = self.lock();
        for &id in ids {
            match st.status[id] {
                VStatus::Suspended => st.push_ready(id),
                VStatus::Done => {}
                _ => st.resume_pending[id] = true,
            }
        }
    }

    /// Marks thread-backed task `id` as finished for the rest of the
    /// run. (A task under [`run`](Self::run) finishes by returning.)
    pub fn finished(&self, id: usize) {
        self.leave(&mut self.lock(), id, Leave::Done);
    }

    /// Per-task wait accounting: suspensions count as gates, the wait
    /// histogram holds descheduled host time, parks are zero by
    /// construction (a descheduled task is not a governor park), and
    /// migrations count resumptions on another worker than the task
    /// last ran on (zero with one worker, and on the thread-backed
    /// continuation, which has no workers).
    pub fn wait_snapshot(&self) -> GovWaitSnapshot {
        GovWaitSnapshot {
            per_proc: self.slots.iter().map(|s| s.stat.snapshot()).collect(),
        }
    }

    // -----------------------------------------------------------------
    // Policy: written once, whatever a task is suspended as
    // -----------------------------------------------------------------

    /// Lowest recorded time over active (ready or running) tasks: the
    /// heaps' tops and a scan of the running set, O(workers) whatever
    /// the machine size.
    fn active_min(&self, st: &VState) -> u64 {
        let ready = st
            .ready
            .iter()
            .filter_map(|h| h.peek())
            .fold(u64::MAX, |m, Reverse((t, _))| m.min(*t));
        let min = st.running.iter().fold(ready, |m, &id| m.min(st.time[id]));
        // Debug builds re-derive the minimum from every task's status,
        // checking the running set's bookkeeping at every gate.
        #[cfg(debug_assertions)]
        {
            let scanned = st
                .status
                .iter()
                .zip(&st.time)
                .filter(|(&s, _)| s == VStatus::Running)
                .fold(ready, |m, (_, &t)| m.min(t));
            debug_assert_eq!(min, scanned, "running set out of step with task status");
        }
        min
    }

    /// Locks the state for one critical section, which the admission
    /// step ends ([`Section`]).
    fn lock(&self) -> Section<'_> {
        Section {
            sched: self,
            st: self.state.lock(),
        }
    }

    /// Task `id` gives up its slot: the one place a task stops being
    /// `Running`. Returns `false`, having changed nothing, when there
    /// is nothing to give up — a resume raced ahead of this suspension
    /// (the task keeps its slot and runs on), or the task was already
    /// done.
    fn leave(&self, st: &mut VState, id: usize, how: Leave) -> bool {
        let nothing_to_give_up = match how {
            Leave::Yield => false,
            Leave::Suspend => std::mem::take(&mut st.resume_pending[id]),
            Leave::Done => st.status[id] == VStatus::Done,
        };
        if nothing_to_give_up {
            return false;
        }
        // (A thread-backed task may call `finished` from any state.)
        debug_assert!(how == Leave::Done || st.status[id] == VStatus::Running);
        if st.status[id] == VStatus::Running {
            st.leave_running(id);
        }
        match how {
            Leave::Yield => st.push_ready(id),
            Leave::Suspend => st.status[id] = VStatus::Suspended,
            Leave::Done => {
                st.status[id] = VStatus::Done;
                st.finished += 1;
                return true;
            }
        }
        self.slots[id].stat.record_gate();
        true
    }

    /// The heap worker `own` pops from next ([`pick`]): a ready task
    /// is admissible while it is within a window of the slowest active
    /// task, and the global minimum always is.
    fn admissible(&self, st: &VState, own: Option<usize>) -> Option<usize> {
        pick(&st.ready, self.active_min(st), self.window, own)
    }

    /// Admits the top of the heap [`admissible`](Self::admissible)
    /// names.
    fn pop_admissible(&self, st: &mut VState, own: Option<usize>) -> Option<usize> {
        let heap = self.admissible(st, own)?;
        let Reverse((_, id)) = st.ready[heap].pop()?;
        debug_assert_eq!(st.status[id], VStatus::Ready);
        st.status[id] = VStatus::Running;
        st.running.push(id);
        Some(id)
    }

    /// The deadlock of last resort, as a report: nothing is running and
    /// nothing is ready while tasks remain suspended, so no future
    /// event can wake the machine.
    fn deadlock(&self, st: &VState) -> Option<String> {
        // (No task is `Unstarted` here: admission is held until every
        // task has checked in. And a poisoned run is already failing:
        // its parked tasks are on their way out, not stuck.)
        if !st.running.is_empty()
            || st.ready.iter().any(|h| !h.is_empty())
            || st.finished == st.time.len()
            || self.poisoned.load(Ordering::Acquire)
        {
            return None;
        }
        let stuck: Vec<usize> = st
            .status
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == VStatus::Suspended)
            .map(|(i, _)| i)
            .collect();
        Some(format!(
            "scheduler deadlock: tasks {stuck:?} suspended with no \
             runnable task left to resume them (simulated deadlock in the \
             application or a lost wakeup in a sync primitive)"
        ))
    }

    /// The admission step, which ends every critical section that
    /// changes the state: republishes the tick horizon, reports a
    /// deadlock, and hands admissible tasks to free slots — it grants
    /// parked thread-backed tasks, or wakes one idle worker (which wakes
    /// the next in turn). `free` is the worker running the step when it
    /// holds no task: it takes the task [`pick`] names for it before
    /// waking another, so its own pop never wakes a peer for nothing,
    /// and that task is returned.
    fn admit(&self, st: &mut VState, free: Option<usize>) -> Option<usize> {
        if st.started < st.time.len() {
            return None; // hold everyone until the full machine has spawned
        }
        // Publish before granting: admission moves tasks from the ready
        // heap to the running set without changing the minimum over
        // both, so the value is already final — and a task granted
        // below starts ticking against `horizon` at once, on its own
        // host thread, while this one is still in the loop. It must not
        // find a stale value there (that would make its first ticks a
        // host-timing race, even at `workers = 1`).
        let horizon = self.active_min(st).saturating_add(self.window);
        self.horizon.store(horizon, Ordering::Release);
        let deadlock = self.deadlock(st);
        if let Some(report) = &deadlock {
            // Record it and wake every parked task into a panic: whoever
            // joins the tasks would wait forever on grants that cannot
            // come, and the peers' "poisoned" panics must not be taken
            // for the cause.
            self.fail(st, Box::new(Deadlock(report.clone())));
        }
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if self.hosting.is_on() {
            // Workers pop for themselves (a poisoned run's parked tasks
            // too, to unwind them; `run` then reports the failure).
            let own = free.and_then(|w| self.next_task(st, w));
            let idle = &self.hosting.idle;
            if st.finished == st.time.len() {
                self.hosting.wake_all();
            } else if idle.load(Ordering::Relaxed) > 0 && self.admissible(st, None).is_some() {
                self.hosting.wake.notify_one();
            }
            return own;
        }
        debug_assert!(free.is_none(), "only a worker runs the step for itself");
        if let Some(report) = deadlock {
            panic!("{report}");
        }
        while st.running.len() < self.workers {
            let Some(id) = self.pop_admissible(st, None) else {
                break;
            };
            self.grant(id);
        }
        None
    }

    /// Hands the admission token to thread-backed task `id`.
    fn grant(&self, id: usize) {
        let slot = &self.slots[id];
        let mut g = slot.granted.lock();
        // (A poisoned run has force-granted every slot already.)
        debug_assert!(
            !*g || self.poisoned.load(Ordering::Acquire),
            "double grant to task {id}"
        );
        *g = true;
        slot.cv.notify_one();
    }

    /// Parks the calling thread-backed task until its admission token
    /// arrives.
    ///
    /// # Panics
    ///
    /// Panics if the run was poisoned while the task was parked.
    fn wait_for_grant(&self, id: usize) {
        let slot = &self.slots[id];
        let mut g = slot.granted.lock();
        while !*g {
            slot.cv.wait(&mut g);
        }
        *g = false;
        drop(g);
        self.check_poison(id);
    }

    /// Where a task comes back from being parked.
    ///
    /// # Panics
    ///
    /// Panics if the run was poisoned meanwhile — it is already failing
    /// elsewhere and this task must unwind rather than keep executing
    /// the application.
    fn check_poison(&self, id: usize) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!("scheduler poisoned: another task failed while task {id} was parked");
        }
    }

    /// Records why the run failed (the first reason wins) and poisons
    /// it: every parked task — thread-backed ones here, hosted ones as
    /// the workers get to them — is woken into a panic instead of
    /// waiting forever. Idempotent beyond the first payload.
    fn fail(&self, st: &mut VState, payload: Box<dyn Any + Send>) {
        st.failure.get_or_insert(payload);
        self.poisoned.store(true, Ordering::Release);
        for slot in &self.slots {
            let mut g = slot.granted.lock();
            *g = true;
            slot.cv.notify_one();
        }
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        self.hosting.wake_all();
    }
}

/// The coroutine continuation: what `run` is on x86_64 Linux.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod hosted {
    use super::*;
    use crate::coro;
    use std::cell::UnsafeCell;
    use std::sync::atomic::AtomicUsize;

    /// A hosted task's two saved stack pointers and the message it
    /// leaves its worker. Touched only by whoever holds the task: the
    /// worker that popped it (status `Running` under the state lock)
    /// and, while that worker is switched into it, the task itself.
    #[derive(Debug)]
    struct TaskCtx {
        /// The task's stack pointer while it is switched out.
        sp: *mut u8,
        /// The hosting worker's stack pointer while the task is
        /// switched in.
        host: *mut u8,
        /// Why the task last switched out; its worker applies it.
        how: Leave,
    }

    #[derive(Debug)]
    struct CtxCell(UnsafeCell<TaskCtx>);

    // SAFETY: a cell is accessed by one thread at a time (see
    // `TaskCtx`), and every hand-over of a task between threads goes
    // through the scheduler's state lock; the pointers name stacks
    // `run` keeps mapped.
    unsafe impl Sync for CtxCell {}
    // SAFETY: as above — the raw pointers are not tied to any thread.
    unsafe impl Send for CtxCell {}

    /// The scheduler state only this continuation uses.
    #[derive(Debug)]
    pub(super) struct Hosting {
        /// Set by `run` before any task executes: tasks are contexts
        /// that workers switch into, not parked threads.
        on: AtomicBool,
        /// Workers asleep on `wake` because nothing was admissible.
        /// Changed only under the state lock (atomic for `Sync` only).
        pub(super) idle: AtomicUsize,
        /// Where those workers sleep, with the state lock.
        pub(super) wake: Condvar,
        ctxs: Vec<CtxCell>,
    }

    impl Hosting {
        pub(super) fn new(n: usize) -> Hosting {
            let ctx = || TaskCtx {
                sp: std::ptr::null_mut(),
                host: std::ptr::null_mut(),
                how: Leave::Done,
            };
            Hosting {
                on: AtomicBool::new(false),
                idle: AtomicUsize::new(0),
                wake: Condvar::new(),
                ctxs: (0..n).map(|_| CtxCell(UnsafeCell::new(ctx()))).collect(),
            }
        }

        /// Whether tasks are hosted. (Relaxed: set before the workers
        /// that run them are spawned.)
        pub(super) fn is_on(&self) -> bool {
            self.on.load(Ordering::Relaxed)
        }

        /// Wakes every sleeping worker: the run failed or is over.
        pub(super) fn wake_all(&self) {
            self.wake.notify_all();
        }
    }

    /// What `run` lends its tasks for the run.
    struct Lent<'a> {
        sched: &'a VirtualScheduler,
        body: &'a (dyn Fn(usize) + Sync),
    }

    /// Where a hosted task starts, on its own fresh stack. The body's
    /// panics stop here: the frame below is hand-built and has nothing
    /// to unwind into.
    unsafe extern "C" fn task_entry(lent: *const (), id: usize) -> ! {
        // SAFETY: `run` passes a pointer to the `Lent` in its own
        // frame, which it keeps alive until every worker has joined.
        let Lent { sched, body } = unsafe { &*lent.cast::<Lent<'_>>() };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            sched.check_poison(id);
            body(id);
        }));
        if let Err(payload) = outcome {
            sched.fail(&mut sched.lock(), payload);
        }
        sched.switch_out(id, Leave::Done);
        unreachable!("a finished task is never resumed")
    }

    impl VirtualScheduler {
        /// Runs `body(id)` as task `id` for every task, lowest simulated
        /// time first, at most the worker budget at once, and returns when
        /// all have finished. Call it once per scheduler.
        ///
        /// Every task is a coroutine on a guard-paged 512 KB stack mapped
        /// here and unmapped before returning, and `min(workers, n)` host
        /// threads switch into them; see the module docs. Overflowing a
        /// task stack hits its guard page and kills the process with
        /// SIGSEGV (not `std`'s "has overflowed its stack" report, which
        /// only knows thread stacks).
        ///
        /// # Panics
        ///
        /// If a task panics, the panic is caught at the task's entry, the
        /// run is poisoned, every parked task is resumed into a panic so
        /// its destructors run on its own stack, and `run` re-raises the
        /// first payload once all have unwound. If every unfinished task is
        /// suspended with none left to resume them, `run` panics with a
        /// `scheduler deadlock` report naming them, after unwinding them
        /// the same way.
        pub fn run(&self, body: &(dyn Fn(usize) + Sync)) {
            let n = self.slots.len();
            let stacks = coro::Stacks::map(n, TASK_STACK);
            let lent = Lent { sched: self, body };
            {
                let mut st = self.lock();
                assert_eq!(st.started, 0, "a scheduler runs its tasks once");
                self.hosting.on.store(true, Ordering::Relaxed);
                for id in 0..n {
                    // SAFETY: stack `id` is fresh and `TASK_STACK` deep; no
                    // worker exists yet, so the context cell is ours.
                    // `lent` is erased to a thin pointer that `task_entry`
                    // casts back; it outlives every task because the
                    // workers are joined below, in this frame.
                    unsafe {
                        (*self.hosting.ctxs[id].0.get()).sp =
                            coro::prepare(stacks.top(id), task_entry, (&raw const lent).cast(), id);
                    }
                    st.push_ready(id);
                }
                st.started = n;
            }
            std::thread::scope(|scope| {
                for w in 0..self.workers.min(n) {
                    std::thread::Builder::new()
                        .name(format!("vworker-{w}"))
                        .spawn_scoped(scope, move || self.worker(w))
                        .expect("failed to spawn scheduler worker");
                }
            });
            drop(stacks);
            self.reraise_failure();
        }

        /// Host thread `w` of [`run`](Self::run): runs admissible
        /// tasks, its own block's first, until every task is done.
        fn worker(&self, w: usize) {
            /// A panic here is a broken scheduler invariant with tasks
            /// parked mid-switch: there is no state to unwind them
            /// from, and returning would leave the other workers
            /// waiting forever.
            struct AbortOnPanic;
            impl Drop for AbortOnPanic {
                fn drop(&mut self) {
                    if std::thread::panicking() {
                        std::process::abort();
                    }
                }
            }
            let _guard = AbortOnPanic;

            let idle = &self.hosting.idle;
            // The bare lock: each section here ends with the step run
            // by hand, which hands this worker its next task when free.
            let mut st = self.state.lock();
            loop {
                let Some(id) = self.admit(&mut st, Some(w)) else {
                    if st.finished == st.time.len() {
                        return;
                    }
                    idle.fetch_add(1, Ordering::Relaxed);
                    self.hosting.wake.wait(&mut st);
                    idle.fetch_sub(1, Ordering::Relaxed);
                    continue;
                };
                // Run the task until it really gives its slot up: a
                // resume that raced ahead of a suspension sends it
                // straight back.
                loop {
                    drop(st);
                    let how = self.switch_in(id);
                    st = self.state.lock();
                    if self.leave(&mut st, id, how) {
                        break;
                    }
                    self.admit(&mut st, None);
                }
            }
        }

        /// The task worker `w` runs next, marked `Running`: the
        /// admissible task [`pick`] names for its heap, counted as a
        /// migration if it last ran on another worker. On a poisoned
        /// run that is any task still parked, whatever the window says:
        /// it is resumed to unwind, not to compute.
        pub(super) fn next_task(&self, st: &mut VState, w: usize) -> Option<usize> {
            if !self.poisoned.load(Ordering::Acquire) {
                let id = self.pop_admissible(st, Some(w % st.ready.len()))?;
                let last = std::mem::replace(&mut st.worker[id], w);
                if last != w && last != usize::MAX {
                    self.slots[id].stat.record_migration();
                }
                return Some(id);
            }
            let id = st
                .status
                .iter()
                .position(|&s| matches!(s, VStatus::Ready | VStatus::Suspended))?;
            st.status[id] = VStatus::Running;
            st.running.push(id);
            Some(id)
        }

        /// Worker side of the switch: resumes task `id`, which this
        /// worker popped, and returns why it came back.
        fn switch_in(&self, id: usize) -> Leave {
            let ctx = self.hosting.ctxs[id].0.get();
            // SAFETY: popping `id` under the state lock made this
            // worker the task's only holder, and that lock orders us
            // after the `switch` that saved `sp` (`leave` publishes a
            // task only after its worker has regained control). The
            // stack is mapped until `run` has joined us. `how` is read
            // after the task has switched back, i.e. stopped running.
            unsafe {
                coro::switch(&raw mut (*ctx).host, (*ctx).sp);
                (*ctx).how
            }
        }

        /// Task side of the switch: hands `how` to the hosting worker
        /// and returns when some worker switches back in. Never inlined
        /// and free of thread-locals, because it may return on another
        /// thread (`coro`'s safety contract).
        ///
        /// # Panics
        ///
        /// Panics on return if the run was poisoned meanwhile.
        #[inline(never)]
        pub(super) fn switch_out(&self, id: usize, how: Leave) {
            debug_assert_eq!(
                parking_lot::held_locks(),
                0,
                "task {id} gives up its worker holding a host lock"
            );
            let ctx = self.hosting.ctxs[id].0.get();
            // SAFETY: only task `id` itself, running on the worker that
            // holds it, gets here; that worker is suspended in
            // `switch_in` with its stack pointer in `host`, and touches
            // the cell again only after this switch has saved ours.
            unsafe {
                (*ctx).how = how;
                coro::switch(&raw mut (*ctx).sp, (*ctx).host);
            }
            self.check_poison(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    /// Runs `body(scheduler, id)` to completion on a fresh scheduler
    /// under each continuation — thread-backed, then whatever `run`
    /// uses on this target — and hands each finished scheduler to
    /// `check`.
    fn on_each_continuation(
        make: impl Fn() -> VirtualScheduler,
        body: impl Fn(&VirtualScheduler, usize) + Sync,
        check: impl Fn(&VirtualScheduler),
    ) {
        let s = make();
        s.run_on_threads(&|id| body(&s, id));
        check(&s);
        let s = make();
        s.run(&|id| body(&s, id));
        check(&s);
    }

    fn message(payload: Box<dyn Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn buckets_are_log2() {
        let buckets = [0, 1, 2, 3, 4, u64::MAX].map(log2_bucket);
        assert_eq!(buckets, [0, 1, 2, 2, 3, WAIT_HIST_BUCKETS - 1]);
    }

    #[test]
    fn single_task_never_waits() {
        on_each_continuation(
            || VirtualScheduler::new(1, Cycles(100), 1),
            |s, _| {
                for t in (0..10_000).step_by(37) {
                    s.tick(0, Cycles(t));
                }
            },
            |s| assert_eq!(s.wait_snapshot().total_gates(), 0),
        );
    }

    #[test]
    fn one_worker_serializes_in_time_order() {
        // Each task appends its id on every slice; with one worker and
        // equal strides the log must interleave in strict time order.
        let log = Mutex::new(Vec::new());
        on_each_continuation(
            || VirtualScheduler::new(3, Cycles(10), 1),
            |s, id| {
                for step in 1..=5u64 {
                    log.lock().push((step * 100, id));
                    s.tick(id, Cycles(step * 100));
                }
            },
            |_| {
                let log = std::mem::take(&mut *log.lock());
                // Everyone logs (100, _) before anyone logs (200, _),
                // etc.: times along the log are non-decreasing once
                // sorted per step.
                let mut max_completed = 0;
                for w in log.windows(3) {
                    let t = w[0].0;
                    assert!(
                        t >= max_completed,
                        "slice at t={t} ran after t={max_completed} completed: {log:?}"
                    );
                    max_completed = max_completed.max(t.saturating_sub(100));
                }
                assert_eq!(log.len(), 15);
            },
        );
    }

    #[test]
    fn one_worker_schedules_identically_on_either_continuation() {
        // The whole interleaving, not just its order property: ticks,
        // a lock-like suspend/resume chain and uneven strides, logged
        // at every step. `W = 1` is a pure function of time and pid, so
        // the thread-backed and the hosted run must agree entry for
        // entry.
        // (`build`, not `new`: one worker whatever `MGS_VWORKERS` says.)
        let log = Mutex::new(Vec::new());
        let logs = Mutex::new(Vec::new());
        on_each_continuation(
            || VirtualScheduler::build(5, Cycles(64), 1),
            |s, id| {
                for step in 1..=40u64 {
                    let t = step * (17 + 9 * id as u64);
                    log.lock().push((id, t));
                    s.tick(id, Cycles(t));
                    if step % 8 == 0 {
                        if id == 4 {
                            s.resume_many(&[0, 1, 2, 3]);
                        } else {
                            s.suspend(id);
                        }
                    }
                }
                // Whoever is still suspended when 4 is done stays so
                // for nobody: wake them all on the way out.
                s.resume_many(&[0, 1, 2, 3]);
            },
            |s| {
                logs.lock().push((
                    std::mem::take(&mut *log.lock()),
                    s.wait_snapshot().total_gates(),
                ));
            },
        );
        let logs = logs.lock();
        assert_eq!(logs[0].0.len(), 200);
        assert!(logs[0].1 > 0, "tasks must have rescheduled");
        assert_eq!(logs[0], logs[1]);
    }

    #[test]
    fn worker_budget_is_respected() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        on_each_continuation(
            || VirtualScheduler::new(8, Cycles(1_000_000), 2),
            |s, id| {
                for step in 0..50u64 {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::hint::spin_loop();
                    live.fetch_sub(1, Ordering::SeqCst);
                    s.tick(id, Cycles(step));
                }
            },
            |s| {
                assert!(
                    peak.load(Ordering::SeqCst) <= s.workers(),
                    "admission exceeded budget"
                )
            },
        );
    }

    #[test]
    fn suspend_resume_roundtrip() {
        let flag = AtomicBool::new(false);
        on_each_continuation(
            || VirtualScheduler::new(2, Cycles(100), 1),
            |s, id| {
                if id == 0 {
                    // Wait (suspended) until task 1 sets the flag.
                    while !flag.load(Ordering::SeqCst) {
                        s.suspend(0);
                    }
                } else {
                    for t in (0..5_000).step_by(100) {
                        s.tick(1, Cycles(t));
                    }
                    flag.store(true, Ordering::SeqCst);
                    s.resume(0);
                }
            },
            |_| flag.store(false, Ordering::SeqCst),
        );
    }

    #[test]
    fn resume_before_suspend_is_not_lost() {
        // Two workers, so the peer's resume lands before, while or
        // after task 0 gives up its slot; the pending flag guarantees
        // it comes back in every case. Many rounds, to see them all.
        for _ in 0..200 {
            on_each_continuation(
                || VirtualScheduler::new(2, Cycles(100), 2),
                |s, id| {
                    if id == 0 {
                        s.suspend(0);
                    } else {
                        s.resume(0);
                    }
                },
                |_| {},
            );
        }
    }

    #[test]
    fn a_tick_that_raises_the_minimum_admits_the_task_it_lets_in() {
        // Two slots, window 100. Task 0 yields at 200; task 1's tick to
        // 150 raises the minimum to 150, which lets task 0 back in while
        // a slot is free: it must run then, not when task 1 next yields,
        // suspends or finishes. Task 1 sleeps first so that, hosted, the
        // other worker is asleep by the time it ticks. A regression
        // fails at the deadline instead of hanging.
        let ran = AtomicBool::new(false);
        on_each_continuation(
            || VirtualScheduler::build(2, Cycles(100), 2),
            |s, id| {
                if id == 0 {
                    s.tick(0, Cycles(200));
                    ran.store(true, Ordering::SeqCst);
                    return;
                }
                let deadline = Instant::now() + Duration::from_secs(3);
                let wait_until = |done: &dyn Fn() -> bool, what: &str| {
                    while !done() {
                        assert!(Instant::now() < deadline, "{what}");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                };
                let yielded = || {
                    let st = s.state.lock();
                    st.status[0] == VStatus::Ready && st.time[0] == 200
                };
                wait_until(&yielded, "task 0 never yielded at 200");
                std::thread::sleep(Duration::from_millis(100));
                s.tick(1, Cycles(150));
                wait_until(&|| ran.load(Ordering::SeqCst), "task 0 left parked");
            },
            |_| ran.store(false, Ordering::SeqCst),
        );
    }

    #[test]
    fn all_suspended_is_detected_and_poisons_parked_peers() {
        let s = Arc::new(VirtualScheduler::new(2, Cycles(100), 1));
        let handles: Vec<_> = (0..2)
            .map(|id| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    s.start(id);
                    s.suspend(id); // nobody will ever resume anyone
                    s.finished(id);
                })
            })
            .collect();
        // The detector panics in the last suspender; poisoning panics
        // the parked peer too, so both joins fail instead of hanging.
        let msgs: Vec<String> = handles
            .into_iter()
            .map(|h| message(h.join().expect_err("task should have panicked")))
            .collect();
        assert!(
            msgs.iter().any(|m| m.contains("deadlock")),
            "no deadlock diagnostic in {msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("poisoned")),
            "parked peer was not poisoned: {msgs:?}"
        );
    }

    /// Counts itself out when dropped: a stand-in for a task's locals.
    struct Local<'a>(&'a AtomicUsize);
    impl Drop for Local<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn run_reports_a_deadlock_after_unwinding_the_stuck_tasks() {
        for hosted in [false, true] {
            let dropped = AtomicUsize::new(0);
            let s = VirtualScheduler::new(4, Cycles(100), 2);
            let body = |id: usize| {
                let _local = Local(&dropped);
                if id != 0 {
                    s.suspend(id); // task 0 finishes without resuming anyone
                }
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if hosted {
                    s.run(&body)
                } else {
                    s.run_on_threads(&body)
                }
            }));
            let msg = message(outcome.expect_err("a deadlocked run panics"));
            assert!(
                msg.contains("scheduler deadlock: tasks [1, 2, 3] suspended"),
                "{msg}"
            );
            assert_eq!(dropped.load(Ordering::SeqCst), 4, "every task unwound");
        }
    }

    #[test]
    fn run_reraises_the_first_panic_after_unwinding_every_parked_task() {
        for hosted in [false, true] {
            let dropped = AtomicUsize::new(0);
            let s = VirtualScheduler::new(6, Cycles(100), 2);
            let body = |id: usize| {
                let _local = Local(&dropped);
                match id {
                    // Parked in both ways a task can be: suspended, and
                    // ready but a window ahead.
                    0 | 1 => s.suspend(id),
                    2 | 3 => s.tick(id, Cycles(1 << 30)),
                    4 => {
                        for t in (0..1_000).step_by(10) {
                            s.tick(id, Cycles(t));
                        }
                        panic!("task 4 fails");
                    }
                    _ => {}
                }
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if hosted {
                    s.run(&body)
                } else {
                    s.run_on_threads(&body)
                }
            }));
            let msg = message(outcome.expect_err("the run fails"));
            assert_eq!(msg, "task 4 fails");
            assert_eq!(dropped.load(Ordering::SeqCst), 6, "every task unwound");
        }
    }

    #[test]
    fn snapshot_counts_suspensions_as_gates_with_zero_parks() {
        on_each_continuation(
            || VirtualScheduler::new(2, Cycles(10), 1),
            |s, id| {
                for step in 1..=20u64 {
                    s.tick(id, Cycles(step * 10));
                }
            },
            |s| {
                let snap = s.wait_snapshot();
                let gates: u64 = snap.per_proc.iter().map(|p| p.gates).sum();
                let parks: u64 = snap.per_proc.iter().map(|p| p.parks).sum();
                assert!(gates > 0, "interleaved tasks must have rescheduled");
                assert_eq!(parks, 0, "a descheduled task is not a park");
            },
        );
    }

    #[test]
    fn running_set_tracks_every_transition_and_ends_empty() {
        // Four waiters suspend until the last of four drivers wakes
        // them in one batch. Debug builds cross-check the running set
        // against the status array at every step.
        let released = AtomicBool::new(false);
        let drivers_left = AtomicUsize::new(4);
        on_each_continuation(
            || VirtualScheduler::new(8, Cycles(100), 2),
            |s, id| {
                if id < 4 {
                    while !released.load(Ordering::SeqCst) {
                        s.suspend(id);
                    }
                } else {
                    for t in (0..2_000).step_by(50) {
                        s.tick(id, Cycles(t));
                    }
                }
                s.tick(id, Cycles(2_000));
                if id >= 4 && drivers_left.fetch_sub(1, Ordering::SeqCst) == 1 {
                    released.store(true, Ordering::SeqCst);
                    s.resume_many(&[0, 1, 2, 3]);
                }
            },
            |s| {
                let st = s.state.lock();
                assert!(st.running.is_empty(), "running set: {:?}", st.running);
                assert!(st.ready.iter().all(|h| h.is_empty()));
                assert_eq!(st.finished, 8);
                released.store(false, Ordering::SeqCst);
                drivers_left.store(4, Ordering::SeqCst);
            },
        );
    }

    #[test]
    fn an_idle_worker_steals_from_the_other_block_and_tasks_keep_their_stacks() {
        // 64 tasks on two workers, so two blocks of 32. Block 1's tasks
        // return at once: from then on worker 1's own heap is empty and
        // all it can run is what it steals from block 0. Every block-0
        // task yields at every step and keeps a running sum in a local
        // across hundreds of switches, on whichever worker picks it up.
        let threads = Mutex::new(std::collections::HashSet::new());
        let s = VirtualScheduler::new(64, Cycles(8), 2);
        let sums: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        s.run(&|id| {
            threads.lock().insert(std::thread::current().id());
            if id >= 32 {
                return;
            }
            let mut sum = 0u64;
            for step in 1..=300u64 {
                sum += step * (id as u64 + 1);
                s.tick(id, Cycles(step * 8));
            }
            sums[id].store(sum, Ordering::SeqCst);
            threads.lock().insert(std::thread::current().id());
        });
        for (id, sum) in sums.iter().enumerate() {
            let want = if id < 32 { 45_150 * (id as u64 + 1) } else { 0 };
            assert_eq!(sum.load(Ordering::SeqCst), want, "task {id}");
        }
        let threads = threads.lock().len();
        if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
            let workers = s.workers();
            assert!(
                threads <= workers,
                "{threads} host threads for {workers} workers"
            );
        }
    }

    #[test]
    fn one_worker_never_migrates_a_task() {
        // `build`, not `new`: this is about one worker whatever
        // `MGS_VWORKERS` says.
        on_each_continuation(
            || VirtualScheduler::build(6, Cycles(10), 1),
            |s, id| {
                for step in 1..=50u64 {
                    s.tick(id, Cycles(step * (7 + id as u64)));
                    if step % 10 == 0 {
                        s.suspend(id);
                    }
                    s.resume((id + 1) % 6);
                }
                s.resume_many(&[0, 1, 2, 3, 4, 5]);
            },
            |s| {
                let snap = s.wait_snapshot();
                assert!(snap.total_gates() > 0, "tasks must have rescheduled");
                assert_eq!(snap.total_migrations(), 0);
            },
        );
    }

    /// Heaps holding the given `(time, pid)` entries.
    fn heaps(blocks: &[&[(u64, usize)]]) -> Vec<Heap> {
        blocks
            .iter()
            .map(|b| b.iter().map(|&e| Reverse(e)).collect())
            .collect()
    }

    #[test]
    fn pick_takes_the_own_top_while_it_is_admissible() {
        // Heap 1 holds the lower time, but heap 0's top is inside the
        // window, so worker 0 stays at home.
        let h = heaps(&[&[(50, 0), (60, 1)], &[(10, 5)]]);
        assert_eq!(pick(&h, 10, 100, Some(0)), Some(0));
        assert_eq!(pick(&h, 10, 100, Some(1)), Some(1));
    }

    #[test]
    fn pick_steals_the_global_minimum_when_the_own_block_has_none() {
        // Worker 0's top is a window ahead; worker 1's block is empty.
        let h = heaps(&[&[(500, 0)], &[(10, 5)], &[]]);
        assert_eq!(pick(&h, 10, 100, Some(0)), Some(1));
        assert_eq!(pick(&h, 10, 100, Some(2)), Some(1));
        // Without a worker it is always the global minimum.
        assert_eq!(pick(&h, 10, 100, None), Some(1));
        // Nothing fits while a running task holds the minimum far back.
        let h = heaps(&[&[(500, 0)], &[(400, 5)]]);
        assert_eq!(pick(&h, 10, 100, Some(0)), None);
        assert_eq!(pick(&h, 10, 100, None), None);
    }

    #[test]
    fn pick_always_admits_the_active_minimum() {
        // The lowest ready task is the active minimum: it fits in any
        // window, for every worker, even one whose block is empty.
        let h = heaps(&[&[(900, 0)], &[(400, 5), (401, 4)], &[]]);
        for own in [Some(0), Some(1), Some(2), None] {
            assert_eq!(pick(&h, 400, 1, own), Some(1), "own {own:?}");
        }
        // Ties on time break on pid across heaps, and an own top tied
        // with the minimum is admissible too.
        let h = heaps(&[&[(400, 3)], &[(400, 2)]]);
        assert_eq!(pick(&h, 400, 1, None), Some(1));
        assert_eq!(pick(&h, 400, 1, Some(0)), Some(0));
        assert_eq!(pick(&heaps(&[&[], &[]]), 0, 1, Some(0)), None);
    }

    #[test]
    fn pick_with_one_heap_pops_in_time_then_pid_order() {
        // One worker, one heap: every pick is the lowest (time, pid),
        // the order before heaps were split per worker.
        let entries = [(30, 1), (10, 4), (30, 0), (20, 2), (10, 3)];
        let mut h = heaps(&[&entries]);
        let mut popped = Vec::new();
        while let Some(heap) = pick(&h, 0, u64::MAX, Some(0)) {
            assert_eq!(pick(&h, 0, u64::MAX, None), Some(heap));
            popped.push(h[heap].pop().expect("picked heap has a top").0);
        }
        let mut sorted = entries.to_vec();
        sorted.sort();
        assert_eq!(popped, sorted);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn suspending_with_a_host_lock_held_is_caught_where_it_happens() {
        let s = VirtualScheduler::new(2, Cycles(100), 1);
        let shared = Mutex::new(());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            s.run(&|id| {
                if id == 0 {
                    let _guard = shared.lock();
                    s.suspend(0);
                }
            })
        }));
        let msg = message(outcome.expect_err("the contract check fires"));
        assert!(msg.contains("holding a host lock"), "{msg}");
    }
}
