//! MGS hierarchical synchronization (§3.2 of the paper).
//!
//! The MGS synchronization library is cognizant of the DSSMP hierarchy:
//! its goal is to contain synchronization communication within an SSMP
//! whenever possible.
//!
//! * [`MgsBarrier`] — a tree barrier matching the machine hierarchy:
//!   the first level synchronizes the processors of each SSMP through
//!   hardware shared memory; the second level synchronizes the SSMPs
//!   with a minimum of two inter-SSMP messages per SSMP (combine +
//!   release).
//! * [`MgsLock`] — a token-based distributed lock: each lock is a local
//!   lock per SSMP plus a single global lock. Acquires succeed without
//!   inter-SSMP communication while the local SSMP owns the token;
//!   consecutive acquires from different SSMPs pay a token transfer
//!   through the global lock. The **lock hit ratio** statistic of
//!   Figure 11 is the fraction of acquires that needed no inter-SSMP
//!   communication.
//!
//! Both primitives provide *real* mutual exclusion / rendezvous for the
//! simulator's tasks (or, standalone, OS threads) while computing
//! *simulated* grant and release times from the machine's cost model. At cluster size `C = P` (one
//! SSMP) they degenerate to flat centralized primitives, which is how
//! the paper's tightly-coupled baseline (null MGS calls + the P4
//! library) is modelled.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod barrier;
mod hwlock;
mod lock;

pub use barrier::MgsBarrier;
pub use hwlock::HwLock;
pub use lock::{LockStats, MgsLock};

use mgs_sim::VirtualScheduler;
use parking_lot::{Condvar, Mutex, MutexGuard};

/// Waits once on a primitive. A scheduler task (`task`: the scheduler
/// and its id) is suspended with the primitive's mutex dropped; the
/// caller has registered it as a waiter, so a resume that races ahead
/// is consumed, not lost, and the task may come back on another host
/// thread. A standalone thread waits on the primitive's condvar.
fn wait<'a, T>(
    task: Option<(&VirtualScheduler, usize)>,
    mutex: &'a Mutex<T>,
    cond: &Condvar,
    mut guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    let Some((sched, id)) = task else {
        cond.wait(&mut guard);
        return guard;
    };
    drop(guard);
    sched.suspend(id);
    mutex.lock()
}
