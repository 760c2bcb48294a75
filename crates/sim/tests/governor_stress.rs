//! Randomized stress and regression tests for the time governor.
//!
//! 32 host threads drive an [`EpochGate`] through a seeded random
//! mix of the full protocol — variable-size clock charges, blocked
//! sections, early finishes — while continuously checking the skew
//! invariant: a running thread's clock never exceeds the minimum
//! published clock of any other *running* thread by more than two
//! windows (one window of gate slack plus up to one window of
//! per-charge overshoot; charges here are capped well below a window).
//!
//! Blocked threads leave the quorum, so a thread resuming from a block
//! re-enters at the current frontier (the highest clock ever
//! published), exactly as the runtime does when a lock grant or barrier
//! release carries a blocked processor's clock forward to the grant
//! time.
//!
//! Two regression tests pin the window-advance edge cases that a
//! scan-based gate can get wrong: the window must keep advancing when
//! every *other* thread is blocked, and an unblock after an all-blocked
//! quiescent period must not strand the resumer at a stale gate.
//!
//! A stress thread that panics never calls `finished`, so its peers
//! park at the gate forever and libtest sits on the captured panic
//! text. Each random mix therefore runs under a deadline and fails by
//! name instead.

use mgs_sim::{Cycles, EpochGate, SpinPolicy, XorShift64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const THREADS: usize = 32;
const WINDOW: u64 = 100;
const ITERS: usize = 400;
const MAX_CHARGE: u64 = 30;
/// A passing mix takes well under a second; see the module docs.
const DEADLINE: Duration = Duration::from_secs(60);

/// Runs one random mix on its own thread and panics, naming the test
/// and its gate, if no result arrives within [`DEADLINE`]. A panic in
/// the mix itself is re-raised unchanged.
fn stress_within_deadline(test: &str, spin: SpinPolicy, seed: u64) {
    let (tx, rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        let gate = EpochGate::new(THREADS, Cycles(WINDOW)).with_spin(spin);
        stress(gate, seed);
        let _ = tx.send(());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(()) => runner.join().expect("mix already reported success"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("sender dropped without a result"))
        }
        Err(RecvTimeoutError::Timeout) => panic!(
            "{test}: EpochGate hung: {THREADS} threads, window {WINDOW}, {spin:?}, \
             seed {seed:#x}, no result after {DEADLINE:?}"
        ),
    }
}

fn stress(gov: EpochGate, seed: u64) {
    let gov = Arc::new(gov);
    // Published clocks: the thread's current simulated time while
    // running, `u64::MAX` while blocked or finished (out of quorum).
    let clocks: Arc<Vec<AtomicU64>> = Arc::new((0..THREADS).map(|_| AtomicU64::new(0)).collect());
    // The highest clock ever published. Every window advance is driven
    // by a gate time published first, so this is never more than one
    // window behind the window end — unlike the *currently* published
    // clocks, which are all `u64::MAX` whenever every peer happens to
    // sit in a blocked section.
    let frontier = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|id| {
            let gov = Arc::clone(&gov);
            let clocks = Arc::clone(&clocks);
            let frontier = Arc::clone(&frontier);
            thread::spawn(move || {
                let mut rng =
                    XorShift64::new(seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut clock = 0u64;
                // Uneven lifetimes: some threads finish much earlier.
                let iters = ITERS / 2 + rng.next_below(ITERS as u64 / 2) as usize;
                for _ in 0..iters {
                    clock += 1 + rng.next_below(MAX_CHARGE);
                    clocks[id].store(clock, Ordering::SeqCst);
                    frontier.fetch_max(clock, Ordering::SeqCst);
                    gov.tick(id, Cycles(clock));
                    let min = clocks
                        .iter()
                        .map(|c| c.load(Ordering::SeqCst))
                        .filter(|&c| c != u64::MAX)
                        .min()
                        .unwrap_or(clock);
                    let skew = clock.saturating_sub(min);
                    assert!(
                        skew <= 2 * WINDOW,
                        "thread {id}: skew {skew} exceeds two windows ({})",
                        2 * WINDOW
                    );
                    // ~10% of iterations: a blocked section, as at a
                    // contended lock or a barrier.
                    if rng.next_below(10) == 0 {
                        clocks[id].store(u64::MAX, Ordering::SeqCst);
                        gov.blocked(id);
                        thread::yield_now();
                        gov.unblocked(id);
                        // Resume at the frontier, as a lock grant or
                        // barrier release does to a simulated clock.
                        clock = clock.max(frontier.load(Ordering::SeqCst));
                        clocks[id].store(clock, Ordering::SeqCst);
                    }
                }
                clocks[id].store(u64::MAX, Ordering::SeqCst);
                gov.finished(id);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }
}

#[test]
fn random_mix_holds_skew_invariant_epoch() {
    stress_within_deadline(
        "random_mix_holds_skew_invariant_epoch",
        SpinPolicy::Auto,
        0xA5A5_0001,
    );
}

#[test]
fn random_mix_holds_skew_invariant_epoch_forced_park() {
    // Forcing the park path (zero spin budget) exercises the
    // lock-then-notify wakeup protocol under real contention.
    stress_within_deadline(
        "random_mix_holds_skew_invariant_epoch_forced_park",
        SpinPolicy::Park,
        0xA5A5_0002,
    );
}

// ---------------------------------------------------------------------
// Window-advance regressions.
// ---------------------------------------------------------------------

/// The sole running thread must be able to advance the window past any
/// number of boundaries while every other thread sits blocked — a
/// stalled scan here deadlocks lock-heavy applications whose waiters
/// all park while one processor streams compute.
#[test]
fn lone_runner_advances_while_all_others_are_blocked() {
    let gov = EpochGate::new(4, Cycles(WINDOW));
    for id in 1..4 {
        gov.blocked(id);
    }
    for step in 1..=100u64 {
        gov.tick(0, Cycles(step * WINDOW));
    }
    for id in 1..4 {
        gov.unblocked(id);
        gov.tick(id, Cycles(100 * WINDOW));
        gov.finished(id);
    }
    gov.finished(0);
}

/// After a fully-blocked quiescent period (every thread blocked, no
/// quorum at all), the first thread to unblock and hit the gate far
/// ahead of the stale window end must advance it itself rather than
/// waiting for a wake-up that can never come.
#[test]
fn unblock_after_all_blocked_does_not_strand_the_resumer() {
    let gov = EpochGate::new(2, Cycles(WINDOW));
    gov.blocked(0);
    gov.blocked(1);
    // Quiescent: nothing runs, nothing can advance the window.
    gov.unblocked(0);
    gov.tick(0, Cycles(50 * WINDOW)); // must return, not park forever
    gov.unblocked(1);
    gov.tick(1, Cycles(50 * WINDOW));
    gov.finished(0);
    gov.finished(1);
}
