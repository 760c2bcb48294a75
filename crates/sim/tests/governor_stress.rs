//! Randomized stress test for the scheduler's thread-backed
//! continuation, through the [`EpochGate`] adapter: it is what `run` is
//! on every target without coroutines.
//!
//! 32 host threads tick the gate through a seeded random mix of
//! variable-size clock charges and early finishes, while continuously
//! checking the skew invariant: once its tick returns, a thread's clock
//! is less than one window ahead of the lowest published clock of any
//! unfinished thread. (A thread's clock only rises, every tick first
//! publishes it, and a tick returns only below the lowest time the
//! scheduler has recorded plus the window.)
//!
//! A stress thread that panics never calls `finished`, so its peers
//! wait at the gate forever and libtest sits on the captured panic
//! text. The mix therefore runs under a deadline and fails by name
//! instead.

use mgs_sim::{Cycles, EpochGate, XorShift64};
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

/// Runs one random mix on its own thread and panics, naming the test,
/// if no result arrives within [`DEADLINE`]. A panic in the mix itself
/// is re-raised unchanged.
fn stress_within_deadline(test: &str, seed: u64) {
    let (tx, rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        stress(seed);
        let _ = tx.send(());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(()) => runner.join().expect("mix already reported success"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("sender dropped without a result"))
        }
        Err(RecvTimeoutError::Timeout) => panic!(
            "{test}: EpochGate hung: {THREADS} threads, window {WINDOW}, \
             seed {seed:#x}, no result after {DEADLINE:?}"
        ),
    }
}

fn stress(seed: u64) {
    let gov = Arc::new(EpochGate::new(THREADS, Cycles(WINDOW)));
    // Published clocks: the thread's current simulated time while it
    // runs, `u64::MAX` once it is finished.
    let clocks: Arc<Vec<AtomicU64>> = Arc::new((0..THREADS).map(|_| AtomicU64::new(0)).collect());
    let handles: Vec<_> = (0..THREADS)
        .map(|id| {
            let gov = Arc::clone(&gov);
            let clocks = Arc::clone(&clocks);
            thread::spawn(move || {
                let mut rng =
                    XorShift64::new(seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut clock = 0u64;
                // Uneven lifetimes: some threads finish much earlier.
                let iters = ITERS / 2 + rng.next_below(ITERS as u64 / 2) as usize;
                for _ in 0..iters {
                    clock += 1 + rng.next_below(MAX_CHARGE);
                    clocks[id].store(clock, Ordering::SeqCst);
                    gov.tick(id, Cycles(clock));
                    let min = clocks
                        .iter()
                        .map(|c| c.load(Ordering::SeqCst))
                        .min()
                        .unwrap_or(clock);
                    let skew = clock.saturating_sub(min);
                    assert!(
                        skew < WINDOW,
                        "thread {id}: skew {skew} is not under one window ({WINDOW})"
                    );
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
fn random_mix_holds_skew_invariant() {
    stress_within_deadline("random_mix_holds_skew_invariant", 0xA5A5_0001);
}
