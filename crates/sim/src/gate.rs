//! [`EpochGate`]: the scheduler's thread-backed continuation for `n`
//! caller-owned threads, with `workers = n` (`MGS_VWORKERS` ignored). No
//! machine uses it; it stays for the benchmark's `sim.gate_*` unit costs.

use crate::{Cycles, VirtualScheduler};
use std::sync::Once;

/// Windowed skew bound over `n` caller-owned threads (module docs).
#[derive(Debug)]
pub struct EpochGate {
    sched: VirtualScheduler,
    started: Box<[Once]>,
}

impl EpochGate {
    /// A gate for `n` threads; panics if `n == 0` or `window` is zero.
    pub fn new(n: usize, window: Cycles) -> EpochGate {
        EpochGate {
            sched: VirtualScheduler::build(n, window, n),
            started: (0..n).map(|_| Once::new()).collect(),
        }
    }

    /// Called by thread `id` with its local time. The first call checks
    /// the thread in and returns once all `n` have; every call waits
    /// while the thread is a window ahead of the slowest unfinished one.
    #[inline]
    pub fn tick(&self, id: usize, local_time: Cycles) {
        self.started[id].call_once(|| self.sched.start(id));
        self.sched.tick(id, local_time);
    }

    /// Marks thread `id`, which has ticked, finished; it ticks no more.
    pub fn finished(&self, id: usize) {
        self.sched.finished(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{scope, sleep, spawn};
    use std::time::Duration;

    const W: u64 = 2_000;
    /// Runs `f` on its own thread; fails instead of hanging after 60 s.
    fn within_deadline(f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        spawn(move || {
            f();
            tx.send(()).unwrap()
        });
        rx.recv_timeout(Duration::from_secs(60)).unwrap();
    }

    #[test]
    fn a_lone_thread_never_waits_and_needs_no_finish() {
        within_deadline(|| {
            let gate = EpochGate::new(1, Cycles(W));
            (0..1_000).for_each(|i| gate.tick(0, Cycles(i / 10 * W)));
        });
    }

    #[test]
    fn two_threads_stepping_a_window_a_round_both_finish() {
        within_deadline(|| {
            let gate = &EpochGate::new(2, Cycles(W));
            scope(|s| {
                for id in 0..2 {
                    s.spawn(move || {
                        (1..=64).for_each(|r| gate.tick(id, Cycles(r * W)));
                        gate.finished(id);
                    });
                }
            });
        });
    }

    #[test]
    fn a_thread_two_windows_ahead_waits_until_the_slow_one_passes_or_finishes() {
        within_deadline(|| {
            for pass in [true, false] {
                let gate = &EpochGate::new(2, Cycles(W));
                scope(|s| {
                    let fast = s.spawn(|| {
                        gate.tick(0, Cycles(2 * W));
                        gate.finished(0);
                    });
                    gate.tick(1, Cycles(0));
                    sleep(Duration::from_millis(20));
                    assert!(!fast.is_finished(), "the fast thread must wait");
                    if pass {
                        gate.tick(1, Cycles(3 * W));
                    }
                    gate.finished(1);
                });
            }
        });
    }
}
