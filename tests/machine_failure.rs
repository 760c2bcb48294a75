//! The failure side of `Machine::run`, and the one host-level wait a
//! task makes while holding its scheduler slot.
//!
//! A run that cannot finish must say why and return: a panicking
//! processor's payload comes out of `run` after every other processor
//! has unwound (its locals dropped, on its own stack), a simulated
//! deadlock is reported by name, and a spent machine refuses a second
//! run instead of hanging in it. Every test carries its own deadline,
//! so a regression fails by name rather than by the CI job limit.

use mgs_repro::core::{AccessKind, DssmpConfig, Machine};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Runs `body` on its own thread and returns how it ended — its result,
/// or the payload it panicked with — panicking with `what` if it has
/// not ended within a minute.
fn outcome_within_deadline<T: Send + 'static>(
    what: &str,
    body: impl FnOnce() -> T + Send + 'static,
) -> Result<T, Box<dyn Any + Send>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(body)));
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(outcome) => outcome,
        Err(RecvTimeoutError::Disconnected) => unreachable!("the runner always sends"),
        Err(RecvTimeoutError::Timeout) => panic!("{what}: still running after 60 s"),
    }
}

fn message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Counts itself out when dropped: a stand-in for a processor body's
/// locals.
struct Local(Arc<AtomicUsize>);
impl Drop for Local {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn a_panicking_processor_fails_the_run_with_its_own_payload() {
    #[derive(Debug, PartialEq)]
    struct Boom(usize);

    let dropped = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&dropped);
    let outcome = outcome_within_deadline("one of four processors panics", move || {
        let machine = Machine::new(DssmpConfig::new(4, 2));
        machine.run(|env| {
            let _local = Local(Arc::clone(&counter));
            if env.pid() == 3 {
                env.compute(1_000);
                std::panic::panic_any(Boom(env.pid()));
            }
            env.barrier(); // three wait here for a fourth that never comes
        });
    });
    let payload = outcome.expect_err("the run must fail");
    assert_eq!(
        payload.downcast_ref::<Boom>(),
        Some(&Boom(3)),
        "run re-raises the failing processor's payload, not a peer's"
    );
    assert_eq!(
        dropped.load(Ordering::SeqCst),
        4,
        "every body's locals dropped"
    );
}

#[test]
fn a_skipped_barrier_is_reported_as_a_deadlock_naming_the_waiters() {
    let dropped = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&dropped);
    let outcome = outcome_within_deadline("three of four processors at a barrier", move || {
        let machine = Machine::new(DssmpConfig::new(4, 2));
        machine.run(|env| {
            let _local = Local(Arc::clone(&counter));
            if env.pid() != 0 {
                env.barrier();
            }
        });
    });
    let msg = message(outcome.expect_err("the run must fail"));
    assert!(
        msg.contains("scheduler deadlock: tasks [1, 2, 3] suspended"),
        "{msg}"
    );
    assert_eq!(
        dropped.load(Ordering::SeqCst),
        4,
        "every body's locals dropped"
    );
}

#[test]
fn a_second_run_on_one_machine_panics_instead_of_hanging() {
    let outcome = outcome_within_deadline("two runs on one machine", || {
        let machine = Machine::new(DssmpConfig::new(4, 2));
        machine.run(|_env| {});
        machine.run(|_env| {});
    });
    let msg = message(outcome.expect_err("the second run must be refused"));
    assert!(msg.contains("a machine runs once"), "{msg}");
}

/// A directory stripe is a host lock like any other: a task that
/// suspends holding one (here a quiesce's guard, held across a barrier
/// it arrives at first) is caught where it gives up its worker, and
/// the run fails naming the contract.
#[test]
#[cfg(debug_assertions)]
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn suspending_while_holding_a_directory_stripe_is_caught() {
    let outcome = outcome_within_deadline("a processor suspends holding a stripe", || {
        let machine = Machine::new(DssmpConfig::new(2, 2).with_virtual_engine(Some(1)));
        let arr = machine.alloc_array::<u64>(8, AccessKind::DistArray);
        machine.run(|env| {
            arr.write(env, env.pid() as u64, 1);
            if env.pid() == 0 {
                let machine = Arc::clone(env.machine());
                let proto = machine.protocol();
                let frame = proto.home_frame(0);
                let _held = frame.quiesce();
                env.barrier();
            } else {
                env.compute(1_000_000); // arrives last
                env.barrier();
            }
        });
    });
    let msg = message(outcome.expect_err("the contract check fires"));
    assert!(msg.contains("holding a host lock"), "{msg}");
}

#[test]
fn sixteen_processors_faulting_the_same_cold_pages_wait_for_the_fill_in_place() {
    // While one processor of an SSMP fetches a page, its siblings
    // faulting on the same page wait on the page's lock for that fill,
    // holding their scheduler slots, and then fill their TLBs from the
    // copy. With two workers the filler always holds the other one, so
    // nothing stalls. Every
    // round all sixteen walk the same eight cold pages in the same
    // order, so whichever two are running keep meeting in a fill;
    // fresh pages every round keep the race open 200 times.
    const ROUNDS: u64 = 200;
    const PAGES_PER_ROUND: u64 = 8;
    let sum = Arc::new(AtomicU64::new(0));
    let total = Arc::clone(&sum);
    let outcome = outcome_within_deadline("16 siblings read-fault cold remote pages", move || {
        let cfg = DssmpConfig::new(32, 16).with_virtual_engine(Some(2));
        let page_words = cfg.geometry.words_per_page();
        let machine = Machine::new(cfg);
        // All homed on the other SSMP; word 5 of page `p` holds `p`.
        let pages = machine.alloc_array_homed::<u64>(
            ROUNDS * PAGES_PER_ROUND * page_words,
            AccessKind::DistArray,
            |_| 16,
        );
        for page in 0..ROUNDS * PAGES_PER_ROUND {
            machine.poke(&pages, page * page_words + 5, page);
        }
        machine.run(|env| {
            for round in 0..ROUNDS {
                env.barrier();
                if env.cluster() == 0 {
                    for page in round * PAGES_PER_ROUND..(round + 1) * PAGES_PER_ROUND {
                        let value = pages.read(env, page * page_words + 5);
                        total.fetch_add(value, Ordering::Relaxed);
                    }
                }
            }
        });
    });
    outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    // The sequential reference: 16 readers of every page's word.
    assert_eq!(
        sum.load(Ordering::SeqCst),
        16 * (0..ROUNDS * PAGES_PER_ROUND).sum::<u64>()
    );
}
