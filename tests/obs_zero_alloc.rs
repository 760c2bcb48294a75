//! Counting-allocator proof that the observability fast path adds no
//! heap allocation to the per-access hot path.
//!
//! A wrapping global allocator counts every `alloc`/`realloc` in this
//! test binary. A single-processor machine runs with the `mgs-obs` sink
//! attached; after a warm-up pass (TLB fills, cache-directory growth,
//! TLB leaf allocation), a steady-state loop of loads and
//! stores — each of which counts its load or store and hardware miss
//! class in its SSMP's cache statistics — must perform **zero** heap
//! allocations.
//!
//! Kept to a single `#[test]` so no concurrent test case can allocate
//! while the measured window is open — and counting is scoped to the
//! *measured thread* (a thread-local arm switch), because the test
//! harness's own threads allocate lazily at unpredictable times: the
//! first time libtest's main thread blocks on its result channel, the
//! standard library initializes that thread's channel context on the
//! heap, and whether that lands inside the window is a timing race.

use mgs_repro::core::{AccessKind, DssmpConfig, Machine, ProtocolKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Armed only on the thread whose allocations are under test.
    /// Const-initialized so reading it never itself allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// True when the current thread is the measured one. `try_with`
/// (not `with`) so late allocations during thread teardown, after the
/// thread-local is destroyed, stay safe.
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations observed inside the measured window (written by the
/// simulated processor's thread, read after the run joins).
static MEASURED: AtomicU64 = AtomicU64::new(u64::MAX);

#[test]
fn per_access_metrics_path_allocates_nothing() {
    // Both the default Eager strategy and the adaptive controller: the
    // per-page policy lives in the page record, read only on the slow
    // path, so strategy dispatch must add no heap traffic to the
    // steady-state access path in either mode.
    for protocol in [ProtocolKind::Eager, ProtocolKind::Adaptive] {
        check_zero_alloc(protocol);
    }
}

fn check_zero_alloc(protocol: ProtocolKind) {
    const WORDS: u64 = 1024; // 8 KiB: several pages, whose TLB leaf
                             // the warm-up allocates

    let mut cfg = DssmpConfig::new(1, 1)
        .with_observability()
        .with_protocol(protocol);
    cfg.governor_window = None;
    let machine = Machine::new(cfg);
    let arr = machine.alloc_array::<u64>(WORDS, AccessKind::DistArray);
    machine.run(|env| {
        // Warm-up: fault every page in, fill the TLB
        // and the hardware cache's directory state.
        for i in 0..WORDS {
            arr.write(env, i, i);
        }
        let mut acc = 0u64;
        for i in 0..WORDS {
            acc = acc.wrapping_add(arr.read(env, i));
        }
        std::hint::black_box(acc);

        // Steady state: every access still counts its load or store
        // and hardware miss class into its cache-statistics shard.
        COUNTING.with(|c| c.set(true));
        let before = ALLOCS.load(Ordering::Relaxed);
        for round in 0..50u64 {
            for i in 0..WORDS {
                arr.write(env, i, round + i);
            }
            let mut acc = 0u64;
            for i in 0..WORDS {
                acc = acc.wrapping_add(arr.read(env, i));
            }
            std::hint::black_box(acc);
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        COUNTING.with(|c| c.set(false));
        MEASURED.store(after - before, Ordering::Relaxed);
    });

    assert_eq!(
        MEASURED.load(Ordering::Relaxed),
        0,
        "instrumented steady-state accesses must not touch the heap ({protocol:?})"
    );

    // The counting really happened.
    let metrics = machine.metrics().expect("observability on");
    assert!(metrics.get(mgs_repro::obs::Metric::Stores) >= 51 * WORDS);
}
