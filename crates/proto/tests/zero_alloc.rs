//! Counting-allocator proof that the span twin/diff kernel is
//! heap-allocation-free in steady state.
//!
//! A wrapping global allocator counts every `alloc` call in this test
//! binary. After one warm-up cycle (which populates the twin pool and
//! grows the diff scratch to its working capacity), a full
//! twin + diff + merge cycle — pooled snapshot, span diff against the
//! quiesced frame (its block's eight directory stripes and the index
//! read lock held), per-run apply, dirty-line walk — must perform
//! **zero** heap allocations.
//!
//! Kept to a single `#[test]` so no concurrent test case can allocate
//! while the measured window is open — and counting is scoped to the
//! *measured thread* (a thread-local arm switch), because the test
//! harness's own threads allocate lazily at unpredictable times: the
//! first time libtest's main thread blocks on its result channel, the
//! standard library initializes that thread's channel context on the
//! heap, and whether that lands inside the window is a timing race.

use mgs_proto::SpanDiff;
use mgs_sim::XorShift64;
use mgs_vm::{FrameAllocator, PageGeometry, TwinPool};
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

#[test]
fn steady_state_twin_diff_merge_allocates_nothing() {
    const WORDS: u64 = 128;
    let frames = FrameAllocator::new(PageGeometry::default());
    let frame = frames.alloc(0);
    let home = frames.alloc(0);
    frame.mark_dirty(frame.lines(), 0); // the frame claims its block
    let pool = TwinPool::new(WORDS as usize);
    let mut diff = SpanDiff::new();
    let mut rng = XorShift64::new(0x2E50_A110_C0DE);

    // One cycle of the release path's data movement, exactly as the
    // protocol performs it.
    let mut cycle = |dirty_words: u64| {
        let mut twin = pool.acquire();
        frame.snapshot_into(&mut twin); // make twin
        for _ in 0..dirty_words {
            let w = rng.next_below(WORDS);
            frame.store(w, rng.next_u64()); // application writes
        }
        frame.with_quiesced(|w| diff.compute_into(w, &twin)); // make diff
        diff.apply_to_frame(&home); // merge at the home
        let lines = diff.touched_lines(&home).count(); // dirty marking
        std::hint::black_box(lines);
        // `twin` drops here: back to the pool.
    };

    // Warm-up: pool allocates its one buffer, the scratch grows to
    // full-page capacity (worst case: every word in its own span is
    // impossible past 50% dirty, so a full-dirty warm-up bounds it).
    for w in 0..WORDS {
        frame.store(w, w + 1);
    }
    cycle(WORDS);
    cycle(WORDS / 2);

    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    for round in 0..100u64 {
        cycle(round % 32);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(false));
    assert_eq!(
        after - before,
        0,
        "steady-state twin+diff+merge cycles must not touch the heap"
    );

    let stats = pool.stats();
    assert_eq!(stats.allocated, 1, "the pool allocated exactly one buffer");
    assert!(stats.reused >= 101, "every later cycle recycled it");
}
