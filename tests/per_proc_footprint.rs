//! Counting-allocator gate on what one simulated processor costs the
//! host heap.
//!
//! A processor that runs an empty body touches no simulated memory, so
//! its host-side state — the `Env`, its tag array, its scheduler slot,
//! its thread bookkeeping — must come to a few allocations of a few
//! kilobytes, not a structure sized and written for the whole cache
//! geometry. (Task stacks are mapped by the OS, not the allocator, and
//! are not what this counts.)
//!
//! Kept to a single `#[test]`: the allocator counts every thread while
//! armed, so no sibling test may run inside the window.

use mgs_repro::core::{DssmpConfig, Machine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static BLOCKS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn an_idle_processor_costs_the_heap_a_few_small_blocks() {
    const PROCS: u64 = 64;
    const MAX_BLOCKS_PER_PROC: u64 = 64;
    const MAX_BYTES_PER_PROC: u64 = 64 * 1024;

    let machine = Machine::new(DssmpConfig::new(PROCS as usize, 32).with_virtual_engine(Some(2)));
    ARMED.store(true, Ordering::SeqCst);
    machine.run(|_env| {});
    ARMED.store(false, Ordering::SeqCst);

    let blocks = BLOCKS.load(Ordering::SeqCst) / PROCS;
    let bytes = BYTES.load(Ordering::SeqCst) / PROCS;
    assert!(
        blocks < MAX_BLOCKS_PER_PROC,
        "{blocks} heap blocks per simulated processor (limit {MAX_BLOCKS_PER_PROC})"
    );
    assert!(
        bytes < MAX_BYTES_PER_PROC,
        "{bytes} heap bytes per simulated processor (limit {MAX_BYTES_PER_PROC})"
    );
    // The window was open: a run allocates *something* per processor.
    assert!(blocks > 0 && bytes > 0);
}
