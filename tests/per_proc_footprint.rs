//! Counting-allocator gate on what one simulated processor costs the
//! host heap, and — where processors are coroutines — a bound on what
//! it costs the host in threads and resident memory.
//!
//! A processor that runs an empty body touches no simulated memory, so
//! its host-side state — the `Env`, its tag array's table of leaves,
//! its scheduler slot — must come to a few small allocations, not a
//! structure sized and written for the whole cache geometry; and a
//! processor that stores one word adds about one tag leaf. (Task
//! stacks are mapped by `VirtualScheduler::run` with `mmap`, not by the
//! allocator, and are not what the first half counts; the second half
//! does see them, as resident pages.)
//!
//! Kept to a single `#[test]`: the allocator counts every thread while
//! armed, so no sibling test may run inside the window.

use mgs_repro::core::{AccessKind, DssmpConfig, Machine};
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

/// What an idle processor may cost the heap: far below the 32 KB of
/// an Alewife tag array.
const MAX_BYTES_PER_PROC: u64 = 4 * 1024;

#[test]
fn an_idle_processor_costs_the_heap_a_few_small_blocks() {
    const PROCS: u64 = 64;
    const MAX_BLOCKS_PER_PROC: u64 = 64;

    let machine = Machine::new(DssmpConfig::new(PROCS as usize, 32).with_virtual_engine(Some(2)));
    ARMED.store(true, Ordering::SeqCst);
    machine.run(|_env| {});
    ARMED.store(false, Ordering::SeqCst);

    let blocks = BLOCKS.load(Ordering::SeqCst) / PROCS;
    let bytes = BYTES.load(Ordering::SeqCst) / PROCS;
    eprintln!("an idle processor: {bytes} heap bytes in {blocks} blocks");
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

    a_sparse_machine_pays_only_for_the_tag_leaves_it_fills();
    machine_new_allocates_no_more_than_it_did();
    an_ssmp_costs_machine_new_a_few_kilobytes();

    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        a_processor_is_not_a_host_thread();
    }
}

/// `P = 2048, C = 32`, of which only processors 0..128 store a word:
/// the run may request one 4 KB tag leaf for each of those 128 and no
/// more than an idle processor's bound for every processor, about
/// 8.5 MB. A tag array allocated whole would request 2,048 × 32 KB =
/// 64 MB. Bytes requested, not resident pages: exact on any host.
fn a_sparse_machine_pays_only_for_the_tag_leaves_it_fills() {
    const PROCS: u64 = 2048;
    const WRITERS: u64 = 128;
    const LEAF_BYTES: u64 = 4096;
    const MAX_BYTES: u64 = WRITERS * LEAF_BYTES + PROCS * MAX_BYTES_PER_PROC;

    let machine = Machine::new(DssmpConfig::new(PROCS as usize, 32).with_virtual_engine(Some(2)));
    let arr = machine.alloc_array::<u64>(WRITERS, AccessKind::DistArray);
    let bytes_before = BYTES.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    machine.run(|env| {
        let pid = env.pid() as u64;
        if pid < WRITERS {
            arr.write(env, pid, pid);
        }
    });
    ARMED.store(false, Ordering::SeqCst);
    let bytes = BYTES.load(Ordering::SeqCst) - bytes_before;
    eprintln!("P = {PROCS}, {WRITERS} writers: {bytes} heap bytes over the run");
    assert!(
        bytes <= MAX_BYTES,
        "a P = {PROCS} run in which {WRITERS} processors store one word requested {bytes} \
         heap bytes (limit {MAX_BYTES})"
    );
}

/// `Machine::new` at `P = 2048, C = 32` builds 64 SSMP line
/// directories, and an empty directory owns no heap. It reads
/// 1,459,360 bytes in 2,265 blocks; the limits were set a quarter over
/// an earlier 1,977,488 bytes in 2,328.
fn machine_new_allocates_no_more_than_it_did() {
    const MAX_BYTES: u64 = 2_500_000;
    const MAX_BLOCKS: u64 = 3_000;

    let (blocks_before, bytes_before) =
        (BLOCKS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    ARMED.store(true, Ordering::SeqCst);
    let machine = Machine::new(DssmpConfig::new(2048, 32).with_virtual_engine(Some(2)));
    ARMED.store(false, Ordering::SeqCst);
    let blocks = BLOCKS.load(Ordering::SeqCst) - blocks_before;
    let bytes = BYTES.load(Ordering::SeqCst) - bytes_before;
    drop(machine);
    eprintln!("Machine::new(P = 2048, C = 32): {bytes} bytes in {blocks} blocks");
    assert!(
        bytes <= MAX_BYTES && blocks <= MAX_BLOCKS,
        "Machine::new(P = 2048, C = 32) allocated {bytes} bytes in {blocks} blocks \
         (limits {MAX_BYTES}, {MAX_BLOCKS})"
    );
}

/// `Machine::new` at `P = 64, C = 1`: 64 SSMPs of one processor each,
/// so what an SSMP costs (its cache system, directory handle, pools and
/// queues) is most of what the machine requests. It reads 106,272
/// bytes in 281 blocks, 1.7 KB an SSMP; 64 cache-line-padded counter
/// shards per SSMP, 8 KB, would break the limit alone.
fn an_ssmp_costs_machine_new_a_few_kilobytes() {
    const SSMPS: u64 = 64;
    const MAX_BYTES_PER_SSMP: u64 = 4 * 1024;
    let (blocks_before, bytes_before) =
        (BLOCKS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    ARMED.store(true, Ordering::SeqCst);
    let machine = Machine::new(DssmpConfig::new(SSMPS as usize, 1).with_virtual_engine(Some(2)));
    ARMED.store(false, Ordering::SeqCst);
    let blocks = BLOCKS.load(Ordering::SeqCst) - blocks_before;
    let bytes = BYTES.load(Ordering::SeqCst) - bytes_before;
    drop(machine);
    eprintln!("Machine::new(P = 64, C = 1): {bytes} bytes in {blocks} blocks");
    assert!(
        bytes <= SSMPS * MAX_BYTES_PER_SSMP,
        "Machine::new(P = 64, C = 1) allocated {bytes} bytes, {} per SSMP (limit {MAX_BYTES_PER_SSMP})",
        bytes / SSMPS
    );
}

/// One field of `/proc/self/status`, in the unit the kernel prints
/// (a count, or kB).
fn proc_status(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    let value = line.split_whitespace().next().expect("a value");
    value.parse().expect("a number")
}

/// `P = 2048` on two workers: the process holds a handful of host
/// threads while every task exists (a thread per task would read over
/// 2,000), and a task that runs an empty body costs a few resident
/// kilobytes — the pages of its own stack it touched, its `Env`.
fn a_processor_is_not_a_host_thread() {
    const PROCS: usize = 2048;
    const MAX_THREADS: u64 = 16;
    const MAX_RESIDENT_KB_PER_PROC: u64 = 16;

    let machine = Machine::new(DssmpConfig::new(PROCS, 32).with_virtual_engine(Some(2)));
    let threads = AtomicU64::new(0);
    let resident_before = proc_status("VmRSS");
    machine.run(|env| {
        if env.pid() == 0 {
            // Task 0 runs first, with all the others parked behind it.
            threads.store(proc_status("Threads"), Ordering::SeqCst);
        }
    });
    let grown = proc_status("VmHWM").saturating_sub(resident_before);

    let threads = threads.load(Ordering::SeqCst);
    assert!(
        (1..MAX_THREADS).contains(&threads),
        "{threads} host threads while {PROCS} simulated processors exist (limit {MAX_THREADS})"
    );
    let per_proc = grown / PROCS as u64;
    assert!(
        per_proc < MAX_RESIDENT_KB_PER_PROC,
        "{per_proc} kB resident per simulated processor (limit {MAX_RESIDENT_KB_PER_PROC}); \
         peak grew {grown} kB over the run"
    );
    eprintln!("P = {PROCS}: {threads} host threads, {per_proc} kB resident per processor");
}
