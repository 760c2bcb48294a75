//! Stackful coroutines for x86_64 Linux: a guard-paged stack per task
//! and a context switch of a dozen instructions. This is the
//! continuation [`VirtualScheduler::run`](crate::VirtualScheduler::run)
//! hosts tasks on; every other target keeps one parked host thread per
//! task (the assembly and the `mmap` flag values below are per-target,
//! and nothing ships that no test has run).
//!
//! # Safety contract
//!
//! A task is switched out on one worker thread and may be switched
//! back in on another. **Nothing thread-affine may live across a
//! suspension point**: no host lock guard (the unlock would run on a
//! thread that does not own the lock) and no borrow of a thread-local
//! (it would name the old thread's copy). Debug builds check the first
//! half at every switch-out through `parking_lot::held_locks`. The
//! compiler may cache a thread-local's address within one function, so
//! the function that calls [`switch`] touches no thread-local itself
//! and is never inlined into one that does.
//!
//! A context is used by one thread at a time: whoever switches into a
//! saved stack pointer must own it exclusively, and must have observed
//! the `switch` that saved it (the scheduler hands contexts over under
//! its state lock).

use std::arch::naked_asm;
use std::ffi::c_void;

// `std` links libc on this target; declaring the three calls needs no
// crate. Flag values are those of x86_64 Linux.
extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}
const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

/// The guard below each stack: one page (x86_64 Linux pages are 4 KiB).
const GUARD: usize = 4096;

/// What a coroutine starts in: called once on the fresh stack with the
/// two words given to [`prepare`], and must never return (its return
/// address is zero — it ends by switching out for the last time).
pub(crate) type Entry = unsafe extern "C" fn(arg: *const (), id: usize) -> !;

/// One anonymous mapping holding `count` stacks, each with an
/// inaccessible guard page below it, so an overflow faults (SIGSEGV)
/// instead of running into its neighbour. Address space, not memory:
/// `MAP_NORESERVE`, and only the pages a task has run on are backed.
/// Unmapped on drop.
#[derive(Debug)]
pub(crate) struct Stacks {
    base: *mut u8,
    count: usize,
    stride: usize,
}

impl Stacks {
    /// Maps `count` stacks of `size` bytes (a multiple of 16).
    ///
    /// # Panics
    ///
    /// Panics if the kernel refuses the mapping.
    pub(crate) fn map(count: usize, size: usize) -> Stacks {
        assert!(
            size.is_multiple_of(16),
            "stack tops must be 16-byte aligned"
        );
        let stride = GUARD + size;
        let len = count.checked_mul(stride).expect("stack region fits usize");
        // SAFETY: a fresh private anonymous mapping at an address the
        // kernel picks aliases nothing.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        assert!(
            base != MAP_FAILED,
            "mmap of {count} task stacks failed: {}",
            std::io::Error::last_os_error()
        );
        let stacks = Stacks {
            base: base.cast(),
            count,
            stride,
        };
        for i in 0..count {
            // SAFETY: the guard lies inside the mapping made above, and
            // nothing runs on these stacks yet.
            let rc = unsafe { mprotect(stacks.base.add(i * stride).cast(), GUARD, PROT_NONE) };
            assert_eq!(rc, 0, "mprotect of a stack guard failed");
        }
        stacks
    }

    /// One past the highest byte of stack `i` (stacks grow down).
    pub(crate) fn top(&self, i: usize) -> *mut u8 {
        assert!(i < self.count);
        // SAFETY: in bounds of (or one past) the mapping.
        unsafe { self.base.add((i + 1) * self.stride) }
    }
}

impl Drop for Stacks {
    fn drop(&mut self) {
        // SAFETY: exactly the region `map` mapped; the owner drops it
        // only once no context on it will run again.
        unsafe { munmap(self.base.cast(), self.count * self.stride) };
    }
}

/// Lays out the initial frame of a coroutine on the stack ending at
/// `top` and returns the stack pointer to [`switch`] into: the first
/// switch pops six zeroed callee-saved registers — three of them
/// carrying `entry`, `arg` and `id` — and returns into [`trampoline`],
/// which tail-jumps to `entry(arg, id)`. `entry` sees a zero return
/// address and a zero frame pointer, so a backtrace ends there.
///
/// # Safety
///
/// `top` must be the 16-byte-aligned top of a writable stack no context
/// is running on, with at least 64 bytes below it.
pub(crate) unsafe fn prepare(top: *mut u8, entry: Entry, arg: *const (), id: usize) -> *mut u8 {
    let frame: [usize; 8] = [
        0,                                // r15
        entry as usize,                   // r14
        id,                               // r13
        arg as usize,                     // r12
        0,                                // rbx
        0,                                // rbp: end of the frame-pointer chain
        trampoline as *const () as usize, // where the first `switch` returns
        0,                                // `entry`'s return address: the stack ends here
    ];
    // SAFETY: the caller guarantees 64 writable, aligned bytes below
    // `top`.
    unsafe {
        let sp = top.cast::<[usize; 8]>().sub(1);
        sp.write(frame);
        sp.cast()
    }
}

/// First return target of a fresh coroutine: moves the two arguments
/// [`prepare`] parked in callee-saved registers into argument position
/// and jumps (not calls) to the entry, leaving `rsp` on the zero return
/// address — `rsp + 8` is 16-byte aligned there, as at any function
/// entry.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    naked_asm!("mov rdi, r12", "mov rsi, r13", "jmp r14")
}

/// Saves the running context's callee-saved registers on its own stack
/// and its stack pointer in `*save`, then resumes the context whose
/// stack pointer is `load`; returns when something switches back to
/// the value stored in `*save`. To the compiler this is an ordinary
/// `extern "C"` call: caller-saved registers are dead across it and it
/// may touch any memory. (MXCSR and the x87 control word are not
/// saved: no code here changes them.)
///
/// # Safety
///
/// `load` must come from [`prepare`] or from a `switch` that saved it,
/// be resumed at most once per save, and its stack must still be
/// mapped; `save` must be writable. See the module's safety contract
/// for what the calling code may hold across the call.
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut u8) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both sides of a ping-pong: the coroutine's saved stack pointer
    /// and the test thread's.
    struct Pair {
        coro: *mut u8,
        host: *mut u8,
        log: Vec<usize>,
    }

    unsafe extern "C" fn counter(arg: *const (), id: usize) -> ! {
        let pair = arg as *mut Pair;
        for step in 0.. {
            // SAFETY: the test thread is suspended in `switch` while
            // this runs, so the pair is ours.
            unsafe {
                (*pair).log.push(id + step);
                switch(&mut (*pair).coro, (*pair).host);
            }
        }
        unreachable!()
    }

    #[test]
    fn a_coroutine_keeps_its_locals_across_switches() {
        let stacks = Stacks::map(2, 64 * 1024);
        let mut pair = Pair {
            coro: std::ptr::null_mut(),
            host: std::ptr::null_mut(),
            log: Vec::new(),
        };
        let p: *mut Pair = &mut pair;
        // SAFETY: stack 1 is fresh; each switch resumes a pointer the
        // previous one saved, on this one thread.
        unsafe {
            (*p).coro = prepare(stacks.top(1), counter, p.cast(), 40);
            for _ in 0..3 {
                switch(&mut (*p).host, (*p).coro);
            }
        }
        assert_eq!(pair.log, [40, 41, 42]);
    }

    #[test]
    fn guard_pages_sit_below_every_stack() {
        let size = 64 * 1024;
        let stacks = Stacks::map(3, size);
        for i in 0..3 {
            let top = stacks.top(i) as usize;
            assert_eq!(top % 16, 0);
            assert_eq!(top - size - GUARD, stacks.base as usize + i * stacks.stride);
        }
        // The protection itself, read back from the kernel: three
        // inaccessible pages inside the region.
        let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
        let (lo, hi) = (stacks.base as usize, stacks.top(2) as usize);
        let guards = maps
            .lines()
            .filter(|line| {
                let (range, rest) = line.split_once(' ').expect("maps line");
                let (start, end) = range.split_once('-').expect("maps range");
                let start = usize::from_str_radix(start, 16).expect("hex");
                let end = usize::from_str_radix(end, 16).expect("hex");
                start >= lo && end <= hi && rest.starts_with("---p") && end - start == GUARD
            })
            .count();
        assert_eq!(guards, 3);
    }
}
