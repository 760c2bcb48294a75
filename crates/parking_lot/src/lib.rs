//! Vendored, std-backed shim for the subset of the `parking_lot` 0.12
//! API this workspace uses.
//!
//! The build environment has no network access to crates.io, so the
//! real `parking_lot` cannot be downloaded. The simulator only relies
//! on `parking_lot` for its ergonomic API (no lock poisoning, guards
//! usable with `Condvar::wait(&mut guard)`), not for its performance
//! tricks, so a thin wrapper over `std::sync` is a faithful stand-in:
//!
//! * [`Mutex`] / [`MutexGuard`] — `lock()` returns the guard directly;
//!   a poisoned lock (a panicked holder) is treated as released, which
//!   matches `parking_lot` semantics.
//! * [`Condvar`] — `wait` takes `&mut MutexGuard` and re-arms it in
//!   place.
//!
//! Reader-writer locks use `std::sync::RwLock` directly, recovering from
//! poisoning at the call site.
//!
//! One thing the real crate does not have: [`held_locks`], a debug-build
//! count of the [`Mutex`] guards the calling thread holds, and of the
//! [`HeldLock`] markers that lock guards built elsewhere carry. The
//! simulator's tasks are coroutines that may resume on another host
//! thread, so a guard must never live across a suspension point; the
//! scheduler asserts the count is zero wherever a task gives up its
//! thread.

#![warn(missing_docs)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::TryLockError;

// ---------------------------------------------------------------------
// Held-lock count (debug builds)
// ---------------------------------------------------------------------

#[cfg(debug_assertions)]
thread_local! {
    static HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Number of [`MutexGuard`]s and [`HeldLock`]s the calling thread
/// holds; always 0 in release builds, which compile the count out.
///
/// Never inlined (nor is the bump in `lock` / `drop`): a caller that
/// can be suspended on one thread and resumed on another must not have
/// this thread-local's address cached across the suspension.
#[inline(never)]
pub fn held_locks() -> usize {
    #[cfg(debug_assertions)]
    return HELD.with(std::cell::Cell::get);
    #[cfg(not(debug_assertions))]
    0
}

#[cfg(debug_assertions)]
#[inline(never)]
fn note_held(acquired: bool) {
    // `try_with`: a guard may drop during thread teardown, after the
    // thread-local is gone.
    let _ = HELD.try_with(|h| {
        h.set(if acquired {
            h.get() + 1
        } else {
            h.get().saturating_sub(1)
        })
    });
}

/// Counts in [`held_locks`] for as long as it lives, like a
/// [`MutexGuard`]: the marker a guard of a lock built outside this
/// crate embeds, so that holding it across a suspension point is
/// caught too. Zero-sized, and a no-op in release builds. Not `Send`:
/// the count is the creating thread's.
#[derive(Debug)]
pub struct HeldLock(PhantomData<*const ()>);

impl HeldLock {
    /// Starts counting one more lock held by the calling thread.
    #[inline]
    #[allow(clippy::new_without_default)] // taking a lock is not a default
    pub fn new() -> HeldLock {
        #[cfg(debug_assertions)]
        note_held(true);
        HeldLock(PhantomData)
    }
}

impl Drop for HeldLock {
    #[inline]
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        note_held(false);
    }
}

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/// A mutual-exclusion primitive (std-backed, `parking_lot`-flavoured).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard::holding(
            self.inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard::holding(g)),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard::holding(p.into_inner())),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard returned by [`Mutex::lock`].
///
/// The inner `Option` exists so [`Condvar::wait`] can temporarily take
/// the std guard out while the thread sleeps; it is `Some` at every
/// other moment.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    fn holding(inner: std::sync::MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        #[cfg(debug_assertions)]
        note_held(true);
        MutexGuard { inner: Some(inner) }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        note_held(false);
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// ---------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------

/// A condition variable usable with [`MutexGuard`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Blocks the current thread until notified, releasing the guarded
    /// mutex while asleep and re-acquiring it before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard present");
        guard.inner = Some(
            self.inner
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn held_locks_counts_this_threads_guards_in_debug_builds() {
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        assert_eq!(held_locks(), 0);
        let ga = a.lock();
        let gb = b.try_lock().expect("uncontended");
        let marker = HeldLock::new();
        assert_eq!(held_locks(), if cfg!(debug_assertions) { 3 } else { 0 });
        // Another thread's guards are its own.
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(held_locks(), 0));
        });
        drop(ga);
        drop(gb);
        drop(marker);
        assert_eq!(held_locks(), 0);
    }

    #[test]
    fn try_lock_contends() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (lock, cond) = &*p2;
            let mut ready = lock.lock();
            while !*ready {
                cond.wait(&mut ready);
            }
        });
        {
            let (lock, cond) = &*pair;
            *lock.lock() = true;
            cond.notify_all();
        }
        h.join().unwrap();
    }

    #[test]
    fn poisoned_locks_recover() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
