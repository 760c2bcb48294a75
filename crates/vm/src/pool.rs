//! Recycled page-sized buffers for the software-DSM data kernels.
//!
//! The page-grain protocol snapshots whole pages constantly: every
//! WRITE upgrade makes a twin, every fill materializes the arriving
//! page image, and every single-writer release re-snapshots the page
//! for the refreshed twin. Allocating a fresh `Vec<u64>` for each of
//! those puts a malloc/free pair on the hottest host paths of the
//! simulator. [`TwinPool`] recycles the buffers instead: in steady
//! state a release/upgrade cycle performs **zero heap allocations**
//! for page data.
//!
//! Buffers are handed out as [`PageBuf`] guards that return themselves
//! to the pool on drop. A recycled buffer keeps its previous contents
//! — callers are expected to overwrite it fully (e.g. via
//! [`PageFrame::snapshot_into`](crate::PageFrame::snapshot_into))
//! before reading from it.

use parking_lot::Mutex;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A pool of page-sized `Box<[u64]>` buffers.
///
/// Cloning the pool handle is cheap (it is an `Arc` internally); all
/// clones share the same free list and statistics.
///
/// # Example
///
/// ```
/// use mgs_vm::TwinPool;
///
/// let pool = TwinPool::new(128);
/// let first = pool.acquire();
/// assert_eq!(first.len(), 128);
/// drop(first); // returns the buffer to the pool
/// let _again = pool.acquire();
/// let stats = pool.stats();
/// assert_eq!((stats.allocated, stats.reused), (1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct TwinPool {
    inner: Arc<PoolInner>,
}

#[derive(Debug)]
struct PoolInner {
    words: usize,
    /// A leaf lock, held for one take or give-back.
    free: Mutex<Free>,
}

/// The free buffers and the counts of how acquires were served, kept
/// together under one lock so that every count is exact.
#[derive(Debug, Default)]
struct Free {
    bufs: Vec<Box<[u64]>>,
    allocated: u64,
    reused: u64,
}

/// Point-in-time statistics of a [`TwinPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers created by a fresh heap allocation.
    pub allocated: u64,
    /// Acquires satisfied by recycling a returned buffer.
    pub reused: u64,
    /// Buffers currently sitting in the free list.
    pub free: u64,
}

impl TwinPool {
    /// Creates a pool of buffers holding `words` 64-bit words each.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    pub fn new(words: usize) -> TwinPool {
        assert!(words > 0, "pool buffers must be non-empty");
        TwinPool {
            inner: Arc::new(PoolInner {
                words,
                free: Mutex::default(),
            }),
        }
    }

    /// Number of words per buffer.
    pub fn words(&self) -> usize {
        self.inner.words
    }

    /// Takes a buffer from the free list, or allocates a fresh (zeroed)
    /// one, outside the lock, if the list is empty. Recycled buffers
    /// keep their previous contents; overwrite before reading.
    pub fn acquire(&self) -> PageBuf {
        let recycled = {
            let mut free = self.inner.free.lock();
            let buf = free.bufs.pop();
            match buf {
                Some(_) => free.reused += 1,
                None => free.allocated += 1,
            }
            buf
        };
        let buf = recycled.unwrap_or_else(|| vec![0u64; self.inner.words].into_boxed_slice());
        PageBuf {
            buf: Some(buf),
            pool: Arc::clone(&self.inner),
        }
    }

    /// Current pool statistics.
    pub fn stats(&self) -> PoolStats {
        let free = self.inner.free.lock();
        PoolStats {
            allocated: free.allocated,
            reused: free.reused,
            free: free.bufs.len() as u64,
        }
    }
}

/// A page-sized buffer checked out of a [`TwinPool`].
///
/// Dereferences to `[u64]`. Returns itself to the pool on drop, so
/// holding a `PageBuf` across an operation and letting it fall out of
/// scope is exactly the recycling discipline.
pub struct PageBuf {
    /// `Some` until drop hands the buffer back.
    buf: Option<Box<[u64]>>,
    pool: Arc<PoolInner>,
}

impl PageBuf {
    fn slice(&self) -> &[u64] {
        self.buf.as_deref().expect("present until drop")
    }
}

impl Deref for PageBuf {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        self.slice()
    }
}

impl DerefMut for PageBuf {
    fn deref_mut(&mut self) -> &mut [u64] {
        self.buf.as_deref_mut().expect("present until drop")
    }
}

impl Drop for PageBuf {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.free.lock().bufs.push(buf);
        }
    }
}

impl std::fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageBuf")
            .field("words", &self.slice().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_buffers_are_zeroed_and_sized() {
        let pool = TwinPool::new(16);
        let b = pool.acquire();
        assert_eq!(b.len(), 16);
        assert!(b.iter().all(|&w| w == 0));
        assert_eq!(pool.words(), 16);
    }

    #[test]
    fn drop_returns_to_pool_and_reuse_keeps_contents() {
        let pool = TwinPool::new(4);
        let mut b = pool.acquire();
        b[2] = 99;
        drop(b);
        assert_eq!(pool.stats().free, 1);
        let again = pool.acquire();
        // Recycled buffers are NOT cleared — that's the whole point.
        assert_eq!(again[2], 99);
        assert_eq!(pool.stats().reused, 1);
        assert_eq!(pool.stats().allocated, 1);
    }

    #[test]
    fn steady_state_allocates_nothing_new() {
        let pool = TwinPool::new(8);
        for _ in 0..100 {
            let _a = pool.acquire();
            let _b = pool.acquire();
        }
        let s = pool.stats();
        // Two live at a time: exactly two heap allocations ever.
        assert_eq!(s.allocated, 2);
        assert_eq!(s.reused, 198);
    }

    #[test]
    fn clones_share_the_free_list() {
        let pool = TwinPool::new(8);
        let clone = pool.clone();
        drop(pool.acquire());
        drop(clone.acquire());
        let s = pool.stats();
        assert_eq!((s.allocated, s.reused, s.free), (1, 1, 1));
    }

    /// Every acquire is counted once, as a fresh allocation or a
    /// reuse, however many threads share the pool.
    #[test]
    fn counts_are_exact_under_concurrent_acquires() {
        let pool = TwinPool::new(8);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        drop(pool.acquire());
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.allocated + s.reused, 4000);
        assert_eq!(s.free, s.allocated, "every buffer came back");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_word_pool_panics() {
        TwinPool::new(0);
    }
}
