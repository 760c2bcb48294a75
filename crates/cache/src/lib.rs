//! Intra-SSMP hardware shared memory model.
//!
//! Within one SSMP, MGS relies on the machine's hardware cache
//! coherence (on Alewife: a single-writer, write-invalidate directory
//! protocol with sequentially consistent semantics and a LimitLESS
//! software-extended directory). This crate models that substrate for
//! *timing*: the actual data always lives in the page frames of
//! `mgs-vm`, and the cache model decides how many cycles each access
//! stalls the processor.
//!
//! The model has two parts:
//!
//! * [`ProcCache`] — a per-processor set-associative tag array tracking
//!   capacity and conflict behaviour. It is owned by the simulated
//!   processor's thread; no other thread touches it.
//! * [`Directory`] — the per-SSMP line directory: dense 64-line blocks,
//!   each claimed for life by a [`BlockCell`] that the directory made
//!   for some lines and that does every operation on them (a page
//!   frame's, or, for lines with no frame, their chunk's in
//!   [`SsmpCacheSystem`]'s line map), eight sequence-locked stripes to
//!   a block, reached through the cell's hint and never by hashing a
//!   line. It is the single
//!   source of truth for which processors hold a line and who owns it
//!   dirty; a processor-side tag is only *valid* if the directory still
//!   lists that processor as a sharer, which is how remote
//!   invalidations take effect without touching another thread's tag
//!   array.
//!
//! [`SsmpCacheSystem::access`] combines the two into the latency classes
//! of Table 3 of the paper ([`MissClass`]): hit, local miss, remote
//! clean miss, 2-party, 3-party, and the LimitLESS software-directory
//! case.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod directory;
mod proc_cache;
mod system;

pub use config::CacheConfig;
pub use directory::{BlockCell, CleanOutcome, Directory, HeldLines};
pub use proc_cache::ProcCache;
pub use system::{lines_of, CacheStats, FrameWord, MissClass, Served, SsmpCacheSystem};
