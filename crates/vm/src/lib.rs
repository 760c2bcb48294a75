//! Software virtual memory for the MGS reproduction.
//!
//! Alewife has no hardware virtual memory; MGS performs address
//! translation in software (§4.2.1 of the paper). The compiler in-lines
//! translation code before every shared access: the code consults the
//! processor's local page table (the "software TLB" of this crate),
//! checks access rights, and forms a physical address. Accesses that
//! miss or violate rights trap into the MGS Local Client.
//!
//! This crate provides:
//!
//! * [`PageGeometry`] — page size and derived word/line counts
//!   (default **1 KB** pages, the size used for all results in the
//!   paper).
//! * [`PageFrame`] — a physical page: the actual backing store (atomic
//!   64-bit words, so simulated applications compute real results), a
//!   physical base address for the cache model, a home node for
//!   first-touch placement, a mapping generation, and its lines' blocks
//!   in the line directory of its home node's SSMP; the protocol drains
//!   in-flight accesses ([`PageFrame::quiesce`]) through those blocks
//!   before invalidating.
//! * [`FrameAllocator`] — allocates frames with unique physical
//!   addresses, binding each to its home SSMP's directory (or, for
//!   frames that stand alone, to one private directory).
//! * [`TwinPool`] — recycled page-sized buffers for twins, snapshots
//!   and arriving page images, so the protocol's data kernels run
//!   allocation-free in steady state.
//! * [`ProcTlb`] — a processor's software TLB, with the three states of
//!   the paper's Local Client (no entry = `TLB_INV`, read-only entry =
//!   `TLB_READ`, writable entry = `TLB_WRITE`): a page-indexed table
//!   that only its processor reads and fills, with no lock. A PINV
//!   shoot-down does not reach into it; it bumps the frame's
//!   generation, and the owner's next access re-faults. ([`Tlb`], the
//!   mutex-guarded map it replaced, stays only for the benchmark
//!   crate.)
//! * [`SharedHeap`] / [`VRange`] — virtual address allocation for
//!   shared objects, tagged with the [`AccessKind`] that determines the
//!   inline-translation cost (distributed array vs. pointer).

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod frame;
mod heap;
mod pool;
mod tlb;

pub use addr::{PageGeometry, VIRT_BASE};
pub use frame::{FrameAllocator, PageFrame, Quiesced};
pub use heap::{AccessKind, SharedHeap, VRange};
pub use pool::{PageBuf, PoolStats, TwinPool};
pub use tlb::{ProcTlb, Tlb, TlbEntry, TlbStats};
