//! The simulator's cost model.
//!
//! Every latency constant used anywhere in the DSSMP simulator lives
//! here, so that the timing behaviour of the whole system can be audited
//! (and re-calibrated) in one place.
//!
//! The default model, [`CostModel::alewife`], is calibrated so that the
//! primitive shared-memory operation costs of **Table 3** of the paper
//! emerge from sums of the component constants. The protocol charges
//! the components piecewise as it executes each transaction; the exact
//! decomposition of each inter-SSMP row is a reference sum in
//! `mgs-proto`'s `protocol_costs` tests, which check that the executed
//! transaction charges exactly that sum. The micro-measurements of
//! `mgs-core` therefore reproduce Table 3 by construction *plus*
//! dynamic effects (cache state, contention) on top.
//!
//! Calibration targets (Table 3, 20 MHz Alewife, 1 KB pages, 0-cycle
//! inter-SSMP latency):
//!
//! | Operation | Cycles |
//! |---|---|
//! | Cache Miss Local | 11 |
//! | Cache Miss Remote | 38 |
//! | Cache Miss 2-party | 42 |
//! | Cache Miss 3-party | 63 |
//! | Remote Software (directory overflow) | 425 |
//! | Distributed Array Translation | 18 |
//! | Pointer Translation | 24 |
//! | TLB Fill | 1037 |
//! | Inter-SSMP Read Miss | 6982 |
//! | Inter-SSMP Write Miss | 16331 |
//! | Release (1 writer) | 14226 |
//! | Release (2 writers) | 32570 |

use crate::Cycles;

/// Which tier of page-cleaning cost applies (see §4.2.4 of the paper).
///
/// Cleaning a page issues a prefetch/store/flush sequence for every
/// cache line of the page. When the lines are not dirty in any cache of
/// the SSMP the write-prefetch pipeline hides the invalidation latency
/// and the per-line cost is low; when lines are dirty (or widely shared)
/// each flush stalls on the coherence protocol and the per-line cost is
/// several times higher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CleanTier {
    /// No dirty lines: the prefetch pipeline hides invalidation latency.
    Clean,
    /// Dirty lines present: flushes stall on coherence transactions.
    Dirty,
}

/// All latency constants of the simulator, in cycles.
///
/// Construct with [`CostModel::alewife`] (the calibrated default, also
/// returned by `Default`) and override individual fields for ablation
/// studies.
///
/// # Example
///
/// ```
/// use mgs_sim::{CostModel, Cycles};
///
/// let cm = CostModel::alewife();
/// assert_eq!(cm.tlb_fill_cost(), Cycles(1037)); // Table 3
/// // One inter-SSMP message: send + 1000-cycle wire + receive.
/// assert_eq!(cm.crossing(Cycles(1000)), Cycles(1430));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    // --- Hardware shared memory (intra-SSMP), Table 3 group 1 ---
    /// Load/store hit in the processor's own cache.
    pub cache_hit: Cycles,
    /// Miss satisfied by the local node's memory.
    pub miss_local: Cycles,
    /// Miss satisfied by another node's memory (clean line).
    pub miss_remote: Cycles,
    /// Miss requiring one remote cache to be consulted (dirty in the
    /// home node's cache).
    pub miss_two_party: Cycles,
    /// Miss requiring a third node's cache to be consulted.
    pub miss_three_party: Cycles,
    /// Miss to a line whose directory entry has overflowed into software
    /// (Alewife's LimitLESS directory): handled by a software handler.
    pub miss_sw_directory: Cycles,
    /// Number of hardware directory pointers before LimitLESS overflow.
    pub dir_hw_pointers: usize,

    // --- Software address translation, Table 3 group 2 ---
    /// Inline translation for a distributed-array access.
    pub xlate_array: Cycles,
    /// Inline translation for a pointer dereference (must additionally
    /// discriminate virtual from physical addresses).
    pub xlate_pointer: Cycles,

    // --- Active message layer ---
    /// Marshal + launch an inter-SSMP active message.
    pub msg_send: Cycles,
    /// Handler dispatch at the receiving processor.
    pub msg_recv: Cycles,
    /// An intra-SSMP message (handler invocation through the internal
    /// network; used by the Local Client → Remote Client path).
    pub intra_msg: Cycles,

    // --- Local Client ---
    /// Trap + dispatch into the Local Client on a TLB fault.
    pub fault_entry: Cycles,
    /// Return from the fault handler.
    pub fault_exit: Cycles,
    /// Acquire the per-mapping page-table lock (spin path).
    pub pt_lock: Cycles,
    /// Page-table walk to locate a local mapping.
    pub pt_walk: Cycles,
    /// Install a mapping into the software TLB.
    pub tlb_insert: Cycles,
    /// Enter the BUSY state and marshal a request for a missing page.
    pub lc_miss_setup: Cycles,
    /// Complete a page-fill transaction (unlock, wake local waiters).
    pub lc_finish: Cycles,
    /// Allocate and map a physical page at the client.
    pub page_install: Cycles,
    /// Copy one 8-byte word when creating a twin (software copy loop on
    /// data that just arrived via DMA, i.e. uncached).
    pub twin_per_word: Cycles,
    /// Append a page to the delayed update queue.
    pub duq_insert: Cycles,

    // --- Server ---
    /// Server-side processing of an RREQ.
    pub server_read: Cycles,
    /// Server-side processing of a WREQ (write-tracking setup).
    pub server_write: Cycles,
    /// Server-side processing of a REL (directory walk, enter
    /// REL_IN_PROG).
    pub server_rel: Cycles,
    /// Finalize a release once all acknowledgements have arrived
    /// (merge bookkeeping, reply generation).
    pub server_merge: Cycles,
    /// Server-side processing of a WNOTIFY (read → write directory
    /// move).
    pub server_wnotify: Cycles,

    // --- Remote Client ---
    /// Dispatch into the Remote Client for INV/1WINV handling.
    pub rc_entry: Cycles,
    /// Interrupt a processor to invalidate one TLB entry (PINV).
    pub pinv: Cycles,
    /// Acknowledge a TLB invalidation (PINV_ACK).
    pub pinv_ack: Cycles,
    /// Remote-Client side of an UPGRADE request (privilege change
    /// bookkeeping, excluding the twin copy).
    pub rc_upgrade: Cycles,

    // --- Release ---
    /// Initiate a release (pop the DUQ head, marshal REL).
    pub rel_entry: Cycles,
    /// Complete a release after the RACK has been processed.
    pub rel_finish: Cycles,

    // --- Data movement ---
    /// DMA transfer cost per 8-byte word (page data in messages).
    pub dma_per_word: Cycles,
    /// Page cleaning per cache line when no lines are dirty.
    pub clean_line_clean: Cycles,
    /// Page cleaning per cache line when lines are dirty in caches.
    pub clean_line_dirty: Cycles,
    /// Diff computation per word (compare page against twin).
    pub diff_per_word: Cycles,
    /// Diff data transfer per changed word.
    pub diff_data_per_word: Cycles,
    /// Diff application per changed word at the home.
    pub diff_apply_per_word: Cycles,
    /// Fixed overhead to set up one diff computation.
    pub diff_setup: Cycles,

    // --- Synchronization ---
    /// Acquire a local lock whose SSMP already owns the token.
    pub lock_local_acquire: Cycles,
    /// Release a lock to a waiter in the same SSMP.
    pub lock_local_release: Cycles,
    /// Fixed software overhead of a token transfer between SSMPs
    /// (global-lock bookkeeping at both ends, excluding the two
    /// message crossings).
    pub lock_token_fixed: Cycles,
    /// Toggle one flag level of the intra-SSMP barrier tree.
    pub barrier_flag: Cycles,
    /// Fixed per-barrier-episode software overhead at each processor.
    pub barrier_fixed: Cycles,
    /// Handler cost per SSMP at the root of the inter-SSMP barrier
    /// combine.
    pub barrier_ssmp_handler: Cycles,
}

impl CostModel {
    /// The calibrated default model (20 MHz Alewife, Table 3).
    pub fn alewife() -> CostModel {
        CostModel {
            cache_hit: Cycles(2),
            miss_local: Cycles(11),
            miss_remote: Cycles(38),
            miss_two_party: Cycles(42),
            miss_three_party: Cycles(63),
            miss_sw_directory: Cycles(425),
            dir_hw_pointers: 5,

            xlate_array: Cycles(18),
            xlate_pointer: Cycles(24),

            msg_send: Cycles(250),
            msg_recv: Cycles(180),
            intra_msg: Cycles(100),

            fault_entry: Cycles(250),
            fault_exit: Cycles(175),
            pt_lock: Cycles(150),
            pt_walk: Cycles(350),
            tlb_insert: Cycles(112),
            lc_miss_setup: Cycles(350),
            lc_finish: Cycles(250),
            page_install: Cycles(450),
            twin_per_word: Cycles(40),
            duq_insert: Cycles(100),

            server_read: Cycles(673),
            server_write: Cycles(962),
            server_rel: Cycles(164),
            server_merge: Cycles(150),
            server_wnotify: Cycles(200),

            rc_entry: Cycles(408),
            pinv: Cycles(120),
            pinv_ack: Cycles(80),
            rc_upgrade: Cycles(300),

            rel_entry: Cycles(200),
            rel_finish: Cycles(120),

            dma_per_word: Cycles(14),
            clean_line_clean: Cycles(30),
            clean_line_dirty: Cycles(90),
            diff_per_word: Cycles(30),
            diff_data_per_word: Cycles(14),
            diff_apply_per_word: Cycles(13),
            diff_setup: Cycles(54),

            lock_local_acquire: Cycles(50),
            lock_local_release: Cycles(30),
            lock_token_fixed: Cycles(600),
            barrier_flag: Cycles(20),
            barrier_fixed: Cycles(200),
            barrier_ssmp_handler: Cycles(150),
        }
    }

    /// Per-line page-cleaning cost for the given tier.
    pub fn clean_per_line(&self, tier: CleanTier) -> Cycles {
        match tier {
            CleanTier::Clean => self.clean_line_clean,
            CleanTier::Dirty => self.clean_line_dirty,
        }
    }

    /// Cost of cleaning a whole page of `lines` cache lines.
    pub fn page_clean_cost(&self, lines: u64, tier: CleanTier) -> Cycles {
        self.clean_per_line(tier) * lines
    }

    /// Cost of transferring a page of `words` 8-byte words via DMA.
    pub fn page_dma_cost(&self, words: u64) -> Cycles {
        self.dma_per_word * words
    }

    /// Cost of twinning a page of `words` words.
    pub fn twin_cost(&self, words: u64) -> Cycles {
        self.twin_per_word * words
    }

    /// Cost of computing a diff over `words` words.
    ///
    /// Charged per **page** word, not per changed word: the modeled
    /// Alewife software diff walks the whole page against its twin
    /// regardless of how much changed. The charge is a function of the
    /// page size only, so which host-side kernel produced the diff
    /// (the per-word reference kernel or the chunked span kernel)
    /// cannot affect simulated cycles.
    pub fn diff_compute_cost(&self, words: u64) -> Cycles {
        self.diff_setup + self.diff_per_word * words
    }

    /// Cost of transferring and applying a diff of `changed` words.
    ///
    /// `changed` is the count of words whose values differ from the
    /// twin — a property of the page contents, on which the reference
    /// and span kernels agree exactly (gated by the oracle-equivalence
    /// tests) — so this charge, too, is kernel-independent.
    pub fn diff_transfer_apply_cost(&self, changed: u64) -> Cycles {
        (self.diff_data_per_word + self.diff_apply_per_word) * changed
    }

    /// One inter-SSMP message crossing: send + wire latency + receive.
    pub fn crossing(&self, ext_latency: Cycles) -> Cycles {
        self.msg_send + ext_latency + self.msg_recv
    }

    // ------------------------------------------------------------------
    // Composite costs
    // ------------------------------------------------------------------

    /// TLB fill: a fault that finds a mapping in the local SSMP
    /// (state-transition arc 1 of the protocol). Table 3: 1037 cycles.
    pub fn tlb_fill_cost(&self) -> Cycles {
        self.fault_entry + self.pt_lock + self.pt_walk + self.tlb_insert + self.fault_exit
    }
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel::alewife()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_hardware_shared_memory() {
        let cm = CostModel::alewife();
        assert_eq!(cm.miss_local, Cycles(11));
        assert_eq!(cm.miss_remote, Cycles(38));
        assert_eq!(cm.miss_two_party, Cycles(42));
        assert_eq!(cm.miss_three_party, Cycles(63));
        assert_eq!(cm.miss_sw_directory, Cycles(425));
    }

    #[test]
    fn table3_translation() {
        let cm = CostModel::alewife();
        assert_eq!(cm.xlate_array, Cycles(18));
        assert_eq!(cm.xlate_pointer, Cycles(24));
    }

    #[test]
    fn table3_tlb_fill() {
        assert_eq!(CostModel::alewife().tlb_fill_cost(), Cycles(1037));
    }

    #[test]
    fn clean_tiers_are_ordered() {
        let cm = CostModel::alewife();
        assert!(cm.clean_per_line(CleanTier::Dirty) > cm.clean_per_line(CleanTier::Clean));
    }

    #[test]
    fn default_is_alewife() {
        assert_eq!(CostModel::default(), CostModel::alewife());
    }
}
