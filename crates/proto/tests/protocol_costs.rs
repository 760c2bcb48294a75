//! Exact-cost tests: the executed protocol reproduces the composite
//! reference costs below (and hence Table 3 of the paper) when driven
//! through the same scenarios as the paper's micro-benchmarks.

use mgs_proto::{MgsProtocol, ProtoConfig, RecordingTiming};
use mgs_sim::{CleanTier, CostModel, Cycles};
use reference::*;

const WORDS: u64 = 128;
const LINES: u64 = 64;

/// The reference decompositions of Table 3's inter-SSMP rows: sums of
/// [`CostModel`] components, written independently of the protocol's
/// piecewise charges so each side checks the other.
mod reference {
    use super::*;

    /// Inter-SSMP read miss: fault → RREQ → server (clean home copy,
    /// DMA out) → RDAT → install + map (arcs 5, 17, 6).
    ///
    /// Table 3: 6982 cycles at zero external latency, 1 KB pages
    /// (`words = 128`, `lines = 64`).
    pub fn read_miss_cost(cm: &CostModel, ext_latency: Cycles, words: u64, lines: u64) -> Cycles {
        cm.fault_entry
            + cm.pt_lock
            + cm.lc_miss_setup
            + cm.crossing(ext_latency) // RREQ
            + cm.server_read
            + cm.page_clean_cost(lines, CleanTier::Clean) // gather a globally coherent home image
            + cm.page_dma_cost(words)
            + cm.crossing(ext_latency) // RDAT
            + cm.page_install
            + cm.lc_finish
            + cm.tlb_insert
            + cm.fault_exit
    }

    /// Inter-SSMP write miss: like a read miss, but the home copy of a
    /// write-shared page must be cleaned at the dirty tier, the server
    /// sets up write tracking, and the client twins the incoming page
    /// and enqueues it on the DUQ (arcs 5, 18, 7).
    ///
    /// Table 3: 16331 cycles at zero external latency, 1 KB pages.
    pub fn write_miss_cost(cm: &CostModel, ext_latency: Cycles, words: u64, lines: u64) -> Cycles {
        cm.fault_entry
            + cm.pt_lock
            + cm.lc_miss_setup
            + cm.crossing(ext_latency) // WREQ
            + cm.server_write
            + cm.page_clean_cost(lines, CleanTier::Dirty)
            + cm.page_dma_cost(words)
            + cm.crossing(ext_latency) // WDAT
            + cm.page_install
            + cm.twin_cost(words)
            + cm.duq_insert
            + cm.lc_finish
            + cm.tlb_insert
            + cm.fault_exit
    }

    /// Release with a single writer SSMP (the single-writer
    /// optimization path: 1WINV / 1WDATA, arcs 8, 20, 14, 16, 23, 9).
    /// The writer cleans its copy and ships the whole page; the home
    /// cleans its own copy and overwrites it.
    ///
    /// Table 3: 14226 cycles at zero external latency, 1 KB pages,
    /// one mapping processor at the writer.
    pub fn release_one_writer_cost(
        cm: &CostModel,
        ext_latency: Cycles,
        words: u64,
        lines: u64,
    ) -> Cycles {
        cm.rel_entry
            + cm.crossing(ext_latency) // REL
            + cm.server_rel
            + cm.crossing(ext_latency) // 1WINV
            + cm.rc_entry
            + cm.page_clean_cost(lines, CleanTier::Dirty)
            + cm.pinv
            + cm.pinv_ack
            + cm.page_dma_cost(words) // 1WDATA out
            + cm.crossing(ext_latency)
            + cm.page_clean_cost(lines, CleanTier::Clean) // home copy
            + cm.page_dma_cost(words) // copy into home
            + cm.server_merge
            + cm.crossing(ext_latency) // RACK
            + cm.rel_finish
    }

    /// Release with `writers >= 2` writer SSMPs: each is invalidated in
    /// turn, cleans its copy, computes a diff of `changed_words`, and
    /// ships it to the home where it is applied (arcs 8, 20, 14, 16,
    /// 22, 23, 9).
    ///
    /// Table 3: 32570 cycles for two writers with full-page diffs at
    /// zero external latency, 1 KB pages.
    pub fn release_multi_writer_cost(
        cm: &CostModel,
        ext_latency: Cycles,
        words: u64,
        lines: u64,
        writers: u64,
        changed_words: u64,
    ) -> Cycles {
        let per_writer = cm.crossing(ext_latency) // INV
            + cm.rc_entry
            + cm.page_clean_cost(lines, CleanTier::Dirty)
            + cm.pinv
            + cm.pinv_ack
            + cm.diff_compute_cost(words)
            + cm.crossing(ext_latency) // DIFF
            + cm.diff_transfer_apply_cost(changed_words);
        cm.rel_entry
            + cm.crossing(ext_latency) // REL
            + cm.server_rel
            + per_writer * writers
            + cm.page_clean_cost(lines, CleanTier::Clean) // home copy
            + cm.server_merge
            + cm.crossing(ext_latency) // RACK
            + cm.rel_finish
    }

    #[test]
    fn table3_rows() {
        let cm = CostModel::alewife();
        let zero = Cycles::ZERO;
        assert_eq!(read_miss_cost(&cm, zero, WORDS, LINES), Cycles(6982));
        assert_eq!(write_miss_cost(&cm, zero, WORDS, LINES), Cycles(16331));
        assert_eq!(
            release_one_writer_cost(&cm, zero, WORDS, LINES),
            Cycles(14226)
        );
        let two_writers = release_multi_writer_cost(&cm, zero, WORDS, LINES, 2, WORDS);
        assert_eq!(two_writers, Cycles(32570));
    }

    #[test]
    fn external_latency_adds_per_crossing() {
        let cm = CostModel::alewife();
        let base = read_miss_cost(&cm, Cycles::ZERO, WORDS, LINES);
        let with = read_miss_cost(&cm, Cycles(1000), WORDS, LINES);
        // A read miss has exactly two inter-SSMP crossings (RREQ, RDAT).
        assert_eq!(with, base + Cycles(2000));
    }

    #[test]
    fn release_crossing_counts() {
        let cm = CostModel::alewife();
        let one = |ext| release_one_writer_cost(&cm, ext, WORDS, LINES);
        let two = |ext| release_multi_writer_cost(&cm, ext, WORDS, LINES, 2, WORDS);
        // 1-writer release: REL, 1WINV, 1WDATA, RACK = 4 crossings.
        assert_eq!(one(Cycles(100)) - one(Cycles::ZERO), Cycles(400));
        // 2-writer release: REL, 2×(INV, DIFF), RACK = 6 crossings.
        assert_eq!(two(Cycles(100)) - two(Cycles::ZERO), Cycles(600));
    }

    #[test]
    fn smaller_diffs_are_cheaper() {
        let cm = CostModel::alewife();
        let small = release_multi_writer_cost(&cm, Cycles::ZERO, WORDS, LINES, 2, 4);
        let full = release_multi_writer_cost(&cm, Cycles::ZERO, WORDS, LINES, 2, WORDS);
        assert!(small < full);
    }
}

fn setup() -> (MgsProtocol, RecordingTiming, CostModel) {
    let cfg = ProtoConfig::new(2, 2);
    let cost = cfg.cost.clone();
    (
        MgsProtocol::new(cfg),
        RecordingTiming::new(cost.clone(), Cycles::ZERO),
        cost,
    )
}

#[test]
fn tlb_fill_costs_1037() {
    let (p, mut t, cost) = setup();
    p.fault(2, 0, false, &mut t);
    t.reset();
    p.fault(3, 0, false, &mut t); // same SSMP: pure TLB fill
    assert_eq!(t.elapsed(), cost.tlb_fill_cost());
    assert_eq!(t.elapsed(), Cycles(1037));
}

#[test]
fn inter_ssmp_read_miss_costs_6982() {
    let (p, mut t, cost) = setup();
    // Fresh page: the home copy is uncached, so page cleaning runs at
    // the clean tier, exactly as in the paper's micro-benchmark.
    p.fault(2, 0, false, &mut t);
    assert_eq!(
        t.elapsed(),
        read_miss_cost(&cost, Cycles::ZERO, WORDS, LINES)
    );
    assert_eq!(t.elapsed(), Cycles(6982));
}

#[test]
fn inter_ssmp_write_miss_costs_16331() {
    let (p, mut t, cost) = setup();
    // The write-miss micro-benchmark runs on a write-shared page whose
    // home lines are dirty in the home SSMP's caches.
    p.dirty_home_lines(0);
    p.fault(2, 0, true, &mut t);
    assert_eq!(
        t.elapsed(),
        write_miss_cost(&cost, Cycles::ZERO, WORDS, LINES)
    );
    assert_eq!(t.elapsed(), Cycles(16331));
}

#[test]
fn release_one_writer_costs_14226() {
    let (p, mut t, cost) = setup();
    let e = p.fault(2, 0, true, &mut t);
    e.frame.store(0, 1);
    // The writer's cached lines are dirty (it wrote the whole page in
    // the micro-benchmark).
    p.dirty_client_lines(1, 0);
    t.reset();
    p.release_all(2, &mut t);
    assert_eq!(
        t.elapsed(),
        release_one_writer_cost(&cost, Cycles::ZERO, WORDS, LINES)
    );
    assert_eq!(t.elapsed(), Cycles(14226));
}

#[test]
fn release_two_writers_costs_32570() {
    let cfg = ProtoConfig::new(3, 2);
    let cost = cfg.cost.clone();
    let p = MgsProtocol::new(cfg);
    let mut t = RecordingTiming::new(cost.clone(), Cycles::ZERO);
    // Two writer SSMPs (1 and 2), page homed at SSMP 0, full-page
    // writes so the diffs carry the whole page.
    let e1 = p.fault(2, 0, true, &mut t);
    let e2 = p.fault(4, 0, true, &mut t);
    for w in 0..WORDS {
        e1.frame.store(w, w + 1);
        e2.frame.store(w, w + 2);
    }
    p.dirty_client_lines(1, 0);
    p.dirty_client_lines(2, 0);
    t.reset();
    p.release_all(2, &mut t);
    assert_eq!(
        t.elapsed(),
        release_multi_writer_cost(&cost, Cycles::ZERO, WORDS, LINES, 2, WORDS)
    );
    assert_eq!(t.elapsed(), Cycles(32570));
}

#[test]
fn external_latency_is_charged_per_crossing() {
    let cfg = ProtoConfig::new(2, 2);
    let cost = cfg.cost.clone();
    let p = MgsProtocol::new(cfg);
    let mut t = RecordingTiming::new(cost.clone(), Cycles(1000));
    p.fault(2, 0, false, &mut t);
    // A read miss crosses the LAN twice (RREQ, RDAT).
    assert_eq!(
        t.elapsed(),
        read_miss_cost(&cost, Cycles(1000), WORDS, LINES)
    );
    assert_eq!(t.crossings(), 2);
}

#[test]
fn smaller_pages_cost_less() {
    let mut cfg = ProtoConfig::new(2, 2);
    cfg.geometry = mgs_vm::PageGeometry::new(512);
    let cost = cfg.cost.clone();
    let p = MgsProtocol::new(cfg);
    let mut t = RecordingTiming::new(cost.clone(), Cycles::ZERO);
    p.fault(2, 0, false, &mut t);
    assert_eq!(t.elapsed(), read_miss_cost(&cost, Cycles::ZERO, 64, 32));
    assert!(t.elapsed() < read_miss_cost(&cost, Cycles::ZERO, WORDS, LINES));
}

#[test]
fn sparse_diffs_are_cheaper_than_full_page_diffs() {
    // Release cost scales with the number of changed words.
    let run = |writes: u64| {
        let mut cfg = ProtoConfig::new(3, 2);
        cfg.single_writer_opt = false;
        let cost = cfg.cost.clone();
        let p = MgsProtocol::new(cfg);
        let mut t = RecordingTiming::new(cost, Cycles::ZERO);
        let e = p.fault(2, 0, true, &mut t);
        for w in 0..writes {
            e.frame.store(w, w + 1);
        }
        t.reset();
        p.release_all(2, &mut t);
        t.elapsed()
    };
    assert!(run(4) < run(WORDS));
}
