//! Behavioural tests for the MGS protocol engines, arc by arc.

use mgs_obs::{ObsEvent, XactKind};
use mgs_proto::{ClientState, MgsProtocol, ProtoConfig, RecordingTiming};
use mgs_sim::{CostModel, Cycles};

mod common;
use common::Tlbs;

/// 4 SSMPs × 2 processors; pages are homed round-robin over the 8
/// processors, so page 0 is homed at processor 0 (SSMP 0).
fn proto(n_ssmps: usize, c: usize) -> MgsProtocol {
    MgsProtocol::new(ProtoConfig::new(n_ssmps, c))
}

fn timing() -> RecordingTiming {
    RecordingTiming::new(CostModel::alewife(), Cycles::ZERO)
}

#[test]
fn read_fault_installs_read_only_mapping() {
    let p = proto(4, 2);
    let (mut t, mut tlbs) = (timing(), Tlbs::new(&p));
    let e = tlbs.fault(&p, 2, 0, false, &mut t); // proc 2 = SSMP 1
    assert!(!e.writable);
    assert_eq!(p.client_state(1, 0), ClientState::Read);
    assert_eq!(p.server_dirs(0).read_dir, 0b0010);
    assert_eq!(p.stats().read_misses.get(), 1);
    assert!(tlbs.mapped(2, 0, false).is_some());
    assert!(tlbs.mapped(2, 0, true).is_none());
}

#[test]
fn write_fault_installs_writable_mapping_and_duq_entry() {
    let p = proto(4, 2);
    let mut t = timing();
    let e = p.fault(2, 0, true, &mut t);
    assert!(e.writable);
    assert_eq!(p.client_state(1, 0), ClientState::Write);
    assert_eq!(p.server_dirs(0).write_dir, 0b0010);
    assert!(p.queued(2, 0));
    assert_eq!(p.stats().write_misses.get(), 1);
}

#[test]
fn data_flows_from_home_to_client() {
    let p = proto(2, 2);
    let mut t = timing();
    p.home_frame(5).store(7, 0xABCD);
    // Page 5 is homed at proc 1 (SSMP 0); proc 2 is in SSMP 1.
    let e = p.fault(2, 5, false, &mut t);
    assert_eq!(e.frame.load(7), 0xABCD);
    // The client received a *copy*, not the home frame itself.
    assert_ne!(e.frame.base(), p.home_frame(5).base());
}

#[test]
fn home_ssmp_maps_home_copy_directly() {
    let p = proto(2, 2);
    let mut t = timing();
    // Page 0 homed at proc 0 (SSMP 0); proc 1 is in SSMP 0.
    let e = p.fault(1, 0, false, &mut t);
    assert_eq!(e.frame.base(), p.home_frame(0).base());
    // No inter-SSMP messages were needed.
    assert_eq!(t.crossings(), 0);
}

#[test]
fn second_local_processor_reuses_mapping() {
    let p = proto(2, 4);
    let mut t = timing();
    p.fault(4, 0, false, &mut t); // SSMP 1 fetches the page
    t.reset();
    let e = p.fault(5, 0, false, &mut t); // same SSMP: arc 1 TLB fill
    assert!(e.frame.load(0) == 0);
    assert_eq!(t.crossings(), 0, "TLB fill must stay within the SSMP");
    assert_eq!(p.stats().tlb_fills.get(), 1);
    assert_eq!(t.elapsed(), CostModel::alewife().tlb_fill_cost());
}

#[test]
fn read_then_write_upgrades_privilege() {
    let p = proto(2, 2);
    let mut t = timing();
    p.fault(2, 0, false, &mut t);
    assert_eq!(p.client_state(1, 0), ClientState::Read);
    p.fault(2, 0, true, &mut t);
    assert_eq!(p.client_state(1, 0), ClientState::Write);
    assert_eq!(p.stats().upgrades.get(), 1);
    let dirs = p.server_dirs(0);
    assert_eq!(dirs.read_dir, 0, "WNOTIFY moves src out of read_dir");
    assert_eq!(dirs.write_dir, 0b0010);
    assert!(p.queued(2, 0));
}

#[test]
fn single_writer_release_updates_home_and_keeps_copy() {
    let p = proto(2, 2);
    let (mut t, mut tlbs) = (timing(), Tlbs::new(&p));
    let e = tlbs.fault(&p, 2, 0, true, &mut t);
    e.frame.store(3, 99);
    p.release_all(2, &mut t);
    assert_eq!(p.home_frame(0).load(3), 99);
    // Single-writer optimization: the copy remains cached...
    assert_eq!(p.client_state(1, 0), ClientState::Write);
    // ...but the mappings are gone.
    assert!(tlbs.mapped(2, 0, false).is_none());
    assert!(!p.queued(2, 0));
    // The server still tracks the writer (Table 1 erratum).
    assert_eq!(p.server_dirs(0).write_dir, 0b0010);
    assert_eq!(p.stats().single_writer_flushes.get(), 1);
    assert_eq!(p.stats().diffs.get(), 0, "no diff on the 1WDATA path");
}

#[test]
fn kept_copy_is_remapped_with_a_cheap_tlb_fill() {
    let p = proto(2, 2);
    let mut t = timing();
    let e = p.fault(2, 0, true, &mut t);
    e.frame.store(0, 1);
    p.release_all(2, &mut t);
    t.reset();
    let e2 = p.fault(2, 0, true, &mut t);
    assert_eq!(t.crossings(), 0, "re-mapping a kept copy is SSMP-local");
    assert_eq!(e2.frame.base(), e.frame.base(), "same physical copy");
}

#[test]
fn single_writer_optimization_can_be_disabled() {
    let mut cfg = ProtoConfig::new(2, 2);
    cfg.single_writer_opt = false;
    let p = MgsProtocol::new(cfg);
    let mut t = timing();
    let e = p.fault(2, 0, true, &mut t);
    e.frame.store(3, 77);
    p.release_all(2, &mut t);
    assert_eq!(p.home_frame(0).load(3), 77);
    // Without the optimization the copy is invalidated and a diff is
    // used.
    assert_eq!(p.client_state(1, 0), ClientState::Inv);
    assert_eq!(p.stats().single_writer_flushes.get(), 0);
    assert_eq!(p.stats().diffs.get(), 1);
}

#[test]
fn two_writers_merge_disjoint_diffs() {
    let p = proto(4, 2);
    let mut t = timing();
    // Page 0 homed at SSMP 0; writers in SSMPs 1 and 2.
    let e1 = p.fault(2, 0, true, &mut t);
    let e2 = p.fault(4, 0, true, &mut t);
    e1.frame.store(1, 11);
    e2.frame.store(2, 22);
    p.release_all(2, &mut t);
    let home = p.home_frame(0);
    assert_eq!(home.load(1), 11);
    assert_eq!(home.load(2), 22);
    // Multi-writer release invalidates everyone and clears the dirs.
    assert_eq!(p.client_state(1, 0), ClientState::Inv);
    assert_eq!(p.client_state(2, 0), ClientState::Inv);
    assert_eq!(p.server_dirs(0).all(), 0);
    assert_eq!(p.stats().diffs.get(), 2);
    assert_eq!(p.stats().diff_words.get(), 2);
}

#[test]
fn release_prunes_other_writers_duqs() {
    let p = proto(4, 2);
    let mut t = timing();
    p.fault(2, 0, true, &mut t);
    p.fault(4, 0, true, &mut t);
    assert!(p.queued(4, 0));
    p.release_all(2, &mut t); // invalidates SSMP 2's copy too (arc 12)
    assert!(!p.queued(4, 0), "PINV prunes the page from DUQs");
    // Processor 4's release now has nothing to do.
    t.reset();
    p.release_all(4, &mut t);
    assert_eq!(t.elapsed(), Cycles::ZERO);
}

#[test]
fn remote_release_shoots_down_reader_tlbs() {
    let p = proto(4, 2);
    let (mut t, mut tlbs) = (timing(), Tlbs::new(&p));
    tlbs.fault(&p, 2, 0, false, &mut t); // reader in SSMP 1
    tlbs.fault(&p, 4, 0, true, &mut t); // writer in SSMP 2
    assert!(tlbs.mapped(2, 0, false).is_some());
    p.release_all(4, &mut t);
    // Eager invalidation: the reader's mapping and copy are gone.
    assert!(tlbs.mapped(2, 0, false).is_none());
    assert_eq!(p.client_state(1, 0), ClientState::Inv);
    // The reader re-faults and sees the new data.
    let home = p.home_frame(0);
    assert_eq!(home.load(0), 0);
}

#[test]
fn reader_sees_writes_after_release() {
    let p = proto(4, 2);
    let mut t = timing();
    let w = p.fault(2, 0, true, &mut t);
    w.frame.store(10, 123);
    p.release_all(2, &mut t);
    let r = p.fault(4, 0, false, &mut t);
    assert_eq!(r.frame.load(10), 123);
}

#[test]
fn overlapping_writes_converge_to_a_released_value() {
    let p = proto(4, 2);
    let mut t = timing();
    let e1 = p.fault(2, 0, true, &mut t);
    let e2 = p.fault(4, 0, true, &mut t);
    e1.frame.store(0, 1);
    e2.frame.store(0, 2);
    p.release_all(2, &mut t);
    let v = p.home_frame(0).load(0);
    assert!(v == 1 || v == 2, "racy writes merge to one of the values");
}

#[test]
fn writes_by_home_processors_survive_remote_merges() {
    let p = proto(2, 2);
    let mut t = timing();
    // Home processor maps and writes word 0 directly in the home copy.
    let h = p.fault(0, 0, true, &mut t);
    h.frame.store(0, 5);
    // Remote writer changes word 1 only.
    let r = p.fault(2, 0, true, &mut t);
    r.frame.store(1, 6);
    p.release_all(2, &mut t);
    let home = p.home_frame(0);
    assert_eq!(home.load(0), 5, "diff merge must not clobber home words");
    assert_eq!(home.load(1), 6);
}

#[test]
fn upgraded_page_diffs_against_twin_from_upgrade_time() {
    let p = proto(2, 2);
    let mut t = timing();
    // Reader fetches the page when word 0 is 0.
    let e = p.fault(2, 0, false, &mut t);
    assert_eq!(e.frame.load(0), 0);
    // Upgrade, then write.
    let e = p.fault(2, 0, true, &mut t);
    e.frame.store(0, 9);
    p.release_all(2, &mut t);
    assert_eq!(p.home_frame(0).load(0), 9);
}

#[test]
fn stats_count_pinvs_per_mapping_processor() {
    let p = proto(2, 4);
    let mut t = timing();
    // Three processors of SSMP 1 map the page.
    p.fault(4, 0, true, &mut t);
    p.fault(5, 0, false, &mut t);
    p.fault(6, 0, false, &mut t);
    p.release_all(4, &mut t);
    assert_eq!(p.stats().pinvs.get(), 3);
}

#[test]
fn concurrent_faults_from_one_ssmp_share_one_fill() {
    use std::sync::Arc;
    let p = Arc::new(proto(2, 4));
    let mut handles = Vec::new();
    for proc in 4..8 {
        let p = Arc::clone(&p);
        handles.push(std::thread::spawn(move || {
            let mut t = timing();
            let e = p.fault(proc, 0, false, &mut t);
            e.frame.load(0)
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), 0);
    }
    // All four processors mapped the page, but only one inter-SSMP
    // fill happened.
    assert_eq!(p.stats().read_misses.get(), 1);
    assert_eq!(p.stats().tlb_fills.get(), 3);
}

#[test]
fn release_of_read_only_page_invalidates_readers() {
    let p = proto(4, 2);
    let mut t = timing();
    p.fault(2, 0, false, &mut t);
    p.fault(4, 0, false, &mut t);
    // Force a release on the page directly (arc 21).
    p.release_page(0, 0, &mut t);
    assert_eq!(p.client_state(1, 0), ClientState::Inv);
    assert_eq!(p.client_state(2, 0), ClientState::Inv);
    assert_eq!(p.server_dirs(0).all(), 0);
}

#[test]
fn distinct_pages_have_distinct_homes() {
    let p = proto(4, 2);
    let cfg = p.config();
    // 8 processors: pages 0..8 are homed at processors 0..8.
    for page in 0..8 {
        assert_eq!(cfg.home_node(page), page as usize);
    }
    assert_eq!(cfg.home_ssmp(0), 0);
    assert_eq!(cfg.home_ssmp(7), 3);
}

#[test]
fn churn_departure_rehomes_the_page_with_its_data() {
    let p = proto(4, 1);
    let mut t = timing();
    // SSMP 1 releases a word of page 0 (homed at SSMP 0), which departs.
    p.fault(1, 0, true, &mut t).frame.store(3, 9);
    p.release_all(1, &mut t);
    assert_eq!(p.depart_ssmp(0, 2, &mut t), Ok(1));
    assert_eq!(p.home_node(0), 2, "the page's state holds its new home");
    assert_eq!(p.home_frame(0).home_node(), 2);
    assert_eq!(p.home_frame(0).load(3), 9);
    assert_eq!(p.server_dirs(0).write_dir, 0b0010, "SSMP 1 keeps its copy");
}

/// The pages `t` saw released, in order.
fn released(t: &RecordingTiming) -> Vec<u64> {
    let release = |e: &ObsEvent| match *e {
        ObsEvent::XactBegin {
            xact: XactKind::Release,
            page,
        } => Some(page),
        _ => None,
    };
    t.events().iter().filter_map(release).collect()
}

#[test]
fn duq_releases_pages_in_queueing_order() {
    let p = proto(4, 2);
    let mut t = timing();
    for page in [3, 1, 2] {
        p.fault(2, page, true, &mut t);
    }
    t.reset();
    p.release_all(2, &mut t);
    assert_eq!(released(&t), [3, 1, 2]);
}

#[test]
fn a_page_already_queued_is_not_queued_again() {
    let p = proto(4, 2);
    let mut t = timing();
    p.fault(2, 0, true, &mut t);
    // A second write fault finds the WRITE copy (arc 3) and the page
    // still queued: a bare TLB fill, no DUQ insert.
    t.reset();
    p.fault(2, 0, true, &mut t);
    assert_eq!(t.elapsed(), CostModel::alewife().tlb_fill_cost());
    assert!(p.queued(2, 0));
    t.reset();
    p.release_all(2, &mut t);
    assert_eq!(released(&t), [0]);
    assert!(!p.queued(2, 0));
}

#[test]
fn a_pruned_page_written_again_releases_at_the_back() {
    let p = proto(4, 2);
    let mut t = timing();
    p.fault(2, 0, true, &mut t);
    p.fault(2, 1, true, &mut t);
    // SSMP 2's release of page 0 invalidates SSMP 1's copy (arc 12).
    p.fault(4, 0, true, &mut t);
    p.release_all(4, &mut t);
    assert!(!p.queued(2, 0) && p.queued(2, 1));
    p.fault(2, 0, true, &mut t);
    t.reset();
    p.release_all(2, &mut t);
    assert_eq!(released(&t), [1, 0]);
}
