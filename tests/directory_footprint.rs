//! The line directories are as large as the frames that are alive: a
//! page frame owns its directory blocks until it drops, so a copy the
//! protocol retires without a page clean (home-LRC's stale copies, a
//! pinned page's stale reader) gives its entries back with its frame.
//! And the runtime's accesses reach those blocks through the frame,
//! never through the directory's index.

use mgs_repro::apps::{water::Water, MgsApp};
use mgs_repro::core::{AccessKind, DssmpConfig, Machine, ProtocolKind};
use mgs_repro::proto::ClientState;
use mgs_repro::sim::Cycles;
use std::sync::Arc;

/// After a home-LRC Water run, the lines each SSMP's directory tracks
/// are no more than the lines of the frames its processors can still
/// reach: the home copies homed in it and the copies it holds.
#[test]
fn after_a_home_lrc_run_directories_track_only_live_frames() {
    for c in [2usize, 4] {
        let mut cfg = DssmpConfig::new(8, c).with_protocol(ProtocolKind::HomeLrc);
        cfg.workers = Some(1);
        cfg.governor_window = Some(Cycles(2_000));
        let machine = Machine::new(cfg);
        Water::small().execute(&machine);
        let proto = machine.protocol();
        assert!(proto.stats().lazy_notices.get() > 0, "copies went stale");
        let geometry = machine.config().geometry;
        // Every page the run used lies below the next allocation.
        let end = machine.alloc_array_pages::<u64>(1, AccessKind::DistArray);
        let pages = geometry.page_of(end.range().vbase());
        let n_ssmps = machine.config().n_ssmps();
        let mut live = vec![0u64; n_ssmps];
        for page in 0..pages {
            let home = proto.home_node(page) / c;
            live[home] += 1;
            for (ssmp, frames) in live.iter_mut().enumerate() {
                if ssmp != home && proto.client_state(ssmp, page) != ClientState::Inv {
                    *frames += 1;
                }
            }
        }
        for (ssmp, frames) in live.iter().enumerate() {
            let tracked = proto.cache_system(ssmp).directory().tracked_lines() as u64;
            let bound = frames * geometry.lines_per_page();
            assert!(
                tracked <= bound,
                "C = {c}, SSMP {ssmp}: {tracked} lines tracked, {bound} in live frames"
            );
        }
    }
}

/// A lock-protected migratory counter and a barrier on a one-worker
/// machine: faults, upgrades, releases, invalidations and every access
/// between them run on the one host thread, and none asks a directory's
/// index (debug builds count index acquisitions per thread).
#[test]
#[cfg(debug_assertions)]
fn runtime_accesses_never_take_the_directory_index() {
    use mgs_repro::cache::Directory;
    use std::sync::atomic::{AtomicU64, Ordering};
    let machine = Machine::new(DssmpConfig::new(4, 2).with_virtual_engine(Some(1)));
    let counter = machine.alloc_array::<u64>(256, AccessKind::DistArray);
    let lock = machine.new_lock();
    let index_locks = Arc::new(AtomicU64::new(u64::MAX));
    let seen = Arc::clone(&index_locks);
    machine.run(move |env| {
        let before = Directory::thread_locks().1;
        for round in 0..8 {
            env.acquire(&lock);
            let v = counter.read(env, round);
            counter.write(env, round, v + 1);
            env.release(&lock);
            let _ = counter.read(env, 128 + env.pid() as u64);
        }
        env.barrier();
        if env.pid() == 0 {
            seen.store(Directory::thread_locks().1 - before, Ordering::SeqCst);
        }
    });
    assert_eq!(index_locks.load(Ordering::SeqCst), 0);
    assert_eq!(machine.peek(&counter, 0), 4);
}
