//! A page frame's directory blocks are found from the frame's hint,
//! never rebuilt: the protocol's transactions and the runtime's
//! accesses reach a frame's line entries through the blocks the frame
//! claimed on first use, and never ask the cache system's line map
//! (which only lines without a frame use). Debug builds count every
//! line-map lookup per thread; these tests hold the production paths
//! to zero. Then the other half of owning blocks for life: a dead frame's
//! block goes to a later frame, and the dead frame's cache victims
//! leave that frame's entries alone.

#![cfg(debug_assertions)]

use mgs_cache::{CacheConfig, Directory, MissClass, ProcCache, SsmpCacheSystem};
use mgs_proto::{ClientState, MgsProtocol, ProtoConfig, RecordingTiming};
use mgs_sim::{CostModel, Cycles};
use mgs_vm::{FrameAllocator, PageFrame, PageGeometry};

mod common;
use common::Proc;

const C: usize = 2;

fn timing() -> RecordingTiming {
    RecordingTiming::new(CostModel::alewife(), Cycles::ZERO)
}

/// Stripe locks and line-map lookups `f` makes on this thread.
fn locks(f: impl FnOnce()) -> (u64, u64) {
    let counts = || (Directory::thread_locks(), SsmpCacheSystem::thread_lookups());
    let before = counts();
    f();
    let after = counts();
    (after.0 - before.0, after.1 - before.1)
}

/// A cross-SSMP write fault, stores and a release (twin, diff, merge
/// and dirty-marking at the home), then the home SSMP's own write and
/// release, which invalidates the copy (shoot-down, quiesce, page
/// clean), and the re-fault that ships a fresh copy: every transaction
/// and every access in between takes stripe locks and no line-map lock.
#[test]
fn faults_releases_invalidations_and_accesses_never_take_the_line_map() {
    let proto = MgsProtocol::new(ProtoConfig::new(2, C));
    let mut t = timing();
    let mut procs: Vec<_> = (0..2 * C).map(|_| Proc::new()).collect();
    let mut access = |proc: usize, word, store, t: &mut RecordingTiming| {
        common::access(&proto, &mut procs[proc], proc, 0, word, store, t)
    };
    let (home, remote) = (0, C); // page 0 is homed at SSMP 0
    let (stripes, line_map) = locks(|| {
        for round in 1..=3u64 {
            for word in 0..16 {
                access(remote, word, Some(round), &mut t);
            }
            proto.release_all(remote, &mut t);
            access(home, 20, Some(round), &mut t);
            proto.release_all(home, &mut t);
            assert_eq!(proto.client_state(1, 0), ClientState::Inv, "round {round}");
            assert_eq!(access(remote, 3, None, &mut t), round);
            assert_eq!(access(remote, 20, None, &mut t), round);
        }
    });
    assert_eq!(line_map, 0, "no transaction or access asked the line map");
    assert!(stripes > 0);
    assert!(proto.stats().invalidations.get() >= 3);
}

/// A victim whose frame died and whose block a later frame took: its
/// memo names the later frame's block, where its own stripe and entry
/// are the later frame's first line's. The removal sees the block hold
/// another chunk and skips, so the later frame's entries stay as they
/// were, and no lookup is made.
#[test]
fn a_dead_frames_victim_leaves_the_next_frames_entries_alone() {
    let sys = SsmpCacheSystem::new(5);
    let frames =
        FrameAllocator::with_directories(PageGeometry::default(), 1, [sys.directory().clone()]);
    // 8 sets × 2 ways: frames are 64 lines apart, so every frame's
    // first line falls in set 0.
    let mut cache = ProcCache::new(CacheConfig::tiny());
    let mut other = ProcCache::new(CacheConfig::alewife());
    let access = |cache: &mut ProcCache, proc, frame: &PageFrame, word, write| {
        let line = frame.line_of_word(word);
        let hint = frame.dir_hint(line);
        sys.access_hinted(cache, proc, line, 0, write, hint, frame.word(word, 0, 1))
            .expect("a current translation")
            .class
    };
    let dead = frames.alloc(0);
    access(&mut cache, 0, &dead, 0, true);
    let hint = dead.dir_hint(dead.line_of_word(0));
    drop(dead);
    let next = frames.alloc(0);
    assert_eq!(
        next.dir_hint(next.line_of_word(0)),
        hint,
        "the block is reused"
    );
    for word in (0..next.len_words()).step_by(2) {
        access(&mut other, 1, &next, word, true);
    }
    access(&mut cache, 0, &next, 0, false); // set 0: beside the dead line
    let (stripes, line_map) = locks(|| {
        // Word 16 is line 8 of the frame, set 0: evicts the dead line.
        access(&mut cache, 0, &next, 16, false);
    });
    assert_eq!(
        (stripes, line_map),
        (2, 0),
        "the line's stripe and the victim's"
    );
    assert_eq!(access(&mut cache, 0, &next, 0, false), MissClass::Hit);
    let out = next.clean();
    assert_eq!((out.shared_lines, out.dirty_lines), (2, 62));
}
