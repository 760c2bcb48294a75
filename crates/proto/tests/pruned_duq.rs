//! When an invalidation prunes a page from a processor's DUQ (Table 1
//! arc 12), that processor's next release no longer covers the page.
//! Whoever pruned it owes the page what the release would have done:
//! no copy may stay valid and stale past that release. Two ways this
//! went wrong, each pinned here.
//!
//! **Eager flush in flight** (the Water lost update). Three SSMPs hold
//! write copies of one page. `q` releases: its flush invalidates the
//! sharers one at a time under the page's server lock. Invalidating
//! `p`'s SSMP merges `p`'s word home and prunes `p`'s DUQ — so `p`'s own
//! release finds nothing to flush. If it returned at once, the lock it
//! guards would pass to `r` while `r`'s SSMP still holds its stale,
//! writable copy: `r` would update the stale word, and when the flush
//! reached `r` that diff would overwrite the merged one. The test
//! pauses `q`'s flush at exactly that point and checks `p`'s
//! contribution survives.
//!
//! **Pinned writer evicted by a fill** (adaptive TSP's all-zero work
//! element). Under `SingleWriterPin` a fill evicts the current writer
//! — and only the writer, so a READ copy filled earlier stayed valid
//! while the writer's DUQ, the one thing that would have invalidated it
//! at the next release, was pruned.

use mgs_net::MsgKind;
use mgs_obs::ObsEvent;
use mgs_proto::{
    MgsProtocol, PagePolicy, PolicyDecision, ProtoConfig, ProtoTiming, ProtocolKind,
    RecordingTiming, SendOutcome,
};
use mgs_sim::{CostModel, Cycles};
use mgs_vm::TlbEntry;
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Duration;

/// Page 3 is homed at processor 3 (SSMP 3), away from all three actors.
const PAGE: u64 = 3;
const WORD: u64 = 6;
const P: usize = 0;
const Q: usize = 1;
const R: usize = 2;

fn timing() -> RecordingTiming {
    RecordingTiming::new(CostModel::alewife(), Cycles::ZERO)
}

/// A timing sink that stops the calling thread just before SSMP
/// `at_ssmp` is invalidated, until the test says go.
struct PauseBeforeInvalidate {
    inner: RecordingTiming,
    at_ssmp: usize,
    reached: Sender<()>,
    resume: Receiver<()>,
}

impl ProtoTiming for PauseBeforeInvalidate {
    fn now(&self) -> Cycles {
        self.inner.now()
    }
    fn local(&mut self, cycles: Cycles) {
        self.inner.local(cycles);
    }
    fn node_work(&mut self, node: usize, cycles: Cycles) {
        self.inner.node_work(node, cycles);
    }
    fn try_message(
        &mut self,
        from: usize,
        to: usize,
        kind: MsgKind,
        payload_bytes: u64,
    ) -> SendOutcome {
        self.inner.try_message(from, to, kind, payload_bytes)
    }
    fn retry_wait(&mut self, from: usize, to: usize, kind: MsgKind, attempt: u32, wait: Cycles) {
        self.inner.retry_wait(from, to, kind, attempt, wait);
    }
    fn observe(&mut self, event: ObsEvent) {
        if matches!(event, ObsEvent::Invalidate { ssmp, .. } if ssmp == self.at_ssmp) {
            self.reached.send(()).expect("test is listening");
            self.resume.recv().expect("test resumes the flush");
        }
    }
}

/// One locked read-modify-write, the way `Env` performs it: through the
/// cached mapping while its generation is live, re-faulting otherwise.
fn add_under_lock(proto: &MgsProtocol, proc: usize, entry: &mut TlbEntry, delta: u64) {
    if entry.frame.generation() != entry.gen {
        *entry = proto.fault(proc, PAGE, true, &mut timing());
    }
    let cur = entry.frame.load(WORD);
    entry.frame.store(WORD, cur + delta);
}

#[test]
fn release_waits_for_the_flush_that_pruned_its_page() {
    let proto = MgsProtocol::new(ProtoConfig::new(4, 1));
    let mut ep = proto.fault(P, PAGE, true, &mut timing());
    let eq = proto.fault(Q, PAGE, true, &mut timing());
    let mut er = proto.fault(R, PAGE, true, &mut timing());
    eq.frame.store(WORD + 8, 5); // q's own, unrelated word
    add_under_lock(&proto, P, &mut ep, 1); // p's critical section

    let (reached_tx, reached) = mpsc::channel();
    let (resume, resume_rx) = mpsc::channel();
    let (released_tx, released) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut t = PauseBeforeInvalidate {
                inner: timing(),
                at_ssmp: R,
                reached: reached_tx,
                resume: resume_rx,
            };
            proto.release_all(Q, &mut t);
        });
        // q's flush has merged p's word home and pruned p's DUQ; r's
        // copy is still live.
        reached.recv().expect("q's flush reaches r");
        assert!(!proto.queued(P, PAGE), "arc 12 pruned p's DUQ");
        assert_eq!(er.frame.generation(), er.gen, "r's mapping is live");

        // p releases the lock. The hand-over to r happens when that
        // release returns — which must not be before q's flush ends.
        scope.spawn(|| {
            proto.release_all(P, &mut timing());
            released_tx.send(()).expect("test is listening");
        });
        if released.recv_timeout(Duration::from_millis(200)).is_ok() {
            // (Only a broken protocol gets here: r runs its critical
            // section on the stale copy.)
            add_under_lock(&proto, R, &mut er, 10);
            resume.send(()).expect("q is paused");
        } else {
            resume.send(()).expect("q is paused");
            released.recv().expect("p's release completes after q's");
            add_under_lock(&proto, R, &mut er, 10);
        }
    });
    proto.release_all(R, &mut timing());
    assert_eq!(
        proto.home_frame(PAGE).load(WORD),
        11,
        "p's update was overwritten by r's stale one"
    );
}

#[test]
fn evicting_a_pinned_writer_takes_the_stale_readers_with_it() {
    let mut cfg = ProtoConfig::new(4, 1);
    cfg.protocol = ProtocolKind::Adaptive;
    let proto = MgsProtocol::new(cfg);
    proto.install(PolicyDecision {
        page: PAGE,
        policy: PagePolicy::SingleWriterPin,
        at: Cycles::ZERO,
        reason: "test",
    });

    // r reads the page first; p then becomes its pinned writer and
    // writes a word (outside any lock, as TSP writes a work element).
    let mut er = proto.fault(R, PAGE, false, &mut timing());
    let ep = proto.fault(P, PAGE, true, &mut timing());
    ep.frame.store(WORD, 7);
    // q's read fill evicts p: the word is merged home, p's DUQ pruned.
    proto.fault(Q, PAGE, false, &mut timing());
    assert!(!proto.queued(P, PAGE), "arc 12 pruned p's DUQ");
    // p publishes the word (a lock release) — with nothing to flush.
    proto.release_all(P, &mut timing());

    // r acquires and reads, through its mapping if that is still live.
    if er.frame.generation() != er.gen {
        er = proto.fault(R, PAGE, false, &mut timing());
    }
    assert_eq!(er.frame.load(WORD), 7, "r read a copy nobody invalidated");
}
