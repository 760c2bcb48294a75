//! An exhaustive interleaving checker for the protocol's transition
//! functions.
//!
//! The real steps of `mgs_proto::step` run here over an abstract
//! memory. A word holds the set of write IDs in its history, and a store
//! is a read-modify-write that adds one ID to what it read, so a store
//! on a stale copy — or a diff that overwrites a merged word — shows as
//! an ID missing where it should be. A breadth-first search with
//! visited-state dedup runs every interleaving of a few processors'
//! read and write faults, locked stores and loads, lock hand-overs and
//! releases, the adaptive controller's policy switch, and a churn
//! departure and rejoin. Every fault runs the real fault step, a TLB
//! fill from a local copy (arcs 1 and 3) included. Between the effects
//! of a transaction that holds a page's lock, everything that does not
//! need that lock may run: a store through a live mapping, a TLB fill
//! of another page (run whole, as one action), a lock hand-over. A
//! fault on the page itself, and a release that reaches the page's DUQ
//! entry, live or pruned, wait for the lock. A paused transaction
//! resumes by replaying its step from the state it started in, skipping
//! the effects already carried out.
//!
//! The checked invariants:
//! - at most one untwinned writer, and only at the home SSMP;
//! - no released write is missing from the home copy at a barrier;
//! - no stale sharer remains once a release's invalidations complete,
//!   and no locked access reads a value other than the last write;
//! - no release gets past a pruned DUQ entry before the flush that
//!   pruned it has returned.
//!
//! Model bounds: one processor per SSMP, or two on one SSMP in two
//! scenarios; at most one transaction in flight besides whole TLB fills;
//! one lock held per processor, one churn departure, and a budget of
//! stores per run.
//!
//! The negative cases break the real step from the outside (a wrapper
//! here, no switch in the crate) and the search, told only the
//! invariants, must name a violating interleaving:
//! - a release that pops a pruned DUQ entry without taking its page's
//!   lock — the lost update
//!   `release_waits_for_the_flush_that_pruned_its_page` in
//!   `pruned_duq.rs` builds by hand;
//! - a pinned-writer eviction that leaves the readers — the stale read
//!   of `evicting_a_pinned_writer_takes_the_stale_readers_with_it`;
//! - Table 1's arc 23 read literally (`write_dir = φ` after a
//!   single-writer flush; the erratum in the crate docs);
//! - an acquire drain that takes its page off the write-notice queue
//!   before the step has run, so a sibling's acquire finds the queue
//!   empty and returns over a stale copy.
//!
//! `cargo test --release -p mgs-proto --test protocol_model --
//! --ignored` runs the same checks at a deeper bound.

use mgs_net::MsgKind;
use mgs_obs::{ObsEvent, XactOutcome};
use mgs_proto::step::{ClientState, Ctx, Effects, Frame, PageState};
use mgs_proto::{PagePolicy, ProtoConfig, ProtocolError};
use mgs_sim::Cycles;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::Instant;

const SSMPS: usize = 4;

/// A word: the set of write IDs in its history (bit *k*: the run's
/// *k*-th store).
type Val = u8;
/// A page's data.
type Mem = [Val; 2];

fn bit(i: usize) -> u8 {
    1 << i
}

/// What an SSMP's client record maps.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
enum Fr {
    #[default]
    None,
    /// The home copy itself (the home SSMP).
    Home,
    Own(Mem),
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
struct Client {
    state: ClientState,
    frame: Fr,
    twin: Option<Mem>,
    /// The SSMP's processors that map the page, by local index
    /// (`tlb_dir`).
    mapped: u8,
    /// The SSMP's cache holds dirty lines of this copy.
    dirty: bool,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Page {
    st: PageState,
    policy: PagePolicy,
    home: Mem,
    /// The node the home frame lives at.
    home_node: usize,
    /// The home SSMP's cache holds dirty lines of the home copy.
    home_dirty: bool,
    clients: [Client; SSMPS],
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
enum Perm {
    #[default]
    None,
    Read,
    Write,
}

/// A step, and whom it runs for.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Kind {
    Fault { proc: usize, write: bool },
    Release { proc: usize },
    Drain { ssmp: usize },
    Depart { ssmp: usize, new_home: usize },
    Rejoin { ssmp: usize },
    Unpin,
}

/// What a processor (or the churn agent) is in the middle of.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Op {
    Xact(Kind, usize),
    /// A release drains its DUQ, front first, until it is empty: a live
    /// entry's page is released, a pruned one popped, each under the
    /// page's lock.
    Flush,
    /// An acquire drains its SSMP's write-notice queue, lowest page
    /// first, until it is empty.
    Drain(usize),
    Unlock(usize),
    Rejoined(usize),
}

#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
struct Proc {
    tlb: [Perm; 2],
    /// The DUQ in queueing order: each page, and whether its entry is
    /// live (a shoot-down of the mapping leaves it pruned, in place).
    duq: Vec<(u8, bool)>,
    /// Pages pruned from this DUQ by the transaction still in flight.
    pruned_live: u8,
    holds: Option<usize>,
    ops: VecDeque<Op>,
}

/// A transaction holding a page's server lock.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Inflight {
    who: usize,
    kind: Kind,
    page: usize,
    start: PageState,
    policy: PagePolicy,
    /// The pause point the next advance carries out (-1: the prologue).
    next: i32,
    diff: Option<(u8, Mem)>,
    cleaned_home: bool,
}

impl Inflight {
    /// `who`'s `kind` step on `page`, about to start.
    fn new(who: usize, kind: Kind, page: usize, pg: &Page) -> Inflight {
        Inflight {
            who,
            kind,
            page,
            start: pg.st,
            policy: pg.policy,
            next: -1,
            diff: None,
            cleaned_home: false,
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct World {
    pages: Vec<Page>,
    /// The processors, then the churn agent.
    procs: Vec<Proc>,
    locks: Vec<Option<usize>>,
    /// Each SSMP's write-notice queue, as a page mask.
    notices: [u8; SSMPS],
    /// Each word's last write (a locked read must see exactly this),
    /// and who wrote it.
    truth: Vec<Val>,
    last: Vec<usize>,
    writes: u8,
    departed: u8,
    churns: u8,
    inflight: Option<Inflight>,
}

/// A deliberately broken protocol, made by wrapping the real step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Bug {
    /// A release pops a pruned DUQ entry without its page's lock.
    StaleEntryUnlocked,
    /// A pinned-writer eviction evicts only the writers.
    PinEvictsWritersOnly,
    /// `write_dir = φ` after a single-writer flush.
    Arc23Literal,
    /// An acquire drain takes its page off the queue before the step.
    DrainPopsFirst,
}

#[derive(Clone, Debug)]
struct Scenario {
    /// Processors, `per_ssmp` to an SSMP from SSMP 0 on.
    procs: usize,
    per_ssmp: usize,
    /// The pages' home SSMP; `procs` puts it at an SSMP with no
    /// processor.
    home: usize,
    pages: usize,
    /// Each word's `(page, offset, guarding lock)`.
    words: Vec<(usize, usize, usize)>,
    policy: PagePolicy,
    /// The adaptive controller may switch an `Eager` page to this.
    switch: Option<PagePolicy>,
    /// Home-LRC write notices, drained at acquires.
    notices: bool,
    churn: bool,
    /// Stores per run.
    writes: u8,
    bug: Option<Bug>,
    /// Explore interleavings of at most this many actions (`None`: all).
    depth: Option<u32>,
    /// Check the pruned-release invariant directly (off: only its data
    /// consequences are checked).
    release_check: bool,
}

impl Scenario {
    fn new(procs: usize, policy: PagePolicy) -> Scenario {
        Scenario {
            procs,
            per_ssmp: 1,
            home: procs,
            pages: 1,
            words: vec![(0, 0, 0)],
            policy,
            switch: None,
            notices: policy == PagePolicy::HomeLrc,
            churn: false,
            writes: 2,
            bug: None,
            depth: None,
            release_check: true,
        }
    }

    /// SSMPs with processors.
    fn proc_ssmps(&self) -> usize {
        self.procs.div_ceil(self.per_ssmp)
    }

    fn ssmps(&self) -> usize {
        (self.home + 1).max(self.proc_ssmps())
    }

    fn locks(&self) -> usize {
        self.words.iter().map(|w| w.2 + 1).max().unwrap_or(0)
    }
}

/// One interleaving step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Act {
    Fault {
        proc: usize,
        page: usize,
        write: bool,
    },
    Store {
        proc: usize,
        word: usize,
    },
    Acquire {
        proc: usize,
        lock: usize,
    },
    Unlock {
        proc: usize,
    },
    Release {
        proc: usize,
    },
    /// Run `who`'s next operation, or one more effect of its transaction.
    Op {
        who: usize,
    },
    Switch {
        page: usize,
    },
    Depart {
        ssmp: usize,
    },
    Rejoin {
        ssmp: usize,
    },
}

/// Which of the two charge asymmetries were reached with dirty lines the
/// missing clean would have flushed.
#[derive(Debug, Default)]
struct Reached {
    /// A copy retired without a page clean while dirty, by transaction.
    retired_dirty: RefCell<Vec<Kind>>,
    /// A diff merged over a dirty home that no clean in the same
    /// transaction flushed, by transaction.
    merged_over_dirty_home: RefCell<Vec<Kind>>,
    /// A TLB fill while a sibling maps the page.
    sibling_fill: Cell<bool>,
    /// A shoot-down that unmapped two siblings and pruned both DUQs.
    siblings_pruned: Cell<bool>,
    /// An acquire whose front page a sibling was draining.
    sibling_drain: Cell<bool>,
}

impl Reached {
    fn note(&self, set: &RefCell<Vec<Kind>>, kind: Kind) {
        let mut set = set.borrow_mut();
        if !set.contains(&kind) {
            set.push(kind);
        }
    }
}

struct Checker {
    sc: Scenario,
    cfg: ProtoConfig,
    reached: Reached,
    trace: RefCell<Option<Vec<String>>>,
}

#[derive(Debug)]
struct Report {
    states: usize,
    transitions: usize,
    secs: f64,
}

type Check = Result<(), String>;

/// How far one run of a step goes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Run {
    /// No effect: only the outcome.
    Probe,
    /// The next pause point.
    Next,
    /// Every effect.
    Whole,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Replay,
    Real,
    Off,
}

/// The checker's [`Effects`]: one advance of a paused transaction.
struct Fx<'a> {
    ck: &'a Checker,
    w: &'a mut World,
    inf: &'a mut Inflight,
    /// Carry out every effect (a whole step at once).
    all: bool,
    seen: i32,
    off: bool,
    single_writer_flush: bool,
    bad: Option<String>,
}

impl Fx<'_> {
    /// Where this effect falls: already carried out, carried out now,
    /// or past this advance. Only effects on shared state are pause
    /// points; the rest run with the point before them.
    fn mode(&mut self, point: bool) -> Mode {
        if self.off {
            return Mode::Off;
        }
        if self.all {
            return Mode::Real;
        }
        if !point {
            return if self.seen == self.inf.next + 1 {
                Mode::Real
            } else {
                Mode::Replay
            };
        }
        let i = self.seen;
        self.seen += 1;
        match i.cmp(&self.inf.next) {
            std::cmp::Ordering::Less => Mode::Replay,
            std::cmp::Ordering::Equal => Mode::Real,
            std::cmp::Ordering::Greater => {
                self.off = true;
                Mode::Off
            }
        }
    }

    fn real(&mut self, point: bool, what: impl FnOnce() -> String) -> bool {
        let real = self.mode(point) == Mode::Real;
        if real {
            if let Some(t) = self.ck.trace.borrow_mut().as_mut() {
                t.push(format!("      {}", what()));
            }
        }
        real
    }

    fn page(&mut self) -> &mut Page {
        &mut self.w.pages[self.inf.page]
    }

    fn client(&mut self, s: usize) -> &mut Client {
        &mut self.w.pages[self.inf.page].clients[s]
    }

    fn fail(&mut self, msg: String) {
        self.bad.get_or_insert(msg);
    }

    /// The data `s`'s copy maps.
    fn data(&mut self, s: usize) -> Mem {
        match self.client(s).frame {
            Fr::Own(m) => m,
            Fr::Home => self.page().home,
            Fr::None => {
                self.fail(format!("SSMP {s} has no frame to read"));
                [0; 2]
            }
        }
    }
}

impl Effects for Fx<'_> {
    fn send(&mut self, from: usize, to: usize, kind: MsgKind, _: u64) -> Result<(), ProtocolError> {
        self.real(false, || format!("{kind:?} {from} -> {to}"));
        Ok(())
    }

    fn local(&mut self, _: Cycles) {}

    fn work(&mut self, _: usize, _: Cycles) {}

    fn owner(&mut self, ssmp: usize) -> usize {
        ssmp * self.ck.sc.per_ssmp
    }

    fn observe(&mut self, event: ObsEvent) {
        if matches!(event, ObsEvent::SingleWriterFlush { .. }) && !self.off {
            self.single_writer_flush = true;
        }
        self.real(false, || format!("{event:?}"));
    }

    fn set_state(&mut self, ssmp: usize, state: ClientState) {
        if !self.real(true, || format!("SSMP {ssmp} -> {state:?}")) {
            return;
        }
        let home_ssmp = self.ck.cfg.ssmp_of(self.page().home_node);
        let kind = self.inf.kind;
        let c = self.client(ssmp);
        if state != ClientState::Write {
            c.twin = None;
        }
        if state == ClientState::Inv {
            let retired_dirty = c.dirty && matches!(c.frame, Fr::Own(_));
            (c.frame, c.dirty) = (Fr::None, false);
            if retired_dirty {
                self.ck.reached.note(&self.ck.reached.retired_dirty, kind);
            }
        } else if c.frame == Fr::None {
            if ssmp != home_ssmp {
                return self.fail(format!("SSMP {ssmp} maps a home copy it is not at"));
            }
            c.frame = Fr::Home;
        }
        self.client(ssmp).state = state;
    }

    fn shoot_down(&mut self, ssmp: usize) {
        if !self.real(true, || format!("shoot down SSMP {ssmp}")) {
            return;
        }
        let page = self.inf.page;
        let c = self.client(ssmp);
        if c.frame == Fr::None {
            return self.fail(format!("shoot-down of SSMP {ssmp}, which has no frame"));
        }
        let (mapped, mut pruned) = (std::mem::take(&mut c.mapped), 0);
        for l in (0..8).filter(|&l| mapped & bit(l) != 0) {
            let p = &mut self.w.procs[ssmp * self.ck.sc.per_ssmp + l];
            p.tlb[page] = Perm::None;
            for (_, live) in p.duq.iter_mut().filter(|e| **e == (page as u8, true)) {
                *live = false;
                p.pruned_live |= bit(page);
                pruned += 1;
            }
        }
        if pruned > 1 {
            self.ck.reached.siblings_pruned.set(true);
        }
    }

    fn clean(&mut self, frame: Frame, _: bool) {
        if !self.real(false, || format!("clean {frame:?}")) {
            return;
        }
        let home_alias = match frame {
            Frame::Home => true,
            Frame::Copy(s) => {
                let c = self.client(s);
                c.dirty = false;
                c.frame == Fr::Home
            }
        };
        if home_alias {
            self.page().home_dirty = false;
            self.inf.cleaned_home = true;
        }
    }

    fn twin(&mut self, ssmp: usize) {
        if !self.real(true, || format!("twin SSMP {ssmp}")) {
            return;
        }
        let twin = self.data(ssmp);
        self.client(ssmp).twin = Some(twin);
    }

    fn diff(&mut self, ssmp: usize, keep_twin: bool) -> u64 {
        if !self.real(true, || {
            format!("diff SSMP {ssmp} (keep twin: {keep_twin})")
        }) {
            return 0;
        }
        let data = self.data(ssmp);
        let c = self.client(ssmp);
        let Some(twin) = c.twin else {
            self.fail(format!("diff of SSMP {ssmp}, which has no twin"));
            return 0;
        };
        c.twin = keep_twin.then_some(data);
        let changed = (0..2)
            .filter(|&i| data[i] != twin[i])
            .fold(0, |m, i| m | bit(i));
        self.inf.diff = Some((changed, data));
        u64::from(changed.count_ones())
    }

    fn merge(&mut self, ssmp: usize) {
        if !self.real(true, || format!("merge SSMP {ssmp}'s diff home")) {
            return;
        }
        let (changed, data) = self.inf.diff.expect("a diff to merge");
        if self.page().home_dirty && !self.inf.cleaned_home {
            let kind = self.inf.kind;
            self.ck
                .reached
                .note(&self.ck.reached.merged_over_dirty_home, kind);
        }
        let page = self.page();
        for i in (0..2).filter(|&i| changed & bit(i) != 0) {
            page.home[i] = data[i];
            page.home_dirty = true;
        }
    }

    fn push(&mut self, ssmp: usize) {
        if !self.real(true, || format!("push the diff into SSMP {ssmp}")) {
            return;
        }
        let (changed, data) = self.inf.diff.expect("a diff to push");
        let c = self.client(ssmp);
        let Fr::Own(mem) = &mut c.frame else {
            return self.fail(format!(
                "push into SSMP {ssmp}, which has no copy of its own"
            ));
        };
        for i in (0..2).filter(|&i| changed & bit(i) != 0) {
            mem[i] = data[i];
            if let Some(t) = c.twin.as_mut() {
                t[i] = data[i];
            }
            c.dirty = true;
        }
    }

    fn ship(
        &mut self,
        from: Frame,
        to: Frame,
        node: usize,
        kind: MsgKind,
        twin: bool,
    ) -> Result<(), ProtocolError> {
        if !self.real(true, || {
            format!("ship {from:?} -> {to:?} at node {node} ({kind:?}, twin: {twin})")
        }) {
            return Ok(());
        }
        let data = match from {
            Frame::Home => {
                self.page().home_dirty = false;
                self.page().home
            }
            Frame::Copy(s) => {
                let d = self.data(s);
                self.client(s).dirty = false;
                d
            }
        };
        match to {
            Frame::Copy(s) => self.client(s).frame = Fr::Own(data),
            Frame::Home => {
                let page = self.page();
                (page.home, page.home_node, page.home_dirty) = (data, node, false);
            }
        }
        if let (true, Frame::Copy(s), _) | (true, _, Frame::Copy(s)) = (twin, from, to) {
            self.client(s).twin = Some(data);
        }
        Ok(())
    }

    fn notice(&mut self, ssmp: usize) {
        if self.real(true, || format!("write notice to SSMP {ssmp}")) {
            self.w.notices[ssmp] |= bit(self.inf.page);
        }
    }

    fn map(&mut self, proc: usize, write: bool) -> bool {
        if !self.real(true, || {
            format!("map for processor {proc} (write: {write})")
        }) {
            return false;
        }
        let cfg = &self.ck.cfg;
        let (s, l) = (cfg.ssmp_of(proc), cfg.local_index(proc));
        self.client(s).mapped |= bit(l);
        let page = self.inf.page as u8;
        let duq = &mut self.w.procs[proc].duq;
        if !write || duq.contains(&(page, true)) {
            return false;
        }
        duq.retain(|&(q, _)| q != page);
        duq.push((page, true));
        true
    }
}

/// Runs one step, wrapped as `bug` says. `None` for steps that are not
/// faults.
fn run_step(
    kind: Kind,
    st: &mut PageState,
    cx: &Ctx,
    fx: &mut Fx,
    bug: Option<Bug>,
) -> Option<XactOutcome> {
    let cfg = cx.cfg;
    let res = match kind {
        Kind::Fault { proc, write } => {
            let mut hidden = 0;
            if bug == Some(Bug::PinEvictsWritersOnly) && cx.policy == PagePolicy::SingleWriterPin {
                hidden = st.dirs.read_dir & !(1 << cfg.ssmp_of(proc));
                st.dirs.read_dir &= !hidden;
            }
            let r = st.fault(cx, proc, write, fx).map(Some);
            st.dirs.read_dir |= hidden;
            r
        }
        Kind::Release { proc } => {
            let r = st.release(cx, proc, fx);
            if bug == Some(Bug::Arc23Literal) && fx.single_writer_flush {
                st.dirs.write_dir = 0;
            }
            r.map(|()| None)
        }
        Kind::Drain { ssmp } => st.drain_notice(cx, ssmp, fx).map(|()| None),
        Kind::Depart { ssmp, new_home } => st.depart(cx, ssmp, new_home, fx).map(|_| None),
        Kind::Rejoin { ssmp } => st.rejoin(cx, ssmp, fx).map(|_| None),
        Kind::Unpin => st.unpin(cx, fx).map(|()| None),
    };
    res.expect("the model's fabric always delivers")
}

impl Checker {
    fn new(sc: Scenario) -> Checker {
        let n = sc.ssmps();
        Checker {
            cfg: ProtoConfig::new(n, sc.per_ssmp),
            reached: Reached::default(),
            trace: RefCell::new(None),
            sc,
        }
    }

    fn root(&self) -> World {
        let sc = &self.sc;
        let home_node = sc.home * sc.per_ssmp;
        let page = Page {
            st: PageState::new(home_node),
            policy: sc.policy,
            home: [0; 2],
            home_node,
            home_dirty: false,
            clients: Default::default(),
        };
        World {
            pages: vec![page; sc.pages],
            procs: vec![Proc::default(); sc.procs + 1],
            locks: vec![None; sc.locks()],
            notices: [0; SSMPS],
            truth: vec![0; sc.words.len()],
            last: vec![0; sc.words.len()],
            writes: 0,
            departed: 0,
            churns: 0,
            inflight: None,
        }
    }

    fn agent(&self) -> usize {
        self.sc.procs
    }

    fn note(&self, line: impl FnOnce() -> String) {
        if let Some(t) = self.trace.borrow_mut().as_mut() {
            t.push(line());
        }
    }

    fn actions(&self, w: &World) -> Vec<Act> {
        let sc = &self.sc;
        let mut acts = Vec::new();
        for who in 0..=sc.procs {
            let pr = &w.procs[who];
            if w.inflight.as_ref().is_some_and(|i| i.who == who) {
                acts.push(Act::Op { who });
                continue;
            }
            if let Some(&op) = pr.ops.front() {
                let ready = match (op, pr.duq.first()) {
                    (Op::Xact(..), _) | (Op::Flush, Some((_, true))) => w.inflight.is_none(),
                    (Op::Flush, Some(&(pg, false))) => {
                        sc.bug == Some(Bug::StaleEntryUnlocked)
                            || w.inflight.as_ref().is_none_or(|i| i.page != pg as usize)
                    }
                    (Op::Drain(ssmp), _) if w.notices[ssmp] != 0 => {
                        let front = w.notices[ssmp].trailing_zeros() as usize;
                        let busy = w.inflight.as_ref().map(|i| (i.kind, i.page));
                        if busy == Some((Kind::Drain { ssmp }, front)) {
                            self.reached.sibling_drain.set(true);
                        }
                        busy.is_none()
                    }
                    _ => true,
                };
                if ready {
                    acts.push(Act::Op { who });
                }
                continue;
            }
            if who == self.agent() {
                // The processors' SSMPs are alike: only the last departs.
                for ssmp in sc.proc_ssmps() - 1..sc.ssmps() {
                    if w.departed & bit(ssmp) != 0 {
                        acts.push(Act::Rejoin { ssmp });
                    } else if sc.churn && w.churns == 0 {
                        acts.push(Act::Depart { ssmp });
                    }
                }
                continue;
            }
            let proc = who;
            // A fault on a page whose lock a transaction holds waits for
            // it; faulting once the lock is free reaches the same states.
            let held = w.inflight.as_ref().map(|i| i.page);
            for page in (0..sc.pages).filter(|&pg| held != Some(pg)) {
                for write in [false, true] {
                    let have = pr.tlb[page];
                    if have == Perm::None || have == Perm::Read && write {
                        acts.push(Act::Fault { proc, page, write });
                    }
                }
            }
            for (word, &(page, _, lock)) in sc.words.iter().enumerate() {
                if pr.holds == Some(lock) && pr.tlb[page] == Perm::Write && w.writes < sc.writes {
                    acts.push(Act::Store { proc, word });
                }
            }
            match pr.holds {
                Some(_) => acts.push(Act::Unlock { proc }),
                None => {
                    for lock in 0..w.locks.len() {
                        if w.locks[lock].is_none() {
                            acts.push(Act::Acquire { proc, lock });
                        }
                    }
                }
            }
            if !pr.duq.is_empty() {
                acts.push(Act::Release { proc });
            }
        }
        if sc.switch.is_some() {
            for page in 0..sc.pages {
                if w.pages[page].policy == PagePolicy::Eager {
                    acts.push(Act::Switch { page });
                }
            }
        }
        acts
    }

    fn word_value(w: &World, ssmp: usize, page: usize, off: usize) -> Val {
        let pg = &w.pages[page];
        match pg.clients[ssmp].frame {
            Fr::Own(m) => m[off],
            Fr::Home => pg.home[off],
            Fr::None => unreachable!("a live mapping has a frame"),
        }
    }

    fn apply(&self, w: &mut World, act: Act) -> Check {
        self.note(|| format!("{act:?}"));
        match act {
            Act::Fault { proc, page, write } => {
                w.procs[proc]
                    .ops
                    .push_back(Op::Xact(Kind::Fault { proc, write }, page));
                // A TLB fill is one action (`actions` knows the page's
                // lock is free).
                self.local_fill(w, proc)?;
            }
            Act::Store { proc, word } => {
                // A read-modify-write; `check_state` saw it read the truth.
                let (page, off, _) = self.sc.words[word];
                let new = w.truth[word] | bit(w.writes as usize);
                w.writes += 1;
                (w.truth[word], w.last[word]) = (new, proc);
                let pg = &mut w.pages[page];
                let c = &mut pg.clients[self.cfg.ssmp_of(proc)];
                match &mut c.frame {
                    Fr::Own(m) => (m[off], c.dirty) = (new, true),
                    _ => (pg.home[off], pg.home_dirty) = (new, true),
                }
            }
            Act::Acquire { proc, lock } => {
                w.locks[lock] = Some(proc);
                w.procs[proc].holds = Some(lock);
                if self.sc.notices {
                    let ssmp = self.cfg.ssmp_of(proc);
                    w.procs[proc].ops.push_back(Op::Drain(ssmp));
                }
            }
            Act::Unlock { proc } => {
                let lock = w.procs[proc].holds.expect("holds a lock");
                w.procs[proc].ops.extend([Op::Flush, Op::Unlock(lock)]);
            }
            Act::Release { proc } => w.procs[proc].ops.push_back(Op::Flush),
            Act::Switch { page } => w.pages[page].policy = self.sc.switch.expect("a switch"),
            Act::Depart { ssmp } => {
                let survivor = (0..self.sc.ssmps())
                    .find(|&s| s != ssmp)
                    .expect("a survivor");
                w.departed |= bit(ssmp);
                w.churns += 1;
                let agent = self.agent();
                for pg in 0..self.sc.pages {
                    let kind = Kind::Depart {
                        ssmp,
                        new_home: survivor * self.sc.per_ssmp,
                    };
                    w.procs[agent].ops.push_back(Op::Xact(kind, pg));
                }
            }
            Act::Rejoin { ssmp } => {
                let agent = self.agent();
                for pg in 0..self.sc.pages {
                    w.procs[agent]
                        .ops
                        .push_back(Op::Xact(Kind::Rejoin { ssmp }, pg));
                }
                w.procs[agent].ops.push_back(Op::Rejoined(ssmp));
            }
            Act::Op { who } => return self.op(w, who),
        }
        Ok(())
    }

    /// Runs `who`'s queued fault whole if its step is a TLB fill from a
    /// local copy; the caller knows no transaction holds the page.
    /// Returns whether it ran.
    fn local_fill(&self, w: &mut World, who: usize) -> Result<bool, String> {
        let Some(&Op::Xact(kind @ Kind::Fault { .. }, page)) = w.procs[who].ops.front() else {
            return Ok(false);
        };
        let mut inf = Inflight::new(who, kind, page, &w.pages[page]);
        let probe = self.run(w, &mut inf.clone(), Run::Probe)?;
        if probe.map(|(_, outcome)| outcome) != Some(Some(XactOutcome::TlbFill)) {
            return Ok(false);
        }
        let (st, outcome) = self.run(w, &mut inf, Run::Whole)?.expect("a whole step");
        self.commit(w, &inf, st, outcome)?;
        Ok(true)
    }

    fn op(&self, w: &mut World, who: usize) -> Check {
        if w.inflight.as_ref().is_some_and(|i| i.who == who) {
            return self.advance(w);
        }
        let op = *w.procs[who].ops.front().expect("an op");
        if let Op::Xact(kind, page) = op {
            if self.local_fill(w, who)? {
                return Ok(());
            }
            w.inflight = Some(Inflight::new(who, kind, page, &w.pages[page]));
            return self.advance(w);
        }
        if let (Op::Flush, Some(&(page, live))) = (op, w.procs[who].duq.first()) {
            let page = page as usize;
            if live {
                let kind = Kind::Release { proc: who };
                w.inflight = Some(Inflight::new(who, kind, page, &w.pages[page]));
                return self.advance(w);
            }
            if self.sc.release_check && w.procs[who].pruned_live & bit(page) != 0 {
                return Err(format!(
                    "processor {who}'s release returned before the flush that pruned its DUQ"
                ));
            }
            w.procs[who].duq.remove(0);
            return Ok(());
        }
        if let Op::Drain(ssmp) = op {
            if w.notices[ssmp] != 0 {
                let page = w.notices[ssmp].trailing_zeros() as usize;
                if self.sc.bug == Some(Bug::DrainPopsFirst) {
                    w.notices[ssmp] &= !bit(page);
                }
                let kind = Kind::Drain { ssmp };
                w.inflight = Some(Inflight::new(who, kind, page, &w.pages[page]));
                return self.advance(w);
            }
        }
        w.procs[who].ops.pop_front();
        match op {
            Op::Xact(..) => unreachable!("handled above"),
            Op::Flush | Op::Drain(_) => {}
            Op::Unlock(lock) => {
                w.locks[lock] = None;
                w.procs[who].holds = None;
            }
            Op::Rejoined(ssmp) => w.departed &= !bit(ssmp),
        }
        Ok(())
    }

    /// Runs `inf`'s step from the state it started in. Returns the state
    /// it reached and its outcome, or `None` if it paused.
    fn run(
        &self,
        w: &mut World,
        inf: &mut Inflight,
        how: Run,
    ) -> Result<Option<(PageState, Option<XactOutcome>)>, String> {
        let mut st = inf.start;
        let cx = Ctx {
            cfg: &self.cfg,
            page: inf.page as u64,
            policy: inf.policy,
        };
        let kind = inf.kind;
        let mut fx = Fx {
            ck: self,
            w,
            inf,
            all: how == Run::Whole,
            seen: 0,
            off: how == Run::Probe,
            single_writer_flush: false,
            bad: None,
        };
        let outcome = run_step(kind, &mut st, &cx, &mut fx, self.sc.bug);
        if let Some(bad) = fx.bad.take() {
            return Err(bad);
        }
        let paused = fx.off && how == Run::Next;
        Ok((!paused).then_some((st, outcome)))
    }

    /// Carries out one more pause point of the transaction in flight,
    /// committing it when its step returns.
    fn advance(&self, w: &mut World) -> Check {
        let mut inf = w.inflight.take().expect("a transaction in flight");
        match self.run(w, &mut inf, Run::Next)? {
            Some((st, outcome)) => self.commit(w, &inf, st, outcome),
            None => {
                inf.next += 1;
                w.inflight = Some(inf);
                Ok(())
            }
        }
    }

    /// Stores the state a finished step reached and retires its op.
    fn commit(
        &self,
        w: &mut World,
        inf: &Inflight,
        st: PageState,
        outcome: Option<XactOutcome>,
    ) -> Check {
        let page = inf.page;
        w.pages[page].st = st;
        for p in &mut w.procs {
            p.pruned_live &= !bit(page);
        }
        match inf.kind {
            // The page leaves the queue under its lock; the op stays
            // until the queue is empty.
            Kind::Drain { ssmp } => w.notices[ssmp] &= !bit(page),
            Kind::Release { proc } => {
                w.procs[proc].duq.remove(0);
            }
            _ => {
                w.procs[inf.who].ops.pop_front();
            }
        }
        match (inf.kind, outcome) {
            (Kind::Fault { proc, write }, Some(outcome)) => {
                let l = self.cfg.local_index(proc);
                let mapped = w.pages[page].clients[self.cfg.ssmp_of(proc)].mapped;
                if outcome == XactOutcome::TlbFill && mapped & !bit(l) != 0 {
                    self.reached.sibling_fill.set(true);
                }
                w.procs[proc].tlb[page] = if write { Perm::Write } else { Perm::Read };
            }
            (Kind::Release { proc }, _) => self.check_released(w, proc, page)?,
            _ => {}
        }
        Ok(())
    }

    /// No stale sharer once `proc`'s release of `page` completes: every
    /// live copy elsewhere that no write notice covers holds the words
    /// `proc` wrote last.
    fn check_released(&self, w: &World, proc: usize, page: usize) -> Check {
        for (word, &(pg, off, _)) in self.sc.words.iter().enumerate() {
            if pg != page || w.last[word] != proc || w.truth[word] == 0 {
                continue;
            }
            let s = self.cfg.ssmp_of(proc);
            for t in (0..self.sc.ssmps()).filter(|&t| t != s) {
                let c = w.pages[page].clients[t];
                let noticed = w.pages[page].st.noticed & 1 << t != 0;
                if c.state == ClientState::Inv || noticed {
                    continue;
                }
                let v = Self::word_value(w, t, page, off);
                if v != w.truth[word] {
                    return Err(format!(
                        "processor {proc}'s release completed with SSMP {t}'s copy stale (word {word}: {v:#b}, released {:#b})",
                        w.truth[word]
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_state(&self, w: &World) -> Check {
        for (page, pg) in w.pages.iter().enumerate() {
            let home_ssmp = self.cfg.ssmp_of(pg.home_node);
            let busy = w.inflight.as_ref().is_some_and(|i| i.page == page);
            let mut untwinned = 0;
            for (s, c) in pg.clients.iter().enumerate() {
                if c.frame == Fr::Home && s != home_ssmp {
                    return Err(format!(
                        "SSMP {s} maps page {page}'s home copy away from its home"
                    ));
                }
                if !busy && c.state == ClientState::Write && c.twin.is_none() {
                    untwinned += 1;
                    if s != home_ssmp {
                        return Err(format!("SSMP {s} writes page {page} without a twin"));
                    }
                }
            }
            if untwinned > 1 {
                return Err(format!("page {page} has {untwinned} untwinned writers"));
            }
            for (proc, p) in w.procs[..self.sc.procs].iter().enumerate() {
                let state = pg.clients[self.cfg.ssmp_of(proc)].state;
                let ok = match p.tlb[page] {
                    Perm::None => true,
                    Perm::Read => state != ClientState::Inv,
                    Perm::Write => state == ClientState::Write,
                };
                if !ok {
                    return Err(format!(
                        "processor {proc} maps page {page} {:?} over a {state:?} copy",
                        p.tlb[page]
                    ));
                }
            }
        }
        // A locked load: once its acquire is done, every mapped word
        // under a held lock reads as its last write.
        for (word, &(page, off, lock)) in self.sc.words.iter().enumerate() {
            for (proc, p) in w.procs[..self.sc.procs].iter().enumerate() {
                if p.holds != Some(lock) || !p.ops.is_empty() || p.tlb[page] == Perm::None {
                    continue;
                }
                let v = Self::word_value(w, self.cfg.ssmp_of(proc), page, off);
                if v != w.truth[word] {
                    return Err(format!(
                        "processor {proc} reads word {word} as {v:#b} under its lock; the last write left {:#b}",
                        w.truth[word]
                    ));
                }
            }
        }
        let quiet = w.inflight.is_none()
            && w.procs.iter().all(|p| p.ops.is_empty())
            && w.locks.iter().all(Option::is_none);
        if quiet {
            self.check_barrier(w)?;
        }
        Ok(())
    }

    /// At a barrier every write has been released: after the post-run
    /// unpin drain, the home copy holds each word's last write.
    fn check_barrier(&self, w: &World) -> Check {
        let mut w = w.clone();
        let trace = self.trace.borrow_mut().take();
        for page in 0..self.sc.pages {
            let mut inf = Inflight::new(self.agent(), Kind::Unpin, page, &w.pages[page]);
            let (st, _) = self
                .run(&mut w, &mut inf, Run::Whole)?
                .expect("a whole step");
            w.pages[page].st = st;
        }
        *self.trace.borrow_mut() = trace;
        for (word, &(page, off, _)) in self.sc.words.iter().enumerate() {
            let home = w.pages[page].home[off];
            if home != w.truth[word] {
                return Err(format!(
                    "at a barrier the home holds word {word} as {home:#b}; the last write left {:#b}",
                    w.truth[word]
                ));
            }
        }
        Ok(())
    }

    /// Explores every interleaving; on a violation, the message and the
    /// printed trace that reaches it.
    fn explore(&self) -> Result<Report, String> {
        let start = Instant::now();
        let root = self.root();
        let hash = |w: &World| {
            let mut h = DefaultHasher::new();
            w.hash(&mut h);
            h.finish()
        };
        let mut seen = HashSet::from([hash(&root)]);
        let mut parents: Vec<(u32, Option<Act>)> = vec![(0, None)];
        let mut queue = VecDeque::from([(root, 0u32, 0u32)]);
        let mut transitions = 0;
        while let Some((w, id, depth)) = queue.pop_front() {
            if self.sc.depth.is_some_and(|d| depth >= d) {
                continue;
            }
            for act in self.actions(&w) {
                transitions += 1;
                let mut next = w.clone();
                let res = self.apply(&mut next, act);
                let fresh = res.is_ok() && seen.insert(hash(&next));
                if let Err(msg) = res.and_then(|()| {
                    if fresh {
                        self.check_state(&next)
                    } else {
                        Ok(())
                    }
                }) {
                    let mut path = vec![act];
                    let mut at = id;
                    while let (parent, Some(a)) = parents[at as usize] {
                        path.push(a);
                        at = parent;
                    }
                    path.reverse();
                    return Err(format!("{msg}\n{}", self.replay(&path)));
                }
                if fresh {
                    parents.push((id, Some(act)));
                    queue.push_back((next, parents.len() as u32 - 1, depth + 1));
                }
            }
        }
        Ok(Report {
            states: seen.len(),
            transitions,
            secs: start.elapsed().as_secs_f64(),
        })
    }

    /// The trace of `path`: each action, and the effects it carried out.
    fn replay(&self, path: &[Act]) -> String {
        *self.trace.borrow_mut() = Some(Vec::new());
        let mut w = self.root();
        for &act in path {
            let _ = self.apply(&mut w, act).and_then(|()| self.check_state(&w));
        }
        self.trace
            .borrow_mut()
            .take()
            .unwrap_or_default()
            .join("\n")
    }
}

/// Explores `sc`, which must hold every invariant; returns the checker,
/// which knows what the search reached, and the state count.
fn checked(sc: Scenario) -> (Checker, usize) {
    let name = format!("{sc:?}");
    let ck = Checker::new(sc);
    let r = ck.explore().unwrap_or_else(|e| panic!("{name}: {e}"));
    println!(
        "{} states, {} transitions, {:.2} s: {name}",
        r.states, r.transitions, r.secs
    );
    (ck, r.states)
}

/// Explores each scenario, which must hold every invariant; returns
/// what the searches reached.
fn check(scenarios: Vec<Scenario>) -> Reached {
    let all = Reached::default();
    let (mut states, start) = (0, Instant::now());
    for sc in scenarios {
        let (ck, n) = checked(sc);
        states += n;
        for (to, from) in [
            (&all.retired_dirty, ck.reached.retired_dirty),
            (
                &all.merged_over_dirty_home,
                ck.reached.merged_over_dirty_home,
            ),
        ] {
            for kind in from.into_inner() {
                all.note(to, kind);
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    println!("{states} states in {secs:.1} s");
    all
}

/// Explores `sc`, a broken protocol, which must violate an invariant;
/// prints the violating trace and returns its first line.
fn violation(sc: Scenario) -> String {
    let err = Checker::new(sc)
        .explore()
        .expect_err("the broken protocol must violate an invariant");
    println!("{err}");
    err.lines().next().unwrap_or_default().to_string()
}

/// The coherent scenarios: `procs` processors, `writes` stores per run,
/// interleavings of at most `depth` actions; two pages' interleavings
/// are explored to depth 30 (24 with three processors, whose two-page
/// state space outgrows a few gigabytes beyond that).
fn scenarios(procs: usize, writes: u8, depth: Option<u32>) -> Vec<Scenario> {
    let with = |policy, f: &dyn Fn(&mut Scenario)| {
        let mut sc = Scenario::new(procs, policy);
        sc.writes = writes;
        sc.depth = depth;
        f(&mut sc);
        sc
    };
    vec![
        with(PagePolicy::Eager, &|_| {}),
        with(PagePolicy::HomeLrc, &|_| {}),
        with(PagePolicy::Eager, &|sc| {
            sc.switch = Some(PagePolicy::SingleWriterPin)
        }),
        with(PagePolicy::Eager, &|sc| {
            sc.switch = Some(PagePolicy::WriteThrough)
        }),
        with(PagePolicy::Eager, &|sc| sc.churn = true),
        // False sharing: two words of one page under two locks.
        with(PagePolicy::Eager, &|sc| {
            sc.words = vec![(0, 0, 0), (0, 1, 1)]
        }),
        // Two pages homed at a processor's SSMP, under one lock.
        with(PagePolicy::Eager, &|sc| {
            (sc.home, sc.pages) = (0, 2);
            sc.words = vec![(0, 0, 0), (1, 0, 0)];
            sc.depth = Some(if procs > 2 { 24 } else { 30 });
        }),
    ]
}

#[test]
fn the_real_step_keeps_every_invariant() {
    let reached = check(scenarios(2, 1, None));
    // The two charge asymmetries DESIGN.md records. An upgrade's drop
    // charges no page clean, and never needs one: only a write-through
    // push dirties a READ copy, and the upgrade drops serve noticed and
    // pinned pages, which never take pushes.
    assert_eq!(*reached.retired_dirty.borrow(), []);
    // A writer's merge without a home clean does meet dirty home lines:
    // an acquire drain's eviction, a churn eviction, and an eager
    // release while the home SSMP holds a copy.
    let merged = reached.merged_over_dirty_home.borrow();
    assert!(
        merged.iter().any(|k| matches!(k, Kind::Drain { .. })),
        "{merged:?}"
    );
    assert!(
        merged.iter().any(|k| matches!(k, Kind::Depart { .. })),
        "{merged:?}"
    );
    assert!(
        merged.iter().any(|k| matches!(k, Kind::Release { .. })),
        "{merged:?}"
    );
}

/// Two processors on one SSMP, the home at another: a sibling's TLB
/// fill runs through the real fault step, under the page lock, and a
/// shoot-down unmaps both siblings and prunes both DUQs (arc 12).
#[test]
fn two_processors_on_one_ssmp_keep_every_invariant() {
    let mut sc = Scenario::new(2, PagePolicy::Eager);
    (sc.per_ssmp, sc.home, sc.writes, sc.depth) = (2, 1, 1, Some(36));
    // A churn eviction is the third party whose shoot-down finds both
    // siblings' DUQs holding the page.
    sc.churn = true;
    let (ck, _) = checked(sc);
    assert!(ck.reached.sibling_fill.get(), "no sibling TLB fill reached");
    assert!(
        ck.reached.siblings_pruned.get(),
        "no shoot-down of both siblings reached"
    );
}

/// Home-LRC with two processors on SSMP 0 and one on SSMP 1, the home
/// at SSMP 2, two words of one page under two locks: SSMP 1's release
/// notices SSMP 0, and both siblings acquire.
fn siblings_under_home_lrc(depth: u32) -> Scenario {
    let mut sc = Scenario::new(3, PagePolicy::HomeLrc);
    (sc.per_ssmp, sc.home, sc.writes, sc.depth) = (2, 2, 1, Some(depth));
    sc.words = vec![(0, 0, 0), (0, 1, 1)];
    sc
}

/// An acquire that finds its front page mid-drain by a sibling waits
/// for that page's lock, and returns only once the page has drained.
#[test]
fn two_siblings_acquiring_under_home_lrc_keep_every_invariant() {
    let (ck, _) = checked(siblings_under_home_lrc(24));
    assert!(
        ck.reached.sibling_drain.get(),
        "no acquire found its front page mid-drain by a sibling"
    );
}

#[test]
#[ignore = "minutes; run in release"]
fn the_real_step_keeps_every_invariant_at_a_deeper_bound() {
    let mut all = scenarios(2, 2, None);
    all.extend(scenarios(3, 1, Some(40)));
    all.push(siblings_under_home_lrc(34));
    let reached = check(all);
    assert_eq!(*reached.retired_dirty.borrow(), []);
}

#[test]
fn a_release_returning_before_the_pruning_flush_is_found() {
    // The lost update `pruned_duq.rs` builds by hand, found from the data
    // invariants alone: the lock reaches an SSMP the flush has not yet
    // invalidated.
    let mut sc = Scenario::new(3, PagePolicy::Eager);
    sc.bug = Some(Bug::StaleEntryUnlocked);
    sc.release_check = false;
    let v = violation(sc.clone());
    assert!(v.contains("under its lock"), "{v}");
    sc.release_check = true;
    let v = violation(sc);
    assert!(v.contains("returned before the flush"), "{v}");
}

#[test]
fn a_pinned_eviction_that_spares_the_readers_is_found() {
    let mut sc = Scenario::new(3, PagePolicy::SingleWriterPin);
    sc.bug = Some(Bug::PinEvictsWritersOnly);
    let v = violation(sc);
    assert!(v.contains("under its lock"), "{v}");
}

#[test]
fn an_acquire_returning_before_a_siblings_drain_is_found() {
    let mut sc = siblings_under_home_lrc(27);
    sc.bug = Some(Bug::DrainPopsFirst);
    let v = violation(sc);
    assert!(
        v.contains("reads word") && v.contains("under its lock"),
        "{v}"
    );
}

#[test]
fn table_1_arc_23_read_literally_loses_a_released_write() {
    let mut sc = Scenario::new(2, PagePolicy::Eager);
    sc.bug = Some(Bug::Arc23Literal);
    let v = violation(sc);
    assert!(v.contains("at a barrier the home holds"), "{v}");
}
