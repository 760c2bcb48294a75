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
//! departure and rejoin. Between the effects of a transaction that
//! holds a page's server lock, everything that does not need that lock
//! may run: a store through a live mapping, a TLB fill from a local
//! copy, a release whose DUQ entry was pruned, a lock hand-over. A
//! paused transaction resumes by replaying its step from the state it
//! started in, skipping the effects already carried out. Every
//! inter-SSMP message is delivered twice through a real [`SeqFilter`],
//! and the copy must be rejected.
//!
//! The checked invariants:
//! - at most one untwinned writer, and only at the home SSMP;
//! - no released write is missing from the home copy at a barrier;
//! - no stale sharer remains once a release's invalidations complete,
//!   and no locked access reads a value other than the last write;
//! - no release returns before the flush that pruned its DUQ entry.
//!
//! Model bounds: one processor per SSMP (the `BUSY` wait and a local
//! sibling's TLB fill stay host-side), at most one transaction in
//! flight, one lock held per processor, one churn departure, and a
//! budget of stores per run.
//!
//! The negative cases break the real step from the outside (a wrapper
//! here, no switch in the crate) and the search, told only the
//! invariants, must name a violating interleaving:
//! - a release that returns at once when its DUQ entry was pruned —
//!   the lost update `release_waits_for_the_flush_that_pruned_its_page`
//!   in `pruned_duq.rs` builds by hand;
//! - a pinned-writer eviction that leaves the readers — the stale read
//!   of `evicting_a_pinned_writer_takes_the_stale_readers_with_it`;
//! - Table 1's arc 23 read literally (`write_dir = φ` after a
//!   single-writer flush; the erratum in the crate docs).
//!
//! `cargo test --release -p mgs-proto --test protocol_model --
//! --ignored` runs the same checks at a deeper bound.

use mgs_net::MsgKind;
use mgs_obs::{ObsEvent, XactOutcome};
use mgs_proto::step::{ClientState, Ctx, Effects, Frame, PageState};
use mgs_proto::{PagePolicy, ProtoConfig, ProtocolError, SeqFilter};
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
    /// The SSMP's one processor maps the page (`tlb_dir`).
    mapped: bool,
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
    /// Wait for a page's server lock (a pruned DUQ entry).
    WaitServer(usize),
    WaitDrains,
    DrainEnd,
    Unlock(usize),
    /// A release returns; the mask holds the pages pruned from its DUQ.
    Return(u8),
    Rejoined(usize),
}

#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
struct Proc {
    tlb: [Perm; 2],
    duq: Vec<u8>,
    pruned: u8,
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
    /// `noticed()` answers so far, one bit per call.
    noticed: u32,
    /// Client records the step has locked.
    locked: u8,
    diff: Option<(u8, Mem)>,
    cleaned_home: bool,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct World {
    pages: Vec<Page>,
    /// The processors, then the churn agent.
    procs: Vec<Proc>,
    locks: Vec<Option<usize>>,
    notices: [u8; SSMPS],
    drains: [u8; SSMPS],
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
    /// A release whose DUQ entry was pruned returns at once.
    PrunedReleaseReturns,
    /// A pinned-writer eviction evicts only the writers.
    PinEvictsWritersOnly,
    /// `write_dir = φ` after a single-writer flush.
    Arc23Literal,
}

#[derive(Clone, Debug)]
struct Scenario {
    /// Processors, one per SSMP, at SSMPs `0..procs`.
    procs: usize,
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

    fn ssmps(&self) -> usize {
        (self.home + 1).max(self.procs)
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
    filters: Vec<SeqFilter>,
    seq: Vec<Cell<u64>>,
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
    queries: u32,
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
        self.inf.locked |= bit(s);
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
        if self.real(false, || format!("{kind:?} {from} -> {to}")) && from != to {
            let seq = self.ck.seq[from].get() + 1;
            self.ck.seq[from].set(seq);
            let first = self.ck.filters[to].accept(from, seq);
            if !first || self.ck.filters[to].accept(from, seq) {
                self.fail(format!("{kind:?} {from} -> {to} handled twice"));
            }
        }
        Ok(())
    }

    fn local(&mut self, _: Cycles) {}

    fn work(&mut self, _: usize, _: Cycles) {}

    fn owner(&mut self, ssmp: usize) -> usize {
        if self.mode(false) == Mode::Real {
            self.client(ssmp);
        }
        ssmp
    }

    fn observe(&mut self, event: ObsEvent) {
        if matches!(event, ObsEvent::SingleWriterFlush { .. }) && !self.off {
            self.single_writer_flush = true;
        }
        self.real(false, || format!("{event:?}"));
    }

    fn noticed(&mut self, ssmp: usize) -> bool {
        let q = self.queries;
        self.queries += 1;
        match self.mode(true) {
            Mode::Replay => self.inf.noticed >> q & 1 == 1,
            Mode::Off => false,
            Mode::Real => {
                let page = self.inf.page;
                let yes = self.ck.sc.notices
                    && (self.w.notices[ssmp] & bit(page) != 0 || self.w.drains[ssmp] > 0);
                self.inf.noticed |= u32::from(yes) << q;
                yes
            }
        }
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
        if std::mem::take(&mut c.mapped) {
            // One processor per SSMP: processor `ssmp`.
            let p = &mut self.w.procs[ssmp];
            p.tlb[page] = Perm::None;
            if let Some(i) = p.duq.iter().position(|&q| q as usize == page) {
                p.duq.remove(i);
                p.pruned |= bit(page);
                p.pruned_live |= bit(page);
            }
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
        self.client(proc).mapped = true;
        let page = self.inf.page as u8;
        let duq = &mut self.w.procs[proc].duq;
        let new = write && !duq.contains(&page);
        if new {
            duq.push(page);
        }
        new
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
            cfg: ProtoConfig::new(n, 1),
            filters: (0..n).map(|_| SeqFilter::new(n)).collect(),
            seq: (0..n).map(|_| Cell::new(0)).collect(),
            reached: Reached::default(),
            trace: RefCell::new(None),
            sc,
        }
    }

    fn root(&self) -> World {
        let sc = &self.sc;
        let page = Page {
            st: PageState::new(sc.home),
            policy: sc.policy,
            home: [0; 2],
            home_node: sc.home,
            home_dirty: false,
            clients: Default::default(),
        };
        World {
            pages: vec![page; sc.pages],
            procs: vec![Proc::default(); sc.procs + 1],
            locks: vec![None; sc.locks()],
            notices: [0; SSMPS],
            drains: [0; SSMPS],
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
        let locked = w.inflight.as_ref().map_or(0, |i| i.locked);
        for who in 0..=sc.procs {
            let pr = &w.procs[who];
            if w.inflight.as_ref().is_some_and(|i| i.who == who) {
                acts.push(Act::Op { who });
                continue;
            }
            if let Some(&op) = pr.ops.front() {
                let ready = match op {
                    Op::Xact(..) => w.inflight.is_none(),
                    Op::WaitServer(pg) => w.inflight.as_ref().is_none_or(|i| i.page != pg),
                    Op::WaitDrains => w.drains[who] == 0,
                    _ => true,
                };
                if ready {
                    acts.push(Act::Op { who });
                }
                continue;
            }
            if who == self.agent() {
                // The processors' SSMPs are alike: only the last departs.
                for ssmp in sc.procs - 1..sc.ssmps() {
                    if w.departed & bit(ssmp) != 0 {
                        acts.push(Act::Rejoin { ssmp });
                    } else if sc.churn && w.churns == 0 {
                        acts.push(Act::Depart { ssmp });
                    }
                }
                continue;
            }
            let proc = who;
            for page in 0..sc.pages {
                for write in [false, true] {
                    let have = pr.tlb[page];
                    if (have == Perm::None || have == Perm::Read && write)
                        && locked & bit(proc) == 0
                    {
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
            if !pr.duq.is_empty() || pr.pruned != 0 {
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

    /// The ops of a release: wait out the pruning flushes, release every
    /// queued page, return.
    fn release_ops(&self, w: &mut World, proc: usize) -> Vec<Op> {
        let p = &mut w.procs[proc];
        let (pages, pruned) = (std::mem::take(&mut p.duq), std::mem::take(&mut p.pruned));
        let mut ops = Vec::new();
        if self.sc.bug != Some(Bug::PrunedReleaseReturns) {
            ops.extend(
                (0..self.sc.pages)
                    .filter(|&pg| pruned & bit(pg) != 0)
                    .map(Op::WaitServer),
            );
        }
        ops.extend(
            pages
                .iter()
                .map(|&pg| Op::Xact(Kind::Release { proc }, pg as usize)),
        );
        ops.push(Op::Return(pruned));
        ops
    }

    fn word_value(w: &World, proc: usize, page: usize, off: usize) -> Val {
        let pg = &w.pages[page];
        match pg.clients[proc].frame {
            Fr::Own(m) => m[off],
            Fr::Home => pg.home[off],
            Fr::None => unreachable!("a live mapping has a frame"),
        }
    }

    fn apply(&self, w: &mut World, act: Act) -> Check {
        self.note(|| format!("{act:?}"));
        match act {
            Act::Fault { proc, page, write } => {
                let state = w.pages[page].clients[proc].state;
                match (state, write) {
                    (ClientState::Write, _) | (ClientState::Read, false) => {
                        Self::map_local(w, proc, page, write);
                    }
                    _ => w.procs[proc]
                        .ops
                        .push_back(Op::Xact(Kind::Fault { proc, write }, page)),
                }
            }
            Act::Store { proc, word } => {
                // A read-modify-write; `check_state` saw it read the truth.
                let (page, off, _) = self.sc.words[word];
                let new = w.truth[word] | bit(w.writes as usize);
                w.writes += 1;
                (w.truth[word], w.last[word]) = (new, proc);
                let pg = &mut w.pages[page];
                let c = &mut pg.clients[proc];
                match &mut c.frame {
                    Fr::Own(m) => (m[off], c.dirty) = (new, true),
                    _ => (pg.home[off], pg.home_dirty) = (new, true),
                }
            }
            Act::Acquire { proc, lock } => {
                w.locks[lock] = Some(proc);
                w.procs[proc].holds = Some(lock);
                if self.sc.notices {
                    let pages = std::mem::take(&mut w.notices[proc]);
                    let ops = &mut w.procs[proc].ops;
                    if pages == 0 {
                        ops.push_back(Op::WaitDrains);
                    } else {
                        w.drains[proc] += 1;
                        for pg in (0..self.sc.pages).filter(|&pg| pages & bit(pg) != 0) {
                            ops.push_back(Op::Xact(Kind::Drain { ssmp: proc }, pg));
                        }
                        ops.push_back(Op::DrainEnd);
                    }
                }
            }
            Act::Unlock { proc } => {
                let lock = w.procs[proc].holds.expect("holds a lock");
                let ops = self.release_ops(w, proc);
                w.procs[proc].ops.extend(ops);
                w.procs[proc].ops.push_back(Op::Unlock(lock));
            }
            Act::Release { proc } => {
                let ops = self.release_ops(w, proc);
                w.procs[proc].ops.extend(ops);
            }
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
                        new_home: survivor,
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

    fn map_local(w: &mut World, proc: usize, page: usize, write: bool) {
        w.pages[page].clients[proc].mapped = true;
        let p = &mut w.procs[proc];
        if write && !p.duq.contains(&(page as u8)) {
            p.duq.push(page as u8);
        }
        p.tlb[page] = if write { Perm::Write } else { Perm::Read };
    }

    fn op(&self, w: &mut World, who: usize) -> Check {
        if w.inflight.as_ref().is_some_and(|i| i.who == who) {
            return self.advance(w);
        }
        let op = w.procs[who].ops.pop_front().expect("an op");
        match op {
            Op::Xact(kind, page) => {
                w.procs[who].ops.push_front(op);
                w.inflight = Some(Inflight {
                    who,
                    kind,
                    page,
                    start: w.pages[page].st,
                    policy: w.pages[page].policy,
                    next: -1,
                    noticed: 0,
                    locked: 0,
                    diff: None,
                    cleaned_home: false,
                });
                return self.advance(w);
            }
            Op::WaitServer(_) | Op::WaitDrains => {}
            Op::DrainEnd => w.drains[who] -= 1,
            Op::Unlock(lock) => {
                w.locks[lock] = None;
                w.procs[who].holds = None;
            }
            Op::Return(pruned) => {
                if self.sc.release_check && w.procs[who].pruned_live & pruned != 0 {
                    return Err(format!(
                        "processor {who}'s release returned before the flush that pruned its DUQ"
                    ));
                }
            }
            Op::Rejoined(ssmp) => w.departed &= !bit(ssmp),
        }
        Ok(())
    }

    /// Carries out one more pause point of the transaction in flight,
    /// committing it when its step returns.
    fn advance(&self, w: &mut World) -> Check {
        let mut inf = w.inflight.take().expect("a transaction in flight");
        let mut st = inf.start;
        let cx = Ctx {
            cfg: &self.cfg,
            page: inf.page as u64,
            policy: inf.policy,
        };
        let (kind, page) = (inf.kind, inf.page);
        let mut fx = Fx {
            ck: self,
            w,
            inf: &mut inf,
            all: false,
            seen: 0,
            off: false,
            queries: 0,
            single_writer_flush: false,
            bad: None,
        };
        let outcome = run_step(kind, &mut st, &cx, &mut fx, self.sc.bug);
        let (off, bad) = (fx.off, fx.bad.take());
        if let Some(bad) = bad {
            return Err(bad);
        }
        if off {
            inf.next += 1;
            w.inflight = Some(inf);
            return Ok(());
        }
        w.pages[page].st = st;
        for p in &mut w.procs {
            p.pruned_live &= !bit(page);
        }
        let who = inf.who;
        w.procs[who].ops.pop_front();
        match (kind, outcome) {
            (Kind::Fault { proc, .. }, Some(XactOutcome::TlbFill)) => {
                Self::map_local(w, proc, page, true)
            }
            (Kind::Fault { proc, write }, Some(_)) => {
                w.procs[proc].tlb[page] = if write { Perm::Write } else { Perm::Read };
            }
            (Kind::Release { proc }, _) => self.check_released(w, proc, page)?,
            _ => {}
        }
        Ok(())
    }

    /// Runs a whole step at once (the barrier's unpin).
    fn run_whole(&self, w: &mut World, kind: Kind, page: usize) -> Check {
        let mut inf = Inflight {
            who: self.agent(),
            kind,
            page,
            start: w.pages[page].st,
            policy: w.pages[page].policy,
            next: 0,
            noticed: 0,
            locked: 0,
            diff: None,
            cleaned_home: false,
        };
        let mut st = inf.start;
        let cx = Ctx {
            cfg: &self.cfg,
            page: page as u64,
            policy: inf.policy,
        };
        let mut fx = Fx {
            ck: self,
            w,
            inf: &mut inf,
            all: true,
            seen: 0,
            off: false,
            queries: 0,
            single_writer_flush: false,
            bad: None,
        };
        run_step(kind, &mut st, &cx, &mut fx, self.sc.bug);
        if let Some(bad) = fx.bad.take() {
            return Err(bad);
        }
        w.pages[page].st = st;
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
            for t in (0..self.sc.ssmps()).filter(|&t| t != proc) {
                let c = w.pages[page].clients[t];
                let noticed = self.sc.notices && (w.notices[t] & bit(page) != 0 || w.drains[t] > 0);
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
                let state = pg.clients[proc].state;
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
                let v = Self::word_value(w, proc, page, off);
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
            self.run_whole(&mut w, Kind::Unpin, page)?;
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

/// Explores each scenario, which must hold every invariant; returns
/// what the searches reached.
fn check(scenarios: Vec<Scenario>) -> Reached {
    let all = Reached::default();
    let (mut states, start) = (0, Instant::now());
    for sc in scenarios {
        let name = format!("{sc:?}");
        let ck = Checker::new(sc);
        let r = ck.explore().unwrap_or_else(|e| panic!("{name}: {e}"));
        println!(
            "{} states, {} transitions, {:.2} s: {name}",
            r.states, r.transitions, r.secs
        );
        states += r.states;
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

#[test]
#[ignore = "minutes; run in release"]
fn the_real_step_keeps_every_invariant_at_a_deeper_bound() {
    let mut all = scenarios(2, 2, None);
    all.extend(scenarios(3, 1, Some(40)));
    let reached = check(all);
    assert_eq!(*reached.retired_dirty.borrow(), []);
}

#[test]
fn a_release_returning_before_the_pruning_flush_is_found() {
    // The lost update `pruned_duq.rs` builds by hand, found from the data
    // invariants alone: the lock reaches an SSMP the flush has not yet
    // invalidated.
    let mut sc = Scenario::new(3, PagePolicy::Eager);
    sc.bug = Some(Bug::PrunedReleaseReturns);
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
fn table_1_arc_23_read_literally_loses_a_released_write() {
    let mut sc = Scenario::new(2, PagePolicy::Eager);
    sc.bug = Some(Bug::Arc23Literal);
    let v = violation(sc);
    assert!(v.contains("at a barrier the home holds"), "{v}");
}
