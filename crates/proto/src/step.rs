//! The MGS protocol as a transition function: Table 1's arcs over
//! Figure 4's client and server states.
//!
//! A page's protocol state is plain [`PageState`] data, and each Table 1
//! transaction is one method on it that reads only the state, the
//! page's policy and the machine's shape ([`Ctx`]), and does everything
//! else — messages, charges, data motion, observed events — through one
//! [`Effects`] trait. [`MgsProtocol`](crate::MgsProtocol) takes the
//! page's lock and runs the step on its state with each effect carried
//! out as it is issued (nothing is collected); the checker in
//! `crates/proto/tests/protocol_model.rs` runs the same steps over an
//! abstract memory.

use crate::transport::ProtocolError;
use crate::{PagePolicy, ProtoConfig};
use mgs_net::MsgKind;
use mgs_obs::{ObsEvent, XactOutcome};
use mgs_sim::Cycles;

type Res<T = ()> = Result<T, ProtocolError>;

/// Client-side page state of one SSMP (Figure 4's Local/Remote Client
/// `pagestate`). The paper's `BUSY` — a fill in flight, local faulters
/// wait — is the page lock: a whole fault is one step under it, so a
/// sibling that faults during a fill waits for the step and then finds
/// the copy mapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClientState {
    /// No local copy (`INV`).
    #[default]
    Inv,
    /// Read-only local copy (`READ`).
    Read,
    /// Read-write local copy (`WRITE`).
    Write,
}

/// Server-side directories for one page: which SSMPs hold read and
/// write copies. Bit *i* set means SSMP *i*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct ServerDirs {
    /// SSMPs holding read-only copies.
    pub read_dir: u64,
    /// SSMPs holding read-write copies.
    pub write_dir: u64,
}

impl ServerDirs {
    /// All SSMPs holding any copy.
    pub fn all(&self) -> u64 {
        self.read_dir | self.write_dir
    }

    /// Number of writer SSMPs.
    pub fn writers(&self) -> u32 {
        self.write_dir.count_ones()
    }
}

/// Iterates the set bit positions of a mask.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}

/// One page's protocol state; bit *i* of a mask means SSMP *i*. The
/// directories and the client masks differ on purpose: a single-writer
/// flush keeps its writer listed, home-LRC lists noticed copies until
/// they drain, and churn can leave a bit with no copy behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PageState {
    /// The server's `read_dir` / `write_dir`.
    pub dirs: ServerDirs,
    /// SSMPs whose copy is READ.
    pub read: u64,
    /// SSMPs whose copy is WRITE.
    pub write: u64,
    /// Home-LRC: SSMPs holding a write notice for the page, until
    /// their next acquire drain.
    pub noticed: u64,
    /// SSMPs where a write mapping queued the page on a DUQ and no
    /// shoot-down has pruned it since: writes no release has carried
    /// home yet.
    pub unreleased: u64,
    /// The home node (global processor): the server runs there and the
    /// home copy lives there. Fixed unless its SSMP departs.
    pub home: usize,
}

/// What a step reads besides the page state.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// The machine's shape and costs.
    pub cfg: &'a ProtoConfig,
    /// The virtual page (for observed events).
    pub page: u64,
    /// The page's policy, copied from its record under the page's
    /// lock. The adaptive controller reclassifies a page under the
    /// same lock, so a step sees one policy from start to end.
    pub policy: PagePolicy,
}

/// A page frame a data effect names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// The physical home copy.
    Home,
    /// SSMP *i*'s copy.
    Copy(usize),
}

/// Every side effect a step can have. The interpreter implements it
/// against the machine; the checker against an abstract memory.
pub trait Effects {
    /// A protocol message; one between SSMPs goes through the
    /// exactly-once ARQ and fails once its retries are exhausted.
    fn send(&mut self, from: usize, to: usize, kind: MsgKind, bytes: u64) -> Res;
    /// Work on the requesting processor.
    fn local(&mut self, cycles: Cycles);
    /// Work serialized at global processor `node`'s protocol engine.
    fn work(&mut self, node: usize, cycles: Cycles);
    /// The processor owning `ssmp`'s copy (its Remote Client).
    fn owner(&mut self, ssmp: usize) -> usize;
    /// An observed event; charges nothing.
    fn observe(&mut self, event: ObsEvent);
    /// `ssmp`'s client record takes `state`. Leaving INV with no frame
    /// (the home SSMP, which no fill ships to) maps the home copy; a
    /// READ or INV copy keeps no twin; INV retires the copy.
    fn set_state(&mut self, ssmp: usize, state: ClientState);
    /// PINV fan-out to `ssmp`'s mapping processors (arcs 11, 15), then
    /// retiring the copy's mapping generation, which leaves their DUQ
    /// entries for the page stale: arc 12's prune.
    fn shoot_down(&mut self, ssmp: usize);
    /// Page cleaning (§4.2.4): flush the frame's cached lines in its
    /// SSMP, charged to the frame's node when `charged`.
    fn clean(&mut self, frame: Frame, charged: bool);
    /// `ssmp`'s twin becomes a copy of its frame.
    fn twin(&mut self, ssmp: usize);
    /// Diffs `ssmp`'s copy against its twin, which is consumed, or
    /// refreshed to the diffed image when `keep_twin`. Returns the
    /// changed words.
    fn diff(&mut self, ssmp: usize, keep_twin: bool) -> u64;
    /// Applies the last diff (from `ssmp`) to the home copy.
    fn merge(&mut self, ssmp: usize);
    /// Applies the last diff to `ssmp`'s live copy and twin in place.
    fn push(&mut self, ssmp: usize);
    /// Ships a whole page: cleans and gathers `from`, sends it as
    /// `kind`, and lands it — in a new frame at `node` that becomes the
    /// copy's frame, over the home copy when `node` is the home node,
    /// else in a new home copy at `node`. With `twin`, the image shipped
    /// also becomes the twin of the copy at the [`Frame::Copy`] end.
    fn ship(&mut self, from: Frame, to: Frame, node: usize, kind: MsgKind, twin: bool) -> Res;
    /// Queues the page on `ssmp`'s home-LRC write-notice queue; called
    /// once per clear→set of the page's [`PageState::noticed`] bit.
    fn notice(&mut self, ssmp: usize);
    /// Maps the page for `proc` (its `tlb_dir` bit) and, for a write,
    /// queues it on `proc`'s DUQ (arcs 3, 7) unless a live entry holds
    /// it; a stale entry is replaced by one at the back. Returns whether
    /// it was newly queued.
    fn map(&mut self, proc: usize, write: bool) -> bool;
}

const fn bit(ssmp: usize) -> u64 {
    1 << ssmp
}

impl PageState {
    /// A fresh page homed at `home`: no copies anywhere.
    pub fn new(home: usize) -> PageState {
        PageState {
            home,
            ..PageState::default()
        }
    }

    /// `ssmp`'s client state.
    pub fn client(&self, ssmp: usize) -> ClientState {
        match (self.read & bit(ssmp) != 0, self.write & bit(ssmp) != 0) {
            (true, _) => ClientState::Read,
            (_, true) => ClientState::Write,
            _ => ClientState::Inv,
        }
    }

    /// Moves `s`'s client to `state`; only a WRITE copy keeps a twin.
    fn set(&mut self, s: usize, state: ClientState, fx: &mut impl Effects) {
        let to = |want| if state == want { bit(s) } else { 0 };
        self.read = self.read & !bit(s) | to(ClientState::Read);
        self.write = self.write & !bit(s) | to(ClientState::Write);
        fx.set_state(s, state);
    }

    /// Maps the page for `proc`; a write queues it on the DUQ (arcs 3,
    /// 7), charged when newly queued.
    fn map(&mut self, cx: &Ctx, proc: usize, write: bool, fx: &mut impl Effects) {
        if fx.map(proc, write) {
            fx.local(cx.cfg.cost.duq_insert);
        }
        if write {
            self.unreleased |= bit(cx.cfg.ssmp_of(proc));
        }
    }

    /// Unmaps the page at `s`, pruning its processors' DUQ entries.
    fn shoot_down(&mut self, s: usize, fx: &mut impl Effects) {
        fx.shoot_down(s);
        self.unreleased &= !bit(s);
    }

    /// `write_dir ∪= {s}`, noting when a second SSMP breaks the page out
    /// of single-writer mode (its next release takes the diff path).
    fn add_writer(&mut self, cx: &Ctx, s: usize, fx: &mut impl Effects) {
        let page = cx.page;
        if cx.cfg.single_writer_opt && self.dirs.writers() == 1 && self.dirs.write_dir & bit(s) == 0
        {
            fx.observe(ObsEvent::SingleWriterBreak { page, ssmp: s });
        }
        self.dirs.write_dir |= bit(s);
    }

    /// Arcs 5 → 17/18/19 → 6/7: `proc`'s SSMP has no copy; request one
    /// from the home and install it.
    fn fill(&mut self, cx: &Ctx, proc: usize, write: bool, fx: &mut impl Effects) -> Res {
        let (c, s) = (&cx.cfg.cost, cx.cfg.ssmp_of(proc));
        let hs = cx.cfg.ssmp_of(self.home);
        let (req, dat, service) = if write {
            (MsgKind::WReq, MsgKind::WDat, c.server_write)
        } else {
            (MsgKind::RReq, MsgKind::RDat, c.server_read)
        };
        fx.send(s, hs, req, 0)?;
        fx.work(self.home, service);
        // A pinned page's home copy is stale until its writer's diff
        // merges, so every fill evicts the writer first. Read fills
        // evict too, rather than flushing the writer in place: a reader
        // polling a pinned page would otherwise re-trigger a whole-page
        // diff scan per read, while after an eviction the page stays
        // read-shared until the writer's next store.
        self.pin_evict(cx, s, fx)?;
        if s != hs {
            // First-touch placement (§3.1.2); the home SSMP maps the
            // home copy itself.
            // A write fill's twin is the image that arrives (§3.1.1:
            // twins are made at request time).
            fx.ship(Frame::Home, Frame::Copy(s), proc, dat, write)?;
        }
        debug_assert_eq!(self.dirs.all() & bit(s), 0, "a filling SSMP holds no copy");
        if write {
            self.add_writer(cx, s, fx);
            self.set(s, ClientState::Write, fx);
            if s != hs {
                fx.local(c.twin_cost(cx.cfg.geometry.words_per_page()));
                fx.observe(ObsEvent::TwinCreate {
                    page: cx.page,
                    ssmp: s,
                });
            }
        } else {
            self.dirs.read_dir |= bit(s);
            self.set(s, ClientState::Read, fx);
        }
        self.map(cx, proc, write, fx);
        fx.local(c.lc_finish);
        Ok(())
    }

    /// `RTLBFault` / `WTLBFault` by `proc`: a TLB fill from the SSMP's
    /// copy (arc 1, and arc 3 for a write on a WRITE copy), an upgrade
    /// of a READ copy, or a fill when the SSMP holds no copy.
    ///
    /// The caller maps the page writable only for a write fault, so a
    /// processor that read-faults on a WRITE copy still faults on its
    /// first write, which queues the page on its DUQ.
    pub fn fault(
        &mut self,
        cx: &Ctx,
        proc: usize,
        write: bool,
        fx: &mut impl Effects,
    ) -> Res<XactOutcome> {
        let c = &cx.cfg.cost;
        match (self.client(cx.cfg.ssmp_of(proc)), write) {
            (ClientState::Write, _) | (ClientState::Read, false) => {
                fx.local(c.pt_walk);
                // Arc 3: DUQ = DUQ ∪ {addr}.
                self.map(cx, proc, write, fx);
                return Ok(XactOutcome::TlbFill);
            }
            (ClientState::Read, true) => return self.upgrade(cx, proc, fx),
            (ClientState::Inv, _) => {}
        }
        fx.local(c.lc_miss_setup);
        self.fill(cx, proc, write, fx)?;
        Ok(match write {
            true => XactOutcome::WriteMiss,
            false => XactOutcome::ReadMiss,
        })
    }

    /// Arcs 2, 13 and the server's WNOTIFY (arc 18): a write fault on a
    /// READ copy. Resolves as `Upgrade`, or as `WriteMiss` when the copy
    /// had to go first (noticed stale, or a pinned writer's eviction
    /// made it stale).
    fn upgrade(&mut self, cx: &Ctx, proc: usize, fx: &mut impl Effects) -> Res<XactOutcome> {
        let (c, s) = (&cx.cfg.cost, cx.cfg.ssmp_of(proc));
        let hs = cx.cfg.ssmp_of(self.home);
        // Under home-LRC a noticed copy is stale: twinning it would diff
        // against stale data, and a later single-writer flush would ship
        // the stale page whole. Drop it and fill instead; no page clean
        // is charged. The notice stays, so the next drain evicts the
        // refilled copy too.
        if self.read & bit(s) & self.noticed != 0 {
            self.drop_stale(cx, s, false, fx);
        }
        if self.read & bit(s) != 0
            && self.dirs.write_dir & !bit(s) != 0
            && cx.policy == PagePolicy::SingleWriterPin
        {
            // Keep a pinned page single-writer: evict the writer, whose
            // merge makes this READ copy stale, so drop it and fill. (An
            // in-place upgrade would twin the pre-merge image, and the
            // pinned release ships whole pages, clobbering the merge.)
            self.pin_evict(cx, s, fx)?;
            self.drop_stale(cx, s, false, fx);
        }
        if self.client(s) == ClientState::Inv {
            return self.fault(cx, proc, true, fx);
        }
        fx.local(c.pt_walk);
        // Arc 2: UPGRADE ⇒ l_home, the Remote Client owning the copy.
        fx.send(s, s, MsgKind::Upgrade, 0)?;
        let rc = fx.owner(s);
        fx.work(rc, c.rc_upgrade);
        if s != hs {
            // Arc 13: make twin (the home SSMP never diffs).
            fx.work(rc, c.twin_cost(cx.cfg.geometry.words_per_page()));
            fx.twin(s);
            fx.observe(ObsEvent::TwinCreate {
                page: cx.page,
                ssmp: s,
            });
        }
        self.set(s, ClientState::Write, fx);
        // Arc 13: UP_ACK ⇒ src, WNOTIFY ⇒ g_home.
        fx.send(s, s, MsgKind::UpAck, 0)?;
        if let Err(e) = fx.send(s, hs, MsgKind::WNotify, 0) {
            // The server never learned of the privilege; keeping it
            // would lose this SSMP's updates at the next release.
            self.set(s, ClientState::Read, fx);
            return Err(e);
        }
        // Arc 18 (server): read_dir −= {src}, write_dir ∪= {src}.
        fx.work(self.home, c.server_wnotify);
        self.dirs.read_dir &= !bit(s);
        self.add_writer(cx, s, fx);
        // UP_ACK at the client: DUQ ∪ {addr} (arc 7), then the TLB.
        self.map(cx, proc, true, fx);
        Ok(XactOutcome::Upgrade)
    }

    /// REL ⇒ g_home … RACK (arcs 8, 20–23, 9): `proc` releases the page,
    /// under the flush discipline the page's policy selects.
    pub fn release(&mut self, cx: &Ctx, proc: usize, fx: &mut impl Effects) -> Res {
        let (c, s) = (&cx.cfg.cost, cx.cfg.ssmp_of(proc));
        let hs = cx.cfg.ssmp_of(self.home);
        fx.local(c.rel_entry);
        // Lazy migratory release (`SingleWriterPin`, sole writer): no
        // data moves. The writer keeps its mapping, twin and privilege,
        // so the next same-SSMP critical section runs entirely in
        // hardware: a lock-protected page whose lock stays inside one
        // SSMP pays nothing per critical section instead of a whole-page
        // flush. The unflushed updates stay recoverable: every fill of a
        // pinned page evicts the writer first (`pin_evict`), diffing
        // against the kept twin and merging home. Readers must still be
        // invalidated — release consistency makes copies filled before
        // this release stale now — but a migratory page rarely has any,
        // so the common release is two local charges and no messages.
        let pinned = cx.policy == PagePolicy::SingleWriterPin && self.dirs.write_dir == bit(s);
        let stale_readers = self.dirs.read_dir & !bit(s);
        if pinned && stale_readers == 0 {
            fx.local(c.rel_finish);
            return Ok(());
        }
        fx.send(s, hs, MsgKind::Rel, 0)?;
        fx.work(self.home, c.server_rel);
        match cx.policy {
            PagePolicy::SingleWriterPin if pinned => {
                for r in bits(stale_readers) {
                    self.invalidate(cx, r, false, fx)?;
                }
                self.dirs.read_dir &= bit(s);
            }
            // A pinned page lands here only in multi-writer transition
            // windows; the eager path merges every writer.
            PagePolicy::Eager | PagePolicy::SingleWriterPin => self.eager_flush(cx, fx)?,
            PagePolicy::HomeLrc => self.lrc_flush(cx, s, fx)?,
            PagePolicy::WriteThrough => self.write_through_flush(cx, s, fx)?,
        }
        // Arc 23: merge complete; acknowledge the releaser.
        fx.work(self.home, c.server_merge);
        fx.send(hs, s, MsgKind::RAck, 0)?;
        fx.local(c.rel_finish);
        Ok(())
    }

    /// The paper's flush (arcs 20–22): invalidate every sharer, merging
    /// writers' diffs — or, with one writer, 1WINV/1WDATA.
    fn eager_flush(&mut self, cx: &Ctx, fx: &mut impl Effects) -> Res {
        let (dirs, hs) = (self.dirs, cx.cfg.ssmp_of(self.home));
        if cx.cfg.single_writer_opt && dirs.writers() == 1 {
            // Arc 20, |write_dir| == 1: INV ⇒ read_dir, 1WINV ⇒ write_dir.
            let writer = dirs.write_dir.trailing_zeros() as usize;
            for r in bits(dirs.read_dir) {
                self.invalidate(cx, r, false, fx)?;
            }
            self.flush_single_writer(cx, writer, fx)?;
            // Arc 23 read literally would clear write_dir too; the writer
            // keeps its copy, so the server keeps tracking it (the
            // erratum in the crate docs).
            self.dirs = ServerDirs {
                read_dir: 0,
                write_dir: bit(writer),
            };
        } else {
            // Arcs 20 (multi-writer) / 21 (read-only): INV ⇒ all. The
            // home's cached lines are flushed once before the merges, so
            // post-merge reads at the home see merged data — unless the
            // home SSMP holds a copy (DESIGN.md § "Protocol steps":
            // nothing cleans them then).
            if dirs.all() & bit(hs) == 0 && dirs.writers() > 0 {
                fx.clean(Frame::Home, true);
            }
            for s in bits(dirs.all()) {
                self.invalidate(cx, s, dirs.write_dir & bit(s) != 0, fx)?;
            }
            self.dirs = ServerDirs::default();
        }
        Ok(())
    }

    /// Home-LRC flush: the releaser's diff goes home and the other
    /// sharers get write notices instead of invalidations; they drop
    /// their copies at their next acquire ([`drain_notice`]). The home
    /// SSMP's copy is the home copy and gets none. Directories stay.
    ///
    /// [`drain_notice`]: PageState::drain_notice
    fn lrc_flush(&mut self, cx: &Ctx, s: usize, fx: &mut impl Effects) -> Res {
        let (dirs, hs) = (self.dirs, cx.cfg.ssmp_of(self.home));
        if dirs.write_dir & bit(s) != 0 && s != hs {
            self.flush_own_diff(cx, s, fx)?;
        } else if dirs.write_dir & bit(s) != 0 {
            // A home-SSMP writer's stores are home already, so nothing
            // travels — but its DUQ is re-armed so the next batch of
            // local writes re-faults and triggers a future release
            // (which is what notifies the other sharers).
            self.shoot_down(s, fx);
        }
        self.notify(cx, dirs.all() & !bit(s), fx)
    }

    /// Home-LRC write notices from the home to every SSMP of `to` but
    /// the home's own: an INV each, queued for its next acquire drain.
    fn notify(&mut self, cx: &Ctx, to: u64, fx: &mut impl Effects) -> Res {
        let (page, hs) = (cx.page, cx.cfg.ssmp_of(self.home));
        for t in bits(to & !bit(hs)) {
            fx.send(hs, t, MsgKind::Inv, 0)?;
            if self.noticed & bit(t) == 0 {
                self.noticed |= bit(t);
                fx.notice(t);
            }
            fx.observe(ObsEvent::LazyNotice { page, ssmp: t });
        }
        Ok(())
    }

    /// Write-through flush: the releaser's diff is merged home and
    /// pushed into every live sharer copy in place (UPDATE), so sharers
    /// keep their mappings. A home-SSMP writer has no twin to diff and
    /// takes one eager release instead.
    fn write_through_flush(&mut self, cx: &Ctx, s: usize, fx: &mut impl Effects) -> Res {
        let page = cx.page;
        let (dirs, hs) = (self.dirs, cx.cfg.ssmp_of(self.home));
        if dirs.write_dir & bit(s) == 0 {
            // Nothing of ours left to push (the copy was already
            // evicted and merged, e.g. by churn); sharers stay live.
            return Ok(());
        }
        if s == hs {
            // No twin, so no diff to push: one eager release instead
            // (the sharer set re-forms on the next faults).
            return self.eager_flush(cx, fx);
        }
        let words = self.flush_own_diff(cx, s, fx)?;
        for t in bits(dirs.all() & !(bit(s) | bit(hs))) {
            if self.client(t) == ClientState::Inv {
                continue;
            }
            fx.send(hs, t, MsgKind::Update, words * 8)?;
            let node = fx.owner(t);
            fx.work(node, cx.cfg.cost.diff_transfer_apply_cost(words));
            fx.push(t);
            fx.observe(ObsEvent::UpdatePush {
                page,
                ssmp: t,
                words,
            });
        }
        Ok(())
    }

    /// The releaser-side flush of the disciplines that keep the copy:
    /// shoot down first (no store lands between diff and twin refresh,
    /// and the next write re-faults into the DUQ), diff with the twin
    /// refreshed under one drain, merge home. Returns the changed words.
    fn flush_own_diff(&mut self, cx: &Ctx, s: usize, fx: &mut impl Effects) -> Res<u64> {
        let c = &cx.cfg.cost;
        let rc = fx.owner(s);
        fx.work(rc, c.rc_entry);
        self.shoot_down(s, fx);
        fx.clean(Frame::Copy(s), true);
        let words = fx.diff(s, true);
        fx.work(rc, c.diff_compute_cost(cx.cfg.geometry.words_per_page()));
        let clean_home = self.dirs.all() & bit(cx.cfg.ssmp_of(self.home)) == 0;
        self.merge(cx, s, words, clean_home, fx)?;
        Ok(words)
    }

    /// Arc 16 (`tt == 2`) → 22: DIFF ⇒ g_home and the merge, after a
    /// home clean for a transaction that has not cleaned the home yet.
    fn merge(
        &mut self,
        cx: &Ctx,
        s: usize,
        words: u64,
        clean_home: bool,
        fx: &mut impl Effects,
    ) -> Res {
        fx.send(s, cx.cfg.ssmp_of(self.home), MsgKind::Diff, words * 8)?;
        fx.work(self.home, cx.cfg.cost.diff_transfer_apply_cost(words));
        if clean_home {
            fx.clean(Frame::Home, true);
        }
        fx.merge(s);
        Ok(())
    }

    /// Arc 14 (INV) at SSMP `s` → 15/16: PINV fan-out, page cleaning,
    /// then DIFF (a remote writer) or ACK back to the server. A writer's
    /// merge cleans no home: the eager flush cleaned it once for all
    /// writers, and an eviction outside a release merges without one.
    fn invalidate(&mut self, cx: &Ctx, s: usize, writer: bool, fx: &mut impl Effects) -> Res {
        if self.client(s) == ClientState::Inv {
            return Ok(());
        }
        let (c, hs, page) = (&cx.cfg.cost, cx.cfg.ssmp_of(self.home), cx.page);
        fx.observe(ObsEvent::Invalidate {
            page,
            ssmp: s,
            writer,
        });
        fx.send(hs, s, MsgKind::Inv, 0)?;
        let rc = fx.owner(s);
        fx.work(rc, c.rc_entry);
        self.shoot_down(s, fx);
        if s != hs {
            // The home SSMP's cached lines are the valid data: it is
            // never cleaned. With the read-only optimization a READ
            // copy's lines are invalidated off the critical path.
            fx.clean(Frame::Copy(s), writer || !cx.cfg.readonly_clean_opt);
        }
        if writer && s != hs {
            let words = fx.diff(s, false);
            fx.work(rc, c.diff_compute_cost(cx.cfg.geometry.words_per_page()));
            self.merge(cx, s, words, false, fx)?;
        } else {
            fx.send(s, hs, MsgKind::Ack, 0)?;
        }
        self.set(s, ClientState::Inv, fx);
        Ok(())
    }

    /// Arc 14/16 with `tt == 3`: the single-writer optimization. The
    /// writer ships its whole page (1WDATA) — "diff computation overhead
    /// is traded off for higher communication bandwidth" (§3.1.1) — and
    /// keeps its copy, unmapped, with the twin refreshed to the image.
    fn flush_single_writer(&mut self, cx: &Ctx, s: usize, fx: &mut impl Effects) -> Res {
        let page = cx.page;
        let hs = cx.cfg.ssmp_of(self.home);
        debug_assert_eq!(self.client(s), ClientState::Write, "the writer holds WRITE");
        fx.observe(ObsEvent::SingleWriterFlush { page, ssmp: s });
        fx.send(hs, s, MsgKind::OneWInv, 0)?;
        let rc = fx.owner(s);
        fx.work(rc, cx.cfg.cost.rc_entry);
        self.shoot_down(s, fx);
        if s == hs {
            // The home SSMP's stores are in the home copy already.
            return fx.send(s, hs, MsgKind::Ack, 0);
        }
        // The twin is refreshed to the image shipped.
        fx.ship(
            Frame::Copy(s),
            Frame::Home,
            self.home,
            MsgKind::OneWData,
            true,
        )
    }

    /// The message-free drop of SSMP `s`'s stale READ copy (arc 14
    /// without INV/ACK: the SSMP drops its own copy). Only the acquire
    /// drain owes the retired copy a page clean.
    fn drop_stale(&mut self, cx: &Ctx, s: usize, clean: bool, fx: &mut impl Effects) {
        let page = cx.page;
        self.shoot_down(s, fx);
        if clean {
            fx.clean(Frame::Copy(s), true);
        }
        self.set(s, ClientState::Inv, fx);
        self.dirs.read_dir &= !bit(s);
        fx.observe(ObsEvent::Invalidate {
            page,
            ssmp: s,
            writer: false,
        });
    }

    /// Invalidates SSMP `s`'s copy, if the directory lists one, and
    /// stops tracking it.
    pub fn evict(&mut self, cx: &Ctx, s: usize, fx: &mut impl Effects) -> Res {
        if self.dirs.all() & bit(s) != 0 {
            self.invalidate(cx, s, self.dirs.write_dir & bit(s) != 0, fx)?;
            self.dirs.read_dir &= !bit(s);
            self.dirs.write_dir &= !bit(s);
        }
        Ok(())
    }

    /// Single-writer pinning: before SSMP `s` is served, every other
    /// writer is evicted (its diff merges home) and every other reader
    /// with it — the evicted writer's DUQ entry goes with its mapping,
    /// so its next release no longer covers the page, and a READ copy
    /// filled before would stay valid and stale past that release.
    fn pin_evict(&mut self, cx: &Ctx, s: usize, fx: &mut impl Effects) -> Res {
        let writers = self.dirs.write_dir & !bit(s);
        if writers == 0 || cx.policy != PagePolicy::SingleWriterPin {
            return Ok(());
        }
        for t in bits(writers | self.dirs.read_dir & !bit(s)) {
            self.evict(cx, t, fx)?;
        }
        Ok(())
    }

    /// Home-LRC acquire at SSMP `s` for the page's write notice, if it
    /// holds one: a READ copy is dropped and cleaned; a WRITE copy
    /// misses other releasers' merged words, so it is evicted (its own
    /// diff merges home). The eviction prunes its writers' DUQ entries,
    /// so their releases will notice nobody: writes it carries home
    /// unreleased are noticed to the other sharers now. Then the notice
    /// is gone.
    pub fn drain_notice(&mut self, cx: &Ctx, s: usize, fx: &mut impl Effects) -> Res {
        match self.client(s) {
            _ if self.noticed & bit(s) == 0 => {}
            ClientState::Read => self.drop_stale(cx, s, true, fx),
            ClientState::Write if cx.policy == PagePolicy::HomeLrc => {
                let unreleased = self.unreleased & bit(s) != 0;
                self.evict(cx, s, fx)?;
                if unreleased {
                    self.notify(cx, self.dirs.all(), fx)?;
                }
            }
            _ => {}
        }
        self.noticed &= !bit(s);
        Ok(())
    }

    /// The post-run drain of a pinned page: its remaining writers are
    /// evicted, so the home copy holds every released word.
    pub fn unpin(&mut self, cx: &Ctx, fx: &mut impl Effects) -> Res {
        if cx.policy == PagePolicy::SingleWriterPin {
            for w in bits(self.dirs.write_dir) {
                self.evict(cx, w, fx)?;
            }
        }
        Ok(())
    }

    /// Churn eviction of `s`'s copy, then of those in `also`. An evicted
    /// writer's DUQ entry goes with its mapping, so its next release
    /// invalidates nothing: every other copy goes now, as that release
    /// would have taken it.
    fn churn_evict(&mut self, cx: &Ctx, s: usize, also: u64, fx: &mut impl Effects) -> Res {
        let mut gone = bit(s) | also;
        if self.dirs.write_dir & gone != 0 {
            gone |= self.dirs.all();
        }
        for t in bits(bit(s)).chain(bits(gone & !bit(s))) {
            self.evict(cx, t, fx)?;
        }
        Ok(())
    }

    /// Churn departure of SSMP `s`: its copy is evicted, and a page
    /// homed there moves to `new_home` — the survivor's own copy is
    /// evicted too (at-home clients map the home copy itself) and the
    /// home copy travels whole. Returns whether the page was re-homed.
    pub fn depart(
        &mut self,
        cx: &Ctx,
        s: usize,
        new_home: usize,
        fx: &mut impl Effects,
    ) -> Res<bool> {
        let rehome = cx.cfg.ssmp_of(self.home) == s;
        self.churn_evict(cx, s, u64::from(rehome) << cx.cfg.ssmp_of(new_home), fx)?;
        if !rehome {
            return Ok(false);
        }
        // Remote writers keep their twins: the new home copy holds the
        // content they were fetched from, plus merged releases.
        fx.ship(Frame::Home, Frame::Home, new_home, MsgKind::OneWData, false)?;
        self.home = new_home;
        Ok(true)
    }

    /// Churn rejoin of SSMP `s`: a live copy (a fill that completed
    /// between the departure drain and link-down) is evicted, a stale
    /// directory bit with no copy behind it is repaired. Returns
    /// `Some(true)`, `Some(false)` or `None` when the page is untracked.
    pub fn rejoin(&mut self, cx: &Ctx, s: usize, fx: &mut impl Effects) -> Res<Option<bool>> {
        if self.dirs.all() & bit(s) == 0 {
            return Ok(None);
        }
        let live = self.client(s) != ClientState::Inv;
        if live {
            self.churn_evict(cx, s, 0, fx)?;
        } else {
            self.dirs.read_dir &= !bit(s);
            self.dirs.write_dir &= !bit(s);
        }
        Ok(Some(live))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_iterates_set_positions() {
        assert_eq!(bits(0).count(), 0);
        assert_eq!(bits(0b1011).collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(bits(1 << 63).collect::<Vec<_>>(), vec![63]);
    }

    #[test]
    fn dirs_counts() {
        let d = ServerDirs {
            read_dir: 0b0110,
            write_dir: 0b1000,
        };
        assert_eq!(d.all(), 0b1110);
        assert_eq!(d.read_dir.count_ones(), 2);
        assert_eq!(d.writers(), 1);
    }

    #[test]
    fn client_state_reads_the_masks() {
        let st = PageState {
            read: 0b01,
            write: 0b10,
            ..PageState::new(0)
        };
        assert_eq!(st.client(0), ClientState::Read);
        assert_eq!(st.client(1), ClientState::Write);
        assert_eq!(st.client(2), ClientState::Inv);
    }
}
