//! Each processor's software TLB as its `Env` keeps it, for tests that
//! drive the protocol without a machine: the processor's own
//! [`ProcTlb`], filled with the entry each fault returns. The protocol
//! keeps no TLB contents; a PINV retires a slot by bumping its frame's
//! generation.

#![allow(dead_code)] // each test binary uses a part

use mgs_cache::{CacheConfig, ProcCache};
use mgs_proto::{MgsProtocol, ProtoTiming};
use mgs_vm::{PageFrame, ProcTlb, TlbEntry};
use std::sync::Arc;

/// Every processor's [`ProcTlb`].
pub struct Tlbs(Vec<ProcTlb>);

impl Tlbs {
    /// One empty table per processor of `p`.
    pub fn new(p: &MgsProtocol) -> Tlbs {
        Tlbs((0..p.config().n_procs()).map(|_| ProcTlb::new()).collect())
    }

    /// `proc`'s mapping of `page`, if it serves the access: a slot with
    /// enough privilege at its frame's current generation.
    pub fn mapped(&self, proc: usize, page: u64, write: bool) -> Option<&Arc<PageFrame>> {
        let (frame, gen) = self.0[proc].probe(page, write)?;
        (gen == frame.generation()).then_some(frame)
    }

    /// A fault by `proc` on `page`, whose entry fills `proc`'s slot.
    pub fn fault(
        &mut self,
        p: &MgsProtocol,
        proc: usize,
        page: u64,
        write: bool,
        t: &mut dyn ProtoTiming,
    ) -> TlbEntry {
        let entry = p.fault(proc, page, write, t);
        self.0[proc].fill(page, entry.clone());
        entry
    }

    /// `proc`'s frame for the access: the mapped one, else a fault's.
    pub fn translate(
        &mut self,
        p: &MgsProtocol,
        proc: usize,
        page: u64,
        write: bool,
        t: &mut dyn ProtoTiming,
    ) -> Arc<PageFrame> {
        match self.mapped(proc, page, write) {
            Some(frame) => Arc::clone(frame),
            None => self.fault(p, proc, page, write, t).frame,
        }
    }
}

/// One processor's private state, as its `Env` holds it.
pub struct Proc {
    tlb: ProcTlb,
    cache: ProcCache,
}

impl Proc {
    /// An empty TLB and a cold Alewife cache.
    pub fn new() -> Proc {
        Proc {
            tlb: ProcTlb::new(),
            cache: ProcCache::new(CacheConfig::alewife()),
        }
    }
}

/// One access by global processor `proc` as `Env::access` makes it:
/// through its TLB, then the SSMP's cache system given the frame's hint
/// and word, which re-validates the mapping generation under the line's
/// directory stripe. A miss, a read-only slot for a write or a retired
/// generation faults, and the fault's entry overwrites the slot. Stores
/// `store` if given; returns the word.
pub fn access(
    proto: &MgsProtocol,
    me: &mut Proc,
    proc: usize,
    page: u64,
    word: u64,
    store: Option<u64>,
    t: &mut dyn ProtoTiming,
) -> u64 {
    let write = store.is_some();
    let c = proto.config().procs_per_ssmp;
    let sys = proto.cache_system(proc / c);
    loop {
        if let Some((frame, gen)) = me.tlb.probe(page, write) {
            let line = frame.line_of_word(word);
            let served = sys.access_hinted(
                &mut me.cache,
                proc % c,
                line,
                frame.home_node() % c,
                write,
                frame.dir_hint(line),
                frame.word(word, gen, store.unwrap_or(0)),
            );
            if let Some(served) = served {
                return served.value;
            }
        }
        me.tlb.fill(page, proto.fault(proc, page, write, t));
    }
}
