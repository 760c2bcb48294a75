//! Unit-cost drivers: each times one public function of one layer, from
//! outside, on one thread (two where the name says `2t` or `pingpong`,
//! never more than the host has cores for).
//!
//! A driver returns samples in its metric's unit; a sample is the mean
//! cost per call over one batch, so the timer's own cost (two
//! `Instant::now` per batch) is spread over the batch. The `2t`
//! drivers, whose threads hand over to each other and sleep in
//! between, report time on a CPU instead of wall time. The benchmark
//! reports the median and the p99 of the samples with their count. The
//! budget in `metrics.rs` multiplies these costs by the counts a traced
//! repetition produces; it is an estimate from outside, not self time.
//!
//! Access streams come from `--seed`. Drivers that need a protocol
//! state assert afterwards, from the layer's own counters, that the
//! path they name is the path that ran.

use crate::workloads::splitmix64;
use mgs_repro::cache::{CacheConfig, ProcCache, SsmpCacheSystem};
use mgs_repro::core::{AccessKind, DssmpConfig, Machine, Metric};
use mgs_repro::net::{FaultPlan, LanModel, MsgKind, TieredScenario};
use mgs_repro::obs::{ObsEvent, ObsRegistry, SharingProfiler, XactKind, XactOutcome};
use mgs_repro::proto::{MgsProtocol, ProtoConfig, RecordingTiming, SpanDiff};
use mgs_repro::sim::{
    CostCategory, CostModel, Cycles, EpochGate, Occupancy, ProcClock, VirtualScheduler, XorShift64,
};
use mgs_repro::sync::{HwLock, MgsBarrier, MgsLock};
use mgs_repro::vm::{FrameAllocator, PageGeometry, Tlb, TlbEntry, TwinPool};
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What every driver gets.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Smoke runs take a tenth of the samples.
    pub quick: bool,
}

impl Ctx {
    fn samples(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(3)
        } else {
            full
        }
    }

    /// The driver's own access stream.
    fn rng(&self, stream: u64) -> XorShift64 {
        XorShift64::new(splitmix64(self.seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)) | 1)
    }
}

pub struct Driver {
    /// `<layer>.<metric>_<unit>`, the per-layer metric's name.
    pub name: &'static str,
    pub run: fn(&Ctx) -> Vec<f64>,
}

impl Driver {
    /// The unit is the name's suffix.
    pub fn unit(&self) -> &'static str {
        self.name.rsplit('_').next().expect("split yields one item")
    }
}

/// Nanoseconds per unit named by a metric suffix.
fn ns_per(unit: &str) -> f64 {
    match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        other => panic!("driver unit {other:?}"),
    }
}

/// `samples` batches of `batch` calls of `op`; nanoseconds per call.
fn batches(samples: usize, batch: usize, mut op: impl FnMut()) -> Vec<f64> {
    // One untimed batch warms caches and branch predictors.
    for _ in 0..batch {
        op();
    }
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                op();
            }
            t.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect()
}

/// One call per sample, with untimed work around each: `prepare`
/// builds the state, `op` is timed, and what `op` returns is dropped
/// after the clock stops. Nanoseconds per call.
fn each<S, R>(
    samples: usize,
    mut prepare: impl FnMut(usize) -> S,
    mut op: impl FnMut(S) -> R,
) -> Vec<f64> {
    (0..samples)
        .map(|i| {
            let state = prepare(i);
            let t = Instant::now();
            let result = op(state);
            let ns = t.elapsed().as_secs_f64() * 1e9;
            drop(result);
            ns
        })
        .collect()
}

fn scaled(ns: Vec<f64>, unit: &str) -> Vec<f64> {
    let k = ns_per(unit);
    ns.into_iter().map(|v| v / k).collect()
}

// ---------------------------------------------------------------- core

/// Runs `body` as the single processor of a governor-less machine and
/// returns what it sampled.
fn on_one_proc(
    words: u64,
    body: impl Fn(&mut mgs_repro::core::Env, &mgs_repro::core::SharedArray<u64>) -> Vec<f64> + Sync,
) -> Vec<f64> {
    let mut cfg = DssmpConfig::new(1, 1);
    cfg.governor_window = None;
    let machine = Machine::new(cfg);
    let arr = machine.alloc_array::<u64>(words, AccessKind::DistArray);
    let out = Mutex::new(Vec::new());
    machine.run(|env| {
        *out.lock().expect("sample sink") = body(env, &arr);
    });
    out.into_inner().expect("sample sink")
}

fn core_env_read_hot(ctx: &Ctx) -> Vec<f64> {
    let n = ctx.samples(300);
    on_one_proc(4096, |env, arr| {
        let mut i = 0u64;
        let mut acc = 0u64;
        let s = batches(n, 1024, || {
            acc = acc.wrapping_add(arr.read(env, i % 4096));
            i += 1;
        });
        black_box(acc);
        s
    })
}

fn core_env_rw_stream(ctx: &Ctx) -> Vec<f64> {
    const WORDS: u64 = 4 << 20 >> 3; // a 4 MB array
    let n = ctx.samples(400);
    let seed = *ctx;
    on_one_proc(WORDS, |env, arr| {
        let mut rng = seed.rng(1);
        let mut acc = 0u64;
        let s = batches(n, 1024, || {
            let r = rng.next_u64();
            let i = r % WORDS;
            if r >> 62 == 0 {
                arr.write(env, i, r);
            } else {
                acc = acc.wrapping_add(arr.read(env, i));
            }
        });
        black_box(acc);
        s
    })
}

fn machine_new(samples: usize, cfg: DssmpConfig) -> Vec<f64> {
    scaled(each(samples, |_| cfg.clone(), Machine::new), "us")
}

fn core_machine_new_p32(ctx: &Ctx) -> Vec<f64> {
    machine_new(ctx.samples(100), DssmpConfig::new(32, 4))
}

fn core_machine_new_p2048(ctx: &Ctx) -> Vec<f64> {
    machine_new(
        ctx.samples(30),
        DssmpConfig::new(2048, 32).with_virtual_engine(Some(2)),
    )
}

fn core_run_empty_p512(ctx: &Ctx) -> Vec<f64> {
    let cfg = DssmpConfig::new(512, 32).with_virtual_engine(Some(2));
    scaled(
        each(
            ctx.samples(10).min(10),
            |_| Machine::new(cfg.clone()),
            |machine| machine.run(|_env| {}),
        ),
        "ms",
    )
}

// --------------------------------------------------------------- cache

fn cache_access_hit(ctx: &Ctx) -> Vec<f64> {
    let sys = SsmpCacheSystem::new(5);
    let mut cache = ProcCache::new(CacheConfig::alewife());
    let mut line = 0u64;
    batches(ctx.samples(300), 1024, || {
        black_box(sys.access(&mut cache, 0, line & 63, 0, false));
        line += 1;
    })
}

fn cache_access_miss(ctx: &Ctx) -> Vec<f64> {
    // Twice the tag array's 4096 lines, so most accesses miss and evict.
    const LINES: u64 = 8192;
    let sys = SsmpCacheSystem::new(5);
    let mut cache = ProcCache::new(CacheConfig::alewife());
    let mut rng = ctx.rng(2);
    batches(ctx.samples(300), 1024, || {
        let r = rng.next_u64();
        let class = sys.access(
            &mut cache,
            0,
            r % LINES,
            (r >> 32) as usize % 4,
            r >> 62 == 0,
        );
        black_box(class);
    })
}

fn cache_access_pingpong(ctx: &Ctx) -> Vec<f64> {
    let sys = SsmpCacheSystem::new(5);
    let (running, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let n = ctx.samples(200);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut cache = ProcCache::new(CacheConfig::alewife());
            let mut line = 0u64;
            while !stop.load(Ordering::Relaxed) {
                black_box(sys.access(&mut cache, 1, line & 63, 0, true));
                line += 1;
                running.store(true, Ordering::Relaxed);
            }
        });
        // Without the other writer this would time plain hits.
        while !running.load(Ordering::Relaxed) {
            std::hint::spin_loop();
        }
        let mut cache = ProcCache::new(CacheConfig::alewife());
        let mut line = 0u64;
        let s = batches(n, 1024, || {
            black_box(sys.access(&mut cache, 0, line & 63, 0, true));
            line += 1;
        });
        stop.store(true, Ordering::Relaxed);
        s
    })
}

fn cache_clean_page(ctx: &Ctx) -> Vec<f64> {
    let sys = SsmpCacheSystem::new(5);
    let cost = CostModel::alewife();
    let mut cache = ProcCache::new(CacheConfig::alewife());
    let lines = PageGeometry::default().lines_per_page();
    each(
        ctx.samples(1000),
        |i| {
            // A page whose lines the directory tracks, half dirty.
            let base = i as u64 * lines;
            for l in 0..lines {
                sys.access(&mut cache, 0, base + l, 1, l % 2 == 0);
            }
            base
        },
        |base| {
            black_box(sys.clean_page(base..base + lines, &cost));
        },
    )
}

// ------------------------------------------------------------------ vm

fn tlb_with_pages(n: u64) -> (Tlb, TlbEntry) {
    let frames = FrameAllocator::new(PageGeometry::default());
    let frame = frames.alloc(0);
    let entry = TlbEntry {
        gen: frame.generation(),
        frame,
        writable: true,
    };
    let tlb = Tlb::new();
    for page in 0..n {
        tlb.insert(page, entry.clone());
    }
    (tlb, entry)
}

fn vm_tlb_lookup_hit(ctx: &Ctx) -> Vec<f64> {
    let (tlb, _) = tlb_with_pages(64);
    let mut page = 0u64;
    batches(ctx.samples(300), 1024, || {
        black_box(tlb.lookup(page & 63, false));
        page += 1;
    })
}

fn vm_tlb_insert_shootdown(ctx: &Ctx) -> Vec<f64> {
    let (tlb, entry) = tlb_with_pages(64);
    let mut page = 64u64;
    batches(ctx.samples(300), 256, || {
        tlb.insert(page, entry.clone());
        black_box(tlb.shootdown(page));
        page += 1;
    })
}

fn vm_twin_acquire(ctx: &Ctx) -> Vec<f64> {
    let pool = TwinPool::new(PageGeometry::default().words_per_page() as usize);
    let s = batches(ctx.samples(300), 1024, || {
        black_box(&pool.acquire()[..]);
    });
    assert_eq!(pool.stats().allocated, 1, "steady-state acquires recycle");
    s
}

fn vm_frame_snapshot(ctx: &Ctx) -> Vec<f64> {
    let frame = FrameAllocator::new(PageGeometry::default()).alloc(0);
    let mut buf = vec![0u64; frame.len_words() as usize];
    batches(ctx.samples(300), 256, || {
        frame.snapshot_into(&mut buf);
        black_box(&buf);
    })
}

// --------------------------------------------------------------- proto

/// Three single-processor SSMPs; page `3k + 2` is homed at node 2, so
/// faults by processors 0 and 1 are remote.
fn proto3() -> (MgsProtocol, RecordingTiming) {
    let timing = RecordingTiming::new(CostModel::alewife(), Cycles(1000));
    (MgsProtocol::new(ProtoConfig::new(3, 1)), timing)
}

fn remote_page(i: usize) -> u64 {
    3 * i as u64 + 2
}

fn proto_fault(ctx: &Ctx, write: bool) -> Vec<f64> {
    let (proto, t) = proto3();
    let t = RefCell::new(t);
    let s = each(
        ctx.samples(1000),
        |i| {
            // The recording sink keeps every event; empty it untimed.
            t.borrow_mut().reset();
            remote_page(i)
        },
        |page| proto.fault(0, page, write, &mut *t.borrow_mut()),
    );
    let stats = proto.stats();
    let (took, other) = if write {
        (stats.write_misses.get(), stats.read_misses.get())
    } else {
        (stats.read_misses.get(), stats.write_misses.get())
    };
    assert_eq!(
        (took, other),
        (s.len() as u64, 0),
        "every call a fresh remote fault"
    );
    scaled(s, "us")
}

fn proto_read_fault(ctx: &Ctx) -> Vec<f64> {
    proto_fault(ctx, false)
}

fn proto_write_fault(ctx: &Ctx) -> Vec<f64> {
    proto_fault(ctx, true)
}

/// Times `release_all` of one freshly written remote page per sample;
/// with `second_writer`, another SSMP holds a write copy too, so the
/// release goes the twin-and-diff way instead of the single-writer one.
fn proto_release(ctx: &Ctx, second_writer: bool) -> Vec<f64> {
    let (proto, t) = proto3();
    let t = RefCell::new(t);
    let s = each(
        ctx.samples(1000),
        |i| {
            let mut t = t.borrow_mut();
            t.reset();
            let page = remote_page(i);
            let entry = proto.fault(0, page, true, &mut *t);
            if second_writer {
                proto.fault(1, page, true, &mut *t);
            }
            for w in 0..8 {
                entry.frame.store(w * 16, i as u64 + w + 1);
            }
        },
        |()| proto.release_all(0, &mut *t.borrow_mut()),
    );
    let stats = proto.stats();
    let n = s.len() as u64;
    if second_writer {
        // The release recalls both write copies; each answers with a
        // diff, the idle one's empty.
        assert_eq!(stats.diffs.get(), 2 * n, "every release merged two diffs");
        assert_eq!(
            stats.diff_words.get(),
            8 * n,
            "holding the eight words written"
        );
    } else {
        assert_eq!(
            stats.single_writer_flushes.get(),
            n,
            "every release a single-writer flush"
        );
        assert_eq!(stats.diffs.get(), 0);
    }
    scaled(s, "us")
}

fn proto_release_1w(ctx: &Ctx) -> Vec<f64> {
    proto_release(ctx, false)
}

fn proto_release_diff(ctx: &Ctx) -> Vec<f64> {
    proto_release(ctx, true)
}

/// `SpanDiff` compute plus apply with `changed` of a page's 128 words
/// differing from the twin, evenly spread.
fn proto_diff(ctx: &Ctx, changed: usize) -> Vec<f64> {
    let words = PageGeometry::default().words_per_page() as usize;
    let twin: Vec<u64> = (0..words as u64).map(splitmix64).collect();
    let mut cur = twin.clone();
    for k in 0..changed {
        cur[k * words / changed] ^= 0xA5A5;
    }
    let mut home = twin.clone();
    let mut diff = SpanDiff::new();
    let s = batches(ctx.samples(300), 256, || {
        diff.compute_into(black_box(&cur), &twin);
        diff.apply_to_slice(&mut home);
    });
    assert_eq!(diff.changed_words(), changed as u64);
    assert_eq!(
        home, cur,
        "applying the diff to the twin's image gives the current page"
    );
    s
}

fn proto_diff_sparse(ctx: &Ctx) -> Vec<f64> {
    proto_diff(ctx, 2)
}

fn proto_diff_dense(ctx: &Ctx) -> Vec<f64> {
    proto_diff(ctx, 64)
}

// ----------------------------------------------------------------- net

const LAN_SSMPS: usize = 8;

/// One message between two distinct SSMPs drawn from `r`.
fn endpoints(r: u64) -> (usize, usize) {
    let src = r as usize % LAN_SSMPS;
    let dst = (src + 1 + (r >> 8) as usize % (LAN_SSMPS - 1)) % LAN_SSMPS;
    (src, dst)
}

fn net_send(ctx: &Ctx, lan: LanModel, stream: u64) -> Vec<f64> {
    let mut rng = ctx.rng(stream);
    let mut now = 0u64;
    batches(ctx.samples(300), 1024, || {
        let (src, dst) = endpoints(rng.next_u64());
        now += 10;
        black_box(lan.send(src, dst, MsgKind::RReq, 64, Cycles(now)));
    })
}

fn net_send_fixed(ctx: &Ctx) -> Vec<f64> {
    net_send(ctx, LanModel::new(LAN_SSMPS, Cycles(1000)), 3)
}

fn net_send_tiered_contended(ctx: &Ctx) -> Vec<f64> {
    let scenario = TieredScenario::new(2, 2).with_interface_contention(Cycles(50));
    let lan = LanModel::new(LAN_SSMPS, Cycles(1000)).with_scenario(Arc::new(scenario));
    net_send(ctx, lan, 4)
}

fn net_transmit_lossy(ctx: &Ctx) -> Vec<f64> {
    let plan = FaultPlan::uniform(ctx.seed | 1, 0.01, 0.0, Cycles::ZERO);
    let lan = LanModel::new(LAN_SSMPS, Cycles(1000)).with_faults(plan);
    let mut rng = ctx.rng(5);
    let s = batches(ctx.samples(300), 1024, || {
        let (src, dst) = endpoints(rng.next_u64());
        black_box(lan.transmit(src, dst, MsgKind::RReq, 64, Cycles(0)));
    });
    assert!(
        lan.stats().dropped_total() > 0,
        "a 1% plan drops some of {} messages",
        s.len() * 1024
    );
    s
}

// ---------------------------------------------------------------- sync

fn sync_lock(ctx: &Ctx, ssmp_step: usize) -> Vec<f64> {
    let lock = MgsLock::new(CostModel::alewife(), Cycles(1000), 4);
    let (mut ssmp, mut now) = (0usize, Cycles(0));
    let s = batches(ctx.samples(300), 256, || {
        let (granted, _hit) = lock.acquire(ssmp, now);
        lock.release(granted);
        now = granted + Cycles(10_000);
        ssmp = (ssmp + ssmp_step) % 4;
    });
    let st = lock.stats();
    let (acquires, hits) = (st.acquires.get(), st.hits.get());
    if ssmp_step == 0 {
        assert!(
            hits + 1 >= acquires,
            "same-SSMP acquires hit: {hits}/{acquires}"
        );
    } else {
        assert!(
            hits <= 1,
            "every acquire after the first moved the token: {hits} hits"
        );
    }
    s
}

fn sync_lock_local(ctx: &Ctx) -> Vec<f64> {
    sync_lock(ctx, 0)
}

fn sync_lock_remote(ctx: &Ctx) -> Vec<f64> {
    sync_lock(ctx, 1)
}

fn sync_hwlock(ctx: &Ctx) -> Vec<f64> {
    let lock = HwLock::new(CostModel::alewife());
    let mut now = Cycles(0);
    batches(ctx.samples(300), 1024, || {
        now = lock.acquire(now);
        lock.release(now);
    })
}

/// Nanoseconds the calling thread has spent on a CPU, by the
/// scheduler's own accounting; `None` where the kernel keeps none.
fn on_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_ascii_whitespace().next()?.parse().ok()
}

/// Two threads run `rounds` lock-step rounds `samples` times.
/// Nanoseconds *on a CPU* per round, both threads together: a thread
/// handing over to the other sleeps most of a round's wall time, and
/// the budget wants what a hand-over costs the host, not how long the
/// sleeper slept. Where the kernel does not account CPU time per
/// thread, the round's wall time stands in.
fn two_threads(
    samples: usize,
    rounds: usize,
    step: impl Fn(usize, usize) + Sync,
    end: impl Fn(usize) + Sync,
) -> Vec<f64> {
    let body = |id: usize| {
        let mut out = Vec::with_capacity(samples);
        for s in 0..samples {
            let (cpu, wall) = (on_cpu_ns(), Instant::now());
            for r in 0..rounds {
                step(id, s * rounds + r);
            }
            let wall = wall.elapsed().as_secs_f64() * 1e9;
            let cpu = on_cpu_ns()
                .zip(cpu)
                .map(|(after, before)| (after - before) as f64);
            out.push((cpu, wall));
        }
        end(id);
        out
    };
    let (mine, theirs) = std::thread::scope(|scope| {
        let other = scope.spawn(|| body(1));
        let mine = body(0);
        (mine, other.join().expect("second driver thread"))
    });
    mine.iter()
        .zip(&theirs)
        .map(|(a, b)| match (a.0, b.0) {
            (Some(a), Some(b)) if a + b > 0.0 => (a + b) / rounds as f64,
            _ => a.1 / rounds as f64,
        })
        .collect()
}

fn sync_barrier_2t(ctx: &Ctx) -> Vec<f64> {
    let bar = MgsBarrier::new(CostModel::alewife(), Cycles(1000), 1, 2);
    let s = two_threads(
        ctx.samples(100),
        64,
        |_, round| {
            black_box(bar.arrive(Cycles(round as u64 * 100)));
        },
        |_| {},
    );
    scaled(s, "us")
}

// ----------------------------------------------------------------- sim

const WINDOW: u64 = 2_000;

fn sim_gate_tick(ctx: &Ctx) -> Vec<f64> {
    let gate = EpochGate::new(1, Cycles(WINDOW));
    batches(ctx.samples(300), 1024, || {
        gate.tick(0, black_box(Cycles(0)))
    })
}

fn sim_gate_advance_2t(ctx: &Ctx) -> Vec<f64> {
    // Both threads step one window per round, so every round closes
    // and reopens the window once.
    let gate = EpochGate::new(2, Cycles(WINDOW));
    let s = two_threads(
        ctx.samples(100),
        64,
        |id, round| gate.tick(id, Cycles((round as u64 + 1) * WINDOW)),
        |id| gate.finished(id),
    );
    scaled(s, "us")
}

fn sim_vsched_tick(ctx: &Ctx) -> Vec<f64> {
    let sched = VirtualScheduler::new(1, Cycles(32_000), 1);
    sched.start(0);
    let s = batches(ctx.samples(300), 1024, || {
        sched.tick(0, black_box(Cycles(0)))
    });
    sched.finished(0);
    s
}

fn sim_vsched_switch(ctx: &Ctx) -> Vec<f64> {
    // Two tasks, one worker: a task that steps a window past the other
    // yields, so every round is one switch each way.
    let sched = VirtualScheduler::new(2, Cycles(WINDOW), 1);
    let started = [AtomicBool::new(false), AtomicBool::new(false)];
    let s = two_threads(
        ctx.samples(100),
        32,
        |id, round| {
            if !started[id].swap(true, Ordering::Relaxed) {
                sched.start(id);
            }
            sched.tick(id, Cycles((round as u64 + 1) * 2 * WINDOW));
        },
        |id| sched.finished(id),
    );
    let switches = sched.wait_snapshot().total_gates();
    assert!(
        switches as usize >= s.len() * 32,
        "every round yielded: {switches}"
    );
    scaled(s, "us")
}

fn sim_clock_charge(ctx: &Ctx) -> Vec<f64> {
    let mut clock = ProcClock::new();
    let s = batches(ctx.samples(300), 1024, || {
        clock.charge(CostCategory::User, black_box(Cycles(3)));
    });
    black_box(clock.now());
    s
}

fn sim_occupancy(ctx: &Ctx) -> Vec<f64> {
    let engine = Occupancy::new();
    let mut now = 0u64;
    batches(ctx.samples(300), 1024, || {
        now += 7;
        black_box(engine.occupy(Cycles(now), Cycles(5)));
    })
}

// ----------------------------------------------------------------- obs

fn obs_count(ctx: &Ctx) -> Vec<f64> {
    let registry = ObsRegistry::new(32);
    let mut i = 0usize;
    let s = batches(ctx.samples(300), 1024, || {
        registry.count(i & 31, Metric::Loads, 1);
        i += 1;
    });
    assert!(registry.merge().get(Metric::Loads) >= (s.len() * 1024) as u64);
    s
}

fn obs_profiler_record(ctx: &Ctx) -> Vec<f64> {
    let profiler = SharingProfiler::new(PageGeometry::default().lines_per_page() as usize);
    let mut rng = ctx.rng(6);
    let s = batches(ctx.samples(300), 256, || {
        let r = rng.next_u64();
        let event = ObsEvent::XactEnd {
            xact: XactKind::ReadFault,
            page: r % 256,
            outcome: XactOutcome::ReadMiss,
        };
        profiler.record((r >> 32) as usize % 8, &event);
    });
    assert_eq!(profiler.pages_touched(), 256);
    s
}

/// Every driver, in layer order. The names are the per-layer metrics.
pub const DRIVERS: &[Driver] = &[
    Driver {
        name: "core.env_read_hot_ns",
        run: core_env_read_hot,
    },
    Driver {
        name: "core.env_rw_stream_ns",
        run: core_env_rw_stream,
    },
    Driver {
        name: "core.machine_new_p32_us",
        run: core_machine_new_p32,
    },
    Driver {
        name: "core.machine_new_p2048_us",
        run: core_machine_new_p2048,
    },
    Driver {
        name: "core.run_empty_p512_ms",
        run: core_run_empty_p512,
    },
    Driver {
        name: "cache.access_hit_ns",
        run: cache_access_hit,
    },
    Driver {
        name: "cache.access_miss_ns",
        run: cache_access_miss,
    },
    Driver {
        name: "cache.access_pingpong_ns",
        run: cache_access_pingpong,
    },
    Driver {
        name: "cache.clean_page_ns",
        run: cache_clean_page,
    },
    Driver {
        name: "vm.tlb_lookup_hit_ns",
        run: vm_tlb_lookup_hit,
    },
    Driver {
        name: "vm.tlb_insert_shootdown_ns",
        run: vm_tlb_insert_shootdown,
    },
    Driver {
        name: "vm.twin_acquire_ns",
        run: vm_twin_acquire,
    },
    Driver {
        name: "vm.frame_snapshot_ns",
        run: vm_frame_snapshot,
    },
    Driver {
        name: "proto.read_fault_us",
        run: proto_read_fault,
    },
    Driver {
        name: "proto.write_fault_us",
        run: proto_write_fault,
    },
    Driver {
        name: "proto.release_1w_us",
        run: proto_release_1w,
    },
    Driver {
        name: "proto.release_diff_us",
        run: proto_release_diff,
    },
    Driver {
        name: "proto.diff_sparse_ns",
        run: proto_diff_sparse,
    },
    Driver {
        name: "proto.diff_dense_ns",
        run: proto_diff_dense,
    },
    Driver {
        name: "net.send_fixed_ns",
        run: net_send_fixed,
    },
    Driver {
        name: "net.send_tiered_contended_ns",
        run: net_send_tiered_contended,
    },
    Driver {
        name: "net.transmit_lossy_ns",
        run: net_transmit_lossy,
    },
    Driver {
        name: "sync.lock_local_ns",
        run: sync_lock_local,
    },
    Driver {
        name: "sync.lock_remote_ns",
        run: sync_lock_remote,
    },
    Driver {
        name: "sync.hwlock_ns",
        run: sync_hwlock,
    },
    Driver {
        name: "sync.barrier_2t_us",
        run: sync_barrier_2t,
    },
    Driver {
        name: "sim.gate_tick_ns",
        run: sim_gate_tick,
    },
    Driver {
        name: "sim.gate_advance_2t_us",
        run: sim_gate_advance_2t,
    },
    Driver {
        name: "sim.vsched_tick_ns",
        run: sim_vsched_tick,
    },
    Driver {
        name: "sim.vsched_switch_us",
        run: sim_vsched_switch,
    },
    Driver {
        name: "sim.clock_charge_ns",
        run: sim_clock_charge,
    },
    Driver {
        name: "sim.occupancy_ns",
        run: sim_occupancy,
    },
    Driver {
        name: "obs.count_ns",
        run: obs_count,
    },
    Driver {
        name: "obs.profiler_record_ns",
        run: obs_profiler_record,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_names_are_unique_and_end_in_a_known_unit() {
        let mut names: Vec<&str> = DRIVERS.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DRIVERS.len());
        for d in DRIVERS {
            ns_per(d.unit());
            assert!(d.name.contains('.'), "{} has no layer", d.name);
        }
    }

    #[test]
    fn batches_and_each_return_one_positive_sample_per_request() {
        let mut calls = 0;
        let s = batches(5, 10, || calls += 1);
        assert_eq!((s.len(), calls), (5, 60));
        let s = each(4, |i| i, black_box);
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn endpoints_are_distinct_and_in_range() {
        let mut rng = XorShift64::new(9);
        for _ in 0..1000 {
            let (src, dst) = endpoints(rng.next_u64());
            assert!(src < LAN_SSMPS && dst < LAN_SSMPS && src != dst);
        }
    }

    /// Every driver runs, at smoke size, and its own path assertions
    /// hold for two seeds.
    #[test]
    fn every_driver_runs_and_reports_positive_costs() {
        for seed in [1, 0xDEAD_BEEF] {
            let ctx = Ctx { seed, quick: true };
            for d in DRIVERS {
                let s = (d.run)(&ctx);
                assert!(s.len() >= 3, "{}", d.name);
                assert!(
                    s.iter().all(|v| v.is_finite() && *v > 0.0),
                    "{}: {s:?}",
                    d.name
                );
            }
        }
    }
}
