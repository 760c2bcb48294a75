//! The child process: runs one repetition of one workload, point by
//! point, and reports each point on stdout as a `key=value` line.
//!
//! The parent is the only load generator; it starts one child at a
//! time. A child exists per repetition so that peak RSS and set-up
//! time are measured from a cold process, a hang can be killed without
//! losing the other repetitions, and nothing (allocator state, thread
//! stacks, page cache of the heap) leaks from one repetition to the
//! next.
//!
//! Line protocol (the parent timestamps nothing but `ready`):
//!
//! ```text
//! ready
//! begin <point id>
//! point <point id> key=value ...
//! done peak_rss_kb=<VmHWM>
//! ```

use crate::workloads::{Engine, Point, Workload};
use mgs_repro::apps::{jacobi::Jacobi, MgsApp};
use mgs_repro::cache::MissClass;
use mgs_repro::core::{DssmpConfig, Machine, Metric, RunReport};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// The machine configuration of a point: the paper's defaults (eager
/// protocol, 1 KB pages, 1000-cycle LAN, epoch governor) plus the
/// workload's engine.
pub fn config(pt: &Point, engine: Engine, observe: bool) -> DssmpConfig {
    let mut cfg = DssmpConfig::new(pt.p, pt.c);
    if let Engine::Virtual { workers } = engine {
        cfg = cfg.with_virtual_engine(Some(workers));
    }
    cfg.observe = observe;
    cfg
}

/// Everything read off a finished point through public accessors. The
/// list is the same traced or untraced; counters that only the
/// `observe` sink keeps stay absent untraced.
fn collect(machine: &Arc<Machine>, report: &RunReport, out: &mut Vec<(&'static str, f64)>) {
    let cfg = machine.config();
    let proto = machine.protocol();
    let mut push = |k: &'static str, v: u64| out.push((k, v as f64));

    push("duration", report.duration.raw());
    let mut by_class = [0u64; MissClass::ALL.len()];
    for ssmp in 0..cfg.n_ssmps() {
        let stats = proto.cache_system(ssmp).stats();
        for class in MissClass::ALL {
            by_class[class.index()] += stats.count(class);
        }
    }
    push("accesses", by_class.iter().sum());
    for (key, class) in [
        ("cache_hits", MissClass::Hit),
        ("miss_local", MissClass::LocalMiss),
        ("miss_remote", MissClass::RemoteClean),
        ("miss_2party", MissClass::TwoParty),
        ("miss_3party", MissClass::ThreeParty),
        ("miss_swdir", MissClass::SwDirectory),
    ] {
        push(key, by_class[class.index()]);
    }

    let (mut hits, mut misses, mut shootdowns) = (0, 0, 0);
    for proc in 0..cfg.n_procs {
        let s = proto.tlb(proc).stats();
        hits += s.hits.get();
        misses += s.misses.get();
        shootdowns += s.shootdowns.get();
    }
    push("tlb_hits", hits);
    push("tlb_misses", misses);
    push("tlb_shootdowns", shootdowns);
    let pool = proto.twin_pool_stats();
    push("twin_allocated", pool.allocated);
    push("twin_reused", pool.reused);

    let ps = machine.proto_stats();
    push("tlb_fills", ps.tlb_fills.get());
    push("read_misses", ps.read_misses.get());
    push("write_misses", ps.write_misses.get());
    push("upgrades", ps.upgrades.get());
    push("releases", ps.releases.get());
    push("single_writer_flushes", ps.single_writer_flushes.get());
    push("diffs", ps.diffs.get());
    push("diff_words", ps.diff_words.get());
    push("invalidations", ps.invalidations.get());
    push("retries", ps.retries.get());
    push("xact_failures", ps.xact_failures.get());

    push("messages", report.lan_messages);
    push("bytes", report.lan_bytes);
    push("lock_acquires", report.lock_acquires);
    push("lock_hits", report.lock_hits);

    if let Some(waits) = machine.governor_waits() {
        push("gov_gates", waits.total_gates());
        push("gov_parks", waits.total_parks());
        push("gov_wait_ns", waits.total_wait_ns());
    }
    if let Some(m) = &report.metrics {
        push("loads", m.get(Metric::Loads));
        push("stores", m.get(Metric::Stores));
        push("hwlock_acquires", m.get(Metric::HwLockAcquires));
        push("barrier_arrivals", m.get(Metric::BarrierArrivals));
        // Every protocol event the sink counted: what the budget
        // multiplies the profiler's unit cost by.
        let proto_events = [
            Metric::TlbFills,
            Metric::ReadMisses,
            Metric::WriteMisses,
            Metric::Upgrades,
            Metric::TwinCreates,
            Metric::DiffsSent,
            Metric::SingleWriterFlushes,
            Metric::Invalidations,
            Metric::Pinvs,
        ];
        push(
            "obs_proto_events",
            proto_events.iter().map(|&e| m.get(e)).sum(),
        );
    }
}

/// Peak resident set of this process so far, from `/proc` (the build
/// has no `libc` crate for `getrusage`).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Runs every point of `workload` once. Stdout carries the protocol
/// above and is flushed per line, so a parent that kills this process
/// still knows which point it was in.
pub fn run(workload: &Workload, seed: u64, observe: bool, start: Instant) {
    let stdout = std::io::stdout();
    let say = |line: String| {
        let mut out = stdout.lock();
        writeln!(out, "{line}").expect("write to parent");
        out.flush().expect("flush to parent");
    };

    // One untimed point first: it loads and pre-faults the code every
    // timed point runs, spawns this process's first threads, and warms
    // the allocator.
    let warm = Point {
        app: crate::workloads::App::Jacobi,
        size: Jacobi::small().n,
        p: 32,
        c: 4,
    };
    Jacobi::small().execute(&Machine::new(config(&warm, workload.engine, observe)));
    say("ready".to_string());

    for pt in &workload.points {
        let id = pt.id();
        say(format!("begin {id}"));
        let app = pt.app.build(pt.size, seed);
        let cfg = config(pt, workload.engine, observe);

        let t_new = start.elapsed();
        let machine = Machine::new(cfg);
        let t_exec = start.elapsed();
        // A failed self-verification, a protocol abort and a poisoned
        // scheduler all arrive here as a panic; the point fails and
        // the list goes on.
        let result = catch_unwind(AssertUnwindSafe(|| app.execute(&machine)));
        let t_collect = start.elapsed();

        let mut fields = vec![("p", pt.p as f64), ("c", pt.c as f64)];
        let mut ok = result.is_ok();
        if let Ok(report) = &result {
            collect(&machine, report, &mut fields);
            if machine.proto_stats().xact_failures.get() > 0 {
                eprintln!("{id}: protocol transactions aborted");
                ok = false;
            }
            // One SSMP has nobody to send to: MGS calls are null.
            if pt.c == pt.p && report.lan_messages != 0 {
                eprintln!("{id}: {} LAN messages at C = P", report.lan_messages);
                ok = false;
            }
        }
        let t_end = start.elapsed();

        let mut line = format!(
            "point {id} ok={} t_new_us={} t_exec_us={} t_collect_us={} t_end_us={}",
            ok as u8,
            t_new.as_secs_f64() * 1e6,
            t_exec.as_secs_f64() * 1e6,
            t_collect.as_secs_f64() * 1e6,
            t_end.as_secs_f64() * 1e6,
        );
        for (k, v) in fields {
            line.push_str(&format!(" {k}={v}"));
        }
        say(line);
    }
    say(format!("done peak_rss_kb={}", peak_rss_kb()));
}
