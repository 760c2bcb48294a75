//! Observability invariants (`mgs-obs` threaded through the machine):
//!
//! * **Zero perturbation** — attaching the observability sink must not
//!   move a single simulated cycle. Two programs inside the simulator's
//!   deterministic envelope (see `tests/determinism.rs`) run with and
//!   without `DssmpConfig::observe` at C = 4 and C = 32 and must be
//!   bit-identical in duration, per-processor accounting and LAN
//!   traffic.
//! * **Reconciliation** — the `mgs-obs` registry counts events at
//!   different layers than the `RunReport` totals (per-proc shards vs.
//!   `NetStats` / lock stats / protocol stats), and the trace is a third
//!   record of the same event stream; on the same run all of them must
//!   agree exactly, including the adaptive protocol's post-run drain.
//! * **Perfetto export** — the exported `trace_event` JSON parses, and
//!   on every track the begin/end spans nest: depth never goes
//!   negative, every span closes, and timestamps are monotonic.
//! * **One message clock** — a delivered message's trace event carries
//!   the instant it was launched, with or without a fault plan.
//! * **Trace determinism** — at one worker, two traced runs of a
//!   schedule-sensitive application record the same trace.

use mgs_repro::apps::{envelope, tsp::Tsp, water::Water, MgsApp};
use mgs_repro::core::{
    export_perfetto, first_divergence, AccessKind, DssmpConfig, FaultPlan, Machine, Metric,
    ObsEvent, ProtocolKind, RunReport, TraceEvent,
};
use mgs_repro::sim::Cycles;
use std::sync::Arc;

const PROCS: usize = 32;
/// Words per processor block (two 1 KB pages each).
const WORDS: u64 = 256;
const PHASES: u64 = 2;

/// Deterministic pattern 1: the envelope's page-disjoint program.
fn disjoint(cluster: usize, observe: bool) -> RunReport {
    let mut cfg = DssmpConfig::new(PROCS, cluster);
    cfg.governor_window = None;
    cfg.observe = observe;
    envelope::disjoint(&Machine::new(cfg), WORDS, PHASES)
}

/// Deterministic pattern 2: a token ring — in phase `k` only processor
/// `k` touches shared state (under a lock it writes its successor's
/// self-homed block, then its own, which recalls its predecessor's
/// copy), so every cross-SSMP transaction is serialized and no
/// occupancy resource is ever contended.
fn run_ring(procs: usize, cluster: usize, observe: bool, plan: FaultPlan) -> RunReport {
    let mut cfg = DssmpConfig::new(procs, cluster).with_faults(plan);
    cfg.observe = observe;
    ring(cfg).1
}

/// The token ring on a machine built from `cfg`, unpaced; returns the
/// machine too, for its trace and statistics.
fn ring(mut cfg: DssmpConfig) -> (Arc<Machine>, RunReport) {
    cfg.governor_window = None;
    let procs = cfg.n_procs;
    let machine = Machine::new(cfg);
    let arr = machine.alloc_array_blocked::<u64>(WORDS * procs as u64, AccessKind::DistArray);
    let lock = machine.new_lock();
    let report = machine.run(|env| {
        let pid = env.pid();
        env.start_measurement();
        for phase in 0..procs {
            if pid == phase {
                env.acquire(&lock);
                for block in [(pid + 1) % procs, pid] {
                    for i in 0..WORDS {
                        arr.write(env, block as u64 * WORDS + i, ((phase as u64) << 32) | i);
                    }
                }
                env.release(&lock);
            }
            env.barrier();
        }
    });
    (machine, report)
}

#[test]
fn observability_is_zero_perturbation() {
    for cluster in [4, PROCS] {
        let off = disjoint(cluster, false);
        let on = disjoint(cluster, true);
        assert!(off.metrics.is_none() && on.metrics.is_some());
        assert_eq!(off.first_divergence(&on), None, "disjoint C={cluster}");

        let off = run_ring(PROCS, cluster, false, FaultPlan::none());
        let on = run_ring(PROCS, cluster, true, FaultPlan::none());
        assert_eq!(off.first_divergence(&on), None, "ring C={cluster}");
    }
}

#[test]
fn metric_totals_reconcile_with_run_report() {
    // Perfect fabric: LAN and lock counters.
    let r = run_ring(PROCS, 4, true, FaultPlan::none());
    let m = r.metrics.as_ref().expect("observability on");
    assert!(r.lan_messages > 0, "ring must cross SSMPs");
    assert_eq!(m.lan_total(), r.lan_messages, "LAN transmissions");
    assert_eq!(m.lock_acquires(), r.lock_acquires, "lock acquires");
    assert_eq!(m.get(Metric::Retries), 0);
    assert_eq!(
        m.get(Metric::BarrierArrivals),
        (PROCS * PROCS) as u64,
        "one arrival per processor per phase"
    );
    assert_eq!(
        m.get(Metric::LockAcquiresLocal) + m.get(Metric::LockAcquiresRemote),
        PROCS as u64,
        "the token is taken once per phase"
    );

    // Lossy fabric (smaller ring: retries make runs long): the registry
    // sees exactly the transmissions, drops, duplicates and retries the
    // fabric and protocol report.
    let r = run_ring(
        8,
        2,
        true,
        FaultPlan::uniform(0xB0B, 0.25, 0.05, Cycles(200)),
    );
    let m = r.metrics.as_ref().expect("observability on");
    assert!(r.lan_drops > 0, "the plan must actually drop something");
    assert_eq!(m.lan_total(), r.lan_messages, "lossy LAN transmissions");
    assert_eq!(m.get(Metric::LanDrops), r.lan_drops, "drops");
    assert_eq!(m.get(Metric::LanDuplicates), r.lan_duplicates, "duplicates");
    assert_eq!(m.get(Metric::Retries), r.retries, "retries");
}

/// One parsed `trace_event` line of the exported JSON.
struct Ev {
    ph: char,
    pid: u64,
    tid: u64,
    ts: u64,
}

/// Extracts `"key":<integer>` from a single-event JSON line.
fn field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len();
    line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("integer {key} in {line}"))
}

/// Minimal parser for the exporter's one-event-per-line layout.
fn parse_events(json: &str) -> Vec<Ev> {
    assert!(json.starts_with("{\"traceEvents\":["), "document shape");
    assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"), "trailer");
    let mut events = Vec::new();
    for line in json.lines().skip(1) {
        let line = line.trim_end_matches(',');
        if !line.starts_with('{') {
            continue; // the closing `],"displayTimeUnit":...` line
        }
        assert!(line.ends_with('}'), "event line must close: {line}");
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "balanced braces: {line}"
        );
        let ph = field_str(line, "ph");
        events.push(Ev {
            ph: ph.chars().next().expect("nonempty ph"),
            pid: field(line, "pid"),
            tid: field(line, "tid"),
            ts: if ph == "M" { 0 } else { field(line, "ts") },
        });
    }
    events
}

/// Extracts `"key":"<string>"` from a single-event JSON line.
fn field_str<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len();
    let end = line[start..].find('"').expect("closing quote") + start;
    &line[start..end]
}

#[test]
fn perfetto_export_parses_and_spans_nest() {
    let mut cfg = DssmpConfig::new(8, 4);
    cfg.trace = true;
    let (machine, _) = ring(cfg);
    let events = machine.take_trace();
    assert!(!events.is_empty(), "trace must record something");
    let json = export_perfetto(&events, 8, 4);

    let parsed = parse_events(&json);
    assert!(parsed.iter().any(|e| e.ph == 'B'), "has span begins");
    assert!(parsed.iter().any(|e| e.ph == 'X'), "has engine slices");
    assert!(parsed.iter().any(|e| e.ph == 'M'), "has track metadata");

    // Per-track nesting: walk each (pid, tid) stream in document order.
    let mut tracks: std::collections::BTreeMap<(u64, u64), (i64, u64)> =
        std::collections::BTreeMap::new();
    for e in &parsed {
        if e.ph == 'M' {
            continue;
        }
        let (depth, last_ts) = tracks.entry((e.pid, e.tid)).or_insert((0, 0));
        match e.ph {
            'B' | 'E' => {
                assert!(
                    e.ts >= *last_ts,
                    "track ({}, {}): timestamps must be monotonic",
                    e.pid,
                    e.tid
                );
                *last_ts = e.ts;
                *depth += if e.ph == 'B' { 1 } else { -1 };
                assert!(
                    *depth >= 0,
                    "track ({}, {}): end without a begin",
                    e.pid,
                    e.tid
                );
            }
            'X' | 'i' => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    for ((pid, tid), (depth, _)) in tracks {
        assert_eq!(depth, 0, "track ({pid}, {tid}): every span must close");
    }
}

/// Processor 2's message events on a run where it alone does protocol
/// work: one cross-SSMP write fault, released at the barrier.
fn message_trace(plan: FaultPlan) -> Vec<TraceEvent> {
    let mut cfg = DssmpConfig::new(4, 2).with_faults(plan);
    cfg.trace = true;
    let machine = Machine::new(cfg);
    let arr = machine.alloc_array_blocked::<u64>(WORDS * 4, AccessKind::DistArray);
    machine.run(|env| {
        if env.pid() == 2 {
            arr.write(env, 0, 1);
        }
        env.barrier();
    });
    let mut trace = machine.take_trace();
    trace.retain(|e| e.proc == 2 && matches!(e.event, ObsEvent::Message { .. }));
    trace
}

#[test]
fn delivered_message_is_stamped_the_same_under_any_fault_plan() {
    let perfect = message_trace(FaultPlan::none());
    // An active plan that still delivers every message on time: a
    // duplicate storm, whose extra copies reach no handler (and are
    // `Duplicate` events, which the trace leaves out).
    let spared = message_trace(FaultPlan::uniform(7, 0.0, 1.0, Cycles::ZERO));
    let crossings = perfect
        .iter()
        .filter(|e| matches!(e.event, ObsEvent::Message { from, to, .. } if from != to));
    assert!(crossings.count() > 0, "the write fault must cross SSMPs");
    assert_eq!(first_divergence(&perfect, &spared), None);
}

#[test]
fn trace_registry_and_stats_count_the_same_events() {
    let mut cfg = DssmpConfig::new(8, 2)
        .with_faults(FaultPlan::uniform(0xB0B, 0.25, 0.05, Cycles(200)))
        .with_observability();
    cfg.trace = true;
    let (machine, r) = ring(cfg);
    let m = r.metrics.as_ref().expect("observability on");
    let s = machine.proto_stats();
    // Per count: the trace's (tallied below), the registry's, the stats'.
    let mut rows = [
        (
            "invalidations",
            0,
            m.get(Metric::Invalidations),
            s.invalidations.get(),
        ),
        ("pinvs", 0, m.get(Metric::Pinvs), s.pinvs.get()),
        ("diffs", 0, m.get(Metric::DiffsSent), s.diffs.get()),
        ("retries", 0, m.get(Metric::Retries), s.retries.get()),
        ("drops", 0, m.get(Metric::LanDrops), r.lan_drops),
        (
            "duplicates",
            0,
            m.get(Metric::LanDuplicates),
            r.lan_duplicates,
        ),
        ("LAN transmissions", 0, m.lan_total(), r.lan_messages),
    ];
    for e in machine.take_trace() {
        let (row, n) = match e.event {
            ObsEvent::Invalidate { .. } => (0, 1),
            ObsEvent::Pinv { .. } => (1, 1),
            ObsEvent::Diff { .. } => (2, 1),
            ObsEvent::Retry { .. } => (3, 1),
            ObsEvent::Drop { .. } => {
                rows[6].1 += 1; // a dropped transmission entered the fabric
                (4, 1)
            }
            ObsEvent::Duplicate { copies, .. } => (5, u64::from(copies)),
            ObsEvent::Message { from, to, .. } if from != to => (6, 1),
            _ => continue,
        };
        rows[row].1 += n;
    }
    for (name, traced, registry, stat) in rows {
        assert!(traced > 0, "{name}: the ring must produce some");
        assert_eq!(
            (traced, registry),
            (stat, stat),
            "{name}: trace, registry vs stats"
        );
    }
}

/// Under the adaptive protocol `Machine::run` drains the pages the
/// controller left pinned after the processors finish; the registry
/// must see that drain's events exactly as the protocol counts them.
/// At `C = P` every MGS call is null and a fault is a page-table fill,
/// which both count as a TLB fill.
#[test]
fn adaptive_proto_stats_reconcile_with_metrics_after_the_pinned_drain() {
    for c in [2, 4, 8] {
        let mut cfg = DssmpConfig::new(8, c).with_protocol(ProtocolKind::Adaptive);
        cfg.workers = Some(1);
        let machine = Machine::new(cfg);
        let r = Water::small().execute(&machine);
        let m = r.metrics.as_ref().expect("adaptive forces observability");
        let s = machine.proto_stats();
        for (name, metric, stat) in [
            ("invalidations", Metric::Invalidations, &s.invalidations),
            ("pinvs", Metric::Pinvs, &s.pinvs),
            ("diffs", Metric::DiffsSent, &s.diffs),
            ("diff words", Metric::DiffWords, &s.diff_words),
            ("TLB fills", Metric::TlbFills, &s.tlb_fills),
            ("read misses", Metric::ReadMisses, &s.read_misses),
            ("write misses", Metric::WriteMisses, &s.write_misses),
            ("upgrades", Metric::Upgrades, &s.upgrades),
            (
                "single-writer flushes",
                Metric::SingleWriterFlushes,
                &s.single_writer_flushes,
            ),
        ] {
            assert_eq!(m.get(metric), stat.get(), "C={c} {name}: registry vs stats");
        }
    }
}

#[test]
fn single_worker_traces_repeat() {
    let traced = || {
        let mut cfg = DssmpConfig::new(8, 2);
        cfg.workers = Some(1);
        cfg.trace = true;
        let machine = Machine::new(cfg);
        Tsp::small().execute(&machine);
        machine.take_trace()
    };
    let first = traced();
    assert!(first.len() > 1000, "TSP must trace real protocol work");
    assert_eq!(first_divergence(&first, &traced()), None);
}
