//! Observability invariants (`mgs-obs` threaded through the machine):
//!
//! * **Zero perturbation** — attaching the observability sink must not
//!   move a single simulated cycle. Two programs inside the simulator's
//!   deterministic envelope (see `tests/determinism.rs`) run with and
//!   without `DssmpConfig::observe` at C = 4 and C = 32 and must be
//!   bit-identical in duration, per-processor accounting and LAN
//!   traffic.
//! * **Reconciliation** — each event is counted once, by the layer that
//!   owns it, and `RunReport::metrics` reads those counts; the trace is
//!   an independent record of the same event stream. Every count the
//!   trace implies, tallied from it, must equal the report's exactly,
//!   under each protocol and including the adaptive protocol's
//!   post-run drain; the lock and barrier counts are checked against
//!   the program's structure.
//! * **Perfetto export** — the exported `trace_event` JSON parses, and
//!   on every track the begin/end spans nest: depth never goes
//!   negative, every span closes, and timestamps are monotonic.
//! * **One message clock** — a delivered message's trace event carries
//!   the instant it was launched, with or without a fault plan.
//! * **Trace determinism** — at one worker, two traced runs of a
//!   schedule-sensitive application record the same trace.

use mgs_repro::apps::{envelope, tsp::Tsp, water::Water, water_kernel::WaterKernel, MgsApp};
use mgs_repro::core::{
    export_perfetto, first_divergence, AccessKind, DssmpConfig, FaultPlan, Machine, Metric,
    ObsEvent, ProtocolKind, RunReport, TraceEvent, XactOutcome,
};
use mgs_repro::net::MsgKind;
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

/// The counts no trace event implies, against the ring's structure:
/// one barrier arrival per processor per phase, the token taken once per
/// phase, and no retry on a perfect fabric.
#[test]
fn metric_totals_reconcile_with_run_report() {
    let r = run_ring(PROCS, 4, true, FaultPlan::none());
    let m = r.metrics.as_ref().expect("observability on");
    assert!(r.lan_messages > 0, "ring must cross SSMPs");
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
}

/// The tiled Water kernel, the one `HwLock` user: its lock and barrier
/// owners' counts reach the report. Every unordered pair takes both
/// molecules' locks once per iteration, and each processor arrives once
/// before measuring and then once per phase: the internal phase plus
/// `tiles - 1` tournament rounds, `tiles = 2P/C`.
#[test]
fn hw_lock_and_barrier_counts_follow_the_tiled_kernel() {
    let (p, iters, n) = (8usize, 2usize, 24usize);
    for c in [2, 4] {
        let mut cfg = DssmpConfig::new(p, c);
        cfg.observe = true;
        let kernel = WaterKernel {
            n,
            iters,
            ..WaterKernel::small(true)
        };
        let r = kernel.execute(&Machine::new(cfg));
        let m = r.metrics.as_ref().expect("observability on");
        assert_eq!(
            m.get(Metric::HwLockAcquires),
            (iters * n * (n - 1)) as u64,
            "C={c}"
        );
        assert_eq!(
            m.get(Metric::BarrierArrivals),
            (p * (1 + iters * 2 * p / c)) as u64,
            "C={c}"
        );
        assert_eq!(r.lock_acquires, 0, "no MGS lock at C={c}");
    }
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

/// Every reported count that a trace implies, tallied from the trace
/// alone: the independent record each run report's counts are checked
/// against. Not implied, so absent here: loads, stores, the `Hw*`
/// access classes, lock and barrier counts, and the page-table fills
/// at `C = P` (not protocol transactions, so no event marks them).
struct Tally {
    counts: [u64; Metric::COUNT],
    lan: [u64; MsgKind::COUNT],
}

/// The metrics no trace event implies.
const UNTRACED: [Metric; 12] = [
    Metric::Loads,
    Metric::Stores,
    Metric::HwHit,
    Metric::HwLocalMiss,
    Metric::HwRemoteClean,
    Metric::HwTwoParty,
    Metric::HwThreeParty,
    Metric::HwSwDirectory,
    Metric::LockAcquiresLocal,
    Metric::LockAcquiresRemote,
    Metric::HwLockAcquires,
    Metric::BarrierArrivals,
];

impl Tally {
    fn of(trace: &[TraceEvent]) -> Tally {
        let mut t = Tally {
            counts: [0; Metric::COUNT],
            lan: [0; MsgKind::COUNT],
        };
        for e in trace {
            let mut add = |metric: Metric, n: u64| t.counts[metric.index()] += n;
            match e.event {
                ObsEvent::Message { from, to, kind, .. } if from != to => {
                    t.lan[kind.index()] += 1;
                }
                ObsEvent::Drop { kind, .. } => {
                    // A dropped transmission entered the fabric too.
                    t.lan[kind.index()] += 1;
                    add(Metric::LanDrops, 1);
                }
                ObsEvent::Duplicate { copies, .. } => add(Metric::LanDuplicates, copies.into()),
                ObsEvent::Retry { .. } => add(Metric::Retries, 1),
                ObsEvent::XactEnd { outcome, .. } => add(
                    match outcome {
                        XactOutcome::TlbFill => Metric::TlbFills,
                        XactOutcome::ReadMiss => Metric::ReadMisses,
                        XactOutcome::WriteMiss => Metric::WriteMisses,
                        XactOutcome::Upgrade => Metric::Upgrades,
                        XactOutcome::Released => Metric::PagesReleased,
                        XactOutcome::Aborted => Metric::XactAborts,
                    },
                    1,
                ),
                ObsEvent::TwinCreate { .. } => add(Metric::TwinCreates, 1),
                ObsEvent::Diff { words, spans, .. } => {
                    add(Metric::DiffsSent, 1);
                    add(Metric::DiffWords, words);
                    add(Metric::DiffSpans, spans);
                }
                ObsEvent::Invalidate { .. } => add(Metric::Invalidations, 1),
                ObsEvent::SingleWriterFlush { .. } => add(Metric::SingleWriterFlushes, 1),
                ObsEvent::SingleWriterBreak { .. } => add(Metric::SingleWriterBreaks, 1),
                ObsEvent::DuqFlush { .. } => add(Metric::DuqFlushes, 1),
                ObsEvent::LazyNotice { .. } => add(Metric::LazyNotices, 1),
                ObsEvent::Pinv { .. } => add(Metric::Pinvs, 1),
                ObsEvent::UpdatePush { words, .. } => {
                    add(Metric::UpdatePushes, 1);
                    add(Metric::UpdatePushWords, words);
                }
                ObsEvent::PolicySwitch { .. } => add(Metric::PolicySwitches, 1),
                ObsEvent::Churn { rejoin: true, .. } => add(Metric::ChurnRejoins, 1),
                ObsEvent::Churn { rehomed, .. } => {
                    add(Metric::ChurnDepartures, 1);
                    add(Metric::ChurnRehomedPages, rehomed);
                }
                _ => {}
            }
        }
        t
    }

    fn get(&self, metric: Metric) -> u64 {
        self.counts[metric.index()]
    }

    /// Requires every count the trace implies to equal the report's,
    /// in its metrics and in its own fields. `page_table_fills` marks a
    /// run at `C = P`, whose TLB fills no event marks.
    fn check(&self, r: &RunReport, page_table_fills: bool, run: &str) {
        let m = r.metrics.as_ref().expect("observability on");
        for metric in Metric::ALL {
            if UNTRACED.contains(&metric) || (page_table_fills && metric == Metric::TlbFills) {
                continue;
            }
            assert_eq!(
                self.get(metric),
                m.get(metric),
                "{run}: {}: trace vs report",
                metric.name()
            );
        }
        for kind in MsgKind::ALL {
            assert_eq!(
                self.lan[kind.index()],
                m.lan(kind),
                "{run}: {} transmissions: trace vs report",
                kind.name()
            );
        }
        let lan: u64 = self.lan.iter().sum();
        assert_eq!(
            (lan, self.get(Metric::LanDrops)),
            (r.lan_messages, r.lan_drops),
            "{run}: LAN transmissions and drops: trace vs report fields"
        );
        assert_eq!(
            (self.get(Metric::LanDuplicates), self.get(Metric::Retries)),
            (r.lan_duplicates, r.retries),
            "{run}: duplicates and retries: trace vs report fields"
        );
    }
}

/// The trace is the oracle for every count it implies, under each
/// protocol: the eager ring on a lossy fabric (misses, twins, diffs,
/// single-writer flushes and breaks, invalidations, PINVs, the LAN mix,
/// drops, duplicates, retries), a home-LRC Water run (lazy notices) and
/// an adaptive TSP run (update pushes, policy switches). Every listed
/// kind must occur in some run, so no comparison passes as zero against
/// zero.
#[test]
fn trace_tally_matches_every_reported_count() {
    let traced = |cfg: DssmpConfig| {
        let mut cfg = cfg.with_observability();
        cfg.trace = true;
        cfg.workers = Some(1);
        cfg
    };
    let mut seen = [0u64; Metric::COUNT];
    let mut check = |run: &str, machine: &Machine, r: &RunReport| {
        let t = Tally::of(&machine.take_trace());
        t.check(r, false, run);
        for (s, n) in seen.iter_mut().zip(t.counts) {
            *s += n;
        }
    };

    let lossy = FaultPlan::uniform(0xB0B, 0.25, 0.05, Cycles(200));
    let (machine, r) = ring(traced(DssmpConfig::new(8, 2).with_faults(lossy)));
    check("eager lossy ring", &machine, &r);

    let water: &dyn MgsApp = &Water::small();
    for (protocol, app, run) in [
        (ProtocolKind::HomeLrc, water, "home-LRC Water"),
        (ProtocolKind::Adaptive, &Tsp::small(), "adaptive TSP"),
    ] {
        let machine = Machine::new(traced(DssmpConfig::new(8, 2).with_protocol(protocol)));
        let r = app.execute(&machine);
        check(run, &machine, &r);
    }

    for metric in [
        Metric::ReadMisses,
        Metric::WriteMisses,
        Metric::Upgrades,
        Metric::TlbFills,
        Metric::PagesReleased,
        Metric::TwinCreates,
        Metric::DiffsSent,
        Metric::DiffWords,
        Metric::DiffSpans,
        Metric::SingleWriterFlushes,
        Metric::SingleWriterBreaks,
        Metric::DuqFlushes,
        Metric::Invalidations,
        Metric::Pinvs,
        Metric::LazyNotices,
        Metric::UpdatePushes,
        Metric::UpdatePushWords,
        Metric::PolicySwitches,
        Metric::LanDrops,
        Metric::LanDuplicates,
        Metric::Retries,
    ] {
        assert!(
            seen[metric.index()] > 0,
            "{}: no run produced one",
            metric.name()
        );
    }
}

/// Under the adaptive protocol `Machine::run` drains the pages the
/// controller left pinned after the processors finish, and records the
/// drain's events for processor 0: the trace's tally, which includes
/// them, must equal every count the report gives. At `C = P` every MGS
/// call is null and a fault is a page-table fill, which no event marks.
#[test]
fn adaptive_trace_tally_matches_the_report_after_the_pinned_drain() {
    for c in [2, 4, 8] {
        let mut cfg = DssmpConfig::new(8, c).with_protocol(ProtocolKind::Adaptive);
        cfg.workers = Some(1);
        cfg.trace = true;
        let machine = Machine::new(cfg);
        let r = Water::small().execute(&machine);
        Tally::of(&machine.take_trace()).check(&r, c == 8, &format!("C={c}"));
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
