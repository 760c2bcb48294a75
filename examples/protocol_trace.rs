//! Tracing MGS protocol transactions on a running machine: the protocol
//! event stream records every transaction span (fault begin → TLB
//! installed, release begin → RACK), protocol message, handler
//! occupancy, fabric fault and page-level state change (twins, diffs,
//! invalidations, TLB shootdowns), exactly as Table 1 / Figure 5 of the
//! paper describe them.
//!
//! ```text
//! cargo run --release --example protocol_trace
//! cargo run --release --example protocol_trace -- --perfetto trace.json
//! ```
//!
//! With `--perfetto <path>`, the same stream is exported as
//! Chrome/Perfetto `trace_event` JSON — open the file in
//! `ui.perfetto.dev` to see one track per simulated processor (its
//! transaction spans) and one per protocol engine (its occupancy).

use mgs_repro::core::{export_perfetto, AccessKind, DssmpConfig, Machine, ObsEvent, TraceEvent};

fn main() {
    let perfetto_path = {
        let args: Vec<String> = std::env::args().skip(1).collect();
        args.iter().position(|a| a == "--perfetto").map(|i| {
            args.get(i + 1)
                .cloned()
                .expect("--perfetto needs a file path")
        })
    };

    // Two SSMPs of two processors, with the structured trace and the
    // observability sink attached.
    let mut cfg = DssmpConfig::new(4, 2).with_observability();
    cfg.trace = true;
    let machine = Machine::new(cfg);

    // One page's worth of data, homed at processor 0 (SSMP 0).
    let data = machine.alloc_array_homed::<u64>(128, AccessKind::DistArray, |_| 0);

    let report = machine.run(|env| {
        env.start_measurement();
        if env.pid() == 2 {
            // Processor 2 (SSMP 1) write-faults on the remote page:
            // WTLBFault -> WREQ -> WDAT (arcs 5, 18, 7 of Table 1).
            data.write(env, 3, 42);
        }
        // The barrier is a release point: REL -> 1WINV -> 1WDATA ->
        // RACK (the single-writer optimization, arcs 8, 20, 14, 16,
        // 23, 9).
        env.barrier();
        // Everyone reads the released value back.
        assert_eq!(data.read(env, 3), 42);
        env.barrier();
    });

    let events = machine.take_trace();

    // Per-processor timelines (each processor's clock is monotonic;
    // different processors' clocks are only loosely ordered).
    for proc in 0..4 {
        let mine: Vec<&TraceEvent> = events.iter().filter(|e| e.proc == proc).collect();
        if mine.is_empty() {
            continue;
        }
        println!("\n== processor {proc} ({} events) ==", mine.len());
        for e in &mine {
            println!("{e}");
        }
    }

    let spans = events
        .iter()
        .filter(|e| matches!(e.event, ObsEvent::XactBegin { .. }))
        .count();
    println!("\n{spans} protocol transactions traced");
    println!("\nRun report:\n{report}");
    if let Some(metrics) = &report.metrics {
        println!("\nMetrics:\n{metrics}");
    }
    if let Some(obs) = machine.obs() {
        println!("\nSharing profile:\n{}", obs.profiler.report(5));
    }

    if let Some(path) = perfetto_path {
        let cfg = machine.config();
        let json = export_perfetto(&events, cfg.n_procs, cfg.cluster_size);
        std::fs::write(&path, json).expect("write perfetto trace");
        println!("\nPerfetto trace written to {path} (open in ui.perfetto.dev)");
    }
}
