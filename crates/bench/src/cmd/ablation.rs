//! Ablation studies of MGS design choices:
//!
//! * the **single-writer optimization** (§3.1.1) on vs. off;
//! * **lock token affinity** (the MGS distributed lock's preference for
//!   same-SSMP waiters) vs. strict FIFO;
//! * **page size** (the grain of software sharing);
//! * **read-only cleaning off the critical path** (the future-work
//!   optimization of §4.2.4).

use mgs_apps::{tsp::Tsp, water::Water, MgsApp};
use mgs_bench::chart::table;
use mgs_bench::cli::Options;
use mgs_bench::suite::base_config;
use mgs_core::{Cycles, Machine};

pub fn run(opts: &Options) {
    let base = base_config(opts);
    let water = Water {
        n: opts.dim(343, 48),
        ..Water::paper()
    };
    let tsp = Tsp {
        n: if opts.scale > 1 { 8 } else { 10 },
        ..Tsp::paper()
    };
    let c = (opts.p / 4).max(1);

    // Single-writer optimization.
    let mut rows = Vec::new();
    for on in [true, false] {
        let mut cfg = base.clone();
        cfg.cluster_size = c;
        cfg.single_writer_opt = on;
        eprintln!("water, single-writer opt = {on}...");
        let machine = Machine::new(cfg);
        let r = water.execute(&machine);
        rows.push(vec![
            format!("single-writer {}", if on { "on" } else { "off" }),
            format!("{:.2}", r.duration.as_mcycles()),
            format!("{}", machine.proto_stats().diffs.get()),
            format!("{}", machine.proto_stats().single_writer_flushes.get()),
        ]);
    }
    println!("\nWater at C = {c} (Mcycles; diffs; 1W flushes):");
    println!("{}", table(&["config", "Mcyc", "diffs", "1w"], &rows));

    // Lock affinity.
    let mut rows = Vec::new();
    for window in [Cycles(2000), Cycles::ZERO] {
        let mut cfg = base.clone();
        cfg.cluster_size = c;
        cfg.lock_affinity_window = window;
        eprintln!("tsp, affinity window = {window}...");
        let machine = Machine::new(cfg);
        let r = tsp.execute(&machine);
        rows.push(vec![
            format!("affinity {}", window),
            format!("{:.2}", r.duration.as_mcycles()),
            format!("{:.3}", machine.lock_hit_ratio()),
        ]);
    }
    println!("\nTSP at C = {c}:");
    println!("{}", table(&["config", "Mcyc", "hit ratio"], &rows));

    // Extension: read-only clean optimization, on the most
    // software-coherence-bound configuration.
    let mut rows = Vec::new();
    for (label, ro) in [
        ("baseline (eager MGS)", false),
        ("readonly-clean opt", true),
    ] {
        let mut cfg = base.clone();
        cfg.cluster_size = c;
        cfg.readonly_clean_opt = ro;
        eprintln!("water, {label}...");
        let r = water.execute(&Machine::new(cfg));
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", r.duration.as_mcycles()),
        ]);
    }
    println!("\nWater at C = {c} with the read-only clean extension:");
    println!("{}", table(&["config", "Mcyc"], &rows));

    // Page size.
    let mut rows = Vec::new();
    for page in [512u64, 1024, 4096] {
        let mut cfg = base.clone();
        cfg.cluster_size = c;
        cfg.geometry = mgs_core::PageGeometry::new(page);
        eprintln!("water, page = {page} bytes...");
        let machine = Machine::new(cfg);
        let r = water.execute(&machine);
        rows.push(vec![
            format!("{page} B pages"),
            format!("{:.2}", r.duration.as_mcycles()),
        ]);
    }
    println!("\nWater at C = {c} by page size:");
    println!("{}", table(&["config", "Mcyc"], &rows));
}
