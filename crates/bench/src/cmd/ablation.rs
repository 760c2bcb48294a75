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
use mgs_bench::parallel::run_pool;
use mgs_bench::suite::base_config;
use mgs_core::{Cycles, Machine};

pub fn run(opts: &Options) {
    let water = &Water {
        n: opts.dim(343, 48),
        ..Water::paper()
    };
    let tsp = &Tsp {
        n: if opts.scale > 1 { 8 } else { 10 },
        ..Tsp::paper()
    };
    let c = (opts.p / 4).max(1);
    let mut base = base_config(opts);
    base.cluster_size = c;

    // Every machine of the four studies goes to the `--jobs` pool
    // (`mgs_bench::parallel`); each job returns its table row.
    let mut jobs: Vec<Box<dyn FnOnce() -> Vec<String> + Send + '_>> = Vec::new();

    // Single-writer optimization.
    for on in [true, false] {
        let mut cfg = base.clone();
        cfg.single_writer_opt = on;
        jobs.push(Box::new(move || {
            eprintln!("water, single-writer opt = {on}...");
            let machine = Machine::new(cfg);
            let r = water.execute(&machine);
            vec![
                format!("single-writer {}", if on { "on" } else { "off" }),
                format!("{:.2}", r.duration.as_mcycles()),
                format!("{}", machine.proto_stats().diffs.get()),
                format!("{}", machine.proto_stats().single_writer_flushes.get()),
            ]
        }));
    }

    // Lock affinity.
    for window in [Cycles(2000), Cycles::ZERO] {
        let mut cfg = base.clone();
        cfg.lock_affinity_window = window;
        jobs.push(Box::new(move || {
            eprintln!("tsp, affinity window = {window}...");
            let machine = Machine::new(cfg);
            let r = tsp.execute(&machine);
            vec![
                format!("affinity {}", window),
                format!("{:.2}", r.duration.as_mcycles()),
                format!("{:.3}", machine.lock_hit_ratio()),
            ]
        }));
    }

    // Extension: read-only clean optimization, on the most
    // software-coherence-bound configuration.
    for (label, ro) in [
        ("baseline (eager MGS)", false),
        ("readonly-clean opt", true),
    ] {
        let mut cfg = base.clone();
        cfg.readonly_clean_opt = ro;
        jobs.push(Box::new(move || {
            eprintln!("water, {label}...");
            let r = water.execute(&Machine::new(cfg));
            vec![label.to_string(), format!("{:.2}", r.duration.as_mcycles())]
        }));
    }

    // Page size.
    for page in [512u64, 1024, 4096] {
        let mut cfg = base.clone();
        cfg.geometry = mgs_core::PageGeometry::new(page);
        jobs.push(Box::new(move || {
            eprintln!("water, page = {page} bytes...");
            let r = water.execute(&Machine::new(cfg));
            vec![
                format!("{page} B pages"),
                format!("{:.2}", r.duration.as_mcycles()),
            ]
        }));
    }

    let mut rows = run_pool(opts.jobs, jobs).into_iter();
    let mut section = |title: &str, header: &[&str], n: usize| {
        println!("\n{title}");
        println!(
            "{}",
            table(header, &rows.by_ref().take(n).collect::<Vec<_>>())
        );
    };
    section(
        &format!("Water at C = {c} (Mcycles; diffs; 1W flushes):"),
        &["config", "Mcyc", "diffs", "1w"],
        2,
    );
    section(
        &format!("TSP at C = {c}:"),
        &["config", "Mcyc", "hit ratio"],
        2,
    );
    section(
        &format!("Water at C = {c} with the read-only clean extension:"),
        &["config", "Mcyc"],
        2,
    );
    section(
        &format!("Water at C = {c} by page size:"),
        &["config", "Mcyc"],
        3,
    );
}
