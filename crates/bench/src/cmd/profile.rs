//! `profile` — the observability deep-dive for one application.
//!
//! Runs a single application (default `jacobi`; any suite name works)
//! at one cluster size with the `mgs-obs` sink and the structured trace
//! attached, then emits:
//!
//! * the run report and the full metrics snapshot (counters, LAN
//!   message mix, latency histograms) to stdout;
//! * the top-N hot pages from the sharing profiler (read/write sharer
//!   counts, invalidation rates, hottest cache line);
//! * `results/profile_<app>_c<C>.json` — the machine-readable snapshot
//!   (run report summary + metrics + sharing profile);
//! * `results/profile_<app>_c<C>.trace.json` — the Chrome/Perfetto
//!   timeline (open in `ui.perfetto.dev`).
//!
//! Flags beyond the usual `--p`/`--scale`: `--c <C>` picks the cluster
//! size (default 4, or `P` when `P < 4`); `--top <N>` sizes the hot-page
//! table (default 10); `--workers <W>` widens the scheduler's host
//! worker pool (default 1, like every harness machine: everything but
//! the host-side wait table repeats to the byte; above 1 is a stress
//! mode); `--smoke` is `--quick` at `P = 8` — the CI configuration;
//! `--no-trace` skips the timeline (observability without the trace's
//! allocation overhead).
//!
//! ```text
//! cargo run --release -p mgs-bench -- profile water --c 8
//! ```

use mgs_bench::cli::Options;
use mgs_bench::suite::{base_config, by_name};
use mgs_core::{export_perfetto, GovernorWaitReport, Machine};

pub fn run(opts: &Options) {
    let mut opts = opts.clone();
    let mut cluster: Option<usize> = None;
    let mut top = 10usize;
    let mut trace = true;
    let mut smoke = false;
    let mut workers: Option<usize> = None;
    // Command-specific flags arrive as positionals; drain them.
    let mut app_name = String::from("jacobi");
    let mut it = std::mem::take(&mut opts.args).into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--c" => {
                cluster = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--c needs an integer"),
                );
            }
            "--top" => {
                top = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--top needs an integer");
            }
            "--no-trace" => trace = false,
            "--workers" => {
                workers = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--workers needs an integer"),
                );
            }
            "--smoke" => {
                smoke = true;
                opts.p = 8;
                opts.scale = opts.scale.max(8);
            }
            name => app_name = name.to_string(),
        }
    }
    let c = cluster.unwrap_or_else(|| 4.min(opts.p));
    assert!(
        opts.p.is_multiple_of(c),
        "cluster size {c} must divide the processor count {}",
        opts.p
    );

    let app = by_name(&opts, &app_name).unwrap_or_else(|| panic!("unknown application {app_name}"));
    let mut cfg = base_config(&opts).with_observability();
    cfg.cluster_size = c;
    cfg.trace = trace;
    if workers.is_some() {
        cfg.workers = workers;
    }

    eprintln!(
        "profiling {app_name} at P = {}, C = {c} (scale 1/{})...",
        opts.p, opts.scale,
    );
    let machine = Machine::new(cfg);
    let report = app.execute(&machine);
    let events = machine.take_trace();

    println!("== {app_name}: run report ==\n{report}");
    let metrics = report.metrics.as_ref().expect("observability was enabled");
    println!("\n== metrics ==\n{metrics}");
    let obs = machine.obs().expect("observability was enabled");
    let sharing = obs.profiler.report(top);
    println!("\n== sharing profile (top {top} of {} pages) ==", {
        sharing.pages_touched
    });
    println!("{sharing}");

    // Scheduler wait accounting: host-side cost of pacing (times
    // descheduled, wall-clock wait histograms per processor).
    let governor = machine
        .governor_waits()
        .map(|snap| GovernorWaitReport::from_snapshot(&snap));
    let gov_json = match &governor {
        Some(gov) => {
            println!("\n== governor waits (host-side) ==\n{gov}");
            gov.to_json()
        }
        None => String::from("null"),
    };

    std::fs::create_dir_all("results").expect("create results dir");
    let path = format!("results/profile_{app_name}_c{c}.json");
    let json = format!(
        "{{\n  \"app\": \"{app_name}\",\n  \"p\": {},\n  \"cluster_size\": {c},\n  \
         \"scale\": {},\n  \"duration_cycles\": {},\n  \"lan_messages\": {},\n  \
         \"lan_bytes\": {},\n  \"lock_acquires\": {},\n  \"governor\": {},\n  \
         \"metrics\": {},\n  \"sharing\": {}\n}}\n",
        opts.p,
        opts.scale,
        report.duration.raw(),
        report.lan_messages,
        report.lan_bytes,
        report.lock_acquires,
        gov_json,
        metrics.to_json(),
        sharing.to_json(),
    );
    std::fs::write(&path, json).expect("write profile json");
    println!("\nwrote {path}");

    if trace {
        let tpath = format!("results/profile_{app_name}_c{c}.trace.json");
        let perfetto = export_perfetto(&events, opts.p, c);
        std::fs::write(&tpath, perfetto).expect("write perfetto trace");
        println!(
            "wrote {tpath} ({} trace events; open in ui.perfetto.dev)",
            events.len()
        );
    }
    if smoke {
        println!("smoke profile complete");
    }
}
