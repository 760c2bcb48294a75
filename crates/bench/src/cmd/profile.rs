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
use mgs_core::{export_perfetto, GovWaitSnapshot, Machine};

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
    let gov_json = match machine.governor_waits() {
        Some(gov) => {
            println!("\n== governor waits (host-side) ==\n{gov}");
            governor_json(&gov)
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

/// The profile's `governor` member: per processor its deschedules,
/// parks, migrations and host wait histogram (count, total, mean, p90
/// floor), then the totals. Hand-rolled, like the rest of the file.
fn governor_json(gov: &GovWaitSnapshot) -> String {
    let mut s = String::from("{\n    \"per_proc\": [");
    for (i, p) in gov.per_proc.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n      {{\"gates\": {}, \"parks\": {}, \"migrations\": {}, \"waits\": {}, \
             \"wait_ns_total\": {}, \"wait_ns_mean\": {:.0}, \"wait_ns_p90\": {}}}",
            p.gates,
            p.parks,
            p.migrations,
            p.waits.count,
            p.waits.sum,
            p.waits.mean(),
            p.waits.quantile_floor(0.9),
        ));
    }
    s.push_str(&format!(
        "\n    ],\n    \"total_gates\": {},\n    \"total_parks\": {},\n    \
         \"total_migrations\": {},\n    \"total_wait_ns\": {}\n  }}",
        gov.total_gates(),
        gov.total_parks(),
        gov.total_migrations(),
        gov.total_wait_ns(),
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgs_core::GovWaitStats;
    use mgs_sim::Histogram;

    fn stats(gates: u64, migrations: u64, waits: &[u64]) -> GovWaitStats {
        let h = Histogram::new();
        for &w in waits {
            h.record(w);
        }
        GovWaitStats {
            gates,
            parks: 0,
            migrations,
            waits: h.summary(),
        }
    }

    #[test]
    fn totals_and_waits_reach_the_table_and_the_json() {
        let snap = GovWaitSnapshot {
            per_proc: vec![stats(10, 0, &[100, 2_000]), stats(4, 0, &[8])],
        };
        assert_eq!(snap.total_gates(), 14);
        assert_eq!(snap.total_parks(), 0);
        assert_eq!(snap.total_wait_ns(), 2_108);
        assert_eq!(snap.per_proc[0].waits.count, 2);
        assert_eq!(snap.per_proc[0].waits.sum, 2_100);
        assert_eq!(snap.per_proc[1].waits.count, 1);
        let shown = format!("{snap}");
        assert!(shown.starts_with("governor waits\n"), "{shown}");
        assert!(shown.contains("gates"), "{shown}");
        let json = governor_json(&snap);
        assert!(json.contains("\"total_gates\": 14"), "{json}");
        assert!(json.contains("\"waits\": 2, \"wait_ns_total\": 2100, \"wait_ns_mean\": 1050, \"wait_ns_p90\": 1024}"), "{json}");
        assert!(json.contains("\"total_wait_ns\": 2108\n  }"), "{json}");
    }

    #[test]
    fn migrations_reach_the_totals_the_table_and_the_json() {
        let snap = GovWaitSnapshot {
            per_proc: vec![stats(10, 2, &[100]), stats(4, 5, &[8])],
        };
        assert_eq!(snap.total_migrations(), 7);
        assert_eq!(snap.per_proc[1].migrations, 5);
        let shown = format!("{snap}");
        assert!(shown.contains("migrations"), "{shown}");
        let total = shown.lines().last().expect("a total row");
        assert_eq!(
            total.split_whitespace().collect::<Vec<_>>(),
            ["total", "14", "0", "7", "0us"]
        );
        let json = governor_json(&snap);
        assert!(json.contains("\"migrations\": 2,"), "{json}");
        assert!(json.contains("\"total_migrations\": 7"), "{json}");
    }
}
