//! Regenerates **Table 4**: applications, problem sizes, sequential
//! runtime (Mcycles) and speedup on P processors (default 32). The ten
//! machines (five applications, sequential and `C = P`) share the
//! `--jobs` pool (`mgs_bench::parallel`).

use mgs_bench::chart::table;
use mgs_bench::cli::Options;
use mgs_bench::parallel::run_pool;
use mgs_bench::suite::{base_config, suite};
use mgs_core::Machine;

pub fn run(opts: &Options) {
    let base = &base_config(opts);
    // Paper values at the full problem sizes (Seq in Mcycles, S32).
    let paper: &[(&str, f64, f64)] = &[
        ("jacobi", 1618.0, 30.0),
        ("matmul", 3081.0, 26.9),
        ("tsp", 54.2, 23.0),
        ("water", 1993.0, 26.9),
        ("barnes-hut", 977.0, 13.8),
    ];
    let apps = suite(opts);
    let mut jobs = Vec::new();
    for (app, _) in &apps {
        for sequential in [true, false] {
            jobs.push(move || {
                if sequential {
                    eprintln!("running {} sequentially...", app.name());
                    return mgs_apps::sequential_runtime(base, app.as_ref());
                }
                eprintln!(
                    "running {} on {} processors (tightly coupled)...",
                    app.name(),
                    opts.p
                );
                let mut cfg = base.clone();
                cfg.cluster_size = cfg.n_procs; // C = P: the baseline of Table 4
                app.execute(&Machine::new(cfg)).duration
            });
        }
    }
    let mut durations = run_pool(opts.jobs, jobs).into_iter();
    let mut rows = Vec::new();
    for (app, _) in &apps {
        let seq = durations.next().expect("sequential run");
        let par = durations.next().expect("C = P run");
        let speedup = seq.raw() as f64 / par.raw() as f64;
        let (pseq, ps32) = paper
            .iter()
            .find(|(n, _, _)| *n == app.name())
            .map(|&(_, s, x)| (s, x))
            .unwrap_or((f64::NAN, f64::NAN));
        rows.push(vec![
            app.name().to_string(),
            format!("{:.1}", seq.as_mcycles()),
            format!("{pseq:.1}"),
            format!("{speedup:.1}"),
            format!("{ps32:.1}"),
        ]);
    }
    println!("Table 4 (P = {}, scale 1/{}):", opts.p, opts.scale);
    println!(
        "{}",
        table(&["app", "seq Mcyc", "paper", "speedup", "paper"], &rows)
    );
    if opts.scale != 1 {
        println!(
            "note: problem sizes scaled down 1/{}; paper columns are full-size.",
            opts.scale
        );
    }
}
