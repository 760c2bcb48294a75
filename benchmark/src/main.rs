//! The MGS reproduction's benchmark: five workloads, end-to-end metrics
//! measured untraced, per-layer metrics measured from outside. See
//! `README.md` beside this crate.
//!
//! ```text
//! mgs-benchmark --workload W --seed S --seconds N --trace 0|1
//!     one run of one workload; the last stdout line is the result JSON
//! mgs-benchmark [--seed S] [--seconds N] [--smoke]
//!     every workload, untraced then traced; every metric by name
//! mgs-benchmark --describe
//!     the `BENCHMARK.json` the tables in `metrics.rs` imply
//! ```

mod child;
mod drivers;
mod json;
mod metrics;
mod parent;
mod run;
mod spans;
mod stats;
mod workloads;

use json::{obj, Json};
use run::{Options, Outcome};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The seed of a run that names none.
const DEFAULT_SEED: u64 = 1996;
/// `run_seconds` of `BENCHMARK.json`, for a run that names none.
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    describe: bool,
    child: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    observe: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        describe: false,
        child: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        observe: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bit = |v: String| match v.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} takes 0 or 1, not {v:?}")),
        };
        match flag.as_str() {
            "--describe" => args.describe = true,
            "--child" => args.child = true,
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, not {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or_else(|| format!("--seconds takes 0 to 600, not {v:?}"))?;
            }
            "--trace" => args.trace = bit(value()?)?,
            "--observe" => args.observe = bit(value()?)?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        // `git` looks for a repository in this checkout and no higher:
        // a copy that is not one has no commit, not its host's.
        .env(
            "GIT_CEILING_DIRECTORIES",
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .unwrap_or("/".as_ref()),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What produced the numbers. The size factor is 1: the frozen sizes
/// in `workloads.rs` are the sizes run (the README relates them to the
/// issue's and the paper's).
fn provenance() -> Json {
    obj([
        (
            "git_commit",
            Json::from(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::from(first_line_of("rustc", &["-V"]))),
        (
            "host_cores",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("default_seed", Json::from(DEFAULT_SEED)),
        ("size_factor", Json::from(1u64)),
        (
            "build_profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

/// `BENCHMARK.json` as the tables define it; a unit test holds the
/// committed file to this.
fn describe() -> Json {
    let workloads = workloads::NAMES.iter().map(|n| {
        let w = workloads::workload(n, false).expect("named workloads exist");
        obj([("name", Json::from(w.name)), ("why", Json::from(w.why))])
    });
    let end_to_end = metrics::END_TO_END.iter().map(|m| {
        obj([
            ("name", Json::from(m.name)),
            ("unit", Json::from(m.unit)),
            ("better", Json::from(m.better.label())),
            ("bound", Json::from(m.bound)),
        ])
    });
    let per_layer = metrics::per_layer_table()
        .into_iter()
        .map(|(name, unit, better)| {
            obj([
                ("name", Json::from(name)),
                ("unit", Json::from(unit)),
                ("better", Json::from(better.label())),
            ])
        });
    obj([
        (
            "command",
            Json::Arr(vec![Json::from("bash"), Json::from("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(DEFAULT_SECONDS)),
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ])
}

/// `benchmark/out/`, inside the checkout the program was built in.
fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

fn write_outputs(outcome: &Outcome, provenance: &Json) {
    let dir = out_dir();
    let tag = if outcome.opts.trace {
        "traced"
    } else {
        "untraced"
    };
    let path = dir.join(format!("{}.{tag}.json", outcome.workload.name));
    std::fs::write(&path, outcome.report(provenance).render_pretty()).expect("write report");
    if outcome.opts.trace {
        let path = dir.join(format!("{}.trace.json", outcome.workload.name));
        std::fs::write(&path, outcome.spans.to_chrome_trace().render_pretty())
            .expect("write trace");
    }
}

/// Reads the contract line back and checks it has exactly the keys and
/// the metric names the tables promise.
fn check_schema(line: &str, trace: bool) -> Result<(), String> {
    let doc = json::parse(line)?;
    let Json::Obj(members) = &doc else {
        return Err("result is not an object".into());
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let attempted = doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
    if attempted < 1.0 || attempted.fract() != 0.0 {
        return Err(format!("attempted is {attempted}"));
    }
    let want: Vec<String> = if trace {
        metrics::per_layer_table()
            .into_iter()
            .map(|(n, _, _)| n)
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .collect()
    };
    let Some(Json::Obj(got)) = doc.get("metrics") else {
        return Err("metrics is not an object".into());
    };
    let got_names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
    if got_names != want.iter().map(String::as_str).collect::<Vec<_>>() {
        return Err(format!("metric names are {got_names:?}, want {want:?}"));
    }
    for (name, m) in got {
        if m.get("value").and_then(Json::as_f64).is_none()
            || m.get("unit").and_then(Json::as_str).is_none()
        {
            return Err(format!("metric {name} lacks a numeric value or a unit"));
        }
    }
    Ok(())
}

/// Runs one workload, prints it, writes its files; `Ok` holds the
/// outcome and its schema-checked result line.
fn one_run(
    workload: workloads::Workload,
    opts: Options,
    costs: Option<&[run::UnitCost]>,
    prov: &Json,
) -> Result<(Outcome, String), String> {
    let outcome = run::run(workload, opts, costs);
    outcome.print();
    write_outputs(&outcome, prov);
    let line = outcome.contract_line().render();
    check_schema(&line, opts.trace).map_err(|e| format!("schema error: {e}"))?;
    Ok((outcome, line))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mgs-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let lookup = |name: &str| {
        workloads::workload(name, args.smoke).ok_or_else(|| {
            format!(
                "unknown workload {name:?}; the workloads are {}",
                workloads::NAMES.join(", ")
            )
        })
    };

    if args.describe {
        print!("{}", describe().render_pretty());
        return ExitCode::SUCCESS;
    }
    if args.child {
        let workload = args
            .workload
            .as_deref()
            .ok_or_else(|| "--child needs --workload".to_string())
            .and_then(lookup);
        return match workload {
            Ok(w) => {
                child::run(&w, args.seed, args.observe, started);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mgs-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }

    let prov = provenance();
    println!("mgs-benchmark {}", prov.render());
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };

    // One workload: the contract's mode. The result is the last line.
    if let Some(name) = &args.workload {
        let result = lookup(name).and_then(|w| one_run(w, opts, None, &prov));
        return match result {
            Ok((_, line)) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mgs-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }

    // Every workload, untraced for the end-to-end metrics and then
    // traced for the per-layer ones. The unit costs do not depend on
    // the workload, so they are measured once.
    let mut spans = spans::SpanLog::new();
    let ctx = drivers::Ctx {
        seed: args.seed,
        quick: args.smoke,
    };
    let costs = run::unit_costs(&ctx, &mut spans, None);
    println!("== unit costs (median, p99, samples)");
    for c in &costs {
        println!(
            "  {:<36} {:>12.3} {:>12.3} {:<3} n={}",
            c.name, c.median, c.p99, c.unit, c.samples
        );
    }
    let mut all_correct = true;
    let mut summary = Vec::new();
    for name in workloads::NAMES {
        for trace in [false, true] {
            let w = lookup(name).expect("named workloads exist");
            match one_run(w, Options { trace, ..opts }, Some(&costs), &prov) {
                Ok((outcome, _)) => {
                    all_correct &= outcome.correct();
                    summary.push(outcome.report(&prov));
                }
                Err(e) => {
                    eprintln!("mgs-benchmark: {name}: {e}");
                    all_correct = false;
                }
            }
        }
    }
    let path = out_dir().join("benchmark.json");
    let doc = obj([("provenance", prov), ("runs", Json::Arr(summary))]);
    std::fs::write(&path, doc.render_pretty()).expect("write summary");
    println!(
        "wrote {} ({:.0} s); every run correct: {all_correct}",
        path.display(),
        started.elapsed().as_secs_f64()
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
