//! `mgs-bench <command> [flags]` — the harness: one command per study
//! (`paper` renders every table and figure read off the cluster-size
//! sweep), each a module under `cmd/` sharing the library's sweep, JSON
//! and provenance code. The library's crate doc says what each command
//! regenerates.

use mgs_bench::cli::Options;

mod cmd {
    pub mod ablation;
    pub mod adaptive;
    pub mod chaos;
    pub mod paper;
    pub mod profile;
    pub mod scenario;
    pub mod table3;
}

type Run = fn(&Options);

/// Every command: name, entry point, and the flags it reads from
/// `Options::args` itself (a flag's value is not `--`-prefixed, so the
/// table needs no arity).
const COMMANDS: [(&str, Run, &[&str]); 7] = [
    ("table3", cmd::table3::run, &[]),
    ("paper", cmd::paper::run, &[]),
    ("ablation", cmd::ablation::run, &[]),
    ("chaos", cmd::chaos::run, &[]),
    ("scenario", cmd::scenario::run, &["--smoke"]),
    ("adaptive", cmd::adaptive::run, &["--smoke"]),
    (
        "profile",
        cmd::profile::run,
        &["--c", "--top", "--no-trace", "--workers", "--smoke"],
    ),
];

/// Prints `problem`, the usage line and the command table on stderr and
/// exits with status 2.
fn usage_error(problem: &str) -> ! {
    let names: Vec<&str> = COMMANDS.iter().map(|(n, ..)| *n).collect();
    eprintln!(
        "mgs-bench: {problem}\n\
         usage: mgs-bench <command> [--p N] [--scale N | --quick] [--jobs N] \
         [--protocol eager|lrc|adaptive] [command flags]\n\
         commands: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut opts = Options::parse();
    // The first positional is the command; the rest are the command's.
    let name = (!opts.args.is_empty()).then(|| opts.args.remove(0));
    let Some((name, run, flags)) = COMMANDS.iter().find(|(n, ..)| Some(*n) == name.as_deref())
    else {
        usage_error(&format!("unknown command {name:?}"));
    };
    // A flag nobody consumes is a mistake (`--job 4`, a retired flag),
    // not a positional.
    if let Some(flag) = opts
        .args
        .iter()
        .find(|a| a.starts_with("--") && !flags.contains(&a.as_str()))
    {
        usage_error(&format!("unknown flag {flag:?} for {name}"));
    }
    run(&opts);
}
