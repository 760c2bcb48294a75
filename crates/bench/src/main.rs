//! `mgs-bench <command> [flags]` — the harness: one command per table,
//! figure and study, each a module under `cmd/` sharing the library's
//! sweep, JSON and provenance code. The library's crate doc says what
//! each command regenerates.

use mgs_bench::cli::Options;

mod cmd {
    pub mod ablation;
    pub mod adaptive;
    pub mod chaos;
    pub mod fig11;
    pub mod fig12;
    pub mod figures;
    pub mod profile;
    pub mod scaling;
    pub mod scenario;
    pub mod summary;
    pub mod table3;
    pub mod table4;
}

type Run = fn(&Options);

/// Every command: name and entry point.
const COMMANDS: [(&str, Run); 12] = [
    ("table3", cmd::table3::run),
    ("table4", cmd::table4::run),
    ("figures", cmd::figures::run),
    ("fig11", cmd::fig11::run),
    ("fig12", cmd::fig12::run),
    ("summary", cmd::summary::run),
    ("ablation", cmd::ablation::run),
    ("scaling", cmd::scaling::run),
    ("chaos", cmd::chaos::run),
    ("scenario", cmd::scenario::run),
    ("adaptive", cmd::adaptive::run),
    ("profile", cmd::profile::run),
];

fn main() {
    let mut opts = Options::parse();
    // The first positional is the command; the rest are the command's.
    let name = (!opts.args.is_empty()).then(|| opts.args.remove(0));
    match COMMANDS.iter().find(|(n, _)| Some(*n) == name.as_deref()) {
        Some((_, run)) => run(&opts),
        None => {
            let names: Vec<&str> = COMMANDS.iter().map(|(n, _)| *n).collect();
            eprintln!(
                "mgs-bench: unknown command {name:?}\n\
                 usage: mgs-bench <command> [--p N] [--scale N | --quick] [--reps N] [--jobs N] \
                 [--protocol eager|lrc|adaptive] [command flags]\n\
                 commands: {}",
                names.join(" ")
            );
            std::process::exit(2);
        }
    }
}
