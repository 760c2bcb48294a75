//! Minimal command-line parsing for the harness commands.

use mgs_core::ProtocolKind;

/// Common options shared by the harness commands.
#[derive(Debug, Clone)]
pub struct Options {
    /// Total processor count `P` (default 32, as in the paper).
    pub p: usize,
    /// Problem-size divisor: 1 = the paper's sizes; larger values
    /// shrink the workloads for quick runs.
    pub scale: usize,
    /// How many sweep points run at once (`--jobs`); `None` = the
    /// host's available parallelism. A point is one single-worker
    /// machine on one host thread (see [`crate::parallel`]), so the
    /// value changes how long a command takes, never what it prints.
    pub jobs: Option<usize>,
    /// Coherence strategy the sweeps run under (`--protocol
    /// {eager,lrc,adaptive}`; default eager — the paper's protocol).
    pub protocol: ProtocolKind,
    /// Positional arguments (e.g. an application name; `main` takes
    /// the first one as the command). Flags this parser does not know
    /// (`--smoke`, `--json`, `--c 4`, …) land here too, for the command
    /// to read; `main` rejects the ones its command does not declare.
    pub args: Vec<String>,
}

impl Options {
    /// Parses the common flags and positionals from `std::env`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse() -> Options {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Options {
        let mut opts = Options {
            p: 32,
            scale: 1,
            jobs: None,
            protocol: ProtocolKind::Eager,
            args: Vec::new(),
        };
        let mut it = iter.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--p" => {
                    opts.p = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--p needs an integer");
                }
                "--scale" => {
                    opts.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale needs an integer");
                }
                "--quick" => opts.scale = 8,
                "--jobs" => {
                    opts.jobs = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--jobs needs an integer"),
                    );
                }
                "--protocol" => {
                    opts.protocol = it
                        .next()
                        .as_deref()
                        .and_then(ProtocolKind::parse)
                        .expect("--protocol needs one of: eager, lrc, adaptive");
                }
                other => opts.args.push(other.to_string()),
            }
        }
        assert!(opts.p.is_power_of_two(), "--p must be a power of two");
        assert!(opts.scale >= 1, "--scale must be >= 1");
        assert!(opts.jobs != Some(0), "--jobs must be >= 1");
        opts
    }

    /// Scales a linear dimension down (at least `min`).
    pub fn dim(&self, full: usize, min: usize) -> usize {
        (full / self.scale).max(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Options {
        Options::parse_from(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert_eq!(o.p, 32);
        assert_eq!(o.scale, 1);
        assert!(o.args.is_empty());
    }

    #[test]
    fn flags_and_positionals() {
        let o = parse(&["--p", "8", "water", "--scale", "4"]);
        assert_eq!(o.p, 8);
        assert_eq!(o.scale, 4);
        assert_eq!(o.args, vec!["water"]);
    }

    #[test]
    fn quick_sets_scale() {
        assert_eq!(parse(&["--quick"]).scale, 8);
    }

    #[test]
    fn protocol_parses_all_strategies() {
        assert_eq!(parse(&[]).protocol, ProtocolKind::Eager);
        assert_eq!(
            parse(&["--protocol", "eager"]).protocol,
            ProtocolKind::Eager
        );
        assert_eq!(
            parse(&["--protocol", "lrc"]).protocol,
            ProtocolKind::HomeLrc
        );
        assert_eq!(
            parse(&["--protocol", "adaptive"]).protocol,
            ProtocolKind::Adaptive
        );
    }

    #[test]
    #[should_panic(expected = "eager, lrc, adaptive")]
    fn rejects_unknown_protocol() {
        parse(&["--protocol", "msi"]);
    }

    #[test]
    fn dim_scales_with_floor() {
        let o = parse(&["--scale", "8"]);
        assert_eq!(o.dim(1024, 64), 128);
        assert_eq!(o.dim(100, 64), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_p() {
        parse(&["--p", "12"]);
    }
}
