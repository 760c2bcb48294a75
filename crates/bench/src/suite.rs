//! The application suite at harness scales.

use crate::cli::Options;
use mgs_apps::{
    barnes::BarnesHut, jacobi::Jacobi, matmul::MatMul, tsp::Tsp, water::Water,
    water_kernel::WaterKernel, MgsApp,
};
use mgs_core::DssmpConfig;

/// Paper-reported framework numbers for comparison in harness output.
#[derive(Debug, Clone, Copy)]
pub struct PaperNumbers {
    /// Breakup penalty (fraction; `f64::NAN` when the paper gives none).
    pub breakup: f64,
    /// Multigrain potential (fraction).
    pub potential: f64,
    /// Curvature: "convex", "concave" or "flat".
    pub curvature: &'static str,
}

/// Instantiates the suite at the scale requested on the command line.
/// Returns `(app, paper_numbers)` pairs in the paper's figure order.
pub fn suite(opts: &Options) -> Vec<(Box<dyn MgsApp>, PaperNumbers)> {
    let s = opts;
    vec![
        (
            Box::new(Jacobi {
                n: s.dim(1024, 64),
                ..Jacobi::paper()
            }) as Box<dyn MgsApp>,
            PaperNumbers {
                breakup: 0.16,
                potential: 0.0,
                curvature: "flat",
            },
        ),
        (
            Box::new(MatMul {
                n: s.dim(256, 32),
                ..MatMul::paper()
            }),
            PaperNumbers {
                breakup: 0.0,
                potential: 0.0,
                curvature: "flat",
            },
        ),
        (
            Box::new(Tsp {
                n: if s.scale > 1 { 8 } else { 10 },
                ..Tsp::paper()
            }),
            PaperNumbers {
                breakup: 22.7,
                potential: 0.49,
                curvature: "concave",
            },
        ),
        (
            Box::new(Water {
                n: s.dim(343, 48),
                ..Water::paper()
            }),
            PaperNumbers {
                breakup: 3.22,
                potential: 0.67,
                curvature: "convex",
            },
        ),
        (
            Box::new(BarnesHut {
                n: s.dim(2048, 128),
                ..BarnesHut::paper()
            }),
            PaperNumbers {
                breakup: 1.61,
                potential: 0.85,
                curvature: "convex",
            },
        ),
    ]
}

/// The two Water-kernel variants at the requested scale.
pub fn kernels(opts: &Options) -> [(WaterKernel, PaperNumbers); 2] {
    let n = opts.dim(512, 64);
    [
        (
            WaterKernel {
                n,
                ..WaterKernel::paper(false)
            },
            PaperNumbers {
                breakup: 3.34,
                potential: 0.52, // Figure 12's unoptimized kernel resembles Water
                curvature: "convex",
            },
        ),
        (
            WaterKernel {
                n,
                ..WaterKernel::paper(true)
            },
            PaperNumbers {
                breakup: 0.26,
                potential: 1.07f64 / 2.07, // paper quotes 107% speedup 1 → P/2
                curvature: "convex",
            },
        ),
    ]
}

/// Base machine configuration from the command-line options: the
/// paper's defaults (1 KB pages, 1000-cycle external latency) with the
/// requested processor count and coherence strategy, on **one host
/// worker** — the only place a harness machine's pacing is decided.
/// One worker makes every simulated cycle a pure function of the
/// configuration, so a published number repeats to the byte; the
/// host's cores go to running *points* side by side
/// ([`crate::parallel`]). Wider budgets and unpaced mode are stress
/// modes for the tests, not for the harness (DESIGN.md § "Pacing").
pub fn base_config(opts: &Options) -> DssmpConfig {
    let mut cfg = DssmpConfig::new(opts.p, 1).with_protocol(opts.protocol);
    cfg.workers = Some(1);
    cfg
}

/// Looks an application up by harness name.
pub fn by_name(opts: &Options, name: &str) -> Option<Box<dyn MgsApp>> {
    match name {
        "water-kernel" => {
            return Some(Box::new(kernels(opts)[0].0.clone()));
        }
        "water-kernel-tiled" => {
            return Some(Box::new(kernels(opts)[1].0.clone()));
        }
        _ => {}
    }
    suite(opts)
        .into_iter()
        .map(|(app, _)| app)
        .find(|app| app.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(scale: usize) -> Options {
        Options {
            p: 8,
            scale,
            jobs: None,
            protocol: mgs_core::ProtocolKind::Eager,
            args: vec![],
        }
    }

    #[test]
    fn suite_has_five_applications() {
        assert_eq!(suite(&opts(1)).len(), 5);
    }

    #[test]
    fn scaling_shrinks_workloads() {
        let full = suite(&opts(1));
        let quick = suite(&opts(8));
        assert_eq!(full[0].0.name(), "jacobi");
        assert_eq!(quick[0].0.name(), "jacobi");
    }

    #[test]
    fn by_name_finds_every_app() {
        for name in [
            "jacobi",
            "matmul",
            "tsp",
            "water",
            "barnes-hut",
            "water-kernel",
            "water-kernel-tiled",
        ] {
            assert!(by_name(&opts(8), name).is_some(), "{name}");
        }
        assert!(by_name(&opts(8), "nope").is_none());
    }
}
