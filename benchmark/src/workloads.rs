//! The five workloads: fixed lists of (application, size, P, C) points.
//!
//! `--seed` is the only input: it derives the `seed` field of every
//! seeded application (MatMul, TSP, Water, Barnes-Hut; Jacobi has
//! none). Sizes were timed on a 2-core container and are frozen; see
//! `README.md` for why each workload exists and how its sizes relate to
//! the paper's.

use mgs_repro::apps::{
    barnes::BarnesHut, jacobi::Jacobi, matmul::MatMul, tsp::Tsp, water::Water, MgsApp,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Jacobi,
    MatMul,
    Tsp,
    Water,
    Barnes,
}

impl App {
    pub const ALL: [App; 5] = [App::Jacobi, App::MatMul, App::Tsp, App::Water, App::Barnes];

    pub fn name(self) -> &'static str {
        match self {
            App::Jacobi => "jacobi",
            App::MatMul => "matmul",
            App::Tsp => "tsp",
            App::Water => "water",
            App::Barnes => "barnes",
        }
    }

    /// The application at problem size `size` (grid or matrix edge,
    /// cities, molecules, bodies); iteration counts and per-operation
    /// cycle charges are the paper's.
    pub fn build(self, size: usize, seed: u64) -> Box<dyn MgsApp> {
        // Each application gets its own stream of the benchmark seed.
        let seed = splitmix64(seed ^ (self as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match self {
            App::Jacobi => Box::new(Jacobi {
                n: size,
                ..Jacobi::paper()
            }),
            App::MatMul => Box::new(MatMul {
                n: size,
                seed,
                ..MatMul::paper()
            }),
            App::Tsp => Box::new(Tsp {
                n: size,
                seed: TSP_INSTANCES[(seed % TSP_INSTANCES.len() as u64) as usize],
                ..Tsp::paper()
            }),
            App::Water => Box::new(Water {
                n: size,
                seed,
                ..Water::paper()
            }),
            App::Barnes => Box::new(BarnesHut {
                n: size,
                seed,
                ..BarnesHut::paper()
            }),
        }
    }
}

/// TSP distance-matrix seeds of matched difficulty.
///
/// Branch-and-bound work is heavy-tailed in the instance: over 300
/// random 7-city matrices the simulated time of the six-point sweep
/// ran from 8 to 191 Mcycles (median 68), which would make every
/// total of `paper_sweep_p32` a function of the seed. These sixteen
/// are the instances nearest the median (65 to 70 Mcycles under the
/// deterministic one-worker virtual engine); `--seed` picks among them,
/// so the instance still varies with the seed and the work does not.
/// They were screened at 7 cities and are not matched at other sizes.
const TSP_INSTANCES: [u64; 16] = [
    0x919c_1cd6_efb1_3b56,
    0xd3d3_080e_af28_353c,
    0x6df6_f754_9e86_4d9f,
    0x5115_b1dc_a93f_f620,
    0x5104_a182_9f79_f0d9,
    0x3400_b2cd_38ca_b713,
    0x2c7c_f589_de6d_7757,
    0xc748_7403_523b_a099,
    0xeb23_e857_ad57_879f,
    0xdd93_1d21_13ec_0575,
    0x6a7a_993a_283e_076c,
    0x4de5_b7db_3164_5540,
    0x591d_fa7a_e5cd_65ec,
    0x3384_db75_3d82_f982,
    0x6af2_1e2d_7e30_24f9,
    0x4934_be53_abcb_e001,
];

/// One step of the SplitMix64 generator: spreads nearby seeds apart.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One simulated run: a fresh machine of `p` processors in clusters of
/// `c`, running `app` at `size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    pub app: App,
    pub size: usize,
    pub p: usize,
    pub c: usize,
}

impl Point {
    /// The name a hang or a failure is reported under.
    pub fn id(&self) -> String {
        format!("{}-{}-p{}-c{}", self.app.name(), self.size, self.p, self.c)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The default configuration: one OS thread per simulated
    /// processor, paced by the epoch governor.
    Threaded,
    /// The virtual-processor engine with a fixed worker budget.
    Virtual { workers: usize },
}

impl Engine {
    pub fn label(self) -> &'static str {
        match self {
            Engine::Threaded => "threaded",
            Engine::Virtual { .. } => "virtual",
        }
    }

    pub fn workers(self) -> usize {
        match self {
            Engine::Threaded => 0,
            Engine::Virtual { workers } => workers,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    pub engine: Engine,
    pub points: Vec<Point>,
}

pub const NAMES: [&str; 5] = [
    "paper_sweep_p32",
    "finegrain_c32",
    "pagegrain_migratory",
    "pagegrain_readshare",
    "scale_large_p",
];

const VIRTUAL_W2: Engine = Engine::Virtual { workers: 2 };

fn points(app: App, size: usize, p: usize, cs: &[usize]) -> impl Iterator<Item = Point> + '_ {
    cs.iter().map(move |&c| Point { app, size, p, c })
}

/// The workload called `name`, at full or smoke size. `None` for an
/// unknown name.
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    use App::*;
    // Smoke runs use each application's unit-test size.
    let size = |app: App, full: usize| {
        if !smoke {
            return full;
        }
        match app {
            Jacobi => 32,
            MatMul => 24,
            Tsp => 7,
            Water => 24,
            Barnes => 48,
        }
    };
    let w = match name {
        "paper_sweep_p32" => Workload {
            name: "paper_sweep_p32",
            why: "the paper's method: five apps x C=1..32 at P=32, default threaded engine; every layer takes part",
            engine: Engine::Threaded,
            points: [
                (Jacobi, 96),
                (MatMul, 32),
                (Tsp, 7),
                (Water, 36),
                (Barnes, 96),
            ]
            .into_iter()
            .flat_map(|(app, full)| points(app, size(app, full), 32, &[1, 2, 4, 8, 16, 32]))
            .collect(),
        },
        "finegrain_c32" => Workload {
            name: "finegrain_c32",
            why: "C=P=32, MGS calls null: Env path, cache directory and cycle accounting do the work; proto/net none",
            engine: VIRTUAL_W2,
            points: [(Jacobi, 256), (MatMul, 96), (Water, 96), (Barnes, 768)]
                .into_iter()
                .flat_map(|(app, full)| points(app, size(app, full), 32, &[32]))
                .collect(),
        },
        "pagegrain_migratory" => Workload {
            name: "pagegrain_migratory",
            why: "Water at C=1,2,4: lock-protected migratory writes drive upgrades, twins, diffs and releases",
            engine: VIRTUAL_W2,
            points: points(Water, size(Water, 125), 32, &[1, 2, 4]).collect(),
        },
        "pagegrain_readshare" => Workload {
            name: "pagegrain_readshare",
            why: "Barnes-Hut and Jacobi at C=1,2: read faults, page fills, invalidation fan-out, almost no diffs",
            engine: VIRTUAL_W2,
            points: points(Barnes, size(Barnes, 768), 32, &[1, 2])
                .chain(points(Jacobi, size(Jacobi, 256), 32, &[1, 2]))
                .collect(),
        },
        "scale_large_p" => {
            let (mid, big) = if smoke { (64, 128) } else { (512, 2048) };
            Workload {
                name: "scale_large_p",
                why: "P=512 and P=2048 at C=32: the virtual scheduler, task stacks and spawn/join carry the cost",
                engine: VIRTUAL_W2,
                points: vec![
                    Point { app: Jacobi, size: size(Jacobi, 256), p: mid, c: 32 },
                    Point { app: Water, size: size(Water, 96), p: mid, c: 32 },
                    Point { app: Jacobi, size: size(Jacobi, 128), p: big, c: 32 },
                ],
                }
        }
        _ => return None,
    };
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_exists_at_both_sizes() {
        for name in NAMES {
            for smoke in [false, true] {
                let w = workload(name, smoke).expect(name);
                assert_eq!(w.name, name);
                assert!(!w.points.is_empty());
                assert!(w.why.len() <= 200 && !w.why.contains('\n'));
                for pt in &w.points {
                    assert_eq!(pt.p % pt.c, 0, "{}", pt.id());
                }
            }
        }
        assert!(workload("nope", false).is_none());
    }

    #[test]
    fn paper_sweep_is_five_apps_by_six_cluster_sizes() {
        let w = workload("paper_sweep_p32", false).unwrap();
        assert_eq!(w.points.len(), 30);
        assert_eq!(w.engine, Engine::Threaded);
        for app in App::ALL {
            let cs: Vec<usize> = w
                .points
                .iter()
                .filter(|p| p.app == app)
                .map(|p| p.c)
                .collect();
            assert_eq!(cs, [1, 2, 4, 8, 16, 32], "{}", app.name());
        }
    }

    #[test]
    fn finegrain_points_are_tightly_coupled() {
        let w = workload("finegrain_c32", false).unwrap();
        assert!(w.points.iter().all(|p| p.c == p.p));
    }

    #[test]
    fn point_ids_are_unique_within_a_workload() {
        for name in NAMES {
            let w = workload(name, false).unwrap();
            let mut ids: Vec<String> = w.points.iter().map(Point::id).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), w.points.len(), "{name}");
        }
    }

    #[test]
    fn seeds_reach_the_applications_and_differ_per_app() {
        assert_ne!(splitmix64(1), splitmix64(2));
        // Same seed, same inputs; the builder is pure.
        let a = App::Water.build(24, 7);
        let b = App::Water.build(24, 7);
        assert_eq!(a.name(), b.name());
    }
}
