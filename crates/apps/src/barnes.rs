//! Barnes-Hut: hierarchical 3-D N-body (§5.2, Figure 10; SPLASH).
//!
//! Each iteration builds an octree over the bodies **in parallel** with
//! fine-grain locking (hand-over-hand per-cell locks), computes cell
//! centers of mass, then computes forces by tree traversal with an
//! opening criterion, and integrates. As in the paper, cell allocation
//! is distributed — each processor allocates tree cells from its own
//! pool — the modification made to relieve contention on a centralized
//! allocation lock (the change the paper borrows from SPLASH-2).
//!
//! The parallel tree-build phase performs many small lock-protected
//! critical sections with shared-page writes inside, which is exactly
//! where the paper observes critical-section dilation under software
//! coherence.

use crate::common::{assert_close, block_range, read3, write3, REC_WORDS};
use crate::MgsApp;
use mgs_core::{AccessKind, Env, Machine, MgsLock, RunReport, SharedArray};
use mgs_sim::XorShift64;
use std::sync::Arc;

// Body records are `REC_WORDS` long.
const B_POS: u64 = 0; // x, y, z
const B_VEL: u64 = 3;
const B_ACC: u64 = 6;
const B_MASS: u64 = 9;

/// Words per tree cell: 8 child slots + center of mass + mass.
const CELL_WORDS: u64 = 16;
const C_CHILD: u64 = 0; // 8 words
const C_COM: u64 = 8; // x, y, z
const C_MASS: u64 = 11;

/// Child-slot encoding.
const EMPTY: u64 = 0;
const TAG_BODY: u64 = 1 << 62;
const TAG_CELL: u64 = 2 << 62;
const TAG_MASK: u64 = 3 << 62;

/// Opening criterion θ: a cell is treated as a point mass when
/// `side / dist < THETA`.
const THETA: f64 = 0.7;
const DT: f64 = 0.01;
const SOFT: f64 = 0.05;
/// Maximum tree depth (bodies are jittered, so this is ample).
const MAX_DEPTH: usize = 48;

/// The Barnes-Hut application.
#[derive(Debug, Clone)]
pub struct BarnesHut {
    /// Number of bodies (the paper uses 2048).
    pub n: usize,
    /// Iterations (the paper uses 3).
    pub iters: usize,
    /// Workload seed.
    pub seed: u64,
    /// Cycles per body–node interaction.
    pub interact_cycles: u64,
}

impl BarnesHut {
    /// The paper's problem size: 2K bodies, 3 iterations.
    pub fn paper() -> BarnesHut {
        BarnesHut {
            n: 2048,
            iters: 3,
            seed: 0xB4,
            interact_cycles: 1_000,
        }
    }

    /// A size suitable for unit tests.
    pub fn small() -> BarnesHut {
        BarnesHut {
            n: 48,
            iters: 2,
            seed: 0xB4,
            interact_cycles: 1_000,
        }
    }

    /// Universe edge length: bodies always stay inside `[0, side)³`
    /// (positions are clamped after integration).
    fn side(&self) -> f64 {
        64.0
    }

    fn initial(&self) -> Vec<([f64; 3], [f64; 3], f64)> {
        let mut rng = XorShift64::new(self.seed);
        let s = self.side();
        (0..self.n)
            .map(|_| {
                let p = [
                    rng.next_range_f64(0.25 * s, 0.75 * s),
                    rng.next_range_f64(0.25 * s, 0.75 * s),
                    rng.next_range_f64(0.25 * s, 0.75 * s),
                ];
                let v = [
                    rng.next_range_f64(-0.2, 0.2),
                    rng.next_range_f64(-0.2, 0.2),
                    rng.next_range_f64(-0.2, 0.2),
                ];
                (p, v, 1.0 + rng.next_f64())
            })
            .collect()
    }

    /// Cells available per processor pool.
    fn pool_size(&self, nprocs: usize) -> usize {
        4 * self.n / nprocs + 64
    }

    /// Plain-Rust reference: the same algorithm, sequential. The octree
    /// shape is insertion-order independent, so the reference matches
    /// the parallel run to floating-point accumulation order — which is
    /// also identical here, because each body's force traversal is
    /// deterministic.
    fn reference(&self) -> Vec<([f64; 3], [f64; 3])> {
        let mut bodies = self.initial();
        let s = self.side();
        for _ in 0..self.iters {
            let tree = RefTree::build(&bodies, s);
            let acc: Vec<[f64; 3]> = bodies.iter().map(|&(p, _, _)| tree.force(p, s)).collect();
            for (i, b) in bodies.iter_mut().enumerate() {
                for k in 0..3 {
                    b.1[k] += DT * acc[i][k];
                    b.0[k] = (b.0[k] + DT * b.1[k]).clamp(0.0, s - 1e-9);
                }
            }
        }
        bodies.into_iter().map(|(p, v, _)| (p, v)).collect()
    }
}

// ---------------------------------------------------------------------
// Reference (plain Rust) octree
// ---------------------------------------------------------------------

#[derive(Default)]
enum RefNode {
    #[default]
    Empty,
    Body(usize),
    Cell(Box<RefCell2>),
}

struct RefCell2 {
    children: [RefNode; 8],
    com: [f64; 3],
    mass: f64,
}

struct RefTree {
    root: RefCell2,
    bodies: Vec<([f64; 3], f64)>,
}

fn octant(p: [f64; 3], center: [f64; 3]) -> usize {
    usize::from(p[0] >= center[0])
        | usize::from(p[1] >= center[1]) << 1
        | usize::from(p[2] >= center[2]) << 2
}

fn child_center(center: [f64; 3], half: f64, oct: usize) -> [f64; 3] {
    let q = half / 2.0;
    [
        center[0] + if oct & 1 != 0 { q } else { -q },
        center[1] + if oct & 2 != 0 { q } else { -q },
        center[2] + if oct & 4 != 0 { q } else { -q },
    ]
}

impl RefTree {
    fn build(bodies: &[([f64; 3], [f64; 3], f64)], side: f64) -> RefTree {
        let mut root = RefCell2 {
            children: Default::default(),
            com: [0.0; 3],
            mass: 0.0,
        };
        let data: Vec<_> = bodies.iter().map(|&(p, _, m)| (p, m)).collect();
        let center = [side / 2.0; 3];
        for (i, &(p, _)) in data.iter().enumerate() {
            Self::insert(&mut root, i, p, center, side / 2.0, &data, 0);
        }
        let mut tree = RefTree { root, bodies: data };
        let root = std::mem::replace(
            &mut tree.root,
            RefCell2 {
                children: Default::default(),
                com: [0.0; 3],
                mass: 0.0,
            },
        );
        tree.root = root;
        Self::summarize(&mut tree.root, &tree.bodies);
        tree
    }

    fn insert(
        cell: &mut RefCell2,
        idx: usize,
        p: [f64; 3],
        center: [f64; 3],
        half: f64,
        data: &[([f64; 3], f64)],
        depth: usize,
    ) {
        assert!(depth < MAX_DEPTH, "tree too deep (coincident bodies?)");
        let oct = octant(p, center);
        match std::mem::replace(&mut cell.children[oct], RefNode::Empty) {
            RefNode::Empty => cell.children[oct] = RefNode::Body(idx),
            RefNode::Body(other) => {
                let mut sub = Box::new(RefCell2 {
                    children: Default::default(),
                    com: [0.0; 3],
                    mass: 0.0,
                });
                let cc = child_center(center, half, oct);
                let o2 = octant(data[other].0, cc);
                sub.children[o2] = RefNode::Body(other);
                Self::insert(&mut sub, idx, p, cc, half / 2.0, data, depth + 1);
                cell.children[oct] = RefNode::Cell(sub);
            }
            RefNode::Cell(mut sub) => {
                let cc = child_center(center, half, oct);
                Self::insert(&mut sub, idx, p, cc, half / 2.0, data, depth + 1);
                cell.children[oct] = RefNode::Cell(sub);
            }
        }
    }

    fn summarize(cell: &mut RefCell2, data: &[([f64; 3], f64)]) {
        let mut mass = 0.0;
        let mut com = [0.0; 3];
        for child in cell.children.iter_mut() {
            match child {
                RefNode::Empty => {}
                RefNode::Body(i) => {
                    let (p, m) = data[*i];
                    mass += m;
                    for k in 0..3 {
                        com[k] += m * p[k];
                    }
                }
                RefNode::Cell(sub) => {
                    Self::summarize(sub, data);
                    mass += sub.mass;
                    for k in 0..3 {
                        com[k] += sub.mass * sub.com[k];
                    }
                }
            }
        }
        cell.mass = mass;
        if mass > 0.0 {
            for k in com.iter_mut() {
                *k /= mass;
            }
        }
        cell.com = com;
    }

    fn force(&self, p: [f64; 3], side: f64) -> [f64; 3] {
        let mut acc = [0.0; 3];
        self.force_from(&self.root, p, side, &mut acc);
        acc
    }

    fn force_from(&self, cell: &RefCell2, p: [f64; 3], side: f64, acc: &mut [f64; 3]) {
        for child in &cell.children {
            match child {
                RefNode::Empty => {}
                RefNode::Body(i) => {
                    let (q, m) = self.bodies[*i];
                    accumulate(p, q, m, acc);
                }
                RefNode::Cell(sub) => {
                    if opens(p, sub.com, side / 2.0) {
                        self.force_from(sub, p, side / 2.0, acc);
                    } else {
                        accumulate(p, sub.com, sub.mass, acc);
                    }
                }
            }
        }
    }
}

/// `true` when the cell must be opened (too close for its size).
fn opens(p: [f64; 3], com: [f64; 3], side: f64) -> bool {
    let d = [p[0] - com[0], p[1] - com[1], p[2] - com[2]];
    let dist2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    side * side > THETA * THETA * dist2
}

/// Gravitational-style softened acceleration contribution from a point
/// mass at `q` on a body at `p`. A body never attracts itself: the
/// contribution of a coincident point is zero.
fn accumulate(p: [f64; 3], q: [f64; 3], m: f64, acc: &mut [f64; 3]) {
    let d = [q[0] - p[0], q[1] - p[1], q[2] - p[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    if r2 == 0.0 {
        return;
    }
    let r2s = r2 + SOFT;
    let inv = m / (r2s * r2s.sqrt());
    for k in 0..3 {
        acc[k] += d[k] * inv;
    }
}

// ---------------------------------------------------------------------
// Simulated (shared memory) implementation
// ---------------------------------------------------------------------

struct TreeShared {
    bodies: SharedArray<f64>,
    cells: SharedArray<f64>,
    cell_locks: Vec<Arc<MgsLock>>,
}

impl BarnesHut {
    #[allow(clippy::too_many_arguments)]
    fn body_fn(&self, env: &mut Env, sh: &TreeShared) {
        let n = self.n;
        let nprocs = env.nprocs();
        let (lo, hi) = block_range(n, nprocs, env.pid());
        let pool = self.pool_size(nprocs);
        let side = self.side();
        env.barrier();
        env.start_measurement();
        for _ in 0..self.iters {
            // Phase 1: proc 0 resets the root cell; pools reset locally.
            let mut next_cell = 1 + env.pid() * pool; // cell 0 is the root
            let pool_end = 1 + (env.pid() + 1) * pool;
            if env.pid() == 0 {
                for c in 0..8 {
                    sh.cells.write(env, C_CHILD + c, f64::from_bits(EMPTY));
                }
            }
            env.barrier();

            // Phase 2: parallel tree build with hand-over-hand locks.
            for b in lo..hi {
                self.insert_body(env, sh, b as u64, &mut next_cell, pool_end, side);
            }
            env.barrier();

            // Phase 3: proc 0 summarizes centers of mass.
            if env.pid() == 0 {
                self.summarize(env, sh, 0);
            }
            env.barrier();

            // Phase 4: force computation by tree traversal.
            for b in lo..hi {
                let p = read3(env, sh.bodies, b as u64, B_POS);
                let mut acc = [0.0; 3];
                self.force_walk(env, sh, 0, p, side, &mut acc);
                write3(env, sh.bodies, b as u64, B_ACC, acc);
            }
            env.barrier();

            // Phase 5: integrate.
            for b in lo..hi {
                let a = read3(env, sh.bodies, b as u64, B_ACC);
                let mut v = read3(env, sh.bodies, b as u64, B_VEL);
                let mut p = read3(env, sh.bodies, b as u64, B_POS);
                for k in 0..3 {
                    v[k] += DT * a[k];
                    p[k] = (p[k] + DT * v[k]).clamp(0.0, side - 1e-9);
                }
                env.compute(80);
                write3(env, sh.bodies, b as u64, B_VEL, v);
                write3(env, sh.bodies, b as u64, B_POS, p);
            }
            env.barrier();
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_body(
        &self,
        env: &mut Env,
        sh: &TreeShared,
        b: u64,
        next_cell: &mut usize,
        pool_end: usize,
        side: f64,
    ) {
        let p = read3(env, sh.bodies, b, B_POS);
        let mut cur = 0u64; // root
        let mut center = [side / 2.0; 3];
        let mut half = side / 2.0;
        for _depth in 0..MAX_DEPTH {
            env.acquire(&sh.cell_locks[cur as usize]);
            let oct = octant(p, center) as u64;
            let slot = cur * CELL_WORDS + C_CHILD + oct;
            let child = sh.cells.read(env, slot).to_bits();
            match child & TAG_MASK {
                0 if child == EMPTY => {
                    sh.cells.write(env, slot, f64::from_bits(TAG_BODY | b));
                    env.release(&sh.cell_locks[cur as usize]);
                    return;
                }
                TAG_BODY => {
                    // Split: allocate a cell from this processor's pool.
                    let other = child & !TAG_MASK;
                    assert!(*next_cell < pool_end, "cell pool exhausted");
                    let nc = *next_cell as u64;
                    *next_cell += 1;
                    for c in 0..8 {
                        sh.cells
                            .write(env, nc * CELL_WORDS + C_CHILD + c, f64::from_bits(EMPTY));
                    }
                    let cc = child_center(center, half, oct as usize);
                    let op = read3(env, sh.bodies, other, B_POS);
                    let o2 = octant(op, cc) as u64;
                    sh.cells.write(
                        env,
                        nc * CELL_WORDS + C_CHILD + o2,
                        f64::from_bits(TAG_BODY | other),
                    );
                    sh.cells.write(env, slot, f64::from_bits(TAG_CELL | nc));
                    env.release(&sh.cell_locks[cur as usize]);
                    center = cc;
                    half /= 2.0;
                    cur = nc;
                }
                TAG_CELL => {
                    env.release(&sh.cell_locks[cur as usize]);
                    center = child_center(center, half, oct as usize);
                    half /= 2.0;
                    cur = child & !TAG_MASK;
                }
                _ => unreachable!("corrupt child slot {child:#x}"),
            }
        }
        panic!("tree too deep (coincident bodies?)");
    }

    /// Sequential center-of-mass pass (proc 0).
    fn summarize(&self, env: &mut Env, sh: &TreeShared, cell: u64) -> (f64, [f64; 3]) {
        let mut mass = 0.0;
        let mut com = [0.0; 3];
        for c in 0..8 {
            let child = sh
                .cells
                .read(env, cell * CELL_WORDS + C_CHILD + c)
                .to_bits();
            let (m, q) = match child & TAG_MASK {
                0 => continue,
                TAG_BODY => {
                    let b = child & !TAG_MASK;
                    let q = read3(env, sh.bodies, b, B_POS);
                    (sh.bodies.read(env, b * REC_WORDS + B_MASS), q)
                }
                TAG_CELL => self.summarize(env, sh, child & !TAG_MASK),
                _ => unreachable!(),
            };
            mass += m;
            for k in 0..3 {
                com[k] += m * q[k];
            }
            env.compute(20);
        }
        if mass > 0.0 {
            for k in com.iter_mut() {
                *k /= mass;
            }
        }
        sh.cells.write(env, cell * CELL_WORDS + C_MASS, mass);
        for k in 0..3 {
            sh.cells
                .write(env, cell * CELL_WORDS + C_COM + k as u64, com[k]);
        }
        (mass, com)
    }

    fn force_walk(
        &self,
        env: &mut Env,
        sh: &TreeShared,
        cell: u64,
        p: [f64; 3],
        side: f64,
        acc: &mut [f64; 3],
    ) {
        for c in 0..8 {
            let child = sh
                .cells
                .read(env, cell * CELL_WORDS + C_CHILD + c)
                .to_bits();
            match child & TAG_MASK {
                0 => {}
                TAG_BODY => {
                    let b = child & !TAG_MASK;
                    let q = read3(env, sh.bodies, b, B_POS);
                    let m = sh.bodies.read(env, b * REC_WORDS + B_MASS);
                    env.compute(self.interact_cycles);
                    accumulate(p, q, m, acc);
                }
                TAG_CELL => {
                    let sub = child & !TAG_MASK;
                    let com = [
                        sh.cells.read(env, sub * CELL_WORDS + C_COM),
                        sh.cells.read(env, sub * CELL_WORDS + C_COM + 1),
                        sh.cells.read(env, sub * CELL_WORDS + C_COM + 2),
                    ];
                    if opens(p, com, side / 2.0) {
                        self.force_walk(env, sh, sub, p, side / 2.0, acc);
                    } else {
                        let m = sh.cells.read(env, sub * CELL_WORDS + C_MASS);
                        env.compute(self.interact_cycles);
                        accumulate(p, com, m, acc);
                    }
                }
                _ => unreachable!(),
            }
        }
    }
}

impl MgsApp for BarnesHut {
    fn name(&self) -> &'static str {
        "barnes-hut"
    }

    fn execute(&self, machine: &Arc<Machine>) -> RunReport {
        let n = self.n;
        let nprocs = machine.config().n_procs;
        let n_cells = 1 + nprocs * self.pool_size(nprocs);
        let bodies = machine.alloc_array_blocked::<f64>(n as u64 * REC_WORDS, AccessKind::Pointer);
        // Cells are homed with their allocating processor's pool (the
        // distributed-allocation modification of §5.2).
        let pool = self.pool_size(nprocs) as u64;
        let geom = machine.config().geometry;
        let cells_per_page = (geom.words_per_page() / CELL_WORDS).max(1);
        let cells = machine.alloc_array_homed::<f64>(
            n_cells as u64 * CELL_WORDS,
            AccessKind::Pointer,
            |page| {
                let cell = page * cells_per_page;
                (cell.saturating_sub(1) / pool).min(nprocs as u64 - 1) as usize
            },
        );
        for (i, (p, v, m)) in self.initial().into_iter().enumerate() {
            for k in 0..3 {
                machine.poke(&bodies, i as u64 * REC_WORDS + B_POS + k as u64, p[k]);
                machine.poke(&bodies, i as u64 * REC_WORDS + B_VEL + k as u64, v[k]);
            }
            machine.poke(&bodies, i as u64 * REC_WORDS + B_MASS, m);
        }
        let sh = TreeShared {
            bodies,
            cells,
            cell_locks: (0..n_cells).map(|_| machine.new_lock()).collect(),
        };
        let report = machine.run(|env| self.body_fn(env, &sh));

        // Verify final positions/velocities against the reference.
        for (i, (p, v)) in self.reference().into_iter().enumerate() {
            for k in 0..3 {
                let gp = machine.peek(&sh.bodies, i as u64 * REC_WORDS + B_POS + k as u64);
                let gv = machine.peek(&sh.bodies, i as u64 * REC_WORDS + B_VEL + k as u64);
                assert_close(&format!("body {i} pos[{k}]"), gp, p[k], 1e-9);
                assert_close(&format!("body {i} vel[{k}]"), gv, v[k], 1e-9);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgs_core::DssmpConfig;

    fn quiet(p: usize, c: usize) -> DssmpConfig {
        let mut cfg = DssmpConfig::new(p, c);
        cfg.governor_window = None;
        cfg
    }

    #[test]
    fn octant_partitions_space() {
        let c = [1.0, 1.0, 1.0];
        assert_eq!(octant([0.5, 0.5, 0.5], c), 0);
        assert_eq!(octant([1.5, 0.5, 0.5], c), 1);
        assert_eq!(octant([0.5, 1.5, 0.5], c), 2);
        assert_eq!(octant([1.5, 1.5, 1.5], c), 7);
    }

    #[test]
    fn child_center_moves_toward_octant() {
        let cc = child_center([4.0, 4.0, 4.0], 4.0, 7);
        assert_eq!(cc, [6.0, 6.0, 6.0]);
        let cc = child_center([4.0, 4.0, 4.0], 4.0, 0);
        assert_eq!(cc, [2.0, 2.0, 2.0]);
    }

    #[test]
    fn reference_conserves_body_count_and_moves() {
        let bh = BarnesHut::small();
        let r = bh.reference();
        assert_eq!(r.len(), bh.n);
        let init = bh.initial();
        assert!(r
            .iter()
            .zip(&init)
            .any(|(after, before)| after.0 != before.0));
    }

    #[test]
    fn verifies_on_tightly_coupled_machine() {
        BarnesHut::small().execute(&Machine::new(quiet(4, 4)));
    }

    #[test]
    fn verifies_on_clustered_machine() {
        BarnesHut::small().execute(&Machine::new(quiet(4, 2)));
    }

    #[test]
    fn verifies_with_uniprocessor_nodes() {
        BarnesHut::small().execute(&Machine::new(quiet(4, 1)));
    }
}
