//! Shared helpers for the application suite.

use mgs_core::{Env, SharedArray};

/// Words per molecule or body record of Water, the Water kernel and
/// Barnes-Hut (128 bytes: 8 records per 1 KB page).
pub(crate) const REC_WORDS: u64 = 16;

/// Softening constant of the Water pair potential.
const SOFT: f64 = 0.05;

/// Splits `n` items over `parts` workers as evenly as possible; returns
/// the half-open range of worker `part`.
///
/// # Example
///
/// ```
/// use mgs_apps::common::block_range;
///
/// assert_eq!(block_range(10, 4, 0), (0, 3));
/// assert_eq!(block_range(10, 4, 1), (3, 6));
/// assert_eq!(block_range(10, 4, 3), (8, 10));
/// ```
pub fn block_range(n: usize, parts: usize, part: usize) -> (usize, usize) {
    let base = n / parts;
    let extra = n % parts;
    let lo = part * base + part.min(extra);
    let hi = lo + base + usize::from(part < extra);
    (lo, hi.min(n))
}

/// Asserts two floats agree to a relative tolerance (absolute near
/// zero).
///
/// # Panics
///
/// Panics when they differ by more than the tolerance.
pub fn assert_close(label: &str, got: f64, want: f64, rel_tol: f64) {
    let scale = want.abs().max(1.0);
    assert!(
        (got - want).abs() <= rel_tol * scale,
        "{label}: got {got}, want {want} (rel tol {rel_tol})"
    );
}

/// Asserts that cell `i` of the shared result, `got(i)`, equals
/// `want[i]` bit for bit (`f64::to_bits`), for every cell in index
/// order: for a race-free kernel whose every cell is one fixed sequence
/// of float operations, repeated by `want`'s reference.
///
/// # Panics
///
/// Panics at the first mismatch, naming its row and column of a grid
/// `cols` cells wide.
pub(crate) fn assert_cells_exact(label: &str, cols: usize, want: &[f64], got: impl Fn(u64) -> f64) {
    for (i, &want) in want.iter().enumerate() {
        let got = got(i as u64);
        assert!(
            got.to_bits() == want.to_bits(),
            "{label}: cell ({}, {}) is {got:e}, want {want:e} bit for bit",
            i / cols,
            i % cols
        );
    }
}

/// Reads the 3-vector at word `off` of record `rec`, in word order.
pub(crate) fn read3(env: &mut Env, a: SharedArray<f64>, rec: u64, off: u64) -> [f64; 3] {
    [
        a.read(env, rec * REC_WORDS + off),
        a.read(env, rec * REC_WORDS + off + 1),
        a.read(env, rec * REC_WORDS + off + 2),
    ]
}

/// Writes `v` to the 3-vector at word `off` of record `rec`, in word
/// order.
pub(crate) fn write3(env: &mut Env, a: SharedArray<f64>, rec: u64, off: u64, v: [f64; 3]) {
    for k in 0..3 {
        a.write(env, rec * REC_WORDS + off + k as u64, v[k]);
    }
}

/// Adds `v` to the 3-vector at word `off` of record `rec`: each word
/// read then written, in word order.
pub(crate) fn add3(env: &mut Env, a: SharedArray<f64>, rec: u64, off: u64, v: [f64; 3]) {
    for k in 0..3 {
        let idx = rec * REC_WORDS + off + k as u64;
        let cur = a.read(env, idx);
        a.write(env, idx, cur + v[k]);
    }
}

/// Softened inverse-square pair force on `i` from `j` (Water and its
/// kernel), plus the pair's potential energy contribution.
pub(crate) fn pair_force(pi: [f64; 3], pj: [f64; 3]) -> ([f64; 3], f64) {
    let d = [pi[0] - pj[0], pi[1] - pj[1], pi[2] - pj[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + SOFT;
    let inv = 1.0 / r2;
    let s = inv * inv;
    ([d[0] * s, d[1] * s, d[2] * s], inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_everything_disjointly() {
        for n in [0usize, 1, 7, 10, 32, 100] {
            for parts in [1usize, 2, 3, 8] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for p in 0..parts {
                    let (lo, hi) = block_range(n, parts, p);
                    assert_eq!(lo, prev_hi, "contiguous");
                    assert!(hi >= lo);
                    covered += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn block_sizes_differ_by_at_most_one() {
        for p in 0..8 {
            let (lo, hi) = block_range(100, 8, p);
            assert!(hi - lo == 12 || hi - lo == 13);
        }
    }

    #[test]
    fn assert_close_accepts_equal() {
        assert_close("x", 1.0, 1.0, 1e-12);
        assert_close("y", 0.0, 1e-15, 1e-9);
    }

    #[test]
    #[should_panic(expected = "got")]
    fn assert_close_rejects_garbage() {
        assert_close("z", 2.0, 1.0, 1e-6);
    }
}
