//! Randomized equivalence of the span diff kernel against the
//! [`PageDiff`] reference oracle (the original per-word kernel, which
//! lives here now that nothing in production computes it), plus pooling
//! invariants.
//!
//! Cases come from a seeded [`XorShift64`] stream (proptest is
//! unavailable offline); every failure message names the case seed.
//!
//! What is gated here is exactly what keeps simulated cycles
//! bit-identical across the host-side kernel swap:
//!
//! * same changed `(word, value)` set (⇒ same DIFF payload bytes and
//!   `diff_transfer_apply_cost` charge),
//! * same post-apply memory image (slice and frame),
//! * same touched-cache-line set, deduped to one mark per line,
//! * pooled buffers never leak stale words into a twin,
//! * a steady-state release cycle performs zero pool allocations.

use mgs_proto::{MgsProtocol, ProtoConfig, RecordingTiming, SpanDiff};
use mgs_sim::{Cycles, XorShift64};
use mgs_vm::{FrameAllocator, PageFrame, PageGeometry, TwinPool};
use std::collections::BTreeSet;

const CASES: u64 = 300;
const WORDS: u64 = 128;

/// A diff between a page copy and its twin: the set of words the local
/// SSMP changed since twinning.
///
/// Only changed words are propagated back to the home copy at release
/// time, which is what lets multiple SSMPs write disjoint parts of the
/// same page concurrently (false sharing costs bandwidth, not
/// correctness).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct PageDiff {
    entries: Vec<(u32, u64)>,
}

impl PageDiff {
    /// Computes the diff of `current` against `twin`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    fn compute(current: &[u64], twin: &[u64]) -> PageDiff {
        assert_eq!(current.len(), twin.len(), "page/twin size mismatch");
        PageDiff {
            entries: current
                .iter()
                .zip(twin)
                .enumerate()
                .filter(|(_, (c, t))| c != t)
                .map(|(i, (c, _))| (i as u32, *c))
                .collect(),
        }
    }

    /// Computes the diff of a live frame against its twin (the frame is
    /// snapshotted word-atomically).
    fn compute_from_frame(frame: &PageFrame, twin: &[u64]) -> PageDiff {
        PageDiff::compute(&frame.snapshot(), twin)
    }

    /// Number of changed words.
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing changed.
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The changed `(word_index, value)` pairs, in ascending index
    /// order.
    fn entries(&self) -> &[(u32, u64)] {
        &self.entries
    }

    /// Applies the diff to a plain buffer.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    fn apply_to_slice(&self, target: &mut [u64]) {
        for &(idx, val) in &self.entries {
            target[idx as usize] = val;
        }
    }

    /// Applies the diff to a live frame (the home copy).
    fn apply_to_frame(&self, frame: &PageFrame) {
        for &(idx, val) in &self.entries {
            frame.store(idx as u64, val);
        }
    }

    /// Word indices touched by the diff (used to mark home cache lines
    /// dirty after a merge).
    fn word_indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|&(i, _)| i as u64)
    }
}

/// Builds a frame/twin pair with a randomized change pattern: a mix of
/// contiguous dirty runs (the common application pattern) and isolated
/// scattered words, possibly none (clean page), possibly all (full
/// dirty).
fn random_case(
    rng: &mut XorShift64,
    frames: &FrameAllocator,
) -> (std::sync::Arc<PageFrame>, Vec<u64>) {
    let frame = frames.alloc(0);
    for w in 0..WORDS {
        frame.store(w, rng.next_u64());
    }
    let twin = frame.snapshot();
    match rng.next_below(10) {
        0 => {} // clean page
        1 => {
            // full dirty
            for w in 0..WORDS {
                frame.store(w, rng.next_u64() | 1);
            }
        }
        _ => {
            for _ in 0..rng.next_below(6) {
                let start = rng.next_below(WORDS);
                let len = 1 + rng.next_below(16).min(WORDS - start - 1);
                for w in start..start + len {
                    // XOR with a nonzero mask guarantees the word
                    // really differs from the twin.
                    frame.store(w, twin[w as usize] ^ (1 + rng.next_below(u64::MAX - 1)));
                }
            }
            for _ in 0..rng.next_below(8) {
                let w = rng.next_below(WORDS);
                frame.store(w, twin[w as usize] ^ 0x8000_0000_0000_0001);
            }
        }
    }
    (frame, twin)
}

#[test]
fn span_diff_equals_page_diff_oracle() {
    let frames = FrameAllocator::new(PageGeometry::default());
    let mut scratch = SpanDiff::new();
    for seed in 0..CASES {
        let mut rng = XorShift64::new(span_mix(seed));
        let (frame, twin) = random_case(&mut rng, &frames);

        let oracle = PageDiff::compute_from_frame(&frame, &twin);
        scratch.compute_from_frame_into(&frame, &twin);

        // Same entries ⇒ same transfer word count ⇒ same cycle charge.
        assert_eq!(
            scratch.entries().collect::<Vec<_>>(),
            oracle.entries().to_vec(),
            "seed {seed}: changed-word sets differ"
        );
        assert_eq!(
            scratch.changed_words(),
            oracle.len() as u64,
            "seed {seed}: transfer word count differs"
        );
        assert_eq!(scratch.is_empty(), oracle.is_empty(), "seed {seed}");

        // Same post-apply image, slice target.
        let mut a: Vec<u64> = (0..WORDS).map(|w| w.wrapping_mul(0x9E37)).collect();
        let mut b = a.clone();
        oracle.apply_to_slice(&mut a);
        scratch.apply_to_slice(&mut b);
        assert_eq!(a, b, "seed {seed}: applied slices differ");

        // Same post-apply image, frame target.
        let fa = frames.alloc(0);
        let fb = frames.alloc(0);
        oracle.apply_to_frame(&fa);
        scratch.apply_to_frame(&fb);
        assert_eq!(
            fa.snapshot(),
            fb.snapshot(),
            "seed {seed}: applied frames differ"
        );

        // Same touched-line set, and the span version is deduped (one
        // mark per line) and strictly ascending.
        let oracle_lines: BTreeSet<u64> = oracle
            .word_indices()
            .map(|w| frame.line_of_word(w))
            .collect();
        let span_lines: Vec<u64> = scratch.touched_lines(&frame).collect();
        assert!(
            span_lines.windows(2).all(|p| p[0] < p[1]),
            "seed {seed}: touched lines not strictly ascending (duplicate marks)"
        );
        assert_eq!(
            span_lines.iter().copied().collect::<BTreeSet<_>>(),
            oracle_lines,
            "seed {seed}: touched-line sets differ"
        );
    }
}

#[test]
fn span_matches_page_diff_on_frames() {
    let frames = FrameAllocator::new(PageGeometry::default());
    let frame = frames.alloc(0);
    let twin = frame.snapshot();
    for w in [0u64, 1, 2, 64, 126, 127] {
        frame.store(w, w + 100);
    }
    let oracle = PageDiff::compute_from_frame(&frame, &twin);
    let span = SpanDiff::compute_from_frame(&frame, &twin);
    assert_eq!(
        span.entries().collect::<Vec<_>>(),
        oracle.entries().to_vec()
    );
    assert_eq!(span.changed_words(), oracle.len() as u64);

    let home = frames.alloc(0);
    span.apply_to_frame(&home);
    for w in [0u64, 1, 2, 64, 126, 127] {
        assert_eq!(home.load(w), w + 100);
    }
}

/// Case seeds, decorrelated from the case index.
fn span_mix(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5D1F_F57A_31B0_24D3
}

#[test]
fn disjoint_span_merges_commute() {
    for seed in 0..CASES {
        let mut rng = XorShift64::new(span_mix(seed) ^ 0xD15C);
        let original: Vec<u64> = (0..WORDS).map(|_| rng.next_u64()).collect();

        // Partition the words: even-indexed words may change in diff 1,
        // odd-indexed in diff 2 — guaranteed disjoint.
        let mut w1 = original.clone();
        let mut w2 = original.clone();
        for _ in 0..1 + rng.next_below(32) {
            let w = (rng.next_below(WORDS / 2) * 2) as usize;
            w1[w] ^= 1 + rng.next_below(1 << 30);
        }
        for _ in 0..1 + rng.next_below(32) {
            let w = (rng.next_below(WORDS / 2) * 2 + 1) as usize;
            w2[w] ^= 1 + rng.next_below(1 << 30);
        }
        let d1 = SpanDiff::compute(&w1, &original);
        let d2 = SpanDiff::compute(&w2, &original);

        let mut ab = original.clone();
        d1.apply_to_slice(&mut ab);
        d2.apply_to_slice(&mut ab);
        let mut ba = original.clone();
        d2.apply_to_slice(&mut ba);
        d1.apply_to_slice(&mut ba);
        assert_eq!(ab, ba, "seed {seed}: disjoint merges must commute");

        // And both orders equal the two-writer merged image.
        for (w, m) in ab.iter().enumerate() {
            let expect = if w1[w] != original[w] { w1[w] } else { w2[w] };
            assert_eq!(*m, expect, "seed {seed}: word {w} merged wrong");
        }
    }
}

#[test]
fn recycled_pool_buffers_never_leak_stale_words() {
    let frames = FrameAllocator::new(PageGeometry::default());
    let pool = TwinPool::new(WORDS as usize);
    for seed in 0..CASES {
        let mut rng = XorShift64::new(span_mix(seed) ^ 0xB0F);
        // Poison a buffer, return it to the pool.
        {
            let mut poison = pool.acquire();
            for w in poison.iter_mut() {
                *w = 0xDEAD_DEAD_DEAD_DEAD;
            }
        }
        // A snapshot into the recycled buffer must equal the frame
        // exactly — every stale word overwritten.
        let frame = frames.alloc(0);
        for w in 0..WORDS {
            frame.store(w, rng.next_u64());
        }
        let mut twin = pool.acquire();
        frame.snapshot_into(&mut twin);
        assert_eq!(
            &twin[..],
            &frame.snapshot()[..],
            "seed {seed}: stale words leaked"
        );
    }
    let stats = pool.stats();
    assert_eq!(stats.allocated, 1, "one buffer recycled throughout");
    assert_eq!(stats.reused, 2 * CASES - 1);
}

/// Steady-state releases allocate nothing: after the first
/// write/release cycle has populated the pools, further cycles recycle
/// the same twin buffer and diff scratch.
#[test]
fn steady_state_release_cycle_is_allocation_free() {
    let cfg = ProtoConfig::new(3, 2);
    let cost = cfg.cost.clone();
    let mut disable_1w = cfg;
    disable_1w.single_writer_opt = false; // exercise the diff path
    let p = MgsProtocol::new(disable_1w);
    let mut t = RecordingTiming::new(cost, Cycles::ZERO);

    let cycle = |p: &MgsProtocol, t: &mut RecordingTiming, round: u64| {
        let e = p.fault(2, 0, true, t);
        for w in 0..8 {
            e.frame.store(w * 7, round + w);
        }
        p.release_all(2, t);
    };

    // Warm-up: first cycle allocates the fill image + twin + scratch.
    cycle(&p, &mut t, 1);
    let warm_pool = p.twin_pool_stats();
    let warm_scratch = p.diff_scratch_created();
    assert!(warm_pool.allocated > 0, "warm-up must have allocated");
    assert_eq!(warm_scratch, 1, "one diff scratch created");

    for round in 0..50 {
        cycle(&p, &mut t, 100 + round);
    }
    let after = p.twin_pool_stats();
    assert_eq!(
        after.allocated, warm_pool.allocated,
        "steady-state releases must not allocate page buffers"
    );
    assert!(after.reused > warm_pool.reused, "buffers were recycled");
    assert_eq!(
        p.diff_scratch_created(),
        warm_scratch,
        "steady-state releases must not create diff scratches"
    );
}

/// The single-writer flush path also reaches pool steady state: its
/// refreshed twin reuses pooled buffers.
#[test]
fn steady_state_single_writer_flush_is_allocation_free() {
    let cfg = ProtoConfig::new(2, 2);
    let cost = cfg.cost.clone();
    let p = MgsProtocol::new(cfg);
    let mut t = RecordingTiming::new(cost, Cycles::ZERO);

    let cycle = |p: &MgsProtocol, t: &mut RecordingTiming, round: u64| {
        let e = p.fault(2, 0, true, t);
        e.frame.store(round % WORDS, round);
        p.release_all(2, t);
    };
    cycle(&p, &mut t, 1);
    cycle(&p, &mut t, 2);
    let warm = p.twin_pool_stats();
    for round in 3..40 {
        cycle(&p, &mut t, round);
    }
    let after = p.twin_pool_stats();
    assert_eq!(
        after.allocated, warm.allocated,
        "steady-state 1W flushes must not allocate page buffers"
    );
    assert_eq!(p.diff_scratch_created(), 0, "1W path never diffs");
    assert_eq!(p.home_frame(0).load(1), 1, "released data reached the home");
}

/// Satellite check: dirty-line marking equivalence. The deduped
/// span-driven mark set equals the naive one-mark-per-changed-word
/// reference for random diffs (and is emitted without duplicates —
/// asserted inside the oracle test too, on protocol-shaped data here).
#[test]
fn home_merge_marks_each_line_once_and_matches_reference() {
    let cfg = ProtoConfig::new(3, 2);
    let cost = cfg.cost.clone();
    let mut cfg = cfg;
    cfg.single_writer_opt = false;
    let p = MgsProtocol::new(cfg);
    let mut t = RecordingTiming::new(cost, Cycles::ZERO);

    // Writer dirties two words of the same cache line (2 words/line in
    // the default geometry) plus one isolated word.
    let e = p.fault(2, 0, true, &mut t);
    e.frame.store(10, 1);
    e.frame.store(11, 2); // same 16-byte line as word 10
    e.frame.store(40, 3);
    p.release_all(2, &mut t);

    // The home directory now tracks exactly the two touched lines,
    // dirty-owned by the home node: a later clean pays the dirty tier
    // for 2 lines, not 3 word-marks.
    let home = p.home_frame(0);
    let clean = p.cache_system(0).directory().clean_page(home.lines());
    assert_eq!(clean.dirty_lines, 2, "one mark per touched line");
    assert_eq!(home.load(10), 1);
    assert_eq!(home.load(11), 2);
    assert_eq!(home.load(40), 3);
}
