//! Twin/diff machinery (Munin-style multiple-writer support, §3.1.1).
//!
//! Only changed words are propagated back to the home copy at release
//! time, which is what lets multiple SSMPs write disjoint parts of the
//! same page concurrently (false sharing costs bandwidth, not
//! correctness).
//!
//! A [`SpanDiff`] holds them as contiguous `(start_word,
//! run_of_values)` runs, built by a chunked 8-words-at-a-time
//! comparison that skips clean chunks fast, computed against the
//! frame's quiesced plain-slice view (no intermediate snapshot
//! allocation, vectorizable) and applied with per-run copies. Its
//! internal buffers are recycled between releases so a steady-state
//! diff allocates nothing.
//!
//! The original per-word `(index, value)` list — simple enough to
//! audit by eye — is the **reference oracle** in
//! `tests/span_diff_props.rs`, which asserts the span kernel reports
//! the same changed words, so every simulated-cycle charge
//! (`diff_compute_cost`, `diff_transfer_apply_cost`, DIFF payload
//! bytes) is what the per-word kernel would have charged.

use mgs_vm::PageFrame;

/// One contiguous run of changed words: `len` values starting at word
/// `start`. The values live in the owning [`SpanDiff`]'s flat buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
}

/// A page diff as contiguous spans of changed words.
///
/// Semantically identical to the per-word reference list (the
/// property tests assert it), but:
///
/// * **compute** walks the page 8 words at a time and skips clean
///   chunks with one branch, reading a quiesced frame as a plain slice
///   ([`PageFrame::with_quiesced`]) — no intermediate snapshot is
///   allocated;
/// * **apply** stores whole runs (one bounds check per run instead of
///   per word);
/// * **reuse**: [`compute_into`](SpanDiff::compute_into) clears and
///   refills an existing `SpanDiff`, keeping its buffers, so a recycled
///   instance computes diffs without heap allocation.
///
/// # Example
///
/// ```
/// use mgs_proto::SpanDiff;
///
/// let twin = vec![0, 1, 2, 3, 4, 5];
/// let current = vec![0, 9, 8, 3, 4, 7];
/// let diff = SpanDiff::compute(&current, &twin);
/// assert_eq!(diff.changed_words(), 3);
/// assert_eq!(diff.span_count(), 2); // [1..=2] and [5..=5]
/// let mut home = vec![100; 6];
/// diff.apply_to_slice(&mut home);
/// assert_eq!(home, vec![100, 9, 8, 100, 100, 7]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanDiff {
    spans: Vec<Span>,
    values: Vec<u64>,
}

/// Chunk width of the comparison loop: 8 words (64 bytes) per round,
/// compared with a single accumulated XOR so a clean chunk costs one
/// well-predicted branch.
const CHUNK_WORDS: usize = 8;

impl SpanDiff {
    /// Creates an empty diff (no spans, no capacity). Typically used as
    /// a recyclable scratch for [`compute_into`](SpanDiff::compute_into).
    pub fn new() -> SpanDiff {
        SpanDiff::default()
    }

    /// Computes the diff of `current` against `twin`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn compute(current: &[u64], twin: &[u64]) -> SpanDiff {
        let mut d = SpanDiff::new();
        d.compute_into(current, twin);
        d
    }

    /// Recomputes this diff from `current` vs `twin`, reusing the
    /// existing span/value buffers.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn compute_into(&mut self, current: &[u64], twin: &[u64]) {
        assert_eq!(current.len(), twin.len(), "page/twin size mismatch");
        self.clear();
        // Fixed-width `[u64; CHUNK_WORDS]` chunks (rather than slicing
        // a variable tail length each round) let the clean-chunk test
        // compile to a vectorized compare. (An explicit AVX2 variant
        // was tried and measured slower than this portable loop's SSE2
        // codegen, so there is deliberately no runtime dispatch here.)
        let mut cur_chunks = current.chunks_exact(CHUNK_WORDS);
        let mut twin_chunks = twin.chunks_exact(CHUNK_WORDS);
        let mut base = 0usize;
        for (c, t) in cur_chunks.by_ref().zip(twin_chunks.by_ref()) {
            let c: &[u64; CHUNK_WORDS] = c.try_into().expect("exact chunk");
            let t: &[u64; CHUNK_WORDS] = t.try_into().expect("exact chunk");
            let mut dirt = 0u64;
            for k in 0..CHUNK_WORDS {
                dirt |= c[k] ^ t[k];
            }
            if dirt != 0 {
                for k in 0..CHUNK_WORDS {
                    if c[k] != t[k] {
                        self.push_word((base + k) as u32, c[k]);
                    }
                }
            }
            base += CHUNK_WORDS;
        }
        self.diff_chunk(base, cur_chunks.remainder(), twin_chunks.remainder());
    }

    /// Compares one (possibly short, e.g. the tail of a page whose
    /// length is not a multiple of [`CHUNK_WORDS`]) chunk and appends
    /// any changed words, extending the open span when runs continue
    /// across chunk boundaries.
    #[inline]
    fn diff_chunk(&mut self, base: usize, cur: &[u64], twin: &[u64]) {
        let mut dirt = 0u64;
        for (c, t) in cur.iter().zip(twin) {
            dirt |= c ^ t;
        }
        if dirt == 0 {
            return; // clean chunk: the common case, one branch
        }
        for (k, (c, t)) in cur.iter().zip(twin).enumerate() {
            if c != t {
                self.push_word((base + k) as u32, *c);
            }
        }
    }

    /// Appends one changed word, merging into the last span when
    /// contiguous. Indices must arrive in strictly ascending order.
    #[inline]
    fn push_word(&mut self, idx: u32, value: u64) {
        match self.spans.last_mut() {
            Some(s) if s.start + s.len == idx => s.len += 1,
            _ => self.spans.push(Span { start: idx, len: 1 }),
        }
        self.values.push(value);
    }

    /// Empties the diff, keeping buffer capacity.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.values.clear();
    }

    /// Number of changed words (what the DIFF message carries and what
    /// `diff_transfer_apply_cost` is charged on).
    pub fn changed_words(&self) -> u64 {
        self.values.len() as u64
    }

    /// `true` when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of contiguous runs.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The runs as `(start_word, values)` pairs, in ascending order.
    pub fn spans(&self) -> impl Iterator<Item = (u32, &[u64])> + '_ {
        let mut off = 0usize;
        self.spans.iter().map(move |s| {
            let vals = &self.values[off..off + s.len as usize];
            off += s.len as usize;
            (s.start, vals)
        })
    }

    /// The changed `(word_index, value)` pairs in ascending index order
    /// (flattened spans; directly comparable with the per-word
    /// reference's).
    pub fn entries(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.spans().flat_map(|(start, vals)| {
            vals.iter()
                .enumerate()
                .map(move |(k, &v)| (start + k as u32, v))
        })
    }

    /// Applies the diff to a plain buffer, one `copy_from_slice` per
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if a span is out of range.
    pub fn apply_to_slice(&self, target: &mut [u64]) {
        for (start, vals) in self.spans() {
            target[start as usize..start as usize + vals.len()].copy_from_slice(vals);
        }
    }

    /// Applies the diff to a live frame (the home copy) with per-run
    /// word-atomic stores — concurrent readers of the home copy are
    /// not blocked.
    ///
    /// # Panics
    ///
    /// Panics if a span is out of range.
    pub fn apply_to_frame(&self, frame: &PageFrame) {
        for (start, vals) in self.spans() {
            frame.store_words(start as u64, vals);
        }
    }

    /// Cache-line addresses of `frame` touched by the diff, **deduped**
    /// (each line exactly once) and ascending — spans covering several
    /// words of one line, and adjacent spans sharing a line, still
    /// yield a single mark. Allocation-free; feeds
    /// `Directory::mark_dirty_lines` after a home merge.
    pub fn touched_lines<'a>(&'a self, frame: &'a PageFrame) -> impl Iterator<Item = u64> + 'a {
        // Spans are ascending and disjoint, so per-span line ranges are
        // ascending; clamping each range's start past the last emitted
        // line dedupes shared boundary lines.
        let mut next = 0u64;
        self.spans.iter().flat_map(move |s| {
            let lo = frame.line_of_word(s.start as u64).max(next);
            let hi = frame.line_of_word((s.start + s.len - 1) as u64);
            if hi >= next {
                next = hi + 1;
            }
            lo..=hi // empty when the span's lines were already emitted
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgs_vm::{FrameAllocator, PageGeometry};

    #[test]
    fn span_identical_pages_empty() {
        let a: Vec<u64> = (0..100).collect();
        let d = SpanDiff::compute(&a, &a.clone());
        assert!(d.is_empty());
        assert_eq!(d.span_count(), 0);
        assert_eq!(d.changed_words(), 0);
    }

    #[test]
    fn span_merges_contiguous_runs_across_chunks() {
        // Words 6..=9 changed: the run crosses the 8-word chunk
        // boundary and must still be a single span.
        let twin = vec![0u64; 24];
        let mut cur = twin.clone();
        for (w, word) in cur.iter_mut().enumerate().take(10).skip(6) {
            *word = w as u64 + 1;
        }
        let d = SpanDiff::compute(&cur, &twin);
        assert_eq!(d.span_count(), 1);
        assert_eq!(d.changed_words(), 4);
        assert_eq!(
            d.spans().collect::<Vec<_>>(),
            vec![(6u32, &[7u64, 8, 9, 10][..])]
        );
    }

    #[test]
    fn span_separate_runs_stay_separate() {
        let twin = vec![0u64; 32];
        let mut cur = twin.clone();
        cur[1] = 5;
        cur[3] = 6; // gap at word 2
        cur[30] = 7;
        let d = SpanDiff::compute(&cur, &twin);
        assert_eq!(d.span_count(), 3);
        assert_eq!(
            d.entries().collect::<Vec<_>>(),
            vec![(1, 5), (3, 6), (30, 7)]
        );
    }

    #[test]
    fn span_compute_into_reuses_buffers() {
        let twin = vec![0u64; 16];
        let mut cur = twin.clone();
        cur[4] = 1;
        let mut d = SpanDiff::compute(&cur, &twin);
        cur[4] = 0;
        cur[9] = 2;
        d.compute_into(&cur, &twin);
        assert_eq!(d.entries().collect::<Vec<_>>(), vec![(9, 2)]);
    }

    #[test]
    fn span_touched_lines_dedupes_and_ascends() {
        let frames = FrameAllocator::new(PageGeometry::default());
        let frame = frames.alloc(0);
        let twin = frame.snapshot();
        // Default geometry: 2 words per 16-byte line. Words 0 and 1
        // share line 0; words 4..=7 span lines 2..=3; word 5 already
        // inside that range.
        for w in [0u64, 1, 4, 5, 6, 7, 120] {
            frame.store(w, 1);
        }
        let d = SpanDiff::compute(&frame.snapshot(), &twin);
        let lines: Vec<u64> = d.touched_lines(&frame).collect();
        let first = frame.base() / PageGeometry::LINE_BYTES;
        assert_eq!(lines, vec![first, first + 2, first + 3, first + 60]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn span_mismatched_sizes_panic() {
        SpanDiff::compute(&[1, 2], &[1]);
    }
}
