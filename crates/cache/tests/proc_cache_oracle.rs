//! Differential oracle for the flat tag array: [`ProcCache`] must make
//! exactly the replacement decisions of the nested-`Vec`, timestamped
//! LRU it replaced. The old implementation lives on here, verbatim, as
//! the reference; both are driven with the same seeded operation stream
//! and every return value is compared.

use mgs_cache::{CacheConfig, ProcCache};
use mgs_sim::XorShift64;

/// The reference: one heap-allocated `Vec<Slot>` per set, LRU by
/// explicit use timestamps.
#[derive(Debug, Clone)]
struct NestedVecCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Slot>>,
    tick: u64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Line address (address / line_bytes), or `None` if empty.
    line: Option<u64>,
    /// LRU timestamp.
    last_use: u64,
}

impl NestedVecCache {
    /// Creates an empty cache with the given geometry.
    fn new(cfg: CacheConfig) -> NestedVecCache {
        let sets = cfg.sets();
        NestedVecCache {
            cfg,
            sets: vec![
                vec![
                    Slot {
                        line: None,
                        last_use: 0
                    };
                    cfg.ways
                ];
                sets
            ],
            tick: 0,
        }
    }

    /// The cache geometry.
    fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn set_index(&self, line: u64) -> usize {
        (line as usize) & (self.sets.len() - 1)
    }

    /// Returns `true` if `line` is resident, updating its LRU position.
    fn contains(&mut self, line: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let idx = self.set_index(line);
        for slot in &mut self.sets[idx] {
            if slot.line == Some(line) {
                slot.last_use = tick;
                return true;
            }
        }
        false
    }

    /// Inserts `line`, returning the evicted line address if a resident
    /// line had to be displaced. Inserting a line that is already
    /// resident refreshes it and evicts nothing.
    fn insert(&mut self, line: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        // Already resident?
        if let Some(slot) = set.iter_mut().find(|s| s.line == Some(line)) {
            slot.last_use = tick;
            return None;
        }
        // Empty way?
        if let Some(slot) = set.iter_mut().find(|s| s.line.is_none()) {
            *slot = Slot {
                line: Some(line),
                last_use: tick,
            };
            return None;
        }
        // Evict LRU.
        let victim = set.iter_mut().min_by_key(|s| s.last_use).expect("ways > 0");
        let evicted = victim.line;
        *victim = Slot {
            line: Some(line),
            last_use: tick,
        };
        evicted
    }

    /// Removes `line` if resident (used when the owner itself flushes,
    /// e.g. during page cleaning of its own pages).
    fn evict(&mut self, line: u64) -> bool {
        let idx = self.set_index(line);
        for slot in &mut self.sets[idx] {
            if slot.line == Some(line) {
                slot.line = None;
                return true;
            }
        }
        false
    }

    /// Drops every resident line.
    fn clear(&mut self) {
        for set in &mut self.sets {
            for slot in set {
                slot.line = None;
            }
        }
    }

    /// Number of resident lines (O(cache size); for tests/stats).
    fn resident(&self) -> usize {
        self.sets
            .iter()
            .flatten()
            .filter(|s| s.line.is_some())
            .count()
    }
}

/// Operations per geometry; three geometries make 3.6 M in total.
const OPS: usize = 1_200_000;

fn drive(seed: u64, cfg: CacheConfig) {
    let mut flat = ProcCache::new(cfg);
    let mut oracle = NestedVecCache::new(cfg);
    assert_eq!(flat.config(), oracle.config());
    let mut rng = XorShift64::new(seed);
    // Three lines per way on average, so sets fill up, conflict and
    // evict, while re-references stay common enough to exercise hits.
    let lines = 3 * cfg.total_lines() as u64;
    // `resident` is O(cache size): compare it at every step on small
    // geometries and on a stride on large ones.
    let resident_stride = (cfg.total_lines() / 16).max(1);
    for step in 0..OPS {
        let line = rng.next_below(lines);
        let ctx = || format!("step {step}, line {line}, seed {seed:#x}, {cfg:?}");
        match rng.next_below(100) {
            0..=44 => assert_eq!(
                flat.contains(line),
                oracle.contains(line),
                "contains: {}",
                ctx()
            ),
            45..=84 => assert_eq!(flat.insert(line), oracle.insert(line), "insert: {}", ctx()),
            _ => assert_eq!(flat.evict(line), oracle.evict(line), "evict: {}", ctx()),
        }
        if rng.next_below(200_000) == 0 {
            flat.clear();
            oracle.clear();
            assert_eq!(flat.resident(), 0, "clear: {}", ctx());
        }
        if step % resident_stride == 0 {
            assert_eq!(flat.resident(), oracle.resident(), "resident: {}", ctx());
        }
    }
    assert_eq!(flat.resident(), oracle.resident());
    // Final residency, line by line (`contains` refreshes both alike).
    for line in 0..lines {
        assert_eq!(
            flat.contains(line),
            oracle.contains(line),
            "final residency of {line}"
        );
    }
}

#[test]
fn flat_tag_array_matches_nested_vec_oracle() {
    let four_way = CacheConfig {
        size_bytes: 4096,
        line_bytes: 16,
        ways: 4,
    };
    for (seed, cfg) in [
        (0x51ED_0001, CacheConfig::tiny()),
        (0x51ED_0002, CacheConfig::alewife()),
        (0x51ED_0003, four_way),
    ] {
        drive(seed, cfg);
    }
}
