//! Trace-driven cache simulation.
//!
//! Replays a recorded [`CacheTrace`] against any capacity × shard
//! configuration of the FIFO cache and reports the hit rate, eviction
//! count, and resident footprint that configuration *would* have had —
//! the core of the `trasyn-cachesim` binary's cache-sizing lab.
//!
//! # Two modes
//!
//! * [`SimMode::Parity`] — replay **every** recorded event kind
//!   faithfully: lookups stay lookups, insertions happen exactly where
//!   the live engine performed them, warm-start loads stay silent. Under
//!   the trace's own recorded configuration this reproduces the live
//!   cache bit-for-bit — same shard assignment (`digest % shards`), same
//!   FIFO evictions, same hit/miss *sequence* — which the replay-parity
//!   tests below pin. This is the mode that proves the simulator can be
//!   trusted.
//! * [`SimMode::Reference`] — what-if sweeps over *other*
//!   configurations: only the lookup events are replayed, and a miss is
//!   followed by an immediate insertion (the classic cache-simulator
//!   idealization). The live engine instead batches its insertions after
//!   a whole cache scan (phase 1 vs phase 2 of
//!   [`crate::engine::Engine::compile_batch_traced`]), so reference
//!   results under the native configuration can differ slightly from
//!   parity results — that gap is inherent to what-if simulation, not a
//!   bug, and the parity mode exists to keep it measurable.
//!
//! The simulated FIFO queue is clock-free and randomness-free, so a
//! replay is deterministic: same trace + same configuration → same
//! [`SimOutcome`], always.

use crate::cache::shard_layout;
use crate::cachetrace::{CacheTrace, EventKind};
use std::collections::{HashMap, VecDeque};

/// How faithfully to replay the trace — see the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimMode {
    /// Replay every event kind as recorded (bit-faithful under the
    /// recorded configuration).
    Parity,
    /// Replay lookups only, inserting on miss (what-if sweeps).
    Reference,
}

impl SimMode {
    /// Token used by `--mode` and in JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            SimMode::Parity => "parity",
            SimMode::Reference => "reference",
        }
    }

    /// Inverse of [`SimMode::label`].
    pub fn parse(s: &str) -> Option<SimMode> {
        match s {
            "parity" => Some(SimMode::Parity),
            "reference" => Some(SimMode::Reference),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The result of one simulated configuration.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Total capacity simulated (0 = unbounded).
    pub capacity: usize,
    /// Shard count simulated.
    pub shards: usize,
    /// Replay mode.
    pub mode: SimMode,
    /// Simulated lookup hits.
    pub hits: u64,
    /// Simulated lookup misses.
    pub misses: u64,
    /// Simulated insertions (deduplicated re-inserts excluded, like the
    /// live counter).
    pub insertions: u64,
    /// Simulated evictions.
    pub evictions: u64,
    /// Entries resident at end of replay.
    pub entries: usize,
    /// Rough resident footprint: `Σ 2^size_class` gates over resident
    /// entries (size classes are `ceil(log2)` buckets, so this is an
    /// upper bound within 2×).
    pub approx_gates: u64,
    /// Per-lookup outcome, in trace order: `true` = hit. This is what
    /// the replay-parity tests compare against the recorded sequence.
    pub outcomes: Vec<bool>,
}

impl SimOutcome {
    /// Hits over lookups; 0 when the trace had no lookups.
    pub fn hit_rate(&self) -> f64 {
        let gets = self.hits + self.misses;
        if gets == 0 {
            0.0
        } else {
            self.hits as f64 / gets as f64
        }
    }
}

/// One simulated shard: the resident set (digest → size class) plus its
/// FIFO queue of digests, oldest insertion first — the live
/// [`crate::cache::SynthCache`] shard without the clock.
#[derive(Default)]
struct SimShard {
    resident: HashMap<u64, u8>,
    order: VecDeque<u64>,
}

impl SimShard {
    /// Mirrors the live shard's eviction loop. Returns victims evicted.
    fn evict_to_fit(&mut self, cap: usize) -> u64 {
        let mut evicted = 0;
        while self.resident.len() >= cap {
            let Some(victim) = self.order.pop_front() else {
                break;
            };
            self.resident.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    fn insert(&mut self, key: u64, size_class: u8) {
        self.resident.insert(key, size_class);
        self.order.push_back(key);
    }
}

/// Replays `trace` against one `(capacity, shards)` configuration.
/// Deterministic; see [`SimMode`] for what is replayed.
pub fn simulate(trace: &CacheTrace, capacity: usize, shards: usize, mode: SimMode) -> SimOutcome {
    let (nshards, per_shard_capacity) = shard_layout(capacity, shards);
    let mut sim: Vec<SimShard> = (0..nshards).map(|_| SimShard::default()).collect();

    // Reference mode inserts on miss, so it needs a size class for keys
    // whose insertion events it skips: take each key's first recorded
    // insert/load size class (synthesis is deterministic, so every
    // insertion of a key carries the same class).
    let mut size_classes: HashMap<u64, u8> = HashMap::new();
    if mode == SimMode::Reference {
        for e in &trace.events {
            if !e.kind.is_get() {
                size_classes.entry(e.key_hash).or_insert(e.size_class);
            }
        }
    }

    let mut out = SimOutcome {
        capacity,
        shards: nshards,
        mode,
        hits: 0,
        misses: 0,
        insertions: 0,
        evictions: 0,
        entries: 0,
        approx_gates: 0,
        outcomes: Vec::with_capacity(trace.gets()),
    };

    for e in &trace.events {
        let shard = &mut sim[(e.key_hash % nshards as u64) as usize];
        match e.kind {
            EventKind::Hit | EventKind::Miss => {
                // Our own lookup outcome — the recorded kind is what the
                // parity tests compare it to, not an input.
                let hit = shard.resident.contains_key(&e.key_hash);
                if hit {
                    out.hits += 1;
                } else {
                    out.misses += 1;
                    if mode == SimMode::Reference {
                        let class = size_classes.get(&e.key_hash).copied().unwrap_or(0);
                        out.evictions += shard.evict_to_fit(per_shard_capacity);
                        shard.insert(e.key_hash, class);
                        out.insertions += 1;
                    }
                }
                out.outcomes.push(hit);
            }
            EventKind::Insert => {
                if mode == SimMode::Parity {
                    if shard.resident.contains_key(&e.key_hash) {
                        // Deduplicated re-insert: no-op live, no-op here.
                        continue;
                    }
                    out.evictions += shard.evict_to_fit(per_shard_capacity);
                    shard.insert(e.key_hash, e.size_class);
                    out.insertions += 1;
                }
            }
            EventKind::Load => {
                if mode == SimMode::Parity && !shard.resident.contains_key(&e.key_hash) {
                    // Warm-start load: silent on every counter, live and
                    // simulated alike.
                    shard.evict_to_fit(per_shard_capacity);
                    shard.insert(e.key_hash, e.size_class);
                }
            }
        }
    }

    for shard in &sim {
        out.entries += shard.resident.len();
        out.approx_gates += shard
            .resident
            .values()
            .map(|&c| 1u64 << u32::from(c).min(63))
            .sum::<u64>();
    }
    out
}

/// The capacity sweep `trasyn-cachesim` runs by default around a
/// recorded capacity: quarter, native, and 4× (deduplicated, minimum 1);
/// an unbounded recording (capacity 0) sweeps fixed reference points
/// instead.
pub fn default_capacity_sweep(recorded: usize) -> Vec<usize> {
    if recorded == 0 {
        return vec![1024, 4096, 16384];
    }
    let mut caps = vec![(recorded / 4).max(1), recorded, recorded.saturating_mul(4)];
    caps.dedup();
    caps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, SettingsKey};
    use crate::cache::{CacheKey, SynthCache};
    use crate::cachetrace::decode;
    use circuit::synthesize::CachedSynthesis;
    use gates::{Gate, GateSeq};
    use std::sync::Arc;

    fn key(i: i64) -> CacheKey {
        CacheKey {
            unitary: [i; 8],
            settings: SettingsKey {
                backend: BackendKind::Gridsynth,
                eps_bits: 0,
                params: 0,
            },
        }
    }

    fn value(gates: usize) -> CachedSynthesis {
        Arc::new((
            std::iter::repeat_n(Gate::T, gates).collect::<GateSeq>(),
            0.1,
        ))
    }

    /// Drives a live cache through a synthetic workload (recurring hot
    /// keys + scans + a warm-start load), recording a trace, and returns
    /// the decoded trace plus the live per-lookup outcome sequence.
    fn record_live(
        capacity: usize,
        shards: usize,
    ) -> (
        crate::cachetrace::CacheTrace,
        Vec<bool>,
        crate::cache::CacheStats,
    ) {
        let cache = SynthCache::with_shards(capacity, shards);
        let rec = cache.start_recording();
        cache.load_entry(key(1000), value(9)); // warm-start entry
        let mut live = Vec::new();
        for round in 0..4i64 {
            // Hot set, revisited every round.
            for i in 0..6 {
                let k = key(i);
                let hit = cache.get(&k).is_some();
                live.push(hit);
                if !hit {
                    cache.insert(k, value((i + 1) as usize));
                }
            }
            // One-shot scan, unique keys each round.
            for i in 0..5 {
                let k = key(100 + round * 10 + i);
                let hit = cache.get(&k).is_some();
                live.push(hit);
                if !hit {
                    cache.insert(k, value(3));
                }
            }
            // Duplicate insert exercises the dedup no-op path.
            cache.insert(key(0), value(1));
        }
        let stats = cache.stats();
        let trace = decode(&rec.encode()).expect("recorder produces a valid trace");
        (trace, live, stats)
    }

    #[test]
    fn parity_replay_matches_live_sequence_for_every_capacity() {
        // The tentpole guarantee: for 3 capacities × 2 shard layouts,
        // replaying the recorded trace under the recorded configuration
        // reproduces the live cache's hit/miss *sequence* — not just the
        // totals.
        for capacity in [4usize, 8, 64] {
            for shards in [1usize, 3] {
                let (trace, live, stats) = record_live(capacity, shards);
                let sim = simulate(&trace, capacity, trace.shards as usize, SimMode::Parity);
                assert_eq!(
                    sim.outcomes, live,
                    "cap={capacity} shards={shards}: simulated sequence diverged"
                );
                // And the recorded event kinds agree with both.
                let recorded: Vec<bool> = trace
                    .events
                    .iter()
                    .filter(|e| e.kind.is_get())
                    .map(|e| e.kind == EventKind::Hit)
                    .collect();
                assert_eq!(sim.outcomes, recorded);
                assert_eq!(sim.hits, stats.hits, "cap={capacity}");
                assert_eq!(sim.misses, stats.misses);
                assert_eq!(sim.insertions, stats.insertions);
                assert_eq!(sim.evictions, stats.evictions);
            }
        }
    }

    #[test]
    fn reference_mode_sweeps_capacities_monotonically_enough() {
        // A cache larger than the workload's key set never evicts, so it
        // never has fewer hits on this scan-plus-hot-set workload.
        let (trace, _, _) = record_live(8, 1);
        let small = simulate(&trace, 4, 1, SimMode::Reference);
        let large = simulate(&trace, 64, 1, SimMode::Reference);
        assert!(large.hits >= small.hits);
        assert_eq!(small.outcomes.len(), trace.gets());
        assert!(large.entries <= 64);
    }

    #[test]
    fn reference_mode_carries_size_classes_from_recorded_inserts() {
        let (trace, _, _) = record_live(0, 1);
        let sim = simulate(&trace, 0, 1, SimMode::Reference);
        // Unbounded: every distinct get-key resident, each with the size
        // class its recorded insertion carried (≥1 gate each).
        assert!(sim.approx_gates >= sim.entries as u64);
        assert_eq!(sim.evictions, 0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let (trace, _, _) = record_live(8, 2);
        let a = simulate(&trace, 8, 2, SimMode::Parity);
        let b = simulate(&trace, 8, 2, SimMode::Parity);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(
            (a.hits, a.misses, a.insertions, a.evictions, a.entries),
            (b.hits, b.misses, b.insertions, b.evictions, b.entries)
        );
    }

    #[test]
    fn empty_trace_simulates_to_zeroes() {
        let cache = SynthCache::new(8);
        let rec = cache.start_recording();
        let trace = decode(&rec.encode()).expect("empty trace is valid");
        for mode in [SimMode::Parity, SimMode::Reference] {
            let sim = simulate(&trace, 8, 2, mode);
            assert_eq!(sim.hits + sim.misses + sim.insertions, 0);
            assert_eq!(sim.entries, 0);
            assert!(sim.outcomes.is_empty());
            assert_eq!(sim.hit_rate(), 0.0);
        }
    }

    #[test]
    fn shard_assignment_follows_the_recorded_digest() {
        // The simulator must shard by digest % shards — the same rule
        // the live cache uses — or multi-shard parity would diverge.
        let k = key(5); // in the workload's hot set
        let (trace, live, _) = record_live(8, 3);
        assert!(trace.events.iter().any(|e| e.key_hash == k.digest()));
        let sim = simulate(&trace, 8, 3, SimMode::Parity);
        assert_eq!(sim.outcomes, live);
        assert_eq!(sim.shards, 3);
    }

    #[test]
    fn default_sweep_brackets_the_recorded_capacity() {
        assert_eq!(default_capacity_sweep(1024), vec![256, 1024, 4096]);
        assert_eq!(default_capacity_sweep(2), vec![1, 2, 8]);
        assert_eq!(default_capacity_sweep(0), vec![1024, 4096, 16384]);
    }

    #[test]
    fn mode_labels_roundtrip() {
        for mode in [SimMode::Parity, SimMode::Reference] {
            assert_eq!(SimMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(SimMode::parse("nope"), None);
    }
}
