//! The shared synthesis cache.
//!
//! [`SynthCache`] is the process-wide memo table of the compilation
//! service: every `(rotation unitary, synthesizer settings)` pair that any
//! circuit, batch request, or worker thread has synthesized is stored once
//! behind an `Arc`, so later requests splice the sequence without
//! recomputing or cloning it.
//!
//! # Keying
//!
//! Keys are [`CacheKey`]: the rotation's 2×2 unitary quantized with
//! [`circuit::synthesize::quantize_unitary`] (the *same* function the
//! sequential per-call cache uses — one quantization contract for the
//! whole workspace), plus the [`SettingsKey`] of the backend that would
//! synthesize it. Two requests share an entry only when both the unitary
//! *and* the synthesis settings (backend, epsilon, budget parameters)
//! match, so a cache hit is always a valid answer.
//!
//! # Concurrency
//!
//! The table is split into shards, each behind its own `Mutex`, so
//! concurrent workers rarely contend on the same lock. Lookups and
//! insertions never hold more than one shard lock, and synthesis itself
//! always happens *outside* any lock. Statistics are lock-free atomics.
//!
//! Shard assignment is `key.digest() % shards` where the digest is the
//! stable FNV-1a 64 hash of [`CacheKey::digest`] — **not**
//! `DefaultHasher`, whose output may change across Rust releases.
//! [`SynthCache::export_entries`] walks the shards in index order, so
//! the digest also fixes the entry order of a TSC1 snapshot
//! ([`crate::snapshot`]).
//!
//! # Capacity and eviction
//!
//! The capacity bound is strict (total resident entries never exceed it)
//! and enforced per shard: each shard holds at most `capacity / shards`
//! entries and, when full, evicts in FIFO order — the victim is the
//! shard's oldest *inserted* entry, and hits never reorder. Each shard
//! keeps its keys in a queue, oldest insertion first, so eviction pops
//! the front and [`SynthCache::export_entries`] walks the queue (the
//! snapshot serialization order). Per-shard enforcement means hash skew
//! can evict inside a hot shard while others have room, and integer
//! division can leave up to `shards - 1` entries of the configured
//! capacity unused — both cost only redundant synthesis, never
//! correctness: the engine re-synthesizes on a miss and every
//! synthesizer in this workspace is a pure function of
//! `(unitary, settings)`.
//!
//! To size the capacity for some traffic, run the cache at that capacity
//! under it and read its counters: [`SynthCache::stats`] feeds `/metrics`
//! and `trasyn-compile`'s summary line, [`SynthCache::shard_stats`] the
//! per-shard `/metrics` families.

use crate::backend::SettingsKey;
use circuit::synthesize::CachedSynthesis;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Key of one cached synthesis: quantized unitary + synthesizer settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The rotation unitary, quantized by
    /// [`circuit::synthesize::quantize_unitary`].
    pub unitary: [i64; 8],
    /// The settings of the backend that synthesizes it.
    pub settings: SettingsKey,
}

impl CacheKey {
    /// Stable digest of the key: FNV-1a 64 over the `Hash` stream,
    /// finalized by the SplitMix64 mixer (FNV's low bits alone are too
    /// regular for `digest % shards` bucketing of structured unitaries).
    /// It picks the shard, and so the entry order of a snapshot.
    pub fn digest(&self) -> u64 {
        let mut h = crate::fnv::Fnv1a64::new();
        self.hash(&mut h);
        crate::fnv::mix64(h.finish())
    }
}

/// The cache's eviction policy. FIFO is the only one; this type and
/// [`crate::EngineBuilder::cache_policy`] remain only so the benchmark
/// package (`benchmark/src/serve.rs`) keeps building unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Evict the oldest inserted entry; hits never reorder.
    #[default]
    Fifo,
}

/// A point-in-time snapshot of cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries written (excluding lost races to an identical key).
    pub insertions: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// Per-shard occupancy/eviction telemetry, for spotting hash skew (one
/// hot shard evicting while its neighbors sit half-empty).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Entries resident in this shard.
    pub entries: usize,
    /// Entries this shard evicted to respect its capacity share
    /// (counted insertions only, like the aggregate counter — silent
    /// warm-start evictions are excluded from both).
    pub evictions: u64,
    /// Age in milliseconds of the shard's longest-resident entry;
    /// `0` when empty.
    pub oldest_age_ms: f64,
    /// How old the most recently evicted entry was when it was evicted;
    /// `0` before the first eviction. A small value means the shard is
    /// churning — entries die young.
    pub last_eviction_age_ms: f64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, CachedSynthesis>,
    /// Exactly `map`'s keys, oldest insertion first, each with its
    /// insertion time: the front is the next FIFO victim and the
    /// oldest entry. The times feed age telemetry only.
    order: VecDeque<(CacheKey, Instant)>,
    /// Evictions charged to this shard (insertion-path only).
    evictions: u64,
    /// Resident age of the last evicted entry, in milliseconds.
    last_eviction_age_ms: f64,
}

impl Shard {
    /// Evicts the oldest entries until the shard is below `cap`,
    /// charging the counters unless `silent` (warm-start loads). Returns
    /// how many entries were evicted.
    fn evict_to_fit(&mut self, cap: usize, silent: bool) -> u64 {
        let mut evicted = 0;
        while self.map.len() >= cap {
            let Some((victim, at)) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&victim);
            if !silent {
                self.evictions += 1;
                self.last_eviction_age_ms = at.elapsed().as_secs_f64() * 1e3;
            }
            evicted += 1;
        }
        evicted
    }

    /// Makes a non-resident `key` resident as the newest entry.
    fn push(&mut self, key: CacheKey, value: CachedSynthesis) {
        self.map.insert(key, value);
        self.order.push_back((key, Instant::now()));
    }
}

/// A sharded, thread-safe, capacity-bounded synthesis cache.
///
/// Shared by value semantics via `Arc<SynthCache>`; all methods take
/// `&self`.
pub struct SynthCache {
    shards: Vec<Mutex<Shard>>,
    /// Maximum entries per shard; `usize::MAX` when unbounded.
    per_shard_capacity: usize,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

/// Default shard count: enough that a handful of worker threads rarely
/// collide, small enough that `stats()`/`len()` stay cheap.
pub const DEFAULT_SHARDS: usize = 16;

impl SynthCache {
    /// Creates a FIFO cache holding at most `capacity` entries across
    /// [`DEFAULT_SHARDS`] shards. `capacity == 0` means unbounded.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// [`SynthCache::new`] with an explicit shard count: at least 1, and
    /// at most `capacity` when bounded, so every shard can hold an entry
    /// without the total exceeding the bound.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let (shards, per_shard_capacity) = if capacity == 0 {
            (shards.max(1), usize::MAX)
        } else {
            let shards = shards.clamp(1, capacity);
            (shards, capacity / shards)
        };
        SynthCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured capacity (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[(key.digest() % self.shards.len() as u64) as usize]
    }

    /// Looks `key` up, counting a hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<CachedSynthesis> {
        let shard = self.shard_of(key).lock().expect("cache shard poisoned");
        match shard.map.get(key).cloned() {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `value` for `key`, evicting the shard's oldest entries
    /// when it is full. If a racing thread already inserted `key`, the
    /// resident entry wins (every backend is deterministic, so both are
    /// identical) and is returned, keeping all callers on one shared
    /// allocation; a duplicate insert does not touch the FIFO order.
    pub fn insert(&self, key: CacheKey, value: CachedSynthesis) -> CachedSynthesis {
        let mut shard = self.shard_of(&key).lock().expect("cache shard poisoned");
        if let Some(existing) = shard.map.get(&key).cloned() {
            return existing;
        }
        let evicted = shard.evict_to_fit(self.per_shard_capacity, false);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        shard.push(key, value.clone());
        self.insertions.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Serves `key`, invoking `synth` on a miss. Synthesis runs with no
    /// lock held; a racing duplicate is deduplicated at insertion.
    pub fn get_or_insert_with(
        &self,
        key: CacheKey,
        synth: impl FnOnce() -> CachedSynthesis,
    ) -> CachedSynthesis {
        match self.get(&key) {
            Some(v) => v,
            None => self.insert(key, synth()),
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// `true` when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exports every resident entry, shard by shard, each shard in
    /// insertion order (the snapshot serialization order; see
    /// [`crate::snapshot`]). Deterministic for a fixed access history.
    pub fn export_entries(&self) -> Vec<(CacheKey, CachedSynthesis)> {
        let mut out = Vec::with_capacity(self.len());
        for s in &self.shards {
            let s = s.lock().expect("cache shard poisoned");
            for (key, _) in &s.order {
                if let Some(v) = s.map.get(key) {
                    out.push((*key, v.clone()));
                }
            }
        }
        out
    }

    /// Inserts a restored entry without touching the hit/miss/insertion
    /// counters, so that after a warm start the statistics reflect only
    /// live traffic. The capacity bound still holds (victims are evicted
    /// silently); a key already resident is left as-is.
    pub fn load_entry(&self, key: CacheKey, value: CachedSynthesis) {
        let mut shard = self.shard_of(&key).lock().expect("cache shard poisoned");
        if shard.map.contains_key(&key) {
            return;
        }
        shard.evict_to_fit(self.per_shard_capacity, true);
        shard.push(key, value);
    }

    /// Drops every entry. Counters are preserved.
    pub fn clear(&self) {
        for s in &self.shards {
            let mut s = s.lock().expect("cache shard poisoned");
            s.map.clear();
            s.order.clear();
        }
    }

    /// Per-shard occupancy and eviction telemetry, in shard-index order
    /// (the order [`SynthCache::export_entries`] walks). Ages are
    /// measured against "now", so only the `entries`/`evictions` fields
    /// are reproducible.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock().expect("cache shard poisoned");
                ShardStats {
                    entries: s.map.len(),
                    evictions: s.evictions,
                    oldest_age_ms: s
                        .order
                        .front()
                        .map_or(0.0, |(_, at)| at.elapsed().as_secs_f64() * 1e3),
                    last_eviction_age_ms: s.last_eviction_age_ms,
                }
            })
            .collect()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
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

    fn value() -> CachedSynthesis {
        Arc::new(([Gate::T].into_iter().collect::<GateSeq>(), 0.1))
    }

    #[test]
    fn hit_miss_counting() {
        let c = SynthCache::new(8);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), value());
        assert!(c.get(&key(1)).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.entries), (1, 1, 1, 1));
    }

    #[test]
    fn capacity_bounds_and_evicts_fifo() {
        // One shard so the FIFO order is globally observable.
        let c = SynthCache::with_shards(4, 1);
        for i in 0..6 {
            c.insert(key(i), value());
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.stats().evictions, 2);
        assert!(c.get(&key(0)).is_none(), "oldest evicted first");
        assert!(c.get(&key(1)).is_none());
        assert!(c.get(&key(5)).is_some());
    }

    #[test]
    fn hit_miss_totals_are_shard_count_independent_without_evictions() {
        // Sharding partitions the key space; with no evictions the
        // hit/miss outcome of every access is shard-count independent.
        let mut seen = Vec::new();
        for shards in [1usize, 5] {
            let c = SynthCache::with_shards(0, shards);
            for i in 0..60i64 {
                let k = key(i % 13);
                if c.get(&k).is_none() {
                    c.insert(k, value());
                }
            }
            let s = c.stats();
            seen.push((s.hits, s.misses, s.insertions, s.entries));
        }
        assert_eq!(seen[0], seen[1], "totals depend on sharding");
    }

    #[test]
    fn duplicate_insert_keeps_resident_entry() {
        let c = SynthCache::new(8);
        let first = c.insert(key(1), value());
        let second = c.insert(key(1), value());
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(c.stats().insertions, 1);
    }

    #[test]
    fn capacity_bound_is_strict() {
        // Capacity below the default shard count: the shard count clamps
        // so the global bound still holds under any key distribution.
        let c = SynthCache::new(4);
        assert!(c.shards() <= 4);
        for i in 0..50 {
            c.insert(key(i), value());
            assert!(c.len() <= 4, "resident {} > capacity 4", c.len());
        }
    }

    #[test]
    fn zero_capacity_is_unbounded() {
        let c = SynthCache::with_shards(0, 2);
        for i in 0..100 {
            c.insert(key(i), value());
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn settings_split_entries() {
        let c = SynthCache::new(8);
        let a = key(1);
        let mut b = a;
        b.settings.eps_bits = 42;
        c.insert(a, value());
        assert!(c.get(&b).is_none(), "same unitary, different settings");
    }

    #[test]
    fn concurrent_use_is_safe() {
        let c = Arc::new(SynthCache::new(64));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..50 {
                        let k = key((i % 16) + t);
                        let _ = c.get_or_insert_with(k, value);
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 200);
        assert!(c.len() <= 64);
    }

    #[test]
    fn shard_stats_attribute_evictions_per_shard() {
        // One shard: all traffic (and both evictions) land on it.
        let c = SynthCache::with_shards(4, 1);
        for i in 0..6 {
            c.insert(key(i), value());
        }
        let shards = c.shard_stats();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].entries, 4);
        assert_eq!(shards[0].evictions, 2);
        assert!(shards[0].oldest_age_ms >= 0.0);
        assert!(shards[0].last_eviction_age_ms >= 0.0);
        // Per-shard evictions sum to the aggregate counter.
        assert_eq!(
            shards.iter().map(|s| s.evictions).sum::<u64>(),
            c.stats().evictions
        );
    }

    #[test]
    fn shard_ages_come_from_the_fifo_queue() {
        // The oldest entry is the queue front; an evicted entry's age is
        // taken from the pair the eviction popped.
        let c = SynthCache::with_shards(2, 1);
        c.insert(key(0), value());
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.insert(key(1), value());
        assert!(c.shard_stats()[0].oldest_age_ms >= 20.0);
        c.insert(key(2), value()); // evicts key(0)
        let s = c.shard_stats()[0];
        assert!(s.last_eviction_age_ms >= 20.0, "{s:?}");
        assert!(s.oldest_age_ms < s.last_eviction_age_ms, "{s:?}");
    }

    #[test]
    fn shard_stats_cover_every_shard_and_sum_to_len() {
        let c = SynthCache::with_shards(64, 8);
        for i in 0..20 {
            c.insert(key(i), value());
        }
        let shards = c.shard_stats();
        assert_eq!(shards.len(), 8);
        assert_eq!(shards.iter().map(|s| s.entries).sum::<usize>(), c.len());
        let empty = ShardStats::default();
        assert_eq!(empty.oldest_age_ms, 0.0);
    }

    #[test]
    fn clear_preserves_counters() {
        let c = SynthCache::new(8);
        c.insert(key(1), value());
        let _ = c.get(&key(1));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn clear_empties_the_queue_so_a_reinsert_exports_once() {
        // A stale queue entry would export the key twice, and a TSC1
        // snapshot would carry the duplicate.
        let c = SynthCache::with_shards(8, 1);
        c.insert(key(1), value());
        c.insert(key(2), value());
        c.clear();
        c.insert(key(1), value());
        let keys: Vec<i64> = c
            .export_entries()
            .into_iter()
            .map(|(k, _)| k.unitary[0])
            .collect();
        assert_eq!(keys, vec![1]);
        assert_eq!(c.shard_stats()[0].entries, 1);
    }

    #[test]
    fn digest_is_the_stable_mixed_fnv_hash() {
        // The digest contract: SplitMix64-finalized FNV-1a 64 over the
        // key's Hash stream. DefaultHasher is explicitly NOT stable
        // across Rust releases; this pins that we never regress to it
        // for anything persisted (the digest fixes snapshot entry order).
        let k = key(3);
        assert_eq!(k.digest(), k.digest());
        assert_ne!(k.digest(), key(4).digest());
        let mut h = crate::fnv::Fnv1a64::new();
        k.hash(&mut h);
        assert_eq!(k.digest(), crate::fnv::mix64(h.finish()));
    }

    #[test]
    fn digest_spreads_sequential_keys_across_shards() {
        // Sequential structured unitaries must not pile into one shard —
        // the snapshot roundtrip of many minimal entries depends on it.
        let mut buckets = [0usize; DEFAULT_SHARDS];
        for i in 0..64 {
            buckets[(key(i).digest() % DEFAULT_SHARDS as u64) as usize] += 1;
        }
        let max = *buckets.iter().max().expect("non-empty");
        assert!(max <= 10, "worst shard got {max} of 64 sequential keys");
    }

    #[test]
    fn export_entries_use_insertion_order_despite_hits() {
        let c = SynthCache::with_shards(8, 1);
        for i in 0..3 {
            c.insert(key(i), value());
        }
        let _ = c.get(&key(0)); // a hit never reorders
        let keys: Vec<i64> = c
            .export_entries()
            .into_iter()
            .map(|(k, _)| k.unitary[0])
            .collect();
        assert_eq!(keys, vec![0, 1, 2]);
    }

    /// Drives a one-shard cache of `capacity` over `accesses` (hit, or
    /// miss then insert) next to a naive model: a `Vec` in insertion
    /// order whose victim is always element 0. After every access the
    /// resident keys, in export order, must equal the model's. Returns
    /// the per-access hit outcomes and the final stats.
    fn drive_against_model(
        accesses: &[i64],
        capacity: usize,
    ) -> Result<(Vec<bool>, CacheStats), proptest::TestCaseError> {
        let c = SynthCache::with_shards(capacity, 1);
        let mut model: Vec<i64> = Vec::new();
        let mut outcomes = Vec::new();
        for &k in accesses {
            let hit = c.get(&key(k)).is_some();
            proptest::prop_assert_eq!(hit, model.contains(&k));
            if !hit {
                c.insert(key(k), value());
                if model.len() == capacity {
                    model.remove(0);
                }
                model.push(k);
            }
            outcomes.push(hit);
            let resident: Vec<i64> = c
                .export_entries()
                .into_iter()
                .map(|(key, _)| key.unitary[0])
                .collect();
            proptest::prop_assert!(resident.len() <= capacity, "capacity exceeded");
            proptest::prop_assert_eq!(&resident, &model);
        }
        Ok((outcomes, c.stats()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn fifo_matches_naive_model(
            accesses in proptest::collection::vec(0i64..24, 1..200),
            capacity in 1usize..9,
        ) {
            let first = drive_against_model(&accesses, capacity)?;
            let second = drive_against_model(&accesses, capacity)?;
            proptest::prop_assert_eq!(first, second, "two identical runs diverged");
        }
    }
}
