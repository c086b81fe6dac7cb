//! Thread-local synthesis work counters.
//!
//! Wall-clock in a trace span says a synthesis was slow; these counters
//! say *what it did*: how many grid candidates it enumerated, how many
//! norm equations it attempted and solved, how many exact syntheses it
//! ran, how many cache shards it probed, and for trasyn how many draws it
//! sampled, closing scores it evaluated and peephole windows it looked
//! up. The kinds are a closed enum so
//! every layer (gridsynth's hot loop, the engine's cache scan, the
//! server's `/metrics`) agrees on names and the storage is a flat array
//! of `Cell`s — recording is one thread-local add, orders of magnitude
//! cheaper than the number theory it counts, so the counters are always
//! on.
//!
//! Per-job attribution works like the allocator's phase scopes: take a
//! [`snapshot`] before the job, [`WorkSnapshot::since`] after, and the
//! difference is that job's work regardless of which worker thread ran
//! it (each thread only ever reads its own cells).

use std::cell::Cell;

/// The closed set of counted work units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkKind {
    /// Grid candidates enumerated by gridsynth's ε-region scan.
    GridCandidates,
    /// Norm-equation (Diophantine) solution attempts.
    NormEquations,
    /// Norm equations that produced a solution.
    NormSolutions,
    /// Exact Clifford+T synthesis calls on candidate unitaries.
    ExactSyntheses,
    /// Synthesis-cache lookups (hit or miss).
    CacheProbes,
    /// trasyn draws: one per sample per sampled site.
    SampleDraws,
    /// trasyn closing scores: table entries scored by the argmax closing
    /// or the single-tensor search.
    ClosingScores,
    /// trasyn peephole windows looked up in the table.
    PeepholeLookups,
}

/// Number of [`WorkKind`] variants (the counter array width).
pub const KINDS: usize = 8;

impl WorkKind {
    /// Every kind, in declaration (and serialization) order.
    pub const ALL: [WorkKind; KINDS] = [
        WorkKind::GridCandidates,
        WorkKind::NormEquations,
        WorkKind::NormSolutions,
        WorkKind::ExactSyntheses,
        WorkKind::CacheProbes,
        WorkKind::SampleDraws,
        WorkKind::ClosingScores,
        WorkKind::PeepholeLookups,
    ];

    /// Stable snake_case name, used as the JSON key and `/metrics`
    /// label.
    pub fn label(self) -> &'static str {
        match self {
            WorkKind::GridCandidates => "grid_candidates",
            WorkKind::NormEquations => "norm_equations",
            WorkKind::NormSolutions => "norm_solutions",
            WorkKind::ExactSyntheses => "exact_syntheses",
            WorkKind::CacheProbes => "cache_probes",
            WorkKind::SampleDraws => "sample_draws",
            WorkKind::ClosingScores => "closing_scores",
            WorkKind::PeepholeLookups => "peephole_lookups",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

thread_local! {
    static COUNTS: [Cell<u64>; KINDS] = const { [const { Cell::new(0) }; KINDS] };
}

/// Adds `n` events of `kind` to the calling thread's counters.
#[inline]
pub fn add(kind: WorkKind, n: u64) {
    let _ = COUNTS.try_with(|c| {
        let cell = &c[kind.index()];
        cell.set(cell.get() + n);
    });
}

/// A reading of the calling thread's work counters; also the delta shape
/// returned by [`WorkSnapshot::since`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkSnapshot {
    counts: [u64; KINDS],
}

impl WorkSnapshot {
    /// Events of `kind` in this snapshot.
    pub fn get(&self, kind: WorkKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Adds `n` events of `kind` to this snapshot, for work its owner
    /// counts itself rather than through a thread's counters.
    pub fn add(&mut self, kind: WorkKind, n: u64) {
        self.counts[kind.index()] += n;
    }

    /// The work done between `start` (an earlier snapshot on the same
    /// thread) and this one.
    pub fn since(&self, start: &WorkSnapshot) -> WorkSnapshot {
        let mut out = WorkSnapshot::default();
        for (i, o) in out.counts.iter_mut().enumerate() {
            *o = self.counts[i].saturating_sub(start.counts[i]);
        }
        out
    }

    /// Accumulates another snapshot/delta into this one.
    pub fn merge(&mut self, other: &WorkSnapshot) {
        for (i, c) in self.counts.iter_mut().enumerate() {
            *c += other.counts[i];
        }
    }
}

/// Reads the calling thread's counters.
pub fn snapshot() -> WorkSnapshot {
    WorkSnapshot {
        counts: COUNTS.with(|c| {
            let mut out = [0u64; KINDS];
            for (i, cell) in c.iter().enumerate() {
                out[i] = cell.get();
            }
            out
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_delta_are_per_kind() {
        let start = snapshot();
        add(WorkKind::GridCandidates, 3);
        add(WorkKind::NormEquations, 2);
        add(WorkKind::NormSolutions, 1);
        let d = snapshot().since(&start);
        assert_eq!(d.get(WorkKind::GridCandidates), 3);
        assert_eq!(d.get(WorkKind::NormEquations), 2);
        assert_eq!(d.get(WorkKind::NormSolutions), 1);
        assert_eq!(d.get(WorkKind::ExactSyntheses), 0);
        assert_eq!(d.get(WorkKind::CacheProbes), 0);
        let sum: u64 = WorkKind::ALL.iter().map(|&k| d.get(k)).sum();
        assert_eq!(sum, 6, "no other kind moved");
    }

    #[test]
    fn counters_are_thread_local() {
        let start = snapshot();
        std::thread::scope(|s| {
            s.spawn(|| {
                add(WorkKind::ExactSyntheses, 100);
                let d = snapshot();
                assert!(d.get(WorkKind::ExactSyntheses) >= 100);
            });
        });
        // The other thread's work is invisible here.
        let d = snapshot().since(&start);
        assert_eq!(d.get(WorkKind::ExactSyntheses), 0);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = WorkSnapshot::default();
        let start = snapshot();
        add(WorkKind::CacheProbes, 4);
        let d = snapshot().since(&start);
        a.merge(&d);
        a.merge(&d);
        assert_eq!(a.get(WorkKind::CacheProbes), 8);
        a.add(WorkKind::CacheProbes, 2);
        assert_eq!(a.get(WorkKind::CacheProbes), 10);
        let sum: u64 = WorkKind::ALL.iter().map(|&k| a.get(k)).sum();
        assert_eq!(sum, 10);
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: Vec<&str> = WorkKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            [
                "grid_candidates",
                "norm_equations",
                "norm_solutions",
                "exact_syntheses",
                "cache_probes",
                "sample_draws",
                "closing_scores",
                "peephole_lookups"
            ]
        );
    }
}
