//! Step 0: enumerating the unique Clifford+T matrices per T budget.
//!
//! A breadth-first closure over "append one T, then any Clifford": by the
//! Matsumoto–Amano normal form, every matrix with `t+1` T gates is
//! `M_t · T · C` for some `t`-count matrix `M_t` and Clifford `C`, so the
//! sweep is complete. Deduplication uses the *exact* phase-canonical form
//! over `Z[ω, 1/√2]`, immune to floating-point ties. For duplicates we
//! keep the cheaper sequence (fewest T, then S, then H — paper §3.3).
//!
//! The finished table answers every query through its quaternions: an
//! [`S3Index`] over them (nearest entries, lookups of exact matrices) and
//! running sums of their quadratic monomials at every `BLOCK`-th entry
//! (block weights for the sampler's draws). Entries are far apart —
//! at least 2.3e-2 in unitary distance at `max_t` 6 — so a float product
//! of a few dozen gates (error ≲ 1e-14) identifies its entry by a radius
//! 1e-9 query, and [`UnitaryTable::lookup`] confirms it exactly.

use crate::mps::{in_window, monomials, quaternion, window_floor, ClosingForm, Planes};
use crate::s3index::S3Index;
use gates::clifford::clifford_elements;
use gates::{ExactMat2, Gate, GateSeq};
use qmath::Mat2;
use std::collections::HashMap;

/// Entries per block of the running monomial sums. Every level end
/// `24·(3·2^t − 2)` is a multiple, so every `up_to_t` slice is whole
/// blocks.
pub(crate) const BLOCK: usize = 8;

/// Radius of an exact-match query: far above the float error of a window
/// product and far below half the entries' minimum separation.
const MATCH_RADIUS: f64 = 1e-9;

/// One unique matrix in the step-0 table.
#[derive(Clone, Debug)]
pub struct TableEntry {
    /// Exact matrix of `seq` (not phase-canonicalized, so it matches the
    /// sequence's product exactly).
    pub exact: ExactMat2,
    /// Numeric matrix of `seq`.
    pub matrix: Mat2,
    /// The cheapest known gate sequence.
    pub seq: GateSeq,
    /// Exact number of T gates in the minimal representation.
    pub t_count: usize,
}

/// The step-0 enumeration result: every unique Clifford+T matrix with at
/// most `max_t` T gates, and the quaternion index every query goes
/// through.
///
/// ```
/// let table = trasyn::UnitaryTable::build(3);
/// // Paper §3.3: 24·(3·2^t − 2) unique matrices up to t T gates.
/// assert_eq!(table.len(), 24 * (3 * (1 << 3) - 2));
/// ```
#[derive(Clone, Debug)]
pub struct UnitaryTable {
    max_t: usize,
    entries: Vec<TableEntry>,
    /// First entry index with `t_count > t`, for each `t ≤ max_t`
    /// (entries are sorted by `t_count`).
    level_ends: Vec<usize>,
    /// `moments[b]` sums [`monomials`] over the entries before `b·BLOCK`.
    moments: Vec<[f64; 10]>,
    /// Each entry's unit quaternion ([`quaternion`]), in entry order,
    /// indexed on S³ up to sign.
    index: S3Index,
}

impl UnitaryTable {
    /// Runs the step-0 enumeration up to `max_t` T gates per matrix.
    ///
    /// Time and memory grow as `O(2^max_t)`; `max_t = 8` (≈18k matrices)
    /// builds in well under a second, `max_t = 12` (≈295k) in seconds. The
    /// exact `HashMap` that deduplicates the sweep is dropped at the end:
    /// lookups go through the S³ index.
    pub fn build(max_t: usize) -> Self {
        let cliffords = clifford_elements();
        let mut entries: Vec<TableEntry> = Vec::new();
        let mut seen: HashMap<ExactMat2, usize> = HashMap::new();

        // Level 0: the Clifford group itself.
        for c in cliffords {
            let exact = ExactMat2::from_seq(&c.seq);
            let key = exact.phase_canonical();
            let e = TableEntry {
                matrix: exact.to_mat2(),
                exact,
                seq: c.seq.clone(),
                t_count: 0,
            };
            seen.insert(key, entries.len());
            entries.push(e);
        }
        let mut level_ends = vec![entries.len()];

        // Right-factors "T then Clifford" shared by every level.
        let tc: Vec<(ExactMat2, GateSeq)> = cliffords
            .iter()
            .map(|c| {
                let mut seq = GateSeq::new();
                seq.push(Gate::T);
                seq.extend_seq(&c.seq);
                (ExactMat2::from_seq(&seq), seq)
            })
            .collect();

        let mut level_start = 0usize;
        for t in 1..=max_t {
            let level_end = entries.len();
            for i in level_start..level_end {
                if entries[i].t_count != t - 1 {
                    continue;
                }
                let (base_exact, base_seq) = (entries[i].exact, entries[i].seq.clone());
                for (f_exact, f_seq) in &tc {
                    let exact = base_exact * *f_exact;
                    let key = exact.phase_canonical();
                    let seq = base_seq.concat(f_seq);
                    match seen.get(&key) {
                        Some(&j) => {
                            if seq.cost() < entries[j].seq.cost() {
                                // Keep matrix and sequence consistent: the
                                // cheaper sequence's product differs from
                                // the stored one only by a global phase,
                                // but downstream code assumes exact match.
                                entries[j].exact = exact;
                                entries[j].matrix = exact.to_mat2();
                                entries[j].seq = seq;
                            }
                        }
                        None => {
                            seen.insert(key, entries.len());
                            entries.push(TableEntry {
                                matrix: exact.to_mat2(),
                                exact,
                                seq,
                                t_count: t,
                            });
                        }
                    }
                }
            }
            level_start = level_end;
            level_ends.push(entries.len());
        }

        let mut planes: [Vec<f64>; 4] = std::array::from_fn(|_| Vec::with_capacity(entries.len()));
        let mut moments = vec![[0.0; 10]];
        for block in entries.chunks(BLOCK) {
            let mut sum = *moments.last().expect("starts with zeros");
            for e in block {
                let x = quaternion(&e.matrix);
                for (plane, v) in planes.iter_mut().zip(x) {
                    plane.push(v);
                }
                for (acc, m) in sum.iter_mut().zip(monomials(x)) {
                    *acc += m;
                }
            }
            moments.push(sum);
        }
        UnitaryTable {
            max_t,
            entries,
            level_ends,
            moments,
            index: S3Index::new(planes),
        }
    }

    /// The per-matrix T budget this table was built for.
    #[inline]
    pub fn max_t(&self) -> usize {
        self.max_t
    }

    /// All entries, sorted by T count.
    #[inline]
    pub fn entries(&self) -> &[TableEntry] {
        &self.entries
    }

    /// Number of unique matrices (should be `24·(3·2^max_t − 2)`).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the table is empty (never for a built table).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The slice of entries with `t_count ≤ budget`
    /// (saturating at the table's own budget).
    pub fn up_to_t(&self, budget: usize) -> &[TableEntry] {
        let b = budget.min(self.max_t);
        &self.entries[..self.level_ends[b]]
    }

    /// The quaternions of the first `n` entries, as coordinate planes.
    pub(crate) fn planes(&self, n: usize) -> Planes<'_> {
        self.index.planes().map(|plane| &plane[..n])
    }

    /// The running monomial sums at the block boundaries of the first `n`
    /// entries (`n / BLOCK + 1` rows; `n` is a multiple of `BLOCK`).
    pub(crate) fn block_moments(&self, n: usize) -> &[[f64; 10]] {
        debug_assert_eq!(n % BLOCK, 0, "slices are whole blocks");
        &self.moments[..=n / BLOCK]
    }

    /// The entry whose quaternion is within `MATCH_RADIUS` of `m`'s up to
    /// sign, if any: the entry equal to `m` up to global phase, for any
    /// float product `m` of Clifford+T gates with a match in the table.
    pub(crate) fn find(&self, m: &Mat2) -> Option<usize> {
        let mut found = None;
        self.index
            .visit(quaternion(m), MATCH_RADIUS, |s| found = Some(s));
        found
    }

    /// Looks up the cheapest known sequence for an exact matrix (up to
    /// global phase). This is the step-3 equivalence table: the index
    /// proposes the entry, [`ExactMat2::phase_equivalent`] decides.
    pub fn lookup(&self, m: &ExactMat2) -> Option<&TableEntry> {
        let e = &self.entries[self.find(&m.to_mat2())?];
        e.exact.phase_equivalent(m).then_some(e)
    }

    /// Visits, among the first `n` entries, every entry whose closing score
    /// under `form` reaches the closing window below the running maximum
    /// `best`: `f(s, score)` for each, raising `best` as it goes. Returns
    /// how many scores it evaluated.
    ///
    /// The query radius comes from the floor below `best` on entry. With no
    /// maximum yet, the entries near `form`'s axis seed it first; with no
    /// usable radius, every entry is scored. `f` sees each entry at most
    /// once, and sees every entry at or above the final window floor of
    /// the running maximum: a floor never falls as the maximum grows.
    pub(crate) fn scan_window(
        &self,
        form: &ClosingForm,
        n: usize,
        best: &mut f64,
        mut f: impl FnMut(usize, f64),
    ) -> u64 {
        let planes = self.planes(n);
        let score = |s: usize| form.score(planes.map(|plane| plane[s]));
        let y = form.axis();
        let mut scored = 0u64;
        // Seed the running maximum from the entries near the axis.
        if *best == f64::NEG_INFINITY {
            self.index.visit(y, self.index.cell_side() / 2.0, |s| {
                if s < n {
                    scored += 1;
                    *best = best.max(score(s));
                }
            });
        }
        let radius = form.radius(y, window_floor(*best));
        let mut visit = |s: usize| {
            scored += 1;
            let v = score(s);
            *best = best.max(v);
            if in_window(v, window_floor(*best)) {
                f(s, v);
            }
        };
        match radius {
            // Below radius 1 the index visits each entry at most once.
            Some(d) if d < 1.0 => self.index.visit(y, d, |s| {
                if s < n {
                    visit(s);
                }
            }),
            _ => (0..n).for_each(visit),
        }
        scored
    }

    /// Best-match search: the entry within `budget` T gates whose matrix is
    /// closest to `u` by trace value, the last such entry on exact ties.
    /// This is the single-tensor ("lookup table") mode, optimal by
    /// construction.
    ///
    /// `|Tr(U†M)|² = |close(conj U, M)|²` is a closing score, so the search
    /// is a one-particle closing window; only the entries in the window
    /// are re-scored with `trace_value`.
    pub fn closest(&self, u: &Mat2, budget: usize) -> &TableEntry {
        let entries = self.up_to_t(budget);
        let form = ClosingForm::new(&u.adjoint().transpose());
        let mut best = f64::NEG_INFINITY;
        let mut window = Vec::new();
        let scored = self.scan_window(&form, entries.len(), &mut best, |s, v| window.push((s, v)));
        prof::work::add(prof::WorkKind::ClosingScores, scored);
        let floor = window_floor(best);
        window.retain(|&(_, v)| in_window(v, floor));
        window.sort_unstable_by_key(|&(s, _)| s);
        window
            .iter()
            .map(|&(s, _)| &entries[s])
            .max_by(|a, b| {
                qmath::distance::trace_value(u, &a.matrix)
                    .total_cmp(&qmath::distance::trace_value(u, &b.matrix))
            })
            .expect("the window holds the maximum")
    }
}

/// The shipped max_t 6 table, built once for the tests that need it.
#[cfg(test)]
pub(crate) fn table6() -> &'static UnitaryTable {
    static TABLE: std::sync::OnceLock<UnitaryTable> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| UnitaryTable::build(6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qmath::distance::{trace_value, unitary_distance};
    use std::sync::OnceLock;

    #[test]
    fn counts_match_theory() {
        // Paper §3.3 / Matsumoto–Amano: 24·(3·2^t − 2).
        for t in 0..=5usize {
            let table = UnitaryTable::build(t);
            assert_eq!(
                table.len(),
                24 * (3 * (1usize << t) - 2),
                "count mismatch at t={t}"
            );
        }
    }

    #[test]
    fn sequences_match_matrices() {
        let table = UnitaryTable::build(3);
        for e in table.entries() {
            assert!(
                e.exact.to_mat2().approx_eq(&e.seq.matrix(), 1e-9),
                "sequence {} does not reproduce its matrix",
                e.seq
            );
        }
    }

    #[test]
    fn t_counts_are_minimal() {
        // The sequence stored for each entry has exactly the level's T
        // count (a cheaper-T representation would contradict uniqueness of
        // the enumeration level).
        let table = UnitaryTable::build(4);
        for e in table.entries() {
            assert_eq!(e.seq.t_count(), e.t_count, "entry {}", e.seq);
        }
    }

    #[test]
    fn lookup_finds_equivalents() {
        let table = UnitaryTable::build(3);
        // T·T is equivalent to S: lookup of the exact product must return
        // a zero-T entry.
        let tt: GateSeq = [Gate::T, Gate::T].into_iter().collect();
        let found = table.lookup(&ExactMat2::from_seq(&tt)).unwrap();
        assert_eq!(found.t_count, 0);
    }

    #[test]
    fn closest_is_exhaustive_minimum() {
        let table = UnitaryTable::build(3);
        let u = Mat2::u3(0.5, 0.2, -0.9);
        let best = table.closest(&u, 3);
        let best_d = unitary_distance(&u, &best.matrix);
        for e in table.up_to_t(3) {
            assert!(unitary_distance(&u, &e.matrix) >= best_d - 1e-12);
        }
    }

    #[test]
    fn entries_are_far_apart() {
        // What makes radius-1e-9 lookups exact: no two entries of the
        // max_t 6 table within 2e-2 of each other (measured minimum
        // 2.30e-2), in unitary distance and in quaternion distance.
        let table = table6();
        let mut nearest = f64::INFINITY;
        for (s, e) in table.entries().iter().enumerate() {
            table.index.visit(table.index.point(s), 2e-2, |t| {
                if t != s {
                    nearest = nearest.min(unitary_distance(&e.matrix, &table.entries()[t].matrix));
                }
            });
        }
        assert_eq!(nearest, f64::INFINITY, "entries within 2e-2: {nearest}");
        let probe = table.entries()[1234].matrix;
        let d_min = table
            .entries()
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != 1234)
            .map(|(_, e)| unitary_distance(&probe, &e.matrix))
            .fold(f64::INFINITY, f64::min);
        assert!(d_min >= 2e-2, "{d_min}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The indexed search against the linear `max_by` it replaces, on
        /// Haar-like targets, exactly representable ones (ties) and
        /// slightly non-unitary ones, at every budget.
        #[test]
        fn closest_matches_linear_max_by(
            (theta, phi, lambda) in (0.0..3.2f64, -3.2..3.2f64, -3.2..3.2f64),
            word in prop::collection::vec(0usize..4, 0..20),
            squash in 0.9..1.1f64,
            budget in 0usize..7,
        ) {
            let table = table6();
            let gates = [Mat2::h(), Mat2::s(), Mat2::t(), Mat2::tdg()];
            let exact = word.iter().fold(Mat2::identity(), |m, &g| m * gates[g]);
            let mut skewed = Mat2::u3(theta, phi, lambda);
            skewed.e[0] = skewed.e[0].scale(squash);
            for u in [Mat2::u3(theta, phi, lambda), exact, skewed] {
                let linear = table
                    .up_to_t(budget)
                    .iter()
                    .max_by(|a, b| {
                        trace_value(&u, &a.matrix).total_cmp(&trace_value(&u, &b.matrix))
                    })
                    .unwrap();
                prop_assert!(std::ptr::eq(table.closest(&u, budget), linear));
            }
        }

        /// Indexed lookups against exact phase-canonical equality on every
        /// window of a random word: a window with at most 6 T gates is
        /// found as the entry equal to it up to phase, a longer one (T
        /// count above the table's) is found only if some entry equals it.
        #[test]
        fn lookup_matches_exact_equality_on_every_window(
            word in prop::collection::vec(0usize..8, 1..28),
        ) {
            static KEYS: OnceLock<HashMap<ExactMat2, usize>> = OnceLock::new();
            let table = table6();
            let keys = KEYS.get_or_init(|| {
                let entries = table.entries().iter().enumerate();
                entries.map(|(i, e)| (e.exact.phase_canonical(), i)).collect()
            });
            let gates: Vec<Gate> = word.iter().map(|&g| Gate::ALL[g]).collect();
            for start in 0..gates.len() {
                for end in start + 1..=gates.len() {
                    let window: GateSeq = gates[start..end].iter().copied().collect();
                    let exact = ExactMat2::from_seq(&window);
                    let want = keys.get(&exact.phase_canonical()).copied();
                    let got = table
                        .lookup(&exact)
                        .map(|e| e as *const TableEntry);
                    prop_assert_eq!(got, want.map(|i| &table.entries()[i] as *const TableEntry));
                    if window.t_count() <= table.max_t() {
                        prop_assert!(want.is_some(), "a window of T-count <= max_t is in the table");
                        prop_assert_eq!(table.find(&window.matrix()), want);
                    }
                }
            }
        }
    }

    #[test]
    fn up_to_t_filters_levels() {
        let table = UnitaryTable::build(3);
        assert_eq!(table.up_to_t(0).len(), 24);
        for e in table.up_to_t(2) {
            assert!(e.t_count <= 2);
        }
        // Budget beyond table saturates.
        assert_eq!(table.up_to_t(99).len(), table.len());
    }
}
