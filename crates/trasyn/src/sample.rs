//! Step 2: perfect sampling of gate sequences from the trace MPS.
//!
//! The joint distribution `p(s₁..s_l) ∝ |f(s₁..s_l)|²` factorizes through
//! the chain rule (paper Eq. 6); each conditional is computable locally
//! from the particle's bond state and the site's right environment. We
//! draw `k` samples in one left-to-right pass, keeping one *particle* per
//! distinct prefix with a multiplicity count (the paper's "multiple
//! indices at each distribution sampling").
//!
//! # The kernel
//!
//! Sampling starts from one root particle holding all `k` draws and the
//! bond state `conj(U)`. At every site but the last, each particle builds
//! one `SiteForm` from its bond state and the site's right environment and
//! draws its children without scoring the whole site: the form's 10
//! coefficients dotted with the table's running monomial sums give the
//! running weight at every `BLOCK`-th entry, a binary search over those
//! finds the block a uniform variate falls in, and a scan of at most
//! `BLOCK` entries with the per-entry weight finds the entry. Bond states
//! ([`advance`]) are computed only for the children drawn.
//! [`sample_sequences`] and [`sample_best`] share this one propagation and
//! differ only at the last site: the former draws from `ClosingForm`
//! scores the same way, the latter takes their argmax.
//!
//! The argmax closing never scans the table either. Its score is
//! `4(y·x)²` for the particle's direction `y`, so the entries that can
//! beat a score threshold lie in a ball around `±y` on S³. The particles
//! go in order with a running best score; each one queries the table's
//! [`crate::s3index`] at the closing window's floor below that best
//! (`UnitaryTable::scan_window`), and only the first needs a seed query
//! to find a best at all.
//!
//! # Why the outputs equal the complex reference's
//!
//! The forms equal `quad(E, vec4(advance(V, M)))` and `|close(V, M)|²` to
//! rounding, not bit for bit, and a block's weight from its moments equals
//! the sum of its entries' weights to rounding. Bond states and returned
//! traces are still computed with [`advance`] and [`close`], so they are
//! bitwise the reference's, and the RNG is consumed exactly as the
//! reference consumes it. A weight's rounding can move a draw only if the
//! uniform variate lands within ~1e-13 (relative) of a running-sum
//! boundary; the golden corpus in `tests/`, recorded from the per-entry
//! reference, pins that this does not happen on its targets. The argmax
//! closing cannot drift at all. The running floor never exceeds the final
//! one, so the queries see every candidate scoring within
//! `1e-9·max(1, best)` of the best; each is re-scored exactly, and the
//! winner is picked by the reference's tie rule over the candidates in
//! the reference's order — the last maximal index within a particle, the
//! first particle across particles.

use crate::enumerate::{TableEntry, UnitaryTable, BLOCK};
use crate::mps::{
    advance, close, in_window, window_floor, ClosingForm, Planes, SiteForm, TraceMps,
};
use prof::WorkKind;
use qmath::{Complex64, Mat2};
use rand::Rng;

/// One complete sample: the per-site table indices and the exact trace
/// inner product `Tr(U†·∏M)` it carries.
#[derive(Clone, Debug)]
pub struct SampleOutcome {
    /// Chosen table index at each site.
    pub indices: Vec<usize>,
    /// The complex trace `Tr(U†V)`; `|trace|/2` is the trace value.
    pub trace: Complex64,
    /// Number of identical draws that produced this outcome.
    pub multiplicity: usize,
}

impl SampleOutcome {
    /// The unitary distance `sqrt(1 − |Tr|²/4)` this sample achieves.
    pub fn error(&self) -> f64 {
        let t = (self.trace.abs() / 2.0).min(1.0);
        (1.0 - t * t).max(0.0).sqrt()
    }
}

/// The particles entering one site: one per distinct drawn prefix.
#[derive(Default)]
struct Particles {
    states: Vec<Mat2>,
    counts: Vec<usize>,
    /// `depth` table indices per particle, concatenated.
    indices: Vec<usize>,
    depth: usize,
}

impl Particles {
    fn len(&self) -> usize {
        self.counts.len()
    }

    fn prefix(&self, p: usize) -> &[usize] {
        &self.indices[p * self.depth..(p + 1) * self.depth]
    }

    /// Particle `p` closed on last-site index `s`.
    fn outcome(&self, p: usize, s: usize, trace: Complex64, multiplicity: usize) -> SampleOutcome {
        let mut indices = Vec::with_capacity(self.depth + 1);
        indices.extend_from_slice(self.prefix(p));
        indices.push(s);
        SampleOutcome {
            indices,
            trace,
            multiplicity,
        }
    }
}

/// Propagates `k` draws through every site but the last and returns the
/// particles entering the last site (for a one-site chain, the root).
/// `drawn` is the draws' scratch buffer.
fn propagate<R: Rng + ?Sized>(
    mps: &TraceMps<'_>,
    target: &Mat2,
    k: usize,
    rng: &mut R,
    drawn: &mut Vec<usize>,
) -> Particles {
    let mut particles = Particles {
        states: vec![target.adjoint().transpose()],
        counts: vec![k],
        ..Particles::default()
    };
    let mut next = Particles::default();
    for i in 0..mps.len() - 1 {
        let site = mps.sites[i];
        let (planes, moments) = (mps.planes(i), mps.table.block_moments(site.len()));
        next.states.clear();
        next.counts.clear();
        next.indices.clear();
        next.depth = i + 1;
        for p in 0..particles.len() {
            let state = particles.states[p];
            let form = SiteForm::new(&mps.env[i + 1], &state);
            draw_weighted(
                planes,
                moments,
                form.coefficients(),
                |x| form.weight(x),
                particles.counts[p],
                rng,
                drawn,
            );
            for (s, count) in runs(drawn) {
                next.states.push(advance(&state, &site[s].matrix));
                next.counts.push(count);
                next.indices.extend_from_slice(particles.prefix(p));
                next.indices.push(s);
            }
        }
        std::mem::swap(&mut particles, &mut next);
    }
    particles
}

/// The exact trace `Tr(U†·∏M)` of a particle closing on `m`, computed
/// exactly as the reference does: a one-site chain has no bond state yet
/// and takes `Tr(U†·M)` directly.
fn closing_trace(mps: &TraceMps<'_>, target: &Mat2, state: &Mat2, m: &Mat2) -> Complex64 {
    if mps.len() == 1 {
        (target.adjoint() * *m).trace()
    } else {
        close(state, m)
    }
}

/// Draws `k` sequences from `p ∝ |Tr(U†·∏Mᵢ[sᵢ])|²` (paper step 2).
///
/// Returns the distinct outcomes with multiplicities; the weights the
/// sampler uses are *exact* marginals thanks to the right environments,
/// so this is perfect (not approximate/Markov-chain) sampling.
pub fn sample_sequences<R: Rng + ?Sized>(
    mps: &TraceMps<'_>,
    target: &Mat2,
    k: usize,
    rng: &mut R,
) -> Vec<SampleOutcome> {
    assert!(k > 0, "need at least one sample");
    let mut drawn = Vec::new();
    let particles = propagate(mps, target, k, rng, &mut drawn);
    let l = mps.len();
    let last = mps.sites[l - 1];
    let (planes, moments) = (mps.planes(l - 1), mps.table.block_moments(last.len()));
    let mut out = Vec::new();
    for p in 0..particles.len() {
        let state = &particles.states[p];
        let form = ClosingForm::new(state);
        draw_weighted(
            planes,
            moments,
            &form.coefficients(),
            |x| form.score(x),
            particles.counts[p],
            rng,
            &mut drawn,
        );
        for (s, count) in runs(&drawn) {
            let trace = closing_trace(mps, target, state, &last[s].matrix);
            out.push(particles.outcome(p, s, trace, count));
        }
    }
    prof::work::add(WorkKind::SampleDraws, (k * l) as u64);
    out
}

/// Best-first sampling: propagates particles by sampling the *internal*
/// sites from the exact marginals, but closes the last site with the
/// argmax of `|trace|` over all choices (the paper's "each sample comes
/// with its error for free"). Returns the single best outcome over all
/// particles.
///
/// This is what the synthesis driver uses: pure `p ∝ |f|²` sampling only
/// biases ~4× toward exact matches (the trace value is bounded), while
/// the argmax closing effectively searches `particles × N_last` candidates.
pub fn sample_best<R: Rng + ?Sized>(
    mps: &TraceMps<'_>,
    target: &Mat2,
    k: usize,
    rng: &mut R,
) -> SampleOutcome {
    let l = mps.len();
    let particles = propagate(mps, target, k, rng, &mut Vec::new());
    let ((p, s, trace), scored) = argmax_closing(
        mps.table,
        &particles.states,
        mps.sites[l - 1],
        |state, m| closing_trace(mps, target, state, m),
    );
    prof::work::add(WorkKind::SampleDraws, (k * (l - 1)) as u64);
    prof::work::add(WorkKind::ClosingScores, scored);
    // A one-site chain is an exhaustive scan: no draws precede it.
    let multiplicity = if l == 1 { 1 } else { particles.counts[p] };
    particles.outcome(p, s, trace, multiplicity)
}

/// The argmax closing over `states × last` (`last` a prefix of `table`):
/// returns the particle, the last-site index and the exact trace
/// maximizing `|trace|`, plus the number of closing scores evaluated.
///
/// Each particle's [`UnitaryTable::scan_window`] collects the entries
/// that can reach the closing window; every candidate within
/// the window of the final best is then re-scored with `trace` (the exact
/// closing) in particle-then-index order, and the winner is the
/// reference's: the last maximal index within a particle, the first
/// maximal particle across particles.
fn argmax_closing(
    table: &UnitaryTable,
    states: &[Mat2],
    last: &[TableEntry],
    trace: impl Fn(&Mat2, &Mat2) -> Complex64,
) -> ((usize, usize, Complex64), u64) {
    let mut best = f64::NEG_INFINITY;
    let mut window = Vec::new();
    let mut scored = 0;
    for (p, state) in states.iter().enumerate() {
        let form = ClosingForm::new(state);
        scored += table.scan_window(&form, last.len(), &mut best, |s, v| window.push((p, s, v)));
    }
    let floor = window_floor(best);
    window.retain(|&(_, _, v)| in_window(v, floor));
    window.sort_unstable_by_key(|&(p, s, _)| (p, s));
    let mut winner: Option<(usize, usize, Complex64)> = None;
    for &(p, s, _) in &window {
        let f = trace(&states[p], &last[s].matrix);
        let take = winner.is_none_or(|(wp, _, wf)| {
            let (v, w) = (f.norm_sqr(), wf.norm_sqr());
            v > w || (v == w && p == wp)
        });
        if take {
            winner = Some((p, s, f));
        }
    }
    (winner.expect("at least one particle"), scored)
}

/// Draws `count` entries of a site with probability ∝ `weight`, as
/// [`multinomial`] over the entries' running weight sums would, without
/// computing those sums: `coefficients` (the weight as a quadratic form,
/// see [`crate::mps::monomials`]) dotted with the table's block moments
/// give the running sum at every block boundary, a binary search finds
/// the block a variate falls in, and a scan of the block's entries with
/// `weight`, clamped at 0 like the running sums, finds the entry.
fn draw_weighted<R: Rng + ?Sized>(
    planes: Planes<'_>,
    moments: &[[f64; 10]],
    coefficients: &[f64; 10],
    weight: impl Fn([f64; 4]) -> f64,
    count: usize,
    rng: &mut R,
    drawn: &mut Vec<usize>,
) {
    let n = planes[0].len();
    let blocks = moments.len() - 1;
    let below = |m: &[f64; 10]| coefficients.iter().zip(m).map(|(c, m)| c * m).sum::<f64>();
    multinomial(n, below(&moments[blocks]), count, rng, drawn, |x| {
        let b = moments[1..blocks].partition_point(|m| below(m) <= x);
        let mut running = below(&moments[b]);
        for s in b * BLOCK..n {
            running += weight(planes.map(|plane| plane[s])).max(0.0);
            if running > x {
                return s;
            }
        }
        n - 1
    });
}

/// Draws `count` multinomial samples over `n` indices whose non-negative
/// weights sum to `total` into `drawn`, sorted by index: each uniform
/// variate in `[0, total)` goes to `locate`, which returns the index whose
/// running sum first exceeds it. Zero or non-finite totals fall back to
/// uniform draws.
///
/// Indices are drawn in RNG order, then sorted, so on both branches the
/// [`runs`] — and hence particle order and every later draw — depend on
/// nothing but the seed.
fn multinomial<R: Rng + ?Sized>(
    n: usize,
    total: f64,
    count: usize,
    rng: &mut R,
    drawn: &mut Vec<usize>,
    locate: impl Fn(f64) -> usize,
) {
    drawn.clear();
    if !total.is_finite() || total <= 0.0 {
        drawn.extend((0..count).map(|_| rng.gen_range(0..n)));
    } else {
        drawn.extend((0..count).map(|_| locate(rng.gen_range(0.0..total))));
    }
    drawn.sort_unstable();
}

/// `(index, times_drawn)` pairs of sorted draws, by index.
fn runs(drawn: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
    drawn.chunk_by(|a, b| a == b).map(|run| (run[0], run.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{table6, UnitaryTable};
    use proptest::prelude::*;
    use qmath::distance::unitary_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The reference draw: a binary search over every entry's running sum.
    fn prefix_draws(prefix: &[f64], count: usize, rng: &mut StdRng, drawn: &mut Vec<usize>) {
        let n = prefix.len();
        let total = prefix.last().copied().unwrap_or(0.0);
        multinomial(n, total, count, rng, drawn, |x| {
            prefix.partition_point(|&p| p <= x).min(n - 1)
        });
    }

    fn running_sums(weights: impl Iterator<Item = f64>) -> Vec<f64> {
        weights
            .scan(0.0, |total, w| {
                *total += w.max(0.0);
                Some(*total)
            })
            .collect()
    }

    fn draws(weights: &[f64], count: usize, seed: u64) -> Vec<(usize, usize)> {
        let prefix = running_sums(weights.iter().copied());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut drawn = Vec::new();
        prefix_draws(&prefix, count, &mut rng, &mut drawn);
        runs(&drawn).collect()
    }

    #[test]
    fn multinomial_counts_sum() {
        let draws = draws(&[0.1, 0.5, 0.0, 0.4], 1000, 3);
        let total: usize = draws.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 1000);
        // Index 2 has zero weight: never drawn.
        assert!(draws.iter().all(|&(i, _)| i != 2));
    }

    #[test]
    fn multinomial_tracks_distribution() {
        let draws = draws(&[1.0, 3.0], 40_000, 4);
        let c1 = draws.iter().find(|&&(i, _)| i == 1).map_or(0, |&(_, c)| c);
        let frac = c1 as f64 / 40_000.0;
        assert!((frac - 0.75).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn multinomial_degenerate_weights_are_sorted_and_deterministic() {
        // All-zero weights take the uniform fallback, which must still
        // return index-sorted pairs and the same pairs on every call.
        let a = draws(&[0.0; 37], 500, 5);
        let b = draws(&[0.0; 37], 500, 5);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0), "pairs not sorted");
        assert_eq!(a.iter().map(|&(_, c)| c).sum::<usize>(), 500);
    }

    #[test]
    fn samples_carry_exact_traces() {
        let table = UnitaryTable::build(2);
        let mps = TraceMps::new(&table, &[2, 2]);
        let u = Mat2::u3(0.8, -0.2, 1.1);
        let mut rng = StdRng::seed_from_u64(5);
        let outcomes = sample_sequences(&mps, &u, 64, &mut rng);
        let total: usize = outcomes.iter().map(|o| o.multiplicity).sum();
        assert_eq!(total, 64);
        for o in &outcomes {
            let prod = mps.sites[0][o.indices[0]].matrix * mps.sites[1][o.indices[1]].matrix;
            let want = (u.adjoint() * prod).trace();
            assert!(o.trace.approx_eq(want, 1e-9), "trace mismatch");
            // error() agrees with the distance metric.
            assert!((o.error() - unitary_distance(&u, &prod)).abs() < 1e-9);
        }
    }

    #[test]
    fn sampling_prefers_high_trace_sequences() {
        // Target an exactly-representable matrix: T. The sampler should
        // overwhelmingly land on sequences equal to T up to phase.
        let table = UnitaryTable::build(1);
        let mps = TraceMps::new(&table, &[1, 1]);
        let u = Mat2::t();
        let mut rng = StdRng::seed_from_u64(6);
        let outcomes = sample_sequences(&mps, &u, 512, &mut rng);
        let exact_hits: usize = outcomes
            .iter()
            .filter(|o| o.error() < 1e-6)
            .map(|o| o.multiplicity)
            .sum();
        // Exact sequences have the maximal weight |f|² = 4 against a mean
        // of E|Tr|² = 1, i.e. a 4x over-representation of their ~1%
        // population share (96 exact pairs of 9216): expect ≈ 4%·512 ≈ 20.
        assert!(
            exact_hits >= 8,
            "only {exact_hits}/512 samples found the exact target"
        );
        let best = outcomes
            .iter()
            .min_by(|a, b| a.error().total_cmp(&b.error()))
            .unwrap();
        assert!(best.error() < 1e-6, "best sample must be exact");
    }

    #[test]
    fn single_site_sampling_is_lookup_like() {
        let table = UnitaryTable::build(2);
        let mps = TraceMps::new(&table, &[2]);
        let u = Mat2::u3(0.3, 0.9, -0.7);
        let mut rng = StdRng::seed_from_u64(7);
        let outcomes = sample_sequences(&mps, &u, 256, &mut rng);
        let best = outcomes
            .iter()
            .min_by(|a, b| a.error().total_cmp(&b.error()))
            .unwrap();
        // Exhaustive optimum for comparison.
        let opt = table.closest(&u, 2);
        let opt_err = unitary_distance(&u, &opt.matrix);
        assert!(best.error() <= opt_err + 0.1, "sampler far from optimum");
    }

    #[test]
    fn three_site_chain_samples() {
        let table = UnitaryTable::build(1);
        let mps = TraceMps::new(&table, &[1, 1, 1]);
        let u = Mat2::u3(1.2, 0.4, 0.9);
        let mut rng = StdRng::seed_from_u64(8);
        let outcomes = sample_sequences(&mps, &u, 128, &mut rng);
        for o in &outcomes {
            assert_eq!(o.indices.len(), 3);
            let prod = mps.sites[0][o.indices[0]].matrix
                * mps.sites[1][o.indices[1]].matrix
                * mps.sites[2][o.indices[2]].matrix;
            let want = (u.adjoint() * prod).trace();
            assert!(o.trace.approx_eq(want, 1e-9));
        }
    }

    /// The argmax closing as the per-entry reference computes it: `close`
    /// for every pair, `max_by` (last maximal index) within a particle,
    /// strict improvement (first maximal particle) across particles.
    fn reference_argmax(states: &[Mat2], last: &[TableEntry]) -> (usize, usize, Complex64) {
        let mut best: Option<(usize, usize, Complex64)> = None;
        for (p, v) in states.iter().enumerate() {
            let (s, f) = last
                .iter()
                .enumerate()
                .map(|(s, e)| (s, close(v, &e.matrix)))
                .max_by(|a, b| a.1.norm_sqr().total_cmp(&b.1.norm_sqr()))
                .unwrap();
            if best.is_none_or(|(_, _, b)| f.norm_sqr() > b.norm_sqr()) {
                best = Some((p, s, f));
            }
        }
        best.unwrap()
    }

    /// The closing over `table.up_to_t(budget)` against the reference.
    fn assert_same_argmax(
        states: &[Mat2],
        table: &UnitaryTable,
        budget: usize,
    ) -> Result<(), prop::TestCaseError> {
        let last = table.up_to_t(budget);
        let (got, scored) = argmax_closing(table, states, last, close);
        let want = reference_argmax(states, last);
        prop_assert_eq!((got.0, got.1), (want.0, want.1));
        prop_assert_eq!(got.2.re.to_bits(), want.2.re.to_bits());
        prop_assert_eq!(got.2.im.to_bits(), want.2.im.to_bits());
        prop_assert!(scored > 0);
        Ok(())
    }

    /// Bond states one exact entry away from an exactly representable
    /// target (a word over H, S, T, T†), every state twice: the maximum
    /// always ties across particles, and often within one.
    fn tie_heavy_states(word: &[usize], picks: &[usize], table: &UnitaryTable) -> Vec<Mat2> {
        let gates = [Mat2::h(), Mat2::s(), Mat2::t(), Mat2::t().adjoint()];
        let target = word.iter().fold(Mat2::identity(), |m, &g| m * gates[g]);
        let root = target.adjoint().transpose();
        let mut states: Vec<Mat2> = picks
            .iter()
            .map(|&a| advance(&root, &table.entries()[a % table.len()].matrix))
            .collect();
        states.extend_from_within(..);
        states
    }

    /// A Hermitian positive semi-definite environment that is not a
    /// multiple of the identity: `Σ vec(U)·vec(U)†` over three unitaries.
    fn lopsided_environment(us: &[Mat2]) -> crate::mps::Env4 {
        let mut e = [[Complex64::ZERO; 4]; 4];
        for u in us {
            for (row, up) in e.iter_mut().zip(u.e) {
                for (cell, uq) in row.iter_mut().zip(u.e) {
                    *cell += up * uq.conj();
                }
            }
        }
        e
    }

    /// Block-moment draws against running-sum draws of the same per-entry
    /// weights: equal draws, and the RNG left at the same word.
    fn assert_same_draws(
        n: usize,
        coefficients: &[f64; 10],
        weight: impl Fn([f64; 4]) -> f64,
        count: usize,
        seed: u64,
    ) -> Result<(), prop::TestCaseError> {
        let table = table6();
        let planes = table.planes(n);
        let prefix = running_sums((0..n).map(|s| weight(planes.map(|plane| plane[s]))));
        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let (mut got, mut want) = (Vec::new(), Vec::new());
        draw_weighted(
            planes,
            table.block_moments(n),
            coefficients,
            &weight,
            count,
            &mut a,
            &mut got,
        );
        prefix_draws(&prefix, count, &mut b, &mut want);
        prop_assert_eq!(got, want);
        prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        Ok(())
    }

    fn unitary() -> impl Strategy<Value = Mat2> {
        (
            0.0..std::f64::consts::PI,
            -3.2..3.2f64,
            -3.2..3.2f64,
            -3.2..3.2f64,
        )
            .prop_map(|(t, p, l, a)| Mat2::u3(t, p, l).scale(Complex64::cis(a)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Identity (b) on generic bond states: the window holds the
        /// reference argmax, so the closing picks exactly its winner.
        #[test]
        fn closing_window_holds_reference_argmax(
            states in prop::collection::vec(unitary(), 1..12),
        ) {
            let table = UnitaryTable::build(3);
            assert_same_argmax(&states, &table, 3)?;
        }

        /// Identity (b) where ties abound: many (particle, entry) pairs
        /// tie at the maximum and below it.
        #[test]
        fn closing_window_keeps_tie_rule_on_exact_targets(
            word in prop::collection::vec(0usize..4, 0..16),
            picks in prop::collection::vec(0usize..528, 1..12),
        ) {
            let table = UnitaryTable::build(3);
            assert_same_argmax(&tie_heavy_states(&word, &picks, &table), &table, 3)?;
        }

        /// The indexed closing on the shipped table, over the whole table
        /// and over a prefix slice (where the index also holds entries
        /// the closing must skip), for generic and tie-heavy states.
        #[test]
        fn indexed_closing_matches_reference_at_max_t_6(
            states in prop::collection::vec(unitary(), 1..24),
            word in prop::collection::vec(0usize..4, 0..24),
            picks in prop::collection::vec(0usize..4560, 1..12),
            budget in 2usize..7,
        ) {
            let table = table6();
            assert_same_argmax(&states, table, 6)?;
            assert_same_argmax(&states, table, budget)?;
            let ties = tie_heavy_states(&word, &picks, table);
            assert_same_argmax(&ties, table, 6)?;
            assert_same_argmax(&ties, table, budget)?;
        }

        /// Block-moment draws against running-sum draws on a middle
        /// site's form (the shipped closed-form environment and a
        /// lopsided one) and on a closing form, at several slice sizes.
        #[test]
        fn block_draws_match_running_sum_draws(
            v in unitary(),
            others in prop::collection::vec(unitary(), 3),
            budget in 0usize..7,
            seed in 0u64..1 << 32,
        ) {
            let n = table6().up_to_t(budget).len();
            let mps = TraceMps::new(table6(), &[budget, budget]);
            for env in [mps.env[1], lopsided_environment(&others)] {
                let form = SiteForm::new(&env, &v);
                assert_same_draws(n, form.coefficients(), |x| form.weight(x), 300, seed)?;
            }
            let closing = ClosingForm::new(&v);
            assert_same_draws(n, &closing.coefficients(), |x| closing.score(x), 300, seed)?;
        }
    }
}
