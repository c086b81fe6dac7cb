//! Step 1: the trace-value MPS, and the SU(2) form the sampler scores
//! closing entries with.
//!
//! For sequence choices `s₁..s_l` over per-site tables `Mᵢ[sᵢ]`, the trace
//! tensor is `f(s₁..s_l) = Tr(U†·M₁[s₁]⋯M_l[s_l])`. Absorbing `U†` into
//! site 1 and carrying the dangling matrix-index pair as a 4-dim bond
//! turns the trace loop into an open chain of bond dimension 4 (the paper
//! does the same by shifting the target's index with SVDs).
//!
//! Representing the bond state as a 2×2 matrix `V` (indices `(a, z)` =
//! current column index × trace closing index):
//!
//! * before site 1: `V = conj(U)`, so site 1 gives `M₁ᵀ·conj(U) = (U†·M₁)ᵀ`;
//! * every site but the last: `V ← Mᵢ[sᵢ]ᵀ · V` ([`advance`]);
//! * last site: `f = Σ_{a,z} V_{a,z} · M_l[s_l]_{a,z}` ([`close`]).
//!
//! # Marginals are uniform before the last site
//!
//! Perfect sampling needs the marginals `Σ_rest |f|²`. They are quadratic
//! forms `vec(V)†·E·vec(V)` in the bond state, with *right environment*
//! matrices `E_i = Σ_{sᵢ₊₁..s_l} r·r†` (what the paper's canonical form
//! makes the identity). Every site draws from a slice `up_to_t(b)`, which
//! is closed under multiplication by Cliffords, and the Clifford group is
//! a unitary 2-design. So each slice averages like Haar measure to second
//! order: `Σ_s vec(M_s)·vec(M_s)† = (n/2)·I` over `n` entries, and the map
//! `vec(V) ↦ vec(MᵀV)` is unitary. The environments are therefore scaled
//! identities, `E_last = (n_last/2)·I` and `E_i = n_{i+1}·E_{i+1}`, and a
//! site's marginal `c·‖MᵀV‖² = c·‖V‖²` is the same for every entry of
//! every site but the last. The sampler draws those sites uniformly
//! ([`crate::sample`]); only the last site's score depends on the entry,
//! so the MPS stores no environments at all. The tests keep the direct
//! sums over the table as references.
//!
//! # SU(2) coordinates
//!
//! `advance` and `close` are the reference definitions; the sampler scores
//! closing entries in real coordinates. Every table matrix is a unit
//! quaternion `x` up to phase (`quaternion`):
//! `M = e^{iφ}·Σₖ xₖ·Bₖ` with `B = {I, diag(i,−i), [[0,1],[−1,0]],
//! [[0,i],[i,0]]}`. The closing score is invariant under the phase and
//! quadratic in `x`, so per bond state it collapses to a small real form
//! built once per particle instead of once per entry: `ClosingForm`,
//! `|close(V, M)|² = (Re a·x)² + (Im a·x)²` with
//! `a = (V₀+V₃, i(V₀−V₃), V₁−V₂, i(V₁+V₂))`, two real dot products.
//!
//! The score is a quadratic form in `x`, so it is also 10 coefficients
//! against the 10 monomials `xᵢxⱼ` (`monomials`): dotted with a table
//! block's summed monomials, they give the block's total score without
//! touching its entries, which is how `sample_sequences` draws its last
//! site. For a unitary bond state, `a = 2·e^{iψ}·y` with `y` a real unit
//! quaternion, so the closing score is `4(y·x)²` and its maximum is a
//! nearest-neighbour query on S³ up to sign ([`crate::s3index`]);
//! `ClosingForm::radius` turns a score threshold into a query radius.
//!
//! The form agrees with the reference to rounding (~1e-15 relative), not
//! bit for bit; see [`crate::sample`] for why the sampler's outputs are
//! nevertheless unchanged.

use crate::enumerate::{TableEntry, UnitaryTable};
use qmath::{Complex64, Mat2};

/// Unit quaternions of a run of table entries as four coordinate planes
/// (structure of arrays): entry `s` is `[x[0][s], x[1][s], x[2][s], x[3][s]]`.
pub(crate) type Planes<'t> = [&'t [f64]; 4];

/// The site structure of a trace MPS: which table slice each site draws
/// from. Its environments are scaled identities (module docs), so there is
/// nothing else to store.
pub struct TraceMps<'t> {
    /// Per-site matrix tables (slices of the step-0 table).
    pub sites: Vec<&'t [TableEntry]>,
    /// The table the slices come from: its quaternion planes, block
    /// moments and S³ index are what the sampler reads.
    pub(crate) table: &'t UnitaryTable,
}

/// Bond-state update: `V ← Mᵀ·V`.
#[inline]
pub fn advance(v: &Mat2, m: &Mat2) -> Mat2 {
    m.transpose() * *v
}

/// Closing contraction at the last site: `f = Σ_{a,z} V_{a,z}·M_{a,z}`.
#[inline]
pub fn close(v: &Mat2, m: &Mat2) -> Complex64 {
    let mut acc = Complex64::ZERO;
    for p in 0..4 {
        acc += v.e[p] * m.e[p];
    }
    acc
}

/// The unit quaternion `x` of a unitary `m` up to its global phase:
/// `m = e^{iφ}·[[x₀+ix₁, x₂+ix₃], [−x₂+ix₃, x₀−ix₁]]`.
///
/// `x` is fixed up to sign (the phase is fixed up to π); the sign is
/// chosen so the largest coordinate is positive.
pub(crate) fn quaternion(m: &Mat2) -> [f64; 4] {
    let [m0, m1, m2, m3] = m.e;
    // c_k = e^{iφ}·x_k.
    let c = [
        (m0 + m3).scale(0.5),
        times_minus_i(m0 - m3).scale(0.5),
        (m1 - m2).scale(0.5),
        times_minus_i(m1 + m2).scale(0.5),
    ];
    let big = c
        .iter()
        .copied()
        .max_by(|a, b| a.norm_sqr().total_cmp(&b.norm_sqr()))
        .expect("four coordinates");
    let unphase = big.conj().scale(1.0 / big.abs());
    c.map(|ck| (ck * unphase).re)
}

#[inline]
fn times_i(z: Complex64) -> Complex64 {
    Complex64::new(-z.im, z.re)
}

#[inline]
fn times_minus_i(z: Complex64) -> Complex64 {
    Complex64::new(z.im, -z.re)
}

/// The 10 quadratic monomials of `x` in the order
/// [`ClosingForm::coefficients`] uses:
/// `[x₀², x₀x₁, x₀x₂, x₀x₃, x₁², x₁x₂, x₁x₃, x₂², x₂x₃, x₃²]`.
pub(crate) fn monomials([x0, x1, x2, x3]: [f64; 4]) -> [f64; 10] {
    [
        x0 * x0,
        x0 * x1,
        x0 * x2,
        x0 * x3,
        x1 * x1,
        x1 * x2,
        x1 * x3,
        x2 * x2,
        x2 * x3,
        x3 * x3,
    ]
}

/// Width of the argmax closing's exact re-scoring window, relative to
/// `max(1, best)`: far wider than the form's ~1e-15 rounding, so the
/// reference's maximum always falls inside, and narrow enough to hold
/// only exact ties and near-ties.
const CLOSING_WINDOW: f64 = 1e-9;

/// The lowest form score inside the closing window below `best`. It grows
/// with `best`, so a floor taken from a running maximum never exceeds the
/// final one.
pub(crate) fn window_floor(best: f64) -> f64 {
    best - CLOSING_WINDOW * best.max(1.0)
}

/// `true` unless `score` is below `floor`: the reference's test, under
/// which a NaN score stays in the window.
pub(crate) fn in_window(score: f64, floor: f64) -> bool {
    score.partial_cmp(&floor) != Some(std::cmp::Ordering::Less)
}

/// Rounding slack of [`ClosingForm::radius`], in units of `|ŷ·x|` and of
/// chordal distance: far above the ~1e-15 error of the form and the
/// quaternions, far below any gap the radius separates.
const RADIUS_SLACK: f64 = 1e-9;

/// A particle's closing scores as two real dot products:
/// [`ClosingForm::score`]`(x)` is `|close(V, M)|²` for the entry `M` with
/// quaternion `x`.
pub(crate) struct ClosingForm {
    re: [f64; 4],
    im: [f64; 4],
}

impl ClosingForm {
    /// Builds `a = (V₀+V₃, i(V₀−V₃), V₁−V₂, i(V₁+V₂))` from bond state `v`,
    /// so that `close(V, M) = e^{iφ}·(a·x)`.
    pub fn new(v: &Mat2) -> Self {
        let [v0, v1, v2, v3] = v.e;
        let a = [v0 + v3, times_i(v0 - v3), v1 - v2, times_i(v1 + v2)];
        ClosingForm {
            re: a.map(|z| z.re),
            im: a.map(|z| z.im),
        }
    }

    /// `(Re a·x)² + (Im a·x)²`: 10 multiplies and 7 adds.
    #[inline]
    pub fn score(&self, [x0, x1, x2, x3]: [f64; 4]) -> f64 {
        let (r, i) = (&self.re, &self.im);
        let re = r[0] * x0 + r[1] * x1 + r[2] * x2 + r[3] * x3;
        let im = i[0] * x0 + i[1] * x1 + i[2] * x2 + i[3] * x3;
        re * re + im * im
    }

    /// The score against [`monomials`]: `score(x) = c·monomials(x)` up to
    /// rounding, with `c` the upper triangle of `Re a·aᵀ + Im a·Im aᵀ`,
    /// off-diagonal terms doubled.
    pub fn coefficients(&self) -> [f64; 10] {
        let (r, i) = (&self.re, &self.im);
        let mut c = [0.0; 10];
        let mut next = 0;
        for j in 0..4 {
            for k in j..4 {
                let v = r[j] * r[k] + i[j] * i[k];
                c[next] = if j == k { v } else { 2.0 * v };
                next += 1;
            }
        }
        c
    }

    /// The real unit direction `ŷ` of `a` (a unit quaternion, up to sign):
    /// `a` with the phase of its largest coordinate removed, real part,
    /// normalized. For a unitary bond state `a = 2·e^{iψ}·ŷ` to rounding.
    pub fn axis(&self) -> [f64; 4] {
        let (r, i) = (&self.re, &self.im);
        let big = (0..4)
            .max_by(|&j, &k| (r[j] * r[j] + i[j] * i[j]).total_cmp(&(r[k] * r[k] + i[k] * i[k])))
            .expect("four coordinates");
        // Re(a·e^{−iψ}) up to the positive factor |a_big|.
        let y: [f64; 4] = std::array::from_fn(|k| r[k] * r[big] + i[k] * i[big]);
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        y.map(|v| v / norm)
    }

    /// A chordal radius around `±y` (`y` from [`ClosingForm::axis`])
    /// holding every unit quaternion `x` with `score(x) ≥ tau`, or `None`
    /// when the bound gives no usable radius (`tau ≤ 0`, or `a` too far
    /// from a real direction).
    ///
    /// With `a = (a·y)·y + a⊥`, `|a·x| ≤ |a·y|·|y·x| + |a⊥|`, so
    /// `score(x) ≥ tau` forces `|y·x| ≥ c = (√tau − |a⊥|)/|a·y|`, and
    /// `‖x ∓ y‖² = 2 − 2|y·x| ≤ 2 − 2c`. Both steps carry
    /// `RADIUS_SLACK` for rounding.
    pub fn radius(&self, y: [f64; 4], tau: f64) -> Option<f64> {
        if tau.is_nan() || tau <= 0.0 {
            return None;
        }
        let dot = |v: &[f64; 4]| v.iter().zip(y).map(|(a, b)| a * b).sum::<f64>();
        let (along_re, along_im) = (dot(&self.re), dot(&self.im));
        let along = along_re.hypot(along_im);
        let perp = (0..4)
            .map(|k| {
                let (pr, pi) = (self.re[k] - along_re * y[k], self.im[k] - along_im * y[k]);
                pr * pr + pi * pi
            })
            .sum::<f64>()
            .sqrt();
        let c = (tau.sqrt() - perp) / along - RADIUS_SLACK;
        (c > 0.0).then(|| (2.0 - 2.0 * c).max(0.0).sqrt() + RADIUS_SLACK)
    }
}

impl<'t> TraceMps<'t> {
    /// Builds the MPS for the given per-site T budgets over a step-0
    /// table (paper step 1; the target is attached per synthesis call).
    ///
    /// # Panics
    ///
    /// Panics if `budgets` is empty.
    pub fn new(table: &'t UnitaryTable, budgets: &[usize]) -> Self {
        assert!(!budgets.is_empty(), "at least one tensor required");
        let sites = budgets.iter().map(|&b| table.up_to_t(b)).collect();
        TraceMps { sites, table }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` if the MPS has no sites (never for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Site `i`'s entries as quaternion planes.
    pub(crate) fn planes(&self, i: usize) -> Planes<'t> {
        self.table.planes(self.sites[i].len())
    }
}

/// The complex references the sampler is checked against: marginals as
/// quadratic forms in the vectorized bond state, with right environments
/// summed over the table.
#[cfg(test)]
pub(crate) mod reference {
    use crate::enumerate::TableEntry;
    use qmath::{Complex64, Mat2};

    /// Vectorizes a bond state `V` (2×2) into index order `p = 2a + z`,
    /// which is `Mat2`'s row-major order.
    pub fn vec4(v: &Mat2) -> [Complex64; 4] {
        v.e
    }

    /// The quadratic form `Σ_{p,q} E_{pq}·v_p·conj(v_q)`: a real,
    /// non-negative marginal weight.
    pub fn quad(e: &[[Complex64; 4]; 4], v: &[Complex64; 4]) -> f64 {
        let mut acc = Complex64::ZERO;
        for p in 0..4 {
            for q in 0..4 {
                acc += e[p][q] * v[p] * v[q].conj();
            }
        }
        acc.re.max(0.0)
    }

    /// Right environments by direct summation: `env[i]` is the 4×4
    /// Hermitian matrix over the vectorized bond with
    /// `quad(env[i], vec4(V)) = Σ_{sᵢ..s_l} |f|²` for a bond state `V`
    /// entering site `i`, so drawing entry `M` at site `i` weighs
    /// `quad(env[i+1], vec4(advance(V, M)))`.
    ///
    /// The last site's is `Σ_s vec(M[s])·vec(M[s])†` (the closing vectors).
    /// Leftwards, `V ↦ MᵀV` pulls each vector `r` of `env[i+1]` back to
    /// `r'_{(a,z)} = Σ_{a'} M_{a,a'}·r_{(a',z)}`, so
    /// `env[i][(a₁,z₁)][(a₂,z₂)] = Σ_s Σ_{a₁',a₂'} M_{a₁,a₁'}·conj(M_{a₂,a₂'})
    /// · env[i+1][(a₁',z₁)][(a₂',z₂)]` over site `i`'s entries.
    pub fn compute_environments(sites: &[&[TableEntry]]) -> Vec<[[Complex64; 4]; 4]> {
        let l = sites.len();
        let mut env = vec![[[Complex64::ZERO; 4]; 4]; l];
        for entry in sites[l - 1] {
            let r = vec4(&entry.matrix);
            for p in 0..4 {
                for q in 0..4 {
                    env[l - 1][p][q] += r[p] * r[q].conj();
                }
            }
        }
        for i in (0..l - 1).rev() {
            let next = env[i + 1];
            for entry in sites[i] {
                let m = &entry.matrix.e;
                for a1 in 0..2 {
                    for z1 in 0..2 {
                        for a2 in 0..2 {
                            for z2 in 0..2 {
                                let mut acc = Complex64::ZERO;
                                for a1p in 0..2 {
                                    for a2p in 0..2 {
                                        acc += m[a1 * 2 + a1p]
                                            * m[a2 * 2 + a2p].conj()
                                            * next[a1p * 2 + z1][a2p * 2 + z2];
                                    }
                                }
                                env[i][a1 * 2 + z1][a2 * 2 + z2] += acc;
                            }
                        }
                    }
                }
            }
        }
        env
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{compute_environments, quad, vec4};
    use super::*;
    use crate::enumerate::{table6, UnitaryTable};
    use proptest::prelude::*;
    use qmath::distance::trace_value;

    fn table() -> UnitaryTable {
        UnitaryTable::build(2)
    }

    /// `conj(U)`: the bond state before site 1.
    fn root(u: &Mat2) -> Mat2 {
        u.adjoint().transpose()
    }

    #[test]
    fn root_advance_is_bitwise_transposed_target_product() {
        // Site 1's bond state `Mᵀ·conj(U)` must be `(U†·M)ᵀ` bit for bit
        // (complex products commute exactly), so sampled traces are the
        // chain's definition to the last bit.
        let t = UnitaryTable::build(3);
        let u = Mat2::u3(0.4, 1.0, -0.3).scale(Complex64::cis(0.7));
        for e in t.entries() {
            let old = (u.adjoint() * e.matrix).transpose();
            let new = advance(&root(&u), &e.matrix);
            for (a, b) in old.e.iter().zip(new.e.iter()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn quaternions_reproduce_their_matrices_up_to_phase() {
        let t = UnitaryTable::build(3);
        for e in t.entries() {
            let [x0, x1, x2, x3] = quaternion(&e.matrix);
            assert!(((x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3) - 1.0).abs() < 1e-14);
            let q = Mat2::new(
                Complex64::new(x0, x1),
                Complex64::new(x2, x3),
                Complex64::new(-x2, x3),
                Complex64::new(x0, -x1),
            );
            assert!(q.approx_eq_phase(&e.matrix, 1e-14), "entry {}", e.seq);
        }
    }

    #[test]
    fn quad_matches_brute_force_marginal_two_sites() {
        // Σ_{s2} |f(s1, s2)|² computed via env must equal brute force.
        let t = table();
        let mps = TraceMps::new(&t, &[1, 1]);
        let env = compute_environments(&mps.sites);
        let u = Mat2::u3(0.4, 1.0, -0.3);
        let s1 = 7usize; // arbitrary
        let v = advance(&root(&u), &mps.sites[0][s1].matrix);
        let marginal = quad(&env[1], &vec4(&v));
        let mut brute = 0.0f64;
        for e2 in mps.sites[1] {
            let f = close(&v, &e2.matrix);
            brute += f.norm_sqr();
        }
        assert!(
            (marginal - brute).abs() < 1e-6 * brute.max(1.0),
            "marginal {marginal} vs brute {brute}"
        );
    }

    #[test]
    fn quad_matches_brute_force_three_sites() {
        let t = UnitaryTable::build(1);
        let mps = TraceMps::new(&t, &[1, 1, 1]);
        let env = compute_environments(&mps.sites);
        let u = Mat2::u3(1.4, -1.0, 0.3);
        let s1 = 11usize;
        let v1 = advance(&root(&u), &mps.sites[0][s1].matrix);
        // Marginal over (s2, s3) via env[1].
        let marginal = quad(&env[1], &vec4(&v1));
        let mut brute = 0.0f64;
        for e2 in mps.sites[1] {
            let v2 = advance(&v1, &e2.matrix);
            for e3 in mps.sites[2] {
                brute += close(&v2, &e3.matrix).norm_sqr();
            }
        }
        assert!(
            (marginal - brute).abs() < 1e-6 * brute.max(1.0),
            "marginal {marginal} vs brute {brute}"
        );
    }

    #[test]
    fn close_computes_exact_trace() {
        let t = table();
        let mps = TraceMps::new(&t, &[2, 2]);
        let u = Mat2::u3(0.9, 0.1, 0.5);
        let ud = u.adjoint();
        for (i, j) in [(0usize, 5usize), (17, 3), (40, 40)] {
            let m1 = &mps.sites[0][i].matrix;
            let m2 = &mps.sites[1][j].matrix;
            let v = advance(&root(&u), m1);
            let f = close(&v, m2);
            let want = (ud * *m1 * *m2).trace();
            assert!(f.approx_eq(want, 1e-10), "trace mismatch");
            // And the derived trace value matches the metric module.
            let tv = f.abs() / 2.0;
            assert!((tv - trace_value(&u, &(*m1 * *m2))).abs() < 1e-10);
        }
    }

    #[test]
    fn closed_form_environments_match_the_sums() {
        // The 2-design argument (module docs) against the direct sums over
        // the table: `E_last = (n_last/2)·I` and `E_i = n_i·E_{i+1}`, so a
        // site's marginal is the same for every entry but the last site's.
        for budgets in [vec![6, 6, 6], vec![2, 3, 4], vec![0, 5], vec![6]] {
            let mps = TraceMps::new(table6(), &budgets);
            let sums = compute_environments(&mps.sites);
            let l = budgets.len();
            let mut scale = mps.sites[l - 1].len() as f64 / 2.0;
            for (i, sum) in sums.iter().enumerate().rev() {
                if i < l - 1 {
                    scale *= mps.sites[i].len() as f64;
                }
                for (p, row) in sum.iter().enumerate() {
                    for (q, got) in row.iter().enumerate() {
                        let want = if p == q { scale } else { 0.0 };
                        assert!(
                            (*got - Complex64::new(want, 0.0)).abs() <= 1e-12 * scale,
                            "budgets {budgets:?}: E{i}[{p}][{q}] {got} vs {want}"
                        );
                    }
                }
            }
        }
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
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The closing form is `|close|²` to rounding.
        #[test]
        fn closing_form_matches_close(v in unitary()) {
            let t = UnitaryTable::build(3);
            let planes = t.planes(t.len());
            let form = ClosingForm::new(&v);
            for (s, m) in t.entries().iter().enumerate() {
                let want = close(&v, &m.matrix).norm_sqr();
                let got = form.score(planes.map(|plane| plane[s]));
                prop_assert!((got - want).abs() <= 1e-14 * want.max(1.0));
            }
        }
    }
}
