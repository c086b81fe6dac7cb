//! Step 1: the trace-value MPS, its right environments, and the SU(2)
//! forms the sampler scores table entries with.
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
//! Perfect sampling needs marginals `Σ_rest |f|²`, which are quadratic
//! forms `vec(V)† Ē vec(V)` ([`quad`]) in the bond state with *right
//! environment* matrices `E_i = Σ_{sᵢ..s_l} r·r†`. This is exactly what
//! the paper's canonical form encodes (a right-canonical MPS makes `E` the
//! identity); keeping `E` explicit avoids re-canonicalizing per target and
//! keeps everything in fixed-size arrays.
//!
//! # Environments in closed form
//!
//! Every site draws from a slice `up_to_t(b)`, which is closed under
//! multiplication by Cliffords, and the Clifford group is a unitary
//! 2-design. So each slice averages like Haar measure to second order:
//! `Σ_s vec(M_s)·vec(M_s)† = (n/2)·I` over `n` entries, and the map
//! `vec(V) ↦ vec(MᵀV)` is unitary. The environments are therefore scaled
//! identities, `E_last = (n_last/2)·I` and `E_i = n_{i+1}·E_{i+1}`, and
//! [`TraceMps::new`] writes them down instead of summing over the table.
//! One consequence: a middle site's marginal `c·‖MᵀV‖² = c·‖V‖²` is the
//! same for every entry, so internal draws are uniform. The sampler keeps
//! the weighted draw (the paper's algorithm, and what `repro ablation`
//! measures); the fact is what makes uniform internal draws a candidate.
//!
//! # SU(2) coordinates
//!
//! `advance`, `quad` and `close` are the reference definitions; the sampler
//! evaluates the same quantities in real coordinates. Every table matrix is
//! a unit quaternion `x` up to phase (`quaternion`):
//! `M = e^{iφ}·Σₖ xₖ·Bₖ` with `B = {I, diag(i,−i), [[0,1],[−1,0]],
//! [[0,i],[i,0]]}`. Both scores are invariant under the phase and quadratic
//! in `x`, so per bond state they collapse to small real forms built once
//! per particle instead of once per entry:
//!
//! * `SiteForm`: `quad(E, vec4(advance(V, M))) = xᵀRx` with the 4×4 real
//!   symmetric `R_kl = Re Σ_pq E_pq·u_k,p·conj(u_l,q)`, `u_k = vec(Bₖᵀ·V)`
//!   — 14 multiplies and 9 adds per entry instead of 280 flops;
//! * `ClosingForm`: `|close(V, M)|² = (Re a·x)² + (Im a·x)²` with
//!   `a = (V₀+V₃, i(V₀−V₃), V₁−V₂, i(V₁+V₂))` — two real dot products.
//!
//! Both are quadratic forms in `x`, so they are also 10 coefficients
//! against the 10 monomials `xᵢxⱼ` (`monomials`): dotted with a table
//! block's summed monomials, they give the block's total weight without
//! touching its entries. For a unitary bond state, `a = 2·e^{iψ}·y` with
//! `y` a real unit quaternion, so the closing score is `4(y·x)²` and its
//! maximum is a nearest-neighbour query on S³ up to sign
//! ([`crate::s3index`]); `ClosingForm::radius` turns a score threshold
//! into a query radius.
//!
//! The forms agree with the references to rounding (~1e-15 relative), not
//! bit for bit; see [`crate::sample`] for why the sampler's outputs are
//! nevertheless unchanged.

use crate::enumerate::{TableEntry, UnitaryTable};
use qmath::{Complex64, Mat2};

/// A 4×4 Hermitian environment matrix over the vectorized bond `(a, z)`
/// with index `p = 2a + z`.
pub type Env4 = [[Complex64; 4]; 4];

/// Unit quaternions of a run of table entries as four coordinate planes
/// (structure of arrays): entry `s` is `[x[0][s], x[1][s], x[2][s], x[3][s]]`.
pub(crate) type Planes<'t> = [&'t [f64]; 4];

/// The site structure of a trace MPS: which table slice each site draws
/// from, plus the per-site right environments.
pub struct TraceMps<'t> {
    /// Per-site matrix tables (slices of the step-0 table).
    pub sites: Vec<&'t [TableEntry]>,
    /// The table the slices come from: its quaternion planes, block
    /// moments and S³ index are what the sampler reads.
    pub(crate) table: &'t UnitaryTable,
    /// `env[i]` = right environment of everything *after* site `i`
    /// (so `env[l-1]` is unused during weight evaluation of the last site;
    /// by convention it is the closing environment).
    pub env: Vec<Env4>,
}

/// Vectorizes a bond state `V` (2×2) into index order `p = 2a + z`.
#[inline]
pub fn vec4(v: &Mat2) -> [Complex64; 4] {
    // V_{a,z} with a = row, z = col: p = 2a + z matches row-major `e`.
    v.e
}

/// The quadratic form `Σ_{p,q} E_{pq}·v_p·conj(v_q)` — a real, non-negative
/// marginal weight.
#[inline]
pub fn quad(e: &Env4, v: &[Complex64; 4]) -> f64 {
    let mut acc = Complex64::ZERO;
    for p in 0..4 {
        for q in 0..4 {
            acc += e[p][q] * v[p] * v[q].conj();
        }
    }
    acc.re.max(0.0)
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

/// A particle's sampled-site weights as a real quadratic form in the
/// entries' quaternions: [`SiteForm::weight`]`(x)` is
/// `quad(E, vec4(advance(V, M)))` for the entry `M` with quaternion `x`.
pub(crate) struct SiteForm {
    /// `R`'s upper triangle, row by row, off-diagonal terms doubled:
    /// `[R₀₀, 2R₀₁, 2R₀₂, 2R₀₃, R₁₁, 2R₁₂, 2R₁₃, R₂₂, 2R₂₃, R₃₃]`.
    c: [f64; 10],
}

impl SiteForm {
    /// Builds `R_kl = Re Σ_pq E_pq·u_k,p·conj(u_l,q)` with
    /// `u_k = vec(Bₖᵀ·V)` from bond state `v` and right environment `e`.
    pub fn new(e: &Env4, v: &Mat2) -> Self {
        let [v0, v1, v2, v3] = v.e;
        let u = [
            [v0, v1, v2, v3],
            [
                times_i(v0),
                times_i(v1),
                times_minus_i(v2),
                times_minus_i(v3),
            ],
            [-v2, -v3, v0, v1],
            [times_i(v2), times_i(v3), times_i(v0), times_i(v1)],
        ];
        let mut r = [[0.0f64; 4]; 4];
        for l in 0..4 {
            // E·conj(u_l), then its dot products with u_k for k ≤ l.
            let mut eu = [Complex64::ZERO; 4];
            for (p, row) in e.iter().enumerate() {
                for (q, &epq) in row.iter().enumerate() {
                    eu[p] += epq * u[l][q].conj();
                }
            }
            for k in 0..=l {
                let mut acc = Complex64::ZERO;
                for p in 0..4 {
                    acc += u[k][p] * eu[p];
                }
                r[k][l] = acc.re;
            }
        }
        SiteForm {
            c: [
                r[0][0],
                2.0 * r[0][1],
                2.0 * r[0][2],
                2.0 * r[0][3],
                r[1][1],
                2.0 * r[1][2],
                2.0 * r[1][3],
                r[2][2],
                2.0 * r[2][3],
                r[3][3],
            ],
        }
    }

    /// `xᵀRx`, clamped at 0 like [`quad`]: 14 multiplies and 9 adds.
    #[inline]
    pub fn weight(&self, [x0, x1, x2, x3]: [f64; 4]) -> f64 {
        let c = &self.c;
        let w = x0 * (c[0] * x0 + c[1] * x1 + c[2] * x2 + c[3] * x3)
            + x1 * (c[4] * x1 + c[5] * x2 + c[6] * x3)
            + x2 * (c[7] * x2 + c[8] * x3)
            + x3 * (c[9] * x3);
        w.max(0.0)
    }

    /// The form against [`monomials`]: `weight(x) = c·monomials(x)`
    /// before clamping.
    pub fn coefficients(&self) -> &[f64; 10] {
        &self.c
    }
}

/// The 10 quadratic monomials of `x` in the order the forms' coefficients
/// use: `[x₀², x₀x₁, x₀x₂, x₀x₃, x₁², x₁x₂, x₁x₃, x₂², x₂x₃, x₃²]`.
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
/// `max(1, best)`: far wider than the forms' ~1e-15 rounding, so the
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
/// chordal distance: far above the ~1e-15 error of the forms and the
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
        let sites: Vec<&[TableEntry]> = budgets.iter().map(|&b| table.up_to_t(b)).collect();
        let env = environments(&sites);
        TraceMps { sites, table, env }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` if the MPS has no sites (never for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Maximum total T count representable by this site structure.
    pub fn t_capacity(&self) -> usize {
        self.sites
            .iter()
            .map(|s| s.iter().map(|e| e.t_count).max().unwrap_or(0))
            .sum()
    }

    /// Site `i`'s entries as quaternion planes.
    pub(crate) fn planes(&self, i: usize) -> Planes<'t> {
        self.table.planes(self.sites[i].len())
    }
}

/// Right environments in closed form (module docs): `E_last = (n_last/2)·I`
/// for the closing vectors, and `E_i = n_{i+1}·E_{i+1}` leftwards.
fn environments(sites: &[&[TableEntry]]) -> Vec<Env4> {
    let scaled_identity = |c: f64| {
        let mut e = [[Complex64::ZERO; 4]; 4];
        for (p, row) in e.iter_mut().enumerate() {
            row[p] = Complex64::new(c, 0.0);
        }
        e
    };
    let l = sites.len();
    let mut c = sites[l - 1].len() as f64 / 2.0;
    let mut env = vec![scaled_identity(c); l];
    for i in (0..l - 1).rev() {
        c *= sites[i + 1].len() as f64;
        env[i] = scaled_identity(c);
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::UnitaryTable;
    use proptest::prelude::*;
    use qmath::distance::trace_value;

    fn table() -> UnitaryTable {
        UnitaryTable::build(2)
    }

    /// Right environments, from the last site leftwards.
    ///
    /// `E_last = Σ_s vec(M[s])·vec(M[s])†` (closing vectors), and for middle
    /// sites `E_i = Σ_s K[s]† E_{i+1} K[s]` where `K[s]` is the linear action
    /// `vec(V) ↦ vec(M[s]ᵀV)` — derived from `r_new = K[s]ᵀ r`, giving
    /// `E_i = Σ K[s]ᵀ E_{i+1} conj(K[s])` which in components is the loop
    /// below.
    fn compute_environments(sites: &[&[TableEntry]]) -> Vec<Env4> {
        let l = sites.len();
        let mut env = vec![[[Complex64::ZERO; 4]; 4]; l];
        // Closing environment for the last site.
        let mut e_last = [[Complex64::ZERO; 4]; 4];
        for entry in sites[l - 1] {
            let r = vec4(&entry.matrix);
            for p in 0..4 {
                for q in 0..4 {
                    e_last[p][q] += r[p] * r[q].conj();
                }
            }
        }
        env[l - 1] = e_last;
        // Middle sites, right to left: new r = K[s]ᵀ r with
        // (K[s]ᵀ r)_{(a,z)} = Σ_{a'} M_{a,a'} r_{(a',z)}.
        for i in (0..l - 1).rev() {
            let mut e = [[Complex64::ZERO; 4]; 4];
            let e_next = env[i + 1];
            for entry in sites[i + 1] {
                let m = &entry.matrix;
                // E_i += Aᵀ where A_{(p),(q)} = Σ M terms; implement directly:
                // E_i[(a1,z1)][(a2,z2)] += Σ_{a1',a2'} M_{a1',a1}... careful:
                // r_new_{(a,z)} = Σ_{a'} M_{a',a}? Derive: V' = MᵀV means
                // V'_{a,z} = Σ_{a'} M_{a',a} V_{a',z}; f is linear in V with
                // r_new such that Σ_p V_p r_new_p = Σ_{p'} V'_{p'} r_{p'}:
                // Σ_{a,z} V_{a,z} r_new_{(a,z)} = Σ_{a',z} V'_{a',z} r_{(a',z)}
                //   = Σ_{a',z} Σ_a M_{a,a'} V_{a,z} r_{(a',z)}
                // ⇒ r_new_{(a,z)} = Σ_{a'} M_{a,a'} r_{(a',z)}.
                // Then E_i = Σ_s r_new r_new† accumulated over E_{i+1}:
                // E_i[(a1,z1)][(a2,z2)] += Σ_{a1',a2'} M_{a1,a1'} conj(M_{a2,a2'})
                //                          · E_{i+1}[(a1',z1)][(a2',z2)].
                for a1 in 0..2 {
                    for z1 in 0..2 {
                        for a2 in 0..2 {
                            for z2 in 0..2 {
                                let mut acc = Complex64::ZERO;
                                for a1p in 0..2 {
                                    for a2p in 0..2 {
                                        acc += m.e[a1 * 2 + a1p]
                                            * m.e[a2 * 2 + a2p].conj()
                                            * e_next[a1p * 2 + z1][a2p * 2 + z2];
                                    }
                                }
                                e[a1 * 2 + z1][a2 * 2 + z2] += acc;
                            }
                        }
                    }
                }
            }
            env[i] = e;
        }
        env
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
        let u = Mat2::u3(0.4, 1.0, -0.3);
        let s1 = 7usize; // arbitrary
        let v = advance(&root(&u), &mps.sites[0][s1].matrix);
        let marginal = quad(&mps.env[1], &vec4(&v));
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
        let u = Mat2::u3(1.4, -1.0, 0.3);
        let s1 = 11usize;
        let v1 = advance(&root(&u), &mps.sites[0][s1].matrix);
        // Marginal over (s2, s3) via env[1].
        let marginal = quad(&mps.env[1], &vec4(&v1));
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
    fn t_capacity_sums_budgets() {
        let t = table();
        let mps = TraceMps::new(&t, &[2, 1, 2]);
        assert_eq!(mps.t_capacity(), 5);
        assert_eq!(mps.len(), 3);
    }

    #[test]
    fn closed_form_environments_match_the_sums() {
        // The 2-design argument against the direct sums over the table.
        let t = UnitaryTable::build(6);
        for budgets in [vec![6, 6, 6], vec![2, 3, 4], vec![0, 5], vec![6]] {
            let mps = TraceMps::new(&t, &budgets);
            let reference = compute_environments(&mps.sites);
            for (got, want) in mps.env.iter().zip(&reference) {
                let scale = want[0][0].re;
                for p in 0..4 {
                    for q in 0..4 {
                        let diff = (got[p][q] - want[p][q]).abs();
                        assert!(
                            diff <= 1e-12 * scale,
                            "budgets {budgets:?}: E[{p}][{q}] {} vs {}",
                            got[p][q],
                            want[p][q]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn environments_are_hermitian_psd_diagonal() {
        let t = table();
        let mps = TraceMps::new(&t, &[1, 2]);
        for e in &mps.env {
            for (p, row) in e.iter().enumerate() {
                assert!(row[p].im.abs() < 1e-9, "diagonal must be real");
                assert!(row[p].re >= -1e-9, "diagonal must be non-negative");
                for (q, cell) in row.iter().enumerate() {
                    assert!(
                        cell.approx_eq(e[q][p].conj(), 1e-9),
                        "environment not Hermitian"
                    );
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

        /// Identity (a): `xᵀRx = quad(E, vec4(advance(V, M)))` for every
        /// entry of a max_t 3 table, against a middle environment and the
        /// closing one, within 1e-12 of the site's total weight.
        #[test]
        fn site_form_matches_quad_of_advance(v in unitary()) {
            let t = UnitaryTable::build(3);
            let mps = TraceMps::new(&t, &[3, 3, 3]);
            let planes = t.planes(t.len());
            for e in &mps.env[1..] {
                let form = SiteForm::new(e, &v);
                let reference: Vec<f64> = t
                    .entries()
                    .iter()
                    .map(|m| quad(e, &vec4(&advance(&v, &m.matrix))))
                    .collect();
                let total: f64 = reference.iter().sum();
                for (s, want) in reference.iter().enumerate() {
                    let x = planes.map(|plane| plane[s]);
                    let got = form.weight(x);
                    prop_assert!(
                        (got - want).abs() <= 1e-12 * total,
                        "entry {s}: {got} vs {want} (site total {total})"
                    );
                }
            }
        }

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
